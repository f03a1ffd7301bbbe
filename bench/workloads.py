"""Seeded inputs, independent answer checks and per-instance execution.

Every instance is solved through the calls a user makes: modular files go
through ``mdlsat.cli.main(["solve", FILE, ...])`` in this process, and
relaxation files through the public calls that ``solve --relax`` makes
(``parse_system``, ``relax_to_idl``, ``solve_idl``, ``check_idl_*``).

The answer checks here use none of the program's own code: graphs are
3-coloured by exhaustive 3^n search, constraint files are parsed and
evaluated by a small parser of this module, relaxation files carry a
planted model or a planted negative cycle, and certificates are re-summed
from the source lines they cite.
"""

from __future__ import annotations

import importlib
import io
import itertools
import random
import re
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

MOD32 = 2**32

#: Per-instance time limit; an instance that reaches it counts as a timeout
#: whose time to verdict is the limit itself.
LIMIT_S = 10.0

EXIT_SAT = 10
EXIT_UNSAT = 20


class InstanceTimeout(BaseException):
    """Raised by the SIGALRM handler when an instance reaches ``LIMIT_S``.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


class ProgramMissing(Exception):
    """The checkout holds no importable ``src/mdlsat`` package."""


def load_program(root: Path):
    """Import ``mdlsat`` from ``root/src`` and return its modules by layer."""
    src = root / "src"
    if not (src / "mdlsat" / "__init__.py").is_file():
        raise ProgramMissing(f"no mdlsat package under {src}")
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"mdlsat.{name}") for name in ("core", "reductions", "mdl", "idl", "cli")}
    except ImportError as err:
        raise ProgramMissing(f"cannot import mdlsat from {src}: {err}") from None
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ProgramMissing(f"mdlsat was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


# --- graphs and the 3^n colouring oracle ------------------------------------


def complete(n):
    return n, [(a, b) for a in range(n) for b in range(a + 1, n)]


def cycle(n):
    return n, sorted((min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n))


def wheel(rim):
    """A rim cycle on 0..rim-1 plus hub vertex ``rim`` joined to all of it."""
    _, edges = cycle(rim)
    return rim + 1, sorted(edges + [(v, rim) for v in range(rim)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, sorted((min(a, b), max(a, b)) for a, b in edges)


def find_3coloring(graph):
    """First proper 3-colouring in lexicographic order over all 3^n, or None."""
    n, edges = graph
    for colors in itertools.product(range(3), repeat=n):
        if all(colors[a] != colors[b] for a, b in edges):
            return colors
    return None


def render_dimacs(graph) -> str:
    n, edges = graph
    return "".join([f"p edge {n} {len(edges)}\n"] + [f"e {a + 1} {b + 1}\n" for a, b in edges])


# --- an independent reader and evaluator for the constraint format ----------

_TERM = r"([A-Za-z_]\w*)(?:\s*([+-])\s*(\d+))?"
_LINE = re.compile(rf"^{_TERM}\s*(<=|>=|<|>|=)\s*(?:{_TERM}|([+-]?\d+))$")
_HOLDS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


@dataclass(frozen=True)
class Line:
    """``x + a REL y + b`` or, when ``y`` is None, ``x + a REL const``."""

    x: str
    a: int
    rel: str
    y: str | None
    b: int


def read_system(text: str):
    """Return (modulus, [Line]) for text in the ``mod N`` constraint format."""
    modulus = None
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if modulus is None:
            word, value = body.split()
            if word != "mod":
                raise ValueError(f"expected a mod header, got {body!r}")
            modulus = int(value)
            continue
        m = _LINE.match(body)
        if m is None:
            raise ValueError(f"cannot read constraint {body!r}")
        x, xs, xk, rel, y, ys, yk, const = m.groups()
        a = int(xk or 0) * (-1 if xs == "-" else 1)
        if y is not None:
            lines.append(Line(x, a, rel, y, int(yk or 0) * (-1 if ys == "-" else 1)))
        else:
            lines.append(Line(x, a, rel, None, int(const)))
    return modulus, lines


def variables(lines) -> set:
    return {line.x for line in lines} | {line.y for line in lines if line.y is not None}


def holds_modular(line: Line, values: dict, n: int) -> bool:
    lhs = (values[line.x] + line.a) % n
    rhs = (values[line.y] + line.b) % n if line.y is not None else line.b % n
    return _HOLDS[line.rel](lhs, rhs)


def holds_integer(line: Line, values: dict) -> bool:
    """The integer reading: no wraparound, constants compared against 0."""
    rhs = values[line.y] + line.b if line.y is not None else line.b
    return _HOLDS[line.rel](values[line.x] + line.a, rhs)


def integer_edges(line: Line, zero: str):
    """The difference constraints ``p - q <= k`` that a line says over the integers."""
    y = line.y if line.y is not None else zero
    b = line.b
    forward = (line.x, y, b - line.a)  # x + a <= y + b
    backward = (y, line.x, line.a - b)  # x + a >= y + b
    return {
        "<=": [forward],
        "<": [(forward[0], forward[1], forward[2] - 1)],
        ">=": [backward],
        ">": [(backward[0], backward[1], backward[2] - 1)],
        "=": [forward, backward],
    }[line.rel]


def candidate_bound(lines) -> int:
    """The paper's B = (2m+1)p for a system, as the normalizer must respect it."""
    m = max([abs(line.a) for line in lines] + [abs(line.b) for line in lines] + [0])
    return (2 * m + 1) * len(variables(lines))


def domain_size(n: int, bound: int) -> int:
    """Size of ([0,B] u [N-1-B, N-1]) n [0, N-1]."""
    return min(n, 2 * bound + 2)


def report_values(report: str, names) -> dict:
    """``name = value`` lines of a report whose name is one of ``names``."""
    values = {}
    for raw in report.splitlines():
        parts = raw.split()
        if len(parts) == 3 and parts[1] == "=" and parts[0] in names:
            values[parts[0]] = int(parts[2])
    return values


def report_field(report: str, key: str):
    """Value of the first ``key = value`` line, or None."""
    for raw in report.splitlines():
        parts = raw.split(" = ", 1)
        if len(parts) == 2 and parts[0] == key:
            return parts[1]
    return None


# --- seeded relaxation files --------------------------------------------------


def _render_term(name: str, offset: int) -> str:
    if offset > 0:
        return f"{name} + {offset}"
    if offset < 0:
        return f"{name} - {-offset}"
    return name


def _render_edge(rng: random.Random, p: str | None, q: str | None, k: int) -> str:
    """One constraint line whose integer reading is exactly ``p - q <= k``.

    ``p`` or ``q`` None stands for the constant 0.  The relation is drawn
    so that every rewriting rule of the relaxation is used.
    """
    base = rng.randint(0, 9)
    if q is None:  # p + base <= base + k
        rel = rng.choice(("<=", "<"))
        return f"{_render_term(p, base)} {rel} {base + k + (rel == '<')}"
    if p is None:  # q + base >= base - k
        rel = rng.choice((">=", ">"))
        return f"{_render_term(q, base)} {rel} {base - k - (rel == '>')}"
    rel = rng.choice(("<=", "<", ">=", ">"))
    low = _render_term(p, base)
    high = _render_term(q, base + k + (rel in ("<", ">")))
    if rel in ("<=", "<"):  # p + base REL q + (base + k + strict)
        return f"{low} {rel} {high}"
    return f"{high} {rel} {low}"  # q + (base + k + strict) REL p + base


def relaxation_file(seed: int, size: int, unsat: bool):
    """A mod 2^32 file with ``size`` variables and 4*size variable pairs.

    Every constraint is satisfied by a planted integer model with slack at
    least 1, except that an UNSAT file also carries a planted 20-edge cycle
    of slack-0 edges closed by one edge of slack -1.  That cycle is then the
    only negative cycle, so its length is 20 whatever the seed.

    The file opens with one bound per variable, in name order, so variable
    ids follow the names; the cycle always passes through the last two
    variables, so a solver that works through the ids meets it at the same
    point whatever the seed.  Returns the text and the planted evidence:
    the model, or the cycle as (p, q, k) triples.
    """
    rng = random.Random(f"relaxation/{seed}/{size}/{unsat}")
    names = [f"x{i}" for i in range(size)]
    value = {name: rng.randint(0, 1 << 20) for name in names}
    bounds = []
    for p in names:
        if rng.random() < 0.5:
            bounds.append((p, None, value[p] + rng.randint(1, 50)))
        else:
            bounds.append((None, p, -value[p] + rng.randint(1, 50)))
    ring = rng.sample(names[:-2], 18) + names[-2:] if unsat else []
    rng.shuffle(ring)
    cycle = []
    for i, p in enumerate(ring):
        q = ring[(i + 1) % len(ring)]
        cycle.append((p, q, value[p] - value[q] - (i == 0)))
    edges = list(cycle)
    while len(edges) < 4 * size:
        p, q = rng.sample(names, 2)
        edges.append((p, q, value[p] - value[q] + rng.randint(1, 50)))
    rng.shuffle(edges)
    lines = [f"mod {MOD32}"] + [_render_edge(rng, p, q, k) for p, q, k in bounds + edges]
    return "\n".join(lines) + "\n", (cycle if unsat else value)


# --- workloads ----------------------------------------------------------------


@dataclass
class Instance:
    """One input of a workload and the verdict its oracle gives."""

    name: str
    kind: str  # "coloring", "modular" or "relaxation"
    expected: str  # "SAT" or "UNSAT"
    text: str = ""  # the input file, for "modular" and "relaxation"
    graph: tuple | None = None  # (n, edges), for "coloring"
    variant: str = ""
    modulus: int = 0
    normalize: bool = False  # solve with --normalize and, for a graph, decode
    stretch: bool = False  # expected to reach the time limit on the seed code
    quick: bool = True  # run by the counter test and repeated in rounds by run.py; False for the slowest


def _coloring(name, graph, variant, modulus, normalize=False, stretch=False, quick=True) -> Instance:
    expected = "UNSAT" if find_3coloring(graph) is None else "SAT"
    return Instance(name, "coloring", expected, graph=graph, variant=variant, modulus=modulus,
                    normalize=normalize, stretch=stretch, quick=quick)


def _planted_verdict(text: str, evidence, integer: bool) -> str:
    """The verdict the planted evidence proves, checked with this module's reader."""
    _, lines = read_system(text)
    if isinstance(evidence, dict):
        if all(holds_integer(line, evidence) if integer else holds_modular(line, evidence, MOD32) for line in lines):
            return "SAT"
    elif integer and _is_negative_cycle(evidence, lines):
        return "UNSAT"
    raise ValueError("planted evidence does not decide its own file")


def _is_negative_cycle(cycle, lines, origins=None) -> bool:
    """A closed simple chain of edges, each said by a line, with negative sum.

    With ``origins``, edge i must be said by line ``origins[i]``; otherwise
    by any line.
    """
    said = [set(integer_edges(line, "0")) for line in lines]
    everything = set().union(*said)
    for i, edge in enumerate(cycle):
        if edge not in (said[origins[i]] if origins is not None else everything):
            return False
    closed = all(cycle[i][1] == cycle[(i + 1) % len(cycle)][0] for i in range(len(cycle)))
    simple = len({p for p, _, _ in cycle}) == len(cycle)
    return bool(cycle) and closed and simple and sum(k for _, _, k in cycle) < 0


# The graphs keep fixed labellings, so the seed changes no coloring input.
# Relabelling changes the search far more than run-to-run noise does: W5 at
# N=8 takes 7.5k to 91k nodes across 30 labellings (45k with the hub last,
# as here), Petersen at N=64 takes 297 nodes in most labellings but 4,144
# in one of 30, and C5's support-table compile takes 3.5s or 5.0s.  A seed
# that relabelled would set the figures instead of the program.


def coloring_unsat(seed: int) -> list:
    """Non-3-colourable graphs: the search must exhaust the candidate domain."""
    k4 = complete(4)
    return [
        _coloring("k4-nonstrict-n8", k4, "nonstrict", 8),
        _coloring("k4-nonstrict-n12", k4, "nonstrict", 12),
        _coloring("k4-strict-n9", k4, "strict", 9),
        _coloring("k4-strict-n16", k4, "strict", 16),
        _coloring("k4-nonstrict-n16", k4, "nonstrict", 16, quick=False),
        _coloring("w5-nonstrict-n8", wheel(5), "nonstrict", 8, quick=False),
        _coloring("k4-nonstrict-n2^32", k4, "nonstrict", MOD32, stretch=True, quick=False),
    ]


def coloring_sat_wide(seed: int) -> list:
    """3-colourable graphs at wide candidate domains, through normalize and decode."""
    pet = petersen()
    big = f"mod {MOD32}\nx + 100000 <= y\n"
    return [
        _coloring("petersen-nonstrict-n16", pet, "nonstrict", 16, normalize=True),
        _coloring("petersen-nonstrict-n64", pet, "nonstrict", 64, normalize=True),
        _coloring("petersen-strict-n16", pet, "strict", 16, normalize=True),
        _coloring("c5-nonstrict-n2^32", cycle(5), "nonstrict", MOD32, normalize=True, quick=False),
        Instance("big-offset-n2^32", "modular", _planted_verdict(big, {"x": 0, "y": 100000}, integer=False),
                 text=big, normalize=True, stretch=True, quick=False),
    ]


def relaxation(seed: int) -> list:
    """Planted integer difference systems, V in {100, 200, 300} and E = 4V."""
    out = []
    for size in (100, 200, 300):
        for unsat in (False, True):
            text, evidence = relaxation_file(seed, size, unsat)
            name = f"{'unsat' if unsat else 'sat'}-v{size}"
            out.append(Instance(name, "relaxation", _planted_verdict(text, evidence, integer=True),
                                text=text))
    return out


WORKLOADS = {
    "coloring-unsat": coloring_unsat,
    "coloring-sat-wide": coloring_sat_wide,
    "relaxation": relaxation,
}


def write_inputs(instances, workdir: Path) -> None:
    """Write each instance's input file: a DIMACS graph or a constraint file."""
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        if inst.kind == "coloring":
            (workdir / f"{inst.name}.col").write_text(render_dimacs(inst.graph))
        else:
            (workdir / f"{inst.name}.mdl").write_text(inst.text)


# --- running one instance -----------------------------------------------------


@dataclass
class Attempt:
    """One solve of one instance.  ``report`` is compared across attempts."""

    instance: str
    status: str  # "decided", "timeout" or "failed"
    seconds: float
    verdict: str | None = None
    report: str = ""
    problems: list = field(default_factory=list)
    scale: float = 1.0  # host-speed factor to reference time; see reference.py
    start: float = 0.0  # perf_counter() when the timed region began


def _raise_timeout(signum, frame):
    raise InstanceTimeout()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _raise_timeout)


def _call(prog, argv):
    """Run ``mdlsat`` in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = prog.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def attempt(prog, inst: Instance, workdir: Path) -> Attempt:
    """Solve one instance under the time limit, then check its answer."""
    prefix = workdir / inst.name
    steps = {}
    if inst.kind == "coloring":  # the encoding is set-up, outside the timed region
        steps["reduce"] = _call(prog, ["reduce", f"{prefix}.col", "--variant", inst.variant,
                                       "--mod", str(inst.modulus), "--out", str(prefix)])
        if steps["reduce"][0] != 0:
            return Attempt(inst.name, "failed", 0.0, problems=[f"reduce exited {steps['reduce'][0]}"])
    pipeline = _relax if inst.kind == "relaxation" else _solve_and_decode
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        pipeline(prog, inst, prefix, steps)
    except InstanceTimeout:
        return Attempt(inst.name, "timeout", LIMIT_S)
    except Exception as err:  # the program crashed: a failed attempt, not a benchmark error
        return Attempt(inst.name, "failed", time.perf_counter() - start, problems=[f"raised {err!r}"], start=start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    report = "".join(out for _, out, _ in steps.values())
    verdict = report_field(report, "verdict")
    try:
        problems = _check(inst, prefix, steps, verdict)
    except ValueError as err:
        problems = [f"unreadable output: {err}"]
    return Attempt(inst.name, "failed" if problems else "decided", seconds, verdict, report, problems, start=start)


def _solve_and_decode(prog, inst, prefix, steps) -> None:
    args = ["solve", f"{prefix}.mdl"] + (["--normalize"] if inst.normalize else [])
    steps["solve"] = _call(prog, args)
    if inst.kind == "coloring" and inst.normalize and steps["solve"][0] == EXIT_SAT:
        Path(f"{prefix}.model").write_text(steps["solve"][1])
        steps["decode"] = _call(prog, ["decode", f"{prefix}.meta", f"{prefix}.model"])


def _relax(prog, inst, prefix, steps) -> None:
    steps["relax"] = _relaxation_report(prog, f"{prefix}.mdl")


def _relaxation_report(prog, path):
    """What ``solve --relax`` computes for the integer reading, as a report."""
    with open(path) as handle:
        system = prog.core.parse_system(handle.read())
    relaxation = prog.idl.relax_to_idl(system)
    outcome = prog.idl.solve_idl(relaxation.constraints)
    zero = relaxation.zero_var

    def name(v):
        return "0" if v == zero else system.symbols.name_of(v)

    if outcome.sat:
        model = dict(outcome.model)
        if zero is not None and zero in model:
            model = {v: value - model[zero] for v, value in model.items()}
        ok = prog.idl.check_idl_model(relaxation.constraints, model)
        lines = ["verdict = SAT"] + [f"{name(v)} = {model[v]}" for v in sorted(model, key=name) if v != zero]
    else:
        ok = prog.idl.check_idl_cycle(outcome.cycle)
        lines = ["verdict = UNSAT", f"cycle-length = {len(outcome.cycle)}"]
        lines += [f"core: {c.origin} {name(c.x)} {name(c.y)} {c.k}" for c in outcome.cycle]
    lines.append(f"certificate-check = {'ok' if ok else 'failed'}")
    code = EXIT_SAT if outcome.sat else EXIT_UNSAT
    return code, "\n".join(lines) + "\n", ""


def _check(inst: Instance, prefix, steps, verdict) -> list:
    """Everything wrong with an attempt's answer, by the benchmark's own checks."""
    problems = []
    code, report, err = steps.get("solve") or steps["relax"]
    if verdict != inst.expected:
        problems.append(f"verdict {verdict}, expected {inst.expected}")
    if code != {"SAT": EXIT_SAT, "UNSAT": EXIT_UNSAT}.get(verdict):
        problems.append(f"exit code {code} for verdict {verdict}: {err.strip()[:200]}")
    if problems:
        return problems
    text = inst.text or Path(f"{prefix}.mdl").read_text()
    n, lines = read_system(text)
    if inst.kind == "relaxation":
        return _check_relaxation(report, lines)
    if verdict == "SAT":
        values = report_values(report, variables(lines))
        if len(values) != len(variables(lines)):
            return ["SAT report lacks model lines"]
        if not all(holds_modular(line, values, n) for line in lines):
            problems.append("model fails re-evaluation")
        bound = candidate_bound(lines)
        if inst.normalize and any(bound < v < n - 1 - bound for v in values.values()):
            problems.append("normalized model leaves the bounded domain")
        if "decode" in steps:
            problems += _check_decode(inst.graph, steps["decode"])
    return problems


def _check_decode(graph, step) -> list:
    code, out, err = step
    if code != 0:
        return [f"decode exited {code}: {err.strip()[:200]}"]
    coloring = {}
    for raw in out.splitlines():
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "color":
            coloring[int(parts[1])] = int(parts[2])
    n, edges = graph
    if sorted(coloring) != list(range(n)) or not set(coloring.values()) <= {0, 1, 2}:
        return ["decoded colouring is not total"]
    if any(coloring[a] == coloring[b] for a, b in edges):
        return ["decoded colouring is not proper"]
    return []


def _check_relaxation(report, lines) -> list:
    if "certificate-check = ok" not in report:
        return ["the program's own certificate check failed"]
    if report_field(report, "verdict") == "SAT":
        values = report_values(report, variables(lines))
        if len(values) != len(variables(lines)) or not all(holds_integer(line, values) for line in lines):
            return ["integer model fails re-evaluation"]
        return []
    origins, cycle = [], []
    for raw in report.splitlines():
        if raw.startswith("core: "):
            origin, p, q, k = raw[len("core: "):].split()
            origins.append(int(origin))
            cycle.append((p, q, int(k)))
    if not _is_negative_cycle(cycle, lines, origins):
        return ["cycle fails re-summation"]
    return []
