import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from conftest import is_three_colorable, time_limit
from hypothesis import given, settings, strategies as st

from mdlsat import cli, core, idl, mdl
from mdlsat.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SAT,
    EXIT_UNSAT,
    EXIT_USAGE,
    gen_chain,
    gen_idl_paper,
    gen_intro1,
    gen_random,
    main,
)
from mdlsat.core import Modulus, parse_system, render_system, satisfies
from mdlsat.idl import DiffEngine
from mdlsat.mdl import SearchStats, SolveOutcome, small_model_bound
from mdlsat.reductions import (
    MAX_VERTICES,
    Graph,
    Variant,
    encode_3col,
    parse_dimacs_graph,
    parse_meta,
    render_dimacs_graph,
    render_meta,
    verify_coloring,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    return None


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- generators -------------------------------------------------------------


def test_gen_intro1_text():
    assert gen_intro1(16) == "mod 16\nx >= 0\nx + 1 <= 0\n"


def test_gen_chain_counts():
    system = parse_system(gen_chain(5))
    assert system.num_vars == 6
    assert len(system.constraints) == 5


def test_gen_idl_paper_text():
    assert gen_idl_paper(10) == (
        "mod 10\nx1 + 3 <= x2\nx2 <= x3 + 1\nx3 + 2 <= x4\nx4 <= x1 + 3\n"
    )


def test_gen_random_is_deterministic_and_bounded():
    a = gen_random(3, 5, 2, 12, 7)
    b = gen_random(3, 5, 2, 12, 7)
    assert a == b
    system = parse_system(a)
    assert system.max_abs_constant <= 2
    assert len(system.constraints) == 5
    assert gen_random(3, 5, 2, 12, 8) != a


# --- solve ------------------------------------------------------------------


def test_solve_intro_sat_with_relaxation_gap(tmp_path, capsys):
    path = write(tmp_path, "intro.mdl", gen_intro1(16))
    code, out, err = run(capsys, "solve", path, "--relax")
    assert code == EXIT_SAT
    assert report_value(out, "verdict") == "SAT"
    assert "x = 15" in out.splitlines()
    relax = out[out.index("integer-relaxation") :]
    assert "verdict = UNSAT" in relax
    assert "cycle-weight = -1" in relax
    assert "core: x >= 0" in relax
    assert "core: x + 1 <= 0" in relax
    assert "time-ms" in err


def test_solve_chain_unsat_relaxation_sat(tmp_path, capsys):
    path = write(tmp_path, "chain.mdl", gen_chain(5))
    code, out, _ = run(capsys, "solve", path, "--relax")
    assert code == EXIT_UNSAT
    head, relax = out.split("semantics = integer-relaxation")
    assert "verdict = UNSAT" in head
    assert "verdict = SAT" in relax
    # integer model is printed zero-based and increasing
    values = [int(report_value(relax, f"x{i}")) for i in range(6)]
    assert values == sorted(values) and len(set(values)) == 6


def test_solve_oracle_agrees(tmp_path, capsys):
    path = write(tmp_path, "r.mdl", gen_random(3, 5, 2, 10, 3))
    code_search, out_search, _ = run(capsys, "solve", path)
    code_oracle, out_oracle, _ = run(capsys, "solve", path, "--oracle")
    assert code_search == code_oracle
    assert report_value(out_search, "verdict") == report_value(out_oracle, "verdict")
    assert report_value(out_oracle, "method") == "enumeration"


def test_solve_normalize_puts_values_in_domain(tmp_path, capsys):
    path = write(tmp_path, "n.mdl", "mod 1000\nx + 5 <= y\n")
    code, out, _ = run(capsys, "solve", path, "--normalize")
    assert code == EXIT_SAT
    assert report_value(out, "normalized") == "yes"
    system = parse_system((tmp_path / "n.mdl").read_text())
    bound = small_model_bound(system)
    for name in ("x", "y"):
        assert int(report_value(out, name)) in bound


def test_solve_normalize_big_offset_at_two_to_the_32(tmp_path, capsys):
    path = write(tmp_path, "big.mdl", f"mod {2**32}\nx + 100000 <= y\n")
    with time_limit(2.0):
        code, out, _ = run(capsys, "solve", path, "--normalize")
    assert code == EXIT_SAT
    system = parse_system((tmp_path / "big.mdl").read_text())
    model = {0: int(report_value(out, "x")), 1: int(report_value(out, "y"))}
    assert satisfies(system, model)
    assert all(v in small_model_bound(system) for v in model.values())
    assert report_value(out, "domain-size") == "800006"


def test_solve_domain_size_beyond_machine_integers(tmp_path, capsys):
    n = 10**30
    path = write(tmp_path, "huge.mdl", f"mod {n}\nx <= {n - 1}\n")
    with time_limit(2.0):
        code, out, _ = run(capsys, "solve", path, "--normalize")
    assert code == EXIT_SAT
    assert report_value(out, "domain-size") == str(n)


def test_solve_reports_are_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "s.mdl", gen_random(3, 6, 2, 12, 41))
    _, first, _ = run(capsys, "solve", path, "--relax")
    _, second, _ = run(capsys, "solve", path, "--relax")
    assert first == second


def test_one_call_leaves_no_options_for_the_next(tmp_path, capsys):
    # the argument parser is built once per process and shared by every call
    path = write(tmp_path, "s.mdl", gen_intro1(16))
    _, relaxed, _ = run(capsys, "solve", path, "--relax")
    code, plain, _ = run(capsys, "solve", path)
    assert code == EXIT_SAT
    assert "integer-relaxation" in relaxed
    assert "integer-relaxation" not in plain
    assert plain == relaxed[: relaxed.index("semantics = integer-relaxation")]


def test_solve_malformed_file(tmp_path, capsys):
    path = write(tmp_path, "bad.mdl", "mod 10\nx << y\n")
    code, _, err = run(capsys, "solve", path)
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.mdl")
    assert code == EXIT_USAGE
    assert "error" in err


def test_solve_oracle_budget_exceeded(tmp_path, capsys):
    path = write(tmp_path, "big.mdl", gen_chain(8))
    code, out, err = run(capsys, "solve", path, "--oracle")  # 8^9 > 10^7 assignments
    assert code == EXIT_USAGE
    assert "budget" in err
    assert out == ""


@pytest.mark.parametrize("mod, lines", [(2**32, 451), (10, 4399)], ids=["mod-2^32-452-vars", "mod-10-4400-vars"])
def test_solve_oracle_budget_exceeded_past_the_int_digit_limit(tmp_path, capsys, mod, lines):
    # N^p has more than 4,300 digits, which str() refuses to render
    chain = "".join(f"x{i} <= x{i + 1}\n" for i in range(lines))
    path = write(tmp_path, "wide.mdl", f"mod {mod}\n" + chain)
    code, out, err = run(capsys, "solve", path, "--oracle")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "budget" in err
    assert "Traceback" not in err
    assert out == ""


def test_solve_number_too_long_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "long.mdl", "mod 1" + "0" * 5000 + "\n")
    code, out, err = run(capsys, "solve", path)
    assert code == EXIT_USAGE
    assert "too long" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "last", ["y + {k} <= x", "y + {k} <= z"], ids=["cycle-weight", "model-value"]
)
def test_relaxation_figure_too_long_to_print_is_an_error(tmp_path, capsys, last):
    # K parses, but the cycle weight -2K, or the value of z at least 2K above
    # x, has one digit more than str() converts
    k = "9" * 4300
    path = write(tmp_path, "nines.mdl", f"mod 7\nx + {k} <= y\n{last.format(k=k)}\n")
    code, out, err = run(capsys, "solve", path, "--relax")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_solve_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bin.mdl"
    path.write_bytes(b"mod 16\nx <= \xff\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error: ")
    assert out == ""


def test_solve_self_check_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    greatest = DiffEngine.greatest
    monkeypatch.setattr(
        DiffEngine, "greatest", lambda self, root: {v: d + 1 for v, d in greatest(self, root).items()}
    )
    path = write(tmp_path, "intro1.mdl", gen_intro1(16))
    code, out, err = run(capsys, "solve", path)
    assert code == EXIT_INTERNAL
    assert "internal error" in err
    assert out == ""


def test_failed_relaxation_certificate_check_prints_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(idl, "check_idl_cycle", lambda cycle: False)
    path = write(tmp_path, "intro1.mdl", gen_intro1(16))
    code, out, err = run(capsys, "solve", path, "--relax")
    assert code == EXIT_INTERNAL
    assert "internal error" in err
    assert out == ""


@pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["search", "oracle"])
def test_solve_evaluates_each_assignment_once(tmp_path, capsys, monkeypatch, flags):
    # each method re-evaluates its own model, and the CLI does not again: the
    # search evaluates only its model, enumeration each assignment it tries
    calls = []
    for module in (core, mdl):
        real = module.eval_system
        monkeypatch.setattr(module, "eval_system", lambda *args, real=real: calls.append(args) or real(*args))
    path = write(tmp_path, "intro1.mdl", gen_intro1(16))
    code, out, _ = run(capsys, "solve", path, *flags)
    assert code == EXIT_SAT
    assert len(calls) == (int(report_value(out, "nodes")) if flags else 1)


def test_model_outside_the_domain_fails_without_normalize(tmp_path, capsys, monkeypatch):
    # x = y = 10 satisfies x <= y mod 64, but B = 2 puts D at [0, 2] u [61, 63]
    outside = SolveOutcome(True, {0: 10, 1: 10}, SearchStats("cdcl", 0))
    monkeypatch.setattr(mdl, "solve", lambda system: outside)
    path = write(tmp_path, "le.mdl", "mod 64\nx <= y\n")
    code, out, err = run(capsys, "solve", path)
    assert code == EXIT_INTERNAL
    assert "bounded domain" in err
    assert out == ""


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_solve_has_no_budget_option(tmp_path, capsys):
    path = write(tmp_path, "intro1.mdl", gen_intro1(16))
    code, out, err = run(capsys, "solve", path, "--oracle", "--budget", "5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: unrecognized arguments: --budget 5\n"


# --- reduce / decode pipeline -------------------------------------------------


def test_reduce_writes_instance_and_meta(tmp_path, capsys):
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    prefix = str(tmp_path / "k3")
    code, out, _ = run(capsys, "reduce", graph_path, "--variant", "nonstrict", "--mod", "16", "--out", prefix)
    assert code == EXIT_OK
    system = parse_system((tmp_path / "k3.mdl").read_text())
    assert system.num_vars == 27
    assert len(system.constraints) == 36
    assert (tmp_path / "k3.meta").exists()


def test_reduce_modulus_too_small(tmp_path, capsys):
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    argv = ("--variant", "strict", "--mod", "8", "--out", str(tmp_path / "x"))
    code, out, err = run(capsys, "reduce", graph_path, *argv)
    assert code == EXIT_USAGE
    assert "modulus" in err
    assert out == ""


def test_reduce_reads_its_modulus_in_the_grammars_spelling(tmp_path, capsys):
    # int() reads the digit groups of 1_6 as 16; the constraint grammar refuses them
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    code, out, err = run(capsys, "reduce", graph_path, "--mod", "1_6", "--out", str(tmp_path / "k3"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: argument --mod: invalid int value: '1_6'\n"
    assert not (tmp_path / "k3.mdl").exists()


def test_reduce_empty_graph(tmp_path, capsys):
    graph_path = write(tmp_path, "empty.col", "p edge 0 0\n")
    prefix = str(tmp_path / "empty")
    code, _, _ = run(capsys, "reduce", graph_path, "--mod", "16", "--out", prefix)
    assert code == EXIT_OK
    assert (tmp_path / "empty.mdl").read_text() == "mod 16\n"


def test_reduce_rejects_a_vertex_count_over_the_limit(tmp_path, capsys):
    graph_path = write(tmp_path, "huge.col", f"p edge {MAX_VERTICES + 1} 0\n")
    with time_limit(2.0):
        code, out, err = run(capsys, "reduce", graph_path, "--mod", "16", "--out", str(tmp_path / "huge"))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert "limit" in err
    assert not (tmp_path / "huge.mdl").exists()


def test_reduce_solve_decode_pipeline(tmp_path, capsys):
    graph = Graph.cycle(5)
    graph_path = write(tmp_path, "c5.col", render_dimacs_graph(graph))
    prefix = str(tmp_path / "c5")
    code, _, _ = run(capsys, "reduce", graph_path, "--variant", "strict", "--mod", "9", "--out", prefix)
    assert code == EXIT_OK
    code, solve_out, _ = run(capsys, "solve", prefix + ".mdl")
    assert code == EXIT_SAT
    model_path = write(tmp_path, "model.txt", solve_out)  # full report doubles as model file
    code, decode_out, _ = run(capsys, "decode", prefix + ".meta", model_path)
    assert code == EXIT_OK
    colors = {}
    for line in decode_out.splitlines():
        _, v, c = line.split()
        colors[int(v)] = int(c)
    assert all(colors[v] != colors[w] for v, w in graph.edges)


def test_file_commands_do_not_read_or_write_in_the_locale_encoding(tmp_path):
    # the grammar accepts Unicode digits and blanks, so a file must read the
    # same under every locale; an ``open`` without ``encoding=`` fails here
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def cli(*argv):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "mdlsat.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert "Traceback" not in done.stderr, done.stderr
        return done.returncode, done.stdout

    intro = str(tmp_path / "intro.mdl")
    assert cli("gen", "intro1", "--out", intro)[0] == EXIT_OK
    assert cli("solve", intro, "--relax")[0] == EXIT_SAT
    graph_path = write(tmp_path, "c5.col", render_dimacs_graph(Graph.cycle(5)))
    prefix = str(tmp_path / "c5")
    assert cli("reduce", graph_path, "--variant", "strict", "--mod", "9", "--out", prefix)[0] == EXIT_OK
    code, report = cli("solve", prefix + ".mdl")
    assert code == EXIT_SAT
    assert cli("decode", prefix + ".meta", write(tmp_path, "model.txt", report))[0] == EXIT_OK


def test_decode_rejects_non_model(tmp_path, capsys):
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    prefix = str(tmp_path / "k3")
    run(capsys, "reduce", graph_path, "--mod", "16", "--out", prefix)
    system = parse_system((tmp_path / "k3.mdl").read_text())
    bogus = "\n".join(f"{name} = 0" for name in system.symbols.names) + "\n"
    model_path = write(tmp_path, "bogus.txt", bogus)
    code, out, err = run(capsys, "decode", prefix + ".meta", model_path)
    assert code == EXIT_INTERNAL
    assert "does not satisfy" in err
    assert out == ""


@pytest.mark.parametrize("variant", ["nonstrict", "strict"])
@pytest.mark.parametrize("shift", [16, -16], ids=["plus-n", "minus-n"])
def test_decode_rejects_values_outside_the_residues(tmp_path, capsys, variant, shift):
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    prefix = str(tmp_path / "k3")
    run(capsys, "reduce", graph_path, "--variant", variant, "--mod", "16", "--out", prefix)
    code, solve_out, _ = run(capsys, "solve", prefix + ".mdl")
    assert code == EXIT_SAT
    system = parse_system((tmp_path / "k3.mdl").read_text())
    model = {name: int(report_value(solve_out, name)) for name in system.symbols.names}
    # the shifted values still satisfy the system, which is read mod N
    shifted = {system.symbols.id_of(name): value + shift for name, value in model.items()}
    assert satisfies(system, shifted)
    text = "".join(f"{name} = {value + shift}\n" for name, value in sorted(model.items()))
    code, out, err = run(capsys, "decode", prefix + ".meta", write(tmp_path, "shifted.txt", text))
    assert code == EXIT_USAGE
    assert err.startswith("error: model value ") and "outside [0, 15]" in err
    assert "Traceback" not in err
    assert out == ""


def test_decode_incomplete_model(tmp_path, capsys):
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    prefix = str(tmp_path / "k3")
    run(capsys, "reduce", graph_path, "--mod", "16", "--out", prefix)
    model_path = write(tmp_path, "short.txt", "v0_c0 = 15\n")
    code, out, err = run(capsys, "decode", prefix + ".meta", model_path)
    assert code == EXIT_USAGE
    assert "lacks values" in err
    assert out == ""


def test_decode_reads_model_values_only_in_the_grammars_spelling(tmp_path, capsys):
    """A sign and decimal digits, as a constant of the constraint grammar: a
    value spelled '1_5', which int() reads as 15, is no value, and its line
    is skipped like any other that is not a model line."""
    graph_path = write(tmp_path, "k3.col", render_dimacs_graph(Graph.complete(3)))
    prefix = str(tmp_path / "k3")
    run(capsys, "reduce", graph_path, "--mod", "16", "--out", prefix)
    solve_out = run(capsys, "solve", prefix + ".mdl")[1]
    names = sorted(parse_system((tmp_path / "k3.mdl").read_text()).symbols.names)
    values = {name: report_value(solve_out, name) for name in names}
    top = next(name for name in names if values[name] == "15")
    signed = "".join(f"{name} = +{values[name]}\n" for name in names)
    assert run(capsys, "decode", prefix + ".meta", write(tmp_path, "signed.txt", signed))[0] == EXIT_OK
    grouped = signed.replace(f"{top} = +15\n", f"{top} = 1_5\n")
    code, out, err = run(capsys, "decode", prefix + ".meta", write(tmp_path, "grouped.txt", grouped))
    assert code == EXIT_USAGE
    assert f"lacks values for: {top}" in err
    assert out == ""


_META = "c variant nonstrict mod 16\np edge 2 1\ne 1 2\n"


@pytest.mark.parametrize(
    "meta",
    [
        "",
        _META.replace("c variant nonstrict mod 16\n", ""),
        _META.replace("c variant", "c variety"),
        _META.replace("nonstrict", "medium"),
        _META.replace("mod 16", "mod abc"),
        _META.replace("mod 16", "mod 1"),
        _META.replace("mod 16", "mod 1_6"),
        _META.replace("nonstrict mod 16", "strict mod 8"),
        _META.replace("p edge 2 1", "p edge"),
        _META.replace("p edge 2 1", "p edge 2 2"),
        _META.replace("e 1 2", "e 1 5"),
        _META.replace("p edge 2 1", "p edge 0_2 1"),
        _META.replace("e 1 2", "e 1 0_2"),
        _META + "edge 0 1 5 a b\n",
    ],
    ids=[
        "empty",
        "missing-header",
        "garbled-header",
        "unknown-variant",
        "modulus-not-integer",
        "modulus-below-two",
        "modulus-with-underscore",  # int() reads it as 16
        "modulus-too-small-for-strict",
        "bare-vertices",
        "edge-count-mismatch",
        "vertex-out-of-range",
        "vertex-count-with-underscore",
        "vertex-with-underscore",
        "edge-color-out-of-range",  # a line of the old format
    ],
)
def test_decode_malformed_meta_is_a_usage_error(tmp_path, capsys, meta):
    meta_path = write(tmp_path, "bad.meta", meta)
    # a model of _META's own encoding, so only the sidecar can be at fault
    system, _ = encode_3col(Graph.complete(2), Modulus(16), Variant.NONSTRICT)
    model = mdl.solve(system).model
    text = "".join(f"{name} = {model[i]}\n" for i, name in enumerate(system.symbols.names))
    model_path = write(tmp_path, "model.txt", text)
    assert run(capsys, "decode", write(tmp_path, "good.meta", _META), model_path)[0] == EXIT_OK
    code, out, err = run(capsys, "decode", meta_path, model_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


def test_decode_rejects_an_old_format_meta_at_line_1(tmp_path, capsys):
    """The sidecar that once listed every encoding name: re-make it with reduce."""
    old = (
        "variant nonstrict mod 16\nvertices 2\n"
        "vertex 0 v0_c0 v0_c1 v0_c2\nvertex 1 v1_c0 v1_c1 v1_c2\n"
        + "".join(f"edge 0 1 {c} e0_1_c{c} f0_1_c{c}\n" for c in range(3))
    )
    model_path = write(tmp_path, "model.txt", "v0_c0 = 15\n")
    code, out, err = run(capsys, "decode", write(tmp_path, "old.meta", old), model_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: line 1: ") and "Traceback" not in err
    assert out == ""


def test_decode_rejects_a_meta_vertex_count_over_the_limit(tmp_path, capsys):
    meta_path = write(tmp_path, "huge.meta", f"c variant nonstrict mod 16\np edge {MAX_VERTICES + 1} 0\n")
    model_path = write(tmp_path, "model.txt", "v0_c0 = 15\n")
    with time_limit(2.0):
        code, out, err = run(capsys, "decode", meta_path, model_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: line 2: ") and "limit" in err
    assert out == ""


def test_reduce_reads_its_own_meta_as_a_graph(tmp_path, capsys):
    graph_path = write(tmp_path, "c5.col", render_dimacs_graph(Graph.cycle(5)))
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    argv = ("--variant", "strict", "--mod", "16")
    assert run(capsys, "reduce", graph_path, *argv, "--out", first)[0] == EXIT_OK
    assert run(capsys, "reduce", first + ".meta", *argv, "--out", second)[0] == EXIT_OK
    assert (tmp_path / "second.mdl").read_bytes() == (tmp_path / "first.mdl").read_bytes()
    assert (tmp_path / "second.meta").read_bytes() == (tmp_path / "first.meta").read_bytes()


# --- gen command ------------------------------------------------------------


def test_gen_to_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "intro1", "--mod", "16")
    assert code == EXIT_OK
    assert out == gen_intro1(16)
    target = str(tmp_path / "o.mdl")
    code, out, _ = run(capsys, "gen", "chain", "--mod", "5", "--out", target)
    assert code == EXIT_OK
    assert (tmp_path / "o.mdl").read_text() == gen_chain(5)


def test_gen_chain_requires_mod(capsys):
    code, out, _ = run(capsys, "gen", "chain")
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("kind", ["intro1", "idl-paper", "chain", "random"])
def test_gen_rejects_a_modulus_below_two(capsys, kind):
    code, out, err = run(capsys, "gen", kind, "--mod", "1")
    assert code == EXIT_USAGE
    assert err.startswith("error: modulus must be an integer >= 2")
    assert out == ""


def test_gen_random_cli_deterministic(capsys):
    _, a, _ = run(capsys, "gen", "random", "--vars", "3", "--cons", "5", "--m", "2", "--mod", "12", "--seed", "7")
    _, b, _ = run(capsys, "gen", "random", "--vars", "3", "--cons", "5", "--m", "2", "--mod", "12", "--seed", "7")
    assert a == b == gen_random(3, 5, 2, 12, 7)


@pytest.mark.parametrize(
    "spelling, expected",
    [
        ("+10", (EXIT_OK, gen_random(3, 5, 2, 12, 10), "")),
        (" 10 ", (EXIT_OK, gen_random(3, 5, 2, 12, 10), "")),
        ("\u0661\u0660", (EXIT_OK, gen_random(3, 5, 2, 12, 10), "")),
        ("1_0", (EXIT_USAGE, "", "error: argument --seed: invalid int value: '1_0'\n")),
    ],
    ids=["sign", "blanks", "arabic-indic", "underscore"],
)
def test_gen_reads_its_integers_in_the_grammars_spelling(capsys, spelling, expected):
    assert run(capsys, "gen", "random", "--seed", spelling) == expected


@pytest.mark.parametrize("bad", [("--vars", "0"), ("--cons", "-1"), ("--m", "-1")])
def test_gen_random_rejects_impossible_arguments(capsys, bad):
    code, out, err = run(capsys, "gen", "random", *bad)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize(
    "kind, flag", [("chain", "--mod"), ("random", "--vars"), ("random", "--cons")], ids=["chain", "vars", "cons"]
)
def test_gen_refuses_more_lines_or_variables_than_its_cap(capsys, monkeypatch, kind, flag):
    # a small cap stands in for the real one, so nothing large is built
    monkeypatch.setattr(cli, "MAX_GEN_SIZE", 8)
    assert run(capsys, "gen", kind, flag, "8")[0] == EXIT_OK
    code, out, err = run(capsys, "gen", kind, flag, "9")
    assert code == EXIT_USAGE
    assert err == f"error: gen {kind} would write 9 lines or variables, over the limit of 8\n"
    assert out == ""


# --- fuzzing: arbitrary input never crashes, answers always check -------------


def call(*argv):
    """Run the CLI in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def model_from_report(report, system):
    """The ``name = <integer>`` lines of a report that name the system's
    variables; model lines come last, so they win over report keys."""
    model = {}
    for line in report.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] == "=" and parts[0] in system.symbols and parts[2].lstrip("-").isdigit():
            model[system.symbols.id_of(parts[0])] = int(parts[2])
    return model


_NUMBER = st.one_of(st.integers(-(2**33), 2**33).map(str), st.sampled_from(["-0", "+1", "9" * 30]))
_NAME = st.sampled_from(["x", "y", "z", "mod", "_a1", "verdict", "nodes"])
_TERM = st.one_of(
    _NAME,
    st.builds("{} {} {}".format, _NAME, st.sampled_from("+-"), st.integers(0, 2**33)),
)
_CONSTRAINT = st.builds(
    "{} {} {}".format, _TERM, st.sampled_from(["<=", "<", "=", ">=", ">", "<<"]), st.one_of(_TERM, _NUMBER)
)


@st.composite
def mdl_texts(draw):
    """Mostly well-formed constraint files, some with one line of junk."""
    modulus = draw(st.one_of(st.integers(2, 40), st.just(2**32), _NUMBER))
    lines = [f"mod {modulus}"] + draw(st.lists(_CONSTRAINT, max_size=6))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


_SOLVE_FLAGS = [
    (),
    ("--normalize",),
    ("--relax",),
    ("--normalize", "--relax"),
    ("--oracle", "--normalize"),
]


@given(mdl_texts(), st.sampled_from(_SOLVE_FLAGS))
@settings(max_examples=150, deadline=None)
def test_fuzz_solve(text, flags):
    # monkeypatch is function-scoped, which Hypothesis refuses
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(mdl, "BRUTE_FORCE_BUDGET", 100_000):
        path = Path(tmp) / "f.mdl"
        path.write_text(text)
        code, out, _ = call("solve", path, *flags)
    assert code in (EXIT_USAGE, EXIT_SAT, EXIT_UNSAT)
    if code == EXIT_USAGE:
        assert out == ""
        return
    system = parse_system(text)
    assert report_value(out, "verdict") == ("SAT" if code == EXIT_SAT else "UNSAT")
    if code == EXIT_SAT:
        model = model_from_report(out.split("semantics = integer-relaxation")[0], system)
        assert len(model) == system.num_vars and satisfies(system, model)
        if "--normalize" in flags:
            n, bound = system.modulus.n, small_model_bound(system).bound
            assert all(v <= bound or v >= n - 1 - bound for v in model.values())


@st.composite
def dimacs_texts(draw):
    """Graphs on up to 6 vertices in DIMACS form, some with one line corrupted or added."""
    n = draw(st.integers(0, 6))
    pairs = [(v, w) for v in range(1, n + 1) for w in range(v + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"p edge {n} {len(edges)}"] + [f"e {v} {w}" for v, w in edges]
    if draw(st.booleans()):
        junk = draw(st.one_of(
            st.text(max_size=10),
            st.builds("e {} {}".format, st.integers(-1, 8), st.integers(-1, 8)),
            st.builds("p edge {} {}".format, st.integers(-1, 7), st.integers(-1, 16)),
        ))
        at = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            lines[at] = junk
        else:
            lines.insert(at, junk)
    return "\n".join(lines) + "\n"


_ENCODINGS = [("nonstrict", 4), ("nonstrict", 2**32), ("strict", 9), ("strict", 16), ("strict", 8)]


@given(dimacs_texts(), st.sampled_from(_ENCODINGS))
@settings(max_examples=150, deadline=None)
def test_fuzz_reduce_solve_decode(text, encoding):
    variant, n = encoding
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, prefix = Path(tmp) / "g.col", Path(tmp) / "g"
        graph_path.write_text(text)
        code, _, _ = call("reduce", graph_path, "--variant", variant, "--mod", n, "--out", prefix)
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_USAGE:
            return
        graph = parse_dimacs_graph(text)
        code, report, _ = call("solve", f"{prefix}.mdl")
        assert code == (EXIT_SAT if is_three_colorable(graph) else EXIT_UNSAT)
        if code == EXIT_UNSAT:
            return
        model_path = Path(tmp) / "model.txt"
        model_path.write_text(report)
        code, out, _ = call("decode", f"{prefix}.meta", model_path)
    assert code == EXIT_OK
    coloring = {int(v): int(c) for _, v, c in (line.split() for line in out.splitlines())}
    assert verify_coloring(graph, coloring)


_JUNK = st.one_of(
    st.sampled_from(["-1", "0", "1", "2", "3", "5", "6", "99", "abc", "c", "p", "e", "edge", "mod", "strict",
                     "nonstrict"]),
    st.text(max_size=5),
)


@st.composite
def mutated_meta(draw):
    """The sidecar of C5 at N=16 with up to two lines dropped, inserted or altered."""
    lines = render_meta(Graph.cycle(5), Variant.NONSTRICT, Modulus(16)).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "token", "insert"]))
        parts = lines[at].split()
        if action == "drop":
            del lines[at]
        elif action == "token" and parts:
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_JUNK)
            lines[at] = " ".join(parts)
        else:
            lines.insert(at, draw(st.text(max_size=10)))
    return "\n".join(lines) + "\n"


@given(mutated_meta(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_fuzz_decode(meta_text, real_model):
    system, _ = encode_3col(Graph.cycle(5), Modulus(16), Variant.NONSTRICT)
    with tempfile.TemporaryDirectory() as tmp:
        mdl_path, meta_path, model_path = (Path(tmp) / name for name in ("c5.mdl", "c5.meta", "model.txt"))
        mdl_path.write_text(render_system(system))
        meta_path.write_text(meta_text)
        report = call("solve", mdl_path)[1] if real_model else meta_text
        model_path.write_text(report)
        code, out, err = call("decode", meta_path, model_path)
    # exit 2 is the documented answer to a model file that is not a model
    assert code in (EXIT_OK, EXIT_USAGE) or (code == EXIT_INTERNAL and "does not satisfy" in err)
    if code == EXIT_OK:
        coloring = {int(v): int(c) for _, v, c in (line.split() for line in out.splitlines())}
        graph, _, _ = parse_meta(meta_text)
        assert verify_coloring(graph, coloring)


# --- recorded reports -----------------------------------------------------------

#: each ``gen`` kind's arguments, its stdout, and the exit code and stdout
#: pieces of ``solve`` on that file: the header, the search report's figures
#: and model, the same two for --oracle, and the --relax section
_RECORDED = {
    "intro1": (
        (),
        "mod 16\nx >= 0\nx + 1 <= 0\n",
        EXIT_SAT,
        "instance = intro1.mdl\nmodulus = 16\nvariables = 1\nconstraints = 2\nsemantics = modular\n",
        ("method = cdcl\nverdict = SAT\nnodes = 0\nconflicts = 0\ndomain-size = 8\n", "x = 15\n"),
        ("method = enumeration\nverdict = SAT\nnodes = 16\n", "x = 15\n"),
        "semantics = integer-relaxation\nverdict = UNSAT\ncycle-length = 2\ncycle-weight = -1\n"
        "core: x + 1 <= 0\ncore: x >= 0\n",
    ),
    "chain": (
        ("--mod", "5"),
        "mod 5\nx0 < x1\nx1 < x2\nx2 < x3\nx3 < x4\nx4 < x5\n",
        EXIT_UNSAT,
        "instance = chain.mdl\nmodulus = 5\nvariables = 6\nconstraints = 5\nsemantics = modular\n",
        ("method = cdcl\nverdict = UNSAT\nnodes = 0\nconflicts = 1\ndomain-size = 5\n", ""),
        ("method = enumeration\nverdict = UNSAT\nnodes = 15625\n", ""),
        "semantics = integer-relaxation\nverdict = SAT\nx0 = -5\nx1 = -4\nx2 = -3\nx3 = -2\nx4 = -1\nx5 = 0\n",
    ),
    "idl-paper": (
        (),
        "mod 10\nx1 + 3 <= x2\nx2 <= x3 + 1\nx3 + 2 <= x4\nx4 <= x1 + 3\n",
        EXIT_SAT,
        "instance = idl-paper.mdl\nmodulus = 10\nvariables = 4\nconstraints = 4\nsemantics = modular\n",
        ("method = cdcl\nverdict = SAT\nnodes = 3\nconflicts = 1\ndomain-size = 10\n",
         "x1 = 6\nx2 = 9\nx3 = 8\nx4 = 9\n"),
        ("method = enumeration\nverdict = SAT\nnodes = 381\n", "x1 = 0\nx2 = 3\nx3 = 8\nx4 = 0\n"),
        "semantics = integer-relaxation\nverdict = UNSAT\ncycle-length = 4\ncycle-weight = -1\n"
        "core: x1 + 3 <= x2\ncore: x2 <= x3 + 1\ncore: x3 + 2 <= x4\ncore: x4 <= x1 + 3\n",
    ),
    "random": (
        ("--vars", "3", "--cons", "5", "--m", "2", "--seed", "3"),
        "mod 12\nx2 <= 2\nx1 + 2 = x1 + 2\nx2 - 2 < x1\nx0 <= 1\nx1 = -1\n",
        EXIT_SAT,
        "instance = random.mdl\nmodulus = 12\nvariables = 3\nconstraints = 5\nsemantics = modular\n",
        ("method = cdcl\nverdict = SAT\nnodes = 1\nconflicts = 0\ndomain-size = 12\n", "x0 = 1\nx1 = 11\nx2 = 0\n"),
        ("method = enumeration\nverdict = SAT\nnodes = 133\n", "x0 = 0\nx1 = 11\nx2 = 0\n"),
        "semantics = integer-relaxation\nverdict = SAT\nx0 = 0\nx1 = -1\nx2 = 0\n",
    ),
}


@pytest.mark.parametrize(
    "flags", _SOLVE_FLAGS + [("--oracle", "--relax")], ids=lambda flags: "+".join(flags).replace("--", "") or "plain"
)
@pytest.mark.parametrize("kind", list(_RECORDED))
def test_reports_keep_their_recorded_bytes(tmp_path, monkeypatch, capsys, kind, flags):
    monkeypatch.chdir(tmp_path)  # the instance line then names the file as given, with no directory
    gen_args, text, code, header, search, oracle, relaxation = _RECORDED[kind]
    assert run(capsys, "gen", kind, *gen_args) == (EXIT_OK, text, "")
    Path(f"{kind}.mdl").write_text(text)
    figures, model = oracle if "--oracle" in flags else search
    normalized = "normalized = yes\n" if "--normalize" in flags and model else ""
    expected = header + figures + normalized + model + (relaxation if "--relax" in flags else "")
    assert run(capsys, "solve", f"{kind}.mdl", *flags)[:2] == (code, expected)


def test_reduce_and_decode_keep_their_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("k3.col").write_text(render_dimacs_graph(Graph.complete(3)))
    code, out, _ = run(capsys, "reduce", "k3.col", "--mod", "16", "--out", "k3")
    assert (code, out) == (EXIT_OK, "wrote k3.mdl (27 variables, 36 constraints)\nwrote k3.meta\n")
    Path("k3.model").write_text(run(capsys, "solve", "k3.mdl")[1])
    assert run(capsys, "decode", "k3.meta", "k3.model") == (EXIT_OK, "color 0 2\ncolor 1 1\ncolor 2 0\n", "")
