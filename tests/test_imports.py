"""Every name a module of ``src/mdlsat``, a script of ``scripts/`` or a
module of ``tests/`` imports is used in that file, only the CLI's ``main``
writes stdout, no CLI option reads its value with ``int``, every function
the benchmark's tracer wraps exists, importing the CLI stays cheap, and
``mdlsat.core`` imports alone.

No linter ships with the project, so this walks each file's syntax tree
with the standard ``ast`` module.  ``from __future__`` imports switch on
language features, so they are exempt.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for folder in ("src/mdlsat", "scripts", "tests") for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_name():
    source = "from typing import NamedTuple, Optional\nimport os.path\nx: Optional[int] = None\n"
    assert unused_imports(source) == [(1, "NamedTuple"), (2, "os")]


def stdout_writers(source: str) -> list:
    """The function around each ``sys.stdout.write`` call and each ``print``
    without ``file=`` in ``source``, in order; ``None`` at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee == "sys.stdout.write" or callee == "print" and all(k.arg != "file" for k in child.keywords):
                    found.append(where)
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_only_main_writes_stdout():
    """A command returns its report and ``main`` writes it once the command
    has returned, so a run that raises leaves stdout empty."""
    assert stdout_writers((ROOT / "src" / "mdlsat" / "cli.py").read_text()) == ["main"]


def test_the_check_sees_every_stdout_writer():
    source = (
        "import sys\nprint('top')\n"
        "def f():\n    print('x', file=sys.stderr)\n    sys.stdout.write('y')\n"
        "    def g():\n        print('z')\n"
    )
    assert stdout_writers(source) == [None, "f", "g"]


def int_options(source: str) -> list:
    """The line of each ``add_argument`` call in ``source`` that passes ``type=int``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
        and any(k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int" for k in node.keywords)
    ]


def test_no_cli_option_reads_its_value_with_int():
    """``int`` reads spellings the file grammar refuses, such as the digit
    groups of 1_6, so the CLI's integer options go through ``read_int``."""
    assert int_options((ROOT / "src" / "mdlsat" / "cli.py").read_text()) == []


def test_the_check_sees_every_int_option():
    source = "p.add_argument('--a', type=int)\np.add_argument('--b', type=read)\nq.add_argument('c', default=1, type=int)\n"
    assert int_options(source) == [1, 3]


#: functions deleted from ``src/`` that ``bench/spans.py`` still wraps; the
#: tracer reports them as absent, and their per-layer metrics read 0
GONE = {("reductions", "restore_encoding"), ("mdl", "normalize_solution"), ("idl", "build_graph")}


def wrapped_functions(source: str) -> list:
    """The (module, function) pairs of the ``WRAPPED`` table in ``bench/spans.py``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]:
            return [tuple(ast.literal_eval(row)[:2]) for row in node.value.elts]
    raise AssertionError("bench/spans.py has no WRAPPED table")


def test_every_function_the_tracer_wraps_exists():
    """A deleted or renamed layer function would silently zero its span's
    per-layer metric, since the tracer skips what it cannot find."""
    wrapped = wrapped_functions((ROOT / "bench" / "spans.py").read_text())
    assert ("cli", "satisfies") in wrapped
    absent = {
        (module, name) for module, name in wrapped if not hasattr(importlib.import_module(f"mdlsat.{module}"), name)
    }
    assert absent <= GONE


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every ``mdlsat`` run pays for its import, and ``dataclasses``, with
    the ``inspect`` it pulls in, once took over a third of it.  ``-S`` keeps
    ``site`` from loading either module first."""
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); before = set(sys.modules); "
        "import mdlsat.cli; print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    child = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "[]"


def test_importing_the_core_loads_no_other_module_of_the_package():
    """The package root re-exports nothing, so a caller that needs only the
    evaluator and the parser compiles and runs only ``mdlsat.core``."""
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import mdlsat.core; print(sorted(m for m in sys.modules if m.startswith('mdlsat')))"
    )
    child = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "['mdlsat', 'mdlsat.core']"
