"""Rules the package source keeps: no ``assert`` statement, since
``python -O`` strips it and a check written as one would vanish, and no
handler that catches every exception (a bare ``except:``, ``except
Exception`` or ``except BaseException``), which would hide a bug as an
expected error, no exported name that nothing uses, and no third-party
import but numpy (and not ``numpy.random``) on the CLI's path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oriham"
BROAD = {"Exception", "BaseException"}


def _violations(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in BROAD
                                        for c in caught):
                found.append((node.lineno, "broad except"))
    return found


def test_rules_flag_each_form():
    source = ("assert x\n"
              "try:\n    f()\nexcept:\n    pass\n"
              "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
              "try:\n    f()\nexcept KeyError:\n    pass\n")
    assert _violations(source) == [(1, "assert"), (4, "broad except"),
                                   (8, "broad except")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_assert_or_broad_except(path):
    assert _violations(path.read_text()) == []


PERFBENCH = SRC.parents[1] / "perfbench"


def _used_names(source: str) -> set[str]:
    """What a module's code refers to: the names it reads, attribute
    names, imported names and string constants (the benchmark's tracer
    patches functions by name).  A docstring or comment that mentions a
    name does not count, nor does the statement that defines it."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    used = set()
    for node in ast.walk(tree):
        if id(node) in docstrings:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_used_names_skip_docstrings_and_definitions():
    source = ('"""x"""\n'
              "from m import h as k\n"
              "def f():\n    \"\"\"f\"\"\"\n    return k.attr, 'g', e\n"
              "class C:\n    \"\"\"C\"\"\"\n"
              "x = 1\n")
    assert _used_names(source) == {"h", "k", "attr", "g", "e"}


def test_every_export_is_used():
    """Each name that ``oriham/__init__.py`` imports is used by the code of
    the package (the ``__init__`` aside) or of the benchmark harness."""
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set().union(*(_used_names(path.read_text())
                         for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
                         if path.name != "__init__.py"))
    assert [name for name in exported if name not in used] == []


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import oriham.cli
from oriham import (bipartite_tournament, generate_extremal, near_regular_tournament,
                    random_min_semidegree, random_oriented, table_params)
near_regular_tournament(9, 1)
bipartite_tournament(3, 2, 1, 1)
generate_extremal(table_params(16, 1, ac_extra=2, d_extra=2, seed=1))
random_oriented(12, 0.5, 1)
random_min_semidegree(12, 3, 1)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_and_generators_load_only_numpy():
    """Every module loaded stays resident for the process, which is what
    the benchmark's peak RSS reads: ``numpy.random`` alone adds about
    1.7 MB.  Importing the CLI and building one graph with each generator
    loads the standard library, numpy and oriham, and not numpy.random."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert "oriham.cli" in loaded
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"numpy", "oriham"}
    assert not any(m == "numpy.random" or m.startswith("numpy.random.")
                   for m in loaded)
