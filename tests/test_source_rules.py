"""Rules the package source keeps: no ``assert`` statement, since
``python -O`` strips it and a check written as one would vanish, and no
handler that catches every exception (a bare ``except:``, ``except
Exception`` or ``except BaseException``), which would hide a bug as an
expected error, no exported name that nothing uses, and no third-party
import but numpy (and not ``numpy.random``) on the CLI's path."""

import ast
import os
import re
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


def test_every_export_is_used():
    """Each name that ``oriham/__init__.py`` imports is used by the package
    or the benchmark harness: it appears in ``src/oriham/*.py`` (the
    ``__init__`` aside) or ``perfbench/*.py`` on a line that does not
    define it."""
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    lines = [line for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
             if path.name != "__init__.py" for line in path.read_text().splitlines()]
    unused = []
    for name in exported:
        word = re.escape(name)
        used = re.compile(rf"\b{word}\b")
        definition = re.compile(rf"\s*((def|class)\s+{word}\b|{word}\s*(:|=(?!=)))")
        if not any(used.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []


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
