"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pientail

PACKAGE = Path(pientail.__file__).parent


def test_no_assert_statements():
    """``python -O`` strips asserts, so an invariant guarded by one silently
    disappears; internal checks must raise explicitly instead."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_unused_imports():
    """Every name a module imports is read somewhere in it, or re-exported
    through its ``__all__``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in read
        ]
    assert found == []


def _load_time_imports(tree):
    """The import statements a module runs when it is imported: all of
    them outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_runtime_dependency():
    """Importing the package needs nothing outside the standard library."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _load_time_imports(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_no_dataclasses_import():
    """The value classes build on ``model._Frozen``: importing
    ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    about a third of a fresh ``import pientail``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "dataclasses"
            ]
    assert found == []


IMPORT_ADDS = """
import sys
before = set(sys.modules)
import pientail
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_heavy_module():
    """A fresh ``import pientail``, which every CLI call pays, loads none of
    ``dataclasses``, ``inspect`` or ``numpy``."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ADDS],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "pientail.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "numpy"}), sorted(added)


WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fractions import Fraction
import pientail as pt
rules = pt.parse_rules("B -> A C H\\nC -> A D\\nD -> A B\\n")
u = rules.universe
conclusion = pt.PartialImplication(u.attrs("B", "C", "D", "H"), u.attrs("A"))
verdict = pt.decide(pt.EntailmentQuery(rules, conclusion, Fraction(57, 100)))
kept = pt.prune(rules, Fraction(1, 2))
bracket = pt.critical_threshold(rules, conclusion.antecedent)
print(verdict.holds, verdict.regime.value, len(kept), bracket.lower < bracket.upper)
"""


def test_decides_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "general-gamma-star", "3", "True"]
