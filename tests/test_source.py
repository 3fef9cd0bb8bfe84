"""Source-level rules for the package itself."""

import ast
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
