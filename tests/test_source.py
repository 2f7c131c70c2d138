"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import nilharm

PACKAGE = Path(nilharm.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; runtime invariants must raise
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
