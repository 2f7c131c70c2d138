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


def test_raised_messages_quote_tokens_through_shown():
    # a !r conversion echoes a token in full, however long; messages
    # quote through config.shown, which cuts a long token short
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for raise_node in ast.walk(tree)
                  if isinstance(raise_node, ast.Raise)
                  for node in ast.walk(raise_node)
                  if isinstance(node, ast.FormattedValue)
                  and node.conversion == ord("r")]
    assert found == []
