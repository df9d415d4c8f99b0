"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import graphcon

SOURCES = sorted(Path(graphcon.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must be real checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found
