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


def test_solver_does_not_branch_on_the_space_type():
    # the map says whether an orbit cycles (its rho), so the solver never
    # needs to know which kind of space it runs on
    path = Path(graphcon.__file__).parent / "solver.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names |= {node.name for node in nodes if isinstance(node, ast.alias)}
    assert "advance_subsequences" in names
    assert not names & {"FiniteSpace", "SequenceSpace"}
