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


def test_engines_raise_only_typed_errors():
    # a bad parameter is a BadParamsError where it is used; only the entry
    # parser raises the builtin types, which instances turns into
    # InstanceFormatError
    allowed = {("spaces.py", "as_fraction")}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        # ast.walk is breadth first, so an inner function overwrites its outer one
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None)
            site = (path.name, owner.get(node))
            if name in ("ValueError", "TypeError") and site not in allowed:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES and not found


def _annotation_names(node):
    """Every name inside an annotation, quoted parts included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def test_models_declare_no_mutable_container_fields():
    # no caching layers: a field annotated dict, list or set, or a wrapper
    # around one such as Optional[dict], could grow behind a frozen model,
    # and every model must stay immutable
    mutable = {"dict", "list", "set", "Dict", "List", "Set"}
    found = [
        f"{path.name}:{stmt.lineno} {cls.name}.{ast.unparse(stmt.target)}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and mutable.intersection(_annotation_names(stmt.annotation))
    ]
    assert SOURCES and not found


def test_annotation_names_reach_inside_wrappers():
    def names(text):
        return set(_annotation_names(ast.parse(text, mode="eval")))

    assert {"dict", "Optional"} <= names("Optional[dict]")
    assert "List" in names("'typing.List[int]'")
    assert "set" in names("Optional['set']")
