"""The CLI's JSON contract under malformed input.

Every run of ``cli.main`` on any instance document and any well-typed
option values ends with exit code 0, 1 or 2 and exactly one JSON document
on stdout, never a Python traceback.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from graphcon.cli import main
from graphcon.gallery import GALLERY_IDS

LABELS = ["p", "q", "r"]
BASE_FINITE = {
    "kind": "finite",
    "points": LABELS,
    "distance": [["0", "1", "1/2"], ["1", "0", "1"], ["1/2", "1", "0"]],
    "map": {"p": "q", "q": "r", "r": "r"},
}
BASE_GALLERY = {"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 1}}

special_numbers = st.sampled_from(
    [0, -1, 1e308, -1e308, 5e-324, float("inf"), float("-inf"), float("nan"),
     "inf", "-inf", "nan", "1e400", "-1e400", "1e-300", "1e300", "1/3", "1/0",
     "0.5", "", "x"]
)
numbers = st.one_of(
    special_numbers,
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
labels = st.sampled_from(LABELS) | scalars


def _with(base, key, value):
    doc = json.loads(json.dumps(base))
    doc[key] = value
    return doc


def _finite_entries(doc, i, j, value, symmetric):
    doc = json.loads(json.dumps(doc))
    doc["distance"][i][j] = value
    if symmetric:
        doc["distance"][j][i] = value
    return doc


def _finite_matrix(doc, d01, d02, d12):
    return _with(doc, "distance", [[0, d01, d02], [d01, 0, d12], [d02, d12, 0]])


finite_docs = st.one_of(
    st.builds(_finite_matrix, st.just(BASE_FINITE), numbers, numbers, numbers),
    st.builds(
        _finite_entries,
        st.just(BASE_FINITE),
        st.integers(0, 2),
        st.integers(0, 2),
        numbers,
        st.booleans(),
    ),
    st.builds(_with, st.just(BASE_FINITE), st.sampled_from(["points", "distance"]),
              json_values | st.lists(labels, max_size=4)),
    st.builds(_with, st.just(BASE_FINITE), st.just("map"),
              json_values | st.dictionaries(labels.filter(lambda v: isinstance(v, str)),
                                            labels, max_size=4)),
    st.builds(_with, st.just(BASE_FINITE), st.just("kind"), json_values),
)
gallery_docs = st.one_of(
    st.builds(_with, st.just(BASE_GALLERY), st.just("params"),
              st.fixed_dictionaries({}, optional={"a": numbers | json_values,
                                                  "b": numbers | json_values})
              | json_values),
    st.builds(_with, st.just(BASE_GALLERY), st.just("id"),
              st.sampled_from(["example_2_3", "example_2_4", "example_2_2"]) | json_values),
)
documents = st.one_of(
    finite_docs.map(json.dumps),
    gallery_docs.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=20),
    st.just('{"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 1%s}}'
            % ("0" * 5000)),
)

int_values = st.integers(min_value=-3, max_value=6)
float_values = st.one_of(
    st.sampled_from(["0", "-1", "1e-12", "nan", "inf", "-inf", "1e308", "5e-324"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
start_names = st.one_of(
    st.sampled_from(["a", "b", "x1", "x_3", "x0", "p", "r", "", "x²", "x" + "1" * 5000]),
    st.text(max_size=4),
)


def _options(draws):
    return [f"--{name}={value}" for name, value in draws.items()]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["analyze", "solve", "oracle", "gallery", "crosscheck"]))
    if command == "gallery":
        argv = ["gallery", "--id", draw(st.sampled_from(GALLERY_IDS))]
        anchors = draw(st.fixed_dictionaries({}, optional={"a": float_values, "b": float_values}))
        return None, argv + _options(anchors)
    argv = [command, f"--order={draw(int_values)}"]
    if command == "analyze":
        argv += _options(draw(st.fixed_dictionaries({}, optional={
            "index-cap": st.integers(min_value=-3, max_value=40)})))
    if command in ("solve", "crosscheck"):
        argv.append(f"--start={draw(start_names)}")
    if command == "solve":
        # a bounded budget: sequence orders that do not contract run to it
        argv.append(f"--max-outer={draw(st.integers(min_value=-3, max_value=60))}")
        argv += _options(draw(st.fixed_dictionaries({}, optional={"tol": float_values})))
    return draw(documents), argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_run_prints_one_json_document(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = Path(tmp) / "instance.json"
            path.write_text(text)
            argv = argv + ["--input", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())
    assert isinstance(doc, dict)
    assert ("error" in doc) == (code == 1)
