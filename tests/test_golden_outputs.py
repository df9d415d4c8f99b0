"""Golden CLI outputs: every command prints what it printed.

``golden_outputs.json`` holds the exit code and stdout of an in-process
``cli.main`` call for each run in ``RUNS``; every run must reproduce both
byte for byte. Regenerate the file, only when an output is meant to
change, with

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from graphcon import random_instance
from graphcon.cli import main
from graphcon.gallery import GALLERY_IDS

from builders import five_swap

DATA = Path(__file__).with_name("golden_outputs.json")


def _finite_doc(space, map_):
    labels = list(space.labels)
    return {
        "kind": "finite",
        "points": labels,
        "distance": [[str(space.distance(i, j)) for j in space.points()] for i in space.points()],
        "map": {labels[x]: labels[map_.apply(x)] for x in space.points()},
    }


def _runs():
    """(key, argv, instance document or None) for every golden run; the
    instance is written to a file whose path ends the argv."""
    runs = []
    for case_id in GALLERY_IDS:
        for a, b in [(0.0, 1.0), (-2.5, 3.25)]:
            argv = ["gallery", "--id", case_id, f"--a={a}", f"--b={b}"]
            runs.append((f"gallery {case_id} a={a} b={b}", argv, None))
    for family in ("example_2_3", "example_2_4"):
        doc = {"kind": "gallery", "id": family, "params": {"a": 0, "b": 1}}
        for n in range(1, 5):
            argv = ["analyze", "--order", str(n), "--index-cap", "20", "--emit-samples"]
            runs.append((f"analyze {family} order {n} cap 20", argv, doc))
        for a, b in [(0, 1), (-2.5, 3.25)]:
            doc = {"kind": "gallery", "id": family, "params": {"a": a, "b": b}}
            for n in range(1, 5):
                for start in ("a", "x1", "x2"):
                    argv = ["solve", "--order", str(n), "--start", start, "--max-outer", "300"]
                    runs.append((f"solve {family} a={a} b={b} order {n} from {start}", argv, doc))
    # orbits that leave the space (its last index is 10^6) before any step
    doc = {"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 1}}
    for n, start in [(2, "x999999"), (1, "x1000000")]:
        argv = ["solve", "--order", str(n), "--start", start]
        runs.append((f"solve example_2_3 a=0 b=1 order {n} from {start}", argv, doc))
    doc = _finite_doc(*five_swap())
    for n in range(1, 7):
        argv = ["analyze", "--order", str(n), "--emit-samples"]
        runs.append((f"analyze five_swap order {n}", argv, doc))
        for start in ("x1", "x3"):
            argv = ["solve", "--order", str(n), "--start", start]
            runs.append((f"solve five_swap order {n} from {start}", argv, doc))
        runs.append((f"oracle five_swap order {n}", ["oracle", "--order", str(n)], doc))
        argv = ["oracle", "--order", str(n), "--full-scan"]
        runs.append((f"oracle five_swap order {n} full scan", argv, doc))
    for n in (2, 6):
        for start in ("x1", "x3"):
            argv = ["crosscheck", "--order", str(n), "--start", start]
            runs.append((f"crosscheck five_swap order {n} from {start}", argv, doc))
    for seed in range(5):
        doc = _finite_doc(*random_instance(seed, 8))
        for n in range(1, 5):
            argv = ["analyze", "--order", str(n), "--emit-samples"]
            runs.append((f"analyze random_instance({seed}, 8) order {n}", argv, doc))
            argv = ["solve", "--order", str(n), "--start", "x1"]
            runs.append((f"solve random_instance({seed}, 8) order {n} from x1", argv, doc))
            argv = ["oracle", "--order", str(n)]
            runs.append((f"oracle random_instance({seed}, 8) order {n}", argv, doc))
            argv = ["crosscheck", "--order", str(n), "--start", "x1"]
            runs.append((f"crosscheck random_instance({seed}, 8) order {n} from x1", argv, doc))
    # usage errors: one JSON error document and exit 1, like an engine error
    runs.append(("usage error: no command", [], None))
    argv = ["solve", "--order", "two", "--start", "x1"]
    runs.append(("usage error: solve five_swap order two", argv, _finite_doc(*five_swap())))
    runs.append(("usage error: gallery unknown id", ["gallery", "--id", "example_9_9"], None))
    return runs


RUNS = _runs()


def _run(argv, doc, directory):
    """Exit code and stdout of ``cli.main(argv)``, given the instance file."""
    if doc is not None:
        path = Path(directory) / "instance.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_every_run_has_a_golden_output(golden):
    assert sorted(golden) == sorted(key for key, _, _ in RUNS)


@pytest.mark.parametrize("key, argv, doc", RUNS, ids=[key for key, _, _ in RUNS])
def test_output_unchanged(golden, tmp_path, key, argv, doc):
    assert _run(argv, doc, tmp_path) == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {key: _run(argv, doc, tmp) for key, argv, doc in RUNS}
    DATA.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} outputs to {DATA}")
