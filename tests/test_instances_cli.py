"""Instance files and the command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphcon
from graphcon import (
    BadParamsError,
    FiniteSpace,
    InstanceFormatError,
    SequenceSpace,
    instance_from_dict,
    load_instance,
    point_json,
)
from graphcon.analysis import MAX_INDEX_CAP
from graphcon.cli import main

from builders import five_swap


FIVE_SWAP_DOC = {
    "kind": "finite",
    "points": ["x1", "x2", "x3", "x4", "x5"],
    "distance": [
        ["0", "1", "1", "1", "1"],
        ["1", "0", "1", "1", "1"],
        ["1", "1", "0", "1", "1"],
        ["1", "1", "1", "0", "1"],
        ["1", "1", "1", "1", "0"],
    ],
    "map": {"x1": "x2", "x2": "x1", "x3": "x4", "x4": "x5", "x5": "x3"},
}

TWO_PHASE_DOC = {"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 1}}
FOUR_PHASE_DOC = {"kind": "gallery", "id": "example_2_4", "params": {"a": 0, "b": 1}}


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestInstanceParsing:
    def test_finite_document(self, five_swap):
        space, map_ = instance_from_dict(FIVE_SWAP_DOC)
        ref_space, ref_map = five_swap
        assert space == ref_space
        assert map_.images == ref_map.images

    def test_distance_entry_forms(self):
        doc = {
            "kind": "finite",
            "points": ["p", "q"],
            "distance": [[0, "1/2"], [0.5, "0"]],
            "map": {"p": "q", "q": "p"},
        }
        space, _ = instance_from_dict(doc)
        assert space.distance(0, 1) == Fraction(1, 2)

    @pytest.mark.parametrize("entry, value", [("1e-300", Fraction(1, 10**300)), ("1e300", 10**300)])
    def test_decimal_exponents_exact(self, entry, value):
        doc = {
            "kind": "finite",
            "points": ["p", "q"],
            "distance": [["0", entry], [entry, "0"]],
            "map": {"p": "q", "q": "p"},
        }
        space, _ = instance_from_dict(doc)
        assert space.distance(0, 1) == value

    def test_gallery_document(self):
        space, map_ = instance_from_dict(TWO_PHASE_DOC)
        assert isinstance(space, SequenceSpace)
        assert map_.apply(space.a_point) == space.b_point

    def test_unknown_kind(self):
        with pytest.raises(InstanceFormatError):
            instance_from_dict({"kind": "mystery"})

    def test_missing_fields(self):
        with pytest.raises(InstanceFormatError):
            instance_from_dict({"kind": "finite", "points": ["p"]})

    @pytest.mark.parametrize("points", [["p", ["q"]], [1, 2]])
    def test_point_labels_must_be_strings(self, points):
        # a list label is unhashable, and a number can never name a map key
        doc = {
            "kind": "finite",
            "points": points,
            "distance": [[0, 1], [1, 0]],
            "map": {"p": "q", "q": "p"},
        }
        with pytest.raises(InstanceFormatError, match="'points' as a list of strings"):
            instance_from_dict(doc)

    def test_map_must_cover_every_point(self):
        doc = dict(FIVE_SWAP_DOC, map={"x1": "x2"})
        with pytest.raises(InstanceFormatError):
            instance_from_dict(doc)

    def test_unknown_gallery_family(self):
        # the id is SequenceSpace's to check, as it is for every other caller
        doc = {"kind": "gallery", "id": "example_9_9", "params": {"a": 0, "b": 1}}
        with pytest.raises(BadParamsError, match="unknown sequence family 'example_9_9'"):
            instance_from_dict(doc)

    def test_missing_gallery_family(self):
        doc = {"kind": "gallery", "params": {"a": 0, "b": 1}}
        with pytest.raises(BadParamsError, match="unknown sequence family None; expected one of"):
            instance_from_dict(doc)

    def test_bad_gallery_params(self):
        with pytest.raises(BadParamsError):
            instance_from_dict({"kind": "gallery", "id": "example_2_3", "params": {"a": 2, "b": 1}})
        with pytest.raises(InstanceFormatError):
            instance_from_dict({"kind": "gallery", "id": "example_2_3", "params": {"a": 0}})

    @pytest.mark.parametrize("extra", [{}, {"params": [0, 1]}, {"params": "a=0,b=1"}],
                             ids=["missing", "list", "string"])
    def test_gallery_params_must_be_an_object_with_a_and_b(self, extra):
        doc = {"kind": "gallery", "id": "example_2_3", **extra}
        with pytest.raises(InstanceFormatError, match="'params' as an object with a and b"):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "params",
        [{"a": "0", "b": "1"}, {"a": 0, "b": "1"}, {"a": True, "b": 2}, {"a": 0, "b": 10**400},
         {"a": 0, "b": float("nan")}, {"a": 0, "b": float("inf")}],
        ids=["strings", "string-b", "bool", "past-float-range", "nan", "inf"],
    )
    def test_bad_anchor_is_refused_by_the_space(self, params):
        doc = {"kind": "gallery", "id": "example_2_3", "params": params}
        with pytest.raises(BadParamsError):
            instance_from_dict(doc)

    def test_integer_anchors_stay_exact(self, tmp_path):
        # float() would round 2^53 + 1 to 2^53
        doc = {"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 2**53 + 1}}
        space, _ = load_instance(write_doc(tmp_path, doc))
        assert space.distance(space.a_point, space.b_point) == 2**53 + 1

    @pytest.mark.parametrize("doc", [[1], "gallery", None], ids=["list", "string", "null"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(InstanceFormatError, match="must be a JSON object"):
            instance_from_dict(doc)

    def test_load_from_file(self, tmp_path):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        space, _ = load_instance(path)
        assert isinstance(space, FiniteSpace)

    def test_load_errors(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            load_instance(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_instance(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(InstanceFormatError):
            load_instance(arr)

    def test_point_json_forms(self, five_swap):
        space, _ = five_swap
        assert point_json(space, 2) == "x3"
        seq_space, _ = instance_from_dict(TWO_PHASE_DOC)
        assert point_json(seq_space, seq_space.x(3)) == {"name": "x3", "coord": -0.125}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    return code, doc, captured.err


class TestCliAnalyze:
    def test_finite_exact(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        code, doc, err = run_cli(capsys, ["analyze", "--input", path, "--order", "6"])
        assert code == 0
        assert doc == {
            "order": 6,
            "alpha_min": 0.0,
            "exact": True,
            "verdict": "Contraction",
            "witness": None,
        }
        assert "Contraction" in err

    def test_finite_not_contraction_names_witness(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        code, doc, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "1"])
        assert code == 0
        assert doc["verdict"] == "NotContraction"
        assert doc["witness"] in FIVE_SWAP_DOC["points"]

    def test_sampled_with_samples(self, tmp_path, capsys):
        path = write_doc(tmp_path, TWO_PHASE_DOC)
        code, doc, _ = run_cli(
            capsys,
            ["analyze", "--input", path, "--order", "2", "--index-cap", "50", "--emit-samples"],
        )
        assert code == 0
        assert doc["exact"] is False
        assert abs(doc["alpha_min"] - 0.25) <= 1e-12
        assert len(doc["samples"]) == 52  # a, b and 50 family points
        trivial = [s for s in doc["samples"] if s["status"] == "trivial"]
        assert {s["point"]["name"] for s in trivial} == {"a", "b"}

    def test_samples_gated_by_flag(self, tmp_path, capsys):
        path = write_doc(tmp_path, TWO_PHASE_DOC)
        _, doc, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "2"])
        assert "samples" not in doc


class TestCliSolve:
    def test_finite(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        code, doc, _ = run_cli(
            capsys, ["solve", "--input", path, "--order", "6", "--start", "x3"]
        )
        assert code == 0
        assert doc["case"] == "D"
        assert doc["period"] == 3
        assert doc["representative"] == "x3"
        assert sorted(doc["cycle"]) == ["x3", "x4", "x5"]
        assert doc["residual"] == 0.0
        assert set(doc) == {
            "order",
            "case",
            "period",
            "representative",
            "cycle",
            "residual",
            "iterations",
        }

    def test_finite_read_off_without_iterating(self, tmp_path, capsys):
        # p -> q -> r -> s -> r: a tail of two steps into a 2-cycle, so a
        # walk at order 2 would need more than the smallest budget
        doc_in = dict(FIVE_SWAP_DOC, points=["p", "q", "r", "s"],
                      distance=[row[:4] for row in FIVE_SWAP_DOC["distance"][:4]],
                      map={"p": "q", "q": "r", "r": "s", "s": "r"})
        path = write_doc(tmp_path, doc_in)
        code, doc, _ = run_cli(
            capsys,
            ["solve", "--input", path, "--order", "2", "--start", "p", "--max-outer", "2"],
        )
        assert code == 0
        assert (doc["period"], sorted(doc["cycle"]), doc["iterations"]) == (2, ["r", "s"], 0)

    def test_sequence(self, tmp_path, capsys):
        path = write_doc(tmp_path, TWO_PHASE_DOC)
        code, doc, _ = run_cli(
            capsys, ["solve", "--input", path, "--order", "2", "--start", "x1"]
        )
        assert code == 0
        assert doc["case"] == "A"
        assert doc["period"] == 2
        coords = sorted(p["coord"] for p in doc["cycle"])
        assert abs(coords[0] - 0.0) <= 1e-7
        assert abs(coords[1] - 1.0) <= 1e-7
        assert doc["residual"] <= 1e-7

    def test_engine_error_exit_code(self, tmp_path, capsys):
        doc_in = {
            "kind": "finite",
            "points": ["p", "q", "r", "s"],
            "distance": [
                ["0", "1", "1", "1"],
                ["1", "0", "1", "1"],
                ["1", "1", "0", "1"],
                ["1", "1", "1", "0"],
            ],
            "map": {"p": "q", "q": "r", "r": "s", "s": "p"},
        }
        path = write_doc(tmp_path, doc_in)
        code, doc, err = run_cli(
            capsys,
            ["solve", "--input", path, "--order", "2", "--start", "p", "--max-outer", "40"],
        )
        assert code == 1
        assert doc["error"]["type"] == "NotConvergedError"
        assert "error" in err

    @pytest.mark.parametrize("command", ["solve", "crosscheck"])
    def test_order_above_the_cap_refused(self, tmp_path, capsys, command):
        # refused before any of the order's strands or limits is built
        doc_in = dict(FIVE_SWAP_DOC, points=["p", "q", "r"],
                      distance=[row[:3] for row in FIVE_SWAP_DOC["distance"][:3]],
                      map={"p": "q", "q": "p", "r": "r"})
        path = write_doc(tmp_path, doc_in)
        code, doc, _ = run_cli(
            capsys, [command, "--input", path, "--order", "100001", "--start", "r"]
        )
        assert code == 1
        assert doc["error"]["type"] == "BadParamsError"
        assert "100001" in doc["error"]["message"]

    def test_unknown_start_point(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        code, doc, _ = run_cli(
            capsys, ["solve", "--input", path, "--order", "6", "--start", "nope"]
        )
        assert code == 1
        assert doc["error"]["type"] == "InvalidPointError"


class TestCliOracle:
    def test_enumeration(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        code, doc, _ = run_cli(capsys, ["oracle", "--input", path, "--order", "6"])
        assert code == 0
        periods = {entry["point"]: entry["period"] for entry in doc["periodic"]}
        assert periods == {"x1": 2, "x2": 2, "x3": 3, "x4": 3, "x5": 3}
        assert len(doc["orbits"]) == 2
        assert doc["divisor_ok"] is True

    def test_full_scan_flag(self, tmp_path, capsys):
        doc_in = dict(FIVE_SWAP_DOC)
        path = write_doc(tmp_path, doc_in)
        code, doc, _ = run_cli(
            capsys, ["oracle", "--input", path, "--order", "2", "--full-scan"]
        )
        assert code == 0
        periods = {entry["point"]: entry["period"] for entry in doc["periodic"]}
        assert periods == {"x1": 2, "x2": 2, "x3": 3, "x4": 3, "x5": 3}
        assert doc["divisor_ok"] is False  # periods 3 do not divide 2

    def test_rejects_sequence_space(self, tmp_path, capsys):
        path = write_doc(tmp_path, TWO_PHASE_DOC)
        code, doc, _ = run_cli(capsys, ["oracle", "--input", path, "--order", "2"])
        assert code == 1


class TestCliGalleryAndCrosscheck:
    def test_gallery_pass(self, capsys):
        code, doc, err = run_cli(capsys, ["gallery", "--id", "example_2_2"])
        assert code == 0
        assert doc["pass"] is True
        assert all(c["ok"] for c in doc["checks"])
        assert "PASS" in err

    def test_gallery_fail_exit_code(self, capsys, monkeypatch):
        from graphcon import gallery as gallery_mod
        from graphcon import cli as cli_mod

        failing = gallery_mod.GalleryReport(
            "example_2_2",
            None,
            (gallery_mod.CheckResult("synthetic", False, "forced"),),
        )
        monkeypatch.setattr(cli_mod.gallery, "run_gallery", lambda *a, **k: failing)
        code, doc, err = run_cli(capsys, ["gallery", "--id", "example_2_2"])
        assert code == 2
        assert doc["pass"] is False
        assert "FAIL" in err

    def test_gallery_bad_params(self, capsys):
        code, doc, _ = run_cli(
            capsys, ["gallery", "--id", "example_2_3", "--a", "2", "--b", "1"]
        )
        assert code == 1
        assert doc["error"]["type"] == "BadParamsError"

    def test_crosscheck_agree(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        code, doc, _ = run_cli(
            capsys, ["crosscheck", "--input", path, "--order", "6", "--start", "x1"]
        )
        assert code == 0
        assert doc["result"] == "Agree"
        assert doc["solver"]["period"] == 2

    def test_crosscheck_close_pair(self, tmp_path, capsys):
        # two points 1e-9 apart, swapped by the map: a 2-cycle, not a fixed point
        doc = {
            "kind": "finite",
            "points": ["p", "q", "r"],
            "distance": [["0", "1e-9", "1"], ["1e-9", "0", "1"], ["1", "1", "0"]],
            "map": {"p": "q", "q": "p", "r": "r"},
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, ["crosscheck", "--input", path, "--order", "2", "--start", "p"]
        )
        assert code == 0
        assert out["result"] == "Agree"
        assert out["solver"]["period"] == 2

    def test_missing_file(self, capsys):
        code, doc, _ = run_cli(
            capsys, ["analyze", "--input", "/no/such/file.json", "--order", "1"]
        )
        assert code == 1
        assert doc["error"]["type"] == "InstanceFormatError"


class TestCliBadInput:
    @pytest.mark.parametrize(
        "doc_in, argv",
        [
            (FIVE_SWAP_DOC, ["analyze", "--order", "0"]),
            (TWO_PHASE_DOC, ["analyze", "--order", "2", "--index-cap", "0"]),
            (FIVE_SWAP_DOC, ["solve", "--order", "6", "--start", "x1", "--tol", "0"]),
            (TWO_PHASE_DOC, ["oracle", "--order", "2"]),
            (FIVE_SWAP_DOC, ["solve", "--order", "6", "--start", "x1", "--tol", "nan"]),
            (FIVE_SWAP_DOC, ["oracle", "--order", "0"]),
            (TWO_PHASE_DOC, ["analyze", "--order", "1", "--index-cap", str(MAX_INDEX_CAP + 1)]),
            (TWO_PHASE_DOC, ["solve", "--order", "2", "--start", "x1", "--tol", "1e400"]),
            (TWO_PHASE_DOC, ["solve", "--order", "2", "--start", "x1", "--tol", "1e308"]),
        ],
        ids=["order-0", "index-cap-0", "tol-0", "oracle-sequence", "tol-nan", "oracle-order-0",
             "index-cap-above-limit", "tol-infinite", "tol-double-overflows"],
    )
    def test_out_of_range_option(self, tmp_path, capsys, doc_in, argv):
        path = write_doc(tmp_path, doc_in)
        code, doc, _ = run_cli(capsys, argv + ["--input", path])
        assert code == 1
        assert doc["error"]["type"] == "BadParamsError"

    def test_non_finite_anchors(self, tmp_path, capsys):
        doc_in = {"kind": "gallery", "id": "example_2_3", "params": {"a": "-inf", "b": "inf"}}
        path = write_doc(tmp_path, doc_in)
        runs = [
            ["analyze", "--input", path, "--order", "2"],
            ["gallery", "--id", "example_2_3", "--a=-inf", "--b=inf"],
        ]
        for argv in runs:
            code, doc, _ = run_cli(capsys, argv)
            assert code == 1
            assert doc["error"]["type"] == "BadParamsError"

    def test_ratio_beyond_float_range(self, tmp_path, capsys):
        # a valid metric whose order-1 ratio at p is 10^400
        big = "1e400"
        doc_in = dict(FIVE_SWAP_DOC, points=["p", "q", "r"],
                      distance=[["0", "1", big], ["1", "0", big], [big, big, "0"]],
                      map={"p": "q", "q": "r", "r": "r"})
        path = write_doc(tmp_path, doc_in)
        code, doc, _ = run_cli(
            capsys, ["analyze", "--input", path, "--order", "1", "--emit-samples"]
        )
        assert code == 0
        assert doc["alpha_min"] == float("inf")
        assert doc["verdict"] == "NotContraction"
        assert doc["samples"][0]["denom"] == 1.0
        assert doc["samples"][0]["numer"] == float("inf")

    def test_over_long_integer(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        # json refuses to parse an integer of more than 4300 digits
        path.write_text('{"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 1%s}}'
                        % ("0" * 5000))
        code, doc, _ = run_cli(capsys, ["analyze", "--input", str(path), "--order", "2"])
        assert code == 1
        assert doc["error"]["type"] == "InstanceFormatError"

    def test_deeply_nested_document(self, tmp_path, capsys):
        # json's decoder recurses once per level and gives up with RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, doc, _ = run_cli(capsys, ["analyze", "--input", str(path), "--order", "2"])
        assert code == 1
        assert doc["error"]["type"] == "InstanceFormatError"
        assert "is not valid JSON" in doc["error"]["message"]

    def test_huge_decimal_exponent(self, tmp_path, capsys):
        # Fraction would build a 415 MB integer for this entry
        doc = {
            "kind": "finite",
            "points": ["p", "q"],
            "distance": [["0", "1e999999999"], ["1e999999999", "0"]],
            "map": {"p": "q", "q": "p"},
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "1"])
        assert code == 1
        assert out["error"]["type"] == "InstanceFormatError"

    @pytest.mark.parametrize(
        "field, value",
        [("map", ["x2", "x1", "x4", "x5", "x3"]), ("points", 5)],
        ids=["map-list", "points-number"],
    )
    def test_malformed_finite_field(self, tmp_path, capsys, field, value):
        path = write_doc(tmp_path, dict(FIVE_SWAP_DOC, **{field: value}))
        code, doc, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "1"])
        assert code == 1
        assert doc["error"]["type"] == "InstanceFormatError"

    @pytest.mark.parametrize(
        "distance",
        [["01", "10"], {"01": 0, "10": 0}, [["0", "1"], "10"]],
        ids=["list-of-strings", "object", "string-row"],
    )
    def test_distance_must_be_list_of_lists(self, tmp_path, capsys, distance):
        # a string row would be read by its characters, an object by its keys
        doc_in = {"kind": "finite", "points": ["p", "q"], "distance": distance,
                  "map": {"p": "q", "q": "p"}}
        path = write_doc(tmp_path, doc_in)
        code, doc, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "1"])
        assert code == 1
        assert doc["error"]["type"] == "InstanceFormatError"
        assert "'distance' as a list of lists" in doc["error"]["message"]

    @pytest.mark.parametrize("params", [{"a": True, "b": 2}, {"a": 0, "b": False}])
    def test_boolean_anchor(self, tmp_path, capsys, params):
        # float(True) is 1.0, but a JSON true is no number; SequenceSpace refuses it
        path = write_doc(tmp_path, dict(TWO_PHASE_DOC, params=params))
        code, doc, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "2"])
        assert code == 1
        assert doc["error"]["type"] == "BadParamsError"
        assert doc["error"]["message"].startswith("need finite real anchors")

    def test_string_anchors(self, tmp_path, capsys):
        path = write_doc(tmp_path, dict(TWO_PHASE_DOC, params={"a": "0", "b": "1"}))
        code, doc, _ = run_cli(capsys, ["analyze", "--input", path, "--order", "2"])
        assert code == 1
        assert doc["error"] == {
            "type": "BadParamsError",
            "message": "need finite real anchors and a finite gap b - a, got a='0', b='1'",
        }


    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_empty_finite_space(self, tmp_path, capsys, command):
        # an empty space has no periodic point, so the oracle would report
        # that the theorem failed
        path = write_doc(tmp_path, dict(FIVE_SWAP_DOC, points=[], distance=[], map={}))
        code, doc, _ = run_cli(capsys, [command, "--input", path, "--order", "1"])
        assert code == 1
        assert doc["error"]["type"] == "BadParamsError"


class TestCliUsageErrors:
    # argparse would print its usage text and exit 2, the code of an
    # expectation FAIL; a usage error is refused like any bad parameter
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--order", "two", "--start", "x1"],
             "argument --order: invalid int value: 'two'"),
            (["solve", "--order", "2"], "the following arguments are required: --start"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-int", "missing-option", "missing-subcommand"],
    )
    def test_json_error_with_exit_1(self, tmp_path, capsys, argv, message):
        if argv:
            argv = argv + ["--input", write_doc(tmp_path, TWO_PHASE_DOC)]
        code, doc, err = run_cli(capsys, argv)  # stdout must parse as one document
        assert code == 1
        assert doc == {"error": {"type": "BadParamsError", "message": message}}
        assert err == f"error: {message}\n"


def cli_process(*args):
    """``python -m graphcon.cli *args`` in a new process that imports the
    graphcon this process imported, installed or not."""
    path = [str(Path(graphcon.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "graphcon.cli", *args], capture_output=True, text=True, env=env
    )


class TestCliProcess:
    def test_module_entry_point(self, tmp_path):
        path = write_doc(tmp_path, FIVE_SWAP_DOC)
        proc = cli_process("oracle", "--input", path, "--order", "6")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["periodic"]) == 5
        assert "divisor_ok" in proc.stderr

    def test_usage_error_in_a_new_process(self, tmp_path):
        proc = cli_process("analyze", "--input", write_doc(tmp_path, TWO_PHASE_DOC))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "BadParamsError"
        assert proc.stderr == "error: the following arguments are required: --order\n"

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # the parser is built once, at import: neither a refused call nor an
        # option given to one call may carry over to the next
        path = write_doc(tmp_path, TWO_PHASE_DOC)
        solve = ["solve", "--input", path, "--order", "2", "--start", "x1"]
        fresh = cli_process(*solve)
        assert main(solve) == 0
        capsys.readouterr()
        assert main(["solve", "--input", path, "--order", "two"]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "BadParamsError"
        assert main(solve + ["--tol", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out) != json.loads(fresh.stdout)
        assert main(solve) == fresh.returncode == 0
        assert capsys.readouterr() == (fresh.stdout, fresh.stderr)
