"""Gallery construction and end-to-end expectation runs."""

from dataclasses import FrozenInstanceError

import pytest

from graphcon import (
    GALLERY_IDS,
    BadParamsError,
    FiniteSpace,
    SequenceSpace,
    ToleranceAmbiguityError,
    UnknownIdError,
    build_case,
    run_gallery,
    solver,
)
from graphcon.gallery import Anchors


class TestBuildCase:
    def test_finite_case_shape(self):
        case = build_case("example_2_2")
        assert isinstance(case.space, FiniteSpace)
        assert case.space.size == 5
        assert case.map_.images == (1, 0, 3, 4, 2)
        names = [c.name for c in run_gallery("example_2_2").checks]
        assert names[0] == "order6_exact"

    def test_sequence_cases_carry_params(self):
        case = build_case("example_2_3", a=-1.0, b=2.0)
        assert isinstance(case.space, SequenceSpace)
        assert case.params == Anchors(-1.0, 2.0)

    def test_class_case_bundles_three_instances(self):
        case = build_case("example_2_5")
        assert len(case.class_instances) == 3
        names = {inst.class_name.value for inst in case.class_instances}
        assert names == {"banach", "kannan", "chatterjea"}
        for inst in case.class_instances:
            assert 0 < inst.alpha < 1

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError):
            build_case("example_0_0")

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            build_case("example_2_4", a=1.0, b=1.0)

    @pytest.mark.parametrize("a, b", [(True, 2), ("0", "1"), (0, 10**400)],
                             ids=["bool", "strings", "past-float-range"])
    def test_anchors_are_passed_as_given(self, a, b):
        # no float() first: True would run as 1.0 and "0" as 0.0
        with pytest.raises(BadParamsError, match="need finite real anchors"):
            run_gallery("example_2_3", a=a, b=b)

    def test_integer_anchors_stay_exact(self):
        case = build_case("example_2_4", a=0, b=2**53 + 1)
        assert case.params == Anchors(0, 2**53 + 1)
        assert case.space.distance(case.space.a_point, case.space.b_point) == 2**53 + 1


CHECK_NAMES = {
    "example_2_2": [
        "order6_exact", "order1_exact", "oracle_order6",
        "solve_order6_from_x1", "solve_order6_from_x3",
    ],
    "example_2_3": [
        "order2_sampled", "order1_sampled", "solve_order2_from_x1",
        "prime_period_a", "prime_period_b",
    ],
    "example_2_4": [
        "order4_sampled", "order1_sampled", "order2_sampled", "order3_sampled",
        "order3_ratio_at_a", "order2_probe_k15", "solve_order4_from_x1",
        "prime_period_a", "prime_period_b",
    ],
    "example_2_5": [
        "banach_iterate_bound", "kannan_iterate_bound", "chatterjea_iterate_bound",
    ],
}


class TestCharacterization:
    """The ordered check names, and that every check passes, at the default
    anchors and at shifted ones."""

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.5, 0.25)])
    @pytest.mark.parametrize("case_id", GALLERY_IDS)
    def test_check_names_and_outcomes(self, case_id, a, b):
        report = run_gallery(case_id, a=a, b=b)
        assert [c.name for c in report.checks] == CHECK_NAMES[case_id]
        assert all(c.ok for c in report.checks), [c for c in report.checks if not c.ok]
        assert report.id == case_id

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.5, 0.25)])
    @pytest.mark.parametrize("case_id", ["example_2_3", "example_2_4"])
    def test_sequence_params(self, case_id, a, b):
        assert run_gallery(case_id, a=a, b=b).params == Anchors(a, b)

    @pytest.mark.parametrize("case_id", ["example_2_2", "example_2_5"])
    def test_finite_cases_take_no_params(self, case_id):
        assert run_gallery(case_id).params is None

    def test_report_is_frozen_and_hashes(self):
        report = run_gallery("example_2_3")
        assert hash(report) == hash(run_gallery("example_2_3"))
        with pytest.raises(FrozenInstanceError):
            report.params.a = 99.0


class TestRunGallery:
    @pytest.mark.parametrize("case_id", GALLERY_IDS)
    def test_default_params_pass(self, case_id):
        report = run_gallery(case_id)
        failures = [c for c in report.checks if not c.ok]
        assert report.passed, failures
        assert report.checks

    @pytest.mark.parametrize("case_id", ["example_2_3", "example_2_4"])
    def test_shifted_anchors_pass(self, case_id):
        report = run_gallery(case_id, a=-3.5, b=0.25)
        assert report.passed, [c for c in report.checks if not c.ok]

    @pytest.mark.parametrize(
        "case_id, b, failing",
        [
            ("example_2_3", 1e-10, "solve_order2_from_x1"),
            ("example_2_3", 1e-9, None),
            ("example_2_3", 1e-8, None),
            ("example_2_3", 1e-7, None),
            ("example_2_4", 1e-9, None),
            ("example_2_4", 1e-7, None),
        ],
    )
    def test_anchors_closer_than_the_cluster_tolerance(self, case_id, b, failing):
        # the solver counts limits within 2 * tol = 2e-10 of each other as
        # one, so a 2-cycle that narrow solves as period 1 and fails the
        # solve check alone; anchors from 1e-9 apart pass every check
        report = run_gallery(case_id, a=0.0, b=b)
        assert [c.name for c in report.checks if not c.ok] == ([failing] if failing else [])
        if failing:
            detail = next(c.detail for c in report.checks if not c.ok)
            assert detail.startswith("period 1, case B")

    def test_solver_refusal_fails_the_solve_check_alone(self, monkeypatch):
        # no valid anchors make the gallery's solves raise; a refusal would
        # still be reported as one failed check, not abort the run
        def refuse(*args, **kwargs):
            raise ToleranceAmbiguityError("limits 0 and 1 coincide")

        monkeypatch.setattr(solver, "solve", refuse)
        report = run_gallery("example_2_3")
        failed = [c for c in report.checks if not c.ok]
        assert [c.name for c in failed] == ["solve_order2_from_x1"]
        assert failed[0].detail == "solver raised ToleranceAmbiguityError: limits 0 and 1 coincide"

    def test_programming_error_in_the_solver_propagates(self, monkeypatch):
        # only a GraphconError is a refusal to report; anything else is a bug
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(solver, "solve", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_gallery("example_2_3")

    def test_report_details_are_informative(self):
        report = run_gallery("example_2_3")
        by_name = {c.name: c for c in report.checks}
        assert "order2_sampled" in by_name
        assert "alpha_min" in by_name["order2_sampled"].detail
