"""Contraction ratios, exact and sampled alpha, class checks."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcon import (
    BadParamsError,
    ConsistencyViolationError,
    ContractionClass,
    FiniteSpace,
    RatioSample,
    SequenceFamily,
    SequenceSpace,
    ShiftMap,
    TableMap,
    Verdict,
    alpha_exact,
    alpha_sampled,
    check_iterated_class,
    iterate,
    random_instance,
    ratio,
    ratio_limit_probe,
)
from graphcon import analysis
from graphcon.analysis import INCONCLUSIVE_MARGIN, MAX_INDEX_CAP, _report_from_samples

from builders import banach_chain, five_swap, four_phase, two_phase, unit_space


def exact_two_phase_ratio(n, idx):
    """Independent rational evaluation of the order-n ratio at x_idx."""
    def coord(j):
        return Fraction(-1, 2**j) if j % 2 == 1 else 1 + Fraction(1, 2**j)

    numer = abs(coord(idx + 2 * n) - coord(idx + n))
    denom = abs(coord(idx + n) - coord(idx))
    return numer / denom


class TestRatio:
    def test_two_phase_order2_is_quarter(self, two_phase):
        space, map_ = two_phase
        for k in (0, 1, 2, 5, 20):
            idx = 2 * k + 1
            assert exact_two_phase_ratio(2, idx) == Fraction(1, 4)
            sample = ratio(space, map_, 2, space.x(idx))
            assert sample.value == 0.25

    def test_five_swap_order6_trivial(self, five_swap):
        space, map_ = five_swap
        for x in space.points():
            sample = ratio(space, map_, 6, x)
            assert sample.trivial
            assert sample.numer == 0 and sample.denom == 0

    def test_four_phase_order3_at_anchor_is_one(self, four_phase):
        space, map_ = four_phase
        sample = ratio(space, map_, 3, space.a_point)
        assert sample.value == 1.0
        # both sides of the inequality equal the anchor gap
        assert sample.numer == 1.0 and sample.denom == 1.0

    def test_exact_rationals_on_finite(self, banach_chain):
        space, map_ = banach_chain
        sample = ratio(space, map_, 2, space.point_named("c16"))
        assert sample.value == Fraction(1, 15)

    def test_order_validated(self, five_swap):
        space, map_ = five_swap
        with pytest.raises(BadParamsError):
            ratio(space, map_, 0, 0)

    def test_zero_denominator_with_nonzero_numerator_raises(self):
        # a distance that breaks the identity axiom: d(x1, x2) = 0
        def broken_distance(x, y):
            return 0 if x == y or {x, y} == {0, 1} else 1

        space = unit_space(3)
        map_ = TableMap(space, (1, 2, 0))
        broken = SimpleNamespace(distance=broken_distance)
        with pytest.raises(ConsistencyViolationError):
            ratio(broken, map_, 1, 0)

    def test_zero_denominator_forces_zero_numerator(self):
        for seed in range(30):
            space, map_ = random_instance(seed, 8)
            for n in (1, 2, 3):
                for x in space.points():
                    s = ratio(space, map_, n, x)
                    if s.denom == 0:
                        assert s.numer == 0 and s.trivial


class TestAlphaExact:
    def test_five_swap_order6_contraction_zero(self, five_swap):
        space, map_ = five_swap
        rep = alpha_exact(space, map_, 6)
        assert rep.verdict is Verdict.CONTRACTION
        assert rep.alpha_min == 0
        assert rep.exact
        assert rep.trivial_count == 5

    def test_five_swap_order1_not_contraction(self, five_swap):
        space, map_ = five_swap
        rep = alpha_exact(space, map_, 1)
        assert rep.verdict is Verdict.NOT_CONTRACTION
        assert rep.alpha_min == 1
        assert rep.witness is not None
        witness_sample = next(s for s in rep.samples if s.point == rep.witness)
        assert witness_sample.value >= 1

    def test_five_swap_intermediate_orders_fail(self, five_swap):
        space, map_ = five_swap
        for n in (2, 3, 4, 5):
            assert alpha_exact(space, map_, n).verdict is Verdict.NOT_CONTRACTION

    def test_identity_map_all_trivial(self):
        space = unit_space(4)
        ident = TableMap(space, (0, 1, 2, 3))
        for n in (1, 2, 3):
            rep = alpha_exact(space, ident, n)
            assert rep.verdict is Verdict.CONTRACTION
            assert rep.alpha_min == 0
            assert rep.trivial_count == 4

    def test_banach_chain_orders(self, banach_chain):
        space, map_ = banach_chain
        rep1 = alpha_exact(space, map_, 1)
        assert rep1.verdict is Verdict.CONTRACTION
        assert rep1.alpha_min == Fraction(1, 3)
        rep2 = alpha_exact(space, map_, 2)
        assert rep2.alpha_min == Fraction(1, 15)

    def test_rejects_sequence_space(self, two_phase):
        space, map_ = two_phase
        with pytest.raises(BadParamsError):
            alpha_exact(space, map_, 1)

    def test_matches_per_point_ratios(self):
        instances = [random_instance(seed, 8) for seed in range(10)]
        for space, map_ in instances + [five_swap(), banach_chain()]:
            for n in range(1, 9):
                assert alpha_exact(space, map_, n) == reference_exact(space, map_, n), n

    def test_contraction_bound_holds_pointwise(self):
        # verdict Contraction(alpha) means numer <= alpha * denom exactly
        for seed in range(60):
            space, map_ = random_instance(seed, 7)
            for n in (1, 2, 3):
                rep = alpha_exact(space, map_, n)
                if rep.verdict is Verdict.CONTRACTION:
                    for s in rep.samples:
                        assert s.numer <= rep.alpha_min * s.denom


class TestAlphaSampled:
    def test_family_given_by_its_id(self):
        space = SequenceSpace("example_2_3", 0.0, 1.0)
        assert alpha_sampled(space, ShiftMap(space), 2).alpha_min == Fraction(1, 4)

    def test_two_phase_order2(self, two_phase):
        space, map_ = two_phase
        rep = alpha_sampled(space, map_, 2, index_cap=200)
        assert rep.verdict is Verdict.CONTRACTION
        assert abs(rep.alpha_min - 0.25) <= 1e-12
        assert not rep.exact

    def test_two_phase_order1_inconclusive(self, two_phase):
        space, map_ = two_phase
        rep = alpha_sampled(space, map_, 1, index_cap=200)
        assert rep.verdict is Verdict.INCONCLUSIVE_SAMPLED
        assert rep.alpha_min >= 0.999

    def test_four_phase_order4(self, four_phase):
        space, map_ = four_phase
        rep = alpha_sampled(space, map_, 4, index_cap=200)
        assert rep.verdict is Verdict.CONTRACTION
        assert abs(rep.alpha_min - 0.5) <= 1e-9

    @pytest.mark.parametrize(
        "family, n, alpha",
        [("two_phase", 2, Fraction(1, 4)), ("four_phase", 4, Fraction(1, 2))],
    )
    def test_exact_alpha_past_float_underflow(self, request, family, n, alpha):
        # offsets 2^-k and 3^-k pass below the smallest float long before
        # index 3000; only the anchors may be trivially satisfied
        space, map_ = request.getfixturevalue(family)
        rep = alpha_sampled(space, map_, n, index_cap=3000)
        assert rep.alpha_min == alpha
        assert rep.verdict is Verdict.CONTRACTION
        assert rep.trivial_count == 2

    def test_four_phase_low_orders_refuted(self, four_phase):
        space, map_ = four_phase
        for n in (1, 2, 3):
            rep = alpha_sampled(space, map_, n, index_cap=200)
            assert rep.verdict is Verdict.NOT_CONTRACTION
            assert rep.witness is not None

    def test_four_phase_order2_witness_value(self, four_phase):
        space, map_ = four_phase
        rep = alpha_sampled(space, map_, 2, index_cap=200)
        # the third family point already violates: exact ratio 5/3
        bad = next(s for s in rep.samples if s.point == space.x(3))
        assert abs(bad.value - float(Fraction(5, 3))) <= 1e-15

    def test_monotone_in_cap(self, four_phase):
        space, map_ = four_phase
        values = [
            alpha_sampled(space, map_, 1, index_cap=cap).alpha_min
            for cap in (5, 20, 80, 200)
        ]
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_rejects_finite_space(self, five_swap):
        space, map_ = five_swap
        with pytest.raises(BadParamsError):
            alpha_sampled(space, map_, 1)

    def test_index_cap_above_the_limit_refused_before_sampling(self, two_phase, monkeypatch):
        # memory grows with the square of the cap, so a cap past the limit is
        # refused even where the space holds the indices it would sample
        space, map_ = two_phase
        assert MAX_INDEX_CAP + 2 <= space.max_index
        monkeypatch.setattr(ShiftMap, "power", None)  # any sample would fail
        refusal = f"between 1 and {MAX_INDEX_CAP}, got {MAX_INDEX_CAP + 1}"
        with pytest.raises(BadParamsError, match=refusal):
            alpha_sampled(space, map_, 1, index_cap=MAX_INDEX_CAP + 1)

    def test_index_cap_within_the_space(self):
        # the samples reach x_{cap + 2n}: at order 2 a cap of 26 fits a space
        # capped at index 30, and 27 is refused up front, naming x31
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=30)
        map_ = ShiftMap(space)
        assert alpha_sampled(space, map_, 2, index_cap=26).alpha_min == Fraction(1, 4)
        for cap, needed in [(27, "x31"), (29, "x33"), (31, "x35")]:
            with pytest.raises(BadParamsError, match=f"needs {needed}, past max_index 30"):
                alpha_sampled(space, map_, 2, index_cap=cap)


def reference_exact(space, map_, n):
    """The exact report from one independent ``ratio`` per point."""
    samples = [ratio(space, map_, n, x) for x in space.points()]
    return _report_from_samples(n, samples, exact=True)


def reference_sampled(space, map_, n, cap):
    """The sampled report from one independent ``ratio`` per sample point."""
    samples = [ratio(space, map_, n, p) for p in space.sample_points(cap)]
    return _report_from_samples(n, samples, exact=False)


def full_scan_report(order, samples, exact):
    """(verdict, alpha_min, witness) as read by a scan of every sample for
    the first refuting one, whatever ``alpha_min`` is."""
    informative = [s for s in samples if not s.trivial]
    alpha_min = max((s.value for s in informative), default=Fraction(0))
    over = next((s for s in informative if s.value > 1 or exact and s.value == 1), None)
    if over is not None:
        verdict = Verdict.NOT_CONTRACTION
    elif not exact and alpha_min >= 1 - INCONCLUSIVE_MARGIN:
        verdict = Verdict.INCONCLUSIVE_SAMPLED
    else:
        verdict = Verdict.CONTRACTION
    return verdict, alpha_min, None if over is None else over.point


def report_outcome(report):
    return report.verdict, report.alpha_min, report.witness


class TestReportMatchesFullScan:
    @pytest.mark.parametrize("family", [two_phase, four_phase])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("exact", [False, True])
    def test_sequence_families(self, family, n, exact):
        space, map_ = family(-2.5, 3.25)
        samples = alpha_sampled(space, map_, n, index_cap=200).samples
        report = _report_from_samples(n, samples, exact)
        assert report_outcome(report) == full_scan_report(n, samples, exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_witness_is_first_refuting_sample_not_the_largest(self, exact):
        values = [Fraction(1, 2), None, Fraction(3, 2), Fraction(1), Fraction(5, 2), Fraction(2)]
        samples = [RatioSample(i, 1, Fraction(1), v) for i, v in enumerate(values)]
        report = _report_from_samples(1, samples, exact)
        assert report_outcome(report) == full_scan_report(1, samples, exact)
        assert report.witness == 2 and report.alpha_min == Fraction(5, 2)

    @pytest.mark.parametrize("exact", [False, True])
    def test_ratio_exactly_one(self, exact):
        # a ratio of 1 refutes an exact report but leaves a sampled one open
        values = [Fraction(1, 3), None, Fraction(1), Fraction(1, 2), Fraction(1)]
        samples = [RatioSample(i, 1, Fraction(1), v) for i, v in enumerate(values)]
        report = _report_from_samples(1, samples, exact)
        assert report_outcome(report) == full_scan_report(1, samples, exact)
        assert report.witness == (2 if exact else None)

    def test_alpha_exact_at_ratio_one(self, five_swap):
        space, map_ = five_swap
        report = alpha_exact(space, map_, 1)
        assert report.alpha_min == 1
        assert report_outcome(report) == full_scan_report(1, report.samples, True)
        assert report.witness == 0


class TestSampledReadsEachStepOnce:
    @pytest.mark.parametrize("family", [two_phase, four_phase])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.5, 3.25)])
    def test_matches_per_point_ratios(self, family, a, b):
        space, map_ = family(a, b)
        for n in range(1, 9):
            for cap in (1, 2, 7, 128, 200):
                assert alpha_sampled(space, map_, n, cap) == reference_sampled(
                    space, map_, n, cap
                ), (n, cap)

    @pytest.mark.parametrize("family, n", [(two_phase, 2), (four_phase, 4)])
    def test_matches_per_point_ratios_past_float_underflow(self, family, n):
        space, map_ = family()
        assert alpha_sampled(space, map_, n, 3000) == reference_sampled(space, map_, n, 3000)

    @pytest.mark.parametrize("family", [two_phase, four_phase, five_swap, banach_chain])
    def test_each_step_once(self, family, monkeypatch):
        # T^n read by power and a distance taken once per step, never by
        # apply, iterate or ratio: exactly at each of the |X| points; sampled at a, b,
        # x_1 .. x_cap and x_{n+1} .. x_{n+cap}, which overlap when cap >= n
        space, map_ = family()
        counts = dict.fromkeys(["apply", "power", "distance", "iterate", "ratio"], 0)

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(type(map_), "apply", counted("apply", type(map_).apply))
        monkeypatch.setattr(type(map_), "power", counted("power", type(map_).power))
        monkeypatch.setattr(type(space), "distance", counted("distance", type(space).distance))
        monkeypatch.setattr(analysis, "iterate", counted("iterate", analysis.iterate))
        monkeypatch.setattr(analysis, "ratio", counted("ratio", analysis.ratio))
        if isinstance(space, FiniteSpace):
            runs = [(n, None, space.size) for n in range(1, 9)]
        else:
            runs = [(n, cap, cap + min(cap, n) + 2)
                    for n, cap in [(1, 1), (1, 200), (2, 1), (2, 29), (4, 2000), (5, 3), (8, 64)]]
        for n, cap, steps in runs:
            counts.update(dict.fromkeys(counts, 0))
            if cap is None:
                alpha_exact(space, map_, n)
            else:
                alpha_sampled(space, map_, n, cap)
            expected = {"apply": 0, "power": steps, "distance": steps, "iterate": 0, "ratio": 0}
            assert counts == expected, (n, cap)


class TestRatioLimitProbe:
    def test_four_phase_order2_probe(self, four_phase):
        space, map_ = four_phase
        val = ratio_limit_probe(space, map_, 2, lambda k: 4 * k - 1, 15)
        # exact rational value of the ratio at x_59, frozen:
        # (1/3^16 - 1/2^16) over (1/2^16 - 1/3^15) = 42981185/42850113
        assert abs(val - float(Fraction(42981185, 42850113))) <= 1e-12
        assert abs(val - 1.0) <= 1e-2

    def test_two_phase_order1_probe(self, two_phase):
        space, map_ = two_phase

        def coord(j):
            return Fraction(-1, 2**j) if j % 2 == 1 else 1 + Fraction(1, 2**j)

        exact = abs(coord(22) - coord(21)) / abs(coord(21) - coord(20))
        val = ratio_limit_probe(space, map_, 1, lambda k: k, 20)
        assert abs(val - float(exact)) <= 1e-12
        assert abs(val - 1.0) <= 1e-4

    def test_four_phase_order4_halving_strand(self, four_phase):
        space, map_ = four_phase
        val = ratio_limit_probe(space, map_, 4, lambda k: 4 * k - 3, 5)
        assert val == 0.5

    def test_selector_out_of_range(self, four_phase):
        from graphcon import InvalidPointError

        space, map_ = four_phase
        with pytest.raises(InvalidPointError):
            ratio_limit_probe(space, map_, 2, lambda k: k - 5, 2)


class TestIteratedClassCheck:
    def test_banach_chain_holds(self, banach_chain):
        space, map_ = banach_chain
        res = check_iterated_class(space, map_, 2, ContractionClass.BANACH, Fraction(1, 4))
        assert res.holds
        assert res.effective_alpha == Fraction(1, 4)
        assert res.tightest == Fraction(1, 12)
        assert alpha_exact(space, map_, 2).alpha_min <= res.effective_alpha

    def test_constant_map_trivially_banach(self):
        space = unit_space(2)
        const = TableMap(space, (0, 0))
        res = check_iterated_class(space, const, 1, ContractionClass.BANACH, Fraction(1, 2))
        assert res.holds
        assert res.effective_alpha == Fraction(1, 2)

    def test_identity_fails_banach(self):
        space = unit_space(2)
        ident = TableMap(space, (0, 1))
        res = check_iterated_class(space, ident, 1, ContractionClass.BANACH, Fraction(9, 10))
        assert not res.holds
        assert res.witness is not None
        x, y = res.witness
        assert x != y

    def test_kannan_constant_square(self):
        space = unit_space(3)
        map_ = TableMap(space, (1, 2, 2))  # T^2 is constant
        res = check_iterated_class(space, map_, 2, ContractionClass.KANNAN, Fraction(2, 5))
        assert res.holds
        assert res.effective_alpha == Fraction(2, 3)
        assert alpha_exact(space, map_, 2).alpha_min <= Fraction(2, 3)

    def test_chatterjea_constant_square(self):
        space = unit_space(4)
        map_ = TableMap(space, (1, 3, 3, 3))
        res = check_iterated_class(space, map_, 2, ContractionClass.CHATTERJEA, Fraction(2, 5))
        assert res.holds
        assert res.effective_alpha == Fraction(2, 3)

    def test_identity_fails_kannan(self):
        # lhs positive while both self-displacements vanish
        space = unit_space(2)
        ident = TableMap(space, (0, 1))
        res = check_iterated_class(space, ident, 1, ContractionClass.KANNAN, Fraction(2, 5))
        assert not res.holds

    def test_bound_above_effective_constant_raises(self, banach_chain, monkeypatch):
        import graphcon.analysis as analysis_mod

        space, map_ = banach_chain
        monkeypatch.setattr(
            analysis_mod, "alpha_exact", lambda *a: SimpleNamespace(alpha_min=Fraction(1))
        )
        with pytest.raises(ConsistencyViolationError):
            check_iterated_class(space, map_, 1, ContractionClass.BANACH, Fraction(1, 2))

    def test_alpha_range_validated(self, banach_chain):
        space, map_ = banach_chain
        for bad in (0, 1, Fraction(3, 2), -0.25):
            with pytest.raises(BadParamsError):
                check_iterated_class(space, map_, 1, ContractionClass.BANACH, bad)

    def test_accepts_decimal_alpha(self, banach_chain):
        space, map_ = banach_chain
        res = check_iterated_class(space, map_, 2, ContractionClass.KANNAN, "0.4")
        assert res.alpha == Fraction(2, 5)


def reference_class_check(space, map_, n, cls, alpha):
    """(holds, witness, tightest) by the plain pairwise scan in Fractions."""
    image = {x: iterate(map_, x, n) for x in space.points()}
    d = space.distance
    witness = tightest = None
    for x in space.points():
        for y in space.points():
            lhs = d(image[x], image[y])
            if cls is ContractionClass.BANACH:
                rhs = d(x, y)
            elif cls is ContractionClass.KANNAN:
                rhs = d(x, image[x]) + d(y, image[y])
            else:
                rhs = d(x, image[y]) + d(y, image[x])
            if lhs > alpha * rhs and witness is None:
                witness = (x, y)
            if rhs > 0 and (tightest is None or lhs / rhs > tightest):
                tightest = lhs / rhs
    return witness is None, witness, tightest


class TestIntegerClassCheckMatchesFractionReference:
    ALPHAS = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))

    @staticmethod
    def instances():
        for seed in range(60):
            space, map_ = random_instance(seed, 12)
            yield space, map_
            if seed % 10 == 0:  # T^n the identity: no informative pair for kannan
                yield space, TableMap(space, tuple(space.points()))

    def test_check_iterated_class(self):
        outcomes = {cls: set() for cls in ContractionClass}
        for space, map_ in self.instances():
            for n in (1, 2, 6, 12):
                for cls in ContractionClass:
                    for alpha in self.ALPHAS:
                        got = check_iterated_class(space, map_, n, cls, alpha)
                        want = reference_class_check(space, map_, n, cls, alpha)
                        assert (got.holds, got.witness, got.tightest) == want
                        outcomes[cls].add((got.holds, got.tightest is None))
        for cls in ContractionClass:  # holds and fails, informative or not
            assert {(True, False), (False, False)} <= outcomes[cls]
        assert (False, True) in outcomes[ContractionClass.KANNAN]


class TestCompositionIdentity:
    def test_order_n_ratio_equals_iterate_order1(self, five_swap):
        space, map_ = five_swap
        for n in (1, 2, 3, 6):
            composed = TableMap(
                space, tuple(iterate(map_, x, n) for x in space.points())
            )
            assert (
                alpha_exact(space, map_, n).alpha_min
                == alpha_exact(space, composed, 1).alpha_min
            )

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=1, max_value=4))
    def test_on_random_instances(self, seed, n):
        space, map_ = random_instance(seed, 6)
        composed = TableMap(space, tuple(iterate(map_, x, n) for x in space.points()))
        assert (
            alpha_exact(space, map_, n).alpha_min
            == alpha_exact(space, composed, 1).alpha_min
        )
