"""Tail bound, subsequence advancement, limit classification, solve."""

import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcon import (
    BadParamsError,
    ConsistencyViolationError,
    FiniteSpace,
    GammaOutOfRangeError,
    GraphconError,
    InvalidPointError,
    LimitCase,
    NotConvergedError,
    PeriodicSolution,
    SeqPoint,
    SequenceFamily,
    SequenceSpace,
    ShiftMap,
    SubsequenceState,
    TableMap,
    ToleranceAmbiguityError,
    Verdict,
    advance_subsequences,
    alpha_exact,
    cauchy_tail_bound,
    classify_limits,
    crosscheck,
    divisors,
    iterate,
    random_instance,
    solve,
)
from graphcon.solver import (
    DEFAULT_MAX_OUTER,
    DEFAULT_TOL,
    MAX_ORDER,
    TailBoundStopper,
)

import builders
from builders import unit_space

TWO_PHASE = builders.two_phase()[0]
NARROW_TWO_PHASE = builders.two_phase(0.0, 1e-9)[0]  # anchors inside some cluster tolerances
CLUSTER_TOL = 2 * DEFAULT_TOL  # solve's tolerance for walked limits at the default tol


class TestCauchyTailBound:
    def test_unit_first_step_half_ratio(self):
        assert cauchy_tail_bound(1.0, 0.5, 1) == 2.0

    def test_zero_first_step(self):
        assert cauchy_tail_bound(0.0, 0.9, 7) == 0.0

    def test_quarter_ratio_third_term(self):
        # geometric tail: 0.25^2 / 0.75 = 1/12; cross-check by summing
        # the dominating series far past any visible contribution
        exact = cauchy_tail_bound(Fraction(1), Fraction(1, 4), 3)
        assert exact == Fraction(1, 12)
        partial = sum(Fraction(1, 4) ** (j - 1) for j in range(3, 54))
        assert abs(float(exact) - float(partial)) < 1e-15

    def test_gamma_validated(self):
        with pytest.raises(GammaOutOfRangeError):
            cauchy_tail_bound(1.0, 1.0, 2)
        with pytest.raises(GammaOutOfRangeError):
            cauchy_tail_bound(1.0, -0.2, 2)
        with pytest.raises(GammaOutOfRangeError):
            cauchy_tail_bound(1.0, float("nan"), 2)

    def test_preconditions(self):
        with pytest.raises(BadParamsError):
            cauchy_tail_bound(-1.0, 0.5, 2)
        with pytest.raises(BadParamsError):
            cauchy_tail_bound(1.0, 0.5, 0)

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=0.95),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=60),
    )
    def test_dominates_partial_tail_sums(self, d1, gamma, k, m):
        bound = cauchy_tail_bound(d1, gamma, k)
        partial = sum(d1 * gamma ** (j - 1) for j in range(k, k + m))
        assert partial <= bound * (1 + 1e-12) + 1e-300


class TestTailBoundStopper:
    def test_exact_geometric_sequence(self):
        tol = 1e-10
        stop = TailBoundStopper(tol)
        x, step = 0.0, 1.0
        for _ in range(10_000):
            x += step
            if stop.observe(step):
                break
            step *= 0.5
        else:
            pytest.fail("stopper never fired")
        assert abs(x - 2.0) < tol

    def test_non_contracting_never_converges(self):
        stop = TailBoundStopper(1e-10)
        for _ in range(500):
            assert not stop.observe(1.0)
        assert stop.gamma_hat == pytest.approx(1.0, abs=1e-6)

    def test_steps_below_smallest_float(self):
        # float(step) would be 0.0 for all of these
        stop = TailBoundStopper(1e-10)
        assert not stop.observe(Fraction(1, 2**2000))
        assert stop.observe(Fraction(1, 2**2002))
        assert stop.gamma_hat == 0.25
        assert stop.last != 0

    @pytest.mark.parametrize(
        "family, n, start, steps",
        [
            (SequenceFamily.TWO_PHASE, 2, 1, 200),
            (SequenceFamily.FOUR_PHASE, 4, 1, 200),
            (SequenceFamily.TWO_PHASE, 1, 1, 300),  # does not contract: never stops
            (SequenceFamily.TWO_PHASE, 2, 1100, 200),  # first step below 2^-1074
            (SequenceFamily.FOUR_PHASE, 4, 2700, 200),
        ],
    )
    def test_bound_matches_exact_first_step(self, family, n, start, steps):
        # the stopper keeps float(first); the bound must read as if it
        # kept the exact step, at every observation of every strand
        space = SequenceSpace(family, 0.0, 1.0)
        for i in range(n):
            stop = TailBoundStopper(DEFAULT_TOL)
            terms = range(start + i, start + i + n * steps, n)
            exact_steps = [space.distance(space.x(m), space.x(m + n)) for m in terms]
            first = exact_steps[0]
            assert isinstance(first, Fraction)
            for step in exact_steps:
                converged = stop.observe(step)
                if stop.count > 1:
                    expect = cauchy_tail_bound(first, stop.gamma_hat, stop.count + 1)
                    assert stop.bound == expect
                if converged:
                    break


class TestAdvanceSubsequences:
    def test_five_swap_order6(self, five_swap):
        space, map_ = five_swap
        states = advance_subsequences(space, map_, 6, 0)
        assert [st_.limit for st_ in states] == [0, 1, 0, 1, 0, 1]
        # the orbit alternates between two points, so every strand is
        # constant from its seed on
        assert all(st_.last_step == 0 for st_ in states)

    def test_two_phase_order2(self, two_phase):
        space, map_ = two_phase
        states = advance_subsequences(space, map_, 2, space.x(1), tol=1e-10)
        limits = [st_.limit for st_ in states]
        assert space.distance(limits[0], space.a_point) <= 1e-7
        assert space.distance(limits[1], space.b_point) <= 1e-7
        assert all(0 <= st_.gamma_hat < 1 for st_ in states)

    def test_four_phase_order4(self, four_phase):
        space, map_ = four_phase
        states = advance_subsequences(space, map_, 4, space.x(1), tol=1e-10)
        targets = [space.a_point, space.b_point, space.a_point, space.b_point]
        for st_, target in zip(states, targets):
            assert space.distance(st_.limit, target) <= 1e-7

    def test_strands_share_horizon(self, four_phase):
        space, map_ = four_phase
        states = advance_subsequences(space, map_, 4, space.x(1))
        counts = {st_.terms for st_ in states}
        assert len(counts) == 1

    def test_limits_lie_on_the_orbit(self, two_phase):
        # strand i walks T^i start, T^(n+i) start, ...: its limit is its
        # last term, T^(n(terms-1)+i) start
        space, map_ = two_phase
        start = space.x(1)
        for n in (2, 4):
            states = advance_subsequences(space, map_, n, start)
            for i, st_ in enumerate(states):
                assert st_.terms > 1
                assert st_.limit == iterate(map_, start, n * (st_.terms - 1) + i)

    def test_walk_memory_does_not_grow_with_its_length(self, two_phase):
        # order 3 never contracts, so the walk runs its whole budget of
        # 4000 terms per strand; it keeps an n-term window, not the orbit
        space, map_ = two_phase
        tracemalloc.start()
        try:
            with pytest.raises(NotConvergedError):
                advance_subsequences(space, map_, 3, space.x(1), max_outer=4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_not_converged_on_cycle_mismatch(self, four_cycle):
        space, map_ = four_cycle
        with pytest.raises(NotConvergedError) as err:
            advance_subsequences(space, map_, 2, 0, max_outer=50)
        assert err.value.residue in (1, 2)
        assert err.value.last_step > 0


def reference_advance(space, map_, n, start, max_outer, tol=DEFAULT_TOL):
    """The literal per-strand loop: strand i seeds at T^(i-1) start, and
    every term is a fresh n-fold iterate of its strand's last term.

    A strand whose step is exactly 0 is constant from there on (each term
    is a function of the previous one) and has converged; a strand that
    moves back to one of its own terms has entered a cycle of T^n. Only
    on a sequence space does the tail bound also stop a strand."""
    seeds = [start]
    for _ in range(n - 1):
        seeds.append(map_.apply(seeds[-1]))
    use_bound = not isinstance(space, FiniteSpace)
    stoppers = [TailBoundStopper(tol) for _ in range(n)]
    terms = [[seed] for seed in seeds]
    last = [None] * n
    seen = [{seed: 0} for seed in seeds]
    pending = set(range(n))
    for k in range(1, max_outer):
        for i in range(n):
            nxt = iterate(map_, terms[i][-1], n)
            step = last[i] = space.distance(terms[i][-1], nxt)
            terms[i].append(nxt)
            if step == 0:
                pending.discard(i)
            elif nxt in seen[i]:
                raise NotConvergedError(
                    i + 1, step, stoppers[i].gamma_hat,
                    f"the orbit of T^{n} enters a cycle of length {k - seen[i][nxt]}",
                )
            else:
                seen[i][nxt] = k
                if use_bound and stoppers[i].observe(step):
                    pending.discard(i)
        if not pending:
            break
    if pending:
        st_ = stoppers[min(pending)]
        reason = (
            f"the budget of {max_outer} terms ran out" if st_.gamma_hat is None
            else f"ratio estimate {st_.gamma_hat}"
        )
        raise NotConvergedError(min(pending) + 1, st_.last, st_.gamma_hat, reason)
    return [
        SubsequenceState(i + 1, len(t), last[i], stop.gamma_hat, t[-1])
        for i, (t, stop) in enumerate(zip(terms, stoppers))
    ]


def _outcome(advance, space, map_, n, start, max_outer):
    """The strands' states, or the error's ("raised", residue, gamma_hat, message)."""
    try:
        return advance(space, map_, n, start, max_outer=max_outer)
    except NotConvergedError as err:
        return ("raised", err.residue, err.gamma_hat, str(err))


def _limits_or_error(outcome):
    """What an orbit that cycles pins: each strand's limit and last step, or
    the error's residue and message. Its strands are read off the cycle, so
    they keep no terms and no ratio estimate."""
    if outcome[0] == "raised":
        return outcome[1], outcome[3]
    return [(st_.limit, st_.last_step) for st_ in outcome]


class TestOrbitWalkMatchesReference:
    def _check(self, space, map_, n, start, max_outer, kinds, in_full):
        got = _outcome(advance_subsequences, space, map_, n, start, max_outer)
        want = _outcome(reference_advance, space, map_, n, start, max_outer)
        if in_full:
            assert got == want, (n, start)
        else:
            assert _limits_or_error(got) == _limits_or_error(want), (n, start)
        if got[0] != "raised":
            kinds.add("converged")
        elif "cycle" in got[3]:
            kinds.add("cycle")
        else:
            kinds.add("budget")

    def test_random_finite_instances(self):
        kinds = set()
        for seed in range(60):
            space, map_ = random_instance(seed, 7)
            for n in range(1, 5):
                for start in space.points():
                    self._check(space, map_, n, start, DEFAULT_MAX_OUTER, kinds, False)
        assert kinds == {"converged", "cycle"}

    @pytest.mark.parametrize("family", ["two_phase", "four_phase"])
    def test_sequence_families(self, family, request):
        # the budget only bounds the non-contracting orders; every
        # contracting strand here converges well before it. The orbits of
        # the anchors cycle, those of x1...x10 never repeat.
        space, shift = request.getfixturevalue(family)
        anchors, members = set(), set()
        for n in range(1, 7):
            for start in [space.a_point, space.b_point]:
                self._check(space, shift, n, start, 300, anchors, False)
            for m in range(1, 11):
                self._check(space, shift, n, space.x(m), 300, members, True)
        assert anchors == {"converged", "cycle"}
        assert members == {"converged", "budget"}


class TestClassifyLimits:
    def test_two_distinct_limits(self, two_phase):
        space, _ = two_phase
        case, p = classify_limits(space, [space.a_point, space.b_point])
        assert (case, p) == (LimitCase.A_ALL_DISTINCT, 2)

    def test_constant_limits(self):
        space = unit_space(3)
        case, p = classify_limits(space, [2, 2, 2])
        assert (case, p) == (LimitCase.B_ALL_EQUAL, 1)

    def test_alternating_limits(self, four_phase):
        space, _ = four_phase
        limits = [space.a_point, space.b_point, space.a_point, space.b_point]
        case, p = classify_limits(space, limits)
        assert (case, p) == (LimitCase.D_PERIODIC_PATTERN, 2)

    def test_single_limit(self):
        space = unit_space(2)
        case, p = classify_limits(space, [1])
        assert (case, p) == (LimitCase.B_ALL_EQUAL, 1)

    def test_consecutive_repeat_is_ambiguous(self):
        # (p, p, q) would mean a fixed point whose image moves: the
        # impossible intermediate pattern, surfaced as a tolerance problem
        space = unit_space(3)
        with pytest.raises(ToleranceAmbiguityError):
            classify_limits(space, [0, 0, 1])

    def test_non_divisor_pattern_is_ambiguous(self):
        space = unit_space(4)
        with pytest.raises(ToleranceAmbiguityError):
            classify_limits(space, [0, 1, 2, 0])

    @pytest.mark.parametrize("limits", [["bogus", "bogus"], [1.0, 1.0], [True, True]])
    @pytest.mark.parametrize("cluster_tol", [0, 1e-7])  # without and with distances
    def test_equal_invalid_finite_limits_refused(self, limits, cluster_tol):
        # equal limits are compared without a distance, which would have
        # checked them; 1.0 and True even compare equal to the index 1
        with pytest.raises(InvalidPointError):
            classify_limits(unit_space(3), limits, cluster_tol)

    @pytest.mark.parametrize("cluster_tol", [0, 1e-7])
    def test_equal_invalid_sequence_limits_refused(self, cluster_tol):
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=30)
        with pytest.raises(InvalidPointError):
            classify_limits(space, [SeqPoint("x", 31)] * 2, cluster_tol)

    @pytest.mark.parametrize("space, points", [
        (unit_space(4), list(range(4))),
        (TWO_PHASE, [TWO_PHASE.a_point, TWO_PHASE.b_point, *map(TWO_PHASE.x, range(1, 7))]),
    ], ids=["unit_space(4)", "two_phase"])
    @settings(deadline=None)
    @given(data=st.data(), cluster_tol=st.sampled_from([0, CLUSTER_TOL, 0.5, 2]))
    def test_period_search_is_total(self, space, points, data, cluster_tol):
        # the shift by n always matches, so the only refusal left is a pair
        # of limits inside the chosen block that lie within cluster_tol
        limits = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=8))
        try:
            case, p = classify_limits(space, limits, cluster_tol)
        except ToleranceAmbiguityError as exc:
            assert str(exc).startswith("limits ")
            return
        n = len(limits)
        assert n % p == 0
        if p == 1:
            assert case is LimitCase.B_ALL_EQUAL
        else:
            assert case is (LimitCase.A_ALL_DISTINCT if p == n else LimitCase.D_PERIODIC_PATTERN)

    @pytest.mark.parametrize("space, points", [
        (builders.line_space([0, 1, 3, 7]), list(range(4))),
        (TWO_PHASE, [TWO_PHASE.a_point, TWO_PHASE.b_point, *map(TWO_PHASE.x, range(1, 7))]),
        (NARROW_TWO_PHASE, [NARROW_TWO_PHASE.a_point, NARROW_TWO_PHASE.b_point,
                            *map(NARROW_TWO_PHASE.x, range(1, 5))]),
    ], ids=["line_space", "two_phase", "narrow_two_phase"])
    @settings(deadline=None)
    @given(data=st.data(), cluster_tol=st.sampled_from([0, CLUSTER_TOL, 1e-9, 0.3, 1, 2, 5]))
    def test_equals_the_element_by_element_shift_test(self, space, points, data, cluster_tol):
        # a repeated block, sometimes with one limit replaced, so that every
        # case and the refusal all come up
        block = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=6))
        limits = block * data.draw(st.integers(min_value=1, max_value=4))
        if data.draw(st.booleans()):
            limits[data.draw(st.integers(0, len(limits) - 1))] = data.draw(st.sampled_from(points))
        assert outcome(classify_limits, space, limits, cluster_tol) == outcome(
            reference_classify, space, limits, cluster_tol
        )


def reference_classify(space, limits, cluster_tol):
    """classify_limits comparing every divisor shift limit by limit."""
    n = len(limits)

    def within(x, y):
        return x == y or cluster_tol > 0 and space.distance(x, y) <= cluster_tol

    period = next(
        q for q in range(1, n + 1)
        if n % q == 0 and all(within(limits[i], limits[(i + q) % n]) for i in range(n))
    )
    for i in range(period):
        for j in range(i + 1, period):
            if within(limits[i], limits[j]):
                raise ToleranceAmbiguityError(
                    f"limits {i} and {j} coincide within {cluster_tol} "
                    f"although the shift test chose period {period}"
                )
    if period == 1:
        return LimitCase.B_ALL_EQUAL, 1
    return (LimitCase.A_ALL_DISTINCT if period == n else LimitCase.D_PERIODIC_PATTERN), period


def outcome(classify, space, limits, cluster_tol):
    try:
        return classify(space, limits, cluster_tol)
    except ToleranceAmbiguityError as exc:
        return str(exc)


class TestSolve:
    def test_five_swap_from_three_cycle(self, five_swap):
        space, map_ = five_swap
        sol = solve(space, map_, 6, space.point_named("x3"))
        assert sol.period == 3
        assert set(sol.cycle) == {2, 3, 4}
        assert sol.case is LimitCase.D_PERIODIC_PATTERN
        assert sol.residual == 0.0

    def test_five_swap_from_swap_pair(self, five_swap):
        space, map_ = five_swap
        sol = solve(space, map_, 6, 0)
        assert sol.period == 2
        assert set(sol.cycle) == {0, 1}

    def test_two_phase_from_even_start(self, two_phase):
        space, map_ = two_phase
        sol = solve(space, map_, 2, space.x(2))
        assert sol.period == 2
        assert sol.case is LimitCase.A_ALL_DISTINCT
        cycle_coords = sorted(space.coord(p) for p in sol.cycle)
        assert abs(cycle_coords[0] - space.a) <= 1e-7
        assert abs(cycle_coords[1] - space.b) <= 1e-7

    def test_two_phase_from_anchor_is_exact(self, two_phase):
        space, map_ = two_phase
        sol = solve(space, map_, 2, space.a_point)
        assert sol.period == 2
        assert [p.name for p in sol.cycle] == ["a", "b"]
        assert sol.residual == 0.0

    def test_two_phase_from_far_start(self, two_phase):
        # every step from x5001 on lies below the smallest float
        space, map_ = two_phase
        sol = solve(space, map_, 2, space.x(5001))
        assert sol.period == 2
        assert sol.case is LimitCase.A_ALL_DISTINCT
        targets = (space.a_point, space.b_point)
        assert all(space.distance(lim, t) <= 1e-7 for lim, t in zip(sol.limits, targets))
        assert [space.coord(p) for p in sol.cycle] == [space.a, space.b]

    def test_non_contracting_order_refused(self, two_phase):
        # order 1 ratios approach 1, so the tail bound never clears
        space, map_ = two_phase
        with pytest.raises(NotConvergedError) as err:
            solve(space, map_, 1, space.x(1), max_outer=2000)
        assert err.value.gamma_hat > 0.99

    def test_orbit_leaving_the_space_is_not_converged(self):
        # the shift takes x30 past a space capped at index 30
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=30)
        with pytest.raises(NotConvergedError, match="leaves the space after 30 terms"):
            solve(space, ShiftMap(space), 1, space.x(1), max_outer=100)
        with pytest.raises(NotConvergedError, match="leaves the space after 30 terms"):
            solve(space, ShiftMap(space), 40, space.x(1))

    @pytest.mark.parametrize("n, index, held", [(2, 999_999, "2 terms"), (1, 10**6, "1 term")])
    def test_orbit_leaving_before_its_first_step(self, two_phase, n, index, held):
        # the last index of the space is 10^6, so no strand takes a step
        space, map_ = two_phase
        with pytest.raises(NotConvergedError) as err:
            solve(space, map_, n, space.x(index))
        assert str(err.value) == (
            "subsequence 1 did not converge "
            f"(no step taken, the orbit leaves the space after {held})"
        )
        assert err.value.last_step is None

    @pytest.mark.parametrize("family", list(SequenceFamily))
    @pytest.mark.parametrize("n", [*range(1, 9), 29, 30, 31, 40])
    def test_leave_space_count_and_residue(self, family, n):
        # from x_s the orbit holds the 31 - s terms x_s ... x30; the strand
        # of the term that would come next reports it
        space = SequenceSpace(family, 0.0, 1.0, max_index=30)
        for s, held in ((1, "30 terms"), (7, "24 terms"), (30, "1 term")):
            with pytest.raises(NotConvergedError) as err:
                solve(space, ShiftMap(space), n, space.x(s), max_outer=100)
            assert f"the orbit leaves the space after {held})" in str(err.value)
            assert err.value.residue == (31 - s) % n + 1

    def test_strands_settled_on_the_last_terms(self):
        # from x1 at order 2 the strands settle on x35 and x36; verifying
        # them needs T x36, so a cap of 36 stops there and 37 is enough
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=36)
        with pytest.raises(NotConvergedError, match="leaves the space after 36 terms"):
            solve(space, ShiftMap(space), 2, space.x(1))
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=37)
        assert solve(space, ShiftMap(space), 2, space.x(1)).iterations_used == 35

    def test_multiple_of_contraction_order(self, two_phase):
        # order 4 contracts too (two order-2 rounds), limits collapse to
        # the same period-2 cycle
        space, map_ = two_phase
        sol = solve(space, map_, 4, space.x(1))
        assert sol.period == 2
        assert sol.case is LimitCase.D_PERIODIC_PATTERN

    def test_constant_map_gives_fixed_point(self):
        space = unit_space(4)
        const = TableMap(space, (2, 2, 2, 2))
        sol = solve(space, const, 3, 0)
        assert sol.period == 1
        assert sol.case is LimitCase.B_ALL_EQUAL
        assert sol.cycle == (2,)

    def test_order1_contraction_gives_fixed_point(self, banach_chain):
        space, map_ = banach_chain
        assert alpha_exact(space, map_, 1).verdict is Verdict.CONTRACTION
        sol = solve(space, map_, 1, space.point_named("c16"))
        assert sol.period == 1
        assert sol.case is LimitCase.B_ALL_EQUAL
        assert sol.representative == space.point_named("c0")

    def test_divisor_law(self, five_swap):
        space, map_ = five_swap
        for start in space.points():
            sol = solve(space, map_, 6, start)
            assert 6 % sol.period == 0

    def test_period_divides_order_on_random_contractions(self):
        seen = 0
        for seed in range(80):
            space, map_ = random_instance(seed, 7)
            for n in range(1, 5):
                if alpha_exact(space, map_, n).verdict is Verdict.CONTRACTION:
                    sol = solve(space, map_, n, 0)
                    assert n % sol.period == 0
                    seen += 1
        assert seen > 10

    def test_start_invariance_of_cycle(self, five_swap):
        space, map_ = five_swap
        for start in space.points():
            a = solve(space, map_, 6, start)
            b = solve(space, map_, 6, map_.apply(start))
            assert set(a.cycle) == set(b.cycle)

    def test_finite_space_exactness(self):
        # every converged strand ends constant; residuals are exactly zero
        for seed in range(40):
            space, map_ = random_instance(seed, 7)
            for n in (1, 2, 3, 4):
                if alpha_exact(space, map_, n).verdict is not Verdict.CONTRACTION:
                    continue
                states = advance_subsequences(space, map_, n, 0)
                for st_ in states:
                    assert st_.last_step == 0
                sol = solve(space, map_, n, 0)
                assert sol.residual == 0.0
                for i in range(n):
                    assert (
                        space.distance(
                            map_.apply(sol.limits[i]), sol.limits[(i + 1) % n]
                        )
                        == 0
                    )

    def test_geometric_step_decay_on_contractions(self):
        # when order-n contracts with exact alpha, strand steps obey
        # d_{k+1} <= alpha * d_k term by term
        checked = 0
        for seed in range(60):
            space, map_ = random_instance(seed, 7)
            for n in (1, 2, 3):
                rep = alpha_exact(space, map_, n)
                if rep.verdict is not Verdict.CONTRACTION:
                    continue
                states = advance_subsequences(space, map_, n, 0)
                for st_ in states:
                    x, steps = iterate(map_, 0, st_.residue - 1), []
                    while not steps or steps[-1]:
                        nxt = iterate(map_, x, n)
                        steps.append(space.distance(x, nxt))
                        x = nxt
                    assert x == st_.limit
                    for k in range(len(steps) - 1):
                        assert steps[k + 1] <= rep.alpha_min * steps[k]
                        checked += 1
        assert checked > 20

    def test_iterations_accounting(self, request):
        # iterations_used counts the applications of T that advance the
        # strands: n - 1 seeds, then n per round, and none for an orbit read
        # off its cycle. Verification then adds n + period + the proper
        # divisors of n below the period, counted in steps of T: power(x, k)
        # counts as k steps.
        for case, n, start, used in [
            ("two_phase", 2, "x1", 35),
            ("two_phase", 2, "a", 0),
            ("four_phase", 4, "x1", 135),
            ("four_phase", 12, "x1", 143),
            ("five_swap", 6, "x3", 0),
        ]:
            space, map_ = request.getfixturevalue(case)
            start = space.point_named(start)
            applied = []

            def apply(x):
                applied.append(x)
                return map_.apply(x)

            def power(x, k):
                applied.extend([x] * k)
                return map_.power(x, k)

            counted = SimpleNamespace(space=space, apply=apply, power=power, rho=map_.rho)
            advance_subsequences(space, counted, n, start)
            sol = solve(space, map_, n, start)
            assert sol.iterations_used == len(applied) == used, case
            applied.clear()
            assert solve(space, counted, n, start) == sol
            proper = sum(q for q in divisors(n) if q < sol.period)
            assert len(applied) == sol.iterations_used + n + sol.period + proper, case

    def test_finite_cycle_mismatch_gives_up_early(self):
        # a 3-cycle at order 2: every strand of T^2 cycles with length 3
        space = unit_space(3)
        table = TableMap(space, (1, 2, 0))
        applied = []

        def apply(x):
            applied.append(x)
            return table.apply(x)

        counted = SimpleNamespace(space=space, apply=apply, rho=table.rho)
        with pytest.raises(NotConvergedError) as err:
            solve(space, counted, 2, 0)
        # the strands are read off the cycle: T is never applied
        assert applied == []
        assert "enters a cycle of length 3" in str(err.value)
        assert "ratio estimate" not in str(err.value)

    @pytest.mark.parametrize("family", ["two_phase", "four_phase"])
    def test_sequence_cycle_exits_at_once(self, family, request):
        # T^3 swaps the anchors, so each strand from b alternates b, a, b
        space, shift = request.getfixturevalue(family)
        applied = []

        def apply(p):
            applied.append(p)
            return shift.apply(p)

        counted = SimpleNamespace(space=space, apply=apply, rho=shift.rho)
        with pytest.raises(NotConvergedError) as err:
            solve(space, counted, 3, space.b_point)
        assert "enters a cycle of length 2" in str(err.value)
        assert "ratio estimate" not in str(err.value)
        # the strands are read off the anchors' 2-cycle: T is never applied
        assert applied == []

    def test_budget_out_before_any_ratio(self, two_phase):
        # a budget of 2 terms gives one step and so no ratio to report
        space, map_ = two_phase
        with pytest.raises(NotConvergedError) as err:
            solve(space, map_, 1, space.x(1), max_outer=2)
        assert err.value.gamma_hat is None
        assert "the budget of 2 terms ran out" in str(err.value)
        assert "ratio estimate" not in str(err.value)

    def test_close_pair_keeps_its_period(self):
        # p and q lie 1e-9 apart, inside the cluster tolerance; both strands
        # end constant, so their limits are compared exactly
        space = FiniteSpace.from_rows(
            ("p", "q", "r"), [[0, "1e-9", 1], ["1e-9", 0, 1], [1, 1, 0]]
        )
        map_ = TableMap(space, (1, 0, 2))
        sol = solve(space, map_, 2, 0)
        assert (sol.period, sol.case, sol.residual) == (2, LimitCase.A_ALL_DISTINCT, 0)
        assert crosscheck(space, map_, 2, sol).agree

    def test_not_converged_propagates(self, four_cycle):
        space, map_ = four_cycle
        with pytest.raises(NotConvergedError):
            solve(space, map_, 2, 0, max_outer=50)

    def test_cluster_tolerance_follows_tol(self):
        # the anchors lie 1e-8 apart: the default tol counts limits within
        # 2e-10 as one and keeps the 2-cycle apart; at tol 2e-8 the two
        # limits end about 2.1e-8 apart, within 2 * tol, and are one limit
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1e-8)
        shift = ShiftMap(space)
        sol = solve(space, shift, 2, space.x(1))
        assert (sol.period, sol.case) == (2, LimitCase.A_ALL_DISTINCT)
        sol = solve(space, shift, 2, space.x(1), tol=2e-8)
        assert (sol.period, sol.case) == (1, LimitCase.B_ALL_EQUAL)
        assert space.distance(*sol.limits) <= 4e-8

    @pytest.mark.parametrize("start", ["x1", "a"])  # walked strands, and strands off a cycle
    @pytest.mark.parametrize("tol", [1e308, sys.float_info.max])
    def test_float_tol_whose_double_overflows_refused(self, two_phase, tol, start):
        space, shift = two_phase
        with pytest.raises(BadParamsError) as err:
            solve(space, shift, 2, space.point_named(start), tol=tol)
        assert str(err.value) == f"tol must be at most half the largest float, got {tol!r}"

    def test_float_tol_of_half_the_largest_float_solves(self, two_phase):
        space, shift = two_phase
        sol = solve(space, shift, 2, space.x(1), tol=sys.float_info.max / 2)
        assert (sol.period, sol.case) == (1, LimitCase.B_ALL_EQUAL)

    @pytest.mark.parametrize("tol", [10**400, Fraction(10**400, 3)])
    def test_exact_tol_past_the_float_range(self, two_phase, tol):
        # 2 * tol stays exact, so it cannot overflow; any two limits lie
        # within it, so the solve merges them into one
        space, shift = two_phase
        sol = solve(space, shift, 2, space.x(1), tol=tol)
        assert (sol.period, sol.case) == (1, LimitCase.B_ALL_EQUAL)

    @pytest.mark.parametrize("start", [0, 1])
    @pytest.mark.parametrize("step", ["apply", "walk"])
    def test_image_that_is_no_point_refused(self, step, start):
        # point 1 comes back from `apply` as True, which equals 1 but is no
        # point index: from every call ("apply"), caught in the chain check,
        # or only after the chain check's two calls ("walk"), caught in the
        # representative's return walk (start 0) or after it (start 1)
        space = unit_space(3)
        swap = TableMap(space, (1, 0, 2))
        calls = []

        def odd(x):
            calls.append(x)
            image = swap.apply(x)
            late = step == "apply" or len(calls) > 2
            return True if image == 1 and late else image

        with pytest.raises(InvalidPointError, match="True is not a point index"):
            solve(space, SimpleNamespace(rho=swap.rho, apply=odd), 2, start)

    def test_verification_walks_with_apply_alone(self, two_phase):
        # the limits come from the walk and rho; the checks after it step T
        # with apply, never with power
        space, shift = two_phase
        for n, start in [(2, space.x(1)), (4, space.x(3)), (6, space.a_point)]:
            sol = solve(space, SimpleNamespace(apply=shift.apply, rho=shift.rho), n, start)
            assert sol == solve(space, shift, n, start)

    def test_order_above_the_cap_refused(self):
        space = unit_space(3)
        fixed = TableMap(space, (0, 1, 2))
        assert solve(space, fixed, MAX_ORDER, 2).period == 1
        for run in (advance_subsequences, solve):
            with pytest.raises(BadParamsError, match=f"between 1 and {MAX_ORDER}"):
                run(space, fixed, MAX_ORDER + 1, 2)

    def test_step_below_the_float_range_never_reads_zero(self):
        # four-phase at order 2 does not contract: its strand steps shrink
        # past the smallest float long before the budget runs out
        space = SequenceSpace(SequenceFamily.FOUR_PHASE, 0.0, 1.0)
        with pytest.raises(NotConvergedError) as err:
            solve(space, ShiftMap(space), 2, space.x(1), max_outer=2500)
        assert "last step 2^-1250.000," in str(err.value)
        assert err.value.last_step > 0 and float(err.value.last_step) == 0
        with pytest.raises(NotConvergedError, match=r"last step 1\.6885\d*e-226,"):
            solve(space, ShiftMap(space), 2, space.x(1), max_outer=1500)

    def test_step_above_the_float_range_is_no_overflow(self):
        # a 2-cycle at order 1 is given up at once; its step, 10^400, has no float
        space = FiniteSpace.from_rows("pq", [[0, "1e400"], ["1e400", 0]])
        with pytest.raises(NotConvergedError, match=r"last step 2\^1328\.771,") as err:
            solve(space, TableMap(space, (1, 0)), 1, 0)
        assert err.value.last_step == 10**400

    def test_wrap_around_gap_detected(self, two_phase):
        # T jumps away from the last term walked, a step the stopping rule
        # never sees; the wrap-around consistency check does
        space, shift = two_phase
        last = solve(space, shift, 2, space.x(1)).limits[-1]
        jumping = SimpleNamespace(
            apply=lambda p: space.b_point if p == last else shift.apply(p), rho=shift.rho
        )
        with pytest.raises(ConsistencyViolationError, match="misses limit 1"):
            solve(space, jumping, 2, space.x(1))


def reference_classify(space, limits, cluster_tol):
    """Limit classification with one distance per compared pair."""
    n = len(limits)
    period = None
    for q in divisors(n):
        if all(space.distance(limits[i], limits[(i + q) % n]) <= cluster_tol for i in range(n)):
            period = q
            break
    if period is None:
        raise ToleranceAmbiguityError(
            f"no divisor of {n} shifts the limits onto themselves within {cluster_tol}"
        )
    for i in range(period):
        for j in range(i + 1, period):
            if space.distance(limits[i], limits[j]) <= cluster_tol:
                raise ToleranceAmbiguityError(
                    f"limits {i} and {j} coincide within {cluster_tol} "
                    f"although the shift test chose period {period}"
                )
    if period == 1:
        return LimitCase.B_ALL_EQUAL, period
    return (LimitCase.A_ALL_DISTINCT if period == n else LimitCase.D_PERIODIC_PATTERN), period


def reference_solve(space, map_, n, start, tol=DEFAULT_TOL):
    """``solve`` with a distance for every comparison of classification and
    verification. An orbit that leaves the space is not handled: no case
    compared against it reaches the end of its space."""
    states = advance_subsequences(space, map_, n, start, tol=tol)
    limits = [st_.limit for st_ in states]
    cluster_tol = 0 if all(st_.last_step == 0 for st_ in states) else 2 * tol
    case, period = reference_classify(space, limits, cluster_tol)
    for i in range(n):
        gap = space.distance(map_.apply(limits[i]), limits[(i + 1) % n])
        if gap > cluster_tol:
            raise ConsistencyViolationError(
                f"T(limit {i + 1}) misses limit {(i + 1) % n + 1} by {float(gap)}; "
                "the map is not continuous at the limits or the strands have "
                "not settled within tol"
            )
    representative = limits[0]
    residual = space.distance(iterate(map_, representative, period), representative)
    if residual > cluster_tol:
        raise ConsistencyViolationError(
            f"representative fails to return after {period} steps "
            f"(residual {float(residual)})"
        )
    for q in divisors(n):
        if q >= period:
            break
        if space.distance(iterate(map_, representative, q), representative) <= cluster_tol:
            raise ToleranceAmbiguityError(
                f"representative already returns after {q} steps although "
                f"classification chose period {period}"
            )
    return PeriodicSolution(
        order=n,
        limits=tuple(limits),
        case=case,
        period=period,
        representative=representative,
        residual=float(residual),
        cycle=tuple(limits[:period]),
        iterations_used=max(sum(st_.terms for st_ in states) - 1, 0),
    )


def _solution_or_error(solver, *args):
    try:
        return solver(*args)
    except GraphconError as exc:
        return type(exc), str(exc)


class TestIdentityComparisonMatchesReference:
    def test_random_finite_instances(self):
        kinds = set()
        for seed in range(200):
            space, map_ = random_instance(seed, 7)
            for n in range(1, 7):
                for start in space.points():
                    got = _solution_or_error(solve, space, map_, n, start)
                    assert got == _solution_or_error(reference_solve, space, map_, n, start)
                    kinds.add(got[0].__name__ if isinstance(got, tuple) else "solved")
        assert kinds == {"solved", "NotConvergedError"}

    @pytest.mark.parametrize("family, orders", [
        (builders.two_phase, (2, 4, 6)), (builders.four_phase, (4, 8, 12)),
    ])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.5, 3.25)])
    def test_sequence_families(self, family, orders, a, b):
        space, shift = family(a, b)
        starts = ["a", "b"] + [f"x{k}" for k in range(1, 11)]
        for n in orders:
            for start in map(space.point_named, starts):
                got = _solution_or_error(solve, space, shift, n, start)
                assert got == _solution_or_error(reference_solve, space, shift, n, start)
                assert isinstance(got, PeriodicSolution), (n, start)

    @pytest.mark.parametrize("family, n, b", [
        (builders.two_phase, 2, 1e-8), (builders.four_phase, 4, 1e-9),
    ])
    def test_narrow_cycle_outside_the_cluster_tolerance_solved(self, family, n, b):
        # the anchors' 2-cycle is narrow but wider than 2 * tol: solved
        space, shift = family(0.0, b)
        got = solve(space, shift, n, space.x(1))
        assert got == reference_solve(space, shift, n, space.x(1))
        assert got.period == 2

    def test_wrap_around_gap_message(self, two_phase):
        space, shift = two_phase
        last = solve(space, shift, 2, space.x(1)).limits[-1]
        jumping = SimpleNamespace(
            apply=lambda p: space.b_point if p == last else shift.apply(p), rho=shift.rho
        )
        got = _solution_or_error(solve, space, jumping, 2, space.x(1))
        assert got == _solution_or_error(reference_solve, space, jumping, 2, space.x(1))
        assert got[0] is ConsistencyViolationError


def _check_return_within_cluster_tol(space, map_, sol, cluster_tol):
    """The period's return, by apply alone, lies within the cluster
    tolerance, and no proper divisor of the order below it returns."""
    rep, back = sol.representative, sol.representative
    for q in range(1, sol.period + 1):
        back = map_.apply(back)
        if q < sol.period and sol.order % q == 0:
            assert space.distance(back, rep) > cluster_tol, (sol, q)
    assert sol.residual == float(space.distance(back, rep)) <= cluster_tol


class TestReturnFollowsFromTheChain:
    # the limits are consecutive terms of one orbit, or of a cycle, and the
    # chain check has matched T(last limit) to the first: so the
    # representative returns within the cluster tolerance after its period,
    # and classification has refused every earlier return
    def test_random_finite_instances(self):
        solved = 0
        for seed in range(100):
            space, map_ = random_instance(seed, 7)
            for n in range(1, 7):
                for start in space.points():
                    try:
                        sol = solve(space, map_, n, start)
                    except NotConvergedError:  # no cycle length divides n
                        continue
                    _check_return_within_cluster_tol(space, map_, sol, 0)
                    assert sol.residual == 0
                    solved += 1
        assert solved > 1000

    @pytest.mark.parametrize("family, orders", [
        (builders.two_phase, (2, 4, 6)), (builders.four_phase, (4, 8)),
    ])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.5, 3.25)])
    def test_sequence_families(self, family, orders, a, b):
        space, shift = family(a, b)
        for n in orders:
            for start in map(space.point_named, ["a", "x1", "x2", "x3"]):
                sol = solve(space, shift, n, start)
                # an anchor's strands are read off the 2-cycle, exactly
                tol = 0 if shift.rho(start) else CLUSTER_TOL
                _check_return_within_cluster_tol(space, shift, sol, tol)


class TestLimitsWithinTwiceTolAreOneLimit:
    # every walked strand stops with a tail bound below tol, so it ends
    # within tol of its limit: a 2-cycle wider than 2 * tol is found as a
    # 2-cycle, with each limit within tol of its anchor
    @pytest.mark.parametrize("family, orders", [
        (builders.two_phase, (2, 4, 6)), (builders.four_phase, (4, 8, 12)),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("a", [0.0, -2.5])
    def test_narrow_two_cycles_solve(self, family, orders, tol, a):
        for gap in (1e4 * tol, 10 * tol, 2.01 * tol):
            space, shift = family(a, a + gap)
            anchors = (space.a_point, space.b_point)
            for n in orders:
                for start in map(space.point_named, ["a", "b", "x1", "x2", "x3", "x4"]):
                    sol = solve(space, shift, n, start, tol=tol)
                    assert sol.period == 2, (gap, n, start)
                    for lim in sol.limits:
                        assert min(space.distance(lim, p) for p in anchors) <= tol


class TestExactSolveTakesNoDistance:
    def test_limits_read_off_cycles(self, monkeypatch, four_phase):
        # every strand is read off a cycle, so classification and
        # verification run at tolerance 0 and compare by identity alone
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(args[1:])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(FiniteSpace, "distance", counted(FiniteSpace.distance))
        monkeypatch.setattr(SequenceSpace, "distance", counted(SequenceSpace.distance))
        space, map_ = random_instance(5, 8)
        for start in space.points():
            assert solve(space, map_, 12, start).residual == 0
        seq_space, shift = four_phase
        for start in (seq_space.a_point, seq_space.b_point):
            assert solve(seq_space, shift, 4, start).period == 2
        assert calls == []


class TestDivisors:
    def test_small_values(self):
        assert divisors(1) == [1]
        assert divisors(6) == [1, 2, 3, 6]
        assert divisors(7) == [1, 7]

    def test_equals_the_naive_list(self):
        # every q <= N appended to each of its multiples, in increasing q
        N = 5000
        naive = [[] for _ in range(N + 1)]
        for q in range(1, N + 1):
            for m in range(q, N + 1, q):
                naive[m].append(q)
        for n in range(1, N + 1):
            assert divisors(n) == naive[n]
