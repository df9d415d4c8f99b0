"""Exhaustive enumeration, random instances, solver crosschecks."""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcon import oracle
from graphcon import (
    BadParamsError,
    TableMap,
    Verdict,
    alpha_exact,
    crosscheck,
    enumerate_periodic,
    random_instance,
    solve,
    validate_finite,
)

from builders import unit_space

UNIT_SPACE = lru_cache(maxsize=None)(unit_space)  # validated once per size


def reference_enumerate(space, map_, n, full_scan=False):
    """The horizon walk: every point is walked up to the largest admissible
    period, its first return at an admissible period is its prime period,
    and the orbits are then walked from the periodic points in order."""
    candidates = {p for p in range(1, space.size + 1) if full_scan or n % p == 0}
    horizon = max(candidates)
    image = [space.check_point(map_.apply(x)) for x in space.points()]
    periodic = []
    for x in space.points():
        y = x
        for p in range(1, horizon + 1):
            y = image[y]
            if y == x and p in candidates:
                periodic.append((x, p))
                break
    seen = set()
    orbits = []
    for x, p in periodic:
        if x in seen:
            continue
        cyc = [x]
        for _ in range(p - 1):
            cyc.append(image[cyc[-1]])
        seen.update(cyc)
        orbits.append(tuple(cyc))
    all_divide = all(n % p == 0 for _, p in periodic)
    nonempty_when_needed = (
        bool(periodic) or alpha_exact(space, map_, n).verdict is not Verdict.CONTRACTION
    )
    return oracle.OracleResult(
        tuple(periodic), tuple(orbits), all_divide and nonempty_when_needed
    )


def assert_matches_reference(images, n, full_scan):
    space = UNIT_SPACE(len(images))
    map_ = TableMap(space, tuple(images))
    got = enumerate_periodic(space, map_, n, full_scan)
    want = reference_enumerate(space, map_, n, full_scan)
    assert got.periodic == want.periodic
    assert got.orbits == want.orbits
    assert got.divisor_ok == want.divisor_ok


EDGE_SIZES = [1, 2, 3, 4, 7, 8, 9, 15, 16, 17]  # |X| at and beside powers of two
ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 17, 60, 10**12]


@st.composite
def tables(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    return draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))


class TestEnumeratePeriodic:
    def test_five_swap_order6(self, five_swap):
        space, map_ = five_swap
        res = enumerate_periodic(space, map_, 6)
        assert dict(res.periodic) == {0: 2, 1: 2, 2: 3, 3: 3, 4: 3}
        assert len(res.orbits) == 2
        orbit_sets = [set(c) for c in res.orbits]
        assert orbit_sets[0] & orbit_sets[1] == set()
        assert res.divisor_ok

    def test_identity_map(self):
        space = unit_space(4)
        ident = TableMap(space, (0, 1, 2, 3))
        res = enumerate_periodic(space, ident, 1)
        assert dict(res.periodic) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert len(res.orbits) == 4

    def test_four_cycle_has_no_order2_points(self, four_cycle):
        space, map_ = four_cycle
        res = enumerate_periodic(space, map_, 2)
        assert res.periodic == ()
        # no contradiction: order 2 is not a contraction here
        assert alpha_exact(space, map_, 2).verdict is Verdict.NOT_CONTRACTION
        assert res.divisor_ok

    def test_verdict_computed_only_without_periodic_points(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return alpha_exact(*args, **kwargs)

        monkeypatch.setattr(oracle, "alpha_exact", counted)
        empty = found = 0
        for seed in range(30):
            space, map_ = random_instance(seed, 8)
            for n in (1, 2, 3):
                calls.clear()
                res = enumerate_periodic(space, map_, n)
                assert len(calls) == (res.periodic == ())
                empty += res.periodic == ()
                found += res.periodic != ()
        assert empty and found

    def test_full_scan_exhibits_non_divisor_periods(self, four_cycle):
        space, map_ = four_cycle
        res = enumerate_periodic(space, map_, 2, full_scan=True)
        assert dict(res.periodic) == {0: 4, 1: 4, 2: 4, 3: 4}
        assert not res.divisor_ok  # 4 does not divide 2

    def test_walk_stops_at_the_space_size(self):
        # an uncapped walk tries every divisor of n and walks up to n steps;
        # a prime period is at most |X|, so the oracle finds the same
        def uncapped(space, map_, n):
            found = []
            for x in space.points():
                y = x
                for p in range(1, n + 1):
                    y = map_.apply(y)
                    if y == x and n % p == 0:
                        found.append((x, p))
                        break
            return tuple(found)

        for seed in range(40):
            space, map_ = random_instance(seed, 12)
            for n in range(1, 31):
                assert enumerate_periodic(space, map_, n).periodic == uncapped(space, map_, n)
        # a 2-cycle with a tail point: orders 10^12 and 12 share the divisors 1 and 2
        space = unit_space(3)
        tail = TableMap(space, (1, 0, 0))
        assert enumerate_periodic(space, tail, 10**12) == enumerate_periodic(space, tail, 12)

    @settings(deadline=None)
    @given(
        images=tables(),
        n=st.one_of(st.integers(min_value=1, max_value=60), st.just(10**12)),
        full_scan=st.booleans(),
    )
    def test_equals_the_horizon_walk(self, images, n, full_scan):
        assert_matches_reference(images, n, full_scan)

    @pytest.mark.parametrize("full_scan", [False, True])
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_shapes_at_the_squaring_edge(self, size, full_scan):
        # the identity, one |X|-cycle, the longest tail into a fixed point
        # (|X| - 1 steps, the most that T^(2^k) has to pass) and the longest
        # tail into a 2-cycle
        shapes = [
            list(range(size)),
            [(x + 1) % size for x in range(size)],
            [max(x - 1, 0) for x in range(size)],
            [1 - x if x < 2 else x - 1 for x in range(size)] if size > 1 else [0],
        ]
        for images in shapes:
            for n in ORDERS:
                assert_matches_reference(images, n, full_scan)

    def test_orbits_partition_periodic_points(self):
        for seed in range(30):
            space, map_ = random_instance(seed, 8)
            for n in (1, 2, 4, 6):
                res = enumerate_periodic(space, map_, n)
                listed = {p for p, _ in res.periodic}
                in_orbits = [p for cyc in res.orbits for p in cyc]
                assert sorted(in_orbits) == sorted(listed)
                assert len(in_orbits) == len(set(in_orbits))


class TestRandomInstance:
    def test_construction_is_valid(self):
        space, map_ = random_instance(1, 5)
        validate_finite(space.dist)
        assert len(map_.images) == space.size

    def test_deterministic(self):
        a_space, a_map = random_instance(2, 8)
        b_space, b_map = random_instance(2, 8)
        assert a_space == b_space
        assert a_map.images == b_map.images

    def test_seeds_vary(self):
        instances = {random_instance(seed, 8)[0].dist for seed in range(20)}
        assert len(instances) > 10

    def test_respects_size_bounds(self):
        for seed in range(50):
            space, _ = random_instance(seed, 4)
            assert 2 <= space.size <= 4

    def test_max_points_range_enforced(self):
        with pytest.raises(BadParamsError):
            random_instance(0, 1)
        with pytest.raises(BadParamsError):
            random_instance(0, 13)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_any_seed_validates(self, seed):
        space, _ = random_instance(seed, 8)
        validate_finite(space.dist)


class TestCrosscheck:
    def test_five_swap_agrees(self, five_swap):
        space, map_ = five_swap
        sol = solve(space, map_, 6, 0)
        cc = crosscheck(space, map_, 6, sol)
        assert cc.agree
        assert cc.label == "Agree"

    def test_singleton_agrees(self):
        space = unit_space(1)
        map_ = TableMap(space, (0,))
        sol = solve(space, map_, 3, 0)
        cc = crosscheck(space, map_, 3, sol)
        assert cc.agree

    def test_wrong_period_disagrees(self, five_swap):
        space, map_ = five_swap
        sol = solve(space, map_, 6, 0)
        doctored = dataclasses.replace(sol, period=3)
        cc = crosscheck(space, map_, 6, doctored)
        assert not cc.agree
        assert "period" in cc.detail

    def test_wrong_cycle_disagrees(self, five_swap):
        space, map_ = five_swap
        sol = solve(space, map_, 6, 0)
        doctored = dataclasses.replace(sol, cycle=(0, 2))
        cc = crosscheck(space, map_, 6, doctored)
        assert not cc.agree
        assert "cycle" in cc.detail

    def test_non_periodic_representative_disagrees(self, five_swap):
        space, map_ = five_swap
        sol = solve(space, map_, 6, 0)
        doctored = dataclasses.replace(sol, representative=2, period=2)
        # x3 has period 3, not 2
        cc = crosscheck(space, map_, 6, doctored)
        assert not cc.agree

    def test_representative_off_every_cycle_disagrees(self):
        # 0 -> 1 -> 2 -> 2: the solve lands on the fixed point 2, and 0 is
        # on the tail, periodic for no order
        space = unit_space(3)
        map_ = TableMap(space, (1, 2, 2))
        sol = solve(space, map_, 1, 0)
        assert (sol.representative, sol.period) == (2, 1)
        cc = crosscheck(space, map_, 1, dataclasses.replace(sol, representative=0))
        assert cc.label == "Disagree"
        assert cc.detail == "representative 0 is not periodic for order 1"


class TestContractionImpliesPeriodic:
    def test_contraction_implies_periodic_points(self):
        # subset of the full acceptance sweep
        qualifying = 0
        for seed in range(60):
            space, map_ = random_instance(seed, 8)
            for n in range(1, 7):
                rep = alpha_exact(space, map_, n)
                if rep.verdict is not Verdict.CONTRACTION:
                    continue
                qualifying += 1
                res = enumerate_periodic(space, map_, n)
                assert res.periodic, f"seed {seed} order {n}: no periodic points"
                assert all(n % p == 0 for _, p in res.periodic)
                assert res.divisor_ok
                for start in space.points():
                    sol = solve(space, map_, n, start)
                    assert crosscheck(space, map_, n, sol).agree
        assert qualifying > 5
