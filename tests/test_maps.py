"""Self-map application, iteration and prime periods."""

from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcon import (
    BadParamsError,
    InvalidPointError,
    SeqPoint,
    SequenceFamily,
    SequenceSpace,
    ShiftMap,
    TableMap,
    iterate,
    prime_period,
    random_instance,
)

from builders import four_phase, two_phase, unit_space


def literal_powers(map_, x, count):
    """x, T x, T^2 x, ... by literal application, ``count`` points."""
    out = [x]
    while len(out) < count:
        out.append(map_.apply(out[-1]))
    return out


def literal_prime_period(map_, x, horizon):
    """Least p <= horizon with T^p x = x, by literal application."""
    y = x
    for p in range(1, horizon + 1):
        y = map_.apply(y)
        if y == x:
            return p
    return None


class TestApply:
    def test_five_swap_table(self, five_swap):
        space, map_ = five_swap
        assert map_.apply(space.point_named("x5")) == space.point_named("x3")
        assert map_.apply(0) == 1

    def test_shift_anchors_swap(self, two_phase):
        space, map_ = two_phase
        assert map_.apply(space.a_point) == space.b_point
        assert map_.apply(space.b_point) == space.a_point

    def test_shift_advances_index(self, two_phase):
        space, map_ = two_phase
        assert map_.apply(space.x(7)) == space.x(8)

    def test_identity_table(self):
        space = unit_space(4)
        ident = TableMap(space, (0, 1, 2, 3))
        assert all(ident.apply(x) == x for x in space.points())

    def test_table_must_be_total(self):
        space = unit_space(3)
        with pytest.raises(BadParamsError):
            TableMap(space, (0, 1))
        with pytest.raises(BadParamsError):
            TableMap(space, (0, 1, 7))
        with pytest.raises(BadParamsError):  # a bool is not a point index
            TableMap(space, (True, 0, 1))
        with pytest.raises(BadParamsError):  # nor is any other int subclass
            TableMap(space, (IntEnum("Corner", ["FAR"]).FAR, 0, 1))

    def test_table_copied_from_the_callers_list(self):
        space = unit_space(3)
        images = [1, 0, 2]
        map_ = TableMap(space, images)
        images[:] = [2, 0, 7]  # a later edit of the list reaches no map
        assert map_.images == (1, 0, 2)
        assert map_.apply(0) == map_.power(0, 1) == 1 and map_.apply(2) == 2
        assert hash(map_) == hash(TableMap(space, (1, 0, 2)))

    def test_invalid_point(self, five_swap):
        _, map_ = five_swap
        with pytest.raises(InvalidPointError):
            map_.apply(9)

    def test_shift_past_the_index_cap(self):
        # the last family point has no successor in its space
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=10)
        with pytest.raises(InvalidPointError, match="index 11 outside 1..10"):
            ShiftMap(space).apply(space.x(10))


class TestIterate:
    def test_three_cycle_returns(self, five_swap):
        space, map_ = five_swap
        x3 = space.point_named("x3")
        assert iterate(map_, x3, 3) == x3

    def test_zero_iterations(self, five_swap):
        space, map_ = five_swap
        assert iterate(map_, 4, 0) == 4

    def test_shift_anchor_cycle(self, four_phase):
        space, map_ = four_phase
        assert iterate(map_, space.a_point, 3) == space.b_point

    def test_negative_count_rejected(self, five_swap):
        _, map_ = five_swap
        with pytest.raises(BadParamsError):
            iterate(map_, 0, -1)


class TestPower:
    def test_matches_literal_apply_on_random_instances(self):
        for seed in range(200):
            space, map_ = random_instance(seed, 12)
            for x in space.points():
                expected = literal_powers(map_, x, 2 * space.size + 2)
                got = [map_.power(x, k) for k in range(len(expected))]
                assert got == expected, (seed, x)

    def test_fixed_point(self):
        space = unit_space(1)
        map_ = TableMap(space, (0,))
        assert all(map_.power(0, k) == 0 for k in (0, 1, 2, 10**18))

    def test_pure_cycle(self, four_cycle):
        _, map_ = four_cycle
        for x in range(4):
            for k in list(range(13)) + [10**18 + 3]:
                assert map_.power(x, k) == (x + k) % 4

    def test_tail_longer_than_cycle(self):
        # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 4: a tail of four steps into a 2-cycle
        space = unit_space(6)
        map_ = TableMap(space, (1, 2, 3, 4, 5, 4))
        for k in list(range(20)) + [10**12 + 1]:
            assert map_.power(0, k) == (k if k < 4 else 4 + (k - 4) % 2)
        assert map_.power(2, 1) == 3
        assert map_.power(2, 3) == 5

    def test_negative_count_rejected(self, five_swap, two_phase):
        with pytest.raises(BadParamsError):
            five_swap[1].power(0, -1)
        space, shift = two_phase
        with pytest.raises(BadParamsError):
            shift.power(space.x(1), -1)

    def test_invalid_point(self, five_swap):
        _, map_ = five_swap
        for k in (0, 1, 7):
            with pytest.raises(InvalidPointError):
                map_.power(9, k)

    @pytest.mark.parametrize("build", [two_phase, four_phase])
    def test_shift_matches_literal_apply(self, build):
        space, map_ = build()
        starts = [space.a_point, space.b_point] + [space.x(m) for m in range(1, 11)]
        for x in starts:
            expected = literal_powers(map_, x, 13)
            assert [map_.power(x, k) for k in range(13)] == expected

    @pytest.mark.parametrize("build", [two_phase, four_phase])
    def test_shift_power_never_applies(self, build, monkeypatch):
        space, map_ = build()
        starts = [space.a_point, space.b_point] + [space.x(m) for m in range(1, 6)]
        expected = {x: literal_powers(map_, x, 13) for x in starts}

        def refuse(self, p):
            raise AssertionError("power applied the shift")

        monkeypatch.setattr(ShiftMap, "apply", refuse)
        for x in starts:
            assert [map_.power(x, k) for k in range(13)] == expected[x], x
        assert map_.power(space.a_point, 10**18 + 1) == space.b_point

    def test_shift_power_past_the_index_cap(self):
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=10)
        shift = ShiftMap(space)
        assert shift.power(space.x(4), 6) == space.x(10)
        with pytest.raises(InvalidPointError, match="index 11 outside 1..10"):
            shift.power(space.x(4), 7)
        with pytest.raises(InvalidPointError, match="index 1000000000000000003 outside"):
            shift.power(space.x(3), 10**18)

    def test_equality_and_repr_see_only_space_and_images(self):
        space = unit_space(5)
        first, second = TableMap(space, (1, 0, 3, 4, 2)), TableMap(space, (1, 0, 3, 4, 2))
        assert first == second and hash(first) == hash(second)
        assert first != TableMap(space, (1, 0, 2, 3, 4))
        assert repr(first) == f"TableMap(space={space!r}, images=(1, 0, 3, 4, 2))"


class TestRho:
    def test_matches_literal_apply_on_random_instances(self):
        for seed in range(200):
            space, map_ = random_instance(seed, 12)
            for x in space.points():
                t, cycle, entry = map_.rho(x)
                size = len(cycle)
                orbit = literal_powers(map_, x, t + size + 1)
                assert orbit[t] == cycle[entry], (seed, x)
                # t + L distinct points: no earlier entry and no shorter cycle
                assert len(set(orbit[: t + size])) == t + size, (seed, x)
                assert orbit[t + size] == orbit[t], (seed, x)
                closes = [map_.apply(y) for y in cycle]
                assert closes == list(cycle[1:] + cycle[:1]), (seed, x)

    @pytest.mark.parametrize("build", [two_phase, four_phase])
    def test_shift_cycles_only_at_the_anchors(self, build):
        space, map_ = build()
        pair = (space.a_point, space.b_point)
        assert map_.rho(space.a_point) == (0, pair, 0)
        assert map_.rho(space.b_point) == (0, pair, 1)
        assert all(map_.rho(space.x(m)) is None for m in range(1, 11))

    def test_invalid_point(self, five_swap, two_phase):
        with pytest.raises(InvalidPointError):
            five_swap[1].rho(9)
        with pytest.raises(InvalidPointError):
            five_swap[1].rho("x1")
        space, shift = two_phase
        with pytest.raises(InvalidPointError):
            shift.rho(SeqPoint("x", 0))
        with pytest.raises(InvalidPointError):
            shift.rho(0)


class TestPrimePeriod:
    def test_swap_pair(self, five_swap):
        space, map_ = five_swap
        assert prime_period(map_, space.point_named("x1")) == 2

    def test_three_cycle(self, five_swap):
        space, map_ = five_swap
        assert prime_period(map_, space.point_named("x4")) == 3

    def test_fixed_point(self):
        space = unit_space(2)
        map_ = TableMap(space, (0, 0))
        assert prime_period(map_, 0) == 1

    def test_not_periodic_within_horizon(self, four_cycle):
        # no horizon hides a cycle: the 4-cycle is read off the map's rho
        _, map_ = four_cycle
        assert prime_period(map_, 0) == 4

    def test_anchors_have_period_two(self, two_phase):
        space, map_ = two_phase
        assert prime_period(map_, space.a_point) == 2
        assert prime_period(map_, space.b_point) == 2

    def test_family_points_not_periodic(self, two_phase):
        space, map_ = two_phase
        assert prime_period(map_, space.x(1)) is None

    def test_matches_literal_apply_on_random_instances(self):
        # no cycle of a finite map is longer than |X|
        for seed in range(200):
            space, map_ = random_instance(seed, 12)
            for x in space.points():
                expected = literal_prime_period(map_, x, space.size)
                assert prime_period(map_, x) == expected, (seed, x)

    @pytest.mark.parametrize("family", [two_phase, four_phase])
    def test_matches_literal_apply_on_shift(self, family):
        space, map_ = family()
        # the shift's one cycle is the anchors' 2-cycle, so a horizon of 11
        # finds every period
        starts = [space.a_point, space.b_point] + [space.x(m) for m in range(1, 11)]
        for x in starts:
            assert prime_period(map_, x) == literal_prime_period(map_, x, 11)


class TestSemigroupLaw:
    def test_exhaustive_on_five_swap(self, five_swap):
        space, map_ = five_swap
        for x in space.points():
            for j in range(9):
                for k in range(9):
                    assert iterate(map_, x, j + k) == iterate(
                        map_, iterate(map_, x, j), k
                    )

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_random_instances(self, seed, j, k):
        space, map_ = random_instance(seed, 8)
        for x in space.points():
            assert iterate(map_, x, j + k) == iterate(map_, iterate(map_, x, j), k)


class TestPeriodInvariants:
    def test_multiples_return_and_smaller_do_not(self):
        for seed in range(40):
            space, map_ = random_instance(seed, 8)
            for x in space.points():
                p = prime_period(map_, x)
                if p is None:
                    continue
                for m in (1, 2, 3):
                    assert iterate(map_, x, m * p) == x
                for q in range(1, p):
                    assert iterate(map_, x, q) != x

    def test_cycle_member_always_found(self):
        # on a finite space, any point reached after |X| steps lies on a cycle
        for seed in range(40):
            space, map_ = random_instance(seed, 8)
            for x in space.points():
                on_cycle = iterate(map_, x, space.size)
                assert prime_period(map_, on_cycle) is not None
