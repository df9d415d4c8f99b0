"""Self-map application, iteration and prime periods."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcon import (
    BadParamsError,
    InvalidPointError,
    TableMap,
    iterate,
    prime_period,
    random_instance,
)

from builders import unit_space


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

    def test_invalid_point(self, five_swap):
        _, map_ = five_swap
        with pytest.raises(InvalidPointError):
            map_.apply(9)


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
        with pytest.raises(ValueError):
            iterate(map_, 0, -1)


class TestPrimePeriod:
    def test_swap_pair(self, five_swap):
        space, map_ = five_swap
        assert prime_period(map_, space.point_named("x1"), 6) == 2

    def test_three_cycle(self, five_swap):
        space, map_ = five_swap
        assert prime_period(map_, space.point_named("x4"), 6) == 3

    def test_fixed_point(self):
        space = unit_space(2)
        map_ = TableMap(space, (0, 0))
        assert prime_period(map_, 0, 5) == 1

    def test_not_periodic_within_horizon(self, four_cycle):
        _, map_ = four_cycle
        assert prime_period(map_, 0, 3) is None
        assert prime_period(map_, 0, 4) == 4

    def test_anchors_have_period_two(self, two_phase):
        space, map_ = two_phase
        assert prime_period(map_, space.a_point, 4) == 2
        assert prime_period(map_, space.b_point, 4) == 2

    def test_family_points_not_periodic(self, two_phase):
        space, map_ = two_phase
        assert prime_period(map_, space.x(1), 8) is None


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
                p = prime_period(map_, x, space.size)
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
                assert prime_period(map_, on_cycle, space.size) is not None
