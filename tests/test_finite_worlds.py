"""Every small finite world, and the finite converse: a self-map of a finite
set contracts at order n under some metric iff every cycle length divides n."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcon import (
    FiniteSpace,
    NotConvergedError,
    TableMap,
    Verdict,
    alpha_exact,
    crosscheck,
    enumerate_periodic,
    oracle,
    solve,
)

from builders import unit_space


def cycle_length(images, x):
    """Length of the cycle that the orbit of x runs into, by walking the table."""
    for _ in images:  # |X| steps reach the cycle
        x = images[x]
    y, length = images[x], 1
    while y != x:
        y, length = images[y], length + 1
    return length


def small_metrics(size, top):
    """Every metric on ``size`` points with integer entries 1..top, as rows."""
    pairs = list(combinations(range(size), 2))
    for entries in product(range(1, top + 1), repeat=len(pairs)):
        d = [[0] * size for _ in range(size)]
        for (i, j), e in zip(pairs, entries):
            d[i][j] = d[j][i] = e
        if all(d[i][j] <= d[i][k] + d[k][j] for i, j, k in product(range(size), repeat=3)):
            yield d


def assert_solves_exactly_where_the_cycle_divides(space, map_, n):
    """``solve`` from every start: a start whose cycle length divides n
    returns that cycle, cross-checked; any other is refused."""
    for x in space.points():
        length = cycle_length(map_.images, x)
        if n % length:
            with pytest.raises(NotConvergedError):
                solve(space, map_, n, x)
            continue
        sol = solve(space, map_, n, x)
        assert sol.period == length
        assert crosscheck(space, map_, n, sol).agree


def test_every_world_up_to_three_points():
    # every integer metric with entries 1..3 on |X| <= 3, every self-map, orders 1-6
    instances = {}
    verdicts = set()
    for size in (1, 2, 3):
        labels = tuple(f"x{i + 1}" for i in range(size))
        for rows in small_metrics(size, 3):
            space = FiniteSpace.from_rows(labels, rows)
            for images in product(range(size), repeat=size):
                map_ = TableMap(space, images)
                instances[size] = instances.get(size, 0) + 1
                for n in range(1, 7):
                    assert enumerate_periodic(space, map_, n).divisor_ok
                    contracts = alpha_exact(space, map_, n).verdict is Verdict.CONTRACTION
                    assert contracts == oracle._contracts(space.scaled, list(images), n)
                    verdicts.add(contracts)
                    assert_solves_exactly_where_the_cycle_divides(space, map_, n)
    assert instances == {1: 1, 2: 12, 3: 648}  # 24 metrics x 27 maps at 3 points
    assert verdicts == {True, False}


@st.composite
def tables(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    return tuple(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))


def depth_ultrametric(images):
    """d(x, y) = max(2^t(x), 2^t(y)) for x != y, with t the tail length."""
    tails = [TableMap(unit_space(len(images)), images).rho(x)[0] for x in range(len(images))]
    rows = [[0 if x == y else 2 ** max(tx, ty) for y, ty in enumerate(tails)]
            for x, tx in enumerate(tails)]
    labels = tuple(f"x{i + 1}" for i in range(len(images)))
    return FiniteSpace.from_rows(labels, rows), max(tails)


class TestFiniteConverse:
    @settings(deadline=None, max_examples=150)
    @given(tables(), st.integers(min_value=1, max_value=7))
    @example((1, 0, 0, 2, 3), 2)  # a 2-cycle under a tail of depth 3: alpha_min 1/4
    @example((1, 2, 0, 0), 2)  # a 3-cycle at order 2: ratio 1 on the cycle
    def test_depth_ultrametric_contracts_iff_every_cycle_divides(self, images, n):
        # "if": a point deeper than n has ratio exactly 2^-n, every other one
        # is trivial or has numerator 0. "Only if": a cycle whose length does
        # not divide n has ratio 1 at each of its points.
        space, depth = depth_ultrametric(images)
        map_ = TableMap(space, images)
        rho = [map_.rho(x) for x in space.points()]
        cycles = {x: len(cycle) for x, (t, cycle, _) in enumerate(rho) if t == 0}
        divides = all(n % length == 0 for length in cycles.values())

        report = alpha_exact(space, map_, n)
        assert (report.verdict is Verdict.CONTRACTION) == divides
        if divides:
            assert report.alpha_min == (Fraction(1, 2**n) if depth > n else 0)
        else:
            assert report.alpha_min == 1

        full = enumerate_periodic(space, map_, n, full_scan=True)
        assert full.periodic == tuple(sorted(cycles.items()))
        admissible = enumerate_periodic(space, map_, n)
        assert (admissible.periodic == full.periodic) == divides
        assert admissible.divisor_ok
        assert_solves_exactly_where_the_cycle_divides(space, map_, n)
