"""Engines leave every model they are given exactly as they found it."""

import copy
from itertools import product

import pytest

from graphcon import (
    ContractionClass,
    alpha_exact,
    alpha_sampled,
    check_iterated_class,
    enumerate_periodic,
    solve,
)

from builders import banach_chain, five_swap, four_phase, two_phase


def snapshot(*models):
    # a deep copy, so that a container a model holds cannot grow unseen
    return [(copy.deepcopy(vars(m)), hash(m)) for m in models]


@pytest.mark.parametrize("build, order, start", [(five_swap, 6, 0), (banach_chain, 2, 3)])
def test_finite_engines_leave_space_and_map_unchanged(build, order, start):
    space, map_ = build()
    before = snapshot(space, map_)
    alpha_exact(space, map_, order)
    solve(space, map_, order, start)
    enumerate_periodic(space, map_, order)
    for cls in ContractionClass:
        check_iterated_class(space, map_, order, cls, "1/3")
    for x, y in product(space.points(), repeat=2):
        space.distance(x, y)
    assert snapshot(space, map_) == before


@pytest.mark.parametrize("build, order", [(two_phase, 2), (four_phase, 4)])
def test_sequence_engines_leave_space_and_map_unchanged(build, order):
    space, map_ = build()
    before = snapshot(space, map_)
    alpha_sampled(space, map_, order, 50)
    solve(space, map_, order, space.x(1))
    points = list(space.sample_points(20))
    for x, y in product(points, repeat=2):
        space.distance(x, y)
    assert snapshot(space, map_) == before
