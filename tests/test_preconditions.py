"""Every engine refuses a bad parameter with BadParamsError where it is used."""

import math

import pytest

from graphcon import (
    BadParamsError,
    ContractionClass,
    InvalidPointError,
    SequenceFamily,
    SequenceSpace,
    advance_subsequences,
    alpha_exact,
    alpha_sampled,
    cauchy_tail_bound,
    build_case,
    check_iterated_class,
    classify_limits,
    crosscheck,
    enumerate_periodic,
    iterate,
    random_instance,
    ratio,
    solve,
)
from graphcon.solver import TailBoundStopper

from builders import banach_chain, five_swap, two_phase, unit_space


def _crosscheck_on_sequence():
    space, shift = two_phase()
    solution = solve(space, shift, 2, space.a_point)
    crosscheck(space, shift, 2, solution)


CALLS = {
    "enumerate_periodic-sequence": lambda: enumerate_periodic(*two_phase(), 2),
    "enumerate_periodic-order-0": lambda: enumerate_periodic(*five_swap(), 0),
    "crosscheck-sequence": _crosscheck_on_sequence,
    "check_iterated_class-order-0": lambda: check_iterated_class(
        *banach_chain(), 0, ContractionClass.BANACH, 0.5
    ),
    "check_iterated_class-alpha-1": lambda: check_iterated_class(
        *banach_chain(), 1, ContractionClass.BANACH, 1
    ),
    "check_iterated_class-sequence": lambda: check_iterated_class(
        *two_phase(), 1, ContractionClass.BANACH, 0.5
    ),
    "check_iterated_class-alpha-nan": lambda: check_iterated_class(
        *banach_chain(), 1, ContractionClass.BANACH, math.nan
    ),
    "check_iterated_class-alpha-text": lambda: check_iterated_class(
        *banach_chain(), 1, ContractionClass.BANACH, "half"
    ),
    "check_iterated_class-unknown-class": lambda: check_iterated_class(
        *banach_chain(), 1, "bogus", 0.5
    ),
    "solve-finite-tol-0": lambda: solve(*five_swap(), 6, 0, tol=0),
    "solve-finite-tol-nan": lambda: solve(*five_swap(), 6, 0, tol=math.nan),
    "solve-finite-tol-inf": lambda: solve(*five_swap(), 6, 0, tol=math.inf),
    "solve-sequence-tol-double-overflows": lambda: solve(
        *two_phase(), 2, two_phase()[0].x(1), tol=1e308
    ),
    "solve-order-0": lambda: solve(*five_swap(), 0, 0),
    "solve-order-float": lambda: solve(*five_swap(), 2.0, 0),
    "advance_subsequences-max-outer-1": lambda: advance_subsequences(
        *two_phase(), 2, two_phase()[0].x(1), max_outer=1
    ),
    "ratio-order-0": lambda: ratio(*five_swap(), 0, 0),
    "ratio-order-float": lambda: ratio(*five_swap(), 1.5, 0),
    "ratio-order-bool": lambda: ratio(*five_swap(), True, 0),
    "alpha_exact-sequence": lambda: alpha_exact(*two_phase(), 1),
    "alpha_exact-order-0": lambda: alpha_exact(*five_swap(), 0),
    "alpha_sampled-finite": lambda: alpha_sampled(*five_swap(), 1),
    "alpha_sampled-index-cap-0": lambda: alpha_sampled(*two_phase(), 1, index_cap=0),
    "iterate-negative": lambda: iterate(five_swap()[1], 0, -1),
    "iterate-float": lambda: iterate(five_swap()[1], 0, 1.5),
    "table-power-negative": lambda: five_swap()[1].power(0, -1),
    "shift-power-negative": lambda: two_phase()[1].power(two_phase()[0].x(1), -1),
    "random_instance-max-points-1": lambda: random_instance(0, 1),
    "random_instance-max-points-13": lambda: random_instance(0, 13),
    "random_instance-max-points-float": lambda: random_instance(0, 2.5),
    "cauchy_tail_bound-gamma-1": lambda: cauchy_tail_bound(1.0, 1.0, 2),
    "build_case-unknown-id": lambda: build_case("example_9_9"),
    "cauchy_tail_bound-negative-step": lambda: cauchy_tail_bound(-1.0, 0.5, 2),
    "cauchy_tail_bound-k-0": lambda: cauchy_tail_bound(1.0, 0.5, 0),
    "cauchy_tail_bound-gamma-nan": lambda: cauchy_tail_bound(1.0, math.nan, 2),
    "cauchy_tail_bound-step-nan": lambda: cauchy_tail_bound(math.nan, 0.5, 2),
    "stopper-tol-nan": lambda: TailBoundStopper(math.nan),
    "stopper-tol-inf": lambda: TailBoundStopper(math.inf),
    "classify_limits-empty": lambda: classify_limits(five_swap()[0], []),
    "classify_limits-cluster-tol-negative": lambda: classify_limits(
        five_swap()[0], [0, 1], cluster_tol=-1
    ),
    "classify_limits-cluster-tol-nan": lambda: classify_limits(
        five_swap()[0], [0, 1], cluster_tol=math.nan
    ),
    "classify_limits-cluster-tol-inf": lambda: classify_limits(
        five_swap()[0], [0, 1], cluster_tol=math.inf
    ),
    "sequence-space-unknown-family": lambda: SequenceSpace("nope", 0.0, 1.0),
    "sequence-space-anchor-text": lambda: SequenceSpace(SequenceFamily.TWO_PHASE, "0", 1.0),
    "sequence-space-anchor-none": lambda: SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, None),
    "sequence-space-anchor-false": lambda: SequenceSpace("example_2_3", False, 1.0),
    "sequence-space-anchor-true": lambda: SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, True),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_parameter_raises_bad_params(call):
    with pytest.raises(BadParamsError):
        call()


# five_swap's map sends point 2 to 3, outside a space of three points
FOREIGN_MAP_CALLS = {
    "alpha_exact": lambda space, map_: alpha_exact(space, map_, 1),
    "check_iterated_class": lambda space, map_: check_iterated_class(
        space, map_, 1, ContractionClass.BANACH, 0.5
    ),
    "enumerate_periodic": lambda space, map_: enumerate_periodic(space, map_, 6),
}


@pytest.mark.parametrize("call", FOREIGN_MAP_CALLS.values(), ids=FOREIGN_MAP_CALLS.keys())
def test_map_over_a_larger_space_raises_invalid_point(call):
    with pytest.raises(InvalidPointError):
        call(unit_space(3), five_swap()[1])
