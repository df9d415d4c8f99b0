"""Periodic-point solver by residue-subsequence iteration.

Given an order n, the forward orbit of a start point splits into n
subsequences by index residue: x_j = T^j x belongs to strand j mod n, so
each strand advances by T^n. When T contracts at order n the step
distances inside each subsequence decay geometrically, so each
subsequence is Cauchy and its limit can be bracketed by a geometric tail
bound. The n limits chain cyclically under T, and matching them against
cyclic shifts of divisor length recovers the period of the limit cycle,
which always divides n.

Stopping rule
-------------
An orbit that runs into a cycle (``map_.rho``) is not iterated: its
strands are read off the cycle, exactly, or given up on at once when the
cycle length does not divide n. Only an orbit that never repeats is
walked, one application of T per term. The solver does not know the true
contraction constant. Each subsequence tracks an empirical ratio estimate
(max of its last three step ratios, clamped below 1) and stops once the
geometric tail bound computed from it falls under the requested
tolerance. A ratio pattern at or above 1 keeps the bound large and
eventually surfaces as NotConvergedError. Limits are then compared by
identity first: equal points are 0 apart, distinct ones are not, so no
distance is taken for equal points or at cluster tolerance 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from .errors import (
    BadParamsError,
    ConsistencyViolationError,
    GammaOutOfRangeError,
    InvalidPointError,
    NotConvergedError,
    ToleranceAmbiguityError,
    require_int,
    require_tolerance,
)
from .maps import MapModel
from .spaces import PointRef, SpaceModel

__all__ = [
    "cauchy_tail_bound",
    "TailBoundStopper",
    "SubsequenceState",
    "advance_subsequences",
    "LimitCase",
    "classify_limits",
    "PeriodicSolution",
    "solve",
    "divisors",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_OUTER = 100_000
GAMMA_CAP = 1 - 1e-9
RATIO_WINDOW = 3
MAX_ORDER = 100_000  # n strands, n limits and divisors(n) are built per solve


def divisors(n: int) -> List[int]:
    """Positive divisors of n in increasing order, found in O(sqrt(n)) steps."""
    small = [q for q in range(1, math.isqrt(n) + 1) if n % q == 0]
    return small + [n // q for q in reversed(small) if q * q != n]


def cauchy_tail_bound(d1, gamma, k: int):
    """Upper bound on d(x_k, x_{k+m}) for every m >= 1.

    Valid for any sequence whose consecutive step distances satisfy
    d(x_{j+1}, x_j) <= gamma * d(x_j, x_{j-1}) with first step d1:
    the whole tail beyond term k is dominated by the geometric series
    gamma^(k-1) * d1 / (1 - gamma).
    """
    if not 0 <= gamma < 1:  # written so that NaN fails too
        raise GammaOutOfRangeError(f"gamma must lie in [0, 1), got {gamma}")
    if not d1 >= 0:
        raise BadParamsError(f"first step distance must be >= 0, got {d1}")
    require_int("term index k", k, 1)
    return gamma ** (k - 1) * d1 / (1 - gamma)


def _quotient(x, y) -> float:
    """x / y for steps x, y > 0, to within a few ulp, also where the steps
    lie below the smallest float: both are first scaled by the power of two
    that brings y near 1. Costs time linear in the steps' bit length."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    e = max(yd.bit_length() - yn.bit_length(), 0)
    return ((xn << e) / xd) / ((yn << e) / yd)


class TailBoundStopper:
    """Convergence detector for one iteratively advanced subsequence.

    Feed it consecutive positive step distances with :meth:`observe`; it
    reports convergence once the empirical geometric tail bound drops below
    ``tol``. Only the first and last steps, their count and the last
    ``RATIO_WINDOW`` step ratios are kept: an exact step far out on a
    sequence space has as many bits as its index. The first step is kept
    as ``float(step)``, converted once: the bound is a float anyway, and
    ``cauchy_tail_bound`` gives the same float from it as from the exact
    step. The last step stays exact, for the next ratio and the errors.
    """

    def __init__(self, tol: float):
        require_tolerance("tol", tol)
        self.tol = tol
        self.first = None
        self.last = None
        self.count = 0
        self.ratios = deque(maxlen=RATIO_WINDOW)
        self.gamma_hat = None
        self.bound = None
        self.converged = False

    def observe(self, step) -> bool:
        """Record d(t_k, t_{k+1}); True once convergence is established.

        Steps keep being counted after convergence (callers may advance
        further in lockstep with slower neighbours); detection only runs
        until the first True.
        """
        prev, self.last = self.last, step
        self.count += 1
        if prev is None:
            self.first = float(step)
        elif not self.converged:
            self.ratios.append(_quotient(step, prev))
            self.gamma_hat = min(max(self.ratios), GAMMA_CAP)
            self.bound = cauchy_tail_bound(self.first, self.gamma_hat, self.count + 1)
            self.converged = self.bound < self.tol
        return self.converged


@dataclass
class SubsequenceState:
    """Progress record of one residue subsequence (residue is 1-based)."""

    residue: int
    terms: int  # terms walked, the seed included; 0 for a strand read off a cycle
    last_step: object  # the exact distance between the last two terms
    gamma_hat: Optional[float]  # None for a strand read off a cycle
    limit: Optional[PointRef]


def advance_subsequences(
    space: SpaceModel,
    map_: MapModel,
    n: int,
    start: PointRef,
    max_outer: int = DEFAULT_MAX_OUTER,
    tol: float = DEFAULT_TOL,
) -> List[SubsequenceState]:
    """Advance all n residue subsequences of the orbit of ``start``.

    The strands interleave one orbit x_j = T^j start: strand i (0-based
    here) holds x_i, x_{n+i}, x_{2n+i}, ... If the orbit has tail t into a
    cycle C of length L entered at C[e] (``map_.rho``), strand i is
    eventually constant at C[(e + i - t) mod L] when L divides n, and
    otherwise cycles under T^n: NotConvergedError names the first strand
    that would revisit a term. An orbit that never repeats is walked one
    application of T at a time, and x_j extends strand j mod n, until every
    strand's stopping rule has fired, keeping only the last n terms and a
    count per strand: x_j's step is its distance to x_{j-n}. Sharing the
    horizon keeps all final terms on one orbit prefix, so applying T to the
    i-th final term lands exactly on the (i+1)-th (and the n-th wraps to one
    step past the first), which is what the solver's consistency checks
    rely on. Raises NotConvergedError if some strand has not converged after
    ``max_outer`` terms, or if the orbit leaves the space first (an
    InvalidPointError from the map or the space). An order above
    ``MAX_ORDER`` is refused before anything of size n is built.
    """
    require_int("order", n, 1, MAX_ORDER)
    require_int("max_outer", max_outer, 2)
    require_tolerance("tol", tol)  # here too: an orbit read off a cycle needs no stopper
    shape = map_.rho(start)
    if shape is not None:
        t, cycle, entry = shape
        length = len(cycle)
        if n % length:  # x_{t+Mn} is the first revisit, M = L / gcd(n, L)
            step = space.distance(cycle[(entry - n) % length], cycle[entry])
            raise NotConvergedError(
                t % n + 1, step, None,
                f"the orbit of T^{n} enters a cycle of length {length // math.gcd(n, length)}",
            )
        return [
            SubsequenceState(i + 1, 0, 0, None, cycle[(entry + i - t) % length])
            for i in range(n)
        ]
    window = deque([start], maxlen=n)  # the last n orbit terms; rho has checked start
    stoppers = [TailBoundStopper(tol) for _ in range(n)]
    pending = set(range(n))
    try:
        for _ in range(n - 1):
            window.append(map_.apply(window[-1]))
        for _ in range(max_outer - 1):
            for i in range(n):
                nxt = map_.apply(window[-1])
                if stoppers[i].observe(space.distance(window[0], nxt)):
                    pending.discard(i)
                window.append(nxt)
            if not pending:
                break
    except InvalidPointError:  # the orbit left the space
        terms = len(window) + sum(st.count for st in stoppers)  # a step per term past the seeds
        i = terms % n
        raise _left_space(i + 1, stoppers[i].last, stoppers[i].gamma_hat, terms) from None
    if pending:
        st = stoppers[min(pending)]
        reason = (
            f"the budget of {max_outer} terms ran out" if st.gamma_hat is None
            else f"ratio estimate {st.gamma_hat}"
        )
        raise NotConvergedError(min(pending) + 1, st.last, st.gamma_hat, reason)
    return [
        SubsequenceState(
            residue=i + 1,
            terms=st.count + 1,
            last_step=st.last,
            gamma_hat=st.gamma_hat,
            limit=window[i],
        )
        for i, st in enumerate(stoppers)
    ]


def _left_space(residue: int, last_step, gamma_hat, terms: int) -> NotConvergedError:
    reason = f"the orbit leaves the space after {terms} term{'' if terms == 1 else 's'}"
    return NotConvergedError(residue, last_step, gamma_hat, reason)


def _walk(map_: MapModel, x: PointRef, k: int) -> PointRef:
    """T^k x by k calls of ``map_.apply``."""
    for _ in range(k):
        x = map_.apply(x)
    return x


class LimitCase(str, Enum):
    """Shape of the n subsequence limits.

    A: all n limits pairwise distinct (period equals the order).
    B: all limits coincide (fixed point).
    D: the limits repeat with a proper divisor period.

    A proper repeat of two consecutive limits with a later distinct one
    cannot occur for a continuous map (it would make the repeated limit
    both fixed and not fixed); numerically it surfaces as
    ToleranceAmbiguityError.
    """

    A_ALL_DISTINCT = "A"
    B_ALL_EQUAL = "B"
    D_PERIODIC_PATTERN = "D"


def _within(space: SpaceModel, x, y, tol) -> bool:
    """d(x, y) <= tol for points of ``space``. Equal points are 0 apart and
    distinct ones more than 0 (the identity axiom), so a distance is taken
    only for distinct points at a tolerance above 0."""
    return x == y or tol > 0 and space.distance(x, y) <= tol


def classify_limits(space: SpaceModel, limits, cluster_tol: float = 2 * DEFAULT_TOL):
    """Match the limit list against cyclic shifts of divisor length.

    Returns ``(case, p)`` where p is the smallest divisor of n whose shift
    maps the limit list onto itself within ``cluster_tol``, and p = n
    always does. The first p limits must then be pairwise separated by
    more than ``cluster_tol``, or ToleranceAmbiguityError is raised. The
    default, ``2 * DEFAULT_TOL``, is the tolerance ``solve`` uses for
    limits walked at its default ``tol``. The limits are checked as points
    of ``space`` first. Each shift is tried as one list comparison, which
    matches equal points; only above ``cluster_tol`` 0 are the limits then
    compared one by one, by identity before any distance.
    """
    n = len(limits)
    require_int("number of limits", n, 1)
    require_tolerance("cluster_tol", cluster_tol, zero_ok=True)
    limits = [space.check_point(x) for x in limits]
    # q = n matches: the shift by n maps the list onto itself
    period = next(
        q for q in divisors(n) if limits[q:] + limits[:q] == limits or cluster_tol > 0
        and all(_within(space, x, limits[(i + q) % n], cluster_tol) for i, x in enumerate(limits))
    )
    for i in range(period):
        for j in range(i + 1, period):
            if _within(space, limits[i], limits[j], cluster_tol):
                raise ToleranceAmbiguityError(
                    f"limits {i} and {j} coincide within {cluster_tol} "
                    f"although the shift test chose period {period}"
                )
    if period == 1:
        case = LimitCase.B_ALL_EQUAL
    elif period == n:
        case = LimitCase.A_ALL_DISTINCT
    else:
        case = LimitCase.D_PERIODIC_PATTERN
    return case, period


@dataclass(frozen=True)
class PeriodicSolution:
    """Verified output of :func:`solve`. ``period`` always divides ``order``.

    ``iterations_used`` counts the applications of T made while advancing
    the strands, one per walked orbit point past the start, so it is 0 when
    the strands are read off a cycle; the applications that verify the
    limits are not included.
    """

    order: int
    limits: tuple
    case: LimitCase
    period: int
    representative: PointRef
    residual: float
    cycle: tuple
    iterations_used: int


def solve(
    space: SpaceModel,
    map_: MapModel,
    n: int,
    start: PointRef,
    tol: float = DEFAULT_TOL,
    max_outer: int = DEFAULT_MAX_OUTER,
) -> PeriodicSolution:
    """Find a periodic point by advancing and classifying the n subsequences.

    Every walked strand stops with a tail bound below ``tol``, so its last
    term lies within ``tol`` of its limit, and two strands with one limit
    end within ``2 * tol`` of each other. That is the one rule: limits
    within ``2 * tol`` are one limit. They are clustered at that tolerance,
    then verified: consecutive limits must chain under T, and no proper
    divisor below p may already bring the representative back. Its return
    after p steps follows: T^p of it is limit p + 1, which classification
    matched to it, or, for p = n, T of the last limit, which the chain
    check matched; ``residual`` reports it. The verification steps T with
    ``map_.apply`` alone, so it relies on neither ``power`` nor ``rho``,
    the fast paths that produced the limits. Every image under T is
    checked as a point of ``space`` before it is compared, so that
    ``True``, equal to 1, is not taken for a point. When every strand
    ended constant the limits are exact, and both steps use tolerance 0:
    they compare the limits by identity and evaluate no distance. A float
    ``tol`` whose double overflows is refused.
    """
    states = advance_subsequences(space, map_, n, start, max_outer=max_outer, tol=tol)
    if 2 * tol == math.inf:  # a float tol above half the largest float; the walk checked tol
        raise BadParamsError(f"tol must be at most half the largest float, got {tol!r}")
    limits = [st.limit for st in states]
    cluster_tol = 0 if all(st.last_step == 0 for st in states) else 2 * tol
    case, period = classify_limits(space, limits, cluster_tol=cluster_tol)

    for i, st in enumerate(states):
        try:
            image = map_.apply(limits[i])
        except InvalidPointError:  # the strands settled on the space's last terms
            terms = sum(s.terms for s in states)
            raise _left_space(i + 1, st.last_step, st.gamma_hat, terms) from None
        following = limits[(i + 1) % n]
        space.check_point(image)  # True == 1 but is no point
        if not _within(space, image, following, cluster_tol):
            gap = float(space.distance(image, following))
            raise ConsistencyViolationError(
                f"T(limit {i + 1}) misses limit {(i + 1) % n + 1} by {gap}; "
                "the map is not continuous at the limits or the strands have "
                "not settled within tol"
            )
    representative = limits[0]
    back = space.check_point(_walk(map_, representative, period))
    residual = 0 if back == representative else space.distance(back, representative)
    for q in divisors(n):
        if q >= period:
            break
        again = space.check_point(_walk(map_, representative, q))
        if _within(space, again, representative, cluster_tol):
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
        iterations_used=max(sum(st.terms for st in states) - 1, 0),
    )
