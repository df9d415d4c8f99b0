"""Pointwise contraction ratios and minimal-alpha estimation.

The central quantity is the order-n step ratio at a point x,

    d(T^n x, T^2n x) / d(x, T^n x),

whose supremum over the space is the least admissible contraction
constant. On finite spaces the supremum is an exact rational maximum over
every point; on sequence spaces it is sampled over the anchors and a
prefix of the family, and the verdict is labelled accordingly. Every
ratio is an exact rational on both kinds of space. Sampling can refute
(a sampled ratio above 1) but never certify an infinite space, so near-1
sampled suprema are reported as inconclusive rather than as contractions.
Both reports compute each orbit step d(q, T^n q) once, since the
numerator at x is the step at T^n x; sampling with cap c reaches
x_{c+2n}, which the space must hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import add, ge, getitem, gt, mul
from typing import Callable, Optional

from .errors import BadParamsError, ConsistencyViolationError, require_int, require_kind
from .maps import MapModel, iterate
from .spaces import FiniteSpace, PointRef, SequenceSpace, SpaceModel, as_fraction

__all__ = [
    "RatioSample",
    "Verdict",
    "ContractionReport",
    "ratio",
    "alpha_exact",
    "alpha_sampled",
    "ratio_limit_probe",
    "ContractionClass",
    "ClassCheck",
    "check_iterated_class",
]

# sampled sup within this margin of 1 is never certified as a contraction
INCONCLUSIVE_MARGIN = 1e-3
# the largest index_cap alpha_sampled accepts: sample k keeps a denominator
# of about k bits, so memory grows with the square of the cap
MAX_INDEX_CAP = 10_000


@dataclass(frozen=True, slots=True)
class RatioSample:
    """One evaluation of the order-n ratio at a point.

    ``value`` is None exactly when the point is trivially satisfied
    (x = T^n x, which forces both sides of the inequality to zero).
    The numerator is derived from ``value`` and ``denom`` rather than
    stored, which keeps long samplings small.
    """

    point: PointRef
    order: int
    denom: Fraction
    value: Optional[Fraction]

    @property
    def numer(self) -> Fraction:
        return Fraction(0) if self.value is None else self.value * self.denom

    @property
    def trivial(self) -> bool:
        return self.value is None


class Verdict(str, Enum):
    CONTRACTION = "Contraction"
    NOT_CONTRACTION = "NotContraction"
    INCONCLUSIVE_SAMPLED = "InconclusiveSampled"


@dataclass(frozen=True)
class ContractionReport:
    """Per-order verdict with the supporting samples.

    ``exact`` is True when every point of a finite space was checked;
    then ``alpha_min`` is the true maximum ratio. Otherwise ``alpha_min``
    is the largest ratio over the sampled points. Either way it is an
    exact rational. ``witness`` is set only for NotContraction.
    """

    order: int
    alpha_min: object
    exact: bool
    verdict: Verdict
    witness: Optional[PointRef]
    samples: tuple

    @property
    def trivial_count(self) -> int:
        return sum(1 for s in self.samples if s.trivial)


def ratio(space: SpaceModel, map_: MapModel, n: int, x: PointRef) -> RatioSample:
    """Order-n ratio at x, as an exact rational."""
    require_int("order", n, 1)
    tn = iterate(map_, x, n)
    t2n = iterate(map_, tn, n)
    return _sample(x, n, space.distance(tn, t2n), space.distance(x, tn))


def _sample(x: PointRef, n: int, numer: Fraction, denom: Fraction) -> RatioSample:
    """The sample numer / denom at x, or a trivial one when denom is 0."""
    if denom == 0:
        # x = T^n x forces T^n x = T^2n x
        if numer != 0:
            raise ConsistencyViolationError(
                f"denominator 0 with numerator {numer} at {x!r}"
            )
        return RatioSample(x, n, denom, None)
    return RatioSample(x, n, denom, numer / denom)


def _report_from_samples(order, samples, exact):
    alpha_min = max((s.value for s in samples if s.value is not None), default=Fraction(0))
    # Exact: a ratio of 1 or more refutes. Sampled: only a strict exceedance
    # refutes; a sampled ratio of exactly 1 (or a sup within the margin) stays
    # inconclusive. Some sample refutes iff alpha_min does; the first is the witness.
    refutes = ge if exact else gt
    witness = None
    if refutes(alpha_min, 1):
        verdict = Verdict.NOT_CONTRACTION
        witness = next(s.point for s in samples if s.value is not None and refutes(s.value, 1))
    elif not exact and alpha_min >= 1 - INCONCLUSIVE_MARGIN:
        verdict = Verdict.INCONCLUSIVE_SAMPLED
    else:
        verdict = Verdict.CONTRACTION
    return ContractionReport(order, alpha_min, exact, verdict, witness, tuple(samples))


def _step_once_report(space, map_, n, points, exact):
    """The report over ``points``: the ratio at p is ``step(T^n p) / step(p)``
    with ``step(q) = d(q, T^n q)``, each taken once by one power and one distance."""
    steps = {}  # q -> (T^n q, d(q, T^n q))

    def step(q):
        got = steps.get(q)
        if got is None:
            t = map_.power(q, n)
            got = steps[q] = t, space.distance(q, t)
        return got

    samples = []
    for p in points:
        tn, denom = step(p)
        samples.append(_sample(p, n, step(tn)[1], denom))
    return _report_from_samples(n, samples, exact)


def alpha_exact(space: FiniteSpace, map_: MapModel, n: int) -> ContractionReport:
    """Ratio at every point of a finite space, in exact arithmetic."""
    require_kind("alpha_exact", space, FiniteSpace)
    require_int("order", n, 1)
    return _step_once_report(space, map_, n, space.points(), exact=True)


def alpha_sampled(
    space: SequenceSpace, map_: MapModel, n: int, index_cap: int = 200
) -> ContractionReport:
    """Ratio at a, b and the first ``index_cap`` family points.

    It takes ``index_cap + n + 2`` steps when ``index_cap >= n``. The samples
    reach ``x_{index_cap + 2n}``, so a cap that puts that index past the
    space's ``max_index`` is refused, and so is one above ``MAX_INDEX_CAP``.
    """
    require_kind("alpha_sampled", space, SequenceSpace)
    require_int("index_cap", index_cap, 1, MAX_INDEX_CAP)
    require_int("order", n, 1)
    if index_cap + 2 * n > space.max_index:
        raise BadParamsError(
            f"index_cap {index_cap} at order {n} needs x{index_cap + 2 * n}, "
            f"past max_index {space.max_index}"
        )
    return _step_once_report(space, map_, n, space.sample_points(index_cap), exact=False)


def ratio_limit_probe(
    space: SequenceSpace,
    map_: MapModel,
    n: int,
    subsequence_selector: Callable[[int], int],
    k: int,
) -> float:
    """Order-n ratio at the k-th selected family point.

    Reproduces limit computations along a chosen index subsequence, e.g.
    ``selector = lambda k: 4 * k - 1``. Trivially satisfied points probe
    as 0.0.
    """
    sample = ratio(space, map_, n, space.x(subsequence_selector(k)))
    return 0.0 if sample.trivial else float(sample.value)


class ContractionClass(str, Enum):
    BANACH = "banach"
    KANNAN = "kannan"
    CHATTERJEA = "chatterjea"


@dataclass(frozen=True)
class ClassCheck:
    """Outcome of an exhaustive pairwise class inequality check for T^n."""

    contraction_class: ContractionClass
    order: int
    alpha: Fraction
    holds: bool
    witness: Optional[tuple]  # (x, y) violating pair
    effective_alpha: Fraction
    tightest: Optional[Fraction]  # max class ratio found over informative pairs


def check_iterated_class(
    space: FiniteSpace,
    map_: MapModel,
    n: int,
    contraction_class: ContractionClass,
    alpha,
) -> ClassCheck:
    """Exhaustively test whether T^n satisfies a classical contraction class.

    For every ordered pair (x, y) the class inequality is checked exactly:

    * banach:     d(T^n x, T^n y) <= alpha * d(x, y)
    * kannan:     d(T^n x, T^n y) <= alpha * (d(x, T^n x) + d(y, T^n y))
    * chatterjea: d(T^n x, T^n y) <= alpha * (d(x, T^n y) + d(y, T^n x))

    When the class holds, the order-n ratio is bounded by the effective
    constant obtained by substituting y = T^n x: alpha itself for banach,
    alpha / (1 - alpha) for the other two (below 1 only when alpha < 1/2).
    That bound against ``alpha_exact`` is checked before returning; a
    breach raises ConsistencyViolationError.
    """
    require_kind("check_iterated_class", space, FiniteSpace)
    require_int("order", n, 1)
    try:
        alpha = as_fraction(alpha)
        cls = ContractionClass(contraction_class)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadParamsError(f"bad alpha or contraction class: {exc}") from None
    if not 0 < alpha < 1:
        raise BadParamsError(f"alpha must be in (0, 1), got {alpha}")
    if cls is ContractionClass.BANACH:
        effective = alpha
    else:
        effective = alpha / (1 - alpha)

    # Each row x is compared at C level over every y, in integers: the
    # common denominator cancels, and alpha = p/q is cross-multiplied.
    # Only a row holding the first witness, or a ratio above the tightest so
    # far (kept as the integer pair lhs/rhs), is scanned again in Python.
    d = space.scaled
    p, q = alpha.numerator, alpha.denominator
    image = [space.check_point(iterate(map_, x, n)) for x in space.points()]
    step = list(map(getitem, d, image))  # d(y, T^n y) for every y
    witness = None
    top = (0, 1)  # the largest lhs/rhs so far
    informative = False  # some rhs > 0
    for x, tx in enumerate(image):
        lhs = list(map(d[tx].__getitem__, image))
        if cls is ContractionClass.BANACH:
            rhs = d[x]
        elif cls is ContractionClass.KANNAN:
            rhs = list(map(add, repeat(step[x]), step))
        else:  # d(x, T^n y) + d(y, T^n x), by symmetry d(T^n x, y)
            rhs = list(map(add, map(d[x].__getitem__, image), d[tx]))
        informative = informative or any(rhs)
        if witness is None and any(map(gt, map(mul, lhs, repeat(q)), map(mul, repeat(p), rhs))):
            witness = x, next(y for y, (l, r) in enumerate(zip(lhs, rhs)) if l * q > p * r)
        if any(map(gt, map(mul, lhs, repeat(top[1])), map(mul, repeat(top[0]), rhs))):
            for l, r in zip(lhs, rhs):
                if r and l * top[1] > top[0] * r:
                    top = l, r
    tightest = Fraction(*top) if informative else None
    holds = witness is None
    if holds:
        bound = alpha_exact(space, map_, n).alpha_min
        if bound > effective:
            raise ConsistencyViolationError(
                f"order-{n} ratio {bound} exceeds effective constant {effective}"
            )
    return ClassCheck(cls, n, alpha, holds, witness, effective, tightest)
