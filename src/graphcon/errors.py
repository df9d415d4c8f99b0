"""Exception hierarchy shared by all engines, and the parameter checks
every engine runs where it uses a parameter."""

from __future__ import annotations

import math
from numbers import Real


class GraphconError(Exception):
    """Base class for every error raised by this package."""


class InvalidPointError(GraphconError):
    """A point reference does not belong to the space it was used with."""


class InstanceFormatError(GraphconError):
    """An instance document is malformed or of an unsupported kind."""


class MetricAxiomError(GraphconError):
    """A distance matrix violates one of the metric axioms.

    Subclasses carry the witnessing indices in ``indices``.
    """

    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


class NonSquareError(MetricAxiomError):
    pass


class NonFiniteEntryError(MetricAxiomError):
    pass


class NegativeEntryError(MetricAxiomError):
    pass


class IdentityViolationError(MetricAxiomError):
    pass


class SymmetryViolationError(MetricAxiomError):
    pass


class TriangleViolationError(MetricAxiomError):
    pass


class NotConvergedError(GraphconError):
    """A residue subsequence failed to settle within the iteration budget.

    Happens when the map does not contract (empirical step ratios at or
    above 1) or when the underlying space has no limit to converge to.
    ``reason`` says why the subsequence was given up, such as the ratio
    estimate or the length of the cycle its orbit entered. ``last_step``
    is the exact distance between the strand's last two terms, or None.
    """

    def __init__(self, residue: int, last_step, gamma_hat, reason: str):
        step = "no step taken" if last_step is None else f"last step {_step_text(last_step)}"
        super().__init__(f"subsequence {residue} did not converge ({step}, {reason})")
        self.residue = residue
        self.last_step = last_step
        self.gamma_hat = gamma_hat


def _step_text(step) -> str:
    """A step distance as a float, or as a power of two where the float
    would read 0 or overflow: a nonzero step never reads as 0."""
    if not step or 2.0**-1000 < step < 2.0**1000:
        return str(float(step))
    num, den = step.as_integer_ratio()
    return f"2^{math.log2(num) - math.log2(den):.3f}"


class ToleranceAmbiguityError(GraphconError):
    """Limit clustering could not pick a period consistently.

    The block that the shortest matching cyclic shift chose still contains
    a pair within the cluster tolerance (in ``solve``, ``2 * tol``, the
    most two strands with one limit can end apart). Signals a ``tol`` too
    coarse for the spacing of the limits, never a valid solver outcome.
    """


class ConsistencyViolationError(GraphconError):
    """The computed limits do not chain under the map within tolerance."""


class BadParamsError(GraphconError):
    """A parameter is outside its valid range (e.g. a >= b, order 0), or a
    space is of the wrong kind for the engine it is passed to."""


class GammaOutOfRangeError(BadParamsError):
    """Geometric ratio outside [0, 1); the tail bound is undefined there."""


class UnknownIdError(BadParamsError):
    """Gallery id is not one of the built-in cases."""


def require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Refuse anything but an ``int`` (so no ``bool``) in ``low..high``."""
    if type(value) is not int or value < low or high is not None and value > high:
        bounds = f">= {low}" if high is None else f"between {low} and {high}"
        raise BadParamsError(f"{name} must be an integer {bounds}, got {value!r}")


def require_tolerance(name: str, value, zero_ok: bool = False) -> None:
    """Refuse anything but a finite real number above 0, or at 0 when
    ``zero_ok`` is set; NaN fails, and a huge ``int`` or ``Fraction`` passes."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (
        0 < value < math.inf or zero_ok and value == 0
    ):
        bound = ">= 0" if zero_ok else "> 0"
        raise BadParamsError(f"{name} must be a finite number {bound}, got {value!r}")


def require_kind(engine: str, space, kind: type) -> None:
    """Refuse a space that is not a ``kind``, naming the engine."""
    if not isinstance(space, kind):
        raise BadParamsError(f"{engine} needs a {kind.__name__}, got {type(space).__name__}")
