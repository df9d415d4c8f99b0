"""Self-map models, iteration and prime periods.

A map is either a full lookup table over a finite space or the shift map
on a sequence space (each family point advances to the next index, the two
anchors swap). Iteration is by repeated application; the step counts in
this problem domain are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import BadParamsError, InvalidPointError
from .spaces import FiniteSpace, PointRef, SeqPoint, SequenceSpace

__all__ = [
    "TableMap",
    "ShiftMap",
    "MapModel",
    "iterate",
    "prime_period",
]

@dataclass(frozen=True)
class TableMap:
    """Total self-map of a finite space, one image index per point."""

    space: FiniteSpace
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.space.size:
            raise BadParamsError(
                f"map table has {len(self.images)} images for "
                f"{self.space.size} points"
            )
        for i, img in enumerate(self.images):
            try:
                self.space.check_point(img)
            except InvalidPointError:
                raise BadParamsError(f"image of point {i} is {img!r}, not a point") from None

    def apply(self, x: int) -> int:
        return self.images[self.space.check_point(x)]


@dataclass(frozen=True)
class ShiftMap:
    """x_n -> x_{n+1}, a -> b, b -> a on a sequence space."""

    space: SequenceSpace

    def apply(self, p: SeqPoint) -> SeqPoint:
        p = self.space.check_point(p)
        if p.role == "a":
            return self.space.b_point
        if p.role == "b":
            return self.space.a_point
        return self.space.x(p.n + 1)


MapModel = Union[TableMap, ShiftMap]


def iterate(map_: MapModel, x: PointRef, k: int) -> PointRef:
    """k-fold application; k = 0 returns x unchanged."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    y = map_.space.check_point(x)
    for _ in range(k):
        y = map_.apply(y)
    return y


def prime_period(map_: MapModel, x: PointRef, max_p: int) -> int | None:
    """Least p <= max_p with T^p x = x, or None if there is none."""
    if max_p < 1:
        raise ValueError("max_p must be >= 1")
    y = x = map_.space.check_point(x)
    for p in range(1, max_p + 1):
        y = map_.apply(y)
        if y == x:
            return p
    return None
