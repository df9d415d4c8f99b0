"""Self-map models, iteration and prime periods.

A map is either a full lookup table over a finite space or the shift map
on a sequence space (each family point advances to the next index, the two
anchors swap). Every map gives ``T^k x`` through ``power(x, k)``, and
``rho(x)`` gives ``(t, cycle, entry)`` with ``T^t x = cycle[entry]`` and
``t`` minimal, or ``None`` when the orbit of ``x`` never repeats.

On a finite space every orbit is such a "rho": a tail of ``t`` steps that
runs into a cycle. ``TableMap`` finds every point's tail length, cycle and
entry position once, in O(|X|), so ``power`` walks at most the tail and
then indexes the cycle, whatever ``k`` is. Under the shift only the
anchors cycle, and ``ShiftMap.power`` is arithmetic: ``x_m`` goes to
``x_{m+k}``, and the anchors swap when ``k`` is odd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import BadParamsError, InvalidPointError, require_int
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
    # per point (t, cycle, entry): T^t x = cycle[entry], with t minimal
    _rho: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))  # the caller's list may change
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
        object.__setattr__(self, "_rho", _rho_structure(self.images))

    def apply(self, x: int) -> int:
        return self.images[self.space.check_point(x)]

    def rho(self, x: int) -> tuple:
        """(t, cycle, entry) with T^t x = cycle[entry] and t minimal."""
        return self._rho[self.space.check_point(x)]

    def power(self, x: int, k: int) -> int:
        """T^k x: at most the tail is walked, then the cycle is indexed."""
        require_int("iteration count", k, 0)
        t, cycle, entry = self._rho[self.space.check_point(x)]
        if k >= t:
            return cycle[(entry + k - t) % len(cycle)]
        for _ in range(k):
            x = self.images[x]
        return x


def _rho_structure(images: tuple) -> tuple:
    """Tail length, cycle and cycle entry index of every point's orbit.

    Each point is put on a walk once: a walk stops at the first point that
    is already placed or already on the walk. In the second case the walk
    has closed a new cycle; the points before it form a tail into it.
    """
    rho = [None] * len(images)
    for start in range(len(images)):
        path, on_path = [], {}
        x = start
        while rho[x] is None and x not in on_path:
            on_path[x] = len(path)
            path.append(x)
            x = images[x]
        if rho[x] is None:
            s = on_path[x]
            cycle = tuple(path[s:])
            for i, y in enumerate(cycle):
                rho[y] = (0, cycle, i)
            del path[s:]
        t, cycle, entry = rho[x]
        for y in reversed(path):
            t += 1
            rho[y] = (t, cycle, entry)
    return tuple(rho)


@dataclass(frozen=True)
class ShiftMap:
    """x_n -> x_{n+1}, a -> b, b -> a on a sequence space."""

    space: SequenceSpace

    def apply(self, p: SeqPoint) -> SeqPoint:
        below_a, base, _ = self.space._place(p)  # an anchor has base 0
        if base:
            return self.space.x(p.n + 1)
        return self.space.b_point if below_a else self.space.a_point

    def rho(self, p: SeqPoint) -> tuple | None:
        """The anchors' 2-cycle (a, b) entered at once; None for every x_m."""
        p = self.space.check_point(p)
        if p.role == "x":
            return None
        return 0, (self.space.a_point, self.space.b_point), int(p.role == "b")

    def power(self, p: SeqPoint, k: int) -> SeqPoint:
        """T^k p in closed form: x_m -> x_{m+k}, and an anchor stays put
        for even k and becomes the other anchor for odd k."""
        require_int("iteration count", k, 0)
        below_a, base, _ = self.space._place(p)
        if base:
            return self.space.x(p.n + k)
        return p if k % 2 == 0 else SeqPoint("b" if below_a else "a", 0)


MapModel = Union[TableMap, ShiftMap]


def iterate(map_: MapModel, x: PointRef, k: int) -> PointRef:
    """T^k x, that is ``map_.power(x, k)``; k = 0 returns x unchanged.

    Neither map's cost grows with ``k``: a table map reads it off its rho
    structure (tail, then cycle index), and the shift adds ``k`` to an
    index or swaps the anchors when ``k`` is odd.
    """
    return map_.power(x, k)


def prime_period(map_: MapModel, x: PointRef, max_p: int) -> int | None:
    """Least p <= max_p with T^p x = x, or None if there is none.

    Read off ``rho(x)``: x returns to itself exactly when it lies on its
    cycle (tail 0), and then its prime period is the cycle's length.
    """
    require_int("max_p", max_p, 1)
    shape = map_.rho(x)
    if shape is None or shape[0] > 0 or len(shape[1]) > max_p:
        return None
    return len(shape[1])
