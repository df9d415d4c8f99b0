"""Expected results computed apart from graphcon, in exact arithmetic.

Nothing here imports graphcon. Sequence-space ratios come from the family
formulas with ``Fraction`` offsets; finite-space expectations come from a
walk of the map table and the instance's own rational distance matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# -- sequence families ------------------------------------------------------


def offset(family: str, k: int):
    """Family point x_k as (below_a, exact offset from its anchor)."""
    if family == "example_2_3":
        return k % 2 == 1, Fraction(1, 2**k)
    r = k % 4
    if r == 1:
        return True, Fraction(1, 2 ** ((k + 3) // 4))
    if r == 2:
        return False, Fraction(1, 2 ** ((k + 2) // 4))
    if r == 3:
        return True, Fraction(1, 3 ** ((k + 1) // 4))
    return False, Fraction(1, 3 ** (k // 4))


class SequenceRef:
    """Exact model of one sequence space; points are ("a"|"b"|"x", k)."""

    def __init__(self, family: str, a: float, b: float):
        self.family = family
        self.gap = Fraction(b) - Fraction(a)
        self._sampled = {}

    def side_offset(self, p):
        role, k = p
        if role == "a":
            return True, Fraction(0)
        if role == "b":
            return False, Fraction(0)
        return offset(self.family, k)

    @staticmethod
    def shift(p, steps: int = 1):
        role, k = p
        if role == "x":
            return role, k + steps
        return (role if steps % 2 == 0 else "ab"[role == "a"]), 0

    def distance(self, p, q) -> Fraction:
        below_p, off_p = self.side_offset(p)
        below_q, off_q = self.side_offset(q)
        if below_p == below_q:
            return abs(off_p - off_q)
        return self.gap + off_p + off_q

    def ratio(self, n: int, p):
        """Exact order-n ratio at p, or None when p = T^n p."""
        tn = self.shift(p, n)
        denom = self.distance(p, tn)
        if denom == 0:
            return None
        return self.distance(tn, self.shift(tn, n)) / denom

    def sampled(self, n: int, cap: int):
        """Ratios at a, b, x_1..x_cap (cached per order up to the largest cap)."""
        have = self._sampled.get(n, [])
        if len(have) < cap + 2:
            points = [("a", 0), ("b", 0)] + [("x", k) for k in range(1, cap + 1)]
            have = [self.ratio(n, p) for p in points]
            self._sampled[n] = have
        return have[: cap + 2]


def sampled_verdict(ratios, margin: float = 1e-3) -> str:
    """Verdict of a sampled report: a ratio above 1 refutes, a supremum
    within ``margin`` of 1 is inconclusive."""
    values = [r for r in ratios if r is not None]
    if any(r > 1 for r in values):
        return "NotContraction"
    if max(values, default=0) >= 1 - margin:
        return "InconclusiveSampled"
    return "Contraction"


# -- finite instances -------------------------------------------------------


def l1_matrix(coords):
    """Exact L1 distances between distinct rational points of the plane."""
    return [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]


def triangle_violated(dist, i: int, j: int, k: int) -> bool:
    return dist[i][j] > dist[i][k] + dist[k][j]


class Walk:
    """Cycles and tails of a lookup-table map, from one walk per point."""

    def __init__(self, images):
        self.images = list(images)
        self.cycle_of = {}  # point -> frozenset of its limit cycle
        self.tail = {}  # point -> steps until it reaches its cycle
        for x in range(len(self.images)):
            seen = {}
            y = x
            while y not in seen:
                seen[y] = len(seen)
                y = self.images[y]
            cycle = [y]
            while self.images[cycle[-1]] != y:
                cycle.append(self.images[cycle[-1]])
            self.cycle_of[x] = frozenset(cycle)
            self.tail[x] = seen[y]

    def on_cycle(self, x: int) -> bool:
        return self.tail[x] == 0

    def step(self, x: int, k: int) -> int:
        for _ in range(k):
            x = self.images[x]
        return x

    def lcm_of_cycles(self) -> int:
        out = 1
        for c in set(self.cycle_of.values()):
            out = out * len(c) // gcd(out, len(c))
        return out

    def periodic(self, n: int):
        """[(point, prime period)] of points whose period divides n."""
        return [(x, len(self.cycle_of[x])) for x in range(len(self.images))
                if self.on_cycle(x) and n % len(self.cycle_of[x]) == 0]


def exact_alpha(dist, walk: Walk, n: int):
    """(alpha_min, verdict, witness) of the exact order-n analysis."""
    best = Fraction(0)
    witness = None
    for x in range(len(dist)):
        tn = walk.step(x, n)
        denom = dist[x][tn]
        if denom == 0:
            continue
        r = dist[tn][walk.step(tn, n)] / denom
        best = max(best, r)
        if r >= 1 and witness is None:
            witness = x
    return best, ("Contraction" if witness is None else "NotContraction"), witness


def class_sides(dist, walk: Walk, n: int, cls: str, x: int, y: int):
    """(lhs, rhs) of the class inequality for T^n at the pair (x, y)."""
    tx, ty = walk.step(x, n), walk.step(y, n)
    lhs = dist[tx][ty]
    if cls == "banach":
        return lhs, dist[x][y]
    if cls == "kannan":
        return lhs, dist[x][tx] + dist[y][ty]
    return lhs, dist[x][ty] + dist[y][tx]


def class_check(dist, walk: Walk, n: int, cls: str, alpha: Fraction):
    """(holds, tightest) of the class inequality over every ordered pair."""
    holds, tightest = True, None
    size = len(dist)
    for x in range(size):
        for y in range(size):
            lhs, rhs = class_sides(dist, walk, n, cls, x, y)
            if lhs > alpha * rhs:
                holds = False
            if rhs > 0 and (tightest is None or lhs / rhs > tightest):
                tightest = lhs / rhs
    return holds, tightest
