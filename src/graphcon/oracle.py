"""Exhaustive ground truth on finite spaces.

Everything here is brute force in exact arithmetic: periodic points are
found from the map's image table alone, random instances are built so
the metric axioms hold by construction, and solver outputs are compared
point-for-point against the enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .analysis import Verdict, alpha_exact
from .errors import require_int, require_kind
from .maps import MapModel, TableMap
from .solver import PeriodicSolution
from .spaces import FiniteSpace

__all__ = [
    "OracleResult",
    "enumerate_periodic",
    "random_instance",
    "CrosscheckResult",
    "crosscheck",
]


@dataclass(frozen=True)
class OracleResult:
    periodic: tuple  # ((point, prime_period), ...)
    orbits: tuple  # disjoint cycles, each a tuple of points
    divisor_ok: bool


def enumerate_periodic(
    space: FiniteSpace, map_: MapModel, n: int, full_scan: bool = False
) -> OracleResult:
    """All periodic points whose exact period is admissible for order n.

    Default mode keeps only cycles whose length divides n (the periods the
    theory allows on a contraction of order n); ``full_scan`` keeps every
    cycle, showing periods that do not divide n on non-contractions. The
    image table squared ``|X|.bit_length()`` times is T^(2^k), 2^k > |X|,
    whose values are exactly the cycle points; each cycle is walked once
    from its smallest point. Only the table is read, never ``rho``/``power``.
    """
    require_kind("enumerate_periodic", space, FiniteSpace)
    require_int("order", n, 1)
    # the map, read once; an image outside the space is refused here
    image = [space.check_point(map_.apply(x)) for x in space.points()]
    ends = image
    for _ in range(space.size.bit_length()):
        ends = list(map(ends.__getitem__, ends))
    seen = set()
    orbits = []
    for x in sorted(set(ends)):
        if x in seen:
            continue
        cyc = [x]
        while image[cyc[-1]] != x:
            cyc.append(image[cyc[-1]])
        seen.update(cyc)
        if full_scan or n % len(cyc) == 0:
            orbits.append(tuple(cyc))
    periodic = sorted((x, len(cyc)) for cyc in orbits for x in cyc)

    # the verdict matters only when no periodic point was found
    divisor_ok = all(n % p == 0 for _, p in periodic) and (
        bool(periodic) or alpha_exact(space, map_, n).verdict is not Verdict.CONTRACTION
    )
    return OracleResult(tuple(periodic), tuple(orbits), divisor_ok)


def random_instance(seed: int, max_points: int) -> Tuple[FiniteSpace, TableMap]:
    """Seeded random finite space with a random self-map.

    Random symmetric positive edge weights are completed to a metric by
    all-pairs shortest paths in exact rationals, so validation always
    passes. Same seed, same instance.
    """
    require_int("max_points", max_points, 2, 12)
    rng = random.Random(seed)
    size = rng.randint(2, max_points)
    dist = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            dist[i][j] = dist[j][i] = w
    for k in range(size):
        for i in range(size):
            dik = dist[i][k]
            for j in range(size):
                through = dik + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    labels = tuple(f"x{i + 1}" for i in range(size))
    space = FiniteSpace(labels, tuple(tuple(row) for row in dist))
    images = tuple(rng.randrange(size) for _ in range(size))
    return space, TableMap(space, images)


@dataclass(frozen=True)
class CrosscheckResult:
    agree: bool
    detail: str

    @property
    def label(self) -> str:
        return "Agree" if self.agree else "Disagree"


def crosscheck(
    space: FiniteSpace, map_: MapModel, n: int, solution: PeriodicSolution
) -> CrosscheckResult:
    """Compare a solver solution against the exhaustive enumeration.

    Agreement means: the representative is enumerated as periodic with the
    same prime period, and the solver cycle equals the enumerated orbit of
    the representative as a set.
    """
    result = enumerate_periodic(space, map_, n)
    rep = solution.representative
    oracle_period = dict(result.periodic).get(rep)
    if oracle_period is None:
        return CrosscheckResult(
            False, f"representative {rep} is not periodic for order {n}"
        )
    if oracle_period != solution.period:
        return CrosscheckResult(
            False,
            f"period mismatch at {rep}: solver {solution.period}, "
            f"oracle {oracle_period}",
        )
    orbit_set = next(set(c) for c in result.orbits if rep in c)
    if set(solution.cycle) != orbit_set:
        return CrosscheckResult(
            False,
            f"cycle mismatch at {rep}: solver {sorted(solution.cycle)}, "
            f"oracle {sorted(orbit_set)}",
        )
    return CrosscheckResult(True, "representative, period and cycle all match")
