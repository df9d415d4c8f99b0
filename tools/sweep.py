"""Run the engines over every small finite world and list where they disagree.

For every metric on ``--points`` points (default 4) with integer entries 1-2,
every self-map of those points and orders 1..6, it checks three things:

* ``enumerate_periodic`` reports ``divisor_ok``;
* ``alpha_exact``'s verdict matches ``oracle._contracts``, which composes
  ``T^n`` from the image table alone;
* ``solve`` from every start returns the start's cycle and agrees with
  ``crosscheck`` where the cycle length divides the order, and raises
  ``NotConvergedError`` elsewhere.

Prints one line per disagreement on stdout and the counts on stderr. It is
a report, not a gate: it exits 0 even where the engines disagree. The
worlds come from ``tests/test_finite_worlds.py``, whose tier-1 test runs
the same checks up to 3 points.

    python tools/sweep.py               # |X| = 4: 16 384 instances
    python tools/sweep.py --points 3    # |X| = 3 in a second
"""

import argparse
import sys
from collections import Counter
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from graphcon import (
    FiniteSpace,
    GraphconError,
    NotConvergedError,
    TableMap,
    Verdict,
    alpha_exact,
    crosscheck,
    enumerate_periodic,
    oracle,
    solve,
)
from test_finite_worlds import cycle_length, small_metrics

ORDERS = range(1, 7)
TOP = 2  # the largest distance entry


def solve_disagreement(space, map_, n, x, counts):
    """What is wrong with ``solve`` from x at order n, or None."""
    length = cycle_length(map_.images, x)
    try:
        sol = solve(space, map_, n, x)
    except NotConvergedError as exc:
        counts["refused"] += 1
        return None if n % length else f"refused although cycle length {length} divides n: {exc}"
    except GraphconError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    counts["solved"] += 1
    if n % length:
        return f"period {sol.period} although cycle length {length} does not divide n"
    if sol.period != length:
        return f"period {sol.period}, cycle length {length}"
    cc = crosscheck(space, map_, n, sol)
    return None if cc.agree else f"crosscheck {cc.label}: {cc.detail}"


def sweep(size) -> Counter:
    """Check every world on ``size`` points with entries 1..TOP; print each
    disagreement as it is found and return the counts."""
    counts = Counter()
    labels = tuple(f"x{i + 1}" for i in range(size))
    for rows in small_metrics(size, TOP):
        space = FiniteSpace.from_rows(labels, rows)
        for images in product(range(size), repeat=size):
            map_ = TableMap(space, images)
            counts["instances"] += 1
            for n in ORDERS:
                counts["checks"] += 1
                problems = []
                if not enumerate_periodic(space, map_, n).divisor_ok:
                    problems.append("divisor_ok is False")
                contracts = alpha_exact(space, map_, n).verdict is Verdict.CONTRACTION
                counts["contracting"] += contracts
                if contracts != oracle._contracts(space.scaled, list(images), n):
                    problems.append(f"alpha_exact contracts={contracts}, oracle._contracts not")
                for x in space.points():
                    problem = solve_disagreement(space, map_, n, x, counts)
                    if problem:
                        problems.append(f"solve from {labels[x]}: {problem}")
                for problem in problems:
                    print(f"d={rows} T={list(images)} n={n}: {problem}", flush=True)
                counts["disagreements"] += len(problems)
    return counts


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=4, help="|X| (default 4)")
    args = parser.parse_args(argv)
    c = sweep(args.points)
    print(
        f"|X| = {args.points}, entries 1-{TOP}: {c['instances']} instances, "
        f"{c['checks']} (instance, order) checks ({c['contracting']} contracting), "
        f"{c['solved']} solves cross-checked, {c['refused']} refused; "
        f"{c['disagreements']} disagreements",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
