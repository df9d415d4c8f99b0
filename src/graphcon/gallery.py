"""Built-in gallery cases and the table of checks they must pass.

``build_case`` constructs a case's instance. ``CHECKS`` lists, for each
case id, the ordered checks to run on it as ``(check function, *args)``;
each check function runs one claim through the engines and returns
``(name, ok, detail)``. ``run_gallery`` runs the table and returns a
structured pass/fail report. The checks hold for anchors more than
``2 * solver.DEFAULT_TOL`` apart: ``solve`` counts closer limits as one.

Case ids (wire format):

* ``example_2_2``: five points at mutual distance 1; the map swaps two of
  them and cycles the other three. Order 6 contracts trivially; periodic
  points of periods 2 and 3 live in disjoint orbits.
* ``example_2_3``: two-phase sequence family with the shift map. Order 1
  is inconclusive (the ratio at the anchors is exactly 1; a sampled ratio
  refutes only above 1), order 2 contracts with minimal alpha 1/4; (a, b) is the 2-cycle.
* ``example_2_4``: four-phase family. Orders 1 to 3 fail, order 4
  contracts with minimal alpha 1/2, and the limit pattern (a, b, a, b)
  collapses to period 2.
* ``example_2_5``: three synthetic finite instances whose squared map
  lies in a classical contraction class (banach, kannan, chatterjea);
  the class bound must dominate the measured order-2 ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import analysis, oracle, solver
from .analysis import ContractionClass
from .errors import GraphconError, UnknownIdError
from .maps import MapModel, ShiftMap, TableMap, prime_period
from .spaces import FiniteSpace, SequenceSpace, SpaceModel

__all__ = [
    "GALLERY_IDS",
    "CHECKS",
    "Anchors",
    "GalleryCase",
    "ClassInstance",
    "build_case",
    "CheckResult",
    "GalleryReport",
    "run_gallery",
]


@dataclass(frozen=True)
class ClassInstance:
    class_name: ContractionClass
    space: FiniteSpace
    map_: TableMap
    order: int
    alpha: Fraction


@dataclass(frozen=True)
class Anchors:
    a: float
    b: float


@dataclass(frozen=True)
class GalleryCase:
    id: str
    params: Optional[Anchors]
    space: Optional[SpaceModel]
    map_: Optional[MapModel]
    class_instances: tuple


def _table_map(prefix: str, images: tuple, coords=None) -> TableMap:
    """A lookup-table map on points at ``coords`` on the line, labelled
    ``prefix`` + coordinate, or without ``coords`` on ``len(images)``
    points at mutual distance 1, labelled ``prefix`` + 1, 2, ..."""
    unit = coords is None
    coords = range(1, len(images) + 1) if unit else coords
    dist = tuple(
        tuple(Fraction(u != v if unit else abs(u - v)) for v in coords) for u in coords
    )
    space = FiniteSpace(tuple(f"{prefix}{c}" for c in coords), dist)
    return TableMap(space, images)


def _class_instances() -> tuple:
    # banach: chain 16 -> 4 -> 1 -> 0 on the line; T^2 halves twice,
    # tightest banach constant for T^2 is 1/12
    chain = _table_map("c", (0, 0, 1, 2), coords=(0, 1, 4, 16))
    # kannan / chatterjea: T^2 is constant, so the class inequality holds
    # with zero left-hand side everywhere
    tri = _table_map("p", (1, 2, 2))
    quad = _table_map("p", (1, 3, 3, 3))
    return (
        ClassInstance(ContractionClass.BANACH, chain.space, chain, 2, Fraction(1, 4)),
        ClassInstance(ContractionClass.KANNAN, tri.space, tri, 2, Fraction(2, 5)),
        ClassInstance(ContractionClass.CHATTERJEA, quad.space, quad, 2, Fraction(2, 5)),
    )


def build_case(case_id: str, a: float = 0.0, b: float = 1.0) -> GalleryCase:
    """Construct a gallery instance; ``CHECKS[case_id]`` holds its claims."""
    if case_id == "example_2_2":
        map_ = _table_map("x", (1, 0, 3, 4, 2))  # x1 <-> x2, x3 -> x4 -> x5 -> x3
        return GalleryCase(case_id, None, map_.space, map_, ())
    if case_id in ("example_2_3", "example_2_4"):
        space = SequenceSpace(case_id, a, b)
        return GalleryCase(case_id, Anchors(space.a, space.b), space, ShiftMap(space), ())
    if case_id == "example_2_5":
        return GalleryCase(case_id, None, None, None, _class_instances())
    raise UnknownIdError(f"no gallery case {case_id!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class GalleryReport:
    id: str
    params: Optional[Anchors]
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _exact(case, n, verdict, alpha_min, all_trivial):
    rep = analysis.alpha_exact(case.space, case.map_, n)
    trivial = rep.trivial_count == len(rep.samples)
    ok = rep.verdict.value == verdict and rep.alpha_min == alpha_min and trivial is all_trivial
    return f"order{n}_exact", ok, f"verdict {rep.verdict.value}, alpha_min {rep.alpha_min}"


def _sampled(case, n, verdict, alpha_min=None):
    rep = analysis.alpha_sampled(case.space, case.map_, n, index_cap=200)
    ok = rep.verdict.value == verdict and (alpha_min is None or rep.alpha_min == alpha_min)
    detail = f"verdict {rep.verdict.value}, alpha_min {float(rep.alpha_min)}"
    return f"order{n}_sampled", ok, detail


def _ratio_at(case, n, point, value):
    sample = analysis.ratio(case.space, case.map_, n, case.space.point_named(point))
    got = 0 if sample.trivial else sample.value
    return f"order{n}_ratio_at_{point}", got == value, f"ratio {float(got)}"


def _probe(case, n, stride, k, target, tol):
    mult, off = stride
    val = analysis.ratio_limit_probe(case.space, case.map_, n, lambda j: mult * j + off, k)
    ok = abs(val - target) <= tol
    return f"order{n}_probe_k{k}", ok, f"ratio {val}, target {target} within {tol}"


def _oracle(case, n, periods, orbit_count):
    res = oracle.enumerate_periodic(case.space, case.map_, n)
    got = {case.space.labels[p]: per for p, per in res.periodic}
    disjoint = sum(map(len, res.orbits)) == len(set().union(*res.orbits))
    ok = got == periods and len(res.orbits) == orbit_count and disjoint and res.divisor_ok
    detail = f"periods {got}, {len(res.orbits)} orbits, divisor_ok {res.divisor_ok}"
    return f"oracle_order{n}", ok, detail


def _solve(case, n, start, period, shape, limits=None):
    """Solve from ``start``; cross-check against the oracle, or, given
    named ``limits``, require the limits and the residual within the
    solver's cluster tolerance, ``2 * DEFAULT_TOL``, of them."""
    space, map_ = case.space, case.map_
    name = f"solve_order{n}_from_{start}"
    try:
        sol = solver.solve(space, map_, n, space.point_named(start))
    except GraphconError as exc:  # report a refusal instead of aborting the gallery
        return name, False, f"solver raised {type(exc).__name__}: {exc}"
    ok = sol.period == period and sol.case.value == shape
    detail = f"period {sol.period}, case {sol.case.value}"
    if limits is None:
        cc = oracle.crosscheck(space, map_, n, sol)
        return name, ok and cc.agree, f"{detail}, crosscheck {cc.label}"
    targets = [space.point_named(nm) for nm in limits]
    gap = float(max(space.distance(lim, t) for lim, t in zip(sol.limits, targets)))
    close = max(gap, sol.residual) <= 2 * solver.DEFAULT_TOL
    ok = ok and len(sol.limits) == len(targets) and close
    return name, ok, f"{detail}, max limit gap {gap:.2e}, residual {sol.residual:.2e}"


def _prime_period(case, point, period):
    got = prime_period(case.map_, case.space.point_named(point))
    return f"prime_period_{point}", got == period, f"prime period {got}, expected {period}"


def _class_bound(case, class_name):
    inst = next(i for i in case.class_instances if i.class_name is class_name)
    check = analysis.check_iterated_class(
        inst.space, inst.map_, inst.order, inst.class_name, inst.alpha
    )
    bound = analysis.alpha_exact(inst.space, inst.map_, inst.order).alpha_min
    return (
        f"{class_name.value}_iterate_bound", check.holds and bound <= check.effective_alpha,
        f"holds {check.holds}, order-{inst.order} alpha {bound} vs "
        f"effective {check.effective_alpha} (tightest {check.tightest})",
    )


CHECKS = {
    "example_2_2": (
        (_exact, 6, "Contraction", 0, True),
        (_exact, 1, "NotContraction", 1, False),
        (_oracle, 6, {"x1": 2, "x2": 2, "x3": 3, "x4": 3, "x5": 3}, 2),
        (_solve, 6, "x1", 2, "D"),
        (_solve, 6, "x3", 3, "D"),
    ),
    "example_2_3": (
        (_sampled, 2, "Contraction", Fraction(1, 4)),
        (_sampled, 1, "InconclusiveSampled"),
        (_solve, 2, "x1", 2, "A", ("a", "b")),
        (_prime_period, "a", 2),
        (_prime_period, "b", 2),
    ),
    "example_2_4": (
        (_sampled, 4, "Contraction", Fraction(1, 2)),
        (_sampled, 1, "NotContraction"),
        (_sampled, 2, "NotContraction"),
        (_sampled, 3, "NotContraction"),
        (_ratio_at, 3, "a", 1),
        (_probe, 2, (4, -1), 15, 1.0, 1e-2),
        (_solve, 4, "x1", 2, "D", ("a", "b", "a", "b")),
        (_prime_period, "a", 2),
        (_prime_period, "b", 2),
    ),
    "example_2_5": (
        (_class_bound, ContractionClass.BANACH),
        (_class_bound, ContractionClass.KANNAN),
        (_class_bound, ContractionClass.CHATTERJEA),
    ),
}
GALLERY_IDS = tuple(CHECKS)


def run_gallery(case_id: str, a: float = 0.0, b: float = 1.0) -> GalleryReport:
    """Run every check that ``CHECKS`` lists for one gallery case."""
    case = build_case(case_id, a=a, b=b)
    checks = tuple(CheckResult(*fn(case, *args)) for fn, *args in CHECKS[case_id])
    return GalleryReport(case.id, case.params, checks)
