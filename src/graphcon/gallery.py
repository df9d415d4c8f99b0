"""Built-in gallery cases with pinned expected outcomes.

Each case packages an instance together with the quantitative claims the
engines must reproduce for it. ``run_gallery`` executes every claim and
returns a structured pass/fail report; the expectations hold for any
anchor parameters a < b (the decisive ratios compare correction terms
that do not depend on b - a).

Case ids (wire format):

* ``example_2_2``: five points at mutual distance 1; the map swaps two of
  them and cycles the other three. Order 6 contracts trivially; periodic
  points of periods 2 and 3 live in disjoint orbits.
* ``example_2_3``: two-phase sequence family with the shift map. Order 1
  is inconclusive by sampling (ratios approach 1), order 2 contracts with
  minimal alpha 1/4; the anchors form the period-2 cycle.
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
from typing import Callable, List, Optional

from . import analysis, oracle, solver
from .errors import UnknownIdError
from .maps import MapModel, ShiftMap, TableMap, prime_period
from .spaces import FiniteSpace, SequenceFamily, SequenceSpace, SpaceModel

__all__ = [
    "GALLERY_IDS",
    "GalleryCase",
    "ClassInstance",
    "build_case",
    "CheckResult",
    "GalleryReport",
    "run_gallery",
]

GALLERY_IDS = ("example_2_2", "example_2_3", "example_2_4", "example_2_5")

COORD_TOL = 1e-7


@dataclass(frozen=True)
class ClassInstance:
    class_name: analysis.ContractionClass
    space: FiniteSpace
    map_: TableMap
    order: int
    alpha: Fraction


@dataclass(frozen=True)
class GalleryCase:
    id: str
    params: Optional[dict]
    space: Optional[SpaceModel]
    map_: Optional[MapModel]
    class_instances: tuple
    expected: dict


def _five_point_swap_cycle() -> tuple:
    labels = ("x1", "x2", "x3", "x4", "x5")
    one, zero = Fraction(1), Fraction(0)
    dist = tuple(
        tuple(zero if i == j else one for j in range(5)) for i in range(5)
    )
    space = FiniteSpace(labels, dist)
    # x1 <-> x2, x3 -> x4 -> x5 -> x3
    images = (1, 0, 3, 4, 2)
    return space, TableMap(space, images)


def _line_space(coords) -> FiniteSpace:
    labels = tuple(f"c{c}" for c in coords)
    vals = [Fraction(c) for c in coords]
    dist = tuple(tuple(abs(u - v) for v in vals) for u in vals)
    return FiniteSpace(labels, dist)


def _unit_space(size: int) -> FiniteSpace:
    labels = tuple(f"p{i + 1}" for i in range(size))
    one, zero = Fraction(1), Fraction(0)
    dist = tuple(
        tuple(zero if i == j else one for j in range(size)) for i in range(size)
    )
    return FiniteSpace(labels, dist)


def _class_instances() -> tuple:
    # banach: chain 16 -> 4 -> 1 -> 0 on the line; T^2 halves twice,
    # tightest banach constant for T^2 is 1/12
    chain = _line_space([0, 1, 4, 16])
    chain_map = TableMap(chain, (0, 0, 1, 2))
    # kannan / chatterjea: T^2 is constant, so the class inequality holds
    # with zero left-hand side everywhere
    tri = _unit_space(3)
    tri_map = TableMap(tri, (1, 2, 2))
    quad = _unit_space(4)
    quad_map = TableMap(quad, (1, 3, 3, 3))
    return (
        ClassInstance(analysis.ContractionClass.BANACH, chain, chain_map, 2, Fraction(1, 4)),
        ClassInstance(analysis.ContractionClass.KANNAN, tri, tri_map, 2, Fraction(2, 5)),
        ClassInstance(analysis.ContractionClass.CHATTERJEA, quad, quad_map, 2, Fraction(2, 5)),
    )


def build_case(case_id: str, a: float = 0.0, b: float = 1.0) -> GalleryCase:
    """Construct a gallery instance and its expectation record."""
    if case_id == "example_2_2":
        space, map_ = _five_point_swap_cycle()
        expected = {
            "exact_orders": {
                6: {"verdict": "Contraction", "alpha_min": 0, "all_trivial": True},
                1: {"verdict": "NotContraction"},
            },
            "oracle_orders": {
                6: {
                    "periods": {"x1": 2, "x2": 2, "x3": 3, "x4": 3, "x5": 3},
                    "orbit_count": 2,
                }
            },
            "solve_cases": [
                {"order": 6, "start": "x1", "period": 2, "crosscheck": True},
                {"order": 6, "start": "x3", "period": 3, "crosscheck": True},
            ],
        }
        return GalleryCase(case_id, None, space, map_, (), expected)

    if case_id in ("example_2_3", "example_2_4"):
        space = SequenceSpace(SequenceFamily(case_id), float(a), float(b))
        map_ = ShiftMap(space)
        if case_id == "example_2_3":
            expected = {
                "sampled_orders": {
                    2: {"verdict": "Contraction", "alpha_min": 0.25, "tol": 1e-12},
                    1: {"verdict": "InconclusiveSampled", "alpha_min_at_least": 0.999},
                },
                "solve_cases": [
                    {
                        "order": 2,
                        "start": "x1",
                        "case": "A",
                        "period": 2,
                        "limit_names": ("a", "b"),
                    }
                ],
                "prime_periods": {"a": 2, "b": 2},
            }
        else:
            expected = {
                "sampled_orders": {
                    4: {"verdict": "Contraction", "alpha_min": 0.5, "tol": 1e-9},
                    1: {"verdict": "NotContraction"},
                    2: {"verdict": "NotContraction"},
                    3: {"verdict": "NotContraction"},
                },
                "ratio_points": [{"order": 3, "point": "a", "value": 1.0}],
                "probes": [
                    {"order": 2, "stride": (4, -1), "k": 15, "target": 1.0, "tol": 1e-2}
                ],
                "solve_cases": [
                    {
                        "order": 4,
                        "start": "x1",
                        "case": "D",
                        "period": 2,
                        "limit_names": ("a", "b", "a", "b"),
                    }
                ],
                "prime_periods": {"a": 2, "b": 2},
            }
        return GalleryCase(case_id, {"a": float(a), "b": float(b)}, space, map_, (), expected)

    if case_id == "example_2_5":
        return GalleryCase(case_id, None, None, None, _class_instances(), {"class_checks": True})

    raise UnknownIdError(f"no gallery case {case_id!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class GalleryReport:
    id: str
    params: Optional[dict]
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _check(results: List[CheckResult], name: str, ok: bool, detail: str):
    results.append(CheckResult(name, bool(ok), detail))


def _run_analysis_checks(case: GalleryCase, results: List[CheckResult]):
    space, map_ = case.space, case.map_
    for n, want in case.expected.get("exact_orders", {}).items():
        rep = analysis.alpha_exact(space, map_, n)
        ok = rep.verdict.value == want["verdict"]
        if "alpha_min" in want:
            ok = ok and rep.alpha_min == want["alpha_min"]
        if want.get("all_trivial"):
            ok = ok and rep.trivial_count == len(rep.samples)
        _check(
            results,
            f"order{n}_exact",
            ok,
            f"verdict {rep.verdict.value}, alpha_min {rep.alpha_min}",
        )
    for n, want in case.expected.get("sampled_orders", {}).items():
        rep = analysis.alpha_sampled(space, map_, n, index_cap=200)
        ok = rep.verdict.value == want["verdict"]
        if "alpha_min" in want:
            ok = ok and abs(rep.alpha_min - want["alpha_min"]) <= want.get("tol", 0.0)
        if "alpha_min_at_least" in want:
            ok = ok and rep.alpha_min >= want["alpha_min_at_least"]
        _check(
            results,
            f"order{n}_sampled",
            ok,
            f"verdict {rep.verdict.value}, alpha_min {float(rep.alpha_min)}",
        )
    for want in case.expected.get("ratio_points", []):
        point = space.point_named(want["point"])
        sample = analysis.ratio(space, map_, want["order"], point)
        value = 0.0 if sample.trivial else float(sample.value)
        ok = value == want["value"]
        _check(
            results,
            f"order{want['order']}_ratio_at_{want['point']}",
            ok,
            f"ratio {value}",
        )
    for want in case.expected.get("probes", []):
        mult, off = want["stride"]
        val = analysis.ratio_limit_probe(
            space, map_, want["order"], lambda k: mult * k + off, want["k"]
        )
        ok = abs(val - want["target"]) <= want["tol"]
        _check(
            results,
            f"order{want['order']}_probe_k{want['k']}",
            ok,
            f"ratio {val}, target {want['target']} within {want['tol']}",
        )


def _run_solve_checks(case: GalleryCase, results: List[CheckResult]):
    space, map_ = case.space, case.map_
    for want in case.expected.get("solve_cases", []):
        n = want["order"]
        start = space.point_named(want["start"])
        name = f"solve_order{n}_from_{want['start']}"
        try:
            sol = solver.solve(space, map_, n, start)
        except Exception as exc:  # report instead of aborting the gallery
            _check(results, name, False, f"solver raised {type(exc).__name__}: {exc}")
            continue
        ok = sol.period == want["period"] and n % sol.period == 0
        detail = f"period {sol.period}, case {sol.case.value}"
        if "case" in want:
            ok = ok and sol.case.value == want["case"]
        if "limit_names" in want:
            targets = [space.point_named(nm) for nm in want["limit_names"]]
            gaps = [
                space.distance(lim, target)
                for lim, target in zip(sol.limits, targets)
            ]
            gap = float(max(gaps))
            ok = ok and len(sol.limits) == len(targets) and gap <= COORD_TOL
            ok = ok and sol.residual <= COORD_TOL
            detail += f", max limit gap {gap:.2e}, residual {sol.residual:.2e}"
        if want.get("crosscheck"):
            cc = oracle.crosscheck(space, map_, n, sol)
            ok = ok and cc.agree
            detail += f", crosscheck {cc.label}"
        _check(results, name, ok, detail)
    for name, period in case.expected.get("prime_periods", {}).items():
        point = case.space.point_named(name)
        got = prime_period(case.map_, point, max_p=8)
        _check(
            results,
            f"prime_period_{name}",
            got == period,
            f"prime period {got}, expected {period}",
        )


def _run_oracle_checks(case: GalleryCase, results: List[CheckResult]):
    for n, want in case.expected.get("oracle_orders", {}).items():
        res = oracle.enumerate_periodic(case.space, case.map_, n)
        got = {case.space.labels[p]: per for p, per in res.periodic}
        orbit_sets = [set(c) for c in res.orbits]
        disjoint = all(
            not (orbit_sets[i] & orbit_sets[j])
            for i in range(len(orbit_sets))
            for j in range(i + 1, len(orbit_sets))
        )
        ok = (
            got == want["periods"]
            and len(res.orbits) == want["orbit_count"]
            and disjoint
            and res.divisor_ok
        )
        _check(
            results,
            f"oracle_order{n}",
            ok,
            f"periods {got}, {len(res.orbits)} orbits, divisor_ok {res.divisor_ok}",
        )


def _run_class_checks(case: GalleryCase, results: List[CheckResult]):
    for inst in case.class_instances:
        check = analysis.check_iterated_class(
            inst.space, inst.map_, inst.order, inst.class_name, inst.alpha
        )
        bound = analysis.alpha_exact(inst.space, inst.map_, inst.order).alpha_min
        ok = check.holds and bound <= check.effective_alpha
        _check(
            results,
            f"{inst.class_name.value}_iterate_bound",
            ok,
            f"holds {check.holds}, order-{inst.order} alpha {bound} vs "
            f"effective {check.effective_alpha} (tightest {check.tightest})",
        )


def run_gallery(case_id: str, a: float = 0.0, b: float = 1.0) -> GalleryReport:
    """Execute every pinned expectation of one gallery case."""
    case = build_case(case_id, a=a, b=b)
    results: List[CheckResult] = []
    if case.class_instances:
        _run_class_checks(case, results)
    else:
        _run_analysis_checks(case, results)
        _run_oracle_checks(case, results)
        _run_solve_checks(case, results)
    return GalleryReport(case.id, case.params, tuple(results))
