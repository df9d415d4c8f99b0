"""Command-line interface.

JSON results go to stdout, a short human summary to stderr. Exit codes:
0 success (and gallery/crosscheck PASS), 1 engine or usage error (one
``{"error": ...}`` document), 2 expectation FAIL. ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import analysis, gallery, oracle, solver
from .errors import BadParamsError, GraphconError, require_kind
from .instances import load_instance, point_json
from .spaces import FiniteSpace


def _number(value) -> float:
    """An exact rational as a JSON number, infinite beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _sample_json(space, s: analysis.RatioSample) -> dict:
    return {
        "point": point_json(space, s.point),
        "numer": _number(s.numer),
        "denom": _number(s.denom),
        "status": "trivial" if s.trivial else "ratio",
        "value": None if s.trivial else _number(s.value),
    }


def _cmd_analyze(args):
    space, map_ = load_instance(args.input)
    if isinstance(space, FiniteSpace):
        report = analysis.alpha_exact(space, map_, args.order)
    else:
        report = analysis.alpha_sampled(space, map_, args.order, index_cap=args.index_cap)
    doc = {
        "order": report.order,
        "alpha_min": _number(report.alpha_min),
        "exact": report.exact,
        "verdict": report.verdict.value,
        "witness": None if report.witness is None else point_json(space, report.witness),
    }
    if args.emit_samples:
        doc["samples"] = [_sample_json(space, s) for s in report.samples]
    mode = "exact" if report.exact else f"sampled, cap={args.index_cap}"
    summary = [
        f"order {report.order}: {report.verdict.value}, "
        f"alpha_min={doc['alpha_min']} ({mode})"
    ]
    return doc, 0, summary


def _cmd_solve(args):
    space, map_ = load_instance(args.input)
    start = space.point_named(args.start)
    sol = solver.solve(
        space,
        map_,
        args.order,
        start,
        tol=args.tol,
        max_outer=args.max_outer,
    )
    doc = {
        "order": sol.order,
        "case": sol.case.value,
        "period": sol.period,
        "representative": point_json(space, sol.representative),
        "cycle": [point_json(space, p) for p in sol.cycle],
        "residual": sol.residual,
        "iterations": sol.iterations_used,
    }
    summary = [
        f"order {sol.order}: case {sol.case.value}, period {sol.period}, "
        f"residual {sol.residual:.3e}, {sol.iterations_used} map applications"
    ]
    return doc, 0, summary


def _cmd_oracle(args):
    space, map_ = load_instance(args.input)
    res = oracle.enumerate_periodic(space, map_, args.order, full_scan=args.full_scan)
    doc = {
        "periodic": [
            {"point": point_json(space, p), "period": per} for p, per in res.periodic
        ],
        "orbits": [[point_json(space, p) for p in cyc] for cyc in res.orbits],
        "divisor_ok": res.divisor_ok,
    }
    summary = [
        f"order {args.order}: {len(res.periodic)} periodic points in "
        f"{len(res.orbits)} orbits, divisor_ok={res.divisor_ok}"
    ]
    return doc, 0, summary


def _cmd_gallery(args):
    report = gallery.run_gallery(args.id, a=args.a, b=args.b)
    doc = {**dataclasses.asdict(report), "pass": report.passed}
    summary = [
        f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in report.checks
    ]
    summary.append(
        f"gallery {report.id}: {'PASS' if report.passed else 'FAIL'} "
        f"({sum(c.ok for c in report.checks)}/{len(report.checks)} checks)"
    )
    return doc, 0 if report.passed else 2, summary


def _cmd_crosscheck(args):
    space, map_ = load_instance(args.input)
    # the oracle refuses a sequence space too, but only after a solve that
    # may walk its whole budget
    require_kind("crosscheck", space, FiniteSpace)
    start = space.point_named(args.start)
    sol = solver.solve(space, map_, args.order, start)
    cc = oracle.crosscheck(space, map_, args.order, sol)
    doc = {
        "result": cc.label,
        "detail": cc.detail,
        "solver": {
            "period": sol.period,
            "representative": point_json(space, sol.representative),
            "cycle": [point_json(space, p) for p in sol.cycle],
        },
    }
    return doc, 0 if cc.agree else 2, [f"crosscheck: {cc.label} ({cc.detail})"]


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error with BadParamsError, not argparse's exit 2."""

    def error(self, message):
        raise BadParamsError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphcon",
        description="Contraction-order analysis and periodic-point solving "
        "on metric-space instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--input", required=True)
    instance.add_argument("--order", type=int, required=True)

    p = sub.add_parser(
        "analyze", parents=[instance], help="minimal contraction constant per order"
    )
    p.add_argument("--index-cap", type=int, default=200)
    p.add_argument("--emit-samples", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("solve", parents=[instance], help="find a periodic point by iteration")
    p.add_argument("--start", required=True)
    p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    p.add_argument("--max-outer", type=int, default=solver.DEFAULT_MAX_OUTER)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser(
        "oracle", parents=[instance], help="exhaustive periodic-point enumeration"
    )
    p.add_argument("--full-scan", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gallery", help="run a built-in case against its expectations")
    p.add_argument("--id", required=True, choices=gallery.GALLERY_IDS)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser(
        "crosscheck", parents=[instance], help="solver vs oracle on a finite instance"
    )
    p.add_argument("--start", required=True)
    p.set_defaults(fn=_cmd_crosscheck)

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        doc, code, summary = args.fn(args)
    except GraphconError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2))
    for line in summary:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
