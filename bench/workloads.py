"""The benchmark's three workloads, each a fixed list of checked operations.

A builder takes the run's seeded ``random.Random``, a directory for the
files it writes and the tracer, does all set-up, and returns the
operations of one round. ``Op.run`` calls graphcon through module
attributes, so the tracer's patches apply once installed; ``Op.check``
compares the output with ``reference`` and raises on any difference.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from graphcon import analysis, cli, instances, maps, oracle, solver, spaces

import reference as ref

CLUSTER_TOL = 1e-7  # graphcon's default cluster and residual tolerance
REL_TOL = 1e-9  # float sequence ratios against their exact values


class Mismatch(Exception):
    """An operation's output differs from the expected result."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


def close(value: float, exact) -> bool:
    return abs(value - float(exact)) <= REL_TOL * abs(float(exact))


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False  # fails on every run until the fault is fixed


def run_cli(argv):
    """``graphcon`` in-process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- sequence ---------------------------------------------------------------

# (family, orders, index cap). Caps stay below the float underflow of the
# offsets (index ~1070 two-phase, ~2600 four-phase).
SEQ_ANALYZE = (
    ("example_2_3", (1, 2, 3, 4), 1000),
    ("example_2_4", (1, 2, 3, 5), 500),
    ("example_2_4", (4,), 2000),
)
# Past the underflow: wrong results on today's code, counted as failures.
SEQ_FAULTS = (("example_2_3", 2), ("example_2_4", 4))
FAULT_CAP = 3000
SEQ_SOLVE = (("example_2_3", (2, 4, 6)), ("example_2_4", (4, 8, 12)))
SOLVE_STARTS = ("a", "b") + tuple(f"x{k}" for k in range(1, 41))
PROBE_KS = range(1, 41)


# Each workload also enters, once a round and in under 1 % of it, every
# traced layer its purpose does not need, so that no per-layer figure is
# a constant zero: the finite gallery cases on `sequence`, small sequence
# calls and the class-check gallery case on both finite workloads, and a
# file load on `finite-query`.
FINITE_GALLERY = ("example_2_2", "example_2_5")


def stride_2k_minus_1(k):
    return 2 * k - 1


def stride_4k_minus_1(k):
    return 4 * k - 1


def stride_4k_plus_1(k):
    return 4 * k + 1


SEQ_PROBES = (
    ("example_2_3", 1, stride_2k_minus_1),
    ("example_2_4", 2, stride_4k_minus_1),
    ("example_2_4", 3, stride_4k_plus_1),
)


def _ref_point(p):
    return p.role, p.n


def _sampled_op(name, space, shift, model, n, cap, known_fault=False):
    expected = {}

    def check(report):
        if not expected:
            ratios = model.sampled(n, cap)
            values = [r for r in ratios if r is not None]
            expected.update(
                verdict=ref.sampled_verdict(ratios),
                alpha=max(values, default=Fraction(0)),
                floats=[None if r is None else float(r) for r in ratios],
            )
        expect(report.verdict.value == expected["verdict"],
               f"verdict {report.verdict.value}, expected {expected['verdict']}")
        expect(close(report.alpha_min, expected["alpha"]),
               f"alpha_min {report.alpha_min}, expected {expected['alpha']}")
        expect(len(report.samples) == cap + 2, f"{len(report.samples)} samples")
        wrong = sum(
            (s.value is None) != (e is None) or (e is not None and not close(s.value, e))
            for s, e in zip(report.samples, expected["floats"])
        )
        expect(wrong == 0, f"{wrong} of {cap + 2} sample ratios differ")
        if report.witness is not None:
            expect(model.ratio(n, _ref_point(report.witness)) > 1,
                   f"witness {report.witness} does not exceed 1")

    return Op(name, lambda: analysis.alpha_sampled(space, shift, n, index_cap=cap),
              check, known_fault)


def _probe_op(name, space, shift, model, n, selector, k):
    def check(value):
        exact = model.ratio(n, ("x", selector(k)))
        expect(close(value, 0.0 if exact is None else exact),
               f"probe {value}, expected {exact}")

    return Op(name, lambda: analysis.ratio_limit_probe(space, shift, n, selector, k), check)


def _seq_solve_op(name, space, shift, model, n, start, tracer):
    def run():
        before = tracer.calls("maps.apply")
        sol = solver.solve(space, shift, n, start)
        return sol, tracer.calls("maps.apply") - before

    def check(out):
        sol, applies = out
        expect(sol.period == 2 and n % sol.period == 0, f"period {sol.period}")
        lims = [_ref_point(p) for p in sol.limits]
        expect(len(lims) == n, f"{len(lims)} limits")
        far = [p for p in lims if model.side_offset(p)[1] > CLUSTER_TOL]
        expect(not far, f"limits {far} not within {CLUSTER_TOL} of an anchor")
        chained = all(model.shift(lims[i]) == lims[i + 1] for i in range(n - 1))
        expect(chained and model.distance(model.shift(lims[-1]), lims[0]) <= CLUSTER_TOL,
               "limits do not chain under T")
        expect(sol.cycle == sol.limits[: sol.period], "cycle is not the first limits")
        if tracer.installed:
            proper = sum(q for q in range(1, sol.period) if n % q == 0)
            want = sol.iterations_used + n + sol.period + proper
            expect(applies == want, f"{applies} traced applications, expected {want}")

    return Op(name, run, check)


def _gallery_op(case_id, a, b):
    """The gallery command; the two finite cases take no anchors."""
    finite = case_id in FINITE_GALLERY

    def check(out):
        code, text = out
        doc = json.loads(text)
        failing = [c["name"] for c in doc["checks"] if not c["ok"]]
        expect(code == 0 and doc["pass"] and not failing, f"gallery checks {failing} fail")
        want = None if finite else {"a": a, "b": b}
        expect(doc["params"] == want, f"params {doc['params']}")

    argv = ["gallery", "--id", case_id] + ([] if finite else ["--a", repr(a), "--b", repr(b)])
    return Op(f"gallery {case_id}", lambda: run_cli(argv), check)


def _sampled_cli_op(path, model, n, cap):
    def check(out):
        code, text = out
        doc = json.loads(text)
        ratios = model.sampled(n, cap)
        alpha = max(r for r in ratios if r is not None)
        expect(code == 0 and not doc["exact"] and doc["order"] == n, f"exit {code}: {text[:200]}")
        expect(doc["verdict"] == ref.sampled_verdict(ratios) and close(doc["alpha_min"], alpha),
               f"{doc['verdict']} {doc['alpha_min']}, expected {alpha}")

    argv = ["analyze", "--input", path, "--order", str(n), "--index-cap", str(cap)]
    return Op(f"analyze {model.family} n={n} cap={cap}", lambda: run_cli(argv), check)


def _anchors(rng):
    a = round(rng.uniform(-5.0, 5.0), 6)
    return a, round(a + rng.uniform(0.25, 4.0), 6)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _family_file(workdir, fid, a, b):
    """A sequence-family instance file, as ``graphcon analyze`` reads it."""
    return _write_json(workdir / f"{fid}.json",
                       {"kind": "gallery", "id": fid, "params": {"a": a, "b": b}})


def build_sequence(rng, workdir, tracer):
    a, b = _anchors(rng)
    family = {}
    for fid in ("example_2_3", "example_2_4"):
        space = spaces.SequenceSpace(spaces.SequenceFamily(fid), a, b)
        family[fid] = (space, maps.ShiftMap(space), ref.SequenceRef(fid, a, b))
    ops = []
    for fid, orders, cap in SEQ_ANALYZE:
        for n in orders:
            ops.append(_sampled_op(f"alpha_sampled {fid} n={n} cap={cap}", *family[fid], n, cap))
    for fid, n, selector in SEQ_PROBES:
        for k in PROBE_KS:
            ops.append(_probe_op(f"probe {fid} n={n} {selector.__name__} k={k}",
                                 *family[fid], n, selector, k))
    for fid, orders in SEQ_SOLVE:
        space, shift, model = family[fid]
        for n in orders:
            for start in SOLVE_STARTS:
                ops.append(_seq_solve_op(f"solve {fid} n={n} from {start}", space, shift,
                                         model, n, space.point_named(start), tracer))
    ops += [_gallery_op(fid, a, b) for fid in family]
    path = _family_file(workdir, "example_2_3", a, b)
    ops.append(_sampled_cli_op(path, family["example_2_3"][2], 2, 200))
    ops += [_gallery_op(case_id, a, b) for case_id in FINITE_GALLERY]
    # The faulty calls do not depend on the anchors; fixed ones keep them
    # independent of the seed.
    for fid, n in SEQ_FAULTS:
        space = spaces.SequenceSpace(spaces.SequenceFamily(fid), 0.0, 1.0)
        ops.append(_sampled_op(f"alpha_sampled {fid} n={n} cap={FAULT_CAP}", space,
                               maps.ShiftMap(space), ref.SequenceRef(fid, 0.0, 1.0),
                               n, FAULT_CAP, known_fault=True))
    return ops


# -- finite instances -------------------------------------------------------


@dataclass
class Instance:
    labels: tuple
    dist: list  # exact Fraction matrix
    walk: ref.Walk
    order: int  # least multiple of the cycle lcm that covers every tail
    cache: dict  # expected results, computed on first use


def make_instance(rng, size, cycles, max_tail):
    """Random L1 metric on rational points, with a map of fixed shape.

    The map's cycles have the given lengths; every other point hangs on a
    tail of at most ``max_tail`` steps. The seed permutes the points and
    draws the integer parts of their coordinates; the shape is fixed, so
    that the work per round hardly moves with the seed.
    """
    # Every coordinate is m + 1/q in lowest terms, with q following a fixed
    # pattern: the cost of exact arithmetic on the matrix depends on the
    # denominators far more than on the integer parts the seed draws.
    coords = []
    while len(coords) < size:
        p = len(coords)
        c = tuple(rng.randint(0, 12) + Fraction(1, q) for q in (1 + p % 8, 1 + p * 3 % 8))
        if c not in coords:
            coords.append(c)
    dist = ref.l1_matrix(coords)
    node = list(range(size))
    rng.shuffle(node)  # abstract node -> point index
    images = [0] * size
    depth = [0] * size
    pos = 0
    for length in cycles:
        for i in range(length):
            images[node[pos + i]] = node[pos + (i + 1) % length]
        pos += length
    for i in range(pos, size):
        # The first tail is a full-length chain; the others hang where a
        # fixed stride lands. Only labels and distances depend on the seed.
        if i < pos + max_tail:
            parent = i - 1
        else:
            hooks = [j for j in range(i) if depth[j] < max_tail]
            parent = hooks[i * 5 % len(hooks)]
        depth[i] = depth[parent] + 1
        images[node[i]] = node[parent]
    walk = ref.Walk(images)
    lcm = walk.lcm_of_cycles()
    order = lcm * -(-max(walk.tail.values()) // lcm)
    labels = tuple(f"x{i + 1}" for i in range(size))
    return Instance(labels, dist, walk, order, {})


def _memo(inst, key, compute):
    if key not in inst.cache:
        inst.cache[key] = compute()
    return inst.cache[key]


def _alpha(inst, n):
    return _memo(inst, ("alpha", n), lambda: ref.exact_alpha(inst.dist, inst.walk, n))


def _divisor_ok(inst, n):
    return bool(inst.walk.periodic(n)) or _alpha(inst, n)[1] != "Contraction"


def _check_orbits(inst, orbits, n):
    want = {inst.walk.cycle_of[x] for x, _ in inst.walk.periodic(n)}
    expect({frozenset(c) for c in orbits} == want and len(orbits) == len(want),
           "orbits differ from the map's cycles")
    for c in orbits:
        expect(all(inst.walk.images[c[i]] == c[(i + 1) % len(c)] for i in range(len(c))),
               f"orbit {c} does not follow the map")


def _check_solution(inst, n, start, period, cycle, representative):
    want = inst.walk.cycle_of[start]
    expect(n % period == 0 and period == len(want), f"period {period}, cycle {sorted(want)}")
    expect(set(cycle) == want and representative in want,
           f"cycle {sorted(cycle)} is not the cycle {sorted(want)} reached from {start}")


def _finite_doc(inst, dist):
    return {
        "kind": "finite",
        "points": list(inst.labels),
        "distance": [[f"{d.numerator}/{d.denominator}" for d in row] for row in dist],
        "map": {inst.labels[i]: inst.labels[j] for i, j in enumerate(inst.walk.images)},
    }


# -- finite-load ------------------------------------------------------------

LOAD_SIZES = (16, 24, 32, 48)
LOAD_CYCLES = (1, 2, 3, 4)
LOAD_TAIL = 4
# by instance position; None is the instance's contracting order, so both
# verdicts occur
ANALYZE_ORDERS = (2, None, 3, None)
INVALID_SIZES = (24, 40)
TRIANGLE_MSG = re.compile(r"d\((\d+),(\d+)\) = \S+ exceeds d\(\d+,(\d+)\)")


def _analyze_cli_op(inst, path, n):
    def check(out):
        code, text = out
        doc = json.loads(text)
        alpha, verdict, witness = _alpha(inst, n)
        expect(code == 0 and doc["exact"] and doc["order"] == n, f"exit {code}: {text[:200]}")
        expect(doc["verdict"] == verdict and doc["alpha_min"] == float(alpha),
               f"{doc['verdict']} {doc['alpha_min']}, expected {verdict} {alpha}")
        expect(doc["witness"] == (None if witness is None else inst.labels[witness]),
               f"witness {doc['witness']}")

    argv = ["analyze", "--input", path, "--order", str(n)]
    return Op(f"analyze {len(inst.labels)} points n={n}", lambda: run_cli(argv), check)


def _oracle_cli_op(inst, path, n):
    def check(out):
        code, text = out
        doc = json.loads(text)
        index = {label: i for i, label in enumerate(inst.labels)}
        got = [(index[e["point"]], e["period"]) for e in doc["periodic"]]
        expect(code == 0 and got == inst.walk.periodic(n), f"periodic points {got}")
        _check_orbits(inst, [tuple(index[p] for p in c) for c in doc["orbits"]], n)
        expect(doc["divisor_ok"] is _divisor_ok(inst, n), f"divisor_ok {doc['divisor_ok']}")

    argv = ["oracle", "--input", path, "--order", str(n)]
    return Op(f"oracle {len(inst.labels)} points n={n}", lambda: run_cli(argv), check)


def _crosscheck_cli_op(inst, path, n, start):
    def check(out):
        code, text = out
        doc = json.loads(text)
        index = {label: i for i, label in enumerate(inst.labels)}
        expect(code == 0 and doc["result"] == "Agree", f"exit {code}: {doc.get('result')}")
        sol = doc["solver"]
        _check_solution(inst, n, start, sol["period"], [index[p] for p in sol["cycle"]],
                        index[sol["representative"]])

    argv = ["crosscheck", "--input", path, "--order", str(n), "--start", inst.labels[start]]
    return Op(f"crosscheck {len(inst.labels)} points n={n}", lambda: run_cli(argv), check)


def _invalid_cli_op(dist, path):
    def check(out):
        code, text = out
        err = json.loads(text).get("error", {})
        expect(code == 1 and err.get("type") == "TriangleViolationError",
               f"exit {code}, error {err}")
        found = TRIANGLE_MSG.search(err["message"])
        expect(found is not None, f"no witness in {err['message']!r}")
        i, j, k = map(int, found.groups())
        expect(ref.triangle_violated(dist, i, j, k), f"({i}, {j}, {k}) is no violation")

    argv = ["analyze", "--input", path, "--order", "2"]
    return Op(f"reject invalid {len(dist)} points", lambda: run_cli(argv), check)


def build_finite_load(rng, workdir, tracer):
    ops = []
    for pos, size in enumerate(LOAD_SIZES):
        inst = make_instance(rng, size, LOAD_CYCLES, LOAD_TAIL)
        path = _write_json(workdir / f"instance-{size}.json", _finite_doc(inst, inst.dist))
        deepest = max(range(size), key=inst.walk.tail.get)
        ops += [
            _analyze_cli_op(inst, path, ANALYZE_ORDERS[pos] or inst.order),
            _oracle_cli_op(inst, path, inst.order),
            _crosscheck_cli_op(inst, path, inst.order, deepest),
        ]
    for size in INVALID_SIZES:
        inst = make_instance(rng, size, LOAD_CYCLES, LOAD_TAIL)
        # Raising one entry pair above a detour breaks only triangles with
        # that entry on the left, all in rows i and j; i is fixed so the
        # scan up to the first violation costs the same on every seed.
        i = size // 2
        j = rng.randrange(i + 1, size)
        k = rng.choice([m for m in range(size) if m not in (i, j)])
        dist = [row[:] for row in inst.dist]
        dist[i][j] = dist[j][i] = dist[i][k] + dist[k][j] + Fraction(1, 7)
        path = _write_json(workdir / f"invalid-{size}.json", _finite_doc(inst, dist))
        ops.append(_invalid_cli_op(dist, path))
    a, b = _anchors(rng)
    fid, n, selector = SEQ_PROBES[1]
    space = spaces.SequenceSpace(spaces.SequenceFamily(fid), a, b)
    model = ref.SequenceRef(fid, a, b)
    ops += [_sampled_cli_op(_family_file(workdir, fid, a, b), model, n, 20),
            _probe_op(f"probe {fid} n={n}", space, maps.ShiftMap(space), model, n, selector, 3),
            _gallery_op("example_2_5", a, b)]
    return ops


# -- finite-query -----------------------------------------------------------

# (size, cycle lengths, longest tail). The funnel into one fixed point makes
# T^n constant at its contracting order, so every class check holds there.
QUERY_SPACES = ((30, (1,), 6), (40, (1, 2, 3, 4), 4), (50, (1, 2, 3, 4), 4),
                (60, (1, 2, 3, 4), 4))
CLASS_ALPHAS = (("banach", Fraction(1, 2)), ("kannan", Fraction(1, 3)),
                ("chatterjea", Fraction(1, 3)))
CROSSCHECK_EVERY = 3  # crosscheck every third start; each one re-enumerates
# Multiples of a contracting order contract too; the long one makes orbit
# iteration, rather than the quadratic class checks, the bulk of a round.
LONG = 4
CLASS_MAX_SIZE = 40


def _alpha_exact_op(inst, space, map_, n):
    def check(report):
        alpha, verdict, witness = _alpha(inst, n)
        expect(report.exact and len(report.samples) == len(inst.labels), "not exact")
        expect((report.alpha_min, report.verdict.value, report.witness) == (alpha, verdict, witness),
               f"{report.verdict.value} {report.alpha_min} at {report.witness}, "
               f"expected {verdict} {alpha} at {witness}")

    return Op(f"alpha_exact {len(inst.labels)} points n={n}",
              lambda: analysis.alpha_exact(space, map_, n), check)


def _class_op(inst, space, map_, n, cls, alpha):
    def check(res):
        holds, tightest = _memo(inst, (cls, n, alpha),
                                lambda: ref.class_check(inst.dist, inst.walk, n, cls, alpha))
        effective = alpha if cls == "banach" else alpha / (1 - alpha)
        expect(res.holds == holds and res.tightest == tightest and res.effective_alpha == effective,
               f"holds {res.holds} tightest {res.tightest}, expected {holds} {tightest}")
        if res.witness is not None:
            lhs, rhs = ref.class_sides(inst.dist, inst.walk, n, cls, *res.witness)
            expect(lhs > alpha * rhs, f"witness {res.witness} satisfies the {cls} inequality")
        expect((res.witness is None) == holds, f"witness {res.witness} with holds {res.holds}")

    return Op(f"{cls} {len(inst.labels)} points n={n}",
              lambda: analysis.check_iterated_class(space, map_, n, cls, alpha), check)


def _solve_op(inst, space, map_, n, start, with_crosscheck):
    def run():
        sol = solver.solve(space, map_, n, start)
        return sol, oracle.crosscheck(space, map_, n, sol) if with_crosscheck else None

    def check(out):
        sol, cc = out
        _check_solution(inst, n, start, sol.period, sol.cycle, sol.representative)
        expect(sol.residual == 0.0, f"residual {sol.residual}")
        expect(cc is None or cc.agree, f"crosscheck: {cc and cc.detail}")

    kind = "solve+crosscheck" if with_crosscheck else "solve"
    return Op(f"{kind} {len(inst.labels)} points n={n}", run, check)


def _enumerate_op(inst, space, map_, n):
    def check(res):
        expect(list(res.periodic) == inst.walk.periodic(n), f"periodic points {res.periodic}")
        _check_orbits(inst, res.orbits, n)
        expect(res.divisor_ok == _divisor_ok(inst, n), f"divisor_ok {res.divisor_ok}")

    return Op(f"enumerate {len(inst.labels)} points n={n}",
              lambda: oracle.enumerate_periodic(space, map_, n), check)


def _load_op(inst, path):
    def check(out):
        space, map_ = out
        expect(space.labels == inst.labels and list(map_.images) == inst.walk.images,
               "labels or map differ from the file")
        expect([list(row) for row in space.dist] == inst.dist, "distances differ from the file")

    return Op(f"load {len(inst.labels)} points", lambda: instances.load_instance(path), check)


def build_finite_query(rng, workdir, tracer):
    ops = []
    for size, cycles, max_tail in QUERY_SPACES:
        inst = make_instance(rng, size, cycles, max_tail)
        space = spaces.FiniteSpace.from_rows(inst.labels, inst.dist)
        map_ = maps.TableMap(space, tuple(inst.walk.images))
        n = inst.order
        ops += [_alpha_exact_op(inst, space, map_, m) for m in (1, 2, 3, n, LONG * n)]
        if size <= CLASS_MAX_SIZE:
            ops += [_class_op(inst, space, map_, n, cls, alpha) for cls, alpha in CLASS_ALPHAS]
        for m in (n, LONG * n):
            ops += [_solve_op(inst, space, map_, m, x, x % CROSSCHECK_EVERY == 0)
                    for x in range(size)]
        ops += [_enumerate_op(inst, space, map_, m) for m in (2, n, LONG * n)]
    a, b = _anchors(rng)
    ops.append(_gallery_op("example_2_5", a, b))
    for fid, n, selector in SEQ_PROBES[:2]:
        space = spaces.SequenceSpace(spaces.SequenceFamily(fid), a, b)
        shift, model = maps.ShiftMap(space), ref.SequenceRef(fid, a, b)
        ops += [_sampled_op(f"alpha_sampled {fid} n={n + 1} cap=20", space, shift, model, n + 1, 20),
                _probe_op(f"probe {fid} n={n}", space, shift, model, n, selector, 3)]
    inst = make_instance(rng, 8, LOAD_CYCLES[:2], 2)
    ops.append(_load_op(inst, _write_json(workdir / "instance-8.json", _finite_doc(inst, inst.dist))))
    return ops


BUILDERS = {
    "sequence": build_sequence,
    "finite-load": build_finite_load,
    "finite-query": build_finite_query,
}
