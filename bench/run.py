"""graphcon benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sequence --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports graphcon from its
``src``. Set-up (imports, instance generation and files, pre-built
spaces) is timed once from the first statement of this file. Then the
workload's round of operations runs a few times untimed, and again for
``--seconds`` timed, with garbage collected before each round; every
output is checked after its round. ``--trace 1`` runs half the time
untraced and half with the tracer installed, and reports per-layer
metrics instead of the end-to-end ones. The last line of stdout is the
result object; failing operations, and the raw wall and CPU times of an
untraced run, go to stderr.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WARMUP_ROUNDS = 2
MIN_ROUNDS = 3
REFERENCE_EVERY_S = 0.05  # operation time between two reference samples


@dataclass(frozen=True)
class _Point:
    side: bool
    n: int


def _gap(p, q):
    off_p, off_q = 1.0 / (1 << p.n % 60), 1.0 / (1 << q.n % 60)
    return abs(off_p - off_q) if p.side == q.side else 1.0 + off_p + off_q


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work (a few ms) made
    of what graphcon does most: frozen dataclasses, float distances,
    ``Fraction`` arithmetic and dict look-ups.

    On a machine shared with other tenants, speed can drift by a quarter
    over tens of seconds and jump within a second, which moves wall and
    CPU times alike. Each stretch of operations is divided by this loop's
    time taken just before and just after it, which cancels most of that.
    """
    t0 = time.perf_counter()
    points = [_Point(i % 2 == 1, i) for i in range(1, 2001)]
    acc = 0.0
    for i in range(len(points) - 2):
        acc += _gap(points[i], points[i + 2]) / (_gap(points[i], points[i + 1]) + 1.0)
    best = Fraction(0)
    for i in range(1, 200):
        best = max(best, Fraction(i, 7) + Fraction(3, i))
    table = {}
    for i in range(5000):
        table[i * 7919 % 1013] = i
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of one workload's operations and tallies the outcomes."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # op name -> (known fault, first message)

    def round(self, count=True):
        """One round: (wall s, process CPU s, normalised time, operations
        that returned). Times cover the operations only, not the
        reference samples taken between them."""
        gc.collect()
        outputs = []
        wall = cpu = norm = stretch = 0.0
        ref = reference_loop()
        for i, op in enumerate(self.ops):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                outputs.append((True, op.run()))
            except Exception as exc:  # a raising operation fails, the run goes on
                outputs.append((False, exc))
            stretch += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if stretch >= REFERENCE_EVERY_S or i == len(self.ops) - 1:
                ref_after = reference_loop()
                norm += stretch / ((ref + ref_after) / 2)
                wall += stretch
                stretch, ref = 0.0, ref_after
        failed = 0
        for op, (returned, out) in zip(self.ops, outputs):
            try:
                if not returned:
                    raise out
                op.check(out)
            except Exception as exc:
                failed += 1
                self.failures.setdefault(op.name, (op.known_fault, f"{type(exc).__name__}: {exc}"))
        if count:
            self.attempted += len(self.ops)
            self.failed += failed
        return wall, cpu, norm, sum(returned for returned, _ in outputs)

    def timed(self, seconds):
        """Whole rounds until ``seconds`` have passed: one list per
        ``round`` result field."""
        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds.append(self.round())
        return [list(field) for field in zip(*rounds)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, rounds, overhead_s):
    out = {}
    for prefix, (calls, incl, self_s) in tracer.stats.items():
        out[f"{prefix}.calls"] = metric(calls / rounds, "count")
        out[f"{prefix}.ms"] = metric(incl * 1e3 / rounds, "ms")
        out[f"{prefix}.self_ms"] = metric(self_s * 1e3 / rounds, "ms")
    share = tracer.informative / tracer.samples if tracer.samples else 0.0
    out["analysis.informative_per_sample"] = metric(share, "ratio")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphcon" / "__init__.py").is_file():
        print(f"error: no graphcon sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphcon

    if Path(graphcon.__file__).resolve().parent != SRC / "graphcon":
        print(f"error: imported graphcon from {graphcon.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.BUILDERS)}")
    workdir = BENCH / "out" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    runner = Runner(workloads.BUILDERS[args.workload](random.Random(args.seed), workdir, tracer))
    setup_s = time.perf_counter() - T0

    for _ in range(WARMUP_ROUNDS):
        runner.round(count=False)
    if args.trace:
        plain_walls, _, plain_norms, _ = runner.timed(args.seconds / 2)
        tracer.install()
        try:
            runner.round(count=False)  # let the wrapped paths warm up
            tracer.reset()
            traced_norms = runner.timed(args.seconds / 2)[2]
            # The machine's drift between the two halves can exceed the
            # tracing cost, so the cost is taken from normalised times and
            # expressed in seconds of an untraced round.
            slowdown = statistics.median(traced_norms) / statistics.median(plain_norms)
            metrics = layer_metrics(tracer, len(traced_norms),
                                    statistics.median(plain_walls) * (slowdown - 1))
            tracer.record_spans = True
            base = time.perf_counter()
            runner.round(count=False)
        finally:
            tracer.uninstall()
        spans = [(i, parent, name, t0 - base, t1 - base)
                 for i, parent, name, t0, t1 in tracer.spans]
        with open(workdir / "trace.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "columns": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": spans}, fh)
    else:
        walls, cpus, norms, done = runner.timed(args.seconds)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "round_norm": metric(statistics.median(norms), "ref"),
            "ops_per_ref": metric(sum(done) / sum(norms), "op/ref"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MiB"),
        }
        # Wall and CPU times move with the shared machine's speed by more
        # than any bound allows, so they are reported but not gated.
        wall = {
            "round_s": statistics.median(walls),
            "cpu_round_s": statistics.median(cpus),
            "ops_per_s": sum(done) / sum(walls),
            "rounds": len(walls),
        }
        print("wall: " + json.dumps(wall), file=sys.stderr)

    for name, (known, message) in sorted(runner.failures.items()):
        print(f"FAIL{' (known fault)' if known else ''} {name}: {message}", file=sys.stderr)
    result = {
        "correct": all(known for known, _ in runner.failures.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(workdir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, wall=None if args.trace else wall), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
