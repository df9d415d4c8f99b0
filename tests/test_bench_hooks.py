"""The benchmark's tracer patches graphcon functions by name, and its
workloads check graphcon's outputs.

A refactor that renames or moves a traced function, or changes what a
workload reads or counts, breaks the benchmark; these tests make it fail
here first. They only read ``bench/``.
"""

import importlib.util
import random
from pathlib import Path

import graphcon

from builders import two_phase

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    missing = [(prefix, attr) for prefix, owner, attr in tracer.TRACED
               if attr not in owner.__dict__]
    assert not missing


def test_install_and_uninstall_restore_originals():
    tracer = load_tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracer.TRACED]
    hooks = tracer.Tracer()
    hooks.install()
    try:
        assert hooks.installed
        graphcon.run_gallery("example_2_2")
        assert hooks.calls("gallery.run_gallery") == 1
        assert hooks.calls("solver.solve") == 2
    finally:
        hooks.uninstall()
    assert not hooks.installed
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_solve_counts_the_applications_the_benchmark_expects():
    # bench/workloads.py checks this count on every traced sequence solve:
    # the strands' applications, then n + period + the proper divisors of
    # n below the period for the verification
    tracer = load_tracer()
    space, map_ = two_phase()
    n = 2
    for start in (space.x(1), space.x(2), space.a_point):
        hooks = tracer.Tracer()
        hooks.install()
        try:
            sol = graphcon.solve(space, map_, n, start)
            applies = hooks.calls("maps.apply")
        finally:
            hooks.uninstall()
        proper = sum(q for q in range(1, sol.period) if n % q == 0)
        assert applies == sol.iterations_used + n + sol.period + proper, start


def test_traced_finite_space_counts_its_validation():
    # a FiniteSpace checks its matrix through validate_finite, so the
    # benchmark's spaces.validate_finite layer holds the validation time
    tracer = load_tracer()
    hooks = tracer.Tracer()
    hooks.install()
    try:
        graphcon.FiniteSpace.from_rows("pq", [[0, "1/2"], ["1/2", 0]])
        calls = hooks.calls("spaces.validate_finite")
    finally:
        hooks.uninstall()
    assert calls == 1


def test_one_round_of_every_workload_passes_its_checks(tmp_path, monkeypatch):
    # each workload's operations, run once and checked as the benchmark
    # checks them; sequence once more with the tracer installed, so that
    # its solves' traced apply counts are checked too
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    def failures(ops):
        failed = []
        for op in ops:
            try:
                op.check(op.run())
            except Exception as exc:  # a raising operation fails, as in a round
                if not op.known_fault:
                    failed.append((op.name, f"{type(exc).__name__}: {exc}"))
        return failed

    for name, build in workloads.BUILDERS.items():
        hooks = tracer.Tracer()
        workdir = tmp_path / name
        workdir.mkdir()
        ops = build(random.Random(1), workdir, hooks)
        assert failures(ops) == [], name
        if name == "sequence":
            hooks.install()
            try:
                assert failures(ops) == [], "sequence, traced"
            finally:
                hooks.uninstall()
