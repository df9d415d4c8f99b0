"""Counting and timing wrappers around graphcon's layer boundaries.

The wrappers live here, outside the package: ``Tracer.install`` replaces
each traced function in every graphcon module that binds it (``analysis``
and ``solver`` import ``iterate`` from ``maps``, for example), and each
traced method on its class. A stack of child-time accumulators gives
every call's self time, its inclusive time minus the time spent in traced
calls below it.
"""

from __future__ import annotations

import sys
import time

from graphcon import analysis, cli, gallery, instances, maps, oracle, solver, spaces

# (metric prefix, owner, attribute): owner is a module for functions and a
# class for methods. Entries sharing a prefix share one set of counters.
TRACED = (
    ("spaces.validate_finite", spaces, "validate_finite"),
    ("spaces.as_fraction", spaces, "as_fraction"),
    ("spaces.distance", spaces.FiniteSpace, "distance"),
    ("spaces.distance", spaces.SequenceSpace, "distance"),
    ("spaces.x", spaces.SequenceSpace, "x"),
    ("maps.apply", maps.TableMap, "apply"),
    ("maps.apply", maps.ShiftMap, "apply"),
    ("maps.iterate", maps, "iterate"),
    ("analysis.ratio", analysis, "ratio"),
    ("analysis.alpha_exact", analysis, "alpha_exact"),
    ("analysis.alpha_sampled", analysis, "alpha_sampled"),
    ("analysis.ratio_limit_probe", analysis, "ratio_limit_probe"),
    ("analysis.check_iterated_class", analysis, "check_iterated_class"),
    ("solver.solve", solver, "solve"),
    ("solver.advance_subsequences", solver, "advance_subsequences"),
    ("solver.observe", solver.TailBoundStopper, "observe"),
    ("solver.classify_limits", solver, "classify_limits"),
    ("oracle.enumerate_periodic", oracle, "enumerate_periodic"),
    ("oracle.crosscheck", oracle, "crosscheck"),
    ("instances.load_instance", instances, "load_instance"),
    ("cli.main", cli, "main"),
    ("gallery.run_gallery", gallery, "run_gallery"),
)

LAYERS = tuple(dict.fromkeys(prefix for prefix, _, _ in TRACED))

# Called up to a million times a round: counted and timed, but kept out of
# the span record, which would otherwise outgrow memory.
UNSPANNED = frozenset((
    "spaces.as_fraction", "spaces.distance", "spaces.x", "maps.apply",
    "maps.iterate", "analysis.ratio", "solver.observe",
))
REPORTING = frozenset(("analysis.alpha_exact", "analysis.alpha_sampled"))


class Tracer:
    """Per-layer call counts, inclusive and self seconds, and optional spans.

    ``stats[prefix]`` is ``[calls, inclusive_s, self_s]``. ``samples`` and
    ``informative`` count the ratio samples of every contraction report
    and those that were not trivially satisfied. While ``record_spans`` is
    set, each call outside ``UNSPANNED`` also appends
    ``(span_id, parent_id, prefix, start_s, end_s)`` to ``spans``.
    """

    def __init__(self):
        self.stats = {prefix: [0, 0.0, 0.0] for prefix in LAYERS}
        self.samples = 0
        self.informative = 0
        self.installed = False
        self.record_spans = False
        self.spans = []
        self._stack = []  # child seconds of each open call
        self._open_spans = []
        self._originals = []

    def calls(self, prefix: str) -> int:
        return self.stats[prefix][0]

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.samples = self.informative = 0

    def _wrap(self, prefix, fn):
        st = self.stats[prefix]
        stack = self._stack
        spans = self.spans
        open_spans = self._open_spans
        spanned = prefix not in UNSPANNED
        reporting = prefix in REPORTING
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            record = spanned and self.record_spans
            if record:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
                open_spans.append(span_id)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if record:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else -1
                    spans[span_id] = (span_id, parent, prefix, t0, t1)
            if reporting:
                self.samples += len(out.samples)
                self.informative += len(out.samples) - out.trivial_count
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced name; ``uninstall`` restores the originals."""
        modules = [m for name, m in sys.modules.items()
                   if name == "graphcon" or name.startswith("graphcon.")]
        for prefix, owner, attr in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(prefix, original)
            targets = [owner]
            if isinstance(owner, type(sys)):
                targets = [m for m in modules if m.__dict__.get(attr) is original]
            for target in targets:
                self._originals.append((target, attr, original))
                setattr(target, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for target, attr, original in reversed(self._originals):
            setattr(target, attr, original)
        self._originals.clear()
        self.installed = False
