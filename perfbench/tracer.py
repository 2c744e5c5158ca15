"""Spans and counts around qre's public functions, recorded from outside.

:func:`install` replaces the module attributes that qre's own modules call
through (``qre.estimator.select_code`` and so on) with wrappers, so no line
of qre changes. Spans carry a parent, are kept in memory and are written
out once by :meth:`Tracer.dump`. ``evaluate_factory`` runs thousands of
times per cold search, so it is counted on the enclosing span rather than
recorded as a span of its own.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        # (name, parent index or -1, start ns, end ns, attributes or None)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._searched: set = set()
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0]  # index, evaluate_factory calls
            self.spans.append(None)
            self._stack.append(frame)
            extra = attrs(args) if attrs else None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if extra is not None:
                    extra = extra(frame)
                self.spans[frame[0]] = (name, parent, start, end, extra)

        return wrapper

    def count_evaluations(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self._stack[-1][1] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _search_attrs(self, args):
        """Mark the first search per (qubit, code, bounds) as cold."""
        qubit, code = args[0], args[1]
        bounds = args[3] if len(args) > 3 else None
        key = (qubit, code, bounds)
        if key in self._searched:
            return None
        self._searched.add(key)
        before = resident_bytes()

        def finish(frame):
            return {
                "cold": True,
                "evaluate_calls": frame[1],
                "retained_bytes": resident_bytes() - before,
            }

        return finish

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    def start_gc(self) -> None:
        """Count collections and their pauses from now until :meth:`stop_gc`."""
        self.gc_collections = 0
        self.gc_pause_ns = 0
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def dump(self, path: str, gc_ops: int = 0) -> None:
        """Write the spans, and the GC totals over the ``gc_ops`` ops they cover."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "gc_collections": self.gc_collections,
                    "gc_pause_s": self.gc_pause_ns / 1e9,
                    "gc_ops": gc_ops,
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap qre's public call-through names so calls record into ``tracer``."""
    import qre
    import qre.cli
    import qre.counting
    import qre.distillation
    import qre.estimator
    import qre.jobs
    import qre.report

    # Each public function and every module attribute that calls reach it by.
    plan = {
        "jobs.parse_job": (qre.jobs.parse_job, [qre, qre.jobs, qre.cli], None),
        "counting.resolve": (
            qre.counting.ApplicationPreset.resolve,
            [qre.counting.ApplicationPreset],
            None,
        ),
        "report.run": (qre.report.run, [qre, qre.report, qre.cli], None),
        "report.render": (qre.report.render, [qre, qre.report, qre.cli], None),
        "estimator.estimate": (qre.estimator.estimate, [qre, qre.estimator, qre.report], None),
        "codes.select_code": (qre.estimator.select_code, [qre.estimator], None),
        "distillation.search_factory": (
            qre.estimator.search_factory,
            [qre.estimator],
            tracer._search_attrs,
        ),
    }
    for name, (fn, owners, attrs) in plan.items():
        wrapped = tracer.span(name, fn, attrs)
        attr = fn.__name__
        for owner in owners:
            setattr(owner, attr, wrapped)
    qre.distillation.evaluate_factory = tracer.count_evaluations(
        qre.distillation.evaluate_factory
    )
