"""Spans around the benchmark's calls into each layer of expectile_mf.

A traced job swaps a fixed set of module attributes for timing wrappers
(``boundaries``) and restores them afterwards, so untraced jobs run the
program exactly as shipped. Every workload calls the layers through these
module attributes, and the program's own cross-module calls resolve the same
globals, so one table covers both. The optimizer boundary is special: the
wrapper around ``pipeline.minimize`` also wraps the objective callback it is
handed, which splits optimizer time from loss-kernel time whatever form the
objective takes.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# (module, attribute, span name). A span is named after the layer that owns
# the function, not the module the attribute is swapped in.
BOUNDARIES = (
    ("expectile_mf.ingest", "read_records_csv", "ingest.read_records"),
    ("expectile_mf.ingest", "bin_records", "ingest.bin_records"),
    ("expectile_mf.ingest", "filter_and_normalize", "ingest.filter_and_normalize"),
    ("expectile_mf.ingest", "normalize", "masked.normalize"),
    ("expectile_mf.masked", "write_matrix_csv", "masked.write_matrix_csv"),
    ("expectile_mf.masked", "read_matrix_csv", "masked.read_matrix_csv"),
    ("expectile_mf.pipeline", "tau_sweep", "pipeline.tau_sweep"),
    ("expectile_mf.pipeline", "fit", "pipeline.fit"),
    ("expectile_mf.analysis", "fit", "pipeline.fit"),
    ("expectile_mf.analysis", "generate", "simulate.generate"),
    ("expectile_mf.analysis", "normalize", "masked.normalize"),
    ("expectile_mf.analysis", "compare_algorithms", "analysis.compare_algorithms"),
    ("expectile_mf.analysis", "band_curves", "analysis.band_curves"),
    ("expectile_mf.expectiles", "marginal_expectile_curves", "expectiles.marginal_expectile_curves"),
)
MINIMIZE = ("expectile_mf.pipeline", "minimize")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    id: int
    run_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded worker."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        span = Span(name, time.perf_counter(), 0.0, self._parent(), next(self._ids), self.run_id, attrs)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def _parent(self):
        return self._stack[-1] if self._stack else None

    def timed(self, name, fn):
        """fn wrapped so every call records a span; the call's result lands in attrs."""

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                _describe(result, span.attrs)
                return result

        return wrapper

    def timed_minimize(self, minimize):
        """minimize wrapped so each objective evaluation is a child span."""

        def wrapper(objective, x0, opts=None, callback=None):
            algorithm = getattr(opts, "algorithm", "lbfgs")
            with self.span("optim.minimize", algorithm=algorithm) as outer:

                def objective_span(vec):
                    start = time.perf_counter()
                    try:
                        return objective(vec)
                    finally:
                        self.spans.append(
                            Span("model.objective", start, time.perf_counter(), outer.id,
                                 next(self._ids), self.run_id)
                        )

                result = minimize(objective_span, x0, opts, callback)
                _describe(result, outer.attrs)
                return result

        return wrapper

    def write_jsonl(self, path, origin: float) -> None:
        """One span per line, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                doc = asdict(span)
                doc["start"] = span.start - origin
                doc["end"] = span.end - origin
                fh.write(json.dumps(doc) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced jobs and records nothing."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()


def _describe(result, attrs) -> None:
    # Fit reports and optimizer results carry the counters the per-layer
    # metrics need; anything else records nothing.
    for key in ("iterations", "function_evals", "status", "final_loss", "elapsed_seconds"):
        if hasattr(result, key):
            attrs[key] = getattr(result, key)


@contextlib.contextmanager
def boundaries(tracer: Tracer):
    """Swap every boundary attribute for its traced wrapper, restore on exit."""
    swapped = []
    for module_name, attr, span_name in BOUNDARIES:
        module = importlib.import_module(module_name)
        swapped.append((module, attr, getattr(module, attr)))
    module = importlib.import_module(MINIMIZE[0])
    swapped.append((module, MINIMIZE[1], getattr(module, MINIMIZE[1])))
    try:
        for (module, attr, original), (_, _, span_name) in zip(swapped, BOUNDARIES):
            setattr(module, attr, tracer.timed(span_name, original))
        module, attr, original = swapped[-1]
        setattr(module, attr, tracer.timed_minimize(original))
        yield
    finally:
        for module, attr, original in swapped:
            setattr(module, attr, original)


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - covered[span.id] for span in spans}
