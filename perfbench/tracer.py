"""Span tracing of the package's public functions, installed from outside.

Nothing in the package is edited: `traced()` rebinds each target function in
every package module that holds it (so calls through module globals are
caught) and restores the originals on exit. Spans are aggregated in memory by
(name, parent name) with call count, total time and self time (total minus
the time of child spans).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "ternary_consensus"

# (span name, defining module, attribute). A target missing from the package
# is skipped and reports zero calls, so the benchmark survives refactors
# that remove a function from the hot path.
FUNCTIONS = (
    ("protocol.compute_message", "protocol", "compute_message"),
    ("protocol.apply_messages", "protocol", "apply_messages"),
    ("protocol.active_set", "protocol", "active_set"),
    ("protocol.value_update", "protocol", "value_update"),
    ("engine.run_round", "engine", "run_round"),
    ("analysis.compute_metrics", "analysis", "compute_metrics"),
    ("analysis.validate_round", "analysis", "validate_round"),
    ("analysis.reconstruct_matrix", "analysis", "reconstruct_matrix"),
    ("analysis.validate_matrix", "analysis", "validate_matrix"),
    ("metropolis.metropolis_round", "metropolis", "metropolis_round"),
    ("config.load_config_data", "config", "load_config_data"),
    ("graphs.check_core_connected", "graphs", "check_core_connected"),
)
# Run entry points: their metrics_sink/record_sink callbacks (passed by the
# CLI) are traced as cli.metrics_sink.
RUNNERS = (
    ("engine.run", "engine", "run"),
    ("metropolis.run_metropolis", "metropolis", "run_metropolis"),
)
SINK_SPAN = "cli.metrics_sink"
SNAPSHOT_SPAN = "graphs.snapshot"


class Tracer:
    """In-memory span aggregate. `spans[(name, parent)]` is
    [calls, total_s, self_s]; `snapshot_edges` sums the edge counts of every
    snapshot handed out."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}
        self.snapshot_edges = 0
        self._stack: list[list] = []  # [name, child seconds]

    def wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans

        def traced_call(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else "")
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]

        return traced_call

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.spans.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(a[1] for (n, _), a in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[2] for (n, _), a in self.spans.items() if n == name)


def _rebind(modules, original, replacement, saved):
    for mod in modules:
        names = [k for k, v in vars(mod).items() if v is original]
        for k in names:
            saved.append((mod, k, original))
            setattr(mod, k, replacement)


@contextmanager
def traced(tracer: Tracer):
    """Install `tracer` around the package's public functions for the
    duration of the block."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    saved: list[tuple[object, str, object]] = []

    def with_traced_sinks(fn):
        def call(*args, **kwargs):
            for key in ("metrics_sink", "record_sink"):
                if kwargs.get(key) is not None:
                    kwargs[key] = tracer.wrap(SINK_SPAN, kwargs[key])
            return fn(*args, **kwargs)

        return call

    try:
        for span, mod, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), attr, None)
            if fn is not None:
                _rebind(modules, fn, tracer.wrap(span, fn), saved)
        for span, mod, attr in RUNNERS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), attr, None)
            if fn is not None:
                _rebind(modules, fn, tracer.wrap(span, with_traced_sinks(fn)), saved)

        seq_cls = sys.modules[f"{PACKAGE}.graphs"].GraphSequence
        snapshot = seq_cls.snapshot
        traced_snapshot = tracer.wrap(SNAPSHOT_SPAN, snapshot)

        def counted_snapshot(self, t):
            g = traced_snapshot(self, t)
            tracer.snapshot_edges += len(g.edges)
            return g

        saved.append((seq_cls, "snapshot", snapshot))
        seq_cls.snapshot = counted_snapshot
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
