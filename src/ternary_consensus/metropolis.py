"""Real-valued averaging baseline over the same graph sequences and degree
bound policies as the ternary protocol, for side-by-side comparison."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .analysis import MetricsRow, compute_metrics
from .engine import (
    EdgeArrays,
    InitSpec,
    check_run_lengths,
    initial_metrics,
    stop_reached,
)
from .errors import DivergenceError
from .graphs import GraphSequence
from .protocol import check_d_policy


@dataclass(frozen=True)
class MetropolisConfig:
    seq: GraphSequence
    init: InitSpec
    t_max: int
    d_policy: str = "max_degree"
    d_fixed: float | None = None

    def __post_init__(self):
        check_d_policy(self.d_policy, self.d_fixed)
        check_run_lengths(self.seq, self.init, self.t_max)


def _step(x: np.ndarray, arrays: EdgeArrays) -> np.ndarray:
    """One simultaneous averaging step: every node pulls toward each neighbor
    by (x_j - x_i) / D(i,j), with degrees counting the implicit self-loop.
    The value sum is preserved because the per-edge transfers cancel. Each
    node adds +flow or -flow of every incident edge, in ascending peer order,
    to a sum that starts at 0.0."""
    flow = (x[arrays.ev] - x[arrays.eu]) / arrays.D
    return x + arrays.fold(flow)


def run_metropolis(
    config: MetropolisConfig,
    *,
    stop_err: float | None = None,
    metrics_sink=None,
    keep_metrics: bool = True,
) -> tuple[list[MetricsRow], tuple[float, ...]]:
    """Run the baseline for t_max rounds (or to the stop threshold), emitting
    the same metrics schema as the ternary engine.

    The baseline has no ternary messages, so nonzero_msgs is always 0 and
    active_edges counts the round's edges (every present edge participates).
    """
    x0 = config.init.build(config.seq.n)
    avg0, row = initial_metrics(x0)
    rows: list[MetricsRow] = []
    x = np.array(x0, dtype=float)
    arrays = None
    t = 0
    while not stop_reached(row, stop_err) and t < config.t_max:
        t += 1
        g = config.seq.snapshot(t)
        if arrays is None or g is not arrays.graph:
            arrays = EdgeArrays(g, config.d_policy, config.d_fixed, t)
        x = _step(x, arrays)
        xs = x.tolist()
        for i, v in enumerate(xs):
            if not isfinite(v):
                raise DivergenceError(f"node {i} became non-finite at round {t}")
        row = compute_metrics(xs, avg0, t=t, active_edges=len(g.edges))
        if metrics_sink is not None:
            metrics_sink(row)
        if keep_metrics:
            rows.append(row)
    return rows, tuple(x.tolist())
