"""Real-valued averaging baseline over the same graph sequences and degree
bound policies as the ternary protocol, for side-by-side comparison."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .analysis import MetricsRow, compute_metrics
from .engine import EdgeArrays, InitSpec, check_run_lengths, initial_metrics
from .errors import ConfigError, DivergenceError
from .graphs import GraphSequence, GraphSnapshot
from .protocol import check_d_policy, check_fixed_bound


@dataclass(frozen=True)
class MetropolisConfig:
    seq: GraphSequence
    init: InitSpec
    t_max: int
    d_policy: str = "max_degree"
    d_fixed: float | None = None

    def __post_init__(self):
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        check_d_policy(self.d_policy, self.d_fixed)
        check_run_lengths(self.seq, self.init, self.t_max)


def metropolis_round(
    x: list[float] | tuple[float, ...],
    g: GraphSnapshot,
    d_policy: str = "max_degree",
    d_fixed: float | None = None,
) -> list[float]:
    """One simultaneous averaging step: every node pulls toward each neighbor
    by (x_j - x_i) / D(i,j), with degrees counting the implicit self-loop.
    The value sum is preserved because the per-edge transfers cancel."""
    return _step(np.array(x, dtype=float), EdgeArrays(g, d_policy, d_fixed)).tolist()


def _step(x: np.ndarray, arrays: EdgeArrays) -> np.ndarray:
    """metropolis_round on arrays: each node adds +flow or -flow of every
    incident edge, in ascending peer order, to a sum that starts at 0.0."""
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
    n = config.seq.n
    x0 = config.init.build(n)
    avg0, row = initial_metrics(x0)
    rows: list[MetricsRow] = []
    if stop_err is not None and row.err_max <= stop_err:
        return rows, x0
    x = np.array(x0, dtype=float)
    arrays = None
    for t in range(1, config.t_max + 1):
        g = config.seq.snapshot(t)
        if arrays is None or g is not arrays.graph:
            check_fixed_bound(config.d_policy, config.d_fixed, g.degrees, t)
            arrays = EdgeArrays(g, config.d_policy, config.d_fixed)
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
        if stop_err is not None and row.err_max <= stop_err:
            break
    return rows, tuple(x.tolist())
