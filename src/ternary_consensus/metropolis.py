"""Real-valued averaging baseline over the same graph sequences and degree
bound policies as the ternary protocol, for side-by-side comparison."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .analysis import MetricsRow, compute_metrics
from .engine import InitSpec
from .errors import ConfigError, DivergenceError
from .graphs import GraphSequence, GraphSnapshot
from .protocol import check_d_policy, check_fixed_bound, pair_bound


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


def metropolis_round(
    x: list[float] | tuple[float, ...],
    g: GraphSnapshot,
    d_policy: str = "max_degree",
    d_fixed: float | None = None,
) -> list[float]:
    """One simultaneous averaging step: every node pulls toward each neighbor
    by (x_j - x_i) / D(i,j), with degrees counting the implicit self-loop.
    The value sum is preserved because the per-edge transfers cancel."""
    degrees = g.degrees
    n = g.n
    dx = [0.0] * n
    for i, j in g.edge_list:
        d = pair_bound(d_policy, d_fixed, n, degrees[i], degrees[j])
        flow = (x[j] - x[i]) / d
        dx[i] += flow
        dx[j] -= flow
    return [x[i] + dx[i] for i in range(n)]


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
    x = list(config.init.build(n))
    avg0 = sum(x) / n
    rows: list[MetricsRow] = []
    row = compute_metrics(x, avg0, t=0)
    if stop_err is not None and row.err_max <= stop_err:
        return rows, tuple(x)
    for t in range(1, config.t_max + 1):
        g = config.seq.snapshot(t)
        check_fixed_bound(config.d_policy, config.d_fixed, g.degrees, t)
        x = metropolis_round(x, g, config.d_policy, config.d_fixed)
        for i, v in enumerate(x):
            if not isfinite(v):
                raise DivergenceError(f"node {i} became non-finite at round {t}")
        row = compute_metrics(x, avg0, t=t, active_edges=len(g.edges))
        if metrics_sink is not None:
            metrics_sink(row)
        if keep_metrics:
            rows.append(row)
        if stop_err is not None and row.err_max <= stop_err:
            break
    return rows, tuple(x)
