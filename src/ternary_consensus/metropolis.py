"""Real-valued averaging baseline over the same graph sequences and degree
bound policies as the ternary protocol, for side-by-side comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import MetricsRow
from .engine import (
    EdgeArrays,
    InitSpec,
    _drive,
    check_known_bounds,
    check_run_lengths,
    round_arrays,
)
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
        check_known_bounds(self.seq, self.d_policy, self.d_fixed, self.t_max)


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

    A step reads only x and the snapshot's arrays, never t. So on a static
    sequence a round that returns its input bitwise (a -0.0 turned +0.0
    counts as a change) repeats forever, and ``_drive`` hands it and the
    rounds after it up to t_max to the sink in one call without running them.
    """
    seq = config.seq
    memo: dict = {}
    x = np.array(config.init.build(seq.n), dtype=float)
    static = seq.kind == "static"

    def step(t: int):
        nonlocal x
        arrays = round_arrays(seq, t, config.d_policy, config.d_fixed, memo)
        prev, x = x, _step(x, arrays)
        repeats = static and x.tobytes() == prev.tobytes()
        return x, len(arrays.ids), 0, config.t_max if repeats else t

    result = _drive(
        x, config.t_max, step,
        stop_err=stop_err, metrics_sink=metrics_sink, keep_metrics=keep_metrics,
    )
    return result.metrics, result.final_x
