"""Threshold oracle for the quiet bound: states whose largest quantizer input
d, or largest gap g, sits a few ulps either side of the round-s0 threshold
1/s0^alpha (4/s0^alpha for the gap), where random states almost never land.

``_quiet_until`` promises that every round up to the bound it returns stays
quiet. Each case runs the engine's own rounds over a window of rounds ending
at that bound and requires them all to be quiet, so a margin that does not
cover the rounding of ``s**alpha``, of the products and of the power fails
here (``QUIET_MARGIN = 1.0`` does, for several percent of these states). It
also requires the bound to give away few rounds: about s0 * 1e-9 / alpha.
"""

import random
from math import floor

import numpy as np
import pytest

from ternary_consensus import engine
from ternary_consensus.engine import (
    MAX_ROUNDS,
    InitSpec,
    SimulationConfig,
    init_state,
    run_round,
)
from ternary_consensus.graphs import make_sequence
from ternary_consensus.protocol import ProtocolParams, round_scales

WINDOW = 16  # rounds run below each bound, the bound included
ULPS = range(-4, 5)

_rng = random.Random(20121)
# (s0, alpha): corners first (s0 near 2**53, alpha near 0 and near 1), then
# s0 log-uniform up to 2**53 with alpha uniform in (0, 1)
CASES = [
    (s0, alpha)
    for s0 in (2, 3, 4097, 9_999_991, 2**53 - 12_345, 2**53 - 1)
    for alpha in (1e-3, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 2.0**-30)
] + [
    (floor(2.0 ** _rng.uniform(1.0, 53.0)), _rng.uniform(0.01, 0.99))
    for _ in range(40)
]


def quiet_state(alpha: float, x: tuple[float, float], est: tuple[float, float]):
    """One edge (0, 1) after a quiet round 1, with node values x and the
    ledger pair est = (a, b): the quantizer inputs over s^alpha are x0 - a
    and x1 - b, the gap is b - a. Runs may go to round 2**53."""
    cfg = SimulationConfig(
        make_sequence("static", 2, edges=[(0, 1)]),
        ProtocolParams(alpha, 0.0, "practical"),
        InitSpec("explicit", values=x),
        t_max=MAX_ROUNDS,
    )
    state = init_state(cfg)
    state.est[0] = est
    run_round(state, 1, cfg)
    assert state.nonzero_msgs == state.active_edges == 0
    return state, cfg


def ulps_from(value: float, k: int) -> float:
    """value moved k ulps up (k > 0) or down (k < 0)."""
    direction = np.inf if k > 0 else 0.0
    for _ in range(abs(k)):
        value = float(np.nextafter(value, direction))
    return value


def assert_quiet_through(state, cfg, last: int) -> None:
    """The engine runs rounds last-WINDOW..last from the state and every one
    is quiet: no nonzero message and no active pair."""
    for s in range(max(2, last - WINDOW), last + 1):
        run_round(state, s, cfg)
        assert state.nonzero_msgs == state.active_edges == 0, (
            f"round {s} of the stretch to {last} is not quiet"
        )


@pytest.mark.parametrize("gap", [False, True], ids=["input", "gap"])
def test_the_bound_holds_at_the_threshold(gap):
    with engine.silent_float_errors():
        for s0, alpha in CASES:
            threshold = round_scales(s0, alpha)[2 if gap else 1]
            for k in ULPS:
                d = ulps_from(threshold, k)
                # input: x0 - a = d, x1 - b = 0, no gap; gap: both inputs 0
                x, est = ((0.0, d), (0.0, d)) if gap else ((d, 0.0), (0.0, 0.0))
                state, cfg = quiet_state(alpha, x, est)
                last = engine._quiet_until(state, 1, alpha, MAX_ROUNDS)
                assert_quiet_through(state, cfg, last)
                # the margin gives away about s0 * 1e-9 / alpha rounds
                assert last >= min(floor(s0 * (1.0 - 3e-9 / alpha)) - 2, MAX_ROUNDS)


@pytest.mark.parametrize(
    "alpha,x,est",
    [
        (0.5, (0.0, 0.0), (0.0, 0.0)),  # no difference left: 1/0 is inf
        (0.9, (1e-300, 0.0), (0.0, 0.0)),  # (1/d) ** (1/alpha) overflows
        (0.01, (0.0, 5e-324), (0.0, 5e-324)),  # a subnormal gap
        (1.0 - 2.0**-30, (2.0**-53, 0.0), (0.0, 0.0)),  # 2**53 just beyond reach
    ],
    ids=["no-difference", "power-overflows", "subnormal-gap", "past-2**53"],
)
def test_a_bound_past_the_float_range_or_2_53_reaches_t_max(alpha, x, est):
    with engine.silent_float_errors():
        state, cfg = quiet_state(alpha, x, est)
        last = engine._quiet_until(state, 1, alpha, MAX_ROUNDS)
        assert last == MAX_ROUNDS
        assert_quiet_through(state, cfg, last)
