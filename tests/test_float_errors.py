"""The run loop owns numpy's float error state.

``engine._drive`` enters ``silent_float_errors`` once around its loop:
``run_round``, the invariant screen, the quiet-stretch bound and the
baseline step compute in it without numpy warnings, and the caller's state
comes back on every way out of ``run`` and ``run_metropolis``: a normal
end, a stop at round 0, t_max inside a quiet stretch, and each error a run
can raise. The caller here raises on overflow, invalid operations and
division by zero, so any of those computed outside the loop's state would
surface as a FloatingPointError.
"""

import numpy as np
import pytest

from oracles import per_round_calls
from test_invariant_screen import equal_endpoints
from ternary_consensus import engine, metropolis
from ternary_consensus.engine import InitSpec, SimulationConfig, run
from ternary_consensus.errors import (
    DivergenceError,
    InvariantViolationError,
    PolicyViolationError,
)
from ternary_consensus.graphs import make_sequence
from ternary_consensus.metropolis import MetropolisConfig, run_metropolis
from ternary_consensus.protocol import ProtocolParams

PRACTICAL_09 = ProtocolParams(alpha=0.9, beta=0.0, variant="practical")
THEOREM_FAST = ProtocolParams(alpha=0.25, beta=0.5, variant="theorem")
CALLER = {"over": "raise", "invalid": "raise", "divide": "raise"}


class SinkFailed(Exception):
    pass


def _sim(seq, values, t_max, params=PRACTICAL_09, **kw):
    init = InitSpec("explicit", values=values) if values else InitSpec("spike")
    return SimulationConfig(seq, params, init, t_max, **kw)


def _complete(n):
    return make_sequence("static", n, base="complete")


def _overflowing_step(monkeypatch):
    def step(x, arrays):
        return x * 1e300 * 1e300

    monkeypatch.setattr(metropolis, "_step", step)


def _failing_sink(row, x, last):
    if any(r.t == 3 for r, _ in per_round_calls([(row, x, last)])):
        raise SinkFailed


# (runner, config, stop_err, monkeypatch setup, sink, expected exception)
EXITS = {
    "run-end": (run, _sim(_complete(4), None, 30), None, None, None, None),
    "run-stop-at-0": (run, _sim(_complete(4), None, 30), 1.0, None, None, None),
    # all values and estimates 0: round 1 opens a stretch that reaches t_max
    "run-tmax-in-stretch": (
        run, _sim(_complete(3), (0.0, 0.0, 0.0), 1000), None, None, None, None,
    ),
    # t^0.9 * (x - x_out) overflows at round 3
    "run-divergence": (
        run, _sim(make_sequence("static", 2, edges=[(0, 1)]), (8e307, 8e307), 5),
        None, None, None, DivergenceError,
    ),
    "run-invariant": (
        run,
        _sim(_complete(4), (3.0, -2.0, 1.5, 0.25), 40, THEOREM_FAST,
             check_invariants=True),
        None, equal_endpoints, None, InvariantViolationError,
    ),
    # a relabeled line has pair degree 3 from round 1: checked as it runs
    "run-policy": (
        run,
        _sim(make_sequence("relabeled_line", 5, seed=1), None, 10,
             ProtocolParams(0.25, 0.5, "theorem", "fixed", 2.0)),
        None, None, None, PolicyViolationError,
    ),
    "run-sink": (
        run, _sim(make_sequence("static", 6, base="line"), None, 30), None, None,
        _failing_sink, SinkFailed,
    ),
    "baseline-end": (
        run_metropolis,
        MetropolisConfig(make_sequence("static", 4, base="line"), InitSpec("spike"), 30),
        None, None, None, None,
    ),
    "baseline-stop-at-0": (
        run_metropolis,
        MetropolisConfig(_complete(4), InitSpec("spike"), 30), 1.0, None, None, None,
    ),
    # complete-2 averages exactly in round 1 and repeats from round 2
    "baseline-tmax-in-stretch": (
        run_metropolis,
        MetropolisConfig(_complete(2), InitSpec("spike"), 1000),
        None, None, None, None,
    ),
    "baseline-divergence": (
        run_metropolis,
        MetropolisConfig(_complete(3), InitSpec("spike"), 5),
        None, _overflowing_step, None, DivergenceError,
    ),
    "baseline-policy": (
        run_metropolis,
        MetropolisConfig(make_sequence("relabeled_line", 5, seed=1),
                         InitSpec("spike"), 10, "fixed", 2.0),
        None, None, None, PolicyViolationError,
    ),
    "baseline-sink": (
        run_metropolis,
        MetropolisConfig(make_sequence("static", 6, base="line"), InitSpec("spike"), 30),
        None, None, _failing_sink, SinkFailed,
    ),
}


@pytest.mark.parametrize("name", EXITS)
def test_a_run_enters_the_silent_state_once_and_restores_the_callers(
    monkeypatch, name
):
    runner, cfg, stop_err, setup, sink, error = EXITS[name]
    if setup is not None:
        setup(monkeypatch)
    entered = []
    real = engine.silent_float_errors

    def counted():
        entered.append(1)
        return real()

    monkeypatch.setattr(engine, "silent_float_errors", counted)
    inside = []

    def watch(row, x, last):
        inside.append(np.geterr())
        if sink is not None:
            sink(row, x, last)

    with np.errstate(**CALLER):
        before = np.geterr()
        if error is None:
            runner(cfg, stop_err=stop_err, metrics_sink=watch)
        else:
            with pytest.raises(error):
                runner(cfg, stop_err=stop_err, metrics_sink=watch)
        assert np.geterr() == before
    assert len(entered) == 1
    with real():
        silent = np.geterr()
    assert inside == [silent] * len(inside)
    assert inside or stop_err is not None or error is not None


def test_the_silent_state_leaves_underflow_to_the_caller():
    with np.errstate(under="warn"), engine.silent_float_errors():
        assert np.geterr() == {
            "divide": "ignore", "over": "ignore", "under": "warn", "invalid": "ignore"
        }
