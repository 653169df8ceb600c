"""Differential tests of the quiet-stretch skip: ``run`` on a static graph
against a plain loop that calls ``run_round`` for every round, and in checked
runs validates every round's record, compared bitwise (floats by float.hex,
so signed zeros count)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_equivalence import THEOREM_EXPONENTS, bits
from ternary_consensus import engine
from ternary_consensus.analysis import compute_metrics, fold_sum
from ternary_consensus.cli import main
from ternary_consensus.engine import (
    MAX_ROUNDS,
    InitSpec,
    SimulationConfig,
    init_state,
    run,
    run_round,
    stop_reached,
)
from ternary_consensus.errors import ConfigError, InvariantViolationError
from ternary_consensus.graphs import make_sequence
from ternary_consensus.protocol import ProtocolParams


def per_round(cfg, stop_err=None, stop_v2=None):
    """The run as rows, final values, rounds and stop round, with every round
    executed by run_round. A checked run passes every round's record to
    validate_round, with no screen in front, and raises on the first round
    with a violation."""
    state = init_state(cfg)
    x = tuple(state.x.tolist())
    avg0 = fold_sum(x) / len(x)
    row = compute_metrics(x, avg0, t=0)
    w0, xinf0 = row.W, max(abs(row.M), abs(row.m))
    rows = []
    while not stop_reached(row, stop_err, stop_v2) and row.t < cfg.t_max:
        t = row.t + 1
        run_round(state, t, cfg)
        x = tuple(state.x.tolist())
        prev, row = row, compute_metrics(
            x, avg0, t=t, active_edges=state.active_edges,
            nonzero_msgs=state.nonzero_msgs,
        )
        if cfg.check_invariants:
            violations = engine.validate_round(
                engine._record(state, t, cfg.params), prev, cfg.params,
                row=row, w0=w0, xinf0=xinf0, avg0=avg0,
            )
            if violations:
                raise InvariantViolationError(t, violations)
        rows.append(row)
    stopped_at = row.t if stop_reached(row, stop_err, stop_v2) else None
    return rows, x, row.t, stopped_at


def assert_skip_matches(cfg, stop_err=None, stop_v2=None):
    """run with kept rows, with a sink, and with neither (the jump) all give
    the per-round loop's rows, values and stop round bitwise. In a checked
    run the per-round loop finds no violation in any round, skipped rounds
    included."""
    rows, x, rounds, stopped_at = per_round(cfg, stop_err, stop_v2)
    kept = run(cfg, stop_err=stop_err, stop_v2=stop_v2)
    sunk = []
    run(
        cfg, stop_err=stop_err, stop_v2=stop_v2, keep_metrics=False,
        metrics_sink=lambda row, xs: sunk.append((row, xs)),
    )
    bare = run(cfg, stop_err=stop_err, stop_v2=stop_v2, keep_metrics=False)
    assert bits(kept.metrics) == bits(rows)
    assert bits([row for row, _ in sunk]) == bits(rows)
    if sunk:
        assert bits(sunk[-1][1]) == bits(x)
    for result in (kept, bare):
        assert bits(result.final_x) == bits(x)
        assert (result.rounds, result.stopped_at) == (rounds, stopped_at)
    return rows


def counting_run_round(monkeypatch):
    calls = []

    def counted(state, t, config):
        calls.append(t)
        run_round(state, t, config)

    monkeypatch.setattr(engine, "run_round", counted)
    return calls


@st.composite
def static_runs(draw):
    n = draw(st.integers(2, 8))
    seq = make_sequence("static", n, base=draw(st.sampled_from(("line", "complete"))))
    d_policy = draw(st.sampled_from(("max_degree", "global_n", "fixed")))
    d_fixed = draw(st.sampled_from((float(n), n + 0.5))) if d_policy == "fixed" else None
    prune = draw(st.one_of(st.none(), st.integers(1, 5)))
    if draw(st.booleans()):
        alpha, beta = draw(st.sampled_from(THEOREM_EXPONENTS))
        params = ProtocolParams(alpha, beta, "theorem", d_policy, d_fixed, prune)
    else:
        alpha = draw(st.sampled_from((0.5, 0.9)))
        params = ProtocolParams(alpha, 0.0, "practical", d_policy, d_fixed, prune)
    kind = draw(st.sampled_from(("spike", "uniform_random", "explicit")))
    if kind == "spike":
        init = InitSpec("spike")
    elif kind == "uniform_random":
        init = InitSpec("uniform_random", seed=draw(st.integers(0, 1000)), lo=-3.0, hi=5.0)
    else:
        value = st.one_of(
            st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300)),
            st.floats(-10.0, 10.0, width=64),
        )
        init = InitSpec("explicit", values=draw(st.lists(value, min_size=n, max_size=n)))
    cfg = SimulationConfig(
        seq, params, init, t_max=draw(st.integers(1, 1200)),
        check_invariants=draw(st.booleans()),
    )
    stop_err = draw(st.sampled_from((None, None, 0.3, 0.1, 0.02)))
    stop_v2 = draw(st.sampled_from((None, None, 0.3, 0.1, 0.02)))
    return cfg, stop_err, stop_v2


@given(static_runs())
@settings(max_examples=40, deadline=None)
def test_skip_matches_the_per_round_loop(case):
    assert_skip_matches(*case)


def stretches(rows):
    """(first, last) rounds of each maximal run of at least two rows that
    repeat a quiet row in all but t."""
    out = []
    k = 0
    while k < len(rows):
        head = rows[k]
        j = k
        while (
            j + 1 < len(rows)
            and head.nonzero_msgs == head.active_edges == 0
            and bits(rows[j + 1])[1][1:] == bits(head)[1][1:]
        ):
            j += 1
        if j > k:
            out.append((head.t, rows[j].t))
        k = j + 1
    return out


COMPLETE_8 = SimulationConfig(
    make_sequence("static", 8, base="complete"),
    ProtocolParams(0.25, 0.5, "theorem", prune_horizon=2),
    InitSpec("spike"),
    t_max=3000,
)


def test_t_max_and_stops_inside_a_stretch():
    rows = per_round(COMPLETE_8)[0]
    first, last = max(stretches(rows), key=lambda s: s[1] - s[0])
    assert last - first > COMPLETE_8.params.prune_horizon
    for checked in (False, True):
        cfg = dataclasses.replace(COMPLETE_8, check_invariants=checked)
        assert_skip_matches(dataclasses.replace(cfg, t_max=(first + last) // 2))
        # a quiet round repeats the values of the round before it, so a
        # threshold that a stretch's rows meet stops the run before the stretch
        head = rows[first - 1]
        for stop in ({"stop_err": head.err_max}, {"stop_v2": head.V2}):
            assert assert_skip_matches(cfg, **stop)[-1].t < first


def test_exact_consensus_skips_to_t_max(monkeypatch):
    cfg = SimulationConfig(
        make_sequence("static", 3, base="complete"),
        ProtocolParams(0.5, 0.75, "theorem"),
        InitSpec("explicit", values=(0.0, -0.0, 0.0)),
        t_max=500,
    )
    calls = counting_run_round(monkeypatch)
    assert bits(run(cfg, keep_metrics=False).final_x) == bits((0.0, -0.0, 0.0))
    assert calls == [1]
    # the jump costs one round whatever the budget
    assert run(dataclasses.replace(cfg, t_max=MAX_ROUNDS), keep_metrics=False).rounds == 2**53
    assert calls == [1, 1]
    with pytest.raises(ConfigError, match=r"run.t_max: must be <= 2\*\*53"):
        dataclasses.replace(cfg, t_max=MAX_ROUNDS + 1)
    monkeypatch.undo()
    assert_skip_matches(cfg)


def test_overflowing_bound_skips_to_t_max(monkeypatch):
    """d_max = 1e-300 puts (1/d_max) ** (1/alpha) beyond the float range."""
    cfg = SimulationConfig(
        make_sequence("static", 3, base="line"),
        ProtocolParams(0.25, 0.5, "theorem"),
        InitSpec("explicit", values=(1e-300, 0.0, 0.0)),
        t_max=400,
    )
    with pytest.raises(OverflowError):
        (1 / 1e-300) ** (1 / 0.25)
    calls = counting_run_round(monkeypatch)
    result = run(cfg)
    assert calls == [1] and result.rounds == 400
    monkeypatch.undo()
    assert_skip_matches(cfg)


def test_checked_runs_skip_and_recorded_runs_run_every_round(monkeypatch):
    calls = counting_run_round(monkeypatch)
    run(dataclasses.replace(COMPLETE_8, check_invariants=True), keep_metrics=False)
    assert 0 < len(calls) < COMPLETE_8.t_max
    calls.clear()
    assert len(run(COMPLETE_8, keep_records=True).records) == COMPLETE_8.t_max
    assert len(calls) == COMPLETE_8.t_max


def raised(call):
    with pytest.raises(InvariantViolationError) as exc:
        call()
    return exc.value.t, exc.value.violations


def test_a_rejected_quiet_round_fails_both_loops_alike(monkeypatch):
    """A checker that rejects every quiet round (no nonzero message, the
    values before it repeated) stops the skipping run at the per-round loop's
    round, with its messages: the quiet round that opens a stretch is still
    checked."""
    cfg = dataclasses.replace(
        COMPLETE_8, init=InitSpec("explicit", values=(2.0,) + (0.0,) * 7),
        check_invariants=True,
    )
    calls = counting_run_round(monkeypatch)
    run(cfg, keep_metrics=False)
    monkeypatch.undo()
    real = engine.validate_round

    def rejects_quiet(rec, prev_metrics, params, **facts):
        out = real(rec, prev_metrics, params, **facts)
        if rec.x_post == rec.x_pre and not any(m.q for m in rec.messages):
            out.append(f"quiet: round {rec.t} repeats the values before it")
        return out

    monkeypatch.setattr(engine, "validate_round", rejects_quiet)
    monkeypatch.setattr(engine, "screen_round", lambda *args, **kwargs: False)
    want = raised(lambda: per_round(cfg))
    t, violations = want
    assert violations == [f"quiet: round {t} repeats the values before it"]
    assert t in calls and t + 1 not in calls  # round t opens a skipped stretch
    assert raised(lambda: run(cfg)) == want
    assert raised(lambda: run(cfg, keep_metrics=False)) == want


def stepped_rounds(monkeypatch, tmp_path, argv, t_max):
    """run_round calls of a CLI run that writes t_max + 1 metrics lines."""
    calls = counting_run_round(monkeypatch)
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == t_max + 1
    return len(calls)


def test_dense_run_skips_rounds(monkeypatch, tmp_path):
    """The benchmark's dense protocol run steps only a fraction of its rounds,
    so the skip cannot switch off unnoticed."""
    argv = ["run", "--config", "fig1-complete", "--seed", "1", "--t-max", "4000"]
    assert 0 < stepped_rounds(monkeypatch, tmp_path, argv, 4000) < 4000


def test_checked_workload_skips_rounds(monkeypatch, tmp_path):
    """The benchmark's checked theorem-variant run steps only a fraction of
    its rounds, so the checked skip cannot switch off unnoticed."""
    argv = ["run", "--config", "theorem-a025-b050"]
    assert 0 < stepped_rounds(monkeypatch, tmp_path, argv, 5000) < 5000
