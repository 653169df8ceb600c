"""Differential tests of the quiet-stretch skip and of active blocks: ``run``
on a static graph against a plain loop that calls ``run_round`` for every
round, and in checked runs validates every round's record, and
``run_metropolis`` against a plain loop that calls ``_step`` for every round,
compared bitwise by ``oracles.same_bits`` (floats by their bytes, so signed
zeros count); and tests of the metrics sink's contract: one call per round
run, standing for the rounds of the quiet stretch it opens, and one per
block taken as columns."""

import dataclasses
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_list, per_round_calls, same_bits
from test_engine_equivalence import THEOREM_EXPONENTS, block_elements, preset_run
from ternary_consensus import analysis, engine, metropolis
from ternary_consensus.analysis import compute_metrics, fold_sum
from ternary_consensus.cli import main
from ternary_consensus.engine import (
    MAX_ROUNDS,
    EdgeArrays,
    InitSpec,
    SimulationConfig,
    init_state,
    run,
    run_round,
    stop_reached,
)
from ternary_consensus.errors import ConfigError, InvariantViolationError
from ternary_consensus.graphs import (
    ExplicitSequence,
    GraphSnapshot,
    make_sequence,
)
from ternary_consensus.metropolis import MetropolisConfig, run_metropolis
from ternary_consensus.protocol import ProtocolParams


def per_round(cfg, stop_err=None, stop_v2=None, records=None):
    """The run as rows, final values, rounds and stop round, with every round
    executed by run_round under the run's float error state; each round's
    record is appended to records, if given. A checked run passes every
    round's record to validate_round, with no screen in front, and raises on
    the first round with a violation."""
    state = init_state(cfg)
    x = tuple(state.x.tolist())
    avg0 = fold_sum(x) / len(x)
    row = compute_metrics(x, avg0, t=0)
    w0, xinf0 = row.W, max(abs(row.M), abs(row.m))
    rows = []
    with engine.silent_float_errors():
        while not stop_reached(row, stop_err, stop_v2) and row.t < cfg.t_max:
            t = row.t + 1
            x_pre = state.x
            run_round(state, t, cfg)
            x = tuple(state.x.tolist())
            prev, row = row, compute_metrics(
                x, avg0, t=t, active_edges=state.active_edges,
                nonzero_msgs=state.nonzero_msgs,
            )
            rec = engine._record(state, t, cfg.params, x_pre, state.x)
            if records is not None:
                records.append(rec)
            if cfg.check_invariants:
                violations = engine.validate_round(
                    rec, prev, cfg.params, row=row, w0=w0, xinf0=xinf0, avg0=avg0,
                )
                if violations:
                    raise InvariantViolationError(t, violations)
            rows.append(row)
    stopped_at = row.t if stop_reached(row, stop_err, stop_v2) else None
    return rows, x, row.t, stopped_at


def assert_skip_matches(cfg, stop_err=None, stop_v2=None):
    """run with kept rows, with a sink, with neither (the jump) and with kept
    records all give the per-round loop's rows, values and stop round
    bitwise, and the kept records are bitwise the loop's records of every
    round. In a checked run the per-round loop finds no violation in any
    round, skipped rounds included."""
    records = []
    rows, x, rounds, stopped_at = per_round(cfg, stop_err, stop_v2, records)
    kept = run(cfg, stop_err=stop_err, stop_v2=stop_v2)
    sunk = []
    run(
        cfg, stop_err=stop_err, stop_v2=stop_v2, keep_metrics=False,
        metrics_sink=lambda row, xs, last: sunk.append((row, xs, last)),
    )
    sunk = per_round_calls(sunk)
    bare = run(cfg, stop_err=stop_err, stop_v2=stop_v2, keep_metrics=False)
    recorded = run(cfg, stop_err=stop_err, stop_v2=stop_v2, keep_records=True)
    assert same_bits(kept.metrics, rows)
    assert same_bits([row for row, _ in sunk], rows)
    if sunk:
        assert same_bits(sunk[-1][1], x)
    assert same_bits(recorded.metrics, rows)
    assert same_bits(recorded.records, records)
    for result in (kept, bare, recorded):
        assert same_bits(result.final_x, x)
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
    """A static run, its stop thresholds, and the block sizes to run it with:
    BLOCK_AFTER, the shortest predicted calm stretch that takes a block, and
    BLOCK_ELEMENTS. Small ones put blocks into short stretches and make them
    end on their cap of 1 or 3 rounds, followed by another block, so every
    block path is drawn often."""
    n = draw(st.integers(1, 8))
    graph = draw(st.sampled_from(("line", "complete", "drawn")))
    if graph == "drawn" or n == 1:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        seq = make_sequence("static", n, edges=sorted(edges))
    else:
        seq = make_sequence("static", n, base=graph)
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
        lo, hi = draw(st.sampled_from(((-3.0, 5.0), (0.0, 1.0))))
        init = InitSpec("uniform_random", seed=draw(st.integers(0, 1000)), lo=lo, hi=hi)
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
    sizes = (
        draw(st.sampled_from((1, 3, engine.BLOCK_AFTER))),
        block_elements(seq, draw(st.sampled_from((1, 3, None)))),
    )
    return cfg, stop_err, stop_v2, sizes


def block_sizes(mp, sizes):
    mp.setattr(engine, "BLOCK_AFTER", sizes[0])
    mp.setattr(engine, "BLOCK_ELEMENTS", sizes[1])


@given(static_runs())
@settings(max_examples=60, deadline=None)
def test_skip_matches_the_per_round_loop(case):
    cfg, stop_err, stop_v2, sizes = case
    with pytest.MonkeyPatch.context() as mp:
        block_sizes(mp, sizes)
        assert_skip_matches(cfg, stop_err, stop_v2)


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
            and same_bits(dataclasses.replace(rows[j + 1], t=head.t), head)
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
    assert same_bits(run(cfg, keep_metrics=False).final_x, (0.0, -0.0, 0.0))
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


def test_checked_and_recorded_runs_skip_and_take_blocks(monkeypatch):
    """Keeping records changes what a run keeps, not its path: a recorded
    run skips quiet stretches and computes active stretches in blocks, as a
    checked one does."""
    calls = counting_run_round(monkeypatch)
    blocks = recording_blocks(monkeypatch)
    run(dataclasses.replace(COMPLETE_8, check_invariants=True), keep_metrics=False)
    assert 0 < len(calls) < COMPLETE_8.t_max
    assert sum(k for _, _, k in blocks)
    calls.clear()
    blocks.clear()
    records = run(COMPLETE_8, keep_records=True).records
    assert 0 < len(calls) < COMPLETE_8.t_max
    assert sum(k for _, _, k in blocks)
    assert [rec.t for rec in records] == list(range(1, COMPLETE_8.t_max + 1))


def test_a_stretch_shares_one_frozen_record(monkeypatch):
    """A skipped round's record shares its parts with the record of the round
    that opens its stretch, and no part of either can be changed."""
    calls = counting_run_round(monkeypatch)
    records = run(COMPLETE_8, keep_records=True).records
    t = next(t for t in calls if t + 1 not in calls and t < COMPLETE_8.t_max)
    opening, skipped = records[t - 1], records[t]
    assert skipped.t == t + 1 and skipped.estimates is opening.estimates
    for rec in (opening, skipped):
        for field in dataclasses.fields(rec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, field.name, getattr(rec, field.name))
        for i, j in edge_list(rec.graph):
            with pytest.raises(TypeError):
                rec.estimates[i][j] = (0.0, 0.0)
            with pytest.raises(TypeError):
                rec.d_bounds[i, j] = 1.0
        with pytest.raises(TypeError):
            rec.estimates[0] = {}
        assert not any(hasattr(s, "add") for s in rec.active_sets)


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
    monkeypatch.setattr(
        engine, "screen_block",
        lambda state, params, x_pre, x_post, *a, **k: np.zeros(len(x_post), dtype=bool),
    )
    want = raised(lambda: per_round(cfg))
    t, violations = want
    assert violations == [f"quiet: round {t} repeats the values before it"]
    assert t in calls and t + 1 not in calls  # round t opens a skipped stretch
    assert raised(lambda: run(cfg)) == want
    assert raised(lambda: run(cfg, keep_metrics=False)) == want


def stepped_rounds(monkeypatch, tmp_path, argv, t_max, counter=counting_run_round):
    """Rounds stepped (run_round calls, or those of another counter) by a
    CLI run that writes t_max + 1 metrics lines."""
    calls = counter(monkeypatch)
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == t_max + 1
    return len(calls)


def test_dense_run_skips_rounds(monkeypatch, tmp_path):
    """The benchmark's dense protocol run steps only a fraction of its rounds,
    so the skip cannot switch off unnoticed."""
    argv = ["run", "--config", "fig1-complete", "--seed", "1", "--t-max", "4000"]
    assert 0 < stepped_rounds(monkeypatch, tmp_path, argv, 4000) < 4000


def test_dense_baseline_skips_rounds(monkeypatch, tmp_path):
    """The benchmark's dense baseline run steps until its values repeat
    (round 3 returns its input bitwise) and emits the other rounds' rows, so
    the baseline skip cannot switch off unnoticed."""
    argv = ["run", "--config", "fig1-complete", "--seed", "1", "--t-max", "4000",
            "--baseline"]
    assert stepped_rounds(monkeypatch, tmp_path, argv, 4000, counting_step) == 3


def test_checked_workload_skips_rounds(monkeypatch, tmp_path):
    """The benchmark's checked theorem-variant run steps only a fraction of
    its rounds, so the checked skip cannot switch off unnoticed."""
    argv = ["run", "--config", "theorem-a025-b050"]
    assert 0 < stepped_rounds(monkeypatch, tmp_path, argv, 5000) < 5000


def test_checked_workload_runs_blocks(monkeypatch, tmp_path):
    """The benchmark's checked theorem-a075-b0875 run (4,999 rounds stepped
    one by one before active blocks) runs fewer than 1,000 rounds through
    run_round, so the block path cannot switch off unnoticed."""
    argv = ["run", "--config", "theorem-a075-b0875"]
    assert 0 < stepped_rounds(monkeypatch, tmp_path, argv, 5000) < 1000


def recording_blocks(mp):
    """(t, size, k) of each active block a run computes: rounds t..t+k-1
    of at most size."""
    blocks = []
    active_block = engine._active_block

    def recorded(state, t, params, size):
        values = active_block(state, t, params, size)
        blocks.append((t, size, len(values) - 1))
        return values

    mp.setattr(engine, "_active_block", recorded)
    return blocks


def block_rounds(cfg, **stops):
    """The rounds a run computes in active blocks."""
    with pytest.MonkeyPatch.context() as mp:
        blocks = recording_blocks(mp)
        run(cfg, keep_metrics=False, **stops)
    return {s for t, _, k in blocks for s in range(t, t + k)}


LINE_6 = SimulationConfig(
    make_sequence("static", 6, base="line"),
    ProtocolParams(0.25, 0.5, "theorem"),
    InitSpec("uniform_random", seed=3, lo=-3.0, hi=5.0),
    t_max=1200,
)


@pytest.mark.parametrize("checked", [False, True])
def test_blocks_end_before_a_message_and_an_activation(checked):
    """Blocks that end early end before a round with a nonzero message and
    before a round whose active set grows; both loops agree bitwise."""
    cfg = dataclasses.replace(LINE_6, check_invariants=checked)
    with pytest.MonkeyPatch.context() as mp:
        blocks = recording_blocks(mp)
        rows = assert_skip_matches(cfg)
    events = set()
    for t, size, k in blocks:
        if k < size and t + k <= cfg.t_max:
            row, before = rows[t + k - 1], rows[t + k - 2]
            events.add(
                "message" if row.nonzero_msgs else
                "activation" if row.active_edges > before.active_edges else "other"
            )
    assert events == {"message", "activation"}


@pytest.mark.parametrize("checked", [False, True])
def test_stops_and_t_max_inside_a_block(checked):
    cfg = dataclasses.replace(LINE_6, check_invariants=checked)
    rows = per_round(cfg)[0]
    inside = block_rounds(cfg)
    t = next(t for t in sorted(inside) if {t - 2, t + 2} <= inside)
    assert_skip_matches(dataclasses.replace(cfg, t_max=t))
    assert t in block_rounds(dataclasses.replace(cfg, t_max=t))
    # each threshold is the value of a block round that first meets it
    for key, field in (("stop_err", "err_max"), ("stop_v2", "V2")):
        values = [getattr(row, field) for row in rows]
        t = next(
            t for t in sorted(inside)
            if {t - 2, t + 2} <= inside and values[t - 1] < min(values[: t - 1])
        )
        stop = {key: values[t - 1]}
        assert assert_skip_matches(cfg, **stop)[-1].t == t
        assert t in block_rounds(cfg, **stop)


@pytest.mark.parametrize("checked", [False, True])
def test_practical_blocks_match(checked):
    """The practical variant's stretches are short: with blocks tried after
    one stretch round, its blocks (no damping factor) match the loop too."""
    cfg = SimulationConfig(
        make_sequence("static", 12, base="complete"),
        ProtocolParams(0.9, 0.0, "practical"), InitSpec("uniform_random", seed=1),
        t_max=1000, check_invariants=checked,
    )
    with pytest.MonkeyPatch.context() as mp:
        block_sizes(mp, (1, 2))
        blocks = recording_blocks(mp)
        assert_skip_matches(cfg)
    assert sum(k for _, _, k in blocks) >= 10


@pytest.mark.parametrize("variant", ["theorem", "practical"])
@pytest.mark.parametrize("n", [1, 3])
def test_edgeless_runs_match(variant, n):
    params = (
        ProtocolParams(0.5, 0.75, "theorem") if variant == "theorem"
        else ProtocolParams(0.5, 0.0, "practical")
    )
    for checked in (False, True):
        assert_skip_matches(SimulationConfig(
            make_sequence("static", n, edges=[]), params,
            InitSpec("explicit", values=(0.5, -0.0, 2.0)[:n]), t_max=300,
            check_invariants=checked,
        ))


def test_a_rejected_block_round_fails_both_loops_alike(monkeypatch):
    """With the step bound's tolerance lowered so that validate_round rejects
    a round that a block computes, the block screen declines that round, and
    the run raises the per-round loop's error at the same round."""
    cfg = dataclasses.replace(LINE_6, check_invariants=True)
    records = []
    per_round(dataclasses.replace(cfg, check_invariants=False), records=records)
    inside = block_rounds(cfg)
    w0 = max(records[0].x_pre) - min(records[0].x_pre)
    beta = cfg.params.beta
    # the tolerance tol that rejects round t and no round before it, if any
    worst = -inf
    for rec in records:
        t = rec.t
        step = max(abs(b - a) for a, b in zip(rec.x_pre, rec.x_post))
        tol = step - 0.5 * w0 * t ** (-beta)
        tol = np.nextafter(tol, -inf)
        while not step > 0.5 * w0 * t ** (-beta) + tol:
            tol = np.nextafter(tol, -inf)
        if tol >= worst and t in inside:
            break
        worst = max(worst, step - 0.5 * w0 * t ** (-beta))
    else:
        raise AssertionError("no block round can be rejected first")
    monkeypatch.setattr(analysis, "STEP_TOL", float(tol))
    want = raised(lambda: per_round(cfg))
    assert want[0] == t and want[1][0].startswith("step-bound: ")
    with pytest.MonkeyPatch.context() as mp:
        blocks = recording_blocks(mp)
        assert raised(lambda: run(cfg)) == want
    assert any(b <= t < b + k for b, _, k in blocks)
    assert raised(lambda: run(cfg, keep_metrics=False)) == want


def test_a_block_round_whose_row_fails_monotone_is_checked_per_round(monkeypatch):
    """``screen_block`` leaves monotonicity to ``monotone`` over the block's
    columns: a block round that the screen clears but whose row fails
    ``monotone`` goes to validate_round, and a violation found there stops
    the run at the per-round loop's round. The patched ``monotone`` fails
    round t's row whether it gets one row or a block's columns."""
    cfg = dataclasses.replace(LINE_6, check_invariants=True)
    inside = block_rounds(cfg)
    t = sorted(inside)[len(inside) // 2]
    monotone = engine.monotone
    monkeypatch.setattr(
        engine, "monotone", lambda prev, row: (row.t != t) & monotone(prev, row)
    )
    validate_round = engine.validate_round

    def rejects_t(rec, prev_metrics, params, **facts):
        extra = [f"injected: round {t}"] if rec.t == t else []
        return validate_round(rec, prev_metrics, params, **facts) + extra

    monkeypatch.setattr(engine, "validate_round", rejects_t)
    want = raised(lambda: per_round(cfg))
    assert want == (t, [f"injected: round {t}"])
    assert raised(lambda: run(cfg, keep_metrics=False)) == want
    assert t in block_rounds(dataclasses.replace(cfg, check_invariants=False))


def counting_step(monkeypatch):
    calls = []
    step = metropolis._step

    def counted(x, arrays):
        calls.append(x)
        return step(x, arrays)

    monkeypatch.setattr(metropolis, "_step", counted)
    return calls


def metropolis_per_round(cfg, stop_err=None):
    """The baseline run as (row, values) pairs, final values, rounds and stop
    round, with every round executed by _step."""
    x = np.array(cfg.init.build(cfg.seq.n), dtype=float)
    xs = tuple(x.tolist())
    avg0 = fold_sum(xs) / len(xs)
    row = compute_metrics(xs, avg0, t=0)
    out = []
    arrays = None
    while not stop_reached(row, stop_err) and row.t < cfg.t_max:
        t = row.t + 1
        g = cfg.seq.snapshot(t)
        if arrays is None or g is not last_g:
            edges = np.array(edge_list(g), dtype=np.intp).reshape(-1, 2)
            arrays, last_g = EdgeArrays(g.n, edges, cfg.d_policy, cfg.d_fixed, t), g
        x = metropolis._step(x, arrays)
        xs = tuple(x.tolist())
        row = compute_metrics(xs, avg0, t=t, active_edges=len(g.edges))
        out.append((row, xs))
    stopped_at = row.t if stop_reached(row, stop_err) else None
    return out, xs, row.t, stopped_at


def assert_baseline_skip_matches(cfg, stop_err=None):
    """run_metropolis with kept rows, with a sink, and with neither (the
    jump) gives the per-round loop's rows, values, rounds and stop round
    bitwise; the sink gets each round's values too. Returns the per-round
    rows."""
    pairs, x, rounds, stopped_at = metropolis_per_round(cfg, stop_err)
    results = []

    def drive(*args, **kwargs):
        results.append(engine._drive(*args, **kwargs))
        return results[-1]

    sunk = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metropolis, "_drive", drive)
        kept, kept_x = run_metropolis(cfg, stop_err=stop_err)
        run_metropolis(
            cfg, stop_err=stop_err, keep_metrics=False,
            metrics_sink=lambda row, xs, last: sunk.append((row, xs, last)),
        )
        run_metropolis(cfg, stop_err=stop_err, keep_metrics=False)
    assert same_bits(kept, [row for row, _ in pairs])
    assert same_bits(per_round_calls(sunk), pairs)
    assert same_bits(kept_x, x)
    assert len(results) == 3
    for result in results:
        assert same_bits(result.final_x, x)
        assert (result.rounds, result.stopped_at) == (rounds, stopped_at)
    return [row for row, _ in pairs]


def first_repeat(rows):
    """The first round whose row repeats the one before it in all but t, the
    round a baseline run reaches its fixed point at, or None."""
    return next(
        (b.t for a, b in zip(rows, rows[1:])
         if same_bits(dataclasses.replace(a, t=b.t), b)),
        None,
    )


@st.composite
def baseline_runs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())

    def snapshot():
        return GraphSnapshot(n, frozenset(draw(edges)))

    if draw(st.integers(0, 3)):  # mostly static: the sequences that skip
        seq = ExplicitSequence((snapshot(),), "static")
    else:
        seq = ExplicitSequence(
            tuple(snapshot() for _ in range(draw(st.integers(1, 3)))), "periodic"
        )
    d_policy = draw(st.sampled_from(("max_degree", "global_n", "fixed")))
    d_fixed = draw(st.sampled_from((float(n), n + 0.5))) if d_policy == "fixed" else None
    kind = draw(st.sampled_from(("spike", "uniform_random", "explicit", "equal")))
    value = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 1e-300)),
        st.floats(-10.0, 10.0, width=64),
    )
    if kind == "spike":
        init = InitSpec("spike")
    elif kind == "uniform_random":
        init = InitSpec("uniform_random", seed=draw(st.integers(0, 1000)), lo=-3.0, hi=5.0)
    elif kind == "equal":
        init = InitSpec("explicit", values=(draw(value),) * n)
    else:
        init = InitSpec("explicit", values=draw(st.lists(value, min_size=n, max_size=n)))
    t_max = draw(st.one_of(st.just(1), st.integers(1, 600)))
    return MetropolisConfig(seq, init, t_max, d_policy, d_fixed)


@given(baseline_runs(), st.data())
@settings(max_examples=200, deadline=None)
def test_baseline_skip_matches_the_per_round_loop(cfg, data):
    """Without a threshold, and with one met at a drawn round's row (before
    the fixed point or at the values it repeats) or never met."""
    rows = [row for row, _ in metropolis_per_round(cfg)[0]]
    stop_err = data.draw(st.one_of(
        st.none(),
        st.just(0.0),
        st.sampled_from(rows).map(lambda row: row.err_max),
        st.just(rows[-1].err_max / 2),
    ))
    assert_baseline_skip_matches(cfg, stop_err)


LINE_4 = MetropolisConfig(
    ExplicitSequence((GraphSnapshot(4, frozenset({(0, 1), (1, 2), (2, 3)})),), "static"),
    InitSpec("spike"),
    t_max=400,
)


def test_baseline_stops_around_the_fixed_point(monkeypatch):
    rows = assert_baseline_skip_matches(LINE_4)
    fixed = first_repeat(rows)
    assert 3 < fixed < LINE_4.t_max
    calls = counting_step(monkeypatch)
    run_metropolis(LINE_4)
    assert len(calls) == fixed
    monkeypatch.undo()
    # met before the fixed point, met first by the values it repeats (so
    # before the fixed round), and never met
    for k in (fixed - 3, fixed - 1):
        assert assert_baseline_skip_matches(LINE_4, rows[k - 1].err_max)[-1].t <= k
    never = rows[-1].err_max / 2
    assert len(assert_baseline_skip_matches(LINE_4, never)) == LINE_4.t_max


def test_baseline_signed_zero_flip_is_a_change(monkeypatch):
    """An isolated node's -0.0 becomes +0.0 in round 1 (it adds the fold's
    +0.0), so round 1 changes the values bitwise and round 2 is the first
    that repeats its input."""
    cfg = MetropolisConfig(
        ExplicitSequence((GraphSnapshot(3, frozenset({(0, 1)})),), "static"),
        InitSpec("explicit", values=(0.5, 0.5, -0.0)),
        t_max=50,
    )
    calls = counting_step(monkeypatch)
    rows, final_x = run_metropolis(cfg)
    assert len(calls) == 2 and len(rows) == 50
    assert same_bits(final_x, (0.5, 0.5, 0.0))
    monkeypatch.undo()
    assert_baseline_skip_matches(cfg)


@pytest.mark.parametrize("n", [1, 3])
def test_baseline_edgeless_graph_repeats_from_round_1(monkeypatch, n):
    cfg = MetropolisConfig(
        ExplicitSequence((GraphSnapshot(n, frozenset()),), "static"),
        InitSpec("explicit", values=(0.25,) * n),
        t_max=30,
    )
    calls = counting_step(monkeypatch)
    run_metropolis(cfg, keep_metrics=False)
    assert len(calls) == 1
    monkeypatch.undo()
    assert_baseline_skip_matches(cfg)


@pytest.mark.parametrize("rounds", [
    # one snapshot, as a static sequence hands out, but only static ones skip
    [[(0, 1), (1, 2), (2, 3)]],
    # round 1 returns its input (nodes 0 and 1 agree) and round 2 does not
    [[(0, 1)], [(1, 2)], [(2, 3)]],
], ids=["period-1", "period-3"])
def test_baseline_on_a_periodic_sequence_steps_every_round(monkeypatch, rounds):
    cfg = dataclasses.replace(
        LINE_4, seq=make_sequence("periodic", 4, rounds=rounds),
        init=InitSpec("explicit", values=(0.0, 0.0, 1.0, 0.0)),
    )
    calls = counting_step(monkeypatch)
    run_metropolis(cfg, keep_metrics=False)
    assert len(calls) == cfg.t_max
    monkeypatch.undo()
    assert first_repeat(assert_baseline_skip_matches(cfg)) < cfg.t_max


SINK_SEQUENCES = {
    "static": make_sequence("static", 6, base="complete"),
    "periodic": make_sequence(
        "periodic", 6, rounds=[[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                               [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]],
    ),
    "relabeled_line": make_sequence("relabeled_line", 6, seed=4),
}
RUNNERS = ("run", "run_records", "run_metropolis")


def sink_config(runner, seq, t_max):
    if runner == "run_metropolis":
        return MetropolisConfig(seq, InitSpec("spike"), t_max)
    return SimulationConfig(
        seq, ProtocolParams(0.25, 0.5, "theorem", prune_horizon=2),
        InitSpec("spike"), t_max,
    )


def sink_run(monkeypatch, runner, cfg, stop_err=None):
    """The sink calls (row, values, last) of one run without kept rows, the
    number of its steps (see ``steps``), the number of rounds it computed
    (stepped, or in an active block), its kept records (run_records only)
    and its final values."""
    calls = []

    def sink(*call):
        calls.append(call)

    records = None
    blocks = []
    if runner == "run_metropolis":
        stepped = counting_step(monkeypatch)
        _, final_x = run_metropolis(
            cfg, stop_err=stop_err, metrics_sink=sink, keep_metrics=False
        )
    else:
        stepped = counting_run_round(monkeypatch)
        blocks = recording_blocks(monkeypatch)
        result = run(
            cfg, stop_err=stop_err, metrics_sink=sink, keep_metrics=False,
            keep_records=runner == "run_records",
        )
        final_x = result.final_x
        if runner == "run_records":
            records = result.records
    monkeypatch.undo()
    computed = len(stepped) + sum(k for _, _, k in blocks)
    return calls, steps(stepped, blocks), computed, records, final_x


def steps(stepped, blocks):
    """The steps of a run, from the rounds it ran with ``run_round`` and its
    (t, size, k) blocks: one per round run and one per block of at least one
    round, less the blocks opened in the step of the round t-1 that
    predicted them, which return round t-1 and the block together. A block
    that follows a block ended on its cap is a step of its own."""
    return len(stepped) + sum(1 for t, _, k in blocks if k and t - 1 not in stepped)


@pytest.mark.parametrize("kind", SINK_SEQUENCES)
@pytest.mark.parametrize("runner", RUNNERS)
def test_one_sink_call_per_round_stepped(monkeypatch, runner, kind):
    """The calls cover rounds 1..rounds once each, one call per step (a
    round run, a block, or a round run with the block it predicts; no run
    here stops or declines a block), and the rounds they stand for carry
    the rows, values and records of a loop that runs every round, bitwise."""
    cfg = sink_config(runner, SINK_SEQUENCES[kind], 1500)
    calls, stepped, computed, records, final_x = sink_run(monkeypatch, runner, cfg)
    if runner == "run_metropolis":
        pairs, x, rounds, _ = metropolis_per_round(cfg)
    else:
        want_records = []
        rows, x, rounds, _ = per_round(cfg, records=want_records)
        pairs = [(row, rec.x_post) for row, rec in zip(rows, want_records)]
    covered = [row.t for row, _ in per_round_calls(calls)]
    assert covered == list(range(1, rounds + 1))
    assert len(calls) == stepped
    assert (computed < rounds) == (kind == "static")
    assert same_bits(per_round_calls(calls), pairs)
    if runner == "run_records":
        assert same_bits(records, want_records)
    assert same_bits(final_x, x)


@pytest.mark.parametrize("runner", RUNNERS)
def test_t_max_inside_a_stretch_truncates_its_call(monkeypatch, runner):
    """With t_max inside a run's longest stretch, the calls before it are
    the same and the stretch's call ends at t_max."""
    seq = SINK_SEQUENCES["static"]
    calls = sink_run(monkeypatch, runner, sink_config(runner, seq, 1500))[0]
    stretches = [k for k, (_, x, _) in enumerate(calls) if isinstance(x, tuple)]
    k = max(stretches, key=lambda k: calls[k][2] - calls[k][0].t)
    row, x, last = calls[k]
    assert last - row.t >= 2
    t_max = (row.t + last) // 2
    cut, stepped, _, records, _ = sink_run(
        monkeypatch, runner, sink_config(runner, seq, t_max)
    )
    assert same_bits(
        per_round_calls(cut), per_round_calls(calls[:k] + [(row, x, t_max)])
    )
    assert stepped == k + 1
    if runner == "run_records":
        assert [rec.t for rec in records] == list(range(1, t_max + 1))


@pytest.mark.parametrize("kind", SINK_SEQUENCES)
@pytest.mark.parametrize("runner", RUNNERS)
def test_a_run_stopped_at_round_0_makes_no_call(monkeypatch, runner, kind):
    cfg = sink_config(runner, SINK_SEQUENCES[kind], 50)
    calls, stepped, _, records, final_x = sink_run(
        monkeypatch, runner, cfg, stop_err=1.0
    )
    assert calls == [] and stepped == 0 and records in (None, [])
    assert same_bits(final_x, cfg.init.build(6))


COVERAGE_RUNS = {
    # checked, static: stepped rounds, active blocks and quiet stretches
    "theorem-a075-b0875": lambda: preset_run("theorem-a075-b0875"),
    "theorem-a025-b050": lambda: preset_run("theorem-a025-b050"),
    # practical, static: the benchmark's dense run, which takes one block
    "fig1-complete": lambda: preset_run("fig1-complete"),
    # a generated sequence: every round stepped
    "relabeled_line": lambda: SimulationConfig(
        make_sequence("relabeled_line", 10, seed=4),
        ProtocolParams(0.25, 0.5, "theorem", prune_horizon=2),
        InitSpec("uniform_random", seed=11), 1000, check_invariants=True,
    ),
}


@pytest.mark.parametrize("name", sorted(COVERAGE_RUNS))
def test_sink_calls_cover_every_round_once(monkeypatch, name):
    """The calls, expanded into rounds by ``oracles.per_round_calls``, stand
    for rounds 1..rounds in order, with no gap and no overlap: one call per
    step, standing for a round run and the quiet stretch it opens, for a
    block, or for a round run and the block it predicts. Each round's row
    is ``compute_metrics`` of its values, bitwise, and the rows are those
    that keep_metrics keeps."""
    cfg = COVERAGE_RUNS[name]()
    stepped = counting_run_round(monkeypatch)
    blocks = recording_blocks(monkeypatch)
    calls = []
    result = run(cfg, metrics_sink=lambda *call: calls.append(call), keep_metrics=False)
    monkeypatch.undo()
    kinds = {
        "block" if isinstance(x, np.ndarray) else "stretch" if last > row.t else "round"
        for row, x, last in calls
    }
    static = name != "relabeled_line"
    assert kinds == ({"block", "stretch", "round"} if static else {"round"})
    assert len(calls) == steps(stepped, blocks)
    pairs = per_round_calls(calls)
    assert [row.t for row, _ in pairs] == list(range(1, result.rounds + 1))
    x0 = cfg.init.build(cfg.seq.n)
    avg0 = fold_sum(x0) / len(x0)
    rows = [row for row, _ in pairs]
    assert same_bits(rows, [
        compute_metrics(x, avg0, row.t, row.active_edges, row.nonzero_msgs)
        for row, x in pairs
    ])
    assert same_bits(pairs[-1][1], result.final_x)
    assert same_bits(run(cfg).metrics, rows)


def static_theorem(n, base, alpha, beta):
    return SimulationConfig(
        make_sequence("static", n, base=base), ProtocolParams(alpha, beta, "theorem"),
        InitSpec("uniform_random", seed=3), t_max=200_000,
    )


# each run's config, stop_err and screen calls, where pinned: the presets, a
# line-32 run that stops at round 778 inside a block, which then goes row by
# row, and a complete-8 run that stops at round 1,450, also inside a block
SCREEN_RUNS = {
    "fig1-complete": (lambda: preset_run("fig1-complete"), None, None),
    "theorem-a025-b050": (lambda: preset_run("theorem-a025-b050"), None, None),
    "theorem-a075-b0875": (lambda: preset_run("theorem-a075-b0875"), None, None),
    "line-32": (lambda: static_theorem(32, "line", 0.25, 0.5), 0.5, 33),
    "complete-8": (lambda: static_theorem(8, "complete", 0.5, 0.75), 0.05, 186),
}


@pytest.mark.parametrize("name", sorted(SCREEN_RUNS))
def test_a_checked_run_screens_each_step_once(monkeypatch, name):
    """A checked run makes one ``screen_block`` call per step, before it
    takes the step's rows as columns or one by one, so each round it
    computes is screened exactly once: a block that holds the stop round
    is not screened again row by row."""
    make, stop_err, calls = SCREEN_RUNS[name]
    cfg = dataclasses.replace(make(), check_invariants=True)
    stepped = counting_run_round(monkeypatch)
    blocks = recording_blocks(monkeypatch)
    screened = []
    screen_block = engine.screen_block

    def screen(state, params, x_pre, x_post, first, **facts):
        screened.append(range(first, first + len(x_post)))
        return screen_block(state, params, x_pre, x_post, first, **facts)

    monkeypatch.setattr(engine, "screen_block", screen)
    result = run(cfg, stop_err=stop_err, keep_metrics=False)
    monkeypatch.undo()
    assert len(screened) == steps(stepped, blocks)
    computed = set(stepped) | {s for t, _, k in blocks for s in range(t, t + k)}
    assert [s for rounds in screened for s in rounds] == sorted(computed)
    if calls is not None:
        assert len(screened) == calls
    if stop_err is not None:  # the stop round sits in a block
        assert any(t <= result.stopped_at < t + k for t, _, k in blocks)
