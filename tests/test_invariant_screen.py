"""The invariant screen against the record checker.

``analysis.screen_block``, with ``monotone`` on the round's row, may clear a
round only if ``validate_round`` on that round's record finds nothing. The
property test drives the engine round by round on small runs, screens each
round as a block of one row, corrupts some rounds' state or checker inputs
(the values before the round among them) after they run, and asserts that
implication for every round. The end-to-end tests pin the fallback: a round
the screen declines raises the record checker's message, a clean checked
run builds no record, and a kept-records run builds one record per round it
runs and gives each skipped round its stretch's.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ternary_consensus.engine as engine_mod
from oracles import same_bits
from test_engine_equivalence import block_elements, preset_run
from test_quiet_skip import per_round
from ternary_consensus import analysis
from ternary_consensus.analysis import (
    compute_metrics,
    fold_sum,
    monotone,
    screen_block,
    validate_round,
)
from ternary_consensus.engine import (
    InitSpec,
    SimulationConfig,
    _record,
    init_state,
    run,
    run_round,
    silent_float_errors,
)
from ternary_consensus.errors import DivergenceError, InvariantViolationError
from ternary_consensus.graphs import make_sequence
from ternary_consensus.protocol import ProtocolParams

THEOREM_EXPONENTS = ((0.25, 0.5), (0.5, 0.75), (0.75, 0.875))
# corruptions of a round's state after it ran, or of the checker's inputs;
# those of the update matrix wait for a round with an active pair
MATRIX_CORRUPTIONS = (
    "x_pre", "equal_ends", "flip_gap", "halve_D", "eighth_D", "shrink_D",
)
D_FACTORS = {"halve_D": 0.5, "eighth_D": 0.125, "shrink_D": 1e-12}
CORRUPTIONS = MATRIX_CORRUPTIONS + (
    "x_post", "est", "prev_M", "prev_m", "prev_V2", "w0", "xinf0", "avg0",
)
# a nan delta makes the corrupted value nan, which every clause must decline
DELTAS = (1e-13, 3e-12, 1e-9, 1e-3, 0.1, 0.5, 0.9, float("nan"))


def clears(state, params, x_pre, x_post, prev_row, *, row, **facts):
    """The verdict of a checked run on a round that left ``state``, with the
    values x_pre before it and x_post after it: its row passes ``monotone``
    and ``screen_block`` clears it as a block of one row."""
    return bool(monotone(prev_row, row)) and bool(screen_block(
        state, params, x_pre[None], x_post[None], row.t, **facts
    )[0])


@st.composite
def cases(draw):
    n = draw(st.integers(2, 8))
    t_max = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("line", "complete", "periodic", "explicit", "core")))
    pairs = list(itertools.combinations(range(n), 2))
    # empty subsets give edgeless rounds
    subsets = st.lists(st.sampled_from(pairs), max_size=len(pairs))
    prune = None
    if kind in ("line", "complete"):
        seq = make_sequence("static", n, base=kind)
    elif kind == "periodic":
        seq = make_sequence(
            "periodic", n, rounds=draw(st.lists(subsets, min_size=1, max_size=4))
        )
    elif kind == "explicit":
        rounds = draw(st.lists(subsets, min_size=t_max, max_size=t_max))
        seq = make_sequence("explicit", n, rounds=rounds)
    else:
        perm = draw(st.permutations(range(n)))
        core = [(perm[k], perm[draw(st.integers(0, k - 1))]) for k in range(1, n)]
        seq = make_sequence(
            "core_synthetic", n, draw(st.integers(0, 2**32)), core_edges=core,
            block_len=draw(st.integers(1, 4)),
            extra_edge_prob=draw(st.sampled_from((0.0, 0.2, 0.5))),
        )
        prune = draw(st.one_of(st.none(), st.integers(1, 4)))
    d_policy = draw(st.sampled_from(("max_degree", "global_n")))
    if draw(st.booleans()):
        alpha, beta = draw(st.sampled_from(THEOREM_EXPONENTS))
        params = ProtocolParams(alpha, beta, "theorem", d_policy, None, prune)
    else:
        alpha = draw(st.sampled_from((0.5, 0.9)))
        params = ProtocolParams(alpha, 0.0, "practical", d_policy, None, prune)
    value = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-10.0, 10.0, width=64)
    )
    init = draw(st.one_of(
        st.just(InitSpec("spike")),
        st.builds(lambda v: InitSpec("explicit", values=v),
                  st.lists(value, min_size=n, max_size=n)),
    ))
    corruptions = draw(st.lists(
        st.tuples(
            st.integers(1, t_max), st.sampled_from(CORRUPTIONS),
            st.integers(0, 2**16), st.sampled_from(DELTAS), st.booleans(),
        ),
        min_size=1, max_size=8,
    ))
    return SimulationConfig(seq, params, init, t_max), corruptions


def _regap(state):
    """Recompute the snapshot's gaps b - a from the estimates, as run_round
    derives them."""
    pairs = state.est[state.arrays.ids]
    state.gap = pairs[:, 1] - pairs[:, 0]


def _ready(state, kind):
    """Whether this round can carry the corruption: one of the matrix needs
    an active pair, and a scaled D a node with two (with one, no diagonal
    falls below 1/2, and 1 - a + a is exact however large a gets)."""
    if kind not in MATRIX_CORRUPTIONS:
        return True
    arrays = state.arrays
    ends = np.concatenate((arrays.eu[state.act], arrays.ev[state.act]))
    return len(ends) > 0 and (kind not in D_FACTORS or np.bincount(ends).max() >= 2)


def _corrupt(state, kind, r, delta, facts):
    """Apply one corruption to the state of the round just run, or to the
    checker inputs in ``facts``, the values before the round among them;
    returns an undo for a corrupted D."""
    arrays = state.arrays
    active = np.flatnonzero(state.act)
    if kind == "x_post":
        x = state.x.copy()
        x[r % len(x)] += delta
        state.x = x
    elif kind in ("x_pre", "equal_ends"):
        # move an active pair's high endpoint by delta times their distance
        k = active[r % len(active)]
        i, j = arrays.eu[k], arrays.ev[k]
        x = facts["x_pre"].copy()
        x[j] = x[i] if kind == "equal_ends" else x[j] - delta * (x[j] - x[i])
        facts["x_pre"] = x
    elif kind == "est" and len(state.est):
        state.est[r % len(state.est), r // 7 % 2] += delta
        _regap(state)
    elif kind == "flip_gap":
        s = arrays.ids[active[r % len(active)]]
        state.est[s] = state.est[s, ::-1].copy()
        _regap(state)
    elif kind in D_FACTORS:
        D, denom = arrays.D, arrays.denom
        factor = D_FACTORS[kind]
        arrays.D = D * factor
        arrays.denom = denom * factor

        def undo():
            arrays.D = D
            arrays.denom = denom

        return undo
    elif kind.startswith("prev_"):
        field = kind[len("prev_"):]
        prev = facts["prev_row"]
        facts["prev_row"] = dataclasses.replace(prev, **{field: getattr(prev, field) - delta})
    elif kind == "avg0":
        facts[kind] -= delta
    elif kind in ("w0", "xinf0"):
        facts[kind] *= 1.0 - delta
    return None


@given(cases())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_screen_passes_only_rounds_the_record_checker_passes(case):
    cfg, corruptions = case
    params = cfg.params
    state = init_state(cfg)
    x0 = state.x.tolist()
    avg0 = fold_sum(x0) / len(x0)
    prev_row = compute_metrics(x0, avg0, t=0)
    w0 = prev_row.W
    xinf0 = max(abs(prev_row.M), abs(prev_row.m))
    pending = sorted(corruptions)
    nan_kept = False  # a nan put into x or an estimate stays in the state
    with silent_float_errors():
        for t in range(1, cfg.t_max + 1):
            x_pre = state.x
            try:
                run_round(state, t, cfg)
            except DivergenceError:  # the next quantizer input is nan
                assert nan_kept
                break
            facts = {"x_pre": x_pre, "prev_row": prev_row, "w0": w0, "xinf0": xinf0,
                     "avg0": avg0}
            undo = []
            for c in [c for c in pending if c[0] <= t]:
                _, kind, r, delta, negative = c
                if not _ready(state, kind):
                    continue
                pending.remove(c)
                delta = -delta if negative else delta
                undo.append(_corrupt(state, kind, r, delta, facts))
                nan_kept |= delta != delta and kind in ("x_post", "est")
            row = compute_metrics(state.x.tolist(), avg0, t=t)
            inputs = dict(
                row=row, w0=facts["w0"], xinf0=facts["xinf0"], avg0=facts["avg0"]
            )
            x_pre = facts["x_pre"]
            cleared = clears(state, params, x_pre, state.x, facts["prev_row"], **inputs)
            violations = validate_round(
                _record(state, t, params, x_pre, state.x), facts["prev_row"], params,
                **inputs,
            )
            assert not (cleared and violations), violations
            for fn in undo:
                if fn is not None:
                    fn()
            prev_row = row


THEOREM_FAST = ProtocolParams(alpha=0.25, beta=0.5, variant="theorem")
PRACTICAL_05 = ProtocolParams(alpha=0.5, beta=0.0, variant="practical")


def equal_endpoints(monkeypatch):
    """Give each round's first active pair equal pre-update values, which no
    consistent round can (activity needs |x_v - x_u| >= 2/t^alpha), in the
    values a run hands to ``screen_block`` and to ``_record``."""
    screen, record = engine_mod.screen_block, engine_mod._record

    def equal_ends(state, x_pre):
        x_pre = np.array(x_pre, dtype=float)
        active = np.flatnonzero(state.act)
        if len(active):
            k = active[0]
            x_pre[..., state.arrays.ev[k]] = x_pre[..., state.arrays.eu[k]]
        return x_pre

    def screened(state, params, x_pre, *args, **kwargs):
        return screen(state, params, equal_ends(state, x_pre), *args, **kwargs)

    def recorded(state, t, params, x_pre, x_post):
        return record(state, t, params, equal_ends(state, x_pre), x_post)

    monkeypatch.setattr(engine_mod, "screen_block", screened)
    monkeypatch.setattr(engine_mod, "_record", recorded)


def _quartered_bounds(monkeypatch):
    """After round 1: divide every pair bound (and so the update's
    denominator) by 4, which breaks diagonal dominance a few rounds on."""
    real = engine_mod.run_round

    def corrupted(state, t, config):
        real(state, t, config)
        if t == 1:
            state.arrays.D = state.arrays.D * 0.25
            state.arrays.denom = state.arrays.denom * 0.25

    monkeypatch.setattr(engine_mod, "run_round", corrupted)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            equal_endpoints,
            "invariant violations at round 4:\n"
            "  step-bound: node 1 moved 4.7724210958933515 > (W(0)/2)/t^beta at t=4\n"
            "  matrix-degenerate: degenerate active pair (0,1) at t=4: equal "
            "endpoint values",
        ),
        (
            _quartered_bounds,
            "invariant violations at round 6:\n"
            "  matrix-dominance: diagonal dominance a_ii >= 1/2 fails at i=0 "
            "(a_ii=0.4368986102500271) at t=6",
        ),
    ],
    ids=["degenerate-pair", "dominance"],
)
def test_declined_round_raises_the_record_checkers_message(
    monkeypatch, corrupt, message
):
    # the texts are those of the record checker validating every round
    corrupt(monkeypatch)
    cfg = SimulationConfig(
        make_sequence("static", 4, base="complete"), THEOREM_FAST,
        InitSpec("explicit", values=(3.0, -2.0, 1.5, 0.25)), 40,
        check_invariants=True,
    )
    with pytest.raises(InvariantViolationError) as exc:
        run(cfg)
    assert str(exc.value) == message
    assert "np." not in str(exc.value)


def test_a_violation_at_a_predicting_round_raises_there(monkeypatch):
    """A stepped round t0 that predicts a calm stretch is screened with the
    block opened in its step, as that block's first row. If the screen
    declines that row and the record checker finds a violation in it, the
    run raises at t0, and the record checked is the one a loop running
    every round builds for t0."""
    cfg = preset_run("theorem-a075-b0875")
    predicted = []
    blocks = []
    calm_through, active_block = engine_mod._calm_through, engine_mod._active_block

    def predicts(state, t, s, params):
        calm = calm_through(state, t, s, params)
        if calm:
            predicted.append(t)
        return calm

    def block(state, t, params, size):
        values = active_block(state, t, params, size)
        blocks.append((t, len(values) - 1))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "_calm_through", predicts)
        mp.setattr(engine_mod, "_active_block", block)
        run(cfg, keep_metrics=False)
    opened = {t for t, k in blocks if k}
    merged = [t for t in predicted if t + 1 in opened]
    t0 = merged[len(merged) // 2]

    screen, validate = engine_mod.screen_block, engine_mod.validate_round
    rows_with_t0 = []
    validated = []

    def declines_t0(state, params, x_pre, x_post, first, **facts):
        ok = screen(state, params, x_pre, x_post, first, **facts)
        if first <= t0 < first + len(ok):
            rows_with_t0.append(len(ok))
            ok[t0 - first] = False
        return ok

    def flags_t0(record, *args, **kwargs):
        validated.append(record)
        if record.t == t0:
            return [f"planted at t={t0}"]
        return validate(record, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "screen_block", declines_t0)
    monkeypatch.setattr(engine_mod, "validate_round", flags_t0)
    with pytest.raises(InvariantViolationError) as exc:
        run(cfg, keep_metrics=False)
    assert (exc.value.t, exc.value.violations) == (t0, [f"planted at t={t0}"])
    assert rows_with_t0[0] > 1  # t0 shared its screen with its block
    assert [rec.t for rec in validated] == [t0]
    monkeypatch.undo()
    records = []
    per_round(dataclasses.replace(cfg, t_max=t0, check_invariants=False), records=records)
    assert same_bits(validated[0], records[-1])


def test_clean_checked_run_builds_no_record(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args[1])
        return _record(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "_record", counted)
    for name in ("complete", "line"):
        cfg = SimulationConfig(
            make_sequence("static", 6, base=name), THEOREM_FAST,
            InitSpec("uniform_random", seed=3), 400, check_invariants=True,
        )
        run(cfg)
    assert built == []


def test_a_long_line_is_screened_by_its_largest_degree(monkeypatch):
    """The rounding clause counts the snapshot's largest degree with the
    self-loop, 3 on a line, where n would fail it from n ~ 2,000. On a line
    of 2,000 nodes the screen clears every round, and validate_round passes
    the records of the first rounds with an active pair; a checked run of
    20 rounds on a line of 3,000 builds no record."""
    params = ProtocolParams(alpha=0.9, beta=0.0, variant="practical")
    cfg = SimulationConfig(
        make_sequence("static", 2000, base="line"), params,
        InitSpec("uniform_random", seed=3), 20,
    )
    state = init_state(cfg)
    x0 = state.x.tolist()
    avg0 = fold_sum(x0) / len(x0)
    prev_row = compute_metrics(x0, avg0, t=0)
    facts = dict(w0=prev_row.W, xinf0=max(abs(prev_row.M), abs(prev_row.m)), avg0=avg0)
    validated = 0
    with silent_float_errors():
        for t in range(1, cfg.t_max + 1):
            x_pre = state.x
            run_round(state, t, cfg)
            row = compute_metrics(state.x.tolist(), avg0, t=t)
            assert clears(state, params, x_pre, state.x, prev_row, row=row, **facts)
            if state.active_edges and validated < 3:
                validated += 1
                rec = _record(state, t, params, x_pre, state.x)
                assert validate_round(rec, prev_row, params, row=row, **facts) == []
            prev_row = row
    assert validated == 3

    built = []

    def counted(*args, **kwargs):
        built.append(args[1])
        return _record(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "_record", counted)
    run(dataclasses.replace(
        cfg, seq=make_sequence("static", 3000, base="line"), check_invariants=True
    ))
    assert built == []


def test_records_are_built_once_per_round_for_every_reader(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args[1])
        return _record(*args, **kwargs)

    stepped = []
    returned = []
    real = engine_mod.run_round

    def watched(*args):
        stepped.append(args[1])
        returned.append(real(*args))

    monkeypatch.setattr(engine_mod, "_record", counted)
    monkeypatch.setattr(engine_mod, "run_round", watched)
    cfg = SimulationConfig(
        make_sequence("static", 5, base="complete"),
        ProtocolParams(alpha=0.9, beta=0.0, variant="practical"),
        InitSpec("spike"), 30,
    )
    records = run(cfg, keep_records=True).records
    # one record per round run; quiet stretches are recorded without being run
    assert built == stepped
    assert 0 < len(stepped) < 30 and set(returned) == {None}
    assert [r.t for r in records] == list(range(1, 31))
    # a skipped round's record is its stretch's opening record but for t
    for rec in records:
        opening = records[max(t for t in stepped if t <= rec.t) - 1]
        assert same_bits(dataclasses.replace(rec, t=opening.t), opening)


def _cleared_round(active, params):
    """Step a run to the first round the screen clears, with no active pair
    or with two or more (a nan among finite values, not alone), and return
    the state, the values before the round and the screen's other inputs
    for that round."""
    cfg = SimulationConfig(
        make_sequence("static", 4, base="complete"), params,
        InitSpec("explicit", values=(3.0, -2.0, 1.5, 0.25)), 40,
    )
    state = init_state(cfg)
    x0 = state.x.tolist()
    avg0 = fold_sum(x0) / len(x0)
    prev_row = compute_metrics(x0, avg0, t=0)
    facts = dict(w0=prev_row.W, xinf0=max(abs(prev_row.M), abs(prev_row.m)), avg0=avg0)
    for t in range(1, cfg.t_max + 1):
        x_pre = state.x
        run_round(state, t, cfg)
        row = compute_metrics(state.x.tolist(), avg0, t=t)
        inputs = dict(row=row, **facts)
        pairs = np.count_nonzero(state.act)
        fits = pairs >= 2 if active else pairs == 0
        if fits and clears(state, cfg.params, x_pre, state.x, prev_row, **inputs):
            return state, cfg.params, x_pre, prev_row, inputs
        prev_row = row
    raise AssertionError("no such round")


@pytest.mark.parametrize("reduction", ["est", "step", "w", "a", "s"])
def test_a_nan_in_any_reduction_declines_the_round(monkeypatch, reduction):
    # each corruption reaches that reduction's input and no earlier clause's;
    # a is checked on a practical round, where no s clause follows it (a nan
    # in w also reaches a, so the w case alone cannot tell the two apart)
    params = PRACTICAL_05 if reduction == "a" else THEOREM_FAST
    with silent_float_errors():
        state, params, x_pre, prev_row, inputs = _cleared_round(
            reduction != "step", params
        )
        k = np.flatnonzero(state.act)[0] if reduction != "step" else None
        if reduction == "est":  # every slot is live without a prune horizon
            state.est[state.arrays.ids[0], 1] = np.nan
        elif reduction == "step":  # no active pair reads x_pre
            x_pre = x_pre.copy()
            x_pre[0] = np.nan
        elif reduction == "w":
            state.gap = state.gap.copy()
            state.gap[k] = np.nan
        elif reduction == "a":
            state.arrays.denom = state.arrays.denom.copy()
            state.arrays.denom[k] = np.nan
        else:  # s sums the entries a, which the a clause has passed
            real = np.bincount

            def with_nan(*args):
                out = real(*args)
                out[0] = np.nan
                return out

            monkeypatch.setattr(np, "bincount", with_nan)
        assert not clears(state, params, x_pre, state.x, prev_row, **inputs)


BLOCK_RUNS = {
    "theorem": SimulationConfig(
        make_sequence("static", 6, base="line"), THEOREM_FAST,
        InitSpec("uniform_random", seed=3, lo=-3.0, hi=5.0), 1200,
    ),
    "practical": SimulationConfig(
        make_sequence("static", 12, base="complete"),
        ProtocolParams(alpha=0.9, beta=0.0, variant="practical"),
        InitSpec("uniform_random", seed=1), 1000,
    ),
}


@pytest.mark.parametrize("variant, tolerance, value", [
    ("theorem", None, None),
    ("theorem", "STEP_TOL", -0.1),
    ("theorem", "CONSERVATION_TOL", 1e-16),
    ("theorem", "MATRIX_TOL", 3.2e-15),
    ("theorem", "ESTIMATE_TOL", -0.8),
    ("practical", None, None),
    ("practical", "CONSERVATION_TOL", 1e-16),
])
def test_the_block_screen_clears_only_rounds_without_violation(
    monkeypatch, variant, tolerance, value
):
    """``screen_block`` gives each round of an active block, once its row
    passes ``monotone``, the verdict of a one-row call on that round's own
    values before and after it, and clears a round only if its record, from a loop that runs
    every round, passes ``validate_round``. With a tolerance moved so that
    some block rounds fail, it declines some and clears others. Blocks are
    tried when one calm round is predicted (BLOCK_AFTER = 1), so the
    practical variant's short stretches make blocks too, and capped at 4
    rounds, so many end on their cap and are followed by another."""
    cfg = BLOCK_RUNS[variant]
    params = cfg.params
    x0 = cfg.init.build(cfg.seq.n)
    avg0 = fold_sum(x0) / len(x0)
    row0 = compute_metrics(x0, avg0)
    facts = dict(w0=row0.W, xinf0=max(abs(row0.M), abs(row0.m)), avg0=avg0)
    records = []
    rows = [row0] + per_round(cfg, records=records)[0]
    if tolerance is not None:
        monkeypatch.setattr(analysis, tolerance, value)
    verdicts = []
    active_block = engine_mod._active_block

    def screened(state, t, params, size):
        values = active_block(state, t, params, size)
        if len(values) > 1:  # the state is the block's now, later rounds change it
            ok = screen_block(state, params, values[:-1], values[1:], t, **facts)
            verdicts.append((t, ok))
            xs = values.tolist()
            for i, clear in enumerate(ok.tolist()):
                prev = compute_metrics(xs[i], avg0, t=t + i - 1)
                row = compute_metrics(xs[i + 1], avg0, t=t + i)
                if monotone(prev, row):
                    assert clear == clears(
                        state, params, values[i], values[i + 1], prev, row=row, **facts
                    )
        return values

    monkeypatch.setattr(engine_mod, "BLOCK_AFTER", 1)
    monkeypatch.setattr(engine_mod, "BLOCK_ELEMENTS", block_elements(cfg.seq, 4))
    monkeypatch.setattr(engine_mod, "_active_block", screened)
    run(cfg, keep_metrics=False)
    cleared = declined = 0
    for first, ok in verdicts:
        for t, clear in enumerate(ok.tolist(), start=first):
            if not clear:
                declined += 1
            elif monotone(rows[t - 1], rows[t]):
                cleared += 1
                assert validate_round(
                    records[t - 1], rows[t - 1], params, row=rows[t], **facts
                ) == []
    assert cleared
    assert bool(declined) == (tolerance is not None)
