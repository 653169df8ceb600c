"""End-to-end acceptance suite.

One test per acceptance criterion, plus criterion 5's bound check on larger
graphs; each prints a single [PASS]/[FAIL] line per run (visible with
`pytest -s tests/test_acceptance.py`) and asserts the same condition.
Expected wall time for the whole module is about 20 s on a 2-vCPU VM,
dominated by the checked 5000-round invariant matrix.
"""

import itertools
import math
import random

import numpy as np
import pytest

from oracles import (
    REFERENCE_INPUTS,
    REFERENCE_VALUE,
    bound_oracle,
    connected,
    edge_set,
    per_round_calls,
    snapshot_keys,
)
from ternary_consensus.analysis import (
    BoundInputs,
    compute_metrics,
    fold_sum,
    reconstruct_matrix,
    theorem_bound,
)
from ternary_consensus.cli import main
from ternary_consensus.engine import InitSpec, SimulationConfig, run
from ternary_consensus.errors import InvariantViolationError
from ternary_consensus.graphs import (
    GraphSnapshot,
    complete_edges,
    fold_core,
    line_edges,
    make_sequence,
)
from ternary_consensus.protocol import ProtocolParams


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _theorem(alpha, beta, **kw):
    return ProtocolParams(alpha=alpha, beta=beta, variant="theorem", **kw)


PRACTICAL_09 = ProtocolParams(alpha=0.9, beta=0.0, variant="practical")

CONFIG_GRAPHS = [
    ("complete-3", make_sequence("static", 3, base="complete")),
    ("complete-8", make_sequence("static", 8, base="complete")),
    ("complete-20", make_sequence("static", 20, base="complete")),
    ("line-3", make_sequence("static", 3, base="line")),
    ("line-8", make_sequence("static", 8, base="line")),
    ("line-20", make_sequence("static", 20, base="line")),
    (
        "core-B1-8",
        make_sequence(
            "core_synthetic", 8, 7,
            core_edges=line_edges(8).tolist(), block_len=1, extra_edge_prob=0.15,
        ),
    ),
    (
        "core-B3-8",
        make_sequence(
            "core_synthetic", 8, 7,
            core_edges=line_edges(8).tolist(), block_len=3, extra_edge_prob=0.15,
        ),
    ),
]

CONFIG_INITS = [
    ("spike", InitSpec("spike")),
    ("uniform", InitSpec("uniform_random", seed=11)),
]


def test_criterion_1_invariant_suite():
    """Checked 5000-round runs over the full config matrix: zero violations."""
    failures = []
    runs = 0
    for (alpha, beta), (gname, seq), (iname, init) in itertools.product(
        [(0.25, 0.5), (0.75, 0.875)], CONFIG_GRAPHS, CONFIG_INITS
    ):
        cfg = SimulationConfig(
            seq, _theorem(alpha, beta), init, t_max=5000, check_invariants=True
        )
        runs += 1
        try:
            run(cfg, keep_metrics=False)
        except InvariantViolationError as exc:
            failures.append(f"a={alpha} b={beta} {gname} {iname}: {exc}")
    _report(
        "criterion 1 (per-round invariant suite)",
        not failures,
        f"{runs} checked runs x 5000 rounds"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_conservation():
    """Mean of x stays within 1e-12 * max(1, |x(0)|_inf) of its start."""
    cases = []
    for seq in (
        make_sequence("static", 20, base="complete"),
        make_sequence("static", 20, base="line"),
        make_sequence("relabeled_line", 10, seed=4),
    ):
        for init in (InitSpec("spike"), InitSpec("uniform_random", seed=11)):
            cases.append((seq, PRACTICAL_09, init, 3000))
    cases.append(
        (
            make_sequence("static", 8, base="complete"),
            _theorem(0.25, 0.5),
            InitSpec("uniform_random", seed=11),
            3000,
        )
    )
    worst = 0.0
    for seq, params, init, t_max in cases:
        cfg = SimulationConfig(seq, params, init, t_max=t_max)
        n = seq.n
        x0 = cfg.init.build(n)
        tol = 1e-12 * max(1.0, max(abs(v) for v in x0))

        calls = []
        run(cfg, metrics_sink=lambda *call: calls.append(call), keep_metrics=False)
        avg0 = fold_sum(x0) / n
        for _, x in per_round_calls(calls):
            drift = abs(fold_sum(x) / n - avg0)
            worst = max(worst, drift)
            assert drift <= tol
    _report(
        "criterion 2 (average conservation)", True,
        f"worst per-round mean drift {worst:.2e}",
    )


def test_criterion_3_oracle_equivalence():
    """Engine values match the reconstructed-matrix recurrence to 1e-10."""
    configs = [
        (make_sequence("static", 3, base="complete"), _theorem(0.25, 0.5),
         InitSpec("uniform_random", seed=9, lo=-5.0, hi=5.0)),
        (make_sequence("static", 4, base="complete"), _theorem(0.25, 0.5),
         InitSpec("uniform_random", seed=10, lo=-5.0, hi=5.0)),
        (make_sequence("static", 4, base="line"), _theorem(0.5, 0.75),
         InitSpec("uniform_random", seed=12, lo=-5.0, hi=5.0)),
        (make_sequence("periodic", 3, rounds=[[(0, 1)], [(1, 2)], [(0, 2)]]),
         _theorem(0.5, 0.75), InitSpec("uniform_random", seed=3, lo=-5.0, hi=5.0)),
        (make_sequence("static", 3, base="complete"), _theorem(0.5, 0.75),
         InitSpec("spike")),
    ]
    worst = 0.0
    active_rounds = 0
    for seq, params, init in configs:
        cfg = SimulationConfig(seq, params, init, t_max=50)
        for rec in run(cfg, keep_records=True).records:
            mat = reconstruct_matrix(rec, params)
            tb = rec.t ** (-params.beta)
            x_pre = np.array(rec.x_pre)
            x_next = (1.0 - tb) * x_pre + tb * (mat.entries @ x_pre)
            worst = max(worst, float(np.max(np.abs(x_next - rec.x_post))))
            active_rounds += bool(any(rec.active_sets))
            assert np.allclose(x_next, rec.x_post, atol=1e-10, rtol=0)
    assert active_rounds > 0
    _report(
        "criterion 3 (matrix-recurrence equivalence)", True,
        f"worst coordinate gap {worst:.2e} over {active_rounds} active rounds",
    )


def test_criterion_4_exact_average_convergence():
    """Practical variant, alpha=0.9, n=20, spike: error reaches 0.05 and the
    long-run error sits strictly below the t=100 error."""
    details = []
    for base in ("complete", "line"):
        cfg = SimulationConfig(
            make_sequence("static", 20, base=base), PRACTICAL_09,
            InitSpec("spike"), t_max=10_000, check_invariants=True,
        )
        result = run(cfg)
        rows = result.metrics
        reach = next((r.t for r in rows if r.err_max <= 0.05), None)
        assert reach is not None and reach <= 100_000, f"{base}: 0.05 not reached"
        err_1e2 = rows[99].err_max
        err_1e4 = rows[9999].err_max
        assert err_1e4 < err_1e2, f"{base}: no decay {err_1e2} -> {err_1e4}"
        details.append(f"{base}: reach@{reach}, err 1e2={err_1e2:.3g} 1e4={err_1e4:.3g}")
    _report("criterion 4 (exact-average convergence)", True, "; ".join(details))


def test_criterion_5_theorem_bound_consistency():
    """Theorem variant (1/4, 1/2) on the 3-node complete graph drives V2 to
    0.1 inside the 1e7-round budget; monotone V2 then certifies the bound's
    round count."""
    seq = make_sequence("static", 3, base="complete")
    cfg = SimulationConfig(seq, _theorem(0.25, 0.5), InitSpec("spike"), t_max=10**7)
    result = run(cfg, stop_v2=0.1, keep_metrics=False)
    assert result.stopped_at is not None, "V2 never reached 0.1 in 1e7 rounds"
    final = compute_metrics(result.final_x, 1.0 / 3.0)
    assert final.V2 <= 0.1
    t_bound = theorem_bound(
        BoundInputs(
            n=3, B=1, D=3.0, alpha=0.25, beta=0.5, epsilon=0.1,
            w0=1.0, v20=math.sqrt(2.0 / 3.0), xinf0=1.0,
        )
    )
    assert result.stopped_at <= t_bound
    _report(
        "criterion 5 (bound consistency via monotonicity)", True,
        f"V2<=0.1 at t={result.stopped_at}, certified through T~{t_bound:.3g}",
    )


@pytest.mark.parametrize(
    "base,n,D,init,stop",
    [("complete", 8, 8.0, InitSpec("spike"), 502_150),
     ("complete", 12, 12.0, InitSpec("spike"), 1_539_933),
     ("line", 3, 3.0, InitSpec("spike"), 4_798_987),
     ("complete", 8, 8.0, InitSpec("uniform_random", seed=11), 1_436_422),
     ("line", 3, 3.0, InitSpec("uniform_random", seed=11), 3_776_280)],
    ids=["complete-8", "complete-12", "line-3", "complete-8-uniform", "line-3-uniform"],
)
def test_theorem_bound_beyond_n3(base, n, D, init, stop):
    """Criterion 5's certificate on larger graphs: the theorem variant at
    (1/4, 1/2), checked every round, drives V2 to 0.1 within the bound's
    round count (D is the largest pair degree, self-loop included; w0, v20
    and xinf0 come from the initial values). Most of these millions of
    rounds are quiet and skipped."""
    seq = make_sequence("static", n, base=base)
    cfg = SimulationConfig(
        seq, _theorem(0.25, 0.5), init, t_max=10**7, check_invariants=True
    )
    result = run(cfg, stop_v2=0.1, keep_metrics=False)
    assert result.stopped_at == stop
    x0 = init.build(n)
    avg0 = fold_sum(x0) / n
    assert compute_metrics(result.final_x, avg0).V2 <= 0.1
    start = compute_metrics(x0, avg0)
    t_bound = theorem_bound(
        BoundInputs(
            n=n, B=1, D=D, alpha=0.25, beta=0.5, epsilon=0.1,
            w0=start.W, v20=start.V2, xinf0=max(abs(start.M), abs(start.m)),
        )
    )
    assert result.stopped_at <= t_bound
    _report(
        f"theorem bound on {base}-{n} ({init.kind})", True,
        f"V2<=0.1 at t={result.stopped_at}, certified through T~{t_bound:.3g}",
    )


def test_criterion_6_bound_evaluator():
    """Float evaluation matches the arbitrary-precision oracle to 10
    significant digits; monotone in epsilon and n."""
    got = theorem_bound(BoundInputs(**REFERENCE_INPUTS))
    assert got == pytest.approx(REFERENCE_VALUE, rel=1e-10)

    rng = random.Random(20240809)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 60)
        B = rng.randint(1, 12)
        D = rng.uniform(1.0, 80.0)
        alpha = rng.uniform(0.05, 0.85)
        beta = rng.uniform(alpha + 0.02, 0.95)
        eps = 10 ** rng.uniform(-4, 1)
        w0 = rng.uniform(0.0, 10.0)
        v20 = rng.uniform(0.0, 10.0)
        xinf0 = rng.uniform(0.0, 10.0)
        if abs((32 * B + 8 * B * w0) % 1.0 - 0.5) > 0.499:
            continue  # keep the ceiling argument clear of integer boundaries
        want = float(bound_oracle(n, B, D, alpha, beta, eps, w0, v20, xinf0))
        got = theorem_bound(BoundInputs(n, B, D, alpha, beta, eps, w0, v20, xinf0))
        assert got == pytest.approx(want, rel=1e-10)
        checked += 1

    for _ in range(100):
        B = rng.randint(1, 6)
        D = rng.uniform(1.0, 30.0)
        alpha = rng.uniform(0.1, 0.7)
        beta = rng.uniform(alpha + 0.05, 0.9)
        base = dict(B=B, D=D, alpha=alpha, beta=beta, w0=rng.uniform(0, 5),
                    v20=rng.uniform(0, 5), xinf0=rng.uniform(0, 5))
        n1, n2 = sorted((rng.randint(2, 40), rng.randint(2, 40)))
        e1, e2 = sorted((10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-3, 1)))
        assert theorem_bound(BoundInputs(n=n1, epsilon=e1, **base)) >= theorem_bound(
            BoundInputs(n=n1, epsilon=e2, **base)
        )
        assert theorem_bound(BoundInputs(n=n2, epsilon=e1, **base)) >= theorem_bound(
            BoundInputs(n=n1, epsilon=e1, **base)
        )
    _report(
        "criterion 6 (bound evaluator vs oracle)", True,
        "20 oracle matches at 10 digits, 100 monotonicity pairs",
    )


SWEEP_YAML = """\
graph:
  kind: static
  base: {base}
  n: 20
  seed: 1
  B: 1
protocol:
  alpha: 0.9
  beta: 0.0
  variant: practical
  d_policy: max_degree
  prune_horizon: null
init:
  kind: spike
  seed: 0
run:
  t_max: 1000000
  stop_err: 0.05
  record_level: metrics_only
  check: false
output:
  dir: {out}
"""


def test_criterion_7_sweep_trends(tmp_path):
    """Complete graphs: no growth of the 0.05-error time in n (at most 3x
    between n=5 and n=20); line graphs: nondecreasing in n."""
    rounds = {}
    for base in ("complete", "line"):
        cfg_path = tmp_path / f"{base}.yaml"
        out = tmp_path / base
        cfg_path.write_text(SWEEP_YAML.format(base=base, out=out))
        code = main([
            "sweep", "--config", str(cfg_path), "--n-list", "5,10,15,20",
            "--stop-err", "0.05", "--check", "--quiet",
        ])
        assert code == 0
        table = {}
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            n, r, _ = line.split(",")
            assert r != "", f"{base} n={n}: threshold not reached"
            table[int(n)] = int(r)
        rounds[base] = table
    comp = rounds["complete"]
    assert comp[20] <= 3 * comp[5], f"complete-graph growth: {comp}"
    line_r = [rounds["line"][n] for n in (5, 10, 15, 20)]
    assert all(a <= b for a, b in zip(line_r, line_r[1:])), f"line not monotone: {line_r}"
    _report(
        "criterion 7 (time-to-error trends)", True,
        f"complete {comp}, line {rounds['line']}",
    )


def _brute_force_core(window, block_len, n):
    universe = sorted(set().union(*(edge_set(g.edges) for g in window)))
    blocks = len(window) // block_len
    unions = [
        frozenset().union(
            *(edge_set(g.edges) for g in window[k * block_len : (k + 1) * block_len])
        )
        for k in range(blocks)
    ]
    for r in range(len(universe), 0, -1):
        for cand in itertools.combinations(universe, r):
            c = frozenset(cand)
            if all(c <= u for u in unions) and connected(n, c):
                return True
    # no edges at all: connected only for n == 1
    return n == 1 and blocks > 0


def test_criterion_8_core_checker_vs_brute_force():
    """The fold that check-core runs (``fold_core``) agrees with explicit
    subset search, whose connectivity test is the oracles' own BFS:
    exhaustively on 3-node windows, and on seeded random 4-node windows up
    to length 8."""
    checked = 0
    # exhaustive: every 3-node window of length 2 and 3
    subsets3 = [
        frozenset(c)
        for r in range(4)
        for c in itertools.combinations(sorted(edge_set(complete_edges(3))), r)
    ]
    for length in (2, 3):
        for rounds in itertools.product(subsets3, repeat=length):
            window = [GraphSnapshot(3, e) for e in rounds]
            for B in (1, 2):
                if len(window) < B:
                    continue
                got = fold_core(3, snapshot_keys(window), B).is_core_connected
                want = _brute_force_core(window, B, 3)
                assert got == want, f"n=3 {rounds} B={B}: {got} vs {want}"
                checked += 1
    # seeded random: 4-node windows of length 8
    rng = random.Random(88)
    universe4 = sorted(edge_set(complete_edges(4)))
    for trial in range(400):
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        window = [
            GraphSnapshot(4, frozenset(e for e in universe4 if rng.random() < p))
            for _ in range(8)
        ]
        for B in (1, 2):
            got = fold_core(4, snapshot_keys(window), B).is_core_connected
            want = _brute_force_core(window, B, 4)
            assert got == want, f"n=4 trial={trial} B={B}: {got} vs {want}"
            checked += 1
    _report(
        "criterion 8 (core checker vs brute force)", True,
        f"{checked} window/block comparisons",
    )


def test_criterion_9_time_varying_run():
    """Practical variant on a fresh random line each round: reaches 0.05
    error within the budget and error never exceeds the initial spread."""
    cfg = SimulationConfig(
        make_sequence("relabeled_line", 10, seed=1), PRACTICAL_09,
        InitSpec("spike"), t_max=10**6, check_invariants=True,
    )
    result = run(cfg, stop_err=0.05)
    assert result.stopped_at is not None, "0.05 not reached within 1e6 rounds"
    w0 = 1.0  # spike spread
    assert all(row.err_max <= w0 + 1e-12 for row in result.metrics)
    _report(
        "criterion 9 (time-varying line run)", True,
        f"err<=0.05 at t={result.stopped_at}, err bounded by W(0) throughout",
    )
