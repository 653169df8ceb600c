import random

import numpy as np
import pytest

from oracles import degrees, edge_list, per_round_calls, same_bits
from reference_engine import World, init_state, metropolis_round, run_round
from reference_engine import run as reference_run
from ternary_consensus import engine as edge_engine
from ternary_consensus.analysis import block_metrics, compute_metrics, fold_sum
from ternary_consensus.engine import (
    EdgeArrays,
    InitSpec,
    SimulationConfig,
    run,
    stop_reached,
)
from ternary_consensus.errors import (
    ConfigError,
    DivergenceError,
    PolicyViolationError,
)
from ternary_consensus.graphs import GraphSnapshot, make_sequence
from ternary_consensus.metropolis import MetropolisConfig, run_metropolis
from ternary_consensus.protocol import (
    LedgerEntry,
    NodeState,
    ProtocolParams,
    pair_bound,
)

PRACTICAL_09 = ProtocolParams(alpha=0.9, beta=0.0, variant="practical")
THEOREM_FAST = ProtocolParams(alpha=0.25, beta=0.5, variant="theorem")


def sim(seq, params, init, t_max, **kw):
    return SimulationConfig(seq, params, init, t_max, **kw)


def random_graph(rng: random.Random, n: int, p: float) -> GraphSnapshot:
    return GraphSnapshot(
        n, {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    )


def edge_arrays(g: GraphSnapshot, d_policy: str, d_fixed, t: int) -> EdgeArrays:
    edges = np.array(edge_list(g), dtype=np.intp).reshape(-1, 2)
    return EdgeArrays(g.n, edges, d_policy, d_fixed, t)


class TestEdgeArrays:
    @pytest.mark.parametrize("n,p", [(1, 0.0), (7, 0.0), (7, 0.3), (40, 0.3), (40, 0.9)])
    @pytest.mark.parametrize("seed", range(3))
    def test_fold_adds_each_nodes_peers_in_ascending_order(self, n, p, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        # magnitudes far apart make the sum depend on the order of the adds
        weights = [
            rng.choice([0.0, -0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)])
            for _ in edge_list(g)
        ]
        terms = [[] for _ in range(n)]  # (peer, term) per node
        for (i, j), w in zip(edge_list(g), weights):
            terms[i].append((j, w))
            terms[j].append((i, -w))
        if p == 0.9:  # np.sum would add pairwise from 8 terms on
            assert any(
                min(sum(j < k for j, _ in ts), sum(j > k for j, _ in ts)) >= 8
                for k, ts in enumerate(terms)
            )
        want = [fold_sum(w for _, w in sorted(ts)) for ts in terms]
        got = edge_arrays(g, "max_degree", None, 1).fold(np.array(weights, dtype=float))
        assert got.dtype == np.float64
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize(
        "d_policy,d_fixed", [("max_degree", None), ("global_n", None), ("fixed", 40.5)]
    )
    def test_array_pair_bound_equals_the_scalar_form(self, d_policy, d_fixed):
        for g in (random_graph(random.Random(3), 25, 0.4), GraphSnapshot(3, [])):
            D = edge_arrays(g, d_policy, d_fixed, 1).D
            deg = degrees(g)
            want = [
                pair_bound(d_policy, d_fixed, g.n, deg[i], deg[j])
                for i, j in edge_list(g)
            ]
            assert D.dtype == float and D.tolist() == want
            assert all(type(d) is float for d in want)


class TestInitState:
    def test_spike(self):
        cfg = sim(make_sequence("static", 4, base="line"), PRACTICAL_09,
                  InitSpec("spike"), 1)
        world = init_state(cfg)
        assert world.x0 == (1.0, 0.0, 0.0, 0.0)
        assert world.avg0 == 0.25
        assert world.w0 == 1.0 and world.xinf0 == 1.0
        assert all(not node.ledger for node in world.nodes)

    def test_explicit(self):
        cfg = sim(make_sequence("static", 2, edges=[(0, 1)]), PRACTICAL_09,
                  InitSpec("explicit", values=(0.2, 0.8)), 1)
        assert init_state(cfg).x0 == (0.2, 0.8)

    def test_uniform_random_is_seeded(self):
        init = InitSpec("uniform_random", seed=99, lo=-2.0, hi=3.0)
        cfg = sim(make_sequence("static", 6, base="complete"), PRACTICAL_09, init, 1)
        a = init_state(cfg).x0
        b = init_state(cfg).x0
        assert a == b
        assert all(-2.0 <= v < 3.0 for v in a)

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            InitSpec("gaussian")
        with pytest.raises(ConfigError):
            InitSpec("uniform_random", lo=1.0, hi=1.0)
        with pytest.raises(ConfigError):
            InitSpec("explicit")
        with pytest.raises(ConfigError, match="values"):
            sim(make_sequence("static", 3, base="line"), PRACTICAL_09,
                InitSpec("explicit", values=(0.1, 0.2)), 1)


class TestHandTrace:
    """Two nodes, one static edge, spike start, alpha = 0.9."""

    def setup_method(self):
        self.cfg = sim(
            make_sequence("static", 2, edges=[(0, 1)]), PRACTICAL_09,
            InitSpec("spike"), 2,
        )

    def test_round_one_is_silent(self):
        # t^alpha = 1, so the spike maps to quantize(1.0) = 0: nothing moves
        world = init_state(self.cfg)
        rec = run_round(world, 1, self.cfg)
        assert [m.q for m in rec.messages] == [0, 0]
        assert rec.estimates[0][1] == (0.0, 0.0)
        assert rec.active_sets == (set(), set())
        assert rec.x_post == (1.0, 0.0)

    def test_round_two_first_nonzero_message(self):
        world = init_state(self.cfg)
        run_round(world, 1, self.cfg)
        rec = run_round(world, 2, self.cfg)
        q01 = next(m.q for m in rec.messages if m.src == 0)
        assert q01 == 1
        step = 1.0 / 2**0.9
        assert rec.estimates[1][0] == (step, 0.0)
        assert rec.estimates[0][1] == (0.0, step)
        # gap 0.536 is below the 4/2^0.9 = 2.14 activation threshold
        assert rec.active_sets == (set(), set())
        assert rec.x_post == (1.0, 0.0)


class TestRunProperties:
    def test_zero_spread_is_fixed_point(self):
        # any constant vector is a fixed point with empty active sets; the
        # all-zero vector additionally keeps every message at 0 (a nonzero
        # constant makes estimates chase it, so some messages do fire)
        for c, expect_silent in ((0.0, True), (0.7, False)):
            cfg = sim(
                make_sequence("static", 3, base="complete"), THEOREM_FAST,
                InitSpec("explicit", values=(c, c, c)), 50,
            )
            result = run(cfg, keep_records=True)
            silent = True
            for rec in result.records:
                silent = silent and all(m.q == 0 for m in rec.messages)
                assert all(not s for s in rec.active_sets)
                assert rec.x_post == (c, c, c)
            assert silent == expect_silent

    def test_average_is_conserved(self):
        cfg = sim(
            make_sequence("static", 3, base="complete"), PRACTICAL_09,
            InitSpec("explicit", values=(0.0, 1.0, 2.0)), 2000,
        )
        for rec in run(cfg, keep_records=True).records:
            assert abs(sum(rec.x_post) / 3 - 1.0) <= 1e-9

    def test_budget_contract(self):
        seq = make_sequence("static", 3, base="complete")
        with pytest.raises(ConfigError, match="t_max"):
            sim(seq, PRACTICAL_09, InitSpec("spike"), 0)
        cfg = sim(seq, PRACTICAL_09, InitSpec("spike"), 1)
        result = run(cfg, keep_records=True)
        assert len(result.metrics) == 1
        assert len(result.records) == 1

    def test_determinism(self):
        cfg = sim(
            make_sequence("relabeled_line", 6, seed=5), PRACTICAL_09,
            InitSpec("uniform_random", seed=8), 300,
        )
        a = run(cfg)
        b = run(cfg)
        assert a.metrics == b.metrics
        assert a.final_x == b.final_x

    def test_values_stay_in_initial_envelope(self):
        cfg = sim(
            make_sequence("static", 5, base="complete"), PRACTICAL_09,
            InitSpec("uniform_random", seed=4, lo=-1.0, hi=2.0), 800,
        )
        result = run(cfg)
        world = init_state(cfg)
        hi, lo = max(world.x0), min(world.x0)
        for row in result.metrics:
            assert row.M <= hi + 1e-12
            assert row.m >= lo - 1e-12

    def test_checked_run_with_pruning(self):
        seq = make_sequence(
            "core_synthetic", 6, 21,
            core_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            block_len=3, extra_edge_prob=0.3,
        )
        params = ProtocolParams(
            alpha=0.25, beta=0.5, variant="theorem", prune_horizon=3
        )
        cfg = sim(seq, params, InitSpec("uniform_random", seed=2), 600,
                  check_invariants=True)
        run(cfg)  # raises on any violation

    def test_checked_run_computes_each_metrics_row_once(self, monkeypatch):
        import ternary_consensus.analysis as analysis_mod
        import ternary_consensus.engine as engine_mod

        rounds = []

        def counted(*args, **kwargs):
            rounds.append(kwargs["t"])
            return compute_metrics(*args, **kwargs)

        for mod in (analysis_mod, engine_mod):
            monkeypatch.setattr(mod, "compute_metrics", counted)
        # a static run skips its quiet stretches' rows and computes no row twice
        cfg = sim(make_sequence("static", 4, base="complete"), THEOREM_FAST,
                  InitSpec("spike"), 300, check_invariants=True)
        assert len(run(cfg).metrics) == 300
        assert rounds[0] == 0 and rounds == sorted(set(rounds))
        assert len(rounds) < 301
        # a periodic run skips nothing
        rounds.clear()
        seq = make_sequence(
            "periodic", 4, rounds=[[(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3), (0, 3)]]
        )
        run(sim(seq, THEOREM_FAST, InitSpec("spike"), 300, check_invariants=True))
        assert rounds == list(range(301))

    def test_stop_conditions(self):
        cfg = sim(
            make_sequence("static", 20, base="complete"), PRACTICAL_09,
            InitSpec("spike"), 10_000,
        )
        result = run(cfg, stop_err=0.05)
        assert result.stopped_at is not None
        assert result.metrics[-1].err_max <= 0.05
        assert result.metrics[-2].err_max > 0.05
        # threshold already met at t=0: no rounds execute
        pre = run(cfg, stop_err=1.0)
        assert pre.stopped_at == 0 and pre.rounds == 0

    @pytest.mark.parametrize("runner", ["run", "run_metropolis"])
    def test_metrics_sink_gets_each_rounds_values(self, runner):
        # a complete graph: both runners reach quiet stretches within 40 rounds
        seq = make_sequence("static", 5, base="complete")
        init = InitSpec("uniform_random", seed=7, lo=-1.0, hi=1.0)
        calls = []

        def sink(row, x, last):
            calls.append((row, x, last))

        if runner == "run":
            result = run(sim(seq, PRACTICAL_09, init, 40), metrics_sink=sink,
                         keep_records=True)
            final_x = result.final_x
        else:
            _, final_x = run_metropolis(MetropolisConfig(seq, init, 40),
                                        metrics_sink=sink)
        seen = [(row.t, x) for row, x in per_round_calls(calls)]
        if runner == "run":
            assert same_bits([(r.t, r.x_post) for r in result.records], seen)
        assert [t for t, _ in seen] == list(range(1, 41))
        for _, x in seen:
            assert type(x) is tuple and len(x) == 5
            assert all(type(v) is float for v in x)
        assert same_bits(seen[-1][1], final_x)
        # one call stands for a whole quiet stretch, which the CLI relies on
        # to format its row once
        assert any(last > row.t for row, _, last in calls)


class TestWireDiscipline:
    def test_far_node_cannot_leak_in_one_round(self):
        # node 0 only ever sees node 1's messages; changing node 2's value
        # cannot alter node 0's round outcome
        seq = make_sequence("static", 3, base="line")
        outs = []
        for far in (0.0, 123.0):
            cfg = sim(seq, PRACTICAL_09,
                      InitSpec("explicit", values=(0.9, 0.4, far)), 1)
            world = init_state(cfg)
            rec = run_round(world, 1, cfg)
            outs.append((rec.x_post[0], rec.estimates[0]))
        assert outs[0] == outs[1]


class TestGuards:
    def test_policy_violation(self):
        params = ProtocolParams(
            alpha=0.25, beta=0.5, variant="theorem",
            d_policy="fixed", d_fixed=1.5,
        )
        with pytest.raises(PolicyViolationError, match="at round 1$"):
            sim(make_sequence("static", 2, edges=[(0, 1)]), params,
                InitSpec("spike"), 10)

    def test_known_snapshots_are_checked_at_construction(self):
        # pair degrees (self-loop counted) 1, 2, 3 in rounds 1, 2, 3
        rounds = [[], [(0, 1)], [(0, 1), (1, 2), (0, 2)]]
        theorem = ProtocolParams(0.25, 0.5, "theorem", "fixed", 2.0)
        for kind in ("periodic", "explicit"):
            seq = make_sequence(kind, 3, rounds=rounds)
            sim(seq, theorem, InitSpec("spike"), 2)  # round 3 is never run
            MetropolisConfig(seq, InitSpec("spike"), 2, "fixed", 2.0)
            with pytest.raises(PolicyViolationError, match="degree 3 at round 3$"):
                sim(seq, theorem, InitSpec("spike"), 3)
            with pytest.raises(PolicyViolationError, match="degree 3 at round 3$"):
                MetropolisConfig(seq, InitSpec("spike"), 3, "fixed", 2.0)
        # the practical variant divides by 2*max(d_i, d_j) whatever the policy
        practical = ProtocolParams(0.9, 0.0, "practical", "fixed", 2.0)
        run(sim(make_sequence("periodic", 3, rounds=rounds), practical,
                InitSpec("spike"), 6))

    def test_fixed_policy_accepts_valid_bound(self):
        params = ProtocolParams(
            alpha=0.25, beta=0.5, variant="theorem",
            d_policy="fixed", d_fixed=8.0,
        )
        cfg = sim(make_sequence("static", 4, base="complete"), params,
                  InitSpec("spike"), 200, check_invariants=True)
        run(cfg)

    def test_global_n_policy(self):
        params = ProtocolParams(
            alpha=0.25, beta=0.5, variant="theorem", d_policy="global_n"
        )
        cfg = sim(make_sequence("static", 4, base="complete"), params,
                  InitSpec("spike"), 200, check_invariants=True)
        run(cfg)

    def test_divergence_guard(self):
        # hand-build a world whose ledger forces an overflowing update
        cfg = sim(make_sequence("static", 2, edges=[(0, 1)]), PRACTICAL_09,
                  InitSpec("explicit", values=(1.7e308, 0.0)), 5)
        world = World(
            nodes=[NodeState(0, 1.7e308), NodeState(1, 0.0)],
            x0=(1.7e308, 0.0), avg0=8.5e307, w0=1.7e308, xinf0=1.7e308,
        )
        # both quantizer arguments are 0 (x matches x_out on each side) while
        # node 0's estimate gap overflows to -inf inside the value update
        world.nodes[0].ledger[1] = LedgerEntry(-1.7e308, 1.7e308, 1, 1)
        world.nodes[1].ledger[0] = LedgerEntry(1.7e308, 0.0, 1, 1)
        with pytest.raises(DivergenceError):
            run_round(world, 1, cfg)

    def test_node_guard_runs_before_the_checker(self, monkeypatch):
        import ternary_consensus.engine as engine_mod

        real_round = engine_mod.run_round

        def diverging(state, t, config):
            rec = real_round(state, t, config)
            state.x = np.where(np.arange(len(state.x)) == 2, -np.inf, state.x)
            return rec

        monkeypatch.setattr(engine_mod, "run_round", diverging)
        cfg = sim(make_sequence("static", 3, base="complete"), THEOREM_FAST,
                  InitSpec("spike"), 5, check_invariants=True)
        with pytest.raises(DivergenceError,
                           match=r"^node 2 became non-finite at round 1: -inf$"):
            run(cfg)


class TestRunInputs:
    def test_explicit_sequence_shorter_than_budget_rejected(self):
        seq = make_sequence("explicit", 3, rounds=[[(0, 1)], [(1, 2)]])
        with pytest.raises(ConfigError, match="run.t_max"):
            sim(seq, PRACTICAL_09, InitSpec("spike"), 3)
        with pytest.raises(ConfigError, match="run.t_max"):
            MetropolisConfig(seq, InitSpec("spike"), t_max=3)
        sim(seq, PRACTICAL_09, InitSpec("spike"), 2)

    @pytest.mark.parametrize("values", [(1e308, -1e308), (1.7e308, 1.7e308)])
    def test_initial_overflow_is_a_divergence(self, values):
        seq = make_sequence("static", 2, edges=[(0, 1)])
        init = InitSpec("explicit", values=values)
        with pytest.raises(DivergenceError, match="beyond the float range"):
            run(sim(seq, PRACTICAL_09, init, 5))
        with pytest.raises(DivergenceError, match="beyond the float range"):
            run_metropolis(MetropolisConfig(seq, init, t_max=5))

    def test_engine_divergence_guard(self):
        # x - x_out stays near 8e307 while t^0.9 grows: the quantizer input
        # t^alpha * (x - x_out) overflows at round 3
        cfg = sim(make_sequence("static", 2, edges=[(0, 1)]), PRACTICAL_09,
                  InitSpec("explicit", values=(8e307, 8e307)), 5)
        with pytest.raises(DivergenceError, match="round 3 has a non-finite quantizer input inf"):
            run(cfg)

    def test_an_overflowing_sum_of_finite_quantizer_inputs_is_no_divergence(self):
        # six inputs of t^0.9 * 5e307 stay finite through round 4 (4^0.9 *
        # 5e307 ~ 1.74e308), but their sum, which run_round tests first, is
        # inf from round 1; only round 5's inputs are inf themselves
        with edge_engine.silent_float_errors():
            assert np.add.reduce(np.full(6, 5e307)) == np.inf
        seq = make_sequence("static", 3, base="complete")
        init = InitSpec("explicit", values=(5e307, 5e307, 5e307))
        assert run(sim(seq, PRACTICAL_09, init, 4)).rounds == 4
        with pytest.raises(DivergenceError, match=(
            r"^message from node 0 to node 1 at round 5 has a non-finite "
            r"quantizer input inf$"
        )):
            run(sim(seq, PRACTICAL_09, init, 5))

    def test_a_failed_round_leaves_the_ledger_as_it_found_it(self):
        # edge (0, 1) is back at round 4 after two rounds away: past the
        # prune horizon 1, its estimates (1, 1) read as (0, 0), and the
        # quantizer input 4^0.9 * 8e307 overflows
        seq = make_sequence("periodic", 2, rounds=[[(0, 1)], [], []])
        params = ProtocolParams(alpha=0.9, beta=0.0, variant="practical",
                                prune_horizon=1)
        cfg = sim(seq, params, InitSpec("explicit", values=(8e307, 8e307)), 4)
        state = edge_engine.init_state(cfg)
        with edge_engine.silent_float_errors():
            for t in range(1, 4):
                edge_engine.run_round(state, t, cfg)
            est = state.est.copy()
            assert est.tolist() == [[1.0, 1.0]]
            with pytest.raises(DivergenceError, match="at round 4 has a non-finite"):
                edge_engine.run_round(state, 4, cfg)
        assert est.tobytes() == state.est.tobytes()

    def test_round_budget_below_1_rejected(self):
        seq = make_sequence("static", 3, base="line")
        with pytest.raises(ConfigError, match="run.t_max: must be >= 1, got 0"):
            sim(seq, PRACTICAL_09, InitSpec("spike"), 0)
        with pytest.raises(ConfigError, match="run.t_max: must be >= 1, got 0"):
            MetropolisConfig(seq, InitSpec("spike"), t_max=0)

    @pytest.mark.parametrize("d_fixed", [float("nan"), float("inf")])
    def test_non_finite_fixed_bound_rejected(self, d_fixed):
        seq = make_sequence("static", 3, base="line")
        with pytest.raises(ConfigError, match="d_fixed"):
            ProtocolParams(0.25, 0.5, "theorem", "fixed", d_fixed)
        with pytest.raises(ConfigError, match="d_fixed"):
            MetropolisConfig(seq, InitSpec("spike"), 5, "fixed", d_fixed)


class TestStopRule:
    def test_thresholds(self):
        row = compute_metrics((0.0, 1.0), 0.5)
        assert stop_reached(row, 0.5) and not stop_reached(row, 0.25)
        assert stop_reached(row, None, row.V2) and not stop_reached(row, None, 0.0)
        assert not stop_reached(row, None)

    @pytest.mark.parametrize("stop", [{"stop_err": 10.0}, {"stop_v2": 10.0}])
    def test_stop_at_round_0_keeps_the_initial_values(self, stop):
        seq = make_sequence("static", 3, base="line")
        init = InitSpec("explicit", values=(-0.0, 0.5, 1.0))
        want = [v.hex() for v in init.values]
        result = run(sim(seq, PRACTICAL_09, init, 5), **stop)
        assert (result.rounds, result.stopped_at, result.metrics) == (0, 0, [])
        assert [v.hex() for v in result.final_x] == want
        if "stop_err" in stop:  # the baseline takes no V2 threshold
            rows, final_x = run_metropolis(MetropolisConfig(seq, init, 5), **stop)
            assert rows == [] and [v.hex() for v in final_x] == want


class TestBlockColumns:
    """``_drive`` takes a block as columns, bitwise the rows it would build
    one by one, only when it has nothing to report; a block with a V2 that
    is not finite, a row that meets the stop rule or a round the screen
    declines goes row by row, so an overflowing square raises OverflowError
    and a non-finite value the divergence guard's error, after the same sink
    calls, and only the row loop stops the run or validates a round."""

    @staticmethod
    def sink_calls(rows, as_block, **kw):
        """The outcome of driving rows[1:] from rows[0], and the sink's calls."""
        x0, rest = np.array(rows[0]), np.array(rows[1:])

        def step(t):
            if as_block:  # every round left, as one block
                return rest[t - 1 :], 2, 0, len(rest)
            return rest[t - 1], 2, 0, t

        calls = []
        try:
            result = edge_engine._drive(
                x0, len(rest), step, metrics_sink=lambda *call: calls.append(call),
                **kw,
            )
        except (OverflowError, DivergenceError) as exc:
            return type(exc), calls
        return (result.metrics, result.final_x, result.rounds, result.stopped_at), calls

    @classmethod
    def drive(cls, rows, as_block, **kw):
        """The outcome, and the (row, values) pair of each round sunk."""
        outcome, calls = cls.sink_calls(rows, as_block, **kw)
        return outcome, per_round_calls(calls)

    @pytest.mark.parametrize("rows, stops", [
        ([[1.0, -0.0, 0.0], [0.5, 0.0, -0.0], [0.25, -0.0, 0.5], [0.25, 0.25, 0.25]], {}),
        ([[1.0, 0.0], [0.75, 0.25], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5]], {"stop_err": 0.1}),
        ([[1.0, 0.0], [0.75, 0.25], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5]], {"stop_v2": 0.2}),
        ([[0.0, 0.0], [1.0, 2.0], [1e200, -1e200], [0.0, 0.0]], {}),  # a square overflows
        ([[0.0, 0.0], [1.0, 2.0], [np.inf, 0.0], [0.0, 0.0]], {}),
    ])
    def test_a_block_gives_the_rows_of_its_rounds(self, rows, stops):
        block = self.drive(rows, True, **stops)
        assert same_bits(block, self.drive(rows, False, **stops))
        assert len(block[1]) < len(rows) - 1 or not stops

    @pytest.mark.parametrize("stops, declined, by_row", [
        ({}, None, []),  # nothing to report: every row as columns
        ({"stop_err": 0.1}, None, [1, 2]),  # row 2 meets the stop rule
        ({"stop_v2": 0.2}, None, [1, 2]),
        ({}, 3, [1, 2, 3, 4]),  # a checked run whose screen declines round 3
    ])
    def test_only_a_block_with_nothing_to_report_is_taken_as_columns(
        self, monkeypatch, stops, declined, by_row
    ):
        rows = [[1.0, 0.0], [0.75, 0.25], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5]]
        computed, validated = [], []

        def counted(x, avg0, t=0, **counts):
            computed.append(t)
            return compute_metrics(x, avg0, t, **counts)

        def screen(x_pre, x_post, first, **facts):
            return np.arange(first, first + len(x_post)) != declined

        def validate(prev_row, x_pre, x_post, *, row, **facts):
            validated.append(row.t)
            return []

        monkeypatch.setattr(edge_engine, "compute_metrics", counted)
        checks = {"screen": screen, "validate": validate} if declined else {}
        block = self.drive(rows, True, **stops, **checks)
        assert computed[1:] == by_row  # the rows past t=0 built one by one
        assert validated == ([declined] if declined else [])
        validated.clear()
        assert same_bits(block, self.drive(rows, False, **stops, **checks))
        assert validated == ([declined] if declined else [])

    @pytest.mark.parametrize("stops, declined, calls", [
        ({}, None, [(4, 4)]),  # one call, a (4, n) block ending at round 4
        ({"stop_err": 0.1}, None, [(None, 1), (None, 2)]),  # a row per call
        ({"stop_v2": 0.2}, None, [(None, 1), (None, 2)]),
        ({}, 3, [(None, 1), (None, 2), (None, 3), (None, 4)]),
    ])
    def test_a_clear_block_is_one_sink_call(self, stops, declined, calls):
        """A block taken as columns reaches the sink in one call, its row's
        fields columns and its values the block's array; a block that goes
        row by row makes one call per round, as stepped rounds do."""
        rows = [[1.0, 0.0], [0.75, 0.25], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5]]
        checks = {
            "screen": lambda x_pre, x_post, first, **facts:
                np.arange(first, first + len(x_post)) != declined,
            "validate": lambda *args, **kw: [],
        } if declined else {}
        _, sunk = self.sink_calls(rows, True, **stops, **checks)
        assert [
            (len(x) if isinstance(x, np.ndarray) else None, last)
            for _, x, last in sunk
        ] == calls
        if not declined and not stops:
            (row, x, _), = sunk
            assert same_bits(x.tolist(), rows[1:])
            assert row.t.tolist() == [1, 2, 3, 4]
            assert (row.active_edges, row.nonzero_msgs) == (2, 0)


class TestRoundValues:
    """``_drive`` hands ``screen`` and ``validate`` each round's values before
    and after it: before round 1 the initial values, and before any later
    round the values after the round before it, whether that round was
    stepped, opened a quiet stretch, or sat in a block screened as columns
    and then, declined, taken row by row, or in one taken row by row because
    its V2 is not finite."""

    X0 = [1.0, -0.0, 0.5]
    # the step of each round it starts at, and the last round it stands for
    STEPS = {
        1: ([0.75, 0.25, 0.5], 1),  # stepped
        2: ([0.625, 0.375, 0.5], 4),  # stepped, opens a stretch through 4
        5: ([[0.6, 0.4, 0.5], [0.55, 0.45, 0.5], [0.5, 0.5, -0.0]], 7),  # a block
        # a block whose sum of squares overflows, so V2 is inf: row by row
        8: ([[1e154, -1e154, 0.5], [1.2e154, -1.2e154, 0.0]], 9),
        10: ([0.5, 0.5, 0.5], 10),
    }

    def test_each_round_gets_the_values_after_the_round_before(self):
        def step(t):
            values, last = self.STEPS[t]
            return np.array(values), 2, 0, last

        screened, validated, sunk = [], [], []

        def screen(x_pre, x_post, first, **facts):
            screened.extend(
                (first + r, tuple(pre), tuple(post))
                for r, (pre, post) in enumerate(zip(x_pre.tolist(), x_post.tolist()))
            )
            return np.zeros(len(x_post), dtype=bool)  # decline every round

        def validate(prev_row, x_pre, x_post, *, row, **facts):
            validated.append((row.t, tuple(x_pre.tolist()), tuple(x_post.tolist())))
            return []

        result = edge_engine._drive(
            np.array(self.X0), 10, step, screen=screen, validate=validate,
            metrics_sink=lambda row, x, last: sunk.append((row.t, x, last)),
        )
        after = {0: tuple(self.X0)}  # the values after each round
        for first, (values, last) in self.STEPS.items():
            rows = np.array(values, ndmin=2).tolist()
            for t in range(first, last + 1):  # a stretch's skipped rounds repeat it
                after[t] = tuple(rows[min(t - first, len(rows) - 1)])
        with edge_engine.silent_float_errors():
            assert block_metrics(np.array(self.STEPS[8][0]), 0.0) is None
        computed = [1, 2, 5, 6, 7, 8, 9, 10]  # every round but the stretch's 3 and 4
        assert [t for t, _, _ in validated] == computed
        # the block 5-7 is screened as columns, declined, and then goes row by
        # row: rounds 5 and 6 are screened again, while round 7 (its V2 grows)
        # and rounds 8 and 9 fail monotone, which the screen is not asked after
        assert [t for t, _, _ in screened] == [1, 2, 5, 6, 7, 5, 6, 10]
        for t, x_pre, x_post in screened + validated:
            assert same_bits((x_pre, x_post), (after[t - 1], after[t])), t
        assert same_bits(sunk, [(t, after[t], 4 if t == 2 else t) for t in computed])
        assert same_bits(result.final_x, after[10])


class TestLedgerView:
    """``EdgeState.pairs`` is ``est``'s memory seen as one 16-byte element per
    slot, and every round reads and writes the ledger through it: a change
    made to ``est`` in place between two rounds reaches the next round, as it
    reaches a state built afresh on a copy of the changed arrays."""

    @staticmethod
    def stepped(cfg, rounds):
        state = edge_engine.init_state(cfg)
        with edge_engine.silent_float_errors():
            for t in range(1, rounds + 1):
                edge_engine.run_round(state, t, cfg)
        return state

    @staticmethod
    def rebuilt(state):
        """The state on fresh copies of its arrays, its view built on them."""
        return edge_engine.EdgeState(
            state.x.copy(), state.universe, state.est.copy(),
            state.last_seen.copy(), arrays=state.arrays, gap=state.gap.copy(),
        )

    def test_the_view_shares_the_ledgers_memory(self):
        seq = make_sequence("static", 5, base="complete")
        state = edge_engine.init_state(sim(seq, PRACTICAL_09, InitSpec("spike"), 5))
        pairs = state.pairs
        assert pairs.shape == (len(seq.universe),) and pairs.itemsize == 16
        assert np.shares_memory(pairs, state.est)
        state.est[3] = (1.5, -0.0)
        got = pairs[np.array([3])].view(np.float64)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in (1.5, -0.0)]

    @pytest.mark.parametrize("kind", ["static", "core_synthetic"])
    def test_run_round_sees_est_changed_in_place(self, kind):
        if kind == "static":
            seq = make_sequence("static", 4, base="line")
        else:
            seq = make_sequence(
                "core_synthetic", 6, 3, core_edges=[(k, k + 1) for k in range(5)],
                block_len=2, extra_edge_prob=0.3,
            )
        params = ProtocolParams(0.9, 0.0, "practical", prune_horizon=1)
        cfg = sim(seq, params, InitSpec("uniform_random", seed=4, lo=-2.0, hi=2.0), 8)
        state = self.stepped(cfg, 3)
        untouched = self.rebuilt(state)
        ids = seq.edge_ids(4)
        state.est[ids] = [(-3.0, 2.5)] + [(0.5, -0.0)] * (len(ids) - 1)
        fresh = self.rebuilt(state)
        with edge_engine.silent_float_errors():
            for s in (state, fresh, untouched):
                edge_engine.run_round(s, 4, cfg)
        for name in ("x", "est", "last_seen", "q", "gap", "act"):
            assert same_bits(
                getattr(state, name).tolist(), getattr(fresh, name).tolist()
            ), name
        assert state.q.tolist() != untouched.q.tolist()

    def test_quiet_until_sees_est_changed_in_place(self):
        seq = make_sequence("static", 2, base="line")
        init = InitSpec("explicit", values=(0.0, 0.0))
        state = self.stepped(sim(seq, PRACTICAL_09, init, 10**6), 1)
        assert not (state.nonzero_msgs or state.active_edges)
        assert edge_engine._quiet_until(self.rebuilt(state), 1, 0.9, 10**6) == 10**6
        # the gaps stay those of round 1; only the quantizer inputs change
        state.est[0] = (0.25, 0.25)
        want = edge_engine._quiet_until(self.rebuilt(state), 1, 0.9, 10**6)
        assert edge_engine._quiet_until(state, 1, 0.9, 10**6) == want == 4


class TestArraysMemo:
    """A run builds the arrays of a tabulated sequence's snapshot once, the
    first time it shows, and reuses them whenever the snapshot comes back."""

    LINE_STAR = make_sequence(
        "periodic", 20, rounds=[
            [(i, i + 1) for i in range(19)], [(0, j) for j in range(1, 20)],
        ],
    )

    @staticmethod
    def counting_arrays(monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args[4])  # the round that first uses them
            return EdgeArrays(*args, **kwargs)

        monkeypatch.setattr(edge_engine, "EdgeArrays", counted)
        return built

    def test_a_periodic_run_builds_two_arrays(self, monkeypatch):
        cfg = sim(self.LINE_STAR, THEOREM_FAST, InitSpec("spike"), 300)
        built = self.counting_arrays(monkeypatch)
        got = run(cfg)
        assert built == [1, 2]
        monkeypatch.undo()
        want = reference_run(cfg)
        assert same_bits(got.metrics, want.metrics)
        assert same_bits(got.final_x, want.final_x)

    def test_a_periodic_baseline_builds_two_arrays(self, monkeypatch):
        cfg = MetropolisConfig(self.LINE_STAR, InitSpec("spike"), 300)
        built = self.counting_arrays(monkeypatch)
        rows, final_x = run_metropolis(cfg)
        assert built == [1, 2]
        x = list(cfg.init.build(20))
        for t in range(1, 301):
            x = metropolis_round(x, self.LINE_STAR.snapshot(t), "max_degree", None)
        assert same_bits(final_x, tuple(x))
        assert rows[-1].t == 300

    def test_a_generated_run_keeps_the_last_rounds_arrays(self, monkeypatch):
        cfg = sim(make_sequence("relabeled_line", 6, seed=2), THEOREM_FAST,
                  InitSpec("spike"), 40)
        built = self.counting_arrays(monkeypatch)
        run(cfg)
        assert built == list(range(1, 41))
