import pytest

from reference_engine import World, init_state, run_round
from ternary_consensus.engine import InitSpec, SimulationConfig, run
from ternary_consensus.errors import (
    ConfigError,
    DivergenceError,
    PolicyViolationError,
)
from ternary_consensus.graphs import make_sequence
from ternary_consensus.metropolis import MetropolisConfig, run_metropolis
from ternary_consensus.protocol import LedgerEntry, NodeState, ProtocolParams

PRACTICAL_09 = ProtocolParams(alpha=0.9, beta=0.0, variant="practical")
THEOREM_FAST = ProtocolParams(alpha=0.25, beta=0.5, variant="theorem")


def sim(seq, params, init, t_max, **kw):
    return SimulationConfig(seq, params, init, t_max, **kw)


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
            InitSpec("spike"), 2, record_level="full_trace",
        )

    def test_round_one_is_silent(self):
        # t^alpha = 1, so the spike maps to quantize(1.0) = 0: nothing moves
        world = init_state(self.cfg)
        rec = run_round(world, 1, self.cfg)
        assert [m.q for m in rec.messages] == [0, 0]
        assert rec.estimates[0][1] == (0.0, 0.0)
        assert rec.active_sets == [set(), set()]
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
        assert rec.active_sets == [set(), set()]
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
                record_level="full_trace",
            )
            result = run(cfg)
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
            record_level="full_trace",
        )
        for rec in run(cfg).records:
            assert abs(sum(rec.x_post) / 3 - 1.0) <= 1e-9

    def test_budget_contract(self):
        seq = make_sequence("static", 3, base="complete")
        with pytest.raises(ConfigError, match="t_max"):
            sim(seq, PRACTICAL_09, InitSpec("spike"), 0)
        cfg = sim(seq, PRACTICAL_09, InitSpec("spike"), 1,
                  record_level="full_trace")
        result = run(cfg)
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


class TestWireDiscipline:
    def test_far_node_cannot_leak_in_one_round(self):
        # node 0 only ever sees node 1's messages; changing node 2's value
        # cannot alter node 0's round outcome
        seq = make_sequence("static", 3, base="line")
        outs = []
        for far in (0.0, 123.0):
            cfg = sim(seq, PRACTICAL_09,
                      InitSpec("explicit", values=(0.9, 0.4, far)), 1,
                      record_level="full_trace")
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
        cfg = sim(make_sequence("static", 2, edges=[(0, 1)]), params,
                  InitSpec("spike"), 10)
        with pytest.raises(PolicyViolationError):
            run(cfg)

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
