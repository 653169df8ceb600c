import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import degrees, edge_list
from ternary_consensus.engine import InitSpec
from ternary_consensus.errors import ConfigError, DivergenceError
from ternary_consensus.graphs import (
    ExplicitSequence,
    GraphSnapshot,
    complete_edges,
    line_edges,
    make_sequence,
)
from ternary_consensus.metropolis import MetropolisConfig, run_metropolis


def metropolis_round(x, g: GraphSnapshot, d_policy="max_degree", d_fixed=None):
    """One baseline step from x over g: a one-round run_metropolis."""
    init = InitSpec("explicit", values=tuple(x))
    cfg = MetropolisConfig(ExplicitSequence((g,), "static"), init, 1, d_policy, d_fixed)
    return list(run_metropolis(cfg)[1])


def update_matrix(g: GraphSnapshot, d_policy="max_degree", d_fixed=None):
    """Dense form of one averaging step, for oracle comparisons."""
    n = g.n
    P = np.eye(n)
    deg = degrees(g)
    for i, j in edge_list(g):
        if d_policy == "max_degree":
            d = max(deg[i], deg[j])
        elif d_policy == "global_n":
            d = n
        else:
            d = d_fixed
        P[i, j] += 1.0 / d
        P[j, i] += 1.0 / d
        P[i, i] -= 1.0 / d
        P[j, j] -= 1.0 / d
    return P


class TestRound:
    def test_constant_fixed_point(self):
        g = GraphSnapshot(4, complete_edges(4))
        assert metropolis_round([0.3] * 4, g) == [0.3] * 4

    def test_two_nodes_average_in_one_step(self):
        # degrees are 2 and 2, so D = 2 and the single exchange halves the gap
        # twice: both end at the midpoint
        g = GraphSnapshot(2, frozenset([(0, 1)]))
        assert metropolis_round([0.0, 1.0], g) == [0.5, 0.5]

    def test_edgeless_round_is_identity(self):
        g = GraphSnapshot(3, frozenset())
        assert metropolis_round([0.1, 0.5, 0.9], g) == [0.1, 0.5, 0.9]

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2, max_size=7,
        ),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100)
    def test_mean_preserved(self, xs, seed):
        n = len(xs)
        rng = random.Random(seed)
        edges = [(i, j) for i, j in complete_edges(n).tolist() if rng.random() < 0.6]
        g = GraphSnapshot(n, frozenset(edges))
        out = metropolis_round(xs, g)
        assert sum(out) / n == pytest.approx(sum(xs) / n, abs=1e-12 * max(1, max(map(abs, xs))))

    def test_fixed_policy_validated(self):
        g = GraphSnapshot(2, frozenset([(0, 1)]))
        with pytest.raises(ConfigError):
            metropolis_round([0.0, 1.0], g, d_policy="fixed", d_fixed=1.0)
        assert metropolis_round([0.0, 1.0], g, d_policy="fixed", d_fixed=4.0) == [
            0.25, 0.75,
        ]

    def test_matches_dense_matrix(self):
        rng = random.Random(11)
        for n in (3, 5, 7):
            edges = [
                (i, j) for i, j in complete_edges(n).tolist() if rng.random() < 0.5
            ]
            g = GraphSnapshot(n, frozenset(edges))
            x = [rng.uniform(-2, 2) for _ in range(n)]
            P = update_matrix(g)
            assert np.allclose(metropolis_round(x, g), P @ np.array(x), atol=1e-12)


class TestRun:
    def test_complete_graph_geometric_convergence(self):
        # oracle: x(t) = P^t x(0) for the fixed complete-graph update
        seq = make_sequence("static", 4, base="complete")
        init = InitSpec("explicit", values=(1.0, 0.0, 0.0, 0.0))
        cfg = MetropolisConfig(seq, init, t_max=100, d_policy="global_n")
        rows, final_x = run_metropolis(cfg)
        assert rows[99].err_max <= 1e-6
        P = update_matrix(seq.snapshot(1), "global_n")
        want = np.linalg.matrix_power(P, 100) @ np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(final_x, want, atol=1e-12)

    def test_line_dispersion_strictly_decreases(self):
        seq = make_sequence("static", 5, base="line")
        init = InitSpec("uniform_random", seed=3)
        cfg = MetropolisConfig(seq, init, t_max=200)
        rows, _ = run_metropolis(cfg)
        prev_v2 = None
        for row in rows:
            if prev_v2 is not None and row.W > 0:
                assert row.V2 < prev_v2
            prev_v2 = row.V2

    def test_slem_predicts_convergence_round(self):
        # second-largest eigenvalue modulus gives a sufficient round count
        seq = make_sequence("static", 5, base="line")
        init = InitSpec("explicit", values=(1.0, 0.0, 0.0, 0.0, 0.0))
        P = update_matrix(seq.snapshot(1))
        eig = np.sort(np.abs(np.linalg.eigvalsh(P)))
        slem = eig[-2]
        assert slem < 1.0
        v20 = math.sqrt(sum((v - 0.2) ** 2 for v in (1.0, 0.0, 0.0, 0.0, 0.0)))
        t_star = math.ceil(math.log(1e-9 / v20) / math.log(slem)) + 1
        cfg = MetropolisConfig(seq, init, t_max=t_star)
        rows, _ = run_metropolis(cfg)
        assert rows[-1].err_max <= 1e-9

    def test_monotone_extremes(self):
        seq = make_sequence("relabeled_line", 6, seed=8)
        init = InitSpec("uniform_random", seed=2)
        cfg = MetropolisConfig(seq, init, t_max=300)
        rows, _ = run_metropolis(cfg)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.M <= prev.M + 1e-12
            assert cur.m >= prev.m - 1e-12
            assert cur.V2 <= prev.V2 + 1e-12

    def test_metrics_schema_and_stop(self):
        seq = make_sequence("static", 4, base="line")
        cfg = MetropolisConfig(seq, InitSpec("spike"), t_max=500)
        rows, _ = run_metropolis(cfg, stop_err=0.01)
        assert rows[-1].err_max <= 0.01
        assert rows[-2].err_max > 0.01
        assert rows[0].active_edges == 3
        assert rows[0].nonzero_msgs == 0

    def test_complete_max_degree_averages_in_one_round(self):
        # with D = max degree = n on the complete graph, one step lands
        # every node exactly on the average
        seq = make_sequence("static", 4, base="complete")
        cfg = MetropolisConfig(seq, InitSpec("spike"), t_max=1)
        rows, final_x = run_metropolis(cfg)
        assert final_x == (0.25, 0.25, 0.25, 0.25)

    def test_edgeless_rounds_leave_values(self):
        seq = make_sequence("periodic", 3, rounds=[[], [(0, 1)]])
        cfg = MetropolisConfig(seq, InitSpec("spike"), t_max=2)
        rows, final_x = run_metropolis(cfg)
        assert rows[0].M == 1.0 and rows[0].W == 1.0
        assert final_x[2] == 0.0

    def test_divergence_names_node_round_and_value(self, monkeypatch):
        # weights within the degree bound keep values finite, so a faulty
        # step stands in for a diverging one
        import ternary_consensus.metropolis as metropolis_mod

        def faulty(x, arrays):
            return np.where(np.arange(len(x)) == 1, np.inf, x)

        monkeypatch.setattr(metropolis_mod, "_step", faulty)
        cfg = MetropolisConfig(make_sequence("static", 3, base="line"),
                               InitSpec("spike"), t_max=5)
        with pytest.raises(DivergenceError,
                           match=r"^node 1 became non-finite at round 1: inf$"):
            run_metropolis(cfg)


class TestSharedDegreeBound:
    def test_library_and_baseline_raise_the_same_error(self):
        # theorem variant on complete-6 with a fixed bound below degree 6
        from ternary_consensus.engine import SimulationConfig, run
        from ternary_consensus.errors import PolicyViolationError
        from ternary_consensus.protocol import ProtocolParams

        seq = make_sequence("static", 6, base="complete")
        params = ProtocolParams(
            alpha=0.25, beta=0.5, variant="theorem", d_policy="fixed", d_fixed=2.0,
        )
        with pytest.raises(PolicyViolationError, match="round 1"):
            run(SimulationConfig(seq, params, InitSpec("spike"), 10))
        with pytest.raises(PolicyViolationError, match="round 1"):
            MetropolisConfig(
                seq, InitSpec("spike"), t_max=10, d_policy="fixed", d_fixed=2.0
            )

    def test_edge_arrays_own_the_fixed_bound_check(self):
        from ternary_consensus.engine import EdgeArrays
        from ternary_consensus.errors import PolicyViolationError
        from ternary_consensus.protocol import pair_bound

        line = line_edges(3)  # degrees 2, 3, 2 with self-loops
        with pytest.raises(PolicyViolationError, match="pair degree 3 at round 7"):
            EdgeArrays(3, line, "fixed", 2.0, 7)
        assert EdgeArrays(3, line, "fixed", 3.0, 7).D.tolist() == [3.0, 3.0]
        # the formula itself trusts the check made when the arrays are built
        assert pair_bound("fixed", 2.0, 3, 3, 2) == 2.0

    def test_edgeless_rounds_never_violate_a_fixed_bound(self):
        seq = make_sequence("periodic", 3, rounds=[[], [(0, 1)]])
        cfg = MetropolisConfig(
            seq, InitSpec("spike"), t_max=1, d_policy="fixed", d_fixed=1.0
        )
        rows, _ = run_metropolis(cfg)
        assert len(rows) == 1
