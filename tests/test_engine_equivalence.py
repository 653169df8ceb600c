"""Differential tests: the edge-array engine and the vectorised baseline
against the per-node / per-edge loops in reference_engine, compared bitwise
(floats by float.hex, so signed zeros count)."""

import dataclasses
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine as ref
from ternary_consensus.analysis import compute_metrics
from ternary_consensus.engine import InitSpec, SimulationConfig, run
from ternary_consensus.errors import (
    DivergenceError,
    InvariantViolationError,
    PolicyViolationError,
)
from ternary_consensus.graphs import GraphSnapshot, make_sequence
from ternary_consensus.metropolis import (
    MetropolisConfig,
    metropolis_round,
    run_metropolis,
)
from ternary_consensus.protocol import ProtocolParams, check_fixed_bound

SEQ_KINDS = (
    "line", "complete", "periodic", "explicit", "core_synthetic", "relabeled_line",
)
THEOREM_EXPONENTS = ((0.25, 0.5), (0.5, 0.75), (0.75, 0.875))


def bits(v):
    """A comparable form of v in which every float is its exact hex string."""
    if isinstance(v, float):
        return v.hex()
    if dataclasses.is_dataclass(v):
        return type(v).__name__, [bits(getattr(v, f.name)) for f in dataclasses.fields(v)]
    if isinstance(v, (list, tuple)):
        return type(v).__name__, [bits(u) for u in v]
    if isinstance(v, dict):
        return {k: bits(u) for k, u in v.items()}
    return v


def outcome(fn):
    """fn's result, or the type and message of the run failure it raised."""
    try:
        return fn()
    except (DivergenceError, InvariantViolationError, PolicyViolationError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def sequences(draw, n, t_max):
    kind = draw(st.sampled_from(SEQ_KINDS))
    pairs = list(itertools.combinations(range(n), 2))
    subsets = st.lists(st.sampled_from(pairs), max_size=len(pairs))
    if kind in ("line", "complete"):
        return make_sequence("static", n, base=kind)
    if kind == "periodic":
        return make_sequence("periodic", n, rounds=draw(st.lists(subsets, min_size=1, max_size=5)))
    if kind == "explicit":
        # edgeless rounds and isolated nodes come from empty or small subsets
        rounds = draw(st.lists(subsets, min_size=t_max, max_size=t_max))
        return make_sequence("explicit", n, rounds=rounds)
    seed = draw(st.integers(0, 2**32))
    if kind == "relabeled_line":
        return make_sequence("relabeled_line", n, seed=seed)
    perm = draw(st.permutations(range(n)))
    core = [(perm[k], perm[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    return make_sequence(
        "core_synthetic", n, seed, core_edges=core,
        block_len=draw(st.integers(1, 4)),
        extra_edge_prob=draw(st.sampled_from((0.0, 0.1, 0.4))),
    )


@st.composite
def inits(draw, n):
    kind = draw(st.sampled_from(("spike", "uniform_random", "explicit")))
    if kind == "spike":
        return InitSpec("spike")
    if kind == "uniform_random":
        return InitSpec("uniform_random", seed=draw(st.integers(0, 1000)), lo=-3.0, hi=5.0)
    value = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-10.0, 10.0, width=64)
    )
    return InitSpec("explicit", values=draw(st.lists(value, min_size=n, max_size=n)))


@st.composite
def d_policies(draw, n):
    policy = draw(st.sampled_from(("max_degree", "global_n", "fixed")))
    if policy != "fixed":
        return policy, None
    # a bound below n may be violated on some round: both sides must then
    # fail the same way
    return policy, draw(st.sampled_from((2.0, 3.0, float(n), n + 0.5)))


@st.composite
def simulations(draw):
    n = draw(st.integers(2, 10))
    t_max = draw(st.integers(1, 60))
    seq = draw(sequences(n, t_max))
    d_policy, d_fixed = draw(d_policies(n))
    prune = draw(st.one_of(st.none(), st.integers(1, 5)))
    if draw(st.booleans()):
        alpha, beta = draw(st.sampled_from(THEOREM_EXPONENTS))
        params = ProtocolParams(alpha, beta, "theorem", d_policy, d_fixed, prune)
    else:
        alpha = draw(st.sampled_from((0.5, 0.9)))
        params = ProtocolParams(alpha, 0.0, "practical", d_policy, d_fixed, prune)
    return SimulationConfig(
        seq, params, draw(inits(n)), t_max,
        record_level="full_trace", check_invariants=draw(st.booleans()),
    )


@given(simulations())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_matches_per_node_reference(cfg):
    want = outcome(lambda: ref.run(cfg))
    got = outcome(lambda: run(cfg))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert bits(got.final_x) == bits(want.final_x)
    assert bits(got.metrics) == bits(want.metrics)
    assert bits(got.records) == bits(want.records)
    assert (got.rounds, got.stopped_at) == (want.rounds, want.stopped_at)


def reference_metropolis(cfg: MetropolisConfig):
    """run_metropolis as a per-edge loop over Python floats."""
    n = cfg.seq.n
    x = list(cfg.init.build(n))
    avg0 = sum(x) / n
    rows = []
    for t in range(1, cfg.t_max + 1):
        g = cfg.seq.snapshot(t)
        check_fixed_bound(cfg.d_policy, cfg.d_fixed, g.degrees, t)
        x = ref.metropolis_round(x, g, cfg.d_policy, cfg.d_fixed)
        rows.append(compute_metrics(x, avg0, t=t, active_edges=len(g.edges)))
    return rows, tuple(x)


@st.composite
def baselines(draw):
    n = draw(st.integers(2, 10))
    t_max = draw(st.integers(1, 60))
    d_policy, d_fixed = draw(d_policies(n))
    return MetropolisConfig(
        draw(sequences(n, t_max)), draw(inits(n)), t_max, d_policy, d_fixed
    )


@given(baselines())
@settings(max_examples=60, deadline=None)
def test_run_metropolis_matches_per_edge_loop(cfg):
    assert bits(outcome(lambda: run_metropolis(cfg))) == bits(
        outcome(lambda: reference_metropolis(cfg))
    )


@given(
    st.integers(2, 10).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.one_of(st.just(-0.0), st.floats(-100.0, 100.0, width=64)),
                min_size=n, max_size=n,
            ),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.sampled_from(("max_degree", "global_n")),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_metropolis_round_matches_per_edge_loop(case):
    x, keep, d_policy = case
    n = len(x)
    pairs = itertools.combinations(range(n), 2)
    g = GraphSnapshot(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert bits(metropolis_round(x, g, d_policy)) == bits(
        ref.metropolis_round(x, g, d_policy, None)
    )
