"""Per-node reference executor: the protocol in ``protocol.py`` run node by
node, with one ledger per node and one ``Message`` per link direction.

The package's engine runs the same rounds over edge-indexed arrays; tests
compare it with this loop bitwise. Here estimate mirroring and active-set
symmetry are properties the run has to keep, not facts of the data layout,
so checked reference runs exercise those invariants for real.

``core_synthetic_snapshot`` is the same kind of executable reference for the
``core_synthetic`` generator: it redraws a round's whole block on every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite
from types import MappingProxyType

from oracles import degrees, edge_list
from ternary_consensus.analysis import (
    MetricsRow,
    compute_metrics,
    fold_sum,
    validate_round,
)
from ternary_consensus.engine import RoundRecord, RunResult, SimulationConfig
from ternary_consensus.errors import DivergenceError, InvariantViolationError
from ternary_consensus.graphs import (
    CoreSyntheticSequence,
    Edge,
    GraphSnapshot,
    derive_seed,
)
from ternary_consensus.protocol import (
    Message,
    NodeState,
    active_set,
    apply_messages,
    check_fixed_bound,
    compute_message,
    pair_bound,
    value_update,
)


@dataclass(slots=True)
class World:
    """All node states plus frozen facts about the initial condition."""

    nodes: list[NodeState]
    x0: tuple[float, ...]
    avg0: float
    w0: float
    xinf0: float

    @property
    def x(self) -> tuple[float, ...]:
        return tuple(node.x for node in self.nodes)


def init_state(config: SimulationConfig) -> World:
    """World at t=0: values per the init spec, every ledger empty."""
    n = config.seq.n
    x0 = config.init.build(n)
    nodes = [NodeState(i, x0[i]) for i in range(n)]
    return World(
        nodes,
        x0,
        avg0=fold_sum(x0) / n,
        w0=max(x0) - min(x0),
        xinf0=max(abs(v) for v in x0),
    )


def run_round(world: World, t: int, config: SimulationConfig) -> RoundRecord:
    """Execute round t (mutating world in place) and return its record.

    Phase order: snapshot the graph; create ledger entries for edges appearing
    for the first time (or after pruning); compute all messages from
    time-(t-1) values; deliver; compute active sets and value updates.
    """
    params = config.params
    nodes = world.nodes
    g = config.seq.snapshot(t)
    n = g.n
    edges = edge_list(g)
    deg = degrees(g)
    # the practical variant's 2*max(d_i, d_j) denominator ignores d_policy
    d_policy = params.d_policy if params.variant == "theorem" else "max_degree"
    d_fixed = params.d_fixed
    check_fixed_bound(d_policy, d_fixed, max(deg), t)

    for i, j in edges:
        nodes[i].ensure_peer(j, t)
        nodes[j].ensure_peer(i, t)

    sent: list[list[Message]] = [[] for _ in range(n)]
    received: list[list[Message]] = [[] for _ in range(n)]
    messages: list[Message] = []
    for i, j in edges:
        mi = compute_message(nodes[i], j, t, params)
        mj = compute_message(nodes[j], i, t, params)
        sent[i].append(mi)
        received[j].append(mi)
        sent[j].append(mj)
        received[i].append(mj)
        messages.append(mi)
        messages.append(mj)

    prune = params.prune_horizon is not None
    for i in range(n):
        if sent[i] or (prune and nodes[i].ledger):
            apply_messages(nodes[i], t, sent[i], received[i], params)

    x_pre = tuple(node.x for node in nodes)
    active_sets: list[set[int]] = []
    for i in range(n):
        if sent[i]:
            peers = tuple(m.dst for m in sent[i])
            active_sets.append(
                active_set(nodes[i], t, peers, sent[i], received[i], params)
            )
        else:
            active_sets.append(set())

    d_bounds: dict[Edge, float] = {}
    for i in range(n):
        act = active_sets[i]
        if not act:
            continue
        dmap: dict[int, float] = {}
        for j in act:
            key = (i, j) if i < j else (j, i)
            d = d_bounds.get(key)
            if d is None:
                d = pair_bound(d_policy, d_fixed, n, deg[i], deg[j])
                d_bounds[key] = d
            dmap[j] = d
        value_update(nodes[i], t, act, dmap, params)

    x_post = tuple(node.x for node in nodes)
    for i, v in enumerate(x_post):
        if not isfinite(v):
            raise DivergenceError(f"node {i} became non-finite at round {t}: {v!r}")

    estimates = tuple(
        MappingProxyType({peer: (e.x_in, e.x_out) for peer, e in node.ledger.items()})
        for node in nodes
    )
    return RoundRecord(
        t, g, tuple(messages), tuple(map(frozenset, active_sets)), x_pre, x_post,
        MappingProxyType(d_bounds), estimates,
    )


def run(config: SimulationConfig, *, stop_err: float | None = None) -> RunResult:
    """Rounds 1..t_max (or to stop_err) with every record kept; with
    check_invariants set, each round is validated as the engine does."""
    world = init_state(config)
    rows: list[MetricsRow] = []
    records: list[RoundRecord] = []
    prev_row = compute_metrics(world.x0, world.avg0, t=0)
    if stop_err is not None and prev_row.err_max <= stop_err:
        return RunResult(rows, records, world.x0, rounds=0, stopped_at=0)
    stopped_at = None
    rounds = 0
    for t in range(1, config.t_max + 1):
        rec = run_round(world, t, config)
        row = compute_metrics(
            rec.x_post, world.avg0, t=t,
            active_edges=sum(len(s) for s in rec.active_sets) // 2,
            nonzero_msgs=sum(1 for m in rec.messages if m.q),
        )
        rounds = t
        if config.check_invariants:
            violations = validate_round(
                rec, prev_row, config.params, row=row,
                w0=world.w0, xinf0=world.xinf0, avg0=world.avg0,
            )
            if violations:
                raise InvariantViolationError(t, violations)
        rows.append(row)
        records.append(rec)
        prev_row = row
        if stop_err is not None and row.err_max <= stop_err:
            stopped_at = t
            break
    return RunResult(rows, records, world.x, rounds=rounds, stopped_at=stopped_at)


def metropolis_round(
    x: list[float], g: GraphSnapshot, d_policy: str, d_fixed: float | None
) -> list[float]:
    """One averaging step, edge by edge: each edge moves (x_j - x_i) / D(i,j)
    from j to i, accumulated per node in edge-list order."""
    deg = degrees(g)
    n = g.n
    dx = [0.0] * n
    for i, j in edge_list(g):
        d = pair_bound(d_policy, d_fixed, n, deg[i], deg[j])
        flow = (x[j] - x[i]) / d
        dx[i] += flow
        dx[j] -= flow
    return [x[i] + dx[i] for i in range(n)]


def core_synthetic_snapshot(seq: CoreSyntheticSequence, t: int) -> GraphSnapshot:
    """Round t of a core_synthetic sequence, drawn with no state kept between
    rounds: reseed the block's child PRNG, redraw every core edge's offset in
    sorted edge order and keep the edges drawn at t's offset, then add each
    sorted non-core pair with probability p from the round's child PRNG."""
    B = seq.block_len
    block = (t - 1) // B
    offset = (t - 1) % B
    block_rng = random.Random(derive_seed(seq.seed, 1, block))
    core = sorted(map(tuple, seq.core_edges.tolist()))
    edges = {e for e in core if block_rng.randrange(B) == offset}
    if seq.extra_edge_prob > 0.0:
        round_rng = random.Random(derive_seed(seq.seed, 2, t))
        p = seq.extra_edge_prob
        non_core = sorted(
            {(i, j) for i in range(seq.n) for j in range(i + 1, seq.n)}
            - set(core)
        )
        edges.update(e for e in non_core if round_rng.random() < p)
    return GraphSnapshot(seq.n, frozenset(edges))
