"""Synchronous round executor.

Each round runs in phases over all nodes: materialize the round's graph,
create ledger entries for newly appearing edges, compute every message from
time-(t-1) state, deliver and fold messages into ledgers, then compute active
sets and value updates. Only ternary messages ever cross between nodes; the
engine also computes the symmetric per-pair degree bounds centrally so both
endpoints of an edge divide by the same number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite

from .analysis import MetricsRow, compute_metrics, validate_round
from .errors import ConfigError, DivergenceError, InvariantViolationError
from .graphs import Edge, GraphSequence, GraphSnapshot
from .protocol import (
    Message,
    NodeState,
    ProtocolParams,
    active_set,
    apply_messages,
    check_fixed_bound,
    compute_message,
    pair_bound,
    round_scales,
    value_update,
)

INIT_KINDS = ("spike", "uniform_random", "explicit")
RECORD_LEVELS = ("metrics_only", "full_trace")

# |mean(x(t)) - mean(x(0))| stays below this times max(1, |x(0)|_inf)
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class InitSpec:
    """Initial value assignment: a unit spike at node 0, a seeded uniform
    draw per node, or an explicit vector."""

    kind: str
    seed: int = 0
    lo: float = 0.0
    hi: float = 1.0
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ConfigError(f"init kind must be one of {INIT_KINDS}, got {self.kind!r}")
        if self.kind == "uniform_random" and not self.lo < self.hi:
            raise ConfigError(f"uniform init needs lo < hi, got [{self.lo}, {self.hi})")
        if self.kind == "explicit":
            if not self.values:
                raise ConfigError("explicit init needs a values vector")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def build(self, n: int) -> tuple[float, ...]:
        if self.kind == "spike":
            return (1.0,) + (0.0,) * (n - 1)
        if self.kind == "uniform_random":
            rng = random.Random(self.seed)
            return tuple(rng.uniform(self.lo, self.hi) for _ in range(n))
        assert self.values is not None
        if len(self.values) != n:
            raise ConfigError(
                f"explicit init has {len(self.values)} values for n={n} nodes"
            )
        return self.values


@dataclass(frozen=True)
class SimulationConfig:
    seq: GraphSequence
    params: ProtocolParams
    init: InitSpec
    t_max: int
    record_level: str = "metrics_only"
    check_invariants: bool = False

    def __post_init__(self):
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if self.record_level not in RECORD_LEVELS:
            raise ConfigError(
                f"record_level must be one of {RECORD_LEVELS}, got "
                f"{self.record_level!r}"
            )
        if self.init.kind == "explicit" and self.init.values is not None:
            if len(self.init.values) != self.seq.n:
                raise ConfigError(
                    f"explicit init has {len(self.init.values)} values for "
                    f"n={self.seq.n} nodes"
                )


@dataclass(slots=True)
class RoundRecord:
    """Everything observable about one round: the graph, every message, the
    per-node active sets, pre/post value vectors, the engine's per-pair degree
    bounds for active pairs, and each node's (x_in, x_out) estimate pairs at
    time t."""

    t: int
    graph: GraphSnapshot
    messages: list[Message]
    active_sets: list[set[int]]
    x_pre: tuple[float, ...]
    x_post: tuple[float, ...]
    d_bounds: dict[Edge, float]
    estimates: list[dict[int, tuple[float, float]]]


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


@dataclass(slots=True)
class RunResult:
    metrics: list[MetricsRow]
    records: list[RoundRecord]
    final_x: tuple[float, ...]
    rounds: int
    stopped_at: int | None


def init_state(config: SimulationConfig) -> World:
    """World at t=0: values per the init spec, every ledger empty."""
    n = config.seq.n
    x0 = config.init.build(n)
    nodes = [NodeState(i, x0[i]) for i in range(n)]
    return World(
        nodes,
        x0,
        avg0=sum(x0) / n,
        w0=max(x0) - min(x0),
        xinf0=max(abs(v) for v in x0),
    )


def run_round(world: World, t: int, config: SimulationConfig) -> RoundRecord:
    """Execute round t (mutating world in place) and return its record.

    Phase order: snapshot the graph; create ledger entries for edges appearing
    for the first time (or after pruning); compute all messages from
    time-(t-1) values; deliver; compute active sets and value updates. All
    messages are computed before any ledger changes, so within a round every
    node sees a consistent picture of the previous round.
    """
    params = config.params
    nodes = world.nodes
    g = config.seq.snapshot(t)
    n = g.n
    edge_list = g.edge_list
    degrees = g.degrees
    # the practical variant's 2*max(d_i, d_j) denominator ignores d_policy
    d_policy = params.d_policy if params.variant == "theorem" else "max_degree"
    d_fixed = params.d_fixed
    check_fixed_bound(d_policy, d_fixed, degrees, t)

    for i, j in edge_list:
        nodes[i].ensure_peer(j, t)
        nodes[j].ensure_peer(i, t)

    t_alpha, inv_ta, threshold = round_scales(t, params.alpha)
    step = t ** (-params.beta) if params.variant == "theorem" else 1.0

    sent: list[list[Message]] = [[] for _ in range(n)]
    received: list[list[Message]] = [[] for _ in range(n)]
    messages: list[Message] = []
    for i, j in edge_list:
        mi = compute_message(nodes[i], j, t, params, t_alpha=t_alpha)
        mj = compute_message(nodes[j], i, t, params, t_alpha=t_alpha)
        sent[i].append(mi)
        received[j].append(mi)
        sent[j].append(mj)
        received[i].append(mj)
        messages.append(mi)
        messages.append(mj)

    prune = params.prune_horizon is not None
    for i in range(n):
        if sent[i] or (prune and nodes[i].ledger):
            apply_messages(
                nodes[i], t, sent[i], received[i], params, inv_t_alpha=inv_ta
            )

    x_pre = tuple(node.x for node in nodes)
    adjacency = g.adjacency
    active_sets: list[set[int]] = []
    for i in range(n):
        if sent[i]:
            active_sets.append(
                active_set(
                    nodes[i], t, adjacency[i], sent[i], received[i], params,
                    threshold=threshold,
                )
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
                d = pair_bound(d_policy, d_fixed, n, degrees[i], degrees[j])
                d_bounds[key] = d
            dmap[j] = d
        value_update(nodes[i], t, act, dmap, params, step=step)

    x_post = tuple(node.x for node in nodes)
    for i, v in enumerate(x_post):
        if not isfinite(v):
            raise DivergenceError(f"node {i} became non-finite at round {t}: {v!r}")

    estimates = [
        {peer: (e.x_in, e.x_out) for peer, e in node.ledger.items()}
        for node in nodes
    ]
    return RoundRecord(
        t, g, messages, active_sets, x_pre, x_post, d_bounds, estimates
    )


def _row_from_record(rec: RoundRecord, avg0: float) -> MetricsRow:
    active_pairs = sum(len(s) for s in rec.active_sets) // 2
    nonzero = sum(1 for m in rec.messages if m.q)
    return compute_metrics(
        rec.x_post, avg0, t=rec.t, active_edges=active_pairs, nonzero_msgs=nonzero
    )


def run(
    config: SimulationConfig,
    *,
    stop_err: float | None = None,
    stop_v2: float | None = None,
    metrics_sink=None,
    record_sink=None,
    keep_metrics: bool = True,
    keep_records: bool | None = None,
) -> RunResult:
    """Run rounds 1..t_max, or fewer if a stop threshold is met first.

    With check_invariants set, every round's record is validated and the
    first violating round raises InvariantViolationError naming each failed
    check. Sinks receive rows/records as they are produced, which keeps very
    long runs memory-flat when keep_metrics/keep_records are off.
    """
    if keep_records is None:
        keep_records = config.record_level == "full_trace" and record_sink is None
    world = init_state(config)
    params = config.params

    rows: list[MetricsRow] = []
    records: list[RoundRecord] = []
    prev_row = compute_metrics(world.x0, world.avg0, t=0)
    if stop_err is not None and prev_row.err_max <= stop_err:
        return RunResult(rows, records, world.x0, rounds=0, stopped_at=0)
    if stop_v2 is not None and prev_row.V2 <= stop_v2:
        return RunResult(rows, records, world.x0, rounds=0, stopped_at=0)

    check = config.check_invariants
    cons_tol = CONSERVATION_TOL * max(1.0, world.xinf0)
    stopped_at = None
    rounds = 0
    for t in range(1, config.t_max + 1):
        rec = run_round(world, t, config)
        row = _row_from_record(rec, world.avg0)
        rounds = t
        if check:
            violations = validate_round(
                rec, prev_row, params, w0=world.w0, xinf0=world.xinf0
            )
            n = len(rec.x_post)
            drift = abs(sum(rec.x_post) / n - world.avg0)
            if drift > cons_tol:
                violations.append(
                    f"conservation: mean drifted by {drift:.3e} at t={t}"
                )
            if violations:
                raise InvariantViolationError(t, violations)
        if metrics_sink is not None:
            metrics_sink(row)
        if keep_metrics:
            rows.append(row)
        if record_sink is not None:
            record_sink(rec)
        if keep_records:
            records.append(rec)
        prev_row = row
        if stop_err is not None and row.err_max <= stop_err:
            stopped_at = t
            break
        if stop_v2 is not None and row.V2 <= stop_v2:
            stopped_at = t
            break
    return RunResult(rows, records, world.x, rounds=rounds, stopped_at=stopped_at)
