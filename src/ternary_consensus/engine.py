"""Synchronous round executor over edge-indexed arrays.

The protocol's ledgers are mirrored: node i's inbound estimate for j is
bitwise equal to node j's outbound estimate for i, because both sides apply
the same increments in the same order. So one pair of floats per undirected
edge holds the whole ledger, and a round of the per-node state machine in
``protocol`` becomes a few numpy operations over edge-indexed arrays. The
result is bitwise identical to running ``protocol`` node by node: every
float operation is the same IEEE operation on the same operands, and each
node folds its active peers in ascending order, as ``value_update`` does.

``RoundRecord``s are built only when something reads them: the invariant
checker, a record sink, or a kept full trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .analysis import CONSERVATION_TOL  # noqa: F401  (importable from engine too)
from .analysis import MetricsRow, compute_metrics, validate_round
from .errors import ConfigError, DivergenceError, InvariantViolationError
from .graphs import Edge, GraphSequence, GraphSnapshot
from .protocol import (
    Message,
    ProtocolParams,
    check_fixed_bound,
    pair_bound,
    round_scales,
)

INIT_KINDS = ("spike", "uniform_random", "explicit")
RECORD_LEVELS = ("metrics_only", "full_trace")


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
        """The n initial values; an explicit vector is returned as given
        (``check_run_lengths`` matches its length to n at construction)."""
        if self.kind == "spike":
            return (1.0,) + (0.0,) * (n - 1)
        if self.kind == "uniform_random":
            rng = random.Random(self.seed)
            return tuple(rng.uniform(self.lo, self.hi) for _ in range(n))
        return self.values


def check_run_lengths(seq: GraphSequence, init: InitSpec, t_max: int) -> None:
    """Reject an explicit init vector whose length is not the node count, and
    a finite explicit sequence shorter than the round budget. Messages name
    the config keys (init.values, run.t_max) that set these lengths."""
    if init.kind == "explicit" and len(init.values) != seq.n:
        raise ConfigError(
            f"init.values: {len(init.values)} values for n={seq.n} nodes"
        )
    if seq.kind == "explicit" and t_max > len(seq):
        raise ConfigError(
            f"run.t_max: {t_max} rounds exceed the explicit sequence's "
            f"{len(seq)} rounds"
        )


def initial_metrics(x0: tuple[float, ...]) -> tuple[float, MetricsRow]:
    """The initial average and the t=0 metrics row. Raises DivergenceError
    when float arithmetic cannot carry the average or the dispersion."""
    avg0 = sum(x0) / len(x0)
    try:
        row = compute_metrics(x0, avg0, t=0)
    except OverflowError:  # a squared deviation beyond the float range
        row = None
    if row is None or not (isfinite(avg0) and isfinite(row.W) and isfinite(row.V2)):
        raise DivergenceError(
            f"the average ({avg0!r}) or the dispersion of the initial values "
            f"is beyond the float range"
        )
    return avg0, row


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
        check_run_lengths(self.seq, self.init, self.t_max)


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


class EdgeArrays:
    """Edge-indexed arrays of one snapshot, shared by the protocol engine and
    the averaging baseline. Runners build them once per snapshot object and
    reuse them while the sequence hands out the same object.

    Edge k is ``graph.edge_list[k] = (eu[k], ev[k])`` with eu < ev, and D[k]
    its pair bound under the given policy; ``ends`` lists eu[0], ev[0],
    eu[1], ev[1], ... The half-edges list every edge once from each endpoint,
    sorted by (node, peer): half-edge h belongs to node h_node[h], refers to
    edge h_edge[h] and carries sign h_sign[h], +1 at the low endpoint and -1
    at the high one. ``np.bincount`` adds its weights in array order starting
    from +0.0, so a fold over the half-edges adds each node's terms in
    ascending peer order, as the per-node loops do (``np.sum`` adds pairwise
    and rounds differently once a node has 8 or more terms).
    """

    __slots__ = ("graph", "ends", "eu", "ev", "D", "h_node", "h_edge", "h_sign")

    def __init__(self, g: GraphSnapshot, d_policy: str, d_fixed: float | None):
        edges = g.edge_list
        m = len(edges)
        ends = np.array(edges, dtype=np.intp).ravel()
        eu = ends[0::2]
        ev = ends[1::2]
        deg = g.degrees
        node = np.concatenate((eu, ev))
        order = np.lexsort((np.concatenate((ev, eu)), node))
        self.graph = g
        self.ends = ends
        self.eu = eu
        self.ev = ev
        self.D = np.array(
            [pair_bound(d_policy, d_fixed, g.n, deg[i], deg[j]) for i, j in edges],
            dtype=float,
        )
        self.h_node = node[order]
        self.h_edge = order % m if m else order
        self.h_sign = np.where(order < m, 1.0, -1.0)

    def fold(self, per_edge: np.ndarray) -> np.ndarray:
        """Per-node sums of +per_edge[k] at eu[k] and -per_edge[k] at ev[k],
        each node's terms added in ascending peer order."""
        return np.bincount(
            self.h_node,
            weights=self.h_sign * per_edge[self.h_edge],
            minlength=self.graph.n,
        )


@dataclass(slots=True, eq=False)
class EdgeState:
    """Run state: node values, one estimate pair per undirected edge ever
    seen, frozen facts about the initial condition, and the arrays of the
    current snapshot.

    Slot s holds edge (u, v), u < v, the s-th distinct edge to appear:
    est[s] = (a, b), where a is u's outbound estimate toward v (v's inbound
    estimate of u) and b is v's outbound estimate toward u. last_seen[s] is
    the last round the edge was present. With a prune horizon H the protocol
    drops an entry at the end of the first round r with last_seen < r - H;
    here the entry is zeroed when the edge reappears after such a round, and
    counts as live in a record while last_seen >= t - H.
    """

    x: np.ndarray
    est: np.ndarray
    last_seen: np.ndarray
    slot_of: dict[Edge, int]
    x0: tuple[float, ...]
    avg0: float
    xinf0: float
    row0: MetricsRow
    records: bool
    arrays: EdgeArrays | None = None
    slot: np.ndarray | None = None  # slot of each edge of the snapshot
    denom: np.ndarray | None = None  # 2*D (practical) or 4*D (theorem)
    silent: list[Message] | None = None  # the snapshot's messages, all q = 0
    nonzero_msgs: int = 0  # counters of the last round run
    active_edges: int = 0


@dataclass(slots=True)
class RunResult:
    metrics: list[MetricsRow]
    records: list[RoundRecord]
    final_x: tuple[float, ...]
    rounds: int
    stopped_at: int | None


def init_state(config: SimulationConfig, records: bool = False) -> EdgeState:
    """State at t=0: values per the init spec, no edge seen yet. With
    ``records`` set, run_round returns a RoundRecord for every round."""
    x0 = config.init.build(config.seq.n)
    avg0, row0 = initial_metrics(x0)
    return EdgeState(
        x=np.array(x0, dtype=float),
        est=np.zeros((0, 2)),
        last_seen=np.zeros(0, dtype=np.int64),
        slot_of={},
        x0=x0,
        avg0=avg0,
        xinf0=max(abs(v) for v in x0),
        row0=row0,
        records=records,
    )


def _enter_snapshot(
    state: EdgeState, g: GraphSnapshot, t: int, params: ProtocolParams
) -> None:
    """Build the arrays of a snapshot first handed out at round t, giving new
    edges zeroed slots."""
    # the practical variant's 2*max(d_i, d_j) denominator ignores d_policy
    d_policy = params.d_policy if params.variant == "theorem" else "max_degree"
    check_fixed_bound(d_policy, params.d_fixed, g.degrees, t)
    arrays = EdgeArrays(g, d_policy, params.d_fixed)
    slot_of = state.slot_of
    known = len(slot_of)
    slots = [slot_of.setdefault(e, len(slot_of)) for e in g.edge_list]
    grown = len(slot_of) - known
    if grown:
        state.est = np.concatenate((state.est, np.zeros((grown, 2))))
        state.last_seen = np.concatenate(
            (state.last_seen, np.zeros(grown, dtype=np.int64))
        )
    state.arrays = arrays
    state.slot = np.array(slots, dtype=np.intp)
    state.denom = (2.0 if params.variant == "practical" else 4.0) * arrays.D
    if state.records:
        # records copy this list and patch in the few nonzero symbols
        state.silent = [
            m
            for i, j in g.edge_list
            for m in (Message(i, j, 0), Message(j, i, 0))
        ]


def run_round(
    state: EdgeState, t: int, config: SimulationConfig
) -> RoundRecord | None:
    """Execute round t, mutating state in place; return its record when the
    state was made with ``records``, else None.

    Phase order as in the protocol: snapshot the graph; zero the estimates of
    edges reappearing after pruning; compute every message from time-(t-1)
    state; fold the messages into the estimates; select the active pairs and
    update values. ``state.nonzero_msgs``/``state.active_edges`` count the
    round's nonzero messages and mutually active pairs.
    """
    params = config.params
    g = config.seq.snapshot(t)
    if state.arrays is None or g is not state.arrays.graph:
        _enter_snapshot(state, g, t, params)
    arrays = state.arrays
    slot = state.slot
    est = state.est
    last_seen = state.last_seen
    if params.prune_horizon is not None:
        est[slot[last_seen[slot] < t - 1 - params.prune_horizon]] = 0.0
    t_alpha, inv_ta, threshold = round_scales(t, params.alpha)
    x = state.x

    # messages, in edge order: u -> v then v -> u; x_out[2k] is a, x_out[2k+1] b
    x_out = est[slot].ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        v = t_alpha * (x[arrays.ends] - x_out)
    finite = np.isfinite(v)
    if not finite.all():
        h = int(np.argmin(finite))
        src = arrays.ends
        raise DivergenceError(
            f"message from node {src[h]} to node {src[h ^ 1]} at round {t} has "
            f"a non-finite quantizer input {float(v[h])!r}"
        )
    q = (v > 1.0).view(np.int8) - (v < -1.0).view(np.int8)

    # fold: both ledger sides of an edge apply the same increment
    x_out += q * inv_ta
    est[slot] = x_out.reshape(-1, 2)
    last_seen[slot] = t

    # active pairs: both messages 0 and |x_in - x_out| > 4/t^alpha
    gap = x_out[1::2] - x_out[0::2]  # b - a: x_in - x_out at u, negated at v
    act = ((q[0::2] | q[1::2]) == 0) & (np.abs(gap) > threshold)
    x_pre = x
    if act.any():
        # inactive edges add +-0.0, which leaves a sum from +0.0 unchanged
        acc = arrays.fold(np.where(act, gap / state.denom, 0.0))
        if params.variant == "theorem":
            acc = t ** (-params.beta) * acc
        # nodes with no active peer keep x untouched, signed zeros included
        moved = np.zeros(g.n, dtype=bool)
        moved[arrays.eu[act]] = True
        moved[arrays.ev[act]] = True
        x = np.where(moved, x + acc, x)
        bad = ~np.isfinite(x)
        if bad.any():
            i = int(np.argmax(bad))
            raise DivergenceError(
                f"node {i} became non-finite at round {t}: {float(x[i])!r}"
            )
        state.x = x
    state.nonzero_msgs = int(np.count_nonzero(q))
    state.active_edges = int(np.count_nonzero(act))
    if not state.records:
        return None
    return _record(state, t, q, act, x_pre, x, params)


def _record(
    state: EdgeState,
    t: int,
    q: np.ndarray,
    act: np.ndarray,
    x_pre: np.ndarray,
    x_post: np.ndarray,
    params: ProtocolParams,
) -> RoundRecord:
    """The per-node view of round t, rebuilt from the edge arrays."""
    g = state.arrays.graph
    n = g.n
    edges = g.edge_list
    messages = state.silent.copy()
    for h in np.flatnonzero(q).tolist():
        src, dst, _ = messages[h]
        messages[h] = Message(src, dst, int(q[h]))
    active_sets: list[set[int]] = [set() for _ in range(n)]
    d_bounds: dict[Edge, float] = {}
    D = state.arrays.D
    for k in np.flatnonzero(act).tolist():
        i, j = edges[k]
        active_sets[i].add(j)
        active_sets[j].add(i)
        d_bounds[i, j] = float(D[k])
    estimates: list[dict[int, tuple[float, float]]] = [{} for _ in range(n)]
    horizon = params.prune_horizon
    cutoff = t - horizon if horizon is not None else 0
    for (i, j), (a, b), seen in zip(
        state.slot_of, state.est.tolist(), state.last_seen.tolist()
    ):
        if seen >= cutoff:
            estimates[i][j] = (b, a)
            estimates[j][i] = (a, b)
    return RoundRecord(
        t, g, messages, active_sets, tuple(x_pre.tolist()), tuple(x_post.tolist()),
        d_bounds, estimates,
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
    long runs memory-flat when keep_metrics/keep_records are off. Records are
    built only when checked, sunk or kept.
    """
    if keep_records is None:
        keep_records = config.record_level == "full_trace" and record_sink is None
    check = config.check_invariants
    state = init_state(config, records=check or keep_records or record_sink is not None)
    params = config.params
    avg0 = state.avg0

    rows: list[MetricsRow] = []
    records: list[RoundRecord] = []
    prev_row = state.row0
    if stop_err is not None and prev_row.err_max <= stop_err:
        return RunResult(rows, records, state.x0, rounds=0, stopped_at=0)
    if stop_v2 is not None and prev_row.V2 <= stop_v2:
        return RunResult(rows, records, state.x0, rounds=0, stopped_at=0)

    stopped_at = None
    rounds = 0
    for t in range(1, config.t_max + 1):
        rec = run_round(state, t, config)
        row = compute_metrics(
            state.x.tolist(), avg0, t=t,
            active_edges=state.active_edges, nonzero_msgs=state.nonzero_msgs,
        )
        rounds = t
        if check:
            violations = validate_round(
                rec, prev_row, params,
                w0=state.row0.W, xinf0=state.xinf0, avg0=avg0,
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
    return RunResult(
        rows, records, tuple(state.x.tolist()), rounds=rounds, stopped_at=stopped_at
    )
