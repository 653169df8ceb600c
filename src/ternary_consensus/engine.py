"""Synchronous round executor over edge-indexed arrays.

The protocol's ledgers are mirrored: node i's inbound estimate for j is
bitwise equal to node j's outbound estimate for i, because both sides apply
the same increments in the same order. So one pair of floats per undirected
edge holds the whole ledger, and a round of the per-node state machine in
``protocol`` becomes a few numpy operations over edge-indexed arrays. The
result is bitwise identical to running ``protocol`` node by node: every
float operation is the same IEEE operation on the same operands, and each
node folds its active peers in ascending order, as ``value_update`` does.

``run_round`` mutates an ``EdgeState`` and returns nothing; every reader of
a round takes that state and the round's values before and after it, which
the run loop hands out. The metrics sink gets each round's row and values,
in one call for a whole quiet stretch or active block. A checked run screens
each step's rounds in one ``analysis.screen_block`` call, a round run alone
being one row. ``_record`` turns the state and the two value vectors into a
``RoundRecord`` only when ``run`` is asked to keep records, or for
``validate_round`` on a round that the screen does not clear.

On a static graph most rounds of a long run are quiet: no message is
nonzero and no pair is active. After a quiet round, ``_quiet_until`` bounds
the rounds that must stay quiet too, and ``run`` skips them: the run loop
hands them to the sink in one call without running them. Most of the other
rounds send no nonzero message and keep the active set of the round before;
when ``_calm_through`` predicts such a stretch, ``_active_block`` computes it
as one accumulate, up to the first round that sends a message or changes
the active set; it is the one place that compares active sets. Why the
rows, records and checker verdicts are bitwise those of running every round
is argued once, in ``run``'s docstring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from math import floor, inf, isfinite
from types import MappingProxyType

import numpy as np

from .analysis import CONSERVATION_TOL  # noqa: F401  (importable from engine too)
from .analysis import (
    MetricsRow,
    block_metrics,
    compute_metrics,
    fold_sum,
    monotone,
    screen_block,
    validate_round,
)
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
TABULATED_KINDS = ("static", "periodic", "explicit")
MAX_ROUNDS = 2**53


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
    """Reject a round budget below 1, beyond 2**53 or beyond a finite explicit
    sequence, and an explicit init vector whose length is not the node count.
    Messages name the config keys (run.t_max, init.values) that set these
    lengths. Round numbers are stored as int64 and raised to alpha as floats,
    which hold every integer only up to 2**53; a quiet stretch can reach
    t_max without running the rounds before it."""
    if t_max < 1:
        raise ConfigError(f"run.t_max: must be >= 1, got {t_max}")
    if t_max > MAX_ROUNDS:
        raise ConfigError(f"run.t_max: must be <= 2**53, got {t_max}")
    if init.kind == "explicit" and len(init.values) != seq.n:
        raise ConfigError(
            f"init.values: {len(init.values)} values for n={seq.n} nodes"
        )
    if seq.kind == "explicit" and t_max > len(seq):
        raise ConfigError(
            f"run.t_max: {t_max} rounds exceed the explicit sequence's "
            f"{len(seq)} rounds"
        )


def stop_reached(row: MetricsRow, stop_err: float | None, stop_v2: float | None = None):
    """The stop rule of both runners: a run stops after the first metrics
    row, the t=0 row included, with err_max at or below stop_err or V2 at or
    below stop_v2. A threshold of None never stops the run. A row whose
    fields are columns (``_drive``'s blocks) gets the verdicts as a column."""
    hit = stop_err is not None and row.err_max <= stop_err
    if stop_v2 is not None:
        hit = hit | (row.V2 <= stop_v2)
    return hit


@dataclass(frozen=True)
class SimulationConfig:
    seq: GraphSequence
    params: ProtocolParams
    init: InitSpec
    t_max: int
    check_invariants: bool = False

    def __post_init__(self):
        check_run_lengths(self.seq, self.init, self.t_max)
        check_known_bounds(
            self.seq, self.params.bound_policy, self.params.d_fixed, self.t_max
        )


def check_known_bounds(
    seq: GraphSequence, d_policy: str, d_fixed: float | None, t_max: int
) -> None:
    """Reject a fixed degree bound below the max pair degree of a static,
    periodic or explicit snapshot used in rounds 1..t_max, naming the first
    round that uses it: its arrays are built as the run builds them, and
    check the bound. Generated sequences (core_synthetic, relabeled_line)
    are checked as their rounds are run."""
    if d_policy != "fixed" or seq.kind not in TABULATED_KINDS:
        return
    memo: dict[int, EdgeArrays] = {}
    for t in range(1, min(t_max, len(seq.rounds)) + 1):
        round_arrays(seq, t, d_policy, d_fixed, memo)


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything observable about one round: the graph, every message, the
    per-node active sets, pre/post value vectors, the engine's per-pair degree
    bounds for active pairs, and each node's (x_in, x_out) estimate pairs at
    time t. Every field is immutable, so the records of a quiet stretch share
    their parts. A round skipped or computed in an active block gets the
    record that running it would give (see ``run``)."""

    t: int
    graph: GraphSnapshot
    messages: tuple[Message, ...]
    active_sets: tuple[frozenset[int], ...]
    x_pre: tuple[float, ...]
    x_post: tuple[float, ...]
    d_bounds: MappingProxyType[Edge, float]
    estimates: tuple[MappingProxyType[int, tuple[float, float]], ...]


class EdgeArrays:
    """Edge-indexed arrays of one snapshot, shared by the protocol engine and
    the averaging baseline, built by ``round_arrays``; building them checks a
    fixed degree bound against the snapshot, first used at round t.

    Edge k is ``edges[k] = (eu[k], ev[k])`` with eu < ev, its universe row
    ids[k] (``ids`` is the sequence's ``edge_ids`` array), D[k] its pair
    bound under the given policy and denom[k] = scale * D[k] the update's
    denominator; deg[i] is node i's degree counting the self-loop, and
    ``max_degree()`` their largest, Delta, which a fixed bound's check and
    the invariant screen read. ``ends`` lists eu[0], ev[0], eu[1], ev[1],
    ... The snapshot ``graph`` and its all-zero messages ``silent`` are
    built by its first record. The half-edges list every edge once from
    each endpoint: first every edge from its high end ev[k], then every edge
    from its low end eu[k], both in edge order; half-edge h belongs to node
    h_node[h]. The edges are sorted, so a node's half-edges in the first
    part name its lower peers in ascending order and those in the second
    part its higher peers in ascending order. ``np.bincount`` adds its
    weights in array order starting from +0.0, so a fold over the
    half-edges adds each node's terms in ascending peer order, as the
    per-node loops do (``np.sum`` adds pairwise and rounds differently once
    a node has 8 or more terms).
    """

    __slots__ = ("n", "edges", "ends", "eu", "ev", "deg", "D", "denom", "h_node",
                 "ids", "graph", "silent", "delta")

    def __init__(
        self, n: int, edges: np.ndarray, d_policy: str, d_fixed: float | None,
        t: int, scale: float = 1.0, ids: np.ndarray | None = None,
    ):
        self.n = n
        self.edges = edges
        self.ends = ends = edges.ravel()
        self.eu = eu = ends[0::2]
        self.ev = ev = ends[1::2]
        self.deg = deg = np.bincount(ends, minlength=n) + 1  # the self-loop counts
        if d_policy == "fixed":
            check_fixed_bound(d_policy, d_fixed, self.max_degree(), t)
        self.D = pair_bound(d_policy, d_fixed, n, deg[eu], deg[ev])
        self.denom = scale * self.D
        self.h_node = np.concatenate((ev, eu))
        self.ids = ids
        self.graph = self.silent = None

    def max_degree(self) -> int:
        """Delta, the largest degree counting the self-loop, computed on the
        first call and kept: a fixed bound's check in ``__init__`` and a
        checked run's screen read it, so other runs pay nothing for it."""
        try:
            return self.delta
        except AttributeError:  # the slot is set here only
            self.delta = int(np.maximum.reduce(self.deg))
            return self.delta

    def fold(self, per_edge: np.ndarray) -> np.ndarray:
        """Per-node sums of +per_edge[k] at eu[k] and -per_edge[k] at ev[k],
        each node's terms added in ascending peer order."""
        if not len(self.h_node):  # bincount of no weights would give int64 zeros
            return np.zeros(self.n)
        return np.bincount(
            self.h_node, weights=np.concatenate((-per_edge, per_edge)), minlength=self.n
        )


def round_arrays(
    seq: GraphSequence, t: int, d_policy: str, d_fixed: float | None,
    memo: dict[int, EdgeArrays], scale: float = 1.0,
) -> EdgeArrays:
    """Round t's arrays, the one rule of both runners: the arrays in ``memo``,
    a run's map from id(ids) to the arrays built for that ids object, while
    the sequence hands out an ids object again, and otherwise new arrays of
    the universe rows ``seq.edge_ids(t)``. A tabulated sequence hands out one
    ids object per distinct snapshot, and the memo keeps the arrays of each;
    a generated one rarely repeats an edge set, and the memo keeps those of
    the last round only. Each entry holds its ids object, so no other object
    can take its id while the entry lives."""
    ids = seq.edge_ids(t)
    arrays = memo.get(id(ids))
    if arrays is None:
        arrays = EdgeArrays(
            seq.n, seq.universe.take(ids, axis=0), d_policy, d_fixed, t, scale, ids
        )
        if seq.kind not in TABULATED_KINDS:
            memo.clear()
        memo[id(ids)] = arrays
    return arrays


@dataclass(slots=True, eq=False)
class EdgeState:
    """Run state: node values, one estimate pair per edge of the sequence's
    universe, and the arrays of the current snapshot.

    Slot s holds edge (u, v) = universe[s], u < v: est[s] = (a, b), where a
    is u's outbound estimate toward v (v's inbound estimate of u) and b is
    v's outbound estimate toward u. last_seen[s] is the last round the edge
    was present, 0 while it has never been: a never-seen slot holds (0, 0),
    the estimates an edge enters with. With a prune horizon H the protocol
    drops an entry at the end of the first round r with last_seen < r - H;
    here the entry is zeroed when the edge reappears after such a round, and
    a seen slot counts as live in a record while last_seen >= t - H.

    ``pairs`` is the memory of ``est`` seen as one 16-byte element per slot
    (no copy), so a round moves its slots with 1-D gathers and scatters,
    which numpy does at about a third of the cost of indexing rows of
    ``est``; ``pairs[ids].view(np.float64)`` is ``est[ids].ravel()`` bit for
    bit. Change ``est`` in place only: ``pairs`` views the array it was
    built on.

    The last round run leaves its per-edge symbols q (u -> v at 2k, v -> u at
    2k+1), estimate gaps b - a, active mask, fold f and ``moved`` mask of the
    nodes with an active peer (f and ``moved`` are None without an active
    pair) here, for ``analysis.screen_block``, ``_record`` and the blocks,
    which read the mask rather than rebuild it; an active block leaves
    those of its last round, which are those of each of its rounds.
    The values before a round are not kept: ``x`` is replaced, never changed
    in place, so a caller keeps them by holding ``x`` before the round.
    ``memo`` holds the arrays ``round_arrays`` built.
    """

    x: np.ndarray
    universe: np.ndarray  # the sequence's: the edge of each slot
    est: np.ndarray  # (|U|, 2) floats, C-contiguous
    last_seen: np.ndarray
    pairs: np.ndarray = field(init=False, repr=False)
    arrays: EdgeArrays | None = None  # denom: 2*D (practical) or 4*D (theorem)
    memo: dict[int, EdgeArrays] = field(default_factory=dict, repr=False)
    q: np.ndarray | None = None  # the last round run
    gap: np.ndarray | None = None
    act: np.ndarray | None = None
    f: np.ndarray | None = None  # fold of active gap/denom, before t^-beta
    moved: np.ndarray | None = None  # the nodes with an active peer
    nonzero_msgs: int = 0
    active_edges: int = 0

    def __post_init__(self):
        self.pairs = self.est.view(np.complex128).reshape(-1)


@dataclass(slots=True)
class RunResult:
    metrics: list[MetricsRow]
    records: list[RoundRecord]
    final_x: tuple[float, ...]
    rounds: int
    stopped_at: int | None


def init_state(config: SimulationConfig) -> EdgeState:
    """State at t=0: values per the init spec and a zeroed, never-seen slot
    for every edge of the universe."""
    universe = config.seq.universe
    size = len(universe)
    return EdgeState(
        x=np.array(config.init.build(config.seq.n), dtype=float),
        universe=universe,
        est=np.zeros((size, 2)),
        last_seen=np.zeros(size, dtype=np.int64),
    )


def silent_float_errors() -> np.errstate:
    """The float error state a run computes in: an overflow, an invalid
    operation or a division by zero gives inf or nan without a numpy
    warning. ``_drive`` enters it once around its loop, so a run restores
    its caller's state on every exit; a caller stepping ``run_round`` or
    ``analysis.screen_block`` by hand enters it around its loop. A
    non-finite value is still reported once it reaches a quantizer input
    (``run_round``) or a node value (the loop's divergence guard), and the
    screen declines a round on any nan it reads."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def run_round(state: EdgeState, t: int, config: SimulationConfig) -> None:
    """Execute round t, mutating state in place, under the caller's float
    error state (see ``silent_float_errors``).

    Phase order as in the protocol: take the round's edge ids; zero the
    estimates of edges reappearing after pruning; compute every message from
    time-(t-1) state; fold the messages into the estimates; select the
    active pairs and update values. ``state.nonzero_msgs``/
    ``state.active_edges`` count the round's nonzero messages and mutually
    active pairs.
    """
    params = config.params
    arrays = state.arrays = round_arrays(
        config.seq, t, params.bound_policy, params.d_fixed, state.memo,
        params.denom_scale,
    )
    ids = arrays.ids
    last_seen = state.last_seen
    # the round's slots, gathered; written back whole once the messages are
    # folded in, so a round that fails leaves the ledger as it found it
    ledger = state.pairs[ids]
    if params.prune_horizon is not None:
        ledger[last_seen[ids] < t - 1 - params.prune_horizon] = 0.0
    t_alpha, inv_ta, threshold = round_scales(t, params.alpha)
    x = state.x

    # messages, in edge order: u -> v then v -> u; x_out[2k] is a, x_out[2k+1] b
    x_out = ledger.view(np.float64)
    v = t_alpha * (x[arrays.ends] - x_out)
    # a sum of finite inputs can overflow, but any inf or nan input makes it
    # non-finite: only then is every input tested
    if not isfinite(np.add.reduce(v)):
        finite = np.isfinite(v)
        if not np.logical_and.reduce(finite):
            h = int(np.argmin(finite))
            src = arrays.ends
            raise DivergenceError(
                f"message from node {src[h]} to node {src[h ^ 1]} at round {t} "
                f"has a non-finite quantizer input {float(v[h])!r}"
            )
    q = (v > 1.0).view(np.int8) - (v < -1.0).view(np.int8)

    # fold: both ledger sides of an edge apply the same increment
    x_out += q * inv_ta
    state.pairs[ids] = ledger
    last_seen[ids] = t

    # active pairs: both messages 0 and |x_in - x_out| > 4/t^alpha
    gap = x_out[1::2] - x_out[0::2]  # b - a: x_in - x_out at u, negated at v
    act = (q.view(np.int16) == 0) & (np.abs(gap) > threshold)  # both symbols 0
    active_edges = int(np.count_nonzero(act))
    f = moved = None
    if active_edges:
        # inactive edges add +-0.0, which leaves a sum from +0.0 unchanged
        f = arrays.fold(np.where(act, gap / arrays.denom, 0.0))
        acc = t ** (-params.beta) * f  # practical: t**-0.0 * f is f
        # nodes with no active peer keep x untouched, signed zeros included
        moved = np.zeros(len(x), dtype=bool)
        moved[arrays.eu[act]] = True
        moved[arrays.ev[act]] = True
        x = np.where(moved, x + acc, x)
        state.x = x
    state.q = q
    state.gap = gap
    state.act = act
    state.f = f
    state.moved = moved
    state.nonzero_msgs = int(np.count_nonzero(q))
    state.active_edges = active_edges


QUIET_MARGIN = 1.0 - 1e-9


def _quiet_until(state: EdgeState, t: int, alpha: float, t_max: int) -> int:
    """After a quiet round t on a static graph, the last round, at most t_max,
    that provably stays quiet; the state's edges are marked seen through it.

    While nothing changes, half-edge h stays silent in round s as long as
    s^alpha * d_h <= 1, with d_h = |x_i - x_out| its quantizer input over
    s^alpha, and edge k stays inactive as long as s^alpha * g_k <= 4, with
    g_k = |b - a| its gap. Every round s with s^alpha <= QUIET_MARGIN *
    min(1/d_max, 4/g_max) passes both: the margin sits on s^alpha itself, so
    it covers the rounding of s**alpha, of the products and of the power
    below for every alpha in (0, 1). A bound beyond the float range (no
    difference left, or one so small that the power overflows) reaches
    t_max.

    Each round of the stretch would leave the state as round t left it, but
    for t and last_seen. Marking the slots through the last round lets the
    round after the stretch prune as if the stretch had run.
    """
    d_max = float(np.maximum.reduce(_inputs(state), initial=0.0))
    g_max = float(np.maximum.reduce(np.abs(state.gap), initial=0.0))
    try:
        scale = min(
            QUIET_MARGIN / d_max if d_max else inf,
            4.0 * QUIET_MARGIN / g_max if g_max else inf,
        )
        last = min(floor(scale ** (1.0 / alpha)), t_max)
    except OverflowError:  # the power, or floor(inf)
        last = t_max
    if last > t:
        state.last_seen[state.arrays.ids] = last
    return max(last, t)


def _inputs(state: EdgeState) -> np.ndarray:
    """d_h = |x_i - x_out| for every half-edge h of node i, in ``arrays.ends``
    order, after the last round run (see ``_quiet_until``)."""
    arrays = state.arrays
    return np.abs(state.x[arrays.ends] - state.pairs[arrays.ids].view(np.float64))


def _calm_through(state: EdgeState, t: int, s: int, params: ProtocolParams) -> bool:
    """Whether rounds t+1..s are predicted calm after round t, which sent no
    nonzero message and has an active pair: no inactive edge's gap exceeds
    4/s^alpha, and s^alpha * (d_h + |f_i| * S) <= 1 for every half-edge h of
    node i, where S = ((s-1)^(1-beta) - t^(1-beta)) / (1-beta) bounds the sum
    of r^-beta over r = t+1..s-1 from above (beta is 0 when practical). Both
    clauses only tighten as s grows. The prediction only decides whether a
    block is tried: ``_active_block`` tests each of its rounds exactly."""
    s_alpha = s**params.alpha
    if np.count_nonzero(np.abs(state.gap) > 4.0 / s_alpha) != state.active_edges:
        return False  # the cheap clause first: it rejects most predictions
    b = 1.0 - params.beta
    d = _inputs(state)
    d += np.abs(state.f)[state.arrays.ends] * (((s - 1) ** b - t**b) / b)
    return s_alpha * float(np.maximum.reduce(d)) <= 1.0


BLOCK_AFTER = 8  # the shortest predicted calm stretch worth a block
BLOCK_ELEMENTS = 2**13  # cap on a block's rounds times max(2m, n)


def _active_block(
    state: EdgeState, t: int, params: ProtocolParams, size: int
) -> np.ndarray:
    """The values of rounds t-1, t, ..., t+k-1 as the rows of a (k+1, n)
    array, where round t-1 is the last round run and k <= size counts the
    rounds before the first event: a half-edge whose quantizer input leaves
    [-1, 1] (a message) or is not finite, an edge whose activation differs
    from round t-1's, or a node value that is not finite. The state is left
    as round t+k-1 would leave it, its edges marked seen through that round.

    While no message is sent, every estimate, and so every gap, keeps its
    value (``run`` argues why), and with the active mask fixed so do the
    folded vector f and the moved nodes, both read from the state. Round s
    then moves x by s^-beta * f on the moved nodes (f when practical:
    s^-0.0 is 1.0), so the rows are one ``np.add.accumulate``, which adds
    in sequence as the rounds do. Each
    round's events are tested with its own ``round_scales(s, alpha)`` and
    the engine's expressions, on the values of round s-1; the round scales
    and s^-beta are C ``pow`` columns, as ``run_round`` computes them.
    """
    arrays = state.arrays
    act, gap, x, moved = state.act, state.gap, state.x, state.moved
    rounds = np.arange(t, t + size, dtype=float)
    t_alpha, _, threshold = round_scales(rounds, params.alpha)
    steps = np.empty((size + 1, np.count_nonzero(moved)))
    steps[0] = x[moved]
    steps[1:] = state.f[moved]
    steps[1:] *= np.float_power(rounds, -params.beta)[:, None]
    values = np.repeat(x[None], size + 1, axis=0)
    values[:, moved] = np.add.accumulate(steps)
    # round s's quantizer inputs s^alpha * (x - x_out), formed in place
    v = values[:-1, arrays.ends]
    v -= state.pairs[arrays.ids].view(np.float64)
    v *= t_alpha[:, None]
    calm = np.logical_and.reduce(np.abs(v, out=v) <= 1.0, axis=1)  # no message, no nan
    calm &= np.logical_and.reduce((np.abs(gap) > threshold[:, None]) == act, axis=1)
    calm &= np.logical_and.reduce(np.isfinite(values[1:]), axis=1)
    k = size if np.logical_and.reduce(calm) else int(np.argmin(calm))
    if k:
        state.x = values[k].copy()
        state.last_seen[arrays.ids] = t + k - 1
    return values[: k + 1]


def _record(
    state: EdgeState, t: int, params: ProtocolParams, x_pre, x_post
) -> RoundRecord:
    """Round t's per-node view, rebuilt from the edge arrays of the state
    the last step left (a round run, or an active block, each of whose
    rounds leaves that state but for the values; see ``run``), with the
    round's values x_pre before it and x_post after it, vectors or tuples
    of floats. ``run`` copies it for the rest of the quiet stretch t
    opens, as only a static sequence skips (see ``run``)."""
    arrays = state.arrays
    if arrays.graph is None:
        edges = arrays.edges.tolist()
        arrays.graph = GraphSnapshot(arrays.n, arrays.edges)
        # records copy this tuple and patch in the few nonzero symbols
        arrays.silent = tuple(
            m for i, j in edges for m in (Message(i, j, 0), Message(j, i, 0))
        )
    g = arrays.graph
    n = g.n
    q = state.q
    act = state.act
    messages = list(arrays.silent)
    for h in np.flatnonzero(q).tolist():
        src, dst, _ = messages[h]
        messages[h] = Message(src, dst, int(q[h]))
    active_sets: list[set[int]] = [set() for _ in range(n)]
    d_bounds: dict[Edge, float] = {}
    for i, j, d in zip(
        arrays.eu[act].tolist(), arrays.ev[act].tolist(), arrays.D[act].tolist()
    ):
        active_sets[i].add(j)
        active_sets[j].add(i)
        d_bounds[i, j] = d
    estimates: list[dict[int, tuple[float, float]]] = [{} for _ in range(n)]
    horizon = params.prune_horizon
    live = state.last_seen >= (max(t - horizon, 1) if horizon is not None else 1)
    for (i, j), (a, b) in zip(
        state.universe[live].tolist(), state.est[live].tolist()
    ):
        estimates[i][j] = (b, a)
        estimates[j][i] = (a, b)
    return RoundRecord(
        t, g, tuple(messages), tuple(map(frozenset, active_sets)),
        tuple(map(float, x_pre)), tuple(map(float, x_post)),
        MappingProxyType(d_bounds), tuple(map(MappingProxyType, estimates)),
    )


def _drive(
    x: np.ndarray, t_max: int, step, *, validate=None, screen=None,
    stop_err: float | None = None, stop_v2: float | None = None,
    metrics_sink=None, keep_metrics: bool = True,
) -> RunResult:
    """The run loop of both runners, from the initial values x. ``step(t)``
    computes round t, or rounds t, t+1, ... of an active block, and returns
    their values (one vector, or one row per round), their active edge and
    nonzero message counts, and the last round, at most t_max, through
    which it proves the run quiet, every round after the last one computed
    repeating its values and counts (that round itself when it proves
    nothing); a step that runs a round and opens a block returns that
    round's values as the block's first row. Only this loop computes the
    t=0 facts (avg0, the spread w0 and the sup-norm xinf0), builds each
    round's row with ``compute_metrics`` (or a clear block's as columns,
    below), applies the stop rule after each row, guards node values
    against divergence, hands the facts to ``screen`` and ``validate`` and
    calls the sink; the last values are ``final_x``.

    The loop runs the round that opens a quiet stretch and jumps over the
    rest: ``metrics_sink(row, x, last)`` is called once per round taken row
    by row, with its row, its values as a tuple of floats and the stretch's
    last round, and stands for rounds row.t..last, each with the row's
    fields and its own t (last == row.t for a round that opens no stretch).
    A block taken as columns is one call for its k rounds: the row's fields
    are columns (t and the five floats, one entry per round; the two
    counts, which every round of a block shares, stay ints), x is the
    block's (k, n) array of values, one row per round, and last is its last
    round; the loop reads these arrays after the call, so the sink must not
    write to them. Kept rows are expanded into one ``MetricsRow`` per round.
    Every round that ``step`` computes, and none of a stretch's skipped
    rounds, is checked: one ``screen(x_pre, x_post, first, **facts)`` call
    per step, made before either path below, gives rounds first..first+k-1
    a verdict each, from their values before and after, the rows of two
    (k, n) arrays (k = 1 for a round run alone), and only a round that its
    verdict or ``monotone`` of its row declines goes to ``validate(prev_row,
    x_pre, x_post, *, row, **facts)``. The values before round 1 are x, and
    before any later round those after the round before it: the row before
    it in a block, or the values a stretch repeats. Why that is the output
    of running every round is argued in ``run``. ``step``, ``screen``,
    ``validate`` and the sink run under ``silent_float_errors``, entered
    once for the whole loop.

    A block is taken as columns, bitwise the rows ``compute_metrics`` would
    build (see ``analysis.block_metrics``), only when it has nothing to
    report: every row is finite, no row meets the stop rule, and in a checked
    run the step's verdicts and ``monotone`` over the columns clear every
    row. Any other block goes row by row, as stepped rounds do, so only the
    row loop raises, validates and stops: there ``compute_metrics`` may
    raise OverflowError, the divergence guard names a value that is not
    finite, and each round reads its verdict from the step's call. A block
    taken as columns builds one ``MetricsRow`` of columns, which the stop
    rule, ``monotone`` and the sink read, and a row per round only when
    rows are kept."""
    xs = tuple(x.tolist())
    avg0 = fold_sum(xs) / len(xs)
    try:
        prev_row = compute_metrics(xs, avg0, t=0)
    except OverflowError:  # a squared deviation beyond the float range
        prev_row = None
    if prev_row is None or not all(map(isfinite, (avg0, prev_row.W, prev_row.V2))):
        raise DivergenceError(
            f"the average ({avg0!r}) or the dispersion of the initial values "
            f"is beyond the float range"
        )
    xinf0 = max(abs(prev_row.M), abs(prev_row.m))
    facts = {"w0": prev_row.W, "xinf0": xinf0, "avg0": avg0}
    rows: list[MetricsRow] = []
    t = 0
    with silent_float_errors():  # x: the values after round t, before the next
        while not stop_reached(prev_row, stop_err, stop_v2) and t < t_max:
            values, active_edges, nonzero_msgs, last = step(t + 1)
            computed = values if values.ndim == 2 else (values,)
            k = len(computed)
            if validate is not None:  # a verdict per round computed, in one call
                pre = np.concatenate((x[None], values[:-1])) if k > 1 else x[None]
                cleared = screen(pre, values.reshape(k, -1), t + 1, **facts)
            if k > 1 and (cols := block_metrics(values, avg0)) is not None:
                counts = (active_edges, nonzero_msgs)
                ts = np.arange(t + 1, t + 1 + k)
                now = MetricsRow(ts, *cols, *counts)
                clear = not np.any(stop_reached(now, stop_err, stop_v2))
                if clear and validate is not None:
                    head = (prev_row.M, prev_row.m, prev_row.W, prev_row.V2, prev_row.err_max)
                    before = MetricsRow(ts - 1, *np.column_stack((head, cols[:, :-1])), *counts)
                    clear = (cleared & monotone(before, now)).all()
                if clear:  # nothing to report: the block's rows, as columns
                    if metrics_sink is not None:
                        metrics_sink(now, values, t + k)
                    if keep_metrics:
                        rows.extend(map(
                            MetricsRow, range(t + 1, t + 1 + k), *cols.tolist(),
                            repeat(active_edges, k), repeat(nonzero_msgs, k),
                        ))
                    t += k
                    prev_row = MetricsRow(t, *cols[:, -1].tolist(), *counts)
                    x = values[-1]
                    continue
            final = t + k
            for r, x_post in enumerate(computed):
                t += 1
                xs = tuple(x_post.tolist())
                row = compute_metrics(
                    xs, avg0, t=t, active_edges=active_edges, nonzero_msgs=nonzero_msgs
                )
                # any inf or nan value makes the mean, and so V2, non-finite
                if not isfinite(row.V2):
                    for i, v in enumerate(xs):
                        if not isfinite(v):
                            raise DivergenceError(
                                f"node {i} became non-finite at round {t}: {v!r}"
                            )
                if validate is not None and not (monotone(prev_row, row) and cleared[r]):
                    violations = validate(prev_row, x, x_post, row=row, **facts)
                    if violations:
                        raise InvariantViolationError(t, violations)
                end = last if t == final else t
                if metrics_sink is not None:
                    metrics_sink(row, xs, end)
                if keep_metrics:
                    rows.append(row)
                    fields = (row.M, row.m, row.W, row.V2, row.err_max,
                              row.active_edges, row.nonzero_msgs)
                    rows.extend(MetricsRow(s, *fields) for s in range(t + 1, end + 1))
                prev_row = row
                x = x_post
                if t < final and stop_reached(row, stop_err, stop_v2):
                    break
            else:
                t = last
    stopped_at = t if stop_reached(prev_row, stop_err, stop_v2) else None
    return RunResult(rows, [], tuple(x.tolist()), rounds=t, stopped_at=stopped_at)


def run(
    config: SimulationConfig,
    *,
    stop_err: float | None = None,
    stop_v2: float | None = None,
    metrics_sink=None,
    keep_metrics: bool = True,
    keep_records: bool = False,
) -> RunResult:
    """Run rounds 1..t_max, or fewer if a stop threshold is met first.

    With check_invariants set, every round is checked and the first violating
    round raises InvariantViolationError naming each failed check: each
    step's rounds are screened once, in one ``analysis.screen_block`` call (a
    round run is a block of one row), a round that the screen and
    ``monotone`` of its row clear has no violation, and any other round's
    record goes to ``validate_round``, the one definition of the invariants
    and their messages. ``metrics_sink(row, x, last)`` receives the rows and
    values as they are produced, one call for rounds row.t..last, or for a
    block's rounds, the row's fields then being columns and x a (k, n) array
    (see ``_drive``), which keeps very long runs memory-flat when
    keep_metrics is off. keep_records keeps a ``RoundRecord`` of every round
    in ``RunResult.records``, with the values of the round before it as its
    values before it: the previous row of a block, or else the values of the
    sink's previous call (its last row for a block; the initial values for
    round 1); otherwise records are built only for the checker.

    On a static sequence every run skips the quiet stretch after each quiet
    round t (see ``_quiet_until``): ``_drive`` hands the stretch to the sink
    with round t's row in one call without running its rounds, and the rows,
    records, values, stop round and checker verdict are bitwise those of
    running every round. Round t itself is run, recorded and checked. A
    quiet round leaves x and every estimate bitwise unchanged: each estimate
    gains 0 * t^-alpha = +0.0, and no estimate is -0.0. So a skipped round s
    would run as round t did, and its row differs from round t's in t alone.
    The stop rule cannot stop the run inside the stretch: round t repeats
    the values of round t-1, which did not meet it, so the loop may jump to
    the stretch's last round.

    A skipped round s would also give a ``RoundRecord`` equal to round t's in
    all but t, and keep_records gives it round t's record with its own t: the
    same x_pre and x_post (x_post is x_pre), no nonzero message, empty active
    sets, and the same estimates, every slot live, since a static sequence
    shows every slot of its universe in every round (a skip on any other
    kind must argue this anew). Its ``prev_metrics``, row s-1, has round t's
    M, m, W and V2, and so has row t-1. ``validate_round`` reads t only in
    its messages and in the step cap 0.5*w0*s^-beta + STEP_TOL, which the
    zero movement never exceeds. So each clause comes out on round s as on
    round t, which passed, and the screen, which reads t also in its live
    mask and finds every slot live, clears round s if it cleared round t.

    On a static sequence every run also computes active stretches in
    blocks. When ``_calm_through`` predicts, after a stepped round t that
    sends no nonzero message and has an active pair, that rounds t+1..s, s =
    min(t + BLOCK_AFTER, t_max), stay so, ``_active_block`` computes the
    next rounds, as many as BLOCK_ELEMENTS allows, up to the first event; a
    block that ends on that cap is followed by another, and the event round
    is run by ``run_round``, so its errors are the per-round ones. The block
    is opened in round t's own step, which returns round t's values as the
    block's first row, so ``_drive`` screens, measures and hands to the sink
    round t and its block at once (round t alone if the block is empty). A
    block reads only the state of the round before it and tests each of its
    rounds, so at any size and after any round it is bitwise the rounds it
    stands for. A round without a nonzero message changes no estimate, as a
    quiet round does, so every gap keeps its value; ``_active_block`` tests
    each round for a message, with the engine's quantizer expression and the
    round's own ``round_scales``, and for a change of the active mask, with
    the same threshold, so inside the block the active mask, the folded
    vector f and the moved nodes are those of the round before it. Round s
    then adds s**(-beta) * f (f when practical: s**-0.0 is 1.0) to the
    moved nodes' values, the same IEEE products and sums that ``run_round``
    forms (s**(-beta) and the round scales as C ``pow`` columns, which is
    what ``**`` computes), and ``np.add.accumulate`` adds them in round order.
    Every slot stays live and is marked seen through the block's last round,
    as a run of its rounds would leave it. ``_drive`` takes the block's rows
    as columns with ``compute_metrics``' own float operations
    (``block_metrics``) when it has nothing to report, and then calls the
    sink once for the block, and otherwise row by row, one call per round.

    So the state a block leaves is, but for its values, the state that
    running any one of its rounds leaves (estimates, gaps, active mask, no
    message, every slot live), and each reader takes a round's own values
    before and after it from ``_drive``: the record of a block round, kept
    or validated, is the record of running it. In a checked run,
    ``screen_block`` takes the block's rounds as its rows, each verdict
    that of the round alone. So a block round gets the per-round verdict
    and messages, and a checked run raises at the round, with the
    violations, of checking every round. The round t that opens a block in
    its step shares that state too: it sent no nonzero message, so its
    symbols q are all zero, as the block's rounds' are, and the block ends
    at the first change of the active mask, so round t has the block's
    estimates, gaps, mask, snapshot and live slots (every slot, marked seen
    through a later round). Its record, screen verdict and row, rebuilt from
    the block's state, are therefore those of running it alone; its values
    before it are still those of the row before. A stop row, a value that
    is not finite or a declined round at t sends the whole step through the
    row loop, which handles it at t.

    The quiet skip is the prediction's f = 0 case: ``_quiet_until`` solves
    its two clauses for the last round in closed form, with a margin, and
    trusts the bound, so one step skips any length (quiet stretches reach
    10^9 rounds); a block trusts no bound and tests each round, at a cost
    that grows with the stretch. The kind gate is the same, ``static``, for
    the reason given above for the skip.
    """
    params = config.params
    state = init_state(config)
    records: list[RoundRecord] = []
    skips = config.seq.kind == "static"
    ahead = False  # the last block ended on its cap

    def block(t: int) -> np.ndarray:
        """The values of round t-1, the last one computed, then of a block
        of k >= 0 rounds from t."""
        nonlocal ahead
        width = max(len(state.arrays.ends), len(state.x))
        cap = min(max(1, BLOCK_ELEMENTS // width), config.t_max - t + 1)
        values = _active_block(state, t, params, cap)
        ahead = len(values) - 1 == cap  # otherwise round t+k has an event: run it
        return values

    def step(t: int):
        if ahead and len(values := block(t)) > 1:
            return values[1:], state.active_edges, 0, t + len(values) - 2
        run_round(state, t, config)
        quiet_to = t
        if skips and not state.nonzero_msgs:
            if not state.active_edges:
                quiet_to = _quiet_until(state, t, params.alpha, config.t_max)
            elif (
                t < config.t_max
                and _calm_through(state, t, min(t + BLOCK_AFTER, config.t_max), params)
                and len(values := block(t + 1)) > 1
            ):  # round t and its block, in one step
                return values, state.active_edges, 0, t + len(values) - 1
        return state.x, state.active_edges, state.nonzero_msgs, quiet_to

    def validate(prev_row, x_pre, x_post, *, row, **facts):
        record = _record(state, row.t, params, x_pre, x_post)
        return validate_round(record, prev_row, params, row=row, **facts)

    prev_x = tuple(state.x.tolist())  # the values of the sink's last call

    def keep_record(row, x, last):
        nonlocal prev_x
        if metrics_sink is not None:
            metrics_sink(row, x, last)
        if isinstance(x, tuple):  # rounds row.t..last, all with the values x
            rec = _record(state, row.t, params, prev_x, x)
            records.append(rec)
            records.extend(replace(rec, t=s) for s in range(row.t + 1, last + 1))
            prev_x = x
        else:  # a block: one row of values per round, ending at last
            for s, x_post in enumerate(x.tolist(), start=last - len(x) + 1):
                records.append(_record(state, s, params, prev_x, x_post))
                prev_x = x_post

    result = _drive(
        state.x, config.t_max, step, screen=partial(screen_block, state, params),
        validate=validate if config.check_invariants else None,
        stop_err=stop_err, stop_v2=stop_v2,
        metrics_sink=keep_record if keep_records else metrics_sink,
        keep_metrics=keep_metrics,
    )
    result.records = records
    return result
