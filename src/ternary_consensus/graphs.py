"""Per-round graph snapshots, deterministic time-varying sequences, and the
core-connectivity checker.

Nodes are integers 0..n-1. Every node carries an implicit self-loop that is
never stored in the edge set but is counted by ``degree``. Sequences are
1-indexed in the round counter t and fully deterministic: ``snapshot(t)`` is a
pure function of the sequence parameters, the seed, and t.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

Edge = tuple[int, int]
SEQUENCE_KINDS = ("static", "periodic", "explicit", "core_synthetic", "relabeled_line")

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *words: int) -> int:
    """Mix a base seed with context words (round index, block index, ...) into
    a child seed. Pure integer arithmetic, so identical across platforms."""
    z = seed & _MASK64
    for w in words:
        z = _splitmix64(z ^ (w & _MASK64))
    return z


def normalize_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class GraphSnapshot:
    """One round's undirected edge set.

    Edges are stored as normalized (low, high) pairs of distinct endpoints;
    the per-node self-loop is implicit. Derived views (sorted edge list,
    adjacency, degrees) are cached, which matters because static sequences
    hand out the same snapshot every round.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(
                self, "edges", frozenset(normalize_edge(i, j) for i, j in self.edges)
            )
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-pair ({i},{j}) must not be stored")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not normalized")

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edge_list:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        # self-loop counts, so an isolated node has degree 1
        deg = [1] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    def degree(self, i: int) -> int:
        """Degree of node i including its implicit self-loop."""
        if not (0 <= i < self.n):
            raise ValueError(f"node {i} out of range for n={self.n}")
        return self.degrees[i]

    def is_connected(self) -> bool:
        return _connected(self.n, self.edges)


def _connected(n: int, edges: Iterable[Edge]) -> bool:
    if n <= 1:
        return True
    nbrs: dict[int, list[int]] = {}
    for i, j in edges:
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in nbrs.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def complete_edges(n: int) -> frozenset[Edge]:
    return frozenset((i, j) for i in range(n) for j in range(i + 1, n))


def line_edges(n: int) -> frozenset[Edge]:
    return frozenset((i, i + 1) for i in range(n - 1))


class GraphSequence:
    """Deterministic source of per-round snapshots; subclasses fix one kind.

    Sequences are immutable after construction and ``snapshot`` is pure, so a
    sequence can be shared freely across runs and threads.
    """

    kind: str = "abstract"
    n: int

    def snapshot(self, t: int) -> GraphSnapshot:
        if t < 1:
            raise ValueError(f"round index must be >= 1, got {t}")
        return self._snapshot(t)

    def _snapshot(self, t: int) -> GraphSnapshot:
        raise NotImplementedError


@dataclass(frozen=True)
class StaticSequence(GraphSequence):
    base: GraphSnapshot
    kind = "static"

    @property
    def n(self) -> int:
        return self.base.n

    def _snapshot(self, t: int) -> GraphSnapshot:
        return self.base


@dataclass(frozen=True)
class ExplicitSequence(GraphSequence):
    """A fully enumerated list of snapshots. Finite by default, so querying
    past the end is an error; with ``cycle`` set, round t gets entry
    (t-1) mod p forever."""

    rounds: tuple[GraphSnapshot, ...]
    cycle: bool = False

    def __post_init__(self):
        if not self.rounds:
            raise ValueError(f"{self.kind} sequence needs at least one round")
        if len({g.n for g in self.rounds}) != 1:
            raise ValueError(f"all rounds in a {self.kind} sequence must share n")

    @property
    def kind(self) -> str:
        return "periodic" if self.cycle else "explicit"

    @property
    def n(self) -> int:
        return self.rounds[0].n

    def __len__(self) -> int:
        return len(self.rounds)

    def _snapshot(self, t: int) -> GraphSnapshot:
        if self.cycle:
            return self.rounds[(t - 1) % len(self.rounds)]
        if t > len(self.rounds):
            raise ValueError(
                f"round {t} beyond explicit sequence of length {len(self.rounds)}"
            )
        return self.rounds[t - 1]


@dataclass(frozen=True)
class RelabeledLineSequence(GraphSequence):
    """A fresh uniformly random line graph every round: shuffle the nodes with
    a per-round child PRNG and connect consecutive positions."""

    n: int
    seed: int
    kind = "relabeled_line"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("relabeled line needs n >= 2")

    def _snapshot(self, t: int) -> GraphSnapshot:
        rng = random.Random(derive_seed(self.seed, t))
        perm = list(range(self.n))
        rng.shuffle(perm)
        edges = frozenset(
            normalize_edge(perm[k], perm[k + 1]) for k in range(self.n - 1)
        )
        return GraphSnapshot(self.n, edges)


@dataclass(frozen=True)
class CoreSyntheticSequence(GraphSequence):
    """Guarantees each core edge appears exactly once per length-B block, at a
    block position drawn from a per-block child PRNG; every non-core pair is
    added independently with probability ``extra_edge_prob`` per round.

    The core edge set must form a connected graph over all n nodes so the
    generated sequence carries a connected persistent backbone by construction.
    """

    n: int
    core_edges: frozenset[Edge]
    block_len: int
    extra_edge_prob: float = 0.0
    seed: int = 0
    kind = "core_synthetic"

    def __post_init__(self):
        object.__setattr__(
            self,
            "core_edges",
            frozenset(normalize_edge(i, j) for i, j in self.core_edges),
        )
        if self.block_len < 1:
            raise ValueError(f"block length must be >= 1, got {self.block_len}")
        if not (0.0 <= self.extra_edge_prob <= 1.0):
            raise ValueError(
                f"extra_edge_prob must be in [0,1], got {self.extra_edge_prob}"
            )
        # validate endpoints via snapshot construction rules
        GraphSnapshot(self.n, self.core_edges)
        if not _connected(self.n, self.core_edges):
            raise ValueError("core edge set must form a connected graph on all nodes")

    @cached_property
    def _core_sorted(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.core_edges))

    @cached_property
    def _non_core(self) -> tuple[Edge, ...]:
        return tuple(sorted(complete_edges(self.n) - self.core_edges))

    def _snapshot(self, t: int) -> GraphSnapshot:
        B = self.block_len
        block = (t - 1) // B
        offset = (t - 1) % B
        block_rng = random.Random(derive_seed(self.seed, 1, block))
        edges = {
            e
            for e in self._core_sorted
            if block_rng.randrange(B) == offset
        }
        if self.extra_edge_prob > 0.0:
            round_rng = random.Random(derive_seed(self.seed, 2, t))
            p = self.extra_edge_prob
            edges.update(e for e in self._non_core if round_rng.random() < p)
        return GraphSnapshot(self.n, frozenset(edges))


class CoreCheckResult(NamedTuple):
    is_core_connected: bool
    core_edges: frozenset[Edge]


def check_core_connected(
    snapshots: list[GraphSnapshot], block_len: int
) -> CoreCheckResult:
    """Decide whether a finite window of snapshots has a connected persistent
    core for the given block length.

    The maximal candidate core is the intersection over complete blocks of
    each block's edge union; a valid persistent core exists iff this candidate
    is itself connected. A trailing partial block is ignored.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    if len(snapshots) < block_len:
        raise ValueError(
            f"window of {len(snapshots)} rounds is shorter than one block "
            f"of {block_len}"
        )
    n = snapshots[0].n
    if any(g.n != n for g in snapshots):
        raise ValueError("all snapshots must share the same node count")

    blocks = len(snapshots) // block_len
    core: frozenset[Edge] | None = None
    for k in range(blocks):
        union: set[Edge] = set()
        for g in snapshots[k * block_len : (k + 1) * block_len]:
            union |= g.edges
        core = frozenset(union) if core is None else core & union
    assert core is not None
    return CoreCheckResult(_connected(n, core), core)


def parse_rounds_text(text: str, n: int) -> tuple[GraphSnapshot, ...]:
    """Parse the explicit-sequence text form: one round per line, edges as
    space-separated "i-j" tokens, a blank line meaning an edgeless round."""
    rounds = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        edges = set()
        for tok in line.split():
            try:
                a, b = tok.split("-")
                edges.add(normalize_edge(int(a), int(b)))
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad edge token {tok!r}, expected 'i-j'"
                ) from None
        try:
            rounds.append(GraphSnapshot(n, frozenset(edges)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return tuple(rounds)


def format_rounds_text(snapshots: Iterable[GraphSnapshot]) -> str:
    lines = []
    for g in snapshots:
        lines.append(" ".join(f"{i}-{j}" for i, j in sorted(g.edges)))
    return "\n".join(lines) + "\n"


def make_sequence(kind: str, n: int, seed: int = 0, **kw) -> GraphSequence:
    """Build a sequence from plain parameters (the config-file entry point).

    static:         base= complete|line, or edges=[(i,j), ...]
    periodic:       rounds=[[(i,j), ...], ...], cycled forever
    core_synthetic: core_edges=[(i,j), ...], block_len=B, extra_edge_prob=p
    relabeled_line: (no extra parameters)
    explicit:       rounds=[[(i,j), ...], ...] or path=<edge-list text file>
    """
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if kind == "static":
        base = kw.pop("base", None)
        edges = kw.pop("edges", None)
        _reject_extra(kind, kw)
        if (base is None) == (edges is None):
            raise ValueError(
                "static sequence needs exactly one of base='complete'|'line' "
                "or an edges list"
            )
        if base == "complete":
            snap = GraphSnapshot(n, complete_edges(n))
        elif base == "line":
            snap = GraphSnapshot(n, line_edges(n))
        elif base is not None:
            raise ValueError(f"unknown static base {base!r}")
        else:
            snap = GraphSnapshot(n, frozenset(normalize_edge(i, j) for i, j in edges))
        return StaticSequence(snap)
    if kind in ("periodic", "explicit"):
        rounds = kw.pop("rounds", None)
        path = kw.pop("path", None) if kind == "explicit" else None
        _reject_extra(kind, kw)
        if path is not None:
            if rounds is not None:
                raise ValueError("explicit sequence takes rounds or path, not both")
            snaps = parse_rounds_text(Path(path).read_text(), n)
        elif rounds is not None:
            snaps = tuple(
                GraphSnapshot(n, frozenset(normalize_edge(i, j) for i, j in r))
                for r in rounds
            )
        else:
            raise ValueError(f"{kind} sequence needs its rounds")
        return ExplicitSequence(snaps, cycle=kind == "periodic")
    if kind == "core_synthetic":
        if "core_edges" not in kw:
            raise ValueError("core_synthetic sequence needs core_edges")
        core = kw.pop("core_edges")
        block_len = kw.pop("block_len")
        prob = kw.pop("extra_edge_prob", 0.0)
        _reject_extra(kind, kw)
        return CoreSyntheticSequence(
            n,
            frozenset(normalize_edge(i, j) for i, j in core),
            block_len,
            prob,
            seed,
        )
    _reject_extra(kind, kw)
    return RelabeledLineSequence(n, seed)


def _reject_extra(kind: str, kw: dict) -> None:
    if kw:
        raise ValueError(f"unexpected parameters for kind {kind!r}: {sorted(kw)}")
