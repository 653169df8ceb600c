"""Per-round graph snapshots, deterministic time-varying sequences, and the
core-connectivity checker.

Nodes are integers 0..n-1. Every node carries an implicit self-loop that is
never stored in the edge set but is counted in its degree. Sequences are
1-indexed in the round counter t and fully deterministic: ``snapshot(t)`` is a
pure function of the sequence parameters, the seed, and t.

Every sequence also lists its edge universe, the sorted array of every edge
it can show, and hands out round t as ``edge_ids(t)``, the sorted rows of
that array present in round t. The engine indexes its ledger by these rows.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

Edge = tuple[int, int]
SEQUENCE_KINDS = ("static", "periodic", "explicit", "core_synthetic", "relabeled_line")

_MASK64 = (1 << 64) - 1
MAX_NODES = math.isqrt(2**63 - 1)  # so that every edge key u*n + v fits int64

# the most rounds a core_synthetic sequence draws at once
CHUNK_ROUNDS = 32


def _core_words(c: int) -> int:
    """The 32-bit words drawn per block for its c core offsets. Each word
    gives an offset with odds of at least 1/2, so fewer than 3 blocks in
    10,000 run short."""
    return 4 * c + 8


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


def parse_edge(tok) -> Edge:
    """One edge as written in a config or rounds file: an "i-j" string of two
    runs of ASCII digits, or a 2-item list of ints (not bools, not floats).
    The pair keeps its order; ``GraphSnapshot`` normalizes it."""
    if isinstance(tok, str):
        parts = tok.split("-")
        # int() would also take signs, spaces, underscores and other scripts' digits
        if len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts):
            return int(parts[0]), int(parts[1])
    elif isinstance(tok, (list, tuple)) and len(tok) == 2:
        i, j = tok
        if type(i) is int and type(j) is int:
            return i, j
    raise ValueError(f"bad edge {tok!r}, expected 'i-j' or [i, j]")


def check_node_count(n: int) -> None:
    if not 1 <= n <= MAX_NODES:
        bound = ">= 1" if n < 1 else f"<= {MAX_NODES} for int64 edge keys"
        raise ValueError(f"node count must be {bound}, got {n}")


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """One round's undirected edge set: ``edges``, an integer (m, 2) array or
    any iterable of int pairs in either order, is stored as its distinct
    (low, high) pairs, sorted, in a read-only (m, 2) intp array. The per-node
    self-loop is implicit. Snapshots compare and hash by n and edge bytes;
    the hash is computed on first use and kept in ``_hash``."""

    n: int
    edges: np.ndarray
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, a = self.n, self.edges
        check_node_count(n)
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"
                and a.shape[1:] == (2,)):  # anything else goes pair by pair
            a = a.tolist() if isinstance(a, np.ndarray) else list(a)
            for i, j in a:
                # bool included; numpy would read 0.5 as node 0 without a word
                if type(i) is not int or type(j) is not int:
                    raise ValueError(
                        f"edge ({i!r},{j!r}) has an endpoint that is not an int"
                    )
            a = np.array(a, dtype=object).reshape(-1, 2)  # ints of any size
        lo, hi = np.minimum(a[:, 0], a[:, 1]), np.maximum(a[:, 0], a[:, 1])
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
        if len(bad):
            i, j = a[bad[0]].tolist()
            if i == j:
                raise ValueError(f"self-pair ({i},{j}) must not be stored")
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        # a sort, as np.unique hashes its keys and is far slower on millions
        keys = np.sort(lo.astype(np.intp) * n + hi.astype(np.intp))
        keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
        edges = np.column_stack(np.divmod(keys, n))
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.edges, other.edges))

    def __hash__(self):
        if self._hash is None:  # a CRC of the edges' bytes, read in place
            object.__setattr__(self, "_hash", hash((self.n, zlib.crc32(self.edges))))
        return self._hash


def _connected(n: int, edges: Iterable[Edge]) -> bool:
    if n <= 1:
        return True
    nbrs: dict[int, list[int]] = {}
    for i, j in edges:
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    seen, stack = {0}, [0]
    while stack:
        for v in nbrs.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def complete_edges(n: int) -> np.ndarray:
    """Every pair (i, j), i < j, of n nodes as a sorted (m, 2) intp array."""
    return np.column_stack(np.triu_indices(n, 1))


def line_edges(n: int) -> np.ndarray:
    """The pairs (i, i + 1) of n nodes as a sorted (n - 1, 2) intp array."""
    return np.column_stack((np.arange(n - 1), np.arange(1, n)))


def _check_round(t: int) -> None:
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")


class GraphSequence:
    """Deterministic source of per-round snapshots. Each subclass fixes one
    kind, except ``ExplicitSequence``, which tabulates the explicit, periodic
    and static kinds.

    ``universe`` is a sorted, read-only (|U|, 2) intp array of every edge
    (u, v), u < v, the sequence can show, and ``edge_ids(t)`` the sorted rows
    of it that form round t; whenever ``snapshot`` repeats a snapshot object,
    ``edge_ids`` repeats its array object. A generated kind draws the ids and
    builds ``snapshot(t)`` from them, and hands out a fresh array per call:
    a core_synthetic sequence a read-only view into the ids of the chunk of
    rounds it drew with t, a relabeled line a new array.

    Sequences are immutable after construction and ``snapshot`` is pure, so a
    sequence can be shared freely across runs and threads (a core_synthetic
    sequence keeps the draws of its last chunk, which changes no result).
    """

    kind: str = "abstract"
    n: int

    @cached_property
    def universe(self) -> np.ndarray:
        edges = self._universe()
        edges.setflags(write=False)
        return edges

    @cached_property
    def _keys(self) -> np.ndarray:
        """u*n + v of each universe edge (u, v): sorted, as the universe is."""
        return self.universe[:, 0] * self.n + self.universe[:, 1]

    def edge_keys(self, t: int) -> np.ndarray:
        """u*n + v of each edge (u, v) of round t, sorted."""
        return self._keys[self.edge_ids(t)]

    def _rows(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The universe rows of the edges (u[k], v[k]), u < v, each of them in
        the universe."""
        return np.searchsorted(self._keys, u * self.n + v)

    def snapshot(self, t: int) -> GraphSnapshot:
        _check_round(t)
        return self._snapshot(t)

    def edge_ids(self, t: int) -> np.ndarray:
        _check_round(t)
        return self._edge_ids(t)

    def _universe(self) -> np.ndarray:
        raise NotImplementedError

    def _edge_ids(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def _snapshot(self, t: int) -> GraphSnapshot:
        return GraphSnapshot(self.n, self.universe[self._edge_ids(t)])


@dataclass(frozen=True)
class ExplicitSequence(GraphSequence):
    """A fully enumerated list of snapshots. An explicit sequence is finite,
    so querying past the end is an error; a periodic one gives round t entry
    (t-1) mod p forever, and a static one is a single round so cycled."""

    rounds: tuple[GraphSnapshot, ...]
    kind: str = "explicit"

    def __post_init__(self):
        if self.kind not in ("explicit", "periodic", "static"):
            raise ValueError(f"unknown tabulated sequence kind {self.kind!r}")
        if not self.rounds:
            raise ValueError(f"{self.kind} sequence needs at least one round")
        if self.kind == "static" and len(self.rounds) != 1:
            raise ValueError(
                f"static sequence has exactly one round, got {len(self.rounds)}"
            )
        if len({g.n for g in self.rounds}) != 1:
            raise ValueError(f"all rounds in a {self.kind} sequence must share n")

    @property
    def n(self) -> int:
        return self.rounds[0].n

    def __len__(self) -> int:
        return len(self.rounds)

    def _universe(self) -> np.ndarray:
        if len(self.rounds) == 1:
            return self.rounds[0].edges
        edges = np.concatenate([g.edges for g in self.rounds])
        return GraphSnapshot(self.n, edges).edges

    @cached_property
    def _ids(self) -> tuple[np.ndarray, ...]:
        """Each round's ids, one read-only array per distinct snapshot: 0..m-1,
        unsearched, for a round whose edge array is the universe (static)."""
        ids = {}
        for g in dict.fromkeys(self.rounds):
            full = g.edges is self.universe
            ids[g] = rows = np.arange(len(g.edges)) if full else self._rows(*g.edges.T)
            rows.setflags(write=False)
        return tuple(ids[g] for g in self.rounds)

    def _index(self, t: int) -> int:
        if self.kind != "explicit":
            return (t - 1) % len(self.rounds)
        if t > len(self.rounds):
            raise ValueError(
                f"round {t} beyond explicit sequence of length {len(self.rounds)}"
            )
        return t - 1

    def _edge_ids(self, t: int) -> np.ndarray:
        return self._ids[self._index(t)]

    def _snapshot(self, t: int) -> GraphSnapshot:
        return self.rounds[self._index(t)]


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

    def _universe(self) -> np.ndarray:
        return complete_edges(self.n)

    def _edge_ids(self, t: int) -> np.ndarray:
        rng = random.Random(derive_seed(self.seed, t))
        perm = list(range(self.n))
        rng.shuffle(perm)
        a = np.array(perm[:-1], dtype=np.intp)
        b = np.array(perm[1:], dtype=np.intp)
        return np.sort(self._rows(np.minimum(a, b), np.maximum(a, b)))


@dataclass(frozen=True)
class CoreSyntheticSequence(GraphSequence):
    """Guarantees each core edge appears exactly once per length-B block, at
    the block position ``randrange(B)`` of a per-block child PRNG; every
    non-core pair is added in a round when ``random()`` of the round's child
    PRNG is below ``extra_edge_prob``. Both draw in sorted edge order.

    The core edge set must form a connected graph over all n nodes so the
    generated sequence carries a connected persistent backbone by construction.

    The rounds are drawn a chunk at a time, with one ``getrandbits`` per
    round and per block and one numpy pass per chunk, bitwise those calls.
    """

    n: int
    core_edges: np.ndarray = field(compare=False)  # compared as ``_core``
    block_len: int
    extra_edge_prob: float = 0.0
    seed: int = 0
    _core: GraphSnapshot = field(init=False, repr=False)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)
    kind = "core_synthetic"

    def __post_init__(self):
        if self.block_len < 1:
            raise ValueError(f"block length must be >= 1, got {self.block_len}")
        if self.block_len >= 2**63:  # the chunk draw divides int64 rounds by it
            raise ValueError(f"block length must be < 2**63, got {self.block_len}")
        if not (0.0 <= self.extra_edge_prob <= 1.0):
            raise ValueError(
                f"extra_edge_prob must be in [0,1], got {self.extra_edge_prob}"
            )
        core = GraphSnapshot(self.n, self.core_edges)
        object.__setattr__(self, "_core", core)
        object.__setattr__(self, "core_edges", core.edges)
        if not _connected(self.n, core.edges.tolist()):
            raise ValueError("core edge set must form a connected graph on all nodes")

    def _universe(self) -> np.ndarray:
        return complete_edges(self.n) if self.extra_edge_prob > 0.0 else self.core_edges

    @cached_property
    def _core_rows(self) -> np.ndarray:
        """The universe rows of the core edges, in sorted edge order."""
        return self._rows(self.core_edges[:, 0], self.core_edges[:, 1])

    @cached_property
    def _non_core_rows(self) -> np.ndarray:
        """The universe rows of the other pairs, in sorted edge order."""
        is_core = np.zeros(len(self.universe), dtype=bool)
        is_core[self._core_rows] = True
        return np.flatnonzero(~is_core)

    def _edge_ids(self, t: int) -> np.ndarray:
        """Round t's slice of the chunk of rounds drawn with it. A chunk
        starts at the round asked for; while calls stay sequential, each
        next chunk is twice as long as the last, up to ``CHUNK_ROUNDS``.
        Every round is drawn from its own child PRNGs, so the result
        depends on t alone, in any call order."""
        memo = self._memo
        if memo is None or not memo[0] <= t < memo[1]:
            size = 1
            if memo is not None and t == memo[1]:
                size = min(2 * (memo[1] - memo[0]), CHUNK_ROUNDS)
            memo = (t, t + size, *self._draw(t, size))
            object.__setattr__(self, "_memo", memo)
        start, _, ids, cuts = memo
        return ids[cuts[t - start] : cuts[t - start + 1]]

    def _draw(self, t0: int, size: int) -> tuple[np.ndarray, list[int]]:
        """Rounds t0..t0+size-1 as one read-only array of their ids, round
        after round, and the size + 1 cut points between rounds.

        A round holds the core edges drawn to its offset in its block (see
        ``_offsets``) and each other pair, in sorted edge order, for which
        ``random()`` of the round's child PRNG is below ``extra_edge_prob``.
        ``random()`` takes two 32-bit words w0, w1 of the generator and
        gives ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53; ``getrandbits(64*M)``
        hands out the same words, the first in its lowest bits, so M
        ``random()`` calls are read from its bytes."""
        blocks, offsets = np.divmod(np.arange(t0 - 1, t0 - 1 + size), self.block_len)
        mask = np.zeros((size, len(self.universe)), dtype=bool)
        core, rest = self._core_rows, self._non_core_rows
        if len(core):
            first = int(blocks[0])
            drawn = self._offsets(range(first, int(blocks[-1]) + 1))
            mask[:, core] = drawn[blocks - first] == offsets[:, None]
        p, m = self.extra_edge_prob, len(rest)
        if p > 0.0 and m:
            data = b"".join(
                random.Random(derive_seed(self.seed, 2, t))
                .getrandbits(64 * m).to_bytes(8 * m, "little")
                for t in range(t0, t0 + size)
            )
            w = np.frombuffer(data, dtype="<u4").reshape(size, m, 2)
            u = ((w[..., 0] >> 5) * 67108864.0 + (w[..., 1] >> 6)) * 2.0**-53
            mask[:, rest] = u < p
        rounds, ids = np.nonzero(mask)
        ids.setflags(write=False)
        return ids, np.searchsorted(rounds, np.arange(size + 1)).tolist()

    def _offsets(self, blocks: range) -> np.ndarray:
        """Each block's core offsets, one row per block: core edge e goes to
        offset ``randrange(B)`` of the block's child PRNG, drawn in sorted
        edge order.

        ``randrange(B)`` draws ``getrandbits(k)``, k = B.bit_length(), until
        it is below B, and ``getrandbits(k)`` for k <= 32 is the top k bits
        of one 32-bit word. So a block's offsets are the first C such values
        below B among the words of one ``getrandbits``, C the number of core
        edges. A block whose ``_core_words(C)`` words hold fewer, or whose B
        needs more than 32 bits, is drawn with ``randrange`` itself."""
        B, c = self.block_len, len(self._core_rows)
        k = B.bit_length()
        got = np.empty((len(blocks), c), dtype=np.int64)
        short = range(len(blocks))  # every block, while B needs over 32 bits
        if k <= 32:
            words = _core_words(c)
            data = b"".join(
                random.Random(derive_seed(self.seed, 1, b))
                .getrandbits(32 * words).to_bytes(4 * words, "little")
                for b in blocks
            )
            vals = np.frombuffer(data, dtype="<u4").reshape(len(blocks), words)
            vals = vals >> (32 - k)
            below = vals < B
            full = np.count_nonzero(below, axis=1) >= c
            take = below & (np.cumsum(below, axis=1) <= c) & full[:, None]
            got[full] = vals[take].reshape(-1, c)
            short = np.flatnonzero(~full).tolist()
        for i in short:
            draw = random.Random(derive_seed(self.seed, 1, blocks[i])).randrange
            got[i] = [draw(B) for _ in range(c)]
        return got


class CoreCheckResult(NamedTuple):
    is_core_connected: bool
    core_edges: frozenset[Edge]


def fold_core(
    n: int, key_rounds: Iterable[np.ndarray], block_len: int
) -> CoreCheckResult:
    """Decide whether a finite window has a connected persistent core for the
    given block length, from each round's edge keys u*n + v (the form of
    ``GraphSequence.edge_keys``).

    The maximal candidate core is the intersection over complete blocks of
    each block's edge union; a valid persistent core exists iff this candidate
    is itself connected. A trailing partial block is ignored. The union and
    the core are sets of keys, folded as the rounds arrive, so a generator
    window is checked in the memory of one block's edges and the core.
    """
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    union: set[int] = set()
    core = None
    count = 0
    for keys in key_rounds:
        union.update(keys.tolist())
        count += 1
        if count % block_len == 0:
            core = union if core is None else core & union
            union = set()
    if core is None:
        raise ValueError(
            f"window of {count} rounds is shorter than one block of {block_len}"
        )
    edges = frozenset(divmod(key, n) for key in core)
    return CoreCheckResult(_connected(n, edges), edges)


def _read_rounds_file(path) -> str:
    """The text of a rounds file, which must be UTF-8; a byte that is not
    is reported with the file and its line as ``parse_rounds_text`` counts
    lines."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = len((head + "x").splitlines())
        raise ValueError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
            f"({exc.reason})"
        ) from None


def parse_rounds_text(text: str, n: int) -> tuple[GraphSnapshot, ...]:
    """Parse the explicit-sequence text form: one round per line, edges as
    space-separated "i-j" tokens, a blank line meaning an edgeless round."""
    rounds = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            rounds.append(GraphSnapshot(n, map(parse_edge, line.split())))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return tuple(rounds)


def make_sequence(kind: str, n: int, seed: int = 0, **kw) -> GraphSequence:
    """Build a sequence from plain parameters (the config-file entry point).

    static:         base= complete|line, or edges=[(i,j), ...]
    periodic:       rounds=[[(i,j), ...], ...], cycled forever
    core_synthetic: core_edges=[(i,j), ...], block_len=B, extra_edge_prob=p
    relabeled_line: (no extra parameters)
    explicit:       rounds=[[(i,j), ...], ...] or path=<edge-list text file>
    """
    check_node_count(n)  # before a named base is built for n
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
        if base is not None:
            if base not in ("complete", "line"):
                raise ValueError(f"unknown static base {base!r}")
            edges = complete_edges(n) if base == "complete" else line_edges(n)
        return ExplicitSequence((GraphSnapshot(n, edges),), "static")
    if kind in ("periodic", "explicit"):
        rounds = kw.pop("rounds", None)
        path = kw.pop("path", None) if kind == "explicit" else None
        _reject_extra(kind, kw)
        if path is not None:
            if rounds is not None:
                raise ValueError("explicit sequence takes rounds or path, not both")
            snaps = parse_rounds_text(_read_rounds_file(path), n)
        elif rounds is not None:
            snaps = tuple(GraphSnapshot(n, r) for r in rounds)
        else:
            raise ValueError(f"{kind} sequence needs its rounds")
        return ExplicitSequence(snaps, kind)
    if kind == "core_synthetic":
        if missing := {"core_edges", "block_len"} - kw.keys():
            raise ValueError(f"{kind} sequence needs {' and '.join(sorted(missing))}")
        core = kw.pop("core_edges")
        block_len = kw.pop("block_len")
        prob = kw.pop("extra_edge_prob", 0.0)
        _reject_extra(kind, kw)
        return CoreSyntheticSequence(n, core, block_len, prob, seed)
    _reject_extra(kind, kw)
    return RelabeledLineSequence(n, seed)


def _reject_extra(kind: str, kw: dict) -> None:
    if kw:
        raise ValueError(f"unexpected parameters for kind {kind!r}: {sorted(kw)}")
