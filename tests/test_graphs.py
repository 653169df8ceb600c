import itertools
import random
import re
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import connected, degrees, edge_list, edge_set, snapshot_keys
from reference_engine import core_synthetic_snapshot
from ternary_consensus import graphs
from ternary_consensus.config import load_config_data, read_config_doc
from ternary_consensus.engine import EdgeArrays, round_arrays
from ternary_consensus.graphs import (
    CHUNK_ROUNDS,
    CoreSyntheticSequence,
    ExplicitSequence,
    GraphSnapshot,
    complete_edges,
    derive_seed,
    fold_core,
    line_edges,
    make_sequence,
    parse_rounds_text,
)


VARYING = Path(__file__).resolve().parents[1] / "perfbench" / "varying.yaml"


def snap(n, edges):
    return GraphSnapshot(n, frozenset(edges))


def arrays_of(g) -> EdgeArrays:
    """The engine's arrays of snapshot g, as a run of g as a static graph
    builds them."""
    return round_arrays(ExplicitSequence((g,), "static"), 1, "max_degree", None, {})


def core(window, B):
    """``fold_core`` over a window of snapshots on the node count of the
    first."""
    return fold_core(window[0].n, snapshot_keys(window), B)


class TestGraphSnapshot:
    def test_normalizes_and_dedupes(self):
        g = GraphSnapshot(3, {(1, 0), (0, 1), (2, 1)})
        assert edge_set(g.edges) == {(0, 1), (1, 2)}
        g = GraphSnapshot(3, frozenset({(1, 0), (1, 2)}))
        assert edge_set(g.edges) == {(0, 1), (1, 2)}

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="self-pair"):
            snap(3, [(1, 1)])

    @pytest.mark.parametrize(
        "edges", [[(0, 0.5), (1, 2)], frozenset({(0, 0.5), (1, 2)}), [(True, 2)],
                  [(0, 2.0)], [(np.int64(0), 1)]],
    )
    def test_rejects_endpoints_that_are_not_ints(self, edges):
        with pytest.raises(ValueError, match="not an int"):
            GraphSnapshot(3, edges)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
    @pytest.mark.parametrize("seed", range(4))
    def test_stores_the_sorted_set_of_low_high_pairs(self, n, seed):
        """Pairs in any order, with duplicates and reversed copies, given as
        a list, an int64 array or a uint array, are stored as the sorted set
        of their (low, high) pairs, in a read-only intp array."""
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n * seed)]
        pairs = [(i, j) for i, j in pairs if i != j]
        pairs += [(j, i) for i, j in pairs[::2]] + pairs[::3]
        rng.shuffle(pairs)
        want = [list(e) for e in sorted({(min(i, j), max(i, j)) for i, j in pairs})]
        for edges in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                      np.array(pairs, dtype=np.uint64).reshape(-1, 2)):
            g = GraphSnapshot(n, edges)
            assert g.edges.tolist() == want
            assert g.edges.dtype == np.intp and g.edges.shape == (len(want), 2)
            assert not g.edges.flags.writeable

    @pytest.mark.parametrize(
        "edges,message",
        [
            (np.array([[0, 1], [1, 2]], dtype=float),
             "edge (0.0,1.0) has an endpoint that is not an int"),
            (np.array([[0, 1], [2, 2], [1, 1], [0, 5]]),
             "self-pair (2,2) must not be stored"),
            (np.array([[0, 1], [1, 3], [2, 2]]), "edge (1,3) out of range for n=3"),
            (np.array([[0, 1], [2**64 - 1, 0]], dtype=np.uint64),
             f"edge ({2**64 - 1},0) out of range for n=3"),
            ([(0, 1), (0, 2**70), (1, 1)], f"edge (0,{2**70}) out of range for n=3"),
        ],
    )
    def test_an_array_error_names_the_first_offending_edge(self, edges, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            GraphSnapshot(3, edges)

    def test_snapshots_of_one_edge_set_are_one_value(self):
        """Snapshots of the same edges, given in different orders and forms,
        are equal and hash alike, and a periodic sequence of them hands out
        one ids array for both."""
        a = GraphSnapshot(4, [(0, 1), (2, 3), (1, 2)])
        b = GraphSnapshot(4, np.array([[3, 2], [1, 0], [2, 1], [0, 1]]))
        assert a == b and hash(a) == hash(b)
        assert a != GraphSnapshot(5, a.edges) and a != GraphSnapshot(4, [(0, 1)])
        seq = ExplicitSequence((a, GraphSnapshot(4, [(0, 1)]), b), "periodic")
        assert seq.edge_ids(1) is seq.edge_ids(3)
        assert seq.edge_ids(2) is not seq.edge_ids(1)

    def test_a_snapshot_hashes_its_edges_once(self, monkeypatch):
        """Equal snapshots given in different edge orders are == and hash
        alike; each snapshot object reads its edges for a hash once, and a
        periodic sequence with repeated rounds hands out one ids object per
        distinct snapshot."""
        hashed = []

        def crc32(buf):
            hashed.append(buf)
            return zlib.crc32(buf)

        monkeypatch.setattr(graphs, "zlib", SimpleNamespace(crc32=crc32))
        a = [GraphSnapshot(5, [(0, 1), (3, 4), (1, 2)]),
             GraphSnapshot(5, [(2, 1), (4, 3), (1, 0)]),
             GraphSnapshot(5, np.array([[4, 3], [0, 1], [1, 2], [3, 4]]))]
        b = [GraphSnapshot(5, [(0, 4), (2, 3)]), GraphSnapshot(5, [(3, 2), (4, 0)])]
        c = GraphSnapshot(5, [(0, 1), (1, 2), (3, 4), (2, 3)])
        for same in (a, b):
            assert all(g == same[0] and hash(g) == hash(same[0]) for g in same)
        assert a[0] != b[0] and a[0] != c and b[0] != c
        rounds = (a[0], b[0], a[1], c, b[1], a[2])
        seq = ExplicitSequence(rounds, "periodic")
        ids = [seq.edge_ids(t) for t in range(1, 13)]
        assert len({id(x) for x in ids}) == 3
        assert all(ids[t] is ids[t + 6] for t in range(6))
        assert ids[0] is ids[2] is ids[5] and ids[1] is ids[4]
        assert len(hashed) == len(a) + len(b) + 1  # once per snapshot object
        assert all(g._hash == hash(g) for g in rounds)

    def test_node_count_limit(self):
        """Every key u*n + v fits in int64 up to MAX_NODES nodes; past it, a
        snapshot and make_sequence refuse n before building anything."""
        n = graphs.MAX_NODES
        assert n == 3_037_000_499
        seq = make_sequence("static", n, edges=[(0, n - 1), (n - 2, n - 1)])
        assert seq.edge_keys(1).tolist() == [n - 1, (n - 2) * n + n - 1]
        want = f"^node count must be <= {n} for int64 edge keys, got {n + 1}$"
        with pytest.raises(ValueError, match=want):
            GraphSnapshot(n + 1, [])
        for kind, kw in [("static", {"edges": [(0, 1), (2, 3)]}),
                         ("static", {"base": "complete"}), ("relabeled_line", {})]:
            with pytest.raises(ValueError, match="edge keys, got 10000000000$"):
                make_sequence(kind, 10**10, **kw)
        with pytest.raises(ValueError, match="^node count must be >= 1, got 0$"):
            GraphSnapshot(0, [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            snap(3, [(0, 3)])

    def test_degree_counts_self_loop(self):
        # complete graph: n-1 neighbors plus the self-loop
        deg = arrays_of(snap(4, edge_set(complete_edges(4)))).deg
        assert all(deg[i] == 4 for i in range(4))
        # edgeless: just the self-loop
        deg = arrays_of(snap(5, [])).deg
        assert all(deg[i] == 1 for i in range(5))
        # middle of a 3-node line: two neighbors plus the self-loop
        deg = arrays_of(snap(3, edge_set(line_edges(3)))).deg
        assert deg[1] == 3
        assert deg[0] == 2

    @pytest.mark.parametrize("n,p", [(1, 0.0), (2, 1.0), (9, 0.0), (9, 0.4), (30, 0.2),
                                     (30, 0.9)])
    @pytest.mark.parametrize("seed", range(3))
    def test_edge_arrays_match_the_oracle_views(self, n, p, seed):
        """Each round's arrays, as a run builds them from the sequence's
        universe rows, hold the oracle's sorted edges and degrees."""
        rng = random.Random(seed)
        rounds = [
            [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            for _ in range(3)
        ]
        seq = make_sequence("periodic", n, rounds=rounds)
        memo = {}
        for t in range(1, 4):
            g = seq.snapshot(t)
            arrays = round_arrays(seq, t, "max_degree", None, memo)
            assert tuple(map(tuple, arrays.edges.tolist())) == edge_list(g)
            assert tuple(arrays.deg.tolist()) == degrees(g)

    def test_connectivity(self):
        # the core of a one-round window is its edge set
        assert core([snap(3, edge_set(line_edges(3)))], 1).is_core_connected
        assert not core([snap(3, [(0, 1)])], 1).is_core_connected
        assert core([snap(1, [])], 1).is_core_connected


class TestSequences:
    def test_static_is_constant(self):
        seq = make_sequence("static", 3, base="complete")
        assert edge_set(seq.snapshot(7).edges) == {(0, 1), (0, 2), (1, 2)}
        assert seq.snapshot(1) is seq.snapshot(7)

    def test_periodic_cycles(self):
        seq = make_sequence("periodic", 3, rounds=[[(0, 1)], [(1, 2)]])
        assert edge_set(seq.snapshot(1).edges) == {(0, 1)}
        assert edge_set(seq.snapshot(2).edges) == {(1, 2)}
        assert edge_set(seq.snapshot(3).edges) == {(0, 1)}

    def test_explicit_out_of_range(self):
        seq = make_sequence("explicit", 3, rounds=[[(0, 1)], []])
        assert edge_set(seq.snapshot(2).edges) == frozenset()
        with pytest.raises(ValueError, match="beyond explicit sequence"):
            seq.snapshot(3)

    @pytest.mark.parametrize("kind", ["static", "periodic", "explicit"])
    def test_cached_ids_are_read_only(self, kind):
        rounds = [line_edges(3).tolist()] * 6
        seq = (make_sequence(kind, 3, base="line") if kind == "static"
               else make_sequence(kind, 3, rounds=rounds))
        with pytest.raises(ValueError, match="read-only"):
            seq.edge_ids(1)[0] = 1
        assert seq.edge_ids(5).tolist() == [0, 1]
        assert edge_set(seq.snapshot(5).edges) == edge_set(line_edges(3))

    def test_tabulated_kinds(self):
        g = snap(3, edge_set(line_edges(3)))
        assert ExplicitSequence((g,), "static").kind == "static"
        with pytest.raises(ValueError, match="exactly one round, got 2"):
            ExplicitSequence((g, g), "static")
        with pytest.raises(ValueError, match="unknown tabulated sequence kind"):
            ExplicitSequence((g,), "core_synthetic")

    def test_round_index_starts_at_one(self):
        seq = make_sequence("static", 3, base="line")
        with pytest.raises(ValueError, match=">= 1"):
            seq.snapshot(0)
        with pytest.raises(ValueError, match=">= 1"):
            seq.edge_ids(0)

    def test_relabeled_line_shape(self):
        seq = make_sequence("relabeled_line", 3, seed=5)
        g = seq.snapshot(4)
        assert len(g.edges) == 2
        assert connected(g.n, g.edges)

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
    def test_relabeled_line_properties(self, seed):
        seq = make_sequence("relabeled_line", 7, seed=seed)
        for t in range(1, 40):
            g = seq.snapshot(t)
            assert len(g.edges) == 6
            assert connected(g.n, g.edges)

    @given(
        st.sampled_from(["static", "relabeled_line", "core_synthetic", "periodic"]),
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_is_deterministic(self, kind, seed, t):
        def build():
            if kind == "static":
                return make_sequence("static", 5, base="complete")
            if kind == "periodic":
                return make_sequence("periodic", 5, rounds=[[(0, 1)], [(1, 2), (3, 4)]])
            if kind == "core_synthetic":
                return make_sequence(
                    "core_synthetic", 5, seed,
                    core_edges=line_edges(5).tolist(), block_len=3, extra_edge_prob=0.4,
                )
            return make_sequence("relabeled_line", 5, seed)

        a, b = build().snapshot(t), build().snapshot(t)
        assert edge_set(a.edges) == edge_set(b.edges)

    def test_core_synthetic_places_each_core_edge_once_per_block(self):
        B = 4
        seq = CoreSyntheticSequence(
            6, edge_set(line_edges(6)), B, extra_edge_prob=0.0, seed=9
        )
        for block in range(6):
            counts = {e: 0 for e in edge_set(line_edges(6))}
            for t in range(block * B + 1, (block + 1) * B + 1):
                for e in edge_set(seq.snapshot(t).edges):
                    counts[e] += 1
            assert all(c == 1 for c in counts.values())

    def test_core_synthetic_extras_only_off_core(self):
        seq = CoreSyntheticSequence(
            5, edge_set(line_edges(5)), 2, extra_edge_prob=1.0, seed=3
        )
        g = seq.snapshot(1)
        off_core = edge_set(complete_edges(5)) - edge_set(line_edges(5))
        assert off_core <= edge_set(g.edges)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_core_synthetic_matches_the_per_round_redraw(self, data):
        """Rounds are drawn in chunks, each block's core offsets from one
        ``getrandbits``; a snapshot is still the per-round redraw. A first
        run of rounds ramps the chunks up to ``CHUNK_ROUNDS`` and past it, B
        reaches past a chunk, so that a block spans two, and then rounds are
        read in random and in descending order. A complete core leaves no
        other pair to draw, and a shrunk word budget sends blocks to the
        ``randrange`` fallback."""
        n = data.draw(st.integers(2, 12), label="n")
        B = data.draw(
            st.one_of(st.integers(1, 5), st.integers(CHUNK_ROUNDS - 2, 2 * CHUNK_ROUNDS)),
            label="B",
        )
        p = data.draw(st.sampled_from([0.0, 0.05, 0.4, 1.0]), label="p")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        if data.draw(st.booleans(), label="complete core"):
            core_edges = complete_edges(n)
        else:
            # a random spanning tree plus a few more core edges
            tree = {(data.draw(st.integers(0, k - 1)), k) for k in range(1, n)}
            pairs = sorted(edge_set(complete_edges(n)))
            more = data.draw(st.sets(st.sampled_from(pairs)))
            core_edges = frozenset(tree | more)
        seq = CoreSyntheticSequence(n, core_edges, B, p, seed)
        words = data.draw(st.sampled_from([None, 0, 1]), label="words per core edge")
        span = data.draw(st.integers(1, 4 * CHUNK_ROUNDS), label="span")
        ts = data.draw(st.lists(st.integers(1, 2 * span), min_size=1, max_size=12))
        shuffled = data.draw(st.permutations(ts + ts), label="shuffled")
        with pytest.MonkeyPatch.context() as mp:
            if words is not None:
                mp.setattr(graphs, "_core_words", lambda c: words * c)
            for t in [*range(1, span + 1), *shuffled, *sorted(ts, reverse=True)]:
                assert not seq.edge_ids(t).flags.writeable
                assert seq.snapshot(t) == core_synthetic_snapshot(seq, t)

    @pytest.mark.parametrize("B", [4, 7, 2**33 + 1])
    def test_core_synthetic_short_blocks_fall_back_to_randrange(self, B):
        """A block whose words hold fewer than C offsets below B (here, with
        one word per core edge), or whose B needs more than 32 bits, is
        drawn with ``randrange`` itself, and gives the per-round redraw."""
        seq = CoreSyntheticSequence(8, line_edges(8), B, 0.3, seed=11)
        calls = []
        randrange = random.Random.randrange
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_core_words", lambda c: c)
            mp.setattr(
                random.Random, "randrange",
                lambda rng, *args: calls.append(args) or randrange(rng, *args),
            )
            got = [seq.snapshot(t) for t in range(1, 120)]
        assert calls
        assert got == [core_synthetic_snapshot(seq, t) for t in range(1, 120)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_core_synthetic_long_window_matches_the_calls(self, seed):
        """15,000 rounds of perfbench/varying.yaml's sequence at each seed,
        read in order as a run reads them, are bitwise the ids of one
        ``randrange(B)`` per core edge from each block's child PRNG and one
        ``random()`` per other pair from each round's, both in sorted edge
        order. The benchmark's run reads 14,133 rounds at seed 1 and 13,964
        at seed 2."""
        doc, base_dir = read_config_doc(VARYING)
        doc["graph"]["seed"] = seed
        seq = load_config_data(doc, base_dir).seq
        pairs = sorted(edge_set(complete_edges(seq.n)))
        assert seq.universe.tolist() == [list(e) for e in pairs]
        core_edges = edge_set(seq.core_edges)
        core_rows = [k for k, e in enumerate(pairs) if e in core_edges]
        rest = [k for k, e in enumerate(pairs) if e not in core_edges]
        B, p = seq.block_len, seq.extra_edge_prob
        for t in range(1, 15_001):
            block, offset = divmod(t - 1, B)
            if offset == 0:
                draw = random.Random(derive_seed(seed, 1, block)).randrange
                at = [draw(B) for _ in core_rows]
            rand = random.Random(derive_seed(seed, 2, t)).random
            # p > random(), one call per other pair
            below = map(p.__gt__, itertools.starmap(rand, itertools.repeat((), len(rest))))
            want = [k for k, o in zip(core_rows, at) if o == offset]
            want = sorted(want + list(itertools.compress(rest, below)))
            assert seq.edge_ids(t).tolist() == want, t

    def test_core_synthetic_rejects_disconnected_core(self):
        with pytest.raises(ValueError, match="connected"):
            CoreSyntheticSequence(4, frozenset([(0, 1)]), 2)

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_core_synthetic_self_check(self, B, seed):
        seq = make_sequence(
            "core_synthetic", 8, seed,
            core_edges=line_edges(8).tolist(), block_len=B, extra_edge_prob=0.2,
        )
        window = [seq.snapshot(t) for t in range(1, 4 * B + 1)]
        result = core(window, B)
        assert result.is_core_connected
        assert edge_set(line_edges(8)) <= result.core_edges


@st.composite
def any_sequence(draw):
    """A sequence of any kind on 1 to 7 nodes (relabeled_line from 2), and
    a number of rounds to read from it."""
    kind = draw(st.sampled_from(
        ("static", "periodic", "explicit", "core_synthetic", "relabeled_line")
    ))
    n = draw(st.integers(2 if kind == "relabeled_line" else 1, 7))
    t_max = draw(st.integers(1, 30))
    pairs = list(itertools.combinations(range(n), 2))
    # empty subsets give edgeless rounds and isolated nodes
    subsets = st.just([])
    if pairs:
        subsets = st.lists(st.sampled_from(pairs), max_size=len(pairs))
    seed = draw(st.integers(0, 2**32))
    if kind == "static":
        return make_sequence(kind, n, edges=draw(subsets)), t_max
    if kind == "periodic":
        rounds = draw(st.lists(subsets, min_size=1, max_size=4))
        return make_sequence(kind, n, rounds=rounds), t_max
    if kind == "explicit":
        rounds = draw(st.lists(subsets, min_size=t_max, max_size=t_max))
        return make_sequence(kind, n, rounds=rounds), t_max
    if kind == "relabeled_line":
        return make_sequence(kind, n, seed), t_max
    core = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    seq = make_sequence(
        kind, n, seed, core_edges=core, block_len=draw(st.integers(1, 4)),
        extra_edge_prob=draw(st.sampled_from((0.0, 0.2, 1.0))),
    )
    return seq, t_max


class TestEdgeUniverse:
    @given(any_sequence())
    @settings(max_examples=150, deadline=None)
    def test_edge_ids_index_the_universe(self, case):
        seq, t_max = case
        universe = seq.universe
        assert universe.dtype == np.intp and universe.shape == (len(universe), 2)
        assert not universe.flags.writeable
        rows = list(map(tuple, universe.tolist()))
        assert rows == sorted(set(rows))
        assert all(0 <= i < j < seq.n for i, j in rows)
        ids_of = {}  # snapshot object id -> (snapshot, its ids)
        shown = set()
        for t in range(1, t_max + 1):
            ids, g = seq.edge_ids(t), seq.snapshot(t)
            assert ids.dtype == np.intp
            assert (np.diff(ids) > 0).all()
            assert ((0 <= ids) & (ids < len(universe))).all()
            assert GraphSnapshot(seq.n, map(tuple, universe[ids].tolist())) == g
            assert ids_of.setdefault(id(g), (g, ids))[1] is ids
            shown |= edge_set(g.edges)
        assert shown <= set(rows)

    @pytest.mark.parametrize("make", [
        lambda: make_sequence("static", 50, base="complete"),
        lambda: make_sequence("static", 50, base="line"),
        lambda: make_sequence("periodic", 6, rounds=[[(0, 1), (4, 2), (3, 5)]]),
    ], ids=["static-complete-50", "static-line-50", "periodic-one-round"])
    def test_a_round_that_is_its_universe_needs_no_search(self, monkeypatch, make):
        """A tabulated round whose edge array is the universe, as every static
        sequence's is, has the ids 0..m-1 without a search of the universe:
        read-only, one object every round, and the rows the search gives."""
        searched = make()
        want = searched._rows(*searched.universe.T).tolist()

        def refused(*args):
            raise AssertionError("the universe was searched")

        monkeypatch.setattr(graphs.GraphSequence, "_rows", refused)
        seq = make()
        ids = seq.edge_ids(1)
        assert ids.dtype == np.intp and not ids.flags.writeable
        assert ids.tolist() == list(range(len(seq.universe))) == want
        assert all(seq.edge_ids(t) is ids for t in (2, 3, 1000))

    def test_universe_by_kind(self):
        line = sorted(edge_set(line_edges(4)))
        all_pairs = sorted(edge_set(complete_edges(4)))
        cases = [
            (make_sequence("static", 4, base="line"), sorted(line)),
            (make_sequence("periodic", 4, rounds=[[(2, 3)], [], [(0, 1), (2, 3)]]),
             [(0, 1), (2, 3)]),
            (make_sequence("core_synthetic", 4, core_edges=line, block_len=2),
             sorted(line)),
            (make_sequence("core_synthetic", 4, core_edges=line, block_len=2,
                           extra_edge_prob=0.01), all_pairs),
            (make_sequence("relabeled_line", 4, seed=1), all_pairs),
        ]
        for seq, want in cases:
            assert list(map(tuple, seq.universe.tolist())) == want, seq.kind


class TestMakeSequenceParameters:
    @pytest.mark.parametrize(
        "kind,kw,needle",
        [
            ("core_synthetic", {"block_len": 2}, "needs core_edges"),
            ("periodic", {}, "needs its rounds"),
            ("relabeled_line", {"base": "line"}, r"\['base'\]"),
            ("periodic", {"rounds": [[]], "path": "r.txt"}, r"\['path'\]"),
            ("torus", {}, "unknown sequence kind"),
            ("core_synthetic", {"core_edges": [(0, 1)]}, "needs block_len"),
        ],
    )
    def test_bad_parameters_are_value_errors(self, kind, kw, needle):
        with pytest.raises(ValueError, match=needle):
            make_sequence(kind, 3, **kw)

    def test_explicit_from_path(self, tmp_path):
        path = tmp_path / "rounds.txt"
        path.write_text("0-1\n\n1-2\n")
        seq = make_sequence("explicit", 3, path=path)
        assert [edge_set(seq.snapshot(t).edges) for t in (1, 2, 3)] == [
            {(0, 1)}, set(), {(1, 2)}
        ]
        with pytest.raises(ValueError, match="not both"):
            make_sequence("explicit", 3, path=path, rounds=[[(0, 1)]])
        with pytest.raises(OSError):
            make_sequence("explicit", 3, path=tmp_path / "missing.txt")


class TestCoreCheck:
    def test_constant_complete(self):
        window = [snap(3, edge_set(complete_edges(3)))] * 4
        res = core(window, 1)
        assert res.is_core_connected
        assert res.core_edges == edge_set(complete_edges(3))

    def test_alternating_pair(self):
        window = [snap(3, [(0, 1)]), snap(3, [(1, 2)])] * 4
        res2 = core(window, 2)
        assert res2.is_core_connected
        assert res2.core_edges == {(0, 1), (1, 2)}
        res1 = core(window, 1)
        assert not res1.is_core_connected
        assert res1.core_edges == frozenset()

    def test_partial_trailing_block_ignored(self):
        window = [snap(3, [(0, 1)]), snap(3, [(1, 2)])] * 4
        # 9th round would wreck the intersection if it formed its own block
        window.append(snap(3, []))
        assert core(window, 2).is_core_connected

    def test_argument_errors(self):
        for window in (list, iter):  # the same checks, in the same order
            with pytest.raises(ValueError, match="block length must be >= 1"):
                fold_core(3, window([]), 0)
            with pytest.raises(ValueError, match="block length must be >= 1"):
                fold_core(3, window(snapshot_keys([snap(3, [])])), 0)
            with pytest.raises(ValueError, match="window of 0 rounds is shorter"):
                fold_core(3, window([]), 1)
            with pytest.raises(ValueError, match="window of 1 rounds is shorter"):
                fold_core(3, window(snapshot_keys([snap(3, [])])), 2)

    def test_a_generator_window_gives_the_list_result(self):
        seq = make_sequence(
            "core_synthetic", 6, seed=2, core_edges=line_edges(6).tolist(),
            block_len=3, extra_edge_prob=0.3,
        )
        window = list(snapshot_keys(seq.snapshot(t) for t in range(1, 32)))
        for B in (1, 3, 4):
            got = fold_core(6, snapshot_keys(seq.snapshot(t) for t in range(1, 32)), B)
            assert got == fold_core(6, window, B)

    @given(any_sequence(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_sequence_keys_give_the_snapshot_result(self, case, B):
        # check-core folds each round's universe keys, not its snapshot
        seq, t_max = case
        keys = (seq.edge_keys(t) for t in range(1, t_max + 1))
        snaps = [seq.snapshot(t) for t in range(1, t_max + 1)]
        if t_max < B:
            with pytest.raises(ValueError, match="shorter than one block"):
                fold_core(seq.n, keys, B)
            return
        assert fold_core(seq.n, keys, B) == core(snaps, B)

    def test_monotone_in_block_length(self):
        # passing at block length B implies passing at any multiple of B
        # that still divides the window (brute-forced over random windows)
        rng = random.Random(123)
        all_edges = sorted(edge_set(complete_edges(5)))
        for trial in range(40):
            length = rng.choice([12, 16, 24])
            window = [
                snap(5, [e for e in all_edges if rng.random() < 0.5])
                for _ in range(length)
            ]
            for B in range(1, length + 1):
                if length % B:
                    continue
                if not core(window, B).is_core_connected:
                    continue
                for mult in range(2, length // B + 1):
                    MB = B * mult
                    if length % MB:
                        continue
                    assert core(window, MB).is_core_connected

    def test_memory_follows_the_edges_not_n_squared(self):
        # a 3000-node line has 2999 edges; masks over its n*n keys would
        # take 9 MB each
        seq = make_sequence("static", 3000, base="line")
        tracemalloc.start()
        try:
            res = fold_core(seq.n, (seq.edge_keys(t) for t in range(1, 11)), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.is_core_connected
        assert res.core_edges == edge_set(line_edges(3000))
        assert peak < 5 * 2**20


class TestRoundsText:
    def test_round_trip(self):
        rounds = (snap(4, [(0, 1), (2, 3)]), snap(4, []), snap(4, [(1, 2)]))
        assert parse_rounds_text("0-1 2-3\n\n1-2\n", 4) == rounds

    def test_blank_line_is_edgeless(self):
        rounds = parse_rounds_text("0-1\n\n1-2\n", 3)
        assert edge_set(rounds[1].edges) == frozenset()

    def test_bad_token(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_rounds_text("0-1\n0:1\n", 3)

    @pytest.mark.parametrize(
        "token", ["0-1-2", "a-1", "0.5-1", "-1-2", "+0-1", "1_0-2", "\u0663-1"]
    )
    def test_token_the_edge_parser_refuses_names_its_line(self, token):
        want = "^" + re.escape(f"line 3: bad edge '{token}', ")
        with pytest.raises(ValueError, match=want):
            parse_rounds_text(f"0-1\n1-2\n2-0 {token}\n", 3)

    def test_non_utf8_file_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "rounds.txt"
        path.write_bytes(b"0-1\r\n\n1-2\xff\n")
        with pytest.raises(ValueError) as exc:
            make_sequence("explicit", 3, path=path)
        assert str(exc.value) == (
            f"{path}: line 3: byte 0xff is not UTF-8 (invalid start byte)"
        )


def test_derive_seed_is_stable():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(42, 8)
    assert derive_seed(42, 7, 1) != derive_seed(42, 7, 2)


def test_edges_partition_of_windows():
    # every generated kind yields snapshots usable by the checker
    seqs = [
        make_sequence("static", 4, base="line"),
        make_sequence("relabeled_line", 4, seed=1),
        make_sequence("periodic", 4, rounds=[[(0, 1), (2, 3)], [(1, 2)]]),
    ]
    for seq in seqs:
        window = [seq.snapshot(t) for t in range(1, 9)]
        core(window, 2)


def test_brute_force_core_agreement_small():
    # checker agrees with explicit subset search on every tiny 3-node window
    universe = sorted(edge_set(complete_edges(3)))

    def brute(window, B):
        blocks = len(window) // B
        unions = [
            frozenset().union(*(edge_set(g.edges) for g in window[k * B : (k + 1) * B]))
            for k in range(blocks)
        ]
        for r in range(len(universe), 0, -1):
            for cand in itertools.combinations(universe, r):
                c = frozenset(cand)
                if all(c <= u for u in unions) and connected(3, c):
                    return True
        return False

    subsets = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]
    for rounds in itertools.product(subsets, repeat=3):
        window = [snap(3, e) for e in rounds]
        for B in (1, 2, 3):
            got = core(window, B).is_core_connected
            assert got == brute(window, B)
