import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_consensus.graphs import (
    CoreSyntheticSequence,
    GraphSnapshot,
    check_core_connected,
    complete_edges,
    derive_seed,
    format_rounds_text,
    line_edges,
    make_sequence,
    parse_rounds_text,
)


def snap(n, edges):
    return GraphSnapshot(n, frozenset(edges))


class TestGraphSnapshot:
    def test_normalizes_and_dedupes(self):
        g = GraphSnapshot(3, {(1, 0), (0, 1), (2, 1)})
        assert g.edges == {(0, 1), (1, 2)}

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="self-pair"):
            snap(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            snap(3, [(0, 3)])

    def test_degree_counts_self_loop(self):
        # complete graph: n-1 neighbors plus the self-loop
        g = snap(4, complete_edges(4))
        assert all(g.degree(i) == 4 for i in range(4))
        # edgeless: just the self-loop
        g = snap(5, [])
        assert all(g.degree(i) == 1 for i in range(5))
        # middle of a 3-node line: two neighbors plus the self-loop
        g = snap(3, line_edges(3))
        assert g.degree(1) == 3
        assert g.degree(0) == 2

    def test_degree_rejects_bad_node(self):
        g = snap(3, line_edges(3))
        with pytest.raises(ValueError, match="out of range"):
            g.degree(3)

    def test_connectivity(self):
        assert snap(3, line_edges(3)).is_connected()
        assert not snap(3, [(0, 1)]).is_connected()
        assert snap(1, []).is_connected()


class TestSequences:
    def test_static_is_constant(self):
        seq = make_sequence("static", 3, base="complete")
        assert seq.snapshot(7).edges == {(0, 1), (0, 2), (1, 2)}
        assert seq.snapshot(1) is seq.snapshot(7)

    def test_periodic_cycles(self):
        seq = make_sequence("periodic", 3, rounds=[[(0, 1)], [(1, 2)]])
        assert seq.snapshot(1).edges == {(0, 1)}
        assert seq.snapshot(2).edges == {(1, 2)}
        assert seq.snapshot(3).edges == {(0, 1)}

    def test_explicit_out_of_range(self):
        seq = make_sequence("explicit", 3, rounds=[[(0, 1)], []])
        assert seq.snapshot(2).edges == frozenset()
        with pytest.raises(ValueError, match="beyond explicit sequence"):
            seq.snapshot(3)

    def test_round_index_starts_at_one(self):
        seq = make_sequence("static", 3, base="line")
        with pytest.raises(ValueError, match=">= 1"):
            seq.snapshot(0)

    def test_relabeled_line_shape(self):
        seq = make_sequence("relabeled_line", 3, seed=5)
        g = seq.snapshot(4)
        assert len(g.edges) == 2
        assert g.is_connected()

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
    def test_relabeled_line_properties(self, seed):
        seq = make_sequence("relabeled_line", 7, seed=seed)
        for t in range(1, 40):
            g = seq.snapshot(t)
            assert len(g.edges) == 6
            assert g.is_connected()

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
                    core_edges=list(line_edges(5)), block_len=3, extra_edge_prob=0.4,
                )
            return make_sequence("relabeled_line", 5, seed)

        assert build().snapshot(t).edges == build().snapshot(t).edges

    def test_core_synthetic_places_each_core_edge_once_per_block(self):
        B = 4
        seq = CoreSyntheticSequence(
            6, frozenset(line_edges(6)), B, extra_edge_prob=0.0, seed=9
        )
        for block in range(6):
            counts = {e: 0 for e in line_edges(6)}
            for t in range(block * B + 1, (block + 1) * B + 1):
                for e in seq.snapshot(t).edges:
                    counts[e] += 1
            assert all(c == 1 for c in counts.values())

    def test_core_synthetic_extras_only_off_core(self):
        seq = CoreSyntheticSequence(
            5, frozenset(line_edges(5)), 2, extra_edge_prob=1.0, seed=3
        )
        g = seq.snapshot(1)
        assert complete_edges(5) - frozenset(line_edges(5)) <= g.edges

    def test_core_synthetic_rejects_disconnected_core(self):
        with pytest.raises(ValueError, match="connected"):
            CoreSyntheticSequence(4, frozenset([(0, 1)]), 2)

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_core_synthetic_self_check(self, B, seed):
        seq = make_sequence(
            "core_synthetic", 8, seed,
            core_edges=list(line_edges(8)), block_len=B, extra_edge_prob=0.2,
        )
        window = [seq.snapshot(t) for t in range(1, 4 * B + 1)]
        result = check_core_connected(window, B)
        assert result.is_core_connected
        assert frozenset(line_edges(8)) <= result.core_edges


class TestMakeSequenceParameters:
    @pytest.mark.parametrize(
        "kind,kw,needle",
        [
            ("core_synthetic", {"block_len": 2}, "needs core_edges"),
            ("periodic", {}, "needs its rounds"),
            ("relabeled_line", {"base": "line"}, r"\['base'\]"),
            ("periodic", {"rounds": [[]], "path": "r.txt"}, r"\['path'\]"),
            ("torus", {}, "unknown sequence kind"),
        ],
    )
    def test_bad_parameters_are_value_errors(self, kind, kw, needle):
        with pytest.raises(ValueError, match=needle):
            make_sequence(kind, 3, **kw)

    def test_explicit_from_path(self, tmp_path):
        path = tmp_path / "rounds.txt"
        path.write_text("0-1\n\n1-2\n")
        seq = make_sequence("explicit", 3, path=path)
        assert [seq.snapshot(t).edges for t in (1, 2, 3)] == [{(0, 1)}, set(), {(1, 2)}]
        with pytest.raises(ValueError, match="not both"):
            make_sequence("explicit", 3, path=path, rounds=[[(0, 1)]])
        with pytest.raises(OSError):
            make_sequence("explicit", 3, path=tmp_path / "missing.txt")


class TestCoreCheck:
    def test_constant_complete(self):
        window = [snap(3, complete_edges(3))] * 4
        res = check_core_connected(window, 1)
        assert res.is_core_connected
        assert res.core_edges == complete_edges(3)

    def test_alternating_pair(self):
        window = [snap(3, [(0, 1)]), snap(3, [(1, 2)])] * 4
        res2 = check_core_connected(window, 2)
        assert res2.is_core_connected
        assert res2.core_edges == {(0, 1), (1, 2)}
        res1 = check_core_connected(window, 1)
        assert not res1.is_core_connected
        assert res1.core_edges == frozenset()

    def test_partial_trailing_block_ignored(self):
        window = [snap(3, [(0, 1)]), snap(3, [(1, 2)])] * 4
        # 9th round would wreck the intersection if it formed its own block
        window.append(snap(3, []))
        assert check_core_connected(window, 2).is_core_connected

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            check_core_connected([], 1)
        with pytest.raises(ValueError):
            check_core_connected([snap(3, [])], 0)
        with pytest.raises(ValueError, match="shorter than one block"):
            check_core_connected([snap(3, [])], 2)

    def test_monotone_in_block_length(self):
        # passing at block length B implies passing at any multiple of B
        # that still divides the window (brute-forced over random windows)
        rng = random.Random(123)
        all_edges = sorted(complete_edges(5))
        for trial in range(40):
            length = rng.choice([12, 16, 24])
            window = [
                snap(5, [e for e in all_edges if rng.random() < 0.5])
                for _ in range(length)
            ]
            for B in range(1, length + 1):
                if length % B:
                    continue
                if not check_core_connected(window, B).is_core_connected:
                    continue
                for mult in range(2, length // B + 1):
                    MB = B * mult
                    if length % MB:
                        continue
                    assert check_core_connected(window, MB).is_core_connected


class TestRoundsText:
    def test_round_trip(self):
        rounds = (snap(4, [(0, 1), (2, 3)]), snap(4, []), snap(4, [(1, 2)]))
        text = format_rounds_text(rounds)
        assert parse_rounds_text(text, 4) == rounds

    def test_blank_line_is_edgeless(self):
        rounds = parse_rounds_text("0-1\n\n1-2\n", 3)
        assert rounds[1].edges == frozenset()

    def test_bad_token(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_rounds_text("0-1\n0:1\n", 3)


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
        check_core_connected(window, 2)


def test_brute_force_core_agreement_small():
    # checker agrees with explicit subset search on every tiny 3-node window
    universe = sorted(complete_edges(3))

    def brute(window, B):
        blocks = len(window) // B
        unions = [
            frozenset().union(*(g.edges for g in window[k * B : (k + 1) * B]))
            for k in range(blocks)
        ]
        for r in range(len(universe), 0, -1):
            for cand in itertools.combinations(universe, r):
                c = frozenset(cand)
                if all(c <= u for u in unions) and snap(3, c).is_connected():
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
            got = check_core_connected(window, B).is_core_connected
            assert got == brute(window, B)
