import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_engine_equivalence import THEOREM_EXPONENTS
from ternary_consensus.errors import ProtocolError
from ternary_consensus.protocol import (
    LedgerEntry,
    Message,
    NodeState,
    ProtocolParams,
    active_set,
    apply_messages,
    compute_message,
    quantize,
    round_scales,
    value_update,
)

THEOREM = ProtocolParams(alpha=0.5, beta=0.75, variant="theorem")
PRACTICAL = ProtocolParams(alpha=0.5, beta=0.0, variant="practical")


def node(nid, x, peers=()):
    state = NodeState(nid, x)
    for peer, x_in, x_out in peers:
        state.ledger[peer] = LedgerEntry(x_in, x_out, first_seen=1, last_seen=1)
    return state


class TestQuantize:
    def test_band_edges(self):
        assert quantize(2.5) == 1
        assert quantize(1.0) == 0
        assert quantize(-1.0) == 0
        assert quantize(-1.2) == -1
        assert quantize(0.0) == 0

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                quantize(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_range_and_oddness(self, v):
        q = quantize(v)
        assert q in (-1, 0, 1)
        assert quantize(-v) == -q


class TestParams:
    def test_theorem_ordering_enforced(self):
        with pytest.raises(ValueError, match="alpha < beta"):
            ProtocolParams(alpha=0.75, beta=0.5, variant="theorem")
        with pytest.raises(ValueError, match="alpha < beta"):
            ProtocolParams(alpha=0.5, beta=1.0, variant="theorem")

    def test_practical_forces_zero_beta(self):
        with pytest.raises(ValueError, match="beta must be 0"):
            ProtocolParams(alpha=0.5, beta=0.5, variant="practical")

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            ProtocolParams(alpha=0.0, beta=0.5)
        with pytest.raises(ValueError, match="alpha"):
            ProtocolParams(alpha=1.0, beta=0.5)

    def test_fixed_policy_needs_bound(self):
        with pytest.raises(ValueError, match="d_fixed"):
            ProtocolParams(alpha=0.25, beta=0.5, d_policy="fixed")
        with pytest.raises(ValueError, match="d_fixed"):
            ProtocolParams(alpha=0.25, beta=0.5, d_fixed=3.0)

    def test_prune_horizon_domain(self):
        with pytest.raises(ValueError, match="prune_horizon"):
            ProtocolParams(alpha=0.25, beta=0.5, prune_horizon=0)


class TestComputeMessage:
    def test_positive_step(self):
        # t=16, alpha=0.5 -> t^alpha = 4; 4 * (0.6 - 0.3) = 1.2 > 1
        state = node(0, 0.6, [(1, 0.0, 0.3)])
        assert compute_message(state, 1, 16, THEOREM).q == 1

    def test_zero_when_estimate_matches(self):
        for t in (1, 5, 1000):
            state = node(0, 0.37, [(1, 0.0, 0.37)])
            assert compute_message(state, 1, t, THEOREM).q == 0

    def test_boundary_is_inside_band(self):
        # t=1: argument is exactly 1.0, which still maps to 0
        state = node(0, 1.0, [(1, 0.0, 0.0)])
        assert compute_message(state, 1, 1, THEOREM).q == 0

    def test_missing_entry_is_protocol_error(self):
        state = node(0, 0.5)
        with pytest.raises(ProtocolError, match="no ledger entry"):
            compute_message(state, 1, 3, THEOREM)

    def test_does_not_mutate(self):
        state = node(0, 0.6, [(1, 0.25, 0.3)])
        compute_message(state, 1, 16, THEOREM)
        entry = state.ledger[1]
        assert (state.x, entry.x_in, entry.x_out) == (0.6, 0.25, 0.3)


class TestApplyMessages:
    def test_inbound_decrement(self):
        # t=16, alpha=0.5 -> 1/t^alpha = 0.25; x_in 0.5 + (-1)*0.25 = 0.25
        state = node(0, 0.0, [(1, 0.5, 0.0)])
        sent = [Message(0, 1, 0)]
        received = [Message(1, 0, -1)]
        apply_messages(state, 16, sent, received, THEOREM)
        assert state.ledger[1].x_in == 0.25
        assert state.ledger[1].last_seen == 16

    def test_zero_messages_leave_estimates_alone(self):
        state = node(0, 0.0, [(1, 0.5, -0.25)])
        apply_messages(state, 9, [Message(0, 1, 0)], [Message(1, 0, 0)], THEOREM)
        assert (state.ledger[1].x_in, state.ledger[1].x_out) == (0.5, -0.25)

    def test_absent_peer_untouched(self):
        state = node(0, 0.0, [(1, 0.5, 0.0), (2, 0.125, 0.375)])
        apply_messages(state, 16, [Message(0, 1, 1)], [Message(1, 0, 1)], THEOREM)
        assert (state.ledger[2].x_in, state.ledger[2].x_out) == (0.125, 0.375)
        assert state.ledger[2].last_seen == 1

    def test_non_adjacent_sender_rejected(self):
        state = node(0, 0.0, [(1, 0.0, 0.0), (2, 0.0, 0.0)])
        with pytest.raises(ProtocolError):
            apply_messages(
                state, 4, [Message(0, 1, 0)], [Message(2, 0, 0)], THEOREM
            )

    def test_non_ternary_payload_rejected(self):
        state = node(0, 0.0, [(1, 0.0, 0.0)])
        with pytest.raises(ProtocolError, match="non-ternary"):
            apply_messages(
                state, 4, [Message(0, 1, 0)], [Message(1, 0, 2)], THEOREM
            )

    def test_pruning_drops_idle_entries(self):
        params = ProtocolParams(alpha=0.5, beta=0.75, prune_horizon=3)
        state = node(0, 0.0, [(1, 0.5, 0.5), (2, 0.25, 0.25)])
        state.ledger[2].last_seen = 6
        apply_messages(
            state, 10, [Message(0, 2, 0)], [Message(2, 0, 0)], params
        )
        # peer 1 idle since round 1 < 10 - 3; peer 2 refreshed this round
        assert 1 not in state.ledger
        assert 2 in state.ledger

    def test_pruned_peer_restarts_from_zero(self):
        state = node(0, 0.0, [(1, 0.5, 0.5)])
        del state.ledger[1]
        state.ensure_peer(1, 9)
        entry = state.ledger[1]
        assert (entry.x_in, entry.x_out, entry.first_seen) == (0.0, 0.0, 9)

    def test_ensure_peer_keeps_existing(self):
        state = node(0, 0.0, [(1, 0.5, 0.25)])
        state.ensure_peer(1, 9)
        assert (state.ledger[1].x_in, state.ledger[1].x_out) == (0.5, 0.25)


class TestActiveSet:
    def make(self, diff, q_out=0, q_in=0, t=16):
        # t=16, alpha=0.5: threshold 4/t^alpha = 1.0
        state = node(0, 0.0, [(1, diff, 0.0)])
        sent = [Message(0, 1, q_out)]
        received = [Message(1, 0, q_in)]
        return active_set(state, t, (1,), sent, received, THEOREM)

    def test_wide_gap_joins(self):
        assert self.make(1.5) == {1}

    def test_nonzero_message_blocks(self):
        assert self.make(1.5, q_in=1) == set()
        assert self.make(1.5, q_out=-1) == set()

    def test_threshold_is_strict(self):
        assert self.make(1.0) == set()
        assert self.make(1.0 + 1e-9) == {1}


class TestValueUpdate:
    def test_empty_set_is_identity(self):
        state = node(0, 0.42, [(1, 9.0, 0.0)])
        value_update(state, 16, set(), {}, THEOREM)
        assert state.x == 0.42

    def test_theorem_step(self):
        # t=16: t^-beta = 1/8; diff 1.5 / (4*2) = 0.1875; 0.1875/8
        state = node(0, 0.0, [(1, 1.5, 0.0)])
        value_update(state, 16, {1}, {1: 2.0}, THEOREM)
        assert state.x == 0.0234375

    def test_practical_step(self):
        # diff 1.5 / (2*2) = 0.375, no damping
        state = node(0, 0.0, [(1, 1.5, 0.0)])
        value_update(state, 16, {1}, {1: 2.0}, PRACTICAL)
        assert state.x == 0.375

    def test_ascending_fold_order(self):
        state = node(0, 0.0, [(3, 0.3, 0.0), (1, 0.1, 0.0), (2, 0.2, 0.0)])
        value_update(state, 16, {1, 2, 3}, {1: 2.0, 2: 2.0, 3: 2.0}, PRACTICAL)
        expected = 0.0
        for diff in (0.1, 0.2, 0.3):
            expected += diff / 4.0
        assert state.x == expected


def test_round_output_ignores_everything_but_own_state_and_messages():
    # identical node state + identical messages => identical round output,
    # no matter what any other node in the world looks like
    def one_round(extra_world_junk):
        state = node(0, 0.6, [(1, 0.2, 0.3), (2, -0.4, 0.0)])
        sent = [compute_message(state, j, 16, THEOREM) for j in (1, 2)]
        received = [Message(1, 0, 0), Message(2, 0, 0)]
        apply_messages(state, 16, sent, received, THEOREM)
        act = active_set(state, 16, (1, 2), sent, received, THEOREM)
        value_update(state, 16, act, {1: 3.0, 2: 3.0}, THEOREM)
        return state.x, sorted(act), {
            j: (e.x_in, e.x_out) for j, e in state.ledger.items()
        }

    assert one_round(None) == one_round({"other_nodes": [node(1, 123.0)]})


def test_zero_messages_pin_outbound_estimate_near_value():
    # whenever a node sends q=0 to a peer, its outbound estimate is within
    # 1/t^alpha of its current value (the quantizer band, used downstream)
    from ternary_consensus import InitSpec, SimulationConfig, make_sequence, run

    seq = make_sequence("static", 3, base="complete")
    params = ProtocolParams(alpha=0.25, beta=0.5, variant="theorem")
    cfg = SimulationConfig(
        seq, params, InitSpec("uniform_random", seed=3), t_max=400,
    )
    result = run(cfg, keep_records=True)
    for rec in result.records:
        _, inv_ta, _ = round_scales(rec.t, params.alpha)
        for msg in rec.messages:
            if msg.q == 0:
                x_out = rec.estimates[msg.src][msg.dst][1]
                assert abs(x_out - rec.x_pre[msg.src]) <= inv_ta + 1e-15


@pytest.mark.parametrize("alpha, beta", THEOREM_EXPONENTS)
def test_float_power_is_the_scalar_power(alpha, beta):
    """A block's round scales and damping factors are np.float_power
    columns; they must be s ** e, C pow, bit for bit, for rounds up to
    10^10, and round_scales' columns its per-round scalars."""
    rounds = np.unique(np.concatenate((
        np.arange(1, 20001), np.geomspace(1, 1e10, 20000).round(),
    )))
    ints = rounds.astype(np.int64).tolist()
    for e in (alpha, -beta):
        want = np.array([s**e for s in ints])
        assert np.float_power(rounds, e).tobytes() == want.tobytes()
    cols = np.array(round_scales(rounds, alpha))
    want = np.array([round_scales(s, alpha) for s in ints]).T
    assert cols.tobytes() == want.tobytes()
