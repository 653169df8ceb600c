"""Per-node protocol state machine: ternary quantizer, message computation,
estimate-ledger updates, active-set selection, and the value update.

Everything here reads only one node's own state plus the messages it sent and
received this round; no operation can see another node's value or ledger. The
engine owns phase ordering; each operation computes its per-round scales from
``(t, params)`` so both endpoints of an edge apply bit-identical increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple

from .errors import ConfigError, PolicyViolationError, ProtocolError

VARIANTS = ("theorem", "practical")
D_POLICIES = ("max_degree", "global_n", "fixed")


def check_d_policy(d_policy: str, d_fixed: float | None) -> None:
    """Validate a degree-bound policy and its fixed bound (raises ConfigError)."""
    if d_policy not in D_POLICIES:
        raise ConfigError(f"d_policy must be one of {D_POLICIES}, got {d_policy!r}")
    if d_policy == "fixed":
        if d_fixed is None or d_fixed <= 0:
            raise ConfigError("fixed d_policy needs a positive d_fixed")
    elif d_fixed is not None:
        raise ConfigError("d_fixed only applies to the fixed policy")


def pair_bound(
    d_policy: str, d_fixed: float | None, n: int, d_i: int, d_j: int
) -> float:
    """Symmetric per-pair degree bound D(i,j), shared by the protocol and the
    real-valued baseline so both divide by the same number."""
    m = d_i if d_i >= d_j else d_j
    if d_policy == "max_degree":
        return float(m)
    if d_policy == "global_n":
        return float(n)
    if d_fixed < m:
        raise PolicyViolationError(
            f"fixed degree bound {d_fixed} is below the pair degree max {m}"
        )
    return d_fixed


def check_fixed_bound(
    d_policy: str, d_fixed: float | None, degrees: tuple[int, ...], t: int
) -> None:
    """Reject round t's graph if a fixed bound is below any edge's pair degree
    max. That max is the largest node degree whenever the round has an edge
    (degree > 1); edgeless rounds never violate."""
    if d_policy != "fixed":
        return
    m = max(degrees)
    if m > 1 and d_fixed < m:
        raise PolicyViolationError(
            f"fixed degree bound {d_fixed} is below the max pair degree {m} "
            f"at round {t}"
        )


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol knobs.

    alpha scales the quantizer (messages resolve 1/t^alpha steps); beta damps
    the value update. The theorem variant requires 0 < alpha < beta < 1 and
    divides estimate gaps by 4*D; the practical variant drops the damping
    (beta = 0) and divides by 2*max(d_i, d_j) regardless of d_policy.
    """

    alpha: float
    beta: float
    variant: str = "theorem"
    d_policy: str = "max_degree"
    d_fixed: float | None = None
    prune_horizon: int | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "theorem":
            if not (self.alpha < self.beta < 1.0):
                raise ValueError(
                    f"theorem variant needs alpha < beta < 1, got "
                    f"alpha={self.alpha}, beta={self.beta}"
                )
        elif self.beta != 0.0:
            raise ValueError(
                f"practical variant omits the damping exponent (beta must be 0, "
                f"got {self.beta})"
            )
        check_d_policy(self.d_policy, self.d_fixed)
        if self.prune_horizon is not None and self.prune_horizon < 1:
            raise ValueError(f"prune_horizon must be >= 1, got {self.prune_horizon}")


@dataclass(slots=True)
class LedgerEntry:
    """Paired estimates for one peer: x_in reconstructs the peer's value from
    its messages, x_out mirrors what the peer has reconstructed of ours."""

    x_in: float = 0.0
    x_out: float = 0.0
    first_seen: int = 0
    last_seen: int = 0


@dataclass(slots=True)
class NodeState:
    id: int
    x: float
    ledger: dict[int, LedgerEntry] = field(default_factory=dict)

    def ensure_peer(self, peer: int, t: int) -> None:
        """Create a zeroed entry when an edge (re)appears; existing entries,
        including their estimates, are left alone."""
        if peer not in self.ledger:
            self.ledger[peer] = LedgerEntry(0.0, 0.0, t, t)


class Message(NamedTuple):
    src: int
    dst: int
    q: int  # always one of -1, 0, +1


def quantize(v: float) -> int:
    """Ternary quantizer: +1 above 1, -1 below -1, 0 on the closed band [-1, 1]."""
    if not isfinite(v):
        raise ValueError(f"quantizer input must be finite, got {v!r}")
    if v > 1.0:
        return 1
    if v < -1.0:
        return -1
    return 0


def round_scales(t: int, alpha: float) -> tuple[float, float, float]:
    """Per-round scale factors (t^alpha, 1/t^alpha, 4/t^alpha).

    Single source for these expressions: each operation here calls it with
    ``(t, params.alpha)`` and the engine once per round, so every node
    quantizes, increments, and thresholds with bit-identical constants.
    """
    t_alpha = t**alpha
    inv = 1.0 / t_alpha
    return t_alpha, inv, 4.0 * inv


def compute_message(
    state: NodeState,
    peer: int,
    t: int,
    params: ProtocolParams,
) -> Message:
    """Message for `peer` this round: quantize(t^alpha * (x - outbound estimate)).

    Pure: reads only this node's state. The ledger entry must already exist
    (the engine creates entries before any messages are computed).
    """
    t_alpha = round_scales(t, params.alpha)[0]
    try:
        entry = state.ledger[peer]
    except KeyError:
        raise ProtocolError(
            f"node {state.id} has no ledger entry for peer {peer} at t={t}"
        ) from None
    return Message(state.id, peer, quantize(t_alpha * (state.x - entry.x_out)))


def apply_messages(
    state: NodeState,
    t: int,
    sent: list[Message],
    received: list[Message],
    params: ProtocolParams,
) -> None:
    """Fold this round's messages into the ledger (the one mutation point here).

    For every peer adjacent this round: x_out += q_sent/t^alpha and
    x_in += q_recv/t^alpha. Entries for peers absent this round are not
    touched. With a prune horizon set, entries idle for longer than the
    horizon are dropped afterwards; a pruned peer that reappears later starts
    again from zeroed estimates.
    """
    inv_t_alpha = round_scales(t, params.alpha)[1]
    inbound: dict[int, int] = {}
    for m in received:
        if m.q not in (-1, 0, 1):
            raise ProtocolError(f"message {m} carries a non-ternary payload")
        if m.dst != state.id:
            raise ProtocolError(f"message {m} delivered to node {state.id}")
        inbound[m.src] = m.q
    if len(inbound) != len(sent):
        raise ProtocolError(
            f"node {state.id} at t={t}: sent to {len(sent)} peers but heard "
            f"from {len(inbound)}"
        )
    ledger = state.ledger
    for m in sent:
        peer = m.dst
        try:
            q_in = inbound[peer]
        except KeyError:
            raise ProtocolError(
                f"node {state.id} at t={t}: no inbound message from peer {peer}"
            ) from None
        try:
            entry = ledger[peer]
        except KeyError:
            raise ProtocolError(
                f"node {state.id} at t={t}: message for peer {peer} without a "
                f"ledger entry"
            ) from None
        if m.q:
            entry.x_out += m.q * inv_t_alpha
        if q_in:
            entry.x_in += q_in * inv_t_alpha
        entry.last_seen = t
    if params.prune_horizon is not None:
        cutoff = t - params.prune_horizon
        stale = [peer for peer, e in ledger.items() if e.last_seen < cutoff]
        for peer in stale:
            del ledger[peer]


def active_set(
    state: NodeState,
    t: int,
    adjacency: tuple[int, ...],
    sent: list[Message],
    received: list[Message],
    params: ProtocolParams,
) -> set[int]:
    """Peers that enter this round's value update.

    A neighbor qualifies only if both directional messages were 0 this round
    and the estimate gap strictly exceeds 4/t^alpha. Uses time-t estimates:
    call after apply_messages.
    """
    threshold = round_scales(t, params.alpha)[2]
    q_sent = {m.dst: m.q for m in sent}
    q_recv = {m.src: m.q for m in received}
    ledger = state.ledger
    out = set()
    for j in adjacency:
        if q_sent.get(j) == 0 and q_recv.get(j) == 0:
            entry = ledger[j]
            if abs(entry.x_in - entry.x_out) > threshold:
                out.add(j)
    return out


def value_update(
    state: NodeState,
    t: int,
    active: set[int],
    d_bounds: dict[int, float],
    params: ProtocolParams,
) -> None:
    """Move the node value using active peers' estimate gaps (mutates state.x).

        theorem:   x += t^-beta * sum (x_in - x_out) / (4 * D_j)
        practical: x += sum (x_in - x_out) / (2 * D_j)

    d_bounds carries the engine-computed symmetric per-pair degree bound for
    each active peer. Peers fold in ascending id so reruns are bit-identical.
    """
    if not active:
        return
    ledger = state.ledger
    acc = 0.0
    if params.variant == "practical":
        for j in sorted(active):
            entry = ledger[j]
            acc += (entry.x_in - entry.x_out) / (2.0 * d_bounds[j])
        state.x += acc
    else:
        for j in sorted(active):
            entry = ledger[j]
            acc += (entry.x_in - entry.x_out) / (4.0 * d_bounds[j])
        state.x += t ** (-params.beta) * acc
