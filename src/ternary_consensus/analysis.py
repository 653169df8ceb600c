"""Run analysis: dispersion metrics, reconstruction and structural validation
of the effective per-round update matrix, the per-round invariant checker used
by checked runs, and the worst-case convergence-time bound evaluator.

Tolerances are fixed here once: estimate mirroring is exact in floating point
(both ledger sides apply identical increments in identical order), value
monotonicity and movement bounds get 1e-12 slack for accumulated rounding,
conservation of the mean gets 1e-12 relative to max(1, |x(0)|_inf), and
matrix structure gets 1e-9 because entries go through divisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite, log, sqrt
from sys import float_info
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Edge
from .protocol import ProtocolParams

if TYPE_CHECKING:  # circular-import guard: engine types are duck-typed here
    from .engine import EdgeState, RoundRecord

MONOTONE_TOL = 1e-12
CONSERVATION_TOL = 1e-12
ESTIMATE_TOL = 1e-12
STEP_TOL = 1e-12
MATRIX_TOL = 1e-9


def fold_sum(values) -> float:
    """The floats of ``values`` added left to right, starting from 0.0. This
    is the builtin ``sum`` of Python 3.10 and 3.11; Python 3.12 compensates
    its float sums, which rounds differently. Every float sum that reaches a
    CSV, a stop decision or a check goes through here or through its array
    form ``fold_rows``, so the output bytes do not depend on the
    interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def fold_rows(values: np.ndarray) -> np.ndarray:
    """The ``fold_sum`` of each row of a (k, n) array, n >= 1, bitwise.
    ``np.add.accumulate`` adds left to right, as ``fold_sum`` does, but from
    the first element, not from +0.0; that changes at most a -0.0 total,
    which ``+ 0.0`` maps to +0.0. (``np.sum`` adds pairwise.)"""
    return np.add.accumulate(values, axis=1)[:, -1] + 0.0


@dataclass(frozen=True, slots=True)
class MetricsRow:
    """One round's observables: extremes, dispersion, distance to the initial
    average, and message/activity counters. A row of an active block's
    rounds holds columns instead: t and the five floats as arrays with one
    entry per round, and the counters, which the block's rounds share, as
    ints (``engine._drive`` builds it for the stop rule, ``monotone`` and
    the metrics sink)."""

    t: int
    M: float
    m: float
    W: float
    V2: float
    err_max: float
    active_edges: int
    nonzero_msgs: int


def compute_metrics(
    x, avg0: float, t: int = 0, active_edges: int = 0, nonzero_msgs: int = 0
) -> MetricsRow:
    """Metrics of a value vector: max, min, spread, root-sum-square deviation
    from the vector's own mean, and max deviation from the initial average."""
    if len(x) == 0:
        raise ValueError("value vector must be non-empty")
    hi = max(x)
    lo = min(x)
    mean = fold_sum(x) / len(x)
    v2 = sqrt(fold_sum((v - mean) ** 2 for v in x))
    # v - avg0 rounds monotonically in v, so |v - avg0| peaks at hi or lo
    err = max(abs(hi - avg0), abs(lo - avg0))
    return MetricsRow(t, hi, lo, hi - lo, v2, err, active_edges, nonzero_msgs)


def block_metrics(values: np.ndarray, avg0: float) -> np.ndarray | None:
    """``compute_metrics`` of each row of a (k, n) array as the rows M, m,
    W, V2, err_max of a (5, k) array, bitwise, or None if a V2 is not
    finite: a row that is not finite, a squared deviation beyond the float
    range (``compute_metrics`` raises OverflowError) or a sum of squares
    that overflows then goes to ``compute_metrics`` row by row.

    Each expression is ``compute_metrics``' own on the same floats. Max and
    min are the first element that reaches the extreme, as ``max`` and
    ``min`` return it (a ufunc reduction may return 0.0 for [-0.0, 0.0]).
    The mean and the sum of squares are ``fold_rows``. A square is C
    ``pow`` of |d|, as Python's ``d ** 2`` computes it; ``d * d`` rounds
    differently on some doubles. err_max's two terms are absolute values,
    never -0.0, and finite or inf when V2 is finite, so ``np.maximum`` of
    them is their ``max``."""
    k, n = values.shape
    at = np.arange(0, k * n, n)
    hi = values.ravel()[at + np.argmax(values, axis=1)]
    lo = values.ravel()[at + np.argmin(values, axis=1)]
    mean = fold_rows(values) / n
    squares = np.float_power(np.abs(values - mean[:, None]), 2.0)
    v2 = np.sqrt(fold_rows(squares))
    if not np.isfinite(v2).all():
        return None
    err = np.maximum(np.abs(hi - avg0), np.abs(lo - avg0))
    return np.stack((hi, lo, hi - lo, v2, err))


@dataclass(frozen=True)
class EffectiveMatrix:
    """The symmetric update matrix implied by one round's record, together
    with the per-pair gap ratios it was built from."""

    t: int
    entries: np.ndarray
    w: dict[Edge, float]
    d_bounds: dict[Edge, float]


def reconstruct_matrix(record: "RoundRecord", params: ProtocolParams) -> EffectiveMatrix:
    """Rebuild the round's effective update matrix from recorded data only.

    For each mutually active pair, the gap ratio
    w = (x_in - x_out) / (x_j - x_i) scales the off-diagonal entry
    w / (4 D) (theorem variant) or w / (2 D) (practical variant); diagonals
    absorb the remainder so every row sums to 1. Inactive off-diagonals are 0.
    """
    n = record.graph.n
    entries = np.eye(n)
    w: dict[Edge, float] = {}
    x = record.x_pre
    for i, act in enumerate(record.active_sets):
        for j in act:
            est_in, est_out = record.estimates[i][j]
            gap = x[j] - x[i]
            if gap == 0.0:
                raise ValueError(
                    f"degenerate active pair ({i},{j}) at t={record.t}: equal "
                    f"endpoint values"
                )
            key = (i, j) if i < j else (j, i)
            wij = (est_in - est_out) / gap
            w.setdefault(key, wij)
            a = wij / (params.denom_scale * record.d_bounds[key])
            entries[i, j] = a
            entries[i, i] -= a
    return EffectiveMatrix(record.t, entries, w, dict(record.d_bounds))


def validate_matrix(mat: EffectiveMatrix, *, dominance: bool = True) -> list[str]:
    """Structural checks on a reconstructed matrix, each within MATRIX_TOL;
    violations are returned as data, never raised.

    Always: symmetry, rows and columns summing to 1, nonnegative
    off-diagonals, gap ratios within [2/3, 2], and active entries at least
    1/(8 D) for their pair bound. With ``dominance``, diagonals must stay at
    least 1/2. Each clause passes only when its comparison holds, so a nan
    fails it.
    """
    out: list[str] = []
    a = mat.entries
    n = a.shape[0]
    asym = float(np.max(np.abs(a - a.T))) if n else 0.0
    if not asym <= MATRIX_TOL:
        out.append(f"matrix-symmetry: max |A - A^T| = {asym:.3e} at t={mat.t}")
    rows = np.abs(a.sum(axis=1) - 1.0)
    if not float(rows.max(initial=0.0)) <= MATRIX_TOL:
        out.append(
            f"matrix-rows: row sums deviate from 1 by up to "
            f"{float(rows.max()):.3e} at t={mat.t}"
        )
    cols = np.abs(a.sum(axis=0) - 1.0)
    if not float(cols.max(initial=0.0)) <= MATRIX_TOL:
        out.append(
            f"matrix-cols: column sums deviate from 1 by up to "
            f"{float(cols.max()):.3e} at t={mat.t}"
        )
    off = a - np.diag(np.diag(a))
    if not float(off.min(initial=0.0)) >= -MATRIX_TOL:
        out.append(
            f"matrix-offdiag: negative off-diagonal {float(off.min()):.3e} "
            f"at t={mat.t}"
        )
    if dominance:
        for i in range(n):
            if not a[i, i] >= 0.5 - MATRIX_TOL:
                out.append(
                    f"matrix-dominance: diagonal dominance a_ii >= 1/2 fails "
                    f"at i={i} (a_ii={float(a[i, i])!r}) at t={mat.t}"
                )
    for (i, j), wij in mat.w.items():
        if not (2.0 / 3.0 - MATRIX_TOL <= wij <= 2.0 + MATRIX_TOL):
            out.append(
                f"w-range: w[{i},{j}] = {wij!r} outside [2/3, 2] at t={mat.t}"
            )
        d = mat.d_bounds[i, j]
        if not a[i, j] >= 1.0 / (8.0 * d) - MATRIX_TOL:
            out.append(
                f"matrix-lower-bound: a[{i},{j}] = {float(a[i, j])!r} below "
                f"1/(8*{d}) at t={mat.t}"
            )
    return out


def validate_round(
    record: "RoundRecord",
    prev_metrics: MetricsRow,
    params: ProtocolParams,
    *,
    row: MetricsRow,
    w0: float,
    xinf0: float,
    avg0: float,
) -> list[str]:
    """All per-round invariants; returns violations as data.

    (a) estimate mirroring across each pair, exact; (b) active-set symmetry,
    exact; (c) from ``prev_metrics`` to ``row``, the metrics of x_post: max
    nonincreasing / min nondecreasing / dispersion nonincreasing within
    1e-12; (d) inbound estimates within the initial sup-norm plus 1e-12;
    theorem variant only: (e) per-node movement at most (W(0)/2)/t^beta plus
    1e-12 and (f) full matrix structure including diagonal dominance. The
    practical variant runs (a)-(d) plus the matrix checks without the
    dominance claim. Last, for both: (g) the mean of x_post stays within
    1e-12 * max(1, xinf0) of the initial average avg0.
    """
    out: list[str] = []
    t = record.t
    est = record.estimates
    n = record.graph.n

    pairs: set[Edge] = set()
    for i in range(n):
        for j in est[i]:
            pairs.add((i, j) if i < j else (j, i))
    for i, j in sorted(pairs):
        side_i = est[i].get(j)
        side_j = est[j].get(i)
        if side_i is None or side_j is None:
            holder, missing = (j, i) if side_i is None else (i, j)
            out.append(
                f"estimate-mirror: node {missing} lacks the entry for pair "
                f"({i},{j}) held by node {holder} at t={t}"
            )
            continue
        in_i, out_i = side_i
        in_j, out_j = side_j
        if in_i != out_j or in_j != out_i:
            out.append(
                f"estimate-mirror: pair ({i},{j}) disagrees at t={t}: "
                f"({in_i!r},{out_i!r}) vs ({in_j!r},{out_j!r})"
            )

    sets = record.active_sets
    for i, act in enumerate(sets):
        for j in act:
            if i not in sets[j]:
                out.append(
                    f"active-set-symmetry: {j} in S({i}) but {i} not in S({j}) "
                    f"at t={t}"
                )

    if row.M > prev_metrics.M + MONOTONE_TOL:
        out.append(
            f"monotonicity: max rose {prev_metrics.M!r} -> {row.M!r} at t={t}"
        )
    if row.m < prev_metrics.m - MONOTONE_TOL:
        out.append(
            f"monotonicity: min fell {prev_metrics.m!r} -> {row.m!r} at t={t}"
        )
    if row.V2 > prev_metrics.V2 + MONOTONE_TOL:
        out.append(
            f"monotonicity: V2 rose {prev_metrics.V2!r} -> {row.V2!r} at t={t}"
        )

    bound = xinf0 + ESTIMATE_TOL
    for i in range(n):
        for j, (in_i, _) in est[i].items():
            if abs(in_i) > bound:
                out.append(
                    f"estimate-bound: |x_in[{i},{j}]| = {abs(in_i)!r} exceeds "
                    f"{xinf0!r} at t={t}"
                )

    if params.variant == "theorem":
        cap = 0.5 * w0 * t ** (-params.beta) + STEP_TOL
        for i, (pre, post) in enumerate(zip(record.x_pre, record.x_post)):
            if abs(post - pre) > cap:
                out.append(
                    f"step-bound: node {i} moved {abs(post - pre)!r} "
                    f"> (W(0)/2)/t^beta at t={t}"
                )

    if any(sets):
        try:
            mat = reconstruct_matrix(record, params)
        except ValueError as exc:
            out.append(f"matrix-degenerate: {exc}")
        else:
            out.extend(
                validate_matrix(mat, dominance=params.variant == "theorem")
            )

    drift = abs(fold_sum(record.x_post) / n - avg0)
    if drift > CONSERVATION_TOL * max(1.0, xinf0):
        out.append(f"conservation: mean drifted by {drift:.3e} at t={t}")
    return out


def monotone(prev_metrics: MetricsRow, row: MetricsRow):
    """True only if ``row`` passes ``validate_round``'s monotonicity clauses
    against ``prev_metrics``; a nan fails. Rows whose fields are columns
    (``engine._drive``'s blocks) give the verdicts as a column."""
    return (
        (row.M <= prev_metrics.M + MONOTONE_TOL)
        & (row.m >= prev_metrics.m - MONOTONE_TOL)
        & (row.V2 <= prev_metrics.V2 + MONOTONE_TOL)
    )


def screen_block(
    state: "EdgeState",
    params: ProtocolParams,
    x_pre: np.ndarray,
    x_post: np.ndarray,
    first: int,
    *,
    w0: float,
    xinf0: float,
    avg0: float,
) -> np.ndarray:
    """Per round first + r of k rounds on the snapshot and active mask of
    ``state``, with the values x_pre[r] before it and x_post[r] after it
    ((k, n) arrays): True only if ``validate_round`` finds no violation in
    that round once its row passes ``monotone``; False says nothing, and the
    caller then validates the round's record. A round ``engine.run_round``
    just ran is a block of one row: the values the caller held before the
    call and ``state.x``. The rounds of an active block share every other
    part of the state, as ``engine.run`` argues. Every clause is taken per
    row, so a round's verdict does not depend on the other rows.

    The state holds the estimate pairs ``est`` (a, b) per slot with their
    ``last_seen`` rounds; per edge of the snapshot its endpoints eu < ev,
    update denominator ``denom`` = c D (c = 2 or 4, pair bound D >= 1),
    estimate gap b - a and active flag ``act``; per node its degree ``deg``
    counting the self-loop. Each clause passes only when its comparison
    holds, so a nan declines the round: the maxima are ufunc reductions,
    which give nan if any input is nan. The screen computes under the
    caller's float error state (see ``engine.silent_float_errors``).

    (a) estimate mirroring and (b) active-set symmetry hold by construction
    of the edge state (one pair per edge; a nan estimate, the one way a
    mirror check can fail, fails (d) here); (c) is ``monotone``'s. These
    clauses are exact, the same IEEE operations on the same floats as the
    record path: (d) |estimate| over both sides of every slot live in the
    last round, last_seen >= first + k - 1 - H under a prune horizon H (an
    active block's static graph shows every slot in its last round); (e)
    the step bound, theorem variant, s^-beta as C ``pow``, as ``**``
    computes it; (g) conservation, each row summed by ``fold_rows``; and,
    per active edge, w = gap / (x_pre[ev] - x_pre[eu]) within [2/3, 2]. A
    degenerate pair (equal endpoints) makes w inf or nan and declines. The
    rest of the matrix structure follows. The matrix is symmetric:
    reconstruct_matrix's a_ji is (a - b) / (x_u - x_v) / denom, exactly
    a_ij. Its entries a = w / denom are positive and at least
    (2/3 - MATRIX_TOL) / (4 D) > 1/(8 D) + 1/(25 D), which clears
    1/(8 D) - MATRIX_TOL with room for any rounding.

    Row and column sums and the diagonals are sums in another order than
    reconstruct_matrix's. Node i's row and column hold its diagonal
    d_i = 1 - a_i1 - a_i2 - ... (left to right), one entry a_ij per active
    peer, and exact zeros, which add no rounding. With Delta the snapshot's
    largest degree counting the self-loop, each sum has at most Delta
    nonzero terms, exactly 1 in sum before rounding. With
    A_i = sum_j a_ij <= (Delta - 1) max a and g = Delta u / (1 - Delta u),
    u = 2^-53, each deviates from 1 by at most g (3 + g)(1 + A_i) (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, eq. 4.4, in any
    summation order), and 1 - s_i, with s_i the per-node ``np.bincount``
    of a here (bins r*n + node, per row), differs from d_i by at most
    2 g (1 + A_i). The clause 4 Delta u (1 + (Delta - 1) max a) <=
    MATRIX_TOL / 2, taken as max a <= (MATRIX_TOL / (8 Delta u) - 1) /
    (Delta - 1) (whose rounding moves the limit by a few u relative, far
    inside the gap between g (3 + g) and 4 Delta u), bounds both rounding
    gaps by half the tolerance: the rows and columns then pass, and s_i <=
    1/2 + MATRIX_TOL / 2 here gives d_i >= 1/2 - MATRIX_TOL there
    (dominance, theorem variant). On a complete graph Delta is n; it is
    computed once per snapshot's arrays.
    """
    k, n = x_post.shape
    horizon = params.prune_horizon
    est = state.est
    if horizon is not None:
        est = est[state.last_seen >= first + k - 1 - horizon]
    est_max = np.maximum.reduce(np.abs(est), axis=None, initial=0.0)
    if not est_max <= xinf0 + ESTIMATE_TOL:
        return np.zeros(k, dtype=bool)
    ok = abs(fold_rows(x_post) / n - avg0) <= CONSERVATION_TOL * max(1.0, xinf0)
    theorem = params.variant == "theorem"
    if theorem:
        damp = np.float_power(np.arange(first, first + k, dtype=float), -params.beta)
        step = np.maximum.reduce(np.abs(x_post - x_pre), axis=1)
        ok &= step <= 0.5 * w0 * damp + STEP_TOL
    arrays, act = state.arrays, state.act
    u, v = arrays.eu[act], arrays.ev[act]
    if not len(u):  # no active pair, no matrix to check
        return ok
    w = state.gap[act] / (x_pre[:, v] - x_pre[:, u])
    in_range = (w >= 2.0 / 3.0 - MATRIX_TOL) & (w <= 2.0 + MATRIX_TOL)
    ok &= np.logical_and.reduce(in_range, axis=1)
    a = w / arrays.denom[act]
    a_max = np.maximum.reduce(a, axis=1)
    delta = arrays.max_degree()  # >= 2: a pair is active
    ok &= a_max <= (MATRIX_TOL / 2 / (4.0 * delta * 2.0**-53) - 1.0) / (delta - 1)
    if theorem:
        bins = np.arange(0, k * n, n)[:, None]
        a = a.ravel()
        s = np.bincount((bins + u).ravel(), a, k * n)
        s += np.bincount((bins + v).ravel(), a, k * n)
        ok &= np.maximum.reduce(s.reshape(k, n), axis=1) <= 0.5 + MATRIX_TOL / 2
    return ok


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the convergence-time bound: network size, block length, the
    sup of the per-pair degree bounds, the protocol exponents, the target
    dispersion, and the initial spread/dispersion/sup-norm."""

    n: int
    B: int
    D: float
    alpha: float
    beta: float
    epsilon: float
    w0: float
    v20: float
    xinf0: float

    def __post_init__(self):
        for name in ("n", "B", "D", "alpha", "beta", "epsilon", "w0", "v20", "xinf0"):
            value = getattr(self, name)
            if not abs(value) <= float_info.max:  # nan, inf, or a huge integer
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.D < 1:
            raise ValueError(f"D must be >= 1, got {self.D}")
        if not (0.0 < self.alpha < self.beta < 1.0):
            raise ValueError(
                f"need 0 < alpha < beta < 1, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.w0 < 0 or self.v20 < 0 or self.xinf0 < 0:
            raise ValueError("w0, v20, xinf0 must be nonnegative")


def theorem_bound_terms(inp: BoundInputs) -> dict[str, float]:
    """The bound's additive pieces, individually labeled.

    The three transient terms carry the common 2^(1/(1-beta)) factor so that
    total = transient_estimate + transient_init + transient_mix
            + max(steady_log, steady_power).
    The log term uses the natural log and clamps to 0 once epsilon reaches the
    initial dispersion (and when the initial dispersion is 0). A term beyond
    the float range is inf, and so is the total.
    """
    n, B, D = inp.n, inp.B, inp.D
    alpha, beta, eps = inp.alpha, inp.beta, inp.epsilon
    n3 = _pow(n, 3)
    outer = _pow(2.0, 1.0 / (1.0 - beta))
    est_base = 32.0 * B + 8.0 * B * inp.w0
    est_base = float(ceil(est_base)) if isfinite(est_base) else inf
    t_est = (
        outer
        * _pow(2.0, 2.0 / (1.0 - alpha))
        * _pow(est_base, 1.0 / (beta - alpha))
    )
    init = _pow(32.0 * B * inp.xinf0, 2.0 / (1.0 - alpha))
    t_init = outer * init if init else 0.0  # inf * 0 would be nan
    t_mix = outer * (11.0 * B + _pow(300.0 * n3 * D * B, 1.0 / (1.0 - beta)))
    if inp.v20 > 0 and eps < inp.v20:
        s_log = _pow(150.0 * n3 * D * B * log(inp.v20 / eps), 1.0 / (1.0 - beta))
    else:
        s_log = 0.0
    s_pow = _pow(8.0 * _pow(n, 1.5) / eps, 1.0 / alpha)
    return {
        "transient-estimate": t_est,
        "transient-init": t_init,
        "transient-mix": t_mix,
        "steady-log": s_log,
        "steady-power": s_pow,
        "total": t_est + t_init + t_mix + max(s_log, s_pow),
    }


def _pow(base: float, exp: float) -> float:
    """base ** exp as a float, or inf where that exceeds the float range."""
    try:
        return float(base**exp)
    except OverflowError:
        return inf


def theorem_bound(inp: BoundInputs) -> float:
    """Rounds after which the dispersion V2 is guaranteed to stay below
    epsilon under the theorem variant on a core-connected sequence."""
    return theorem_bound_terms(inp)["total"]

