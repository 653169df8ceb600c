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

if TYPE_CHECKING:  # circular-import guard: records are duck-typed here
    from .engine import RoundRecord

MONOTONE_TOL = 1e-12
CONSERVATION_TOL = 1e-12
ESTIMATE_TOL = 1e-12
STEP_TOL = 1e-12
MATRIX_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class MetricsRow:
    """One round's observables: extremes, dispersion, distance to the initial
    average, and message/activity counters."""

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
    mean = sum(x) / len(x)
    v2 = sqrt(sum((v - mean) ** 2 for v in x))
    err = max(abs(v - avg0) for v in x)
    return MetricsRow(t, hi, lo, hi - lo, v2, err, active_edges, nonzero_msgs)


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
    denom_scale = 2.0 if params.variant == "practical" else 4.0
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
            a = wij / (denom_scale * record.d_bounds[key])
            entries[i, j] = a
            entries[i, i] -= a
    return EffectiveMatrix(record.t, entries, w, dict(record.d_bounds))


def validate_matrix(
    mat: EffectiveMatrix,
    d_sup: float | None = None,
    *,
    dominance: bool = True,
    tol: float = MATRIX_TOL,
) -> list[str]:
    """Structural checks on a reconstructed matrix; violations are returned as
    data, never raised.

    Always: symmetry, rows and columns summing to 1, nonnegative
    off-diagonals, gap ratios within [2/3, 2], and active entries at least
    1/(8 D) for their pair bound (falling back to d_sup when given). With
    ``dominance``, diagonals must stay at least 1/2.
    """
    out: list[str] = []
    a = mat.entries
    n = a.shape[0]
    asym = float(np.max(np.abs(a - a.T))) if n else 0.0
    if asym > tol:
        out.append(f"matrix-symmetry: max |A - A^T| = {asym:.3e} at t={mat.t}")
    rows = np.abs(a.sum(axis=1) - 1.0)
    if float(rows.max(initial=0.0)) > tol:
        out.append(
            f"matrix-rows: row sums deviate from 1 by up to "
            f"{float(rows.max()):.3e} at t={mat.t}"
        )
    cols = np.abs(a.sum(axis=0) - 1.0)
    if float(cols.max(initial=0.0)) > tol:
        out.append(
            f"matrix-cols: column sums deviate from 1 by up to "
            f"{float(cols.max()):.3e} at t={mat.t}"
        )
    off = a - np.diag(np.diag(a))
    if float(off.min(initial=0.0)) < -tol:
        out.append(
            f"matrix-offdiag: negative off-diagonal {float(off.min()):.3e} "
            f"at t={mat.t}"
        )
    if dominance:
        for i in range(n):
            if a[i, i] < 0.5 - tol:
                out.append(
                    f"matrix-dominance: diagonal dominance a_ii >= 1/2 fails "
                    f"at i={i} (a_ii={a[i, i]!r}) at t={mat.t}"
                )
    for (i, j), wij in mat.w.items():
        if not (2.0 / 3.0 - tol <= wij <= 2.0 + tol):
            out.append(
                f"w-range: w[{i},{j}] = {wij!r} outside [2/3, 2] at t={mat.t}"
            )
        d = mat.d_bounds.get((i, j), d_sup)
        if d is not None and a[i, j] < 1.0 / (8.0 * d) - tol:
            out.append(
                f"matrix-lower-bound: a[{i},{j}] = {a[i, j]!r} below "
                f"1/(8*{d}) at t={mat.t}"
            )
    return out


def validate_round(
    record: "RoundRecord",
    prev_metrics: MetricsRow,
    params: ProtocolParams,
    *,
    w0: float,
    xinf0: float,
    avg0: float,
) -> list[str]:
    """All per-round invariants; returns violations as data.

    (a) estimate mirroring across each pair, exact; (b) active-set symmetry,
    exact; (c) max nonincreasing / min nondecreasing / dispersion
    nonincreasing within 1e-12; (d) inbound estimates within the initial
    sup-norm plus 1e-12; theorem variant only: (e) per-node movement at most
    (W(0)/2)/t^beta plus 1e-12 and (f) full matrix structure including
    diagonal dominance. The practical variant runs (a)-(d) plus the matrix
    checks without the dominance claim. Last, for both: (g) the mean of
    x_post stays within 1e-12 * max(1, xinf0) of the initial average avg0.
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

    row = compute_metrics(record.x_post, 0.0, t=t)
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

    drift = abs(sum(record.x_post) / n - avg0)
    if drift > CONSERVATION_TOL * max(1.0, xinf0):
        out.append(f"conservation: mean drifted by {drift:.3e} at t={t}")
    return out


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


def exceeds_decay_envelope(t: int, v2: float, n: int, alpha: float) -> bool:
    """Diagnostic: is the dispersion still above the steady-state decay
    envelope 8 n^1.5 / t^alpha? Annotation only, never an asserted invariant."""
    return v2 >= 8.0 * n**1.5 / t**alpha
