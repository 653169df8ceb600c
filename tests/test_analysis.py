import math
import random
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ternary_consensus.analysis import (
    BoundInputs,
    EffectiveMatrix,
    MetricsRow,
    block_metrics,
    compute_metrics,
    fold_rows,
    fold_sum,
    reconstruct_matrix,
    theorem_bound,
    theorem_bound_terms,
    validate_matrix,
    validate_round,
)
from ternary_consensus.engine import (
    InitSpec,
    RoundRecord,
    SimulationConfig,
    run,
    silent_float_errors,
)
from ternary_consensus.graphs import GraphSnapshot, make_sequence
from ternary_consensus.protocol import ProtocolParams

THEOREM = ProtocolParams(alpha=0.25, beta=0.5, variant="theorem")
PRACTICAL = ProtocolParams(alpha=0.9, beta=0.0, variant="practical")


from oracles import REFERENCE_INPUTS, REFERENCE_VALUE, bound_oracle, same_bits

# finite floats, with signed zeros, subnormals and values whose differences
# or squares leave the float range drawn often
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.0, -1.0)),
)
# doubles whose C pow square, Python's d ** 2, differs from d * d; the
# second one's difference reaches the V2 of the row [d, -d]
POW_NOT_PRODUCT = (
    float.fromhex("0x1.68c2492aa509cp-503"), float.fromhex("0x1.689450a1df324p-3"),
)


@st.composite
def value_blocks(draw):
    """1-6 rows of n = 1-8 values: rows of signed zeros, all -0.0 rows,
    and rows that tie +-0.0 at any position among magnitudes 1e+-300, the
    values above and their negations."""
    n = draw(st.integers(1, 8))
    value = st.one_of(EDGE_FLOATS, st.sampled_from(
        (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300)
        + POW_NOT_PRODUCT + tuple(-d for d in POW_NOT_PRODUCT)
    ))
    row = st.one_of(
        st.lists(value, min_size=n, max_size=n),
        st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n),
        st.just([-0.0] * n),
    )
    return draw(st.lists(row, min_size=1, max_size=6))


class TestComputeMetrics:
    def test_constant_vector(self):
        row = compute_metrics((0.3, 0.3, 0.3), avg0=0.1)
        assert (row.W, row.V2) == (0.0, 0.0)
        assert row.err_max == pytest.approx(0.2)

    def test_two_point(self):
        row = compute_metrics((0.0, 1.0), avg0=0.5)
        assert (row.M, row.m, row.W) == (1.0, 0.0, 1.0)
        assert row.V2 == pytest.approx(math.sqrt(0.5))
        assert row.err_max == 0.5

    def test_spike(self):
        row = compute_metrics((1.0, 0.0, 0.0, 0.0), avg0=0.25)
        assert row.V2 == pytest.approx(math.sqrt(0.75))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics((), avg0=0.0)

    def test_fold_sum_adds_left_to_right_from_zero(self):
        # exact or compensated sums (math.fsum, builtin sum from 3.12) give 1.0
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        assert fold_sum([-0.0]).hex() == "0x0.0p+0"

    # signed-zero rows (a fold from +0.0 never gives -0.0), a row a pairwise
    # sum rounds differently (np.sum gives 1.0000000000000014e16), and rows
    # whose sum is nan
    FOLD_ROWS = (
        [-0.0, -0.0, -0.0], [-0.0], [-0.0, 0.0, -0.0], [1e16, 1.0, -1e16],
        [1e16] + [1.0] * 15, [math.inf, -math.inf], [math.nan, 1.0],
    )

    def test_fold_rows_is_fold_sum_per_row(self):
        """fold_rows gives each row's fold_sum by bytes, as a (1, n) array
        and stacked with the rows of its length."""
        with silent_float_errors():  # inf + -inf
            for x in self.FOLD_ROWS:
                assert fold_rows(np.array([x]))[0].hex() == fold_sum(x).hex()
            for n in {len(x) for x in self.FOLD_ROWS}:
                rows = [x for x in self.FOLD_ROWS if len(x) == n]
                got = [v.hex() for v in fold_rows(np.array(rows)).tolist()]
                assert got == [fold_sum(x).hex() for x in rows]

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=200)
    def test_spread_dispersion_sandwich(self, xs):
        row = compute_metrics(xs, avg0=0.0)
        n = len(xs)
        assert row.W / 2 <= row.V2 + 1e-9
        assert row.V2 <= math.sqrt(n) * row.W + 1e-12 * max(1.0, abs(row.M))

    @given(
        st.lists(EDGE_FLOATS, min_size=1, max_size=12), EDGE_FLOATS,
        st.integers(0, 10**6), st.integers(0, 50), st.integers(0, 50),
    )
    @example([-0.0], 0.0, 1, 0, 0)  # max(hi - avg0, avg0 - lo) gives -0.0
    @settings(max_examples=500)
    def test_matches_the_generator_form_bitwise(self, xs, avg0, t, act, msgs):
        """err_max from the extremes alone gives every field of the form that
        scans every value bitwise, or the same OverflowError."""

        def oracle(x):
            hi, lo = max(x), min(x)
            mean = fold_sum(x) / len(x)
            v2 = math.sqrt(fold_sum((v - mean) ** 2 for v in x))
            err = max(abs(v - avg0) for v in x)
            return MetricsRow(t, hi, lo, hi - lo, v2, err, act, msgs)

        outcomes = []
        for fn in (oracle, lambda x: compute_metrics(x, avg0, t, act, msgs)):
            try:
                outcomes.append(fn(tuple(xs)))
            except OverflowError:
                outcomes.append(OverflowError)
        assert same_bits(*outcomes)

    @given(value_blocks(), EDGE_FLOATS)
    @example([[d, -d] for d in POW_NOT_PRODUCT], 0.0)
    @example([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]], -0.0)
    @example([[1e300, -1e300]], 0.0)  # the squares overflow
    @settings(max_examples=500)
    def test_block_metrics_are_compute_metrics_per_row(self, rows, avg0):
        """block_metrics' columns are each row's compute_metrics by bytes,
        or None when a row's V2 is not finite or its square overflows."""
        assert all(d**2 != d * d for d in POW_NOT_PRODUCT)
        want = []
        for x in rows:
            try:
                want.append(compute_metrics(tuple(x), avg0))
            except OverflowError:
                want.append(None)
        with silent_float_errors():  # as the run loop calls it
            cols = block_metrics(np.array(rows), avg0)
        if cols is None:
            assert any(row is None or not math.isfinite(row.V2) for row in want)
        else:
            got = [MetricsRow(0, *fields, 0, 0) for fields in cols.T.tolist()]
            assert same_bits(got, want)


def one_pair_record(w=1.0, d=2.0, t=16):
    """Record with a single mutually active pair (0,1), gap ratio w."""
    x_pre = (0.0, 1.0)
    diff = w * (x_pre[1] - x_pre[0])
    return RoundRecord(
        t=t,
        graph=GraphSnapshot(2, frozenset([(0, 1)])),
        messages=(),
        active_sets=(frozenset({1}), frozenset({0})),
        x_pre=x_pre,
        x_post=x_pre,
        d_bounds=MappingProxyType({(0, 1): d}),
        estimates=(
            MappingProxyType({1: (diff, 0.0)}), MappingProxyType({0: (0.0, diff)})
        ),
    )


class TestReconstruct:
    def test_no_active_pairs_gives_identity(self):
        rec = replace(one_pair_record(), active_sets=(frozenset(), frozenset()))
        mat = reconstruct_matrix(rec, THEOREM)
        assert np.array_equal(mat.entries, np.eye(2))
        assert mat.w == {}

    def test_single_pair_entries(self):
        mat = reconstruct_matrix(one_pair_record(w=1.0, d=2.0), THEOREM)
        assert mat.entries[0, 1] == pytest.approx(1 / 8)
        assert mat.entries[0, 0] == pytest.approx(7 / 8)
        assert mat.w[(0, 1)] == pytest.approx(1.0)

    def test_practical_uses_halved_denominator(self):
        mat = reconstruct_matrix(one_pair_record(w=1.0, d=2.0), PRACTICAL)
        assert mat.entries[0, 1] == pytest.approx(1 / 4)

    def test_rows_sum_to_one_on_live_run(self):
        cfg = SimulationConfig(
            make_sequence("static", 4, base="complete"), THEOREM,
            InitSpec("uniform_random", seed=12, lo=-5.0, hi=5.0), 300,
        )
        for rec in run(cfg, keep_records=True).records:
            mat = reconstruct_matrix(rec, THEOREM)
            assert np.allclose(mat.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_pair_rejected(self):
        rec = replace(one_pair_record(), x_pre=(1.0, 1.0))
        with pytest.raises(ValueError, match="degenerate"):
            reconstruct_matrix(rec, THEOREM)


class TestValidateMatrix:
    def make_mat(self, entries, w=None, d=None):
        return EffectiveMatrix(1, np.array(entries, dtype=float), w or {}, d or {})

    def test_identity_clean(self):
        assert validate_matrix(self.make_mat(np.eye(3))) == []

    def test_dominance_violation(self):
        mat = self.make_mat([[0.4, 0.6], [0.6, 0.4]])
        out = validate_matrix(mat)
        assert any("diagonal dominance" in v for v in out)
        assert validate_matrix(mat, dominance=False) == []

    def test_symmetry_violation(self):
        mat = self.make_mat([[0.9, 0.1], [0.2, 0.8]])
        out = validate_matrix(mat)
        assert any(v.startswith("matrix-symmetry") for v in out)

    def test_row_sum_violation(self):
        mat = self.make_mat([[0.9, 0.3], [0.3, 0.9]])
        out = validate_matrix(mat)
        assert any(v.startswith("matrix-rows") for v in out)

    def test_w_range_violation(self):
        mat = self.make_mat(
            [[0.9, 0.1], [0.1, 0.9]], w={(0, 1): 2.5}, d={(0, 1): 2.0}
        )
        out = validate_matrix(mat)
        assert any(v.startswith("w-range") for v in out)

    def test_lower_bound_violation(self):
        # entry below 1/(8*D) = 1/16 for its recorded pair bound
        mat = self.make_mat(
            [[0.99, 0.01], [0.01, 0.99]], w={(0, 1): 1.0}, d={(0, 1): 2.0}
        )
        out = validate_matrix(mat)
        assert any(v.startswith("matrix-lower-bound") for v in out)

    def test_nan_entries_fail_each_clause_that_reads_them(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        out = validate_matrix(self.make_mat(a), dominance=False)
        assert [v.split(":")[0] for v in out] == [
            "matrix-symmetry", "matrix-rows", "matrix-cols", "matrix-offdiag",
        ]
        # the same clauses again, plus the nan diagonal and the nan active entry
        a[2, 2] = np.nan
        out = validate_matrix(
            self.make_mat(a, w={(0, 1): 1.0}, d={(0, 1): 2.0}), dominance=True
        )
        assert [v.split(":")[0] for v in out] == [
            "matrix-symmetry", "matrix-rows", "matrix-cols", "matrix-offdiag",
            "matrix-dominance", "matrix-lower-bound",
        ]
        assert "a_ii=nan)" in out[4] and "= nan below" in out[5]

    def test_entries_print_as_plain_floats(self):
        mat = self.make_mat(
            [[0.4, 0.01], [0.01, 0.4]], w={(0, 1): 1.0}, d={(0, 1): 2.0}
        )
        out = [v for v in validate_matrix(mat) if "a_ii" in v or "below" in v]
        assert "(a_ii=0.4) at t=1" in out[0] and "a[0,1] = 0.01 below" in out[2]
        assert not any("np." in v for v in out)


class TestValidateRound:
    def checked_records(self, n=3, t_max=300):
        cfg = SimulationConfig(
            make_sequence("static", n, base="complete"), THEOREM,
            InitSpec("uniform_random", seed=5, lo=-5.0, hi=5.0), t_max,
        )
        result = run(cfg, keep_records=True)
        world_x0 = result.records[0].x_pre
        w0 = max(world_x0) - min(world_x0)
        xinf0 = max(abs(v) for v in world_x0)
        avg0 = fold_sum(world_x0) / len(world_x0)
        return result.records, w0, xinf0, avg0

    def test_clean_run_is_clean(self):
        records, w0, xinf0, avg0 = self.checked_records()
        prev = compute_metrics(records[0].x_pre, 0.0)
        for rec in records:
            out = validate_round(
                rec, prev, THEOREM, row=compute_metrics(rec.x_post, avg0, t=rec.t),
                w0=w0, xinf0=xinf0, avg0=avg0,
            )
            assert out == []
            prev = compute_metrics(rec.x_post, 0.0, t=rec.t)

    def test_tampered_estimate_trips_mirror(self):
        records, w0, xinf0, avg0 = self.checked_records()
        rec = records[10]
        prev = compute_metrics(rec.x_pre, 0.0)
        xin, xout = rec.estimates[0][1]
        node0 = MappingProxyType({**rec.estimates[0], 1: (xin + 1e-9, xout)})
        rec = replace(rec, estimates=(node0,) + rec.estimates[1:])
        out = validate_round(
            rec, prev, THEOREM, row=compute_metrics(rec.x_post, avg0, t=rec.t),
            w0=w0, xinf0=xinf0, avg0=avg0,
        )
        assert any(v.startswith("estimate-mirror") for v in out)

    def test_runaway_value_trips_monotonicity(self):
        records, w0, xinf0, avg0 = self.checked_records()
        rec = records[10]
        prev = compute_metrics(rec.x_pre, 0.0)
        bumped = list(rec.x_post)
        bumped[0] = prev.M + 0.5
        rec = replace(
            rec, x_post=tuple(bumped), active_sets=(frozenset(),) * len(rec.active_sets)
        )
        out = validate_round(
            rec, prev, THEOREM, row=compute_metrics(rec.x_post, avg0, t=rec.t),
            w0=w0, xinf0=xinf0, avg0=avg0,
        )
        assert any(v.startswith("monotonicity") for v in out)

    def test_asymmetric_active_set_detected(self):
        records, w0, xinf0, avg0 = self.checked_records()
        rec = next(r for r in records if any(r.active_sets))
        prev = compute_metrics(rec.x_pre, 0.0)
        i = next(k for k, s in enumerate(rec.active_sets) if s)
        j = next(iter(rec.active_sets[i]))
        sets = list(rec.active_sets)
        sets[j] = sets[j] - {i}
        rec = replace(rec, active_sets=tuple(sets))
        out = validate_round(
            rec, prev, THEOREM, row=compute_metrics(rec.x_post, avg0, t=rec.t),
            w0=w0, xinf0=xinf0, avg0=avg0,
        )
        assert any(v.startswith("active-set-symmetry") for v in out)

    def test_oversized_estimate_detected(self):
        records, w0, xinf0, avg0 = self.checked_records()
        rec = records[5]
        prev = compute_metrics(rec.x_pre, 0.0)
        est = rec.estimates
        node0 = MappingProxyType({**est[0], 1: (xinf0 + 1.0, est[0][1][1])})
        node1 = MappingProxyType({**est[1], 0: (est[1][0][0], xinf0 + 1.0)})
        rec = replace(
            rec, estimates=(node0, node1) + est[2:],
            active_sets=(frozenset(),) * len(rec.active_sets),
        )
        out = validate_round(
            rec, prev, THEOREM, row=compute_metrics(rec.x_post, avg0, t=rec.t),
            w0=w0, xinf0=xinf0, avg0=avg0,
        )
        assert any(v.startswith("estimate-bound") for v in out)

    def test_shifted_mean_trips_conservation(self):
        records, w0, xinf0, avg0 = self.checked_records()
        rec = records[10]
        prev = compute_metrics(rec.x_pre, 0.0)
        rec = replace(rec, x_post=tuple(v - 1e-9 for v in rec.x_post))
        out = validate_round(
            rec, prev, THEOREM, row=compute_metrics(rec.x_post, avg0, t=rec.t),
            w0=w0, xinf0=xinf0, avg0=avg0,
        )
        assert out and out[-1].startswith("conservation: mean drifted by")
        assert out[-1].endswith(f"at t={rec.t}")


class TestRecurrenceIdentity:
    def test_reconstructed_update_reproduces_engine(self):
        # x(t) = (1 - t^-beta) x(t-1) + t^-beta A x(t-1), per coordinate
        slow = ProtocolParams(alpha=0.5, beta=0.75, variant="theorem")
        configs = [
            (make_sequence("static", 3, base="complete"), THEOREM,
             InitSpec("uniform_random", seed=9, lo=-5.0, hi=5.0)),
            (make_sequence("static", 4, base="line"), THEOREM,
             InitSpec("uniform_random", seed=9, lo=-5.0, hi=5.0)),
            (make_sequence("static", 3, base="complete"), slow, InitSpec("spike")),
        ]
        for seq, params, init in configs:
            cfg = SimulationConfig(seq, params, init, 50)
            active_rounds = 0
            for rec in run(cfg, keep_records=True).records:
                mat = reconstruct_matrix(rec, params)
                tb = rec.t ** (-params.beta)
                x_pre = np.array(rec.x_pre)
                x_next = (1.0 - tb) * x_pre + tb * (mat.entries @ x_pre)
                assert np.allclose(x_next, rec.x_post, atol=1e-10, rtol=0)
                active_rounds += bool(any(rec.active_sets))
            assert active_rounds > 0


class TestBound:
    def test_reference_value(self):
        got = theorem_bound(BoundInputs(**REFERENCE_INPUTS))
        assert got == pytest.approx(REFERENCE_VALUE, rel=1e-10)

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(20240809)
        checked = 0
        while checked < 20:
            n = rng.randint(2, 60)
            B = rng.randint(1, 12)
            D = rng.uniform(1.0, 80.0)
            alpha = rng.uniform(0.05, 0.85)
            beta = rng.uniform(alpha + 0.02, 0.95)
            eps = 10 ** rng.uniform(-4, 1)
            w0 = rng.uniform(0.0, 10.0)
            v20 = rng.uniform(0.0, 10.0)
            xinf0 = rng.uniform(0.0, 10.0)
            if beta >= 1.0 or abs((32 * B + 8 * B * w0) % 1.0 - 0.5) > 0.499:
                continue  # keep the ceiling argument away from integers
            inp = BoundInputs(n, B, D, alpha, beta, eps, w0, v20, xinf0)
            want = float(bound_oracle(n, B, D, alpha, beta, eps, w0, v20, xinf0))
            got = theorem_bound(inp)
            assert got == pytest.approx(want, rel=1e-10)
            checked += 1

    def test_monotone_in_eps_and_n(self):
        rng = random.Random(7)
        for _ in range(100):
            B = rng.randint(1, 6)
            D = rng.uniform(1.0, 30.0)
            alpha = rng.uniform(0.1, 0.7)
            beta = rng.uniform(alpha + 0.05, 0.9)
            w0, v20, xinf0 = rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)
            n1, n2 = sorted((rng.randint(2, 40), rng.randint(2, 40)))
            e1, e2 = sorted((10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-3, 1)))
            base = dict(B=B, D=D, alpha=alpha, beta=beta, w0=w0, v20=v20,
                        xinf0=xinf0)
            t_small_eps = theorem_bound(BoundInputs(n=n1, epsilon=e1, **base))
            t_large_eps = theorem_bound(BoundInputs(n=n1, epsilon=e2, **base))
            assert t_small_eps >= t_large_eps
            t_small_n = theorem_bound(BoundInputs(n=n1, epsilon=e1, **base))
            t_large_n = theorem_bound(BoundInputs(n=n2, epsilon=e1, **base))
            assert t_large_n >= t_small_n

    def test_log_branch_clamps(self):
        inp = dict(REFERENCE_INPUTS)
        inp["epsilon"] = 2.0  # above v20
        terms = theorem_bound_terms(BoundInputs(**inp))
        assert terms["steady-log"] == 0.0
        inp["v20"] = 0.0
        terms = theorem_bound_terms(BoundInputs(**inp))
        assert terms["steady-log"] == 0.0
        assert terms["total"] > 0

    def test_exceeds_transient_floor(self):
        rng = random.Random(3)
        for _ in range(50):
            B = rng.randint(1, 20)
            inp = BoundInputs(
                n=rng.randint(2, 30), B=B, D=rng.uniform(1, 50),
                alpha=0.25, beta=0.5, epsilon=0.5,
                w0=rng.uniform(0, 3), v20=rng.uniform(0, 3),
                xinf0=rng.uniform(0, 3),
            )
            assert theorem_bound(inp) > 18 * B

    def test_domain_violations(self):
        good = dict(REFERENCE_INPUTS)
        for key, bad in [
            ("n", 1), ("B", 0), ("D", 0.5), ("epsilon", 0.0), ("w0", -1.0),
        ]:
            inp = dict(good)
            inp[key] = bad
            with pytest.raises(ValueError):
                BoundInputs(**inp)
        with pytest.raises(ValueError, match="alpha"):
            BoundInputs(**{**good, "alpha": 0.6, "beta": 0.5})

    def test_terms_compose_total(self):
        terms = theorem_bound_terms(BoundInputs(**REFERENCE_INPUTS))
        recomposed = (
            terms["transient-estimate"] + terms["transient-init"]
            + terms["transient-mix"]
            + max(terms["steady-log"], terms["steady-power"])
        )
        assert recomposed == terms["total"]


def test_eigenvalues_of_reconstructed_matrices():
    # diagonal dominance puts all eigenvalues of the update matrix in [0, 1]
    cfg = SimulationConfig(
        make_sequence("static", 5, base="complete"), THEOREM,
        InitSpec("uniform_random", seed=31, lo=-5.0, hi=5.0), 400,
    )
    for rec in run(cfg, keep_records=True).records:
        if not any(rec.active_sets):
            continue
        mat = reconstruct_matrix(rec, THEOREM)
        eig = np.linalg.eigvalsh(mat.entries)
        assert eig.min() >= -1e-9
        assert eig.max() <= 1.0 + 1e-9
