import math
import tracemalloc

import numpy as np
import pytest

from schaudermat import (
    OlevskiiPlan,
    PlanValidationError,
    SpectrumSequence,
    condition_number,
    haar_matrix,
    harmonic_demo,
    harmonic_spectrum,
    keylemma_assemble,
    olevskii_block,
    quasinormality_bounds,
    rank1_conjugation_witness,
    select_subsets,
    unconditional_constant,
    validate_plan,
    weight_vector,
)
from schaudermat.olevskii import weight_exponents

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def block_diagonal(blocks):
    """The direct sum of square blocks, as a dense reference."""
    starts = np.cumsum([0] + [len(b) for b in blocks])
    out = np.zeros((starts[-1], starts[-1]))
    for b, start in zip(blocks, starts):
        out[start:start + len(b), start:start + len(b)] = b
    return out


def dense_factors(model):
    """R, U and C = T R U of a key-lemma model, formed densely from its vectors."""
    blocks = []
    for k, size in enumerate(model.level_sizes, start=1):
        blocks += [haar_matrix(k).T, np.eye(size - 2 ** k)]
    u = block_diagonal(blocks)
    order = model.rearrangement
    return np.eye(len(order))[order], u, model.diagonal_section[:, None] * u[order]


def haar_reference(k):
    """A_k column by column: each level-s column is +h then -h on its dyadic support."""
    n = 2 ** k
    a = np.zeros((n, n))
    a[:, 0] = 2.0 ** (-k / 2.0)
    for s in range(k):
        for v in range(1, 2 ** s + 1):
            j = 2 ** s + v  # 1-based column
            lo = (v - 1) * 2 ** (k - s)
            mid = (2 * v - 1) * 2 ** (k - s - 1)
            hi = v * 2 ** (k - s)
            a[lo:mid, j - 1] = 2.0 ** ((s - k) / 2.0)
            a[mid:hi, j - 1] = -(2.0 ** ((s - k) / 2.0))
    return a


class TestHaarMatrix:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_per_column_reference(self, k):
        a, ref = haar_matrix(k), haar_reference(k)
        assert np.array_equal(a, ref)
        assert np.array_equal(np.signbit(a), np.signbit(ref))

    def test_k1(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(haar_matrix(1), expected, atol=1e-15)

    def test_k2(self):
        expected = np.array(
            [
                [0.5, 0.5, INV_SQRT2, 0.0],
                [0.5, 0.5, -INV_SQRT2, 0.0],
                [0.5, -0.5, 0.0, INV_SQRT2],
                [0.5, -0.5, 0.0, -INV_SQRT2],
            ]
        )
        np.testing.assert_allclose(haar_matrix(2), expected, atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_orthogonal(self, k):
        a = haar_matrix(k)
        assert np.max(np.abs(a.T @ a - np.eye(2 ** k))) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            haar_matrix(0)
        with pytest.raises(ValueError):
            haar_matrix(13)


class TestWeightMatrix:
    def test_k1(self):
        np.testing.assert_allclose(weight_vector(1, 0.9), [0.9, 0.9])

    def test_k2(self):
        np.testing.assert_allclose(weight_vector(2, 0.8), [0.64, 0.64, 0.8, 0.8])

    def test_k3(self):
        np.testing.assert_allclose(
            weight_vector(3, 0.8), [0.512, 0.512, 0.64, 0.64, 0.8, 0.8, 0.8, 0.8]
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_multiset_of_entries(self, k):
        alpha = 0.75
        diag = sorted(weight_vector(k, alpha))
        expected = sorted(
            [alpha ** k] * 2
            + [alpha ** j for j in range(1, k) for _ in range(2 ** (k - j))]
        )
        assert len(diag) == 2 ** k
        np.testing.assert_allclose(diag, expected)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            weight_vector(2, 0.5)
        with pytest.raises(ValueError):
            weight_vector(2, 1.0)


class TestOlevskiiBlock:
    def test_k1_is_scaled_haar(self):
        pair = olevskii_block(1, 0.9)
        np.testing.assert_allclose(pair.f, 0.9 * haar_matrix(1), atol=1e-15)
        lo, hi = quasinormality_bounds(pair.f)
        assert lo == pytest.approx(0.9) and hi == pytest.approx(0.9)

    @pytest.mark.parametrize("alpha", [0.5, INV_SQRT2, 1.0, 1.5])
    def test_alpha_outside_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            olevskii_block(2, alpha)

    def test_k2_quasinormality_ratio(self):
        lo, hi = quasinormality_bounds(olevskii_block(2, 0.8).f)
        assert hi / lo <= 2.0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pair_identity(self, k):
        pair = olevskii_block(k, 0.8)
        n = 2 ** k
        assert np.max(np.abs(pair.gstar @ pair.f - np.eye(n))) < 1e-10

    def test_traced_peak_memory(self):
        # F, G* and the pair check's term and cell arrays: 22.1 MiB at k = 10.
        tracemalloc.start()
        try:
            olevskii_block(10, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= 34.0

    def test_constants_increase_with_level(self):
        values = [
            unconditional_constant(olevskii_block(k, 0.8)).value for k in (2, 3, 4)
        ]
        assert values[0] + 1e-6 < values[1] < values[2] - 1e-6

    def test_quasinormality_ratio_bounded_across_levels(self):
        ratios = []
        for k in range(1, 7):
            lo, hi = quasinormality_bounds(olevskii_block(k, 0.8).f)
            ratios.append(hi / lo)
        assert max(ratios) < 2.0


class TestValidatePlan:
    def test_valid_single_level(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.5, 1.0)]
        )
        report = validate_plan(spectrum, plan)
        assert report.ok and not report.violations

    def test_upper_bound_violation(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.5, 0.85)]
        )
        report = validate_plan(spectrum, plan)
        assert not report.ok
        assert any("index 2" in v for v in report.violations)

    def test_overlap_violation(self):
        spectrum = SpectrumSequence(1.0 / np.arange(1, 20))
        plan = OlevskiiPlan(
            levels=2,
            alpha=0.8,
            subsets=[(3, 4), (4, 5, 6, 7)],
            c_bounds=[(2.0, 4.0), (4.0, 8.0)],
        )
        report = validate_plan(spectrum, plan)
        assert not report.ok
        assert any("condition (c)" in v for v in report.violations)

    def test_ratio_bound_violation(self):
        # d/c = 150 > RATIO_BOUND, while alpha/lambda = 0.8 and 0.889 meet condition (b)
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.01, 1.5)]
        )
        report = validate_plan(spectrum, plan)
        assert not report.ok
        assert report.violations == ("condition (a): max d_k/c_k = 150 exceeds bound 100",)

    def test_ratio_bound_slack(self):
        # condition (a) admits d/c up to RATIO_BOUND (1 + PLAN_RTOL), the slack of (b)
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        for ratio, ok in [(100.0, True), (100.0 * (1 + 5e-10), True), (100.0 * (1 + 2e-9), False)]:
            plan = OlevskiiPlan(levels=1, alpha=0.8, subsets=[(1, 2)],
                                c_bounds=[(0.01, 0.01 * ratio)])
            assert validate_plan(spectrum, plan).ok is ok


class TestKeylemmaAssemble:
    def test_single_level_hand_check(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.5, 1.0)]
        )
        model = keylemma_assemble(spectrum, plan)
        # F = T_(1,alpha) A_1^T is 2x2
        np.testing.assert_allclose(model.basis_matrix, 0.8 * haar_matrix(1), atol=1e-14)
        # reversed diagonal factors through the scaling and the weight block
        r, _, c = dense_factors(model)
        tilde = r.T @ np.diag(model.diagonal_section) @ r
        c1 = plan.c_bounds[0][0]
        np.testing.assert_allclose(
            tilde, np.diag(model.scaling) @ (np.diag(weight_vector(1, 0.8)) / c1), atol=1e-12
        )
        # images of the ONB are T applied to orthonormal columns, so their
        # norms stay within the spectral window
        norms = np.linalg.norm(c, axis=0)
        assert np.all(norms >= 0.9 - 1e-12) and np.all(norms <= 1.0 + 1e-12)

    def test_reversed_diagonal_factorization(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 3).plan
        model = keylemma_assemble(spectrum, plan)
        r, _, _ = dense_factors(model)
        tilde = r.T @ np.diag(model.diagonal_section) @ r
        blocks = []
        for k in range(1, plan.levels + 1):
            c_k = plan.c_bounds[k - 1][0]
            blocks.append(np.diag(weight_vector(k, plan.alpha)) / c_k)
        np.testing.assert_allclose(tilde, np.diag(model.scaling) @ block_diagonal(blocks),
                                   atol=1e-12)

    def test_scaling_takes_the_block_weights(self):
        # X_k = c_k lambda / alpha^w(p) divides by the very weights of T_(k,alpha).
        spectrum = harmonic_spectrum(100000)
        plan = select_subsets(spectrum, 0.8, 2.0, 6).plan
        model = keylemma_assemble(spectrum, plan)
        expected = np.concatenate([
            c_k * spectrum.values[np.array(subset) - 1] / weight_vector(k, plan.alpha)
            for k, (subset, (c_k, _)) in enumerate(zip(plan.subsets, plan.c_bounds), start=1)])
        assert model.level_sizes == tuple(2 ** k for k in range(1, 7))
        np.testing.assert_array_equal(model.scaling, expected)

    def test_model_invariants(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 2).plan
        model = keylemma_assemble(spectrum, plan)
        n = model.basis_matrix.shape[0]
        r, u, c = dense_factors(model)
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-9
        assert np.max(np.abs(model.basis_matrix @ model.inverse_matrix - np.eye(n))) < 1e-9
        np.testing.assert_allclose(c, np.diag(model.diagonal_section) @ r @ u, atol=1e-12)

    def test_scaling_condition_bound(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 3).plan
        model = keylemma_assemble(spectrum, plan)
        ratio = max(d / c for c, d in plan.c_bounds)
        assert condition_number(model.scaling) <= max(1.0, ratio) ** 2 + 1e-6

    def test_leftovers_passthrough(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.9, 0.7, 0.6]))
        plan = OlevskiiPlan(
            levels=1,
            alpha=0.8,
            subsets=[(1, 2)],
            c_bounds=[(0.5, 1.0)],
            leftovers=[(3, 4)],
        )
        model = keylemma_assemble(spectrum, plan)
        assert model.basis_matrix.shape == (4, 4)
        np.testing.assert_allclose(model.basis_matrix[2:, 2:], np.diag([0.7, 0.6]))
        np.testing.assert_allclose(
            model.inverse_matrix[2:, 2:], np.diag([1.0 / 0.7, 1.0 / 0.6])
        )

    def test_no_leftovers_gives_pure_blocks(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 2).plan
        model = keylemma_assemble(spectrum, plan)
        expected = block_diagonal([olevskii_block(1, 0.8).f, olevskii_block(2, 0.8).f])
        np.testing.assert_allclose(model.basis_matrix, expected, atol=1e-14)

    def test_fields_match_definitions_with_leftovers(self):
        # Unsorted leftovers interleave with the subset indices of both levels.
        spectrum = SpectrumSequence(1.0 / np.arange(1, 30))
        plan = OlevskiiPlan(
            levels=2,
            alpha=0.8,
            subsets=[(3, 1), (7, 9, 5, 6)],
            c_bounds=[(0.5, 30.0), (0.5, 30.0)],
            leftovers=[(4, 2), (11, 8, 10)],
        )
        model = keylemma_assemble(spectrum, plan)
        assert model.level_sizes == (4, 7)
        # Only F and G* are n x n; the diagonals and the rearrangement are vectors.
        order, t = model.rearrangement, model.diagonal_section
        assert order.shape == t.shape == model.scaling.shape == (11,)
        assert order.dtype.kind == "i" and t.dtype == model.scaling.dtype == np.float64
        np.testing.assert_array_equal(np.sort(order), np.arange(11))
        blocks = [
            sorted(spectrum.values[np.array(s + lo) - 1], reverse=True)
            for s, lo in zip(plan.subsets, plan.leftovers)
        ]
        np.testing.assert_array_equal(t, np.concatenate(blocks))
        r, u, c = dense_factors(model)
        np.testing.assert_array_equal(c, np.diag(t) @ r @ u)

    def test_traced_peak_memory(self):
        # F and G* take 2 n^2 doubles, and the top block pair, (n/2)^2 each,
        # with its temporaries about 0.9 n^2 more. Dense X, U, R, C and T
        # fields took the peak to 7.5 n^2.
        spectrum = harmonic_spectrum(10 ** 6)
        plan = select_subsets(spectrum, 0.8, 2.0, 8).plan
        tracemalloc.start()
        try:
            model = keylemma_assemble(spectrum, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = model.basis_matrix.shape[0]
        assert n == 510 and peak <= 4 * n * n * 8

    def test_demo_unitary_defect_matches_dense(self):
        u = block_diagonal([haar_matrix(k).T for k in range(1, 7)])
        dense = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
        assert harmonic_demo(6, 0.8, 2.0).unitary_defect == dense

    def test_invalid_plan_rejected(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.5, 0.85)]
        )
        with pytest.raises(PlanValidationError):
            keylemma_assemble(spectrum, plan)


class TestRank1Witness:
    def test_degenerate_spectrum(self):
        p, value, bound = rank1_conjugation_witness(1.0, 1.0, 0.0)
        assert value == pytest.approx(1.0)
        assert bound == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))

    def test_closed_form_ratio_ten(self):
        _, value, bound = rank1_conjugation_witness(0.1, 1.0, 0.0)
        assert value == pytest.approx(math.sqrt(0.505 * 50.5), abs=1e-12)
        assert bound == pytest.approx(10.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
        assert value >= bound

    def test_closed_form_ratio_two(self):
        _, value, bound = rank1_conjugation_witness(1.0, 2.0, 0.0)
        assert value == pytest.approx(1.25, abs=1e-12)
        assert bound == pytest.approx(2.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)

    def test_projection_is_rank_one(self):
        p, _, _ = rank1_conjugation_witness(0.5, 2.0, 0.1)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_norm(self):
        lam1, lam2, delta = 0.3, 1.7, 0.05
        p, value, _ = rank1_conjugation_witness(lam1, lam2, delta)
        a = np.diag([lam1 + delta, lam2 - delta])
        direct = np.linalg.norm(a @ p @ np.linalg.inv(a), 2)
        assert value == pytest.approx(direct, rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            rank1_conjugation_witness(2.0, 1.0, 0.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            rank1_conjugation_witness(1.0, 2.0, 0.6)

    def test_admitted_delta_below_the_bound(self):
        # delta = 4.9 < (10 - 0.1)/2 is admitted, but r = (10 - 4.9)/(0.1 + 4.9) = 1.02
        # gives the value (r + 1/r)/2 = 1.000196, far below the bound 35.355.
        with pytest.raises(ValueError, match=r"witness norm 1\.0001\d* falls below the bound 35\.355"):
            rank1_conjugation_witness(0.1, 10.0, 4.9)


class TestProjectionBlowup:
    """Spectrum pairs (lambda_small, lambda_large) of growing ratio blow the
    rank-1 conjugation witness up: no uniform unconditional constant survives."""

    def test_blowup_sequence(self):
        scale = 2.0 * math.sqrt(2.0)
        for n in range(1, 6):
            _, value, _ = rank1_conjugation_witness(1.0 / (scale * (n + 1)), 1.0)
            assert value > n

    def test_bounded_ratio_no_blowup(self):
        for lam_small, lam_big in [(0.6, 1.0), (0.3, 0.5), (0.15, 0.25)]:
            _, value, _ = rank1_conjugation_witness(lam_small, lam_big)
            assert value < 2.0


def test_weight_exponents_align_with_weight_matrix():
    for k in range(1, 6):
        exps = weight_exponents(k)
        np.testing.assert_array_equal(weight_vector(k, 0.8), [0.8 ** j for j in exps])
