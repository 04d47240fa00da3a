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
    harmonic_spectrum,
    keylemma_assemble,
    olevskii_block,
    projection_blowup_witness,
    quasinormality_bounds,
    rank1_conjugation_witness,
    select_subsets,
    unconditional_constant,
    validate_plan,
    weight_matrix,
)
from schaudermat.olevskii import weight_exponents

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestHaarMatrix:
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
        np.testing.assert_allclose(weight_matrix(1, 0.9), np.diag([0.9, 0.9]))

    def test_k2(self):
        np.testing.assert_allclose(
            weight_matrix(2, 0.8), np.diag([0.64, 0.64, 0.8, 0.8])
        )

    def test_k3(self):
        np.testing.assert_allclose(
            weight_matrix(3, 0.8),
            np.diag([0.512, 0.512, 0.64, 0.64, 0.8, 0.8, 0.8, 0.8]),
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_multiset_of_entries(self, k):
        alpha = 0.75
        diag = sorted(np.diagonal(weight_matrix(k, alpha)))
        expected = sorted(
            [alpha ** k] * 2
            + [alpha ** j for j in range(1, k) for _ in range(2 ** (k - j))]
        )
        assert len(diag) == 2 ** k
        np.testing.assert_allclose(diag, expected)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            weight_matrix(2, 0.5)
        with pytest.raises(ValueError):
            weight_matrix(2, 1.0)


class TestOlevskiiBlock:
    def test_k1_is_scaled_haar(self):
        pair = olevskii_block(1, 0.9)
        np.testing.assert_allclose(pair.f, 0.9 * haar_matrix(1), atol=1e-15)
        lo, hi = quasinormality_bounds(pair.f)
        assert lo == pytest.approx(0.9) and hi == pytest.approx(0.9)

    def test_k2_quasinormality_ratio(self):
        lo, hi = quasinormality_bounds(olevskii_block(2, 0.8).f)
        assert hi / lo <= 2.0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pair_identity(self, k):
        pair = olevskii_block(k, 0.8)
        n = 2 ** k
        assert np.max(np.abs(pair.gstar @ pair.f - np.eye(n))) < 1e-10

    def test_traced_peak_memory(self):
        # F, G* and one product for the pair check: 3 x 8 MiB at k = 10.
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
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.001, 1.0)]
        )
        report = validate_plan(spectrum, plan, ratio_bound=10.0)
        assert not report.ok
        assert any("condition (a)" in v for v in report.violations)


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
        tilde = model.rearrangement.T @ model.diagonal_section @ model.rearrangement
        c1 = plan.c_bounds[0][0]
        np.testing.assert_allclose(
            tilde, model.scaling @ (weight_matrix(1, 0.8) / c1), atol=1e-12
        )
        # images of the ONB are T applied to orthonormal columns, so their
        # norms stay within the spectral window
        norms = np.linalg.norm(model.onb_images, axis=0)
        assert np.all(norms >= 0.9 - 1e-12) and np.all(norms <= 1.0 + 1e-12)

    def test_reversed_diagonal_factorization(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 3).plan
        model = keylemma_assemble(spectrum, plan)
        tilde = model.rearrangement.T @ model.diagonal_section @ model.rearrangement
        blocks = []
        for k in range(1, plan.levels + 1):
            c_k = plan.c_bounds[k - 1][0]
            blocks.append(weight_matrix(k, plan.alpha) / c_k)
        from schaudermat import direct_sum

        np.testing.assert_allclose(tilde, model.scaling @ direct_sum(blocks), atol=1e-12)

    def test_model_invariants(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 2).plan
        model = keylemma_assemble(spectrum, plan)
        n = model.basis_matrix.shape[0]
        u = model.block_unitary
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-9
        assert np.max(np.abs(model.basis_matrix @ model.inverse_matrix - np.eye(n))) < 1e-9
        np.testing.assert_allclose(
            model.onb_images,
            model.diagonal_section @ model.rearrangement @ u,
            atol=1e-12,
        )

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
        from schaudermat import direct_sum

        expected = direct_sum([olevskii_block(1, 0.8).f, olevskii_block(2, 0.8).f])
        np.testing.assert_allclose(model.basis_matrix, expected, atol=1e-14)

    def test_lead_block(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.9]))
        plan = OlevskiiPlan(
            levels=1, alpha=0.8, subsets=[(1, 2)], c_bounds=[(0.5, 1.0)]
        )
        model = keylemma_assemble(spectrum, plan, lead=2.0)
        assert model.basis_matrix.shape == (3, 3)
        assert model.basis_matrix[0, 0] == pytest.approx(2.0)
        assert model.inverse_matrix[0, 0] == pytest.approx(0.5)

    def test_fields_match_definitions_with_leftovers_and_lead(self):
        # Unsorted leftovers interleave with the subset indices of both levels.
        spectrum = SpectrumSequence(1.0 / np.arange(1, 30))
        plan = OlevskiiPlan(
            levels=2,
            alpha=0.8,
            subsets=[(3, 1), (7, 9, 5, 6)],
            c_bounds=[(0.5, 30.0), (0.5, 30.0)],
            leftovers=[(4, 2), (11, 8, 10)],
        )
        model = keylemma_assemble(spectrum, plan, lead=0.25)
        assert model.level_sizes == (1, 4, 7)
        r = model.rearrangement
        assert set(np.unique(r)) == {0.0, 1.0}
        np.testing.assert_array_equal(r.sum(axis=0), 1.0)
        np.testing.assert_array_equal(r.sum(axis=1), 1.0)
        t = np.diagonal(model.diagonal_section)
        np.testing.assert_array_equal(model.diagonal_section, np.diag(t))
        blocks = [[0.25]] + [
            sorted(spectrum.values[np.array(s + lo) - 1], reverse=True)
            for s, lo in zip(plan.subsets, plan.leftovers)
        ]
        np.testing.assert_array_equal(t, np.concatenate(blocks))
        np.testing.assert_array_equal(
            model.onb_images, model.diagonal_section @ r @ model.block_unitary
        )

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


class TestProjectionBlowup:
    def test_equal_pair(self):
        assert projection_blowup_witness([(1.0, 1.0)]) == pytest.approx([1.0])

    def test_blowup_sequence(self):
        scale = 2.0 * math.sqrt(2.0)
        pairs = [(1.0, 1.0 / (scale * (n + 1))) for n in range(1, 6)]
        norms = projection_blowup_witness(pairs)
        for n, value in zip(range(1, 6), norms):
            assert value > n

    def test_bounded_ratio_no_blowup(self):
        norms = projection_blowup_witness([(1.0, 0.6), (0.5, 0.3), (0.25, 0.15)])
        assert all(v < 2.0 for v in norms)

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            projection_blowup_witness([(1.0, 2.0)])


def test_weight_exponents_align_with_weight_matrix():
    for k in range(1, 6):
        exps = weight_exponents(k)
        diag = np.diagonal(weight_matrix(k, 0.8))
        np.testing.assert_allclose(diag, [0.8 ** j for j in exps])
