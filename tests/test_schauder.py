import itertools
import math
import tracemalloc

import numpy as np
import pytest

from schaudermat import (
    BasisPair,
    SearchBudget,
    SingularMatrixError,
    basis_constant,
    biorthogonal_inverse,
    condition_number,
    direct_sum,
    dual_basis_constant,
    haar_matrix,
    natural_projection,
    olevskii_block,
    quasinormality_bounds,
    riesz_diagnostic,
    summing_counterexample,
    transform_left,
    transform_right_diagonal,
    transform_right_permutation,
    unconditional_constant,
)
from schaudermat.schauder import (
    _BATCH,
    GREEDY_RTOL,
    MAX_EXACT_CUTOFF,
    PAIR_TOL,
    _best_mask,
    _masked_norms,
    _subset_batches,
    _upper_bound,
)


def brute_unconditional(pair):
    """Independent oracle: loop over every subset with numpy's 2-norm."""
    n = pair.size
    best = 0.0
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            p = np.zeros((n, n))
            for i in subset:
                p[i, i] = 1.0
            best = max(best, np.linalg.norm(pair.f @ p @ pair.gstar, 2))
    return best


def brute_basis(pair):
    n = pair.size
    best = 0.0
    for k in range(1, n + 1):
        p = np.diag(np.concatenate([np.ones(k), np.zeros(n - k)]))
        best = max(best, np.linalg.norm(pair.f @ p @ pair.gstar, 2))
    return best


def random_pair(rng, n, kappa=10.0):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    f = q1 @ np.diag(np.geomspace(kappa, 1.0, n)) @ q2
    return biorthogonal_inverse(f)


class TestBiorthogonalInverse:
    def test_identity(self):
        pair = biorthogonal_inverse(np.eye(4))
        np.testing.assert_allclose(pair.gstar, np.eye(4))

    def test_summing_two(self):
        pair = biorthogonal_inverse(np.array([[1.0, 1.0], [0.0, -1.0]]))
        np.testing.assert_allclose(pair.gstar, np.array([[1.0, 1.0], [0.0, -1.0]]), atol=1e-12)

    def test_haar_inverse_is_transpose(self):
        a2 = haar_matrix(2)
        pair = biorthogonal_inverse(a2)
        np.testing.assert_allclose(pair.gstar, a2.T, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            biorthogonal_inverse(np.ones((3, 3)))

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValueError):
            BasisPair(f=np.eye(3), gstar=2.0 * np.eye(3))

    def test_pair_check_tolerance_and_inputs_untouched(self):
        f, g = np.eye(3), np.eye(3)
        g[0, 1] = 0.9 * PAIR_TOL
        pair = BasisPair(f=f, gstar=g)
        assert pair.f is f and pair.gstar is g
        np.testing.assert_array_equal(f, np.eye(3))
        assert g[0, 1] == 0.9 * PAIR_TOL and g[0, 0] == 1.0
        for i, j in [(0, 1), (2, 2)]:
            g = np.eye(3)
            g[i, j] += PAIR_TOL
            with pytest.raises(ValueError):
                BasisPair(f=np.eye(3), gstar=g)

    def test_pair_keeps_the_checked_arrays(self):
        pair = BasisPair(f=[[2.0]], gstar=[[0.5]])
        assert pair.size == 1
        assert isinstance(pair.f, np.ndarray) and isinstance(pair.gstar, np.ndarray)
        pair = BasisPair(f=np.eye(2, dtype=int), gstar=np.eye(2, dtype=int))
        assert pair.f.dtype == np.float64 and pair.gstar.dtype == np.float64


class TestNaturalProjection:
    def test_full_set_is_identity(self):
        pair = summing_counterexample(5)
        q = natural_projection(pair, range(1, 6))
        np.testing.assert_allclose(q, np.eye(5), atol=1e-12)

    def test_identity_pair_single_index(self):
        pair = biorthogonal_inverse(np.eye(3))
        np.testing.assert_allclose(natural_projection(pair, [2]), np.diag([0.0, 1.0, 0.0]))

    def test_summing_rank_one(self):
        pair = summing_counterexample(2)
        q = natural_projection(pair, [1])
        np.testing.assert_allclose(q, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        pair = random_pair(rng, 8)
        for subset in ([1], [2, 5], [1, 3, 8], list(range(1, 9))):
            q = natural_projection(pair, subset)
            assert np.max(np.abs(q @ q - q)) < 1e-9

    def test_out_of_range(self):
        pair = biorthogonal_inverse(np.eye(3))
        with pytest.raises(ValueError):
            natural_projection(pair, [4])


class TestBasisConstant:
    def test_identity(self):
        est = basis_constant(biorthogonal_inverse(np.eye(6)))
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.witness == (1,)
        assert est.mode == "Exact"

    def test_unitary(self):
        est = basis_constant(biorthogonal_inverse(haar_matrix(2)))
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_summing_matches_oracle(self):
        pair = summing_counterexample(4)
        est = basis_constant(pair)
        assert est.value >= 2.0 - 1e-12  # prefix {1} gives sqrt(4)
        assert est.value == pytest.approx(brute_basis(pair), abs=1e-9)

    def test_witness_recomputable(self):
        pair = summing_counterexample(6)
        est = basis_constant(pair)
        q = natural_projection(pair, est.witness)
        assert np.linalg.norm(q, 2) == pytest.approx(est.value, abs=1e-9)

    def test_olevskii_blocks_beyond_enumeration(self):
        # the level trend of the weighted Haar blocks up to N = 512, where
        # prefixes longer than N/2 are solved through their suffixes
        trend = [1.0, 1.025, 1.0697, 1.1247, 1.1840, 1.2442, 1.3033, 1.3603, 1.4147]
        for k, want in enumerate(trend, start=1):
            pair = olevskii_block(k, 0.8)
            est = basis_constant(pair)
            assert est.value == pytest.approx(want, abs=5e-5)
            assert est.witness == tuple(range(1, len(est.witness) + 1))
            q = natural_projection(pair, est.witness)
            assert np.linalg.norm(q, 2) == pytest.approx(est.value, rel=1e-12)


class TestUnconditionalConstant:
    def test_identity_exact(self):
        est = unconditional_constant(biorthogonal_inverse(np.eye(5)))
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.mode == "Exact"

    def test_unitary_exact_one(self):
        est = unconditional_constant(biorthogonal_inverse(haar_matrix(3)))
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(70)
        for pair in [random_pair(rng, n) for n in (1, 2, 5, 8)] + [cholesky_fallback_pair()]:
            est = unconditional_constant(pair)
            assert est.mode == "Exact"
            assert est.evaluations == 2 ** pair.size
            assert est.value == pytest.approx(brute_unconditional(pair), rel=1e-12)
            # the enumerated member of each complementary pair lacks index N
            assert pair.size not in est.witness or len(est.witness) == pair.size

    def test_olevskii_block_matches_brute_force(self):
        pair = olevskii_block(2, 0.8)
        est = unconditional_constant(pair)
        assert est.mode == "Exact"
        assert est.evaluations == 16
        assert est.value == pytest.approx(brute_unconditional(pair), abs=1e-12)
        assert est.value > 1.0

    def test_dominates_basis_constant(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            pair = random_pair(rng, 9)
            assert (
                unconditional_constant(pair).value
                >= basis_constant(pair).value - 1e-9
            )

    def test_estimator_reaches_exact_on_small_sections(self):
        rng = np.random.default_rng(23)
        pair = random_pair(rng, 10)
        exact = unconditional_constant(pair)
        approx = unconditional_constant(pair, budget=SearchBudget(exact_cutoff=4))
        assert approx.mode == "LowerBoundWitness"
        assert approx.value == pytest.approx(exact.value, abs=1e-9)

    def test_witness_recomputable(self):
        pair = olevskii_block(3, 0.8)
        est = unconditional_constant(pair)
        q = natural_projection(pair, est.witness)
        assert np.linalg.norm(q, 2) == pytest.approx(est.value, abs=1e-9)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(24)
        pair = random_pair(rng, 18)
        budget = SearchBudget(samples=2000, seed=42)
        a = unconditional_constant(pair, budget=budget)
        b = unconditional_constant(pair, budget=budget)
        assert a.value == b.value and a.witness == b.witness


class TestDualBasisConstant:
    def test_identity(self):
        assert dual_basis_constant(biorthogonal_inverse(np.eye(4))) == pytest.approx(1.0)

    def test_unitary(self):
        assert dual_basis_constant(biorthogonal_inverse(haar_matrix(2))) == pytest.approx(1.0)

    def test_transposition_cross_check(self):
        pair = summing_counterexample(16)
        transposed = BasisPair(f=pair.gstar.T, gstar=pair.f.T)
        assert dual_basis_constant(pair) == pytest.approx(
            basis_constant(transposed).value, abs=1e-9
        )

    def test_equals_primal_on_sections(self):
        # on finite sections ||(F P G*)^T|| = ||F P G*||, so the dual constant
        # coincides with the primal one
        rng = np.random.default_rng(25)
        pair = random_pair(rng, 7)
        assert dual_basis_constant(pair) == pytest.approx(
            basis_constant(pair).value, abs=1e-9
        )


class TestQuasinormality:
    def test_identity(self):
        assert quasinormality_bounds(np.eye(4)) == (1.0, 1.0)

    def test_harmonic_diagonal(self):
        n = 6
        lo, hi = quasinormality_bounds(np.diag(1.0 / np.arange(1, n + 1)))
        assert lo == pytest.approx(1.0 / n)
        assert hi == pytest.approx(1.0)

    def test_olevskii_level_one(self):
        lo, hi = quasinormality_bounds(olevskii_block(1, 0.9).f)
        assert lo == pytest.approx(0.9, abs=1e-12)
        assert hi == pytest.approx(0.9, abs=1e-12)


class TestRieszDiagnostic:
    def test_identity_consistent(self):
        report = riesz_diagnostic(np.eye(8), [2, 4, 8])
        assert report.verdict == "RieszConsistent"
        assert all(c == pytest.approx(1.0) for c in report.condition_numbers)

    def test_growing_but_below_threshold(self):
        d = np.diag(1.0 / np.arange(1, 65))
        report = riesz_diagnostic(d, [8, 32, 64])
        assert report.condition_numbers == pytest.approx((8.0, 32.0, 64.0))
        assert report.verdict == "Inconclusive"

    def test_divergent(self):
        d = np.diag(1.0 / np.arange(1, 4097))
        report = riesz_diagnostic(d, [64, 1024, 4096])
        assert report.verdict == "NotRiesz"

    def test_vector_matches_dense_diagonal(self):
        v = 1.0 / np.arange(1, 129)
        for sizes in ([8, 32, 128], [2, 4, 8]):
            assert riesz_diagnostic(v, sizes) == riesz_diagnostic(np.diag(v), sizes)

    def test_invalid_sections(self):
        with pytest.raises(ValueError):
            riesz_diagnostic(np.eye(4), [2, 8])
        with pytest.raises(ValueError):
            riesz_diagnostic(np.ones(4), [2, 8])


class TestSummingCounterexample:
    def test_n2(self):
        pair = summing_counterexample(2)
        np.testing.assert_array_equal(pair.f, [[1.0, 1.0], [0.0, -1.0]])
        np.testing.assert_array_equal(pair.gstar, [[1.0, 1.0], [0.0, -1.0]])

    def test_n3(self):
        pair = summing_counterexample(3)
        np.testing.assert_array_equal(
            pair.f, [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]
        )
        np.testing.assert_array_equal(
            pair.gstar, [[1.0, 1.0, 1.0], [0.0, -1.0, -1.0], [0.0, 0.0, -1.0]]
        )

    def test_exact_integer_inverse(self):
        pair = summing_counterexample(9)
        np.testing.assert_array_equal(pair.f @ pair.gstar, np.eye(9))
        np.testing.assert_array_equal(pair.gstar @ pair.f, np.eye(9))

    @pytest.mark.parametrize("n", [0, 4097])
    def test_size_outside_range_rejected(self, n):
        with pytest.raises(ValueError, match=f"n must lie in 1..4096, got {n}"):
            summing_counterexample(n)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_first_projection_norm(self, n):
        pair = summing_counterexample(n)
        q1 = natural_projection(pair, [1])
        assert np.linalg.norm(q1, 2) == pytest.approx(math.sqrt(n), rel=1e-12)


class TestTransforms:
    def test_left_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="left factor must be 4x4, got 3x3"):
            transform_left(np.eye(3), summing_counterexample(4))

    def test_left_identity_noop(self):
        pair = summing_counterexample(4)
        out = transform_left(np.eye(4), pair)
        np.testing.assert_allclose(out.f, pair.f)
        np.testing.assert_allclose(out.gstar, pair.gstar)

    def test_left_scalar_preserves_constants(self):
        pair = summing_counterexample(5)
        out = transform_left(2.0 * np.eye(5), pair)
        assert basis_constant(out).value == pytest.approx(
            basis_constant(pair).value, abs=1e-10
        )

    def test_left_condition_number_inequality(self):
        rng = np.random.default_rng(31)
        pair = summing_counterexample(8)
        base = basis_constant(pair).value
        for _ in range(5):
            q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            x = q1 @ np.diag(np.geomspace(10.0, 1.0, 8)) @ q2
            new = basis_constant(transform_left(x, pair)).value
            assert new <= condition_number(x) * base + 1e-6

    def test_right_diagonal_keeps_projections(self):
        rng = np.random.default_rng(32)
        pair = random_pair(rng, 6)
        out = transform_right_diagonal(pair, [2.0, -1.0 / 3.0, 5.0, -0.25, 1.5, 7.0])
        for subset in ([1], [2, 4], [1, 3, 5, 6]):
            np.testing.assert_allclose(
                natural_projection(out, subset),
                natural_projection(pair, subset),
                atol=1e-12,
            )

    def test_right_diagonal_constant_invariant(self):
        pair = summing_counterexample(4)
        out = transform_right_diagonal(pair, [1.0, -1.0, 1.0, -1.0])
        assert unconditional_constant(out).value == pytest.approx(
            unconditional_constant(pair).value, abs=1e-12
        )

    def test_right_diagonal_rejects_zero(self):
        pair = summing_counterexample(3)
        with pytest.raises(ValueError):
            transform_right_diagonal(pair, [1.0, 0.0, 2.0])

    def test_permutation_identity_noop(self):
        pair = summing_counterexample(4)
        out = transform_right_permutation(pair, [1, 2, 3, 4])
        np.testing.assert_allclose(out.f, pair.f)

    def test_permutation_unconditional_invariant(self):
        rng = np.random.default_rng(33)
        pair = random_pair(rng, 8)
        perm = list(rng.permutation(8) + 1)
        out = transform_right_permutation(pair, perm)
        assert unconditional_constant(out).value == pytest.approx(
            unconditional_constant(pair).value, abs=1e-9
        )

    def test_reordering_changes_basis_constant(self):
        # conditionality is order-sensitive: the interleaving permutation
        # shifts the prefix maximum while the unconditional constant stays put
        pair = summing_counterexample(6)
        out = transform_right_permutation(pair, [4, 3, 6, 5, 1, 2])
        assert abs(basis_constant(out).value - basis_constant(pair).value) > 1e-6
        assert unconditional_constant(out).value == pytest.approx(
            unconditional_constant(pair).value, abs=1e-9
        )


def svd_reference(f, gstar, masks):
    """||F diag(mask) G*|| for each mask, by one numpy SVD each."""
    return np.array([np.linalg.norm((f * m) @ gstar, 2) for m in masks])


def all_subset_masks(n):
    return np.array(list(itertools.product([0.0, 1.0], repeat=n)))


def assert_kernel_matches(f, gstar, masks):
    got = _masked_norms(f, gstar, masks)
    want = svd_reference(f, gstar, masks)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def rotated(rng, pair):
    q, _ = np.linalg.qr(rng.standard_normal((pair.size, pair.size)))
    return BasisPair(f=q @ pair.f, gstar=pair.gstar @ q.T)


def max_rank_one_norm(pair):
    """max_i ||f_i|| ||g_i||, the scale of the kernel's rounding error."""
    return float(np.max(np.linalg.norm(pair.f, axis=0) * np.linalg.norm(pair.gstar, axis=1)))


class TestMaskedNormKernel:
    def test_random_empty_and_full_masks(self):
        rng = np.random.default_rng(41)
        pair = random_pair(rng, 12)
        masks = rng.integers(0, 2, size=(300, 12)).astype(float)
        masks[0] = 0.0
        masks[1] = 1.0
        got = _masked_norms(pair.f, pair.gstar, masks)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1.0, rel=1e-12)
        assert_kernel_matches(pair.f, pair.gstar, masks)

    def test_rotated_olevskii_block_sum(self):
        rng = np.random.default_rng(42)
        blocks = [olevskii_block(k, 0.8) for k in range(1, 5)]
        pair = rotated(rng, BasisPair(
            f=direct_sum([b.f for b in blocks]), gstar=direct_sum([b.gstar for b in blocks])
        ))
        masks = rng.integers(0, 2, size=(500, pair.size)).astype(float)
        assert_kernel_matches(pair.f, pair.gstar, masks)

    def test_column_scaled_ill_conditioned_pair(self):
        # right diagonal scaling leaves every projection unchanged, and the
        # Gram form is invariant under it, though kappa(F) ~ 1e6
        rng = np.random.default_rng(43)
        pair = transform_right_diagonal(random_pair(rng, 14), np.geomspace(1.0, 1e6, 14))
        assert condition_number(pair.f) > 1e5
        masks = rng.integers(0, 2, size=(300, 14)).astype(float)
        assert_kernel_matches(pair.f, pair.gstar, masks)

    def test_rotated_ill_conditioned_pair(self):
        # kappa(F) ~ 1e6 from rotations: small norms lose accuracy as
        # eps * (s / norm)^2, but the largest norm, which the searches use,
        # agrees with the SVD
        rng = np.random.default_rng(44)
        pair = random_pair(rng, 10, kappa=1e6)
        masks = all_subset_masks(10)
        got = _masked_norms(pair.f, pair.gstar, masks)
        want = svd_reference(pair.f, pair.gstar, masks)
        assert np.max(got) == pytest.approx(np.max(want), rel=1e-12)
        s = max_rank_one_norm(pair)
        nonempty = want > 0.0
        err = np.abs(got - want)[nonempty] / want[nonempty]
        assert np.all(err <= 1e-12 * np.maximum(1.0, (s / want[nonempty]) ** 2))
        exact = unconditional_constant(pair)
        assert exact.value == pytest.approx(brute_unconditional(pair), rel=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 9, 12])
    def test_every_mask_size_matches_svd(self, n):
        # all 2^n subsets: sizes on both sides of n/2, solved on D or on its
        # complement, and the empty and full sets (the kappa = 1e6 and
        # Cholesky fallback pairs run on all their subsets in this class)
        pair = random_pair(np.random.default_rng(60 + n), n)
        assert_kernel_matches(pair.f, pair.gstar, all_subset_masks(n))

    def test_solves_on_the_smaller_side(self, monkeypatch):
        # one eigenvalue problem per size group |D| = 1..9, of size
        # min(|D|, 9 - |D|), except the full set's
        dims = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: dims.append(m.shape[-1]) or eigvalsh(m))
        pair = random_pair(np.random.default_rng(65), 9)
        _masked_norms(pair.f, pair.gstar, all_subset_masks(9))
        assert sorted(dims) == [1, 1, 2, 2, 3, 3, 4, 4, 9]

    def test_cholesky_failure_falls_back_to_svd(self):
        # columns 1 and 2 are parallel to 1e-10: Gf[D,D] is singular in
        # floating point, yet the pair is invertible
        f = np.eye(4)
        f[0, 1] = 1.0
        f[1, 1] = 1e-10
        pair = biorthogonal_inverse(f)
        masks = all_subset_masks(4)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(pair.f[:, :2].T @ pair.f[:, :2])
        assert_kernel_matches(pair.f, pair.gstar, masks)


def cholesky_fallback_pair():
    # columns 1 and 2 are parallel to 1e-10: Gf[D,D] is singular in
    # floating point, yet the pair is invertible
    f = np.eye(4)
    f[0, 1] = 1.0
    f[1, 1] = 1e-10
    return biorthogonal_inverse(f)


def block_sum(levels, identity=0):
    """The direct sum of the level 1..levels Olevskii block pairs, plus I_identity."""
    blocks = [olevskii_block(k, 0.8) for k in range(1, levels + 1)]
    eye = [np.eye(identity)] if identity else []
    return BasisPair(f=direct_sum([b.f for b in blocks] + eye),
                     gstar=direct_sum([b.gstar for b in blocks] + eye))


def seeded_sections(seed):
    """Rotated N = 64 and N = 128 block sections, built as the dense-constants
    benchmark workload builds them from its seed."""
    rng = np.random.default_rng(seed)
    out = []
    for n, pair in [(16, None), (64, block_sum(5, 2)), (128, block_sum(6, 2))]:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        if pair is not None:
            out.append(biorthogonal_inverse((q * np.sign(np.diag(r))) @ pair.f))
    return out


class TestScreenedArgmax:
    """_best_mask prunes by a bound but must return the argmax of _masked_norms."""

    @staticmethod
    def assert_same_argmax(pair, masks):
        norms = _masked_norms(pair.f, pair.gstar, masks)
        i = int(np.argmax(norms))
        for batches in ([masks], np.array_split(masks, min(3, len(masks)))):
            value, mask = _best_mask(pair.f, pair.gstar, batches)
            assert value == norms[i]
            np.testing.assert_array_equal(mask, masks[i])

    def test_random_pairs(self):
        rng = np.random.default_rng(48)
        for n in (6, 12, 20):
            pair = random_pair(rng, n)
            self.assert_same_argmax(pair, rng.integers(0, 2, size=(700, n)).astype(float))
        self.assert_same_argmax(random_pair(rng, 10), all_subset_masks(10))

    def test_orthogonal_ties(self):
        # every norm is 1 up to rounding, so the screen can prune almost nothing
        rng = np.random.default_rng(49)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        self.assert_same_argmax(BasisPair(f=q, gstar=q.T), all_subset_masks(10))

    def test_block_diagonal_demo_pair_with_exact_ties(self):
        rng = np.random.default_rng(50)
        pair = block_sum(5)
        masks = rng.integers(0, 2, size=(3000, pair.size)).astype(float)
        flips = np.repeat(masks[:1], pair.size, axis=0)
        flips[np.arange(pair.size), np.arange(pair.size)] = 1.0 - np.diag(flips)
        self.assert_same_argmax(pair, np.vstack([masks, flips, masks[::-1]]))

    def test_rotated_ill_conditioned_pair(self):
        rng = np.random.default_rng(44)
        self.assert_same_argmax(random_pair(rng, 10, kappa=1e6), all_subset_masks(10))

    def test_cholesky_fallback_pair(self):
        self.assert_same_argmax(cholesky_fallback_pair(), all_subset_masks(4))

    def test_empty_mask(self):
        rng = np.random.default_rng(51)
        pair = random_pair(rng, 8)
        masks = rng.integers(0, 2, size=(50, 8)).astype(float)
        masks[0] = 0.0
        self.assert_same_argmax(pair, masks)
        self.assert_same_argmax(pair, masks[:1])

    def test_floor_above_every_norm_returns_no_mask(self):
        rng = np.random.default_rng(52)
        pair = random_pair(rng, 9)
        masks = all_subset_masks(9)
        top = float(np.max(_masked_norms(pair.f, pair.gstar, masks)))
        assert _best_mask(pair.f, pair.gstar, [masks], floor=top) == (top, None)
        value, mask = _best_mask(pair.f, pair.gstar, [masks], floor=np.nextafter(top, 0.0))
        assert value == top and mask is not None

    def test_screen_prunes_most_eigen_solves(self, monkeypatch):
        # guards against the screen degrading into a full evaluation: 247 of
        # the 20 064 prefixes and samples of the unstopped search reach
        # eigvalsh, 2 363 with the bound 1 + ||E^2||_F^(1/2)
        pair, _ = seeded_sections(101)
        batches = list(search_batches(pair.size, SearchBudget(seed=101)))
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(len(m)) or eigvalsh(m))
        _best_mask(pair.f, pair.gstar, batches)
        assert sum(map(len, batches)) == 20064
        assert sum(solved) < 0.05 * 20064

    def test_traced_peak_memory(self):
        # Limits in MiB under tracemalloc with numpy 2.4; allow 10% more.
        # N = 128 keeps its 16.7 from when all masks were stacked at once: the
        # batch-at-a-time draw peaks at 17.2 there (a batch of 2 000 samples,
        # no longer shared with the prefixes). N = 64 (20 000 samples) peaks
        # at 7.6, against 19.6 with every sample drawn up front.
        pair64, pair128 = seeded_sections(101)
        for pair, budget, limit in [(pair128, SearchBudget(samples=2000, seed=101), 16.7),
                                    (pair64, SearchBudget(seed=101), 7.6)]:
            tracemalloc.start()
            try:
                unconditional_constant(pair, budget)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / 2 ** 20 <= 1.1 * limit


class TestReportedValues:
    @staticmethod
    def attained(pair, est):
        return np.linalg.norm(natural_projection(pair, est.witness), 2)

    def test_values_are_attained_by_witness(self):
        rng = np.random.default_rng(45)
        pair = rotated(rng, olevskii_block(3, 0.8))
        big = random_pair(rng, 20, kappa=100.0)
        estimates = [
            (pair, basis_constant(pair)),
            (pair, unconditional_constant(pair)),
            (big, basis_constant(big)),
            (big, unconditional_constant(big, budget=SearchBudget(samples=500, seed=3))),
        ]
        assert [e.mode for _, e in estimates] == ["Exact", "Exact", "Exact", "LowerBoundWitness"]
        for p, est in estimates:
            assert est.value == pytest.approx(self.attained(p, est), rel=1e-15, abs=0.0)

    def test_exact_counts_every_subset(self):
        # one kernel batch holds a member of each of the 2^11 complementary
        # pairs; with their complements they are every subset, once
        batches = list(_subset_batches(12))
        assert_one_member_per_complementary_pair(np.vstack(batches), 12)
        rng = np.random.default_rng(46)
        pair = random_pair(rng, 12)
        est = unconditional_constant(pair)
        assert est.mode == "Exact"
        assert est.evaluations == 2 ** 12
        assert est.value == pytest.approx(brute_unconditional(pair), rel=1e-12)

    def test_complementary_projections_sum_to_identity(self):
        rng = np.random.default_rng(47)
        pair = random_pair(rng, 9)
        for _ in range(10):
            d = [int(i) for i in np.flatnonzero(rng.integers(0, 2, 9)) + 1]
            rest = [i for i in range(1, 10) if i not in d]
            total = natural_projection(pair, d) + natural_projection(pair, rest)
            np.testing.assert_allclose(total, np.eye(9), atol=1e-12)

    def test_exact_cutoff_limit(self):
        SearchBudget(exact_cutoff=MAX_EXACT_CUTOFF)
        with pytest.raises(ValueError, match="exact cutoff"):
            SearchBudget(exact_cutoff=MAX_EXACT_CUTOFF + 1)


def assert_one_member_per_complementary_pair(masks, n):
    both = np.vstack([masks, 1.0 - masks])
    assert len(both) == 2 ** n
    np.testing.assert_array_equal(np.unique(both, axis=0), all_subset_masks(n))
    assert not masks[:-1, -1].any() and masks[-1].all()  # the full set comes last


@pytest.mark.parametrize("n, sizes", [(1, [1]), (2, [2]), (12, [2048]), (13, [2048, 2048])])
def test_subset_batches_cover_each_complementary_pair_once(n, sizes):
    batches = list(_subset_batches(n))
    assert [len(b) for b in batches] == sizes
    assert_one_member_per_complementary_pair(np.vstack(batches), n)


def with_dual_block(alpha):
    """block_sum(5) plus the dual of the level-3 block of *alpha*, whose
    column-balanced norms are those of that block swapped. At alpha = 0.8
    and 0.83 this lifts the upper bound above the constant 1.4255, to 1.4815
    and 1.4336, so the search can never reach it."""
    b3 = olevskii_block(3, alpha)
    pair = block_sum(5)
    return BasisPair(f=direct_sum([pair.f, b3.gstar.T]), gstar=direct_sum([pair.gstar, b3.f.T]))


def test_greedy_stops_on_rounding_only_gains():
    # Greedy ends on its own here, and many flips tie in exact arithmetic; a
    # flip that wins by a few ulps must not buy another round of n norms
    # (70 prefixes + 100 samples + two rounds of 70; 450 without the margin).
    pair = with_dual_block(0.8)
    est = unconditional_constant(pair, SearchBudget(samples=100, seed=0))
    assert est.mode == "LowerBoundWitness"
    assert est.value * (1 + GREEDY_RTOL) < _upper_bound(pair.f, pair.gstar)
    assert est.evaluations == 310
    assert est.value == pytest.approx(1.425503125, rel=1e-12)


def search_batches(n, budget):
    """The sampled search's mask stacks: the n prefixes, then budget.samples
    seeded random masks, _BATCH at a time."""
    rng = np.random.default_rng(budget.seed)
    yield np.tril(np.ones((n, n)))
    for start in range(0, budget.samples, _BATCH):
        yield rng.integers(0, 2, size=(min(_BATCH, budget.samples - start), n)).astype(float)


class TestUpperBound:
    """_upper_bound is (kappa + 1/kappa) / 2 for the column-balanced kappa."""

    def test_at_least_the_exact_constant(self):
        rng = np.random.default_rng(70)
        pairs = [random_pair(rng, n, kappa=k) for n in range(1, 11)
                 for k in (1.5, 10.0, 100.0, 1e3, 1e6)]
        pairs += [random_pair(np.random.default_rng(44), 10, kappa=1e6), cholesky_fallback_pair()]
        for pair in pairs:
            exact = unconditional_constant(pair)
            assert exact.mode == "Exact"
            assert _upper_bound(pair.f, pair.gstar) >= exact.value * (1 - 1e-12)

    def test_invariant_under_diagonal_and_orthogonal_transforms(self):
        rng = np.random.default_rng(71)
        pair = random_pair(rng, 12, kappa=100.0)
        bound = _upper_bound(pair.f, pair.gstar)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        d = rng.choice([-1.0, 1.0], 12) * np.geomspace(0.1, 10.0, 12)
        for out in (transform_right_diagonal(pair, d), transform_left(q, pair)):
            assert _upper_bound(out.f, out.gstar) == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.75, 0.8, 0.95])
    def test_olevskii_block_closed_form(self, alpha):
        # kappa(T A^T) = alpha^(1 - k), and the balancing leaves it there
        for k in range(1, 10):
            pair = olevskii_block(k, alpha)
            assert _upper_bound(pair.f, pair.gstar) == pytest.approx(
                math.cosh((k - 1) * math.log(1 / alpha)), rel=1e-12)


class TestSearchStop:
    """The sampled search ends once its best reaches the upper bound."""

    @pytest.mark.parametrize("name", ["L4", "L5", "N64"])
    def test_stopped_search_keeps_the_value(self, name):
        budget = SearchBudget(seed=101)
        pair = {"L4": block_sum(4), "L5": block_sum(5), "N64": seeded_sections(101)[0]}[name]
        est = unconditional_constant(pair, budget)
        unstopped, _ = _best_mask(pair.f, pair.gstar, search_batches(pair.size, budget))
        assert est.value == pytest.approx(unstopped, rel=GREEDY_RTOL)
        assert est.evaluations <= pair.size + _BATCH

    @pytest.mark.parametrize("pair, seed, rounds, witness", [
        (random_pair(np.random.default_rng(54), 24, kappa=100.0), 54, 8,
         (1, 2, 3, 4, 6, 13, 17, 19, 20, 21)),
        (with_dual_block(0.83), 0, 1,
         (5, 7, 11, 12, 13, 17, 25, 29, 33, 37, 38, 39, 42, 44, 45, 46, 47, 50, 52, 54, 55, 58,
          60, 61, 66, 67, 69)),
    ], ids=["random", "dual-block"])
    def test_unreached_bound_keeps_the_full_search(self, pair, seed, rounds, witness):
        # the evaluations and witness of the search without the stop: n
        # prefixes, 3 000 samples in two batches and the greedy rounds; the
        # dual-block pair ends 0.56 % below its bound
        est = unconditional_constant(pair, SearchBudget(samples=3000, seed=seed))
        assert est.value * (1 + GREEDY_RTOL) < _upper_bound(pair.f, pair.gstar)
        assert est.evaluations == pair.size + 3000 + rounds * pair.size
        assert est.witness == witness
