import math

import numpy as np
import pytest

from schaudermat import (
    SingularMatrixError,
    condition_number,
    direct_sum,
    invert,
    permutation_matrix,
    polar_decompose,
    spectral_norm,
)


def random_well_conditioned(rng, n, kappa=10.0):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(kappa, 1.0, n)
    return q1 @ np.diag(s) @ q2


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_bidiagonal_golden_ratio(self):
        # largest eigenvalue of M M^T is (3+sqrt(5))/2, so the norm is the
        # golden ratio
        m = np.array([[1.0, 1.0], [0.0, -1.0]])
        expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_transpose_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.standard_normal((20, 20))
            assert spectral_norm(m) == pytest.approx(spectral_norm(m.T), rel=1e-10)

    def test_submultiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal((15, 20))
            y = rng.standard_normal((20, 10))
            assert spectral_norm(x @ y) <= spectral_norm(x) * spectral_norm(y) + 1e-9

    def test_power_iteration_path(self):
        # a large diagonal takes the diagonal fast path; compare against its
        # known norm
        d = np.ones(520)
        d[0] = 2.0
        assert spectral_norm(np.diag(d)) == pytest.approx(2.0, rel=1e-10)

    def test_power_iteration_dense(self):
        # a large dense matrix goes through the full SVD
        rng = np.random.default_rng(9)
        m = rng.standard_normal((530, 530))
        exact = float(np.linalg.svd(m, compute_uv=False)[0])
        assert spectral_norm(m) == pytest.approx(exact, rel=1e-8)

    def test_large_rank_one_update(self):
        # I + 10 u u^T with u = (e1 - e2)/sqrt(2): u is orthogonal to the
        # all-ones vector, so a power iteration started there returns 1
        n = 600
        u = np.zeros(n)
        u[:2] = [1.0, -1.0]
        u /= math.sqrt(2.0)
        m = np.eye(n) + 10.0 * np.outer(u, u)
        assert spectral_norm(m) == pytest.approx(11.0, rel=1e-12)

    def test_off_diagonal_entries_are_seen(self):
        # zero diagonal entries must not hide off-diagonal ones
        assert spectral_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) == pytest.approx(3.0)
        assert spectral_norm(np.diag([0.0, -2.0])) == 2.0


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(invert(np.eye(4)), np.eye(4))

    def test_self_inverse(self):
        m = np.array([[1.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(invert(m), m, atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_well_conditioned(rng, 30, kappa=1e4)
            assert np.max(np.abs(m @ invert(m) - np.eye(30))) < 1e-10


class TestConditionNumber:
    def test_unitary(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
        assert condition_number(q) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert condition_number(np.diag([1.0, 0.25])) == pytest.approx(4.0)

    def test_harmonic_diagonal(self):
        n = 50
        d = np.diag(1.0 / np.arange(1, n + 1))
        assert condition_number(d) == pytest.approx(float(n))

    def test_infinity_flag(self):
        assert math.isinf(condition_number(np.array([[1.0, 0.0], [0.0, 0.0]])))


class TestDirectSum:
    def test_scalars(self):
        np.testing.assert_allclose(
            direct_sum([np.array([[2.0]]), np.array([[3.0]])]), np.diag([2.0, 3.0])
        )

    def test_identities(self):
        np.testing.assert_allclose(direct_sum([np.eye(2), np.eye(3)]), np.eye(5))

    def test_haar_and_weights(self):
        a1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        w = np.diag([0.9, 0.9])
        out = direct_sum([a1, w])
        assert out.shape == (4, 4)
        np.testing.assert_allclose(out[:2, :2], a1)
        np.testing.assert_allclose(out[2:, 2:], w)
        assert np.count_nonzero(out[:2, 2:]) == 0
        assert np.count_nonzero(out[2:, :2]) == 0

    def test_norm_is_block_max(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            blocks = [rng.standard_normal((4, 4)) for _ in range(3)]
            expected = max(spectral_norm(b) for b in blocks)
            assert spectral_norm(direct_sum(blocks)) == pytest.approx(expected, abs=1e-10)


class TestPermutationMatrix:
    def test_identity(self):
        np.testing.assert_allclose(permutation_matrix([1, 2, 3]), np.eye(3))

    def test_swap(self):
        np.testing.assert_allclose(
            permutation_matrix([2, 1]), np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_cycle_square_is_inverse(self):
        cycle = permutation_matrix([2, 3, 1])
        inverse_cycle = permutation_matrix([3, 1, 2])
        np.testing.assert_allclose(cycle @ cycle, inverse_cycle)

    def test_maps_basis_vectors(self):
        perm = [3, 1, 2]
        u = permutation_matrix(perm)
        for n, image in enumerate(perm, start=1):
            e = np.zeros(3)
            e[image - 1] = 1.0
            expected = np.zeros(3)
            expected[n - 1] = 1.0
            np.testing.assert_allclose(u @ e, expected)

    def test_orthogonal(self):
        u = permutation_matrix([4, 2, 1, 3])
        np.testing.assert_allclose(u @ u.T, np.eye(4))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permutation_matrix([1, 1, 3])


class TestPolarDecompose:
    def test_identity(self):
        f = polar_decompose(np.eye(3))
        np.testing.assert_allclose(f.unitary, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(f.positive, np.eye(3), atol=1e-12)

    def test_sign_split(self):
        f = polar_decompose(np.diag([-2.0, 1.0]))
        np.testing.assert_allclose(f.unitary, np.diag([-1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(f.positive, np.diag([2.0, 1.0]), atol=1e-12)

    def test_swap_case(self):
        f = polar_decompose(np.array([[0.0, 3.0], [2.0, 0.0]]))
        np.testing.assert_allclose(f.unitary, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
        np.testing.assert_allclose(f.positive, np.diag([2.0, 3.0]), atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            polar_decompose(np.zeros((2, 2)))

    def test_random_factors(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_well_conditioned(rng, 10, kappa=100.0)
            f = polar_decompose(m)
            assert np.max(np.abs(f.unitary.T @ f.unitary - np.eye(10))) < 1e-9
            assert np.max(np.abs(f.unitary @ f.positive - m)) < 1e-9 * spectral_norm(m)
            evals = np.linalg.eigvalsh(f.positive)
            assert np.all(evals > -1e-9)
