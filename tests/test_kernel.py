import math

import numpy as np
import pytest

from schaudermat import (
    BasisPair,
    SingularMatrixError,
    biorthogonal_inverse,
    condition_number,
    haar_matrix,
    harmonic_spectrum,
    invert,
    keylemma_assemble,
    olevskii_block,
    polar_decompose,
    select_subsets,
    transform_right_permutation,
)
from schaudermat.kernel import as_matrix
from schaudermat.schauder import _deviation
from test_olevskii import dense_factors


def random_well_conditioned(rng, n, kappa=10.0):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(kappa, 1.0, n)
    return q1 @ np.diag(s) @ q2


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

    def test_vector_is_read_as_diagonal(self):
        v = np.array([0.5, -4.0, 2.0])
        assert condition_number(v) == condition_number(np.diag(v)) == 8.0
        assert math.isinf(condition_number(np.array([1.0, 0.0])))

    @pytest.mark.parametrize("bad", [np.empty(0), np.array([1.0, np.nan]), np.array([np.inf])])
    def test_vector_checks(self, bad):
        with pytest.raises(ValueError):
            condition_number(bad)


@pytest.mark.parametrize("entries, finite", [
    ([[1.0, np.inf]], False),
    ([[np.nan, 0.0]], False),
    ([[np.inf, -np.inf]], False),  # the sum is nan, not inf
    ([[1.7e308, 1.7e308], [-1.7e308, 1.0]], True),  # the sum overflows, no entry does
    ([[1.7e308, 1.7e308], [np.inf, 1.0]], False),
])
def test_as_matrix_refuses_exactly_the_non_finite_entries(entries, finite):
    if finite:
        assert as_matrix(entries).tolist() == entries
    else:
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(entries)


def svd_condition(m):
    """sigma_max / sigma_min from a full SVD, inf under the kernel's 1e-14 rule."""
    s = np.linalg.svd(m, compute_uv=False)
    return math.inf if s[-1] < 1e-14 * s[0] else s[0] / s[-1]


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the calls of np.linalg.svd made after the fixture is set up."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


class TestOrthogonalSections:
    """Sections T U and U T (T diagonal, U orthogonal) are read off their row or
    column norms; every other matrix takes the SVD."""

    @pytest.mark.parametrize("alpha", [0.71, 0.75, 0.8, 0.95, 0.99])
    def test_olevskii_blocks(self, alpha):
        for k in range(1, 11):
            block = olevskii_block(k, alpha)
            for m in (block.f, block.gstar):
                assert condition_number(m) == pytest.approx(svd_condition(m), rel=1e-13)

    def test_haar_and_keylemma_model(self):
        for k in (1, 4, 7):
            assert condition_number(haar_matrix(k)) == pytest.approx(1.0, rel=1e-13)
        spectrum = harmonic_spectrum(10000)
        model = keylemma_assemble(spectrum, select_subsets(spectrum, 0.8, 2.0, 4).plan)
        for m in (model.basis_matrix, model.inverse_matrix, dense_factors(model)[2]):
            assert condition_number(m) == pytest.approx(svd_condition(m), rel=1e-13)

    def test_permuted_sign_flipped_rows(self, svd_calls):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.1, 3.0, 64) * rng.choice([-1.0, 1.0], 64)
        f = (t[:, None] * haar_matrix(6))[rng.permutation(64)]
        want = np.abs(t).max() / np.abs(t).min()
        for m in (f, f.T):
            assert condition_number(m) == pytest.approx(want, rel=1e-13)
        assert not svd_calls
        # A random orthogonal factor leaves Gram off-diagonals above n*eps, so
        # this one may take the SVD; either way the value is the SVD's.
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        f = (t[:40, None] * q)[rng.permutation(40)]
        for m in (f, f.T):
            assert condition_number(m) == pytest.approx(svd_condition(m), rel=1e-13)

    def test_fallback_equals_svd(self, svd_calls):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        perturbed = q + 1e-7 * rng.standard_normal((32, 32))
        section = olevskii_block(6, 0.8).f[:40, :40]
        for m in (perturbed, section):
            before = len(svd_calls)
            got = condition_number(m)
            assert len(svd_calls) == before + 1
            assert got == svd_condition(m)
        assert condition_number(perturbed) > 1.0 + 1e-8

    def test_zero_row_or_column_is_singular(self):
        q = haar_matrix(3)
        t = np.array([1.0, 2.0, 0.0, 3.0, 1.0, 1.0, 2.0, 0.5])
        for m in (t[:, None] * q, q * t, np.zeros((3, 3)), np.zeros((1, 1))):
            assert math.isinf(condition_number(m))
        assert math.isinf(condition_number(np.zeros(4)))
        with pytest.raises(SingularMatrixError, match=r"sigma_min/sigma_max = 0\.000e\+00"):
            invert(np.zeros((2, 2)))

    def test_largest_block_takes_no_svd(self, monkeypatch):
        block = olevskii_block(10, 0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert condition_number(block.f) == pytest.approx(0.8 ** -9, rel=1e-14)
        assert condition_number(block.gstar) == pytest.approx(0.8 ** -9, rel=1e-14)
        inverse = invert(block.f)
        assert np.max(np.abs(inverse - block.gstar)) < 1e-12

    def test_extreme_scales_fall_back(self):
        q = haar_matrix(4)
        for scale in (1e-170, 1e170):
            assert condition_number(scale * q) == pytest.approx(1.0, rel=1e-13)


def permutation_matrix(perm):
    """Reference 0/1 matrix U with U e_{perm(n)} = e_n: row n is e_{perm(n)}."""
    return np.eye(len(perm))[np.array(perm) - 1]


class TestPermutationMatrix:
    """transform_right_permutation indexes the columns of F and the rows of G*;
    on inputs without -0.0 it equals the products F U and U^T G* bit for bit."""

    @staticmethod
    def permuted(perm, f=None):
        n = len(perm)
        pair = biorthogonal_inverse(
            random_well_conditioned(np.random.default_rng(n), n) if f is None else f)
        u = permutation_matrix(perm)
        out = transform_right_permutation(pair, perm)
        assert np.array_equal(out.f, pair.f @ u)
        assert np.array_equal(out.gstar, u.T @ pair.gstar)
        return pair, out

    def test_identity(self):
        np.testing.assert_array_equal(permutation_matrix([1, 2, 3]), np.eye(3))
        pair, out = self.permuted([1, 2, 3])
        assert np.array_equal(out.f, pair.f) and np.array_equal(out.gstar, pair.gstar)

    def test_swap(self):
        np.testing.assert_array_equal(permutation_matrix([2, 1]), [[0.0, 1.0], [1.0, 0.0]])
        pair, out = self.permuted([2, 1])
        assert np.array_equal(out.f, pair.f[:, ::-1])

    def test_cycle_square_is_inverse(self):
        cycle = permutation_matrix([2, 3, 1])
        np.testing.assert_array_equal(cycle @ cycle, permutation_matrix([3, 1, 2]))
        pair, once = self.permuted([2, 3, 1])
        twice = transform_right_permutation(once, [2, 3, 1])
        inverse = transform_right_permutation(pair, [3, 1, 2])
        assert np.array_equal(twice.f, inverse.f) and np.array_equal(twice.gstar, inverse.gstar)

    def test_maps_basis_vectors(self):
        perm = [3, 1, 2]
        _, out = self.permuted(perm, f=np.eye(3))  # F = I, so out.f is U
        for n, image in enumerate(perm, start=1):
            e = np.zeros(3)
            e[image - 1] = 1.0
            expected = np.zeros(3)
            expected[n - 1] = 1.0
            np.testing.assert_array_equal(out.f @ e, expected)

    def test_orthogonal(self):
        _, out = self.permuted([4, 2, 1, 3], f=np.eye(4))
        np.testing.assert_array_equal(out.f @ out.f.T, np.eye(4))
        np.testing.assert_array_equal(out.gstar, out.f.T)
        self.permuted([4, 2, 1, 3])

    def test_rejects_non_bijection(self):
        pair = biorthogonal_inverse(np.eye(3))
        with pytest.raises(ValueError, match=r"not a bijection on 1..3: \[1, 1, 3\]"):
            transform_right_permutation(pair, [1, 1, 3])
        with pytest.raises(ValueError, match="permutation must act on 1..3"):
            transform_right_permutation(pair, [2, 1])

    def test_keeps_negative_zero(self):
        # 0 * 1 + (-0.0) * 0 is +0.0 in the product F U; indexing moves the -0.0 as it is.
        f = np.array([[1.0, -0.0], [0.0, 1.0]])
        out = transform_right_permutation(biorthogonal_inverse(f), [2, 1])
        assert np.signbit(out.f[0, 0]) and not np.signbit((f @ permutation_matrix([2, 1]))[0, 0])


@pytest.fixture
def term_sums(monkeypatch):
    """The flat cells of the terms of each deviation check that sums a b over its nonzero
    terms, one array per check: the check sorts its terms by cell once."""
    calls, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda cell, **kw: calls.append(cell) or argsort(cell, **kw))
    return calls


def assert_deviation_matches_blas(a, b):
    """_deviation(a, b) against max|a @ b - I|: both read sums of at most m nonzero terms
    per cell, each within m*eps*(|a| @ |b|) of the exact product, so the two maxima lie
    within the largest of those bounds of each other."""
    m = ((a != 0).astype(float) @ (b != 0)).max()
    got, want = _deviation(a, b)[0], np.abs(a @ b - np.eye(a.shape[0])).max()
    assert abs(got - want) <= 2 * m * np.finfo(float).eps * (np.abs(a) @ np.abs(b)).max()


def sparse_random(rng, shape, density):
    return rng.standard_normal(shape) * (rng.random(shape) < density)


def sparse_pair_with_an_empty_row_and_column():
    """A 3 %-dense 120 x 120 pair; row 17 and column 3 of a b are reached by no term."""
    rng = np.random.default_rng(7)
    a, b = sparse_random(rng, (120, 120), 0.03), sparse_random(rng, (120, 120), 0.03)
    a[17], a[:, 40], b[40], b[:, 3] = 0.0, 0.0, 0.0, 0.0
    return a, b


class TestProduct:
    """The pair check's max|a b - I| sums a b over its nonzero terms when they are at
    most an eighth of the cells and leaves every other product to BLAS."""

    def test_block_pair_in_both_orders(self, term_sums):
        pair = olevskii_block(10, 0.8)
        term_sums.clear()  # the pair check's own product
        # F G* has (k + 1)^2 2^k = 123 904 terms on 2^20 cells; G* F has more than 2^20.
        assert_deviation_matches_blas(pair.f, pair.gstar)
        assert len(term_sums) == 1
        assert_deviation_matches_blas(pair.gstar, pair.f)
        assert len(term_sums) == 1

    def test_sparse_with_an_empty_row_and_column(self, term_sums):
        a, b = sparse_pair_with_an_empty_row_and_column()
        assert_deviation_matches_blas(a, b)
        assert_deviation_matches_blas(b.T, a.T)
        assert len(term_sums) == 2
        cell = term_sums[0]  # of a b
        assert not np.any(cell // 120 == 17) and not np.any(cell % 120 == 3)

    @pytest.mark.parametrize("k", [10, 11, None],
                             ids=["block-10", "block-11", "empty-row-and-column"])
    def test_sparse_norms_match_numpy(self, monkeypatch, term_sums, k):
        # ||a||_1 and ||b||_inf, the bound's largest column sum of |a| and row sum of |b|,
        # each summed over the listed nonzeros
        if k is None:
            a, b = sparse_pair_with_an_empty_row_and_column()
        else:
            pair = olevskii_block(k, 0.8)
            a, b = pair.f, pair.gstar
        term_sums.clear()  # the block's own pair check
        norms, bincount = [], np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args: norms.append(bincount(*args)) or norms[-1])
        _deviation(a, b)
        assert len(term_sums) == 1 and len(norms) == 2
        want = [np.linalg.norm(a, 1), np.linalg.norm(b, np.inf)]
        rel = a.shape[0] * np.finfo(float).eps
        assert [s.max() for s in norms] == pytest.approx(want, rel=rel, abs=0)

    def test_unreached_diagonal_cell_deviates_by_one(self, term_sums):
        a = np.eye(16)
        assert _deviation(a, a)[0] == 0.0
        assert _deviation(0.5 * a, a)[0] == 0.5
        a[5, 5] = 0.0  # no term reaches cell (5, 5) of a a
        assert _deviation(a, a)[0] == 1.0
        assert len(term_sums) == 3

    def test_negative_zeros_are_zero_terms(self, term_sums):
        rng = np.random.default_rng(8)
        a, b = sparse_random(rng, (64, 64), 0.02), sparse_random(rng, (64, 64), 0.02)
        a[a == 0], b[:, ::2] = -0.0, -0.0
        assert_deviation_matches_blas(a, b)
        assert len(term_sums) == 1

    def test_one_by_one_and_all_zero(self, term_sums):
        assert _deviation(np.array([[3.0]]), np.array([[-0.5]]))[0] == 2.5
        assert _deviation(np.zeros((4, 4)), np.ones((4, 4)))[0] == 1.0
        assert term_sums == []

    def test_dense_takes_blas(self, term_sums):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((50, 50)), rng.standard_normal((50, 50))
        assert _deviation(a, b)[0] == np.abs(a @ b - np.eye(50)).max()
        assert term_sums == []

    @pytest.mark.parametrize("n", [2, 64])
    def test_overflowing_product_is_refused(self, term_sums, n):
        # Cell (0, 1) of f g is t (-t) + t t = -inf + inf: 4 terms on 4 cells take BLAS,
        # 66 on 4096 the sparse sum; neither may accept the pair or warn.
        t = 1e200
        f, g = np.eye(n), np.eye(n)
        f[:2, :2], g[:2, :2] = [[t, t], [0.0, 1 / t]], [[1 / t, -t], [0.0, t]]
        with pytest.raises(ValueError, match=r"the largest deviation is (inf|nan)$"):
            BasisPair(f=f, gstar=g)
        assert len(term_sums) == (n == 64)


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
            assert np.max(np.abs(f.unitary @ f.positive - m)) < 1e-9 * np.linalg.norm(m, 2)
            evals = np.linalg.eigvalsh(f.positive)
            assert np.all(evals > -1e-9)
