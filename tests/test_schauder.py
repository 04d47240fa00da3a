import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schaudermat import (
    BasisPair,
    ConstantEstimate,
    SearchBudget,
    SingularMatrixError,
    basis_constant,
    biorthogonal_inverse,
    condition_number,
    haar_matrix,
    olevskii_block,
    quasinormality_bounds,
    riesz_diagnostic,
    save_matrix,
    summing_counterexample,
    transform_left,
    transform_right_diagonal,
    transform_right_permutation,
    unconditional_constant,
)
from schaudermat import jsonfmt, schauder
from schaudermat.olevskii import weight_exponents
from schaudermat.schauder import (
    _BATCH,
    GREEDY_RTOL,
    MAX_EXACT_CUTOFF,
    PAIR_TOL,
    _best_mask,
    _deviation,
    _masked_norms,
    _prefix_batches,
    _subset_batches,
    _sign_witness,
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


def projection(pair, indices):
    """Q = F P_D G* for the 1-based index set D, formed densely as a reference."""
    mask = np.zeros(pair.size)
    mask[np.asarray(list(indices), dtype=int) - 1] = 1.0
    return (pair.f * mask) @ pair.gstar


def haar_cut_norms(k, alpha):
    """||Q_m|| of olevskii_block(k, alpha) for m = 1..2^k, in Haar coordinates.

    Q_m = diag(w) A^T P_m A diag(1/w) acts as the identity on the Haar columns
    of A = A_k supported above the cut m and as 0 on those supported below it.
    What remains is the columns S that are nonzero on both sides, so
    ||Q_m|| = max(1, ||diag(w_S) (A[:m,S]^T A[:m,S]) diag(1/w_S)||).
    """
    a = haar_matrix(k)
    w = np.array([alpha ** j for j in weight_exponents(k)])
    norms = []
    for m in range(1, 2 ** k):
        s = a[:m].any(axis=0) & a[m:].any(axis=0)
        top = a[:m, s]
        norms.append(max(1.0, np.linalg.norm(w[s, None] * (top.T @ top) / w[s], 2)))
    return norms + [1.0]  # Q_(2^k) = I


def block_diagonal(blocks):
    """The direct sum of square blocks, as a dense reference."""
    starts = np.cumsum([0] + [len(b) for b in blocks])
    out = np.zeros((starts[-1], starts[-1]))
    for b, start in zip(blocks, starts):
        out[start:start + len(b), start:start + len(b)] = b
    return out


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


def scaled_block(k, e):
    """(2^e F, 2^-e G*) of olevskii_block(k, 0.8)."""
    pair = olevskii_block(k, 0.8)
    return np.ldexp(pair.f, e), np.ldexp(pair.gstar, -e)


def sheared_pair(eps, t):
    """A 2 x 2 pair with max|F G* - I| = eps and max|G* F - I| = eps t^2."""
    f = np.array([[1.0, t], [0.0, 1.0]])
    return f, np.array([[1.0, -t], [0.0, 1.0]]) + eps * np.array([[-t, 0.0], [1.0, 0.0]])


def rotated_pair(n):
    """Q diag(geomspace(1, 10, n)) with its LU inverse, Q from default_rng(5)."""
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    f = q * np.geomspace(1, 10, n)
    return f, np.linalg.inv(f)


def conditioned_pair(n, kappa, seed):
    """Q1 diag(geomspace(1, 1/kappa, n)) Q2 with its LU inverse."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    f = q1 * np.geomspace(1, 1 / kappa, n) @ q2
    return f, np.linalg.inv(f)


@pytest.fixture
def pair_products(monkeypatch):
    """The (left, right) factors of each product whose deviation the pair check takes."""
    calls, deviation = [], schauder._deviation
    monkeypatch.setattr(schauder, "_deviation", lambda a, b: calls.append((a, b)) or deviation(a, b))
    return calls


class TestPairCheck:
    """BasisPair forms F G* - I and forms G* F - I only when the bound from the first misses."""

    @pytest.mark.parametrize("k, bound",
                             [(8, 7.0e-14), (10, 1.7e-12), (11, 3.5e-12), (12, 7.2e-12)])
    def test_blocks_are_certified_from_one_product(self, pair_products, k, bound):
        # rho = N max|R| of R = F G* - I; k = 8 forms F G* by BLAS and takes the largest
        # column 2-norm of F times the largest row 2-norm of G*, the sparse blocks take
        # ||F||_1 ||G*||_inf over their nonzeros.
        pair = olevskii_block(k, 0.8)
        assert len(pair_products) == 1 and pair_products[0][0] is pair.f
        assert _deviation(pair.f, pair.gstar)[1] == pytest.approx(bound, rel=0.05, abs=0)
        assert bound < PAIR_TOL

    def test_rotated_pair_is_certified_from_one_product(self, pair_products):
        # Q diag(geomspace(1, 10, N)) with its LU inverse at N = 512 and 1024: the largest
        # column norm of F times the largest row norm of G* certifies G* F, where
        # (||F||_1 ||G*||_1 ||F||_inf ||G*||_inf)^(1/2) would miss PAIR_TOL.
        for n in (512, 1024):
            f, g = rotated_pair(n)
            pair_products.clear()
            pair = BasisPair(f=f, gstar=g)
            assert len(pair_products) == 1
            dev, bound = _deviation(pair.f, pair.gstar)
            norms = [np.linalg.norm(m, o) for o in (1, np.inf) for m in (pair.f, pair.gstar)]
            assert bound < PAIR_TOL < n * dev / (1 - n * dev) * np.sqrt(np.prod(norms))

    @pytest.mark.parametrize("e", [600, -600])
    @pytest.mark.parametrize("k", [8, 10], ids=["blas", "sparse"])
    def test_scaled_blocks_are_certified_from_one_product(self, pair_products, k, e):
        # N max|R| and the product of F's and G*'s largest norms (a column of F, a row of
        # G*) keep the bound of the unscaled block at 2^e F, 2^-e G*, where ||F||^2 would
        # overflow or underflow.
        pair = olevskii_block(k, 0.8)
        f, g = np.ldexp(pair.f, e), np.ldexp(pair.gstar, -e)
        pair_products.clear()
        BasisPair(f=f, gstar=g)
        assert len(pair_products) == 1
        assert _deviation(f, g) == _deviation(pair.f, pair.gstar)

    @pytest.mark.parametrize("make, args", [
        *((scaled_block, (k, 0)) for k in (5, 8, 10)),
        *((rotated_pair, (n,)) for n in (64, 512)),
        *((scaled_block, (k, e)) for k in (8, 10) for e in (600, -600)),
        (sheared_pair, (1e-12, 1e3)),
        *((conditioned_pair, (24, 1e6, seed)) for seed in range(3)),
    ], ids=["block-5", "block-8", "block-10", "rotated-64", "rotated-512", "block-8-2^600",
            "block-8-2^-600", "block-10-2^600", "block-10-2^-600", "sheared-1e3",
            "kappa-1e6-0", "kappa-1e6-1", "kappa-1e6-2"])
    def test_bound_covers_the_other_side(self, make, args):
        a, b = make(*args)
        for x, y in ((a, b), (b, a)):
            assert _deviation(x, y)[1] >= np.abs(y @ x - np.eye(x.shape[0])).max()

    def test_refused_by_the_formed_other_side(self, pair_products):
        # max|F G* - I| = eps but max|G* F - I| = eps t^2: the bound, about 2 eps t^2,
        # misses PAIR_TOL, so G* F is formed and its deviation is named.
        eps, t = 1e-12, 1e3
        f, g = sheared_pair(eps, t)
        assert np.abs(f @ g - np.eye(2)).max() == pytest.approx(eps, rel=1e-3)
        with pytest.raises(ValueError) as info:
            BasisPair(f=f, gstar=g)
        assert str(info.value) == ("F*Gstar and Gstar*F must equal the identity within 1e-9; "
                                   "the largest deviation is 1e-06")
        assert [a is f for a, _ in pair_products] == [True, False]

    def test_missed_bound_forms_the_other_side_and_accepts(self, pair_products):
        g = np.eye(3)
        g[0, 1:] = 0.9 * PAIR_TOL  # rho = 3 * 0.9e-9: the bound misses, G* F passes
        BasisPair(f=np.eye(3), gstar=g)
        assert len(pair_products) == 2

    @pytest.mark.parametrize("k", [8, 10])
    def test_traced_peak_of_the_block_check(self, k):
        # Under tracemalloc with numpy 2.4: k = 8 1.02 n^2 doubles, F G* formed by BLAS;
        # k = 10 0.79, the term and cell arrays of F G* - I (1.04 when F G* was formed).
        pair = olevskii_block(k, 0.8)
        tracemalloc.start()
        try:
            BasisPair(f=pair.f, gstar=pair.gstar)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * pair.size ** 2

    def test_traced_peak_of_the_deviation(self):
        # 0.79 n^2 doubles at k = 10 under tracemalloc with numpy 2.4: the term and cell
        # arrays of F G* (123 904 terms); the formed product alone was n^2.
        pair = olevskii_block(10, 0.8)
        tracemalloc.start()
        try:
            assert _deviation(pair.f, pair.gstar)[0] < PAIR_TOL
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * 8 * pair.size ** 2


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape, columns", [((258, 197), 28), ((151, 81), 16), ((35, 209), 2)])
def test_by_columns_keeps_the_reduction_order(monkeypatch, order, shape, columns):
    # Chunks of exactly `columns` columns would leave one column last, and numpy sums a
    # lone C-ordered column pairwise instead of row by row.
    monkeypatch.setattr(schauder, "_COLUMN_CELLS", shape[0] * columns)
    rng = np.random.default_rng(43)
    a = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape), order=order)
    assert schauder._column_norms(a).tobytes() == np.linalg.norm(a, axis=0).tobytes()


class TestNaturalProjection:
    def test_full_set_is_identity(self):
        pair = summing_counterexample(5)
        q = projection(pair, range(1, 6))
        np.testing.assert_allclose(q, np.eye(5), atol=1e-12)

    def test_identity_pair_single_index(self):
        pair = biorthogonal_inverse(np.eye(3))
        np.testing.assert_allclose(projection(pair, [2]), np.diag([0.0, 1.0, 0.0]))

    def test_summing_rank_one(self):
        pair = summing_counterexample(2)
        q = projection(pair, [1])
        np.testing.assert_allclose(q, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        pair = random_pair(rng, 8)
        for subset in ([1], [2, 5], [1, 3, 8], list(range(1, 9))):
            q = projection(pair, subset)
            assert np.max(np.abs(q @ q - q)) < 1e-9


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
        q = projection(pair, est.witness)
        assert np.linalg.norm(q, 2) == pytest.approx(est.value, abs=1e-9)

    def test_olevskii_blocks_beyond_enumeration(self):
        # weighted Haar blocks up to N = 512, where prefixes longer than N/2
        # are solved through their suffixes, against the Haar-coordinate oracle
        for k in range(1, 10):
            pair = olevskii_block(k, 0.8)
            est = basis_constant(pair)
            cuts = haar_cut_norms(k, 0.8)
            assert est.value == pytest.approx(max(cuts), rel=1e-12)
            assert est.witness == tuple(range(1, len(est.witness) + 1))
            assert cuts[len(est.witness) - 1] == pytest.approx(est.value, rel=1e-12)
            q = projection(pair, est.witness)
            assert np.linalg.norm(q, 2) == pytest.approx(est.value, rel=1e-12)

    def test_traced_peak_memory(self):
        # Boolean prefix masks made _BATCH at a time: 5.15 n^2 doubles at N = 256 under
        # tracemalloc with numpy 2.4; an n x n float prefix triangle took it to 6.03.
        pair = olevskii_block(8, 0.8)
        tracemalloc.start()
        try:
            basis_constant(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 8 * pair.size ** 2


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
        q = projection(pair, est.witness)
        assert np.linalg.norm(q, 2) == pytest.approx(est.value, abs=1e-9)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(24)
        pair = random_pair(rng, 18)
        budget = SearchBudget(samples=2000, seed=42)
        a = unconditional_constant(pair, budget=budget)
        b = unconditional_constant(pair, budget=budget)
        assert a.value == b.value and a.witness == b.witness


def dual(pair):
    """The dual basis pair (G, F^T), G = Gstar^T: its projections are the transposes."""
    return BasisPair(f=pair.gstar.T, gstar=pair.f.T)


class TestDualBasisConstant:
    """The dual basis constant is read off the basis constant, as ||Q_n^T|| = ||Q_n||;
    the basis constant of the transposed pair is an independent reference."""

    def test_identity(self):
        pair = biorthogonal_inverse(np.eye(4))
        assert basis_constant(pair).value == basis_constant(dual(pair)).value == 1.0

    def test_unitary(self):
        pair = biorthogonal_inverse(haar_matrix(2))
        assert basis_constant(pair).value == pytest.approx(1.0)
        assert basis_constant(dual(pair)).value == pytest.approx(1.0)

    def test_transposition_cross_check(self):
        pair = summing_counterexample(16)
        assert basis_constant(pair).value == pytest.approx(
            basis_constant(dual(pair)).value, abs=1e-9
        )

    def test_equals_primal_on_sections(self):
        rng = np.random.default_rng(25)
        pair = random_pair(rng, 7)
        primal, transposed = basis_constant(pair), basis_constant(dual(pair))
        assert primal.value == pytest.approx(transposed.value, abs=1e-9)
        assert primal.witness == transposed.witness


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

    @pytest.mark.parametrize("f", [olevskii_block(5, 0.8).f, olevskii_block(5, 0.8).gstar.T,
                                   np.random.default_rng(9).standard_normal((7, 5))],
                             ids=["F-order", "transposed", "random"])
    def test_power_of_two_scaling_is_exact(self, f):
        norms = np.linalg.norm(f, axis=0)
        assert quasinormality_bounds(f) == (norms.min(), norms.max())
        for e in (600, -600, 1000, -1000):
            expected = (math.ldexp(norms.min(), e), math.ldexp(norms.max(), e))
            assert quasinormality_bounds(np.ldexp(f, e)) == expected


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

    def test_fixed_thresholds(self):
        # RieszConsistent allows condition numbers up to 100; NotRiesz needs above 1000.
        assert riesz_diagnostic(np.array([1.0, 0.01, 0.01, 0.01]), [2, 3, 4]).verdict == (
            "RieszConsistent")
        v = 1.0 / np.arange(1, 1002)
        assert riesz_diagnostic(v, [10, 100, 1000]).verdict == "Inconclusive"
        assert riesz_diagnostic(v, [10, 100, 1001]).verdict == "NotRiesz"

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
        q1 = projection(pair, [1])
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
                projection(out, subset),
                projection(pair, subset),
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
        pair = rotated(rng, BasisPair(f=block_diagonal([b.f for b in blocks]),
                                      gstar=block_diagonal([b.gstar for b in blocks])))
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
    return BasisPair(f=block_diagonal([b.f for b in blocks] + eye),
                     gstar=block_diagonal([b.gstar for b in blocks] + eye))


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
    """_best_mask prunes by a bound but must return the mask that the tie rule picks from
    the unscreened _masked_norms: among the norms within GREEDY_RTOL of the largest, the
    fewest indices, then the lexicographically first index tuple."""

    @staticmethod
    def assert_same_argmax(pair, masks):
        norms = _masked_norms(pair.f, pair.gstar, masks)
        near = np.flatnonzero(norms >= norms.max() / (1 + GREEDY_RTOL))
        i = min(near, key=lambda j: (np.count_nonzero(masks[j]), tuple(np.flatnonzero(masks[j]))))
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

    def test_last_ulp_tie_goes_to_the_shortest_prefix(self):
        # Prefixes 7, 9, 11 and 13 of the demo's level-3 pair attain the same
        # constant; rounding puts prefix 11 one ulp above the others.
        pair = block_sum(3)
        norms = _masked_norms(pair.f, pair.gstar, np.tril(np.ones((14, 14), dtype=bool)))
        assert int(np.argmax(norms)) == 10
        assert basis_constant(pair).witness == tuple(range(1, 8))

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
        # the 20 064 prefixes and samples that the search would draw on this
        # section reach eigvalsh, 2 363 with the bound 1 + ||E^2||_F^(1/2)
        pair, _ = seeded_sections(101)
        batches = list(search_batches(pair.size, SearchBudget(seed=101)))
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(len(m)) or eigvalsh(m))
        _best_mask(pair.f, pair.gstar, batches)
        assert sum(map(len, batches)) == 20064
        assert sum(solved) < 0.05 * 20064

    def test_traced_peak_memory(self):
        # Limits in MiB under tracemalloc with numpy 2.4; allow 10% more. Both
        # pairs miss the sign witness, so each call draws every sample, one
        # batch at a time: N = 70 with 20 000 samples peaks at 9.7, N = 128
        # with 2 000 samples (one batch) at 15.9.
        pairs = [(with_dual_block(0.8), SearchBudget(seed=101), 9.7),
                 (random_pair(np.random.default_rng(101), 128, kappa=30.0),
                  SearchBudget(samples=2000, seed=101), 15.9)]
        for pair, budget, limit in pairs:
            tracemalloc.start()
            try:
                est = unconditional_constant(pair, budget)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert est.evaluations > pair.size + budget.samples  # and a greedy round
            assert peak / 2 ** 20 <= 1.1 * limit

    def test_large_flip_batch_is_gathered_in_chunks(self):
        # Flipping each index of a half mask of the N = 256 block makes two
        # groups of 128 masks with |S| = 127: 2.06e6 gathered values each,
        # twice _GATHERED. Gathered whole they peaked at 65.3 MiB (MiB under
        # tracemalloc with numpy 2.4), in chunks of 65 rows at 33.9 MiB.
        pair = olevskii_block(8, 0.8)
        flips = np.abs((np.arange(256) < 128) - np.eye(256))
        tracemalloc.start()
        try:
            norms = _masked_norms(pair.f, pair.gstar, flips)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= 1.1 * 33.9
        for i in (0, 64, 65, 127, 128, 192, 193, 255):  # chunk ends in both groups
            attained = np.linalg.norm((pair.f * flips[i]) @ pair.gstar, 2)
            assert norms[i] == pytest.approx(attained, rel=1e-12)


class TestReportedValues:
    @staticmethod
    def attained(pair, est):
        return np.linalg.norm(projection(pair, est.witness), 2)

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
            total = projection(pair, d) + projection(pair, rest)
            np.testing.assert_allclose(total, np.eye(9), atol=1e-12)

    def test_exact_cutoff_limit(self):
        SearchBudget(exact_cutoff=MAX_EXACT_CUTOFF)
        with pytest.raises(ValueError, match="exact cutoff"):
            SearchBudget(exact_cutoff=MAX_EXACT_CUTOFF + 1)

    def test_negative_seed_is_refused(self):
        SearchBudget(seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SearchBudget(seed=-1)


def assert_one_member_per_complementary_pair(masks, n):
    both = np.vstack([masks, 1.0 - masks])
    assert len(both) == 2 ** n
    np.testing.assert_array_equal(np.unique(both, axis=0), all_subset_masks(n))
    assert not masks[:-1, -1].any() and masks[-1].all()  # the full set comes last


@pytest.mark.parametrize("n, sizes", [(1, [1]), (2, [2]), (12, [2048]), (13, [2048, 2048])])
def test_subset_batches_cover_each_complementary_pair_once(n, sizes):
    batches = list(_subset_batches(n))
    assert [len(b) for b in batches] == sizes
    assert all(b.dtype == bool for b in batches)
    assert_one_member_per_complementary_pair(np.vstack(batches), n)


@pytest.mark.parametrize("n, sizes", [(1, [1]), (5, [5]), (2048, [2048]), (2049, [2048, 1])])
def test_prefix_batches_are_boolean_prefixes(n, sizes):
    batches = list(_prefix_batches(n))
    assert [len(b) for b in batches] == sizes
    assert all(b.dtype == bool for b in batches)
    np.testing.assert_array_equal(np.vstack(batches), np.tril(np.ones((n, n), dtype=bool)))


def with_dual_block(alpha):
    """block_sum(5) plus the dual of the level-3 block of *alpha*, whose
    column-balanced norms are those of that block swapped. At alpha = 0.8
    and 0.83 this lifts the upper bound above the constant 1.4255, to 1.4815
    and 1.4336, so the search can never reach it."""
    b3 = olevskii_block(3, alpha)
    pair = block_sum(5)
    return BasisPair(f=block_diagonal([pair.f, b3.gstar.T]),
                     gstar=block_diagonal([pair.gstar, b3.f.T]))


def test_greedy_stops_on_rounding_only_gains():
    # Greedy ends on its own here, and many flips tie in exact arithmetic; a
    # flip that wins by a few ulps must not buy another round of n norms
    # (the sign mask + 70 prefixes + 100 samples + two rounds of 70; 451
    # without the margin).
    pair = with_dual_block(0.8)
    est = unconditional_constant(pair, SearchBudget(samples=100, seed=0))
    assert est.mode == "LowerBoundWitness"
    assert est.value * (1 + GREEDY_RTOL) < _sign_witness(pair.f, pair.gstar)[0]
    assert est.evaluations == 311
    assert est.value == pytest.approx(1.425503125, rel=1e-12)


def search_batches(n, budget):
    """The sampled search's mask stacks: the n prefixes, then budget.samples
    seeded random masks, _BATCH at a time."""
    rng = np.random.default_rng(budget.seed)
    yield np.tril(np.ones((n, n)))
    for start in range(0, budget.samples, _BATCH):
        yield rng.integers(0, 2, size=(min(_BATCH, budget.samples - start), n)).astype(float)


class TestUpperBound:
    """The bound of _sign_witness is (kappa + 1/kappa) / 2 for the column-balanced kappa."""

    def test_at_least_the_exact_constant(self):
        rng = np.random.default_rng(70)
        pairs = [random_pair(rng, n, kappa=k) for n in range(1, 11)
                 for k in (1.5, 10.0, 100.0, 1e3, 1e6)]
        pairs += [random_pair(np.random.default_rng(44), 10, kappa=1e6), cholesky_fallback_pair()]
        for pair in pairs:
            exact = unconditional_constant(pair)
            assert exact.mode == "Exact"
            assert _sign_witness(pair.f, pair.gstar)[0] >= exact.value * (1 - 1e-12)

    def test_invariant_under_diagonal_and_orthogonal_transforms(self):
        rng = np.random.default_rng(71)
        pair = random_pair(rng, 12, kappa=100.0)
        bound = _sign_witness(pair.f, pair.gstar)[0]
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        d = rng.choice([-1.0, 1.0], 12) * np.geomspace(0.1, 10.0, 12)
        for out in (transform_right_diagonal(pair, d), transform_left(q, pair)):
            assert _sign_witness(out.f, out.gstar)[0] == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.75, 0.8, 0.95])
    def test_olevskii_block_closed_form(self, alpha):
        # kappa(T A^T) = alpha^(1 - k), and the balancing leaves it there
        for k in range(1, 10):
            pair = olevskii_block(k, alpha)
            assert _sign_witness(pair.f, pair.gstar)[0] == pytest.approx(
                math.cosh((k - 1) * math.log(1 / alpha)), rel=1e-12)


class TestSignWitnessOrFullSearch:
    """A call that the sign witness settles keeps the value of the full search;
    a call that it misses draws every sample."""

    @pytest.mark.parametrize("name", ["L4", "L5", "N64"])
    def test_settled_call_keeps_the_value(self, name):
        budget = SearchBudget(seed=101)
        pair = {"L4": block_sum(4), "L5": block_sum(5), "N64": seeded_sections(101)[0]}[name]
        est = unconditional_constant(pair, budget)
        searched, _ = _best_mask(pair.f, pair.gstar, search_batches(pair.size, budget))
        assert est.value == pytest.approx(searched, rel=GREEDY_RTOL)
        assert est.evaluations == 1

    @pytest.mark.parametrize("pair, seed, rounds, witness", [
        (random_pair(np.random.default_rng(54), 24, kappa=100.0), 54, 3 + 8,
         (1, 2, 3, 4, 6, 13, 17, 19, 20, 21)),
        (with_dual_block(0.83), 0, 1,
         (5, 7, 11, 12, 13, 17, 25, 29, 33, 37, 38, 39, 42, 44, 45, 46, 47, 50, 52, 54, 55, 58,
          60, 61, 66, 67, 69)),
    ], ids=["random", "dual-block"])
    def test_unreached_bound_keeps_the_full_search(self, pair, seed, rounds, witness):
        # the evaluations and witness of the search without the stop: the
        # sign mask, n prefixes, 3 000 samples in two batches and the greedy
        # rounds; the random pair's sign mask is its best start, so a second
        # walk of 8 rounds from the best prefix or sample follows the walk of
        # 3 from it; the dual-block pair ends 0.56 % below its bound
        est = unconditional_constant(pair, SearchBudget(samples=3000, seed=seed))
        assert est.value * (1 + GREEDY_RTOL) < _sign_witness(pair.f, pair.gstar)[0]
        assert est.evaluations == 1 + pair.size + 3000 + rounds * pair.size
        assert est.witness == witness

    def test_search_starts_from_the_sign_mask(self):
        # The sign mask misses the bound 14.75 on this kappa = 30 pair, but
        # no prefix or sample, nor the greedy walk from the best of them,
        # reaches its norm 11.78: without it the search ends at 11.647. The
        # walk from the sign mask takes 16 rounds, the one from the best
        # prefix or sample 22.
        pair = geomspace_pair(64, 103)
        bound, mask = _sign_witness(pair.f, pair.gstar)
        sign_norm = np.linalg.norm((pair.f * mask) @ pair.gstar, 2)
        assert sign_norm == pytest.approx(11.78210496997988, rel=1e-12)
        est = unconditional_constant(pair, SearchBudget(samples=2000, seed=103))
        assert sign_norm <= est.value < bound
        assert est.value >= 12.456360676913006
        assert est.evaluations == 1 + 64 + 2000 + (16 + 22) * 64

    def test_search_keeps_the_walk_from_the_best_prefix_or_sample(self):
        # The walk from the sign mask ends at 11.328 on this pair; the walk
        # from the best prefix or sample, the only one before the sign mask
        # joined the starts, ends at 11.892.
        est = unconditional_constant(geomspace_pair(96, 102), SearchBudget(samples=2000, seed=102))
        assert est.value >= 11.891794210950914


def geomspace_pair(n, seed):
    """Q1 diag(geomspace(1, 1/30, n)) Q2 paired with its inverse, for the sign-fixed QR
    factors Q of standard normals drawn from default_rng(seed): a kappa = 30 pair."""
    rng = np.random.default_rng(seed)
    q1, q2 = (q * np.sign(np.diag(r)) for q, r in
              (np.linalg.qr(rng.standard_normal((n, n))) for _ in range(2)))
    return biorthogonal_inverse(q1 @ np.diag(np.geomspace(1, 1 / 30, n)) @ q2)


class TestSignWitness:
    """A sign witness within GREEDY_RTOL of the bound is returned after one evaluation."""

    @staticmethod
    def assert_settled(pair, value, budget=SearchBudget(exact_cutoff=0)):
        est = unconditional_constant(pair, budget)
        _, mask = _sign_witness(pair.f, pair.gstar)
        assert (est.mode, est.evaluations) == ("LowerBoundWitness", 1)
        assert est.witness == tuple(int(i) + 1 for i in np.flatnonzero(mask))
        assert est.value == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.71, 0.75, 0.8, 0.95, 0.99])
    def test_olevskii_blocks(self, alpha):
        # the extreme singular values of these blocks are repeated, 2^(k-1)
        # and 2 times, so the candidate must not depend on the SVD's basis
        for k in range(1, 10):
            self.assert_settled(olevskii_block(k, alpha), math.cosh((k - 1) * math.log(1 / alpha)))

    def test_largest_olevskii_block(self):
        # N = 1024, whose SVDs take about a second each: one alpha of the five
        est = unconditional_constant(olevskii_block(10, 0.8), SearchBudget(exact_cutoff=0))
        assert (est.mode, est.evaluations) == ("LowerBoundWitness", 1)
        assert est.value == pytest.approx(math.cosh(9 * math.log(1.25)), rel=1e-12)

    def test_block_sums_rotated_or_not(self):
        self.assert_settled(block_sum(5), math.cosh(4 * math.log(1.25)), SearchBudget())
        for pair, levels in zip(seeded_sections(101), (5, 6)):
            self.assert_settled(pair, math.cosh((levels - 1) * math.log(1.25)),
                                SearchBudget(seed=101))

    def test_single_singular_value_gives_the_full_set(self):
        # kappa = 1: both singular subspaces are the whole space, so the
        # candidate is every index, whose projection I attains the bound 1
        c, s = math.cos(0.5), math.sin(0.5)
        pair = biorthogonal_inverse(np.array([[c, -s], [s, c]]))
        self.assert_settled(pair, 1.0)
        assert unconditional_constant(pair, SearchBudget(exact_cutoff=0)).witness == (1, 2)

    def test_missed_bound_falls_through_to_the_search(self):
        # the extreme singular vectors lie in different blocks, so the
        # candidate misses the bound and the search decides
        pair = with_dual_block(0.8)
        bound, mask = _sign_witness(pair.f, pair.gstar)
        assert np.linalg.norm((pair.f * mask) @ pair.gstar, 2) * (1 + GREEDY_RTOL) < bound
        est = unconditional_constant(pair, SearchBudget(samples=100, seed=0))
        assert est.evaluations > 1
        assert est.value == pytest.approx(1.425503125, rel=1e-12)


# Runs the CLI and then writes, as the last line of stderr, which of the
# submodules that numpy loads only on first use the call has loaded.
LOADED_AFTER_MAIN = """import json, sys
from schaudermat.cli import main
code = main(sys.argv[1:])
print(json.dumps([m for m in ("numpy.random", "numpy.ma") if m in sys.modules]), file=sys.stderr)
sys.exit(code)"""


class TestLazyImports:
    """A call that the sign witness settles loads numpy's core and linalg only:
    numpy.random is for the seeded search, and numpy.ma for nothing here."""

    @staticmethod
    def run_cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), json.loads(proc.stderr.splitlines()[-1])

    def test_settled_calls(self, tmp_path):
        save_matrix(tmp_path / "f.mtx", seeded_sections(101)[0].f)
        report, loaded = self.run_cli("constants", "--matrix", str(tmp_path / "f.mtx"))
        assert report["unconditional"]["evaluations"] == 1
        assert loaded == []
        report, loaded = self.run_cli("demo-harmonic", "--levels", "5")
        assert [(c["mode"], c["evaluations"]) for c in report["unconditionalByLevel"][3:]] == [
            ("LowerBoundWitness", 1)] * 2
        assert loaded == []

    def test_search_keeps_its_seed(self, tmp_path):
        pair = with_dual_block(0.8)
        save_matrix(tmp_path / "f.mtx", pair.f)
        argv = ("constants", "--matrix", str(tmp_path / "f.mtx"), "--samples", "100")
        first, loaded = self.run_cli(*argv, "--seed", "0")
        assert loaded == ["numpy.random"]
        assert self.run_cli(*argv, "--seed", "0")[0] == first
        # the CLI reads F back exactly and inverts it
        est = unconditional_constant(biorthogonal_inverse(pair.f), SearchBudget(samples=100, seed=0))
        assert first["unconditional"] == json.loads(jsonfmt.dumps(est))
        assert est.evaluations > 1 and est.value == pytest.approx(1.425503125, rel=1e-12)


def scaled_block(e):
    """A rotated level-3 block pair with F scaled by 2^e and G* by 2^-e."""
    pair = rotated(np.random.default_rng(3), olevskii_block(3, 0.8))
    return BasisPair(f=np.ldexp(pair.f, e), gstar=np.ldexp(pair.gstar, -e))


def assert_same_estimate(got, want):
    assert got == want and got.value.hex() == want.value.hex()


@pytest.mark.parametrize("e", [255, -255, 300, -300, 505, -505, 600, -600, 1000, -1000])
@pytest.mark.parametrize("pair, budget, evaluations", [
    (scaled_block(0), SearchBudget(), 2 ** 8),
    (rotated(np.random.default_rng(4), olevskii_block(4, 0.8)), SearchBudget(exact_cutoff=0), 1),
    (with_dual_block(0.8), SearchBudget(exact_cutoff=0, samples=100), 311),
], ids=["exact", "sign-witness", "search"])
def test_constants_keep_their_bits_at_any_scale(pair, budget, evaluations, e):
    # 2^-e F, 2^e G* has every projection of F, G*; the range rule scales an out-of-range
    # pair back by a power of two, so value bits, witness, mode and evaluations all hold.
    # The three pairs take full enumeration, the settled sign witness and the search.
    scaled = BasisPair(f=np.ldexp(pair.f, -e), gstar=np.ldexp(pair.gstar, e))
    assert_same_estimate(basis_constant(scaled), basis_constant(pair))
    want = unconditional_constant(pair, budget)
    assert want.evaluations == evaluations
    assert_same_estimate(unconditional_constant(scaled, budget), want)


@pytest.mark.parametrize("call, want", [
    (lambda: basis_constant(scaled_block(600)), lambda: basis_constant(scaled_block(0))),
    (lambda: basis_constant(scaled_block(-600)), lambda: basis_constant(scaled_block(0))),
    (lambda: unconditional_constant(scaled_block(600)),
     lambda: unconditional_constant(scaled_block(0))),
    (lambda: unconditional_constant(scaled_block(-600), SearchBudget(exact_cutoff=0)),
     lambda: unconditional_constant(scaled_block(0), SearchBudget(exact_cutoff=0))),
    (lambda: basis_constant(BasisPair(f=np.diag([1e200, 2.0]), gstar=np.diag([1e-200, 0.5]))),
     lambda: ConstantEstimate(1.0, "Exact", (1,), 2)),
    (lambda: basis_constant(BasisPair(f=np.diag([1.98 * 2.0 ** 599, 2.0 ** -422]),
                                      gstar=np.diag([2.0 ** -599 / 1.98, 2.0 ** 422]))),
     lambda: ConstantEstimate(1.0, "Exact", (1,), 2)),
], ids=["basis-big", "basis-small", "exact-big", "search-small", "basis-diagonal",
        "basis-odd-exponents"])
def test_out_of_range_pairs_keep_their_constants(call, want):
    # Entries above sqrt(max float / N), where F^T F or G* G*^T would overflow. The last
    # pair's binary exponents differ by 177: halving them leaves F's entry 0.99 * 2^512 above
    # the limit 2^511.5, and one more power of two brings both within it.
    assert_same_estimate(call(), want())


@pytest.mark.parametrize("call, message", [
    (lambda: BasisPair(f=np.eye(2), gstar=np.eye(3)),
     "pair must be square of equal shape, got (2, 2) and (3, 3)"),
    (lambda: weight_exponents(0), "k must be >= 1"),
    (lambda: basis_constant(BasisPair(f=np.diag(np.ldexp(1.0, [600, -600])),
                                      gstar=np.diag(np.ldexp(1.0, [-600, 600])))),
     "pair entries 4.15e+180 of F and 4.15e+180 of G* are out of range"),
    (lambda: transform_right_diagonal(summing_counterexample(3), [1.0, np.nan, 2.0]),
     "diagonal entries must be finite and nonzero"),
    (lambda: transform_right_diagonal(summing_counterexample(3), [1.0, 1e-320, 2.0]),
     "F D or D^-1 G* overflows"),
    (lambda: transform_right_diagonal(biorthogonal_inverse(4 * np.eye(3)), [1.0, 1e308, 2.0]),
     "F D or D^-1 G* overflows"),
], ids=["pair-shapes", "weight-level", "basis-unbalanced", "diagonal-nan", "diagonal-subnormal",
        "diagonal-huge"])
def test_library_refusals(call, message):
    # a ValueError with a message, and no numpy warning (an error under this suite)
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)
