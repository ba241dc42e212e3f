import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mimocap import linalg
from test_covopt import chol_upper


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestHermEig:
    def test_identity(self):
        u, lam = linalg.herm_eig(np.eye(2))
        assert np.allclose(lam, [1.0, 1.0])
        assert np.allclose(u @ u.conj().T, np.eye(2))

    def test_already_diagonal(self):
        u, lam = linalg.herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(lam, [2.0, 1.0])

    def test_hand_derived_2x2(self):
        # characteristic polynomial of [[1, i], [-i, 1]] is lam^2 - 2 lam
        u, lam = linalg.herm_eig(np.array([[1.0, 1j], [-1j, 1.0]]))
        assert np.allclose(lam, [2.0, 0.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8, 16):
            a = random_hermitian(rng, n)
            u, lam = linalg.herm_eig(a)
            scale = np.abs(a).max()
            assert np.abs(a @ u - u * lam).max() <= 1e-10 * scale
            assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(lam) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.herm_eig(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTriangular:
    def test_gram_identity(self):
        assert np.allclose(linalg.ut_gram(np.eye(3)), np.eye(3))

    def test_gram_diagonal_factor(self):
        q = np.array([0.3, 0.7])
        t = np.diag(np.sqrt(q))
        assert np.allclose(linalg.ut_gram(t), np.diag(q))

    def test_gram_hand_example(self):
        t = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = linalg.ut_gram(t)
        assert np.allclose(g, [[1.0, 1.0], [1.0, 2.0]])
        assert np.isclose(np.trace(g).real, 3.0)  # 1^2 + 1^2 + 1^2
        # a zero diagonal entry is allowed: the factor of a rank-one Gram
        assert np.allclose(linalg.ut_gram(np.array([[1.0, 1.0], [0.0, 0.0]])),
                           [[1.0, 1.0], [1.0, 1.0]])

    def test_gram_rejects_lower_entries(self):
        with pytest.raises(ValueError):
            linalg.ut_gram(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_as_psd_passes_the_round_off_of_a_rank_deficiency(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            linalg.as_psd(np.diag([1.5, -0.5]))
        a = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-15]])  # round-off of a rank-one matrix
        assert np.array_equal(linalg.as_psd(a), linalg.as_hermitian(a))

    def test_roundtrip_chol_of_gram(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            np.fill_diagonal(t, rng.uniform(0.5, 2.0, n))
            back = chol_upper(linalg.ut_gram(t))
            assert np.abs(back - t).max() <= 1e-10 * np.abs(t).max()


def _expint_gamma0(x):
    """Gamma(0, x) = int_x^inf exp(-t)/t dt, unscaled from the package's form."""
    return np.exp(-np.asarray(x, dtype=float)) * linalg.scaled_expn(1, x)


class TestExpintGamma0:
    def test_against_quadrature_oracle(self):
        for x in (0.1, 1.0, 3.0):
            oracle, err = scipy.integrate.quad(lambda s: np.exp(-s) / s, x, np.inf)
            assert abs(_expint_gamma0(x) - oracle) <= max(1e-12, 10 * err)

    def test_frozen_values(self):
        assert np.isclose(_expint_gamma0(1.0), 0.219383934395520, atol=1e-10)
        assert np.isclose(_expint_gamma0(0.1), 1.822923958419390, atol=1e-9)

    def test_tail_decay(self):
        assert _expint_gamma0(50.0) < 1e-23

    def test_strictly_decreasing(self):
        grid = np.logspace(-8, 2.8, 200)
        vals = _expint_gamma0(grid)
        assert np.all(np.diff(vals) < 0)

    def test_asymptotic_normalization(self):
        # x e^x Gamma(0, x) -> 1
        assert abs(500 * linalg.scaled_expn(1, 500.0) - 1.0) < 0.01

    def test_scaled_matches_plain_in_overlap(self):
        for x in (0.5, 5.0, 100.0, 650.0):
            direct = np.exp(min(x, 700)) * scipy.special.exp1(x)
            assert np.isclose(linalg.scaled_expn(1, x), direct, rtol=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            linalg.scaled_expn(1, 0.0)
        with pytest.raises(ValueError):
            linalg.scaled_expn(1, -1.0)


def _mp_scaled_expn(n, x):
    """e^x E_n(x) in 80-digit mpmath (at 40 digits its E_n loses digits above order 50)."""
    with mpmath.workdps(80):
        return float(mpmath.exp(mpmath.mpf(x)) * mpmath.expint(int(n), mpmath.mpf(x)))


class TestScaledExpn:
    def test_matches_scipy_to_order_50(self):
        # 2,000 log-spaced points on both sides of the asymptotic switch at 600
        x = np.logspace(-3, np.log10(700), 2000)
        n = np.arange(1, 51)[:, None]
        ref = np.exp(x) * scipy.special.expn(n, x)
        assert np.abs(linalg.scaled_expn(n, x) / ref - 1).max() <= 1e-14

    def test_orders_above_50_match_mpmath(self):
        # scipy's expn takes a large-order expansion above 50, itself up to 6e-14
        # off 80-digit mpmath at x = 437; so it is no oracle there
        for n in (51, 55, 60):
            for x in (1e-3, 0.7, 3.3, 47.0, 112.9, 437.0, 599.9, 600.0, 700.0):
                ref = _mp_scaled_expn(n, x)
                assert linalg.scaled_expn(n, x) == pytest.approx(ref, rel=1e-14)

    def test_order_one_across_its_pieces(self):
        # series below 1, fitted polynomials to 64, asymptotic series above
        for x in (1e-300, 1e-8, 0.5, np.nextafter(1.0, 0), 1.0, 1.5, 2.0, 3.9, 8.0,
                  31.7, 63.99, 64.0, 200.0, 599.99, 600.0, 1e4):
            assert linalg.scaled_expn(1, x) == pytest.approx(_mp_scaled_expn(1, x), rel=1e-15)

    def test_one_table_matches_single_orders(self):
        # the recurrence from one seed gives what each order alone gives
        for x in (0.3, 1.9, 2.1, 9.5, 150.0, 800.0):
            table = linalg.scaled_expn(np.arange(1, 41), x)
            single = [linalg.scaled_expn(int(n), x) for n in range(1, 41)]
            assert np.allclose(table, single, rtol=1e-15, atol=0)

    def test_shapes_and_domain(self):
        assert isinstance(linalg.scaled_expn(1, 2.0), float)
        assert isinstance(linalg.scaled_expn(3, 2.0), float)
        assert linalg.scaled_expn([1, 2], np.array([[1.0], [2.0], [3.0]])).shape == (3, 2)
        with pytest.raises(ValueError):
            linalg.scaled_expn(0, 1.0)
        with pytest.raises(ValueError):
            linalg.scaled_expn([1, 2], 0.0)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 4)
    p = a @ a.conj().T
    r = linalg.psd_sqrt(p)
    assert np.abs(r @ r - p).max() <= 1e-10 * np.abs(p).max()


def test_psd_sqrt_identity():
    assert np.allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3), rtol=0, atol=1e-15)


def test_psd_sqrt_hand_example():
    # [[2, 1], [1, 2]] has eigenvalues 3 and 1 on (1, 1)/sqrt2 and (1, -1)/sqrt2
    r = linalg.psd_sqrt([[2.0, 1.0], [1.0, 2.0]])
    s3 = np.sqrt(3.0)
    assert np.allclose(r, [[(s3 + 1) / 2, (s3 - 1) / 2], [(s3 - 1) / 2, (s3 + 1) / 2]],
                       rtol=0, atol=1e-14)
    assert np.allclose(r, r.conj().T, rtol=0, atol=0)


def test_psd_sqrt_keeps_the_rank_of_a_rank_deficiency():
    # the round-off eigenvalue (~5e-16) would give a ~2e-8 square root that restores
    # rank two; it is zeroed, so the root is the rank-one [[1, 1], [1, 1]] / sqrt2
    for a in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 - 1e-15]]):
        r = linalg.psd_sqrt(a)
        assert np.abs(r - np.full((2, 2), 1 / np.sqrt(2))).max() <= 1e-15
        assert np.linalg.matrix_rank(r, tol=1e-12) == 1


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(5)
    u = linalg.haar_unitary(4, rng)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_circular_gaussian_is_the_complex_normal_expression():
    shape = (300, 3, 2)
    a = linalg._circular_gaussian(np.random.default_rng(4), shape)
    gen = np.random.default_rng(4)
    b = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2)
    assert a.dtype == np.complex128 and a.shape == shape
    assert np.array_equal(a.view(float), b.view(float))


class TestGauge:
    """Reported eigenvectors take one gauge: a 1e-14 move of Q moves them by
    round-off only, whatever LAPACK returns for Q's last bits."""

    @staticmethod
    def gauged(q):
        return linalg._gauge(*linalg.herm_eig(q))

    @pytest.mark.parametrize("kind", ["distinct", "rank-deficient", "repeated", "repeated-zero"])
    def test_a_tiny_hermitian_move_keeps_the_vectors(self, kind):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = 4
            u = linalg.haar_unitary(n, rng)
            lam = {"distinct": [0.4, 0.3, 0.2, 0.1], "rank-deficient": [0.6, 0.4, 0.0, 0.0],
                   "repeated": [0.3, 0.3, 0.3, 0.1], "repeated-zero": [0.5, 0.5, 0.0, 0.0]}[kind]
            q = (u * lam) @ u.conj().T
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            e = e + e.conj().T
            e *= 1e-14 / np.linalg.norm(e, 2)
            a, b = self.gauged(q), self.gauged(q + e)
            assert np.abs(a - b).max() <= 1e-10
            assert np.allclose(a.conj().T @ a, np.eye(n), atol=1e-12)
            assert np.allclose((a * linalg.herm_eig(q)[1]) @ a.conj().T, q, atol=1e-12)

    def test_largest_entry_is_real_and_positive_lowest_index_on_ties(self):
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2) * np.array([-1j, -1.0])
        out = linalg._gauge(v, np.array([2.0, 1.0]))
        assert np.allclose(out, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
        assert np.all(out[0].imag == 0) and np.all(out[0].real > 0)

    def test_repeated_eigenspace_takes_the_projected_unit_vectors(self):
        # Q = I/2: any unitary LAPACK returns becomes the identity
        u = linalg.haar_unitary(2, np.random.default_rng(1))
        assert np.allclose(linalg._gauge(u, np.array([0.5, 0.5])), np.eye(2), atol=1e-15)
