import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mimocap import linalg


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


class TestSvd:
    def test_zero_matrix(self):
        _, s, _ = linalg.svd(np.zeros((2, 3)))
        assert np.allclose(s, 0.0)

    def test_diagonal_sorted(self):
        _, s, _ = linalg.svd(np.diag([3.0, 4.0]))
        assert np.allclose(s, [4.0, 3.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        u, s, vh = linalg.svd(g)
        assert np.abs((u * s) @ vh - g).max() <= 1e-10


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

    def test_gram_rejects_lower_entries(self):
        with pytest.raises(ValueError):
            linalg.ut_gram(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_chol_identity(self):
        assert np.allclose(linalg.chol_upper(np.eye(2)), np.eye(2))

    def test_chol_hand_example(self):
        t = linalg.chol_upper([[1.0, 1.0], [1.0, 2.0]])
        assert np.allclose(t, [[1.0, 1.0], [0.0, 1.0]])

    def test_chol_semidefinite(self):
        t = linalg.chol_upper([[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(t, [[1.0, 1.0], [0.0, 0.0]])
        assert np.allclose(linalg.ut_gram(t), [[1.0, 1.0], [1.0, 1.0]])

    def test_chol_rejects_indefinite(self):
        with pytest.raises(ValueError):
            linalg.chol_upper(np.diag([1.0, -0.5]))

    def test_as_psd_is_the_check_chol_upper_applies(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            linalg.as_psd(np.diag([1.5, -0.5]))
        a = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-15]])  # round-off of a rank-one matrix
        assert np.array_equal(linalg.as_psd(a), linalg.as_hermitian(a))
        linalg.chol_upper(a)

    def test_roundtrip_chol_of_gram(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            np.fill_diagonal(t, rng.uniform(0.5, 2.0, n))
            back = linalg.chol_upper(linalg.ut_gram(t))
            assert np.abs(back - t).max() <= 1e-10 * np.abs(t).max()


def _expint_gamma0(x):
    """Gamma(0, x) = int_x^inf exp(-t)/t dt, unscaled from the package's form."""
    return np.exp(-np.asarray(x, dtype=float)) * linalg.scaled_expint_gamma0(x)


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
        assert abs(500 * linalg.scaled_expint_gamma0(500.0) - 1.0) < 0.01

    def test_scaled_matches_plain_in_overlap(self):
        for x in (0.5, 5.0, 100.0, 650.0):
            direct = np.exp(min(x, 700)) * scipy.special.exp1(x)
            assert np.isclose(linalg.scaled_expint_gamma0(x), direct, rtol=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            linalg.scaled_expint_gamma0(0.0)
        with pytest.raises(ValueError):
            linalg.scaled_expint_gamma0(-1.0)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 4)
    p = a @ a.conj().T
    r = linalg.psd_sqrt(p)
    assert np.abs(r @ r - p).max() <= 1e-10 * np.abs(p).max()


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(5)
    u = linalg.haar_unitary(4, rng)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
