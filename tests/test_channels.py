import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mimocap import channels, covopt, linalg, montecarlo, waterfill
from mimocap.covopt import OptimizerOptions
from mimocap.montecarlo import SeededStream, ergodic_mi
from test_montecarlo import expect_matrix


def rng(seed=0):
    return np.random.default_rng(seed)


IID_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))


def kappa_law(kappa, m0, sigma):
    """The mean/noise interpolation H = kappa M0 + (1 - kappa) G Sigma^1/2 as
    ``analysis.interp_study`` builds it below kappa = 1."""
    return channels.KroneckerGaussian(kappa * np.asarray(m0), np.eye(len(m0)),
                                      (1 - kappa) ** 2 * np.asarray(sigma))


class TestSampling:
    def test_point_mass_exact(self):
        h0 = np.array([[1.0, 2j], [0.5, 1.0]])
        law = channels.PointMass(h0)
        for _ in range(3):
            assert np.array_equal(channels.sample_batch(law, 1, rng())[0], h0)

    def test_kronecker_unit_variance(self):
        h = channels.sample_batch(IID_2x2, 100_000, rng(1))
        mean_sq = (np.abs(h) ** 2).mean(axis=0)
        assert np.abs(mean_sq - 1.0).max() < 0.02

    def test_circular_symmetry_halves(self):
        h = channels.sample_batch(IID_2x2, 100_000, rng(2))
        assert abs(h.real.var() - 0.5) < 0.01
        assert abs(h.imag.var() - 0.5) < 0.01
        assert abs((h.real * h.imag).mean()) < 0.01

    def test_kappa_law_endpoints(self):
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]])
        law1 = kappa_law(1.0, m0, np.diag([4.0, 1.0]))
        assert np.allclose(channels.sample_batch(law1, 1, rng(3))[0], m0)
        law0 = kappa_law(0.0, m0, np.diag([4.0, 1.0]))
        h = channels.sample_batch(law0, 50_000, rng(4))
        assert np.abs(h.mean(axis=0)).max() < 0.05

    def test_matrix_gaussian_respects_cov(self):
        # vec covariance with correlated first column entries
        r = t = 2
        g = rng(5).standard_normal((r * t, r * t)) / 2
        cov = g @ g.T + np.eye(r * t)
        law = channels.MatrixGaussian(np.zeros((r, t)), cov)
        h = channels.sample_batch(law, 200_000, rng(6))
        vec = h.transpose(0, 2, 1).reshape(-1, r * t)  # stacked columns
        emp = (vec[:, :, None] * vec[:, None, :].conj()).mean(axis=0)
        assert np.abs(emp - cov).max() < 0.05 * np.abs(cov).max()

    def test_matrix_gaussian_semidefinite_cov_draws_in_its_range(self):
        # rank-one vec covariance v v^H: every vec(H) is a multiple of v, and its
        # power |v|^2 matches the covariance's trace
        v = np.array([1.0, 0.5j, -0.5, 0.25])
        law = channels.MatrixGaussian(np.zeros((2, 2)), np.outer(v, v.conj()))
        h = channels.sample_batch(law, 100_000, rng(16))
        vec = h.transpose(0, 2, 1).reshape(-1, 4)  # stacked columns
        off = vec - np.outer(vec @ v.conj() / np.vdot(v, v), v)
        assert np.abs(off).max() <= 1e-12
        assert abs(np.mean(np.sum(np.abs(vec) ** 2, axis=1)) / np.vdot(v, v).real - 1) < 0.02

    def test_mixture_frequencies(self):
        atoms = [np.array([[0.0]]), np.array([[1.0]])]
        law = channels.FiniteMixture([0.25, 0.75], atoms)
        h = channels.sample_batch(law, 100_000, rng(7))
        assert abs(h.real.mean() - 0.75) < 0.01

    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            channels.FiniteMixture([0.5, 0.6], [np.eye(1), np.eye(1)])

    @pytest.mark.parametrize("r,t", [(2, 2), (3, 4), (4, 2)])
    def test_kronecker_products_match_three_factor_einsum(self, r, t):
        g = rng(8)
        a = g.normal(size=(r, r)) + 1j * g.normal(size=(r, r))
        b = g.normal(size=(t, t)) + 1j * g.normal(size=(t, t))
        mean = g.normal(size=(r, t)) + 1j * g.normal(size=(r, t))
        law = channels.KroneckerGaussian(mean, a @ a.conj().T, b @ b.conj().T)
        h = channels.sample_batch(law, 500, rng(9))
        z = linalg._circular_gaussian(rng(9), (500, r, t))
        ref = mean + np.einsum("ij,sjk,kl->sil", linalg.psd_sqrt(law.rx_corr), z,
                               linalg.psd_sqrt(law.tx_corr))
        assert np.abs(h - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("r,t", [(1, 3), (2, 2), (3, 4), (4, 2)])
    def test_identity_rx_corr_draws_equal_the_two_product_formula(self, r, t):
        # R = I skips the R^1/2 product; the draws must keep every bit
        g = rng(13)
        b = g.normal(size=(t, t)) + 1j * g.normal(size=(t, t))
        mean = g.normal(size=(r, t)) + 1j * g.normal(size=(r, t))
        law = channels.KroneckerGaussian(mean, np.eye(r), b @ b.conj().T)
        z = linalg._circular_gaussian(rng(14), (700, r, t))
        z = (z.reshape(-1, t) @ linalg.psd_sqrt(law.tx_corr)).reshape(700, r, t)
        z = z.transpose(1, 0, 2).reshape(r, 700 * t)
        z = (linalg.psd_sqrt(np.eye(r)) @ z).reshape(r, 700, t)
        ref = np.add(z.transpose(1, 0, 2), mean, order="C")
        assert np.array_equal(channels.sample_batch(law, 700, rng(14)), ref)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("rx", ["identity", "correlated"])
    def test_kronecker_projected_draws_have_the_moments_of_h_p(self, rx, rank):
        # Y = M P + R^1/2 G_k (P^H T P)^1/2: E[Y] = M P, E[Y^H Y] = P^H (M^H M + tr R T) P
        r, t, n = 3, 4, 200_000
        g = rng(15)
        a = g.normal(size=(r, r)) + 1j * g.normal(size=(r, r))
        b = g.normal(size=(t, t)) + 1j * g.normal(size=(t, t))
        mean = g.normal(size=(r, t)) + 1j * g.normal(size=(r, t))
        law = channels.KroneckerGaussian(mean, np.eye(r) if rx == "identity" else a @ a.conj().T,
                                         b @ b.conj().T / t)
        lam = np.zeros(t)
        lam[:rank] = 1.0 / rank
        p = montecarlo._thin_factor(covopt._covariance(linalg.haar_unitary(t, rng(16)), lam))
        y = law.sample_projected(n, rng(17), p)
        assert y.shape == (n, r, 2)
        if rank == 1:  # the padded column of P stays exactly zero
            assert not y[:, :, 1].any()
        gram = np.einsum("sri,srj->sij", y.conj(), y)
        ref_gram = p.conj().T @ (mean.conj().T @ mean
                                 + np.trace(law.rx_corr).real * law.tx_corr) @ p
        for draws, ref in ((y, mean @ p), (gram, ref_gram)):
            for part in (np.real, np.imag):
                v = part(draws)
                se = v.std(axis=0, ddof=1) / np.sqrt(n)
                assert np.all(np.abs(v.mean(axis=0) - part(ref)) <= 4 * se + 1e-12)

    @pytest.mark.parametrize("law", [
        channels.MatrixGaussian(np.ones((2, 3)), np.diag(np.linspace(0.5, 1.5, 6))),
        channels.FiniteMixture([0.3, 0.7], [np.ones((2, 3)), np.eye(2, 3)]),
        channels.PointMass(np.arange(6.0).reshape(2, 3)),
    ], ids=["matrix-gaussian", "mixture", "point"])
    def test_projected_draws_of_other_laws_are_sample_batch_times_p(self, law):
        p = rng(18).normal(size=(3, 2)) + 1j * rng(19).normal(size=(3, 2))
        assert np.array_equal(law.sample_projected(300, rng(20), p),
                              channels.sample_batch(law, 300, rng(20)) @ p)

    @pytest.mark.parametrize("r,t", [(2, 2), (3, 4), (4, 2)])
    def test_kappa_law_draws_are_the_interpolation(self, r, t):
        g = rng(10)
        b = g.normal(size=(t, t)) + 1j * g.normal(size=(t, t))
        m0 = g.normal(size=(r, t)) + 1j * g.normal(size=(r, t))
        sigma = b @ b.conj().T
        law = kappa_law(0.3, m0, sigma)
        h = channels.sample_batch(law, 500, rng(11))
        z = linalg._circular_gaussian(rng(11), (500, r, t))
        ref = 0.3 * m0 + 0.7 * np.einsum("sij,jk->sik", z, linalg.psd_sqrt(sigma))
        assert np.abs(h - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_mixture_draws_equal_per_draw_stack(self):
        atoms = [np.diag([1.0, 2j]), np.ones((2, 2)), np.zeros((2, 2))]
        law = channels.FiniteMixture([0.2, 0.5, 0.3], atoms)
        idx = rng(12).choice(3, size=1000, p=law.weights)
        ref = np.stack([law.atoms[i] for i in idx])
        assert np.array_equal(channels.sample_batch(law, 1000, rng(12)), ref)

    @pytest.mark.parametrize("make", [
        lambda c: channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), c),
        lambda c: channels.KroneckerGaussian(np.zeros((2, 2)), c, np.eye(2)),
        lambda c: channels.MatrixGaussian(np.zeros((1, 2)), c),
    ], ids=["tx_corr", "rx_corr", "cov"])
    def test_correlations_must_be_psd(self, make):
        # Hermitian, but one eigenvalue is negative
        with pytest.raises(ValueError, match="positive semidefinite"):
            make(np.diag([1.5, -0.5]))
        make(np.array([[1.0, 1.0], [1.0, 1.0]]))  # rank one is PSD

    def test_matrix_factors_are_built_once_per_law(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(a):
                calls.append(fn.__name__)
                return fn(a)
            return wrapper

        monkeypatch.setattr(channels, "psd_sqrt", counted(linalg.psd_sqrt))
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        laws = [channels.KroneckerGaussian(np.ones((2, 2)), c, c),
                channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), c),
                _exact_law(3, 2),
                channels.MatrixGaussian(np.zeros((2, 1)), c)]
        assert calls == []  # none at construction: a law never sampled builds none
        laws[2].exact_mi(np.eye(2) / 2, 1.0)
        for law in laws:
            channels.sample_batch(law, 10, rng(15))
        # two square roots per Kronecker law but one at R = I, one per vec covariance
        assert calls == ["psd_sqrt"] * 6
        calls.clear()
        for law in laws:
            channels.sample_batch(law, 10, rng(15))
        for _ in range(3):
            laws[2].exact_mi(np.eye(2) / 2, 1.0)
        assert calls == []


class TestExpectedGram:
    def test_iid_closed_form(self):
        r = 3
        law = channels.KroneckerGaussian(np.zeros((r, 2)), np.eye(r), np.eye(2))
        assert np.allclose(law.expected_gram(), r * np.eye(2))

    def test_diagonal_correlations(self):
        rho, tau = 1.3, 0.4
        law = channels.KroneckerGaussian(
            np.zeros((2, 2)), np.diag([rho, 2 - rho]), np.diag([tau, 2 - tau]))
        assert np.allclose(law.expected_gram(), 2 * np.diag([tau, 2 - tau]))

    def test_kronecker_with_mean_vs_monte_carlo(self):
        m = np.array([[1.0, 0.5j], [0.0, 1.0]])
        law = channels.KroneckerGaussian(m, np.diag([1.5, 0.5]), np.diag([0.8, 1.2]))
        est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                            law, samples=100_000, rng=SeededStream(8))
        closed = law.expected_gram()
        assert np.all(np.abs(est.mean - closed) <= 3 * est.se + 1e-12)

    def test_kappa_law_closed_form(self):
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]])
        sig = np.diag([4.0, 1.0])
        for kappa in (0.0, 0.3, 0.8):
            law = kappa_law(kappa, m0, sig)
            expect = kappa**2 * m0.conj().T @ m0 + (1 - kappa) ** 2 * 2 * sig
            assert np.allclose(law.expected_gram(), expect)
            est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                                law, samples=60_000, rng=SeededStream(9))
            assert np.all(np.abs(est.mean - expect) <= 3 * est.se + 1e-12)

    def test_matrix_gaussian_block_trace(self):
        g = rng(10).standard_normal((4, 4)) / 2
        cov = g @ g.T + np.eye(4)
        law = channels.MatrixGaussian(np.zeros((2, 2)), cov)
        est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                            law, samples=100_000, rng=SeededStream(11))
        closed = law.expected_gram()
        assert np.all(np.abs(est.mean - closed) <= 3 * est.se + 1e-12)


class TestWishartDensity:
    def test_closed_form_1x1(self):
        f = channels.wishart_density(1, 1)
        grid = np.linspace(0.01, 10, 50)
        assert np.abs(f.pdf(grid) - np.exp(-grid)).max() < 1e-12
        assert np.isclose(f.pdf(1.0), np.exp(-1.0), atol=1e-15)

    def test_closed_form_2x2(self):
        f = channels.wishart_density(2, 2)
        grid = np.linspace(0.01, 12, 50)
        expect = (2 + (grid - 2) * grid) / (2 * np.exp(grid))
        assert np.abs(f.pdf(grid) - expect).max() < 1e-12
        assert np.isclose(f.pdf(2.0), np.exp(-2.0), atol=1e-15)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (4, 4), (2, 4)])
    def test_normalization(self, m, n):
        f = channels.wishart_density(m, n)
        total, _ = scipy.integrate.quad(f.pdf, 0, np.inf, limit=300)
        assert abs(total - 1.0) < 1e-6

    def test_pdf_nonnegative_on_grid(self):
        for m, n in [(2, 2), (4, 4), (3, 5)]:
            f = channels.wishart_density(m, n)
            grid = np.linspace(0, n + 10 * np.sqrt(n), 1000)
            assert np.all(f.pdf(grid) >= 0)

    @pytest.mark.parametrize("m,n", [(4, 4), (2, 4)])
    def test_against_sampled_eigenvalues(self, m, n):
        f = channels.wishart_density(m, n)
        eigs = np.sort(f.sample_eigs(100_000, rng(12)), axis=None)
        grid = np.linspace(0.01, n + 10 * np.sqrt(n), 300)
        cdf_grid = np.concatenate([[0.0], np.cumsum([
            scipy.integrate.quad(f.pdf, a, b, limit=100)[0]
            for a, b in zip(grid[:-1], grid[1:])])])
        cdf_grid += f.cdf(grid[0])
        emp = np.searchsorted(eigs, grid, side="right") / eigs.size
        ks = np.abs(emp - cdf_grid).max()
        assert ks < 0.01

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4)])
    def test_bidiagonal_draws_match_wishart_moments(self, m, n):
        # E tr W = mn, E tr W^2 = mn(m + n) and E ln det W = sum_i psi(n - i)
        f = channels.wishart_density(m, n)
        eigs = f.sample_eigs(100_000, SeededStream(m * 10 + n).generator())
        assert eigs.shape == (100_000, m)
        assert np.all(np.diff(eigs, axis=1) >= 0) and np.all(eigs >= 0)
        stats = [eigs.sum(axis=1), (eigs ** 2).sum(axis=1), np.log(eigs).sum(axis=1)]
        exact = [m * n, m * n * (m + n), scipy.special.digamma(n - np.arange(m)).sum()]
        for x, mean in zip(stats, exact):
            assert abs(x.mean() - mean) <= 4 * x.std() / np.sqrt(x.size)
        again = f.sample_eigs(100_000, SeededStream(m * 10 + n).generator())
        assert np.array_equal(eigs, again)

    def test_requires_m_le_n(self):
        with pytest.raises(ValueError):
            channels.wishart_density(3, 2)

    def test_admitted_shapes_keep_their_unit_mass(self):
        # the expansion's cancellation, eps sum_j |c_j| j!, reaches 1.5e-8 at 11 x 11
        # and 5e-4 at 16 x 16; a shape it exceeds 1e-8 in is refused
        admitted = []
        for n in range(1, 25):
            for m in range(1, n + 1):
                try:
                    f = channels.wishart_density(m, n)
                except ValueError as e:
                    assert "cancels" in str(e)
                    continue
                admitted.append((m, n))
                assert abs(f.tail_moments(0.0)[0] - 1.0) <= 1e-8
        # the admitted n of each m run from n = m up to a widest shape, none from m = 11
        widest = {m: 24 for m in range(1, 7)} | {7: 21, 8: 16, 9: 13, 10: 11}
        assert admitted == [(m, n) for n in range(1, 25) for m in range(1, n + 1)
                            if n <= widest.get(m, 0)]

    def test_shapes_past_the_float_factorials_are_refused_before_expanding(self):
        assert channels.wishart_density(1, 171).tail_moments(0.0)[0] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="m \\+ n <= 172"):
            channels.wishart_density(1, 172)

    @pytest.mark.parametrize("m", [40, 60, 86])
    def test_shapes_whose_top_term_cancels_are_refused_before_expanding(self, m, monkeypatch):
        # eps C(2m - 2, m - 1) / m, the top term's share of eps sum_j |c_j| j!, tops 1e-8
        monkeypatch.setattr(channels, "Fraction", lambda *args: pytest.fail("expanded"))
        with pytest.raises(ValueError, match=f"{m} x {m} Wishart density cancels"):
            channels.WishartDensity(m, m)


def _quad(f, fn, lo, hi=np.inf):
    """Reference integral of fn * pdf by adaptive quadrature."""
    val, _ = scipy.integrate.quad(lambda x: fn(x) * f.pdf(x), lo, hi,
                                  epsabs=0.0, epsrel=1e-12, limit=300)
    return val


MOMENT_SHAPES = [(1, 1), (2, 2), (4, 4), (2, 4), (3, 5)]
TAIL_POINTS = [1e-3, 0.05, 0.3, 1.0, 3.0]


class TestClosedFormMoments:
    @pytest.mark.parametrize("m,n", MOMENT_SHAPES)
    def test_tails_and_cdf_match_quadrature(self, m, n):
        f = channels.wishart_density(m, n)
        for a in TAIL_POINTS:
            ref = [_quad(f, np.ones_like, a), _quad(f, np.reciprocal, a), _quad(f, np.log, a),
                   _quad(f, np.ones_like, 0.0, a)]
            np.testing.assert_allclose([*f.tail_moments(a), f.cdf(a)], ref, rtol=1e-9)
        np.testing.assert_allclose(f.cdf(np.array(TAIL_POINTS)),
                                   [f.cdf(a) for a in TAIL_POINTS], rtol=1e-14)

    @pytest.mark.parametrize("m,n", MOMENT_SHAPES)
    def test_whole_line_identities(self, m, n):
        f = channels.wishart_density(m, n)
        mass, inv, _ = f.tail_moments(0.0)
        assert mass == pytest.approx(1.0, rel=1e-14)
        assert f.cdf(0.0) == 0.0 and f.cdf(-1.0) == 0.0
        if n > m:
            assert inv == pytest.approx(1.0 / (n - m), rel=1e-13)
        else:
            assert inv == np.inf

    def test_rayleigh_tails(self):
        f = channels.wishart_density(1, 1)
        for a in TAIL_POINTS + [30.0]:
            e1 = scipy.special.exp1(a)
            np.testing.assert_allclose(f.tail_moments(a),
                                       [np.exp(-a), e1, np.exp(-a) * np.log(a) + e1],
                                       rtol=1e-14)
        assert f.tail_moments(0.0)[2] == pytest.approx(-np.euler_gamma, rel=1e-15)

    def test_rayleigh_log1p_moment(self):
        f = channels.wishart_density(1, 1)
        for c in (1e-4, 1e-3, 1.0 / 650, 0.1, 1.0, 10.0, 1e3):
            assert f.log1p_moment(c) == pytest.approx(linalg.scaled_expn(1, 1 / c),
                                                      rel=1e-13)
        assert f.log1p_moment(0.0) == 0.0

    @pytest.mark.parametrize("m,n", MOMENT_SHAPES)
    def test_log1p_moment(self, m, n):
        f = channels.wishart_density(m, n)
        for c in (1e-2, 0.5, 20.0):
            assert f.log1p_moment(c) == pytest.approx(_quad(f, lambda x: np.log1p(c * x), 0.0),
                                                      rel=1e-9)
        # tiny c: b = 1/c is far past where e^b overflows; E[lam] = n, E[lam^2] = n(m + n)
        c = 1e-6
        val = f.log1p_moment(c)
        assert np.isfinite(val)
        assert val == pytest.approx(c * n - c**2 * n * (m + n) / 2, rel=1e-9)

    def test_pooled_and_discrete_tails_equal_their_sums(self):
        ones = np.ones_like
        pooled = channels.empirical_density(IID_2x2, 20_000, rng(19))
        discrete = channels.PointMassDensity([0.0, 0.5, 1.0, 2.5], [0.1, 0.2, 0.3, 0.4], m=2)
        for d in (pooled, discrete):
            for a in (0.0, 0.3, 1.0, 2.0):
                sums = [d.trunc_moment(ones, a), d.trunc_moment(np.reciprocal, a),
                        d.trunc_moment(np.log, a)]
                np.testing.assert_allclose(d.tail_moments(a), sums, rtol=1e-12, atol=1e-15)
            assert d.log1p_moment(0.7) == pytest.approx(
                d.trunc_moment(lambda x: np.log1p(0.7 * x), 0.0), rel=1e-12)


def _scipy_moments(f, a):
    """The Wishart tail moments from scipy.special, as the package took them
    before its own routines; the log part also returns sum_j |c_j I_j|."""
    coef, j = f._coef, np.arange(f._coef.size)
    upper = scipy.special.factorial(j) * scipy.special.gammaincc(j + 1, a)  # Gamma(j + 1, a)
    e1 = scipy.special.exp1(a)
    mass = coef @ upper
    inv = coef[1:] @ upper[:-1] + (coef[0] * e1 if coef[0] else 0.0)
    edge = np.exp(-a) * np.log(a)
    i_j = edge + e1
    terms = [coef[0] * i_j]
    for jj in range(1, coef.size):
        edge *= a
        i_j = edge + jj * i_j + upper[jj - 1]
        terms.append(coef[jj] * i_j)
    return mass, inv, sum(terms), sum(abs(t) for t in terms)


class TestSpecialFunctions:
    """The incomplete gammas, Laguerre polynomials and moments the Wishart density
    takes from its own routines, against scipy.special and mpmath."""

    def test_upper_gammas_to_order_40(self):
        # one-hot coefficients read Gamma(j + 1, a) off the mass and Gamma(j, a) off
        # the inverse moment; scipy's gammaincc is itself up to 1.1e-13 off mpmath
        # above a = 550, so mpmath is the oracle
        for a in (0.0, 1e-3, 0.4, 2.5, 9.0, 31.0, 120.0, 550.0, 700.0):
            for j in range(41):
                onehot = tuple(float(i == j) for i in range(41))
                mass, inv, _ = channels._tail_sums(onehot, a)
                with mpmath.workdps(40):
                    upper = float(mpmath.gammainc(j + 1, a))
                    lower = float(mpmath.gammainc(j, a)) if j or a else np.inf
                assert mass == pytest.approx(upper, rel=1e-14)
                assert inv == pytest.approx(lower, rel=1e-14)

    def test_upper_gammas_agree_with_scipy_on_a_dense_grid(self):
        a_grid = np.logspace(-3, np.log10(700), 400)
        for j in range(41):
            onehot = tuple(float(i == j) for i in range(41))
            got = [channels._tail_sums(onehot, a)[0] for a in a_grid]
            ref = scipy.special.gamma(j + 1) * scipy.special.gammaincc(j + 1, a_grid)
            np.testing.assert_allclose(got, ref, rtol=2e-13)

    def test_lower_gamma_keeps_relative_accuracy_near_zero(self):
        got = channels._lower_gamma(40, 1e-8)
        for j in range(1, 32):  # P(32, 1e-8) is below the normal range
            with mpmath.workdps(40):
                ref = float(mpmath.gammainc(j, 0, 1e-8, regularized=True))
            assert got[j - 1] == pytest.approx(ref, rel=1e-14)

    def test_lower_gamma_against_scipy_and_at_the_series_cut(self):
        x = np.logspace(-8, np.log10(700), 500)
        got = np.array([channels._lower_gamma(40, v) for v in x])
        ref = scipy.special.gammainc(np.arange(1, 41), x[:, None])
        normal = ref > 1e-290
        # scipy's own error reaches 1.8e-13 at small x
        np.testing.assert_allclose(got[normal], ref[normal], rtol=3e-13)
        for j in (1, 10, 40):  # just below the order the series is longest
            x0 = j * (1 - 1e-9)
            with mpmath.workdps(40):
                ref = float(mpmath.gammainc(j, 0, x0, regularized=True))
            assert channels._lower_gamma(40, x0)[j - 1] == pytest.approx(ref, rel=1e-14)

    def test_laguerre_recurrence(self):
        # judged against sum_i |terms| = L_k^d(-x), since L_k^d has roots
        x = np.logspace(-3, 2, 400)
        for d in range(9):
            for k, lk in enumerate(channels._laguerre(9, d, x)):
                ref = scipy.special.eval_genlaguerre(k, d, x)
                scale = scipy.special.eval_genlaguerre(k, d, -x)
                assert np.all(np.abs(lk - ref) <= 1e-14 * scale)

    @pytest.mark.parametrize("m,n", MOMENT_SHAPES)
    def test_density_matches_the_scipy_expressions(self, m, n):
        f = channels.wishart_density(m, n)
        d, j = n - m, np.arange(f._coef.size)
        lam = np.logspace(-8, 2.5, 300)
        pdf = sum(scipy.special.factorial(k) / scipy.special.factorial(k + d)
                  * scipy.special.eval_genlaguerre(k, d, lam) ** 2 for k in range(m))
        np.testing.assert_allclose(f.pdf(lam), pdf * lam**d * np.exp(-lam) / m, rtol=1e-13)
        cdf = scipy.special.gammainc(j + 1, lam[:, None]) @ (f._coef * scipy.special.factorial(j))
        np.testing.assert_allclose(f.cdf(lam), cdf, rtol=1e-13)
        for a in np.logspace(-6, np.log10(700), 60):
            mass, inv, log, log_scale = _scipy_moments(f, a)
            got = f.tail_moments(a)
            assert got[0] == pytest.approx(mass, rel=1e-13)
            assert got[1] == pytest.approx(inv, rel=1e-13)
            # near its zero the log part is a difference of terms up to 150 times larger
            assert abs(got[2] - log) <= 1e-13 * log_scale
        for c in np.logspace(np.log10(1 / 600), 4, 40):  # e^(1/c) E_n(1/c) from scipy
            b = 1.0 / c
            k = scipy.special.factorial(j) * np.exp(b) * scipy.special.expn(j + 1, b)
            ref = j_prev = 0.0
            for jj, (cj, kj) in enumerate(zip(f._coef, k)):  # J_j = j J_(j-1) + K_j
                j_prev = jj * j_prev + kj
                ref += cj * j_prev
            assert f.log1p_moment(c) == pytest.approx(ref, rel=1e-13)

    def test_coefficients_expand_once_read_only(self):
        f, g = channels.wishart_density(3, 5), channels.wishart_density(3, 5)
        assert f._coef is g._coef is channels._wishart_coefficients(3, 5)
        with pytest.raises(ValueError):
            f._coef[0] = 1.0


class TestEmpiricalDensity:
    def test_point_mass_law_collapses_to_masses(self):
        law = channels.PointMass(np.diag([np.sqrt(2.0), 1.0]))
        d = channels.empirical_density(law, 1000, rng(13))
        assert isinstance(d, channels.PointMassDensity)
        assert np.allclose(d.values, [1.0, 2.0])
        assert np.allclose(d.weights, [0.5, 0.5])
        assert d.m == 2

    def test_rayleigh_mean_eigenvalue(self):
        law = channels.KroneckerGaussian(np.zeros((1, 1)), np.eye(1), np.eye(1))
        d = channels.empirical_density(law, 100_000, rng(14))
        mean = d.trunc_moment(lambda lam: lam, 0.0)
        assert abs(mean - 1.0) < 0.02

    def test_onoff_style_mixture(self):
        law = channels.FiniteMixture(
            [0.4, 0.6], [np.zeros((1, 1)), np.ones((1, 1))])
        d = channels.empirical_density(law, 1000, rng(15))
        assert np.allclose(d.values, [0.0, 1.0])
        assert np.allclose(d.weights, [0.4, 0.6])

    def test_pool_floor(self):
        with pytest.raises(ValueError):
            channels.empirical_density(IID_2x2, 100, rng(16))

    @pytest.mark.parametrize("r,t", [(2, 2), (2, 4), (4, 4)])
    def test_rank_deficient_law_has_exact_zero_modes(self, r, t):
        g = rng(18)
        v = g.normal(size=(t, 1)) + 1j * g.normal(size=(t, 1))
        law = channels.KroneckerGaussian(np.zeros((r, t)), np.eye(r), v @ v.conj().T)
        eigs = channels.gram_eigs(channels.sample_batch(law, 20_000, rng(19)))
        assert np.all(eigs[:, :-1] == 0.0) and np.all(eigs[:, -1] > 0.0)
        d = channels.empirical_density(law, 20_000, rng(19))
        assert d.cdf(0.0) == (min(r, t) - 1) / min(r, t)

    def test_full_rank_eigenvalues_are_untouched(self):
        law = channels.KroneckerGaussian(np.zeros((4, 4)), np.eye(4),
                                         np.diag([2.0, 1.0, 0.6, 0.4]))
        for size, seed in [(20_000, 20), (5_000, 21)]:
            h = channels.sample_batch(law, size, rng(seed))
            ref = np.maximum(np.linalg.eigvalsh(channels._small_gram(h)), 0.0)
            assert np.array_equal(channels.gram_eigs(h), ref)

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
    def test_closed_form_2x2_matches_lapack(self, scale):
        g = rng(22)

        def gram(h):
            return np.einsum("sik,sjk->sij", h, h.conj())

        h = g.normal(size=(2000, 2, 3)) + 1j * g.normal(size=(2000, 2, 3))
        v = g.normal(size=(2000, 2, 1)) + 1j * g.normal(size=(2000, 2, 1))
        diag = np.zeros((2000, 2, 2))
        diag[:, 0, 0], diag[:, 1, 1] = g.exponential(size=2000), g.exponential(size=2000)
        # random, rank-1 and diagonal rows; scaling H by 1e100 puts a c at 1e400
        for rows in (gram(scale * h), gram(scale * v), scale ** 2 * diag):
            ref = np.linalg.eigvalsh(rows)
            got = channels._small_eigvalsh(rows)
            assert np.all(np.abs(got - ref) <= 1e-13 * ref[:, -1:])

    def test_cdf_and_moments_consistent(self):
        d = channels.empirical_density(IID_2x2, 20_000, rng(17))
        assert d.cdf(0.0) == 0.0
        assert np.isclose(d.cdf(1e9), 1.0)
        mass_above = d.trunc_moment(lambda lam: np.ones_like(lam), 1.0)
        assert np.isclose(mass_above, 1.0 - d.cdf(1.0), atol=1e-12)


RICEAN_4x4 = channels.KroneckerGaussian(np.diag([4.0, 0.0, 0.0, 0.0]), np.eye(4),
                                        0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))


def traced_peak(fn) -> tuple:
    """``fn()`` and the peak bytes it allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedDraws:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (4, 4)])
    def test_wishart_rows_do_not_depend_on_the_block(self, m, n):
        size = 3 * channels._BLOCK + 17
        got = channels.wishart_density(m, n).sample_eigs(size, rng(30))
        # the rows of one tridiagonal stack built from one Gamma draw of all rows
        shapes = np.concatenate([np.arange(n, n - m, -1), np.arange(m - 1, 0, -1)])
        sq = rng(30).standard_gamma(shapes, size=(size, 2 * m - 1))
        diag, sub = sq[:, :m], sq[:, m:]
        tri = np.zeros((size, m, m))
        i = np.arange(m)
        tri[:, i, i] = diag
        tri[:, i[1:], i[1:]] += sub
        tri[:, i[1:], i[:-1]] = tri[:, i[:-1], i[1:]] = np.sqrt(diag[:, :-1] * sub)
        ref = np.maximum(channels._small_eigvalsh(tri, diag.prod(axis=1)), 0.0)
        assert np.array_equal(got, ref)

    def test_law_pool_of_one_block_is_one_draw(self):
        law = channels.KroneckerGaussian(np.zeros((2, 3)), np.array([[1.0, 0.4], [0.4, 1.0]]),
                                         np.diag([1.5, 1.0, 0.5]))
        ref = channels.gram_eigs(channels.sample_batch(law, channels._BLOCK, rng(31)))
        assert np.array_equal(law.draw_rows(channels._BLOCK, rng(31))[0], ref)
        assert np.array_equal(channels.empirical_density(law, channels._BLOCK, rng(31)).draws, ref)

    def test_pool_tail_sums_are_the_appended_cumulative_sums(self):
        d = channels.empirical_density(RICEAN_4x4, 5000, rng(32))
        flat = np.sort(d.draws, axis=None)
        pos = flat > 0
        inv = np.divide(1.0, flat, out=np.zeros_like(flat), where=pos)
        log = np.log(flat, out=np.zeros_like(flat), where=pos)
        assert np.array_equal(d._inv_tail, np.append(np.cumsum(inv[::-1])[::-1], 0.0))
        assert np.array_equal(d._log_tail, np.append(np.cumsum(log[::-1])[::-1], 0.0))

    def test_pooled_density_holds_its_pool_and_one_block(self):
        # the draws, the sorted pool and its two tail sums: 4 x 6.4 MB; 146.5 MiB once
        pool = 200_000
        _, peak = traced_peak(lambda: channels.empirical_density(RICEAN_4x4, pool, rng(33)))
        assert peak <= 4 * pool * 4 * 8 + 4 * 2**20


class TestOnOffDensity:
    def test_always_on(self):
        d = channels.onoff_density(2, 1.0)
        assert np.allclose(d.values, [1.0]) and np.allclose(d.weights, [1.0])

    def test_always_off(self):
        d = channels.onoff_density(2, 0.0)
        assert np.allclose(d.values, [0.0])

    def test_half(self):
        d = channels.onoff_density(3, 0.5)
        assert np.isclose(d.cdf(0.5), 0.5)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            channels.onoff_density(2, 1.5)


class TestLawMoments:
    @pytest.mark.parametrize("law,mean", [
        (channels.PointMass(np.array([[1.0, 2j], [0.5, 1.0]])),
         np.array([[1.0, 2j], [0.5, 1.0]])),
        (IID_2x2, np.zeros((2, 2))),
        (channels.KroneckerGaussian(np.ones((2, 2)), np.diag([1.5, 0.5]),
                                    np.diag([0.7, 1.3])), np.ones((2, 2))),
        (kappa_law(0.6, np.array([[0.0, 1.0], [1.0, 1.0]]), np.diag([4.0, 1.0])),
         0.6 * np.array([[0.0, 1.0], [1.0, 1.0]])),
        (channels.FiniteMixture([0.3, 0.7], [np.zeros((2, 2)), np.eye(2)]),
         0.7 * np.eye(2)),
        (channels.MatrixGaussian(np.full((2, 2), 0.5j), 2 * np.eye(4)),
         np.full((2, 2), 0.5j)),
    ])
    def test_sample_mean_matches_law_mean(self, law, mean):
        est = expect_matrix(lambda h: h, law, samples=100_000, rng=SeededStream(77))
        assert np.all(np.abs(est.mean - mean) <= 3 * est.se + 1e-12)


class ScaledColumns(channels.ChannelLaw):
    """H = G diag(a), G iid CN(0, 1): a law family the package does not know,
    defining only what every family must."""

    def __init__(self, r, a):
        self.r, self.a = r, np.asarray(a, dtype=float)

    @property
    def shape(self):
        return self.r, self.a.size

    def sample_batch(self, size, rng):
        shape = (size, *self.shape)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2) * self.a

    def expected_gram(self):
        return self.r * np.diag(self.a ** 2).astype(complex)


def test_a_law_family_the_package_never_saw_runs_everywhere():
    law = ScaledColumns(3, [1.2, 0.6])
    twin = channels.KroneckerGaussian(np.zeros((3, 2)), np.eye(3), np.diag([1.44, 0.36]))
    assert np.allclose(law.expected_gram(), twin.expected_gram())
    q = np.diag([0.7, 0.3])
    mi = ergodic_mi(q, law, 2.0, 20_000, SeededStream(1))
    ref = ergodic_mi(q, twin, 2.0, 20_000, SeededStream(2))
    assert mi.se > 0 and abs(mi.mean - ref.mean) <= 4 * np.hypot(mi.se, ref.se)
    opts = OptimizerOptions(samples=2000, final_samples=4000, max_iter=40, tol=1e-2)
    res = covopt.iterate_general(law, 2.0, opts)
    assert np.all(np.isfinite(res.q)) and np.isfinite(res.mi.mean) and res.iterations > 0
    dens = channels.empirical_density(law, 10_000, rng(3))
    assert isinstance(dens, channels.EmpiricalDensity) and dens.m == 2
    assert np.isfinite(waterfill.st_capacity(dens, waterfill.st_water_level(dens, 1.0)))
    assert np.isfinite(waterfill.naive_avg_rate(law, 1.0, samples=2000))


def _exact_law(r, t):
    """Zero-mean Kronecker law with rx_corr = 0.8 I and a correlated T."""
    tx = 0.5 * np.ones((t, t)) + np.diag(np.linspace(0.3, 1.0, t))
    return channels.KroneckerGaussian(np.zeros((r, t)), 0.8 * np.eye(r), tx)


#: Hessian of E ln det(I + W diag(sigma)) at sigma = 0.7 e^(0.14 k), k = 0..4, r = 16:
#: mpmath's 40-digit second differences of tr(V^-1 B') with each J_n by quadrature
HESS_CHAIN_16 = np.array([
    [-1.6148020015353977, -0.001304093648420939, -0.0010116080734463317,
     -0.0007822914471549561, -0.0006032882168089858],
    [-0.001304093648420939, -1.256297356447245, -0.0007874673196624945,
     -0.0006089656616329225, -0.00046962659144389495],
    [-0.0010116080734463317, -0.0007874673196624945, -0.9740557864382754,
     -0.00047239826839411684, -0.00036431034394527874],
    [-0.0007822914471549561, -0.0006089656616329225, -0.00047239826839411684,
     -0.7529245221656202, -0.00028173566117881913],
    [-0.0006032882168089858, -0.00046962659144389495, -0.00036431034394527874,
     -0.00028173566117881913, -0.5804170553924103]])


def _log_det_moment_40_digits(r, sigma):
    """E ln det(I + W diag(sigma)) = tr(V^-1 B') and its gradient
    tr(V^-1 (d_i B' - d_i V V^-1 B')) in 40-digit mpmath, for distinct nonzero sigma:
    V_ij = sigma_i^j, B'_ij = V_ij J_(n_j)(sigma_i) / n_j!, n_j = r - k + j, with
    J_n(x) = int ln(1 + x u) u^n e^-u du and J_n'(x) = int u^(n+1) e^-u / (1 + x u) du
    by quadrature."""
    with mpmath.workdps(40):
        s, k = [mpmath.mpf(float(x)) for x in sigma], len(sigma)
        v, b, dv, db = (mpmath.matrix(k, k) for _ in range(4))
        for i, x in enumerate(s):
            for j in range(k):
                n = r - k + j
                jn = mpmath.quad(lambda u: mpmath.log1p(x * u) * u ** n * mpmath.exp(-u),
                                 [0, mpmath.inf])
                djn = mpmath.quad(lambda u: u ** (n + 1) * mpmath.exp(-u) / (1 + x * u),
                                  [0, mpmath.inf])
                v[i, j], dv[i, j] = x ** j, j * x ** (j - 1) if j else 0
                b[i, j] = v[i, j] * jn / mpmath.factorial(n)
                db[i, j] = (dv[i, j] * jn + v[i, j] * djn) / mpmath.factorial(n)
        y = v ** -1
        p = y * b
        grad = []
        for i in range(k):
            rows = mpmath.matrix(k, k)  # only row i of B' and V depends on sigma_i
            for j in range(k):
                rows[i, j] = db[i, j] - sum(dv[i, a] * p[a, j] for a in range(k))
            grad.append(sum((y * rows)[a, a] for a in range(k)))
        return float(sum(p[a, a] for a in range(k))), np.array([float(g) for g in grad])


def _unit_trace_psd(t, seed):
    a = rng(seed).standard_normal((t, t)) + 1j * rng(seed + 1).standard_normal((t, t))
    q = a @ a.conj().T
    return q / np.trace(q).real


class TestExactMi:
    """Closed-form E ln det(I + gamma H Q H^H) of zero-mean Kronecker laws with R = c I."""

    def test_capability(self):
        assert _exact_law(2, 2).exact and _exact_law(3, 2).exact
        assert not _exact_law(2, 3).exact  # r < t
        z, eye = np.zeros((2, 2)), np.eye(2)
        assert not channels.KroneckerGaussian(np.ones((2, 2)), eye, eye).exact
        assert not channels.KroneckerGaussian(z, np.diag([1.0, 0.9]), eye).exact
        assert not channels.PointMass(eye).exact
        with pytest.raises(ValueError):
            channels.KroneckerGaussian(z, np.diag([1.0, 0.9]), eye).exact_mi(eye / 2, 1.0)

    def test_capability_ends_where_the_closed_form_was_checked(self):
        # a chain of sigma spaced just under _CLUSTER is one cluster: at t = 9 its
        # Taylor rows diverge; at t = 5, r = 32 and at t = 6, r = 40 the gradient
        # lost 1e-3 and 7e-2 against 80-digit arithmetic
        assert _exact_law(16, 5).exact
        assert not _exact_law(6, 6).exact and not _exact_law(17, 5).exact
        chain = np.diag(np.exp(0.14 * np.arange(9)))
        assert not channels.KroneckerGaussian(np.zeros((9, 9)), np.eye(9), chain).exact

    def test_log1p_moment_keeps_the_shared_recursion_bit_for_bit(self):
        # the J recursion moved into _log1p_integrals; this is its loop as it was
        for m, n in [(2, 2), (3, 5)]:
            d = channels.wishart_density(m, n)
            for c in (1e-4, 0.3, 7.0, 2e3):
                k = d._fact * linalg.scaled_expn(np.arange(1, d._fact.size + 1), 1.0 / c)
                total = j_prev = 0.0
                for j, (cj, kj) in enumerate(zip(d._coef, k)):
                    j_prev = j * j_prev + kj
                    total += cj * j_prev
                assert d.log1p_moment(c) == float(total)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4)], ids=str)
    @pytest.mark.parametrize("kind", ["t-diagonal", "generic"])
    def test_matches_monte_carlo(self, shape, gamma, kind):
        law = _exact_law(*shape)
        t = shape[1]
        if kind == "generic":
            q = _unit_trace_psd(t, 3 * t)
        else:
            u, _ = linalg.herm_eig(law.tx_corr)
            q = (u * np.linspace(1.0, 2.0, t) / np.linspace(1.0, 2.0, t).sum()) @ u.conj().T
        est = ergodic_mi(q, law, gamma, samples=400_000, rng=SeededStream(t * 10 + shape[0]))
        assert abs(law.exact_mi(q, gamma)[0] - est.mean) <= 3 * est.se

    @pytest.mark.parametrize("r, sigma", [
        (2, [0.5, 0.5]),
        (4, [0.7, 0.7, 0.7, 0.2]),
        (4, [0.25, 0.25, 0.25, 0.25]),  # iid 4 x 4 at Q = I/4, gamma = 1
        (5, [3.0, 3.0, 0.4, 0.4]),
    ], ids=["2-fold", "3-fold", "4-fold", "two-2-fold"])
    def test_continuous_across_coincident_sigma(self, r, sigma):
        sigma = np.array(sigma)
        f0, g0, _ = channels._log_det_moment(r, sigma)
        spread = np.arange(sigma.size) * sigma
        for eps in 10.0 ** -np.arange(1, 14):
            f, g, _ = channels._log_det_moment(r, sigma + eps * spread)
            # first-order change plus a second-order term below 1e-9 for eps <= 1e-5
            assert abs(f - f0 - eps * g0 @ spread) <= 1e-9 + 10 * eps ** 2
            assert np.abs(g - g0).max() <= 1e-8 + 10 * eps

    def test_continuous_across_the_cluster_edge(self):
        for k in (2, 3, 4):
            lo, hi = (channels._log_det_moment(4, 0.3 * np.exp(gap * np.arange(k)))
                      for gap in channels._CLUSTER * (1.0 + np.array([-1e-9, 1e-9])))
            assert abs(lo[0] - hi[0]) <= 1e-9 and np.abs(lo[1] - hi[1]).max() <= 1e-8

    def test_five_chained_sigma_at_r_16(self):
        # the largest capable law: one cluster 0.56 wide in ln(sigma); 80-digit values
        sigma = 0.7 * np.exp(0.14 * np.arange(5))
        f, g, _ = channels._log_det_moment(16, sigma)
        assert abs(f - 13.070635505746935) <= 1e-9 * 13.07
        ref = [1.2700592424112902, 1.1203715230283648, 0.9866168849419891,
               0.8674900163361464, 0.7617001554841595]
        assert np.abs(g - ref).max() <= 1e-6 * ref[0]
        # and continuous, relative to f ~ 13, where the chain breaks into five clusters
        lo, hi = (channels._log_det_moment(16, 0.7 * np.exp(gap * np.arange(5)))
                  for gap in channels._CLUSTER * (1.0 + np.array([-1e-9, 1e-9])))
        assert abs(lo[0] - hi[0]) <= 1e-9 * hi[0] and np.abs(lo[1] - hi[1]).max() <= 1e-6

    def test_gradient_inside_a_cluster_of_four_at_r_16(self):
        # sigma = 1.6 diag(1.3, 1.1, 1.0, 0.9, 0.7) q, q ~ e^(0.05 k): the four largest
        # share one cluster; exact_powers forms these sigma directly, and exact_mi's eigh
        # returns the smallest and the largest one ulp higher
        q = np.exp(0.05 * np.arange(5))
        sigma = 1.6 * np.array([1.3, 1.1, 1.0, 0.9, 0.7]) * (q / q.sum())
        assert np.count_nonzero(np.diff(np.log(np.sort(sigma))) <= channels._CLUSTER) == 3
        f, g = _log_det_moment_40_digits(16, sigma)
        moved = sigma.copy()
        moved[[0, 4]] = np.nextafter(moved[[0, 4]], np.inf)
        for s in (sigma, moved):
            got = channels._log_det_moment(16, s)
            assert abs(got[0] - f) <= 1e-10 * f
            assert np.abs(got[1] - g).max() <= 3e-7 * np.abs(g).max()

    def test_continuous_as_a_power_switches_off(self):
        law = _exact_law(3, 2)
        f0, g0 = law.exact_mi(np.diag([1.0, 0.0]), 1.0)
        for eps in (1e-8, 1e-11, 1e-13, 1e-15):
            f, g = law.exact_mi(np.diag([1.0 - eps, eps]), 1.0)
            assert abs(f - f0) <= 1e-9 + 10 * eps
            assert np.abs(g - g0).max() <= 1e-8 + 100 * eps

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4)], ids=str)
    def test_gradient_matches_central_differences(self, shape):
        law = _exact_law(*shape)
        t = shape[1]
        q = _unit_trace_psd(t, 5 * t)
        g = law.exact_mi(q, 1.0)[1]
        for seed in range(3):
            d = _unit_trace_psd(t, 40 + seed) - np.eye(t) / t
            h = 1e-4
            fd = (law.exact_mi(q + h * d, 1.0)[0] - law.exact_mi(q - h * d, 1.0)[0]) / (2 * h)
            assert abs(np.trace(g @ d).real - fd) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("r, sigma", [
        (3, [0.9, 0.4, 0.0]), (4, [0.5, 0.5, 0.0, 0.0]), (4, [2.0, 0.7, 0.7, 0.1])])
    def test_sigma_gradient_matches_differences(self, r, sigma):
        # central differences on powered sigma, second-order one-sided ones at zero
        sigma = np.array(sigma)
        grad = channels._log_det_moment(r, sigma)[1]
        for k, s in enumerate(sigma):
            h = 1e-4 * max(s, 0.1)
            f = [channels._log_det_moment(r, sigma + a * h * np.eye(sigma.size)[k])[0]
                 for a in (-1, 0, 1, 2)]
            fd = (f[2] - f[0]) / (2 * h) if s > 0 else (4 * f[2] - 3 * f[1] - f[3]) / (2 * h)
            assert abs(grad[k] - fd) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("r, sigma", [
        (3, [0.9, 0.4, 1.7]),
        (4, [0.7, 0.7, 0.7, 0.2]),
        (5, [3.0, 3.0, 0.4, 0.4]),
        (4, 0.3 * np.exp(0.1 * np.arange(4))),
        (4, 0.3 * np.exp(channels._CLUSTER * (1.0 - 1e-3) * np.arange(3))),
        (4, 0.3 * np.exp(channels._CLUSTER * (1.0 + 1e-3) * np.arange(3))),
        (3, [0.0, 0.7, 2.1]),
        (4, [0.5, 0.5, 0.0, 0.0]),
    ], ids=["lone", "3-fold", "two-2-fold", "chained", "cluster-edge-in", "cluster-edge-out",
            "zero", "two-zero"])
    def test_hessian_matches_differences_of_the_gradient(self, r, sigma):
        # columns of powered sigma; entries between two zero sigma are not formed
        sigma = np.asarray(sigma, dtype=float)
        hess = channels._log_det_moment(r, sigma)[2]
        assert np.array_equal(hess, hess.T)
        for k in np.flatnonzero(sigma):
            h = 1e-5 * sigma[k] * np.eye(sigma.size)[k]
            fd = (channels._log_det_moment(r, sigma + h)[1]
                  - channels._log_det_moment(r, sigma - h)[1]) / (2 * h[k])
            assert np.abs(hess[:, k] - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_hessian_is_continuous_across_the_cluster_edge(self):
        for r, k in ((4, 2), (4, 4), (16, 5)):
            lo, hi = (channels._log_det_moment(r, 0.3 * np.exp(gap * np.arange(k)))[2]
                      for gap in channels._CLUSTER * (1.0 + np.array([-1e-9, 1e-9])))
            assert np.abs(lo - hi).max() <= 1e-6 * np.abs(hi).max()

    def test_hessian_of_five_chained_sigma_at_r_16(self):
        # against 40-digit values: the gradient's round-off here (about 6e-9) keeps
        # central differences of it from resolving 1e-6 (they reach 7e-6)
        sigma = 0.7 * np.exp(0.14 * np.arange(5))
        hess = channels._log_det_moment(16, sigma)[2]
        assert np.array_equal(hess, hess.T)
        assert np.abs(hess - HESS_CHAIN_16).max() <= 1e-6 * np.abs(HESS_CHAIN_16).max()

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4)], ids=str)
    @pytest.mark.parametrize("kind", ["generic", "one-off", "coincident"])
    def test_power_hessian_over_any_basis_matches_differences(self, shape, kind):
        # a Haar basis does not diagonalize T: Lewis & Sendov's second term;
        # q = I/t on R = T = I makes every sigma coincide
        r, t = shape
        law = _exact_law(r, t) if kind != "coincident" else channels.KroneckerGaussian(
            np.zeros((r, t)), np.eye(r), np.eye(t))
        u = linalg.haar_unitary(t, rng(7 * t))
        q = np.full(t, 1.0 / t) if kind == "coincident" else rng(t).uniform(0.2, 1.0, t)
        if kind == "one-off":
            q[0] = 0.0
        q /= q.sum()

        def grad(p):  # u_k^H (dMI/dQ) u_k, from exact_mi's gradient in Q
            g = law.exact_mi((u * p) @ u.conj().T, 1.3)[1]
            return np.einsum("ik,ij,jk->k", u.conj(), g, u).real

        mi, g, hess = law.exact_powers(u, q, 1.3)
        assert abs(mi - law.exact_mi((u * q) @ u.conj().T, 1.3)[0]) <= 1e-12 * mi
        assert np.abs(g - grad(q)).max() <= 1e-12 * np.abs(g).max()
        for k in np.flatnonzero(q):
            h = 1e-5 * np.eye(t)[k]
            fd = (grad(q + h) - grad(q - h)) / 2e-5
            assert np.abs(hess[:, k] - fd).max() <= 1e-5 * np.abs(fd).max()

    @pytest.mark.parametrize("r,sigma", [
        (2, [0.3, 1.4]), (2, [0.43256154, 0.47805443]), (16, 0.7 * np.exp(0.1 * np.arange(5))),
        (4, [0.0, 0.8, 0.85]), (3, [1.0, 1.0, 1.0])],
        ids=["lone", "pair", "chain-16", "zero", "coincident"])
    def test_gradient_alone_has_the_bits_of_the_full_call(self, r, sigma):
        # exact_mi skips the Hessian rows; its MI and gradient must not move a bit
        sigma = np.asarray(sigma, dtype=float)
        full, first = (channels._log_det_moment(r, sigma),
                       channels._log_det_moment(r, sigma, second=False))
        assert first[0] == full[0] and np.array_equal(first[1], full[1]) and first[2] is None

    @pytest.mark.parametrize("r,c,tau,q,gamma,mi,grad", [
        (2, 1.0, [1.4, 0.6], [0.6, 0.4], 1.0, 1.1789399722875706,
         [0.8700773190639852, 0.5806699308713366]),
        (16, 0.8, [1.3, 1.1, 1.0, 0.9, 0.7], np.exp(0.05 * np.arange(5)) / np.exp(
            0.05 * np.arange(5)).sum(), 2.0, 8.404562993820491,
         [4.53780683272652, 4.221707558954997, 3.9791476501799465, 3.7411892672662597,
          3.3956753677898885])], ids=["two-lone", "chain-16"])
    def test_exact_mi_keeps_its_numbers(self, r, c, tau, q, gamma, mi, grad):
        # the values exact_mi gave while it still formed the Hessian, and exact_powers',
        # whose sigma = gain tau q skip the eigh; at r = 16 four sigma in one cluster
        # turn that one-ulp move into 4e-12 of the MI and 1.2e-7 of the gradient
        t = len(tau)
        law = channels.KroneckerGaussian(np.zeros((r, t)), c * np.eye(r), np.diag(tau))
        got_mi, got_grad = law.exact_mi(np.diag(q), gamma)
        assert got_mi == pytest.approx(mi, rel=1e-12, abs=0)
        assert np.abs(got_grad - np.diag(grad)).max() <= 1e-12 * max(grad)
        ref_mi, ref_grad, _ = law.exact_powers(np.eye(t), np.asarray(q), gamma)
        assert abs(got_mi - ref_mi) <= 1e-10 * ref_mi
        assert np.abs(np.diag(got_grad).real - ref_grad).max() <= 1e-6 * ref_grad.max()

    def test_power_hessian_in_a_diagonalizing_basis_is_the_sigma_one_scaled(self):
        law = _exact_law(3, 3)
        u = law.diag_basis
        tau = np.einsum("ik,ij,jk->k", u.conj(), law.tx_corr, u).real
        q = np.array([0.5, 0.3, 0.2])
        mi, g, hess = law.exact_powers(u, q, 2.0)
        ref = channels._log_det_moment(3, 2.0 * 0.8 * tau * q)
        assert mi == ref[0]
        assert np.array_equal(hess, (1.6 ** 2) * np.outer(tau, tau) * ref[2])


#: one law of each kind and its descriptor, written out as users write it
DESCRIPTORS = [
    (channels.PointMass(np.array([[1.0 + 2j, 0.0], [0.5, 1.0]])),
     {"type": "point", "h": [[[1.0, 2.0], [0.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]}),
    (channels.MatrixGaussian(np.array([[0.5j, 0.0]]), np.diag([2.0, 1.0])),
     {"type": "gaussian", "mean": [[[0.0, 0.5], [0.0, 0.0]]],
      "cov": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}),
    (channels.KroneckerGaussian(np.array([[1.0, 0.0]]), np.eye(1), np.diag([1.5, 0.5])),
     {"type": "kronecker", "mean": [[[1.0, 0.0], [0.0, 0.0]]], "rx_corr": [[[1.0, 0.0]]],
      "tx_corr": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}),
    (channels.FiniteMixture([0.25, 0.75], [np.eye(1), 1j * np.eye(1)]),
     {"type": "mixture", "weights": [0.25, 0.75], "atoms": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]}),
]
DESCRIPTOR_IDS = [desc["type"] for _, desc in DESCRIPTORS]


class TestJsonDescriptors:
    @pytest.mark.parametrize("law, desc", DESCRIPTORS, ids=DESCRIPTOR_IDS)
    def test_literal_descriptor_is_the_format(self, law, desc):
        assert channels.law_to_json(law) == desc
        back = channels.law_from_json(json.dumps(desc))
        assert type(back) is type(law)
        for f in dataclasses.fields(law):
            a, b = getattr(back, f.name), getattr(law, f.name)
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("desc", [desc for _, desc in DESCRIPTORS], ids=DESCRIPTOR_IDS)
    def test_missing_key_is_named(self, desc):
        for key in set(desc) - {"type"}:
            partial = {k: v for k, v in desc.items() if k != key}
            with pytest.raises(ValueError, match=f"{desc['type']}' descriptor is missing {key}"):
                channels.law_from_json(partial)

    @pytest.mark.parametrize("law", [
        channels.PointMass(np.array([[1.0 + 2j, 0.0], [0.5, 1.0]])),
        IID_2x2,
        channels.KroneckerGaussian(np.ones((2, 2)), np.diag([1.5, 0.5]),
                                   np.diag([0.7, 1.3])),
        kappa_law(0.5, np.array([[0.0, 1.0], [1.0, 1.0]]), np.diag([4.0, 1.0])),
        channels.FiniteMixture([0.5, 0.5], [np.eye(2), 2 * np.eye(2)]),
        channels.MatrixGaussian(np.zeros((1, 2)), np.eye(2)),
    ])
    def test_round_trip(self, law):
        doc = channels.law_to_json(law)
        back = channels.law_from_json(doc)
        assert type(back) is type(law)
        h1 = channels.sample_batch(law, 1, rng(18))[0]
        h2 = channels.sample_batch(back, 1, rng(18))[0]
        assert np.allclose(h1, h2)

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            channels.law_from_json({"type": "nakagami"})

    @pytest.mark.parametrize("text", ["[1]", "3", '"x"'], ids=["array", "number", "string"])
    def test_non_object_raises_value_error(self, text):
        with pytest.raises(ValueError, match="must be a JSON object"):
            channels.law_from_json(text)

    def test_readme_table_lists_every_descriptor(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme[readme.index("| `type`"):].split("\n\n")[0]
        kinds = re.findall(r"^\| `(\w+)`", table, re.MULTILINE)
        assert kinds[0] == "type" and len(kinds) == len(set(kinds))
        assert set(kinds[1:]) == set(channels._DESCRIPTORS) | {"onoff", "wishart"}
