import dataclasses
import json

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mimocap import channels, linalg
from mimocap.montecarlo import SeededStream, ergodic_mi
from test_montecarlo import expect_matrix


def rng(seed=0):
    return np.random.default_rng(seed)


IID_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestSampling:
    def test_point_mass_exact(self):
        h0 = np.array([[1.0, 2j], [0.5, 1.0]])
        law = channels.PointMass(h0)
        for _ in range(3):
            assert np.array_equal(channels.sample(law, rng()), h0)

    def test_kronecker_unit_variance(self):
        h = channels.sample_batch(IID_2x2, 100_000, rng(1))
        mean_sq = (np.abs(h) ** 2).mean(axis=0)
        assert np.abs(mean_sq - 1.0).max() < 0.02

    def test_circular_symmetry_halves(self):
        h = channels.sample_batch(IID_2x2, 100_000, rng(2))
        assert abs(h.real.var() - 0.5) < 0.01
        assert abs(h.imag.var() - 0.5) < 0.01
        assert abs((h.real * h.imag).mean()) < 0.01

    def test_interpolated_endpoints(self):
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]])
        law1 = channels.Interpolated(1.0, m0, np.diag([4.0, 1.0]))
        assert np.allclose(channels.sample(law1, rng(3)), m0)
        law0 = channels.Interpolated(0.0, m0, np.diag([4.0, 1.0]))
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
        z = channels._circular_gaussian(rng(9), (500, r, t))
        ref = mean + np.einsum("ij,sjk,kl->sil", linalg.psd_sqrt(law.rx_corr), z,
                               linalg.psd_sqrt(law.tx_corr))
        assert np.abs(h - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("r,t", [(2, 2), (3, 4), (4, 2)])
    def test_interpolated_product_matches_einsum(self, r, t):
        g = rng(10)
        b = g.normal(size=(t, t)) + 1j * g.normal(size=(t, t))
        m0 = g.normal(size=(r, t)) + 1j * g.normal(size=(r, t))
        law = channels.Interpolated(0.3, m0, b @ b.conj().T)
        h = channels.sample_batch(law, 500, rng(11))
        z = channels._circular_gaussian(rng(11), (500, r, t))
        ref = 0.3 * m0 + 0.7 * np.einsum("sij,jk->sik", z, linalg.psd_sqrt(law.noise_cov))
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
        lambda c: channels.Interpolated(0.5, np.eye(2), c),
        lambda c: channels.MatrixGaussian(np.zeros((1, 2)), c),
    ], ids=["tx_corr", "rx_corr", "noise_cov", "cov"])
    def test_correlations_must_be_psd(self, make):
        # Hermitian, but one eigenvalue is negative
        with pytest.raises(ValueError, match="positive semidefinite"):
            make(np.diag([1.5, -0.5]))
        make(np.array([[1.0, 1.0], [1.0, 1.0]]))  # rank one is PSD


class TestExpectedGram:
    def test_iid_closed_form(self):
        r = 3
        law = channels.KroneckerGaussian(np.zeros((r, 2)), np.eye(r), np.eye(2))
        assert np.allclose(channels.expected_gram(law), r * np.eye(2))

    def test_diagonal_correlations(self):
        rho, tau = 1.3, 0.4
        law = channels.KroneckerGaussian(
            np.zeros((2, 2)), np.diag([rho, 2 - rho]), np.diag([tau, 2 - tau]))
        assert np.allclose(channels.expected_gram(law), 2 * np.diag([tau, 2 - tau]))

    def test_kronecker_with_mean_vs_monte_carlo(self):
        m = np.array([[1.0, 0.5j], [0.0, 1.0]])
        law = channels.KroneckerGaussian(m, np.diag([1.5, 0.5]), np.diag([0.8, 1.2]))
        est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                            law, samples=100_000, rng=SeededStream(8))
        closed = channels.expected_gram(law)
        assert np.all(np.abs(est.mean - closed) <= 3 * est.se + 1e-12)

    def test_interpolated_closed_form(self):
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]])
        sig = np.diag([4.0, 1.0])
        for kappa in (0.0, 0.3, 0.8):
            law = channels.Interpolated(kappa, m0, sig)
            expect = kappa**2 * m0.conj().T @ m0 + (1 - kappa) ** 2 * 2 * sig
            assert np.allclose(channels.expected_gram(law), expect)
            est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                                law, samples=60_000, rng=SeededStream(9))
            assert np.all(np.abs(est.mean - expect) <= 3 * est.se + 1e-12)

    def test_matrix_gaussian_block_trace(self):
        g = rng(10).standard_normal((4, 4)) / 2
        cov = g @ g.T + np.eye(4)
        law = channels.MatrixGaussian(np.zeros((2, 2)), cov)
        est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                            law, samples=100_000, rng=SeededStream(11))
        closed = channels.expected_gram(law)
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
            assert f.log1p_moment(c) == pytest.approx(linalg.scaled_expint_gamma0(1 / c),
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
        (channels.Interpolated(0.6, np.array([[0.0, 1.0], [1.0, 1.0]]),
                               np.diag([4.0, 1.0])),
         0.6 * np.array([[0.0, 1.0], [1.0, 1.0]])),
        (channels.FiniteMixture([0.3, 0.7], [np.zeros((2, 2)), np.eye(2)]),
         0.7 * np.eye(2)),
        (channels.MatrixGaussian(np.full((2, 2), 0.5j), 2 * np.eye(4)),
         np.full((2, 2), 0.5j)),
    ])
    def test_sample_mean_matches_law_mean(self, law, mean):
        est = expect_matrix(lambda h: h, law, samples=100_000, rng=SeededStream(77))
        assert np.all(np.abs(est.mean - mean) <= 3 * est.se + 1e-12)


def _exact_law(r, t):
    """Zero-mean Kronecker law with rx_corr = 0.8 I and a correlated T."""
    tx = 0.5 * np.ones((t, t)) + np.diag(np.linspace(0.3, 1.0, t))
    return channels.KroneckerGaussian(np.zeros((r, t)), 0.8 * np.eye(r), tx)


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
                k = d._fact * linalg.scaled_expn(d._orders, 1.0 / c)
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
        f0, g0 = channels._log_det_moment(r, sigma)
        spread = np.arange(sigma.size) * sigma
        for eps in 10.0 ** -np.arange(1, 14):
            f, g = channels._log_det_moment(r, sigma + eps * spread)
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
        f, g = channels._log_det_moment(16, sigma)
        assert abs(f - 13.070635505746935) <= 1e-9 * 13.07
        ref = [1.2700592424112902, 1.1203715230283648, 0.9866168849419891,
               0.8674900163361464, 0.7617001554841595]
        assert np.abs(g - ref).max() <= 1e-6 * ref[0]
        # and continuous, relative to f ~ 13, where the chain breaks into five clusters
        lo, hi = (channels._log_det_moment(16, 0.7 * np.exp(gap * np.arange(5)))
                  for gap in channels._CLUSTER * (1.0 + np.array([-1e-9, 1e-9])))
        assert abs(lo[0] - hi[0]) <= 1e-9 * hi[0] and np.abs(lo[1] - hi[1]).max() <= 1e-6

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
    (channels.Interpolated(0.25, np.array([[0.0, 1.0]]), np.diag([4.0, 1.0])),
     {"type": "interp", "kappa": 0.25, "m0": [[[0.0, 0.0], [1.0, 0.0]]],
      "noise_cov": [[[4.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}),
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
        channels.Interpolated(0.5, np.array([[0.0, 1.0], [1.0, 1.0]]),
                              np.diag([4.0, 1.0])),
        channels.FiniteMixture([0.5, 0.5], [np.eye(2), 2 * np.eye(2)]),
        channels.MatrixGaussian(np.zeros((1, 2)), np.eye(2)),
    ])
    def test_round_trip(self, law):
        doc = channels.law_to_json(law)
        back = channels.law_from_json(doc)
        assert type(back) is type(law)
        h1 = channels.sample(law, rng(18))
        h2 = channels.sample(back, rng(18))
        assert np.allclose(h1, h2)

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            channels.law_from_json({"type": "nakagami"})
