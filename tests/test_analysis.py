import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from mimocap import analysis, channels, covopt, linalg
from mimocap.covopt import OptimizerOptions
from mimocap.montecarlo import SeededStream, ergodic_mi
from test_channels import traced_peak
from test_covopt import pool_diag_residual


def diag_2x2(rho, tau):
    return np.diag([rho, 2.0 - rho]), np.diag([tau, 2.0 - tau])


class TestBeamformMc:
    def test_miso_reduction_matches_quadrature(self):
        # r = 1, R = [1]: condition is E[(w + g*t2*w)/(1 + g*t1*w)] >= t2/t1
        # with w ~ Exp(1); the oracle integrates that density directly.
        gamma, tau1, tau2 = 0.8, 1.4, 0.6
        oracle, _ = scipy.integrate.quad(
            lambda w: (w + gamma * tau2 * w) / (1 + gamma * tau1 * w) * np.exp(-w),
            0, np.inf)
        v = analysis.beamform_opt_mc(np.eye(1), np.diag([tau1, tau2]), gamma,
                                     samples=400_000, rng=1)
        assert abs(v.margin - (oracle - tau2 / tau1)) <= 4 * v.se

    def test_lhs_monotone_decreasing_in_gamma(self):
        r_corr, t_corr = diag_2x2(1.3, 1.4)
        taus = np.sort(np.linalg.eigvalsh(t_corr))[::-1]
        lhs = []
        for gamma in (0.01, 0.1, 1.0, 10.0):
            v = analysis.beamform_opt_mc(r_corr, t_corr, gamma,
                                         samples=200_000, rng=2)
            lhs.append(v.margin + 2 * taus[1] / taus[0])
        assert np.all(np.diff(lhs) < 0)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            analysis.beamform_opt_mc(2 * np.eye(2), np.eye(2), 1.0, samples=10)

    @pytest.mark.parametrize("r_corr, t_corr", [
        (np.eye(2), np.diag([2.5, -0.5])), (np.diag([2.5, -0.5]), np.eye(2)),
    ], ids=["transmit", "receive"])
    def test_indefinite_correlation_rejected(self, r_corr, t_corr):
        # trace-normalized, but a negative mode is no correlation matrix
        with pytest.raises(ValueError, match="positive semidefinite"):
            analysis.beamform_opt_mc(r_corr, t_corr, 1.0, 20_000, 1)


def _beamform_mc_oracle(r_corr, t_corr, gamma, samples, seed):
    """Margin and SE of the beamforming test from three-operand quadratic forms."""
    r = r_corr.shape[0]
    taus = np.sort(np.linalg.eigvalsh(t_corr))[::-1]
    gen = SeededStream(seed).generator()
    # |V^H u|^2 is drawn as Exp(1) entries e in blocks of channels._BLOCK draws,
    # so u = V e^1/2 in R's eigenbasis is a draw with exactly those |V^H u|^2
    blocks = [min(channels._BLOCK, samples - lo) for lo in range(0, samples, channels._BLOCK)]
    e = np.concatenate([gen.standard_exponential((n, r)) for n in blocks])
    u = np.sqrt(e) @ np.linalg.eigh(r_corr)[1].T
    w1 = np.einsum("si,ij,sj->s", u.conj(), r_corr, u).real
    w2 = np.einsum("si,ij,sj->s", u.conj(), r_corr @ r_corr, u).real
    vals = (w1 + gamma * taus[1] * w2) / (1.0 + gamma * taus[0] * w1)
    return vals.mean() - r * taus[1] / taus[0], vals.std(ddof=1) / np.sqrt(samples)


@pytest.mark.parametrize("r_corr", [
    np.diag([1.3, 0.7]),
    np.array([[1.2, 0.3 - 0.4j], [0.3 + 0.4j, 0.8]]),
    np.array([[1.0, 0.5j, 0.2], [-0.5j, 1.5, 0.1 - 0.3j], [0.2, 0.1 + 0.3j, 0.5]]),
], ids=["diagonal", "hermitian-2x2", "hermitian-3x3"])
def test_beamform_mc_eigenbasis_forms_match_the_quadratic_forms(r_corr):
    t_corr = np.diag([1.4, 0.6])
    v = analysis.beamform_opt_mc(r_corr, t_corr, 2.0, samples=50_000, rng=7)
    margin, se = _beamform_mc_oracle(linalg.as_psd(r_corr), t_corr, 2.0, 50_000, 7)
    assert abs(v.margin - margin) <= 1e-13 * abs(margin)
    assert abs(v.se - se) <= 1e-13 * se


def test_beamform_mc_keeps_one_value_per_draw_and_one_block():
    # 10^6 values are 8 MB, and their mean and SE take two more; 91.6 MiB once
    samples = 1_000_000
    _, peak = traced_peak(lambda: analysis.beamform_opt_mc(
        np.diag([1.5, 0.5]), np.diag([1.9, 0.1]), 10 ** -1.5, samples=samples, rng=3))
    assert peak <= 3 * 8 * samples + 2**22


class TestBeamformClosed:
    def test_agrees_with_mc_in_sign(self):
        rng = np.random.default_rng(3)
        checked = agreed = 0
        for _ in range(25):
            rho = rng.uniform(0.05, 1.95)
            tau = rng.uniform(1.001, 1.95)
            gamma = 10 ** rng.uniform(-1.5, 1.0)
            r_corr, t_corr = diag_2x2(rho, tau)
            mc = analysis.beamform_opt_mc(r_corr, t_corr, gamma,
                                          samples=40_000,
                                          rng=int(rng.integers(2**31)))
            cf = analysis.beamform_opt_closed([rho, 2 - rho], tau, 2 - tau, gamma)
            if abs(mc.margin) > 4 * mc.se:
                checked += 1
                agreed += (mc.margin > 0) == (cf.margin > 0)
        assert checked >= 15
        assert agreed == checked

    def test_miso_closed_form_vs_quadrature(self):
        gamma, tau1, tau2 = 0.8, 1.4, 0.6
        oracle, _ = scipy.integrate.quad(
            lambda w: (w + gamma * tau2 * w) / (1 + gamma * tau1 * w) * np.exp(-w),
            0, np.inf)
        # closed-form margin = gamma*tau1 * (Thm-5 margin) at r = 1
        cf = analysis.beamform_opt_closed([1.0], tau1, tau2, gamma)
        assert np.isclose(cf.margin, gamma * tau1 * (oracle - tau2 / tau1),
                          rtol=1e-7)

    def test_equal_transmit_eigenvalues_never_optimal(self):
        for gamma in (0.05, 0.5, 5.0):
            v = analysis.beamform_opt_closed([1.2, 0.8], 1.0, 1.0, gamma)
            assert not v.optimal

    def test_low_snr_limit_is_optimal(self):
        v = analysis.beamform_opt_closed([1.3, 0.7], 1.2, 0.8, 1e-4)
        assert v.optimal

    def test_margin_continuous_across_degenerate_rho(self):
        tau1, tau2, gamma = 1.4, 0.6, 0.3
        base = analysis.beamform_opt_closed([1.0, 1.0], tau1, tau2, gamma).margin
        near = analysis.beamform_opt_closed([1.0, 1.0 + 1e-7], tau1, tau2,
                                            gamma).margin
        assert abs(near - base) <= 1e-6 * max(abs(base), 1.0)

    @pytest.mark.parametrize("rho, tau, margin", [
        ((1.0, 1.0), 1.03, -2.9904862204509129888959459161e-5),
        ((1.0, 1.0), 1.5, 0.053149911326443334493311537818),
        ((1 + 1e-7, 1 - 1e-7), 1.03, -2.9904862204506821926751555315e-5),
        ((1 + 1e-7, 1 - 1e-7), 1.5, 0.053149911326443319077272445949),
    ])
    def test_equal_rho_margin_matches_30_digit_values(self, rho, tau, margin):
        # gamma tau1 (E[(w1 + g tau2 w2) / (1 + g tau1 w1)] - 2 tau2 / tau1) at
        # g = 10^-1.5, by 2-D quadrature over the two Exp(1) gains in 32-digit
        # mpmath; the 1-D integral of the docstring agrees to 4e-30
        v = analysis.beamform_opt_closed(list(rho), tau, 2 - tau, 10 ** -1.5)
        assert v.margin == pytest.approx(margin, rel=1e-10)

    @pytest.mark.parametrize("rho", [(1.0, 1.0, 1.0), (1.0,) * 4, (1.2, 1.0, 0.8, 1.0),
                                     (1.5, 0.5, 1.0), (2.0, 1e-3, 1.0 - 1e-3)])
    @pytest.mark.parametrize("gamma", [1e-3, 0.3, 30.0])
    def test_repeated_receive_eigenvalues_match_the_integral(self, rho, gamma):
        # D_i = c int_0^inf e^-s (1 + s b_i)^-1 prod_k (1 + s b_k)^-1 ds, b = c rho
        tau1, tau2 = 1.4, 0.6
        c = gamma * tau1
        b = c * np.array(rho)
        ref = -len(rho) * gamma * tau2
        for i, ri in enumerate(rho):
            d_i, _ = scipy.integrate.quad(
                lambda s: np.exp(-s) / (1 + s * b[i]) / np.prod(1 + s * b), 0, np.inf,
                epsabs=0, epsrel=1e-13, limit=200)
            ref += ri * (1 + gamma * tau2 * ri) * c * d_i
        v = analysis.beamform_opt_closed(list(rho), tau1, tau2, gamma)
        assert v.margin == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            analysis.beamform_opt_closed([1.0, -0.2], 1.2, 0.8, 1.0)


class TestBoundary:
    def test_low_snr_transition_near_1_03(self):
        gamma = 10 ** (-15 / 10)
        curve = analysis.beamform_boundary(gamma, np.linspace(1.0, 1.8, 9))
        taus = curve[:, 1]
        assert np.all(np.abs(taus - 1.03) <= 0.02)
        # eigenvalues of R barely matter at low SNR
        assert taus.max() - taus.min() < 0.01

    def test_region_shrinks_with_snr(self):
        lo = analysis.beamform_boundary(10 ** (-15 / 10), [1.2])[0, 1]
        hi = analysis.beamform_boundary(10 ** (0.5), [1.2])[0, 1]
        assert hi > lo + 0.1

    def test_matches_brentq_on_the_benchmark_grid(self):
        gamma = 10 ** -1.5
        grid = np.arange(1.0, 1.9001, 0.1)
        curve = analysis.beamform_boundary(gamma, grid)
        for (rho, tau), rho_ref in zip(curve, grid):
            def margin(x):
                return analysis.beamform_opt_closed([rho, 2 - rho], x, 2 - x, gamma).margin
            ref = scipy.optimize.brentq(margin, 1 + 1e-9, 2 - 1e-9, xtol=1e-12)
            assert rho == rho_ref
            assert abs(tau - ref) <= 1e-6

    def test_regula_falsi_takes_a_third_of_the_evaluations(self, monkeypatch):
        # the bisection to a 1e-6 bracket took 220 margins on this grid: 2 per
        # rho to bracket and 20 to halve a unit interval to 1e-6
        calls = []
        closed = analysis.beamform_opt_closed
        monkeypatch.setattr(analysis, "beamform_opt_closed",
                            lambda *a: calls.append(a) or closed(*a))
        analysis.beamform_boundary(10 ** -1.5, np.arange(1.0, 1.9001, 0.1))
        assert len(calls) <= 80

    def test_identity_transmit_never_crosses(self):
        for gamma in (0.05, 1.0, 10.0):
            v = analysis.beamform_opt_closed([1.2, 0.8], 1.0, 1.0, gamma)
            assert not v.optimal


class TestLowSnrCov:
    def test_iid_full_multiplicity(self):
        law = channels.KroneckerGaussian(np.zeros((3, 3)), np.eye(3), np.eye(3))
        q, slope = analysis.low_snr_cov(law)
        assert np.allclose(q, np.eye(3) / 3)
        assert np.isclose(slope, 3.0)

    def test_kronecker_beamforming_axis(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.diag([1.5, 0.5]))
        q, slope = analysis.low_snr_cov(law)
        assert np.isclose(slope, 3.0)  # tr(R) * max eig of T = 2 * 1.5
        assert np.allclose(q, np.diag([1.0, 0.0]), atol=1e-12)

    def test_ricean_identity_mean(self):
        alpha = 0.7
        t_corr = np.diag([1.5, 0.5])
        r_corr = np.diag([1.2, 0.8])
        law = channels.KroneckerGaussian(alpha * np.eye(2), r_corr, t_corr)
        _, slope = analysis.low_snr_cov(law)
        assert np.isclose(slope, alpha**2 + 2.0 * 1.5)

    def test_rank_and_trace(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
        q, _ = analysis.low_snr_cov(law)
        assert np.isclose(np.trace(q).real, 1.0)
        assert np.linalg.matrix_rank(q) == 2

    def test_first_order_rate_matches_slope(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.diag([1.5, 0.5]))
        q, slope = analysis.low_snr_cov(law)
        gamma = 1e-3
        mi = ergodic_mi(q, law, gamma, samples=200_000, rng=4)
        assert abs(mi.mean - gamma * slope) <= 3 * mi.se + gamma**2 * slope**2


class TestHighSnr:
    def test_point_mass_identity_channel(self):
        t = 3
        law = channels._point_mass(np.eye(t))
        for gamma, tol in ((100.0, 0.05), (10_000.0, 5e-4)):
            res = analysis.high_snr_capacity(law, gamma, samples=10, rng=0)
            assert np.isclose(res.approx.mean, t * np.log(gamma / t), atol=1e-9)
            exact = t * np.log(1 + gamma / t)
            assert abs(res.approx.mean - exact) <= tol * exact

    def test_rayleigh_2x2_at_30db(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
        res = analysis.high_snr_capacity(law, 1000.0, samples=200_000, rng=5)
        assert abs(res.approx.mean - res.exact.mean) <= 0.05

    def test_uniform_becomes_stationary_as_snr_grows(self):
        # receive correlation keeps the law on pools
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]),
                                         np.diag([1.4, 0.6]))
        basis, _ = linalg.herm_eig(law.tx_corr)
        resids = [pool_diag_residual([0.5, 0.5], law, g, basis, 200_000, 6)
                  for g in (10.0, 100.0, 1000.0)]
        assert resids[2] < resids[0]
        assert resids[2] < 0.02


class TestWishartApprox:
    def test_zero_mean_recipe(self):
        t_corr = np.diag([1.5, 0.5])
        q = np.diag([0.7, 0.3])
        sigma = analysis.wishart_approx(np.zeros((2, 2)), t_corr, q)
        th = linalg.psd_sqrt(t_corr)
        assert np.allclose(sigma, th @ q @ th)

    def test_indefinite_transmit_correlation_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            analysis.wishart_approx(np.zeros((2, 2)), np.diag([2.5, -0.5]), np.eye(2) / 2)

    def test_identity_correlation_recipe(self):
        m = np.array([[2.0, 0.0], [0.0, 0.0]])
        sigma = analysis.wishart_approx(m, np.eye(2), np.eye(2) / 2)
        assert np.allclose(sigma, np.eye(2) / 2 + m.conj().T @ m / 2)

    def test_approx_covariance_never_beats_capacity(self):
        n, tau = 2, 0.5
        t_corr = tau * np.ones((n, n)) + (1 - tau) * np.eye(n)
        mean = np.zeros((n, n), dtype=complex)
        mean[0, 0] = n
        law = channels.KroneckerGaussian(mean, np.eye(n), t_corr)
        gamma = 1.0
        opts = OptimizerOptions(tol=8e-3, samples=30_000, max_iter=300, seed=7,
                                final_samples=100_000)
        cap = covopt.iterate_general(law, gamma, opts)
        qa, _ = analysis.wishart_approx_covariance(mean, t_corr, gamma, opts)
        mi_a = ergodic_mi(qa, law, gamma, samples=100_000, rng=SeededStream(8))
        assert mi_a.mean <= cap.mi.mean + 2 * (mi_a.se + cap.mi.se)

    def test_approx_gap_largest_at_mid_snr(self):
        # the stand-in matches first moments, which is exact in both SNR
        # limits; the loss peaks in between (deterministic under fixed seeds)
        n, tau = 2, 0.5
        t_corr = tau * np.ones((n, n)) + (1 - tau) * np.eye(n)
        mean = np.zeros((n, n), dtype=complex)
        mean[0, 0] = n
        law = channels.KroneckerGaussian(mean, np.eye(n), t_corr)
        opts = OptimizerOptions(tol=8e-3, samples=20_000, max_iter=200, seed=3,
                                final_samples=50_000)
        gaps = {}
        for db in (-10, 0, 10):
            g = 10 ** (db / 10)
            cap = covopt.iterate_general(law, g, opts)
            qa, _ = analysis.wishart_approx_covariance(mean, t_corr, g, opts)
            mi_a = ergodic_mi(qa, law, g, samples=50_000, rng=SeededStream(4))
            gaps[db] = cap.mi.mean - mi_a.mean
        assert gaps[0] > gaps[-10]
        assert gaps[0] > gaps[10]


class TestInterpStudy:
    def test_endpoints_and_rotation(self):
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
        sigma = np.diag([4.0, 1.0]).astype(complex)
        pts = analysis.interp_study(m0, sigma, [0.0, 0.5, 1.0], 1.0,
                                    OptimizerOptions(tol=5e-3, samples=20_000,
                                                     max_iter=400, seed=9))
        # kappa = 1: deterministic M0, beamforming on its top right-singular
        # direction (gamma=1 keeps only one active mode for eigs {2.618, 0.382})
        p1 = pts[-1]
        _, _, vh = np.linalg.svd(m0)
        top = vh.conj().T[:, 0]
        assert p1.powers[0] > 0.96
        overlap = abs(np.vdot(top, p1.eigvecs[:, 0]))
        assert overlap > 0.999
        # kappa = 0: zero-mean with diagonal transmit covariance -> diagonal Q
        p0 = pts[0]
        assert abs(p0.result.q[0, 1]) < 0.03
        # optimal axes are not those of E[H^H H] at every kappa
        assert max(p.angle_vs_gram for p in pts) > 1e-3

    def test_powers_are_the_solver_s_own_with_exact_zeros(self):
        # figure 12 at its defaults: near the mean the second direction is off,
        # and the powers read exactly (1, 0), never round-off or a negative power
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
        sigma = np.diag([4.0, 1.0]).astype(complex)
        pts = analysis.interp_study(m0, sigma, np.linspace(0.0, 1.0, 11), 1.0,
                                    OptimizerOptions(seed=12345))
        assert all(np.all(p.powers >= 0.0) and p.powers[0] >= p.powers[1] for p in pts)
        for p in pts[7:]:
            assert np.array_equal(p.powers, [1.0, 0.0])
            assert np.array_equal(p.powers, np.sort(p.result.qhat)[::-1])

    def test_kappa_zero_is_solved_exactly(self, monkeypatch):
        # zero mean, R = I: the closed-form MI in Sigma's eigenvectors, and no pool
        def no_pool(*args):
            raise AssertionError("the kappa = 0 solve drew a pool")

        monkeypatch.setattr(covopt, "_s_pool", no_pool)
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
        (p,) = analysis.interp_study(m0, np.diag([4.0, 1.0]), [0.0], 1.0)
        assert p.result.mi.se == 0
        assert np.array_equal(np.abs(p.eigvecs[:, 0]), [1.0, 0.0])
        assert p.angle_vs_gram == 0
        assert p.powers == pytest.approx([0.8558, 0.1442], abs=5e-5)

    @pytest.mark.parametrize("kappa", [-0.1, 1.5, np.nan])
    def test_kappa_outside_the_unit_interval_is_refused(self, kappa):
        with pytest.raises(ValueError, match="kappa must lie in"):
            analysis.interp_study(np.eye(2), np.eye(2), [0.5, kappa], 1.0)

    def test_kappa_one_waterfalls_single_mode(self):
        # budget 1 on modes {2.618, 0.382}: mu = 1/2.618 + 1 < 1/0.382
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]])
        eigs = np.linalg.eigvalsh(m0.conj().T @ m0)
        mu = 1.0 + 1.0 / eigs[-1]
        assert mu < 1.0 / eigs[0]  # second mode stays off


class TestVerdictConsistency:
    def test_beamforming_verdict_matches_optimizer(self):
        rng = np.random.default_rng(10)
        tested = 0
        for _ in range(30):
            if tested >= 8:
                break
            rho = rng.uniform(0.2, 1.8)
            tau = rng.uniform(1.05, 1.9)
            gamma = 10 ** rng.uniform(-1.5, 0.5)
            verdict = analysis.beamform_opt_closed([rho, 2 - rho], tau, 2 - tau,
                                                   gamma)
            # skip undecided margins the optimizer cannot resolve either
            if abs(verdict.margin) < 0.1 * 2 * gamma * (2 - tau):
                continue
            tested += 1
            r_corr, t_corr = diag_2x2(rho, tau)
            law = channels.KroneckerGaussian(np.zeros((2, 2)), r_corr, t_corr)
            res = covopt.fixed_point_diag(law, gamma,
                                          OptimizerOptions(tol=2e-2, samples=30_000,
                                                           max_iter=300,
                                                           seed=int(rng.integers(2**31))))
            q2 = res.qhat.min()
            if verdict.optimal:
                assert q2 < 0.01
            else:
                assert q2 > 0.01
        assert tested >= 8
