import time

import numpy as np
import pytest

from mimocap import channels, covopt, linalg, waterfill
from mimocap.covopt import OptimizerOptions
from mimocap.montecarlo import SeededStream, ergodic_mi

RAYLEIGH_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
# receive correlation keeps this law off the closed form, on pools; its law is
# invariant under H -> H U for unitary U, so its optimum is still I/2
RX_RAYLEIGH_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]), np.eye(2))
POINT_21 = channels.PointMass(np.diag([np.sqrt(2.0), 1.0]))
GOLDEN_MI = float(np.log(2.5) + np.log(1.25))


def point_mass_with_unitary(seed):
    u = linalg.haar_unitary(2, np.random.default_rng(seed))
    h = (u * np.sqrt([2.0, 1.0])) @ u.conj().T
    return channels.PointMass(h)


class TestKktResidualDiag:
    def test_waterfill_solution_is_stationary(self):
        q = np.array([0.75, 0.25])
        res = covopt.kkt_residual_diag(q, POINT_21, 1.0, np.eye(2), samples=10, rng=0)
        assert res <= 1e-6

    def test_uniform_on_rx_correlated_rayleigh(self):
        q = np.array([0.5, 0.5])
        res = covopt.kkt_residual_diag(q, RX_RAYLEIGH_2x2, 1.0, np.eye(2),
                                       samples=100_000, rng=1)
        assert res <= 0.02  # noise floor of the Monte Carlo conditions

    def test_uniform_on_iid_rayleigh_is_exactly_stationary(self, monkeypatch):
        monkeypatch.setattr(covopt, "_s_pool", None)
        res = [covopt.kkt_residual_diag([0.5, 0.5], RAYLEIGH_2x2, 1.0, np.eye(2),
                                        samples=n, rng=seed) for n, seed in ((10, 0), (10**5, 1))]
        assert res[0] == res[1] <= 1e-12

    def test_perturbed_point_is_not_stationary(self):
        res_opt = covopt.kkt_residual_diag([0.5, 0.5], RX_RAYLEIGH_2x2, 1.0, np.eye(2),
                                           samples=50_000, rng=2)
        res_bad = covopt.kkt_residual_diag([0.9, 0.1], RX_RAYLEIGH_2x2, 1.0, np.eye(2),
                                           samples=50_000, rng=2)
        assert res_bad > 10 * max(res_opt, 1e-3)

    def test_power_vector_validation(self):
        with pytest.raises(ValueError):
            covopt.kkt_residual_diag([0.7, 0.7], RAYLEIGH_2x2, 1.0, np.eye(2))

    def test_basis_must_be_unitary_with_or_without_a_closed_form(self):
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        for law in (RAYLEIGH_2x2, POINT_21):
            with pytest.raises(ValueError, match="unitary"):
                covopt.fixed_point_diag(law, 1.0, skew)
            with pytest.raises(ValueError, match="unitary"):
                covopt.kkt_residual_diag([0.5, 0.5], law, 1.0, skew)


class TestFixedPointDiag:
    def test_point_mass_matches_waterfill(self):
        res = covopt.fixed_point_diag(POINT_21, 1.0,
                                      opts={"tol": 1e-7, "max_iter": 2000})
        assert np.abs(res.qhat - [0.75, 0.25]).max() <= 1e-3
        assert abs(res.mi.mean - GOLDEN_MI) <= 1e-3
        assert res.converged

    def test_rx_correlated_rayleigh_uniform(self):
        res = covopt.fixed_point_diag(RX_RAYLEIGH_2x2, 1.0,
                                      opts={"tol": 8e-3, "samples": 50_000,
                                            "max_iter": 300, "seed": 3})
        assert np.abs(res.qhat - 0.5).max() <= 0.02

    def test_low_snr_beamforms_on_strong_mode(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]),
                                         np.diag([1.5, 0.5]))
        res = covopt.fixed_point_diag(law, 0.05,
                                      opts={"tol": 2e-2, "samples": 20_000,
                                            "max_iter": 400, "seed": 4})
        assert res.qhat[0] > res.qhat[1]
        assert res.qhat[0] > 0.95  # trending to rank one as gamma -> 0

    def test_result_invariants(self):
        res = covopt.fixed_point_diag(RX_RAYLEIGH_2x2, 1.0,
                                      opts={"tol": 1e-2, "samples": 20_000,
                                            "seed": 5, "final_samples": 20_000})
        assert abs(np.trace(res.q).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(res.q).min() >= -1e-10
        fresh = ergodic_mi(res.q, RX_RAYLEIGH_2x2, 1.0, samples=20_000,
                           rng=SeededStream(777))
        assert abs(fresh.mean - res.mi.mean) <= 2 * (fresh.se + res.mi.se)


class TestNewtonDiag:
    def test_stuck_low_snr_case_beamforms_exactly(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.diag([0.471, 1.529]))
        t0 = time.perf_counter()
        res = covopt.fixed_point_diag(law, 1.0, np.eye(2))
        elapsed = time.perf_counter() - t0
        assert np.array_equal(res.qhat, [0.0, 1.0])
        assert res.converged
        assert elapsed < 1.0

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_rank_one_correlation_switches_zero_mode_off(self, gamma):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.ones((2, 2)))
        basis, lam = linalg.herm_eig(law.tx_corr)
        res = covopt.fixed_point_diag(law, gamma, basis, {"samples": 2_000})
        assert res.qhat[np.argmin(lam)] == 0.0
        assert res.qhat[np.argmax(lam)] == 1.0
        assert res.converged

    def test_point_mass_lands_on_waterfilling_powers(self):
        res = covopt.fixed_point_diag(POINT_21, 1.0)
        assert np.abs(res.qhat - [0.75, 0.25]).max() <= 1e-12
        assert res.iterations <= 10
        assert res.converged

    def test_low_snr_modes_switch_off_exactly(self):
        law = channels.KroneckerGaussian(np.zeros((4, 4)), np.eye(4),
                                         np.diag([2.0, 1.0, 0.6, 0.4]))
        res = covopt.fixed_point_diag(law, 0.05, np.eye(4), {"seed": 3})
        assert res.converged
        assert res.qhat[0] > 0.5 and np.all(res.qhat[2:] == 0.0)
        assert np.isclose(res.qhat.sum(), 1.0, rtol=0, atol=1e-15)

    def test_direction_frees_off_mode_above_the_level(self):
        # mode 1 is off but its gradient beats the powered mode's: it re-enters
        step = covopt._newton_direction(np.array([1.0, 2.0]), np.eye(2), np.array([1.0, 0.0]))
        assert step[1] > 0 and np.isclose(step.sum(), 0.0, atol=1e-15)

    def test_direction_keeps_off_mode_below_the_level_at_zero(self):
        d = np.array([1.0, 1.2, 0.5])
        step = covopt._newton_direction(d, np.diag([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.0]))
        assert step[2] == 0.0
        assert np.isclose(step[0], -step[1]) and step[1] > 0

    def test_update_cuts_at_the_boundary_and_backtracks(self):
        law = channels.PointMass(np.diag([np.sqrt(2.0), 1.0, 0.1]))
        pool = covopt._s_pool(law, 1.0, np.eye(3), 10, SeededStream(0))

        def pool_mi(qm):
            return covopt._pool_mi(pool, qm)[0]

        def mi_at(q):
            return pool_mi(np.diag(q))

        # the cut mode is set to 0: q + alpha * step leaves 5.6e-17 there
        q2, s2 = 0.364, 0.671
        q = np.array([0.5 * (1 - q2), 0.5 * (1 - q2), q2])
        step = np.array([s2 / 2, s2 / 2, -s2])
        new, mi = covopt._newton_update(pool_mi, q, step, mi_at(q), 1e-9)
        assert new[2] == 0.0 and mi == mi_at(new) > mi_at(q)
        # a step overshooting to (1, 0, 0) lowers the MI and is halved once
        q = np.array([0.6, 0.4, 0.0])
        new, mi = covopt._newton_update(pool_mi, q, np.array([0.4, -0.4, 0.0]), mi_at(q), 1e-9)
        assert np.allclose(new, [0.8, 0.2, 0.0], rtol=0, atol=1e-15) and mi > mi_at(q)
        # a descent direction leaves the powers where they are
        new, mi = covopt._newton_update(pool_mi, q, np.array([-0.4, 0.4, 0.0]), mi_at(q), 1e-9)
        assert np.array_equal(new, q) and mi == mi_at(q)

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_mi_never_falls_on_one_pool(self, monkeypatch, gamma):
        # receive correlation keeps the law off the closed form, on pools
        law = channels.KroneckerGaussian(np.zeros((4, 4)), np.diag([1.3, 1.1, 0.9, 0.7]),
                                         np.diag([2.0, 1.0, 0.6, 0.4]))
        pool = covopt._s_pool(law, gamma, np.eye(4), 4_000, SeededStream(31))
        monkeypatch.setattr(covopt, "_s_pool", lambda *args: pool)
        res = covopt.fixed_point_diag(law, gamma, np.eye(4),
                                      {"tol": 1e-9, "final_samples": 2_000})
        # quadratic convergence: a handful of steps from uniform powers
        assert len(res.mi_trace) == res.iterations and 2 <= res.iterations <= 10
        assert np.all(np.diff(res.mi_trace) >= 0.0)
        # Newton lands on the pool's own optimum, not near it
        assert res.converged and res.kkt_residual <= 1e-9
        assert np.isclose(res.mi_trace[-1], covopt._pool_mi(pool, np.diag(res.qhat))[0],
                          rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_mi_never_falls_on_the_exact_objective(self, monkeypatch, gamma):
        # R = I: the closed form replaces every pool, and Newton lands on the optimum
        law = channels.KroneckerGaussian(np.zeros((4, 4)), np.eye(4),
                                         np.diag([2.0, 1.0, 0.6, 0.4]))
        monkeypatch.setattr(covopt, "_s_pool", None)
        res = covopt.fixed_point_diag(law, gamma, np.eye(4), {"tol": 1e-9})
        assert len(res.mi_trace) == res.iterations and 2 <= res.iterations <= 10
        assert np.all(np.diff(res.mi_trace) >= 0.0)
        assert res.converged and res.kkt_residual <= 1e-9
        assert res.mi.se == 0.0
        assert np.isclose(res.mi.mean, res.mi_trace[-1], rtol=0, atol=1e-12)
        assert covopt.kkt_residual_diag(res.qhat, law, gamma, np.eye(4)) <= 1e-9

    def test_law_past_the_closed_form_runs_on_pools(self, monkeypatch):
        # t = 9 with T's eigenvalues chained 0.14 apart in ln: all nine sigma of
        # Q = I/9 lie in one cluster, whose Taylor series would diverge
        pools = []
        s_pool = covopt._s_pool
        monkeypatch.setattr(covopt, "_s_pool", lambda *args: pools.append(args) or s_pool(*args))
        law = channels.KroneckerGaussian(np.zeros((9, 9)), np.eye(9),
                                         np.diag(np.exp(0.14 * np.arange(9))))
        res = covopt.fixed_point_diag(law, 1.0, None, {"samples": 1_000, "max_iter": 2,
                                                       "final_samples": 1_000})
        assert len(pools) == 2 and res.iterations == 2
        assert np.isfinite(res.mi.mean) and res.mi.se > 0.0

    def test_cut_short_solve_is_not_converged(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.diag([1.4, 0.6]))
        for solve in (covopt.fixed_point_diag, covopt.iterate_general):
            res = solve(law, 1.0, opts={"max_iter": 1})
            assert res.iterations == 1 and not res.converged


def powers_monotone(gammas, power_vectors) -> bool:
    """True iff un-normalized powers gamma*q_k never decrease along the grid,
    up to 1% of the larger budget of each consecutive pair."""
    gammas = np.asarray(gammas, dtype=float)
    pv = np.asarray(power_vectors, dtype=float)
    for a in range(len(gammas) - 1):
        lo = gammas[a] * pv[a]
        hi = gammas[a + 1] * pv[a + 1]
        if np.any(hi < lo - 0.01 * gammas[a + 1]):
            return False
    return True


def monotonicity_check(law, basis, gamma_grid, opts=None) -> bool:
    """Check that optimal per-mode powers are non-decreasing in the SNR."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if np.any(np.diff(gamma_grid) <= 0):
        raise ValueError("gamma grid must be ascending")
    qs = [covopt.fixed_point_diag(law, g, basis, opts).qhat for g in gamma_grid]
    return powers_monotone(gamma_grid, qs)


class TestMonotonicity:
    def test_point_mass_powers_rise_with_snr(self):
        ok = monotonicity_check(POINT_21, np.eye(2), [0.1, 1.0, 10.0],
                                {"tol": 1e-6, "max_iter": 1000})
        assert ok

    def test_checker_rejects_adversarial_sequence(self):
        gammas = [0.1, 1.0, 10.0]
        qs = [[0.9, 0.1], [0.5, 0.5], [0.02, 0.98]]  # mode 1 power drops
        assert not powers_monotone(gammas, qs)

    def test_checker_accepts_valid_sequence(self):
        gammas = [0.1, 1.0]
        qs = [[0.8, 0.2], [0.6, 0.4]]  # 0.08->0.6 and 0.02->0.4 both rise
        assert powers_monotone(gammas, qs)


class TestIterateGeneral:
    def test_point_mass_random_unitaries(self):
        for seed in (11, 12, 13):
            law = point_mass_with_unitary(seed)
            res = covopt.iterate_general(law, 1.0,
                                         opts={"tol": 1e-7, "max_iter": 4000})
            assert abs(res.mi.mean - GOLDEN_MI) <= 5e-3
            assert res.kkt_residual <= 1e-3

    def test_rx_correlated_rayleigh_recovers_identity(self):
        res = covopt.iterate_general(RX_RAYLEIGH_2x2, 1.0,
                                     opts={"tol": 8e-3, "samples": 50_000,
                                           "max_iter": 300, "seed": 14})
        assert abs(res.q[0, 1]) < 0.03
        assert np.abs(res.q - np.eye(2) / 2).max() <= 0.03

    def test_noncommuting_law_beats_grid_search(self):
        # exhaustive-search oracle over trace-one 2x2 PSD matrices, shared pool
        law = channels.Interpolated(0.5, np.array([[0.0, 1.0], [1.0, 1.0]]),
                                    np.diag([4.0, 1.0]))
        res = covopt.iterate_general(law, 1.0,
                                     opts={"tol": 5e-3, "samples": 20_000,
                                           "max_iter": 400, "seed": 15})
        pool = covopt._s_pool(law, 1.0, None, 20_000, SeededStream(900))
        best = -np.inf
        for q1 in np.linspace(0.0, 1.0, 11):
            for th in np.linspace(0.0, np.pi / 2, 10):
                for ph in np.linspace(0.0, 2 * np.pi, 10, endpoint=False):
                    c, s = np.cos(th), np.sin(th)
                    v = np.array([[c, -s * np.exp(-1j * ph)],
                                  [s * np.exp(1j * ph), c]])
                    qm = (v * [q1, 1 - q1]) @ v.conj().T
                    best = max(best, covopt._pool_mi(pool, qm)[0])
        mine = covopt._pool_mi(pool, res.q)[0]
        assert mine >= best - 1e-3

    def test_mi_trace_non_decreasing_within_noise(self):
        res = covopt.iterate_general(RX_RAYLEIGH_2x2, 1.0,
                                     opts={"tol": 8e-3, "samples": 20_000,
                                           "max_iter": 200, "seed": 16})
        mi = res.mi_trace
        se = res.mi.se * np.sqrt(res.mi.samples / 20_000)
        assert np.all(np.diff(mi) >= -2 * se)

    def test_result_invariants(self):
        res = covopt.iterate_general(RX_RAYLEIGH_2x2, 0.8,
                                     opts={"tol": 1e-2, "samples": 20_000,
                                           "seed": 17, "final_samples": 20_000})
        assert abs(np.trace(res.q).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(res.q).min() >= -1e-10
        assert len(res.mi_trace) == len(res.residual_trace)
        fresh = ergodic_mi(res.q, RX_RAYLEIGH_2x2, 0.8, samples=20_000,
                           rng=SeededStream(4242))
        assert abs(fresh.mean - res.mi.mean) <= 2 * (fresh.se + res.mi.se)

    def test_iid_rayleigh_is_solved_exactly(self, monkeypatch):
        # the pooled twins above run on RX_RAYLEIGH_2x2; R = I takes the closed form
        monkeypatch.setattr(covopt, "_s_pool", None)
        for solve in (covopt.fixed_point_diag, covopt.iterate_general):
            res = solve(RAYLEIGH_2x2, 0.8, opts={"tol": 1e-9})
            assert res.converged and res.kkt_residual <= 1e-9 and res.mi.se == 0.0
            assert np.abs(res.q - np.eye(2) / 2).max() <= 1e-12
            assert res.mi.mean == RAYLEIGH_2x2.exact_mi(res.q, 0.8)[0]


class TestGeneralNewton:
    """The general solver's projected Newton steps on a frozen pool."""

    def test_lands_on_the_diagonal_optimum_of_a_kronecker_law(self):
        # both solvers on 4x10^4-draw pools: at 10^4 draws the diagonal solver
        # ends on its second pool, whose p1 sits 0.008 from the first one's;
        # the receive correlation keeps the law off the closed form
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]),
                                         np.diag([1.4, 0.6]))
        opts = {"samples": 40_000, "seed": 12345}
        gen = covopt.iterate_general(law, 1.0, opts)
        diag = covopt.fixed_point_diag(law, 1.0, None, opts)
        assert abs(np.linalg.eigvalsh(gen.q)[-1] - diag.qhat.max()) <= 0.005

    def test_solves_an_exact_law_in_the_eigenbasis_of_t(self, monkeypatch):
        monkeypatch.setattr(covopt, "_s_pool", None)
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.array([[1.0, 0.4], [0.4, 0.6]]))
        gen = covopt.iterate_general(law, 1.0)
        diag = covopt.fixed_point_diag(law, 1.0, linalg.herm_eig(law.tx_corr)[0])
        assert np.array_equal(gen.q, diag.q) and gen.mi == diag.mi

    def test_ricean_law_lands_on_rank_two_exactly(self):
        mean = np.zeros((4, 4), dtype=complex)
        mean[0, 0] = 4.0
        law = channels.KroneckerGaussian(mean, np.eye(4), 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))
        res = covopt.iterate_general(law, 1.0, {"seed": 12345})
        lam = np.linalg.eigvalsh(res.q)
        assert np.all(np.abs(lam[:2]) <= 1e-12) and lam[2] > 0.1
        assert res.iterations <= 10

    def test_mi_trace_never_decreases_within_an_epoch(self, monkeypatch):
        pools = []
        s_pool = covopt._s_pool

        def counted(*args):
            pools.append(args)
            return s_pool(*args)

        monkeypatch.setattr(covopt, "_s_pool", counted)
        law = channels.KroneckerGaussian(np.zeros((3, 3)), np.diag([1.2, 1.0, 0.8]),
                                         0.6 * np.ones((3, 3)) + 0.4 * np.eye(3))
        res = covopt.iterate_general(law, 1.0, {"seed": 31})
        assert len(pools) == 2  # one solving pool and its check pool: one epoch
        assert res.iterations >= 3
        assert np.all(np.diff(res.mi_trace) >= 0.0)

    def test_exact_law_draws_no_pool(self, monkeypatch):
        monkeypatch.setattr(covopt, "_s_pool", None)
        monkeypatch.setattr(covopt, "ergodic_mi", None)
        law = channels.KroneckerGaussian(np.zeros((3, 3)), np.eye(3),
                                         0.6 * np.ones((3, 3)) + 0.4 * np.eye(3))
        res = covopt.iterate_general(law, 1.0, {"seed": 31})
        assert res.converged and res.mi.se == 0.0
        assert np.all(np.diff(res.mi_trace) >= 0.0)

    def test_rotated_point_mass_reaches_waterfilling_rate(self):
        for seed in (11, 12, 13):
            res = covopt.iterate_general(point_mass_with_unitary(seed), 1.0, {"tol": 1e-7})
            assert abs(res.mi.mean - GOLDEN_MI) <= 1e-9
            assert res.iterations <= 6

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_rank_deficient_point_mass_optimum(self, seed):
        # beamforming optima: the powered range must rotate onto the top
        # eigenvectors after the first boundary hit, not freeze where it landed
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        gamma = 0.3
        sol = waterfill.waterfill_det(np.linalg.eigvalsh(h.conj().T @ h)[::-1].clip(0), gamma)
        res = covopt.iterate_general(channels.PointMass(h), gamma, {"tol": 1e-7})
        assert abs(res.mi.mean - sol.rate) <= 1e-9
        assert np.sum(np.linalg.eigvalsh(res.q) > 1e-12) <= 2
        assert res.iterations <= 8


class TestAgreementAcrossOptimizers:
    def test_point_mass_reduces_to_waterfilling(self):
        sol = waterfill.waterfill_det([2.0, 1.0], 1.0)
        diag = covopt.fixed_point_diag(POINT_21, 1.0, opts={"tol": 1e-7,
                                                            "max_iter": 2000})
        gen = covopt.iterate_general(POINT_21, 1.0, opts={"tol": 1e-7,
                                                          "max_iter": 4000})
        assert abs(diag.mi.mean - sol.rate) <= 1e-3
        assert abs(gen.mi.mean - sol.rate) <= 1e-3

    def test_kronecker_zero_mean_agreement(self):
        # receive correlation keeps the law on pools; T's basis is still optimal
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]),
                                         np.diag([1.4, 0.6]))
        basis, _ = linalg.herm_eig(law.tx_corr)
        diag = covopt.fixed_point_diag(law, 1.0,
                                       basis, {"tol": 8e-3, "samples": 40_000,
                                               "max_iter": 300, "seed": 18})
        gen = covopt.iterate_general(law, 1.0,
                                     opts={"tol": 8e-3, "samples": 40_000,
                                           "max_iter": 300, "seed": 19})
        gap = abs(diag.mi.mean - gen.mi.mean)
        assert gap <= 3 * (diag.mi.se + gen.mi.se)


class TestKktResidualGeneral:
    def test_optimum_of_point_mass(self):
        law = point_mass_with_unitary(21)
        res = covopt.iterate_general(law, 1.0, opts={"tol": 1e-9, "max_iter": 6000})
        resid = covopt.kkt_residual_general(res.q, law, 1.0, samples=10, rng=0)
        assert resid <= 1e-4

    def test_identity_on_rx_correlated_rayleigh(self):
        resid = covopt.kkt_residual_general(np.eye(2) / 2, RX_RAYLEIGH_2x2, 1.0,
                                            samples=100_000, rng=22)
        assert resid <= 0.02

    def test_perturbed_factor_fails(self):
        law = point_mass_with_unitary(23)
        res = covopt.iterate_general(law, 1.0, opts={"tol": 1e-7, "max_iter": 4000})
        bumped = linalg.chol_upper(res.q)
        bumped[0, 1] += 0.1
        bumped /= np.sqrt(np.sum(np.abs(bumped) ** 2))
        r_opt = covopt.kkt_residual_general(res.q, law, 1.0, samples=10, rng=0)
        r_bad = covopt.kkt_residual_general(linalg.ut_gram(bumped), law, 1.0,
                                            samples=10, rng=0)
        assert r_bad > 10 * max(r_opt, 1e-4)

    def test_beamforming_on_iid_rayleigh_sees_the_off_direction(self):
        # the off mode's gradient E[X_22] beats mu = E[X_11] on the powered one
        resid = covopt.kkt_residual_general(np.diag([1.0, 0.0]), RAYLEIGH_2x2, 1.0,
                                            samples=20_000, rng=1)
        assert resid > 1

    def test_beamforming_on_rx_correlated_rayleigh_sees_the_off_direction(self):
        # the same off direction, read from a pool
        resid = covopt.kkt_residual_general(np.diag([1.0, 0.0]), RX_RAYLEIGH_2x2, 1.0,
                                            samples=20_000, rng=1)
        assert resid > 1

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            covopt.kkt_residual_general(np.eye(2), RAYLEIGH_2x2, 1.0)


def test_optimizer_runs_are_bit_reproducible():
    # receive correlation keeps the law off the closed form, on pools
    law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]), np.eye(2))
    opts = {"tol": 1e-2, "samples": 10_000, "max_iter": 100, "seed": 60,
            "final_samples": 10_000}
    a = covopt.iterate_general(law, 1.0, opts)
    b = covopt.iterate_general(law, 1.0, opts)
    assert np.array_equal(a.q, b.q)
    assert a.mi.mean == b.mi.mean
    assert np.array_equal(a.mi_trace, b.mi_trace)


def test_smoke_larger_dimension():
    # desk-scale smoke at t = r = 4 on pools; bigger sizes are figure-driver territory
    law = channels.KroneckerGaussian(np.zeros((4, 4)), np.diag([1.3, 1.1, 0.9, 0.7]),
                                     0.3 * np.ones((4, 4)) + 0.7 * np.eye(4))
    res = covopt.iterate_general(law, 1.0, opts={"samples": 5_000, "tol": 3e-2,
                                                 "max_iter": 60, "seed": 50})
    assert np.isfinite(res.mi.mean)
    assert abs(np.trace(res.q).real - 1.0) <= 1e-9
    assert res.mi_trace[-1] >= res.mi_trace[0] - 1e-6


def test_optimizer_options_from_json_dict():
    opts = OptimizerOptions.from_dict({"tol": 1e-4, "samples": 5000, "seed": 9})
    assert opts.tol == 1e-4 and opts.samples == 5000 and opts.seed == 9
    with pytest.raises(ValueError):
        OptimizerOptions.from_dict({"tol": 1e-4, "bogus": 1})


@pytest.mark.parametrize("bad, field", [
    ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": np.nan}, "tol"),
    ({"tol": np.inf}, "tol"), ({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
])
def test_bad_solver_options_are_rejected_before_any_step(bad, field, monkeypatch):
    # tol = -1 once left _backtrack without a way out on a pooled Ricean law
    law = channels.KroneckerGaussian(np.array([[1.0, 0.0], [1.0, 0.0]]), np.eye(2),
                                     np.array([[1.0, 0.5], [0.5, 1.0]]))
    monkeypatch.setattr(covopt, "_s_pool", None)
    with pytest.raises(ValueError, match=f"option {field} "):
        OptimizerOptions(**bad)
    for solve in (covopt.fixed_point_diag, covopt.iterate_general):
        with pytest.raises(ValueError, match=f"option {field} "):
            solve(law, 1.0, opts={"max_iter": 20, **bad})
