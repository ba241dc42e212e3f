import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mimocap import channels, covopt, linalg, montecarlo, waterfill
from mimocap.covopt import OptimizerOptions
from mimocap.linalg import _gram
from mimocap.montecarlo import SeededStream, as_stream, ergodic_mi

RAYLEIGH_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
# receive correlation keeps this law off the closed form, on pools; its law is
# invariant under H -> H U for unitary U, so its optimum is still I/2
RX_RAYLEIGH_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]), np.eye(2))
POINT_21 = channels._point_mass(np.diag([np.sqrt(2.0), 1.0]))
GOLDEN_MI = float(np.log(2.5) + np.log(1.25))


def point_mass_with_unitary(seed):
    u = linalg.haar_unitary(2, np.random.default_rng(seed))
    h = (u * np.sqrt([2.0, 1.0])) @ u.conj().T
    return channels._point_mass(h)


def pool_diag_residual(qvec, law, gamma, basis, samples, rng):
    """Diagonal stationarity residual of the powers ``qvec`` over ``basis`` on one
    pool: :func:`covopt._residual` of diag E[X_kk], modes above ``MODE_OFF`` on."""
    qvec = np.asarray(qvec, dtype=float)
    moments = covopt._objective(law, gamma, np.asarray(basis, dtype=complex), samples,
                                as_stream(rng))[1]
    return covopt._residual(moments(np.eye(qvec.size), qvec)[0], qvec > covopt.MODE_OFF)


def chol_upper(a):
    """Upper-triangular T with T^H T = A and a real positive diagonal, A positive definite."""
    return np.linalg.cholesky(a).conj().T


def power_step(d, h, qvec):
    """Newton step of the powers ``qvec`` on the diagonal coordinates, for
    gradient ``d`` and curvature ``h``."""
    eye = np.eye(qvec.size)
    _, step, _ = covopt._direction(np.diag(d), lambda basis, coords: h, eye, qvec, full=False)
    return np.diag(step).real


def power_update(mi_of, qvec, step, mi, still):
    """:func:`covopt._update` of the powers ``qvec`` along ``step``: new powers and MI."""
    eye = np.eye(qvec.size)
    direction = (eye, np.diag(step).astype(complex), np.array([], dtype=int))
    _, new, mi = covopt._update(mi_of, eye, qvec, direction, mi, still, full=False)
    return new, mi


class TestKktResidualDiag:
    """The diagonal stationarity residual: exact where the law has a closed form or
    atoms (through kkt_residual_general), else on one pool (pool_diag_residual)."""

    def test_waterfill_solution_is_stationary(self):
        res = covopt.kkt_residual_general(np.diag([0.75, 0.25]), POINT_21, 1.0,
                                          samples=10, rng=0)
        assert res <= 1e-6

    def test_uniform_on_rx_correlated_rayleigh(self):
        q = np.array([0.5, 0.5])
        res = pool_diag_residual(q, RX_RAYLEIGH_2x2, 1.0, np.eye(2), 100_000, 1)
        assert res <= 0.02  # noise floor of the Monte Carlo conditions

    def test_uniform_on_iid_rayleigh_is_exactly_stationary(self, monkeypatch):
        monkeypatch.setattr(covopt, "_s_pool", None)
        res = [covopt.kkt_residual_general(np.eye(2) / 2, RAYLEIGH_2x2, 1.0, samples=n, rng=seed)
               for n, seed in ((10, 0), (10**5, 1))]
        assert res[0] == res[1] <= 1e-12

    def test_perturbed_point_is_not_stationary(self):
        res_opt = pool_diag_residual([0.5, 0.5], RX_RAYLEIGH_2x2, 1.0, np.eye(2), 50_000, 2)
        res_bad = pool_diag_residual([0.9, 0.1], RX_RAYLEIGH_2x2, 1.0, np.eye(2), 50_000, 2)
        assert res_bad > 10 * max(res_opt, 1e-3)

    def test_power_vector_validation(self):
        with pytest.raises(ValueError):
            covopt.kkt_residual_general(np.diag([0.7, 0.7]), RAYLEIGH_2x2, 1.0)


class TestFixedPointDiag:
    def test_point_mass_matches_waterfill(self):
        res = covopt.fixed_point_diag(POINT_21, 1.0,
                                      opts=OptimizerOptions(tol=1e-7, max_iter=2000))
        assert np.abs(res.qhat - [0.75, 0.25]).max() <= 1e-3
        assert abs(res.mi.mean - GOLDEN_MI) <= 1e-3
        assert res.converged

    def test_rx_correlated_rayleigh_uniform(self):
        res = covopt.fixed_point_diag(RX_RAYLEIGH_2x2, 1.0,
                                      opts=OptimizerOptions(tol=8e-3, samples=50_000,
                                                            max_iter=300, seed=3))
        assert np.abs(res.qhat - 0.5).max() <= 0.02

    def test_low_snr_beamforms_on_strong_mode(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]),
                                         np.diag([1.5, 0.5]))
        res = covopt.fixed_point_diag(law, 0.05,
                                      opts=OptimizerOptions(tol=2e-2, samples=20_000,
                                                            max_iter=400, seed=4))
        assert res.qhat[0] > res.qhat[1]
        assert res.qhat[0] > 0.95  # trending to rank one as gamma -> 0

    def test_result_invariants(self):
        res = covopt.fixed_point_diag(RX_RAYLEIGH_2x2, 1.0,
                                      opts=OptimizerOptions(tol=1e-2, samples=20_000,
                                                            seed=5, final_samples=20_000))
        assert abs(np.trace(res.q).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(res.q).min() >= -1e-10
        fresh = ergodic_mi(res.q, RX_RAYLEIGH_2x2, 1.0, samples=20_000,
                           rng=SeededStream(777))
        assert abs(fresh.mean - res.mi.mean) <= 2 * (fresh.se + res.mi.se)


class TestNewtonDiag:
    def test_stuck_low_snr_case_beamforms_exactly(self):
        # the law's basis orders T's modes descending: the strong one first
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.diag([0.471, 1.529]))
        t0 = time.perf_counter()
        res = covopt.fixed_point_diag(law, 1.0)
        elapsed = time.perf_counter() - t0
        assert np.array_equal(res.qhat, [1.0, 0.0])
        assert np.array_equal(res.q, np.diag([0.0, 1.0]))
        assert res.converged
        assert elapsed < 1.0

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_rank_one_correlation_switches_zero_mode_off(self, gamma):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.ones((2, 2)))
        lam = linalg.herm_eig(law.tx_corr)[1]
        res = covopt.fixed_point_diag(law, gamma, OptimizerOptions(samples=2_000))
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
        res = covopt.fixed_point_diag(law, 0.05, OptimizerOptions(seed=3))
        assert res.converged
        assert res.qhat[0] > 0.5 and np.all(res.qhat[2:] == 0.0)
        assert np.isclose(res.qhat.sum(), 1.0, rtol=0, atol=1e-15)

    def test_direction_frees_off_mode_above_the_level(self):
        # mode 1 is off but its gradient beats the powered mode's: it re-enters
        step = power_step(np.array([1.0, 2.0]), np.eye(2), np.array([1.0, 0.0]))
        assert step[1] > 0 and np.isclose(step.sum(), 0.0, atol=1e-15)

    def test_direction_keeps_off_mode_below_the_level_at_zero(self):
        d = np.array([1.0, 1.2, 0.5])
        step = power_step(d, np.diag([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.0]))
        assert step[2] == 0.0
        assert np.isclose(step[0], -step[1]) and step[1] > 0

    def test_update_cuts_at_the_boundary_and_backtracks(self):
        law = channels._point_mass(np.diag([np.sqrt(2.0), 1.0, 0.1]))
        pool = covopt._s_pool(law, 1.0, np.eye(3), 10, SeededStream(0))

        def pool_mi(qm):
            return covopt._pool_mi(pool, qm)[0]

        def mi_at(q):
            return pool_mi(np.diag(q))

        # the cut mode is set to 0: q + alpha * step leaves 5.6e-17 there
        q2, s2 = 0.364, 0.671
        q = np.array([0.5 * (1 - q2), 0.5 * (1 - q2), q2])
        step = np.array([s2 / 2, s2 / 2, -s2])
        new, mi = power_update(pool_mi, q, step, mi_at(q), 1e-9)
        assert new[2] == 0.0 and mi == mi_at(new) > mi_at(q)
        # a step overshooting to (1, 0, 0) lowers the MI and is halved once
        q = np.array([0.6, 0.4, 0.0])
        new, mi = power_update(pool_mi, q, np.array([0.4, -0.4, 0.0]), mi_at(q), 1e-9)
        assert np.allclose(new, [0.8, 0.2, 0.0], rtol=0, atol=1e-15) and mi > mi_at(q)
        # a descent direction leaves the powers where they are
        new, mi = power_update(pool_mi, q, np.array([-0.4, 0.4, 0.0]), mi_at(q), 1e-9)
        assert np.array_equal(new, q) and mi == mi_at(q)

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_mi_never_falls_on_one_pool(self, monkeypatch, gamma):
        # receive correlation keeps the law off the closed form, on pools
        law = channels.KroneckerGaussian(np.zeros((4, 4)), np.diag([1.3, 1.1, 0.9, 0.7]),
                                         np.diag([2.0, 1.0, 0.6, 0.4]))
        pool = covopt._s_pool(law, gamma, np.eye(4), 4_000, SeededStream(31))
        monkeypatch.setattr(covopt, "_s_pool", lambda *args: pool)
        res = covopt.fixed_point_diag(law, gamma, OptimizerOptions(tol=1e-9, final_samples=2_000))
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
        res = covopt.fixed_point_diag(law, gamma, OptimizerOptions(tol=1e-9))
        assert len(res.mi_trace) == res.iterations and 2 <= res.iterations <= 10
        assert np.all(np.diff(res.mi_trace) >= 0.0)
        assert res.converged and res.kkt_residual <= 1e-9
        assert res.mi.se == 0.0
        assert np.isclose(res.mi.mean, res.mi_trace[-1], rtol=0, atol=1e-12)
        assert covopt.kkt_residual_general(np.diag(res.qhat), law, gamma) <= 1e-9

    def test_law_past_the_closed_form_runs_on_pools(self, monkeypatch):
        # t = 9 with T's eigenvalues chained 0.14 apart in ln: all nine sigma of
        # Q = I/9 lie in one cluster, whose Taylor series would diverge
        pools = []
        s_pool = covopt._s_pool
        monkeypatch.setattr(covopt, "_s_pool", lambda *args: pools.append(args) or s_pool(*args))
        law = channels.KroneckerGaussian(np.zeros((9, 9)), np.eye(9),
                                         np.diag(np.exp(0.14 * np.arange(9))))
        res = covopt.fixed_point_diag(law, 1.0, OptimizerOptions(samples=1_000, max_iter=2,
                                                                 final_samples=1_000))
        assert len(pools) == 2 and res.iterations == 2
        assert np.isfinite(res.mi.mean) and res.mi.se > 0.0

    def test_cut_short_solve_is_not_converged(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.diag([1.4, 0.6]))
        for solve in (covopt.fixed_point_diag, covopt.iterate_general):
            res = solve(law, 1.0, opts=OptimizerOptions(max_iter=1))
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


def monotonicity_check(law, gamma_grid, opts=OptimizerOptions()) -> bool:
    """Check that optimal per-mode powers are non-decreasing in the SNR."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if np.any(np.diff(gamma_grid) <= 0):
        raise ValueError("gamma grid must be ascending")
    qs = [covopt.fixed_point_diag(law, g, opts).qhat for g in gamma_grid]
    return powers_monotone(gamma_grid, qs)


class TestMonotonicity:
    def test_point_mass_powers_rise_with_snr(self):
        ok = monotonicity_check(POINT_21, [0.1, 1.0, 10.0],
                                OptimizerOptions(tol=1e-6, max_iter=1000))
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
                                         opts=OptimizerOptions(tol=1e-7, max_iter=4000))
            assert abs(res.mi.mean - GOLDEN_MI) <= 5e-3
            assert res.kkt_residual <= 1e-3

    def test_rx_correlated_rayleigh_recovers_identity(self):
        res = covopt.iterate_general(RX_RAYLEIGH_2x2, 1.0,
                                     opts=OptimizerOptions(tol=8e-3, samples=50_000,
                                                           max_iter=300, seed=14))
        assert abs(res.q[0, 1]) < 0.03
        assert np.abs(res.q - np.eye(2) / 2).max() <= 0.03

    def test_noncommuting_law_beats_grid_search(self):
        # exhaustive-search oracle over trace-one 2x2 PSD matrices, shared pool
        # H = M0/2 + G Sigma^1/2 / 2, M0 = [[0, 1], [1, 1]], Sigma = diag(4, 1)
        law = channels.KroneckerGaussian(np.array([[0.0, 0.5], [0.5, 0.5]]), np.eye(2),
                                         np.diag([1.0, 0.25]))
        res = covopt.iterate_general(law, 1.0,
                                     opts=OptimizerOptions(tol=5e-3, samples=20_000,
                                                           max_iter=400, seed=15))
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
                                     opts=OptimizerOptions(tol=8e-3, samples=20_000,
                                                           max_iter=200, seed=16))
        mi = res.mi_trace
        se = res.mi.se * np.sqrt(res.mi.samples / 20_000)
        assert np.all(np.diff(mi) >= -2 * se)

    def test_result_invariants(self):
        res = covopt.iterate_general(RX_RAYLEIGH_2x2, 0.8,
                                     opts=OptimizerOptions(tol=1e-2, samples=20_000,
                                                           seed=17, final_samples=20_000))
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
            res = solve(RAYLEIGH_2x2, 0.8, opts=OptimizerOptions(tol=1e-9))
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
        opts = OptimizerOptions(samples=40_000, seed=12345)
        gen = covopt.iterate_general(law, 1.0, opts)
        diag = covopt.fixed_point_diag(law, 1.0, opts)
        assert abs(np.linalg.eigvalsh(gen.q)[-1] - diag.qhat.max()) <= 0.005

    def test_solves_an_exact_law_in_the_eigenbasis_of_t(self, monkeypatch):
        monkeypatch.setattr(covopt, "_s_pool", None)
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.array([[1.0, 0.4], [0.4, 0.6]]))
        gen = covopt.iterate_general(law, 1.0)
        diag = covopt.fixed_point_diag(law, 1.0)
        assert np.array_equal(gen.q, diag.q) and gen.mi == diag.mi

    def test_ricean_law_lands_on_rank_two_exactly(self):
        mean = np.zeros((4, 4), dtype=complex)
        mean[0, 0] = 4.0
        law = channels.KroneckerGaussian(mean, np.eye(4), 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))
        res = covopt.iterate_general(law, 1.0, OptimizerOptions(seed=12345))
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
        res = covopt.iterate_general(law, 1.0, OptimizerOptions(seed=31))
        assert len(pools) == 2  # one solving pool and its check pool: one epoch
        assert res.iterations >= 3
        assert np.all(np.diff(res.mi_trace) >= 0.0)

    def test_exact_law_draws_no_pool(self, monkeypatch):
        monkeypatch.setattr(covopt, "_s_pool", None)
        monkeypatch.setattr(covopt, "ergodic_mi", None)
        law = channels.KroneckerGaussian(np.zeros((3, 3)), np.eye(3),
                                         0.6 * np.ones((3, 3)) + 0.4 * np.eye(3))
        res = covopt.iterate_general(law, 1.0, OptimizerOptions(seed=31))
        assert res.converged and res.mi.se == 0.0
        assert np.all(np.diff(res.mi_trace) >= 0.0)

    def test_rotated_point_mass_reaches_waterfilling_rate(self):
        for seed in (11, 12, 13):
            res = covopt.iterate_general(point_mass_with_unitary(seed), 1.0,
                                         OptimizerOptions(tol=1e-7))
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
        res = covopt.iterate_general(channels._point_mass(h), gamma, OptimizerOptions(tol=1e-7))
        assert abs(res.mi.mean - sol.rate) <= 1e-9
        assert np.sum(np.linalg.eigvalsh(res.q) > 1e-12) <= 2
        assert res.iterations <= 8


def _general_direction_oracle(x, vecs, lam):
    """The Newton step of ``covopt._direction`` on all coordinates, with its curvature
    E[vec(Xw) vec(Xw)^T] formed from every per-draw Xw = W^H X W."""
    t = x.shape[1]
    on = lam > 0
    r = int(on.sum())
    m = x.mean(axis=0)
    act, off = vecs[:, on], vecs[:, ~on]
    mu = np.trace(act.conj().T @ m @ act).real / r
    w, e = np.linalg.eigh(off.conj().T @ m @ off)
    basis = np.hstack([act, off @ e])
    xw = np.einsum("ai,sab,bj->sij", basis.conj(), x, basis)
    vx = xw.reshape(-1, t * t)
    kk = np.moveaxis((vx.T @ vx / vx.shape[0]).reshape(t, t, t, t), 0, -1).reshape(t * t, t * t)
    coords, rows, cols = covopt._herm_coords(t)
    hess = (coords.T @ kk @ coords).real
    hess = 0.5 * (hess + hess.T)
    grad = (coords.T @ (basis.conj().T @ m @ basis).T.ravel()).real
    gain = np.concatenate([np.zeros(r), mu - w])
    rot = (rows < r) & (cols >= r)
    hess[rot, rot] += 2.0 * np.maximum(gain[cols[rot]], 0.0) / lam[on][rows[rot]]
    freed = gain < 0
    while True:
        idx = np.flatnonzero((freed[rows] & freed[cols]) | rot | ((rows < r) & (cols < r)))
        diag = idx[idx < t]
        kkt = np.zeros((idx.size + 1, idx.size + 1))
        kkt[:-1, :-1] = hess[np.ix_(idx, idx)]
        kkt[:diag.size, -1] = kkt[-1, :diag.size] = 1.0
        step = np.zeros(t * t)
        step[idx] = np.linalg.lstsq(kkt, np.append(grad[idx], 0.0), rcond=None)[0][:-1]
        d = (coords @ step).reshape(t, t)
        fb = np.flatnonzero(freed)
        if fb.size == 0 or np.linalg.eigvalsh(d[np.ix_(fb, fb)])[0] >= -1e-12:
            return basis, d, r, fb
        freed[fb[np.argmin(np.diag(d)[fb].real)]] = False


@pytest.mark.parametrize("lam, rotated", [
    ([0.4, 0.3, 0.2, 0.1], True),
    ([0.0, 0.0, 0.0, 1.0], False),
    ([0.0, 0.6, 0.4, 0.0], True),
], ids=["full-rank", "rank-one", "rank-two"])
def test_general_direction_matches_the_rotated_draw_oracle(lam, rotated):
    mean = np.zeros((4, 4), dtype=complex)
    mean[0, 0] = 4.0
    law = channels.KroneckerGaussian(mean, np.diag([1.3, 1.0, 0.9, 0.8]),
                                     0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))
    pool = covopt._s_pool(law, 1.0, None, 5_000, SeededStream(3))
    lam = np.asarray(lam)
    vecs = linalg.haar_unitary(4, np.random.default_rng(2)) if rotated else np.eye(4, dtype=complex)
    q = covopt._covariance(vecs, lam)
    x = covopt._resolvent_gradient(pool, q, covopt._thin_factor(q))
    m, curv = covopt._objective(law, 1.0, None, 5_000, SeededStream(3))[1](vecs, lam)
    basis, d, fb = covopt._direction(m, curv, vecs, lam)
    ref_basis, ref_d, ref_r, ref_fb = _general_direction_oracle(x, vecs, lam)
    assert np.array_equal(basis, ref_basis) and np.array_equal(fb, ref_fb)
    assert (fb.size > 0) == (ref_r < 4)  # the rank-deficient cases free off directions
    assert np.abs(d - ref_d).max() <= 1e-13 * np.abs(ref_d).max()


def _bordered_power_step_oracle(d, h, qvec):
    """The Newton step of the powers on the simplex from d = E[X_kk] and
    H = E|X_kl|^2: the bordered system [[H, 1], [1^T, 0]] [step; nu] = [d; 0]
    on the powered modes and the off ones with d_k above the powered mean,
    solved again without the off modes the step drives negative."""
    on = qvec > 0
    free = on | (d > d[on].mean())
    while True:
        idx = np.flatnonzero(free)
        k = idx.size
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = h[np.ix_(idx, idx)]
        kkt[k, k] = 0.0
        step = np.zeros_like(qvec)
        step[idx] = np.linalg.lstsq(kkt, np.append(d[idx], 0.0), rcond=None)[0][:k]
        blocked = ~on & (step < 0)
        if not np.any(blocked):
            return step
        free &= ~blocked


@pytest.mark.parametrize("qvec", [[0.4, 0.3, 0.2, 0.1], [0.0, 0.5, 0.3, 0.2]],
                         ids=["full-rank", "one-off"])
def test_diagonal_direction_is_the_bordered_power_step(qvec):
    # receive correlation keeps the law off the closed form, on a pool
    law = channels.KroneckerGaussian(np.zeros((4, 4)), np.diag([1.3, 1.1, 0.9, 0.7]),
                                     np.diag([2.0, 1.0, 0.6, 0.4]))
    qvec, eye = np.asarray(qvec), np.eye(4)
    m, curv = covopt._objective(law, 1.0, eye, 5_000, SeededStream(3))[1](eye, qvec)
    step = np.diag(covopt._direction(m, curv, eye, qvec, full=False)[1]).real
    x = covopt._resolvent_gradient(covopt._s_pool(law, 1.0, eye, 5_000, SeededStream(3)),
                                   np.diag(qvec), covopt._thin_factor(np.diag(qvec)))
    ref = _bordered_power_step_oracle(np.mean(np.diagonal(x, axis1=1, axis2=2).real, axis=0),
                                      np.mean(x.real ** 2 + x.imag ** 2, axis=0), qvec)
    assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()
    # the strongest mode gains power; off, it beats the powered mean and re-enters
    assert step[0] > 0


class TestAgreementAcrossOptimizers:
    def test_point_mass_reduces_to_waterfilling(self):
        sol = waterfill.waterfill_det([2.0, 1.0], 1.0)
        diag = covopt.fixed_point_diag(POINT_21, 1.0, opts=OptimizerOptions(tol=1e-7,
                                                                            max_iter=2000))
        gen = covopt.iterate_general(POINT_21, 1.0, opts=OptimizerOptions(tol=1e-7,
                                                                          max_iter=4000))
        assert abs(diag.mi.mean - sol.rate) <= 1e-3
        assert abs(gen.mi.mean - sol.rate) <= 1e-3

    def test_kronecker_zero_mean_agreement(self):
        # receive correlation keeps the law on pools; T's basis is still optimal
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.diag([1.2, 0.8]),
                                         np.diag([1.4, 0.6]))
        diag = covopt.fixed_point_diag(law, 1.0, OptimizerOptions(tol=8e-3, samples=40_000,
                                                                  max_iter=300, seed=18))
        gen = covopt.iterate_general(law, 1.0,
                                     opts=OptimizerOptions(tol=8e-3, samples=40_000,
                                                           max_iter=300, seed=19))
        gap = abs(diag.mi.mean - gen.mi.mean)
        assert gap <= 3 * (diag.mi.se + gen.mi.se)


class TestKktResidualGeneral:
    def test_optimum_of_point_mass(self):
        law = point_mass_with_unitary(21)
        res = covopt.iterate_general(law, 1.0, opts=OptimizerOptions(tol=1e-9, max_iter=6000))
        resid = covopt.kkt_residual_general(res.q, law, 1.0, samples=10, rng=0)
        assert resid <= 1e-4

    def test_identity_on_rx_correlated_rayleigh(self):
        resid = covopt.kkt_residual_general(np.eye(2) / 2, RX_RAYLEIGH_2x2, 1.0,
                                            samples=100_000, rng=22)
        assert resid <= 0.02

    def test_perturbed_factor_fails(self):
        law = point_mass_with_unitary(23)
        res = covopt.iterate_general(law, 1.0, opts=OptimizerOptions(tol=1e-7, max_iter=4000))
        bumped = chol_upper(res.q)
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
    opts = OptimizerOptions(tol=1e-2, samples=10_000, max_iter=100, seed=60,
                            final_samples=10_000)
    a = covopt.iterate_general(law, 1.0, opts)
    b = covopt.iterate_general(law, 1.0, opts)
    assert np.array_equal(a.q, b.q)
    assert a.mi.mean == b.mi.mean
    assert np.array_equal(a.mi_trace, b.mi_trace)


def test_smoke_larger_dimension():
    # desk-scale smoke at t = r = 4 on pools; bigger sizes are figure-driver territory
    law = channels.KroneckerGaussian(np.zeros((4, 4)), np.diag([1.3, 1.1, 0.9, 0.7]),
                                     0.3 * np.ones((4, 4)) + 0.7 * np.eye(4))
    res = covopt.iterate_general(law, 1.0, opts=OptimizerOptions(samples=5_000, tol=3e-2,
                                                                 max_iter=60, seed=50))
    assert np.isfinite(res.mi.mean)
    assert abs(np.trace(res.q).real - 1.0) <= 1e-9
    assert res.mi_trace[-1] >= res.mi_trace[0] - 1e-6


@pytest.mark.parametrize("bad, field", [
    ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": np.nan}, "tol"),
    ({"tol": np.inf}, "tol"), ({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
    ({"samples": 0}, "samples"), ({"samples": 1}, "samples"), ({"final_samples": 0}, "final_samples"),
])
def test_bad_solver_options_are_rejected_before_any_step(bad, field):
    # tol = -1 once left _backtrack without a way out on a pooled Ricean law; the
    # solvers take only OptimizerOptions, so its constructor is the one gate
    with pytest.raises(ValueError, match=f"option {field} "):
        OptimizerOptions(**bad)


RICEAN_4x4 = channels.KroneckerGaussian(np.diag([4.0, 0.0, 0.0, 0.0]), np.eye(4),
                                        0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))


def random_mixture(k, t, seed):
    """k equally likely t x t atoms with iid CN(0, 1) entries."""
    gen = np.random.default_rng(seed)
    return channels.FiniteMixture(np.full(k, 1.0 / k), tuple(
        (gen.standard_normal((t, t)) + 1j * gen.standard_normal((t, t))) / np.sqrt(2)
        for _ in range(k)))


MIXTURE_2x2, MIXTURE_4x4 = random_mixture(2, 2, 2024), random_mixture(4, 4, 2025)


def weighted_mi(q, law, gamma):
    """sum_i w_i ln det(I + gamma Q H_i^H H_i) over the atoms of ``law``, one by one."""
    return sum(w * np.linalg.slogdet(np.eye(len(q)) + gamma * q @ h.conj().T @ h)[1]
               for h, w in zip(*law.support))


class TestStreamedPools:
    @pytest.mark.parametrize("samples", [2, 700, channels._BLOCK])
    @pytest.mark.parametrize("rotate", [False, True], ids=["no-basis", "basis"])
    def test_pool_of_one_block_is_one_draw(self, samples, rotate):
        u = linalg.haar_unitary(4, np.random.default_rng(4)) if rotate else None
        h = channels.sample_batch(RICEAN_4x4, samples, SeededStream(41).generator())
        ref = _gram(h if u is None else (h.reshape(-1, 4) @ u).reshape(h.shape), 2.0)
        assert np.array_equal(covopt._s_pool(RICEAN_4x4, 2.0, u, samples, SeededStream(41)), ref)

    @pytest.mark.parametrize("law", [channels._point_mass(np.array([[1.0, 0.5j], [0.2, 2.0]])),
                                     MIXTURE_4x4], ids=["one-atom", "four-atom"])
    def test_one_atom_law_pools_its_atom(self, law):
        # a law with support pools each of its atoms once, weighted by its atoms' weights
        h, w = law.support
        pool = covopt._s_pool(law, 3.0, None, 10**5, SeededStream(0))
        assert np.array_equal(pool, _gram(h, 3.0)) and np.array_equal(covopt._weights(law), w)

    @pytest.mark.parametrize("samples", [2, channels._BLOCK - 1, channels._BLOCK,
                                         3 * channels._BLOCK + 17])
    @pytest.mark.parametrize("lam", [[0.4, 0.3, 0.2, 0.1], [0.6, 0.4, 0.0, 0.0]],
                             ids=["full-rank", "rank-two"])
    def test_mean_resolvent_has_the_whole_pool_bits(self, samples, lam):
        pool = covopt._s_pool(RICEAN_4x4, 1.0, None, samples, SeededStream(42))
        vecs = linalg.haar_unitary(4, np.random.default_rng(5))
        q = covopt._covariance(vecs, np.array(lam))
        x = covopt._resolvent_gradient(pool, q, covopt._thin_factor(q))
        m, mom = covopt._resolvent_moments(pool, q)
        assert np.array_equal(m, x.mean(axis=0)) and mom is None
        logdets = np.linalg.slogdet(np.eye(4) + pool @ q)[1]
        assert np.allclose(covopt._pool_mi(pool, q), (logdets.mean(), logdets.std(ddof=1)
                                                      / np.sqrt(samples)), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lam", [[0.4, 0.3, 0.2, 0.1], [0.6, 0.4, 0.0, 0.0]],
                             ids=["full-rank", "rank-two"])
    def test_each_pass_factors_q_once(self, monkeypatch, lam):
        # one montecarlo._thin_factor per pass over the pool, handed to every block
        pool = covopt._s_pool(RICEAN_4x4, 1.0, None, 3 * channels._BLOCK + 17, SeededStream(45))
        calls, inner = [], montecarlo._thin_factor
        for module in (covopt, montecarlo):
            monkeypatch.setattr(module, "_thin_factor", lambda q: calls.append(q) or inner(q))
        q = covopt._covariance(linalg.haar_unitary(4, np.random.default_rng(7)), np.array(lam))
        for reduce in (covopt._resolvent_moments, covopt._pool_mi):
            calls.clear()
            reduce(pool, q)
            assert len(calls) == 1

    def test_curvature_moment_is_the_whole_pool_moment(self):
        samples = 3 * channels._BLOCK + 17
        pool = covopt._s_pool(RICEAN_4x4, 1.0, None, samples, SeededStream(43))
        q = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        vx = covopt._resolvent_gradient(pool, q, None).reshape(samples, 16)
        ref = vx.T @ vx / samples
        mom = covopt._resolvent_moments(pool, q, second=True)[1]
        assert np.abs(mom - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("samples", [10**4, 10**5])
    def test_solve_holds_one_pool_and_one_block(self, samples):
        # the pool, 16 complex per draw, and one block; 12.3 and 122.2 MiB when
        # pools were drawn and reduced whole
        tracemalloc.start()
        try:
            res = covopt.iterate_general(RICEAN_4x4, 1.0,
                                         OptimizerOptions(samples=samples, seed=12345))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= (6 * 2**20 if samples == 10**4 else 1.25 * samples * 16 * 16 + 4 * 2**20)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 100.0])
@pytest.mark.parametrize("lam", [[1.0, 0.0, 0.0, 0.0], [0.7, 0.3, 0.0, 0.0]],
                         ids=["rank-one", "rank-two"])
def test_thin_resolvent_is_the_lu_resolvent(lam, gamma):
    # rank Q <= 2: X = S - S P (I_2 + P^H S P)^-1 P^H S in closed form, not by LU
    pool = covopt._s_pool(RICEAN_4x4, gamma, None, 3_000, SeededStream(44))
    q = covopt._covariance(linalg.haar_unitary(4, np.random.default_rng(6)), np.array(lam))
    p = covopt._thin_factor(q)
    assert p is not None
    ref = np.linalg.solve(np.eye(4) + pool @ q, pool)
    assert np.abs(covopt._resolvent_gradient(pool, q, p) - ref).max() <= 1e-12 * np.abs(ref).max()


def mixture_q(t, rank, seed=8):
    """A unit-trace t x t covariance of the given rank in a Haar basis."""
    lam = np.zeros(t)
    lam[:rank] = np.arange(rank, 0, -1) / (rank * (rank + 1) / 2)
    return covopt._covariance(linalg.haar_unitary(t, np.random.default_rng(seed)), lam)


class TestFiniteSupport:
    """A law with support is solved and scored on its atoms and weights: exact, SE 0."""

    UNEQUAL_4x4 = channels.FiniteMixture([0.1, 0.2, 0.3, 0.4], MIXTURE_4x4.atoms)

    @pytest.mark.parametrize("law", [MIXTURE_2x2, MIXTURE_4x4], ids=["2-atom-2x2", "4-atom-4x4"])
    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_mixture_solves_are_exact(self, law, gamma, monkeypatch):
        # one pool of the atoms serves every epoch, and nothing is drawn
        pools, s_pool = [], covopt._s_pool
        monkeypatch.setattr(covopt, "_s_pool", lambda *args: pools.append(args) or s_pool(*args))
        monkeypatch.setattr(covopt, "sample_batch", None)
        monkeypatch.setattr(montecarlo, "_law_blocks", None)
        res = covopt.iterate_general(law, gamma, opts=OptimizerOptions(seed=12345))
        assert res.converged and res.kkt_residual <= 1e-9 and len(pools) == 1
        assert res.mi.se == 0.0 and abs(res.mi.mean - weighted_mi(res.q, law, gamma)) <= 1e-12
        assert covopt.kkt_residual_general(res.q, law, gamma) <= 1e-9

    @pytest.mark.parametrize("law", [MIXTURE_2x2, MIXTURE_4x4], ids=["2-atom-2x2", "4-atom-4x4"])
    def test_mixture_without_a_common_basis_has_no_diagonal_solve(self, law):
        # E[H^H H]'s eigenvectors leave the atoms' Grams off-diagonal, so no basis is known
        # to diagonalize the optimum; the best powers over the identity on the four-atom
        # law leave a residual of 0.215 and fall 0.096 nats short of the general optimum
        assert law.diag_basis is None
        with pytest.raises(ValueError, match="^no a-priori diagonalizing basis for this law"):
            covopt.fixed_point_diag(law, 1.0)

    @pytest.mark.parametrize("law", [MIXTURE_2x2, UNEQUAL_4x4], ids=["2-atom-2x2", "4-atom-4x4"])
    @pytest.mark.parametrize("thin", [False, True], ids=["full-rank", "rank-le-2"])
    def test_residual_and_mi_are_the_weighted_sums(self, law, thin, monkeypatch):
        monkeypatch.setattr(covopt, "sample_batch", None)
        monkeypatch.setattr(montecarlo, "_law_blocks", None)
        t = law.tx
        q = mixture_q(t, min(2, t - 1) if thin else t)
        assert (covopt._thin_factor(q) is not None) == thin
        m = sum(w * np.linalg.solve(np.eye(t) + s @ q, s)
                for s, w in zip(_gram(law.support[0], 2.0), law.weights))
        assert abs(covopt.kkt_residual_general(q, law, 2.0, samples=2, rng=0)
                   - covopt._q_residual(m, q)) <= 1e-12
        est = ergodic_mi(q, law, 2.0, samples=2, rng=0)
        assert est.se == 0.0 and est.samples == law.weights.size
        assert abs(est.mean - weighted_mi(q, law, 2.0)) <= 1e-12

    @pytest.mark.parametrize("thin", [False, True], ids=["full-rank", "rank-two"])
    def test_pool_moments_are_weighted_sums(self, thin):
        law = self.UNEQUAL_4x4
        pool, w = covopt._s_pool(law, 2.0, None, 2, SeededStream(0)), covopt._weights(law)
        q = mixture_q(4, 2 if thin else 4)
        x = np.linalg.solve(np.eye(4) + pool @ q, pool)
        m, mom = covopt._resolvent_moments(pool, q, True, w)
        vx = x.reshape(-1, 16)
        assert np.abs(m - np.einsum("k,kij->ij", w, x)).max() <= 1e-13
        assert np.abs(mom - (vx.T * w) @ vx).max() <= 1e-13
        mi, se = covopt._pool_mi(pool, q, w)
        assert se == 0.0 and abs(mi - weighted_mi(q, law, 2.0)) <= 1e-13

    @pytest.mark.parametrize("thin", [False, True], ids=["full-rank", "rank-one"])
    def test_a_unit_weight_keeps_the_unweighted_bits(self, thin):
        # a point mass's moments and MI are those of its one draw, bit for bit
        pool = _gram(np.array([[[1.0, 0.5j], [0.2, 2.0]]]), 3.0)
        q = mixture_q(2, 1 if thin else 2)
        for a, b in zip(covopt._resolvent_moments(pool, q, True),
                        covopt._resolvent_moments(pool, q, True, np.ones(1))):
            assert np.array_equal(a, b)
        assert covopt._pool_mi(pool, q) == covopt._pool_mi(pool, q, np.ones(1))


#: stat-csi's pooled Ricean 4x4 solve (gamma = 1, seed 12345) as it stood before its
#: per-block work moved to once per call, and its check residual with each powered
#: row's off columns measured by their 2-norm (it read 3.488e-3 on the largest entry);
#: the final MI and SE as its rank-2 Q's Grams are drawn through a Bartlett factor
#: (3.660498254051361 +- 0.0014528272149345021 from the draws of H P); Q as the solve
#: starts at the deterministic-equivalent optimum: its settled stop lies 8.2e-11 from the
#: one reached from the exact optimum of the zero-mean law with the same E[H^H H] (the MI
#: moved by 8.4e-13 and the residual by 1e-11, inside their pins)
RICEAN_SOLVE_MI, RICEAN_SOLVE_SE, RICEAN_SOLVE_KKT = (
    3.66093739101595, 0.001441771345862986, 0.003955146171425815)
RICEAN_SOLVE_Q = np.array([
    [0.5697791297967694, 0.017716109900525676 + 0.000544960575374235j,
     0.017601075219561488 + 0.000831469646500882j, 0.01870492332355929 + 0.0004191601416945086j],
    [0.017716109900525676 - 0.000544960575374235j, 0.14323976911328298,
     0.14283505092334875 - 0.0007831305456409074j, 0.1438897314660801 + 0.0003629804655600512j],
    [0.017601075219561488 - 0.000831469646500882j, 0.14283505092334875 + 0.0007831305456409074j,
     0.14243602699604, 0.1434809659557409 + 0.0011480426943017742j],
    [0.01870492332355929 - 0.0004191601416945086j, 0.1438897314660801 - 0.0003629804655600512j,
     0.1434809659557409 - 0.0011480426943017742j, 0.1445450740939075]])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_residual_does_not_depend_on_the_null_space_basis(seed):
    # Q has rank two: eigh picks some basis of its null space, and the residual
    # must read the same on any other
    pool = covopt._s_pool(RICEAN_4x4, 1.0, None, 10_000, SeededStream(7))
    m = covopt._resolvent_moments(pool, RICEAN_SOLVE_Q)[0]
    lam, vecs = np.linalg.eigh(RICEAN_SOLVE_Q)
    on = lam > covopt.MODE_OFF
    assert np.count_nonzero(on) == 2
    ref = covopt._residual(vecs.conj().T @ m @ vecs, on)
    vecs[:, ~on] = vecs[:, ~on] @ linalg.haar_unitary(2, np.random.default_rng(seed))
    assert covopt._residual(vecs.conj().T @ m @ vecs, on) == pytest.approx(ref, rel=1e-12, abs=0)


def test_pooled_ricean_solve_keeps_its_numbers():
    # the same draws and arithmetic give the same solve; the relative tolerances
    # leave room for another CPU's BLAS kernels, and the check residual, which
    # moves about 1e-8 when Q moves by round-off, gets 1e-6
    res = covopt.iterate_general(RICEAN_4x4, 1.0, OptimizerOptions(seed=12345))
    assert res.mi.mean == pytest.approx(RICEAN_SOLVE_MI, rel=1e-12, abs=0)
    assert res.mi.se == pytest.approx(RICEAN_SOLVE_SE, rel=1e-12, abs=0)
    assert np.abs(res.q - RICEAN_SOLVE_Q).max() <= 1e-12 * np.abs(RICEAN_SOLVE_Q).max()
    assert res.kkt_residual == pytest.approx(RICEAN_SOLVE_KKT, rel=1e-6, abs=0)


class TestZeroChannel:
    @pytest.mark.parametrize("law", [
        channels._point_mass(np.zeros((2, 2))),
        channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))),
    ], ids=["point-mass", "kronecker-t-zero"])
    @pytest.mark.parametrize("solve", [covopt.iterate_general, covopt.fixed_point_diag],
                             ids=["general", "diag"])
    def test_zero_channel_is_infeasible_without_a_warning(self, law, solve):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(waterfill.InfeasibleError, match="^zero channel: the capacity "
                               "is 0 and every covariance is optimal$"):
                solve(law, 1.0)


def jensen_start(law, gamma):
    """The Jensen start of a general solve: eigenvectors of E[H^H H] and the water-filling
    powers over gamma times its eigenvalues, largest first."""
    vecs, eig = linalg.herm_eig(law.expected_gram())
    return vecs, waterfill.waterfill_det(gamma * eig.clip(0), 1.0).powers


def ricean(r, t, mean_diag, tx):
    """Kronecker law with R = I, T = ``tx`` and a mean whose diagonal starts ``mean_diag``."""
    mean = np.zeros((r, t))
    mean[range(len(mean_diag)), range(len(mean_diag))] = mean_diag
    return channels.KroneckerGaussian(mean, np.eye(r), tx)


#: pooled laws outside t <= 5 and t <= r: Ricean 8 x 8 with
#: T = (I + 1 1^T) / 2, 6 x 6 with a rank-2 mean and T = 0.7 1 1^T + 0.3 I, and 2 x 4 (r < t)
RICEAN_8x8 = ricean(8, 8, [8.0], 0.5 * (np.eye(8) + np.ones((8, 8))))
RICEAN_6x6 = ricean(6, 6, [3.0, 2.0], 0.7 * np.ones((6, 6)) + 0.3 * np.eye(6))
RICEAN_2x4 = ricean(2, 4, [2.0], 0.5 * (np.eye(4) + np.ones((4, 4))))


def de_start_sweep():
    """Pooled laws: Ricean n x n with a line-of-sight entry of 0.5, 2 or 8, a random mean
    with R != I, zero mean with R != c I, and the 8 x 8, 6 x 6 and 2 x 4 Ricean laws."""
    laws = []
    for n in (2, 3, 4):
        tx, rx = 0.5 * np.ones((n, n)) + 0.5 * np.eye(n), np.diag(np.linspace(1.4, 0.6, n))
        for los in (0.5, 2.0, 8.0):
            laws.append(pytest.param(ricean(n, n, [los], tx), id=f"ricean-{n}x{n}-los-{los:g}"))
        g = np.random.default_rng(n)
        mean = 0.7 * (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
        laws.append(pytest.param(channels.KroneckerGaussian(mean, rx, tx),
                                 id=f"random-mean-{n}x{n}"))
        laws.append(pytest.param(channels.KroneckerGaussian(
            np.zeros((n, n)), rx, np.diag(np.linspace(1.6, 0.4, n))), id=f"zero-mean-{n}x{n}"))
    return laws + [pytest.param(law, id=name) for law, name in (
        (RICEAN_8x8, "ricean-8x8"), (RICEAN_6x6, "ricean-6x6"), (RICEAN_2x4, "ricean-2x4"))]


class TestWarmStart:
    def test_exact_kronecker_grid_converges_from_the_jensen_start(self):
        # the Jensen start powers as many modes as the optimum or more here;
        # test_a_start_that_leaves_a_mode_off_frees_it has one with fewer
        more = 0
        for tx in ([1.6, 0.4], [1.2, 0.8], [1.9, 0.1]):
            for r in (2, 3):
                law = channels.KroneckerGaussian(np.zeros((r, 2)), np.eye(r), np.diag(tx))
                assert law.exact
                for gamma in np.geomspace(0.05, 10.0, 8):
                    res = covopt.iterate_general(law, gamma)
                    exact = covopt.kkt_residual_general(
                        covopt._covariance(law.diag_basis, res.qhat), law, gamma)
                    assert res.converged and exact <= 1e-9 and res.iterations <= 3
                    powers = jensen_start(law, gamma)[1]
                    more += np.count_nonzero(powers) > np.count_nonzero(res.qhat)
        assert more > 0

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_point_mass_settles_at_the_start(self, seed):
        law = point_mass_with_unitary(seed)
        vecs, eig = linalg.herm_eig(law.expected_gram())
        sol = waterfill.waterfill_det(eig.clip(0), 1.0)
        res = covopt.iterate_general(law, 1.0)
        assert res.iterations == 1 and res.converged
        assert np.abs(res.q - covopt._covariance(vecs, sol.powers)).max() <= 1e-12

    @pytest.mark.parametrize("solve", [covopt.iterate_general, covopt.fixed_point_diag],
                             ids=["general", "diag"])
    def test_a_start_that_leaves_a_mode_off_frees_it(self, solve):
        # E[H^H H] = diag(50, 0.8) water-fills to beamforming at gamma 1, but
        # the weak atom's mode gains more than the strong one's at q = (1, 0):
        # 0.8 against 50/101, and the optimum gives it 0.19 of the power
        law = channels.FiniteMixture(np.array([0.5, 0.5]),
                                     (np.diag([10.0, 0.0]), np.diag([0.0, np.sqrt(1.6)])))
        assert np.array_equal(law.diag_basis, np.eye(2))  # both atoms are diagonal in it
        assert np.count_nonzero(jensen_start(law, 1.0)[1]) == 1
        res = solve(law, 1.0, opts=OptimizerOptions(seed=12345))
        # exact: 0.8 / (1 + 1.6 q) = 50 / (1 + 100 (1 - q)) at q = (1 - 49.2 / 80) / 2
        assert res.converged and res.mi.se == 0.0
        assert abs(np.sort(np.linalg.eigvalsh(res.q))[0] - 0.1925) <= 1e-9

    def test_ricean_solve_takes_few_lu_solves(self, monkeypatch):
        # from the deterministic equivalent's rank-two optimum every iterate forms X in
        # closed form; 20,000 LU-solved matrices and 5 steps from the rank-four Jensen
        # start, and 70,005 and 6 from Q = I/4 with every X by LU
        solved = []
        lu = np.linalg.solve

        def counting(a, b):
            solved.append(int(np.prod(np.shape(a)[:-2])))
            return lu(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        res = covopt.iterate_general(RICEAN_4x4, 1.0, OptimizerOptions(seed=12345))
        assert res.converged and res.iterations <= 2
        assert sum(solved) == 0

    def test_ricean_solve_cut_short_is_not_converged(self):
        # one step from the deterministic equivalent's optimum leaves a check residual
        # near 4e-3
        res = covopt.iterate_general(RICEAN_4x4, 1.0, OptimizerOptions(seed=12345, max_iter=1))
        assert res.iterations == 1 and not res.converged

    @pytest.mark.parametrize("law", de_start_sweep())
    def test_de_start_reaches_the_jensen_start_optimum(self, law, monkeypatch):
        # a start that returns what it is given is the Jensen start; the final MI is not
        # compared, so it takes the fewest draws
        assert not law.exact
        for gamma in (0.1, 1.0, 10.0):
            for seed in (1, 2):
                opts = OptimizerOptions(seed=seed, final_samples=2)
                with monkeypatch.context() as patch:
                    patch.setattr(covopt, "_de_start", lambda kron, gamma, vecs, lam: (vecs, lam))
                    jensen = covopt.iterate_general(law, gamma, opts)
                res = covopt.iterate_general(law, gamma, opts)
                assert res.iterations <= jensen.iterations
                assert np.abs(res.q - jensen.q).max() <= 1e-8
                assert res.converged == jensen.converged


def iid_large_system_mi(r, t, gamma):
    """Verdu & Shamai's (IEEE Trans. IT 1999) large-system E[ln det(I + gamma/t G G^H)], G r x t
    iid CN(0, 1): r C(beta, snr) at beta = t / r and snr = gamma r / t, in nats."""
    beta, snr = t / r, gamma * r / t
    f = (np.sqrt(snr * (1 + np.sqrt(beta)) ** 2 + 1)
         - np.sqrt(snr * (1 - np.sqrt(beta)) ** 2 + 1)) ** 2
    return r * (beta * np.log1p(snr - f / 4) + np.log1p(snr * beta - f / 4) - f / (4 * snr))


def de_mi(law, gamma, vecs, lam):
    """The deterministic equivalent's MI at Q = vecs diag(lam) vecs^H from its delta, delta~
    and G: ln det(I + G Q) + ln det(I + delta~ R) - delta delta~."""
    (dl, dt), g = covopt._deterministic_equivalent(law.kronecker, gamma, vecs, lam)
    logdet = np.linalg.slogdet(np.eye(law.tx) + g @ covopt._covariance(vecs, lam))[1]
    return logdet + np.log1p(dt * np.linalg.eigvalsh(law.rx_corr)).sum() - dl * dt


class TestDeterministicEquivalent:
    @pytest.mark.parametrize("r, t", [(4, 4), (8, 4), (4, 8), (16, 5)])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_iid_mi_is_the_large_system_formula(self, r, t, gamma):
        law = channels.KroneckerGaussian(np.zeros((r, t)), np.eye(r), np.eye(t))
        mi = de_mi(law, gamma, np.eye(t), np.full(t, 1 / t))
        assert mi == pytest.approx(iid_large_system_mi(r, t, gamma), rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_ricean_8x8_mi_at_its_optimum_is_within_a_thousandth(self, gamma):
        # it is a start, not an answer: 2.8e-4 and 5.8e-4 of the MI low here
        start = covopt._de_start(RICEAN_8x8.kronecker, gamma, *jensen_start(RICEAN_8x8, gamma))
        mi = de_mi(RICEAN_8x8, gamma, *start)
        mc = ergodic_mi(covopt._covariance(*start), RICEAN_8x8, gamma, 200_000, 1)
        assert mi == pytest.approx(mc.mean, rel=1e-3, abs=0)

    def test_a_law_fit_by_its_moments_takes_its_start(self, monkeypatch):
        # the matrix Gaussian with vec covariance T (x) I is the Ricean 4 x 4 law: its
        # fit (mean, I, T) is that law's, so is its start, and neither start draws
        vec_law = channels.MatrixGaussian(RICEAN_4x4.mean, np.kron(RICEAN_4x4.tx_corr, np.eye(4)))
        draws = []
        for cls in (channels.KroneckerGaussian, channels.MatrixGaussian):
            monkeypatch.setattr(cls, "sample_batch", lambda *args: draws.append(args))
        jensen = jensen_start(RICEAN_4x4, 1.0)
        ours, fit = (covopt._de_start(law.kronecker, 1.0, *jensen)
                     for law in (RICEAN_4x4, vec_law))
        assert draws == []
        assert np.count_nonzero(ours[1]) == 2 and np.count_nonzero(jensen[1]) == 4
        assert np.abs(covopt._covariance(*fit) - covopt._covariance(*ours)).max() <= 1e-12

    def test_a_start_that_does_not_settle_is_the_jensen_start(self, monkeypatch):
        # on the 2 x 4 law at gamma 10 water-filling G does not settle in 20 outer steps
        steps = []
        inner = covopt._deterministic_equivalent
        monkeypatch.setattr(covopt, "_deterministic_equivalent",
                            lambda *args: steps.append(1) or inner(*args))
        jensen = jensen_start(RICEAN_2x4, 10.0)
        start = covopt._de_start(RICEAN_2x4.kronecker, 10.0, *jensen)
        assert len(steps) == 20 and start[0] is jensen[0] and start[1] is jensen[1]

    @pytest.mark.parametrize("law", [channels._point_mass(np.eye(2)), MIXTURE_2x2],
                             ids=["point-mass", "mixture"])
    def test_a_law_with_atoms_has_no_kronecker_parameters(self, law):
        assert law.kronecker is None


class TestExactEvaluations:
    """An exact-law solve evaluates the closed form once per point: the curvature
    is its Hessian, and one memo serves the MI, the moments, the epoch check and
    the reported MI."""

    KRONECKER = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.diag([1.4, 0.6]))

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        inner = channels._log_det_moment

        def counting(r, sigma, **kwargs):
            calls.append(sigma.copy())
            return inner(r, sigma, **kwargs)

        monkeypatch.setattr(channels, "_log_det_moment", counting)
        return calls

    @pytest.mark.parametrize("method", ["general", "diag"])
    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_kronecker_solve_takes_at_most_six(self, evaluations, method, gamma):
        # 20 evaluations each with central-difference curvature, in the same 3 steps
        law, opts = self.KRONECKER, OptimizerOptions(seed=12345)
        res = (covopt.iterate_general(law, gamma, opts) if method == "general"
               else covopt.fixed_point_diag(law, gamma, opts))
        assert res.converged and res.iterations == 3
        assert covopt.kkt_residual_general(
            covopt._covariance(law.diag_basis, res.qhat), law, gamma) <= 1e-9
        assert len(evaluations) <= 6 + 1  # the last one is the residual above

    def test_iid_4x4_solve_takes_at_most_three(self, evaluations):
        res = covopt.iterate_general(channels.KroneckerGaussian(
            np.zeros((4, 4)), np.eye(4), np.eye(4)), 1.0, OptimizerOptions(seed=12345))
        assert res.converged and res.iterations == 1
        assert len(evaluations) <= 3

    @pytest.mark.parametrize("gamma, extra", [(0.01, 0), (10.0, 1)])
    def test_only_a_freed_mode_costs_an_evaluation(self, evaluations, gamma, extra):
        # at q = (1, 0) the weak mode stays off at gamma 0.01 and is freed at 10,
        # where its column comes from a one-sided difference of the gradient
        law = self.KRONECKER
        mi_of, moments = covopt._objective(law, gamma, law.diag_basis, 2, SeededStream(0))
        lam = np.array([1.0, 0.0])
        m, curv = moments(np.eye(2), lam)
        mi = mi_of(np.diag(lam).astype(complex))
        h = curv(np.eye(2), None)
        assert len(evaluations) == 1 + extra
        at_lam = law.exact_powers(lam, gamma)
        assert mi == at_lam[0] and np.array_equal(h[:, 0], -at_lam[2][:, 0])
        if extra:
            step = np.array([1.0, 1e-4 / 2])
            g1 = law.exact_powers(step, gamma)[1]
            assert h[1, 1] == (np.diag(m).real - g1)[1] / step[1]
