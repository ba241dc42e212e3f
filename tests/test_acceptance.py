"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criterion 5 checks the two-state scalar channel (gain 1e-4 or 1, each with
probability 1/2) at SNR 10 against its closed forms: the space-time capacity is
ln(1+2*10)/2 at water level 1+2*10, the capacity/naive rate ratio is
ln(1+2*10)/(ln(1+10*1e-8) + ln(1+10)) ~ 1.27, and the factor-two gap holds in
power (3 dB): the naive per-slot rate at twice the budget matches the capacity.
The factor-two gap in rate is the low-SNR limit, checked in
test_waterfill.py::test_factor_two_gap_at_low_snr.
"""

import time

import numpy as np
import scipy.integrate
import scipy.special

from mimocap import analysis, channels, covopt, linalg, waterfill
from mimocap.covopt import OptimizerOptions
from test_covopt import chol_upper, monotonicity_check

GOLDEN_RATE = float(np.log(2.5) + np.log(1.25))  # two-mode {2,1}, unit budget
RAYLEIGH_M1 = channels.wishart_density(1, 1)
RAYLEIGH_M2 = channels.wishart_density(2, 2)
IID_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_deterministic_waterfill_golden_value():
    waterfill.waterfill_det([2.0, 1.0], 1.0)  # warm up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        sol = waterfill.waterfill_det([2.0, 1.0], 1.0)
        best = min(best, time.perf_counter() - t0)
    ok = abs(sol.rate - 1.1394) <= 1e-4 and best < 1e-3
    report(1, ok, f"two-mode rate {sol.rate:.6f} nats (target 1.1394), "
                  f"{best * 1e6:.0f} us")


def test_criterion_2_general_iteration_on_rotated_point_mass():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_mi = worst_res = 0.0
    for _ in range(20):
        u = linalg.haar_unitary(2, rng)
        law = channels.PointMass((u * np.sqrt([2.0, 1.0])) @ u.conj().T)
        res = covopt.iterate_general(law, 1.0, opts=OptimizerOptions(tol=1e-9,
                                                                     max_iter=6000))
        worst_mi = max(worst_mi, abs(res.mi.mean - GOLDEN_RATE))
        resid = covopt.kkt_residual_general(res.q, law, 1.0,
                                            samples=10, rng=0)
        worst_res = max(worst_res, resid)
    elapsed = time.perf_counter() - t0
    ok = worst_mi <= 5e-3 and worst_res <= 1e-3 and elapsed < 10.0
    report(2, ok, f"20 rotated bases: worst |MI - C| {worst_mi:.2e}, "
                  f"worst residual {worst_res:.2e}, {elapsed:.1f} s")


def test_criterion_3_iid_rayleigh_uniform_covariance():
    t0 = time.perf_counter()
    diag = covopt.fixed_point_diag(
        IID_2x2, 1.0, opts=OptimizerOptions(samples=100_000, tol=6e-3,
                                            max_iter=300, seed=31))
    gen = covopt.iterate_general(
        IID_2x2, 1.0, opts=OptimizerOptions(samples=100_000, tol=6e-3,
                                            max_iter=300, seed=32))
    elapsed = time.perf_counter() - t0
    dev_d = np.abs(diag.q - np.eye(2) / 2).max()
    dev_g = np.abs(gen.q - np.eye(2) / 2).max()
    ok = dev_d <= 0.03 and dev_g <= 0.03 and elapsed < 60.0
    report(3, ok, f"|Q - I/2|_max: diagonal {dev_d:.4f}, general {dev_g:.4f}, "
                  f"{elapsed:.1f} s")


def test_criterion_4_space_time_water_level_closed_equations():
    # Derivation check first: the average-power integral for f(lam) = e^-lam
    # is xi e^{-1/xi} - Gamma(0, 1/xi) (the sign differs from the transcribed
    # m=1 equation; the m=2 form below confirms the -Gamma structure).
    xi_probe = 1.7
    quad, _ = scipy.integrate.quad(
        lambda lam: (xi_probe - 1 / lam) * np.exp(-lam), 1 / xi_probe, np.inf)
    closed = xi_probe * np.exp(-1 / xi_probe) - scipy.special.exp1(1 / xi_probe)
    assert abs(quad - closed) < 1e-10

    t0 = time.perf_counter()
    worst = 0.0
    for budget in (0.1, 1.0, 10.0):
        xi1 = waterfill.st_water_level(RAYLEIGH_M1, budget)
        r1 = xi1 * np.exp(-1 / xi1) - scipy.special.exp1(1 / xi1) - budget
        xi2 = waterfill.st_water_level(RAYLEIGH_M2, budget)
        r2 = np.exp(-1 / xi2) * (2 * xi2 + 1) \
            - 2 * scipy.special.exp1(1 / xi2) - budget
        worst = max(worst, abs(r1), abs(r2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(4, ok, f"worst closed-equation residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_5_two_state_factor_two_gap_at_snr_10():
    eps, gamma = 1e-4, 10.0
    law = channels.FiniteMixture([0.5, 0.5],
                                 [np.array([[eps]]), np.array([[1.0]])])
    density = channels.PointMassDensity([eps**2, 1.0], [0.5, 0.5], m=1)
    t0 = time.perf_counter()
    xi = waterfill.st_water_level(density, gamma)
    st = waterfill.st_capacity(density, xi)
    naive = waterfill.naive_avg_rate(law, gamma)
    naive_2x = waterfill.naive_avg_rate(law, 2 * gamma)
    elapsed = time.perf_counter() - t0
    ratio = st / naive
    cap_closed = 0.5 * np.log1p(2 * gamma)
    ratio_closed = np.log1p(2 * gamma) / (np.log1p(gamma * eps**2)
                                          + np.log1p(gamma))
    # the dead state stays off (1/eps^2 > xi); the live one gets all power
    ok = (abs(xi - (1 + 2 * gamma)) <= 1e-9
          and abs(st - cap_closed) <= 1e-9
          and abs(ratio - ratio_closed) <= 1e-9
          # 3 dB: true difference is ln(1 + 2*gamma*eps^2)/2 ~ 1e-7
          and abs(naive_2x - st) <= 1e-6
          and elapsed < 5.0)
    report(5, ok, f"capacity {st:.10f} nats (closed form {cap_closed:.10f}), "
                  f"capacity/naive ratio {ratio:.6f} (closed form "
                  f"{ratio_closed:.6f}), naive at 2x budget - capacity "
                  f"{naive_2x - st:.2e} nats at SNR 10")


def test_criterion_6_onoff_closed_form():
    m, p, budget = 4, 0.3, 2.0
    d = channels.onoff_density(m, p)
    waterfill.st_water_level(d, budget)  # warm up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        xi = waterfill.st_water_level(d, budget)
        cap = waterfill.st_capacity(d, xi)
        best = min(best, time.perf_counter() - t0)
    gap = abs(cap - m * p * np.log(1 + budget / (m * p)))
    ok = gap <= 1e-9 and best < 1e-3
    report(6, ok, f"on-off capacity gap {gap:.2e}, {best * 1e6:.0f} us")


def test_criterion_7_beamforming_boundary_and_sign_agreement():
    t0 = time.perf_counter()
    gamma = 10 ** (-15 / 10)
    curve = analysis.beamform_boundary(gamma, np.linspace(1.0, 1.9, 10))
    tau_ok = np.all(np.abs(curve[:, 1] - 1.03) <= 0.02)

    rng = np.random.default_rng(777)
    resolved = agreed = attempts = 0
    while resolved < 50 and attempts < 150:
        attempts += 1
        rho = rng.uniform(0.05, 1.95)
        tau = rng.uniform(1.001, 1.95)
        g = 10 ** rng.uniform(-1.5, 1.0)
        mc = analysis.beamform_opt_mc(np.diag([rho, 2 - rho]),
                                      np.diag([tau, 2 - tau]), g,
                                      samples=40_000,
                                      rng=int(rng.integers(2**31)))
        if abs(mc.margin) <= 4 * mc.se:
            continue
        cf = analysis.beamform_opt_closed([rho, 2 - rho], tau, 2 - tau, g)
        resolved += 1
        agreed += (mc.margin > 0) == (cf.margin > 0)
    elapsed = time.perf_counter() - t0
    ok = tau_ok and resolved >= 50 and agreed == resolved and elapsed < 120.0
    report(7, ok, f"boundary tau in 1.03 +- 0.02: {tau_ok}; sign agreement "
                  f"{agreed}/{resolved}, {elapsed:.1f} s")


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    notes = []

    # (a) per-mode powers non-decreasing in SNR on 10 random Kronecker laws
    rng = np.random.default_rng(88)
    mono_ok = True
    for _ in range(10):
        d = rng.uniform(0.3, 1.7)
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2),
                                         np.diag([d, 2 - d]))
        ok = monotonicity_check(law, np.eye(2), [0.1, 1.0, 10.0],
                                OptimizerOptions(samples=20_000, tol=2e-2,
                                                 max_iter=200,
                                                 seed=int(rng.integers(2**31)),
                                                 final_samples=1000))
        mono_ok = mono_ok and ok
    notes.append(f"monotone powers {mono_ok}")

    # (b) MI non-decreasing along the general iteration up to 2 SE
    res = covopt.iterate_general(IID_2x2, 1.0,
                                 opts=OptimizerOptions(samples=20_000, tol=8e-3,
                                                       max_iter=200, seed=41))
    se = res.mi.se * np.sqrt(res.mi.samples / 20_000)
    ascent_ok = np.all(np.diff(res.mi_trace) >= -2 * se)
    notes.append(f"MI ascent {ascent_ok}")

    # (c) exact PAPR never exceeds the bound when the bound is finite
    papr_ok = True
    for dens, budget in [
        (channels.PointMassDensity([1.0], [1.0], m=1), 1.0),
        (channels.PointMassDensity([1.0, 2.0], [0.5, 0.5], m=1), 0.5),
        (channels.wishart_density(2, 4), 1.0),
        (channels.onoff_density(3, 0.6), 2.0),
    ]:
        bound = waterfill.papr_bound(dens, budget)
        if np.isfinite(bound):
            xi = waterfill.st_water_level(dens, budget)
            papr_ok = papr_ok and waterfill.papr(xi, budget, dens.m) <= bound + 1e-12
    notes.append(f"PAPR bound {papr_ok}")

    # (d) transmit-power density mass
    mass_ok = True
    for budget in (0.5, 2.0):
        xi = waterfill.st_water_level(RAYLEIGH_M2, budget)
        pd = waterfill.power_density(RAYLEIGH_M2, xi,
                                     np.linspace(xi * 1e-3, xi * 0.99, 20))
        mass = pd.atom0 + RAYLEIGH_M2.tail_moments(1 / xi)[0]
        mass_ok = mass_ok and abs(mass - 1.0) <= 1e-6
    notes.append(f"power mass {mass_ok}")

    # (e) factorization and eigendecomposition round trips at 1e-10
    rt_ok = True
    rng = np.random.default_rng(99)
    for n in (2, 4, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = a + a.conj().T
        u, lam = linalg.herm_eig(herm)
        rt_ok = rt_ok and np.abs((u * lam) @ u.conj().T - herm).max() \
            <= 1e-10 * np.abs(herm).max()
        tfac = np.triu(a)
        np.fill_diagonal(tfac, rng.uniform(0.5, 2.0, n))
        back = chol_upper(linalg.ut_gram(tfac))
        rt_ok = rt_ok and np.abs(back - tfac).max() <= 1e-10 * np.abs(tfac).max()
    notes.append(f"round trips {rt_ok}")

    elapsed = time.perf_counter() - t0
    ok = mono_ok and ascent_ok and papr_ok and mass_ok and rt_ok \
        and elapsed < 600.0
    report(8, ok, "; ".join(notes) + f"; {elapsed:.0f} s")


def test_criterion_9_waterfilling_gain_curves():
    t0 = time.perf_counter()

    def gains(m, gamma, seed):
        dens = channels.wishart_density(m, m)
        xi = waterfill.st_water_level(dens, gamma)
        st = waterfill.st_capacity(dens, xi)
        naive = waterfill.naive_avg_rate(dens, gamma, samples=50_000, rng=seed)
        uniform = m * dens.trunc_moment(
            lambda lam: np.log1p(gamma / m * lam), 0.0)
        return st / uniform, naive / uniform

    hi = 10 ** 3.0  # 30 dB
    lo = 10 ** -1.0  # -10 dB
    g_st2, g_sp2 = gains(2, hi, 91)
    g_st4, g_sp4 = gains(4, hi, 92)
    high_ok = all(abs(g - 1) <= 0.02 for g in (g_st2, g_sp2, g_st4, g_sp4))
    l_st, l_sp = gains(2, lo, 93)
    low_ok = l_st / l_sp >= 1.03
    elapsed = time.perf_counter() - t0
    ok = high_ok and low_ok and elapsed < 300.0
    report(9, ok, f"30 dB gains ({g_st2:.3f}, {g_sp2:.3f}, {g_st4:.3f}, "
                  f"{g_sp4:.3f}); -10 dB space-time/space "
                  f"{l_st / l_sp:.3f}; {elapsed:.0f} s")
