import itertools
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special

from mimocap import channels, linalg, waterfill
from mimocap.montecarlo import SeededStream
from mimocap.waterfill import InfeasibleError
from test_channels import traced_peak

RAYLEIGH_M1 = channels.wishart_density(1, 1)
RAYLEIGH_M2 = channels.wishart_density(2, 2)

# two-mode closed form: mu = 1.25, powers (0.75, 0.25), rate ln 2.5 + ln 1.25
GOLDEN_TWO_MODE_RATE = float(np.log(2.5) + np.log(1.25))
EPS = np.finfo(float).eps

#: four Wishart, two pooled and two discrete densities, solved over LEVEL_DBS
LEVEL_DENSITIES = [
    channels.wishart_density(1, 1), channels.wishart_density(2, 2),
    channels.wishart_density(2, 4), channels.wishart_density(4, 4),
    channels.empirical_density(
        channels.KroneckerGaussian(np.zeros((2, 2)), [[1.0, 0.6], [0.6, 1.0]],
                                   [[1.0, 0.5], [0.5, 1.0]]),
        10_000, SeededStream(1).generator()),
    channels.empirical_density(
        channels.KroneckerGaussian(np.diag([2.0, 0.0, 0.0]), np.eye(3), np.eye(3)),
        10_000, SeededStream(2).generator()),
    channels.onoff_density(2, 0.4),
    channels.empirical_density(channels.PointMass(np.diag([np.sqrt(2.0), 1.0, 0.1])),
                               1000, SeededStream(3).generator()),
]
LEVEL_IDS = ["wishart-1x1", "wishart-2x2", "wishart-2x4", "wishart-4x4", "pool-kronecker",
             "pool-ricean", "onoff", "point-mass"]
LEVEL_DBS = range(-60, 61, 5)


def _brentq_level(density, budget):
    """The water level by brentq on the same closed-form power, as a reference."""
    target = budget / density.m

    def residual(xi):
        return waterfill._avg_power(density, xi, 1 / xi)[0] - target

    hi = target + 10.0
    while residual(hi) < 0:
        hi *= 2.0
    return scipy.optimize.brentq(residual, 1e-12, hi, xtol=1e-15, rtol=4 * EPS, maxiter=200)


class TestWaterfillDet:
    def test_single_mode(self):
        sol = waterfill.waterfill_det([1.0], 1.0)
        assert np.isclose(sol.level, 2.0)
        assert np.allclose(sol.powers, [1.0])
        assert np.isclose(sol.rate, np.log(2.0))

    def test_symmetric_modes(self):
        sol = waterfill.waterfill_det([1.0, 1.0], 2.0)
        assert np.isclose(sol.level, 2.0)
        assert np.allclose(sol.powers, [1.0, 1.0])
        assert np.isclose(sol.rate, 2 * np.log(2.0))

    def test_two_mode_golden_value(self):
        sol = waterfill.waterfill_det([2.0, 1.0], 1.0)
        assert np.isclose(sol.level, 1.25)
        assert np.allclose(sol.powers, [0.75, 0.25])
        assert np.isclose(sol.rate, GOLDEN_TWO_MODE_RATE, atol=1e-12)
        assert round(sol.rate, 4) == 1.1394

    def test_weak_mode_shut_off(self):
        sol = waterfill.waterfill_det([10.0, 0.01], 0.5)
        assert sol.active == 1
        assert sol.powers[1] == 0.0
        assert np.isclose(sol.powers.sum(), 0.5)

    def test_power_conservation_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.uniform(0.01, 5.0, size=rng.integers(1, 6))
            budget = rng.uniform(0.05, 10.0)
            sol = waterfill.waterfill_det(lam, budget)
            assert np.isclose(sol.powers.sum(), budget, rtol=1e-10)
            assert np.all(sol.powers >= 0)

    def test_local_optimality_under_perturbation(self):
        # moving budget between modes never increases the rate
        lam = np.array([2.0, 1.0, 0.5])
        sol = waterfill.waterfill_det(lam, 2.0)
        rng = np.random.default_rng(1)

        def rate(p):
            return np.sum(np.log1p(p * lam))

        base = rate(sol.powers)
        for _ in range(200):
            i, j = rng.choice(3, 2, replace=False)
            eps = min(sol.powers[i], 10 ** rng.uniform(-4, -1))
            p = sol.powers.copy()
            p[i] -= eps
            p[j] += eps
            assert rate(p) <= base + 1e-12

    def test_all_zero_eigenvalues_error(self):
        with pytest.raises(ValueError):
            waterfill.waterfill_det([0.0, 0.0], 1.0)


def _brute_force_waterfill(row, budget):
    """(level, active, rate): try every active-set size, keep the valid one."""
    pos = sorted((float(x) for x in row if x > 0), reverse=True)
    found = (np.nan, 0, 0.0)
    for k in range(1, len(pos) + 1):
        level = (budget + sum(1.0 / x for x in pos[:k])) / k
        if level >= 1.0 / pos[k - 1] and (k == len(pos) or level <= 1.0 / pos[k]):
            found = (level, k, sum(np.log(level * x) for x in pos[:k]))
    return found


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_row_kernel_matches_brute_force(m):
    rng = np.random.default_rng(40 + m)
    rows = 10.0 ** rng.uniform(-3, 2, size=(240, m))
    rows[::7, -1] = rows[::7, 0]                 # repeated eigenvalues
    rows[::5, rng.integers(m)] = 0.0             # a zero mode
    rows[::3, :m // 2] = rows[::3, m - 1:m]      # several equal modes
    rows[::11] = 0.0                             # no usable mode at all
    for budget in np.geomspace(1e-3, 1e3, 7):
        level, active, rate = waterfill._waterfill_rows(rows, budget)
        ref = np.array([_brute_force_waterfill(row, budget) for row in rows])
        np.testing.assert_allclose(level, ref[:, 0], rtol=1e-12)
        np.testing.assert_array_equal(active, ref[:, 1])
        np.testing.assert_allclose(rate, ref[:, 2], rtol=1e-12, atol=1e-12)


class TestSpaceTimeWaterLevel:
    def test_point_mass_reduces_to_deterministic(self):
        d = channels.PointMassDensity([1.0], [1.0], m=1)
        assert np.isclose(waterfill.st_water_level(d, 1.0), 2.0)

    def test_only_a_small_pool_warns(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.diag([1.5, 0.5]))
        small = channels.empirical_density(law, 2000, np.random.default_rng(8))
        with pytest.warns(UserWarning) as record:
            waterfill.st_water_level(small, 1.0)
        assert [str(w.message) for w in record] == [
            "water-level solving on a pool of 2000 draws; 10^4 or more is recommended"]
        big = channels.empirical_density(law, 10_000, np.random.default_rng(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for density in (RAYLEIGH_M2, channels.onoff_density(2, 0.4), big):
                waterfill.st_water_level(density, 1.0)

    def test_rayleigh_m1_closed_equation(self):
        # The power integral for f(lam)=exp(-lam) evaluates to
        # xi*exp(-1/xi) - Gamma(0, 1/xi); cross-check the derivation first.
        xi_probe = 2.0
        quad, _ = scipy.integrate.quad(
            lambda lam: (xi_probe - 1 / lam) * np.exp(-lam), 1 / xi_probe, np.inf)
        closed = xi_probe * np.exp(-1 / xi_probe) - scipy.special.exp1(1 / xi_probe)
        assert np.isclose(quad, closed, atol=1e-10)
        for budget in (0.1, 1.0, 10.0):
            xi = waterfill.st_water_level(RAYLEIGH_M1, budget)
            resid = xi * np.exp(-1 / xi) - scipy.special.exp1(1 / xi) - budget
            assert abs(resid) <= 1e-8

    def test_rayleigh_m2_closed_equation(self):
        for budget in (0.1, 1.0, 10.0):
            xi = waterfill.st_water_level(RAYLEIGH_M2, budget)
            resid = np.exp(-1 / xi) * (2 * xi + 1) \
                - 2 * scipy.special.exp1(1 / xi) - budget
            assert abs(resid) <= 1e-8

    def test_low_snr_rayleigh_level_is_exact(self):
        # the root of xi e^(-1/xi) - E1(1/xi) = 1e-6, solved to 40 digits with mpmath
        xi = waterfill.st_water_level(RAYLEIGH_M1, 1e-6)
        assert xi == pytest.approx(0.10875021272901732, rel=1e-12)

    def test_residual_monotone_in_xi(self):
        xis = np.linspace(0.5, 8.0, 30)
        powers = [RAYLEIGH_M2.trunc_moment(lambda lam: x - 1 / lam, 1 / x)
                  for x in xis]
        assert np.all(np.diff(powers) > 0)

    @pytest.mark.parametrize("density", LEVEL_DENSITIES, ids=LEVEL_IDS)
    def test_level_meets_budget_from_minus_60_to_60_db(self, density):
        # the Newton descent alone lands on the root: the power integral is
        # continuous, also at the kinks of pooled and discrete densities
        for db in LEVEL_DBS:
            budget = 10.0 ** (db / 10)
            xi = waterfill.st_water_level(density, budget)
            target = budget / density.m
            assert abs(waterfill._avg_power(density, xi, 1 / xi)[0] - target) <= 1e-9 * target

    @pytest.mark.parametrize("density", LEVEL_DENSITIES, ids=LEVEL_IDS)
    def test_level_matches_brentq_from_minus_60_to_60_db(self, density):
        for db in LEVEL_DBS:
            budget = 10.0 ** (db / 10)
            ref = _brentq_level(density, budget)
            assert waterfill.st_water_level(density, budget) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("density", LEVEL_DENSITIES[4:], ids=LEVEL_IDS[4:])
    def test_piecewise_linear_levels_meet_budget_to_4_eps(self, density):
        # Newton lands exactly on the linear piece that holds the root. The
        # residual xi*mass - inv - target is judged against xi*mass, the power
        # before the inverse moment is taken off: that subtraction is where
        # the evaluation's own round-off sits (at -60 dB it cancels 5 digits).
        for db in LEVEL_DBS:
            budget = 10.0 ** (db / 10)
            xi = waterfill.st_water_level(density, budget)
            mass, inv, _ = density.tail_moments(1 / xi)
            assert abs(xi * mass - inv - budget / density.m) <= 4 * EPS * xi * mass

    @pytest.mark.parametrize("density", LEVEL_DENSITIES, ids=LEVEL_IDS)
    def test_iterates_descend_onto_the_root(self, density, monkeypatch):
        # P is increasing and convex, so Newton from the top of the bracket
        # never overshoots: every iterate sits at or above the root, and each
        # is below the one before, both up to the round-off of the tails.
        def recording_root(fun, lo, hi, at_hi, xtol=0.0):
            def recorded(x):
                points.append(x)
                return fun(x)
            points.append(hi)
            return linalg._bracketed_root(recorded, lo, hi, at_hi, xtol)

        monkeypatch.setattr(waterfill, "_bracketed_root", recording_root)
        for db in LEVEL_DBS:
            points = []
            xi = waterfill.st_water_level(density, 10.0 ** (db / 10))
            points = np.array(points)
            assert np.all(points >= xi * (1 - 1e-13))
            assert np.all(np.diff(points) <= 1e-13 * points[1:])

    @pytest.mark.parametrize("density", LEVEL_DENSITIES, ids=LEVEL_IDS)
    def test_low_snr_levels_take_few_moment_calls(self, density, monkeypatch):
        # on a flat exponential tail, Newton in xi alone moves 1/xi by about one per call
        calls = []
        tail_moments = type(density).tail_moments

        def counted(self, a):
            calls.append(a)
            return tail_moments(self, a)

        monkeypatch.setattr(type(density), "tail_moments", counted)
        for db in range(-60, -29, 5):
            calls.clear()
            waterfill.st_water_level(density, 10.0 ** (db / 10))
            assert len(calls) <= 8

    def test_no_mass_raises(self):
        d = channels.PointMassDensity([0.0], [1.0], m=1)
        with pytest.raises(InfeasibleError):
            waterfill.st_water_level(d, 1.0)


class TestSpaceTimeCapacity:
    def test_point_mass(self):
        d = channels.PointMassDensity([1.0], [1.0], m=1)
        assert np.isclose(waterfill.st_capacity(d, 2.0), np.log(2.0))

    def test_onoff_closed_form(self):
        m, p, budget = 4, 0.3, 2.0
        d = channels.onoff_density(m, p)
        xi = waterfill.st_water_level(d, budget)
        cap = waterfill.st_capacity(d, xi)
        assert abs(cap - m * p * np.log(1 + budget / (m * p))) <= 1e-9

    def test_empirical_matches_closed_form(self):
        law = channels.KroneckerGaussian(np.zeros((1, 1)), np.eye(1), np.eye(1))
        emp = channels.empirical_density(law, 1_000_000, np.random.default_rng(2))
        xi_emp = waterfill.st_water_level(emp, 1.0)
        xi_cf = waterfill.st_water_level(RAYLEIGH_M1, 1.0)
        c_emp = waterfill.st_capacity(emp, xi_emp)
        c_cf = waterfill.st_capacity(RAYLEIGH_M1, xi_cf)
        assert abs(c_emp - c_cf) < 1e-2


class TestInstantaneousCovariance:
    def test_zero_channel(self):
        assert np.allclose(waterfill.instantaneous_covariance(np.zeros((2, 2)), 2.0), 0)

    def test_identity_channel(self):
        q = waterfill.instantaneous_covariance(np.eye(2), 2.0)
        assert np.allclose(q, np.eye(2))

    def test_matches_two_mode_waterfill(self):
        rng = np.random.default_rng(3)
        u = linalg.haar_unitary(2, rng)
        v = linalg.haar_unitary(2, rng)
        h = (u * [np.sqrt(2.0), 1.0]) @ v
        q = waterfill.instantaneous_covariance(h, 1.25)
        eigs = np.sort(np.linalg.eigvalsh(q))[::-1]
        assert np.allclose(eigs, [0.75, 0.25], atol=1e-10)

    def test_average_power_meets_budget(self):
        law = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
        budget = 1.0
        xi = waterfill.st_water_level(RAYLEIGH_M2, budget)
        h = channels.sample_batch(law, 100_000, np.random.default_rng(4))
        s = np.linalg.svd(h, compute_uv=False)
        lam = s**2
        powers = np.maximum(xi - 1 / np.maximum(lam, 1e-300), 0.0).sum(axis=1)
        se = powers.std(ddof=1) / np.sqrt(powers.size)
        assert abs(powers.mean() - budget) <= 3 * se
        # spot check: the vectorized powers agree with the covariance trace
        for hk in h[:50]:
            q = waterfill.instantaneous_covariance(hk, xi)
            sk = np.linalg.svd(hk, compute_uv=False)
            expect = np.maximum(xi - 1 / sk**2, 0.0).sum()
            assert np.isclose(np.trace(q).real, expect, atol=1e-10)


NAIVE_SEED = 3


def _naive_sources():
    """Each source kind of naive_avg_rate with the (rows, weights) it stands for.

    Sampled rows replay the draws naive_avg_rate makes with ``rng=NAIVE_SEED``.
    """
    stream = SeededStream(NAIVE_SEED)
    kron = channels.KroneckerGaussian(np.zeros((2, 3)), np.diag([1.5, 0.5]),
                                      np.diag([1.2, 1.0, 0.8]))
    tall = channels.KroneckerGaussian(np.zeros((3, 2)), np.eye(3), np.diag([1.5, 0.5]))
    emp = channels.empirical_density(tall, 2000, stream.generator())
    wish = channels.wishart_density(2, 3)
    h0 = np.array([[1.2, 0.3], [0.1, 0.7j]])
    atoms = [h0, np.diag([0.2, 3.0]), np.zeros((2, 2))]
    onoff = channels.onoff_density(3, 0.4)
    combos = list(itertools.product([0, 1], repeat=3))
    return [
        pytest.param(channels.PointMass(h0), channels.gram_eigs(h0[None]), None,
                     id="point-mass"),
        pytest.param(channels.FiniteMixture([0.2, 0.5, 0.3], atoms),
                     channels.gram_eigs(np.stack(atoms)), [0.2, 0.5, 0.3], id="mixture"),
        pytest.param(kron, channels.gram_eigs(
            channels.sample_batch(kron, 2000, stream.generator())), None, id="sampled-law"),
        pytest.param(emp, emp.draws, None, id="empirical"),
        pytest.param(wish, wish.sample_eigs(2000, stream.generator()), None, id="wishart"),
        pytest.param(onoff, np.array(combos, dtype=float),
                     [np.prod([0.4 if on else 0.6 for on in c]) for c in combos],
                     id="independent-modes"),
        pytest.param(channels.PointMassDensity([0.5, 2.0], [0.5, 0.5], m=2),
                     np.array([[0.5, 2.0]]), None, id="fixed-multiset"),
    ]


@pytest.mark.parametrize("source, rows, weights", _naive_sources())
def test_naive_rate_is_mean_of_per_row_waterfill(source, rows, weights):
    for budget in (0.05, 1.0, 20.0):
        rates = [waterfill.waterfill_det(row, budget).rate if np.any(row > 0) else 0.0
                 for row in rows]
        expect = np.average(rates, weights=weights)
        got = waterfill.naive_avg_rate(source, budget, samples=2000, rng=NAIVE_SEED)
        assert np.isclose(got, expect, rtol=1e-12, atol=1e-12)


class TestNaiveBaseline:
    def test_point_mass_law_equals_space_time(self):
        law = channels.PointMass(np.diag([np.sqrt(2.0), 1.0]))
        d = channels.empirical_density(law, 1000, np.random.default_rng(5))
        xi = waterfill.st_water_level(d, 1.0)
        st = waterfill.st_capacity(d, xi)
        assert np.isclose(waterfill.naive_avg_rate(law, 1.0), st, atol=1e-12)
        assert np.isclose(waterfill.naive_avg_rate(d, 1.0), st, atol=1e-12)

    def test_two_point_mixture_closed_form(self):
        eps, gamma = 1e-4, 10.0
        law = channels.FiniteMixture(
            [0.5, 0.5], [np.array([[eps]]), np.array([[1.0]])])
        expect = 0.5 * np.log1p(gamma * eps**2) + 0.5 * np.log1p(gamma)
        assert np.isclose(waterfill.naive_avg_rate(law, gamma), expect, atol=1e-12)

    def test_factor_two_gap_at_low_snr(self):
        # concentrating power in live slots doubles the rate as budget -> 0
        eps = 1e-4
        law = channels.FiniteMixture(
            [0.5, 0.5], [np.array([[eps]]), np.array([[1.0]])])
        d = channels.empirical_density(law, 1000, np.random.default_rng(6))
        gamma = 0.01
        xi = waterfill.st_water_level(d, gamma)
        st = waterfill.st_capacity(d, xi)
        naive = waterfill.naive_avg_rate(law, gamma)
        assert 1.98 <= st / naive <= 2.00

    def test_space_time_dominates_naive(self):
        cases = [
            (RAYLEIGH_M1, 1.0),
            (RAYLEIGH_M2, 0.5),
            (channels.onoff_density(2, 0.4), 1.0),
        ]
        for dens, budget in cases:
            xi = waterfill.st_water_level(dens, budget)
            st = waterfill.st_capacity(dens, xi)
            naive = waterfill.naive_avg_rate(dens, budget, samples=40_000, rng=7)
            assert st >= naive - 1e-3

    def test_wishart_draws_stream_through_the_water_filling(self):
        # 2x10^5 rates are 1.6 MB; all rows and their temporaries at once took 47.3 MiB
        dens, samples = channels.wishart_density(4, 4), 200_000
        got, peak = traced_peak(lambda: waterfill.naive_avg_rate(dens, 1.0, samples=samples, rng=8))
        assert peak <= 8 * samples + 2**21
        rows = dens.sample_eigs(samples, SeededStream(8).generator())
        assert got == float(np.average(waterfill._waterfill_rows(rows, 1.0)[2]))

    def test_onoff_enumeration(self):
        # E[k ln(1 + P/k)], k ~ Binomial(m, p): exact enumeration oracle
        from math import comb
        m, p, budget = 3, 0.4, 2.0
        d = channels.onoff_density(m, p)
        expect = sum(comb(m, k) * p**k * (1 - p) ** (m - k)
                     * (k * np.log1p(budget / k) if k else 0.0)
                     for k in range(m + 1))
        assert np.isclose(waterfill.naive_avg_rate(d, budget), expect, atol=1e-12)


    @pytest.mark.parametrize("density, message", [
        (channels.PointMassDensity([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], m=10,
                                   independent_modes=True),
         "mode enumeration too large; use a sampled law instead"),
        (channels.PointMassDensity([0.5, 2.0], [0.3, 0.7], m=2),
         "discrete density is not a fixed-multiset marginal; "
         "set independent_modes or pass the channel law itself"),
    ], ids=["enumeration-too-large", "not-a-multiset"])
    def test_discrete_density_without_per_draw_rows_raises(self, density, message):
        with pytest.raises(ValueError) as err:
            waterfill.naive_avg_rate(density, 1.0)
        assert str(err.value) == message


class TestPapr:
    def test_point_mass_tight(self):
        d = channels.PointMassDensity([1.0], [1.0], m=1)
        xi = waterfill.st_water_level(d, 1.0)
        assert np.isclose(waterfill.papr(xi, 1.0, 1), 2.0)
        assert np.isclose(waterfill.papr_bound(d, 1.0), 2.0)

    def test_square_rayleigh_bound_diverges(self):
        assert waterfill.papr_bound(RAYLEIGH_M1, 1.0) == np.inf
        assert waterfill.papr_bound(RAYLEIGH_M2, 1.0) == np.inf

    def test_bound_dominates_exact_on_shifted_support(self):
        # all eigenvalues in [1, 2]: E[1/lam] = 0.5/1 + 0.5/2 = 0.75 exactly
        d = channels.PointMassDensity([1.0, 2.0], [0.5, 0.5], m=1)
        budget = 1.0
        xi = waterfill.st_water_level(d, budget)
        bound = waterfill.papr_bound(d, budget)
        assert np.isclose(bound, 1.0 + 0.75)
        assert waterfill.papr(xi, budget, 1) <= bound

    @pytest.mark.parametrize("law, dense", [
        (channels.KroneckerGaussian(np.zeros((2, 2)), [[1.0, 0.6], [0.6, 1.0]],
                                    [[1.0, 0.5], [0.5, 1.0]]), True),
        (channels.MatrixGaussian(np.eye(2), np.diag([1.0, 0.5, 0.3, 2.0])), True),
        (channels.KroneckerGaussian(0.5 * np.eye(2), np.eye(2), np.diag([0.25, 0.05])), True),
        (channels.KroneckerGaussian(np.eye(2), np.eye(2), np.zeros((2, 2))), False),
        (channels.KroneckerGaussian(np.zeros((2, 3)), np.eye(2), np.eye(3)), False),
    ], ids=["kronecker", "gaussian", "kappa-law", "kappa-law-at-1", "kronecker-2x3"])
    def test_pool_of_a_square_law_with_a_nonsingular_gaussian_part_has_no_bound(self, law,
                                                                                dense):
        # P(lam_min < e) ~ c e there, so E[1/lam] = inf though the pool's mean is finite
        d = channels.empirical_density(law, 20_000, SeededStream(4).generator())
        pooled = 1.0 + d.m * d.tail_moments(0.0)[1]
        assert np.isfinite(pooled)
        assert waterfill.papr_bound(d, 1.0) == (np.inf if dense else pooled)

    def test_rectangular_wishart_bound_finite(self):
        d = channels.wishart_density(2, 4)
        bound = waterfill.papr_bound(d, 1.0)
        oracle, _ = scipy.integrate.quad(lambda lam: d.pdf(lam) / lam, 0, np.inf,
                                         limit=300)
        assert np.isfinite(bound)
        assert np.isclose(bound, 1.0 + 2 * oracle, rtol=1e-6)

    @pytest.mark.parametrize("d", [channels.wishart_density(2, 4), RAYLEIGH_M2,
                                   channels.onoff_density(2, 0.4), LEVEL_DENSITIES[4]],
                             ids=["wishart-2x4", "wishart-2x2", "onoff", "pool-kronecker"])
    def test_array_of_budgets_is_the_per_budget_bounds(self, d, monkeypatch):
        budgets = np.logspace(-1, 3, 11)
        ref = [waterfill.papr_bound(d, float(b)) for b in budgets]
        queries = []
        for name in ("cdf", "tail_moments"):
            query = getattr(type(d), name)
            monkeypatch.setattr(type(d), name,
                                lambda *a, q=query, n=name: queries.append(n) or q(*a))
        assert np.array_equal(waterfill.papr_bound(d, budgets), ref)
        assert queries.count("cdf") == 1 and queries.count("tail_moments") <= 1


class TestPowerDensity:
    def test_point_mass_above_threshold(self):
        d = channels.PointMassDensity([2.0], [1.0], m=1)
        pd = waterfill.power_density(d, 2.0, [0.5, 1.0])
        assert pd.atom0 == 0.0
        assert len(pd.atoms) == 1
        power, weight = pd.atoms[0]
        assert np.isclose(power, 2.0 - 0.5) and weight == 1.0

    def test_point_mass_below_threshold(self):
        d = channels.PointMassDensity([0.1], [1.0], m=1)
        pd = waterfill.power_density(d, 2.0, [1.0])
        assert pd.atom0 == 1.0 and not pd.atoms

    def test_total_mass_rayleigh(self):
        for budget in (0.5, 2.0):
            xi = waterfill.st_water_level(RAYLEIGH_M2, budget)
            grid = np.linspace(xi * 1e-3, xi * 0.99, 50)
            pd = waterfill.power_density(RAYLEIGH_M2, xi, grid)
            mass = pd.atom0 + RAYLEIGH_M2.tail_moments(1 / xi)[0]
            assert abs(mass - 1.0) <= 1e-6

    def test_concentration_at_high_snr(self):
        # mass within +-25% of the per-mode budget grows with SNR
        def mass_near_target(budget):
            xi = waterfill.st_water_level(RAYLEIGH_M2, budget)
            target = budget / 2
            lo = 1 / (xi - 0.75 * target)
            hi = 1 / (xi - 1.25 * target)
            ones = lambda lam: np.ones_like(lam)
            return RAYLEIGH_M2.trunc_moment(ones, lo) - RAYLEIGH_M2.trunc_moment(ones, hi)

        low = mass_near_target(10 ** (-0.5))
        high = mass_near_target(10 ** (1.0))
        assert high > low

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            waterfill.power_density(RAYLEIGH_M2, 2.0, [2.5])


class TestPeakLimitedRate:
    def test_loose_cap_is_unconstrained(self):
        xi_unc = waterfill.st_water_level(RAYLEIGH_M2, 1.0)
        xi, rate = waterfill.peak_limited_rate(RAYLEIGH_M2, 1.0, xi_unc + 1.0)
        assert xi == xi_unc
        assert np.isclose(rate, waterfill.st_capacity(RAYLEIGH_M2, xi_unc))

    def test_binding_cap_reduces_rate(self):
        xi_unc = waterfill.st_water_level(RAYLEIGH_M1, 1.0)
        c_unc = waterfill.st_capacity(RAYLEIGH_M1, xi_unc)
        xi, rate = waterfill.peak_limited_rate(RAYLEIGH_M1, 1.0, 0.97 * xi_unc)
        assert xi > xi_unc
        assert 0.0 < rate < c_unc

    def test_tight_cap_infeasible(self):
        # power stays strictly below the cap on a window of probability < 1,
        # so budget = cap can never be met for a continuous density
        with pytest.raises(InfeasibleError):
            waterfill.peak_limited_rate(RAYLEIGH_M1, 1.0, 1.0)

    def test_rate_vanishes_with_cap_and_budget(self):
        # a shrinking cap shrinks what can be spent at all; rates follow it down
        def max_spendable(peak):
            best = 0.0
            for xi in np.geomspace(0.05, 50.0, 200):
                upper = np.inf if xi <= peak else 1.0 / (xi - peak)
                full = RAYLEIGH_M1.trunc_moment(lambda lam: xi - 1 / lam, 1 / xi)
                tail = 0.0 if not np.isfinite(upper) else \
                    RAYLEIGH_M1.trunc_moment(lambda lam: xi - 1 / lam, upper)
                best = max(best, full - tail)
            return best

        rates = []
        for peak in (0.4, 0.2, 0.1):
            budget = 0.4 * max_spendable(peak)
            xi, rate = waterfill.peak_limited_rate(RAYLEIGH_M1, budget, peak)
            rates.append(rate)
        assert rates[0] > rates[1] > rates[2] > 0
        assert rates[2] < 0.02

    def test_levels_match_brentq_at_the_benchmark_caps(self):
        # (gamma, cap) with cap just below the unconstrained Rayleigh level
        for gamma, cap in ((0.1, 0.7717752040686633), (0.5, 1.651187896842394),
                           (1.0, 2.4125523113175524), (2.0, 3.8695853836571557),
                           (5.0, 7.428285843713933), (10.0, 12.897484106245063)):
            xi_unc = waterfill.st_water_level(RAYLEIGH_M1, gamma)

            def residual(xi):
                full = waterfill._avg_power(RAYLEIGH_M1, xi, 1 / xi)[0]
                top = waterfill._avg_power(RAYLEIGH_M1, xi, 1 / (xi - cap))[0]
                return full - top - gamma

            hi = next(xi_unc * (1 + d) for d in np.geomspace(1e-9, 1e4, 80)
                      if residual(xi_unc * (1 + d)) >= 0)
            ref = scipy.optimize.brentq(residual, xi_unc, hi, xtol=1e-13, maxiter=200)
            xi, _ = waterfill.peak_limited_rate(RAYLEIGH_M1, gamma, cap)
            assert xi == pytest.approx(ref, rel=1e-12)

    def test_pooled_level_bisects_to_the_root(self):
        # a pool has no pdf: the truncated power jumps where an eigenvalue
        # leaves the window, and the solver bisects instead of stepping
        pool = channels.empirical_density(channels.KroneckerGaussian(
            np.zeros((1, 1)), np.eye(1), np.eye(1)), 10_000, SeededStream(4).generator())
        xi_unc = waterfill.st_water_level(pool, 1.0)
        xi, rate = waterfill.peak_limited_rate(pool, 1.0, 0.95 * xi_unc)
        lam = pool.draws[:, 0]
        window = (lam > 1 / xi) & (lam < 1 / (xi - 0.95 * xi_unc))
        assert xi > xi_unc
        assert np.mean(np.where(window, xi - 1 / lam, 0.0)) == pytest.approx(1.0, rel=1e-9)
        assert 0.0 < rate < waterfill.st_capacity(pool, xi_unc)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            waterfill.peak_limited_rate(RAYLEIGH_M1, 1.0, 0.0)


#: the six (gamma, cap) ops of the benchmark's peak-limited Rayleigh m = 1 set
BENCH_PEAK_CAPS = ((0.1, 0.7717752040686633), (0.5, 1.651187896842394),
                   (1.0, 2.4125523113175524), (2.0, 3.8695853836571557),
                   (5.0, 7.428285843713933), (10.0, 12.897484106245063))
PEAK_DENSITIES = [RAYLEIGH_M1, RAYLEIGH_M2, channels.wishart_density(2, 4),
                  LEVEL_DENSITIES[4], channels.onoff_density(2, 0.4)]
PEAK_IDS = ["wishart-1x1", "wishart-2x2", "wishart-2x4", "pool-kronecker", "onoff"]


def _full_ladder_peak_limited_rate(density, budget, peak):
    """peak_limited_rate evaluating every rung of its 80-rung ladder from
    delta = 1e-9 up to the first sign change, none skipped."""
    xi_unc = waterfill.st_water_level(density, budget)
    if peak >= xi_unc:
        return xi_unc, waterfill.st_capacity(density, xi_unc)
    target = budget / density.m
    has_pdf = density.exact_pdf

    def residual(xi):
        u = 1.0 / (xi - peak)
        power, mass = waterfill._avg_power(density, xi, 1.0 / xi)
        top, top_mass = waterfill._avg_power(density, xi, u)
        slope = mass - top_mass - peak * u * u * density.pdf(u) if has_pdf else None
        return power - top - target, slope

    if residual(xi_unc)[0] >= -1e-15 * target:
        xi = xi_unc
    else:
        for delta in np.geomspace(1e-9, 1e4, 80):
            hi = xi_unc * (1.0 + delta)
            at_hi = residual(hi)
            if at_hi[0] >= 0:
                xi = linalg._bracketed_root(residual, xi_unc, hi, at_hi, xtol=1e-13)
                break
        else:
            raise InfeasibleError("unreachable")
    rate = (waterfill._avg_rate(density, xi, 1.0 / xi)
            - waterfill._avg_rate(density, xi, 1.0 / (xi - peak)))
    return float(xi), float(density.m * rate)


def _peak_outcome(solve, density, budget, peak):
    try:
        return solve(density, budget, peak)
    except InfeasibleError:
        return "infeasible"


class TestPeakLadderBound:
    """Rungs below the gap bound hold no root, so skipping them moves nothing."""

    @pytest.mark.parametrize("density", PEAK_DENSITIES, ids=PEAK_IDS)
    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0])
    def test_same_level_and_rate_as_the_full_ladder(self, density, budget):
        xi_unc = waterfill.st_water_level(density, budget)
        for share in (0.5, 0.9, 0.99, 0.999999):
            peak = share * xi_unc
            assert (_peak_outcome(waterfill.peak_limited_rate, density, budget, peak)
                    == _peak_outcome(_full_ladder_peak_limited_rate, density, budget, peak))

    @pytest.mark.parametrize("gamma,cap", BENCH_PEAK_CAPS)
    def test_bench_caps_match_and_skip_most_rungs(self, gamma, cap, monkeypatch):
        ref = _full_ladder_peak_limited_rate(RAYLEIGH_M1, gamma, cap)
        calls = []
        tail_moments = channels.WishartDensity.tail_moments

        def counted(self, a):
            calls.append(a)
            return tail_moments(self, a)

        monkeypatch.setattr(channels.WishartDensity, "tail_moments", counted)
        assert waterfill.peak_limited_rate(RAYLEIGH_M1, gamma, cap) == ref
        assert len(calls) <= 30
