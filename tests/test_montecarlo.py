import numpy as np
import pytest
import scipy.integrate

from mimocap import channels, linalg
from mimocap.montecarlo import (McEstimate, SeededStream, _eye_plus, _log_dets,
                                ergodic_mi, expect_matrix)

RAYLEIGH_1x1 = channels.KroneckerGaussian(np.zeros((1, 1)), np.eye(1), np.eye(1))
RAYLEIGH_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestErgodicMi:
    def test_point_mass_exact(self):
        h0 = np.array([[1.0, 0.2], [0.0, 0.8j]])
        law = channels.PointMass(h0)
        q = np.diag([0.6, 0.4]).astype(complex)
        est = ergodic_mi(q, law, 1.3, samples=10, rng=0)
        expect = linalg.log_det_plus(1.3 * h0.conj().T @ h0, q)
        assert est.se == 0.0
        assert np.isclose(est.mean, expect, atol=1e-12)

    def test_siso_rayleigh_against_quadrature(self):
        gamma = 2.0
        est = ergodic_mi(np.eye(1), RAYLEIGH_1x1, gamma, samples=100_000, rng=1)
        oracle, _ = scipy.integrate.quad(
            lambda lam: np.log1p(gamma * lam) * np.exp(-lam), 0, np.inf)
        assert abs(est.mean - oracle) <= 3 * est.se
        # same value via the exponential-integral identity
        assert np.isclose(oracle, linalg.scaled_expint_gamma0(1 / gamma), rtol=1e-9)

    def test_2x2_rayleigh_against_density_quadrature(self):
        est = ergodic_mi(np.eye(2) / 2, RAYLEIGH_2x2, 1.0, samples=100_000, rng=2)
        f = channels.wishart_density(2, 2)
        oracle = 2 * f.trunc_moment(lambda lam: np.log1p(lam / 2), 0.0)
        assert abs(est.mean - oracle) <= 3 * est.se

    def test_trace_constraint(self):
        with pytest.raises(ValueError):
            ergodic_mi(np.eye(2), RAYLEIGH_2x2, 1.0, samples=10, rng=0)


class TestExpectMatrix:
    def test_gram_matches_closed_form(self):
        law = channels.KroneckerGaussian(
            np.zeros((2, 2)), np.diag([1.2, 0.8]), np.diag([0.5, 1.5]))
        est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                            law, samples=100_000, rng=3)
        closed = channels.expected_gram(law)
        assert np.all(np.abs(est.mean - closed) <= 3 * est.se + 1e-12)

    def test_constant_function(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        est = expect_matrix(lambda h: np.broadcast_to(c, (h.shape[0], 2, 2)),
                            RAYLEIGH_2x2, samples=5_000, rng=4)
        assert np.allclose(est.mean, c)
        assert np.all(est.se < 1e-12)

    def test_zero_mean_symmetry(self):
        est = expect_matrix(lambda h: h, RAYLEIGH_2x2, samples=50_000, rng=5)
        assert np.all(np.abs(est.mean) <= 3 * est.se + 1e-12)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        a = ergodic_mi(np.eye(2) / 2, RAYLEIGH_2x2, 1.0, samples=30_000,
                       rng=SeededStream(9))
        b = ergodic_mi(np.eye(2) / 2, RAYLEIGH_2x2, 1.0, samples=30_000,
                       rng=SeededStream(9))
        assert a.mean == b.mean and a.se == b.se
        ea = expect_matrix(lambda h: h, RAYLEIGH_2x2, samples=20_000,
                           rng=SeededStream(10))
        eb = expect_matrix(lambda h: h, RAYLEIGH_2x2, samples=20_000,
                           rng=SeededStream(10))
        assert np.array_equal(ea.mean, eb.mean)

    def test_substreams_differ(self):
        s = SeededStream(7)
        a = s.child(0).generator().standard_normal(4)
        b = s.child(1).generator().standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_stream_replays(self):
        s = SeededStream(7, 3)
        assert np.array_equal(s.generator().standard_normal(4),
                              s.generator().standard_normal(4))


def test_se_halves_when_samples_quadruple():
    s1 = ergodic_mi(np.eye(1), RAYLEIGH_1x1, 1.0, samples=20_000, rng=11).se
    s4 = ergodic_mi(np.eye(1), RAYLEIGH_1x1, 1.0, samples=80_000, rng=11).se
    assert 1.6 <= s1 / s4 <= 2.4


def test_mcestimate_unpacks():
    mean, se, n = McEstimate(1.0, 0.1, 5)
    assert (mean, se, n) == (1.0, 0.1, 5)


@pytest.mark.parametrize("t", [1, 2, 4, 8])
def test_eye_plus_is_one_product_per_stack(t):
    g = np.random.default_rng(t)
    s = g.normal(size=(300, t, t)) + 1j * g.normal(size=(300, t, t))
    s = s @ np.conj(np.swapaxes(s, 1, 2))
    q = g.normal(size=(t, t)) + 1j * g.normal(size=(t, t))
    q = q @ q.conj().T
    q /= np.trace(q).real
    ref = np.eye(t) + s @ q
    assert np.abs(_eye_plus(s, q) - ref).max() <= 1e-15 * np.abs(ref).max()
    logs = _log_dets(s, q)
    for k in range(s.shape[0]):
        assert np.isclose(logs[k], linalg.log_det_plus(s[k], q), rtol=0, atol=1e-12)
