import numpy as np
import pytest
import scipy.integrate

from mimocap import analysis, channels, covopt, linalg, waterfill
from mimocap.linalg import _gram
from mimocap.montecarlo import (McEstimate, SeededStream, _eye_plus, _log_dets, _thin_factor,
                                _thin_log_dets, as_stream, ergodic_mi)

RAYLEIGH_1x1 = channels.KroneckerGaussian(np.zeros((1, 1)), np.eye(1), np.eye(1))
RAYLEIGH_2x2 = channels.KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
RICEAN_4x4 = channels.KroneckerGaussian(np.diag([4.0, 0, 0, 0]), np.eye(4),
                                        0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))
#: the same law as RICEAN_4x4, by the rt x rt covariance T (x) I of its stacked columns
RICEAN_4x4_VEC = channels.MatrixGaussian(RICEAN_4x4.mean, np.kron(RICEAN_4x4.tx_corr, np.eye(4)))


def log_det_plus(s, q) -> float:
    """Oracle ``log det(I + S Q)`` for Hermitian PSD ``S`` and ``Q`` (nats), one
    draw at a time, from the eigenvalues of ``Q^{1/2} S Q^{1/2}``."""
    s = linalg.as_hermitian(s)
    q = linalg.as_hermitian(q)
    if s.shape != q.shape:
        raise ValueError(f"dimension mismatch: {s.shape} vs {q.shape}")
    qh = linalg.psd_sqrt(q)
    core = qh @ s @ qh
    lam = np.linalg.eigvalsh(0.5 * (core + core.conj().T))
    lam = np.where(lam < 0, 0.0, lam)
    return float(np.sum(np.log1p(lam)))


def expect_matrix(fn, law, samples=10_000, rng=0) -> McEstimate:
    """Entrywise mean and SE of ``fn`` over blocks of H drawn as the package's
    estimators draw them; ``fn`` maps a (size, r, t) batch to one array per draw."""
    return McEstimate.of(channels._law_blocks(law, samples, as_stream(rng).generator(), fn))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestErgodicMi:
    def test_point_mass_exact(self):
        h0 = np.array([[1.0, 0.2], [0.0, 0.8j]])
        law = channels._point_mass(h0)
        q = np.diag([0.6, 0.4]).astype(complex)
        est = ergodic_mi(q, law, 1.3, samples=10, rng=0)
        expect = log_det_plus(1.3 * h0.conj().T @ h0, q)
        assert est.se == 0.0
        assert np.isclose(est.mean, expect, atol=1e-12)

    def test_siso_rayleigh_against_quadrature(self):
        gamma = 2.0
        est = ergodic_mi(np.eye(1), RAYLEIGH_1x1, gamma, samples=100_000, rng=1)
        oracle, _ = scipy.integrate.quad(
            lambda lam: np.log1p(gamma * lam) * np.exp(-lam), 0, np.inf)
        assert abs(est.mean - oracle) <= 3 * est.se
        # same value via the exponential-integral identity
        assert np.isclose(oracle, linalg.scaled_expn(1, 1 / gamma), rtol=1e-9)

    def test_2x2_rayleigh_against_density_quadrature(self):
        est = ergodic_mi(np.eye(2) / 2, RAYLEIGH_2x2, 1.0, samples=100_000, rng=2)
        f = channels.wishart_density(2, 2)
        oracle = 2 * f.trunc_moment(lambda lam: np.log1p(lam / 2), 0.0)
        assert abs(est.mean - oracle) <= 3 * est.se

    def test_trace_constraint(self):
        with pytest.raises(ValueError):
            ergodic_mi(np.eye(2), RAYLEIGH_2x2, 1.0, samples=10, rng=0)

    @pytest.mark.parametrize("q", [np.diag([0.9, -0.9]), np.diag([1.5, -0.5])])
    def test_rejects_a_covariance_that_is_not_psd(self, q):
        # log det(I + S Q) of such a Q would have a sign slogdet drops
        with pytest.raises(ValueError, match="positive semidefinite"):
            ergodic_mi(q, RAYLEIGH_2x2, 10.0, samples=100, rng=0)

    def test_round_off_negative_eigenvalues_count_as_zero(self):
        # a solver's exact zeros come back from its covariance as +-1e-17
        vecs = linalg.haar_unitary(4, np.random.default_rng(1))
        q = covopt._covariance(vecs, np.array([0.7, 0.3, -3e-19, -3e-19]))
        clean = covopt._covariance(vecs, np.array([0.7, 0.3, 0.0, 0.0]))
        est = ergodic_mi(q, RICEAN_4x4, 1.0, samples=5_000, rng=2)
        ref = ergodic_mi(clean, RICEAN_4x4, 1.0, samples=5_000, rng=2)
        assert abs(est.mean - ref.mean) <= 1e-13 * ref.mean

    @staticmethod
    def _low_rank_and_full_gram_mis(law, rank, samples):
        vecs = linalg.haar_unitary(4, np.random.default_rng(rank))
        lam = np.zeros(4)
        lam[:rank] = np.arange(rank, 0, -1) / (rank * (rank + 1) / 2)
        q = covopt._covariance(vecs, lam)
        new = ergodic_mi(q, law, 1.0, samples=samples, rng=6)
        old = expect_matrix(lambda h: np.linalg.slogdet(_eye_plus(_gram(h, 1.0), q))[1],
                            law, samples, 6)
        return new, old

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_low_rank_matches_the_full_gram_path(self, rank):
        if rank == 3:  # full-Gram path itself: the same draws
            new, old = self._low_rank_and_full_gram_mis(RICEAN_4x4, rank, 20_000)
            assert abs(new.mean - old.mean) <= 1e-12 * old.mean
            assert abs(new.se - old.se) <= 1e-12 * old.se
            return
        # at rank <= 2 a Kronecker law draws H P from its own normals
        new, old = self._low_rank_and_full_gram_mis(RICEAN_4x4, rank, 200_000)
        assert abs(new.mean - old.mean) <= 4 * np.hypot(new.se, old.se)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_low_rank_matches_the_full_gram_path_on_the_same_draws(self, rank):
        # RICEAN_4x4 as a vec-covariance law: H P is sample_batch(...) @ P
        new, old = self._low_rank_and_full_gram_mis(RICEAN_4x4_VEC, rank, 20_000)
        assert abs(new.mean - old.mean) <= 1e-12 * old.mean
        assert abs(new.se - old.se) <= 1e-12 * old.se


def test_ergodic_mi_draws_through_the_shared_blocks():
    # H (or the Gram of H P at rank <= 2) in channels._BLOCK blocks on one generator of the
    # stream, as every per-draw reduction draws it; 5,000 is not a multiple of a block
    n, seed = 5_000, 17
    q = np.eye(4) / 4
    est = ergodic_mi(q, RICEAN_4x4, 1.0, n, seed)
    ref = McEstimate.of(channels._law_blocks(RICEAN_4x4, n, SeededStream(seed).generator(),
                                             lambda h: _log_dets(_gram(h, 1.0), q, None)))
    assert (est.mean, est.se, est.samples) == (ref.mean, ref.se, ref.samples)
    q = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    p, gen = _thin_factor(q), SeededStream(seed).generator()
    est = ergodic_mi(q, RICEAN_4x4, 1.0, n, seed)
    ref = McEstimate.of(channels._blocks(
        n, lambda k: _thin_log_dets(RICEAN_4x4.sample_gram(k, gen, p), 1.0)))
    assert (est.mean, est.se, est.samples) == (ref.mean, ref.se, ref.samples)
    # a one-atom law is exact whatever the sample count; a pooled one needs two draws
    atom = channels._point_mass(np.diag([1.0, 0.5]))
    for q in (np.eye(2) / 2, np.diag([1.0, 0.0])):
        assert ergodic_mi(q, atom, 2.0, 1, seed).se == 0.0
    with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
        ergodic_mi(np.eye(4) / 4, RICEAN_4x4, 1.0, 1, seed)


def test_rank_two_mi_forms_its_factors_once_per_call(monkeypatch):
    # (P^H T P)^1/2 and M P are formed once per ergodic_mi call, not once per
    # channels._BLOCK of draws (5 blocks at 10^4, 49 at 10^5); R = I takes no root
    calls = []
    monkeypatch.setattr(channels, "psd_sqrt", lambda a: calls.append(a) or linalg.psd_sqrt(a))
    q = np.diag([0.6, 0.4, 0.0, 0.0])
    counts = []
    for n in (10**4, 10**5):
        calls.clear()
        ergodic_mi(q, RICEAN_4x4, 1.0, n, 3)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_rank_two_mi_keeps_its_numbers():
    # the value this call gives with its Grams drawn through a Bartlett factor
    # (3.2638125753949474 +- 0.0012346305596294587 from the draws of H P);
    # the relative tolerance leaves room for another CPU's BLAS kernels
    est = ergodic_mi(np.diag([0.6, 0.4, 0.0, 0.0]), RICEAN_4x4, 1.0, 10**5, 12345)
    assert est.mean == pytest.approx(3.265487799562053, rel=1e-12, abs=0)
    assert est.se == pytest.approx(0.0012412203668056103, rel=1e-12, abs=0)


class TestExpectMatrix:
    def test_gram_matches_closed_form(self):
        law = channels.KroneckerGaussian(
            np.zeros((2, 2)), np.diag([1.2, 0.8]), np.diag([0.5, 1.5]))
        est = expect_matrix(lambda h: np.einsum("ski,skj->sij", h.conj(), h),
                            law, samples=100_000, rng=3)
        closed = law.expected_gram()
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


class TestLogDetPlus:
    def test_zero_gain(self):
        assert log_det_plus(np.zeros((2, 2)), np.eye(2) / 2) == 0.0

    def test_scalar_arithmetic(self):
        val = log_det_plus(np.diag([2.0, 1.0]), np.eye(2) / 2)
        assert np.isclose(val, np.log(2.0) + np.log(1.5), atol=1e-12)

    def test_identity_case(self):
        assert np.isclose(log_det_plus(np.eye(3), np.eye(3)), 3 * np.log(2.0))

    def test_symmetry_det_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_hermitian(rng, 3)
            s = a @ a.conj().T
            b = random_hermitian(rng, 3)
            q = b @ b.conj().T
            q /= np.trace(q).real
            assert np.isclose(log_det_plus(s, q), log_det_plus(q, s),
                              rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_det_plus(np.eye(2), np.eye(3))


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
    logs = _log_dets(s, q, None)
    for k in range(s.shape[0]):
        assert np.isclose(logs[k], log_det_plus(s[k], q), rtol=0, atol=1e-12)


def _low_rank_cases():
    for t in (1, 2, 3, 4, 8):
        for k in range(1, t + 1):
            yield t, k


@pytest.mark.parametrize("gamma", [1.0, 1e3])
@pytest.mark.parametrize("t,k", list(_low_rank_cases()))
def test_log_dets_at_every_rank_match_per_draw_slogdet(t, k, gamma):
    # at rank <= 2 below full rank _log_dets goes through Q's factor; the oracle does not
    g = np.random.default_rng(10 * t + k)
    vecs = linalg.haar_unitary(t, g)
    lam = np.zeros(t)
    lam[:k] = g.uniform(0.2, 1.0, k)
    q = covopt._covariance(vecs, lam / lam.sum())
    # Q with the round-off eigenvalues of a solver's exact zeros
    off = np.where(np.arange(t) % 2, 2e-17, -3e-18)
    q_noisy = covopt._covariance(vecs, np.where(lam > 0, lam / lam.sum(), off))
    for qq in (q, q_noisy):  # round-off eigenvalues add no column
        p = _thin_factor(qq)
        assert (p is None) == (k > 2 or k == t)
        assert p is None or np.count_nonzero(np.any(p != 0, axis=0)) == k
    for r in (t, 1):  # S of full rank, then of rank one
        h = g.normal(size=(50, r, t)) + 1j * g.normal(size=(50, r, t))
        s = _gram(h, gamma)
        for qq in (q, q_noisy):
            ref = np.array([np.linalg.slogdet(np.eye(t) + sk @ qq)[1] for sk in s])
            assert np.abs(_log_dets(s, qq, _thin_factor(qq)) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("draw", [
    lambda n: ergodic_mi(np.eye(2) / 2, RAYLEIGH_2x2, 1.0, samples=n),
    lambda n: waterfill.naive_avg_rate(channels.wishart_density(2, 2), 1.0, samples=n),
    lambda n: waterfill.naive_avg_rate(RAYLEIGH_2x2, 1.0, samples=n),
    lambda n: analysis.beamform_opt_mc(np.eye(2), np.diag([1.4, 0.6]), 1.0, samples=n),
    lambda n: analysis.high_snr_capacity(RAYLEIGH_2x2, 10.0, samples=n),
], ids=["ergodic-mi", "naive-wishart", "naive-law", "beamform-mc",
        "high-snr"])
@pytest.mark.parametrize("samples", [0, 1])
def test_a_draw_of_fewer_than_two_samples_is_refused(draw, samples):
    # 0 ended in numpy errors or NaN, and 1 reported a standard error of 0
    with pytest.raises(ValueError, match=f"need at least 2 samples, got {samples}"):
        draw(samples)
