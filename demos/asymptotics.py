"""SNR extremes and the central-Wishart shortcut.

At vanishing SNR only E[H^H H] matters: pour everything on its top eigenspace
and the capacity slope is its top eigenvalue. At high SNR the water is deep
enough that uniform power is optimal for any law, and capacity splits into
t*log(gamma/t) plus a law-dependent constant. In between, a non-zero-mean
channel can be handed to the diagonal machinery by swapping the non-central
quadratic form for a central Wishart with a matched scale; the input it picks
is evaluated under the true law, and costs little except at mid SNR.
"""

import numpy as np

from mimocap import (
    KroneckerGaussian,
    OptimizerOptions,
    ergodic_mi,
    high_snr_capacity,
    iterate_general,
    low_snr_cov,
    wishart_approx_covariance,
)

# --- low SNR: beamform on the expected Gram matrix ----------------------------

law = KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.diag([1.5, 0.5]))
q, slope = low_snr_cov(law)
print("Zero-mean Kronecker, T = diag(1.5, 0.5):")
print(f"  low-SNR covariance eigenvalues {np.linalg.eigvalsh(q).round(3)}, "
      f"slope {slope:.3f} (= tr(R) * max eig T)")
for g in (1e-3, 1e-2):
    mi = ergodic_mi(q, law, g, samples=100_000, rng=1)
    print(f"  gamma = {g:g}: MI/gamma = {mi.mean / g:.3f}")

# --- high SNR: uniform power and a log-det constant ----------------------------

iid = KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
print("\niid Rayleigh 2x2, high-SNR expansion vs exact MI at Q = I/2:")
for db in (10, 20, 30):
    g = 10 ** (db / 10)
    res = high_snr_capacity(iid, g, samples=100_000, rng=2)
    print(f"  {db} dB: expansion {res.approx.mean:7.4f}, "
          f"exact {res.exact.mean:7.4f}, gap {res.approx.mean - res.exact.mean:+.4f}")

# --- Ricean channel through the central-Wishart approximation ------------------

n, tau = 2, 0.5
t_corr = tau * np.ones((n, n)) + (1 - tau) * np.eye(n)
mean = np.zeros((n, n), dtype=complex)
mean[0, 0] = n
ricean = KroneckerGaussian(mean, np.eye(n), t_corr)
print("\nRank-one mean plus correlated fading: capacity vs the "
      "Wishart-approximated input")
opts = OptimizerOptions(tol=8e-3, samples=20_000, max_iter=200, seed=3,
                        final_samples=50_000)
for db in (-10, 0, 10):
    g = 10 ** (db / 10)
    cap = iterate_general(ricean, g, opts)
    qa, _ = wishart_approx_covariance(mean, t_corr, g, opts)
    mi_a = ergodic_mi(qa, ricean, g, samples=50_000, rng=4)
    print(f"  {db:>4} dB: capacity {cap.mi.mean:7.4f}, approx input "
          f"{mi_a.mean:7.4f}, loss {cap.mi.mean - mi_a.mean:+.4f} nats")
