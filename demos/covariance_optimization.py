"""Optimal transmit covariance when only the channel law is known.

Two solvers. When a diagonalizing basis is known up front (deterministic
channels, zero-mean Kronecker fading) the problem is a power allocation, and
Newton steps on the resolvent stationarity condition find it, with off modes
exactly zero. In general no basis is known: projected Newton steps on the
Hermitian covariance itself, in its current eigenbasis, find the optimum,
eigenvectors included.
"""

import numpy as np

from mimocap import (
    PointMass,
    KroneckerGaussian,
    OptimizerOptions,
    fixed_point_diag,
    interp_study,
    iterate_general,
    waterfill_det,
)
from mimocap.linalg import haar_unitary

# --- sanity anchor: a deterministic channel reduces to water-filling ---------

law = PointMass(np.diag([np.sqrt(2.0), 1.0]))
sol = waterfill_det([2.0, 1.0], 1.0)
res = fixed_point_diag(law, 1.0, opts=OptimizerOptions(tol=1e-7, max_iter=2000))
print("Deterministic eigenvalues {2, 1}, unit budget:")
print(f"  water-filling: powers {sol.powers.round(6)}, rate {sol.rate:.6f} nats")
print(f"  Newton (diag): powers {res.qhat.round(6)}, MI  {res.mi.mean:.6f} nats")

# --- the general solver finds rotated optima it was never told about ---------

rng = np.random.default_rng(1)
u = haar_unitary(2, rng)
law_rot = PointMass((u * np.sqrt([2.0, 1.0])) @ u.conj().T)
res_rot = iterate_general(law_rot, 1.0, opts=OptimizerOptions(tol=1e-9))
print("\nSame spectrum behind a random unitary, general Newton solver:")
print(f"  MI {res_rot.mi.mean:.6f} nats (capacity {sol.rate:.6f}), "
      f"{res_rot.iterations} iterations, residual {res_rot.kkt_residual:.1e}")

# --- iid Rayleigh: uniform power is optimal and the optimizer agrees ---------

iid = KroneckerGaussian(np.zeros((2, 2)), np.eye(2), np.eye(2))
res_iid = iterate_general(iid, 1.0, opts=OptimizerOptions(samples=30_000, tol=8e-3,
                                                          max_iter=300, seed=2))
print("\niid Rayleigh 2x2 at SNR 1: Q should be I/2")
print(np.array_str(res_iid.q, precision=3, suppress_small=True))

# --- non-commuting mean and covariance: the interesting regime ----------------

m0 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
sigma = np.diag([4.0, 1.0]).astype(complex)
print("\nMean/noise interpolation H = k*M0 + (1-k)*G*Sigma^1/2, G iid CN(0, 1):")
print("the Kronecker law with mean k*M0, R = I and T = (1-k)^2 Sigma")
print("(M0 and Sigma do not commute; the optimal axes are not an "
      "interpolation of either.")
print(" At k=0 the law is zero-mean, solved on its closed-form MI)")
pts = interp_study(m0, sigma, [0.0, 0.25, 0.5, 0.75, 1.0], 1.0,
                   OptimizerOptions(tol=5e-3, samples=15_000, max_iter=300, seed=3))
print(f"{'kappa':>6} {'q1':>7} {'q2':>7} {'angle to E[S] axes (rad)':>26}")
for p in pts:
    print(f"{p.kappa:>6.2f} {p.powers[0]:>7.3f} {p.powers[1]:>7.3f} "
          f"{p.angle_vs_gram:>26.4f}")
print("kappa=0 splits power across Sigma's axes; kappa=1 beamforms on M0's "
      "top singular direction.")
