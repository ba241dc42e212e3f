"""Beamforming optimality, SNR asymptotics, and covariance approximations.

The beamforming tests decide whether rank-one transmission on the strongest
transmit eigenvector achieves capacity for zero-mean Kronecker channels with
``tr(T) = t`` and ``tr(R) = r``. Two routes are provided: a Monte Carlo
evaluation of the defining expectation over a length-r Gaussian vector, and
the closed form built from exponential-integral terms; they must agree in
sign whenever the Monte Carlo margin is resolved.

Also here: the first-order low-SNR covariance (uniform power on the top
eigenspace of E[H^H H]), the high-SNR capacity expansion, the central-Wishart
covariance approximation for non-zero-mean channels, and the mean/noise
interpolation study tracking how the optimal eigenvectors rotate.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelLaw,
    KroneckerGaussian,
    _blocks,
    _law_blocks,
    _point_mass,
    _small_gram,
)
from .covopt import (
    CovOptResult,
    OptimizerOptions,
    fixed_point_diag,
    iterate_general,
)
from .linalg import _bracketed_root, _gauge, as_hermitian, as_psd, herm_eig, psd_sqrt, scaled_expn
from .montecarlo import (
    DEFAULT_SAMPLES_INNER,
    McEstimate,
    SeededStream,
    as_stream,
    ergodic_mi,
)

__all__ = [
    "BeamformVerdict",
    "beamform_opt_mc",
    "beamform_opt_closed",
    "beamform_boundary",
    "low_snr_cov",
    "HighSnrResult",
    "high_snr_capacity",
    "wishart_approx",
    "wishart_approx_covariance",
    "interp_study",
]


@dataclass(frozen=True)
class BeamformVerdict:
    """Outcome of a beamforming optimality test; optimal iff margin > 0."""

    optimal: bool
    margin: float
    method: str
    se: float = 0.0


def _check_normalization(r_corr: np.ndarray, t_corr: np.ndarray) -> None:
    r, t = r_corr.shape[0], t_corr.shape[0]
    if t < 2:
        raise ValueError("beamforming needs at least two transmit modes")
    if abs(np.trace(r_corr).real - r) > 1e-6 * r:
        raise ValueError("beamforming test requires tr(R) = r")
    if abs(np.trace(t_corr).real - t) > 1e-6 * t:
        raise ValueError("beamforming test requires tr(T) = t")


def beamform_opt_mc(r_corr, t_corr, gamma: float,
                    samples: int = DEFAULT_SAMPLES_INNER,
                    rng: SeededStream | int = 0) -> BeamformVerdict:
    """Monte Carlo beamforming test for a zero-mean Kronecker channel.

    Evaluates E[(u^H R u + gamma*tau2*u^H R^2 u) / (1 + gamma*tau1*u^H R u)]
    against r*tau2/tau1, with u a length-r circular complex Gaussian vector.
    Only the largest non-leading transmit eigenvalue tau2 is tested: the
    condition is linear in tau_k on one side, so it is tightest there.
    With R = V diag(rho) V^H the forms are e @ rho and e @ rho^2 for e = |V^H u|^2,
    whose entries are iid Exp(1): each draw is r exponentials. The draws
    stream: working memory is one value per draw and one block.
    """
    r_corr = as_psd(r_corr)
    t_corr = as_psd(t_corr)
    _check_normalization(r_corr, t_corr)
    r = r_corr.shape[0]
    taus = np.sort(np.linalg.eigvalsh(t_corr))[::-1]
    tau1, tau2 = taus[0], taus[1]
    gen = as_stream(rng).generator()
    rho = np.linalg.eigvalsh(r_corr)

    def values(n):
        e = gen.standard_exponential((n, r))
        w1, w2 = e @ rho, e @ rho ** 2
        return (w1 + gamma * tau2 * w2) / (1.0 + gamma * tau1 * w1)

    est = McEstimate.of(_blocks(samples, values))
    margin = float(est.mean - r * tau2 / tau1)
    return BeamformVerdict(margin > 0, margin, "monte-carlo", est.se)


#: a divided difference whose nodes span less than this, relative to the
#: smallest, is summed from the Taylor series about that node
_TAYLOR_SPAN = 0.25


def _expint_divided_difference(x) -> float:
    """Divided difference h[x_0, ..., x_k] of h(x) = e^x E_1(x) over nodes x > 0,
    repeated nodes included.

    Newton's recursion divides by x_b - x_a, which loses digits when the nodes
    are close. A difference whose nodes lie within ``_TAYLOR_SPAN`` of the
    smallest, x_a, is instead the sum over q of
    (-1)^(q+l) f_(q+l+1)(x_a) h_q(u) / x_a^l, with l = b - a, f_n = e^x E_n(x),
    h_q the complete symmetric polynomial of the u_i = x_i / x_a - 1 (the Taylor
    coefficients of h at x_a are (-1)^p f_(p+1)(x_a) / x_a^p). Equal nodes
    take the exact confluent limit, one term.
    """
    x = sorted(x)
    dd = [scaled_expn(1, v) for v in x]
    for level in range(1, len(x)):
        for a in range(len(x) - level):
            lo, hi = x[a], x[a + level]
            span = hi / lo - 1.0
            if span > _TAYLOR_SPAN:
                dd[a] = (dd[a + 1] - dd[a]) / (hi - lo)
                continue
            if span == 0.0:  # equal nodes: the confluent limit, one term
                dd[a] = (-1.0) ** level * scaled_expn(level + 1, lo) / lo ** level
                continue
            # C(q + level, level) span^q bounds the q-th term
            q, bound = 1, 1.0
            while bound > 1e-17:
                bound *= span * (q + level) / q
                q += 1
            h = np.zeros(q)
            h[0] = 1.0
            for v in x[a + 1:a + level + 1]:
                if v > lo:
                    h = np.convolve(h, (v / lo - 1.0) ** np.arange(q))[:q]
            h[1::2] *= -1.0
            f = scaled_expn(np.arange(level + 1, level + q + 1), lo)
            dd[a] = (-1.0) ** level * float(f @ h) / lo ** level
    return dd[0]


def beamform_opt_closed(rho, tau1: float, tau2: float, gamma: float) -> BeamformVerdict:
    """Closed-form beamforming test from the exponential-integral expansion.

    ``rho`` are the receive-correlation eigenvalues (all positive). Optimal iff

        sum_i rho_i (1 + gamma tau2 rho_i) D_i  >  r gamma tau2,

    D_i = gamma tau1 E[|u_i|^2 / (1 + gamma tau1 sum_k rho_k |u_k|^2)] for iid
    CN(0, 1) u_k, that is c int_0^inf e^-s (1 + s b_i)^-1 prod_k (1 + s b_k)^-1 ds
    with c = gamma tau1, b_k = c rho_k. Partial fractions make the integral
    (-1)^r prod x h[x_i, x_1, ..., x_r], a divided difference of
    h(x) = e^x E_1(x) at x_k = 1 / b_k (the product over the same r + 1 nodes),
    which :func:`_expint_divided_difference` takes in its confluent limit
    wherever receive eigenvalues coincide.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("receive eigenvalues must be positive")
    r = rho.size
    c = gamma * tau1
    x = [1.0 / (c * v) for v in rho.tolist()]
    lhs = 0.0
    for i, v in enumerate(rho.tolist()):
        nodes = x + [x[i]]
        integral = (-1.0) ** r * math.prod(nodes) * _expint_divided_difference(nodes)
        lhs += v * (1.0 + gamma * tau2 * v) * c * integral
    margin = float(lhs - r * gamma * tau2)
    return BeamformVerdict(margin > 0, margin, "closed-form")


def beamform_boundary(gamma: float, rho_grid) -> np.ndarray:
    """Beamforming transition curve for the 2x2 diagonal parameterization.

    For each rho, with R = diag(rho, 2 - rho) and T = diag(tau, 2 - tau),
    returns the smallest tau in (1, 2) where beamforming becomes optimal:
    the sign change of the closed-form margin, found by regula falsi
    (:func:`linalg._bracketed_root`) to a bracket of 1e-6 (nan when the margin
    never turns positive). Output rows are (rho, tau_star).
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    out = np.empty((rho_grid.size, 2))
    for idx, rho in enumerate(rho_grid):
        rvec = [rho, 2.0 - rho]

        def margin(tau):
            return beamform_opt_closed(rvec, tau, 2.0 - tau, gamma).margin, None

        lo, hi = 1.0 + 1e-9, 2.0 - 1e-9
        at_lo, at_hi = margin(lo)[0], margin(hi)
        if at_lo > 0:
            out[idx] = (rho, lo)
        elif at_hi[0] < 0:
            out[idx] = (rho, np.nan)
        else:
            out[idx] = (rho, _bracketed_root(margin, lo, hi, at_hi, xtol=1e-6, at_lo=at_lo))
    return out


def low_snr_cov(law: ChannelLaw) -> tuple[np.ndarray, float]:
    """First-order optimal covariance: uniform power on the top eigenspace
    of E[H^H H].

    Returns (Q, slope) with C ~ slope * gamma as gamma -> 0. With trace-one
    Q spread over a k-fold top eigenvalue lam1, the first-order rate is
    gamma * lam1 regardless of k, so the slope reported is lam1.
    """
    g = law.expected_gram()
    u, lam = herm_eig(g)
    if lam[0] <= 0:
        raise ValueError("expected Gram matrix has no positive eigenvalue")
    rel = (lam[0] - lam) / lam[0]
    k = int(np.sum(rel <= 1e-8))
    if k < lam.size and rel[k] < 1e-4:
        warnings.warn(
            f"top eigenvalue nearly degenerate (relative gap {rel[k]:.2e}); "
            f"reporting multiplicity k={k}", stacklevel=2)
    uk = u[:, :k]
    q = (uk @ uk.conj().T) / k
    return 0.5 * (q + q.conj().T), float(lam[0])


@dataclass(frozen=True)
class HighSnrResult:
    q: np.ndarray
    approx: McEstimate
    exact: McEstimate
    excluded: int


def high_snr_capacity(law: ChannelLaw, gamma: float,
                      samples: int = DEFAULT_SAMPLES_INNER,
                      rng: SeededStream | int = 0) -> HighSnrResult:
    """High-SNR expansion C -> t log(gamma/t) + E[log det(H H^H)] with Q = I/t.

    Valid when draws are full rank and the received SNR dominates every mode.
    Draws with numerically non-positive determinant are excluded and counted.
    Also evaluates the exact ergodic MI at Q = I/t for gap reporting.
    """
    t = law.tx
    stream = as_stream(rng)
    sign, logdet = _law_blocks(law, samples, stream.child(0).generator(),
                               lambda h: np.column_stack(np.linalg.slogdet(_small_gram(h)))).T
    good = (sign.real > 0) & np.isfinite(logdet)
    excluded = int(samples - good.sum())
    if excluded:
        warnings.warn(f"excluded {excluded} singular draws", stacklevel=2)
    est = McEstimate.of(logdet[good].real)
    approx = McEstimate(float(t * np.log(gamma / t) + est.mean), est.se, est.samples)
    q = np.eye(t) / t
    exact = ergodic_mi(q, law, gamma, samples, stream.child(1))
    return HighSnrResult(q, approx, exact, excluded)


def wishart_approx(mean, tx_corr, q) -> np.ndarray:
    """Central-Wishart scale matrix T^{1/2} Q T^{1/2} + M^H M / t.

    Approximates the non-central quadratic form H Q H^H (H with mean M and
    transmit correlation T) by a central Wishart with this scale.
    """
    mean = np.asarray(mean, dtype=complex)
    t = mean.shape[1]
    th = psd_sqrt(as_psd(tx_corr))
    sigma = th @ as_hermitian(q) @ th + mean.conj().T @ mean / t
    return 0.5 * (sigma + sigma.conj().T)


def wishart_approx_covariance(mean, tx_corr, gamma: float,
                              opts: OptimizerOptions = OptimizerOptions()
                              ) -> tuple[np.ndarray, ChannelLaw]:
    """Input covariance that is optimal under the central-Wishart stand-in.

    Folds Q = I/t into the scale recipe, builds the zero-mean Kronecker law with that
    transmit correlation, and optimizes the power allocation in its ``diag_basis``, the
    scale's eigenbasis. The returned covariance is meant to be judged under the true law
    (the approximation only picks the input, never the yardstick).
    """
    mean = np.asarray(mean, dtype=complex)
    r, t = mean.shape
    sigma = wishart_approx(mean, tx_corr, np.eye(t) / t)
    approx_law = KroneckerGaussian(np.zeros((r, t)), np.eye(r), sigma)
    res = fixed_point_diag(approx_law, gamma, opts)
    return res.q, approx_law


@dataclass(frozen=True)
class InterpPoint:
    """One interpolation step: optimal covariance and how its axes sit."""

    kappa: float
    result: CovOptResult
    eigvecs: np.ndarray
    powers: np.ndarray
    angle_vs_gram: float


def _principal_angle(u, v) -> float:
    """Angle between two unit vectors modulo phase."""
    c = np.clip(np.abs(np.vdot(u, v)), 0.0, 1.0)
    return float(np.arccos(c))


def interp_study(m0, noise_cov, kappa_grid, gamma: float,
                 opts: OptimizerOptions = OptimizerOptions()) -> list[InterpPoint]:
    """Track the optimal covariance as the channel slides from noise to mean.

    For each kappa in [0, 1] runs the general optimizer on H = kappa*M0 +
    (1-kappa)*G*Sigma^1/2, G iid CN(0, 1): KroneckerGaussian(kappa*M0, I,
    (1-kappa)^2 Sigma), or the one-atom mixture M0 at kappa = 1. At kappa = 0 that law is
    zero-mean, so where it is ``exact`` it is solved on the closed form, with no pool.
    Records the eigen-structure of the optimum plus the angle between its top
    eigenvector and that of E[H^H H] (they differ: the optimum is not a straight
    interpolation of the mean and noise axes). The powers are the solver's own
    (``qhat``), largest first: an off direction reads 0.0.
    """
    m0 = np.asarray(m0, dtype=complex)
    kappas = np.asarray(kappa_grid, dtype=float)
    if not np.all((kappas >= 0.0) & (kappas <= 1.0)):
        raise ValueError("kappa must lie in [0, 1]")
    out = []
    for i, kappa in enumerate(kappas.tolist()):
        law: ChannelLaw = (_point_mass(m0) if kappa == 1.0 else KroneckerGaussian(
            kappa * m0, np.eye(len(m0)), (1.0 - kappa) ** 2 * np.asarray(noise_cov)))
        res = iterate_general(law, gamma,
                              dataclasses.replace(opts, seed=opts.seed + 7919 * i))
        u = _gauge(*herm_eig(res.q))
        gu, _ = herm_eig(law.expected_gram())
        out.append(InterpPoint(kappa, res, u, np.sort(res.qhat)[::-1],
                               _principal_angle(u[:, 0], gu[:, 0])))
    return out
