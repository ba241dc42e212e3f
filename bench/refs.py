"""Reference values the benchmark computes itself, without calling mimocap.

Every function here uses numpy/scipy directly, so a defect in the package
cannot hide in its own reference. The references are:

* closed-form eigenvalue moments of a complex Wishart matrix (the density
  expanded once as a polynomial times e^-x, then integrated term by term with
  incomplete gamma functions); for m = n = 1 these are the Rayleigh forms
  xi e^{-1/xi} - E1(1/xi) = gamma and C = E1(1/xi);
* a vectorised water-filling over rows of eigenvalues;
* channel pools drawn with the benchmark's own sampler from a fixed seed, and
  the stationarity residual and mutual information of a covariance on them,
  with the noise either shows when Q is solved on a sample of 10^4 draws;
* the beamforming margin of a 2x2 diagonal Kronecker law by Gauss-Laguerre
  quadrature.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.special

from ops import circular_gaussian, generator

#: seed of every evaluation pool: fixed, so that every run and every commit
#: is judged on the same draws (common random numbers)
EVAL_SEED = 20051005


def eval_generator(name: str) -> np.random.Generator:
    """The evaluation stream called ``name``: the same draws in every run."""
    return generator(EVAL_SEED, zlib.crc32(name.encode()))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


# ---------------------------------------------------------------------------
# Wishart eigenvalue density in closed form
# ---------------------------------------------------------------------------

def _laguerre(k: int, alpha: int) -> np.polynomial.Polynomial:
    """Generalized Laguerre polynomial L_k^alpha from its explicit sum."""
    return np.polynomial.Polynomial(
        [(-1) ** i * math.comb(k + alpha, k - i) / math.factorial(i) for i in range(k + 1)])


def _upper_gamma(j: int, a: float) -> float:
    """Unregularized upper incomplete gamma Gamma(j, a) for integer j >= 0."""
    if j == 0:
        return float(scipy.special.exp1(a))
    return math.factorial(j - 1) * math.exp(-a) * sum(a**i / math.factorial(i) for i in range(j))


class WishartRef:
    """One unordered eigenvalue of an m x m complex Wishart with n >= m dof.

    The density is P(x) e^-x with P(x) = (1/m) sum_k k!/(k+d)! L_k^d(x)^2 x^d,
    d = n - m, so each moment is a finite sum of incomplete gamma functions.
    """

    def __init__(self, m: int, n: int):
        d = n - m
        poly = np.polynomial.Polynomial([0.0])
        for k in range(m):
            poly = poly + math.factorial(k) / math.factorial(k + d) * _laguerre(k, d) ** 2
        self.m, self.n = m, n
        self.coef = (poly * np.polynomial.Polynomial([0.0] * d + [1.0]) / m).coef

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x, self.coef) * np.exp(-x)

    def cdf(self, x: float) -> float:
        return 1.0 - sum(c * _upper_gamma(j + 1, x) for j, c in enumerate(self.coef))

    def power(self, xi: float) -> float:
        """Mean per-eigenvalue power E[(xi - 1/lam)+]."""
        a = 1.0 / xi
        return sum(c * (xi * _upper_gamma(j + 1, a) - _upper_gamma(j, a))
                   for j, c in enumerate(self.coef))

    def capacity(self, xi: float) -> float:
        """Space-time capacity m E[ln(xi lam)+] in nats."""
        a = 1.0 / xi
        log_a = math.log(a)
        total = 0.0
        i_prev = math.exp(-a) * log_a + _upper_gamma(0, a)  # I_0(a)
        for j, c in enumerate(self.coef):
            if j > 0:
                # I_j(a) = int_a^inf ln(x) x^j e^-x dx, by parts from I_{j-1}
                i_prev = a**j * math.exp(-a) * log_a + _upper_gamma(j, a) + j * i_prev
            total += c * (i_prev - log_a * _upper_gamma(j + 1, a))
        return self.m * total

    def water_level(self, gamma: float) -> float:
        target = gamma / self.m
        hi = target + 10.0
        while self.power(hi) < target:
            hi *= 2.0
        return scipy.optimize.brentq(lambda xi: self.power(xi) - target, 1e-3, hi,
                                     xtol=1e-15, rtol=1e-15, maxiter=500)

    def uniform_rate(self, gamma: float) -> float:
        """Rate with Q = I/m, m E[ln(1 + gamma lam / m)], by adaptive quadrature."""
        val, _ = scipy.integrate.quad(lambda x: np.log1p(gamma / self.m * x) * self.pdf(x),
                                      0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
        return self.m * val

    def sample_eigs(self, size: int, gen: np.random.Generator) -> np.ndarray:
        g = circular_gaussian(gen, (size, self.m, self.n))
        return np.maximum(np.linalg.eigvalsh(g @ np.conj(np.swapaxes(g, 1, 2))), 0.0)


def rayleigh_peak_limited(xi: float, peak: float) -> tuple[float, float]:
    """Rayleigh m=1: (power, rate) of the allocation (xi - 1/lam)+ capped at ``peak``.

    Eigenvalues above b = 1/(xi - peak) are dropped, so with a = 1/xi both
    integrals run over [a, b] and reduce to exponential integrals.
    """
    a = 1.0 / xi
    b = 1.0 / (xi - peak) if xi > peak else np.inf
    e1 = scipy.special.exp1
    if np.isinf(b):
        return xi * math.exp(-a) - e1(a), float(e1(a))
    power = xi * (math.exp(-a) - math.exp(-b)) - (e1(a) - e1(b))
    rate = e1(a) - (math.exp(-b) * math.log(xi * b) + e1(b))
    return float(power), float(rate)


# ---------------------------------------------------------------------------
# water-filling over eigenvalue rows
# ---------------------------------------------------------------------------

def waterfill_rows(lam: np.ndarray, budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row water level and rate for a (N, m) array of eigenvalues."""
    lam = -np.sort(-np.asarray(lam, dtype=float), axis=1)
    with np.errstate(divide="ignore"):
        inv = np.where(lam > 0, 1.0 / lam, np.inf)
    k = np.arange(1, lam.shape[1] + 1)
    levels = (budget + np.cumsum(inv, axis=1)) / k
    active = np.sum((levels >= inv) & np.isfinite(inv), axis=1)
    mu = np.where(active > 0, levels[np.arange(lam.shape[0]), np.maximum(active, 1) - 1], 0.0)
    on = k[None, :] <= active[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(on, np.log(mu[:, None] * lam), 0.0).sum(axis=1)
    return mu, rate


def point_mass_capacity(h: np.ndarray, gamma: float) -> float:
    """Capacity of a fixed channel: water-fill the eigenvalues of gamma H^H H."""
    return float(waterfill_rows(np.linalg.eigvalsh(gamma * h.conj().T @ h)[None, :], 1.0)[1][0])


# ---------------------------------------------------------------------------
# channel pools and covariance quality
# ---------------------------------------------------------------------------

def kronecker_draws(mean, rx_corr, tx_corr, size: int, gen: np.random.Generator) -> np.ndarray:
    """H = mean + R^{1/2} G T^{1/2} with G iid CN(0, 1), shape (size, r, t)."""
    mean = np.asarray(mean, dtype=complex)
    g = circular_gaussian(gen, (size,) + mean.shape)
    return mean + psd_sqrt(np.asarray(rx_corr, complex)) @ g @ psd_sqrt(np.asarray(tx_corr, complex))


def gram_pool(h: np.ndarray, gamma: float) -> np.ndarray:
    """S = gamma H^H H per draw."""
    return gamma * np.conj(np.swapaxes(h, 1, 2)) @ h


def row_eigs(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of H H^H per draw (the min(r, t) nonzero ones)."""
    r, t = h.shape[1:]
    hh = np.conj(np.swapaxes(h, 1, 2))
    gram = h @ hh if r <= t else hh @ h
    return np.maximum(np.linalg.eigvalsh(gram), 0.0)


def pool_mi_values(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-draw log det(I + S Q)."""
    return np.linalg.slogdet(np.eye(q.shape[0]) + s @ q)[1]


def _residual(g: np.ndarray, q: np.ndarray) -> float:
    g = 0.5 * (g + g.conj().T)
    mu = float(np.trace(g @ q).real)
    excess = max(0.0, np.linalg.eigvalsh(g)[-1] - mu)
    return float((np.linalg.norm((g - mu * np.eye(len(q))) @ q) + excess) / mu)


def stationarity_residual(s: np.ndarray, q: np.ndarray, batches: int = 10,
                          resolution: int = 10_000) -> tuple[float, float, float]:
    """Residual of the capacity condition for Q on a pool, its standard error,
    and the residual noise of a ``resolution``-draw estimate.

    With G = Herm(E[(I + S Q)^-1 S]) and mu = tr(G Q), the residual is
    ||(G - mu I) Q||_F / mu + max(0, lambda_max(G) - mu) / mu. Its standard
    error is taken by batch means: the spread of the residual over ``batches``
    equal parts of the pool, over sqrt(batches). The noise is the size of
    ||(G_N - G) Q||_F / mu for G_N the mean of N = ``resolution`` draws: the
    residual a Q fitted on an N-draw sample shows, however well it is solved.
    """
    x = np.linalg.solve(np.eye(q.shape[0]) + s @ q, s)
    g = x.mean(axis=0)
    resid = _residual(g, q)
    if len(x) < 2 * batches:
        return resid, 0.0, 0.0
    parts = [_residual(part.mean(axis=0), q) for part in np.array_split(x, batches)]
    dev = x - g
    dev = 0.5 * (dev + np.conj(np.swapaxes(dev, 1, 2)))
    spread = math.sqrt(np.mean(np.sum(np.abs(dev @ q) ** 2, axis=(1, 2))))
    mu = float(np.trace(0.5 * (g + g.conj().T) @ q).real)
    return (resid, float(np.std(parts, ddof=1) / math.sqrt(batches)),
            spread / (mu * math.sqrt(resolution)))


def _directions(t: int, diagonal: bool) -> np.ndarray:
    """An orthonormal basis of the trace-zero Hermitian t x t matrices (or the diagonal ones)."""
    basis = []
    for k in range(1, t):
        d = np.zeros((t, t), dtype=complex)
        d[np.arange(k), np.arange(k)] = 1.0
        d[k, k] = -k
        basis.append(d / np.linalg.norm(d))
    if not diagonal:
        for i in range(t):
            for j in range(i + 1, t):
                for z in (1.0, 1j):
                    d = np.zeros((t, t), dtype=complex)
                    d[i, j], d[j, i] = z, np.conj(z)
                    basis.append(d / math.sqrt(2.0))
    return np.array(basis)


def sampling_gap(s: np.ndarray, q: np.ndarray, diagonal: bool, resolution: int = 10_000,
                 draws: int = 20_000) -> float:
    """Expected MI shortfall of the best Q on a ``resolution``-draw sample of the pool's law.

    Q must be the interior optimum. With per-draw gradients g_k = tr(X D_k),
    X = (I + S Q)^-1 S, over an orthonormal basis D_k of the feasible
    directions (all, or the diagonal ones), and the Hessian
    H_kl = E[tr(X D_k X D_l)], the sample optimum misses by tr(H^-1 Cov g) / (2N)
    on average. Estimated on the first ``draws`` draws of the pool.
    """
    s = s[:draws]
    x = np.linalg.solve(np.eye(len(q)) + s @ q, s)
    a = np.einsum("nij,kjl->nkil", x, _directions(len(q), diagonal))
    grad = np.einsum("nkii->nk", a).real
    hess = np.einsum("nkij,nlji->kl", a, a).real / len(s)
    cov = np.atleast_2d(np.cov(grad, rowvar=False))
    return float(np.trace(np.linalg.solve(hess, cov)) / (2 * resolution))


def best_diagonal_2x2(s: np.ndarray) -> np.ndarray:
    """Pool-optimal Q = diag(p, 1 - p), by a bounded 1-D search.

    det(I + S diag(p, 1-p)) = 1 + p S11 + (1-p) S22 + p(1-p) det S, concave in p.
    """
    a, b = s[:, 0, 0].real, s[:, 1, 1].real
    c = a * b - np.abs(s[:, 0, 1]) ** 2
    res = scipy.optimize.minimize_scalar(
        lambda p: -np.mean(np.log(1.0 + p * a + (1.0 - p) * b + p * (1.0 - p) * c)),
        bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
    return np.diag([res.x, 1.0 - res.x]).astype(complex)


# ---------------------------------------------------------------------------
# beamforming margin
# ---------------------------------------------------------------------------

_LAG_X, _LAG_W = np.polynomial.laguerre.laggauss(80)


def beamform_margin(rho, tau1: float, tau2: float, gamma: float) -> float:
    """E[(w1 + gamma tau2 w2) / (1 + gamma tau1 w1)] - r tau2 / tau1 for r = 2.

    With R = diag(rho) and u ~ CN(0, I), |u_i|^2 are iid Exp(1), so the mean
    is a 2-D Laguerre integral; w1 = sum rho_i e_i, w2 = sum rho_i^2 e_i.
    """
    e1, e2 = np.meshgrid(_LAG_X, _LAG_X, indexing="ij")
    wt = np.outer(_LAG_W, _LAG_W)
    w1 = rho[0] * e1 + rho[1] * e2
    w2 = rho[0] ** 2 * e1 + rho[1] ** 2 * e2
    val = np.sum(wt * (w1 + gamma * tau2 * w2) / (1.0 + gamma * tau1 * w1))
    return float(val - 2.0 * tau2 / tau1)
