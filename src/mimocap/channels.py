"""Channel-law descriptions, exact samplers, and eigenvalue densities.

A :class:`ChannelLaw` describes the distribution of the r x t gain matrix H.
Supported families: deterministic point mass, matrix Gaussian with a general
rt x rt covariance of the column-stacked vector, Kronecker-correlated Gaussian
(H = M + R^{1/2} G T^{1/2}), and finite mixtures of fixed matrices. The paper's
mean/noise interpolation H = k*M0 + (1-k)*G*S^{1/2} is the Kronecker law with mean
k*M0, R = I and T = (1-k)^2 S.

An :class:`EigDensity` is the unordered eigenvalue density of H H^H (equally,
the marginal law of one randomly chosen eigenvalue). Three concrete kinds:
the closed-form Laguerre-kernel density of a complex Wishart matrix, an
empirical pool of sampled eigenvalues, and discrete point masses. All three
answer pdf/cdf queries and the two named moment queries the solvers need:
``tail_moments`` (the mass, E[1/lam] and E[ln lam] parts above a threshold)
and ``log1p_moment`` (E[ln(1 + c lam)]). The Wishart density answers both in
closed form with incomplete gamma functions. ``trunc_moment`` integrates any
function and serves as the general query and the quadrature reference.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .linalg import (_circular_gaussian, _gram, as_complex_matrix, as_psd, herm_eig,
                     psd_sqrt, scaled_expn)

__all__ = [
    "ChannelLaw",
    "PointMass",
    "MatrixGaussian",
    "KroneckerGaussian",
    "FiniteMixture",
    "sample_batch",
    "EigDensity",
    "WishartDensity",
    "EmpiricalDensity",
    "PointMassDensity",
    "wishart_density",
    "empirical_density",
    "gram_eigs",
    "onoff_density",
    "law_from_json",
    "law_to_json",
]


_BLOCK = 2048  #: draws per block of a streamed reduction: 4 x 4 complex ones fill 512 KiB


def _blocks(samples: int, draw) -> np.ndarray:
    """Per-draw values of ``samples`` draws, ``draw(n)`` giving those of the next n <= ``_BLOCK``,
    each written into one output and dropped: the working memory is the output and one block."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    for lo in range(0, samples, _BLOCK):
        block = draw(min(_BLOCK, samples - lo))
        out = out if lo else np.empty((samples, *block.shape[1:]), block.dtype)
        out[lo:lo + len(block)] = block
    return out


def _law_blocks(law: "ChannelLaw", samples: int, rng: np.random.Generator, reduce) -> np.ndarray:
    """``reduce(H)`` per draw of ``samples`` iid draws of H, in :func:`_blocks`."""
    return _blocks(samples, lambda n: reduce(sample_batch(law, n, rng)))


# ---------------------------------------------------------------------------
# channel laws
# ---------------------------------------------------------------------------

class ChannelLaw:
    """Law of the r x t channel H: a family defines shape, sample_batch and expected_gram."""

    exact = False  #: whether ``exact_mi`` gives the ergodic MI in closed form
    iid = False  #: whether H has iid CN(0, 1) entries, so H H^H is complex Wishart
    diag_basis = None  #: a unitary known a priori to diagonalize the optimal Q, or None
    support = None  #: ((k, r, t) atoms, (k,) weights) of a finite law, solved and scored exactly
    #: whether H H^H has eigenvalue density > 0 at 0+ (square H with a nonsingular Gaussian
    #: part: P(lam_min < e) ~ c e), so E[1/lam] = inf though no pool shows it
    _dense_at_zero = False

    @property
    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    @property
    def rx(self) -> int:
        return self.shape[0]

    @property
    def tx(self) -> int:
        return self.shape[1]

    def sample_batch(self, size: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def expected_gram(self) -> np.ndarray:
        """The t x t matrix E[H^H H], in closed form for every law family.

        Note the transmit-side ordering: downstream covariance optimization acts
        on t x t objects, so the expected Gram matrix is taken as H^H H even where
        source formulas are written for H H^H (they coincide at t = r only).
        """
        raise NotImplementedError

    def sample_projected(self, samples: int, rng: np.random.Generator, p: np.ndarray,
                         reduce=np.asarray) -> np.ndarray:
        """``reduce(Y)`` of ``samples`` iid Y = H P, (n, r, k) per block, for a t x k matrix
        ``p``, streamed in :func:`_blocks`; by default the draws, shape (samples, r, k)."""
        return _blocks(samples, lambda n: reduce(sample_batch(self, n, rng) @ p))

    def draw_rows(self, samples: int, rng: np.random.Generator, reduce=np.asarray) -> tuple:
        """``reduce(rows)`` of the eigenvalue rows of H H^H, one per atom of ``support``, else
        ``samples`` drawn rows streamed in :func:`_blocks`; and weights, None if equally likely."""
        if self.support is None:
            return _law_blocks(self, samples, rng, lambda h: reduce(gram_eigs(h))), None
        return reduce(gram_eigs(self.support[0])), self.support[1]


@dataclass(frozen=True)
class PointMass(ChannelLaw):
    """Deterministic channel: every draw returns the same matrix."""

    h0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h0", as_complex_matrix(self.h0))

    @property
    def shape(self):
        return self.h0.shape

    @property
    def support(self):
        return self.h0[None, :, :], np.ones(1)

    @property
    def diag_basis(self):
        return herm_eig(self.expected_gram())[0]

    def sample_batch(self, size, rng):
        return np.broadcast_to(self.h0, (size, *self.shape)).copy()

    def expected_gram(self):
        return self.h0.conj().T @ self.h0


@dataclass(frozen=True)
class MatrixGaussian(ChannelLaw):
    """Gaussian H with mean ``mean`` and rt x rt covariance ``cov`` of vec(H).

    ``vec`` stacks the columns of H; entry (c*r + i) of the vector is H[i, c].
    """

    mean: np.ndarray
    cov: np.ndarray
    _dense_at_zero = property(lambda s: s.rx == s.tx and _nonsingular(s.cov))

    def __post_init__(self):
        object.__setattr__(self, "mean", as_complex_matrix(self.mean))
        object.__setattr__(self, "cov", as_psd(self.cov))
        r, t = self.mean.shape
        if self.cov.shape != (r * t, r * t):
            raise ValueError("covariance must be rt x rt for an r x t mean")

    @property
    def shape(self):
        return self.mean.shape

    @property
    def iid(self):
        return np.allclose(self.mean, 0) and np.allclose(self.cov, np.eye(self.rx * self.tx))

    @functools.cached_property
    def _cov_sqrt(self) -> np.ndarray:
        return psd_sqrt(self.cov)

    def sample_batch(self, size, rng):
        r, t = self.shape
        z = _circular_gaussian(rng, (size, r * t))
        v = z @ self._cov_sqrt.T  # cov = C C^H, C = cov^1/2 Hermitian
        return self.mean + v.reshape(size, t, r).transpose(0, 2, 1)

    def expected_gram(self):
        r, t = self.shape
        g = np.zeros((t, t), dtype=complex)
        # (E[X^H X])_{kl} = sum_i E[h_{lr+i} conj(h_{kr+i})] with h = vec(X),
        # i.e. the trace of the (l, k) block of the stacked-column covariance.
        for k in range(t):
            for l in range(t):
                g[k, l] = np.trace(self.cov[l * r:(l + 1) * r, k * r:(k + 1) * r])
        return g + self.mean.conj().T @ self.mean


@dataclass(frozen=True)
class KroneckerGaussian(ChannelLaw):
    """Separable correlation: H = mean + R^{1/2} G T^{1/2}, G iid CN(0,1), R, T PSD."""

    mean: np.ndarray
    rx_corr: np.ndarray
    tx_corr: np.ndarray
    _dense_at_zero = property(lambda s: s.rx == s.tx and _nonsingular(s.rx_corr, s.tx_corr))

    def __post_init__(self):
        object.__setattr__(self, "mean", as_complex_matrix(self.mean))
        object.__setattr__(self, "rx_corr", as_psd(self.rx_corr))
        object.__setattr__(self, "tx_corr", as_psd(self.tx_corr))
        r, t = self.mean.shape
        if self.rx_corr.shape != (r, r) or self.tx_corr.shape != (t, t):
            raise ValueError("correlation shapes must match the mean")
        c = self.rx_corr[0, 0].real  # t <= 5 and r <= 16: see _CLUSTER
        object.__setattr__(self, "exact", bool(
            t <= 5 and t <= r <= 16 and c > 0 and not self.mean.any()
            and np.array_equal(self.rx_corr, c * np.eye(r))))

    @property
    def shape(self):
        return self.mean.shape

    @property
    def iid(self):
        return (np.allclose(self.mean, 0) and np.allclose(self.rx_corr, np.eye(self.rx))
                and np.allclose(self.tx_corr, np.eye(self.tx)))

    @property
    def diag_basis(self):
        return herm_eig(self.tx_corr)[0] if np.allclose(self.mean, 0) else None

    @functools.cached_property
    def _tx_sqrt(self) -> np.ndarray:
        return psd_sqrt(self.tx_corr)

    @functools.cached_property
    def _rx_sqrt(self) -> np.ndarray | None:
        """R^1/2, or None at R = I (sampling skips it: same bits)."""
        return None if np.array_equal(self.rx_corr, np.eye(self.rx)) else psd_sqrt(self.rx_corr)

    def _draw(self, size, rng, right, mean):
        """mean + R^1/2 G right for iid CN(0, 1) G of shape (size, r, k)."""
        r, k = self.rx, right.shape[1]
        g = _circular_gaussian(rng, (size, r, k))
        # Each factor is one 2-D product: ``right`` on the stacked rows, R^1/2
        # (if any) on the stacked columns. Rebinding g keeps two arrays alive;
        # the mean goes onto the fresh product in place, or onto the one copy
        # that lays R^1/2's transposed product out in C order.
        g = (g.reshape(-1, k) @ right).reshape(size, r, k)
        if self._rx_sqrt is not None:
            g = g.transpose(1, 0, 2).reshape(r, size * k)
            g = (self._rx_sqrt @ g).reshape(r, size, k).transpose(1, 0, 2)
            return np.add(g, mean, order="C")
        g += mean
        return g

    def sample_batch(self, size, rng):
        return self._draw(size, rng, self._tx_sqrt, self.mean)

    def sample_projected(self, samples, rng, p, reduce=np.asarray):
        """H P as M P + R^1/2 G_k (P^H T P)^1/2, G_k r x k iid: the rows of
        G T^1/2 P are iid CN(0, P^H T P), so r k normals replace r t. A zero
        column of P gives an exactly zero column. (P^H T P)^1/2 and M P are
        formed once per call, and every block draws only its G_k."""
        right, mean = psd_sqrt(p.conj().T @ self.tx_corr @ p), self.mean @ p
        return _blocks(samples, lambda n: reduce(self._draw(n, rng, right, mean)))

    def expected_gram(self):
        return self.tx_corr * np.trace(self.rx_corr).real + self.mean.conj().T @ self.mean

    def exact_mi(self, q, gamma: float) -> tuple[float, np.ndarray]:
        """Closed-form E[ln det(I + gamma H Q H^H)] and its gradient in Q, given
        ``exact`` (zero mean, rx_corr = c I, t <= r): :func:`_log_det_moment` of
        Sigma = gamma c T^1/2 Q T^1/2 = V diag(sigma) V^H, and Lewis's (SIAM J.
        Optim. 1996) spectral gradient gamma c T^1/2 V diag(df/dsigma) V^H T^1/2."""
        if not self.exact:
            raise ValueError("the MI of this law has no closed form")
        th = self._tx_sqrt
        gain = gamma * self.rx_corr[0, 0].real
        sigma, vecs = np.linalg.eigh(gain * (th @ np.asarray(q) @ th))
        mi, grad, _ = _log_det_moment(self.rx, np.maximum(sigma, 0.0), second=False)
        w = th @ vecs
        return mi, gain * (w * grad) @ w.conj().T

    def exact_powers(self, basis, q, gamma: float) -> tuple[float, np.ndarray, np.ndarray]:
        """:meth:`exact_mi` at Q = U diag(q) U^H, U = ``basis``, with its gradient and Hessian in q:
        no eigh where U diagonalizes T (sigma = gamma c diag(U^H T U) q), else Lewis & Sendov's
        spectral Hessian (SIAM J. Matrix Anal. Appl. 2001)."""
        if not self.exact:
            raise ValueError("the MI of this law has no closed form")
        gain, tu = gamma * self.rx_corr[0, 0].real, basis.conj().T @ self.tx_corr @ basis
        tau = np.diag(tu).real
        if np.abs(tu - np.diag(tau)).max() <= 1e-12 * np.abs(tu).max():
            mi, grad, hess = _log_det_moment(self.rx, gain * tau * q)
            return mi, gain * tau * grad, gain ** 2 * np.outer(tau, tau) * hess
        tb = self._tx_sqrt @ basis
        sigma, vecs = np.linalg.eigh(gain * ((tb * q) @ tb.conj().T))
        mi, grad, hess = _log_det_moment(self.rx, np.maximum(sigma, 0.0))
        w = vecs.conj().T @ tb
        close = np.abs(gap := sigma[:, None] - sigma) <= 1e-8 * sigma.max()  # confluent limit
        a = np.where(close, np.diag(hess)[:, None] - hess,
                     (grad[:, None] - grad) / np.where(close, 1.0, gap))
        z, k = w[:, None, :] * w.conj(), np.abs(w) ** 2
        return mi, gain * grad @ k, gain ** 2 * (
            k.T @ hess @ k + np.einsum("ija,ij,ijb->ab", z, a, z.conj()).real)


@dataclass(frozen=True)
class FiniteMixture(ChannelLaw):
    """Discrete law over a finite set of channel matrices."""

    weights: np.ndarray
    atoms: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        atoms = tuple(as_complex_matrix(a) for a in self.atoms)
        if w.ndim != 1 or len(atoms) != w.size:
            raise ValueError("need one weight per atom")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        if len({a.shape for a in atoms}) != 1:
            raise ValueError("all atoms must share one shape")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", atoms)

    @property
    def shape(self):
        return self.atoms[0].shape

    @property
    def support(self):
        return np.stack(self.atoms), self.weights

    def sample_batch(self, size, rng):
        idx = rng.choice(len(self.atoms), size=size, p=self.weights)
        return np.stack(self.atoms)[idx]

    def expected_gram(self):
        return sum(w * (a.conj().T @ a) for w, a in zip(self.weights, self.atoms))


def _nonsingular(*mats) -> bool:
    """Full rank, eigenvalues up to n eps times the largest being round-off (as in psd_sqrt)."""
    return all(np.linalg.matrix_rank(a) == len(a) for a in mats)


def sample_batch(law: ChannelLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` iid channel matrices, returned as a (size, r, t) array."""
    return law.sample_batch(size, rng)


# ---------------------------------------------------------------------------
# eigenvalue densities
# ---------------------------------------------------------------------------

class EigDensity:
    """Unordered eigenvalue density of H H^H with pdf/cdf/moment queries."""

    #: number of eigenvalues per channel draw (min(r, t))
    m: int
    pool = math.inf  #: draws behind a pooled density; inf where the density is exact
    exact_pdf = False  #: whether ``pdf`` is the exact density
    discrete = False  #: whether the density is a finite set of point masses
    _dense_at_zero = False  #: E[1/lam] = inf though no pool shows it, as ChannelLaw's

    def pdf(self, lam):
        raise NotImplementedError

    def cdf(self, lam):
        raise NotImplementedError

    def trunc_moment(self, fn, a: float) -> float:
        """Integral of ``fn(lam) * f(lam)`` over ``lam > a``."""
        raise NotImplementedError

    def tail_moments(self, a: float) -> tuple[float, float, float]:
        """Integrals of 1, 1/lam and ln(lam) against f over lam > max(a, 0).

        These three answer every water-filling query: at level xi the average
        power spent above a is xi * mass - inv, and the rate is
        ln(xi) * mass + log.
        """
        raise NotImplementedError

    def log1p_moment(self, c: float) -> float:
        """E[ln(1 + c lam)] for c >= 0: the rate of power c on every mode."""
        raise NotImplementedError

    def draw_rows(self, samples: int, rng: np.random.Generator, reduce=np.asarray) -> tuple:
        """Per-draw eigenvalue rows and weights, as :meth:`ChannelLaw.draw_rows`."""
        raise NotImplementedError


@functools.lru_cache(maxsize=128)
def _wishart_coefficients(m: int, n: int) -> np.ndarray:
    """Coefficients c_j of the polynomial P with f(x) = P(x) e^-x, read-only.

    P(x) = x^d (1/m) sum_k k!/(k+d)! [L_k^d(x)]^2 with d = n - m, expanded in
    exact rational arithmetic and rounded once per coefficient; cached, so a
    process expands each recent (m, n) once. Summing P(x) e^-x against the
    incomplete gammas cancels to about eps sum_j |c_j| j!, relative to the unit
    mass; a shape where that exceeds 1e-8 raises ``ValueError`` (from 11 x 11 on; 8 x 16
    is the widest m = 8 shape admitted), unexpanded where the top term alone does: c_(m+n-2)
    (m + n - 2)! = C(m + n - 2, m - 1) / m bounds the sum below.
    """
    if (err := np.finfo(float).eps * math.comb(m + n - 2, m - 1) / m) <= 1e-8:
        d, poly = n - m, [Fraction(0)] * (2 * m - 1)
        for k in range(m):
            lag = [Fraction((-1) ** i * math.comb(k + d, k - i), math.factorial(i))
                   for i in range(k + 1)]
            w = Fraction(math.factorial(k), m * math.factorial(k + d))
            for i, li in enumerate(lag):
                for j, lj in enumerate(lag):
                    poly[i + j] += w * li * lj
        coef = np.array([0.0] * d + [float(c) for c in poly])
        err = np.finfo(float).eps * np.abs(coef) @ _FACT[:coef.size]
    if err > 1e-8:
        raise ValueError(f"the closed-form {m} x {n} Wishart density cancels to {err:.1e} "
                         "of its mass (above 1e-8); pool the iid law instead")
    coef.flags.writeable = False
    return coef


def _laguerre(count: int, d: int, x):
    """Yield L_k^d(x), k = 0..count-1, from the three-term recurrence
    k L_k = (2k - 1 + d - x) L_(k-1) - (k - 1 + d) L_(k-2)."""
    prev, cur = 0.0, 1.0
    for k in range(1, count + 1):
        yield cur
        prev, cur = cur, ((2 * k - 1 + d - x) * cur - (k - 1 + d) * prev) / k


def _lower_gamma(top: int, x: float) -> list:
    """Regularized lower incomplete gammas P(j, x), j = 1..top, of a float x >= 0.

    From the Poisson terms p_k = e^-x x^k / k!: at and below x the order's
    1 - sum_(k < j) p_k, then at least about 1/2; above it the series
    sum_(k >= j) p_k, summed from its small end, which keeps the relative
    accuracy as x -> 0. Past k = top, where its terms shrink by x/k < 1, the
    series runs until they fall below 1e-17 of its sum.
    """
    p = math.exp(-x)
    x = min(x, 1e300)  # e^-inf inf would be nan
    terms, out, head = [], [], 0.0
    for k in range(1, top + 1):
        terms.append(p)
        head += p
        out.append(1.0 - head)
        p *= x / k
    if x < top:
        tail, k = 0.0, top
        while p > 1e-17 * tail:
            tail += p
            k += 1
            p *= x / k
        for j in range(top, math.floor(x), -1):
            out[j - 1] = tail
            tail += terms[j - 1]
    return out


def _log1p_integrals(c: float, fact: np.ndarray) -> np.ndarray:
    """J_j = int_0^inf ln(1 + c x) x^j e^-x dx, c > 0, j < fact.size (fact[j] = j!):
    J_j = j J_(j-1) + K_j by parts, K_j = int_0^inf x^j e^-x / (b + x) dx = j! e^b
    E_(j+1)(b), b = 1/c. The forward K_j = (j-1)! - b K_(j-1) amplifies error by b^j."""
    k = fact * scaled_expn(np.arange(1, fact.size + 1), 1.0 / c)
    out = np.empty(fact.size)
    j_prev = 0.0
    for j, kj in enumerate(k):
        j_prev = j * j_prev + kj
        out[j] = j_prev
    return out


def _tail_sums(coef: tuple, a: float) -> tuple[float, float, float]:
    """sum_j c_j Gamma(j + 1, a), sum_j c_j Gamma(j, a) and sum_j c_j I_j, with
    I_j = int_a^inf ln(x) x^j e^-x dx: the three tail moments of f = sum_j c_j x^j e^-x.

    Gamma(j + 1, a) = j Gamma(j, a) + a^j e^-a and I_j = a^j e^-a ln(a) +
    j I_(j-1) + Gamma(j, a) run upward from Gamma(0, a) = E_1(a); the first
    adds positive terms only, so it keeps the relative accuracy at any a.
    a^j e^-a is kept as (a^j e^(-a/2)) e^(-a/2), which does not underflow
    before the product does. A zero c_0 skips E_1(0) = inf.
    """
    a = max(float(a), 0.0)
    half = math.exp(-0.5 * a)
    if a > 0:
        ln_a = math.log(a)
        e1 = half * scaled_expn(1, a) * half
        i_j = half * half * ln_a + e1
    else:
        ln_a, e1, i_j = 0.0, math.inf, -np.euler_gamma
    c0 = coef[0]
    gam = half * half                                   # Gamma(1, a)
    mass, inv, log = c0 * gam, c0 * e1 if c0 else 0.0, c0 * i_j
    rise = half                                         # a^j e^(-a/2)
    for j, cj in enumerate(coef[1:], 1):
        rise *= a
        edge = rise * half
        i_j = edge * ln_a + j * i_j + gam
        inv += cj * gam
        gam = j * gam + edge
        mass += cj * gam
        log += cj * i_j
    return mass, inv, log


_FACT = np.array([float(math.factorial(k)) for k in range(171)])  # all finite factorials
_FACT.flags.writeable = False
#: largest ln(sigma) gap within a cluster; where five sigma are spaced wider, their rows
#: lose no more than 1e-8 of the gradient to round-off. Inside a cluster they lose more:
#: at r = 16, four sigma in one cluster lost 4e-8 of it against 40-digit sums, and up to
#: 3.4e-7 once two of them moved by one ulp. Chained sigma lost 1e-3 of the gradient at
#: t = 5, r = 32 and 7e-2 at t = 6 against 80-digit sums (``exact``).
_CLUSTER = 0.15


def _taylor_rows(x: np.ndarray, size: int,
                 second: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows mapping series coefficients (a_p), p < size, to divided differences: row i
    gives the one over x_0..x_i, entry p being the complete symmetric polynomial h_(p-i)
    (x_0..x_i). Its derivative rows, returned with their (i, j, l): in x_j (j <= i, l = -1)
    h_(p-i-1)(x_0..x_i, x_j); in x_j and x_l (l <= j) (1 + [l = j]) h_(p-i-2)(.., x_j, x_l),
    or zeros without ``second``: the rows keep their places, so a product over them takes
    the same BLAS path and gives the first-derivative rows the same bits."""
    p = np.arange(size)
    # a @ geo[j] multiplies the series a by 1 / (1 - x_j z): geo[j, q, p] = x_j^(p-q), p >= q
    geo = np.where(p >= p[:, None], (x[:, None] ** p)[:, np.maximum(p - p[:, None], 0)], 0.0)
    h, rows = [(p == 0).astype(float)], np.zeros((x.size, size))
    for i, g in enumerate(geo):
        h.append(h[-1] @ g)
        rows[i, i:] = h[-1][:size - i]
    d1 = np.array(h[1:]) @ geo  # [j, i]: the series of x_0..x_i, x_j
    i, j, l = keys = np.array([(i, j, l) for i in range(x.size) for j in range(i + 1)
                               for l in range(-1, j + 1)]).T
    # [l, j, i]: the series of x_0..x_i, x_j, x_l
    d2 = d1 @ geo[:, None] if second else np.zeros((x.size, *d1.shape))
    d = np.where((l < 0)[:, None], d1[j, i], d2[l, j, i] * (1 + (j == l))[:, None])
    cols = p - (i + 1 + (l >= 0))[:, None]
    return rows, np.where(cols >= 0, np.take_along_axis(d, np.maximum(cols, 0), 1), 0.0), keys.T


def _log_det_moment(r: int, sigma: np.ndarray,
                    second: bool = True) -> tuple[float, np.ndarray, np.ndarray | None]:
    """E[ln det(I + W diag(sigma))], W = G^H G a t x t complex Wishart of r >= t
    degrees of freedom (t <= 5 and r <= 16, see ``_CLUSTER``), its gradient and Hessian.
    Without ``second`` the Hessian is None: its Taylor rows are left zero and it is never
    assembled, and the MI and gradient keep their bits.

    The k nonzero sigma give tr(V^-1 B') (Andreief identity; Chiani, Win & Zanella, IEEE
    Trans. IT 2003), V_ij = sigma_i^(j-1), B'_ij = V_ij J_(n_j)(sigma_i) / n_j!,
    n_j = r - k + j - 1. The rows of sigma within ``_CLUSTER`` in ln(sigma) become divided
    differences in x = c / sigma - 1 (a row operation) from their Taylor series at c, the
    geometric mean of the cluster's ends, whose p-th term is (-1)^p (n_j+p)!/(n_j! p!) in V
    and (-1)^p J_(n_j+p)(c)/(n_j! p!) in B'; so coincident sigma take the confluent limit,
    and |x| <= e^0.3 - 1 bounds the terms kept. With Y = V^-1, P = Y B' and G_a = d_a B' -
    d_a V P, d_a d_b f = tr(Y (d_ab B' - d_ab V P) - Y d_b V Y G_a - Y d_a V Y G_b) in x. A
    zero sigma_i has df/dsigma_i = r - sum_j sigma_j df/dsigma_j = E tr (I + G Sigma G^H)^-1,
    whose derivatives give its Hessian entries; those between two zero sigma are left 0.
    """
    grad = np.full(sigma.size, float(r))
    hess = np.zeros((sigma.size, sigma.size)) if second else None
    on = np.flatnonzero(sigma > 1e-12 * sigma.max())
    if on.size == 0:
        return 0.0, grad, hess
    on = on[np.argsort(sigma[on])]
    s = sigma[on]
    k = s.size
    n = r - k + np.arange(k)
    v, b, centre = np.empty((k, k)), np.empty((k, k)), np.empty(k)
    dv, db, keys = [], [], []
    logs = np.log(s)
    cuts = [0, *(np.flatnonzero(np.diff(logs) > _CLUSTER) + 1).tolist(), k]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c = centre[lo:hi] = math.sqrt(s[lo] * s[hi - 1])  # so x = 0 when alone
        x = c / s[lo:hi] - 1.0
        # C(r + p, p) |x|^p bounds the p-th Taylor term: below 1e-17 past the cut (+1: Hessian)
        tail = np.cumprod(np.abs(x).max() * (1 + r / np.arange(1, 171))) if hi > lo + 1 else [0]
        p = np.arange(hi - lo + 2 + int(np.argmax(np.less(tail, 1e-17))))
        scale = ((-1.0) ** p / _FACT[p])[:, None] * (c / s[-1]) ** np.arange(k) / _FACT[n]
        ca = scale * _FACT[n + p[:, None]]
        cb = scale * _log1p_integrals(c, _FACT[:r + p.size])[n + p[:, None]]
        hr, dr, kr = (_taylor_rows(x, p.size, second) if hi > lo + 1 else  # lone: x = 0
                      (np.eye(3)[:1], np.diag([0.0, 1, 2])[1:], np.array([[0, 0, -1], [0, 0, 0]])))
        v[lo:hi], b[lo:hi] = hr @ ca, hr @ cb
        dv.append(dr @ ca)
        db.append(dr @ cb)
        keys.append(kr + lo * (kr >= 0))
    y = np.linalg.inv(v)
    pm = y @ b
    dv = np.vstack(dv)
    g = np.vstack(db) - dv @ pm
    rows, js, ls = np.vstack(keys).T
    tr, one = np.einsum("ij,ji->i", g, y[:, rows]), ls < 0
    gx = np.bincount(js[one], tr[one], minlength=k)
    dg = gx * (dx := -(centre / s ** 2))  # dx_i / dsigma_i; d2x_i / dsigma_i^2 = -2 dx_i / sigma_i
    grad[:] = r - s @ dg
    grad[on] = dg
    if not second:
        return float(np.trace(pm)), grad, None
    hx = np.bincount(js[~one] * k + ls[~one], tr[~one], minlength=k * k).reshape(k, k)
    e = np.eye(k)[js[one]]
    cross = e.T @ ((dv[one] @ y)[:, rows[one]] * (g[one] @ y)[:, rows[one]].T) @ e
    hs = (hx + np.tril(hx, -1).T - (cross + cross.T)) * np.outer(dx, dx) - np.diag(2 * gx * dx / s)
    hess[:, on] = -dg - s @ hs
    hess[on] = hess[:, on].T
    hess[np.ix_(on, on)] = hs
    return float(np.trace(pm)), grad, hess


@dataclass(frozen=True)
class WishartDensity(EigDensity):
    """Closed-form density of one eigenvalue of an m x m complex Wishart.

    The matrix is G G^H with G an m x n (m <= n) iid CN(0,1) matrix. The
    density is the standard Laguerre-kernel sum

        f(x) = (1/m) * sum_{k=0}^{m-1} k!/(k+d)! * [L_k^d(x)]^2 * x^d * e^{-x}

    with d = n - m. For (m, n) = (1, 1) this reduces to exp(-x) and for
    (2, 2) to (2 + (x - 2) x) / (2 exp(x)). Expanded once as
    f(x) = sum_j c_j x^j e^{-x}, every moment query is a finite sum of
    incomplete gamma functions Gamma(j, a) = int_a^inf x^(j-1) e^-x dx.
    """

    m: int
    n: int
    exact_pdf = True

    def __post_init__(self):
        if self.m < 1 or self.n < self.m:
            raise ValueError("need 1 <= m <= n")
        if self.m + self.n - 1 > _FACT.size:  # one coefficient and factorial per power
            raise ValueError(f"the closed-form Wishart density needs m + n <= {_FACT.size + 1}")
        coef = _wishart_coefficients(self.m, self.n)
        object.__setattr__(self, "_coef", coef)
        object.__setattr__(self, "_terms", tuple(coef.tolist()))
        object.__setattr__(self, "_fact", _FACT[:coef.size])
        object.__setattr__(self, "_weights", tuple((coef * self._fact).tolist()))  # c_j j!

    def pdf(self, lam):
        lam = np.asarray(lam, dtype=float)
        d = self.n - self.m
        x = np.maximum(lam, 0.0) if lam.ndim else max(float(lam), 0.0)  # a float skips numpy
        acc = 0.0
        for k, lk in enumerate(_laguerre(self.m, d, x)):
            acc = acc + math.factorial(k) / math.factorial(k + d) * lk**2
        out = np.where(lam >= 0, acc * x**d * np.exp(-x) / self.m, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, lam):
        # 1 - mass, summed from the lower incomplete gammas: near zero, where
        # f ~ lam^(n-m), this keeps the relative accuracy 1 - mass would lose.
        lam = np.asarray(lam, dtype=float)
        weights = self._weights
        out = [sum(w * q for w, q in zip(weights, _lower_gamma(len(weights), max(v, 0.0))))
               for v in lam.ravel().tolist()]
        return np.array(out).reshape(lam.shape) if lam.ndim else out[0]

    def trunc_moment(self, fn, a: float) -> float:
        import scipy.integrate  # the general query only; the solvers use closed forms

        val, _ = scipy.integrate.quad(
            lambda x: fn(x) * self.pdf(x), max(a, 0.0), np.inf, limit=300
        )
        return val

    def tail_moments(self, a: float) -> tuple[float, float, float]:
        return _tail_sums(self._terms, a)

    def log1p_moment(self, c: float) -> float:
        if c < 0:
            raise ValueError("log1p_moment needs c >= 0")
        if c == 0:
            return 0.0
        total = 0.0
        for cj, jj in zip(self._coef, _log1p_integrals(c, self._fact)):
            total += cj * jj
        return float(total)

    def sample_eigs(self, size: int, rng: np.random.Generator, reduce=np.asarray) -> np.ndarray:
        """Eigenvalue draws of sampled Wishart matrices, shape (size, m), rows ascending.

        Drawn from the beta = 2 Laguerre model of Dumitriu & Edelman ("Matrix
        models for beta ensembles", J. Math. Phys. 43(11), 2002): the
        eigenvalues of G G^H have the joint law of those of B B^T, with B a
        real m x m lower bidiagonal matrix whose squared entries are
        independent, B_ii^2 ~ Gamma(n - i + 1) and B_(i+1),i^2 ~ Gamma(m - i)
        (i from 1, unit scale for CN(0, 1) entries of G). A draw takes
        2m - 1 Gamma variates and no complex matrix; det B B^T is the exact
        product of the diagonal. The rows stream in :func:`_blocks`, as ``reduce(rows)``;
        a block draws its variates as one call for all rows would, so no row depends on it.
        """
        return _blocks(size, lambda k: reduce(self._block_eigs(k, rng)))

    def _block_eigs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        m, n = self.m, self.n
        shapes = np.concatenate([np.arange(n, n - m, -1), np.arange(m - 1, 0, -1)])
        sq = rng.standard_gamma(shapes, size=(size, 2 * m - 1))
        diag, sub = sq[:, :m], sq[:, m:]
        tri = np.zeros((size, m, m))
        i = np.arange(m)
        tri[:, i, i] = diag
        tri[:, i[1:], i[1:]] += sub
        tri[:, i[1:], i[:-1]] = tri[:, i[:-1], i[1:]] = np.sqrt(diag[:, :-1] * sub)
        return np.maximum(_small_eigvalsh(tri, diag.prod(axis=1)), 0.0)

    def draw_rows(self, samples, rng, reduce=np.asarray):
        return self.sample_eigs(samples, rng, reduce), None


@dataclass(frozen=True)
class EmpiricalDensity(EigDensity):
    """Empirical eigenvalue density backed by a pool of sampled draws.

    ``draws`` keeps the per-draw structure (pool, m); moment queries are
    answered exactly on the pool with no smoothing, so the water-level solver
    sees integrals that are monotone and consistent with the pool.
    """

    draws: np.ndarray  # (pool, m), rows are one channel draw's eigenvalues
    _dense_at_zero: bool = False  # that of the law drawn

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        if d.ndim != 2:
            raise ValueError("draws must be (pool, m)")
        object.__setattr__(self, "draws", d)
        flat = np.sort(d, axis=None)
        object.__setattr__(self, "_sorted", flat)
        # Tail sums of 1/lam and ln(lam) over the positive pool, summed from the
        # top in place: entry i covers flat[i:], so a tail query is one binary search.
        pos = flat > 0
        for name, fn in (("_inv_tail", np.reciprocal), ("_log_tail", np.log)):
            tail = np.zeros(flat.size + 1)
            fn(flat, out=tail[:-1], where=pos)
            np.cumsum(tail[-2::-1], out=tail[-2::-1])
            object.__setattr__(self, name, tail)

    @property
    def m(self) -> int:
        return self.draws.shape[1]

    @property
    def pool(self) -> int:
        return self.draws.shape[0]

    def pdf(self, lam):
        # Histogram estimate; only used for plotting-style queries, the
        # solvers go through tail_moments which is exact on the pool.
        flat = self._sorted
        nbins = max(int(np.sqrt(flat.size)), 10)
        hist, edges = np.histogram(flat, bins=nbins, density=True)
        lam = np.asarray(lam, dtype=float)
        idx = np.clip(np.searchsorted(edges, lam, side="right") - 1, 0, nbins - 1)
        out = hist[idx]
        inside = (lam >= edges[0]) & (lam <= edges[-1])
        out = np.where(inside, out, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, lam):
        flat = self._sorted
        pos = np.searchsorted(flat, np.asarray(lam, dtype=float), side="right")
        out = pos / flat.size
        return out if out.ndim else float(out)

    def trunc_moment(self, fn, a: float) -> float:
        flat = self._sorted
        sel = flat[flat > a]
        if sel.size == 0:
            return 0.0
        return float(np.sum(fn(sel)) / flat.size)

    def tail_moments(self, a: float) -> tuple[float, float, float]:
        flat = self._sorted
        i = int(np.searchsorted(flat, max(a, 0.0), side="right"))
        return ((flat.size - i) / flat.size, float(self._inv_tail[i] / flat.size),
                float(self._log_tail[i] / flat.size))

    def log1p_moment(self, c: float) -> float:
        return float(np.sum(np.log1p(c * self._sorted)) / self._sorted.size)

    def draw_rows(self, samples, rng, reduce=np.asarray):
        return reduce(self.draws), None


@dataclass(frozen=True)
class PointMassDensity(EigDensity):
    """Discrete eigenvalue density: weights on a finite set of values."""

    values: np.ndarray
    weights: np.ndarray
    m: int = 1
    #: whether the m per-draw eigenvalues are iid copies of this marginal
    independent_modes: bool = field(default=False)
    discrete = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.shape != w.shape or v.ndim != 1:
            raise ValueError("values and weights must be matching vectors")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        order = np.argsort(v)
        object.__setattr__(self, "values", v[order])
        object.__setattr__(self, "weights", w[order])

    def pdf(self, lam):
        raise ValueError("a point-mass density has no continuous pdf")

    def cdf(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.array(
            [self.weights[self.values <= x].sum() for x in np.atleast_1d(lam)]
        )
        return float(out[0]) if lam.ndim == 0 else out

    def trunc_moment(self, fn, a: float) -> float:
        sel = self.values > a
        if not np.any(sel):
            return 0.0
        return float(np.sum(self.weights[sel] * fn(self.values[sel])))

    def tail_moments(self, a: float) -> tuple[float, float, float]:
        sel = self.values > max(a, 0.0)
        v, w = self.values[sel], self.weights[sel]
        return float(np.sum(w)), float(np.sum(w / v)), float(np.sum(w * np.log(v)))

    def log1p_moment(self, c: float) -> float:
        return float(np.sum(self.weights * np.log1p(c * self.values)))

    def draw_rows(self, samples, rng, reduce=np.asarray):
        vals, m = self.values, self.m
        if self.independent_modes:
            if len(vals) ** m > 20_000:
                raise ValueError("mode enumeration too large; use a sampled law instead")
            combos = np.indices((len(vals),) * m).reshape(m, -1).T
            return reduce(vals[combos]), self.weights[combos].prod(axis=1)
        # Marginal of a fixed multiset: weights are counts / m.
        counts = self.weights * m
        if np.any(np.abs(counts - np.round(counts)) > 1e-9):
            raise ValueError("discrete density is not a fixed-multiset marginal; "
                             "set independent_modes or pass the channel law itself")
        return reduce(np.repeat(vals, np.round(counts).astype(int))[None, :]), None


def wishart_density(m: int, n: int) -> WishartDensity:
    """Closed-form unordered eigenvalue density of an m x m complex Wishart
    with n degrees of freedom (unit-variance entries). Requires m <= n."""
    return WishartDensity(m, n)


def empirical_density(law: ChannelLaw, pool: int, rng: np.random.Generator) -> EigDensity:
    """Empirical eigenvalue density of H H^H from ``pool`` streamed draws of the law.

    Working memory is the (pool, m) eigenvalues and one block. A law with a
    ``support`` short-circuits to the exact discrete density of its atoms' eigenvalues.
    """
    if pool < 1000:
        raise ValueError("pool must be at least 10^3")
    eigs, weights = law.draw_rows(pool, rng)
    if weights is None:
        return EmpiricalDensity(eigs, law._dense_at_zero)
    m = eigs.shape[1]
    vals, where = np.unique(np.round(eigs, 12), return_inverse=True)
    mass = np.bincount(where.ravel(), weights=np.repeat(weights / m, m))
    return PointMassDensity(vals, mass, m=m)


def _small_gram(h: np.ndarray) -> np.ndarray:
    """Per-draw Gram matrix on the smaller side: H H^H if r <= t, else H^H H."""
    return _gram(h if h.shape[1] > h.shape[2] else np.conj(np.swapaxes(h, 1, 2)))


def _small_eigvalsh(g: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of a stack of k x k Hermitian (or real symmetric)
    PSD matrices, shape (N, k), by size: the entry itself for k = 1, the closed
    form below for k = 2, and LAPACK beyond.

    For [[a, b], [b*, c]], lam_max = (a + c)/2 + hypot((a - c)/2, |b|) adds
    non-negative terms and keeps full relative accuracy. lam_min = det/lam_max
    takes ``det`` where the caller has it as an exact product, and otherwise
    a (c/lam_max) - |b| (|b|/lam_max), which cannot overflow where a c would.
    """
    k = g.shape[-1]
    if k == 1:
        return g[:, :, 0].real.copy()
    if k > 2:
        return np.linalg.eigvalsh(g)
    a, c, b = g[:, 0, 0].real, g[:, 1, 1].real, np.abs(g[:, 0, 1])
    big = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    if det is None:  # a zero row has lam_max = 0, and lam_min = 0 too
        c_big, b_big = np.divide([c, b], big, out=np.zeros((2, big.size)), where=big > 0)
        small = a * c_big - b * b_big
    else:
        small = det / big
    return np.stack([small, big], axis=1)


def gram_eigs(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of H H^H per draw (ascending), via the smaller Gram matrix.

    Eigenvalues up to 4 (r + t) eps times the draw's largest are round-off of
    a rank deficiency, and negative ones round-off of zero: both come back as
    exact zeros, so rank-deficient laws keep their zero modes off.
    """
    w = _small_eigvalsh(_small_gram(h))
    tiny = 4 * (h.shape[1] + h.shape[2]) * np.finfo(float).eps
    w[w <= tiny * w[:, -1:]] = 0.0
    return w


def onoff_density(m: int, p: float) -> PointMassDensity:
    """Per-eigenvalue marginal of m parallel on-off channels.

    Each of the m channels is independently 'on' (gain 1) with probability p,
    so the marginal of one randomly chosen eigenvalue is Bernoulli. Rates
    computed from it follow the complex-channel convention used everywhere in
    this package (log, not the real-channel log/2).
    """
    if m < 1:
        raise ValueError(f"need at least one mode, got m = {m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if p == 0.0:
        return PointMassDensity([0.0], [1.0], m=m, independent_modes=True)
    if p == 1.0:
        return PointMassDensity([1.0], [1.0], m=m, independent_modes=True)
    return PointMassDensity([0.0, 1.0], [1.0 - p, p], m=m, independent_modes=True)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def _matrix_to_json(m: np.ndarray):
    m = np.asarray(m, dtype=complex)  # a matrix, or a stack of them (mixture atoms)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _matrix_from_json(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim not in (3, 4) or arr.shape[-1] != 2:
        raise ValueError("matrix JSON must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


_MATRIX = (_matrix_to_json, _matrix_from_json)

#: descriptor type -> (law class, {key: (encoder, decoder)}), the keys in the
#: order of the class's fields
_DESCRIPTORS = {
    "point": (PointMass, {"h": _MATRIX}),
    "gaussian": (MatrixGaussian, {"mean": _MATRIX, "cov": _MATRIX}),
    "kronecker": (KroneckerGaussian, {"mean": _MATRIX, "rx_corr": _MATRIX, "tx_corr": _MATRIX}),
    "mixture": (FiniteMixture, {"weights": (np.ndarray.tolist, np.asarray), "atoms": _MATRIX}),
}


def _require_keys(obj: dict, keys) -> None:
    """Raise a ``ValueError`` naming every key a descriptor lacks."""
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{obj.get('type')!r} descriptor is missing {', '.join(missing)}")


def _decode_field(obj: dict, key: str, decode):
    """``decode(obj[key])``; a value of the wrong JSON type, a boolean among
    them (``float(True)`` would read 1.0), raises a ``ValueError`` that names
    the key."""
    try:
        if isinstance(obj[key], bool):
            raise TypeError("a boolean is not a number")
        return decode(obj[key])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{obj.get('type')!r} descriptor field {key!r}: {e}") from None


def law_to_json(law: ChannelLaw) -> dict:
    """Serialize a channel law to the JSON descriptor consumed by the CLI."""
    for kind, (cls, codecs) in _DESCRIPTORS.items():
        if isinstance(law, cls):
            return {"type": kind, **{key: encode(getattr(law, f.name)) for (key, (encode, _)), f
                                     in zip(codecs.items(), fields(cls))}}
    raise TypeError(f"unknown channel law {type(law).__name__}")


def law_from_json(obj) -> ChannelLaw:
    """Parse a channel-law JSON descriptor (dict or JSON string)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("channel descriptor must be a JSON object")
    kind = obj.get("type")
    if kind not in _DESCRIPTORS:
        raise ValueError(f"unknown channel descriptor type {kind!r}")
    cls, codecs = _DESCRIPTORS[kind]
    _require_keys(obj, codecs)
    return cls(*(_decode_field(obj, key, decode) for key, (_, decode) in codecs.items()))
