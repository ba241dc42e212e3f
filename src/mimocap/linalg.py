"""Dense complex linear algebra, special functions and the scalar root finder
used across the package.

Everything here operates on small (dimension <~ 32) complex numpy arrays and
wraps LAPACK-backed numpy/scipy routines with the conventions the rest of the
package relies on: eigenvalues and singular values sorted descending, PSD
clamping of Monte Carlo round-off, upper-triangular Cholesky factors with real
non-negative diagonals.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

__all__ = [
    "as_complex_matrix",
    "as_hermitian",
    "as_psd",
    "herm_eig",
    "svd",
    "ut_gram",
    "chol_upper",
    "psd_sqrt",
    "scaled_expint_gamma0",
    "scaled_expn",
    "haar_unitary",
]

# Eigenvalues of a nominally-PSD matrix in [-PSD_TOL * norm, 0) are treated as
# round-off and clamped to zero.
PSD_TOL = 1e-12
HERM_TOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_hermitian(a) -> np.ndarray:
    """Validate a square matrix as Hermitian to within ``HERM_TOL * max(|A|, 1)``
    and return ``(A + A^H) / 2``, exactly Hermitian."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {m.shape}")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (m + m.conj().T)


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(U, lam)`` with ``A = U diag(lam) U^H``, columns of ``U``
    orthonormal and ``lam`` real, sorted largest first.
    """
    m = as_hermitian(a)
    lam, u = np.linalg.eigh(m)
    order = np.argsort(lam)[::-1]
    return u[:, order], lam[order]


def svd(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``H = U diag(s) Vh``.

    Singular values are non-negative and sorted descending (LAPACK order).
    ``U`` has orthonormal columns, ``Vh`` orthonormal rows.
    """
    m = as_complex_matrix(h)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh


def _check_upper_triangular(t) -> np.ndarray:
    m = as_complex_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise ValueError("triangular factor must be square")
    if np.any(np.tril(m, -1) != 0):
        raise ValueError("entries below the diagonal must be exactly zero")
    d = np.diag(m)
    if np.any(d.imag != 0) or np.any(d.real < 0):
        raise ValueError("diagonal must be real and non-negative")
    return m


def ut_gram(t) -> np.ndarray:
    """Gram matrix ``T^H T`` of an upper-triangular factor.

    The result is Hermitian PSD with ``trace = sum_{i<=j} |T_ij|^2``.
    """
    m = _check_upper_triangular(t)
    g = m.conj().T @ m
    return 0.5 * (g + g.conj().T)


def as_psd(a) -> np.ndarray:
    """:func:`as_hermitian`, rejecting eigenvalues below ``-PSD_TOL * n * max(|A|, 1)``."""
    m = as_hermitian(a)
    if np.linalg.eigvalsh(m).min() < -PSD_TOL * max(np.abs(m).max(), 1.0) * m.shape[0]:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return m


def chol_upper(a) -> np.ndarray:
    """Upper-triangular factor ``T`` with ``T^H T = A`` for PSD ``A``.

    Semidefinite input is handled by a column-pivot-free factorization that
    zeroes trailing entries of rank-deficient columns. Input that is not
    PSD raises a ``ValueError`` (see :func:`as_psd`).
    """
    m = as_psd(a)
    n = m.shape[0]
    scale = max(np.abs(m).max(), 1.0)
    t = np.zeros_like(m)
    # Outer-product form; tiny negative pivots from round-off are clamped.
    for j in range(n):
        s = m[j, j] - np.sum(np.abs(t[:j, j]) ** 2)
        pivot = np.sqrt(max(s.real, 0.0))
        t[j, j] = pivot
        if pivot > np.sqrt(PSD_TOL * scale):
            t[j, j + 1:] = (m[j, j + 1:] - t[:j, j].conj() @ t[:j, j + 1:]) / pivot
        else:
            t[j, j] = 0.0
    return t


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a PSD matrix, round-off eigenvalues zeroed.

    Eigenvalues up to n * eps times the largest are round-off of a rank
    deficiency; their square roots (~1e-8 relative) would restore the rank.
    """
    u, lam = herm_eig(a)
    lam = np.where(lam > lam[0] * lam.size * np.finfo(float).eps, lam, 0.0)
    return (u * np.sqrt(lam)) @ u.conj().T


# Asymptotic expansion x*e^x*E1(x) ~ sum (-1)^k k!/x^k; switch point keeps the
# truncation error below ~1e-13 while exp(x)*exp1(x) would hit subnormals.
_ASYMP_SWITCH = 600.0


def scaled_expint_gamma0(x):
    """Overflow-safe ``exp(x) * Gamma(0, x)``, valid for all x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("requires x > 0")
    out = np.empty_like(x)
    small = x < _ASYMP_SWITCH
    out[small] = np.exp(x[small]) * scipy.special.exp1(x[small])
    xl = x[~small]
    if xl.size:
        acc = np.zeros_like(xl)
        for k in (5, 4, 3, 2, 1):
            coeff = (-1.0) ** k * float(math.factorial(k))
            acc = (acc + coeff) / xl
        out[~small] = (1.0 + acc) / xl
    return out if out.ndim else float(out)


def scaled_expn(n, x: float) -> np.ndarray:
    """Overflow-safe ``exp(x) * E_n(x)`` for integer orders ``n >= 1`` and ``x > 0``.

    Vectorized over ``n``. From the switch point on, the asymptotic series
    (1/x) sum_k (-1)^k n (n+1)...(n+k-1) / x^k is cut at 40 terms; its terms
    shrink by (n + k)/x each, so for orders up to 50 the cut is far below
    round-off.
    """
    n = np.asarray(n)
    if x <= 0:
        raise ValueError("requires x > 0")
    if x < _ASYMP_SWITCH:
        return np.exp(x) * scipy.special.expn(n, x)
    term = np.ones(n.shape)
    acc = term.copy()
    for k in range(40):
        term = -term * (n + k) / x
        acc += term
    return acc / x


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via phase-fixed QR of a Ginibre matrix."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


#: a Newton step or bracket this small relative to the iterate ends a root
#: search: the round-off of the closed-form density tails is about this size,
#: and after a Newton step this short the quadratic error is far below it
_ROOT_RTOL = 1e-14


def _bracketed_root(fun, lo: float, hi: float, at_hi: tuple, xtol: float = 0.0) -> float:
    """Root in ``[lo, hi]`` of a function that is negative at lo and not at hi.

    ``fun(x)`` returns ``(value, slope)``, with slope None where the function
    has no usable derivative; ``at_hi`` is ``fun(hi)``, which every caller
    has already computed to find its bracket. The search starts at hi and
    takes Newton steps; a step that would leave the current bracket, or has
    no slope, bisects the bracket instead. Every evaluation moves one end of
    the bracket. Returns at a zero value, at a bracket no wider than
    ``max(xtol, 1e-14 |x|)`` (its midpoint), or after a Newton step no longer
    than that. On a convex increasing function every Newton iterate from hi
    stays at or above the root, so there the bracket only guards round-off.
    """
    x, (value, slope) = hi, at_hi
    for _ in range(200):
        if value == 0:
            return x
        if value > 0:
            hi = x
        else:
            lo = x
        tol = max(xtol, _ROOT_RTOL * abs(x))
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        step = value / slope if slope else np.inf
        if abs(step) <= tol:
            return x - step
        if lo < x - step < hi:
            x -= step
        else:
            x = 0.5 * (lo + hi)
        value, slope = fun(x)
    raise FloatingPointError("root search did not converge in 200 steps")
