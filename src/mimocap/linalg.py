"""Dense complex linear algebra, the exponential integral and the scalar root
finder used across the package.

The matrix routines operate on small (dimension <~ 32) complex numpy arrays and
wrap LAPACK-backed numpy routines with the conventions the rest of the package
relies on: eigenvalues sorted descending, PSD clamping of Monte Carlo
round-off, Gram matrices of upper-triangular factors with real non-negative
diagonals.

:func:`scaled_expn`, e^x E_n(x) at integer orders, is the package's one
exponential integral, in numpy and plain floats: a power series, fitted
polynomials and the asymptotic series give order 1, and the recurrence
between orders, run from one seed in the direction that damps its error,
gives the rest.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_complex_matrix",
    "as_hermitian",
    "as_psd",
    "herm_eig",
    "ut_gram",
    "psd_sqrt",
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


def _gram(h: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Per-draw gamma H^H H of a (size, r, k) stack, exactly Hermitian, shape (size, k, k).

    Two columns take their three entries in real arithmetic on the real and
    imaginary views; wider stacks take one batched ``matmul``, averaged with its
    conjugate transpose."""
    if h.shape[2] != 2:
        s = np.matmul(np.conj(np.swapaxes(h, 1, 2)), h)
        s += np.conj(np.swapaxes(s, 1, 2))
        s *= 0.5 * gamma
        return s
    (x0, x1), (y0, y1) = np.moveaxis(h.real, 2, 0), np.moveaxis(h.imag, 2, 0)

    def dot(u, v):
        return np.einsum("sr,sr->s", u, v)

    s = np.zeros((len(h), 2, 2), dtype=complex)
    s.real[:, 0, 0] = gamma * (dot(x0, x0) + dot(y0, y0))
    s.real[:, 1, 1] = gamma * (dot(x1, x1) + dot(y1, y1))
    s.real[:, 0, 1] = s.real[:, 1, 0] = gamma * (dot(x0, x1) + dot(y0, y1))
    s.imag[:, 0, 1] = gamma * (dot(x0, y1) - dot(y0, x1))
    s.imag[:, 1, 0] = -s.imag[:, 0, 1]
    return s


def as_psd(a) -> np.ndarray:
    """:func:`as_hermitian`, rejecting eigenvalues below ``-PSD_TOL * n * max(|A|, 1)``."""
    m = as_hermitian(a)
    if np.linalg.eigvalsh(m).min() < -PSD_TOL * max(np.abs(m).max(), 1.0) * m.shape[0]:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return m


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a PSD matrix, round-off eigenvalues zeroed.

    Eigenvalues up to n * eps times the largest are round-off of a rank
    deficiency; their square roots (~1e-8 relative) would restore the rank.
    """
    u, lam = herm_eig(a)
    lam = np.where(lam > lam[0] * lam.size * np.finfo(float).eps, lam, 0.0)
    return (u * np.sqrt(lam)) @ u.conj().T


def _gauge(vecs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Reported eigenvectors (``lam`` descending) in one gauge: each eigenspace of an eigenvalue
    repeated within 1e-9 of the largest takes Gram-Schmidt of the projected e_1, e_2, ... (norms
    below 1e-8 skipped); each vector's largest entry (lowest index within 1e-9) turns real > 0."""
    vecs = np.array(vecs, dtype=complex)
    for group in np.split(np.arange(lam.size),
                          np.flatnonzero(np.abs(np.diff(lam)) > 1e-9 * np.abs(lam).max()) + 1):
        if group.size > 1:
            basis = []
            for e in (vecs[:, group] @ vecs[:, group].conj().T).T:
                e = e - sum((b * np.vdot(b, e) for b in basis), 0.0)
                if np.linalg.norm(e) > 1e-8:
                    basis.append(e / np.linalg.norm(e))
            vecs[:, group] = np.transpose(basis[:group.size])
    idx = np.argmax(np.abs(vecs) >= (1 - 1e-9) * np.abs(vecs).max(0), axis=0), range(lam.size)
    vecs *= (lead := vecs[idx]).conj() / np.abs(lead)
    vecs[idx] = np.abs(lead)
    return vecs


#: from here on ``scaled_expn`` sums the asymptotic series of every order directly
_ASYMP_SWITCH = 600.0

#: E_1(x) = -gamma - ln x - sum_(k >= 1) (-x)^k / (k k!) below x = 1, in Horner order
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(18, 0, -1))
#: x e^x E_1(x) ~ sum_k (-1)^k k! / x^k from x = 64 on: 18 terms leave 2e-17
_E1_ASYMP = tuple((-1.0) ** k * math.factorial(k) for k in range(17, -1, -1))
#: x e^x E_1(x) on [2^i, 2^(i+1)], i = 0..5: coefficients of s^k, s = x - 1.5 * 2^i,
#: of the degree-18 Chebyshev interpolant (tools/fit_scaled_exp1.py, 50-digit mpmath)
_E1_PIECES = (
    # [1, 2]: max relative error 2.2e-16
    (0.6723850039373744, 0.12064167322895811, -0.048884162073063606, 0.02137768715369773,
     -0.009928834274893756, 0.004836125154433973, -0.002446571910828259, 0.00127610692510662,
     -0.0006824209982504348, 0.0003725566205782038, -0.00020693711622496233, 0.00011657218773743295,
     -6.65351855976982e-05, 3.881909529507912e-05, -2.2623118756086406e-05, 1.1729154964629581e-05,
     -6.919098150231356e-06, 7.240179900747885e-06, -4.3581247912811655e-06),
    # [2, 4]: max relative error 2.7e-16
    (0.7862512207659554, 0.04833496102127462, -0.011457316028370619, 0.0028244809960215294,
     -0.000719402919347731, 0.00018829873373176932, -5.0427869781679965e-05, 1.376925532688325e-05,
     -3.822317197729325e-06, 1.0762646160901507e-06, -3.067912015480785e-07, 8.833582310803688e-08,
     -2.569189896579408e-08, 7.625081375319662e-09, -2.2538401388611894e-09, 5.881076699935816e-10,
     -1.754847576196369e-10, 9.390600536295981e-11, -2.8498057092456163e-11),
    # [4, 8]: max relative error 2.4e-16
    (0.8716057754033214, 0.016873404637208742, -0.002262816397785833, 0.00030885125823048974,
     -4.2808806866993054e-05, 6.014161286260835e-06, -8.550134593413322e-07, 1.2283678916787082e-07,
     -1.781277052788002e-08, 2.6046906200291597e-09, -3.8371091252359873e-10, 5.686243067107784e-11,
     -8.483990184773518e-12, 1.2897622125917983e-12, -1.9452945482839265e-13, 2.5596493802662875e-14,
     -3.8848795918031335e-15, 1.0766362480536259e-15, -1.654661195944687e-16),
    # [8, 16]: max relative error 2.3e-16
    (0.9279135976670307, 0.005239730805950312, -0.0003837346942320771, 2.8295810259861304e-05,
     -2.0995123253587783e-06, 1.566699901571751e-07, -1.1752116969603896e-08, 8.857752016069966e-10,
     -6.705684358578543e-11, 5.09731418197862e-12, -3.889161828799477e-13, 2.974910975151631e-14,
     -2.2850469565873547e-15, 1.787338789772931e-16, -1.3811927356812192e-17, 9.164683290801476e-19,
     -7.106113272567016e-20, 1.0324922560790087e-20, -8.069064810830915e-22),
    # [16, 32]: max relative error 2.0e-16
    (0.9614317325721677, 0.0014913880960082263, -5.7811523409147925e-05, 2.2461535775931986e-06,
     -8.745984060530276e-08, 3.4124744164470547e-09, -1.3340523173220976e-10, 5.224845968817971e-12,
     -2.049888965327364e-13, 8.05607523656644e-15, -3.170869974110236e-16, 1.2484858670265635e-17,
     -4.928295133937459e-19, 1.9823994254814388e-20, -7.847081963110171e-22, 2.6190580171233852e-23,
     -1.0382218405781425e-24, 7.955684974826429e-26, -3.1665601867896238e-27),
    # [32, 64]: max relative error 2.4e-16
    (0.9799845704143274, 0.000400915631292682, -8.03624253778382e-06, 1.611960556563786e-07,
     -3.2355415457555227e-09, 6.498619318163841e-11, -1.306073267591534e-12, 2.6264973306391393e-14,
     -5.284965170481264e-16, 1.0640901570015314e-17, -2.1435341358597136e-19, 4.314469280995725e-21,
     -8.700303059219136e-23, 1.7904159287120464e-24, -3.614247648097197e-26, 6.046502489867615e-28,
     -1.2211951033136575e-29, 4.914609324750193e-31, -9.942861052704566e-33),
)
_E1_HORNER = tuple(piece[::-1] for piece in _E1_PIECES)


def _scaled_e1(x: float) -> float:
    """e^x E_1(x) of a float x > 0: the power series below 1, the fitted pieces
    to 64 and the asymptotic series above, all within 3e-16 relative."""
    if x < 1.0:
        acc = 0.0
        for c in _E1_SERIES:
            acc = acc * x + c
        return math.exp(x) * (acc * x - np.euler_gamma - math.log(x))
    if x < 64.0:
        i = math.frexp(x)[1] - 1
        s = x - 1.5 * 2.0 ** i
        acc = 0.0
        for c in _E1_HORNER[i]:
            acc = acc * s + c
        return acc / x
    t, acc = 1.0 / x, 0.0
    for c in _E1_ASYMP:
        acc = acc * t + c
    return acc * t


def _scaled_expn_cf(n: int, x: float) -> float:
    """e^x E_n(x) for x > 4 from the continued fraction (modified Lentz)."""
    b = x + n
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        h *= step
        if abs(step - 1.0) <= 3e-16:
            return h
    raise FloatingPointError("continued fraction of E_n did not converge")


def _scaled_expn_table(x: float, top: int) -> np.ndarray:
    """e^x E_n(x) for n = 1..top at one x > 0.

    f_(n+1) = (1 - x f_n) / n scales an error in f_n by x/n, and its reverse
    f_n = (1 - n f_(n+1)) / x by n/x; so both run away from one seed at order
    ceil(x): upward from there, downward below. Up to x = 4 the seed is f_1,
    whose error the upward run amplifies at most x^3 / 3! times (2.7e-15
    relative at worst, against 40-digit mpmath); that saves the continued
    fraction where it is slowest, 35-50 steps between x = 2 and 4.
    """
    if x >= _ASYMP_SWITCH:
        # (1/x) sum_k (-1)^k n (n+1)...(n+k-1) / x^k, cut at 40 terms; its terms
        # shrink by (n + k)/x each, so for orders up to 100 the cut is far below round-off
        n = np.arange(1, top + 1)
        term = np.ones(top)
        acc = term.copy()
        for k in range(40):
            term = -term * (n + k) / x
            acc += term
        return acc / x
    seed = 1 if x <= 4.0 else min(top, math.ceil(x))
    f = [0.0] * top
    f[seed - 1] = _scaled_e1(x) if seed == 1 else _scaled_expn_cf(seed, x)
    for n in range(seed - 1, 0, -1):
        f[n - 1] = (1.0 - n * f[n]) / x
    for n in range(seed, top):
        f[n] = (1.0 - x * f[n - 1]) / n
    return np.array(f)


def scaled_expn(n, x):
    """Overflow-safe ``exp(x) * E_n(x)`` for integer orders ``n >= 1`` and ``x > 0``.

    Broadcast over ``n`` and ``x``; a float when both are scalars. Order 1 is
    :func:`_scaled_e1` below the asymptotic switch; higher orders come from
    one seed evaluation and the recurrence, one table per distinct x.
    """
    if isinstance(x, float) and x > 0:  # one table serves every order
        if isinstance(n, int) and n >= 1:
            return _scaled_e1(x) if n == 1 and x < _ASYMP_SWITCH else float(_scaled_expn_table(x, n)[-1])
        n = np.asarray(n)
        orders = n.ravel().tolist()
        if orders and min(orders) >= 1:
            return _scaled_expn_table(x, max(orders))[n - 1]
    n, x = np.asarray(n), np.asarray(x, dtype=float)
    if not np.all(x > 0) or np.any(n < 1):
        raise ValueError("requires x > 0 and n >= 1")
    n, x = np.broadcast_arrays(n, x)
    out = np.empty(x.shape)
    for value in np.unique(x):
        at = x == value
        out[at] = _scaled_expn_table(float(value), int(n[at].max()))[n[at] - 1]
    return out if out.ndim else float(out)


def _circular_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """The package's one complex Gaussian draw: iid CN(0, 1) entries, the same bits as
    ``(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)``.

    Both halves come from one ``standard_normal`` call and are scaled straight into
    the real and imaginary views: numpy divides a complex array by sqrt(2) as a
    product with 1 / sqrt(2), so these are the same bits, with no complex pass."""
    z = np.empty(shape, dtype=complex)
    x = rng.standard_normal((2, *z.shape))
    np.multiply(x[0], 1 / np.sqrt(2), out=z.real)
    np.multiply(x[1], 1 / np.sqrt(2), out=z.imag)
    return z


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via phase-fixed QR of a Ginibre matrix."""
    g = _circular_gaussian(rng, (n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


#: a Newton step or bracket this small relative to the iterate ends a root
#: search: the round-off of the closed-form density tails is about this size,
#: and after a Newton step this short the quadratic error is far below it
_ROOT_RTOL = 1e-14


def _bracketed_root(fun, lo: float, hi: float, at_hi: tuple, xtol: float = 0.0,
                    at_lo: float | None = None) -> float:
    """Root in ``[lo, hi]`` of a function that is negative at lo and not at hi.

    ``fun(x)`` returns ``(value, slope)``, with slope None where the function
    has no usable derivative; ``at_hi`` is ``fun(hi)``, which every caller
    has already computed to find its bracket, and ``at_lo`` the value at lo
    where known. The search starts at hi and takes Newton steps; a step that
    would leave the current bracket, or has a zero slope, bisects the bracket
    instead. Without a slope it takes Illinois regula-falsi steps (Dowell &
    Jarratt, BIT 11, 1971) between the bracket's end values, at least half
    the tolerance inside it so that it closes; it bisects while the value at
    lo is unknown and wherever two steps did not halve the bracket, so step
    functions converge too. Every evaluation moves one end of the bracket.
    Returns at a zero value, at a bracket no wider than ``max(xtol, 1e-14 |x|)``
    (its midpoint), or after a Newton step no longer than that. On a convex
    increasing function every Newton iterate from hi stays at or above the
    root, so there the bracket only guards round-off.
    """
    x, (value, slope) = hi, at_hi
    ends, vals, last, widths = [lo, hi], [at_lo, None], None, (np.inf, np.inf)
    for steps in range(200):
        if value == 0:
            return x
        i = int(value > 0)  # the end x replaces: 0 lo, 1 hi
        if i == last and vals[1 - i] is not None:
            vals[1 - i] *= 0.5  # Illinois: an end kept twice halves its value
        ends[i], vals[i], last = x, value, i if steps else None
        (lo, hi), tol = ends, max(xtol, _ROOT_RTOL * abs(x))
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        if slope is not None:
            step = value / slope if slope else np.inf
            if abs(step) <= tol:
                return x - step
            x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        elif vals[0] is None or hi - lo > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        else:
            x = lo - vals[0] * (hi - lo) / (vals[1] - vals[0])
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        widths = (widths[1], hi - lo)
        value, slope = fun(x)
    raise FloatingPointError("root search did not converge in 200 steps")
