"""Capacity-achieving transmit covariance under statistical channel knowledge.

With X = (I + S Q)^-1 S per draw, S = gamma H^H H, the optimal covariance has
E[X] = mu on the range of Q and E[X] <= mu off it. Both optimizers reach that
condition by one Newton face (``_solve``) on frozen pools, in one of two
coordinate sets:

* ``iterate_general``: all Hermitian coordinates of a step W D W^H in the
  eigenbasis of Q, with gradient E[X] and curvature E[tr(X D X D)];
* ``fixed_point_diag``: only the diagonal units in a basis U known to
  diagonalize the optimum (T's eigenvectors on zero-mean Kronecker laws), so
  only the powers q move, with gradient E[X_kk] and curvature E[|X_kl|^2].

A general solve on a pooled law with no atoms starts at the exact optimum of its
stand-in, the zero-mean Gaussian law with the same E[H^H H] (R = I), wherever that
law has a closed form; every other solve starts at the maximizer of Jensen's bound
log det(I + gamma Q E[H^H H]), which the two laws share. Each step is cut at the
PSD boundary, where a power reaching zero is set to exactly zero, and backtracked
on the pool MI. The next epoch's pool first checks the stationarity residual
(``_residual``): in the eigenbasis of Q, the powered rows of E[X] must equal mu I
and the largest eigenvalue of E[X] on the off space must not exceed mu. Zero-mean Kronecker laws with R = c I,
t <= r, t <= 5 and r <= 16 draw no pools (``law.exact``): both solvers step in
T's eigenbasis on the closed-form MI, gradient and Hessian, one evaluation per
point, and report the MI with SE 0. So does a law with ``support``: its one pool is its
atoms, weighted by theirs (``_weights``), so E[X], the curvature and the MI are exact sums.
The paper's damped Cholesky-factor map T <- T (M + M^H), M = E[(I + S T^H T)^-1 S],
survives only as the subject of figures 9 and 10 (``_cholesky_map_trace``).

A pool is drawn and formed one ``channels._BLOCK`` of draws at a time
(``_s_pool``) and reduced the same way (``_resolvent_moments``, ``_pool_mi``):
a pooled solve holds one pool and one block, and drops each epoch's pool
before it draws the next. Where Q has rank <= 2 below full rank, X needs no
LU: it is S less a rank-2 term with a closed-form 2 x 2 inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _BLOCK, ChannelLaw, KroneckerGaussian, _blocks, sample_batch
from .linalg import _gram, as_psd, herm_eig, ut_gram
from .montecarlo import (
    DEFAULT_SAMPLES_FINAL,
    DEFAULT_SAMPLES_INNER,
    McEstimate,
    SeededStream,
    _eye_plus,
    _log_dets,
    _thin_factor,
    _thin_products,
    as_stream,
    ergodic_mi,
)
from .waterfill import InfeasibleError, waterfill_det

__all__ = [
    "CovOptResult",
    "OptimizerOptions",
    "fixed_point_diag",
    "iterate_general",
    "kkt_residual_general",
]

#: power below which the residual counts a mode of a given covariance as off
MODE_OFF = 1e-6
#: weight of the new iterate in the damped Cholesky-factor map of figures 9
#: and 10 (halved when the pool MI drops)
DAMPING = 0.5
#: most iterations on one frozen pool before a fresh-pool convergence check
INNER_MAX = 80


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs shared by both optimizers."""

    tol: float = 1e-3
    max_iter: int = 500
    samples: int = DEFAULT_SAMPLES_INNER
    final_samples: int = DEFAULT_SAMPLES_FINAL
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"optimizer option tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"optimizer option max_iter must be at least 1, got {self.max_iter}")
        for key in ("samples", "final_samples"):
            if (n := getattr(self, key)) < 2:
                raise ValueError(f"optimizer option {key} must be at least 2, got {n}")


@dataclass(frozen=True)
class CovOptResult:
    """Optimal covariance with its MI estimate and iteration traces.

    ``mi_trace`` and ``residual_trace`` are per-iteration values measured on
    the current sample pool; ``kkt_residual`` is the final fresh-pool check.
    ``qhat`` holds the solver's powers: over the given basis, or Q's eigenvalues.
    """

    q: np.ndarray
    mi: McEstimate
    kkt_residual: float
    mi_trace: np.ndarray
    residual_trace: np.ndarray
    iterations: int
    converged: bool
    qhat: np.ndarray | None = None


def _s_pool(law: ChannelLaw, gamma: float, basis, samples: int,
            stream: SeededStream) -> np.ndarray:
    """Pool of S = gamma * (H U)^H (H U) draws, shape (pool, t, t), drawn, rotated
    and formed block by block (:func:`channels._blocks`): the pool and one block."""
    u = None if basis is None else np.asarray(basis, dtype=complex)

    def gram(h):
        if u is not None:
            h = (h.reshape(-1, h.shape[2]) @ u).reshape(h.shape)
        return _gram(h, gamma)

    if law.support is not None:  # each atom once, weighted by _weights; samples unused
        return gram(law.support[0])
    gen = stream.generator()
    return _blocks(samples, lambda n: gram(sample_batch(law, n, gen)))


def _weights(law: ChannelLaw) -> np.ndarray | None:
    """Weights of :func:`_s_pool`'s draws: its atoms', or None (equally likely)."""
    return None if law.support is None else law.support[1]


def _resolvent_gradient(s_pool: np.ndarray, q: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """Per-draw X = (I + S Q)^-1 S, shape (pool, t, t), given Q's factor ``p``
    (:func:`montecarlo._thin_factor`); by LU, except where Q = P P^H: there X = S - Z Z^H,
    Z = S P L and L L^H = (I_2 + P^H S P)^-1 in closed form (push-through), with
    temporaries below the LU's."""
    if p is None:
        return np.linalg.solve(_eye_plus(s_pool, q), s_pool)
    sp, g = _thin_products(s_pool, p)
    # g = conj(P^H S P) = [[a, b], [conj(b), c]]; Z = S P L, L lower triangular
    a, c, b = g[:, 0, 0].real, g[:, 1, 1].real, g[:, 0, 1]
    det = 1.0 + a + c + (a * c - (b.real ** 2 + b.imag ** 2))
    z0, z1 = sp[:, :, 0], sp[:, :, 1]
    z0 *= np.sqrt((1.0 + c) / det)[:, None]
    z0 -= z1 * (b / np.sqrt(det * (1.0 + c)))[:, None]
    z1 /= np.sqrt(1.0 + c)[:, None]
    del g, a, b, c, det
    x = s_pool.copy()
    for i, j in zip(*np.triu_indices(x.shape[1])):
        zz = z0[:, i] * z0[:, j].conj() + z1[:, i] * z1[:, j].conj()
        x[:, i, j] -= zz
        if i < j:
            x[:, j, i] -= zz.conj()
    return x


def _resolvent_moments(s_pool: np.ndarray, q: np.ndarray, second=False, weights=None) -> tuple:
    """E[X] over the pool (of draws weighted by ``weights``, else equally likely), X =
    (I + S Q)^-1 S per draw, and with ``second`` the t^2 x t^2 moment E[vec X vec X^T]
    (else None), one ``_BLOCK`` of X at a time.

    Q is factored (:func:`montecarlo._thin_factor`) once per pass, not once per block.
    Each block's row sum starts from the running sum, so E[X] has the bits of
    ``_resolvent_gradient(s_pool, q, p).mean(axis=0)``, one sequential row sum.
    """
    t, p = q.shape[0], _thin_factor(q)
    total, mom = None, 0.0
    for lo in range(0, len(s_pool), _BLOCK):
        x = _resolvent_gradient(s_pool[lo:lo + _BLOCK], q, p)
        w = None if weights is None else weights[lo:lo + _BLOCK, None]
        if second:
            vx = x.reshape(-1, t * t) if w is None else x.reshape(-1, t * t) * np.sqrt(w)
            mom = mom + vx.T @ vx  # (sqrt(w) vec X)'s product: a unit weight keeps the bits
        x = x if w is None else x * w[:, :, None]
        total = np.add.reduce(x if total is None else np.concatenate([total[None], x]))
    n = len(s_pool) if weights is None else 1
    return total / n, (mom / n if second else None)


def _pool_mi(s_pool: np.ndarray, q: np.ndarray, weights=None) -> tuple[float, float]:
    """Mean and SE of log det(I + S Q) over the pool, one ``_BLOCK`` of log-dets at a time
    on one factoring of Q (:func:`montecarlo._thin_factor`); with ``weights``
    (:func:`_weights`) the exact weighted sum, SE 0."""
    vals, p = np.empty(len(s_pool)), _thin_factor(q)
    for lo in range(0, len(s_pool), _BLOCK):
        vals[lo:lo + _BLOCK] = _log_dets(s_pool[lo:lo + _BLOCK], q, p)
    est = McEstimate.of(vals) if weights is None else McEstimate(float(weights @ vals), 0.0, 1)
    return est.mean, est.se


def _covariance(vecs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    q = (vecs * lam) @ vecs.conj().T
    return 0.5 * (q + q.conj().T)


def _residual(g: np.ndarray, on: np.ndarray) -> float:
    """Stationarity residual of a covariance from g = E[X] in its eigenbasis.

    ``on`` marks the powered eigendirections and mu is the mean of g's
    powered diagonal. The optimum has g = mu on the range of Q and g <= mu
    off it, so the residual is the largest relative deviation of g's powered
    rows from mu I plus the relative overshoot of the largest eigenvalue of
    g's off block over mu. A powered row deviates by its largest entry in the
    powered block and by the 2-norm of its off columns, which, like the off
    block's eigenvalues, does not depend on the basis chosen for Q's null space.
    """
    if not np.any(on):
        raise ValueError("no active modes")
    mu = np.diag(g)[on].real.mean()
    dev = np.abs(g[np.ix_(on, on)] - mu * np.eye(np.count_nonzero(on))).max()
    off = 0.0
    if not np.all(on):
        dev = max(dev, np.linalg.norm(g[np.ix_(on, ~on)], axis=1).max())
        off = max(0.0, np.linalg.eigvalsh(g[np.ix_(~on, ~on)])[-1] - mu) / mu
    return float(dev / mu + off)


def _q_residual(m: np.ndarray, q: np.ndarray) -> float:
    """:func:`_residual` of ``q`` for E[X] = ``m``; eigenvalues up to ``MODE_OFF`` are off."""
    lam, vecs = np.linalg.eigh(q)
    return _residual(vecs.conj().T @ m @ vecs, lam > MODE_OFF)


# ---------------------------------------------------------------------------
# one Newton face, on all Hermitian coordinates or on the diagonal in a basis
# ---------------------------------------------------------------------------

def _objective(law: ChannelLaw, gamma: float, basis, samples: int,
               stream: SeededStream) -> tuple:
    """The MI and its moments on one fresh pool, or exact on a law with a closed form.

    Returns ``(mi_of, moments)``: ``mi_of(Q)`` is the MI of a covariance in
    the coordinates of ``basis`` (if given), and ``moments(vecs, lam)`` gives
    E[X] at Q = vecs diag(lam) vecs^H and ``curv(W, coords)``, the curvature
    E[tr(X B_a X B_b)] of a step W D W^H over the ``coords`` of
    :func:`_herm_coords`, formed only when called. With a basis only the
    powers move, so E[X] is cut to its real diagonal. The exact objective
    needs a basis, reads the powers (Q's diagonal) and keeps the last point's
    ``law.exact_powers``; the curvature is minus its Hessian, but a freed power
    takes its entries with off ones from a one-sided gradient step of 10^-4 / t.
    """
    if basis is not None and np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() > 1e-9:
        raise ValueError("diagonalizing basis must be unitary")
    if law.exact:
        last = [None, None]  # the powers' bytes and their exact_powers

        def at(lam):
            if last[0] != lam.tobytes():
                last[:] = lam.tobytes(), law.exact_powers(basis, lam, gamma)
            return last[1]

        def exact_moments(vecs, lam):
            g, h = at(lam)[1:]

            def curv(w, coords):
                out, off, step = -h, lam == 0, 1e-4 / lam.size
                for k in np.flatnonzero(off & (g > g[~off].mean())):
                    out[off, k] = (g - at(lam + step * np.eye(lam.size)[k])[1])[off] / step
                return out

            return np.diag(g), curv

        return (lambda q: at(np.diag(q).real)[0]), exact_moments
    pool, weights = _s_pool(law, gamma, basis, samples, stream), _weights(law)

    def moments(vecs, lam):
        m, mom = _resolvent_moments(pool, _covariance(vecs, lam), True, weights)

        def curv(w, coords):
            # E[vec Xw vec Xw^T] = K^T E[vec X vec X^T] K, Xw = W^H X W, K = conj(W) (x) W
            t = w.shape[0]
            kron = np.kron(w.conj(), w)
            kk = kron.T @ mom @ kron
            kk = np.moveaxis(kk.reshape(t, t, t, t), 0, -1).reshape(t * t, t * t)
            return (coords.T @ kk @ coords).real

        return (m if basis is None else np.diag(np.diag(m).real)), curv

    return (lambda q: _pool_mi(pool, q, weights)[0]), moments


def _herm_coords(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real coordinates of Hermitian k x k matrices.

    Returns (coords, rows, cols): column a of the (k*k, k*k) ``coords`` is
    the row-major vec of basis matrix B_a, entry (rows[a], cols[a]) being
    the one it sets. The k diagonal units come first, then E_ij + E_ji and
    i (E_ij - E_ji) for each i < j, so D = sum_a x_a B_a for real x and
    tr D is the sum of the first k coordinates.
    """
    iu, ju = np.triu_indices(k, 1)
    rows = np.concatenate([np.arange(k), np.repeat(iu, 2)])
    cols = np.concatenate([np.arange(k), np.repeat(ju, 2)])
    coords = np.zeros((k, k, k * k), dtype=complex)
    a = np.arange(k * k)
    imag = (a >= k) & ((a - k) % 2 == 1)
    coords[rows, cols, a] = np.where(imag, 1j, 1.0)
    coords[cols, rows, a] = np.where(imag, -1j, 1.0)
    return coords.reshape(k * k, k * k), rows, cols


def _direction(m: np.ndarray, curv, vecs: np.ndarray, lam: np.ndarray,
               full: bool = True) -> tuple:
    """Newton step of the MI over trace-one PSD matrices near Q = vecs diag(lam) vecs^H.

    ``m`` is E[X] and ``curv`` its curvature (:func:`_objective`); off
    directions have exactly zero power. The step is W D W^H, D Hermitian with
    tr D = 0 in the real coordinates of :func:`_herm_coords`: all of them when
    ``full``, W being the powered eigenvectors followed by the eigenvectors of
    M on the off space; else the diagonal units only, with W = vecs. With
    gradient tr(W^H M W B_a) it solves [[H, c], [c^T, 0]] [x; nu] = [grad; 0]
    on the coordinates it may move:

    * the powered block and the rotations of powered directions into off
      ones, whose PSD completion D_uu = |D_ui|^2 / lam_i adds the curvature
      2 (mu - w_u) / lam_i, w_u the off direction's gradient and mu the
      powered directions' mean (the boundary curve of the cone);
    * the block of the off directions freed because w_u > mu; a freed
      direction whose block of D is not PSD is held at zero power (the one
      with the smallest diagonal entry first) and the step solved again.

    On the diagonal units H = E|X_kl|^2: the powers' Newton step on the
    simplex. Returns W, D and the indices of the freed directions.
    """
    t = lam.size
    on = lam > 0
    act, off = vecs[:, on], vecs[:, ~on]
    mu = np.trace(act.conj().T @ m @ act).real / np.count_nonzero(on)
    coords, rows, cols = _herm_coords(t)
    gain = np.zeros(t)
    if full:
        w, e = np.linalg.eigh(off.conj().T @ m @ off)
        basis = np.hstack([act, off @ e])
        lam = np.concatenate([lam[on], np.zeros(w.size)])
        on = lam > 0
    else:
        basis = vecs
        coords, rows, cols = coords[:, :t], rows[:t], cols[:t]
    g = basis.conj().T @ m @ basis
    gain[~on] = mu - (w if full else np.diag(g)[~on].real)
    hess = curv(basis, coords)
    hess = 0.5 * (hess + hess.T)
    grad = (coords.T @ g.T.ravel()).real
    rot = on[rows] & ~on[cols]
    hess[rot, rot] += 2.0 * np.maximum(gain[cols[rot]], 0.0) / lam[rows[rot]]
    freed = gain < 0
    while True:
        idx = np.flatnonzero((freed[rows] & freed[cols]) | rot | (on[rows] & on[cols]))
        diag = idx[idx < t]
        kkt = np.zeros((idx.size + 1, idx.size + 1))
        kkt[:-1, :-1] = hess[np.ix_(idx, idx)]
        kkt[:diag.size, -1] = kkt[-1, :diag.size] = 1.0
        sol = np.linalg.lstsq(kkt, np.append(grad[idx], 0.0), rcond=None)[0]
        step = np.zeros(rows.size)
        step[idx] = sol[:-1]
        d = (coords @ step).reshape(t, t)
        fb = np.flatnonzero(freed)
        if fb.size == 0 or np.linalg.eigvalsh(d[np.ix_(fb, fb)])[0] >= -1e-12:
            return basis, d, fb
        freed[fb[np.argmin(np.diag(d)[fb].real)]] = False


def _cone_point(direction: tuple, lam: np.ndarray, alpha: float, boundary: int | None,
                full: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the trace-one PSD matrix that ``alpha`` times the step reaches.

    The power with index ``boundary`` (None: none) reaches zero at this alpha
    and is set to exactly zero. On the diagonal the powers are lam + alpha
    diag(D) in the same W. On all coordinates the covariance is, in W, L L^H
    with columns [E a^1/2; B^H E a^-1/2] and those of the freed block alpha
    D_ff, where E diag(a) E^H = A = diag(lam_on) + alpha D_aa and B = alpha
    D_a,off: powered block A, cross block B and off block the least PSD
    completion B^H A^-1 B plus the freed powers. Either way directions held
    at zero power stay at exactly zero. The powers are rescaled to unit trace.
    """
    basis, d, freed = direction
    if not full:
        new = lam + alpha * np.diag(d).real
        if boundary is not None:
            new[boundary] = 0.0
        new = np.maximum(new, 0.0)
        return basis, new / new.sum()
    t = d.shape[0]
    lam_on = lam[lam > 0]
    r = lam_on.size
    a, e = np.linalg.eigh(np.diag(lam_on) + alpha * d[:r, :r])
    if boundary is not None:
        a[boundary] = 0.0
    e, a = e[:, a > 0], a[a > 0]
    cols = [np.vstack([e * np.sqrt(a), alpha * d[:r, r:].conj().T @ e / np.sqrt(a)])]
    if freed.size:
        f, ef = np.linalg.eigh(alpha * d[np.ix_(freed, freed)])
        block = np.zeros((t, int(np.sum(f > 0))), dtype=complex)
        block[freed] = ef[:, f > 0] * np.sqrt(f[f > 0])
        cols.append(block)
    u, sv, _ = np.linalg.svd(basis @ np.hstack(cols))
    lam = np.zeros(t)
    lam[:sv.size] = sv ** 2
    return u, lam / lam.sum()


def _update(mi_of, vecs: np.ndarray, lam: np.ndarray, direction: tuple,
            mi: float, still: float, full: bool = True) -> tuple:
    """Longest part of a Newton step that does not lower the MI ``mi_of(Q)``.

    The step is cut where it leaves the PSD cone: on the diagonal at the
    first power it drives negative, else where Y_a + alpha D_aa (Y_a the
    powered eigenvalues) turns singular, alpha = -1/min eig(Y_a^-1/2 D_aa
    Y_a^-1/2); then it is halved while the MI (``mi`` now) falls. Returns
    the eigenpairs of the new Q and its MI, or the current ones and ``mi``
    once the step (largest entry of D) has shrunk to ``still``. A full step
    no longer than ``still`` is taken unchecked and keeps ``mi``: it raises
    the MI by its quadratic term, below what the pool resolves.
    """
    d = direction[1]
    if full:
        ya = lam[lam > 0]
        nu = np.linalg.eigvalsh(d[:ya.size, :ya.size] / np.sqrt(np.outer(ya, ya)))[0]
        block, cut = 0, (-1.0 / nu if nu < 0 else np.inf)
    else:
        step = np.diag(d).real
        neg = (step < 0) & (lam > 0)
        ratio = np.full(lam.shape, np.inf)
        ratio[neg] = lam[neg] / -step[neg]
        block = int(np.argmin(ratio))
        cut = ratio[block]
    size = np.abs(d).max()
    alpha = min(1.0, cut)
    if alpha == 1.0 and size <= still:
        return (*_cone_point(direction, lam, 1.0, None, full), mi)
    while True:
        cand = _cone_point(direction, lam, alpha, block if alpha == cut else None, full)
        mi_cand = mi_of(_covariance(*cand))
        if mi_cand >= mi:
            return (*cand, mi_cand)
        alpha /= 2.0
        if alpha * size <= still:
            return vecs, lam, mi


def _solve(law: ChannelLaw, gamma: float, opts: OptimizerOptions, basis) -> CovOptResult:
    """Newton steps on frozen pools, epoch by epoch, from a start that E[H^H H] fixes
    (``InfeasibleError`` where it is 0).

    A general solve (no ``basis``) of a pooled law with no atoms starts at the exact
    optimum of the stand-in KroneckerGaussian(0, I_r, E[H^H H] / r) wherever that law is
    ``exact`` (t <= 5, t <= r <= 16): its MI sees the fading, so its optimum usually has
    the pooled optimum's rank, where Jensen's bound often powers every mode. It is solved
    to ``tol`` whatever ``max_iter`` is. Every other solve starts at water-filling over gamma
    E[H^H H], the maximizer of Jensen's bound: exact on a point mass and I/t where E[H^H H]
    is a multiple of I. With a ``basis`` U it water-fills the real diagonal of
    U^H E[H^H H] U and the steps move only the powers over U, else all of Q
    (:func:`_direction`). Each iteration takes one step, cut at the PSD
    boundary and backtracked on the pool MI (:func:`_update`), which is the
    ``mi_trace`` entry. An epoch ends when a step settles (moves no entry of
    Q by more than ``tol / 100`` and powers no new direction) or after
    ``INNER_MAX`` steps; the next pool first serves as the fresh-pool check,
    and the run is ``converged`` when the residual on it is at most ``tol``.
    """
    full = basis is None
    gram = law.expected_gram()
    if not np.any(gram):
        raise InfeasibleError("zero channel: the capacity is 0 and every covariance is optimal")
    # the zero-mean Gaussian law with the same E[H^H H]: Jensen's bound is the same,
    # but its exact MI sees the fading
    stand_in = (KroneckerGaussian(np.zeros(law.shape), np.eye(law.rx), gram / law.rx)
                if full and not law.exact and law.support is None else None)
    if stand_in is not None and stand_in.exact:
        vecs = stand_in.diag_basis  # solved to tol: opts.max_iter counts the pooled steps
        lam = _solve(stand_in, gamma, OptimizerOptions(tol=opts.tol), vecs).qhat
    else:
        vecs, eig = herm_eig(gram) if full else (
            np.eye(law.tx), np.einsum("ij,ik,kj->j", basis.conj(), gram, basis).real)
        lam = waterfill_det(gamma * eig.clip(0.0), 1.0).powers
        lam /= lam.sum()
    stream = as_stream(opts.seed)
    still = max(opts.tol * 1e-2, 1e-7 if law.exact else 0.0)  # 1e-7: exact MI round-off
    trace, res_trace = [], []
    iters = epoch = 0
    converged = settled = False
    mi_of, moments = _objective(law, gamma, basis, opts.samples, stream.child(0))
    m, curv = moments(vecs, lam)
    while iters < opts.max_iter and not converged:
        q = _covariance(vecs, lam)
        mi = mi_of(q)
        for _ in range(INNER_MAX):
            if iters >= opts.max_iter:
                break
            res_trace.append(_residual(vecs.conj().T @ m @ vecs, lam > MODE_OFF))
            new_vecs, new_lam, mi = _update(
                mi_of, vecs, lam, _direction(m, curv, vecs, lam, full), mi, still, full)
            new = _covariance(new_vecs, new_lam)
            settled = bool(np.abs(new - q).max() <= still
                           and np.array_equal(new_lam > 0, lam > 0))
            vecs, lam, q = new_vecs, new_lam, new
            trace.append(mi)
            iters += 1
            if settled:
                break
            m, curv = moments(vecs, lam)
        # the fresh check pool becomes the next epoch's solving pool
        epoch += 1
        if not law.exact and law.support is None:  # else one objective serves every epoch
            del mi_of, moments  # the old pool goes before the new one is drawn
            mi_of, moments = _objective(law, gamma, basis, opts.samples, stream.child(epoch))
        m, curv = moments(vecs, lam)
        residual = _residual(vecs.conj().T @ m @ vecs, lam > MODE_OFF)
        # a settled step is no evidence of stationarity: the general solver's
        # settled stop goes once ``converged`` is judged by a gap in nats
        # (ROADMAP direction 1)
        converged = bool(residual <= opts.tol or (full and settled))

    mi = McEstimate(mi_of(_covariance(vecs, lam)), 0.0, 1) if law.exact else None
    del mi_of, moments
    q = _covariance(vecs if full else basis, lam)
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("Newton step produced non-finite entries")
    mi = mi or ergodic_mi(q, law, gamma, opts.final_samples, stream.child(999_983))
    return CovOptResult(
        q=q, mi=mi, kkt_residual=float(residual),
        mi_trace=np.asarray(trace), residual_trace=np.asarray(res_trace),
        iterations=iters, converged=converged, qhat=lam)


def fixed_point_diag(law: ChannelLaw, gamma: float, basis=None,
                     opts: OptimizerOptions = OptimizerOptions()) -> CovOptResult:
    """Optimal power allocation over a known basis by active-set Newton steps.

    From water-filling over the diagonal of U^H E[H^H H] U (U = ``basis``,
    the identity if None), each iteration takes one Newton step of the MI on
    the power simplex (:func:`_solve` on U's diagonal coordinates), with
    gradient d_k = E[X_kk] and curvature E[|X_kl|^2] on the frozen pool, cut
    at the simplex boundary so off modes come out exactly zero. A pool is
    left once a step moves no power by more than ``tol / 100``, and the run
    is ``converged`` when the stationarity residual on the next, fresh pool
    is at most ``tol``. On a law with a closed form the steps use the exact
    MI, gradient and Hessian (one evaluation per point) in place of pools: one
    epoch, and the reported MI is exact with SE 0. ``qhat`` holds the powers.
    """
    return _solve(law, gamma, opts,
                  np.eye(law.tx) if basis is None else np.asarray(basis, dtype=complex))


def iterate_general(law: ChannelLaw, gamma: float,
                    opts: OptimizerOptions = OptimizerOptions()) -> CovOptResult:
    """Optimal covariance by projected Newton steps on Hermitian Q (no basis needed).

    Starting from the exact optimum of the zero-mean Gaussian law with the same E[H^H H],
    or from water-filling over E[H^H H] where that law has no closed form (:func:`_solve`),
    each iteration takes one Newton step of the MI over trace-one PSD matrices in the current
    eigenbasis of Q (:func:`_solve` on all Hermitian coordinates), with gradient E[X] and
    curvature E[tr(X D X D)] on the frozen pool, cut at the PSD boundary so
    off eigenvalues come out exactly zero. The run stops, ``converged``,
    when the stationarity residual (:func:`_residual` in the eigenbasis of
    Q) on a fresh pool is at most ``tol`` or the last pool's step settled.
    ``qhat`` holds Q's eigenvalues, zero exactly on the off directions. On a
    law with a closed form the optimum shares T's eigenvectors (Jafar &
    Goldsmith, IEEE Trans. Wireless Commun. 2004): the solve is
    :func:`fixed_point_diag`'s in them.
    """
    if law.exact:
        return fixed_point_diag(law, gamma, law.diag_basis, opts)
    return _solve(law, gamma, opts, None)


def kkt_residual_general(q, law: ChannelLaw, gamma: float,
                         samples: int = DEFAULT_SAMPLES_INNER,
                         rng: SeededStream | int = 0) -> float:
    """Stationarity residual (:func:`_residual`) of a unit-trace PSD covariance;
    exact, with ``samples`` and ``rng`` unused, on a law with a closed form."""
    q = as_psd(q)
    if abs(np.trace(q).real - 1.0) > 1e-8:
        raise ValueError("covariance must have unit trace")
    if law.exact:
        return _q_residual(law.exact_mi(q, gamma)[1], q)
    pool = _s_pool(law, gamma, None, samples, as_stream(rng))
    return _q_residual(_resolvent_moments(pool, q, weights=_weights(law))[0], q)


# ---------------------------------------------------------------------------
# the paper's damped Cholesky-factor map (figures 9 and 10)
# ---------------------------------------------------------------------------

def _phase_fix_rows(t: np.ndarray) -> np.ndarray:
    """Left-multiply by a diagonal unitary so the diagonal is real >= 0.

    This is a pure gauge change: (P T)^H (P T) = T^H T, so the covariance is
    untouched while the factor regains Cholesky normal form.
    """
    d = np.diag(t).copy()
    phase = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1)), 1.0)
    out = (t.T * np.conj(phase)).T
    # The rotation leaves ~1 ulp of imaginary residue on the diagonal.
    np.fill_diagonal(out, np.abs(np.diag(out)))
    return out


def _normalize_ut(t: np.ndarray) -> np.ndarray:
    t = np.triu(t)
    scale = np.sqrt(np.sum(np.abs(t) ** 2))
    if scale == 0:
        raise FloatingPointError("triangular factor collapsed to zero")
    return t / scale


def _cholesky_map_trace(law: ChannelLaw, gamma: float,
                        opts: OptimizerOptions = OptimizerOptions()) -> np.ndarray:
    """Per-step pool MI of the paper's damped Cholesky-factor map.

    Figures 9 and 10 plot this map's trajectory; the solver is
    :func:`iterate_general`. Each step forms M on the current pool, updates
    T <- T (M + M^H), zeroes the strict lower triangle, restores the
    real-diagonal gauge and rescales to unit trace. The update is damped
    (convex combination with the previous factor), the damping halved
    whenever the pool MI drops by more than twice its standard error, and a
    pool is left after 80 steps or five flat-MI steps. The map stops when
    the residual on a fresh check pool is below ``tol`` or the MI went flat.
    """
    tfac = _normalize_ut(np.eye(law.tx, dtype=complex))
    stream, w = as_stream(opts.seed), _weights(law)
    alpha = DAMPING
    trace = []
    epoch = 0
    done = False
    while len(trace) < opts.max_iter and not done:
        pool = _s_pool(law, gamma, None, opts.samples, stream.child(2 * epoch))
        mi_prev, _ = _pool_mi(pool, ut_gram(tfac), w)
        flat = 0
        for _ in range(INNER_MAX):
            if len(trace) >= opts.max_iter:
                break
            m = _resolvent_moments(pool, ut_gram(tfac), weights=w)[0]
            step = _normalize_ut(_phase_fix_rows(np.triu(tfac @ (m + m.conj().T))))
            cand = _normalize_ut(_phase_fix_rows((1 - alpha) * tfac + alpha * step))
            mi_new, se_new = _pool_mi(pool, ut_gram(cand), w)
            if mi_new < mi_prev - 2.0 * max(se_new, 1e-12):
                alpha = max(alpha / 2.0, 0.02)
                trace.append(mi_prev)
                continue
            tfac = cand
            trace.append(mi_new)
            if abs(mi_new - mi_prev) < opts.tol / 10.0 * max(abs(mi_new), 1.0):
                flat += 1
            else:
                flat = 0
            mi_prev = mi_new
            if flat >= 5:
                break
        done = flat >= 5 or kkt_residual_general(ut_gram(tfac), law, gamma, opts.samples,
                                                 stream.child(2 * epoch + 1)) <= opts.tol
        epoch += 1
    return np.asarray(trace)
