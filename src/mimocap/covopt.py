"""Capacity-achieving transmit covariance under statistical channel knowledge.

Two optimizers:

* ``fixed_point_diag``: when a basis U diagonalizing the optimal covariance
  is known a priori (e.g. zero-mean Kronecker laws), the problem reduces to a
  power vector q on the simplex. With X = (I + S Q)^-1 S per draw, the
  stationarity condition is d_k = E[X_kk] = mu on active modes and d_k <= mu
  on off modes. It is solved by active-set Newton steps: d is the gradient of
  the MI in q and E[|X_kl|^2] its negated Hessian, both read off the same
  per-draw solve, and off modes are set exactly to zero.

* ``iterate_general``: no structural assumptions. The same condition holds
  for Hermitian Q: E[X] = mu on the range of Q and E[X] <= mu off it. It is
  solved by projected Newton steps on trace-one PSD matrices in the current
  eigenbasis of Q, with gradient E[X] and curvature E[tr(X D X D)] from the
  same per-draw solve; eigenvalues that reach zero are set exactly to zero.
  The paper's own solver, the damped Cholesky-factor map T <- T (M + M^H)
  with M = E[(I + S T^H T)^-1 S], survives only as the subject of figures 9
  and 10 (``_cholesky_map_trace``).

Both are judged by one stationarity residual on Q (``_residual``): in the
eigenbasis of Q, the powered rows of E[X] must equal mu I and the largest
eigenvalue of E[X] on the off space must not exceed mu.

Both run in one epoch loop (``_epoch_loop``) on common random numbers: each
solver gives it only its face, the residual and Newton step on a pool. Within
an epoch the pool is frozen, so the stochastic fixed point is a deterministic
one per pool; an epoch ends when a step settles or after ``INNER_MAX`` steps,
and the next pool first serves as the fresh-pool check. Zero-mean Kronecker
laws with R = c I, t <= r, t <= 5 and r <= 16 draw no pools (``law.exact``):
both solvers step in T's eigenbasis on the closed-form MI and its gradient,
and report that MI with SE 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelLaw, PointMass, sample_batch
from .linalg import as_psd, herm_eig, ut_gram
from .montecarlo import (
    DEFAULT_SAMPLES_FINAL,
    DEFAULT_SAMPLES_INNER,
    McEstimate,
    SeededStream,
    _eye_plus,
    _log_dets,
    _snr_gram,
    as_stream,
    ergodic_mi,
)

__all__ = [
    "CovOptResult",
    "OptimizerOptions",
    "kkt_residual_diag",
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
    """Knobs shared by both optimizers; JSON-friendly."""

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

    @classmethod
    def from_dict(cls, obj: dict) -> "OptimizerOptions":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(obj) - known
        if bad:
            raise ValueError(f"unknown optimizer options: {sorted(bad)}")
        return cls(**obj)


@dataclass(frozen=True)
class CovOptResult:
    """Optimal covariance with its MI estimate and iteration traces.

    ``mi_trace`` and ``residual_trace`` are per-iteration values measured on
    the current sample pool; ``kkt_residual`` is the final fresh-pool check.
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
    """Pool of S = gamma * (H U)^H (H U) draws, shape (pool, t, t)."""
    if isinstance(law, PointMass):
        h = law.h0[None, :, :]
    else:
        h = sample_batch(law, samples, stream.generator())
    if basis is not None:
        h = (h.reshape(-1, h.shape[2]) @ np.asarray(basis, dtype=complex)).reshape(h.shape)
    return _snr_gram(h, gamma)


def _resolvent_gradient(s_pool: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-draw (I + S Q)^-1 S, shape (pool, t, t)."""
    return np.linalg.solve(_eye_plus(s_pool, q), s_pool)


def _pool_mi(s_pool: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Mean and SE of log det(I + S Q) over the pool."""
    est = McEstimate.of(_log_dets(s_pool, q))
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
    g's off block over mu.
    """
    if not np.any(on):
        raise ValueError("no active modes")
    mu = np.diag(g)[on].real.mean()
    dev = np.abs(g[on] - mu * np.eye(on.size)[on]).max() / mu
    off = 0.0
    if not np.all(on):
        off = max(0.0, np.linalg.eigvalsh(g[np.ix_(~on, ~on)])[-1] - mu) / mu
    return float(dev + off)


def _q_residual(m: np.ndarray, q: np.ndarray) -> float:
    """:func:`_residual` of ``q`` for E[X] = ``m``; eigenvalues up to ``MODE_OFF`` are off."""
    lam, vecs = np.linalg.eigh(q)
    return _residual(vecs.conj().T @ m @ vecs, lam > MODE_OFF)


def _epoch_loop(law: ChannelLaw, gamma: float, opts: OptimizerOptions, face, point,
                finish, stop_when_settled: bool = False) -> CovOptResult:
    """Newton steps on frozen pools, epoch by epoch, for both solvers.

    ``face(stream)`` draws one epoch's pool from ``stream`` (none on a law
    with a closed form) and returns ``(mi_of, at)``: ``mi_of(point)`` is the
    pool MI of an iterate, and ``at(point)`` its stationarity residual and
    its Newton step ``step(mi, still) -> (new point, pool MI, settled)``.
    An epoch ends when a step settles (moves nothing by more than ``still``)
    or after ``INNER_MAX`` steps; the next pool first serves as the
    fresh-pool check, and the run is ``converged`` when the residual on it
    is at most ``tol``. ``finish(point)`` gives the covariance and ``qhat``.
    """
    stream = as_stream(opts.seed)
    still = max(opts.tol * 1e-2, 1e-7 if law.exact else 0.0)  # 1e-7: exact MI round-off
    trace, res_trace = [], []
    iters = epoch = 0
    converged = settled = False
    mi_of, at = face(stream.child(0))
    residual, step = at(point)
    while iters < opts.max_iter and not converged:
        mi = mi_of(point)
        for _ in range(INNER_MAX):
            if iters >= opts.max_iter:
                break
            res_trace.append(residual)
            point, mi, settled = step(mi, still)
            trace.append(mi)
            iters += 1
            if settled:
                break
            residual, step = at(point)
        # the fresh check pool becomes the next epoch's solving pool
        epoch += 1
        mi_of, at = face(stream.child(epoch))
        residual, step = at(point)
        # a settled step is no evidence of stationarity: ``stop_when_settled``
        # goes once ``converged`` is judged by a gap in nats (ROADMAP direction 1)
        converged = bool(residual <= opts.tol or (stop_when_settled and settled))

    q, qhat = finish(point)
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("Newton step produced non-finite entries")
    mi = (McEstimate(law.exact_mi(q, gamma)[0], 0.0, 1) if law.exact
          else ergodic_mi(q, law, gamma, opts.final_samples, stream.child(999_983)))
    return CovOptResult(
        q=q, mi=mi, kkt_residual=float(residual),
        mi_trace=np.asarray(trace), residual_trace=np.asarray(res_trace),
        iterations=iters, converged=converged, qhat=qhat)


# ---------------------------------------------------------------------------
# diagonalizable case
# ---------------------------------------------------------------------------

def _diag_moments(s_pool: np.ndarray, qvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and curvature of the pool MI in the powers ``qvec``.

    With X = (I + S Qhat)^-1 S per draw (Hermitian), d_k = E[X_kk] is
    dMI/dq_k and h_kl = E[|X_kl|^2] is -d2MI/(dq_k dq_l).
    """
    x = _resolvent_gradient(s_pool, np.diag(qvec))
    d = np.mean(np.diagonal(x, axis1=1, axis2=2).real, axis=0)
    h = np.mean(x.real ** 2 + x.imag ** 2, axis=0)
    return d, h


def _exact_d(law: ChannelLaw, gamma: float, basis: np.ndarray, qvec) -> np.ndarray:
    """diag(U^H G U), G the exact gradient in Q = U diag(qvec) U^H."""
    g = law.exact_mi((basis * qvec) @ basis.conj().T, gamma)[1]
    return np.einsum("ij,ik,kj->j", basis.conj(), g, basis).real


def _exact_moments(law: ChannelLaw, gamma: float, basis: np.ndarray, qvec) -> tuple:
    """:func:`_diag_moments` from :func:`_exact_d` and its central difference
    over 10^-4 q_k (at least 10^-4 / t; one-sided at 0)."""
    h = np.empty((qvec.size, qvec.size))
    for k, qk in enumerate(qvec):
        lo, hi = qvec.copy(), qvec.copy()
        step = 1e-4 * max(qk, 1.0 / qvec.size)
        lo[k], hi[k] = max(qk - step, 0.0), qk + step
        h[:, k] = _exact_d(law, gamma, basis, lo) - _exact_d(law, gamma, basis, hi)
        h[:, k] /= hi[k] - lo[k]
    return _exact_d(law, gamma, basis, qvec), 0.5 * (h + h.T)


def _powers_objective(law: ChannelLaw, gamma: float, basis: np.ndarray, samples: int,
                      stream: SeededStream) -> tuple:
    """Moments of powers over ``basis`` and the MI of a covariance in it: exact
    on a law with a closed form, else on a fresh pool."""
    if np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() > 1e-9:
        raise ValueError("diagonalizing basis must be unitary")
    if law.exact:
        return (lambda qv: _exact_moments(law, gamma, basis, qv),
                lambda qm: law.exact_mi(basis @ qm @ basis.conj().T, gamma)[0])
    pool = _s_pool(law, gamma, basis, samples, stream)
    return (lambda qv: _diag_moments(pool, qv)), (lambda qm: _pool_mi(pool, qm)[0])


def kkt_residual_diag(qvec, law: ChannelLaw, gamma: float, basis,
                      samples: int = DEFAULT_SAMPLES_INNER,
                      rng: SeededStream | int = 0) -> float:
    """Violation of the diagonal stationarity conditions for powers ``qvec``.

    With d_k = E[((I + S Qhat)^-1 S)_kk], active modes must share a common
    value mu and inactive modes must sit below it: :func:`_residual` of
    diag(d), modes above ``MODE_OFF`` counting as active. On a law with a
    closed form d is exact, and ``samples`` and ``rng`` go unused.
    """
    qvec = np.asarray(qvec, dtype=float)
    if np.any(qvec < 0) or abs(qvec.sum() - 1.0) > 1e-9:
        raise ValueError("powers must be non-negative and sum to 1")
    basis = np.eye(qvec.size) if basis is None else np.asarray(basis, dtype=complex)
    moments = _powers_objective(law, gamma, basis, samples, as_stream(rng))[0]
    d = _exact_d(law, gamma, basis, qvec) if law.exact else moments(qvec)[0]
    return _residual(np.diag(d), qvec > MODE_OFF)


def _newton_direction(d: np.ndarray, h: np.ndarray, qvec: np.ndarray) -> np.ndarray:
    """Newton step of the pool MI on the face of the simplex it may move in.

    The free modes are the powered ones and the off modes whose gradient d_k
    exceeds the powered modes' mean. On them the step solves the bordered
    system [[H, 1], [1^T, 0]] [step; nu] = [d; 0], the Newton step under
    sum(q) = 1; an off mode the step would drive negative is fixed at zero
    and the system solved again.
    """
    on = qvec > 0
    free = on | (d > d[on].mean())
    while True:
        idx = np.flatnonzero(free)
        k = idx.size
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = h[np.ix_(idx, idx)]
        kkt[k, k] = 0.0
        sol = np.linalg.lstsq(kkt, np.append(d[idx], 0.0), rcond=None)[0]
        step = np.zeros_like(qvec)
        step[idx] = sol[:k]
        blocked = ~on & (step < 0)
        if not np.any(blocked):
            return step
        free &= ~blocked


def _backtrack(mi_of, point, ratio: float, size: float,
               mi: float, still: float) -> tuple:
    """Longest part of a Newton step that does not lower the MI ``mi_of(Q)``.

    ``point(alpha, boundary)`` returns the iterate ``alpha`` along the step
    and its covariance; ``boundary`` is set when alpha is ``ratio``, where
    the step leaves the feasible set. The step is cut at ``ratio``, then
    halved while the MI (``mi`` at the current iterate) falls. Returns
    the new iterate and its pool MI, or None and ``mi`` once the step
    (largest entry ``size``) has shrunk to ``still``. A full step no longer
    than ``still`` is taken unchecked and keeps ``mi``: it raises the MI by
    its quadratic term, below what the pool resolves.
    """
    alpha = min(1.0, ratio)
    if alpha == 1.0 and size <= still:
        return point(1.0, False)[0], mi
    while True:
        cand, q = point(alpha, alpha == ratio)
        mi_cand = mi_of(q)
        if mi_cand >= mi:
            return cand, mi_cand
        alpha /= 2.0
        if alpha * size <= still:
            return None, mi


def _newton_update(mi_of, qvec: np.ndarray, step: np.ndarray,
                   mi: float, still: float) -> tuple[np.ndarray, float]:
    """:func:`_backtrack` on the simplex: the step is cut at the first mode
    it would drive negative, and that mode is set to exactly zero. Returns
    the new powers and their MI, or ``qvec`` and ``mi``."""
    neg = step < 0
    ratio = np.full(qvec.shape, np.inf)
    ratio[neg] = qvec[neg] / -step[neg]
    block = int(np.argmin(ratio))

    def point(alpha, boundary):
        cand = qvec + alpha * step
        if boundary:
            cand[block] = 0.0
        cand = np.maximum(cand, 0.0)
        cand /= cand.sum()
        return cand, np.diag(cand)

    new, mi = _backtrack(mi_of, point, ratio[block], np.abs(step).max(), mi, still)
    return (qvec if new is None else new), mi


def fixed_point_diag(law: ChannelLaw, gamma: float, basis=None,
                     opts: OptimizerOptions | dict | None = None) -> CovOptResult:
    """Optimal power allocation over a known basis by active-set Newton steps.

    Starting from uniform powers, each iteration takes one projected Newton
    step of the MI on the simplex, with the gradient and curvature of
    ``_diag_moments`` on the frozen pool, cut at the simplex boundary (so off
    modes come out exactly zero) and backtracked on the pool MI, which is the
    ``mi_trace`` entry. Pools and stopping are :func:`_epoch_loop`'s: a
    pool is left once a step moves no power by more than ``tol / 100``, and
    the run is ``converged`` when the stationarity residual on the next,
    fresh pool is at most ``tol``. On a law with a closed form the steps use
    the exact MI, gradient and curvature (:func:`_exact_moments`) in place
    of pools: one epoch, as on a point mass, and the reported MI is exact
    with SE 0.
    """
    opts = _as_opts(opts)
    basis = np.eye(law.tx) if basis is None else np.asarray(basis, dtype=complex)

    def face(stream):
        moments, mi_of = _powers_objective(law, gamma, basis, opts.samples, stream)

        def at(qvec):
            d, h = moments(qvec)

            def step(mi, still):
                new, mi = _newton_update(mi_of, qvec, _newton_direction(d, h, qvec), mi, still)
                settled = np.abs(new - qvec).max() <= still and np.array_equal(new > 0, qvec > 0)
                return new, mi, settled

            return _residual(np.diag(d), qvec > MODE_OFF), step

        return (lambda qvec: mi_of(np.diag(qvec))), at

    return _epoch_loop(law, gamma, opts, face, np.full(law.tx, 1.0 / law.tx),
                       lambda qvec: (_covariance(basis, qvec), qvec))


# ---------------------------------------------------------------------------
# general case
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
    return _q_residual(_resolvent_gradient(pool, q).mean(axis=0), q)


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


def _general_direction(x: np.ndarray, vecs: np.ndarray, lam: np.ndarray) -> tuple:
    """Newton step of the pool MI over trace-one PSD matrices near the current Q.

    Q = vecs diag(lam) vecs^H with exact zeros for off directions, and ``x``
    holds the per-draw X = (I + S Q)^-1 S. In the basis W of the r powered
    eigenvectors followed by the eigenvectors of W_off^H M W_off (M = E[X]),
    the step is Delta = W D W^H with D Hermitian and tr D = 0, in the real
    coordinates of :func:`_herm_coords`: the gradient is tr(W^H M W B_a) and
    the curvature E[tr(Xw B_a Xw B_b)], Xw = W^H X W, the contraction of
    E[vec(Xw) vec(Xw)^T] (one (N, t*t)^T (N, t*t) product). The step solves
    [[H, c], [c^T, 0]] [x; nu] = [grad; 0] on the coordinates it may move:

    * the powered block and the rotations of powered directions into off
      ones, whose PSD completion D_uu = |D_ui|^2 / lam_i adds the curvature
      2 (mu - w_u) / lam_i, w_u the off direction's gradient and mu the
      powered directions' mean (the boundary curve of the cone);
    * the block of the off directions freed because w_u > mu; a freed
      direction whose block of D is not PSD is held at zero power (the one
      with the smallest diagonal entry first) and the step solved again.

    Returns W, D, r and the indices of the freed directions.
    """
    t = x.shape[1]
    on = lam > 0
    r = int(on.sum())
    m = x.mean(axis=0)
    act = vecs[:, on]
    off = vecs[:, ~on]
    mu = np.trace(act.conj().T @ m @ act).real / r
    w, e = np.linalg.eigh(off.conj().T @ m @ off)
    basis = np.hstack([act, off @ e])
    xw = (x.reshape(-1, t) @ basis).reshape(-1, t, t)
    xw = (xw.swapaxes(1, 2).reshape(-1, t) @ basis.conj()).reshape(-1, t, t)
    vx = xw.swapaxes(1, 2).reshape(-1, t * t)
    kk = np.moveaxis((vx.T @ vx / vx.shape[0]).reshape(t, t, t, t), 0, -1).reshape(t * t, t * t)
    coords, rows, cols = _herm_coords(t)
    g = basis.conj().T @ m @ basis
    hess = (coords.T @ kk @ coords).real
    hess = 0.5 * (hess + hess.T)
    grad = (coords.T @ g.T.ravel()).real
    gain = np.concatenate([np.zeros(r), mu - w])
    rot = (rows < r) & (cols >= r)
    hess[rot, rot] += 2.0 * np.maximum(gain[cols[rot]], 0.0) / lam[on][rows[rot]]
    freed = gain < 0
    n = t * t
    while True:
        move = (freed[rows] & freed[cols]) | rot | ((rows < r) & (cols < r))
        idx = np.flatnonzero(move)
        diag = idx[idx < t]
        kkt = np.zeros((idx.size + 1, idx.size + 1))
        kkt[:-1, :-1] = hess[np.ix_(idx, idx)]
        kkt[:diag.size, -1] = kkt[-1, :diag.size] = 1.0
        sol = np.linalg.lstsq(kkt, np.append(grad[idx], 0.0), rcond=None)[0]
        step = np.zeros(n)
        step[idx] = sol[:-1]
        d = (coords @ step).reshape(t, t)
        fb = np.flatnonzero(freed)
        if fb.size == 0 or np.linalg.eigvalsh(d[np.ix_(fb, fb)])[0] >= -1e-12:
            return basis, d, r, fb
        freed[fb[np.argmin(np.diag(d)[fb].real)]] = False


def _cone_point(direction: tuple, lam_on: np.ndarray, alpha: float,
                boundary: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the trace-one PSD matrix that ``alpha`` times the step reaches.

    In the basis W of the step the new covariance is L L^H with columns
    [E a^1/2; B^H E a^-1/2] and those of the freed block alpha D_ff, where
    E diag(a) E^H = A = diag(lam_on) + alpha D_aa and B = alpha D_a,off: its powered block
    is A, its cross block B, and its off block the least PSD completion
    B^H A^-1 B plus the freed powers, so directions held at zero power stay
    at exactly zero. At the PSD boundary the eigenvalue of A reaching zero
    is set exactly to zero and its direction dropped. The powers are
    rescaled to unit trace.
    """
    basis, d, r, freed = direction
    t = d.shape[0]
    a, e = np.linalg.eigh(np.diag(lam_on) + alpha * d[:r, :r])
    if boundary:
        a[0] = 0.0
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


def _general_update(s_pool: np.ndarray, vecs: np.ndarray, lam: np.ndarray,
                    direction: tuple, mi: float, still: float) -> tuple:
    """:func:`_backtrack` on trace-one PSD matrices: the step D is cut where
    Y_a + alpha D_aa, Y_a the powered eigenvalues, first turns singular, at
    alpha = -1/min eig(Y_a^-1/2 D_aa Y_a^-1/2), where :func:`_cone_point`
    sets the eigenvalue reaching zero exactly to zero. Returns the
    eigenpairs of the new Q and its pool MI, or the current ones."""
    d, r = direction[1], direction[2]
    ya = lam[lam > 0]
    nu = np.linalg.eigvalsh(d[:r, :r] / np.sqrt(np.outer(ya, ya)))[0]

    def point(alpha, boundary):
        cand = _cone_point(direction, ya, alpha, boundary)
        return cand, _covariance(*cand)

    new, mi = _backtrack(lambda q: _pool_mi(s_pool, q)[0], point,
                         -1.0 / nu if nu < 0 else np.inf, np.abs(d).max(), mi, still)
    return (*((vecs, lam) if new is None else new), mi)


def iterate_general(law: ChannelLaw, gamma: float,
                    opts: OptimizerOptions | dict | None = None) -> CovOptResult:
    """Optimal covariance by projected Newton steps on Hermitian Q (no basis needed).

    Starting from Q = I/t, each iteration takes one Newton step of the MI
    over trace-one PSD matrices in the current eigenbasis of Q
    (:func:`_general_direction`), with gradient E[X] and curvature
    E[tr(X D X D)] on the frozen pool, cut at the PSD boundary (so off
    eigenvalues come out exactly zero) and backtracked on the pool MI, which
    is the ``mi_trace`` entry. Pools and stopping are :func:`_epoch_loop`'s:
    a pool is left once a step moves no entry of Q by more than ``tol / 100``,
    and the run stops, ``converged``, when the stationarity residual
    (:func:`_residual` in the eigenbasis of Q) on the next, fresh pool is at
    most ``tol`` or the last pool's step settled. On a law with a closed form
    the optimum shares T's eigenvectors (Jafar & Goldsmith, IEEE Trans.
    Wireless Commun. 2004): the solve is :func:`fixed_point_diag`'s in them.
    """
    opts = _as_opts(opts)
    if law.exact:
        return fixed_point_diag(law, gamma, herm_eig(law.tx_corr)[0], opts)

    def face(stream):
        pool = _s_pool(law, gamma, None, opts.samples, stream)

        def at(point):
            vecs, lam, q = point
            x = _resolvent_gradient(pool, q)

            def step(mi, still):
                new_vecs, new_lam, mi = _general_update(
                    pool, vecs, lam, _general_direction(x, vecs, lam), mi, still)
                new = _covariance(new_vecs, new_lam)
                settled = bool(np.abs(new - q).max() <= still
                               and np.count_nonzero(new_lam) == np.count_nonzero(lam))
                return (new_vecs, new_lam, new), mi, settled

            return _residual(vecs.conj().T @ x.mean(axis=0) @ vecs, lam > 0), step

        return (lambda point: _pool_mi(pool, point[2])[0]), at

    lam = np.full(law.tx, 1.0 / law.tx)
    vecs = np.eye(law.tx, dtype=complex)
    return _epoch_loop(law, gamma, opts, face, (vecs, lam, _covariance(vecs, lam)),
                       lambda point: (point[2], None), stop_when_settled=True)


def _cholesky_map_trace(law: ChannelLaw, gamma: float,
                        opts: OptimizerOptions | dict | None = None) -> np.ndarray:
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
    opts = _as_opts(opts)
    tfac = _normalize_ut(np.eye(law.tx, dtype=complex))
    stream = as_stream(opts.seed)
    alpha = DAMPING
    trace = []
    epoch = 0
    done = False
    while len(trace) < opts.max_iter and not done:
        pool = _s_pool(law, gamma, None, opts.samples, stream.child(2 * epoch))
        mi_prev, _ = _pool_mi(pool, ut_gram(tfac))
        flat = 0
        for _ in range(INNER_MAX):
            if len(trace) >= opts.max_iter:
                break
            m = np.mean(_resolvent_gradient(pool, ut_gram(tfac)), axis=0)
            step = _normalize_ut(_phase_fix_rows(np.triu(tfac @ (m + m.conj().T))))
            cand = _normalize_ut(_phase_fix_rows((1 - alpha) * tfac + alpha * step))
            mi_new, se_new = _pool_mi(pool, ut_gram(cand))
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
        check = _s_pool(law, gamma, None, opts.samples, stream.child(2 * epoch + 1))
        q = ut_gram(tfac)
        m = np.mean(_resolvent_gradient(check, q), axis=0)
        done = _q_residual(m, q) <= opts.tol or flat >= 5
        epoch += 1
    return np.asarray(trace)


def _as_opts(opts) -> OptimizerOptions:
    if opts is None:
        return OptimizerOptions()
    if isinstance(opts, OptimizerOptions):
        return opts
    return OptimizerOptions.from_dict(dict(opts))
