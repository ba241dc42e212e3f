"""Seeded, reproducible Monte Carlo estimation of matrix-functional expectations.

Randomness is counter-based: a :class:`SeededStream` is a (seed, substream)
pair mapped onto a Philox generator, so any (seed, index) names the same draw
sequence forever and distinct indices give statistically independent streams.
Estimators draw on one generator per stream, in ``channels._BLOCK`` blocks
written into one array of per-draw values, which makes every estimate
bit-reproducible for a given (seed, sample count), and one (law, seed) gives
the same draws to every caller.
Per-draw MIs are slogdet(I + S Q), except at rank Q = k <= 2 below full rank:
there ln det(I_t + S Q) = ln det(I_k + P^H S P) over Q's factor P has a closed form,
and :func:`ergodic_mi` draws only the 2 x 2 Gram (H P)^H H P
(``ChannelLaw.sample_gram``); a Kronecker law draws it from fewer numbers than
H: at R = c I through a Bartlett factor, 6 normals and 2 gammas per draw on a
4 x 4 Ricean law with a rank-1 mean in place of 16 normals. The same S P and P^H S P
(:func:`_thin_products`) give the solvers' (I + S Q)^-1 S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .channels import ChannelLaw, _law_blocks
from .linalg import _gram, as_psd

__all__ = ["SeededStream", "McEstimate", "as_stream", "ergodic_mi"]

#: default sample counts: inside optimizer iterations vs. final reported values
DEFAULT_SAMPLES_INNER = 10_000
DEFAULT_SAMPLES_FINAL = 100_000


@dataclass(frozen=True)
class SeededStream:
    """Counter-based random stream identified by (seed, substream index)."""

    seed: int
    index: int = 0

    def generator(self) -> Generator:
        return Generator(Philox(key=np.array(
            [self.seed % 2**64, self.index % 2**64], dtype=np.uint64)))

    def child(self, index: int) -> "SeededStream":
        """Independent substream; children of distinct indices never collide."""
        return SeededStream(self.seed, self.index * 1_000_003 + index + 1)


def as_stream(rng) -> SeededStream:
    if isinstance(rng, SeededStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return SeededStream(int(rng))
    raise TypeError("rng must be a SeededStream or an integer seed")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with entrywise standard error (sample std / sqrt(n))."""

    mean: np.ndarray | float
    se: np.ndarray | float
    samples: int

    @classmethod
    def of(cls, vals: np.ndarray) -> "McEstimate":
        """Mean and SE over axis 0 of per-draw values; floats for scalar draws."""
        n = vals.shape[0]
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean, dtype=float)
        if vals.ndim == 1:
            mean, se = float(mean), float(se)
        return cls(mean, se, n)


def _eye_plus(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-draw ``I + S Q`` for a (size, t, t) stack of S and one t x t Q.

    The stacked rows of S times Q are one 2-D product (a single gemm), where
    ``s @ q`` would loop over the draws; the identity is added in place.
    """
    t = q.shape[0]
    a = (s.reshape(-1, t) @ q).reshape(s.shape)
    a.reshape(-1, t * t)[:, :: t + 1] += 1.0
    return a


def _thin_factor(q: np.ndarray) -> np.ndarray | None:
    """Q's factor P = V diag(lam)^1/2 (Q = P P^H) padded to t x 2 where rank Q <= 2
    and rank Q < t, so ln det(I_t + S Q) = ln det(I_2 + P^H S P) has a closed form;
    else None. Eigenvalues up to t eps lam_max are round-off (:func:`linalg.psd_sqrt`)."""
    lam, vecs = np.linalg.eigh(q)
    on = lam > lam[-1] * lam.size * np.finfo(float).eps
    k = np.count_nonzero(on)
    if k > 2 or k == lam.size:
        return None
    return np.pad(vecs[:, on] * np.sqrt(lam[on]), ((0, 0), (0, 2 - k)))


def _log1p_gram(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-draw log det(I + G) of a 2 x 2 Hermitian PSD G with diagonal d = (a, c)
    and corner b: log1p(a + c + (ac - |b|^2)), exactly log1p(a) when c = b = 0."""
    a, c = d[:, 0], d[:, 1]
    return np.log1p(a + c + (a * c - (b.real ** 2 + b.imag ** 2)))


def _thin_products(s: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw S P, shape (size, t, 2), and (S P)^T conj(P) = (P^H S P)^T, shape
    (size, 2, 2), for a (size, t, t) stack of S and a t x 2 P: one 2-D product each."""
    sp = (s.reshape(-1, len(p)) @ p).reshape(len(s), len(p), 2)
    return sp, (sp.swapaxes(1, 2).reshape(-1, len(p)) @ p.conj()).reshape(len(s), 2, 2)


def _log_dets(s: np.ndarray, q: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """Per-draw ``log det(I + S Q)`` in nats for a (size, t, t) stack of S, given Q's
    :func:`_thin_factor` ``p``; where it is not None, as log det(I_2 + P^H S P)
    (:func:`_thin_products`). A caller reducing many blocks factors Q once."""
    if p is None:
        return np.linalg.slogdet(_eye_plus(s, q))[1]
    g = _thin_products(s, p)[1]
    return _log1p_gram(np.diagonal(g, axis1=1, axis2=2).real, g[:, 0, 1])


def _thin_log_dets(g: np.ndarray, gamma: float) -> np.ndarray:
    """Per-draw ``log det(I + gamma H^H H Q)`` for a (size, 2, 2) batch of Grams
    G = (H P)^H H P, P Q's :func:`_thin_factor`, from the entries of gamma G, without S."""
    return _log1p_gram(gamma * np.diagonal(g, axis1=1, axis2=2).real, gamma * g[:, 0, 1])


def ergodic_mi(q, law: ChannelLaw, gamma: float, samples: int = DEFAULT_SAMPLES_FINAL,
               rng: SeededStream | int = 0) -> McEstimate:
    """Ergodic mutual information E[log det(I + gamma H Q H^H)] in nats.

    H is drawn as every per-draw reduction draws it (:func:`channels._law_blocks`):
    one generator of ``rng``, one ``channels._BLOCK`` of draws at a time. Where Q
    has rank k <= 2 below full rank (:func:`_thin_factor`), the draws are of the
    Gram (H P)^H H P (``law.sample_gram``), not of H: the same law, but a Kronecker
    law draws it from other numbers than ``sample_batch`` (a Bartlett factor at
    R = c I). Q's factor P, and a Kronecker law's (P^H T P)^1/2 and the rotated
    M P, are formed once per call; each block only draws and reduces.

    Parameters
    ----------
    q : array_like
        Transmit covariance, Hermitian PSD (else ``ValueError``), trace at most 1.
    law : ChannelLaw
        Distribution of H.
    gamma : float
        Signal-to-noise ratio (linear).
    samples : int
        Monte Carlo sample count; ignored for a law with ``support``, whose
        value is the weighted sum over its atoms, exact with zero standard error.
    rng : SeededStream or int
        Stream (or plain seed) controlling the draws.
    """
    q = as_psd(q)
    if np.trace(q).real > 1.0 + 1e-9:
        raise ValueError("transmit covariance must have trace <= 1")
    p = _thin_factor(q)
    per = ((lambda h: _log_dets(_gram(h, gamma), q, p)) if p is None
           else (lambda g: _thin_log_dets(g, gamma)))
    if law.support is not None:  # a finite weighted sum: exact, SE 0
        h, w = law.support
        return McEstimate(float(w @ per(h if p is None else _gram(h @ p))), 0.0, w.size)
    gen = as_stream(rng).generator()
    if p is None:
        return McEstimate.of(_law_blocks(law, samples, gen, per))
    return McEstimate.of(law.sample_gram(samples, gen, p, per))

