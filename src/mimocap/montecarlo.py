"""Seeded, reproducible Monte Carlo estimation of matrix-functional expectations.

Randomness is counter-based: a :class:`SeededStream` is a (seed, substream)
pair mapped onto a Philox generator, so any (seed, index) names the same draw
sequence forever and distinct indices give statistically independent streams.
Estimators split work into fixed-size batches keyed by batch index and
accumulate in batch order, which makes every estimate bit-reproducible for a
given (seed, sample count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelLaw, PointMass, sample_batch
from .linalg import as_hermitian

__all__ = ["SeededStream", "McEstimate", "as_stream", "ergodic_mi", "BATCH"]

#: samples per accumulation batch; fixed so results don't depend on scheduling
BATCH = 8192

#: default sample counts: inside optimizer iterations vs. final reported values
DEFAULT_SAMPLES_INNER = 10_000
DEFAULT_SAMPLES_FINAL = 100_000


@dataclass(frozen=True)
class SeededStream:
    """Counter-based random stream identified by (seed, substream index)."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=np.array(
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

    def __iter__(self):
        return iter((self.mean, self.se, self.samples))

    @classmethod
    def of(cls, vals: np.ndarray) -> "McEstimate":
        """Mean and SE over axis 0 of per-draw values; floats for scalar draws."""
        n = vals.shape[0]
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean, dtype=float)
        if vals.ndim == 1:
            mean, se = float(mean), float(se)
        return cls(mean, se, n)


def _batched_values(fn, law, samples, stream):
    """Evaluate fn on iid channel batches; returns the stacked value array."""
    if isinstance(law, PointMass):  # one exact value, whatever ``samples``
        return np.asarray(fn(law.h0[None, :, :]))
    chunks = []
    n_done = 0
    b = 0
    while n_done < samples:
        size = min(BATCH, samples - n_done)
        h = sample_batch(law, size, stream.child(b).generator())
        chunks.append(fn(h))
        n_done += size
        b += 1
    return np.concatenate(chunks, axis=0)


def _snr_gram(h: np.ndarray, gamma: float) -> np.ndarray:
    """Per-draw S = gamma * H^H H, exactly Hermitian, shape (size, t, t)."""
    s = gamma * np.einsum("ski,skj->sij", h.conj(), h)
    s += np.conj(np.swapaxes(s, 1, 2))
    s *= 0.5
    return s


def _eye_plus(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-draw ``I + S Q`` for a (size, t, t) stack of S and one t x t Q.

    The stacked rows of S times Q are one 2-D product (a single gemm), where
    ``s @ q`` would loop over the draws; the identity is added in place.
    """
    t = q.shape[0]
    a = (s.reshape(-1, t) @ q).reshape(s.shape)
    a.reshape(-1, t * t)[:, :: t + 1] += 1.0
    return a


def _log_dets(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-draw ``log det(I + S Q)`` in nats for a (size, t, t) stack of S."""
    return np.linalg.slogdet(_eye_plus(s, q))[1]


def ergodic_mi(q, law: ChannelLaw, gamma: float, samples: int = DEFAULT_SAMPLES_FINAL,
               rng: SeededStream | int = 0) -> McEstimate:
    """Ergodic mutual information E[log det(I + gamma H Q H^H)] in nats.

    Parameters
    ----------
    q : array_like
        Transmit covariance, Hermitian PSD with trace at most 1.
    law : ChannelLaw
        Distribution of H.
    gamma : float
        Signal-to-noise ratio (linear).
    samples : int
        Monte Carlo sample count; ignored for point-mass laws, whose value
        is computed exactly with zero standard error.
    rng : SeededStream or int
        Stream (or plain seed) controlling the draws.
    """
    q = as_hermitian(q)
    if np.trace(q).real > 1.0 + 1e-9:
        raise ValueError("transmit covariance must have trace <= 1")
    return McEstimate.of(_batched_values(lambda h: _log_dets(_snr_gram(h, gamma), q),
                                         law, samples, as_stream(rng)))

