"""Water-filling power allocation: per-realization, and jointly over space and time.

Two regimes live here. ``waterfill_det`` solves the classical single-matrix
problem: a common water level mu over the eigenvalues of H H^H, with the
budget spent at every symbol. ``st_water_level``/``st_capacity`` solve the
ergodic problem where one level xi is chosen once so that the *long-term
average* power meets the budget; each symbol then allocates (xi - 1/lam)+ on
its instantaneous eigenmodes, which is causal and memoryless.

Also here: the naive per-symbol baseline (water-fill each draw with the full
budget, then average), the peak-to-average power ratio and its bound, the
density of the per-eigenvector transmit power, and the rate after truncating
the allocation at a peak-power cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import EigDensity
from .linalg import _bracketed_root, as_complex_matrix
from .montecarlo import SeededStream, as_stream

__all__ = [
    "WaterfillSolution",
    "InfeasibleError",
    "waterfill_det",
    "st_water_level",
    "st_capacity",
    "instantaneous_covariance",
    "naive_avg_rate",
    "papr",
    "papr_bound",
    "PowerDensity",
    "power_density",
    "peak_limited_rate",
]


class InfeasibleError(ValueError):
    """Raised when a power budget cannot be met under the stated constraints."""


@dataclass(frozen=True)
class WaterfillSolution:
    """Water level, per-mode powers, achieved rate (nats/symbol), active modes."""

    level: float
    powers: np.ndarray
    rate: float
    active: int


def _waterfill_rows(rows: np.ndarray, budget: float):
    """Water-fill every row of an (N, m) eigenvalue array with the full budget.

    Per row, the level of the k strongest modes is mu_k = (budget + sum of
    their 1/lam) / k, and the active set is the largest k with mu_k >= 1/lam_k.
    Returns (level, active, rate) per row; a row with no positive eigenvalue
    has no level (nan), no active mode and rate 0.
    """
    lam = -np.sort(-np.asarray(rows, dtype=float), axis=1)
    inv = np.divide(1.0, lam, out=np.full(lam.shape, np.inf), where=lam > 0)
    k = np.arange(1, lam.shape[1] + 1)
    levels = (budget + np.cumsum(inv, axis=1)) / k
    valid = (levels >= inv) & np.isfinite(inv)
    active = np.where(valid.any(axis=1), lam.shape[1] - np.argmax(valid[:, ::-1], axis=1), 0)
    level = np.where(active > 0, levels[np.arange(lam.shape[0]), active - 1], np.nan)
    logs = np.log(level[:, None] * lam, out=np.zeros(lam.shape), where=k <= active[:, None])
    return level, active, logs.sum(axis=1)


def waterfill_det(eigs, budget: float) -> WaterfillSolution:
    """Water-filling over fixed eigenvalues with a hard power budget.

    Solves for mu with sum_{i active} (mu - 1/lam_i) = budget, active set
    maximal, and returns the rate sum log(mu * lam_i) over active modes.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or np.any(lam < 0):
        raise ValueError("eigenvalues must be a non-negative vector")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not np.any(lam > 0):
        raise ValueError("cannot water-fill: all eigenvalues are zero")
    level, active, rate = _waterfill_rows(lam[None, :], budget)
    inv = np.divide(1.0, lam, out=np.full_like(lam, np.inf), where=lam > 0)
    powers = np.maximum(level[0] - inv, 0.0)
    return WaterfillSolution(float(level[0]), powers, float(rate[0]), int(active[0]))


def _avg_power(density: EigDensity, xi: float, a: float) -> tuple[float, float]:
    """Average per-eigenvalue power int_a^inf (xi - 1/lam) f dlam, and its
    partial derivative in xi, the tail mass int_a^inf f dlam."""
    mass, inv, _ = density.tail_moments(a)
    return xi * mass - inv, mass


def _avg_rate(density: EigDensity, xi: float, a: float) -> float:
    """Per-eigenvalue rate int_a^inf ln(xi lam) f dlam."""
    mass, _, log = density.tail_moments(a)
    return np.log(xi) * mass + log


def st_water_level(density: EigDensity, budget: float) -> float:
    """Water level xi of space-time water-filling over an eigenvalue density.

    xi solves P(xi) = xi * mass(1/xi) - inv(1/xi) = budget / m, the average
    per-eigenvalue power, where m = ``density.m`` is the number of eigenmodes
    per symbol. The boundary terms of the derivative cancel, so the slope is
    exactly the tail mass, P'(xi) = mass(1/xi), and one ``tail_moments`` call
    gives both. P is increasing and convex, so Newton steps from an upper
    bracket descend onto the root without overshoot: fast on Wishart
    densities, and exact in one step on a linear piece of a pooled or
    discrete density.

    The upper bracket is xi = budget/m + 10, doubled until it holds. Below a
    target of 0.1 that start sits far up an exponential tail, where P is so
    flat that each Newton step moves 1/xi by only about one. There ln P is
    instead close to linear in a = 1/xi, so up to four Newton steps on ln P in
    a, from the asymptote a = ln(m/budget), come near the root first; a point
    that ends below the root is lifted above it by its tangent, which meets
    the target at or above the root because P is convex.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    target = budget / density.m
    if density.pool < 10_000:
        warnings.warn(f"water-level solving on a pool of {density.pool} "
                      "draws; 10^4 or more is recommended", stacklevel=2)

    def residual(xi):
        power, mass = _avg_power(density, xi, 1.0 / xi)
        return power - target, mass

    if target < 0.1:
        x = 1.0 / math.log(1.0 / target)
        value, mass = at_x = residual(x)
        for _ in range(4):
            power = value + target
            if power <= 0 or abs(math.log(power / target)) <= 0.1:
                break
            a = 1.0 / x + math.log(power / target) * power / (mass * x * x)
            if a <= 0:  # a step from far below the root can leave the axis
                break
            x = 1.0 / a
            value, mass = at_x = residual(x)
        if value >= 0:
            return float(_bracketed_root(residual, 0.0, x, at_x))
        if mass > 0:
            lo, x = x, x - value / mass
            at_x = residual(x)
            if at_x[0] < 0:  # below the root by the round-off of P only
                return float(x)
            return float(_bracketed_root(residual, lo, x, at_x))
        # no mass above 1/x: fall back to the start below

    hi = target + 10.0
    at_hi = residual(hi)
    if at_hi[1] <= 0 and density.tail_moments(0.0)[0] <= 0:
        raise InfeasibleError("eigenvalue density has no mass above zero")
    tries = 0
    while at_hi[0] < 0:
        hi *= 2.0
        at_hi = residual(hi)
        tries += 1
        if tries > 200:
            raise InfeasibleError("failed to bracket the water level")
    return float(_bracketed_root(residual, 0.0, hi, at_hi))


def st_capacity(density: EigDensity, xi: float) -> float:
    """Capacity in nats for a given space-time water level xi."""
    return float(density.m * _avg_rate(density, xi, 1.0 / xi))


def instantaneous_covariance(h, xi: float) -> np.ndarray:
    """Per-symbol transmit covariance V^H (xi I - S^{-2})+ V from H's SVD.

    Uses only the current realization: eigenvalues of the result are
    (xi - 1/lam_i)+ on the right-singular directions of H.
    """
    if xi <= 0:
        raise ValueError("water level must be positive")
    _, s, vh = np.linalg.svd(as_complex_matrix(h), full_matrices=False)
    lam = s**2
    powers = np.where(lam > 0, np.maximum(xi - np.divide(
        1.0, lam, out=np.full_like(lam, np.inf), where=lam > 0), 0.0), 0.0)
    return (vh.conj().T * powers) @ vh


def naive_avg_rate(source, budget: float, samples: int = 100_000,
                   rng: SeededStream | int = 0) -> float:
    """Per-symbol-budget baseline: water-fill every draw, then average.

    The joint structure of each draw's eigenvalues matters here, so the
    source must carry it in ``draw_rows``: a channel law (drawn directly), an
    empirical density (per-draw rows of its pool), a Wishart density (fresh
    Gaussian draws), or a discrete density that is either the marginal of a
    fixed eigenvalue multiset or flagged as independent across modes. A draw
    with no usable mode transmits nothing and contributes rate 0. Drawn rows
    stream: working memory is ``samples`` rates and one block of draws.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    rates, weights = source.draw_rows(samples, as_stream(rng).generator(),
                                      lambda rows: _waterfill_rows(rows, budget)[2])
    return float(np.average(rates, weights=weights))


def papr(xi: float, budget: float, m: int) -> float:
    """Exact peak-to-average power ratio of space-time water-filling: m*xi/budget."""
    return m * xi / budget


def papr_bound(density: EigDensity, budget):
    """Upper bound 1 + (m/budget) E[1/lam], m = ``density.m``; inf if E[1/lam] diverges.
    ``budget`` may be an array: one E[1/lam] query serves all of it."""
    # The tail query covers lam > 0 only, so mass at zero (an atom, or the
    # zero modes of a rank-deficient pool) is checked here, as is a law's density
    # at 0+; the Wishart inverse moment is itself infinite for n = m.
    inv = np.inf if density.cdf(0.0) > 0 or density._dense_at_zero else density.tail_moments(0.0)[1]
    return 1.0 + density.m / np.asarray(budget, dtype=float) * inv


@dataclass(frozen=True)
class PowerDensity:
    """Distribution of the per-eigenvector transmit power gamma = xi - 1/lam.

    ``atom0`` is the probability of transmitting nothing. ``pdf`` holds the
    continuous density on ``grid``; discrete source densities instead emit
    ``atoms`` as (power, weight) pairs.
    """

    xi: float
    atom0: float
    grid: np.ndarray
    pdf: np.ndarray
    atoms: tuple = ()


def power_density(density: EigDensity, xi: float, grid) -> PowerDensity:
    """Per-eigenvector transmit power density at water level xi.

    The continuous part is f((xi - g)^-1) / (xi - g)^2 on the grid, plus a
    point mass F(1/xi) at zero power. Grid points must lie in (0, xi); the
    allocated power never reaches xi.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0) or np.any(grid >= xi):
        raise ValueError("power grid must lie strictly inside (0, xi)")
    if density.discrete:
        v, w = density.values, density.weights
        on = (v > 1.0 / xi) & ~np.isclose(v, 1.0 / xi)
        return PowerDensity(xi, float(w[~on].sum()), grid, np.zeros_like(grid),
                            tuple(zip(xi - 1.0 / v[on], w[on])))
    atom0 = float(density.cdf(1.0 / xi))
    lam = 1.0 / (xi - grid)
    pdf = density.pdf(lam) / (xi - grid) ** 2
    return PowerDensity(xi, atom0, grid, pdf)


def peak_limited_rate(density: EigDensity, budget: float, peak: float) -> tuple[float, float]:
    """Rate after truncating the space-time allocation at a per-mode peak power.

    Both the power and rate integrals run over lam in [1/xi, 1/(xi - peak)];
    eigenvalues that would draw more than ``peak`` are dropped. The level is
    the smallest root above the unconstrained one, bracketed on a geometric
    ladder and solved by Newton steps on the exact slope of the truncated
    power where the density has a pdf, by bisection where it has none. If the
    budget cannot be spent under the cap, raises :class:`InfeasibleError`.
    """
    if peak <= 0:
        raise ValueError("peak power must be positive")
    xi_unc = st_water_level(density, budget)
    if peak >= xi_unc:
        return xi_unc, st_capacity(density, xi_unc)
    target = budget / density.m

    def residual(xi):
        # xi >= xi_unc > peak throughout. As xi grows the window [1/xi, u]
        # loses its top u = 1/(xi - peak), which takes the mass above u and
        # peak u^2 f(u) off the slope; without a pdf the step is left to bisection.
        u = 1.0 / (xi - peak)
        power, mass = _avg_power(density, xi, 1.0 / xi)
        top, top_mass = _avg_power(density, xi, u)
        slope = mass - top_mass - peak * u * u * density.pdf(u) if density.exact_pdf else None
        return power - top - target, slope

    # Beyond xi_unc the truncated power is not monotone (the spendable window
    # both rises with xi and loses its top). The recovery hump can be very
    # narrow when the cap barely binds, so the bracket is expanded on a fine
    # geometric ladder of relative offsets and the smallest root is taken.
    # The residual rises by at most 1 per unit of xi (the slope of the full
    # power is a tail mass, and the dropped power never falls), so no root
    # lies within -r0 of xi_unc. Rungs short of half that gap (the other half
    # is a margin for the round-off of the residual) are skipped.
    r0 = residual(xi_unc)[0]
    if r0 >= -1e-15 * target:
        xi = xi_unc
    else:
        xi = None
        ladder = np.geomspace(1e-9, 1e4, 80)
        for delta in ladder[ladder * xi_unc >= -0.5 * r0]:
            hi = xi_unc * (1.0 + delta)
            at_hi = residual(hi)
            if at_hi[0] >= 0:
                xi = _bracketed_root(residual, xi_unc, hi, at_hi, xtol=1e-13)
                break
        if xi is None:
            raise InfeasibleError(
                f"budget {budget} unreachable with peak power {peak}")
    rate = _avg_rate(density, xi, 1.0 / xi) - _avg_rate(density, xi, 1.0 / (xi - peak))
    return float(xi), float(density.m * rate)
