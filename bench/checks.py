"""The check of every op's output, run after the timed region.

Each op names its check as ``(kind, *args)``; :func:`run` calls
``check_<kind>(ctx, path, *args)`` on the op's output file. Checks compare
with :mod:`refs` and never call mimocap. A check returns a :class:`Verdict`:
pass or fail, and the op's contribution to the two quality metrics.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

import ops
import refs

#: check tolerances, reported with every result
TOLERANCES = {
    "closed_form_rtol": 1e-7,    # xi, capacity, rates, pdf/cdf against closed forms
    "exact_rtol": 1e-12,         # identities the package computes in one line (PAPR = m xi/gamma)
    "agree_sigmas": 4.0,         # Monte Carlo estimate against the benchmark's own estimate
    "inequality_sigmas": 3.0,    # one-sided inequalities that hold in expectation
    "mi_shortfall_rel": 1e-3,    # returned MI may fall this share below the reference MI
    "trace_atol": 1e-9,          # tr Q = 1, Hermitian and PSD within this
    "point_mass_mi_atol": 1e-9,  # point-mass MI is exact
    "quality_floor": 1e-9,       # water-filling errors below this read as this (reference resolution)
    "solver_resolution": 10_000,  # draws whose sampling noise the covariance quality figures forgive
    "noise_multiple": 3.0,       # a residual or shortfall below this multiple of that noise reads as it
}

#: evaluation pool sizes (benchmark-owned draws, fixed seed)
EVAL_POOL_2X2 = 400_000
EVAL_POOL_4X4 = 200_000
EVAL_POOL_WF = 100_000
BASELINE_DRAWS = 20_000


@dataclass
class Verdict:
    ok: bool
    note: str = ""
    kkt: float | None = None
    shortfall: float | None = None
    false_converged: bool = False
    detail: dict = field(default_factory=dict)  # raw figures behind kkt and shortfall


class Context:
    """Per-run cache of reference pools shared by several checks."""

    def __init__(self):
        self._cache = {}

    def get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


def run(ctx: Context, op: ops.Op, path: str) -> Verdict:
    kind, *args = op.check
    return globals()[f"check_{kind}"](ctx, path, *args)


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def read_csv(path: str) -> np.ndarray:
    """The table below the header row, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in row] for row in rows[1:]])


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rtol * abs(want) + atol


def _fail(note: str) -> Verdict:
    return Verdict(False, note)


def _floor(x: float) -> float:
    return max(x, TOLERANCES["quality_floor"])


# ---------------------------------------------------------------------------
# perfect side information: closed-form references
# ---------------------------------------------------------------------------

class OnOffRef:
    """m parallel channels, each on (gain 1) with probability p."""

    def __init__(self, m: int, p: float):
        self.m, self.p = m, p

    def power(self, xi: float) -> float:
        return self.p * max(xi - 1.0, 0.0)

    def water_level(self, gamma: float) -> float:
        return 1.0 + gamma / (self.m * self.p)

    def capacity(self, xi: float) -> float:
        return self.m * self.p * math.log(xi) if xi > 1.0 else 0.0

    def uniform_rate(self, gamma: float) -> float:
        return self.m * self.p * math.log1p(gamma / self.m)


def _density_ref(spec: tuple):
    kind, *args = spec
    return refs.WishartRef(*args) if kind == "wishart" else OnOffRef(*args)


def _papr_bound(ref, gamma: float) -> float:
    if isinstance(ref, refs.WishartRef) and ref.n > ref.m:
        return 1.0 + ref.m / (gamma * (ref.n - ref.m))  # E[1/lam] = 1/(n - m)
    return math.inf


def check_sweep(ctx, path, density: tuple, snr_grid: str) -> Verdict:
    """``waterfill`` on a closed-form or discrete density over an SNR grid."""
    ref, snr_db = _density_ref(density), ops.grid(snr_grid)
    rtol = TOLERANCES["closed_form_rtol"]
    t = read_csv(path)
    if t.shape != (snr_db.size, 5) or not np.all(np.isfinite(t[:, :4])):
        return _fail(f"bad table shape {t.shape} or non-finite entries")
    kkt = short = 0.0
    for (g, xi, cap, papr, bound), db in zip(t, snr_db):
        if not _close(g, 10 ** (db / 10), 1e-12):
            return _fail(f"gamma {g} is not {db} dB")
        xi_ref = ref.water_level(g)
        cap_ref = ref.capacity(xi_ref)
        if not _close(xi, xi_ref, rtol) or not _close(cap, cap_ref, rtol, 1e-12):
            return _fail(f"gamma {g}: xi {xi} / C {cap}, reference {xi_ref} / {cap_ref}")
        if not _close(papr, ref.m * xi / g, TOLERANCES["exact_rtol"]):
            return _fail(f"gamma {g}: PAPR {papr} is not m xi / gamma")
        if not _close(bound, _papr_bound(ref, g), rtol):
            return _fail(f"gamma {g}: PAPR bound {bound}, reference {_papr_bound(ref, g)}")
        if cap < ref.uniform_rate(g) * (1 - 1e-12):
            return _fail(f"gamma {g}: capacity below the uniform-power rate")
        kkt = max(kkt, abs(ref.power(xi) - g / ref.m) / (g / ref.m))
        short = max(short, abs(cap - cap_ref))
    if np.any(np.diff(t[:, 2]) <= 0):
        return _fail("capacity does not increase with SNR")
    return Verdict(True, kkt=_floor(kkt), shortfall=_floor(short))


def check_fig1(ctx, path) -> Verdict:
    ref = refs.WishartRef(1, 1)
    rtol = TOLERANCES["closed_form_rtol"]
    t = read_csv(path)
    short = 0.0
    for db, cap, const in t:
        g = 10 ** (db / 10)
        cap_ref = ref.capacity(ref.water_level(g))
        if not _close(cap, cap_ref, rtol, 1e-12) or not _close(const, ref.uniform_rate(g), rtol):
            return _fail(f"{db} dB: C {cap} / constant-power {const}, reference "
                         f"{cap_ref} / {ref.uniform_rate(g)}")
        if cap < const:
            return _fail(f"{db} dB: capacity below the constant-power rate")
        short = max(short, abs(cap - cap_ref))
    if np.any(np.diff(t[:, 1]) <= 0):
        return _fail("capacity does not increase with SNR")
    return Verdict(True, shortfall=_floor(short))


def check_fig5(ctx, path) -> Verdict:
    """PAPR in dB of m = 1, 2, 4: it must equal m xi / gamma at the exact xi."""
    t = read_csv(path)
    kkt = 0.0
    for row in t:
        g = 10 ** (row[0] / 10)
        for m, papr_db in zip((1, 2, 4), row[1:]):
            ref = refs.WishartRef(m, m)
            want = 10 * math.log10(m * ref.water_level(g) / g)
            if not _close(papr_db, want, 0.0, 1e-6):
                return _fail(f"{row[0]} dB, m={m}: PAPR {papr_db} dB, reference {want}")
            xi = g / m * 10 ** (papr_db / 10)
            kkt = max(kkt, abs(ref.power(xi) - g / m) / (g / m))
    return Verdict(True, kkt=_floor(kkt))


def check_fig6(ctx, path) -> Verdict:
    """Transmit-power density of Wishart 2x2: f(1/(xi-p))/(xi-p)^2 and atom F(1/xi)."""
    ref = refs.WishartRef(2, 2)
    rtol = TOLERANCES["closed_form_rtol"]
    t = read_csv(path)
    for db in np.unique(t[:, 0]):
        rows = t[t[:, 0] == db]
        xi = ref.water_level(10 ** (db / 10))
        pdf = ref.pdf(1.0 / (xi - rows[:, 1])) / (xi - rows[:, 1]) ** 2
        if not np.allclose(rows[:, 2], pdf, rtol=rtol, atol=1e-12):
            return _fail(f"{db} dB: power density differs from the closed form")
        if not np.allclose(rows[:, 3], ref.cdf(1.0 / xi), rtol=rtol, atol=1e-12):
            return _fail(f"{db} dB: zero-power atom differs from F(1/xi)")
    return Verdict(True)


def check_peak(ctx, path, gamma: float, peak: float) -> Verdict:
    ref = refs.WishartRef(1, 1)
    rtol = TOLERANCES["closed_form_rtol"]
    xi, rate = read_json(path)
    xi_unc = ref.water_level(gamma)
    if peak >= xi_unc:
        return _fail(f"cap {peak} is not below the unconstrained water level {xi_unc}")
    power, rate_ref = refs.rayleigh_peak_limited(xi, peak)
    if xi < xi_unc * (1 - rtol) or not _close(power, gamma, rtol):
        return _fail(f"xi {xi} (unconstrained {xi_unc}) spends {power}, budget {gamma}")
    if not _close(rate, rate_ref, rtol, 1e-12) or rate > ref.capacity(xi_unc) * (1 + rtol):
        return _fail(f"rate {rate}, reference {rate_ref}")
    return Verdict(True, kkt=_floor(abs(power - gamma) / gamma),
                   shortfall=_floor(abs(rate - rate_ref)))


def _baseline_stats(ctx, m: int, gamma: float):
    """Per-symbol baseline on the benchmark's own Wishart draws: its mean and
    standard deviation per draw, and the standard deviation of the uniform rate."""
    eigs = ctx.get(f"wishart-{m}", lambda: refs.WishartRef(m, m).sample_eigs(
        BASELINE_DRAWS, refs.eval_generator(f"wishart-{m}")))
    naive = refs.waterfill_rows(eigs, gamma)[1]
    uni = np.log1p(gamma / m * eigs).sum(axis=1)
    return naive.mean(), naive.std(ddof=1), uni.std(ddof=1)


def check_gains(ctx, path, m: int, samples: int) -> Verdict:
    """fig3/fig4: space-time and per-symbol gains over the uniform-power rate."""
    ref = refs.WishartRef(m, m)
    rtol = TOLERANCES["closed_form_rtol"]
    k_agree, k_ineq = TOLERANCES["agree_sigmas"], TOLERANCES["inequality_sigmas"]
    t = read_csv(path)
    kkt = short = 0.0
    for db, gain_st, gain_naive in t:
        g = 10 ** (db / 10)
        xi_ref = ref.water_level(g)
        cap_ref, uni = ref.capacity(xi_ref), ref.uniform_rate(g)
        if not _close(gain_st, cap_ref / uni, rtol) or gain_st < 1.0:
            return _fail(f"{db} dB: space-time gain {gain_st}, reference {cap_ref / uni}")
        naive = gain_naive * uni
        own, sd_naive, sd_uni = _baseline_stats(ctx, m, g)
        se = sd_naive / math.sqrt(samples)
        if naive > cap_ref + k_ineq * se:
            return _fail(f"{db} dB: per-symbol baseline {naive} exceeds capacity {cap_ref} + 3 SE")
        if naive < uni - k_ineq * sd_uni / math.sqrt(samples):
            return _fail(f"{db} dB: per-symbol baseline {naive} below the uniform rate {uni}")
        if abs(naive - own) > k_agree * sd_naive * math.sqrt(1 / samples + 1 / BASELINE_DRAWS):
            return _fail(f"{db} dB: per-symbol baseline {naive}, own estimate {own}")
        cap = gain_st * uni
        xi = scipy.optimize.brentq(lambda x: ref.capacity(x) - cap, xi_ref / 2, xi_ref * 2,
                                   xtol=1e-15, rtol=1e-15)
        kkt = max(kkt, abs(ref.power(xi) - g / m) / (g / m))
        short = max(short, abs(cap - cap_ref))
    return Verdict(True, kkt=_floor(kkt), shortfall=_floor(short))


def check_pooled(ctx, path, key: str, law: tuple, samples: int, snr_grid: str) -> Verdict:
    """``waterfill`` over an empirical pool of a Kronecker law.

    The benchmark draws its own pool, so values agree only statistically: the
    power constraint and capacity within 4 SE, and the two inequalities (the
    capacity is at least the per-symbol baseline and the uniform rate) within 3 SE.
    """
    snr_db = ops.grid(snr_grid)
    k_agree, k_ineq = TOLERANCES["agree_sigmas"], TOLERANCES["inequality_sigmas"]
    t = read_csv(path)
    if t.shape != (snr_db.size, 5) or not np.all(np.isfinite(t[:, :4])):
        return _fail(f"bad table shape {t.shape} or non-finite entries")
    eigs = ctx.get(key, lambda: refs.row_eigs(refs.kronecker_draws(
        *law, EVAL_POOL_WF, refs.eval_generator(key))))
    m = eigs.shape[1]
    scale = math.sqrt(1 / samples + 1 / EVAL_POOL_WF)
    t_dim = np.asarray(law[2]).shape[0]

    def se(cli_values, own_values):
        # the CLI's value comes from its own pool, independent of the benchmark's
        return math.sqrt(cli_values.var(ddof=1) / samples + own_values.var(ddof=1) / EVAL_POOL_WF)
    for g, xi, cap, papr, bound in t:
        with np.errstate(divide="ignore"):
            inv = np.where(eigs > 0, 1.0 / eigs, np.inf)
        power = np.maximum(xi - inv, 0.0).sum(axis=1) / m
        rate = np.log(np.maximum(xi * eigs, 1.0)).sum(axis=1)
        naive = refs.waterfill_rows(eigs, g)[1]
        uni = np.log1p(g / t_dim * eigs).sum(axis=1)
        if abs(power.mean() - g / m) > k_agree * power.std(ddof=1) * scale:
            return _fail(f"gamma {g}: xi {xi} spends {power.mean()} on the own pool, budget {g / m}")
        if abs(cap - rate.mean()) > k_agree * rate.std(ddof=1) * scale:
            return _fail(f"gamma {g}: capacity {cap}, own pool {rate.mean()}")
        if cap < naive.mean() - k_ineq * se(rate, naive):
            return _fail(f"gamma {g}: capacity {cap} below the per-symbol baseline {naive.mean()}")
        if cap < uni.mean() - k_ineq * se(rate, uni):
            return _fail(f"gamma {g}: capacity {cap} below the uniform rate {uni.mean()}")
        if not _close(papr, m * xi / g, TOLERANCES["exact_rtol"]) or bound < papr * (1 - 1e-12):
            return _fail(f"gamma {g}: PAPR {papr} / bound {bound} inconsistent with xi")
    if np.any(np.diff(t[:, 2]) <= 0):
        return _fail("capacity does not increase with SNR")
    return Verdict(True)


# ---------------------------------------------------------------------------
# statistical side information
# ---------------------------------------------------------------------------

def check_optimize(ctx, path, key: str, law, gamma: float, tol: float,
                   reference: str | None, method: str = "general") -> Verdict:
    """``optimize``: a valid Q whose MI is reported right, scored on the own pool.

    ``law`` is (mean, rx_corr, tx_corr) or a fixed matrix for a point mass.
    ``reference`` names the exact optimum to compare with: "point" (water-fill
    the eigenmodes), "iid" (Q = I/t), "diag" (best diagonal Q on the pool), or
    None (no reference; only the residual is scored).

    The quality figures are floored at ``noise_multiple`` times the noise of a
    Q solved on ``solver_resolution`` draws, however well: the residual at
    its noise (refs.stationarity_residual), the MI shortfall at the expected
    shortfall of the sample optimum (refs.sampling_gap, over the directions
    ``method`` searches). Below the floor a figure is sampling noise, which
    moves with any change of draw order; above it, the solve is worse than
    its sample allows.
    """
    k_noise, resolution = TOLERANCES["noise_multiple"], TOLERANCES["solver_resolution"]
    point = reference == "point"
    atol = TOLERANCES["trace_atol"]
    doc = read_json(path)
    q = _matrix(doc["q"])
    if not (np.all(np.isfinite(q)) and math.isfinite(doc["mi"]) and math.isfinite(doc["mi_se"])):
        return _fail("non-finite output")
    if (np.abs(q - q.conj().T).max() > atol or np.linalg.eigvalsh(q).min() < -atol
            or abs(np.trace(q).real - 1.0) > atol):
        return _fail("Q is not a unit-trace PSD Hermitian matrix")
    if point:
        s = refs.gram_pool(np.asarray(law)[None], gamma)
    else:
        n = EVAL_POOL_2X2 if q.shape[0] == 2 else EVAL_POOL_4X4
        h = ctx.get(key, lambda: refs.kronecker_draws(*law, n, refs.eval_generator(key)))
        s = ctx.get((key, gamma), lambda: refs.gram_pool(h, gamma))
    vals = refs.pool_mi_values(s, q)
    mi, se = vals.mean(), (vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0)
    if point:
        if abs(doc["mi"] - mi) > TOLERANCES["point_mass_mi_atol"]:
            return _fail(f"reported MI {doc['mi']}, exact {mi}")
    elif abs(doc["mi"] - mi) > TOLERANCES["agree_sigmas"] * math.hypot(doc["mi_se"], se):
        return _fail(f"reported MI {doc['mi']} +- {doc['mi_se']}, own pool {mi} +- {se}")
    resid, resid_se, resid_noise = refs.stationarity_residual(s, q, resolution=resolution)
    verdict = Verdict(True, kkt=max(resid, k_noise * resid_noise),
                      false_converged=bool(doc["converged"]) and resid > tol + 2 * resid_se,
                      detail={"resid": resid, "resid_se": resid_se, "resid_noise": resid_noise})
    if reference is None:
        return verdict
    if point:
        mi_ref = refs.point_mass_capacity(np.asarray(law), gamma)
        diff_se = gap = 0.0
    else:
        q_ref = np.eye(q.shape[0]) / q.shape[0] if reference == "iid" else \
            ctx.get((key, gamma, "best-diagonal"), lambda: refs.best_diagonal_2x2(s))
        diff = refs.pool_mi_values(s, q_ref) - vals
        mi_ref, diff_se = mi + diff.mean(), diff.std(ddof=1) / math.sqrt(len(diff))
        gap = ctx.get((key, gamma, method, "gap"), lambda: refs.sampling_gap(
            s, q_ref, diagonal=method == "diag", resolution=resolution))
    verdict.shortfall = max(mi_ref - mi, k_noise * gap, TOLERANCES["quality_floor"])
    verdict.detail.update(shortfall_raw=mi_ref - mi, diff_se=diff_se, gap=gap)
    limit = TOLERANCES["mi_shortfall_rel"] * mi_ref + TOLERANCES["inequality_sigmas"] * diff_se
    if mi_ref - mi > limit:
        verdict.ok, verdict.note = False, f"MI {mi} falls {mi_ref - mi} below the reference {mi_ref}"
    return verdict


def check_beamform(ctx, path, method: str, gamma: float) -> Verdict:
    rho, (tau1, tau2) = ops.BEAMFORM_RHO, ops.BEAMFORM_TAU
    doc = read_json(path)
    own = refs.beamform_margin(rho, tau1, tau2, gamma)
    if method == "closed":
        # the closed form is the same margin scaled by gamma tau1
        ok = _close(doc["margin"], gamma * tau1 * own, 1e-6, 1e-12)
    else:
        ok = abs(doc["margin"] - own) <= TOLERANCES["agree_sigmas"] * doc["margin_se"]
    if not ok or doc["optimal"] != (own > 0):
        return _fail(f"margin {doc['margin']} / optimal {doc['optimal']}, own margin {own}")
    return Verdict(True)


def check_boundary(ctx, path, gamma: float, rho_grid: str) -> Verdict:
    """The margin must change sign at each reported tau*, within +-1e-4."""
    t = read_csv(path)
    if t.shape != (ops.grid(rho_grid).size, 2):
        return _fail(f"bad table shape {t.shape}")
    for rho, tau in t:
        def margin(x):
            return refs.beamform_margin((rho, 2 - rho), x, 2 - x, gamma)
        if math.isnan(tau):
            ok = margin(2 - 1e-9) < 0
        elif tau <= 1 + 1e-8:
            ok = margin(1 + 1e-9) > 0
        else:
            ok = margin(tau - 1e-4) < 0 < margin(tau + 1e-4)
        if not ok:
            return _fail(f"rho {rho}: the margin does not change sign at tau* {tau}")
    return Verdict(True)
