"""Command-line surface: parse channel descriptors, run solvers, emit tables.

Subcommands
-----------
waterfill   space-time water-filling over an eigenvalue density: per SNR grid
            point emits the water level, capacity and PAPR figures.
optimize    covariance optimization (general Newton solver or the diagonal
            fixed point); emits Q, its eigenstructure, MI and the
            KKT residual, plus an optional iteration-trace CSV.
beamform    beamforming optimality verdict for a Kronecker channel, or the
            2x2 transition boundary sweep.
figures     batch driver regenerating the data tables behind fig1..fig12.

Exit codes: 0 ok, 2 usage/parse error, 3 infeasible problem, 4 numerical
failure. Non-convergence of an optimizer is NOT an error: results are still
emitted with "converged": false and a warning on stderr.

All randomness is counter-based from --seed (default 12345, never the clock),
so identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import analysis, channels, covopt, waterfill
from .channels import (
    EigDensity,
    KroneckerGaussian,
    PointMass,
    empirical_density,
    law_from_json,
    onoff_density,
    wishart_density,
)
from .covopt import OptimizerOptions
from .linalg import _circular_gaussian, _gauge, haar_unitary, herm_eig
from .montecarlo import SeededStream, ergodic_mi
from .waterfill import InfeasibleError

__all__ = ["main"]

DEFAULT_SEED = 12345
LN2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, channel: bool = True, solver: bool = True,
                unit: bool = True) -> None:
    if channel:
        p.add_argument("--channel", help="channel descriptor: a JSON file path or inline JSON")
    snr = p.add_mutually_exclusive_group()
    snr.add_argument("--snr-db",
                     help="SNR grid in dB as a:b:step, or a single value "
                          "(write --snr-db=-10:30:2 for negative starts)")
    snr.add_argument("--snr", type=float, help="single linear SNR")
    p.add_argument("--samples", type=_count("samples"), default=10_000,
                   help="Monte Carlo samples (at least 2)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (fixed default)")
    if solver:
        p.add_argument("--tol", type=float, default=1e-3, help="solver tolerance (> 0)")
        p.add_argument("--max-iter", type=int, default=500, help="iteration cap (>= 1)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if unit:
        p.add_argument("--unit", choices=("nats", "bits"), default="nats")


def _count(what: str):
    """argparse type of a count of at least 2 ``what``."""
    def count(text: str) -> int:
        n = int(text)
        if n < 2:
            raise argparse.ArgumentTypeError(f"need at least 2 {what}, got {n}")
        return n
    return count


def _grid(text: str) -> np.ndarray:
    """Points of an ``a:b:step`` grid (b included), or of a single value."""
    vals = [float(x) for x in text.split(":")]
    if len(vals) not in (1, 3) or not np.all(np.isfinite(vals)):
        raise ValueError(f"grid {text!r} must be a finite value or a:b:step")
    if len(vals) == 1:
        return np.array(vals)
    a, b, step = vals
    if step == 0:
        raise ValueError(f"grid {text!r} has a zero step")
    grid = np.arange(a, b + np.copysign(1e-9, step), step)
    if grid.size == 0:
        raise ValueError(f"empty grid {text!r}")
    return grid


def _solver_opts(args, pools: bool = True) -> OptimizerOptions:
    """Solver options from the common flags; ``ValueError`` on a bad tol or
    max_iter and, where the solver runs on ``pools``, on fewer than 10^3 samples."""
    opts = OptimizerOptions(tol=args.tol, max_iter=args.max_iter, samples=args.samples,
                            seed=args.seed)
    if pools and args.samples < 1000:
        raise ValueError(f"{getattr(args, 'figure', args.command)} needs at least 10^3 "
                         f"samples for its solver pools, got {args.samples}")
    return opts


def _snr_points(args, default: str | None = "0", single: bool = False):
    """SNR points as (dB, linear) arrays: from ``--snr`` or ``--snr-db``, else
    from the ``default`` dB grid. A default of None fixes the SNR at 1 and
    refuses both flags; ``single`` refuses more than one point."""
    name = getattr(args, "figure", args.command)
    if default is None and (args.snr is not None or args.snr_db is not None):
        raise ValueError(f"{name} runs at SNR 1 and takes no --snr or --snr-db")
    if args.snr is None:
        db = _grid(args.snr_db or default or "0")
        with np.errstate(over="ignore"):
            gammas = 10.0 ** (db / 10.0)
    else:
        db, gammas = None, np.array([args.snr])
    if not np.all(np.isfinite(gammas) & (gammas > 0)):
        raise ValueError("SNR must be finite and positive")
    if single and gammas.size != 1:
        raise ValueError(f"{name} expects a single SNR")
    return (10.0 * np.log10(gammas) if db is None else db), gammas


def _load_descriptor(text: str) -> dict:
    if text is None:
        raise ValueError("--channel is required for this command")
    t = text.strip()
    if t.startswith("{"):
        return json.loads(t)
    with open(text, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError("channel descriptor must be a JSON object")
    return desc


def _mode_count(desc: dict, key: str) -> int:
    """An integral field of a density descriptor: 2 and 2.0 pass, 2.9 does not."""
    value = channels._decode_field(desc, key, float)
    if not value.is_integer():
        raise ValueError(f"{desc['type']} descriptor field {key!r} must be an integer")
    return int(value)


def _density_from_descriptor(desc: dict, samples: int, seed: int) -> EigDensity:
    """Density source: explicit masses, closed Wishart forms, or a law pool."""
    kind = desc.get("type")
    if kind == "onoff":
        channels._require_keys(desc, ("m", "p"))
        return onoff_density(_mode_count(desc, "m"), channels._decode_field(desc, "p", float))
    if kind == "wishart":
        channels._require_keys(desc, ("m", "n"))
        return wishart_density(_mode_count(desc, "m"), _mode_count(desc, "n"))
    law = law_from_json(desc)
    if law.iid:
        with contextlib.suppress(ValueError):  # a shape the closed form refuses is pooled
            return wishart_density(min(law.shape), max(law.shape))
    pool = max(samples, 10_000)
    return empirical_density(law, pool, SeededStream(seed).generator())


def _rate_scale(unit: str) -> tuple[float, str]:
    return (1.0, "nats") if unit == "nats" else (1.0 / LN2, "bits")


def _write_rows(path, header, rows, fmt):
    if fmt == "csv":
        _write_csv(path, header, rows)
    else:
        payload = [dict(zip(header, row)) for row in rows]
        _write_text(path, json.dumps(payload, indent=2, allow_nan=True) + "\n")


def _write_csv(path, header, rows) -> None:
    """One pass over rows of Python floats and ints: ``repr`` writes a float as
    its shortest round-trip text, an int as an int."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


RESULT_SCHEMA = {
    "optimize": {"gamma", "mi", "mi_se", "unit", "kkt_residual", "converged",
                 "iterations", "q", "eigenvalues", "eigenvectors"},
    "beamform": {"optimal", "margin", "method"},
}


def validate_result(kind: str, obj: dict) -> None:
    """Round-trip schema check for emitted JSON results."""
    missing = RESULT_SCHEMA[kind] - set(obj)
    if missing:
        raise ValueError(f"result is missing keys: {sorted(missing)}")
    if kind == "optimize":
        q = np.asarray(obj["q"], dtype=float)
        if q.ndim != 3 or q.shape[2] != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q must be a square matrix of [re, im] pairs")
        if not isinstance(obj["converged"], bool):
            raise ValueError("converged must be boolean")
    if kind == "beamform" and not isinstance(obj["optimal"], bool):
        raise ValueError("optimal must be boolean")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_waterfill(args) -> int:
    desc = _load_descriptor(args.channel)
    density = _density_from_descriptor(desc, args.samples, args.seed)
    _, gammas = _snr_points(args)
    scale, unit = _rate_scale(args.unit)
    header = ["gamma", "xi", f"capacity_{unit}", "papr_exact", "papr_bound"]
    rows = []
    for g, bound in zip(gammas, waterfill.papr_bound(density, gammas)):
        xi = waterfill.st_water_level(density, g)
        cap = waterfill.st_capacity(density, xi) * scale
        rows.append([float(g), float(xi), float(cap),
                     float(waterfill.papr(xi, g, density.m)), float(bound)])
    _write_rows(args.out, header, rows, args.format)
    return 0


def cmd_optimize(args) -> int:
    opts = _solver_opts(args)
    law = law_from_json(_load_descriptor(args.channel))
    gamma = float(_snr_points(args, single=True)[1][0])
    if args.method == "diag":
        basis = law.diag_basis
        if basis is None:
            raise ValueError("no a-priori diagonalizing basis for this law; use --method general")
        res = covopt.fixed_point_diag(law, gamma, basis, opts)
    else:
        res = covopt.iterate_general(law, gamma, opts)
    if not res.converged:
        print("warning: optimizer did not reach tolerance; "
              "emitting the last iterate", file=sys.stderr)
    scale, unit = _rate_scale(args.unit)
    u, lam = herm_eig(res.q)
    doc = {
        "gamma": gamma,
        "mi": res.mi.mean * scale,
        "mi_se": res.mi.se * scale,
        "unit": unit,
        "kkt_residual": res.kkt_residual,
        "converged": res.converged,
        "iterations": res.iterations,
        "q": channels._matrix_to_json(res.q),
        "eigenvalues": [float(x) for x in lam],
        "eigenvectors": channels._matrix_to_json(_gauge(u, lam)),
    }
    validate_result("optimize", doc)
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    if args.trace_out:
        rows = [[i + 1, float(mi) * scale, float(r)] for i, (mi, r)
                in enumerate(zip(res.mi_trace, res.residual_trace))]
        _write_csv(args.trace_out, ["iter", f"mi_{unit}", "residual"], rows)
    return 0


def cmd_beamform(args) -> int:
    gamma = float(_snr_points(args, single=True)[1][0])
    if args.boundary:
        curve = analysis.beamform_boundary(gamma, _grid(args.rho_grid))
        _write_rows(args.out, ["rho", "tau_star"],
                    [[float(r), float(t)] for r, t in curve], args.format)
        return 0
    desc = _load_descriptor(args.channel)
    law = law_from_json(desc)
    if desc["type"] != "kronecker" or not np.allclose(law.mean, 0):
        raise ValueError("beamforming verdicts need a zero-mean kronecker descriptor")
    analysis._check_normalization(law.rx_corr, law.tx_corr)
    if args.method == "mc":
        v = analysis.beamform_opt_mc(law.rx_corr, law.tx_corr, gamma,
                                     args.samples, SeededStream(args.seed))
        doc = {"optimal": v.optimal, "margin": v.margin, "method": v.method,
               "margin_se": v.se}
    else:
        rho = np.linalg.eigvalsh(law.rx_corr)
        taus = np.sort(np.linalg.eigvalsh(law.tx_corr))[::-1]
        v = analysis.beamform_opt_closed(rho, taus[0], taus[1], gamma)
        doc = {"optimal": v.optimal, "margin": v.margin, "method": v.method}
    validate_result("beamform", doc)
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# figure data tables
# ---------------------------------------------------------------------------

def _uniform_rate(density: EigDensity, gamma: float) -> float:
    """Rate with Q = I/t (equal power, no channel knowledge at the transmitter)."""
    return density.m * density.log1p_moment(gamma / density.m)


# A recipe maps (args, dB points, linear points, rate scale, unit) to one
# figure's (header, rows); those that solve take their options from _solver_opts.

def _fig1(args, dbs, gammas, scale, unit):
    dens = wishart_density(1, 1)
    rows = [[float(db), waterfill.st_capacity(dens, waterfill.st_water_level(dens, g)) * scale,
             dens.log1p_moment(g) * scale] for db, g in zip(dbs, gammas)]
    return ["snr_db", f"capacity_{unit}", f"const_power_rate_{unit}"], rows


def _rayleigh_rates(args, m: int, dbs, gammas):
    """Per SNR point on m x m Rayleigh: (dB, capacity, per-symbol rate, Q = I/t rate)."""
    dens = wishart_density(m, m)
    stream = SeededStream(args.seed)
    for k, (db, g) in enumerate(zip(dbs, gammas)):
        xi = waterfill.st_water_level(dens, g)
        st = waterfill.st_capacity(dens, xi)
        naive = waterfill.naive_avg_rate(dens, g, samples=args.samples,
                                         rng=stream.child(k))
        yield float(db), st, naive, _uniform_rate(dens, g)


def _fig2(args, dbs, gammas, scale, unit):
    rows = [[db, st * scale, naive * scale, uni * scale]
            for db, st, naive, uni in _rayleigh_rates(args, 2, dbs, gammas)]
    return ["snr_db", f"capacity_{unit}", f"space_waterfill_{unit}", f"uniform_{unit}"], rows


def _gains(m: int, args, dbs, gammas, scale, unit):
    """fig3 (m = 2) and fig4 (m = 4): both water-fillings' gains over Q = I/t."""
    rows = [[db, st / uni, naive / uni]
            for db, st, naive, uni in _rayleigh_rates(args, m, dbs, gammas)]
    return ["snr_db", "gain_space_time", "gain_space"], rows


def _fig5(args, dbs, gammas, scale, unit):
    rows = []
    for db, g in zip(dbs, gammas):
        row = [float(db)]
        for m in (1, 2, 4):
            xi = waterfill.st_water_level(wishart_density(m, m), g)
            row.append(float(10 * np.log10(waterfill.papr(xi, g, m))))
        rows.append(row)
    return ["snr_db", "papr_db_m1", "papr_db_m2", "papr_db_m4"], rows


def _fig6(args, dbs, gammas, scale, unit):
    dens = wishart_density(2, 2)
    blocks = []
    for db, g in zip(dbs, gammas):
        xi = waterfill.st_water_level(dens, g)
        pd = waterfill.power_density(dens, xi, np.linspace(xi * 1e-3, xi * 0.999, 200))
        blocks.append(np.column_stack(np.broadcast_arrays(db, pd.grid, pd.pdf, pd.atom0)))
    return ["snr_db", "power", "pdf", "atom0"], np.concatenate(blocks).tolist()


def _tau_corr(tau: float, n: int) -> np.ndarray:
    """The n x n transmit correlation tau 1 1^T + (1 - tau) I; ``ValueError`` unless PSD."""
    if not -1.0 / (n - 1) <= tau <= 1.0:
        raise ValueError(f"--tau must lie in [-1/(n-1), 1] = [{-1 / (n - 1):g}, 1], got {tau}")
    return tau * np.ones((n, n)) + (1 - tau) * np.eye(n)


def _fig7(args, dbs, gammas, scale, unit):
    stream = SeededStream(args.seed)
    opts = replace(_solver_opts(args), final_samples=max(args.samples, 20_000))
    rows = []
    for n, t_corr in [(n, _tau_corr(args.tau, n)) for n in (2, 3)]:
        mean = np.zeros((n, n), dtype=complex)
        mean[0, 0] = n
        law = KroneckerGaussian(mean, np.eye(n), t_corr)
        for k, (db, g) in enumerate(zip(dbs, gammas)):
            res = covopt.iterate_general(law, g, opts)
            qa, _ = analysis.wishart_approx_covariance(mean, t_corr, g, opts)
            mi_a = ergodic_mi(qa, law, g, opts.final_samples, stream.child(100 + k))
            rows.append([n, float(db), res.mi.mean * scale, mi_a.mean * scale])
    return ["n", "snr_db", f"capacity_{unit}", f"mi_approx_{unit}"], rows


def _fig8(args, dbs, gammas, scale, unit):
    rows = [[float(db), float(rho), float(tau_star)] for db, g in zip(dbs, gammas)
            for rho, tau_star in analysis.beamform_boundary(g, _grid("1.0:1.95:0.05"))]
    return ["snr_db", "rho", "tau_star"], rows


def _fig9(args, dbs, gammas, scale, unit):
    cap = float(np.log(2.5) + np.log(1.25))
    opts = replace(_solver_opts(args), tol=1e-7)
    gen = SeededStream(args.seed).generator()
    rows = []
    for k in range(5):
        u = haar_unitary(2, gen)
        h = (u * np.sqrt([2.0, 1.0])) @ u.conj().T
        for i, mi in enumerate(covopt._cholesky_map_trace(PointMass(h), gammas[0], opts)):
            rows.append([k, i + 1, (cap - float(mi)) * scale])
    return ["unitary", "iter", f"capacity_gap_{unit}"], rows


def _fig10(args, dbs, gammas, scale, unit):
    n = args.size
    t_corr = _tau_corr(args.tau, n)
    opts = _solver_opts(args)
    gen = SeededStream(args.seed).generator()
    rows = []
    for trial in range(3):
        mu = _circular_gaussian(gen, n)
        mean = np.outer(mu, mu.conj())
        mean *= np.sqrt(n) / np.linalg.norm(mean)
        law = KroneckerGaussian(mean, np.eye(n), t_corr)
        trace = covopt._cholesky_map_trace(law, gammas[0], replace(opts, seed=args.seed + trial))
        best = max(trace)
        for i, mi in enumerate(trace):
            rows.append([trial, i + 1, float(best - mi) * scale])
    return ["trial", "iter", f"mi_gap_{unit}"], rows


def _interp_points(args, gammas):
    """fig11/fig12's solves from noise diag(4, 1) to the mean [[0, 1], [1, 1]]."""
    m0 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
    sig = np.diag([4.0, 1.0]).astype(complex)
    kappas = np.linspace(0.0, 1.0, args.kappa_points)
    return analysis.interp_study(m0, sig, kappas, gammas[0], _solver_opts(args))


def _fig11(args, dbs, gammas, scale, unit):
    # v.T.ravel() is (v1_x, v1_y, v2_x, v2_y); its float view interleaves re and im
    rows = [[p.kappa, *p.eigvecs.T.ravel().view(float).tolist(), p.angle_vs_gram]
            for p in _interp_points(args, gammas)]
    return ["kappa", *(f"v{k}_{x}_{part}" for k in (1, 2) for x in "xy" for part in ("re", "im")),
            "angle_vs_gram_rad"], rows


def _fig12(args, dbs, gammas, scale, unit):
    rows = [[p.kappa, float(p.powers[0]), float(p.powers[1])] for p in _interp_points(args, gammas)]
    return ["kappa", "q1", "q2"], rows


#: each figure: (default dB grid, whether it takes one SNR point only, recipe);
#: a grid of None fixes the SNR at 1 and refuses --snr and --snr-db
_FIGURES = {
    "fig1": ("-10:30:2", False, _fig1), "fig2": ("-10:30:2", False, _fig2),
    "fig3": ("-10:30:2", False, functools.partial(_gains, 2)),
    "fig4": ("-10:30:2", False, functools.partial(_gains, 4)),
    "fig5": ("-10:20:1", False, _fig5), "fig6": ("-10:10:5", False, _fig6),
    "fig7": ("-10:20:5", False, _fig7), "fig8": ("-15:15:5", False, _fig8),
    "fig9": (None, False, _fig9), "fig10": (None, False, _fig10),
    "fig11": ("0", True, _fig11), "fig12": ("0", True, _fig12),
}


def cmd_figures(args) -> int:
    grid, single, recipe = _FIGURES[args.figure]
    dbs, gammas = _snr_points(args, grid, single)
    _solver_opts(args, pools=False)  # every figure rejects a bad --tol or --max-iter
    header, rows = recipe(args, dbs, gammas, *_rate_scale(args.unit))
    _write_rows(args.out, header, rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process: each build formats every argument
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mimocap",
        description="Capacity and optimal transmit covariance for ergodic MIMO channels")
    sub = p.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("waterfill", help="space-time water-filling over a density")
    _add_common(pw, solver=False)
    pw.set_defaults(fn=cmd_waterfill)

    po = sub.add_parser("optimize", help="optimal transmit covariance", description=(
        "Point and mixture laws, and zero-mean Kronecker laws with rx_corr = c I, t <= r, "
        "t <= 5 and r <= 16, are solved exactly: mi_se is 0 and --samples and --seed go unused."))
    _add_common(po)
    po.add_argument("--method", choices=("general", "diag"), default="general")
    po.add_argument("--trace-out", help="write the iteration trace CSV here")
    po.set_defaults(fn=cmd_optimize)

    pb = sub.add_parser("beamform", help="beamforming optimality tests")
    _add_common(pb, solver=False, unit=False)
    pb.add_argument("--method", choices=("closed", "mc"), default="closed")
    pb.add_argument("--boundary", action="store_true",
                    help="emit the 2x2 transition boundary instead of a verdict")
    pb.add_argument("--rho-grid", default="1.0:1.9:0.1",
                    help="rho sweep a:b:step for boundary mode")
    pb.set_defaults(fn=cmd_beamform)

    pf = sub.add_parser("figures", help="regenerate figure data tables")
    pf.add_argument("--figure", required=True, choices=list(_FIGURES))
    _add_common(pf, channel=False)
    pf.add_argument("--tau", type=float, default=0.5,
                    help="off-diagonal transmit correlation for fig7/fig10")
    pf.add_argument("--size", type=_count("antennas"), default=5,
                    help="matrix size for fig10 (at least 2)")
    pf.add_argument("--kappa-points", type=_count("points"), default=11,
                    help="interpolation grid size for fig11/fig12 (at least 2)")
    pf.set_defaults(fn=cmd_figures)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
