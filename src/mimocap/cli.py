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
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import analysis, channels, covopt, waterfill
from .channels import (
    ChannelLaw,
    EigDensity,
    KroneckerGaussian,
    PointMass,
    empirical_density,
    law_from_json,
    onoff_density,
    wishart_density,
)
from .covopt import OptimizerOptions
from .linalg import haar_unitary, herm_eig
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
    p.add_argument("--samples", type=_sample_count, default=10_000,
                   help="Monte Carlo samples (at least 2)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (fixed default)")
    if solver:
        p.add_argument("--tol", type=float, default=1e-3, help="solver tolerance (> 0)")
        p.add_argument("--max-iter", type=int, default=500, help="iteration cap (>= 1)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if unit:
        p.add_argument("--unit", choices=("nats", "bits"), default="nats")


def _sample_count(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {n}")
    return n


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


def _solver_opts(args) -> OptimizerOptions:
    """Solver options from the common flags; ``ValueError`` on a bad tol or max_iter."""
    return OptimizerOptions(tol=args.tol, max_iter=args.max_iter, samples=args.samples,
                            seed=args.seed)


def _parse_snr(args) -> np.ndarray:
    if args.snr is not None:
        gammas = np.array([args.snr])
    elif args.snr_db is None:
        return np.array([1.0])
    else:
        with np.errstate(over="ignore"):
            gammas = 10.0 ** (_grid(args.snr_db) / 10.0)
    if not np.all(np.isfinite(gammas) & (gammas > 0)):
        raise ValueError("SNR must be finite and positive")
    return gammas


def _load_descriptor(text: str) -> dict:
    if text is None:
        raise ValueError("--channel is required for this command")
    t = text.strip()
    if t.startswith("{"):
        return json.loads(t)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    iid = False
    if isinstance(law, KroneckerGaussian):
        iid = (np.allclose(law.mean, 0) and np.allclose(law.rx_corr, np.eye(law.rx))
               and np.allclose(law.tx_corr, np.eye(law.tx)))
    elif isinstance(law, channels.MatrixGaussian):
        iid = np.allclose(law.mean, 0) and np.allclose(law.cov, np.eye(law.rx * law.tx))
    if iid:
        m, n = min(law.shape), max(law.shape)
        return wishart_density(m, n)
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
    def dump(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(c) for c in row])

    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            dump(fh)
    else:
        dump(sys.stdout)


def _fmt_cell(c):
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, (int, np.integer)):
        return int(c)
    return c


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
    gammas = _parse_snr(args)
    scale, unit = _rate_scale(args.unit)
    header = ["gamma", "xi", f"capacity_{unit}", "papr_exact", "papr_bound"]
    rows = []
    for g in gammas:
        xi = waterfill.st_water_level(density, g)
        cap = waterfill.st_capacity(density, xi) * scale
        rows.append([float(g), float(xi), float(cap),
                     waterfill.papr(xi, g, density.m),
                     waterfill.papr_bound(density, g)])
    _write_rows(args.out, header, rows, args.format)
    return 0


def _diag_basis(law: ChannelLaw) -> np.ndarray:
    if isinstance(law, PointMass):
        u, _ = herm_eig(law.h0.conj().T @ law.h0)
        return u
    if isinstance(law, KroneckerGaussian) and np.allclose(law.mean, 0):
        u, _ = herm_eig(law.tx_corr)
        return u
    raise ValueError("no a-priori diagonalizing basis for this law; use --method general")


def cmd_optimize(args) -> int:
    opts = _solver_opts(args)
    if args.samples < 1000:
        raise ValueError(f"optimize needs at least 10^3 samples for its solver pools, "
                         f"got {args.samples}")
    law = law_from_json(_load_descriptor(args.channel))
    gammas = _parse_snr(args)
    if gammas.size != 1:
        raise ValueError("optimize expects a single SNR")
    gamma = float(gammas[0])
    if not np.any(channels.expected_gram(law)):
        raise InfeasibleError("zero channel: the capacity is 0 and every covariance is optimal")
    if args.method == "diag":
        res = covopt.fixed_point_diag(law, gamma, _diag_basis(law), opts)
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
        "eigenvectors": channels._matrix_to_json(u),
    }
    validate_result("optimize", doc)
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    if args.trace_out:
        rows = [[i + 1, float(mi) * scale, float(r)] for i, (mi, r)
                in enumerate(zip(res.mi_trace, res.residual_trace))]
        _write_csv(args.trace_out, ["iter", f"mi_{unit}", "residual"], rows)
    return 0


def cmd_beamform(args) -> int:
    gammas = _parse_snr(args)
    if gammas.size != 1:
        raise ValueError("beamform expects a single SNR")
    gamma = float(gammas[0])
    if args.boundary:
        curve = analysis.beamform_boundary(gamma, _grid(args.rho_grid))
        _write_rows(args.out, ["rho", "tau_star"],
                    [[float(r), float(t)] for r, t in curve], args.format)
        return 0
    law = law_from_json(_load_descriptor(args.channel))
    if not isinstance(law, KroneckerGaussian) or not np.allclose(law.mean, 0):
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


def _rayleigh_rates(args, m: int):
    """Per SNR point on m x m Rayleigh: (dB, capacity, per-symbol rate, Q = I/t rate)."""
    dens = wishart_density(m, m)
    stream = SeededStream(args.seed)
    for k, db in enumerate(_grid(args.snr_db or "-10:30:2")):
        g = 10 ** (db / 10.0)
        xi = waterfill.st_water_level(dens, g)
        st = waterfill.st_capacity(dens, xi)
        naive = waterfill.naive_avg_rate(dens, g, samples=args.samples,
                                         rng=stream.child(k))
        yield float(db), st, naive, _uniform_rate(dens, g)


def _figure_table(fig: str, args):
    scale, unit = _rate_scale(args.unit)
    stream = SeededStream(args.seed)
    opts = _solver_opts(args)  # every figure rejects a bad --tol or --max-iter
    if fig == "fig1":
        grid_db = _grid(args.snr_db or "-10:30:2")
        dens = wishart_density(1, 1)
        rows = []
        for db in grid_db:
            g = 10 ** (db / 10.0)
            xi = waterfill.st_water_level(dens, g)
            cap = waterfill.st_capacity(dens, xi) * scale
            const = dens.log1p_moment(g) * scale
            rows.append([float(db), cap, const])
        return ["snr_db", f"capacity_{unit}", f"const_power_rate_{unit}"], rows
    if fig == "fig2":
        rows = [[db, st * scale, naive * scale, uni * scale]
                for db, st, naive, uni in _rayleigh_rates(args, 2)]
        return ["snr_db", f"capacity_{unit}", f"space_waterfill_{unit}",
                f"uniform_{unit}"], rows
    if fig in ("fig3", "fig4"):
        rows = [[db, st / uni, naive / uni]
                for db, st, naive, uni in _rayleigh_rates(args, 2 if fig == "fig3" else 4)]
        return ["snr_db", "gain_space_time", "gain_space"], rows
    if fig == "fig5":
        grid_db = _grid(args.snr_db or "-10:20:1")
        rows = []
        for db in grid_db:
            g = 10 ** (db / 10.0)
            row = [float(db)]
            for m in (1, 2, 4):
                dens = wishart_density(m, m)
                xi = waterfill.st_water_level(dens, g)
                row.append(10 * np.log10(waterfill.papr(xi, g, m)))
            rows.append(row)
        return ["snr_db", "papr_db_m1", "papr_db_m2", "papr_db_m4"], rows
    if fig == "fig6":
        dens = wishart_density(2, 2)
        rows = []
        for db in (-10, -5, 0, 5, 10):
            g = 10 ** (db / 10.0)
            xi = waterfill.st_water_level(dens, g)
            grid = np.linspace(xi * 1e-3, xi * 0.999, 200)
            pd = waterfill.power_density(dens, xi, grid)
            for p, f in zip(pd.grid, pd.pdf):
                rows.append([float(db), float(p), float(f), pd.atom0])
        return ["snr_db", "power", "pdf", "atom0"], rows
    if fig == "fig7":
        grid_db = _grid(args.snr_db or "-10:20:5")
        tau = args.tau
        rows = []
        opts = replace(opts, final_samples=max(args.samples, 20_000))
        for n in (2, 3):
            t_corr = tau * np.ones((n, n)) + (1 - tau) * np.eye(n)
            mean = np.zeros((n, n), dtype=complex)
            mean[0, 0] = n
            law = KroneckerGaussian(mean, np.eye(n), t_corr)
            for k, db in enumerate(grid_db):
                g = 10 ** (db / 10.0)
                res = covopt.iterate_general(law, g, opts)
                qa, _ = analysis.wishart_approx_covariance(mean, t_corr, g, opts)
                mi_a = ergodic_mi(qa, law, g, opts.final_samples, stream.child(100 + k))
                rows.append([n, float(db), res.mi.mean * scale, mi_a.mean * scale])
        return ["n", "snr_db", f"capacity_{unit}", f"mi_approx_{unit}"], rows
    if fig == "fig8":
        rows = []
        for db in (-15, -10, -5, 0, 5, 10, 15):
            g = 10 ** (db / 10.0)
            curve = analysis.beamform_boundary(g, _grid("1.0:1.95:0.05"))
            for rho, tau_star in curve:
                rows.append([float(db), float(rho), float(tau_star)])
        return ["snr_db", "rho", "tau_star"], rows
    if fig == "fig9":
        cap = float(np.log(2.5) + np.log(1.25))
        rows = []
        gen = stream.generator()
        for k in range(5):
            u = haar_unitary(2, gen)
            h = (u * np.sqrt([2.0, 1.0])) @ u.conj().T
            trace = covopt._cholesky_map_trace(PointMass(h), 1.0, replace(opts, tol=1e-7))
            for i, mi in enumerate(trace):
                rows.append([k, i + 1, (cap - float(mi)) * scale])
        return ["unitary", "iter", f"capacity_gap_{unit}"], rows
    if fig == "fig10":
        n = args.size
        tau = args.tau
        t_corr = tau * np.ones((n, n)) + (1 - tau) * np.eye(n)
        gen = stream.generator()
        rows = []
        for trial in range(3):
            mu = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / np.sqrt(2)
            mean = np.outer(mu, mu.conj())
            mean *= np.sqrt(n) / np.linalg.norm(mean)
            law = KroneckerGaussian(mean, np.eye(n), t_corr)
            trace = covopt._cholesky_map_trace(law, 1.0,
                                               replace(opts, seed=args.seed + trial))
            best = max(trace)
            for i, mi in enumerate(trace):
                rows.append([trial, i + 1, (best - float(mi)) * scale])
        return ["trial", "iter", f"mi_gap_{unit}"], rows
    if fig in ("fig11", "fig12"):
        m0 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
        sig = np.diag([4.0, 1.0]).astype(complex)
        kappas = np.linspace(0.0, 1.0, args.kappa_points)
        pts = analysis.interp_study(m0, sig, kappas, _parse_snr(args)[0], opts)
        rows = []
        if fig == "fig11":
            for p in pts:
                v = p.eigvecs
                rows.append([p.kappa,
                             float(v[0, 0].real), float(v[0, 0].imag),
                             float(v[1, 0].real), float(v[1, 0].imag),
                             float(v[0, 1].real), float(v[0, 1].imag),
                             float(v[1, 1].real), float(v[1, 1].imag),
                             p.angle_vs_gram])
            return ["kappa", "v1_x_re", "v1_x_im", "v1_y_re", "v1_y_im",
                    "v2_x_re", "v2_x_im", "v2_y_re", "v2_y_im",
                    "angle_vs_gram_rad"], rows
        for p in pts:
            rows.append([p.kappa, float(p.powers[0]), float(p.powers[1])])
        return ["kappa", "q1", "q2"], rows
    raise ValueError(f"unknown figure id {fig!r}")


def cmd_figures(args) -> int:
    header, rows = _figure_table(args.figure, args)
    _write_rows(args.out, header, rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mimocap",
        description="Capacity and optimal transmit covariance for ergodic MIMO channels")
    sub = p.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("waterfill", help="space-time water-filling over a density")
    _add_common(pw, solver=False)
    pw.set_defaults(fn=cmd_waterfill)

    po = sub.add_parser("optimize", help="optimal transmit covariance", description=(
        "Zero-mean Kronecker laws with rx_corr = c I, t <= r, t <= 5 and r <= 16 are "
        "solved on their closed-form MI: mi_se is 0 and --samples and --seed go unused."))
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
    pf.add_argument("--figure", required=True,
                    choices=[f"fig{i}" for i in range(1, 13)])
    _add_common(pf, channel=False)
    pf.add_argument("--tau", type=float, default=0.5,
                    help="off-diagonal transmit correlation for fig7/fig10")
    pf.add_argument("--size", type=int, default=5, help="matrix size for fig10")
    pf.add_argument("--kappa-points", type=int, default=11,
                    help="interpolation grid size for fig11/fig12")
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
