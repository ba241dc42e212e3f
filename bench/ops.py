"""The three workloads: their fixed op lists, made from the workload seed.

An op is one closed-loop call: ``mimocap.cli.main(argv)`` with ``--out`` set
to a file, or one public library call where the CLI does not expose the
computation (its return value is written to the file as JSON). Each op names
the check of its output as ``(kind, *args)``; :mod:`checks` runs it after the
timed region.

This module imports only json and numpy, so that building the inputs
(probe.py, the set-up a CLI user pays) loads nothing mimocap does not load
itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: seed of every stat-csi solve: the CLI's default. The diagonal solve's
#: iteration count ranges over 80-500 with the seed (1.2-9.8 s), which no
#: affordable run length averages out, so the workload seed does not reach it.
SOLVER_SEED = 12345

#: peak-limited Rayleigh m=1 ops: (gamma, share, cap) with cap = share times the
#: unconstrained water level xi(gamma); test_bench.py checks them against refs
PEAK_CAPS = ((0.1, 0.9, 0.7717752040686633), (0.5, 0.95, 1.651187896842394),
             (1.0, 0.95, 2.4125523113175524), (2.0, 0.99, 3.8695853836571557),
             (5.0, 0.99, 7.428285843713933), (10.0, 0.99, 12.897484106245063))

#: normalized zero-mean Kronecker law of the beamforming verdicts: R, T diagonal
BEAMFORM_RHO, BEAMFORM_TAU = (1.2, 0.8), (1.6, 0.4)


@dataclass
class Op:
    name: str
    check: tuple                  # (kind, *args): checks.check_<kind>(ctx, path, *args)
    argv: list | None = None      # CLI op: argv without --out
    call: Callable | None = None  # library op: returns a JSON-able value
    call_text: str = ""           # the library call, as recorded with the result


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def circular_gaussian(gen: np.random.Generator, shape) -> np.ndarray:
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(circular_gaussian(gen, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def grid(spec: str) -> np.ndarray:
    """The points of an ``a:b:step`` grid, as the CLI reads it."""
    a, b, step = (float(x) for x in spec.split(":"))
    return np.arange(a, b + 1e-9, step)


def _mat(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def kronecker_json(mean, rx_corr, tx_corr) -> str:
    return json.dumps({"type": "kronecker", "mean": _mat(mean),
                       "rx_corr": _mat(rx_corr), "tx_corr": _mat(tx_corr)})


def _peak_call(gamma: float, peak: float) -> Callable:
    def call():
        from mimocap import channels, waterfill
        xi, rate = waterfill.peak_limited_rate(channels.wishart_density(1, 1), gamma, peak)
        return [xi, rate]
    return call


def wf_density(seed: int) -> list:
    """Perfect side information over closed-form and discrete densities.

    Quadrature moment queries do nearly all the work and nothing is sampled,
    so the seed reaches only ``--seed``. Grids are 4 dB (fig5 3 dB) so that a
    job takes about 6 s and a run holds several jobs.
    """
    sweep = "-10:30:4"
    seed_arg = ["--seed", str(seed)]
    ops = []
    for m, n in ((1, 1), (2, 2), (4, 4), (2, 4)):
        desc = json.dumps({"type": "wishart", "m": m, "n": n})
        ops.append(Op(f"waterfill-wishart-{m}x{n}", ("sweep", ("wishart", m, n), sweep),
                      ["waterfill", "--channel", desc, f"--snr-db={sweep}"] + seed_arg))
    ops.append(Op("waterfill-onoff-2", ("sweep", ("onoff", 2, 0.4), sweep),
                  ["waterfill", "--channel", json.dumps({"type": "onoff", "m": 2, "p": 0.4}),
                   f"--snr-db={sweep}"] + seed_arg))
    for fig, fig_grid in (("fig1", sweep), ("fig5", "-10:20:3"), ("fig6", None)):
        grid_arg = [f"--snr-db={fig_grid}"] if fig_grid else []
        ops.append(Op(f"figures-{fig}", (fig,), ["figures", "--figure", fig] + grid_arg + seed_arg))
    for gamma, _, peak in PEAK_CAPS:
        ops.append(Op(f"peak-limited-g{gamma:g}", ("peak", gamma, peak),
                      call=_peak_call(gamma, peak),
                      call_text=f"waterfill.peak_limited_rate(wishart_density(1, 1), {gamma!r}, {peak!r})"))
    return ops


def _ricean_4x4():
    mean = np.zeros((4, 4), dtype=complex)
    mean[0, 0] = 4.0
    return mean, np.eye(4), 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4)


def wf_draws(seed: int) -> list:
    """Perfect side information that needs each draw's joint eigenvalues.

    fig3/fig4 water-fill 10^4 sampled Wishart rows per SNR point one by one,
    on an 8 dB grid to keep a job near 6 s. Each point is an op of its own
    (about 0.5 s), so that a job's time is the sum of a dozen per-op medians
    rather than of two 3 s ones. The pooled laws draw 2x10^4 channels.
    """
    seed_arg = ["--seed", str(seed)]
    pooled_grid, samples = "-10:30:2", 20_000
    ops = [Op(f"figures-fig{f}-{db:g}dB", ("gains", m, 10_000),
              ["figures", "--figure", f"fig{f}", f"--snr-db={db:g}:{db:g}:1"] + seed_arg)
           for f, m in ((3, 2), (4, 4)) for db in grid("-10:30:8")]
    laws = {
        "kronecker-2x2": (np.zeros((2, 2)), np.array([[1.0, 0.6], [0.6, 1.0]]),
                          np.array([[1.0, 0.5], [0.5, 1.0]])),
        "ricean-4x4": _ricean_4x4(),
    }
    for key, law in laws.items():
        ops.append(Op(f"waterfill-{key}", ("pooled", key, law, samples, pooled_grid),
                      ["waterfill", "--channel", kronecker_json(*law), f"--snr-db={pooled_grid}",
                       "--samples", str(samples)] + seed_arg))
    return ops


def stat_csi(seed: int) -> list:
    """Statistical side information: covariance solves and beamforming verdicts.

    The solves use SOLVER_SEED; the seed sets the point-mass channel and the
    Monte Carlo beamforming draws. The low-SNR diagonal case T = diag(0.471,
    1.529), which runs 15-19 s without converging, is left out for run time.
    """
    solver = ["--seed", str(SOLVER_SEED)]
    kron = (np.zeros((2, 2)), np.eye(2), np.diag([1.4, 0.6]))
    ops = []
    for gamma in (1.0, 10.0):
        for method in ("general", "diag"):
            ops.append(Op(f"optimize-kronecker-{method}-g{gamma:g}",
                          ("optimize", "kronecker", kron, gamma, 1e-3, "diag", method),
                          ["optimize", "--channel", kronecker_json(*kron), "--snr", str(gamma),
                           "--method", method] + solver))
    iid = (np.zeros((4, 4)), np.eye(4), np.eye(4))
    ops.append(Op("optimize-iid-4x4", ("optimize", "iid", iid, 1.0, 1e-3, "iid"),
                  ["optimize", "--channel", kronecker_json(*iid), "--snr", "1"] + solver))
    ops.append(Op("optimize-ricean-4x4", ("optimize", "ricean", _ricean_4x4(), 1.0, 1e-3, None),
                  ["optimize", "--channel", kronecker_json(*_ricean_4x4()), "--snr", "1"] + solver))
    u = haar_unitary(2, generator(seed, 1))
    h = (u * np.sqrt([2.0, 1.0])) @ u.conj().T
    ops.append(Op("optimize-point-2x2", ("optimize", "point", h, 1.0, 1e-7, "point"),
                  ["optimize", "--channel", json.dumps({"type": "point", "h": _mat(h)}),
                   "--snr", "1", "--tol", "1e-7"] + solver))
    bf = ["beamform", "--channel", kronecker_json(np.zeros((2, 2)), np.diag(BEAMFORM_RHO),
                                                  np.diag(BEAMFORM_TAU)), "--snr-db=-15"]
    gamma_bf = 10 ** -1.5
    ops.append(Op("beamform-closed", ("beamform", "closed", gamma_bf), bf + ["--method", "closed"]))
    ops.append(Op("beamform-mc", ("beamform", "mc", gamma_bf),
                  bf + ["--method", "mc", "--samples", "100000", "--seed", str(seed)]))
    ops.append(Op("beamform-boundary", ("boundary", gamma_bf, "1.0:1.9:0.1"),
                  ["beamform", "--boundary", "--snr-db=-15", "--rho-grid", "1.0:1.9:0.1"]))
    return ops


WORKLOADS = {"wf-density": wf_density, "wf-draws": wf_draws, "stat-csi": stat_csi}


def build(workload: str, seed: int) -> list:
    """The workload's fixed op list for ``seed``."""
    return WORKLOADS[workload](seed)
