"""Reprint the start-quality table of ROADMAP direction 12 from the package.

For each pooled law and SNR it solves twice with ``covopt.iterate_general`` at the
given seed and default options: once from the Jensen start (the maximizer of
log det(I + gamma Q E[H^H H])) and once from the deterministic-equivalent (DE)
start that general solves of pooled laws take. "Gap" is MI(answer) - MI(start)
on 2x10^5 common draws, with its paired standard error, the answer being the
DE-started solve's; a negative gap means the start scored above the answer,
whose pool carries its own sample-average error. "Steps" are pooled Newton
steps, and "ms" is the DE start's own time (median of five). Run
``python tools/start_table.py [--seed N]``; it takes under a minute on two cores.
"""

import argparse
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mimocap import channels, covopt, linalg, waterfill  # noqa: E402
from mimocap.montecarlo import _log_dets, _thin_factor, as_stream  # noqa: E402

GAP_SAMPLES = 200_000


def ricean(r, t, mean_diag, tx):
    mean = np.zeros((r, t))
    mean[range(len(mean_diag)), range(len(mean_diag))] = mean_diag
    return channels.KroneckerGaussian(mean, np.eye(r), tx)


def laws():
    """(name, law, SNRs) of the table's rows."""
    ones = lambda n: np.ones((n, n))  # noqa: E731
    return [
        ("Ricean 4x4 (stat-csi)", ricean(4, 4, [4.0], 0.5 * (np.eye(4) + ones(4))),
         (0.1, 1.0, 10.0)),
        ("zero-mean 4x4, R, T diagonal", channels.KroneckerGaussian(
            np.zeros((4, 4)), np.diag([1.3, 1.1, 0.9, 0.7]), np.diag([2.0, 1.0, 0.6, 0.4])),
         (1.0, 10.0)),
        ("Ricean 8x8, 8 e1 e1^T", ricean(8, 8, [8.0], 0.5 * (np.eye(8) + ones(8))),
         (0.1, 1.0, 10.0)),
        ("Ricean 6x6, rank-2 mean", ricean(6, 6, [3.0, 2.0], 0.7 * ones(6) + 0.3 * np.eye(6)),
         (0.1, 1.0, 10.0)),
        ("Ricean 2x4, 2 e1 e1^T", ricean(2, 4, [2.0], 0.5 * (np.eye(4) + ones(4))),
         (1.0, 10.0)),
    ]


def jensen_start(law, gamma):
    vecs, eig = linalg.herm_eig(law.expected_gram())
    lam = waterfill.waterfill_det(gamma * eig.clip(0.0), 1.0).powers
    return vecs, lam / lam.sum()


def gap(law, gamma, answer, start, seed):
    """Mean and paired SE of log det(I + S answer) - log det(I + S start) on common draws."""
    pa, ps = _thin_factor(answer), _thin_factor(start)

    def diff(h):
        s = linalg._gram(h, gamma)
        return _log_dets(s, answer, pa) - _log_dets(s, start, ps)

    vals = channels._law_blocks(law, GAP_SAMPLES, as_stream(seed).generator(), diff)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)


def row(name, law, gamma, seed):
    opts = covopt.OptimizerOptions(seed=seed, final_samples=2)
    with mock.patch.object(covopt, "_de_start", lambda kron, gamma, vecs, lam: (vecs, lam)):
        from_jensen = covopt.iterate_general(law, gamma, opts)
    res = covopt.iterate_general(law, gamma, opts)
    jensen = jensen_start(law, gamma)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        de = covopt._de_start(law.kronecker, gamma, *jensen)
        times.append(time.perf_counter() - t0)
    fell_back = de[0] is jensen[0]
    gaps = [gap(law, gamma, res.q, covopt._covariance(*start), seed) for start in (jensen, de)]
    cells = [f"{g:.1e} ± {se:.0e}" for g, se in gaps]
    return (f"| {name} | {gamma:g} | {cells[0]}, {from_jensen.iterations} | "
            f"{cells[1]}{' (Jensen: cap)' if fell_back else ''}, {res.iterations} | "
            f"{1e3 * np.median(times):.1f} |")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=12345)
    seed = p.parse_args(argv).seed
    print(f"seed {seed}; gap = MI(answer) - MI(start) on {GAP_SAMPLES:,} common draws")
    print("| law | gamma | Jensen start: gap, steps | DE start: gap, steps | DE ms |")
    print("|---|---|---|---|---|")
    for name, law, gammas in laws():
        for gamma in gammas:
            print(row(name, law, gamma, seed), flush=True)


if __name__ == "__main__":
    main()
