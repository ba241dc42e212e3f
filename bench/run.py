"""mimocap benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload stat-csi --seed 1 --seconds 25 --trace 0

Each op is an in-process ``mimocap.cli.main(argv)`` call (or a public library
call where the CLI exposes nothing), made one after another by one caller
with BLAS/OpenMP pinned to one thread. With ``--trace 0`` the op list is run
again and again until ``--seconds`` have passed and the end-to-end metrics are
taken from each op's median time over those jobs, each time scaled to
reference seconds by a calibration kernel timed around it (see Calibration). With
``--trace 1`` the op list runs untraced, then with every public mimocap
function wrapped (see tracer.py), then untraced again; the per-layer metrics
come from the traced job.

After the timed region every output is checked against references the
benchmark computes itself (checks.py, refs.py); repeated jobs must reproduce the
first job's files byte for byte. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}`` with exactly the metrics
BENCHMARK.json lists for the mode. The line before it records the
environment, the op list and every failure. Spans and the full record are
written under .bench_out/ in the checkout.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
#: set before numpy is first imported, and inherited by the set-up probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package():
    """Import mimocap from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "mimocap" / "__init__.py").is_file():
        sys.exit(f"error: no mimocap package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import mimocap
    if Path(mimocap.__file__).resolve().parent != (src / "mimocap").resolve():
        sys.exit(f"error: imported mimocap from {mimocap.__file__}, not from {src}")


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on the machine
        return None
    return out.stdout.strip() or None


class Calibration:
    """A fixed kernel of the benchmark's own, timed between ops to gauge machine speed.

    On a shared machine identical work runs 10-30% faster or slower from one
    half minute to the next, which no per-run median averages out. Timing
    metrics are therefore given in reference seconds: an op's wall time times
    REF_S / (mean time of the two kernel samples taken just before and just
    after it). The kernel mixes the two kinds of work mimocap does, batched
    small-matrix LAPACK calls and scalar Python/scipy calls. Raw wall times
    stay in the run record.

    setup_s is scaled too, though it is mostly start-up and imports: on a
    shared 2-core machine the wall-time medians of set-up, like those of the
    jobs, moved 20-31% between two sets of ten runs half an hour apart, and
    the scaled ones at most 8%.
    """

    #: the kernel's mean time on the 2-core machine the benchmark was set up on
    REF_S = 0.02

    def __init__(self):
        import numpy as np
        import scipy.special

        self._np, self._special = np, scipy.special
        gen = np.random.default_rng(0)
        # pools the size of the solvers' 10^4-draw pools, 2x2 and 4x4
        self._pools = [gen.standard_normal((n, t, t)) + 0j for n, t in ((10_000, 2), (2_500, 4))]
        self.samples = []

    def mark(self) -> int:
        """Time the kernel once; return the sample's index."""
        np = self._np
        t0 = time.perf_counter()
        for x in self._pools:
            eye = np.eye(x.shape[1])
            y = np.linalg.solve(eye + x @ np.conj(np.swapaxes(x, 1, 2)), x)
            np.linalg.slogdet(eye + y)
        acc = 0.0
        for i in range(2000):
            acc += math.exp(-i * 1e-3) * self._special.eval_genlaguerre(2, 0, i * 1e-3)
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Reference seconds per wall second of what ran between samples mark and mark + 1."""
        return 2 * self.REF_S / (self.samples[mark] + self.samples[mark + 1])


def setup_times(workload: str, seed: int, cal: Calibration) -> list:
    """Fresh interpreters that import mimocap.cli and build the inputs:
    each one's wall time and the calibration mark taken just before it."""
    times = []
    for _ in range(SETUP_PROBES):
        mark = cal.mark()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append({"seconds": time.perf_counter() - t0, "cal": mark})
    cal.mark()
    return times


def run_job(op_list, outdir: Path, tracer=None, cal: Calibration | None = None) -> dict:
    """Run every op once, in order; return the job wall time and each op's outcome.

    With ``cal``, the calibration kernel runs before each op and after the
    last, and each outcome holds the mark taken just before it.
    """
    from mimocap import cli

    outdir.mkdir(parents=True)
    outcomes = []
    t_job = time.perf_counter()
    for i, op in enumerate(op_list):
        mark = cal.mark() if cal is not None else None
        path = str(outdir / f"{i:02d}-{op.name}.out")
        err = io.StringIO()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if op.call is None:
                    status = cli.main(op.argv + ["--out", path])
                else:
                    value = op.call()
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(value, fh)
                    status = 0
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        outcomes.append({"path": path, "status": status, "seconds": elapsed, "cal": mark,
                         "stderr": err.getvalue()[-500:]})
    if cal is not None:
        cal.mark()
    return {"seconds": time.perf_counter() - t_job, "ops": outcomes}


def check_jobs(op_list, jobs: list) -> tuple:
    """Check the first job's outputs; later jobs must reproduce them byte for byte.

    Returns (verdicts of the first job, list of failures as dicts).
    """
    import checks

    ctx = checks.Context()
    verdicts, failures = [], []
    for i, op in enumerate(op_list):
        first = jobs[0]["ops"][i]
        if first["status"] != 0:
            verdict = checks.Verdict(False, f"status {first['status']}; {first['stderr'].strip()}")
        else:
            try:
                verdict = checks.run(ctx, op, first["path"])
            except Exception as exc:  # unreadable or malformed output
                verdict = checks.Verdict(False, f"check raised {type(exc).__name__}: {exc}")
        verdicts.append(verdict)
        reference = Path(first["path"]).read_bytes() if first["status"] == 0 else None
        for j, job in enumerate(jobs):
            outcome = job["ops"][i]
            why = verdict.note if not verdict.ok else None
            if why is None and j > 0:
                if outcome["status"] != 0:
                    why = f"status {outcome['status']}"
                elif Path(outcome["path"]).read_bytes() != reference:
                    why = "output differs from the first job's"
            if why is not None:
                failures.append({"op": op.name, "job": j, "why": why})
    return verdicts, failures


def _quality(verdicts) -> dict:
    """Worst residual and shortfall over the ops that passed their check.

    When none passed, the run is incorrect anyway; it reports a residual of 1
    (100%) and a shortfall of 1 nat.
    """
    kkt = [v.kkt for v in verdicts if v.kkt is not None]
    short = [v.shortfall for v in verdicts if v.shortfall is not None]
    return {"kkt_residual_max": max(kkt, default=1.0), "mi_shortfall_max": max(short, default=1.0)}


def timed_run(op_list, seconds: float, scratch: Path, cal: Calibration) -> dict:
    """Run the op list until ``seconds`` have passed; time each op by its median.

    job_s is the sum of each op's median time over the jobs, in reference
    seconds (see :class:`Calibration`).
    """
    def ref_s(outcome):
        return outcome["seconds"] * cal.factor(outcome["cal"])

    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(run_job(op_list, scratch / f"job{len(jobs)}", cal=cal))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts, failures = check_jobs(op_list, jobs)
    attempted = len(op_list) * len(jobs)
    per_op = [statistics.median(ref_s(job["ops"][i]) for job in jobs)
              for i in range(len(op_list))]
    metrics = {
        "job_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "ok_share": (attempted - len(failures)) / attempted,
        "peak_rss_mb": peak_rss_mb,
        **_quality(verdicts),
    }
    return {"jobs": jobs, "verdicts": verdicts, "failures": failures,
            "attempted": attempted, "metrics": metrics}


def traced_run(op_list, scratch: Path, spans_path: Path, cal: Calibration) -> dict:
    """One traced job between two untraced ones.

    trace.overhead_s is the traced job's op time less the mean of the two
    untraced ones, in reference seconds, so that neither a drift in machine
    speed nor the first job's warm-up reads as tracing cost.
    """
    import tracer as tracing

    before = run_job(op_list, scratch / "plain0", cal=cal)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        traced = run_job(op_list, scratch / "traced", tracer, cal)
    finally:
        tracer.restore()
    after = run_job(op_list, scratch / "plain1", cal=cal)
    tracer.write_spans(spans_path)
    jobs = [before, traced, after]
    verdicts, failures = check_jobs(op_list, jobs)
    op_s = [sum(op["seconds"] * cal.factor(op["cal"]) for op in job["ops"]) for job in jobs]
    metrics = tracing.layer_metrics(tracer)
    metrics["covopt.false_converged"] = sum(v.false_converged for v in verdicts)
    metrics["trace.overhead_s"] = op_s[1] - (op_s[0] + op_s[2]) / 2
    return {"jobs": jobs, "verdicts": verdicts, "failures": failures,
            "attempted": len(jobs) * len(op_list), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    _import_package()
    import numpy
    import scipy

    import checks
    import ops

    op_list = ops.build(args.workload, args.seed)
    cal, setup = Calibration(), []
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_root = ROOT / ".bench_out"
    scratch = out_root / f"{tag}-{os.getpid()}"
    t0 = time.perf_counter()
    try:
        if args.trace:
            run = traced_run(op_list, scratch, out_root / f"spans-{tag}.jsonl", cal)
        else:
            setup = setup_times(args.workload, args.seed, cal)
            run = timed_run(op_list, args.seconds, scratch, cal)
            run["metrics"]["setup_s"] = statistics.median(
                probe["seconds"] * cal.factor(probe["cal"]) for probe in setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run_s = time.perf_counter() - t0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    if missing:
        sys.exit(f"error: the run produced no value for {missing}")
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": _git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "solver_seed": ops.SOLVER_SEED, "tolerances": checks.TOLERANCES,
        "ops": [{"name": op.name, "argv": op.argv} if op.call is None else
                {"name": op.name, "call": op.call_text} for op in op_list],
        "jobs": len(run["jobs"]), "setup": setup, "run_s": run_s,
        "calibration_s": {"ref": Calibration.REF_S, "samples": cal.samples},
        "job_s": [job["seconds"] for job in run["jobs"]],
        "op_s": {op.name: [job["ops"][i]["seconds"] for job in run["jobs"]]
                 for i, op in enumerate(op_list)},
        "quality": {op.name: {"kkt": v.kkt, "shortfall": v.shortfall,
                              "false_converged": v.false_converged, **v.detail}
                    for op, v in zip(op_list, run["verdicts"])},
        "failures": run["failures"],
    }
    (out_root / f"result-{tag}.json").write_text(json.dumps({"env": env, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
