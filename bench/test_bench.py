"""Tests of the benchmark itself: tracing is exact, reversible and invisible in results.

Run with ``python3 -m pytest bench``. They use a cheap subset of the real op
lists, so they take seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import ops  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

CHEAP = {
    "wf-density": ("waterfill-onoff-2", "figures-fig6", "peak-limited-g10"),
    "wf-draws": ("waterfill-kronecker-2x2",),
    "stat-csi": ("optimize-kronecker-general-g10", "optimize-point-2x2", "beamform-closed",
                 "beamform-mc", "beamform-boundary"),
}


def _cheap_ops(seed):
    return [op for w, names in CHEAP.items() for op in ops.build(w, seed) if op.name in names]


def _traced_job(op_list, outdir):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        job = run.run_job(op_list, outdir, tracer)
    finally:
        tracer.restore()
    return tracer, job


def _namespaces():
    """Every namespace the tracer patches, as {owner: {attribute: object}}."""
    owners = list(tracing.PACKAGE_MODULES) + list(tracing.DENSITIES) + [np.linalg, tracing.scipy.integrate]
    return {owner: dict(vars(owner)) for owner in owners}


def test_counts_repeat_across_traced_runs(tmp_path):
    op_list = _cheap_ops(seed=3)
    first, _ = _traced_job(op_list, tmp_path / "a")
    second, _ = _traced_job(op_list, tmp_path / "b")
    assert first.counts == second.counts
    assert first.calls == second.calls
    assert [s[0] for s in first.spans] == [s[0] for s in second.spans]
    assert first.counts["covopt.iterate_general.iterations"] > 0
    assert first.calls["cli.main"] == sum(op.call is None for op in op_list)


def test_every_wrapped_attribute_is_restored():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        patched = {(owner, attr) for owner, attrs in _namespaces().items()
                   for attr, value in attrs.items() if value is not before[owner].get(attr)}
        assert (tracing.covopt, "sample_batch") in patched
        assert (np.linalg, "solve") in patched
    finally:
        tracer.restore()
    after = _namespaces()
    for owner, attrs in before.items():
        assert set(after[owner]) == set(attrs), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, (owner, changed)


def test_outputs_are_byte_identical_with_tracing_on_and_off(tmp_path):
    op_list = _cheap_ops(seed=5)
    plain = run.run_job(op_list, tmp_path / "plain")
    _, traced = _traced_job(op_list, tmp_path / "traced")
    for a, b in zip(plain["ops"], traced["ops"]):
        assert a["status"] == 0 and b["status"] == 0
        assert Path(a["path"]).read_bytes() == Path(b["path"]).read_bytes(), a["path"]


def test_wishart_reference_identities():
    for m, n in ((1, 1), (2, 2), (2, 4), (4, 4)):
        ref = refs.WishartRef(m, n)
        assert ref.cdf(200.0) == pytest.approx(1.0, abs=1e-12)
        xi = ref.water_level(3.0)
        assert ref.power(xi) == pytest.approx(3.0 / m, rel=1e-12)
    rayleigh = refs.WishartRef(1, 1)
    xi = rayleigh.water_level(2.0)
    e1 = refs.scipy.special.exp1(1 / xi)
    assert xi * np.exp(-1 / xi) - e1 == pytest.approx(2.0, rel=1e-12)
    assert rayleigh.capacity(xi) == pytest.approx(e1, rel=1e-12)


def test_peak_caps_sit_below_the_unconstrained_level():
    rayleigh = refs.WishartRef(1, 1)
    for gamma, share, cap in ops.PEAK_CAPS:
        assert share < 1.0
        assert cap == pytest.approx(share * rayleigh.water_level(gamma), rel=1e-12)


def test_building_inputs_imports_nothing_the_package_does_not():
    """The set-up probe must time mimocap's imports, not the benchmark's references."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import mimocap.cli; "
            "before = set(sys.modules); import ops; "
            "[ops.build(w, 1) for w in ops.WORKLOADS]; "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    added = eval(proc.stdout)
    assert added == ["ops"], added


def test_sampling_gap_matches_the_one_dimensional_formula():
    """For one direction, tr(H^-1 Cov g) / 2N is Var g / (2 N H)."""
    s = refs.gram_pool(refs.kronecker_draws(np.zeros((2, 2)), np.eye(2), np.diag([1.4, 0.6]),
                                            5_000, refs.eval_generator("gap-test")), 1.0)
    q = np.diag([0.7, 0.3]).astype(complex)
    x = np.linalg.solve(np.eye(2) + s @ q, s)
    d = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    a = x @ d
    g = np.trace(a, axis1=1, axis2=2).real
    h = np.trace(a @ a, axis1=1, axis2=2).real.mean()
    want = g.var(ddof=1) / (2 * 100 * h)
    assert refs.sampling_gap(s, q, diagonal=True, resolution=100) == pytest.approx(want, rel=1e-10)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wf-density",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_built_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    for workload in ops.WORKLOADS:
        for op in ops.build(workload, 1):
            assert callable(getattr(checks, f"check_{op.check[0]}", None)), op.name
