"""Spans and exact counters around mimocap's public functions, from outside it.

:func:`install` replaces every public function of the package's modules (and
the numpy/scipy kernels they call) with a timing wrapper, in every module
namespace that holds the function, and :meth:`Tracer.restore` puts the
originals back. A wrapper records only while an op runs (``Tracer.op`` is
set), so the benchmark's own reference checks never count.

Each call's self time is its duration minus the time of the wrapped calls it
made. Calls are kept as spans (name, start, end, parent span, op) in memory,
except the two per-draw or per-point leaves (``WishartDensity.pdf``,
``waterfill_det``), which run 10^5-10^6 times a job and are only summed.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.integrate

import mimocap
from mimocap import analysis, channels, cli, covopt, linalg, montecarlo, waterfill

PACKAGE_MODULES = (mimocap, analysis, channels, cli, covopt, linalg, montecarlo, waterfill)
#: modules whose public functions are wrapped, by the short name used in metrics
LAYERS = {"channels": channels, "waterfill": waterfill, "montecarlo": montecarlo,
          "covopt": covopt, "analysis": analysis}
#: numpy kernels are attributed only when called from these modules
KERNEL_CALLERS = frozenset({"mimocap.covopt", "mimocap.montecarlo", "mimocap.channels"})
PACKAGE_CALLERS = frozenset(m.__name__ for m in PACKAGE_MODULES)
DENSITIES = (channels.WishartDensity, channels.EmpiricalDensity, channels.PointMassDensity)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self.op = None
        self._stack = []      # frames: [start, child time, enclosing span id]
        self._patched = []    # (owner, attribute, original)

    def wrap(self, fn, name, *, span=True, callers=None, on_call=None, on_return=None):
        tracer = self
        self.calls[name] += 0  # a function never called still reports 0
        self.self_s[name] += 0.0

        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if tracer.op is None or (callers is not None and caller not in callers):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, caller, args, kwargs)
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            sid = parent
            if span:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            tracer.active[name] += 1
            frame = [time.perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if span:
                    tracer.spans[sid] = (name, frame[0], end, parent, tracer.op)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def restore(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped, and what each wrapper counts
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _count(label, amount):
    def hook(tracer, caller, args, kwargs):
        tracer.counts[label] += amount(args, kwargs)
    return hook


def _matrices(args, kwargs):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _sample_batch_call(tracer, caller, args, kwargs):
    tracer.counts["channels.sample_batch.draws"] += int(_arg(args, kwargs, 1, "size"))
    if caller == "mimocap.covopt":
        tracer.counts["covopt.pools"] += 1


def _moment_call(tracer, caller, args, kwargs):
    if tracer.active["waterfill.st_water_level"]:
        tracer.counts["waterfill.st_water_level.moment_calls"] += 1


def _result_field(label, field):
    def hook(tracer, args, kwargs, result):
        tracer.counts[label] += int(getattr(result, field))
    return hook


ON_CALL = {
    "channels.sample_batch": _sample_batch_call,
    "channels.gram_eigs": _count("channels.gram_eigs.rows", lambda a, k: np.shape(a[0])[0]),
}
ON_RETURN = {
    "covopt.iterate_general": _result_field("covopt.iterate_general.iterations", "iterations"),
    "covopt.fixed_point_diag": _result_field("covopt.fixed_point_diag.iterations", "iterations"),
    "montecarlo.ergodic_mi": _result_field("montecarlo.ergodic_mi.samples", "samples"),
}
#: leaves called per draw or per quadrature point: summed, no span each
LEAVES = {"waterfill.waterfill_det"}
#: every count a hook can make, reported as 0 when nothing made it
COUNTS = ("channels.sample_batch.draws", "covopt.pools", "channels.gram_eigs.rows",
          "waterfill.st_water_level.moment_calls", "covopt.iterate_general.iterations",
          "covopt.fixed_point_diag.iterations", "montecarlo.ergodic_mi.samples",
          "channels.WishartDensity.pdf.points", "channels.WishartDensity.sample_eigs.rows",
          "numpy.linalg.solve.matrices", "numpy.linalg.slogdet.matrices",
          "numpy.linalg.eigvalsh.matrices")


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions, its density methods and its kernels."""
    tracer.counts.update(dict.fromkeys(COUNTS, 0))
    wrappers = {}
    for short, module in LAYERS.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{short}.{attr}"
                wrappers[fn] = tracer.wrap(fn, name, span=name not in LEAVES,
                                           on_call=ON_CALL.get(name), on_return=ON_RETURN.get(name))
    wrappers[cli.main] = tracer.wrap(cli.main, "cli.main")
    for module in PACKAGE_MODULES:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                tracer.patch(module, attr, wrappers[value])

    for cls in DENSITIES:
        name = f"channels.{cls.__name__}.trunc_moment"
        tracer.patch(cls, "trunc_moment",
                     tracer.wrap(cls.__dict__["trunc_moment"], name, on_call=_moment_call))
    wishart = channels.WishartDensity
    tracer.patch(wishart, "cdf", tracer.wrap(wishart.__dict__["cdf"], "channels.WishartDensity.cdf"))
    tracer.patch(wishart, "pdf", tracer.wrap(
        wishart.__dict__["pdf"], "channels.WishartDensity.pdf", span=False,
        on_call=_count("channels.WishartDensity.pdf.points", lambda a, k: int(np.size(a[1])))))
    tracer.patch(wishart, "sample_eigs", tracer.wrap(
        wishart.__dict__["sample_eigs"], "channels.WishartDensity.sample_eigs",
        on_call=_count("channels.WishartDensity.sample_eigs.rows",
                       lambda a, k: int(_arg(a, k, 1, "size")))))

    for attr in ("solve", "slogdet", "eigvalsh"):
        name = f"numpy.linalg.{attr}"
        tracer.patch(np.linalg, attr, tracer.wrap(
            getattr(np.linalg, attr), name, callers=KERNEL_CALLERS,
            on_call=_count(f"{name}.matrices", _matrices)))
    tracer.patch(scipy.integrate, "quad", tracer.wrap(
        scipy.integrate.quad, "scipy.integrate.quad", callers=PACKAGE_CALLERS))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer number the trace gives, by metric name."""
    out = {}
    for name, n in tracer.calls.items():
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = tracer.self_s[name]
    out.update(tracer.counts)
    out["channels.trunc_moment.self_s"] = sum(
        tracer.self_s[f"channels.{cls.__name__}.trunc_moment"] for cls in DENSITIES)
    solves = tracer.calls["waterfill.st_water_level"]
    out["waterfill.st_water_level.moment_calls_per_solve"] = (
        tracer.counts["waterfill.st_water_level.moment_calls"] / solves if solves else 0.0)
    iterations = (tracer.counts["covopt.iterate_general.iterations"]
                  + tracer.counts["covopt.fixed_point_diag.iterations"])
    pools = tracer.counts["covopt.pools"]
    out["covopt.iters_per_pool"] = iterations / pools if pools else 0.0
    return out
