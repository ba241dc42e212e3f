"""Design guards: only ``channels`` asks which family a channel law or density is.

Every other module reads what a law or density says of itself (``support``,
``diag_basis``, ``iid``, ``draw_rows``, ``discrete``, ...), so a new family
is one class in ``channels`` and nothing else to thread through. A law's
``support`` is summed over its atoms and weights wherever it is read, and no
module tests how many atoms it has. The CLI
reads its SNR flags in one place, and each figure is one entry of one table
(``cli._FIGURES``): no code outside it tests a figure id.
Per-draw reductions draw their channels in blocks, never as one whole pool,
and the covariance solvers reduce their pools one block at a time. One
function decides where Q has a rank <= 2 factor. The exact objective's curvature
is the closed-form Hessian: no difference quotient of the exact gradient is
left in it but a freed mode's. Every per-layer name the benchmark reads is
one its tracer gives or its runner sets.
"""

import ast
import importlib.util
import inspect
import json
from pathlib import Path

from mimocap import channels, cli, covopt

SRC = Path(channels.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: every class ``channels`` defines: the laws, the densities and their bases
CHANNEL_CLASSES = frozenset(name for name, obj in vars(channels).items()
                            if inspect.isclass(obj) and obj.__module__ == channels.__name__)


def _class_names(node) -> list:
    """Class names in the second argument of ``isinstance``: a name, a dotted
    attribute or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _class_names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def channel_class_tests(source: str, filename: str) -> list:
    """``file:line name`` for each ``isinstance`` call that names a channels class."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            found += [f"{filename}:{node.lineno} {name}" for name in _class_names(node.args[1])
                      if name in CHANNEL_CLASSES]
    return found


def test_the_guard_knows_every_family_and_sees_every_spelling():
    assert {"ChannelLaw", "PointMass", "MatrixGaussian", "KroneckerGaussian", "FiniteMixture",
            "EigDensity", "WishartDensity", "EmpiricalDensity",
            "PointMassDensity"} <= CHANNEL_CLASSES
    snippet = ("isinstance(law, PointMass)\n"
               "isinstance(law, channels.MatrixGaussian)\n"
               "isinstance(d, (int, EmpiricalDensity))\n"
               "isinstance(x, (int, float))\n")
    assert channel_class_tests(snippet, "x.py") == [
        "x.py:1 PointMass", "x.py:2 MatrixGaussian", "x.py:3 EmpiricalDensity"]


def test_no_module_but_channels_tests_a_law_or_density_class():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "channels.py":
            found += channel_class_tests(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def attribute_uses(source: str, filename: str, attr: str) -> list:
    """``file:line function`` for each ``.attr`` attribute, with the innermost
    function it sits in."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(f"{filename}:{node.lineno} {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source, filename), "<module>")
    return found


def test_one_complex_gaussian_draw_in_the_package():
    # every normal the package draws comes through linalg._circular_gaussian,
    # both halves of a complex draw from its one standard_normal call
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += attribute_uses(path.read_text(encoding="utf-8"), path.name, "standard_normal")
    assert [f.split(" ")[1] for f in found] == ["_circular_gaussian"]
    assert all(f.startswith("linalg.py:") for f in found)


def test_one_bordered_newton_solve_in_the_package():
    # both covariance solvers take their Newton step through covopt._direction
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += attribute_uses(path.read_text(encoding="utf-8"), path.name, "lstsq")
    assert [f.split(" ")[0].split(":")[0] for f in found] == ["covopt.py"]
    assert [f.split(" ")[1] for f in found] == ["_direction"]


def support_count_tests(source: str, filename: str) -> list:
    """``file:line`` for each comparison that reads ``.support`` and compares with
    anything but ``None``: a test of a law's atom count (or of its atoms' values)."""
    lines = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Attribute) and n.attr == "support" for n in ast.walk(node)):
            if not all(isinstance(c, ast.Constant) and c.value is None for c in node.comparators):
                lines.add(node.lineno)
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_the_support_guard_sees_every_atom_count():
    snippet = ("if law.support is not None and law.support[1].size == 1:\n    pass\n"
               "if len(law.support[0]) > 1:\n    pass\n"
               "if law.support is None:\n    pass\n")
    assert support_count_tests(snippet, "x.py") == ["x.py:1", "x.py:3"]


def test_support_is_read_only_where_atoms_are_summed():
    # a law with support is solved and scored on its atoms and weights, whatever their
    # number: channels reads them (draw_rows, the families), covopt for its pool
    # (_s_pool), the pool's weights (_weights) and to skip the stand-in start (_solve),
    # and montecarlo.ergodic_mi for its weighted sum; no module tests the atom count
    found, counts = set(), []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts += support_count_tests(source, path.name)
        if path.name != "channels.py":
            found.update(f"{f.split(':')[0]} {f.split(' ')[1]}"
                         for f in attribute_uses(source, path.name, "support"))
    assert found == {"covopt.py _s_pool", "covopt.py _weights", "covopt.py _solve",
                     "montecarlo.py ergodic_mi"}
    assert counts == []


def call_sites(source: str, filename: str, name: str) -> list:
    """``file:line function`` for each call of ``name`` or ``x.name``, with the
    innermost function it sits in (a lambda's is the function around it)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(f"{filename}:{node.lineno} {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source, filename), "<module>")
    return found


def test_call_sites_sees_names_attributes_and_lambdas():
    snippet = ("def f(law):\n"
               "    return sample_batch(law, 2, None)\n"
               "def g(law):\n"
               "    return lambda n: channels.sample_batch(law, n, None)\n")
    assert call_sites(snippet, "x.py", "sample_batch") == ["x.py:2 f", "x.py:4 g"]


def test_whole_pools_are_drawn_only_where_meant():
    # per-draw reductions, ergodic_mi's among them, stream through
    # channels._law_blocks and the solver pools through channels._blocks in
    # covopt._s_pool (which calls sample_batch itself, so that the benchmark's
    # tracer can count its pools); the other callers are the module entry point
    # (it forwards to the family's method) and H P's default draw
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += call_sites(path.read_text(encoding="utf-8"), path.name, "sample_batch")
    assert sorted({f"{f.split(':')[0]} {f.split(' ')[1]}" for f in found}) == [
        "channels.py _law_blocks", "channels.py sample_batch", "channels.py sample_projected",
        "covopt.py _s_pool"]


def test_solver_pools_are_reduced_block_by_block():
    # per-draw X = (I + S Q)^-1 S is formed only in covopt._resolvent_moments,
    # one channels._BLOCK of the pool at a time; I + S Q besides for log-dets
    found = {"_resolvent_gradient": set(), "_eye_plus": set()}
    for path in sorted(SRC.glob("*.py")):
        for name, where in found.items():
            where.update(f"{f.split(':')[0]} {f.split(' ')[1]}" for f in
                         call_sites(path.read_text(encoding="utf-8"), path.name, name))
    assert found == {"_resolvent_gradient": {"covopt.py _resolvent_moments"},
                     "_eye_plus": {"covopt.py _resolvent_gradient", "montecarlo.py _log_dets"}}


def test_one_rank_rule_for_thin_factors():
    # rank Q <= 2 below full rank is decided by montecarlo._thin_factor alone, once
    # per call: by ergodic_mi for its log-dets or draws of H P, and by the solvers'
    # passes over a pool, which hand the factor to every block's log-det or resolvent
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(f"{f.split(':')[0]} {f.split(' ')[1]}" for f in
                     call_sites(path.read_text(encoding="utf-8"), path.name, "_thin_factor"))
    assert found == {"montecarlo.py ergodic_mi", "covopt.py _resolvent_moments",
                     "covopt.py _pool_mi"}


def test_one_snr_reader_in_the_cli():
    # every command and figure gets its SNR points from cli._snr_points
    source = Path(cli.__file__).read_text(encoding="utf-8")
    for attr in ("snr", "snr_db"):
        found = attribute_uses(source, "cli.py", attr)
        assert found and {f.split(" ")[1] for f in found} == {"_snr_points"}


def test_figure_choices_are_the_figure_table():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    figure = next(a for a in sub.choices["figures"]._actions if a.dest == "figure")
    assert list(figure.choices) == list(cli._FIGURES)


def figure_id_tests(source: str, filename: str) -> list:
    """``file:line id`` for each string constant starting with ``fig`` that a
    comparison or a ``case`` pattern holds."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.Compare, ast.MatchValue)):
            found += [f"{filename}:{node.lineno} {c.value}" for c in ast.walk(node)
                      if isinstance(c, ast.Constant) and str(c.value).startswith("fig")]
    return found


def test_figures_are_dispatched_only_through_the_table():
    snippet = ("if fig == 'fig1':\n    pass\n"
               "if fig in ('fig3', 'fig4'):\n    pass\n"
               "match fig:\n    case 'fig9':\n        pass\n"
               "x = {'fig2': 1}['fig2']\n")
    assert figure_id_tests(snippet, "x.py") == [
        "x.py:1 fig1", "x.py:3 fig3", "x.py:3 fig4", "x.py:6 fig9"]
    assert figure_id_tests(Path(cli.__file__).read_text(encoding="utf-8"), "cli.py") == []


def difference_quotients(source: str, name: str) -> list:
    """For each division of a difference in function ``name``, the iterable of
    the innermost ``for`` loop around it ("" outside any loop)."""
    found = []

    def visit(node, loop):
        if isinstance(node, ast.For):
            loop = ast.unparse(node.iter)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
                        for n in ast.walk(node.left))):
            found.append(loop)
        for child in ast.iter_child_nodes(node):
            visit(child, loop)

    visit(next(n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)
               and n.name == name), "")
    return found


def test_exact_curvature_takes_no_step_but_a_freed_modes():
    # a central difference over every power is what the guard must catch
    central = ("def _objective(law):\n"
               "    for k, qk in enumerate(lam):\n"
               "        step = 1e-4 * max(qk, 1.0 / lam.size)\n"
               "        h[:, k] = (grad(lo) - grad(hi)) / (hi[k] - lo[k])\n")
    assert difference_quotients(central, "_objective") == ["enumerate(lam)"]
    # covopt._objective's one quotient: the one-sided difference of a freed mode,
    # off and with a gradient above the powered modes' mean
    source = Path(covopt.__file__).read_text(encoding="utf-8")
    assert difference_quotients(source, "_objective") == [
        "np.flatnonzero(off & (g > g[~off].mean()))"]


def _bench_tracer():
    """``bench/tracer.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("tracer", BENCHMARK.parent / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_the_benchmark_reads_is_defined():
    # the tracer wraps the public functions and density methods it finds, and
    # bench/run.py adds a few run-wide numbers; a per-layer name of the benchmark
    # that neither gives makes a traced run fail
    tracing = _bench_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        given = set(tracing.layer_metrics(tracer))
    finally:
        tracer.restore()
    names = {m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
    run = (BENCHMARK.parent / "bench" / "run.py").read_text(encoding="utf-8")
    assert sorted(n for n in names - given if f'metrics["{n}"]' not in run) == []
