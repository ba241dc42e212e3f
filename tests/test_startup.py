"""Start-up guard: the CLI and every path below load no scipy module at all.

The package's special functions are numpy and plain floats; scipy is left to
``WishartDensity.trunc_moment``'s general query, which no CLI path makes, and
to the tests. Each check runs in a fresh interpreter, since the test process
itself has imported scipy for its references.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY = "scipy"


def _scipy_modules_after(code: str) -> list:
    """Run ``code`` with mimocap importable; return the scipy modules it left loaded."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
              f"print(sorted(m for m in sys.modules if m.startswith({SCIPY!r})))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120)
    return eval(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_heavy_scipy_module():
    assert _scipy_modules_after("import mimocap.cli") == []


def test_water_levels_and_boundary_load_no_heavy_scipy_module():
    code = """
import contextlib, io
from mimocap import channels, cli, waterfill
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["waterfill", "--channel", '{"type":"wishart","m":2,"n":2}',
                     "--snr-db=-10:30:10"]) == 0
    assert cli.main(["beamform", "--boundary", "--snr-db=-15"]) == 0
waterfill.peak_limited_rate(channels.wishart_density(1, 1), 1.0, 2.4125523113175524)
"""
    assert _scipy_modules_after(code) == []


def test_per_symbol_baseline_figures_load_no_heavy_scipy_module():
    # fig3/fig4 sample Wishart eigenvalues and take their closed-form moments
    code = """
import contextlib, io
from mimocap import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["figures", "--figure", "fig4", "--snr-db=10:10:1"]) == 0
    assert cli.main(["figures", "--figure", "fig3"]) == 0
"""
    assert _scipy_modules_after(code) == []


def _optimize_code(rx_corr: str, method: str) -> str:
    return f"""
import contextlib, io, json
from mimocap import cli
law = {{"type": "kronecker", "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
       "rx_corr": {rx_corr},
       "tx_corr": [[[1.4, 0], [0.3, 0]], [[0.3, 0], [0.6, 0]]]}}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["optimize", "--channel", json.dumps(law), "--snr", "1",
                     "--method", "{method}", "--samples", "2000"]) == 0
"""


def test_general_covariance_solve_loads_no_heavy_scipy_module():
    # receive correlation keeps the law off the closed form, on pools
    code = _optimize_code("[[[1, 0], [0.2, 0]], [[0.2, 0], [1, 0]]]", "general")
    assert _scipy_modules_after(code) == []


def test_exact_covariance_solve_loads_no_heavy_scipy_module():
    code = _optimize_code("[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]", "diag")
    assert _scipy_modules_after(code) == []


def test_ricean_factor_path_loads_no_heavy_scipy_module():
    # nonzero mean keeps the law on pools; its rank-deficient optimum takes
    # the factor path of every per-draw MI
    code = """
import contextlib, io, json
from mimocap import cli
mean = [[[4 if (i, j) == (0, 0) else 0, 0] for j in range(4)] for i in range(4)]
eye = [[[float(i == j), 0] for j in range(4)] for i in range(4)]
tx = [[[0.5 + 0.5 * (i == j), 0] for j in range(4)] for i in range(4)]
law = {"type": "kronecker", "mean": mean, "rx_corr": eye, "tx_corr": tx}
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["optimize", "--channel", json.dumps(law), "--snr", "1",
                     "--samples", "2000"]) == 0
assert sum(v > 1e-9 for v in json.loads(out.getvalue())["eigenvalues"]) < 4
"""
    assert _scipy_modules_after(code) == []
