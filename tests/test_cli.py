import csv
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from mimocap.cli import DEFAULT_SEED, main, validate_result
from mimocap.linalg import haar_unitary
from mimocap.montecarlo import SeededStream

IID_2x2_JSON = json.dumps({
    "type": "kronecker",
    "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "tx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
})

POINT_21_JSON = json.dumps({
    "type": "point",
    "h": [[[np.sqrt(2.0), 0], [0, 0]], [[0, 0], [1, 0]]],
})


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestWaterfillCommand:
    def test_onoff_capacity_column(self):
        rc, out = run_cli(["waterfill", "--channel",
                           '{"type":"onoff","m":2,"p":0.5}', "--snr", "1.0"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "xi", "capacity_nats", "papr_exact", "papr_bound"]
        cap = float(rows[0][header.index("capacity_nats")])
        assert np.isclose(cap, 2 * 0.5 * np.log(1 + 1.0 / (2 * 0.5)), atol=1e-9)

    def test_rank_one_law_has_infinite_papr_bound(self):
        # tx_corr [[1,1],[1,1]]: one eigenvalue per draw is zero, E[1/lam] = inf
        law = json.dumps({"type": "kronecker", "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                          "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                          "tx_corr": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]})
        rc, out = run_cli(["waterfill", "--channel", law, "--snr", "1"])
        assert rc == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("papr_bound")]) == np.inf
        assert float(rows[0][header.index("papr_exact")]) < np.inf

    def test_point_mass_water_level(self):
        # single active mode: xi = budget + 1/lam
        rc, out = run_cli(["waterfill", "--channel",
                           '{"type":"point","h":[[[1,0]]]}', "--snr", "1.0"])
        assert rc == 0
        header, rows = read_csv(out)
        assert np.isclose(float(rows[0][header.index("xi")]), 2.0)

    def test_iid_gaussian_uses_closed_form_density(self):
        # 1x2 iid: the water level must match the closed-form Wishart density
        rc, out = run_cli(["waterfill", "--channel",
                           '{"type":"gaussian","mean":[[[0,0],[0,0]]],'
                           '"cov":[[[1,0],[0,0]],[[0,0],[1,0]]]}',
                           "--snr", "1.0"])
        assert rc == 0
        header, rows = read_csv(out)
        from mimocap import st_water_level, wishart_density
        xi_expect = st_water_level(wishart_density(1, 2), 1.0)
        assert np.isclose(float(rows[0][header.index("xi")]), xi_expect, rtol=1e-12)

    def test_snr_grid_rows(self):
        for grid in ("--snr-db=-10:10:10", "--snr-db=10:-10:-10"):
            rc, out = run_cli(["waterfill", "--channel",
                               '{"type":"wishart","m":1,"n":1}', grid])
            assert rc == 0
            _, rows = read_csv(out)
            assert len(rows) == 3

    def test_bits_conversion(self):
        args = ["waterfill", "--channel", '{"type":"wishart","m":2,"n":2}',
                "--snr", "1.0"]
        _, out_n = run_cli(args + ["--unit", "nats"])
        _, out_b = run_cli(args + ["--unit", "bits"])
        hn, rn = read_csv(out_n)
        hb, rb = read_csv(out_b)
        assert "capacity_bits" in hb
        cn = float(rn[0][hn.index("capacity_nats")])
        cb = float(rb[0][hb.index("capacity_bits")])
        assert np.isclose(cb, cn / np.log(2.0), rtol=1e-12)

    def test_infeasible_density_exit_code(self):
        rc, _ = run_cli(["waterfill", "--channel",
                         '{"type":"onoff","m":2,"p":0.0}', "--snr", "1.0"])
        assert rc == 3

    def test_bad_descriptor_exit_code(self):
        rc, _ = run_cli(["waterfill", "--channel", '{"type":"bogus"}'])
        assert rc == 2
        rc, _ = run_cli(["waterfill", "--channel", "not json at all {{{"])
        assert rc == 2

    @pytest.mark.parametrize("desc, missing", [
        ('{"type":"kronecker"}', "'kronecker' descriptor is missing mean, rx_corr, tx_corr"),
        ('{"type":"wishart","m":2}', "'wishart' descriptor is missing n"),
        ('{"type":"onoff","m":2}', "'onoff' descriptor is missing p"),
    ], ids=["kronecker", "wishart", "onoff"])
    def test_missing_key_exits_2_with_its_name(self, desc, missing, capsys):
        assert main(["waterfill", "--channel", desc, "--snr", "1"]) == 2
        assert missing in capsys.readouterr().err


class TestOptimizeCommand:
    def test_point_mass_golden_mi(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rc, out = run_cli(["optimize", "--channel", POINT_21_JSON,
                           "--snr", "1.0", "--tol", "1e-6",
                           "--max-iter", "3000", "--trace-out", str(trace)])
        assert rc == 0
        doc = json.loads(out)
        validate_result("optimize", doc)
        assert abs(doc["mi"] - 1.1394342831883648) < 5e-4
        assert doc["mi_se"] == 0.0
        assert doc["converged"] is True
        with open(trace) as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["iter", "mi_nats", "residual"]
        assert len(rows) == doc["iterations"]

    @pytest.mark.parametrize("method", ["general", "diag"])
    def test_zero_channel_is_infeasible(self, method, capsys):
        zero = json.dumps({"type": "point", "h": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]})
        assert main(["optimize", "--channel", zero, "--snr", "1", "--method", method]) == 3
        assert "infeasible: zero channel" in capsys.readouterr().err

    def test_iid_rayleigh_near_uniform(self):
        rc, out = run_cli(["optimize", "--channel", IID_2x2_JSON,
                           "--snr", "1.0", "--samples", "20000",
                           "--tol", "1e-2", "--max-iter", "200"])
        assert rc == 0
        doc = json.loads(out)
        q = np.asarray(doc["q"], dtype=float)
        q_c = q[..., 0] + 1j * q[..., 1]
        assert np.abs(q_c - np.eye(2) / 2).max() < 0.05

    def test_diag_method(self):
        rc, out = run_cli(["optimize", "--channel", IID_2x2_JSON,
                           "--snr", "1.0", "--samples", "20000",
                           "--tol", "1e-2", "--max-iter", "200",
                           "--method", "diag"])
        assert rc == 0
        doc = json.loads(out)
        assert abs(sum(doc["eigenvalues"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("tx, gamma", [
        ([1.4, 0.6], 1.0), ([1.4, 0.6], 10.0), ([1.0] * 4, 1.0), ([0.471, 1.529], 1.0)],
        ids=["kronecker-g1", "kronecker-g10", "iid-4x4", "stuck-g1"])
    def test_exact_laws_converge_to_the_same_q_by_both_methods(self, tx, gamma):
        # zero mean and rx_corr = I: both methods solve the closed form in T's basis
        t = len(tx)
        law = json.dumps({"type": "kronecker", "mean": np.zeros((t, t, 2)).tolist(),
                          "rx_corr": np.stack([np.eye(t), np.zeros((t, t))], -1).tolist(),
                          "tx_corr": np.stack([np.diag(tx), np.zeros((t, t))], -1).tolist()})
        docs = []
        for method in ("diag", "general"):
            rc, out = run_cli(["optimize", "--channel", law, "--snr", str(gamma),
                               "--method", method, "--tol", "1e-9"])
            docs.append(json.loads(out))
            assert rc == 0 and docs[-1]["converged"] is True and docs[-1]["mi_se"] == 0.0
            assert docs[-1]["iterations"] <= 10 and docs[-1]["kkt_residual"] <= 1e-9
        q = [np.asarray(doc["q"]) for doc in docs]
        assert np.abs(q[0] - q[1]).max() <= 1e-9

    def test_bits_unit(self):
        rc, out = run_cli(["optimize", "--channel", POINT_21_JSON,
                           "--snr", "1.0", "--tol", "1e-6",
                           "--max-iter", "3000", "--unit", "bits"])
        doc = json.loads(out)
        assert abs(doc["mi"] - 1.1394342831883648 / np.log(2.0)) < 1e-3


class TestBeamformCommand:
    def test_verdict_json(self):
        law = {"type": "kronecker",
               "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
               "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
               "tx_corr": [[[1.2, 0], [0, 0]], [[0, 0], [0.8, 0]]]}
        rc, out = run_cli(["beamform", "--channel", json.dumps(law),
                           "--snr-db=-15"])
        assert rc == 0
        doc = json.loads(out)
        validate_result("beamform", doc)
        assert doc["optimal"] is True

    def test_mc_method_agrees(self):
        law = {"type": "kronecker",
               "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
               "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
               "tx_corr": [[[1.2, 0], [0, 0]], [[0, 0], [0.8, 0]]]}
        rc, out = run_cli(["beamform", "--channel", json.dumps(law),
                           "--snr-db=-15", "--method", "mc",
                           "--samples", "50000"])
        assert rc == 0
        assert json.loads(out)["optimal"] is True

    @pytest.mark.parametrize("method", ["closed", "mc"])
    def test_unnormalized_correlation_exits_2(self, method, capsys):
        law = {"type": "kronecker",
               "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
               "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
               "tx_corr": [[[3.2, 0], [0, 0]], [[0, 0], [0.8, 0]]]}
        assert main(["beamform", "--channel", json.dumps(law), "--snr-db=-15",
                     "--method", method]) == 2
        assert "requires tr(T) = t" in capsys.readouterr().err

    def test_boundary_csv(self):
        rc, out = run_cli(["beamform", "--boundary", "--snr-db=-15",
                           "--rho-grid", "1.0:1.4:0.2"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["rho", "tau_star"]
        taus = [float(r[1]) for r in rows]
        assert all(abs(t - 1.03) < 0.02 for t in taus)


class TestFiguresCommand:
    def test_fig1_capacity_dominates_constant_power(self):
        rc, out = run_cli(["figures", "--figure", "fig1", "--snr-db=-10:30:10"])
        assert rc == 0
        header, rows = read_csv(out)
        cap = np.array([float(r[header.index("capacity_nats")]) for r in rows])
        const = np.array([float(r[header.index("const_power_rate_nats")])
                          for r in rows])
        assert np.all(cap >= const - 1e-12)
        assert np.all(np.diff(cap) > 0)

    def test_fig5_has_three_dimensions(self):
        rc, out = run_cli(["figures", "--figure", "fig5", "--snr-db", "0:10:5"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["snr_db", "papr_db_m1", "papr_db_m2", "papr_db_m4"]
        assert all(len(r) == 4 for r in rows)

    def test_fig3_gains_approach_one(self):
        rc, out = run_cli(["figures", "--figure", "fig3", "--snr-db", "30:30:1",
                           "--samples", "20000"])
        assert rc == 0
        header, rows = read_csv(out)
        st = float(rows[0][header.index("gain_space_time")])
        sp = float(rows[0][header.index("gain_space")])
        assert abs(st - 1.0) < 0.02 and abs(sp - 1.0) < 0.02

    def test_fig6_power_density_schema(self):
        rc, out = run_cli(["figures", "--figure", "fig6"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["snr_db", "power", "pdf", "atom0"]
        snrs = {float(r[0]) for r in rows}
        assert snrs == {-10.0, -5.0, 0.0, 5.0, 10.0}

    def test_fig12_power_split(self):
        rc, out = run_cli(["figures", "--figure", "fig12", "--snr", "1.0",
                           "--samples", "4000", "--kappa-points", "3",
                           "--tol", "1e-2", "--max-iter", "120"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "q1", "q2"]
        assert len(rows) == 3
        # deterministic endpoint: beamforming at kappa = 1
        assert float(rows[-1][1]) > 0.9

    def test_unknown_figure_exit_code(self):
        rc, _ = run_cli(["figures", "--figure", "fig99"])
        assert rc == 2


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["waterfill", "--channel", IID_2x2_JSON, "--snr-db", "0:10:5",
                "--samples", "20000", "--seed", "99"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["optimize", "--channel", POINT_21_JSON, "--snr", "1.0",
                   "--tol", "1e-5", "--max-iter", "2000", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate_result("optimize", doc)


WISHART_JSON = '{"type":"wishart","m":2,"n":2}'
#: zero-mean 2x2 Kronecker law whose tx_corr diag(1.5, -0.5) is Hermitian, not PSD
INDEFINITE_JSON = json.dumps({
    "type": "kronecker",
    "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "tx_corr": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
})

#: zero-mean 2x1 Kronecker law: one transmit antenna, nothing to beamform between
ONE_TX_JSON = json.dumps({
    "type": "kronecker",
    "mean": [[[0, 0]], [[0, 0]]],
    "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "tx_corr": [[[1, 0]]],
})


@pytest.mark.parametrize("argv, reason", [
    (["waterfill", "--channel", WISHART_JSON, "--snr-db=0:10:0"], "zero step"),
    (["waterfill", "--channel", WISHART_JSON, "--snr-db=0:10:inf"], "finite"),
    (["waterfill", "--channel", WISHART_JSON, "--snr-db=0:10:nan"], "finite"),
    (["figures", "--figure", "fig1", "--snr-db=0:10:0"], "zero step"),
    (["beamform", "--boundary", "--snr-db=-15", "--rho-grid", "1.0:1.5:0"], "zero step"),
    (["waterfill", "--channel", WISHART_JSON, "--snr", "nan"], "SNR must be finite"),
    (["waterfill", "--channel", WISHART_JSON, "--snr", "inf"], "SNR must be finite"),
    (["waterfill", "--channel", WISHART_JSON, "--snr-db=nan"], "finite"),
    (["optimize", "--channel", IID_2x2_JSON, "--snr", "1", "--samples", "1"],
     "at least 2 samples"),
    (["beamform", "--channel", IID_2x2_JSON, "--snr", "1", "--method", "mc",
      "--samples", "0"], "at least 2 samples"),
    (["figures", "--figure", "fig3", "--samples", "1"], "at least 2 samples"),
    (["optimize", "--channel", IID_2x2_JSON, "--snr", "1", "--samples", "5"],
     "at least 10^3 samples"),
    (["optimize", "--channel", IID_2x2_JSON, "--snr", "1", "--samples", "999"],
     "at least 10^3 samples"),
    (["waterfill", "--channel", '{"type":"wishart","m":2,"n":2.9}', "--snr", "1"],
     "field 'n' must be an integer"),
    (["waterfill", "--channel", '{"type":"wishart","m":1.7,"n":3}', "--snr", "1"],
     "field 'm' must be an integer"),
    (["waterfill", "--channel", '{"type":"onoff","m":1.7,"p":0.5}', "--snr", "1"],
     "field 'm' must be an integer"),
    (["waterfill", "--channel", '{"type":"onoff","m":0,"p":0.5}', "--snr", "1"],
     "at least one mode"),
    (["waterfill", "--channel", '{"type":"onoff","m":-1,"p":0.5}', "--snr", "1"],
     "at least one mode"),
    (["waterfill", "--channel", INDEFINITE_JSON, "--snr", "1"], "positive semidefinite"),
    (["optimize", "--channel", INDEFINITE_JSON, "--snr", "1", "--method", "diag"],
     "positive semidefinite"),
    (["waterfill", "--channel", '{"type":"wishart","m":[2],"n":2}', "--snr", "1"],
     "'wishart' descriptor field 'm'"),
    (["waterfill", "--channel", '{"type":"onoff","m":2,"p":{"value":0.4}}', "--snr", "1"],
     "'onoff' descriptor field 'p'"),
    (["waterfill", "--channel",
      '{"type":"interp","kappa":[1],"m0":[[[1,0]]],"noise_cov":[[[1,0]]]}', "--snr", "1"],
     "'interp' descriptor field 'kappa'"),
    (["optimize", "--channel", '{"type":"point","h":"identity"}', "--snr", "1"],
     "'point' descriptor field 'h'"),
    (["waterfill", "--channel", '{"type":"wishart","m":true,"n":2}', "--snr", "1"],
     "'wishart' descriptor field 'm'"),
    (["waterfill", "--channel",
      '{"type":"interp","kappa":false,"m0":[[[1,0]]],"noise_cov":[[[1,0]]]}', "--snr", "1"],
     "'interp' descriptor field 'kappa'"),
    (["beamform", "--channel", ONE_TX_JSON, "--snr", "1", "--method", "closed"],
     "at least two transmit modes"),
    (["beamform", "--channel", ONE_TX_JSON, "--snr", "1", "--method", "mc"],
     "at least two transmit modes"),
    (["waterfill", "--channel", WISHART_JSON, "--snr", "1", "--tol", "1e-3"],
     "unrecognized arguments: --tol"),
    (["waterfill", "--channel", WISHART_JSON, "--snr", "1", "--max-iter", "10"],
     "unrecognized arguments: --max-iter"),
    (["beamform", "--boundary", "--snr-db=-15", "--tol", "1e-3"],
     "unrecognized arguments: --tol"),
    (["beamform", "--boundary", "--snr-db=-15", "--max-iter", "10"],
     "unrecognized arguments: --max-iter"),
    (["beamform", "--boundary", "--snr-db=-15", "--unit", "bits"],
     "unrecognized arguments: --unit"),
], ids=["zero-step", "inf-step", "nan-step", "figure-zero-step", "rho-zero-step",
        "nan-snr", "inf-snr", "nan-snr-db", "optimize-1-sample", "beamform-0-samples",
        "figure-1-sample", "optimize-5-samples", "optimize-999-samples",
        "wishart-fractional-n", "wishart-fractional-m", "onoff-fractional-m",
        "onoff-zero-m", "onoff-negative-m", "waterfill-indefinite-corr",
        "optimize-indefinite-corr", "wishart-list-m", "onoff-object-p", "interp-list-kappa",
        "point-string-h", "wishart-bool-m", "interp-bool-kappa", "beamform-closed-one-tx",
        "beamform-mc-one-tx", "waterfill-tol", "waterfill-max-iter", "beamform-tol",
        "beamform-max-iter", "beamform-unit"])
def test_bad_numeric_input_exits_2_with_message(argv, reason, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


#: 2x2 Ricean law (mean [[1, 0], [1, 0]], R = I, T = [[1, .5], [.5, 1]]): on pools
RICEAN_2x2_JSON = json.dumps({
    "type": "kronecker",
    "mean": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
    "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "tx_corr": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]],
})


@pytest.mark.parametrize("command", [
    ["optimize", "--channel", RICEAN_2x2_JSON, "--snr", "1"],
    ["optimize", "--channel", IID_2x2_JSON, "--snr", "1"],
    ["optimize", "--channel", IID_2x2_JSON, "--snr", "1", "--method", "diag"],
    ["figures", "--figure", "fig9"],
    ["figures", "--figure", "fig1"],
], ids=["optimize-ricean", "optimize-exact", "optimize-exact-diag", "fig9", "fig1"])
@pytest.mark.parametrize("flags, field", [
    (["--tol", "nan"], "tol"), (["--tol", "-1"], "tol"), (["--tol", "0"], "tol"),
    (["--tol", "inf"], "tol"), (["--max-iter", "0"], "max_iter"),
    (["--max-iter", "-3"], "max_iter"),
], ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "max-iter-0", "max-iter-negative"])
def test_bad_solver_options_exit_2_naming_the_field(command, flags, field, capsys):
    # a tol at or below 0 once left backtracking without a way out, and
    # max_iter < 1 printed "kkt_residual": Infinity, which is not JSON
    assert main(command + flags) == 2
    err = capsys.readouterr().err
    assert f"option {field} " in err and "Traceback" not in err


def test_fig9_draws_only_from_philox(monkeypatch):
    def pcg64_generator(*args, **kwargs):
        raise AssertionError("np.random.default_rng is not a Philox stream")

    monkeypatch.setattr(np.random, "default_rng", pcg64_generator)
    rc, out = run_cli(["figures", "--figure", "fig9", "--max-iter", "5"])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["unitary", "iter", "capacity_gap_nats"]
    assert {r[0] for r in rows} == {"0", "1", "2", "3", "4"}


def test_fig9_plots_the_damped_cholesky_map():
    # the paper's map T <- T (M + M^H), damped by 1/2, by hand on fig9's first
    # unitary: M = (I + S T^H T)^-1 S is exact for a point mass
    rc, out = run_cli(["figures", "--figure", "fig9"])
    assert rc == 0
    gaps = [float(r[2]) for r in read_csv(out)[1] if r[0] == "0"][:3]
    u = haar_unitary(2, SeededStream(DEFAULT_SEED).generator())
    h = (u * np.sqrt([2.0, 1.0])) @ u.conj().T
    s = h.conj().T @ h
    cap = np.log(2.5) + np.log(1.25)

    def gauge(t):
        t = np.triu(t)
        t = t * (np.abs(np.diag(t)) / np.diag(t))[:, None]
        return t / np.linalg.norm(t)

    tfac = np.eye(2) / np.sqrt(2)
    for gap in gaps:
        m = np.linalg.solve(np.eye(2) + s @ tfac.conj().T @ tfac, s)
        tfac = gauge(0.5 * tfac + 0.5 * gauge(tfac @ (m + m.conj().T)))
        mi = np.linalg.slogdet(np.eye(2) + s @ tfac.conj().T @ tfac)[1]
        assert abs((cap - mi) - gap) <= 1e-12


def test_validate_result_catches_missing_keys():
    with pytest.raises(ValueError):
        validate_result("optimize", {"gamma": 1.0})
