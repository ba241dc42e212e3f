import csv
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import mimocap
from mimocap import KroneckerGaussian, channels, st_capacity, st_water_level
from mimocap.cli import DEFAULT_SEED, build_parser, main, validate_result
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

RICEAN_2x2_JSON = json.dumps({
    "type": "kronecker",
    "mean": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "rx_corr": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "tx_corr": [[[1.2, 0], [0, 0]], [[0, 0], [0.8, 0]]],
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

    @pytest.mark.parametrize("m", [20, 10 ** 6], ids=["20x20", "1e6"])
    def test_wishart_shape_the_closed_form_refuses_exits_2(self, m, capsys):
        # 20 x 20 cancels to 2.3 of its unit mass; 10^6 outruns the float factorials
        # and is refused before any expansion
        start = time.perf_counter()
        desc = json.dumps({"type": "wishart", "m": m, "n": m})
        assert main(["waterfill", "--channel", desc, "--snr", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "Wishart density" in err and "Traceback" not in err

    def test_iid_law_the_closed_form_refuses_is_pooled(self):
        eye, zero = np.eye(20), np.zeros((20, 20))
        law = KroneckerGaussian(zero, eye, eye)
        rc, out = run_cli(["waterfill", "--channel", json.dumps(channels.law_to_json(law)),
                           "--snr", "1"])
        assert rc == 0
        header, rows = read_csv(out)
        pooled = channels.empirical_density(law, 10_000, SeededStream(DEFAULT_SEED).generator())
        xi = st_water_level(pooled, 1.0)
        assert float(rows[0][header.index("xi")]) == xi
        assert float(rows[0][header.index("capacity_nats")]) == st_capacity(pooled, xi)

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

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', "null"],
                             ids=["array", "number", "string", "null"])
    def test_descriptor_file_that_is_no_object_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "desc.json"
        path.write_text(text, encoding="utf-8")
        assert main(["waterfill", "--channel", str(path), "--snr", "1"]) == 2
        assert "channel descriptor must be a JSON object" in capsys.readouterr().err


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

    def test_mixture_is_solved_exactly(self):
        # two equally likely atoms diag(10, 0) and diag(0, 1.6^1/2): the weak mode takes
        # q = 0.1925, where 0.8 / (1 + 1.6 q) = 50 / (1 + 100 (1 - q))
        law = json.dumps({"type": "mixture", "weights": [0.5, 0.5], "atoms": [
            [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.sqrt(1.6), 0.0]]]]})
        rc, out = run_cli(["optimize", "--channel", law, "--snr", "1"])
        doc = json.loads(out)
        assert rc == 0 and doc["converged"] is True and doc["mi_se"] == 0.0
        assert doc["kkt_residual"] <= 1e-9 and abs(min(doc["eigenvalues"]) - 0.1925) <= 1e-9
        exact = 0.5 * (np.log(1 + 100 * 0.8075) + np.log(1 + 1.6 * 0.1925))
        assert doc["mi"] == pytest.approx(exact, rel=1e-12)

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

    def test_diag_method_without_a_basis_exits_2(self, capsys):
        assert main(["optimize", "--channel", RICEAN_2x2_JSON, "--snr", "1",
                     "--method", "diag"]) == 2
        assert capsys.readouterr().err == ("error: no a-priori diagonalizing basis for "
                                           "this law; use --method general\n")

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

    @pytest.mark.parametrize("desc", [POINT_21_JSON, RICEAN_2x2_JSON], ids=["point", "ricean"])
    def test_verdict_needs_a_zero_mean_kronecker_descriptor(self, desc, capsys):
        assert main(["beamform", "--channel", desc, "--snr-db=-15"]) == 2
        assert capsys.readouterr().err == ("error: beamforming verdicts need a zero-mean "
                                           "kronecker descriptor\n")

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


class TestFigureSnr:
    @pytest.mark.parametrize("fig", ["fig9", "fig10"])
    @pytest.mark.parametrize("flag", [["--snr", "2"], ["--snr-db=30"]], ids=["snr", "snr-db"])
    def test_figures_at_snr_one_refuse_an_snr(self, fig, flag, capsys):
        assert main(["figures", "--figure", fig, *flag]) == 2
        err = capsys.readouterr().err
        assert f"{fig} runs at SNR 1 and takes no --snr or --snr-db" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fig", ["fig11", "fig12"])
    def test_single_snr_figures_refuse_a_grid(self, fig, capsys):
        assert main(["figures", "--figure", fig, "--snr-db=0:10:10"]) == 2
        assert f"{fig} expects a single SNR" in capsys.readouterr().err

    @pytest.mark.parametrize("fig", ["fig1", "fig6", "fig8"])
    def test_linear_snr_is_honoured(self, fig):
        rc, out = run_cli(["figures", "--figure", fig, "--snr", "5"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "snr_db" and rows
        assert {float(r[0]) for r in rows} == {10 * np.log10(5.0)}

    def test_fig6_draws_one_block_at_the_given_db(self):
        rc, out = run_cli(["figures", "--figure", "fig6", "--snr-db=20"])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 200 and {float(r[0]) for r in rows} == {20.0}

    @pytest.mark.parametrize("snr", ["-1", "0"])
    def test_non_positive_snr_exits_2_without_a_numpy_warning(self, snr, recwarn, capsys):
        assert main(["figures", "--figure", "fig1", "--snr", snr]) == 2
        assert "SNR must be finite and positive" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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
    (["optimize", "--channel", POINT_21_JSON, "--snr", "1", "--samples", "500"],
     "optimize needs at least 10^3 samples"),
    (["figures", "--figure", "fig7", "--samples", "500"], "fig7 needs at least 10^3 samples"),
    (["figures", "--figure", "fig9", "--samples", "500"], "fig9 needs at least 10^3 samples"),
    (["figures", "--figure", "fig10", "--samples", "999"], "fig10 needs at least 10^3 samples"),
    (["figures", "--figure", "fig11", "--samples", "500"], "fig11 needs at least 10^3 samples"),
    (["figures", "--figure", "fig12", "--samples", "500"], "fig12 needs at least 10^3 samples"),
    (["figures", "--figure", "fig10", "--size", "0"], "argument --size: need at least 2"),
    (["figures", "--figure", "fig10", "--size", "1"], "argument --size: need at least 2"),
    (["figures", "--figure", "fig11", "--kappa-points", "0"],
     "argument --kappa-points: need at least 2"),
    (["figures", "--figure", "fig12", "--kappa-points", "1"],
     "argument --kappa-points: need at least 2"),
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
    (["waterfill", "--channel", '{"type":"onoff","m":2,"p":[0.4]}', "--snr", "1"],
     "'onoff' descriptor field 'p'"),
    (["optimize", "--channel", '{"type":"point","h":"identity"}', "--snr", "1"],
     "'point' descriptor field 'h'"),
    (["waterfill", "--channel", '{"type":"wishart","m":true,"n":2}', "--snr", "1"],
     "'wishart' descriptor field 'm'"),
    (["waterfill", "--channel",
      '{"type":"mixture","weights":true,"atoms":[[[[1,0]]]]}', "--snr", "1"],
     "'mixture' descriptor field 'weights'"),
    (["optimize", "--channel",
      '{"type":"interp","kappa":0.5,"m0":[[[1,0]]],"noise_cov":[[[1,0]]]}', "--snr", "1"],
     "unknown channel descriptor type 'interp'"),
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
    (["figures", "--figure", "fig10", "--tau", "1.5"], "--tau must lie in [-1/(n-1), 1]"),
    (["figures", "--figure", "fig7", "--tau", "-2", "--snr-db=0"],
     "--tau must lie in [-1/(n-1), 1]"),
], ids=["zero-step", "inf-step", "nan-step", "figure-zero-step", "rho-zero-step",
        "nan-snr", "inf-snr", "nan-snr-db", "optimize-1-sample", "beamform-0-samples",
        "figure-1-sample", "optimize-5-samples", "optimize-999-samples",
        "optimize-point-500-samples", "fig7-500-samples", "fig9-500-samples",
        "fig10-999-samples", "fig11-500-samples", "fig12-500-samples", "fig10-size-0",
        "fig10-size-1", "fig11-kappa-points-0", "fig12-kappa-points-1",
        "wishart-fractional-n", "wishart-fractional-m", "onoff-fractional-m",
        "onoff-zero-m", "onoff-negative-m", "waterfill-indefinite-corr",
        "optimize-indefinite-corr", "wishart-list-m", "onoff-object-p", "onoff-list-p",
        "point-string-h", "wishart-bool-m", "mixture-bool-weights", "interp-descriptor",
        "beamform-closed-one-tx", "beamform-mc-one-tx", "waterfill-tol", "waterfill-max-iter",
        "beamform-tol", "beamform-max-iter", "beamform-unit", "fig10-tau-above-1",
        "fig7-tau-below-range"])
def test_bad_numeric_input_exits_2_with_message(argv, reason, capsys, recwarn):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def test_one_parser_serves_a_whole_process(capsys):
    # the parser is built once; a parse error and --help leave it reusable, and
    # later commands write the bytes a fresh process writes
    assert build_parser() is build_parser()
    assert main(["optimize", "--snr", "1"]) == 2  # no --channel
    assert main(["--help"]) == 0
    assert "usage: mimocap" in capsys.readouterr().out
    src = str(Path(mimocap.__file__).resolve().parents[1])
    for argv in (["waterfill", "--channel", '{"type":"onoff","m":2,"p":0.5}', "--snr", "1"],
                 ["optimize", "--channel", POINT_21_JSON, "--snr", "1"]):
        rc, out = run_cli(argv)
        fresh = subprocess.run([sys.executable, "-m", "mimocap.cli", *argv], check=True,
                               capture_output=True, text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": src})
        assert rc == 0 and out == fresh.stdout


def _csv_reference(header, rows) -> str:
    """The cell-by-cell rendering the one-pass writer replaced: ``csv.writer``
    over floats as ``repr(float(c))`` and ints as ``int(c)``."""
    def cell(c):
        if isinstance(c, (float, np.floating)):
            return repr(float(c))
        if isinstance(c, (int, np.integer)):
            return int(c)
        return c

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(c) for c in row])
    return buf.getvalue()


KRONECKER_2x2_JSON = json.dumps({
    "type": "kronecker",
    "mean": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "rx_corr": [[[1, 0], [0.6, 0]], [[0.6, 0], [1, 0]]],
    "tx_corr": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]],
})


@pytest.mark.parametrize("argv", [
    ["waterfill", "--channel", '{"type":"wishart","m":2,"n":4}', "--snr-db=-10:30:4"],
    ["waterfill", "--channel", '{"type":"onoff","m":2,"p":0.4}', "--snr-db=-10:30:4"],
    ["waterfill", "--channel", KRONECKER_2x2_JSON, "--snr-db=-10:30:4", "--unit", "bits"],
    ["figures", "--figure", "fig1", "--snr-db=-10:30:4"],
    ["figures", "--figure", "fig5", "--snr-db=-10:20:3"],
    ["figures", "--figure", "fig6"],
    ["figures", "--figure", "fig8"],
    ["figures", "--figure", "fig9"],
    ["beamform", "--boundary", "--snr-db=-15"],
    ["figures", "--figure", "fig10", "--size", "3", "--max-iter", "5"],
    ["optimize", "--channel", POINT_21_JSON, "--snr", "1", "--tol", "1e-7"],
    ["figures", "--figure", "fig2", "--snr-db=0:10:10", "--samples", "200"],
    ["figures", "--figure", "fig3", "--snr-db=0:10:10", "--samples", "200"],
    ["figures", "--figure", "fig4", "--snr-db=0:10:10", "--samples", "200", "--unit", "bits"],
    ["figures", "--figure", "fig7", "--snr-db=0", "--samples", "1000", "--max-iter", "3"],
    ["figures", "--figure", "fig11", "--kappa-points", "3", "--samples", "1000",
     "--max-iter", "5"],
    ["figures", "--figure", "fig12", "--kappa-points", "2", "--samples", "1000",
     "--max-iter", "5"],
], ids=["waterfill-wishart", "waterfill-onoff", "waterfill-pooled", "fig1", "fig5", "fig6",
        "fig8", "fig9", "boundary", "fig10", "optimize-trace", "fig2", "fig3", "fig4", "fig7",
        "fig11", "fig12"])
def test_csv_tables_keep_the_cell_by_cell_bytes(argv, tmp_path, monkeypatch):
    # every table goes through _write_csv; capture what it was handed and
    # render that the old way. waterfill, fig5 and fig10 compute numpy
    # scalars, which must reach the file as their Python values.
    written = []
    write_csv = mimocap.cli._write_csv

    def spy(path, header, rows):
        written.append((path, header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(mimocap.cli, "_write_csv", spy)
    out = tmp_path / "out"
    if argv[0] == "optimize":
        argv = argv + ["--trace-out", str(tmp_path / "trace.csv")]
    assert main(argv + ["--out", str(out)]) == 0
    (path, header, rows), = written
    assert {type(c) for row in rows for c in row} <= {float, int}
    data = Path(path).read_bytes()
    assert data == _csv_reference(header, rows).encode()
    assert b"np." not in data


@pytest.mark.parametrize("desc", [
    '{"type":"wishart","m":2,"n":2}', '{"type":"onoff","m":2,"p":0.4}', KRONECKER_2x2_JSON,
], ids=["wishart-2x2", "onoff", "pooled-kronecker"])
def test_waterfill_sweep_bounds_papr_once_with_the_per_point_bytes(desc, tmp_path, monkeypatch):
    argv = ["waterfill", "--channel", desc, "--snr-db=-10:30:4"]
    swept, per_point = tmp_path / "swept.csv", tmp_path / "per_point.csv"
    assert main(argv + ["--out", str(swept)]) == 0
    bound = mimocap.waterfill.papr_bound
    calls = []

    def one_point_at_a_time(density, budgets):
        calls.append(np.size(budgets))
        return [bound(density, float(b)) for b in budgets]

    monkeypatch.setattr(mimocap.waterfill, "papr_bound", one_point_at_a_time)
    assert main(argv + ["--out", str(per_point)]) == 0
    assert calls == [11]
    assert swept.read_bytes() == per_point.read_bytes()


def test_csv_cells_are_shortest_round_trip_floats_and_ints(tmp_path):
    out = tmp_path / "t.csv"
    rows = [[0.1, 3], [float("inf"), -1e-300], [float("nan"), 2**53 + 1], [1e16, -0.0]]
    mimocap.cli._write_csv(str(out), ["a", "b"], rows)
    assert out.read_bytes() == b"a,b\n0.1,3\ninf,-1e-300\nnan,9007199254740993\n1e+16,-0.0\n"
    assert out.read_bytes() == _csv_reference(["a", "b"], rows).encode()
