"""CLI behavior: formats, determinism, error codes, unit conversion."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tailforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_process(*argv):
    """Exit code, stdout and stderr of ``python -m tailforge.cli argv``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tailforge.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExponentsCommand:
    def test_grid_columns_and_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--gamma", "0.25", "--grid", "0:1:11"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "gamma",
            "delta",
            "azuma",
            "cor2_f",
            "thm2",
            "thm3",
            "cor4",
            "pinsker",
            "refined_pinsker",
            "cor3",
            "chung_lu",
        ]
        assert len(rows) == 11
        mid = rows[5]  # delta = 0.5
        vals = dict(zip(header, mid))
        assert float(vals["thm2"]) >= float(vals["thm3"]) >= float(vals["cor2_f"])
        assert float(vals["cor2_f"]) >= float(vals["azuma"])
        assert float(vals["thm2"]) >= float(vals["cor4"]) >= float(vals["cor2_f"])

    def test_zero_row_and_inf_token(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--gamma", "0.5", "--grid", "0:1.5:4"
        )
        header, rows = parse_csv(out)
        first = dict(zip(header, rows[0]))
        assert all(
            first[c] == "0" for c in header if c not in ("gamma", "delta")
        )
        last = dict(zip(header, rows[-1]))  # delta = 1.5
        assert last["thm2"] == "inf" and last["cor4"] == "inf"
        assert last["azuma"] != "inf"  # azuma stays finite beyond delta = 1

    def test_byte_identical_reruns(self, capsys):
        a = run_cli(capsys, "exponents", "--gamma", "0.3", "--grid", "0:1:21")
        b = run_cli(capsys, "exponents", "--gamma", "0.3", "--grid", "0:1:21")
        assert a == b

    def test_round_trip_at_precision(self, capsys):
        _, out, _ = run_cli(
            capsys, "exponents", "--gamma", "0.7", "--grid", "0:1:7",
            "--precision", "9",
        )
        header, rows = parse_csv(out)
        for row in rows:
            for cell in row:
                if cell == "inf":
                    continue
                assert format(float(cell), ".9g") == cell

    def test_bits_conversion(self, capsys):
        _, nats, _ = run_cli(capsys, "exponents", "--gamma", "0.5", "--grid", "1:1:1")
        _, bits, _ = run_cli(
            capsys, "exponents", "--gamma", "0.5", "--grid", "1:1:1",
            "--units", "bits",
        )
        header, rows_n = parse_csv(nats)
        _, rows_b = parse_csv(bits)
        i = header.index("thm2")
        assert float(rows_b[0][i]) == pytest.approx(
            float(rows_n[0][i]) / math.log(2), rel=1e-5
        )

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--gamma", "0.5", "--grid", "0:1:3",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["columns"][0] == "gamma"
        assert len(doc["rows"]) == 3

    def test_overflowing_delta_prints_inf_in_every_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--gamma", "0.5", "--grid", "1e308:1.7e308:2"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert [row[1] for row in rows] == ["1e+308", "1.7e+308"]
        assert all(row[2:] == ["inf"] * (len(header) - 2) for row in rows)

    @pytest.mark.parametrize(
        "grid", ["0:inf:2", "nan:nan:1", "-inf:0:1", "-1.7e308:1.7e308:3"]
    )
    def test_non_finite_grid_is_config_error_naming_it(self, capsys, grid):
        code, out, err = run_cli(capsys, "exponents", "--gamma", "0.5", f"--grid={grid}")
        assert (code, out) == (2, "")
        assert err == (
            f"config error: bad grid spec {grid!r}: start, stop and step must be finite\n"
        )

    def test_cor4_overflowing_inverse_gamma_names_gamma_and_route(self, capsys):
        # a = 1/gamma + 1/delta - 1 is inf: the message names gamma and cor4
        code, out, err = run_cli(
            capsys, "exponents", "--gamma", "1e-320", "--grid", "0:1:3"
        )
        assert (code, out) == (3, "")
        assert err == (
            "numerical failure: floating-point overflow: cor4: 1/gamma + 1/delta"
            " overflows at gamma=1e-320, delta=0.5\n"
        )

    def test_nan_config_delta_names_its_value(self, capsys, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text('{"gamma": [0.5], "delta": [0.5, NaN]}')
        code, out, err = run_cli(capsys, "exponents", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "config error: alpha must be non-negative, got nan\n"

    def test_missing_gamma_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "exponents")
        assert code == 2
        assert "config error" in err

    def test_gamma_out_of_range_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "exponents", "--gamma", "1.5")
        assert code == 2
        assert err == "config error: gamma must lie in (0, 1]\n"

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "exponents", "--gamma", "0.5", "--grid", "0:1:3",
            "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("config error: cannot write")
        assert not target.exists()

    @pytest.mark.parametrize(
        "config,flags,rows",
        [
            ({"delta": [0.0, 0.5]}, ("--gamma", "0.5"), 2),
            ({"gamma": [0.5]}, ("--grid", "0:1:3"), 3),
        ],
        ids=["gamma-flag", "grid-flag"],
    )
    def test_config_without_a_list_reads_its_flag(
        self, capsys, tmp_path, config, flags, rows
    ):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "exponents", "--config", str(cfg), *flags)
        assert code == 0
        assert len(parse_csv(out)[1]) == rows

    def test_grid_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"gamma": [0.25, 0.5], "delta": [0.0, 0.5, 1.0]}))
        code, out, _ = run_cli(capsys, "exponents", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6


class TestPairwiseCommand:
    def test_table_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "pairwise", "--qary", "2,5", "0.04", "--m", "2,10",
            "--precision", "4",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["channel", "zB", "z1", "z2_2", "z2_10"]
        bsc_row = dict(zip(header, rows[0]))
        assert bsc_row["zB"] == "0.3919"
        assert bsc_row["z1"] == "0.3919"
        q5 = dict(zip(header, rows[1]))
        assert q5["z1"] == "0.5297"
        assert q5["z2_10"] == "0.4866"

    def test_tilde_columns(self, capsys):
        _, out, _ = run_cli(
            capsys, "pairwise", "--qary", "10", "0.04", "--m", "10", "--tilde",
            "--precision", "4",
        )
        header, rows = parse_csv(out)
        assert "z2tilde_10" in header
        assert dict(zip(header, rows[0]))["z2tilde_10"] == "0.6417"

    def test_q_range_syntax(self, capsys):
        _, out, _ = run_cli(capsys, "pairwise", "--qary", "2..4", "0.04", "--m", "2")
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_channel_config(self, capsys, tmp_path):
        cfg = tmp_path / "chan.json"
        cfg.write_text(
            json.dumps(
                {
                    "outputs": [0, 1],
                    "p0": [0.9, 0.1],
                    "p1": [0.1, 0.9],
                    "sym": [1, 0],
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "pairwise", "--config", str(cfg), "--m", "2", "--precision", "6"
        )
        assert code == 0
        header, rows = parse_csv(out)
        want = math.sqrt(4 * 0.1 * 0.9)
        assert float(dict(zip(header, rows[0]))["z1"]) == pytest.approx(
            want, abs=1e-6
        )

    def test_malformed_channel_json(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {"outputs": [0, 1], "p0": [0.9, 0.2], "p1": [0.1, 0.9], "sym": [1, 0]}
            )
        )
        code, _, err = run_cli(capsys, "pairwise", "--config", str(cfg))
        assert code == 2
        assert "p0" in err

    @pytest.mark.parametrize(
        "sym,shown", [([2.9, 1.2, 0.4], "2.9"), (["2", "1", "0"], "'2'")], ids=["float", "str"]
    )
    def test_non_integer_sym_entry(self, capsys, tmp_path, sym, shown):
        # int() once truncated or parsed these into the valid involution (2, 1, 0)
        cfg = tmp_path / "sym.json"
        cfg.write_text(
            json.dumps(
                {"outputs": [0, 1, 2], "p0": [0.7, 0.2, 0.1], "p1": [0.1, 0.2, 0.7], "sym": sym}
            )
        )
        code, out, err = run_cli(capsys, "pairwise", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"config error: sym entry must be an integer, got {shown}\n"

    def test_not_json(self, capsys, tmp_path):
        cfg = tmp_path / "nope.json"
        cfg.write_text("{broken")
        code, _, err = run_cli(capsys, "pairwise", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("--qary", "2", "0.5", "--tilde"), ("--qary", "4", "0.25", "--m", "2,4", "--tilde")],
        ids=["bsc", "qary4"],
    )
    def test_identical_rows_print_one_with_tilde(self, capsys, argv):
        # identical rows give d = 0 and delta = 0, where cor6 once raised
        code, out, err = run_cli(capsys, "pairwise", *argv)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        for row in rows:
            cells = dict(zip(header, row))
            for col in header[1:]:
                assert cells[col] == "1"
                if col.startswith("z2tilde_"):
                    assert cells[col] == cells[col.replace("z2tilde_", "z2_")]

    def test_rows_one_ulp_apart_print_one(self, capsys):
        # ln of the rounded ratio P/Q once gave D/d = 0.2 here and z1 0.96624,
        # whose power at h = 100 is 0.032 against an exact pairwise error of 0.5
        code, out, err = run_cli(
            capsys, "pairwise", "--qary", "3", "0.3333333333333333", "--m", "2,4",
            "--tilde",
        )
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert rows[0][1:] == ["1"] * (len(header) - 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--qary", "2", "0.1", "--m", "172"),  # math.factorial(l - j) to float
            ("--qary", "2,3,5,10", "0.04", "--m", "160", "--tilde"),  # x ** (l - j)
        ],
        ids=["factorial", "power"],
    )
    def test_overflowing_moment_order_is_numerical_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, "pairwise", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: floating-point overflow: ")
        assert "(34, " not in err  # the errno tuple of a math range error

    @pytest.mark.parametrize(
        "p,m,d",
        [("0.4", "1100", "0.486558"), ("0.1", "1000", "3.955")],
        ids=["d-power-underflows", "d-power-overflows"],
    )
    def test_moment_order_past_the_normal_range_of_d_power_m(self, p, m, d):
        # d^m is 0 or past the float range: a gamma_l was 0/0 (a
        # ZeroDivisionError traceback), or numpy warned on overflow
        code, out, err = run_process("pairwise", "--qary", "2", p, "--m", m)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            f"numerical failure: moment order m={m}: d^m = {d}^{m} is not a normal float"
        ]
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "argv,want",
        [
            (
                ("--qary", "2", "0.1"),
                'channel,zB,z1,z2_150\n"qary(2,0.1)",0.6,0.6,0.6\n',
            ),
            (
                ("--qary", "2,3,5,10", "0.04", "--tilde"),
                "channel,zB,z1,z2_150,z2tilde_150\n"
                '"qary(2,0.04)",0.391918358845308,0.391918358845308,'
                "0.391918358845308,0.391922140903732\n"
                '"qary(3,0.04)",0.423666521865018,0.442373491025582,'
                "0.423666521865017,0.423685720477843\n"
                '"qary(5,0.04)",0.486606055596467,0.529735573824046,'
                "0.486606055596467,0.486750683809477\n"
                '"qary(10,0.04)",0.64,0.70116103268473,0.64,0.641710222594907\n',
            ),
        ],
        ids=["bsc", "qary-tilde"],
    )
    def test_moment_order_150_prints(self, capsys, argv, want):
        code, out, err = run_cli(
            capsys, "pairwise", *argv, "--m", "150", "--precision", "15"
        )
        assert (code, err) == (0, "")
        assert out == want


class TestHypothesisCommand:
    def test_example_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
            "--precision", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: r[1] for r in rows}
        assert table["chernoff_information"] == "0.0204"
        assert table["refined_error"] == "0.0177"
        assert table["azuma_error"] == "0.0139"
        assert float(table["gamma1"]) == pytest.approx(2 / 3, abs=1e-3)
        assert float(table["gamma2"]) == pytest.approx(7 / 9, abs=1e-3)

    def test_config_with_thresholds(self, capsys, tmp_path):
        cfg = tmp_path / "pair.json"
        cfg.write_text(
            json.dumps(
                {
                    "p1": [0.4, 0.6],
                    "p2": [0.6, 0.4],
                    "thresholds": {"lambda_bar": 0.02, "lambda_under": -0.02},
                }
            )
        )
        code, out, _ = run_cli(capsys, "hypothesis", "--config", str(cfg))
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["exact_err_or_erasure"] <= table["exact_error"]

    def test_invalid_threshold_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
            "--thresholds", "0.5,-0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("spec", ["0.1", "0.1,0.05,0"])
    def test_thresholds_want_two_numbers(self, capsys, spec):
        code, out, err = run_cli(
            capsys, "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
            "--thresholds", spec,
        )
        assert (code, out) == (2, "")
        assert err == (
            "config error: --thresholds wants LAMBDA_BAR,LAMBDA_UNDER "
            f"(two numbers), got {spec!r}\n"
        )

    @pytest.mark.parametrize(
        "units,mdp_n", [("nats", "10000"), ("nats", "100"), ("bits", "100")]
    )
    def test_eta_adds_mdp_rows(self, capsys, units, mdp_n):
        argv = (
            "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
            "--eta", "0.75", "--eps1", "0.05", "--mdp-n", mdp_n,
        )
        code, out, _ = run_cli(capsys, *argv, "--units", units)
        assert code == 0
        header, rows = parse_csv(out)
        cells = dict(rows)
        assert 0.0 < float(cells["mdp_bound"]) <= 1.0
        assert float(cells["mdp_asymptotic_slope"]) < 0.0
        # a probability is not an exponent: bits leave it unscaled
        _, nats_out, _ = run_cli(capsys, *argv)
        assert cells["mdp_bound"] == dict(parse_csv(nats_out)[1])["mdp_bound"]

    @pytest.mark.parametrize("eps1,mdp_n", [("4", "2"), ("0.5", "100")])
    def test_negative_mdp_exponent_prints_one(self, capsys, eps1, mdp_n):
        # delta_1 > 3 gamma1 (1 + gamma1) turns the MDP exponent negative
        # (-1253 at eps1 = 4, where e^1253 overflows): the bound is trivial
        code, out, err = run_cli(
            capsys, "hypothesis", "--p1", "0.01,0.99", "--p2", "0.5,0.5",
            "--eta", "0.75", "--eps1", eps1, "--mdp-n", mdp_n,
        )
        assert (code, err) == (0, "")
        assert dict(parse_csv(out)[1])["mdp_bound"] == "1"

    @pytest.mark.parametrize(
        "p1,p2,mdp_n,bound",
        [
            ("0.5,0.5", "1e-300,1", "1" + "0" * 305, "0"),  # correction +0.938
            ("1e-300,1", "0.5,0.5", "1" + "0" * 306, "1"),  # correction -1.95e298
        ],
        ids=["positive-correction", "negative-correction"],
    )
    def test_mdp_eps1_square_overflow(self, capsys, p1, p2, mdp_n, bound):
        # eps1**2 overflows: the exponent is +inf only where the correction is > 0
        code, out, err = run_cli(
            capsys, "hypothesis", "--p1", p1, "--p2", p2, "--eta", "0.501",
            "--eps1", "2e154", "--mdp-n", mdp_n,
        )
        assert (code, err) == (0, "")
        cells = dict(parse_csv(out)[1])
        assert cells["mdp_bound"] == bound
        assert cells["mdp_asymptotic_slope"] == "-inf"

    def test_eta_below_validity_threshold(self, capsys):
        code, _, err = run_cli(
            capsys, "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
            "--eta", "0.9", "--eps1", "5.0", "--mdp-n", "2",
        )
        assert code == 2


class TestLdpcCommand:
    def test_regular_ensemble(self, capsys):
        code, out, _ = run_cli(
            capsys, "ldpc", "--regular", "3,6", "--n", "64", "--alpha", "1.5"
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["design_rate"] == pytest.approx(0.5)
        assert table["avg_right_degree"] == pytest.approx(6.0)
        assert table["beta"] == pytest.approx(0.5)
        assert table["bound"] <= table["azuma_bound"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--regular", "0,6"), "degrees"),
            (("--regular", "3,0"), "degrees"),
            (("--regular", "3,6", "--n", "0"), "block length"),
            (("--regular", "3"), "--regular wants DV,DC"),
            (("--regular", "3,x"), "--regular wants DV,DC"),
        ],
    )
    def test_bad_regular_ensemble_is_config_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "ldpc", *argv, "--alpha", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and message in err

    def test_n_with_config_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "ldpc.json"
        ens = {"n": 20, "lambda": [0, 0, 1], "rho": [0, 0, 0, 0, 0, 1]}
        cfg.write_text(json.dumps(ens))
        code, out, err = run_cli(
            capsys, "ldpc", "--config", str(cfg), "--n", "5", "--alpha", "0.1"
        )
        assert code == 2
        assert out == ""
        assert err == "config error: --n applies only to --regular\n"


class TestOfdmCommand:
    def test_bounds_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "ofdm", "--n", "64", "--alpha", "4", "--precision", "4"
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["azuma_bound"] == pytest.approx(2 * math.exp(-2), abs=5e-4)
        assert table["refined_limit"] == pytest.approx(2 * math.exp(-4), abs=5e-5)

    def test_alpha_two_clips_to_one(self, capsys):
        _, out, _ = run_cli(capsys, "ofdm", "--n", "64", "--alpha", "2")
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["azuma_bound"] == 1.0

    def test_check_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "ofdm", "--n", "8", "--alpha", "2", "--check", "--trials", "20"
        )
        assert code == 2
        code, out, _ = run_cli(
            capsys, "ofdm", "--n", "8", "--alpha", "2", "--check",
            "--trials", "20", "--seed", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: r[1] for r in rows}
        assert table["violations"] == "0"
        assert table["trig_identity"] == "1/4"


class TestSimulateCommand:
    def test_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--law", "twopoint")
        assert code == 2
        assert "seed" in err

    def test_twopoint_reproduces_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--law", "twopoint", "--eps", "0.5", "--d", "1",
            "--x", "1", "--k", "10", "--seed", "3", "--trials", "2000",
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["thm2_bound"] == pytest.approx(2**-10, rel=1e-4)
        assert table["exact_tail"] == pytest.approx(2**-10, rel=1e-4)
        assert table["mc_wilson_lower"] <= table["exact_tail"] <= 1.0

    def test_custom_law(self, capsys, tmp_path):
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps({"values": [1.0, -1.0], "probs": [0.5, 0.5]}))
        code, out, _ = run_cli(
            capsys, "simulate", "--law", str(cfg), "--k", "10",
            "--threshold", "10", "--seed", "1", "--trials", "500",
            "--precision", "12",
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["exact_tail"] == pytest.approx(2**-10, rel=1e-9)

    def test_infeasible_dp_is_numerical_failure(self, capsys, tmp_path):
        cfg = tmp_path / "law6.json"
        vals = [1.0, 0.5, 0.25, -0.25, -0.5, -1.0]
        cfg.write_text(json.dumps({"values": vals, "probs": [1 / 6.0] * 6}))
        code, _, err = run_cli(
            capsys, "simulate", "--law", str(cfg), "--k", "700000",
            "--threshold", "1.0", "--seed", "2",
        )
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "law,shown",
        [
            ({"values": [math.inf, 0.0], "probs": [0.0, 1.0]}, "(inf, 0.0)"),
            (
                {"values": [math.nan, 1.0, -1.0], "probs": [0.0, 0.5, 0.5]},
                "(nan, 1.0, -1.0)",
            ),
            ({"values": [math.inf, -math.inf], "probs": [0.5, 0.5]}, "(inf, -inf)"),
        ],
        ids=["inf-zero-prob", "nan", "inf-minus-inf"],
    )
    def test_non_finite_law_values_named(self, capsys, tmp_path, law, shown):
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps(law))  # json writes Infinity and NaN, and reads them
        code, out, err = run_cli(
            capsys, "simulate", "--law", str(cfg), "--k", "10",
            "--threshold", "1", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        message = f"increment-law JSON: law values must be finite, got {shown}"
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("threshold", ["inf", "1e400", "nan"])
    def test_non_finite_threshold_is_config_error(self, capsys, tmp_path, threshold):
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps({"values": [1.0, -1.0], "probs": [0.5, 0.5]}))
        code, out, err = run_cli(
            capsys, "simulate", "--law", str(cfg), "--k", "10",
            "--threshold", threshold, "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and "threshold must be finite" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--d", "nan"), "d must be positive and finite, got nan"),
            (("--d", "inf"), "d must be positive and finite, got inf"),
            (("--x", "nan"), "x must be non-negative with x*k finite, got nan"),
            (("--x", "1e400"), "x must be non-negative with x*k finite, got inf"),
            (("--x", "1e308"), "x must be non-negative with x*k finite, got 1e+308"),
        ],
        ids=["d-nan", "d-inf", "x-nan", "x-1e400", "x-1e308"],
    )
    def test_non_finite_twopoint_input_names_it(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "simulate", "--seed", "1", *argv)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_k_beyond_the_float_range_names_it(self, capsys):
        huge_k = "1" + "0" * 400
        code, out, err = run_cli(capsys, "simulate", "--seed", "1", "--k", huge_k)
        assert code == 2
        assert out == ""
        assert err == "config error: k must lie in [1, 1.79769e+308]\n"

    def test_d_whose_square_underflows(self, capsys):
        # Azuma's exponent is formed from x/d, which overflows to a zero bound
        code, out, _ = run_cli(
            capsys, "simulate", "--eps", "0.3", "--d", "1e-320", "--seed", "1",
            "--trials", "100",
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["azuma_bound"] == table["thm2_bound"] == 0.0
        assert table["exact_tail"] == 0.0

    @pytest.mark.parametrize(
        "flags,law_file",
        [
            (("--threshold", "3"), False),
            (("--two-sided",), False),
            (("--eps", "0.3"), True),
            (("--d", "1"), True),
            (("--x", "0.5"), True),
        ],
        ids=["twopoint-threshold", "twopoint-two-sided", "law-eps", "law-d", "law-x"],
    )
    def test_flag_the_mode_ignores_is_config_error(
        self, capsys, tmp_path, flags, law_file
    ):
        law = ()
        message = "--threshold and --two-sided apply only to a --law file"
        if law_file:
            cfg = tmp_path / "law.json"
            cfg.write_text(json.dumps({"values": [1.0, -1.0], "probs": [0.5, 0.5]}))
            law = ("--law", str(cfg), "--threshold", "3")
            message = "--eps, --d and --x apply only to the two-point law"
        code, out, err = run_cli(capsys, "simulate", "--seed", "1", *law, *flags)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_determinism_to_file(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (out1, out2):
            code = main(
                [
                    "simulate", "--law", "twopoint", "--eps", "0.1", "--x", "0.5",
                    "--k", "12", "--seed", "77", "--trials", "1500",
                    "--out", str(path),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPrecisionFlag:
    def test_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "exponents", "--gamma", "0.5", "--precision", "22"
        )
        assert code == 2


EXPONENTS = ("exponents", "--config")
PAIRWISE = ("pairwise", "--config")
HYPOTHESIS = ("hypothesis", "--config")
LDPC = ("ldpc", "--alpha", "0.1", "--config")
LAW = ("simulate", "--seed", "1", "--threshold", "1", "--law")
CHANNEL = {"outputs": [0, 1], "p0": [0.9, 0.1], "p1": [0.1, 0.9], "sym": [1, 0]}
PAIR = {
    "p1": [0.9, 0.1], "p2": [0.1, 0.9],
    "thresholds": {"lambda_bar": 0.5, "lambda_under": 0.0},
}
ENSEMBLE = {"n": 10, "lambda": [0, 0, 1], "rho": [0, 0, 0, 0, 0, 1]}
HUGE = 10**400  # a JSON integer past the float range


def thresholds(**fields):
    return dict(PAIR, thresholds=dict(PAIR["thresholds"], **fields))


class TestJsonConfigShape:
    """A JSON input of the wrong shape, or a number that is a bool, a string or
    an int past the float range, prints one config error line that names it."""

    @pytest.mark.parametrize(
        "payload,argv,named",
        [
            ([0.5, 1.0], EXPONENTS, "must hold a JSON object"),
            ({"gamma": 0.5}, EXPONENTS, "'gamma' must be a list"),
            ({"gamma": [0.5], "delta": 0.1}, EXPONENTS, "'delta' must be a list"),
            ({"gamma": [None]}, EXPONENTS, "'gamma' entry"),
            ({"gamma": [True], "delta": [0.5]}, EXPONENTS, "'gamma' entry"),
            ({"gamma": [0.5], "delta": ["0.5"]}, EXPONENTS, "'delta' entry"),
            ({"gamma": [0.5], "delta": [HUGE]}, EXPONENTS, "'delta' entry"),
            ([1.0, -1.0], LAW, "must hold a JSON object"),
            ({"values": 1.0, "probs": [1.0]}, LAW, "increment-law JSON"),
            ({"values": [True, -1.0], "probs": [0.5, 0.5]}, LAW, "values entry"),
            ({"values": [1.0, -1.0], "probs": ["0.5", 0.5]}, LAW, "probs entry"),
            ({"values": [HUGE, -HUGE], "probs": [0.5, 0.5]}, LAW, "values entry"),
            ({"values": [1.0, -1.0]}, LAW, "missing field 'probs'"),
            ({"p1": 0.5, "p2": [0.5, 0.5]}, HYPOTHESIS, "'p1'"),
            (dict(PAIR, p1=[True, False]), HYPOTHESIS, "'p1'"),
            (dict(PAIR, p2=[0.1, "0.9"]), HYPOTHESIS, "'p2'"),
            (thresholds(lambda_bar=True), HYPOTHESIS, "lambda_bar"),
            (thresholds(lambda_bar=HUGE), HYPOTHESIS, "lambda_bar"),
            (thresholds(lambda_under="0"), HYPOTHESIS, "lambda_under"),
            (
                dict(PAIR, thresholds={"lambda_bar": 0.5}),
                HYPOTHESIS,
                "'thresholds' missing field 'lambda_under'",
            ),
            (dict(PAIR, thresholds=[0.5, 0.0]), HYPOTHESIS, "'thresholds'"),
            (dict(CHANNEL, outputs=2), PAIRWISE, "channel JSON"),
            (dict(CHANNEL, p0=["0.9", 0.1]), PAIRWISE, "'p0'"),
            (dict(CHANNEL, p1=[False, True]), PAIRWISE, "'p1'"),
            ({"n": 10, "lambda": 0.5, "rho": [1.0]}, LDPC, "LDPC JSON"),
            (dict(ENSEMBLE, n=1024.7), LDPC, "block length n"),
            (dict(ENSEMBLE, n=True), LDPC, "block length n"),
            (dict(ENSEMBLE, **{"lambda": [False, False, True]}), LDPC, "lambda entry"),
            (dict(ENSEMBLE, rho=[0, 0, 0, 0, 0, "1"]), LDPC, "rho entry"),
        ],
        ids=[
            "exponents-list",
            "exponents-scalar-gamma",
            "exponents-scalar-delta",
            "exponents-null-entry",
            "exponents-bool-gamma",
            "exponents-string-delta",
            "exponents-huge-delta",
            "simulate-list",
            "simulate-scalar-values",
            "simulate-bool-values",
            "simulate-string-probs",
            "simulate-huge-values",
            "simulate-missing-probs",
            "hypothesis-scalar-p1",
            "hypothesis-bool-p1",
            "hypothesis-string-p2",
            "hypothesis-bool-lambda-bar",
            "hypothesis-huge-lambda-bar",
            "hypothesis-string-lambda-under",
            "hypothesis-missing-lambda-under",
            "hypothesis-list-thresholds",
            "pairwise-scalar-outputs",
            "pairwise-string-p0",
            "pairwise-bool-p1",
            "ldpc-scalar-lambda",
            "ldpc-fractional-n",
            "ldpc-bool-n",
            "ldpc-bool-lambda",
            "ldpc-string-rho",
        ],
    )
    def test_malformed_config_is_config_error(
        self, capsys, tmp_path, payload, argv, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, *argv, str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")
        assert err.count("\n") == 1 and len(err) < 200  # never the 401 digits
        assert named in err


class TestPerCommandFlags:
    """Each subcommand parses only the shared flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("exponents", "--gamma", "0.5", "--grid", "0:1:3", "--seed", "1"),
            ("pairwise", "--qary", "2", "0.04", "--seed", "1"),
            ("hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4", "--seed", "1"),
            ("ldpc", "--regular", "3,6", "--alpha", "0.1", "--seed", "1"),
            ("ldpc", "--regular", "3,6", "--alpha", "0.1", "--units", "bits"),
            ("ofdm", "--n", "8", "--alpha", "2", "--config", "x.json"),
            ("ofdm", "--n", "8", "--alpha", "2", "--units", "bits"),
            (
                "simulate", "--seed", "1", "--k", "20", "--trials", "100",
                "--config", "perfbench/inputs/law3.json",
            ),
            (
                "simulate", "--seed", "1", "--k", "20", "--trials", "100",
                "--units", "bits",
            ),
        ],
        ids=[
            "exponents-seed",
            "pairwise-seed",
            "hypothesis-seed",
            "ldpc-seed",
            "ldpc-units",
            "ofdm-config",
            "ofdm-units",
            "simulate-config",
            "simulate-units",
        ],
    )
    def test_unread_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "unrecognized arguments" in err


class TestFlagsTheModeIgnores:
    """A flag that the chosen mode would not read exits 2 and names it."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("ofdm", "--n", "8", "--alpha", "2", "--seed", "1"),
                "--seed and --trials apply only to --check",
            ),
            (
                ("ofdm", "--n", "8", "--alpha", "2", "--trials", "20"),
                "--seed and --trials apply only to --check",
            ),
            (
                ("hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4", "--eps1", "0.1"),
                "--eps1 and --mdp-n apply only to --eta",
            ),
            (
                ("hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4", "--mdp-n", "100"),
                "--eps1 and --mdp-n apply only to --eta",
            ),
            (
                ("hypothesis", "--config", "hypothesis.json", "--p1", "0.4,0.6"),
                "--p1, --p2 and --thresholds apply only without --config",
            ),
            (
                ("hypothesis", "--config", "hypothesis.json", "--p2", "0.6,0.4"),
                "--p1, --p2 and --thresholds apply only without --config",
            ),
            (
                ("hypothesis", "--config", "hypothesis.json", "--thresholds", "0,0"),
                "--p1, --p2 and --thresholds apply only without --config",
            ),
            (
                ("ldpc", "--config", "ldpc.json", "--regular", "3,6", "--alpha", "0.1"),
                "--regular applies only without --config",
            ),
            (
                ("pairwise", "--config", "channel.json", "--qary", "2", "0.1"),
                "--qary applies only without --config",
            ),
            (
                ("exponents", "--config", "exponents.json", "--gamma", "0.1"),
                "--gamma applies only without a 'gamma' list in --config",
            ),
            (
                ("exponents", "--config", "exponents.json", "--grid", "0:1:3"),
                "--grid applies only without a 'delta' list in --config",
            ),
        ],
        ids=[
            "ofdm-seed",
            "ofdm-trials",
            "hypothesis-eps1",
            "hypothesis-mdp-n",
            "hypothesis-config-p1",
            "hypothesis-config-p2",
            "hypothesis-config-thresholds",
            "ldpc-config-regular",
            "pairwise-config-qary",
            "exponents-config-gamma",
            "exponents-config-grid",
        ],
    )
    def test_flag_is_config_error(self, capsys, argv, message):
        inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
        argv = [str(inputs / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "argv,defaults",
        [
            (
                ("ofdm", "--n", "8", "--alpha", "2", "--check", "--seed", "1"),
                ("--trials", "200"),
            ),
            (
                ("hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4", "--eta", "0.75"),
                ("--eps1", "0.05", "--mdp-n", "10000"),
            ),
        ],
        ids=["ofdm", "hypothesis"],
    )
    def test_mode_keeps_its_defaults(self, capsys, argv, defaults):
        implicit = run_cli(capsys, *argv)
        assert implicit[0] == 0
        assert run_cli(capsys, *argv, *defaults) == implicit


class TestNanInputs:
    """A NaN input fails its range check (exit 2) instead of printing numbers."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("ldpc", "--regular", "3,6", "--alpha", "nan"),
                "alpha must be non-negative, got nan",
            ),
            (
                ("ofdm", "--n", "16", "--alpha", "nan"),
                "alpha must be positive, got nan",
            ),
            (
                (
                    "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
                    "--eta", "0.75", "--eps1", "nan",
                ),
                "eps1 must be positive, got nan",
            ),
        ],
        ids=["ldpc-alpha", "ofdm-alpha", "hypothesis-eps1"],
    )
    def test_nan_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_nan_law_probability(self, capsys, tmp_path):
        cfg = tmp_path / "law.json"
        law = {"values": [1, 0, -1], "probs": [math.nan, 0.5, 0.5]}
        cfg.write_text(json.dumps(law))
        code, out, err = run_cli(
            capsys, "simulate", "--law", str(cfg), "--k", "10",
            "--threshold", "1", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "probabilities must be non-negative" in err

    def test_nan_ldpc_coefficient(self, capsys, tmp_path):
        cfg = tmp_path / "ldpc.json"
        ens = {"n": 100, "lambda": [0, 0, 1], "rho": [0, 0, 0, 0, 0, math.nan]}
        cfg.write_text(json.dumps(ens))
        code, out, err = run_cli(capsys, "ldpc", "--config", str(cfg), "--alpha", "0.1")
        assert code == 2
        assert out == ""
        assert "rho coefficients must be non-negative" in err

    def test_infinite_alpha_still_runs(self, capsys):
        code, out, _ = run_cli(capsys, "ldpc", "--regular", "3,6", "--alpha", "inf")
        assert code == 0
        table = dict(parse_csv(out)[1])
        assert table["beta"] == "inf"
        assert table["bound"] == table["azuma_bound"] == "0"

    def test_overflowing_ldpc_alpha_gives_zero_bounds(self, capsys):
        # beta**2 overflows; the exponent is +inf, as tail_bound takes it
        code, out, err = run_cli(capsys, "ldpc", "--regular", "3,6", "--alpha", "1e200")
        assert (code, err) == (0, "")
        table = dict(parse_csv(out)[1])
        assert table["bound"] == table["azuma_bound"] == "0"

    @pytest.mark.parametrize("alpha", ["1e200", "inf"])
    def test_overflowing_ofdm_alpha_gives_zero_bounds(self, capsys, alpha):
        # alpha**2 overflows at 1e200, and inf * B(inf) = inf * 0 is NaN at inf
        code, out, err = run_cli(capsys, "ofdm", "--n", "16", "--alpha", alpha)
        assert (code, err) == (0, "")
        assert dict(parse_csv(out)[1]) == {
            "azuma_bound": "0", "refined_bound": "0", "refined_limit": "0"
        }

    def test_ofdm_alpha_past_u_squared_overflow_gives_zero_bounds(self, capsys):
        # u = delta/(gamma sqrt(n)) = 2e154: u*u overflows, yet B(u) ~ 2 ln(u)/u
        # is a normal double and the exponent (alpha^2/4) B(u) is 3.5e156
        code, out, err = run_cli(capsys, "ofdm", "--n", "1", "--alpha", "2e154")
        assert (code, err) == (0, "")
        assert dict(parse_csv(out)[1]) == {
            "azuma_bound": "0", "refined_bound": "0", "refined_limit": "0"
        }


class TestLengthsPastTheFloatRange:
    """A length past the largest double is refused before any arithmetic on it."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("ldpc", "--regular", "3,6", "--alpha", "0.1", "--n"), "block length n"),
            (("ofdm", "--alpha", "1", "--n"), "n"),
            (
                (
                    "hypothesis", "--p1", "0.4,0.6", "--p2", "0.6,0.4",
                    "--eta", "0.75", "--mdp-n",
                ),
                "n",
            ),
        ],
        ids=["ldpc", "ofdm", "hypothesis-mdp"],
    )
    def test_401_digit_length_exits_2(self, argv, name):
        code, out, err = run_process(*argv, "1" + "0" * 400)
        assert code == 2
        assert out == ""
        assert err == f"config error: {name} must lie in [1, 1.79769e+308]\n"
