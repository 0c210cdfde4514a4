import json
import math
import warnings

import numpy as np
import pytest

from paretocoal.cli import main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return rc, text


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header.split(","), [r.split(",") for r in rows]


class TestRatesCommand:
    def test_xi_matrix_row(self, tmp_path):
        rc, text = run_cli(
            ["rates", "--alpha", "0.5", "--beta", "0", "--i-max", "2"], tmp_path
        )
        assert rc == 0
        assert "2,1,0.5" in text.splitlines()

    def test_kingman_entry(self, tmp_path):
        rc, text = run_cli(["rates", "--alpha", "3", "--i-max", "6"], tmp_path)
        assert rc == 0
        assert "3,2,3" in text.splitlines()
        assert "5,4,10" in text.splitlines()

    def test_readme_table_rounds_exact_dyadics(self, tmp_path):
        # lambda_(9,6) = 6237/8192 and lambda_(9,7) = 9009/4096 are exact
        # doubles on a 12-digit rounding tie; half-even keeps the 2.
        rc, text = run_cli(
            ["rates", "--alpha", "1.5", "--beta", "0", "--i-max", "12"],
            tmp_path,
        )
        assert rc == 0
        lines = text.splitlines()
        assert "9,6,0.761352539062" in lines
        assert "9,7,2.19946289062" in lines

    def test_i_max_cap_exits_two(self, capsys):
        rc = main(["rates", "--alpha", "1.5", "--i-max", "2001"])
        assert rc == 2
        assert "2000" in capsys.readouterr().err

    def test_invalid_bias_exits_two(self, tmp_path, capsys):
        rc = main(["rates", "--alpha", "1.5", "--beta", "1.6"])
        assert rc == 2
        assert "beta < alpha" in capsys.readouterr().err

    def test_provenance_header(self, tmp_path):
        rc, text = run_cli(["rates", "--alpha", "3", "--seed", "9"], tmp_path)
        first = text.splitlines()[0]
        assert first.startswith("# seed=9, params=")
        assert "version=" in first
        assert f", numpy={np.__version__}, bitgen=PCG64DXSM" in first

    def test_xi_matrix_subcommand_guard(self, tmp_path, capsys):
        rc = main(["xi-matrix", "--alpha", "1.5"])
        assert rc == 2

    def test_stirling_boundary_case(self, tmp_path):
        rc, text = run_cli(
            ["xi-matrix", "--alpha", "0", "--beta", "-1", "--i-max", "3"],
            tmp_path,
        )
        assert rc == 0
        assert "2,1,0.5" in text.splitlines()

    def test_stirling_needs_negative_bias(self, capsys):
        rc = main(["xi-matrix", "--alpha", "0", "--beta", "0", "--i-max", "3"])
        assert rc == 2


class TestFiniteMcCommand:
    def test_gamma_pair_probability(self, tmp_path):
        rc, text = run_cli(
            ["finite-mc", "--theta", "1", "--N", "100", "--replicas", "20000",
             "--seed", "5"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header == ["i", "j", "estimate", "stderr", "ess", "replicas"]
        by_j = {int(r[1]): r for r in rows}
        est, se = float(by_j[1][2]), float(by_j[1][3])
        assert abs(est - 2.0 / 101.0) < 3 * se

    def test_missing_required_flag(self, capsys):
        rc = main(["finite-mc", "--theta", "1"])
        assert rc == 2
        assert "--N" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        args = ["finite-mc", "--alpha", "1.5", "--N", "200",
                "--replicas", "5000", "--seed", "123"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args, tmp_path, "b.csv")
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        base = ["finite-mc", "--alpha", "1.5", "--N", "200",
                "--replicas", "5000"]
        _, a = run_cli([*base, "--seed", "1"], tmp_path, "a.csv")
        _, b = run_cli([*base, "--seed", "2"], tmp_path, "b.csv")
        assert a != b

    def test_simulation_commands_deterministic(self, tmp_path):
        for args in (
            ["simulate", "--family", "kingman", "--N", "20",
             "--replicas", "500", "--seed", "77"],
            ["forward", "--alpha", "1", "--N", "50", "--generations", "20",
             "--seed", "77"],
            ["gclt", "--alpha", "3", "--N", "500", "--replicas", "1000",
             "--seed", "77"],
            ["forward", "--alpha", "1", "--N", "50", "--generations", "100",
             "--kind", "speed", "--replicas", "4", "--seed", "77"],
            ["scaling-fit", "--alpha", "1.5", "--N-grid", "20,40,80,160",
             "--replicas", "500", "--seed", "77"],
            ["simulate", "--family", "beta", "--alpha", "1.5",
             "--N-grid", "10,20", "--replicas", "50", "--seed", "77"],
        ):
            _, a = run_cli(args, tmp_path, "a.csv")
            _, b = run_cli(args, tmp_path, "b.csv")
            assert a == b, args[0]


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"alpha": 3.0, "i_max": 4, "seed": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, text = run_cli(
            ["rates", "--config", str(path), "--i-max", "3"], tmp_path
        )
        assert rc == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert "3,2,3" in rows
        assert not any(r.startswith("4,") for r in rows)  # override took


class TestSimulateCommand:
    def test_kingman_pair_height(self, tmp_path):
        rc, text = run_cli(
            ["simulate", "--family", "kingman", "--N", "2",
             "--replicas", "20000", "--seed", "4"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        row = next(r for r in rows if r[2] == "height")
        mean, se = float(row[3]), float(row[4])
        assert abs(mean - 1.0) < 3 * se

    def test_trajectory_dump(self, tmp_path):
        rc, text = run_cli(
            ["simulate", "--family", "bs", "--N", "30", "--trajectory",
             "--seed", "6"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header == ["time_or_step", "blocks"]
        assert rows[0][1] == "30"
        assert rows[-1][1] == "1"

    def test_xi_trajectory(self, tmp_path):
        for n0 in ("10", "1000"):
            rc, text = run_cli(
                ["simulate", "--family", "xi", "--alpha", "0.5", "--N", n0,
                 "--trajectory", "--seed", "8"],
                tmp_path,
            )
            assert rc == 0
            _, rows = data_rows(text)
            assert rows[0][1] == n0
            assert rows[-1][1] == "1"

    def test_trajectory_validates_like_the_report(self, tmp_path, capsys):
        # One family rule: alpha = 2.5 is no beta family, dumped or reported.
        for extra in ([], ["--trajectory"]):
            rc, text = run_cli(
                ["simulate", "--family", "beta", "--alpha", "2.5", "--N", "50",
                 *extra],
                tmp_path,
            )
            assert rc == 2 and text == ""
            assert "alpha" in capsys.readouterr().err

    def test_xi_trajectory_cap_names_N(self, tmp_path, capsys):
        rc, text = run_cli(
            ["simulate", "--family", "xi", "--alpha", "0.5", "--N", "2001",
             "--trajectory"],
            tmp_path,
        )
        assert rc == 2 and text == ""
        assert "--N" in capsys.readouterr().err

    def test_too_few_replicas_exit_two(self, tmp_path, capsys):
        for family in (["beta", "--alpha", "1.5"], ["kingman"]):
            for replicas in ("-3", "0", "1"):
                rc, text = run_cli(
                    ["simulate", "--family", *family, "--N", "50",
                     "--replicas", replicas],
                    tmp_path,
                )
                assert rc == 2 and text == ""
                assert "replicas" in capsys.readouterr().err


class TestForwardCommand:
    def test_trajectory_format(self, tmp_path):
        rc, text = run_cli(
            ["forward", "--alpha", "1", "--N", "100", "--generations", "12",
             "--seed", "5"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header == ["k", "log_global", "log_holder_mean", "log_fittest"]
        assert len(rows) == 13
        ks = [int(r[0]) for r in rows]
        assert ks == list(range(13))

    def test_speed_summary(self, tmp_path):
        rc, text = run_cli(
            ["forward", "--alpha", "1", "--N", "200", "--generations", "120",
             "--kind", "speed", "--replicas", "10", "--seed", "5"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        names = {r[0] for r in rows}
        assert {"speed", "selection_part", "growth_part", "oracle_total"} <= names

    def test_too_few_replicas_exit_two(self, tmp_path, capsys):
        for replicas in ("-1", "0", "1"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, text = run_cli(
                    ["forward", "--alpha", "1", "--N", "100", "--generations",
                     "100", "--kind", "speed", "--replicas", replicas],
                    tmp_path,
                )
            assert rc == 2 and text == ""
            assert "replicas" in capsys.readouterr().err

    def test_pressure_sweep(self, tmp_path):
        rc, text = run_cli(
            ["forward", "--alpha", "1", "--N", "10000", "--kind", "pressure"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header == ["beta", "pressure"]
        by_beta = {float(r[0]): float(r[1]) for r in rows}
        assert min(abs(b) for b in by_beta) < 0.1  # grid crosses zero
        # pressure vanishes at beta = 0 and is positive for beta < 0
        assert all(v > 0 for b, v in by_beta.items() if b < -0.1)


class TestGcltCommand:
    def test_quantities(self, tmp_path):
        rc, text = run_cli(
            ["gclt", "--alpha", "1", "--N", "100", "--replicas", "2000",
             "--seed", "1"],
            tmp_path,
        )
        assert rc == 0
        _, rows = data_rows(text)
        d = {r[0]: r[1] for r in rows}
        assert float(d["C_alpha"]) == pytest.approx(math.pi / 2)
        assert d["regime"] == "cauchy(1)"
        assert "q0.5" in d

    @pytest.mark.parametrize("N", ["100", "10000"])
    def test_tiny_alpha_overflow_exits_two(self, N, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, text = run_cli(
                ["gclt", "--alpha", "0.01", "--N", N, "--replicas", "1000"],
                tmp_path,
            )
        assert rc == 2 and text == ""
        err = capsys.readouterr().err
        assert "overflow" in err and "alpha=0.01" in err and f"N={N}" in err


class TestScalingFitCommand:
    def test_fit_output(self, tmp_path):
        rc, text = run_cli(
            ["scaling-fit", "--alpha", "3", "--N-grid", "100,200,400,800",
             "--replicas", "4000", "--seed", "2"],
            tmp_path,
        )
        assert rc == 0
        fit_line = next(l for l in text.splitlines() if l.startswith("# fit:"))
        assert "slope=" in fit_line and "prefactor=" in fit_line
        header, rows = data_rows(text)
        assert header == ["N", "c_hat", "stderr"]
        assert len(rows) == 4

    def test_grid_validation(self, capsys):
        for args in (
            ["--alpha", "3", "--N-grid", "100,200"],
            ["--alpha", "1.5", "--N-grid", "100,100,100,100",
             "--replicas", "100"],
        ):
            assert main(["scaling-fit", *args]) == 2, args
            assert "N grid" in capsys.readouterr().err, args


class TestNanInputs:
    @pytest.mark.parametrize(
        "args, name",
        [
            (["rates", "--alpha", "nan", "--i-max", "4"], "alpha"),
            (["forward", "--alpha", "nan", "--N", "10", "--generations", "3"],
             "alpha"),
            (["finite-mc", "--theta", "nan", "--N", "10", "--replicas", "100"],
             "theta"),
            (["scaling-fit", "--alpha", "nan", "--N-grid", "10,20,40,80",
              "--replicas", "100"], "alpha"),
            (["gclt", "--alpha", "nan", "--N", "100", "--replicas", "1000"],
             "alpha"),
            (["forward", "--alpha", "nan", "--N", "100", "--kind", "pressure"],
             "alpha"),
            (["rates", "--alpha", "inf", "--i-max", "3"], "alpha"),
            (["forward", "--alpha", "inf", "--N", "10", "--generations", "3"],
             "alpha"),
            (["scaling-fit", "--alpha", "inf", "--N-grid", "10,20,40,80",
              "--replicas", "100"], "alpha"),
            (["gclt", "--alpha", "inf", "--N", "100", "--replicas", "1000"],
             "alpha"),
        ],
    )
    def test_nan_exits_two_naming_the_parameter(
        self, args, name, tmp_path, capsys
    ):
        rc, text = run_cli(args, tmp_path)
        assert rc == 2 and text == ""
        assert name in capsys.readouterr().err
