import functools
import inspect
import math
import re
import warnings

import numpy as np
import pytest

from paretocoal import cli, finite_mc
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
        rc, text = run_cli(
            ["forward", "--alpha", "1", "--N", "10", "--generations", "3",
             "--seed", "9"], tmp_path
        )
        first = text.splitlines()[0]
        assert first.startswith("# seed=9, params=")
        assert "version=" in first
        assert f", numpy={np.__version__}, bitgen=PCG64DXSM" in first
        # rates draws nothing, so its line carries no seed
        rc, text = run_cli(["rates", "--alpha", "3"], tmp_path)
        first = text.splitlines()[0]
        assert first.startswith("# params=") and "seed=" not in first
        assert f", numpy={np.__version__}, bitgen=PCG64DXSM" in first

    def test_xi_matrix_subcommand_guard(self, tmp_path, capsys):
        # rates prints every exact table; the alias is an unknown command
        with pytest.raises(SystemExit) as exc:
            main(["xi-matrix", "--alpha", "0.5", "--i-max", "4"])
        assert exc.value.code == 2
        assert "xi-matrix" in capsys.readouterr().err

    def test_stirling_boundary_case(self, tmp_path):
        rc, text = run_cli(
            ["rates", "--alpha", "0", "--beta", "-1", "--i-max", "3"],
            tmp_path,
        )
        assert rc == 0
        assert "2,1,0.5" in text.splitlines()

    def test_stirling_needs_negative_bias(self, capsys):
        rc = main(["rates", "--alpha", "0", "--beta", "0", "--i-max", "3"])
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
        with pytest.raises(SystemExit) as exc:
            main(["finite-mc", "--theta", "1"])
        assert exc.value.code == 2
        assert "--N" in capsys.readouterr().err

    def test_degenerate_row_warns_once(self, tmp_path, capsys):
        # Every column of a row shares one ESS: one comment, none on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            rc, text = run_cli(
                ["finite-mc", "--alpha", "2.5", "--N", "50", "--beta", "200",
                 "--i", "4", "--replicas", "10000", "--seed", "1"],
                tmp_path,
            )
        assert rc == 0
        comments = [l for l in text.splitlines() if l.startswith("# warning:")
                    and "weights are degenerate" in l]
        assert len(comments) == 1
        assert "i in [4]: effective sample size 1.0 " in comments[0]
        assert capsys.readouterr().err == ""
        _, rows = data_rows(text)
        assert len(rows) == 4

    def test_classes_never_hit_are_named(self, tmp_path):
        # P(4, 1) = 2.4e-8 and P(4, 2) = 3.6e-5 at theta = 1, N = 1000: no
        # replica of 20000 hits them, so both read 0 with stderr 0.
        rc, text = run_cli(
            ["finite-mc", "--theta", "1", "--beta", "1", "--N", "1000",
             "--i", "4", "--replicas", "20000", "--seed", "42"],
            tmp_path,
        )
        assert rc == 0
        comments = [l for l in text.splitlines() if l.startswith("# warning:")]
        assert comments == ["# warning: no replica hit j=1 of row i=4",
                            "# warning: no replica hit j=2 of row i=4"]
        _, rows = data_rows(text)
        assert [r[2:4] for r in rows[:2]] == [["0", "0"], ["0", "0"]]

    def test_row_with_every_class_hit_has_no_warning(self, tmp_path):
        rc, text = run_cli(
            ["finite-mc", "--alpha", "1.5", "--N", "1000", "--i", "4",
             "--replicas", "20000", "--seed", "42"],
            tmp_path,
        )
        assert rc == 0
        assert "# warning:" not in text
        _, rows = data_rows(text)
        assert all(float(r[2]) > 0 for r in rows)


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
             "--replicas", "4", "--seed", "77"],
            ["scaling-fit", "--alpha", "1.5", "--N-grid", "20,40,80,160",
             "--replicas", "500", "--seed", "77"],
            ["simulate", "--family", "beta", "--alpha", "1.5",
             "--N-grid", "10,20", "--replicas", "50", "--seed", "77"],
        ):
            _, a = run_cli(args, tmp_path, "a.csv")
            _, b = run_cli(args, tmp_path, "b.csv")
            assert a == b, args[0]


def args_file(tmp_path, args, name="run.args"):
    """An argparse args file: one argument per line."""
    path = tmp_path / name
    path.write_text("".join(f"{a}\n" for a in args))
    return "@" + str(path)


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        at = args_file(tmp_path, ["--alpha", "3.0", "--i-max", "4"])
        rc, text = run_cli(["rates", at, "--i-max", "3"], tmp_path)
        assert rc == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert "3,2,3" in rows
        assert not any(r.startswith("4,") for r in rows)  # override took

    @pytest.mark.parametrize(
        "entries, flags, overrides",
        [
            (["--family", "kingman", "--N-grid", "10,20", "--replicas", "50",
              "--seed", "3"],
             ["--family", "kingman", "--N-grid", "10,20", "--replicas", "50",
              "--seed", "3"], []),
            (["--family", "bs", "--N", "30", "--trajectory", "--seed", "6"],
             ["--family", "bs", "--N", "30", "--trajectory", "--seed", "6"],
             []),
            (["--family", "kingman", "--N", "20", "--replicas", "500",
              "--seed", "1"],
             ["--family", "kingman", "--N", "20", "--replicas", "40",
              "--seed", "1"], ["--replicas", "40"]),
        ],
    )
    def test_config_reads_as_flags(self, entries, flags, overrides, tmp_path):
        at = args_file(tmp_path, entries)
        rc_a, a = run_cli(["simulate", *flags], tmp_path, "a.csv")
        rc_b, b = run_cli(["simulate", at, *overrides], tmp_path, "b.csv")
        assert rc_a == rc_b == 0 and a and a == b

    @pytest.mark.parametrize(
        "entries, flag",
        [(["--alpha", "3.0", "--theta", "1.0"], "--theta"),
         (["--alpha", "3.0", "--N", "ten"], "--N"),
         (["--alpha", "3.0", "--i-max", "ten"], "--i-max")],
    )
    def test_bad_entry_exits_two(self, entries, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", args_file(tmp_path, entries)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.args"
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--alpha", "1.5", f"@{missing}"])
        assert exc.value.code == 2
        assert "missing.args" in capsys.readouterr().err


def params(name):
    """The parameters of a subcommand's handler: its flags."""
    return inspect.signature(cli._HANDLERS[name]).parameters


# A parsable value for each flag that some handler requires.
REQUIRED_VALUES = {"alpha": "1.5", "N": "10", "N_grid": "10,20,40,80",
                   "family": "kingman"}


def required_args(name, omit=None):
    """Every required flag of a subcommand but `omit`, with a value."""
    args = []
    for key, p in params(name).items():
        if p.default is p.empty and key != omit:
            args += [cli._flag(key), REQUIRED_VALUES[key]]
    return args


class TestFlagsRead:
    def test_help_lists_the_flags_read(self, capsys):
        total = 0
        for name in cli._HANDLERS:
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
            expected = {cli._flag(k) for k in params(name)}
            assert listed == expected | {"--help", "--out"}
            total += len(listed) - 1
        assert total == 41

    def test_unread_flag_exits_two(self, capsys):
        for name in cli._HANDLERS:
            for key in set(cli._FLAGS) - set(params(name)):
                value = [] if key == "trajectory" else ["1"]
                with pytest.raises(SystemExit) as exc:
                    main([name, *required_args(name), cli._flag(key), *value])
                assert exc.value.code == 2, (name, key)
                assert cli._flag(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key",
        [(name, key) for name in cli._HANDLERS
         for key, p in params(name).items() if p.default is p.empty],
    )
    def test_missing_required_flag_exits_two(self, name, key, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, *required_args(name, omit=key)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"the following arguments are required: {cli._flag(key)}" in err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["simulate", "--family", "kingman", "--alpha", "1.5", "--N", "20",
              "--trajectory"], "--alpha"),
            (["simulate", "--family", "bs", "--alpha", "1.5", "--N", "20"],
             "--alpha"),
            (["simulate", "--family", "kingman", "--beta", "0.5", "--N", "20"],
             "--beta"),
            (["finite-mc", "--theta", "1", "--alpha", "1.5", "--N", "10",
              "--replicas", "100"], "--alpha"),
            (["simulate", "--family", "xi", "--alpha", "0.5", "--N", "10"],
             "--family xi needs --trajectory"),
            (["simulate", "--family", "kingman", "--N", "20", "--trajectory",
              "--N-grid", "10,20"], "--N-grid"),
            (["simulate", "--family", "kingman", "--N", "20", "--trajectory",
              "--replicas", "10"], "--replicas"),
            (["simulate", "--family", "kingman", "--N", "20", "--N-grid",
              "10,20"], "--N is"),
        ],
    )
    def test_ignored_value_exits_two(self, args, flag, tmp_path, capsys):
        rc, text = run_cli(args, tmp_path)
        assert rc == 2 and text == ""
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--family", "kingman", "--N-grid", "", "--N", "10",
             "--replicas", "10"],
            ["scaling-fit", "--alpha", "1.5", "--N-grid", ",", "--replicas",
             "100"],
        ],
    )
    def test_empty_N_grid_exits_two(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--N-grid: empty list" in capsys.readouterr().err

    def test_internal_type_error_exits_one(self, monkeypatch, capsys):
        @functools.wraps(cli._HANDLERS["gclt"])  # the same parameters
        def broken(**flags):
            raise TypeError("internal fault")

        monkeypatch.setitem(cli._HANDLERS, "gclt", broken)
        assert main(["gclt", "--alpha", "1", "--N", "10"]) == 1
        assert "internal fault" in capsys.readouterr().err

    def test_empty_message_names_the_exception_type(self, monkeypatch, capsys):
        @functools.wraps(cli._HANDLERS["gclt"])
        def exhausted(**flags):
            raise MemoryError()

        monkeypatch.setitem(cli._HANDLERS, "gclt", exhausted)
        assert main(["gclt", "--alpha", "1", "--N", "10"]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"


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

    def test_unknown_family_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--family", "foo", "--N", "10", "--trajectory"])
        assert exc.value.code == 2
        assert "--family" in capsys.readouterr().err

    def test_xi_trajectory_cap_names_N(self, tmp_path, capsys):
        rc, text = run_cli(
            ["simulate", "--family", "xi", "--alpha", "0.5", "--N", "2001",
             "--trajectory"],
            tmp_path,
        )
        assert rc == 2 and text == ""
        assert "--N" in capsys.readouterr().err

    def test_xi_step_cap_exits_one(self, monkeypatch, tmp_path, capsys):
        # At alpha near 1 the chain almost never leaves its state.
        monkeypatch.setattr(finite_mc, "_MAX_STEPS", 1000)
        rc, text = run_cli(
            ["simulate", "--family", "xi", "--alpha", "0.99999999", "--N",
             "10", "--trajectory", "--seed", "1"],
            tmp_path,
        )
        assert rc == 1 and text == ""
        assert "chain exceeded 1000 steps" in capsys.readouterr().err

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
             "--replicas", "10", "--seed", "5"],
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
                     "100", "--replicas", replicas],
                    tmp_path,
                )
            assert rc == 2 and text == ""
            assert "replicas" in capsys.readouterr().err

    def test_generation_cap_exits_two(self, tmp_path, capsys):
        rc, text = run_cli(
            ["forward", "--alpha", "1", "--N", "10", "--generations", "1000001",
             "--seed", "1"],
            tmp_path,
        )
        assert rc == 2 and text == ""
        err = capsys.readouterr().err
        assert "generations" in err and "1000000" in err

    def test_pressure_sweep(self, tmp_path):
        rc, text = run_cli(
            ["pressure", "--alpha", "1", "--N", "10000"],
            tmp_path,
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header == ["beta", "pressure"]
        by_beta = {float(r[0]): float(r[1]) for r in rows}
        assert min(abs(b) for b in by_beta) < 0.1  # grid crosses zero
        # pressure vanishes at beta = 0 and is positive for beta < 0
        assert all(v > 0 for b, v in by_beta.items() if b < -0.1)

    def test_pressure_draws_nothing(self, tmp_path, capsys):
        rc, text = run_cli(["pressure", "--alpha", "1", "--N", "100"], tmp_path)
        assert rc == 0
        first = text.splitlines()[0]
        assert first.startswith("# params=") and "seed=" not in first
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--alpha", "1", "--N", "100", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_kind_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forward", "--alpha", "1", "--N", "10", "--kind", "speed"])
        assert exc.value.code == 2
        assert "--kind" in capsys.readouterr().err


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

    def test_fifty_replicas_give_a_finite_fit(self, tmp_path):
        # Each point's stderr comes from steps between its 50 strata, so
        # no point gets a zero stderr and an infinite fit weight.
        rc, text = run_cli(
            ["scaling-fit", "--alpha", "1.5", "--N-grid", "10,20,40,80",
             "--replicas", "50", "--seed", "3"],
            tmp_path,
        )
        assert rc == 0
        fit_line = next(l for l in text.splitlines() if l.startswith("# fit:"))
        assert "nan" not in fit_line and "inf" not in fit_line
        _, rows = data_rows(text)
        assert all(float(se) > 0 for _, _, se in rows)

    def test_heavy_tail_warning_printed_once(self, tmp_path, capsys):
        # One model per N, each warning alike: one comment line in all.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            rc, text = run_cli(
                ["scaling-fit", "--alpha", "0.8", "--beta", "0.4",
                 "--N-grid", "10,20,40,80", "--replicas", "200", "--seed", "1"],
                tmp_path,
            )
        assert rc == 0
        lines = text.splitlines()
        comments = [l for l in lines if l.startswith("# warning:")]
        assert len(comments) == 1 and "2*beta >= alpha" in comments[0]
        assert lines[1] == comments[0]  # right after the provenance line
        assert capsys.readouterr().err == ""

    def test_grid_validation(self, capsys):
        for args in (
            ["--alpha", "3", "--N-grid", "100,200"],
            ["--alpha", "1.5", "--N-grid", "100,100,100,100",
             "--replicas", "100"],
            # c_N = 1 with stderr 0 at N = 1 would get an infinite weight
            ["--alpha", "0.5", "--N-grid", "1,2,3,4", "--replicas", "100"],
        ):
            assert main(["scaling-fit", *args]) == 2, args
            assert "N grid" in capsys.readouterr().err, args

    def test_degenerate_weights_exit_two_naming_N(self, tmp_path, capsys):
        # At beta = 200 every point's ESS is about 1; its stderr is noise.
        # A failed run prints its warning lines on stderr, before the error.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            rc, text = run_cli(
                ["scaling-fit", "--alpha", "2.5", "--beta", "200",
                 "--N-grid", "10,20,40,80", "--replicas", "2000",
                 "--seed", "1"],
                tmp_path,
            )
        assert rc == 2 and text == ""
        err = capsys.readouterr().err
        assert "alpha=2.5, beta=200.0, N=[10, 20, 40, 80]" in err
        assert "Singular matrix" not in err
        *notes, error = err.splitlines()
        assert notes[0].startswith("# warning: 2*beta >= alpha")
        assert all(l.startswith("# warning: ") for l in notes)
        assert error.startswith("error: degenerate weights")


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
            (["pressure", "--alpha", "nan", "--N", "100"], "alpha"),
            (["rates", "--alpha", "inf", "--i-max", "3"], "alpha"),
            (["forward", "--alpha", "inf", "--N", "10", "--generations", "3"],
             "alpha"),
            (["scaling-fit", "--alpha", "inf", "--N-grid", "10,20,40,80",
              "--replicas", "100"], "alpha"),
            (["gclt", "--alpha", "inf", "--N", "100", "--replicas", "1000"],
             "alpha"),
            (["pressure", "--alpha", "inf", "--N", "10"], "alpha"),
            # ln(N)/alpha and beta/alpha overflow to inf at alpha = 1e-308
            (["forward", "--alpha", "1e-308", "--N", "10", "--generations",
              "2"], "alpha"),
            (["pressure", "--alpha", "1e-308", "--N", "10"], "alpha"),
        ],
    )
    def test_nan_exits_two_naming_the_parameter(
        self, args, name, tmp_path, capsys
    ):
        rc, text = run_cli(args, tmp_path)
        assert rc == 2 and text == ""
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            # a Pareto draw U^(-1/alpha) overflows once alpha < 53/1024
            (["finite-mc", "--alpha", "0.01", "--N", "100",
              "--replicas", "100"], "alpha=0.01, N=100"),
            (["scaling-fit", "--alpha", "0.01", "--N-grid", "10,20,40,80",
              "--replicas", "100"], "alpha=0.01"),
            # about half of gamma(0.001) draws are exactly 0.0
            (["finite-mc", "--theta", "0.001", "--N", "10",
              "--replicas", "1000", "--seed", "3"], "theta=0.001, N=10"),
        ],
    )
    def test_partition_rows_without_a_sum_exit_two(
        self, args, message, tmp_path, capsys
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, text = run_cli(args, tmp_path)
        assert rc == 2 and text == ""
        assert message in capsys.readouterr().err
