import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speckleq
from speckleq import UsageError, cli
from speckleq.cli import RunConfig, execute, main, parse_args, parse_values


def run_cli(tmp_path, *args):
    out = tmp_path / "out.dat"
    rc = main([*args, "--out", str(out)])
    return rc, out


class TestParseValues:
    def test_linear_range(self):
        values = parse_values("0:1.5:0.1", "--values")
        assert len(values) == 16
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.5, abs=1e-12)

    def test_log_range(self):
        values = parse_values("1e6:3.5e10:log25", "--budgets")
        assert len(values) == 25
        assert values[0] == pytest.approx(1e6, rel=1e-12)
        assert values[-1] == pytest.approx(3.5e10, rel=1e-12)

    def test_comma_list_and_scalar(self):
        assert parse_values("2,4,6,8", "--s") == [2.0, 4.0, 6.0, 8.0]
        assert parse_values("2", "--s") == [2.0]

    @pytest.mark.parametrize("bad", ["1:2", "1:2:0", "a,b", "1:2:log1", "-1:4:log5"])
    def test_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_values(bad, "--x")


class TestParseArgs:
    def test_default_parameters(self):
        config = parse_args(["fano-scatter", "--g", "1.5", "--s", "2"])
        assert config.command == "fano-scatter"
        assert config.options["alpha2"] == 10000.0
        assert config.options["m"] == 50
        assert config.options["trials"] == 1000
        assert config.options["seed"] == 1
        assert config.fmt == "csv"
        assert str(config.out) == "fano-scatter.csv"

    def test_rejects_weak_disorder(self):
        with pytest.raises(UsageError):
            parse_args(["fano-scatter", "--s", "0.5"])

    def test_rejects_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["fano-scatter", "--bogus", "1"])

    def test_missing_command(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_json_format_selected(self):
        config = parse_args(["snr-sweep", "--format", "json"])
        assert config.fmt == "json"
        assert str(config.out) == "snr-sweep.json"

    def test_axis_dependent_default_values(self):
        g_axis = parse_args(["snr-sweep", "--axis", "g"])
        s_axis = parse_args(["snr-sweep", "--axis", "s"])
        assert g_axis.options["values"][0] == 0.0
        assert s_axis.options["values"][0] == 2.0

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("SPECKLE_SEED", "99")
        config = parse_args(["fano-scatter", "--seed", "5"])
        assert config.options["seed"] == 99
        monkeypatch.setenv("SPECKLE_SEED", "zzz")
        with pytest.raises(UsageError):
            parse_args(["fano-scatter"])

    def test_superres_validation(self):
        with pytest.raises(UsageError):
            parse_args(["superres", "--s", "0.5,2"])
        with pytest.raises(UsageError):
            parse_args(["superres", "--budgets", "0,10"])
        with pytest.raises(UsageError):
            parse_args(["superres", "--epsilon", "2"])

    @pytest.mark.parametrize(
        "args",
        [
            ["universal-fano", "--g", "0"],
            ["snr-sweep", "--alpha2", "0", "--values", "0,1"],
            ["snr-sweep", "--axis", "s", "--alpha2", "0", "--g", "0"],
            ["nm-sweep", "--alpha2", "0", "--g", "0"],
            ["fano-scatter", "--alpha2", "0", "--g", "0"],
            ["loss-sweep", "--alpha2", "0", "--g", "0,1"],
            ["superres", "--alpha2", "0", "--g", "0"],
        ],
    )
    def test_rejects_dark_input(self, tmp_path, capsys, args):
        rc, out = run_cli(tmp_path, *args, "--trials", "10")
        assert rc == 2
        assert not out.exists()
        assert "dark input" in capsys.readouterr().err

    def test_main_exit_codes_for_usage(self, capsys):
        assert main(["fano-scatter", "--s", "0.5"]) == 2
        assert main([]) == 2
        assert "usage error" in capsys.readouterr().err


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCommands:
    def test_fano_scatter(self, tmp_path, capsys):
        rc, out = run_cli(
            tmp_path, "fano-scatter", "--trials", "50", "--g", "1.5", "--s", "2"
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["trial", "fano"]
        assert len(rows) == 50
        assert all(float(r[1]) < 1.0 for r in rows)
        assert "wrote 50 rows" in capsys.readouterr().out

    def test_snr_sweep_schema(self, tmp_path):
        rc, out = run_cli(
            tmp_path, "snr-sweep", "--axis", "g", "--values", "0:1.5:0.5", "--s", "2",
            "--trials", "60",
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]
        assert len(rows) == 4
        assert float(rows[0][3]) == 1.0  # g = 0 is exactly shot-noise limited

    def test_nm_sweep(self, tmp_path):
        rc, out = run_cli(tmp_path, "nm-sweep", "--values", "0.2,0.6,1.0", "--trials", "60")
        assert rc == 0
        header, rows = read_csv(out)
        ratio = [float(r[3]) for r in rows]
        assert ratio[0] < ratio[1] < ratio[2]

    def test_universal_fano(self, tmp_path):
        rc, out = run_cli(
            tmp_path, "universal-fano", "--values", "0.2,0.9,0.99", "--trials", "60"
        )
        assert rc == 0
        _, rows = read_csv(out)
        fanos = [float(r[2]) for r in rows]
        assert fanos[0] > fanos[1] > fanos[2]

    def test_loss_sweep(self, tmp_path):
        rc, out = run_cli(
            tmp_path, "loss-sweep", "--g", "1.5", "--loss-grid", "0:0.4:0.2",
            "--trials", "60",
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["g", "axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]
        ratios = [float(r[4]) for r in rows]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_superres_schema(self, tmp_path):
        rc, out = run_cli(
            tmp_path, "superres", "--s", "2,6", "--budgets", "1e7:1e10:log4",
            "--trials", "60",
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["s", "mean_n", "Q", "W", "W_Q", "J"]
        assert len(rows) == 12  # coherent + two squeezed curves, 4 budgets each
        assert {r[0] for r in rows} == {"0", "2", "6"}

    def test_superres_low_budgets_stay_inside_support(self, tmp_path):
        # low budgets keep Q = 2, whose PSF halves only at the support edge z = 1
        rc, out = run_cli(tmp_path, "superres", "--budgets", "1e3:1e7:log9", "--trials", "50")
        assert rc == 0
        _, rows = read_csv(out)
        assert all(float(r[4]) <= 1.0 for r in rows)
        low = [r for r in rows if r[2] == "2"]
        assert low and all(r[4] == "1" and r[5] == r[3] for r in low)

    def test_superres_too_dim_exit_code(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, "superres", "--budgets", "1,2", "--trials", "10")
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_psf_profiles(self, tmp_path):
        rc, out = run_cli(tmp_path, "psf", "--q", "7", "--step", "0.01")
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["z", "classical", "reconstruction"]
        assert float(rows[0][1]) == pytest.approx(1.0 / math.pi, rel=1e-12)
        beyond_support = [float(r[2]) for r in rows if float(r[0]) > 1.0]
        assert beyond_support and all(v == 0.0 for v in beyond_support)

    def test_prolate_basis_export(self, tmp_path):
        rc, out = run_cli(tmp_path, "prolate-basis", "--modes", "5")
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# prolate basis")
        assert len(text) == 3 + 256

    def test_oracle_check(self, tmp_path, capsys):
        rc, out = run_cli(tmp_path, "oracle-check", "--cases", "100", "--seed", "7")
        assert rc == 0
        captured = capsys.readouterr().out
        assert "worst case" in captured
        header, rows = read_csv(out)
        assert header[:3] == ["case", "M", "N"]
        assert len(rows) == 100
        assert all(float(r[6]) < 1e-10 and float(r[7]) < 1e-10 for r in rows)

    def test_photon_budget(self, tmp_path):
        rc, out = run_cli(tmp_path, "photon-budget")
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0][4]) == pytest.approx(3.47e10, rel=0.01)

    def test_json_output_mirrors_csv(self, tmp_path):
        out_csv = tmp_path / "a.csv"
        out_json = tmp_path / "a.json"
        base = ["snr-sweep", "--values", "0:1:0.5", "--trials", "40"]
        assert main([*base, "--out", str(out_csv)]) == 0
        assert main([*base, "--format", "json", "--out", str(out_json)]) == 0
        header, rows = read_csv(out_csv)
        payload = json.loads(out_json.read_text())
        assert payload["command"] == "snr-sweep"
        assert len(payload["rows"]) == len(rows)
        for row, json_row in zip(rows, payload["rows"]):
            assert list(json_row) == header
            for key, token in zip(header, row):
                assert json_row[key] == pytest.approx(float(token), rel=0, abs=0)


class TestRoundTripAndReproducibility:
    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        from speckleq import run_fano_scatter

        out = tmp_path / "fano.csv"
        assert main(["fano-scatter", "--trials", "25", "--seed", "11", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        expected = run_fano_scatter(50, 2.0, 1.5, 1e4, 25, 11)
        parsed = np.array([float(r[1]) for r in rows])
        assert np.array_equal(parsed, expected)

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["snr-sweep", "--values", "0:1.5:0.5", "--trials", "50", "--seed", "4"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["snr-sweep", "--values", "0:1.5:0.5", "--trials", "50", "--seed", "4"]
        assert main([*args, "--workers", "1", "--out", str(a)]) == 0
        assert main([*args, "--workers", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOutputFailures:
    def test_missing_directory_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.csv"
        assert main(["fano-scatter", "--trials", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("speckleq fano-scatter: error:")
        assert not out.parent.exists()

    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "pb.csv"
        out.write_text("previous\n")

        def crash_mid_write(path, **kwargs):
            path.write_text("truncat")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_write_table", crash_mid_write)
        assert main(["photon-budget", "--out", str(out)]) == 2
        assert out.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [out]


class TestExecuteSurface:
    def test_execute_returns_paths(self, tmp_path):
        config = parse_args(
            ["photon-budget", "--out", str(tmp_path / "pb.csv")]
        )
        status, paths = execute(config)
        assert status == 0
        assert paths == [tmp_path / "pb.csv"]

    def test_execute_numerical_error_status(self, tmp_path):
        config = RunConfig(
            command="superres",
            options=parse_args(
                ["superres", "--budgets", "1", "--trials", "5", "--out", str(tmp_path / "x.csv")]
            ).options,
            out=tmp_path / "x.csv",
            fmt="csv",
        )
        status, paths = execute(config)
        assert status == 3
        assert paths == []


class TestJsonEncoding:
    def test_non_finite_cells_are_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = tmp_path / "t.json"
        header = ["case", "rel_err_mean", "rel_err_var"]
        rows = [(0, math.inf, 1e-16), (1, math.nan, 0.0)]
        cli._write_table(out, "json", "oracle-check", header, rows)
        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["rows"] == [
            {"case": 0, "rel_err_mean": None, "rel_err_var": 1e-16},
            {"case": 1, "rel_err_mean": None, "rel_err_var": 0.0},
        ]


def test_cli_import_does_not_load_scipy_linalg():
    # scipy.linalg is needed only by the truncated-Fock oracle, which no command uses
    src = str(Path(speckleq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, speckleq.cli; print('scipy.linalg' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# parse_args([command]).options of every command, captured from the CLI before
# its flags were declared in one table: names, defaults and types must not move.
DEFAULT_OPTIONS = {
    "fano-scatter": {
        "g": 1.5, "s": 2.0, "seed": 1, "workers": 1, "trials": 1000, "m": 50, "alpha2": 10000.0,
    },
    "snr-sweep": {
        "axis": "g",
        "values": [
            0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001,
            0.8, 0.9, 1.0, 1.1, 1.2000000000000002, 1.3, 1.4000000000000001, 1.5,
        ],
        "g": 1.5, "s": 2.0, "seed": 1, "workers": 1, "trials": 1000, "m": 50, "alpha2": 10000.0,
    },
    "nm-sweep": {
        "values": [0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7000000000000001, 0.8, 0.9, 1.0],
        "g": 1.5, "s": 2.0, "seed": 1, "workers": 1, "trials": 1000, "m": 50, "alpha2": 10000.0,
    },
    "universal-fano": {
        "values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
        "g": 1.5, "s": 2.0, "seed": 1, "workers": 1, "trials": 1000, "m": 50,
    },
    "loss-sweep": {
        "g": [0.5, 1.0, 1.5],
        "s": 2.0,
        "loss_grid": [
            0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001,
            0.8, 0.9,
        ],
        "seed": 1, "workers": 1, "trials": 1000, "m": 50, "alpha2": 10000.0,
    },
    "superres": {
        "g": 1.5,
        "s": [2.0, 4.0, 6.0, 8.0],
        "budgets": [
            1000000.0, 1546451.0170017537, 2391510.747985753, 3698354.2283931924,
            5719323.657731388, 8844653.887060877, 13677823.998673804, 21152084.833120096,
            32710663.101885874, 50585438.220713146, 78227902.38190107, 120975619.1964048,
            187082869.33869708, 289314493.55243427, 447410692.78750926, 691898720.8787,
            1069987480.5650781, 1654683227.4990091, 2558886559.9815865, 3957192723.0756435,
            6119604711.072243, 9463668929.08643, 14635100439.953547, 22632465959.288975,
            35000000000.0,
        ],
        "c": 1.0, "epsilon": 0.01, "modes": 7, "quad_order": 256,
        "seed": 1, "workers": 1, "trials": 1000, "m": 50, "alpha2": 10000.0,
    },
    "psf": {"c": 1.0, "q": 7, "step": 0.001, "modes": 7, "quad_order": 256, "seed": 1, "workers": 1},
    "prolate-basis": {"c": 1.0, "modes": 7, "quad_order": 256, "seed": 1, "workers": 1},
    "oracle-check": {"cases": 500, "seed": 1, "workers": 1},
    "photon-budget": {
        "wavelength": 6.94e-07, "power": 0.001, "duration": 0.001, "fraction": 0.01,
        "seed": 1, "workers": 1,
    },
}

# Every float flag and value-list flag of every command.
FLOAT_FLAGS = [
    ("fano-scatter", "--g"), ("fano-scatter", "--s"), ("fano-scatter", "--alpha2"),
    ("snr-sweep", "--values"), ("snr-sweep --axis s", "--values"), ("snr-sweep", "--g"),
    ("snr-sweep", "--s"), ("snr-sweep", "--alpha2"),
    ("nm-sweep", "--values"), ("nm-sweep", "--g"), ("nm-sweep", "--s"), ("nm-sweep", "--alpha2"),
    ("universal-fano", "--values"), ("universal-fano", "--g"), ("universal-fano", "--s"),
    ("loss-sweep", "--g"), ("loss-sweep", "--s"), ("loss-sweep", "--loss-grid"),
    ("loss-sweep", "--alpha2"),
    ("superres", "--g"), ("superres", "--s"), ("superres", "--budgets"), ("superres", "--c"),
    ("superres", "--epsilon"), ("superres", "--alpha2"),
    ("psf", "--c"), ("psf", "--step"),
    ("prolate-basis", "--c"),
    ("photon-budget", "--wavelength"), ("photon-budget", "--power"), ("photon-budget", "--duration"),
    ("photon-budget", "--fraction"),
]
LIST_FLAGS = [
    ("snr-sweep", "--values"), ("snr-sweep --axis s", "--values"), ("nm-sweep", "--values"),
    ("universal-fano", "--values"), ("loss-sweep", "--g"), ("loss-sweep", "--loss-grid"),
    ("superres", "--s"), ("superres", "--budgets"),
]


def assert_usage_error(tmp_path, capsys, args):
    out = tmp_path / "out.dat"
    assert main([*args, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("speckleq: usage error:")


class TestOptionDomains:
    @pytest.mark.parametrize("command", sorted(DEFAULT_OPTIONS))
    def test_defaults_unchanged(self, monkeypatch, command):
        monkeypatch.delenv("SPECKLE_SEED", raising=False)
        options = parse_args([command]).options
        expected = DEFAULT_OPTIONS[command]
        assert options == expected
        assert {k: type(v) for k, v in options.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, flag, value):
        assert_usage_error(tmp_path, capsys, [*command.split(), f"{flag}={value}"])

    @pytest.mark.parametrize("value", ["2,nan", "2,inf", "0.5:inf:0.5", "1:1e400:log3", ""])
    @pytest.mark.parametrize("command,flag", LIST_FLAGS)
    def test_non_finite_or_empty_list_exits_2(self, tmp_path, capsys, command, flag, value):
        assert_usage_error(tmp_path, capsys, [*command.split(), f"{flag}={value}"])

    @pytest.mark.parametrize(
        "args",
        [
            ["fano-scatter", "--trials", "0"], ["fano-scatter", "--m", "0"],
            ["fano-scatter", "--workers", "0"], ["fano-scatter", "--alpha2=-1"],
            ["fano-scatter", "--g=-0.5"], ["nm-sweep", "--s", "1"], ["snr-sweep", "--g=-1"],
            ["snr-sweep", "--values=-0.1,1"], ["snr-sweep", "--axis", "s", "--values", "1,2"],
            ["snr-sweep", "--axis", "q"], ["nm-sweep", "--values", "0,0.5"],
            ["nm-sweep", "--values", "0.5,1.5"], ["universal-fano", "--values", "0.5,1"],
            ["loss-sweep", "--loss-grid", "0,1.5"], ["loss-sweep", "--g=-1,1"],
            ["superres", "--budgets", "0,10"], ["superres", "--epsilon", "1"],
            ["superres", "--modes", "0"], ["superres", "--quad-order", "0"],
            ["psf", "--c", "0"], ["psf", "--step", "0"], ["psf", "--q", "0"], ["psf", "--q", "8"],
            ["psf", "--modes", "3", "--q", "4"], ["oracle-check", "--cases", "0"],
            ["photon-budget", "--fraction", "0"], ["photon-budget", "--fraction", "1.5"],
            ["photon-budget", "--wavelength", "0"], ["photon-budget", "--format", "xml"],
            ["fano-scatter", "--trials", "1.5"], ["fano-scatter", "--seed", "x"],
        ],
    )
    def test_out_of_range_exits_2(self, tmp_path, capsys, args):
        assert_usage_error(tmp_path, capsys, args)

    def test_parse_values_rejects_non_finite(self):
        for bad in ["0:inf:1", "nan:1:0.1", "0:1:inf", "1:inf:log3", "1,nan", ""]:
            with pytest.raises(UsageError):
                parse_values(bad, "--x")


class TestNumericalFailures:
    @pytest.mark.parametrize("args", [["--g", "200"], ["--g", "400", "--trials", "5"]])
    def test_overflowing_squeeze_exits_3(self, tmp_path, capsys, args):
        # g = 200 overflows sinh^2 cosh^2 in numpy, g = 400 overflows math.sinh itself
        out = tmp_path / "f.csv"
        assert main(["fano-scatter", *args, "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("speckleq fano-scatter: error:")
        assert "Overflow" in err[0] or "overflow" in err[0]

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 22.9 TiB")

        monkeypatch.setitem(cli._COMMANDS, "psf", cli._COMMANDS["psf"]._replace(run=exhausted))
        out = tmp_path / "p.csv"
        assert main(["psf", "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert err == ["speckleq psf: error: MemoryError: Unable to allocate 22.9 TiB"]

    def test_failed_oracle_check_keeps_file_and_exits_3(self, tmp_path, capsys, monkeypatch):
        check = cli.gaussian_oracle.run_equivalence_check
        strict = lambda cases, seed: check(cases, seed, tolerance=0.0)  # noqa: E731
        monkeypatch.setattr(cli.gaussian_oracle, "run_equivalence_check", strict)
        out = tmp_path / "o.csv"
        assert main(["oracle-check", "--cases", "20", "--out", str(out)]) == 3
        assert len(read_csv(out)[1]) == 20
        captured = capsys.readouterr()
        assert "worst case" in captured.out
        assert captured.err.splitlines() == ["speckleq oracle-check: FAILED tolerance 0.0e+00"]

    def test_prolate_basis_unwritable_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "basis.txt"
        assert main(["prolate-basis", "--modes", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("speckleq prolate-basis: error: cannot write")
