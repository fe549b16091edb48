import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import speckleq
from speckleq import UsageError, cli, random_media
from speckleq.cli import RunConfig, execute, main, parse_args

# A value-list flag type with no range rule: list flags (--values, --s, --budgets ...) parse through it.
VALUES = cli._Domain(cli._value_list, lambda value: True, "")


def run_cli(tmp_path, *args):
    out = tmp_path / "out.dat"
    rc = main([*args, "--out", str(out)])
    return rc, out


class TestParseValues:
    def test_linear_range(self):
        values = VALUES("--values", "0:1.5:0.1")
        assert len(values) == 16
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.5, abs=1e-12)

    def test_log_range(self):
        values = VALUES("--budgets", "1e6:3.5e10:log25")
        assert len(values) == 25
        assert values[0] == pytest.approx(1e6, rel=1e-12)
        assert values[-1] == pytest.approx(3.5e10, rel=1e-12)

    def test_comma_list_and_scalar(self):
        assert VALUES("--s", "2,4,6,8") == [2.0, 4.0, 6.0, 8.0]
        assert VALUES("--s", "2") == [2.0]

    @pytest.mark.parametrize("bad", ["1:2", "1:2:0", "a,b", "1:2:log1", "-1:4:log5"])
    def test_malformed(self, bad):
        with pytest.raises(UsageError):
            VALUES("--x", bad)


# A dark input: some axis point has g = 0 and zero coherent intensity.
DARK_INPUTS = [
    ["universal-fano", "--g", "0"],
    ["snr-sweep", "--alpha2", "0", "--values", "0,1"],
    ["snr-sweep", "--axis", "s", "--alpha2", "0", "--g", "0"],
    ["nm-sweep", "--alpha2", "0", "--g", "0"],
    ["fano-scatter", "--alpha2", "0", "--g", "0"],
    ["loss-sweep", "--alpha2", "0", "--g", "0,1"],
    ["superres", "--alpha2", "0", "--g", "0"],
]


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

    @pytest.mark.parametrize("args", DARK_INPUTS)
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


NAMELESS_OUTS = [["--out="], ["--out", "."]]


class TestOutputFailures:
    @pytest.mark.parametrize("out", NAMELESS_OUTS, ids=" ".join)
    def test_nameless_out_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        assert main(["photon-budget", *out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("speckleq photon-budget: error: cannot write")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(("out", "existing"), [("sub/", False), ("sub/", True), ("./", False), ("/", False)])
    def test_trailing_separator_is_a_usage_error(self, tmp_path, monkeypatch, capsys, out, existing):
        # Path("sub/") is Path("sub"), so only the raw text shows that a directory was named
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "sub").mkdir()
        assert main(["photon-budget", "--out", out]) == 2
        assert main(["photon-budget", f"--out={out}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"speckleq: usage error: --out: {out!r} ends in a path separator, "
                       "so it names a directory, not a file"] * 2
        assert list(tmp_path.iterdir()) == ([tmp_path / "sub"] if existing else [])
        assert not existing or list((tmp_path / "sub").iterdir()) == []

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

        def crash_mid_write(path, *args):
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

    @pytest.mark.parametrize("command, fmt", [("prolate-basis", "csv"), ("prolate-basis", "json"),
                                              ("photon-budget", "txt"), ("photon-budget", "xml")])
    def test_execute_rejects_a_format_its_command_does_not_write(self, tmp_path, capsys, command, fmt):
        out = tmp_path / "x.out"
        config = parse_args([command, "--out", str(out)])._replace(fmt=fmt)
        assert execute(config) == (2, [])
        assert capsys.readouterr().err == f"speckleq {command}: error: format {fmt!r}: {command} does not write it\n"
        assert not out.exists()


def json_dumps_reference(command, header, rows):
    """The JSON writer's former body: ``json.dumps(indent=2)`` of the same cells, nan and inf as null."""

    def cell(value):
        return value if isinstance(value, int) or math.isfinite(value) else None

    payload = {"command": command, "rows": [{k: cell(v) for k, v in zip(header, row)} for row in rows]}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# Every command with a table output, at sizes that run quickly.
JSON_COMMANDS = [
    ["fano-scatter", "--trials", "20"],
    ["snr-sweep", "--values", "0:1:0.5", "--trials", "20"],
    ["snr-sweep", "--axis", "s", "--values", "2,3", "--trials", "20"],
    ["nm-sweep", "--values", "0.5,1", "--trials", "20"],
    ["universal-fano", "--values", "0,0.5", "--trials", "20"],
    ["loss-sweep", "--g", "0.5,1", "--loss-grid", "0,1", "--trials", "20"],
    ["superres", "--s", "2", "--budgets", "1e7,1e9", "--trials", "20"],
    ["psf", "--step", "0.05"],
    ["oracle-check", "--cases", "40"],
    ["photon-budget"],
]


# Every command that draws disorder, at sizes that run quickly.
MONTE_CARLO_COMMANDS = [
    ["fano-scatter", "--trials", "5"],
    ["snr-sweep", "--values", "0.5", "--trials", "5"],
    ["nm-sweep", "--values", "0.5", "--trials", "5"],
    ["universal-fano", "--values", "0.5", "--trials", "5"],
    ["loss-sweep", "--g", "0.5", "--loss-grid", "0", "--trials", "5"],
    ["superres", "--s", "2", "--budgets", "1e9", "--trials", "5"],
    ["oracle-check", "--cases", "5"],
]


def table_rows(columns):
    """The rows of integer or float64 columns, as the Python ints and floats of their ``tolist()``."""
    return list(zip(*(column.tolist() for column in columns)))


def run_recorded(tmp_path, monkeypatch, *args):
    """Run the CLI and record each (command, header, columns, preamble) passed to the table writer."""
    written = []
    exact = cli._write_table

    def recording(path, fmt, command, table):
        written.append((command, table.header, table.columns, table.preamble))
        exact(path, fmt, command, table)

    monkeypatch.setattr(cli, "_write_table", recording)
    rc, out = run_cli(tmp_path, *args)
    return rc, out, written


class TestJsonEncoding:
    def test_non_finite_cells_are_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = tmp_path / "t.json"
        header = ["case", "rel_err_mean", "rel_err_var"]
        columns = (np.arange(2), np.array([math.inf, math.nan]), np.array([1e-16, 0.0]))
        cli._write_table(out, "json", "oracle-check", cli._Output(header, columns))
        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["rows"] == [
            {"case": 0, "rel_err_mean": None, "rel_err_var": 1e-16},
            {"case": 1, "rel_err_mean": None, "rel_err_var": 0.0},
        ]

    @pytest.mark.parametrize("args", JSON_COMMANDS, ids=lambda args: " ".join(args[:3]))
    def test_command_output_equals_json_dumps(self, tmp_path, monkeypatch, args):
        rc, out, written = run_recorded(tmp_path, monkeypatch, *args, "--format", "json")
        assert rc == 0 and len(written) == 1
        command, header, columns, _ = written[0]
        assert out.read_text() == json_dumps_reference(command, header, table_rows(columns))
        # the writer quotes the command name and the header keys itself, so each is its own json.dumps
        for name in (command, *header):
            assert json.dumps(name) == f'"{name}"'

    def test_command_names_are_their_own_json_strings(self):
        for name in cli._COMMANDS:
            assert json.dumps(name) == f'"{name}"'


def format_cell_reference(value):
    """The CSV writer's former per-cell conversion."""
    return str(value) if isinstance(value, int) else format(value, ".17g")


def csv_reference(header, rows):
    """The CSV writer's former body: one ``format_cell_reference`` per cell, joined by commas."""
    lines = [",".join(header)]
    lines.extend(",".join(format_cell_reference(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestCsvEncoding:
    @pytest.mark.parametrize("args", JSON_COMMANDS, ids=lambda args: " ".join(args[:3]))
    def test_command_output_equals_per_cell_csv(self, tmp_path, monkeypatch, args):
        rc, out, written = run_recorded(tmp_path, monkeypatch, *args)
        assert rc == 0 and len(written) == 1
        _, header, columns, _ = written[0]
        assert out.read_text() == csv_reference(header, table_rows(columns))


BLOCK = cli._WRITE_BLOCK_ROWS
BLOCK_EDGE_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
EDGE_HEADER = ["case", "M", "x", "y"]
INT_EDGES = [-(2**63), 2**63 - 1, 0, -7]
FLOAT_EDGES = [-0.0, 5e-324, 1e300, 2.0**53 + 1, 0.1, -1.5e-300, 1 / 3]


def edge_columns(n):
    """int64 and float64 columns of n rows that cycle through edge values, so each block holds them all.

    ``M`` cycles through the int64 extremes, ``x`` through finite float edges, and ``y`` through
    those and nan, inf and -inf, so ``y`` is finite at 1 row and holds all three from 10 rows on.
    """
    k = np.arange(n)
    x = np.array(FLOAT_EDGES)[k % len(FLOAT_EDGES)]
    y = np.array([*FLOAT_EDGES, math.nan, math.inf, -math.inf])[k % (len(FLOAT_EDGES) + 3)]
    return k, np.array(INT_EDGES, dtype=np.int64)[k % len(INT_EDGES)], x, y


class TestBlockWriterJsonCsv:
    """The block writer: the columns every runner passes it, and its bytes against the whole-table
    references at and around block edges."""

    @pytest.mark.parametrize("args", [*JSON_COMMANDS, ["prolate-basis", "--modes", "3", "--quad-order", "16"]],
                             ids=lambda args: " ".join(args[:3]))
    def test_every_column_is_an_integer_or_float64_array(self, tmp_path, monkeypatch, args):
        # the writer takes each column's conversion from its dtype and scans no cell, so this is its contract
        rc, _, written = run_recorded(tmp_path, monkeypatch, *args)
        assert rc == 0 and len(written) == 1
        _, header, columns, _ = written[0]
        assert len(columns) == len(header)
        for column in columns:
            assert isinstance(column, np.ndarray) and column.ndim == 1 and column.size == columns[0].size
            assert column.dtype.kind in "iu" or column.dtype == np.float64

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES, ids=lambda n: f"{n}rows")
    def test_block_edges_equal_references(self, tmp_path, fmt, n):
        columns = edge_columns(n)
        out = tmp_path / f"t.{fmt}"
        cli._write_table(out, fmt, "oracle-check", cli._Output(EDGE_HEADER, columns))
        rows = table_rows(columns)
        assert len(rows) == n
        if fmt == "json":
            assert out.read_text() == json_dumps_reference("oracle-check", EDGE_HEADER, rows)
        else:
            assert out.read_text() == csv_reference(EDGE_HEADER, rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_numpy_columns_take_their_conversion_from_the_dtype(self, tmp_path, fmt):
        # any integer dtype writes as an int, and in JSON a float64 column holding nan or inf
        # writes those cells as null and its finite cells as they are
        floats = np.array([0.1, -0.0, 5e-324, -1.5e-300, 1e300, 2.0**53 + 1, 1 / 3])
        holed = floats.copy()
        holed[[1, 4, 6]] = math.nan, math.inf, -math.inf
        columns = (np.arange(7, dtype=np.int32) - 3, np.array([2**64 - 1] * 7, dtype=np.uint64), floats, holed)
        header = ["case", "M", "x", "y"]
        out = tmp_path / f"t.{fmt}"
        cli._write_table(out, fmt, "oracle-check", cli._Output(header, columns))
        rows = table_rows(columns)
        if fmt == "json":
            assert out.read_text() == json_dumps_reference("oracle-check", header, rows)
            assert [row["y"] for row in json.loads(out.read_text())["rows"]][4:] == [None, 2.0**53 + 1, None]
        else:
            assert out.read_text() == csv_reference(header, rows)

    def test_oracle_table_memory_does_not_grow_with_rows(self, tmp_path):
        # 100,000 rows of oracle-check's 8 columns take 25 MB of JSON; writing them in blocks
        # holds a block's rows at a time (about 1 MB), where formatting the whole table at once
        # held every row, every row string, the joined text and its encoding (over 60 MB)
        n = 100_000
        rng = np.random.default_rng(0)
        columns = (np.arange(n), rng.integers(1, 65, n), rng.integers(1, 65, n), *rng.random((5, n)))
        header = ["case", "M", "N", "s", "g", "alpha2", "rel_err_mean", "rel_err_var"]
        tracemalloc.start()
        try:
            cli._write_table(tmp_path / "o.json", "json", "oracle-check", cli._Output(header, columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def run_python(code, env=None):
    """Stdout of ``python -c code`` in a fresh interpreter that imports this checkout's speckleq.

    ``env`` updates the child's environment; a variable mapped to None is removed from it.
    """
    src = str(Path(speckleq.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    env = {name: value for name, value in env.items() if value is not None}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy_linalg():
    # the package runs on numpy alone and scipy is a test-only dependency, so nothing loads scipy.linalg
    assert run_python("import sys, speckleq.cli; print('scipy.linalg' in sys.modules)") == "False"


# The 10 commands at their defaults, and snr-sweep on its other axis, keyed by their output file names
DEFAULT_LINES = {name: [name] for name in cli._COMMANDS} | {"snr-sweep-s": ["snr-sweep", "--axis", "s"]}
# Put first in sys.meta_path, this finder refuses every scipy import
NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            raise ImportError(f'{name} refused: speckleq must run on numpy alone')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


def default_lines_code(out_dir):
    """Code that runs each DEFAULT_LINES entry at seed 2 into ``out_dir`` with ``main`` and prints their statuses."""
    argvs = [[*line, "--seed", "2", "--out", str(out_dir / name)] for name, line in DEFAULT_LINES.items()]
    return f"from speckleq.cli import main\nprint([main(argv) for argv in {argvs!r}])\n"


def test_every_command_and_the_fock_oracle_run_without_scipy(tmp_path):
    code = NO_SCIPY + default_lines_code(tmp_path) + (
        "from speckleq import DisorderParams, SqueezedInput, fock_photon_moments, focus_mode_coefficients\n"
        "from speckleq import sample_realization\n"
        "coeffs = focus_mode_coefficients(sample_realization(DisorderParams(2, 4.0), 21), 2)\n"
        "print(fock_photon_moments(coeffs, SqueezedInput.from_intensity(1.5, 0.4, fed_modes=2), 40).mean > 0)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert run_python(code).splitlines()[-3:] == [str([0] * len(DEFAULT_LINES)), "True", "[]"]


def avx512_features():
    """The AVX-512 feature groups, as NPY_DISABLE_CPU_FEATURES names them, that numpy reports as on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if features.get(name)]


def test_outputs_do_not_depend_on_numpy_avx512_loops(tmp_path):
    # numpy picks its float64 loops by CPU; every output byte must be the same with its AVX-512 loops off.
    # Only oracle-check's rel_err_* residues may move, and both runs keep them below 1e-10.
    features = avx512_features()
    if not features:
        pytest.skip("numpy reports none of X86_V4, AVX512_ICL, AVX512_SPR (absent, or already turned off)")
    runs = {"default": None, "off": ",".join(features)}
    for tag, disabled in runs.items():
        (tmp_path / tag).mkdir()
        statuses = run_python(default_lines_code(tmp_path / tag), {"NPY_DISABLE_CPU_FEATURES": disabled})
        assert statuses.splitlines()[-1] == str([0] * len(DEFAULT_LINES)), tag
    for name in DEFAULT_LINES:
        default, off = ((tmp_path / tag / name).read_bytes() for tag in runs)
        if name != "oracle-check":
            assert default == off, name
            continue
        tables = [[line.split(",") for line in blob.decode().splitlines()] for blob in (default, off)]
        residues = [k for k, column in enumerate(tables[0][0]) if column.startswith("rel_err_")]
        kept = [[[cell for k, cell in enumerate(row) if k not in residues] for row in table] for table in tables]
        assert len(residues) == 2 and len(tables[0]) == 501 and kept[0] == kept[1]
        assert max(float(row[k]) for table in tables for row in table[1:] for k in residues) < 1e-10


def test_cli_import_does_not_load_numpy_random():
    # numpy.random is loaded by the first draw; psf and prolate-basis never need it
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; import speckleq.cli; "
        "print(eager or 'numpy.random' not in sys.modules)"
    )
    assert run_python(code) == "True"


def test_cli_import_does_not_load_argparse_gettext_or_json():
    # the command line is read from the flag table; argparse cost milliseconds of gettext lookups per
    # start; the JSON writer quotes its ASCII names itself
    code = (
        "import sys, numpy; eager = {'argparse', 'gettext', 'json'} & set(sys.modules); "
        "import speckleq.cli; print(sorted({'argparse', 'gettext', 'json'} & set(sys.modules) - eager))"
    )
    assert run_python(code) == "[]"


def test_cli_import_loads_ctypes_only_where_numpy_does():
    # the draw writes each trial's PCG64 words through a ctypes view: no start-up cost where numpy loads ctypes
    code = (
        "import sys, numpy; eager = 'ctypes' in sys.modules; import speckleq.cli; "
        "print(eager or 'ctypes' not in sys.modules)"
    )
    assert run_python(code) == "True"


def test_cli_import_does_not_load_dataclasses_or_copy():
    # records are NamedTuples and slotted classes: creating dataclasses was a large share of the import
    code = (
        "import sys, numpy, argparse, json; eager = {'dataclasses', 'copy'} & set(sys.modules); "
        "import speckleq.cli; print(sorted({'dataclasses', 'copy'} & set(sys.modules) - eager))"
    )
    assert run_python(code) == "[]"


@pytest.mark.parametrize(
    "module,layers",
    [
        ("speckleq.prolate", ["errors", "prolate"]),
        ("speckleq.cli", ["cli", "ensemble", "errors", "gaussian_oracle", "prolate", "quantum_stats", "random_media"]),
    ],
)
def test_module_import_loads_only_its_layers(module, layers):
    # prolate stands alone, so the Slepian layer needs neither the draws nor the moments
    code = f"import sys, {module}; print(sorted(m[len('speckleq.'):] for m in sys.modules if m.startswith('speckleq.')))"
    assert run_python(code) == str(layers)


def test_slepian_commands_do_not_import_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule is computed in prolate; numpy 2 imports numpy.polynomial lazily
    out = tmp_path / "out.txt"
    code = (
        "import sys, numpy; eager = 'numpy.polynomial' in sys.modules; from speckleq.cli import main; "
        f"codes = [main([c, '--out', {str(out)!r}]) for c in ('psf', 'prolate-basis')]; "
        "print(codes, eager or 'numpy.polynomial' not in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "[0, 0] True"  # after each command's status line


def test_package_import_loads_neither_numpy_nor_a_submodule():
    code = (
        "import sys, speckleq; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'speckleq.'))))"
    )
    assert run_python(code) == "[]"


def test_package_import_exports_are_the_submodules_objects():
    # each export is resolved from the module that defines it, and submodules resolve as attributes
    code = (
        "import importlib, speckleq; "
        "print([n for n in speckleq.__all__ if getattr(importlib.import_module("
        "getattr(speckleq, n).__module__), n) is not getattr(speckleq, n)], "
        "len(speckleq.__all__) == len(set(speckleq.__all__)), "
        "speckleq.prolate.build_basis is speckleq.build_basis, "
        "set(speckleq.__all__) | {'cli', 'prolate', 'errors'} <= set(dir(speckleq)))"
    )
    assert run_python(code) == "[] True True True"


def test_package_star_import_binds_all_exports():
    code = (
        "import speckleq; ns = {}; exec('from speckleq import *', ns); "
        "print(sorted(set(ns) - {'__builtins__'} ^ set(speckleq.__all__)), len(speckleq.__all__))"
    )
    assert run_python(code) == "[] 57"


def test_package_import_of_an_unknown_name_raises_attribute_error():
    code = (
        "import speckleq\n"
        "try:\n    speckleq.bogus\nexcept AttributeError as error:\n    print(error)\n"
        "try:\n    from speckleq import bogus\nexcept ImportError as error:\n    print(type(error).__name__)"
    )
    assert run_python(code).splitlines() == ["module 'speckleq' has no attribute 'bogus'", "ImportError"]


NO_BLAS_ENV = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
BLAS_ENV_CODE = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"


def test_cli_import_runs_blas_on_one_thread():
    assert run_python("import speckleq.cli; " + BLAS_ENV_CODE, NO_BLAS_ENV) == "1 None"


@pytest.mark.parametrize(
    "env, expected",
    [({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}, "3 None"),
     ({"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}, "None 2")],
)
def test_cli_import_keeps_a_users_blas_threads(env, expected):
    assert run_python("import speckleq.cli; " + BLAS_ENV_CODE, env) == expected


def test_library_import_keeps_the_default_blas_threads():
    code = "import speckleq; speckleq.build_basis, speckleq.run_sweep; " + BLAS_ENV_CODE
    assert run_python(code, NO_BLAS_ENV) == "None None"


def test_cli_import_thread_count_leaves_slepian_outputs_unchanged(tmp_path):
    # the one-thread policy must not change bytes: psf and prolate-basis are the commands that call LAPACK
    outputs = {}
    for threads in ("1", "2"):
        for command in ("psf", "prolate-basis"):
            out = tmp_path / f"{command}-{threads}.csv"
            code = f"from speckleq.cli import main; raise SystemExit(main([{command!r}, '--out', {str(out)!r}]))"
            run_python(code, {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": None})
            outputs[command, threads] = out.read_bytes()
    for command in ("psf", "prolate-basis"):
        assert outputs[command, "1"] == outputs[command, "2"]


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
            32710663.101885878, 50585438.220713146, 78227902.38190107, 120975619.1964048,
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


NON_FINITE = ["inf", "-inf", "nan", "1e400"]
NON_FINITE_LISTS = ["2,nan", "2,inf", "0.5:inf:0.5", "1:1e400:log3", ""]
# argparse read an unambiguous prefix as the whole flag; flags are now written in full.
ABBREVIATIONS = [
    ["fano-scatter", "--tri", "3"], ["fano-scatter", "--tri=3"], ["psf", "--st", "0.5"],
    ["superres", "--budget", "1e7"], ["photon-budget", "--form", "json"],
]
# Options before the command (USAGE_ERRORS holds one more).
OPTIONS_FIRST = [["--seed", "3", "psf"], ["--format", "json", "photon-budget"]]
OUT_OF_RANGE = [
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
    *ABBREVIATIONS, *OPTIONS_FIRST,
]
BAD_BASIS = [
    ["prolate-basis", "--quad-order", "255"], ["prolate-basis", "--quad-order", "1"],
    ["prolate-basis", "--quad-order", "2"], ["prolate-basis", "--modes", "70"],
    ["psf", "--quad-order", "24", "--modes", "7"], ["superres", "--quad-order", "28", "--modes", "8"],
]
# Malformed command lines, each with a fragment of its one-line message.
USAGE_ERRORS = [
    (["bogus"], "invalid choice"), (["bogus", "--trials", "3"], "invalid choice"),
    (["--foo", "psf", "--step", "1"], "unrecognized arguments: --foo"),
    (["psf", "--trials", "3"], "unrecognized arguments: --trials 3"),
    (["snr-sweep", "--axis", "x"], "--axis:"),
    (["psf", "--step"], "expected one argument"),
    (["psf", "--out", "-x", "--step", "1"], "expected one argument"),
    (["snr-sweep", "--values", "-0.5,1"], "expected one argument"),
    (["psf", "--c", "--q", "3"], "expected one argument"),
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

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, flag, value):
        assert_usage_error(tmp_path, capsys, [*command.split(), f"{flag}={value}"])

    @pytest.mark.parametrize("value", NON_FINITE_LISTS)
    @pytest.mark.parametrize("command,flag", LIST_FLAGS)
    def test_non_finite_or_empty_list_exits_2(self, tmp_path, capsys, command, flag, value):
        assert_usage_error(tmp_path, capsys, [*command.split(), f"{flag}={value}"])

    @pytest.mark.parametrize("args", OUT_OF_RANGE)
    def test_out_of_range_exits_2(self, tmp_path, capsys, args):
        assert_usage_error(tmp_path, capsys, args)

    @pytest.mark.parametrize("args", BAD_BASIS)
    def test_bad_basis_flags_exit_2(self, tmp_path, capsys, args):
        # the library would raise ValueError (exit 3); the CLI rejects these before running
        assert_usage_error(tmp_path, capsys, args)

    def test_prolate_basis_rejects_json(self, tmp_path, capsys):
        # the basis is columnar text only; a .json path must not receive it
        assert_usage_error(tmp_path, capsys, ["prolate-basis", "--format", "json"])
        assert main(["prolate-basis", "--format", "json", "--out", str(tmp_path / "b.json")]) == 2
        assert "--format" in capsys.readouterr().err and list(tmp_path.iterdir()) == []

    def test_prolate_basis_rejects_an_explicit_csv(self, tmp_path, capsys):
        # csv is only the table commands' default; a .csv path must not receive columnar text either
        assert_usage_error(tmp_path, capsys, ["prolate-basis", "--format", "csv"])
        assert main(["prolate-basis", "--format", "csv", "--out", str(tmp_path / "b.csv")]) == 2
        assert "--format" in capsys.readouterr().err and list(tmp_path.iterdir()) == []
        rc, out = run_cli(tmp_path, "prolate-basis", "--modes", "3")
        assert rc == 0 and out.read_text().startswith("# prolate basis")
        assert parse_args(["prolate-basis"]).out == Path("prolate-basis.txt")
        assert [parse_args([cmd]).fmt for cmd in ("psf", "oracle-check")] == ["csv", "csv"]

    def test_modes_may_reach_a_quarter_of_quad_order(self, tmp_path):
        rc, out = run_cli(tmp_path, "prolate-basis", "--modes", "5", "--quad-order", "20")
        assert rc == 0 and out.exists()

    @pytest.mark.parametrize("text", ["0:1:1e-5", "0:1e300:1e-300", "1:2:log10001"])
    def test_parse_values_bounds_the_point_count(self, text):
        # counted before anything is built: 100001 points, an overflowing span, 10001 log points
        with pytest.raises(UsageError, match="10000"):
            VALUES("--x", text)

    def test_parse_values_accepts_the_cap(self):
        assert len(VALUES("--x", "0:9999:1")) == 10_000
        assert len(VALUES("--x", "1:2:log10000")) == 10_000

    def test_tiny_step_exits_2(self, tmp_path, capsys):
        assert_usage_error(tmp_path, capsys, ["snr-sweep", "--values", "0:1:1e-9"])

    def test_parse_values_rejects_non_finite(self):
        for bad in ["0:inf:1", "nan:1:0.1", "0:1:inf", "1:inf:log3", "1,nan", ""]:
            with pytest.raises(UsageError):
                VALUES("--x", bad)


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def reference_read_flags(argv):
    """``cli._read_flags`` as argparse did it, from the same tables, before the CLI read them itself."""
    parser = _ReferenceParser(prog="speckleq", description=cli._DESCRIPTION)
    subs = parser.add_subparsers(dest="command")
    for name, spec in cli._COMMANDS.items():
        sub = subs.add_parser(name, help=spec.help)
        for flag in spec.flags + cli._RUN:
            kind = flag.domain and partial(flag.domain, flag.name)
            sub.add_argument(flag.name, type=kind, default=flag.default)
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        raise UsageError("missing command")
    options = vars(namespace)
    return options.pop("command"), options


def reference_parse_args(monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_flags", reference_read_flags)
        return parse_args(argv)


# Both spellings, repeated flags (the last wins) and values that start with "-".
FLAG_FORMS = [
    ["fano-scatter", "--trials", "20", "--g", "0.5"], ["fano-scatter", "--trials=20", "--g=0.5"],
    ["fano-scatter", "--trials", "20", "--trials=30", "--m", "4", "--m", "5"],
    ["fano-scatter", "--seed=-3"], ["fano-scatter", "--seed", "-3"], ["fano-scatter", "--alpha2=-0"],
    ["snr-sweep", "--g", "-.0", "--alpha2", "1"], ["loss-sweep", "--g=-0.0,1"],
    ["snr-sweep", "--axis=s", "--values", "2:3:0.5"], ["nm-sweep", "--values=0.5", "--values", "0.25,1"],
    ["superres", "--s=3", "--budgets", "1e7:1e9:log3", "--format=json", "--out", "x.json"],
    ["psf", "--out", "-"], ["psf", "--out", "-a b.csv"], ["psf", "--out=--q", "--q=3", "--q", "4"],
    ["prolate-basis", "--modes=3", "--quad-order", "16"],
    ["photon-budget", "--power", "2e-3", "--power=3e-3"],
    ["oracle-check", "--cases", "40", "--workers=2", "--format", "json", "--format", "csv"],
]
DEFAULTS_AND_FORMS = [[name] for name in cli._COMMANDS] + JSON_COMMANDS + FLAG_FORMS
EXIT_2 = [
    *DARK_INPUTS, *OUT_OF_RANGE, *BAD_BASIS, *(argv for argv, _ in USAGE_ERRORS),
    *([*command.split(), f"{flag}={value}"] for command, flag in FLOAT_FLAGS for value in NON_FINITE),
    *([*command.split(), f"{flag}={value}"] for command, flag in LIST_FLAGS for value in NON_FINITE_LISTS),
    ["prolate-basis", "--format", "json"], ["prolate-basis", "--format", "csv"], [],
]


class TestReferenceParser:
    """parse_args against argparse reading the same flag tables: the reference it replaced."""

    @pytest.fixture(autouse=True)
    def no_env_seed(self, monkeypatch):
        monkeypatch.delenv("SPECKLE_SEED", raising=False)

    @pytest.mark.parametrize("argv", DEFAULTS_AND_FORMS, ids=" ".join)
    def test_config_equals_reference(self, monkeypatch, argv):
        assert parse_args(argv) == reference_parse_args(monkeypatch, argv)

    @pytest.mark.parametrize("argv", [argv for argv in EXIT_2 if argv not in ABBREVIATIONS], ids=" ".join)
    def test_both_reject(self, monkeypatch, argv):
        with pytest.raises(UsageError):
            parse_args(argv)
        with pytest.raises(UsageError):
            reference_parse_args(monkeypatch, argv)

    @pytest.mark.parametrize("argv", ABBREVIATIONS, ids=" ".join)
    def test_abbreviations_are_usage_errors(self, monkeypatch, argv):
        reference_parse_args(monkeypatch, argv)  # argparse read the prefix as the whole flag
        with pytest.raises(UsageError, match="unrecognized arguments: --"):
            parse_args(argv)

    @pytest.mark.parametrize("argv, fragment", USAGE_ERRORS)
    def test_usage_error_messages(self, monkeypatch, capsys, argv, fragment):
        with pytest.raises(UsageError, match=re.escape(fragment)):
            reference_parse_args(monkeypatch, argv)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("speckleq: usage error: ") and err.count("\n") == 1 and fragment in err


def help_rows(capsys, argv, indent):
    """The (name, text) rows that ``main(argv)`` prints as help: its lines that start with ``indent``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    return [line.split(maxsplit=1) for line in lines if line.startswith(indent)]


class TestHelp:
    @pytest.mark.parametrize("asked", [["--help"], ["--seed", "3", "-h"]], ids=" ".join)
    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_command_help_lists_every_flag_with_its_default(self, tmp_path, monkeypatch, capsys, command, asked):
        monkeypatch.chdir(tmp_path)
        rows = help_rows(capsys, [command, *asked], "  --")
        assert list(tmp_path.iterdir()) == []
        flags = cli._COMMANDS[command].flags + cli._RUN
        assert [name for name, _ in rows] == [flag.name for flag in flags]
        for flag, (_, text) in zip(flags, rows):
            notes = text.split("; ")
            if flag.default is None:
                assert any(note.startswith("default ") for note in notes)
            else:
                assert f"default {flag.default}" in notes

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "psf"]])
    def test_top_level_help_lists_every_command(self, capsys, argv):
        rows = help_rows(capsys, argv, "  ")
        assert rows == [[name, spec.help] for name, spec in cli._COMMANDS.items()] and len(rows) == 10

    def test_top_level_help_is_for_users(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert "``" not in text and "_COMMANDS" not in text
        assert "SPECKLE_SEED overrides --seed" in text


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "args", [["--g", "200"], ["--g", "400", "--trials", "5"], ["--g", "800", "--trials", "5"]]
    )
    def test_overflowing_squeeze_exits_3(self, tmp_path, capsys, args):
        # g = 200 overflows the squeezed variance term tau sinh^2 g (1 + tau cosh 2g) ~ tau^2 e^{4g} / 8,
        # g = 400 overflows sinh^2 g, and g = 800 sinh g itself
        out = tmp_path / "f.csv"
        assert main(["fano-scatter", *args, "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("speckleq fano-scatter: error:")
        assert "Overflow" in err[0] or "overflow" in err[0]

    @pytest.mark.parametrize(
        "args",
        [["superres", "--alpha2", "1e153"], ["superres", "--alpha2", "1e300"],
         ["snr-sweep", "--axis", "s", "--alpha2", "1e160"], ["fano-scatter", "--g", "178"]],
    )
    def test_bright_sweeps_write_finite_rows(self, tmp_path, args):
        # the standard errors are formed from x / mean, so squaring x ~ 1e154 cannot overflow;
        # at g = 178 the squeezed term ~ tau^2 e^{4g} / 8 is finite, though 2 sinh^2 g cosh^2 g is not
        rc, out = run_cli(tmp_path, *args, "--trials", "200")
        assert rc == 0
        header, rows = read_csv(out)
        assert rows and np.all(np.isfinite(np.array(rows, dtype=float)))
        if "stderr_snr" in header:
            assert np.all(np.array(rows, dtype=float)[:, header.index("stderr_snr")] > 0.0)

    def test_unresolvable_bandwidth_exits_3(self, tmp_path, capsys):
        assert main(["prolate-basis", "--c", "1e6", "--out", str(tmp_path / "b.txt")]) == 3
        assert list(tmp_path.iterdir()) == []
        assert "raise quad_order" in capsys.readouterr().err

    def test_convergence_error_prints_plain_floats(self, tmp_path, capsys):
        assert main(["prolate-basis", "--c", "40", "--out", str(tmp_path / "b.txt")]) == 3
        err = capsys.readouterr().err
        assert re.search(r"lam\[0\]=[0-9.]+(e[+-][0-9]+)?, lam\[-1\]=[0-9.]+(e[+-][0-9]+)? ", err), err

    def test_photon_budget_overflow_exits_3(self, tmp_path, capsys):
        out = tmp_path / "pb.csv"
        assert main(["photon-budget", "--power", "1e300", "--duration", "1e300", "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("speckleq photon-budget: error: OverflowError:")

    @pytest.mark.parametrize("tiny", ["1e-300", "1e-160"])
    def test_photon_budget_underflow_exits_3(self, tmp_path, capsys, tiny):
        # the product of positive inputs rounds to 0 photons, which is not a budget
        out = tmp_path / "pb.csv"
        assert main(["photon-budget", "--power", tiny, "--duration", tiny, "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("speckleq photon-budget: error: ArithmeticError:")

    @pytest.mark.parametrize(
        "command", [["fano-scatter", "--trials", "5"], ["oracle-check", "--cases", "5"]]
    )
    def test_stream_mismatch_exits_3(self, tmp_path, capsys, monkeypatch, command):
        exact, flip = random_media._pcg64_states, np.array([1, 0, 0, 0], dtype=np.uint64)  # state_lo's low bit
        monkeypatch.setattr(random_media, "_pcg64_states", lambda seeds: exact(seeds) ^ flip)
        out = tmp_path / "o.csv"
        assert main([*command, "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "departs from numpy" in err[0]

    @pytest.mark.parametrize("command", MONTE_CARLO_COMMANDS, ids=lambda args: args[0])
    def test_swapped_state_word_order_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # each 128-bit word written high half first: the stream check catches the layout too
        exact = random_media._state_words

        def swapped(bit_generator):
            words, order = exact(bit_generator)
            return words, [order[1], order[0], order[3], order[2]]

        monkeypatch.setattr(random_media, "_state_words", swapped)
        out = tmp_path / "o.csv"
        assert main([*command, "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "departs from numpy" in err[0]

    def test_case_stream_mismatch_exits_3(self, tmp_path, capsys, monkeypatch):
        exact = random_media._case_blocks

        def off_by_one(*args):  # the first case's N one higher
            blocks = exact(*args)
            trials, m, n, *doubles = next(blocks)
            n[0] += 1
            yield trials, m, n, *doubles
            yield from blocks

        monkeypatch.setattr(random_media, "_case_blocks", off_by_one)
        out = tmp_path / "o.csv"
        assert main(["oracle-check", "--cases", "5", "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "depart from numpy" in err[0]

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 22.9 TiB")

        monkeypatch.setitem(cli._COMMANDS, "psf", cli._COMMANDS["psf"]._replace(run=exhausted))
        out = tmp_path / "p.csv"
        assert main(["psf", "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert err == ["speckleq psf: error: MemoryError: Unable to allocate 22.9 TiB"]

    @pytest.mark.parametrize("error", [MemoryError("out of memory"), OverflowError("too big")])
    def test_error_while_writing_exits_3_and_keeps_previous_file(
        self, tmp_path, capsys, monkeypatch, error
    ):
        out = tmp_path / "pb.csv"
        out.write_text("previous\n")

        def crash_mid_write(path, *args):
            path.write_text("truncat")
            raise error

        monkeypatch.setattr(cli, "_write_table", crash_mid_write)
        assert main(["photon-budget", "--out", str(out)]) == 3
        assert out.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [out]
        err = capsys.readouterr().err.splitlines()
        assert err == [f"speckleq photon-budget: error: {type(error).__name__}: {error}"]

    def test_failed_oracle_check_keeps_file_and_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.gaussian_oracle, "_TOLERANCE", 0.0)
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
