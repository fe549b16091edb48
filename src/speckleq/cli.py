"""Command-line surface: one subcommand per data product.

Commands map 1:1 onto the study's data products: fano-scatter, snr-sweep,
nm-sweep, universal-fano, loss-sweep, superres, psf, prolate-basis,
oracle-check and photon-budget.  Results go to a single CSV or JSON file
with fixed schemas; floats are written with 17 significant digits so every
emitted file re-parses into the exact values written.  Output goes through a
temporary file renamed into place, so a failed run never leaves a truncated
file.  Exit codes: 0 on success, 2 on usage errors and unwritable output, 3
on numerical/convergence errors.  The environment variable SPECKLE_SEED
overrides --seed when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import ensemble, gaussian_oracle, prolate, quantum_stats
from .errors import SpeckleQError, UsageError
from .quantum_stats import SqueezedInput
from .random_media import DisorderParams

DEFAULT_ALPHA2 = 10000.0
DEFAULT_CHANNELS = 50
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 1
DEFAULT_BANDWIDTH = 1.0
DEFAULT_EPSILON = 0.01
DEFAULT_MODES = 7
DEFAULT_QUAD_ORDER = 256

COMMANDS = (
    "fano-scatter",
    "snr-sweep",
    "nm-sweep",
    "universal-fano",
    "loss-sweep",
    "superres",
    "psf",
    "prolate-basis",
    "oracle-check",
    "photon-budget",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated command invocation: subcommand, options, output path and format."""

    command: str
    options: dict
    out: Path
    fmt: str


def parse_values(text: str, flag: str) -> list[float]:
    """Parse `start:stop:step`, `start:stop:logN`, comma lists or single values."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("ranges need exactly start:stop:step")
            start, stop = float(parts[0]), float(parts[1])
            if parts[2].startswith("log"):
                count = int(parts[2][3:])
                if count < 2 or start <= 0.0 or stop <= 0.0:
                    raise ValueError("logN needs N >= 2 and positive endpoints")
                return [float(v) for v in np.geomspace(start, stop, count)]
            step = float(parts[2])
            if step <= 0.0 or stop < start:
                raise ValueError("step must be positive and stop >= start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + k * step for k in range(count)]
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"invalid value list for {flag}: {text!r} ({exc})") from exc


def _add_common(sub, *, trials: bool = True, channels: bool = True, alpha2: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    if trials:
        sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    if channels:
        sub.add_argument("--m", type=int, default=DEFAULT_CHANNELS)
    if alpha2:
        sub.add_argument("--alpha2", type=float, default=DEFAULT_ALPHA2)


def build_parser() -> _Parser:
    parser = _Parser(prog="speckleq", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("fano-scatter", help="per-trial Fano factors of the shaped focus")
    sub.add_argument("--g", type=float, default=1.5)
    sub.add_argument("--s", type=float, default=2.0)
    _add_common(sub)

    sub = subs.add_parser("snr-sweep", help="average SNR over mean photons vs squeezing or disorder")
    sub.add_argument("--axis", choices=("g", "s"), default="g")
    sub.add_argument("--values", type=str, default=None)
    sub.add_argument("--g", type=float, default=1.5)
    sub.add_argument("--s", type=float, default=2.0)
    _add_common(sub)

    sub = subs.add_parser("nm-sweep", help="average SNR ratio vs mode fill N/M")
    sub.add_argument("--values", type=str, default="0.1:1.0:0.1")
    sub.add_argument("--g", type=float, default=1.5)
    sub.add_argument("--s", type=float, default=2.0)
    _add_common(sub)

    sub = subs.add_parser("universal-fano", help="average Fano factor vs coherent intensity fraction")
    sub.add_argument("--values", type=str, default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95,0.99")
    sub.add_argument("--g", type=float, default=1.5)
    sub.add_argument("--s", type=float, default=2.0)
    _add_common(sub, alpha2=False)

    sub = subs.add_parser("loss-sweep", help="average SNR ratio vs photon loss rate")
    sub.add_argument("--g", type=str, default="0.5,1,1.5")
    sub.add_argument("--s", type=float, default=2.0)
    sub.add_argument("--loss-grid", type=str, default="0:0.9:0.1")
    _add_common(sub)

    sub = subs.add_parser("superres", help="super-resolution factor vs focus photon number")
    sub.add_argument("--g", type=float, default=1.5)
    sub.add_argument("--s", type=str, default="2,4,6,8")
    sub.add_argument("--budgets", type=str, default="1e6:3.5e10:log25")
    sub.add_argument("--c", type=float, default=DEFAULT_BANDWIDTH)
    sub.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sub.add_argument("--modes", type=int, default=DEFAULT_MODES)
    sub.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    _add_common(sub)

    sub = subs.add_parser("psf", help="classical and reconstruction PSF profiles")
    sub.add_argument("--c", type=float, default=DEFAULT_BANDWIDTH)
    sub.add_argument("--q", type=int, default=7)
    sub.add_argument("--step", type=float, default=1e-3)
    sub.add_argument("--modes", type=int, default=DEFAULT_MODES)
    sub.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    _add_common(sub, trials=False, channels=False, alpha2=False)

    sub = subs.add_parser("prolate-basis", help="export the Slepian basis as columnar text")
    sub.add_argument("--c", type=float, default=DEFAULT_BANDWIDTH)
    sub.add_argument("--modes", type=int, default=DEFAULT_MODES)
    sub.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    _add_common(sub, trials=False, channels=False, alpha2=False)

    sub = subs.add_parser("oracle-check", help="analytic vs Gaussian-oracle random sweep")
    sub.add_argument("--cases", type=int, default=500)
    _add_common(sub, trials=False, channels=False, alpha2=False)

    sub = subs.add_parser("photon-budget", help="mean photon number of the focused beam")
    sub.add_argument("--wavelength", type=float, default=694e-9)
    sub.add_argument("--power", type=float, default=1e-3)
    sub.add_argument("--duration", type=float, default=1e-3)
    sub.add_argument("--fraction", type=float, default=0.01)
    _add_common(sub, trials=False, channels=False, alpha2=False)

    return parser


def _require(condition: bool, flag: str, message: str) -> None:
    if not condition:
        raise UsageError(f"{flag}: {message}")


def parse_args(argv) -> RunConfig:
    """Parse and validate argv into a RunConfig; raises UsageError on bad input."""
    namespace = build_parser().parse_args(list(argv))
    if namespace.command is None:
        raise UsageError(f"missing command; choose one of {', '.join(COMMANDS)}")
    options = vars(namespace).copy()
    command = options.pop("command")
    fmt = options.pop("fmt", "csv")
    out = options.pop("out", None)

    env_seed = os.environ.get("SPECKLE_SEED")
    if env_seed is not None and "seed" in options:
        try:
            options["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"SPECKLE_SEED: not an integer: {env_seed!r}") from exc

    if "trials" in options:
        _require(options["trials"] >= 1, "--trials", "must be >= 1")
    if "m" in options:
        _require(options["m"] >= 1, "--m", "must be >= 1")
    if "alpha2" in options:
        _require(options["alpha2"] >= 0.0, "--alpha2", "must be nonnegative")
    if "workers" in options:
        _require(options["workers"] >= 1, "--workers", "must be >= 1")
    if "s" in options and command != "superres":
        _require(float(options["s"]) > 1.0, "--s", "disorder strength must exceed 1")
    if "c" in options:
        _require(options["c"] > 0.0, "--c", "bandwidth must be positive")

    if command == "fano-scatter":
        _require(options["g"] >= 0.0, "--g", "must be nonnegative")
    elif command == "snr-sweep":
        if options["values"] is None:
            options["values"] = "0:1.5:0.1" if options["axis"] == "g" else "2:8:0.5"
        values = parse_values(options["values"], "--values")
        if options["axis"] == "s":
            _require(all(v > 1.0 for v in values), "--values", "disorder strengths must exceed 1")
        else:
            _require(all(v >= 0.0 for v in values), "--values", "squeeze strengths must be >= 0")
        options["values"] = values
    elif command == "nm-sweep":
        values = parse_values(options["values"], "--values")
        _require(all(0.0 < v <= 1.0 for v in values), "--values", "fill ratios must lie in (0, 1]")
        options["values"] = values
    elif command == "universal-fano":
        values = parse_values(options["values"], "--values")
        _require(all(0.0 <= v < 1.0 for v in values), "--values", "fractions must lie in [0, 1)")
        options["values"] = values
    elif command == "loss-sweep":
        g_list = parse_values(options["g"], "--g")
        _require(all(g >= 0.0 for g in g_list), "--g", "squeeze strengths must be >= 0")
        grid = parse_values(options["loss_grid"], "--loss-grid")
        _require(all(0.0 <= q <= 1.0 for q in grid), "--loss-grid", "loss rates must lie in [0, 1]")
        options["g"] = g_list
        options["loss_grid"] = grid
    elif command == "superres":
        s_list = parse_values(options["s"], "--s")
        _require(all(v > 1.0 for v in s_list), "--s", "disorder strengths must exceed 1")
        budgets = parse_values(options["budgets"], "--budgets")
        _require(all(b > 0.0 for b in budgets), "--budgets", "budgets must be positive")
        _require(0.0 < options["epsilon"] < 1.0, "--epsilon", "must lie in (0, 1)")
        _require(options["modes"] >= 1, "--modes", "must be >= 1")
        options["s"] = s_list
        options["budgets"] = budgets
    elif command in ("psf", "prolate-basis"):
        _require(options["modes"] >= 1, "--modes", "must be >= 1")
        if command == "psf":
            _require(1 <= options["q"] <= options["modes"], "--q", "must lie in [1, --modes]")
            _require(options["step"] > 0.0, "--step", "must be positive")
    elif command == "oracle-check":
        _require(options["cases"] >= 1, "--cases", "must be >= 1")
    elif command == "photon-budget":
        for flag in ("wavelength", "power", "duration"):
            _require(options[flag] > 0.0, f"--{flag}", "must be positive")
        _require(0.0 < options["fraction"] <= 1.0, "--fraction", "must lie in (0, 1]")

    if "g" in options:
        # universal-fano has no --alpha2: its coherent intensity vanishes at g = 0
        squeeze = options["values"] if options.get("axis") == "g" else np.atleast_1d(options["g"])
        _require(
            options.get("alpha2", 0.0) > 0.0 or all(g != 0.0 for g in squeeze),
            "--g",
            "g = 0 with zero coherent intensity is a dark input: no photons reach the focus",
        )

    if out is None:
        suffix = "txt" if command == "prolate-basis" else fmt
        out = f"{command}.{suffix}"
    return RunConfig(command=command, options=options, out=Path(out), fmt=fmt)


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_cell(value):
    """Ints stay ints; non-finite floats become null, since JSON has no inf or nan."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value) if math.isfinite(value) else None


def _write_atomic(path: Path, write) -> None:
    """Let ``write(tmp)`` fill a temporary file beside ``path``, then rename it over ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_table(path: Path, fmt: str, command: str, header: list[str], rows: list[tuple]) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        payload = {
            "command": command,
            "rows": [{key: _json_cell(v) for key, v in zip(header, row)} for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _summary_rows(summary: ensemble.EnsembleSummary) -> list[tuple]:
    columns = (
        summary.axis_values, summary.mean_n, summary.fano_ratio, summary.snr_ratio, summary.stderr_snr
    )
    return [(*row, summary.trials) for row in zip(*columns)]


_SWEEP_HEADER = ["axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]


def _run_fano_scatter(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    values = ensemble.run_fano_scatter(
        opt["m"], opt["s"], opt["g"], opt["alpha2"], opt["trials"], opt["seed"]
    )
    return ["trial", "fano"], [(i, v) for i, v in enumerate(values)]


_SWEEP_AXIS = {"nm-sweep": "mode_fill_ratio", "universal-fano": "coherent_fraction"}


def _run_sweep(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    if config.command == "snr-sweep":
        axis = "squeeze_g" if opt["axis"] == "g" else "disorder_s"
    else:
        axis = _SWEEP_AXIS[config.command]
    spec = ensemble.SweepSpec(
        axis=axis,
        axis_values=tuple(opt["values"]),
        disorder=DisorderParams(opt["m"], opt["s"]),
        # universal-fano has no --alpha2: the fraction axis sets the coherent intensity
        base_input=SqueezedInput.from_intensity(opt.get("alpha2", 0.0), opt["g"], fed_modes=opt["m"]),
        trials=opt["trials"],
        master_seed=opt["seed"],
    )
    return _SWEEP_HEADER, _summary_rows(ensemble.run_sweep(spec))


def _run_loss_sweep(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    table = ensemble.run_loss_sweep(
        opt["g"], opt["s"], opt["alpha2"], opt["loss_grid"], opt["trials"], opt["seed"],
        channel_count=opt["m"],
    )
    header = ["g", "axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]
    columns = (
        table.squeeze_strength, table.loss_rate, table.mean_n, table.fano_ratio, table.snr_ratio,
        table.stderr_snr,
    )
    return header, [(*row, table.trials) for row in zip(*columns)]


def _run_superres(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    table = ensemble.run_superres_sweep(
        opt["g"], opt["s"], opt["budgets"], opt["c"], opt["epsilon"],
        opt["trials"], opt["seed"],
        channel_count=opt["m"], alpha2=opt["alpha2"], num_modes=opt["modes"],
        quad_order=opt["quad_order"],
    )
    header = ["s", "mean_n", "Q", "W", "W_Q", "J"]
    columns = (
        table.disorder_strength, table.mean_n, table.modes_kept, table.classical_width,
        table.recon_width, table.resolution_gain,
    )
    return header, list(zip(*columns))


def _run_psf(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    basis = prolate.build_basis(opt["c"], opt["modes"], opt["quad_order"])
    z = np.arange(0.0, np.pi / opt["c"] + opt["step"], opt["step"])
    classical = prolate.classical_psf(opt["c"], z)
    recon = prolate.reconstruction_psf(basis, opt["q"], z)
    header = ["z", "classical", "reconstruction"]
    return header, [(z[j], classical[j], recon[j]) for j in range(z.shape[0])]


def _run_oracle_check(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    report = gaussian_oracle.run_equivalence_check(opt["cases"], opt["seed"])
    config.options["_report"] = report
    header = ["case", "M", "N", "s", "g", "alpha2", "rel_err_mean", "rel_err_var"]
    columns = (report.channel_counts, report.fed_modes, report.disorder_strengths)
    columns += (report.squeeze_strengths, report.alpha2, report.rel_err_mean, report.rel_err_var)
    return header, list(zip(range(report.cases), *(column.tolist() for column in columns)))


def _run_photon_budget(config: RunConfig) -> tuple[list[str], list[tuple]]:
    opt = config.options
    photons = quantum_stats.photon_budget(
        opt["wavelength"], opt["power"], opt["duration"], opt["fraction"]
    )
    header = ["wavelength_m", "power_w", "duration_s", "focus_fraction", "mean_photons"]
    return header, [(opt["wavelength"], opt["power"], opt["duration"], opt["fraction"], photons)]


_DISPATCH = {
    "fano-scatter": _run_fano_scatter,
    "snr-sweep": _run_sweep,
    "nm-sweep": _run_sweep,
    "universal-fano": _run_sweep,
    "loss-sweep": _run_loss_sweep,
    "superres": _run_superres,
    "psf": _run_psf,
    "oracle-check": _run_oracle_check,
    "photon-budget": _run_photon_budget,
}


def execute(config: RunConfig) -> tuple[int, list[Path]]:
    """Run the configured command, write its output file, print a summary line."""
    start = time.perf_counter()
    try:
        if config.command == "prolate-basis":
            opt = config.options
            basis = prolate.build_basis(opt["c"], opt["modes"], opt["quad_order"])
            rows = basis.grid.shape[0]
            write = partial(prolate.export_basis, basis)
        else:
            header, table_rows = _DISPATCH[config.command](config)
            rows = len(table_rows)
            write = partial(
                _write_table, fmt=config.fmt, command=config.command, header=header, rows=table_rows
            )
    except (SpeckleQError, ValueError) as exc:
        print(f"speckleq {config.command}: error: {exc}", file=sys.stderr)
        return 3, []
    try:
        _write_atomic(config.out, write)
    except OSError as exc:
        reason = f"cannot write {config.out}: {exc.strerror or exc}"
        print(f"speckleq {config.command}: error: {reason}", file=sys.stderr)
        return 2, []
    elapsed = time.perf_counter() - start
    print(f"speckleq {config.command}: wrote {rows} rows to {config.out} in {elapsed:.2f}s")

    if config.command == "oracle-check":
        report = config.options["_report"]
        worst = report.worst_case()
        print(
            f"worst case: M={worst['channel_count']} N={worst['fed_modes']} "
            f"s={worst['disorder_strength']:.4f} g={worst['squeeze_strength']:.4f} "
            f"alpha2={worst['alpha2']:.4g} rel_err={max(worst['rel_err_mean'], worst['rel_err_var']):.3e}"
        )
        if not report.passed:
            print(
                f"speckleq oracle-check: FAILED tolerance {report.tolerance:.1e}", file=sys.stderr
            )
            return 3, [config.out]
    return 0, [config.out]


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"speckleq: usage error: {exc}", file=sys.stderr)
        return 2
    status, _ = execute(config)
    return status


if __name__ == "__main__":
    sys.exit(main())
