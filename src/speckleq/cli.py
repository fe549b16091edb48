"""Command-line surface: one subcommand per data product.

Each command is declared once, in ``_COMMANDS``: its help text, its flags and
its runner.  A flag's type enforces its domain (finite numbers inside the
flag's own range), so a bad value is a usage error before anything runs.
Results go to one CSV or JSON file with fixed schemas; floats are written
with 17 significant digits so every file re-parses into the exact values
written.  Output goes through a temporary file renamed into place, so a
failed run never leaves a truncated file.  Exit codes: 0 on success, 2 on
usage errors and unwritable output, 3 on numerical errors, overflow and
exhausted memory included.  SPECKLE_SEED overrides --seed when set.
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
from typing import Callable, NamedTuple

import numpy as np

from . import ensemble, gaussian_oracle, prolate, quantum_stats
from .errors import SpeckleQError, UsageError
from .quantum_stats import SqueezedInput
from .random_media import DisorderParams


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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _value_list(text: str) -> list[float]:
    """Finite values of `start:stop:step`, `start:stop:logN`, a comma list or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        values = [_finite(v) for v in text.split(",") if v != ""]
    elif len(parts) != 3:
        raise ValueError("ranges need exactly start:stop:step")
    elif parts[2].startswith("log"):
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2][3:])
        if not (count >= 2 and 0.0 < start < math.inf and 0.0 < stop < math.inf):
            raise ValueError("logN needs N >= 2 and finite positive endpoints")
        values = [float(v) for v in np.geomspace(start, stop, count)]
    else:
        start, stop, step = map(float, parts)
        if not (math.isfinite(start) and start <= stop < math.inf and 0.0 < step < math.inf):
            raise ValueError("step must be finite and positive, and stop >= start finite")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + k * step for k in range(count)]
    if not values:
        raise ValueError("no values")
    return values


def parse_values(text: str, flag: str) -> list[float]:
    """Parse `start:stop:step`, `start:stop:logN`, comma lists or single values."""
    try:
        return _value_list(text)
    except ValueError as exc:
        raise UsageError(f"invalid value list for {flag}: {text!r} ({exc})") from exc


class _Domain(NamedTuple):
    """A flag's type: ``parse`` reads its text, and every value read must satisfy ``ok``."""

    parse: Callable
    ok: Callable
    rule: str

    def __call__(self, flag: str, text: str):
        try:
            value = self.parse(text)
        except ValueError as exc:
            raise UsageError(f"{flag}: invalid value {text!r} ({exc})") from None
        if not all(map(self.ok, value if isinstance(value, list) else [value])):
            raise UsageError(f"{flag}: {self.rule}, got {text!r}")
        return value


_COUNT = _Domain(int, lambda n: n >= 1, "must be >= 1")
_NONNEGATIVE = _Domain(_finite, lambda x: x >= 0.0, "must be >= 0")
_POSITIVE = _Domain(_finite, lambda x: x > 0.0, "must be positive")
_UNIT = _Domain(_finite, lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")
_SQUEEZES = _Domain(_value_list, lambda g: g >= 0.0, "squeeze strengths must be >= 0")
_DISORDERS = _Domain(_value_list, lambda s: s > 1.0, "disorder strengths must exceed 1")
_FILLS = _Domain(_value_list, lambda f: 0.0 < f <= 1.0, "fill ratios must lie in (0, 1]")
_FRACTIONS = _Domain(_value_list, lambda f: 0.0 <= f < 1.0, "fractions must lie in [0, 1)")
_LOSSES = _Domain(_value_list, lambda q: 0.0 <= q <= 1.0, "loss rates must lie in [0, 1]")
_BUDGETS = _Domain(_value_list, lambda b: b > 0.0, "budgets must be positive")
_EPSILON = _Domain(_finite, lambda e: 0.0 < e < 1.0, "must lie in (0, 1)")


class _Flag(NamedTuple):
    name: str
    domain: _Domain | None  # None keeps the text as given
    default: object
    help: str | None = None


# Flag groups shared between commands; every command also takes _RUN.
_RUN = (
    _Flag("--seed", _Domain(int, lambda n: True, ""), 1),
    _Flag("--workers", _COUNT, 1, "accepted for compatibility; no effect"),
    _Flag("--out", None, None),
    _Flag("--format", _Domain(str, ("csv", "json").__contains__, "must be csv or json"), "csv"),
)
_ENSEMBLE = (_Flag("--trials", _COUNT, 1000), _Flag("--m", _COUNT, 50))
_MONTE_CARLO = (*_ENSEMBLE, _Flag("--alpha2", _NONNEGATIVE, 10000.0))
_G = _Flag("--g", _NONNEGATIVE, 1.5)
_S = _Flag("--s", _Domain(_finite, lambda s: s > 1.0, "disorder strength must exceed 1"), 2.0)
_BASIS = (_Flag("--c", _POSITIVE, 1.0), _Flag("--modes", _COUNT, 7), _Flag("--quad-order", _COUNT, 256))


def build_parser() -> _Parser:
    parser = _Parser(prog="speckleq", description=__doc__)
    subs = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flag in command.flags + _RUN:
            kind = flag.domain and partial(flag.domain, flag.name)
            sub.add_argument(flag.name, type=kind, default=flag.default, help=flag.help)
    return parser


def parse_args(argv) -> RunConfig:
    """Parse argv into a RunConfig and check the rules that span flags (types check each flag)."""
    namespace = build_parser().parse_args(list(argv))
    if namespace.command is None:
        raise UsageError(f"missing command; choose one of {', '.join(_COMMANDS)}")
    options = vars(namespace).copy()
    command, fmt, out = options.pop("command"), options.pop("format"), options.pop("out")
    env_seed = os.environ.get("SPECKLE_SEED")
    if env_seed is not None:
        try:
            options["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"SPECKLE_SEED: not an integer: {env_seed!r}") from exc
    if "axis" in options:  # snr-sweep: --values are points of the swept axis
        g_axis = options["axis"] == "g"
        if options["values"] is None:
            options["values"] = "0:1.5:0.1" if g_axis else "2:8:0.5"
        options["values"] = (_SQUEEZES if g_axis else _DISORDERS)("--values", options["values"])
    if "q" in options and options["q"] > options["modes"]:
        raise UsageError("--q: must lie in [1, --modes]")
    if "g" in options and options.get("alpha2", 0.0) == 0.0:  # universal-fano has no --alpha2
        squeeze = options["values"] if options.get("axis") == "g" else np.atleast_1d(options["g"])
        if 0.0 in squeeze:
            raise UsageError(
                "--g: g = 0 with zero coherent intensity is a dark input: no photons reach the focus"
            )
    if out is None:
        out = f"{command}.{'txt' if command == 'prolate-basis' else fmt}"
    return RunConfig(command=command, options=options, out=Path(out), fmt=fmt)


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
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


class _Output(NamedTuple):
    """A runner's result: its row count, a writer that fills a given path, and report lines."""

    rows: int
    write: Callable[[Path], object]
    note: str | None = None  # printed after the summary line
    failure: str | None = None  # a failed self-check: the file is kept and the exit status is 3


def _table(config: RunConfig, header: list[str], rows: list[tuple], **report) -> _Output:
    write = partial(_write_table, fmt=config.fmt, command=config.command, header=header, rows=rows)
    return _Output(len(rows), write, **report)


_SWEEP_HEADER = ["axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]


def _run_fano_scatter(config: RunConfig) -> _Output:
    keys = ("m", "s", "g", "alpha2", "trials", "seed")
    fanos = ensemble.run_fano_scatter(*(config.options[key] for key in keys))
    return _table(config, ["trial", "fano"], list(enumerate(fanos)))


def _run_sweep(config: RunConfig, axis: str | None = None) -> _Output:
    """One ensemble sweep; snr-sweep takes its axis from --axis."""
    opt = config.options
    spec = ensemble.SweepSpec(
        axis or {"g": "squeeze_g", "s": "disorder_s"}[opt["axis"]], tuple(opt["values"]),
        DisorderParams(opt["m"], opt["s"]),
        # universal-fano has no --alpha2: the fraction axis sets the coherent intensity
        SqueezedInput.from_intensity(opt.get("alpha2", 0.0), opt["g"], fed_modes=opt["m"]),
        trials=opt["trials"], master_seed=opt["seed"],
    )
    t = ensemble.run_sweep(spec)
    columns = (t.axis_values, t.mean_n, t.fano_ratio, t.snr_ratio, t.stderr_snr)
    return _table(config, _SWEEP_HEADER, [(*row, t.trials) for row in zip(*columns)])


def _run_loss_sweep(config: RunConfig) -> _Output:
    opt = config.options
    t = ensemble.run_loss_sweep(
        opt["g"], opt["s"], opt["alpha2"], opt["loss_grid"], opt["trials"], opt["seed"],
        channel_count=opt["m"],
    )
    columns = (t.squeeze_strength, t.loss_rate, t.mean_n, t.fano_ratio, t.snr_ratio, t.stderr_snr)
    return _table(config, ["g", *_SWEEP_HEADER], [(*row, t.trials) for row in zip(*columns)])


def _run_superres(config: RunConfig) -> _Output:
    opt = config.options
    t = ensemble.run_superres_sweep(
        opt["g"], opt["s"], opt["budgets"], opt["c"], opt["epsilon"], opt["trials"], opt["seed"],
        channel_count=opt["m"], alpha2=opt["alpha2"], num_modes=opt["modes"],
        quad_order=opt["quad_order"],
    )
    rows = zip(t.disorder_strength, t.mean_n, t.modes_kept, t.classical_width, t.recon_width,
               t.resolution_gain)
    return _table(config, ["s", "mean_n", "Q", "W", "W_Q", "J"], list(rows))


def _run_psf(config: RunConfig) -> _Output:
    opt = config.options
    basis = prolate.build_basis(opt["c"], opt["modes"], opt["quad_order"])
    z = np.arange(0.0, np.pi / opt["c"] + opt["step"], opt["step"])
    rows = zip(z, prolate.classical_psf(opt["c"], z), prolate.reconstruction_psf(basis, opt["q"], z))
    return _table(config, ["z", "classical", "reconstruction"], list(rows))


def _run_prolate_basis(config: RunConfig) -> _Output:
    opt = config.options
    basis = prolate.build_basis(opt["c"], opt["modes"], opt["quad_order"])
    return _Output(basis.grid.shape[0], partial(prolate.export_basis, basis))


def _run_oracle_check(config: RunConfig) -> _Output:
    report = gaussian_oracle.run_equivalence_check(config.options["cases"], config.options["seed"])
    worst = report.worst_case()
    note = (
        f"worst case: M={worst['channel_count']} N={worst['fed_modes']} "
        f"s={worst['disorder_strength']:.4f} g={worst['squeeze_strength']:.4f} "
        f"alpha2={worst['alpha2']:.4g} rel_err={max(worst['rel_err_mean'], worst['rel_err_var']):.3e}"
    )
    failure = None if report.passed else f"FAILED tolerance {report.tolerance:.1e}"
    header = ["case", "M", "N", "s", "g", "alpha2", "rel_err_mean", "rel_err_var"]
    columns = (report.channel_counts, report.fed_modes, report.disorder_strengths)
    columns += (report.squeeze_strengths, report.alpha2, report.rel_err_mean, report.rel_err_var)
    rows = list(zip(range(report.cases), *(column.tolist() for column in columns)))
    return _table(config, header, rows, note=note, failure=failure)


def _run_photon_budget(config: RunConfig) -> _Output:
    inputs = tuple(config.options[key] for key in ("wavelength", "power", "duration", "fraction"))
    header = ["wavelength_m", "power_w", "duration_s", "focus_fraction", "mean_photons"]
    return _table(config, header, [(*inputs, quantum_stats.photon_budget(*inputs))])


class _Command(NamedTuple):
    help: str
    run: Callable[[RunConfig], _Output]
    flags: tuple  # of _Flag, besides _RUN


_COMMANDS = {
    "fano-scatter": _Command(
        "per-trial Fano factors of the shaped focus", _run_fano_scatter, (_G, _S, *_MONTE_CARLO)),
    "snr-sweep": _Command(  # parse_args defaults and checks --values by --axis
        "average SNR over mean photons vs squeezing or disorder", _run_sweep,
        (_Flag("--axis", _Domain(str, ("g", "s").__contains__, "must be g or s"), "g"),
         _Flag("--values", None, None), _G, _S, *_MONTE_CARLO)),
    "nm-sweep": _Command(
        "average SNR ratio vs mode fill N/M", partial(_run_sweep, axis="mode_fill_ratio"),
        (_Flag("--values", _FILLS, "0.1:1.0:0.1"), _G, _S, *_MONTE_CARLO)),
    "universal-fano": _Command(
        "average Fano factor vs coherent intensity fraction",
        partial(_run_sweep, axis="coherent_fraction"),
        (_Flag("--values", _FRACTIONS, "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95,0.99"),
         _G, _S, *_ENSEMBLE)),
    "loss-sweep": _Command(
        "average SNR ratio vs photon loss rate", _run_loss_sweep,
        (_Flag("--g", _SQUEEZES, "0.5,1,1.5"), _S, _Flag("--loss-grid", _LOSSES, "0:0.9:0.1"),
         *_MONTE_CARLO)),
    "superres": _Command(
        "super-resolution factor vs focus photon number", _run_superres,
        (_G, _Flag("--s", _DISORDERS, "2,4,6,8"), _Flag("--budgets", _BUDGETS, "1e6:3.5e10:log25"),
         _Flag("--epsilon", _EPSILON, 0.01), *_BASIS, *_MONTE_CARLO)),
    "psf": _Command(
        "classical and reconstruction PSF profiles", _run_psf,
        (_Flag("--q", _COUNT, 7), _Flag("--step", _POSITIVE, 1e-3), *_BASIS)),
    "prolate-basis": _Command("export the Slepian basis as columnar text", _run_prolate_basis, _BASIS),
    "oracle-check": _Command(
        "analytic vs Gaussian-oracle random sweep", _run_oracle_check, (_Flag("--cases", _COUNT, 500),)),
    "photon-budget": _Command(
        "mean photon number of the focused beam", _run_photon_budget,
        (_Flag("--wavelength", _POSITIVE, 694e-9), _Flag("--power", _POSITIVE, 1e-3),
         _Flag("--duration", _POSITIVE, 1e-3), _Flag("--fraction", _UNIT, 0.01))),
}


def _fail(config: RunConfig, reason, status: int) -> tuple[int, list[Path]]:
    print(f"speckleq {config.command}: error: {reason}", file=sys.stderr)
    return status, []


def execute(config: RunConfig) -> tuple[int, list[Path]]:
    """Run the configured command, write its output file, print a summary line.

    Numpy overflow raises in the run, so it exits 3 with no file, like any numerical error.
    """
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            output = _COMMANDS[config.command].run(config)
    except (ArithmeticError, MemoryError) as exc:
        return _fail(config, f"{type(exc).__name__}: {exc}", 3)
    except (SpeckleQError, ValueError) as exc:
        return _fail(config, exc, 3)
    try:
        _write_atomic(config.out, output.write)
    except OSError as exc:
        return _fail(config, f"cannot write {config.out}: {exc.strerror or exc}", 2)
    elapsed = time.perf_counter() - start
    print(f"speckleq {config.command}: wrote {output.rows} rows to {config.out} in {elapsed:.2f}s")
    if output.note:
        print(output.note)
    if output.failure:
        print(f"speckleq {config.command}: {output.failure}", file=sys.stderr)
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
