"""Command-line surface: one subcommand per data product.

Each command is declared once, in ``_COMMANDS``: its help text, its flags and
its runner.  ``_read_flags`` reads the command line from that table alone, and
``-h`` renders help from it.  A flag's domain enforces its range (finite
numbers inside the flag's own range), so a bad value is a usage error before
anything runs.
Results go to one CSV or JSON file with fixed schemas, through a temporary
file renamed into place, so a failed run never leaves a truncated file.
Exit codes and SPECKLE_SEED work as ``_DESCRIPTION`` (the top-level help) says.

Runners hand ``_table`` columns, which ``_write_table`` writes in blocks of
``_WRITE_BLOCK_ROWS`` rows, so its memory does not depend on the row count.
Each block takes one ``%`` conversion per column and formats each row with one
``%`` against a row template: ``%d`` for exact ``int``, ``%.17g`` (CSV) or
``%r`` (JSON, finite values only) for exact ``float``.  A numpy ``int64`` or
``float64`` column takes its conversion from its dtype; any other column is
scanned for one exact type.  Other columns (mixed, bool or numpy scalars, or
JSON nan and inf, which become null) go cell by cell, as ``json.dumps`` and
``format(x, ".17g")`` write them: the bytes never depend on the conversion,
and 17 significant digits re-parse to the exact values.  Command names and
header keys are ASCII literals, which JSON quotes as they are.
"""

from __future__ import annotations

import errno
import math
import os
import sys
import textwrap
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

# One BLAS thread for the command's process: its LAPACK and BLAS calls are small (a 256 x 256
# eigvalsh at the defaults), and a second OpenBLAS thread only spins.  OpenBLAS reads this
# once, when numpy loads, so it is set before that; a user's own setting of either variable
# is kept.  Importing the library (``import speckleq``) leaves the threading alone.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

from . import ensemble, gaussian_oracle, prolate, quantum_stats
from .errors import SpeckleQError, UsageError
from .quantum_stats import SqueezedInput
from .random_media import DisorderParams


class RunConfig(NamedTuple):
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


_MAX_POINTS = 10_000  # a range is counted before it is built


def _value_list(text: str) -> list[float]:
    """Finite values of `start:stop:step`, `start:stop:logN`, a comma list or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        values = [_finite(v) for v in text.split(",") if v != ""]
    elif len(parts) != 3:
        raise ValueError("ranges need exactly start:stop:step")
    elif parts[2].startswith("log"):
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2][3:])
        if not (2 <= count <= _MAX_POINTS and 0.0 < start < math.inf and 0.0 < stop < math.inf):
            raise ValueError(f"logN needs 2 <= N <= {_MAX_POINTS} and finite positive endpoints")
        values = [float(v) for v in np.geomspace(start, stop, count)]
    else:
        start, stop, step = map(float, parts)
        if not (math.isfinite(start) and start <= stop < math.inf and 0.0 < step < math.inf):
            raise ValueError("step must be finite and positive, and stop >= start finite")
        span = (stop - start) / step + 1e-9
        if not span < _MAX_POINTS:  # an overflowed span is inf, and fails too
            raise ValueError(f"the range has more than {_MAX_POINTS} points")
        values = [start + k * step for k in range(int(span) + 1)]
    if not values:
        raise ValueError("no values")
    return values


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
_EVEN = _Domain(int, lambda n: n >= 2 and n % 2 == 0, "must be an even integer >= 2")
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
    _Flag("--out", None, None, "default COMMAND.FORMAT, or prolate-basis.txt"),
    _Flag("--format", _Domain(str, ("csv", "json").__contains__, "must be csv or json"), None,
          "default csv; prolate-basis takes none"),
)
_ENSEMBLE = (_Flag("--trials", _COUNT, 1000), _Flag("--m", _COUNT, 50))
_MONTE_CARLO = (*_ENSEMBLE, _Flag("--alpha2", _NONNEGATIVE, 10000.0))
_G = _Flag("--g", _NONNEGATIVE, 1.5)
_S = _Flag("--s", _Domain(_finite, lambda s: s > 1.0, "disorder strength must exceed 1"), 2.0)
_BASIS = (_Flag("--c", _POSITIVE, 1.0), _Flag("--modes", _COUNT, 7), _Flag("--quad-order", _EVEN, 256))
_AXIS_VALUES = {"g": "0:1.5:0.1", "s": "2:8:0.5"}  # snr-sweep's --values default, by --axis


_DESCRIPTION = (
    "Photon statistics of squeezed light focused through a scattering lens, Monte Carlo "
    "over disorder, and the Slepian super-resolution factor. Each command writes one CSV "
    "or JSON file (--out); floats carry 17 significant digits. Exit codes: 0 on success, "
    "2 on usage errors and unwritable output, 3 on numerical errors, overflow and exhausted "
    "memory included. SPECKLE_SEED overrides --seed when set."
)


_HELP = ("-h", "--help")


def _flag_note(flag: _Flag) -> str:
    """A flag's line of help: its default, its domain's rule and its help text."""
    default = flag.default is not None and f"default {flag.default}"
    return "; ".join(filter(None, (default, flag.domain and flag.domain.rule, flag.help)))


def _help(command: str | None) -> str:
    """Help rendered from ``_COMMANDS``: the command list when ``command`` is None, else its flags."""
    if command is None:
        lines = [textwrap.fill(_DESCRIPTION, 79, break_on_hyphens=False), "", "commands:"]
        rows = [(name, spec.help) for name, spec in _COMMANDS.items()]
        footer = ["", "Flags follow the command, in full, as --name value or --name=value.",
                  'Run "speckleq COMMAND --help" for a command\'s flags and their defaults.']
    else:
        lines = [_COMMANDS[command].help, "", "flags:"]
        rows = [(flag.name, _flag_note(flag)) for flag in _COMMANDS[command].flags + _RUN]
        footer = []
    width = max(len(name) for name, _ in rows) + 2
    lines += [f"  {name:<{width}}{text}" for name, text in rows] + footer
    usage = f"usage: speckleq {command or 'COMMAND'} [--name value | --name=value ...]"
    return "\n".join([usage, "", *lines])


def _takes_value(text: str) -> bool:
    """Whether ``text``, after a flag, is its value.  As in argparse, a word that starts with "-"
    is a flag unless it is "-" alone, holds a space or is a number such as -1 or -.5 (not -1.)."""
    if not text.startswith("-") or text == "-" or " " in text:
        return True
    whole, point, fraction = text[1:].partition(".")
    return (whole + fraction).isdecimal() and (fraction != "" or not point)


def _dest(flag: _Flag) -> str:
    return flag.name[2:].replace("-", "_")


def _read_flags(argv: list[str]) -> tuple[str, dict]:
    """The command that ``argv[0]`` names and its options, keyed ``quad_order`` for ``--quad-order``.

    Flags follow the command in full, as ``--name value`` or ``--name=value``, and the last of a
    repeated flag wins.  Values, and text defaults, are read through the flag's domain.
    """
    if not argv:
        raise UsageError(f"missing command; choose one of {', '.join(_COMMANDS)}")
    command = argv[0]
    if command in _HELP:
        print(_help(None))
        raise SystemExit(0)
    if command.startswith("-"):
        raise UsageError(f"unrecognized arguments: {command} (flags follow the command)")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = {flag.name: flag for flag in _COMMANDS[command].flags + _RUN}
    options = {
        _dest(flag): flag.domain(flag.name, flag.default) if flag.domain and isinstance(flag.default, str)
        else flag.default
        for flag in flags.values()
    }
    unrecognized = []
    words = iter(argv[1:])
    for word in words:
        if word in _HELP:
            print(_help(command))
            raise SystemExit(0)
        name, inline, value = word.partition("=")
        flag = flags.get(name)
        if flag is None:
            unrecognized.append(word)
            continue
        if not inline:
            value = next(words, None)
            if value is None or not _takes_value(value):
                raise UsageError(f"argument {name}: expected one argument")
        options[_dest(flag)] = flag.domain(name, value) if flag.domain else value
    if unrecognized:
        raise UsageError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, options


def parse_args(argv) -> RunConfig:
    """Parse argv into a RunConfig and check the rules that span flags (domains check each flag)."""
    command, options = _read_flags(list(argv))
    fmt, out = options.pop("format"), options.pop("out")
    env_seed = os.environ.get("SPECKLE_SEED")
    if env_seed is not None:
        try:
            options["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"SPECKLE_SEED: not an integer: {env_seed!r}") from exc
    if "axis" in options:  # snr-sweep: --values are points of the swept axis
        g_axis = options["axis"] == "g"
        if options["values"] is None:
            options["values"] = _AXIS_VALUES[options["axis"]]
        options["values"] = (_SQUEEZES if g_axis else _DISORDERS)("--values", options["values"])
    if "q" in options and options["q"] > options["modes"]:
        raise UsageError("--q: must lie in [1, --modes]")
    if command == "prolate-basis" and fmt is not None:
        raise UsageError("--format: prolate-basis writes columnar text and takes no --format")
    if "quad_order" in options and options["modes"] > options["quad_order"] // 4:
        raise UsageError("--modes: must not exceed --quad-order / 4")
    if "g" in options and options.get("alpha2", 0.0) == 0.0:  # universal-fano has no --alpha2
        squeeze = options["values"] if options.get("axis") == "g" else np.atleast_1d(options["g"])
        if 0.0 in squeeze:
            raise UsageError(
                "--g: g = 0 with zero coherent intensity is a dark input: no photons reach the focus"
            )
    fmt = fmt or "csv"  # None only tells an explicit --format from the default
    if out is None:
        out = f"{command}.{'txt' if command == 'prolate-basis' else fmt}"
    elif out.endswith((os.sep, os.altsep or os.sep)):  # Path(out) would drop the separator
        raise UsageError(f"--out: {out!r} ends in a path separator, so it names a directory, not a file")
    return RunConfig(command=command, options=options, out=Path(out), fmt=fmt)


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_cell(value) -> str:
    """One cell as ``json.dumps`` writes it: ints and bools as ints (as in CSV), non-finite floats as null."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    value = float(value)
    return repr(value) if math.isfinite(value) else "null"


def _typed_columns(columns, json_output: bool):
    """The ``%`` conversion of each column (a numpy one read as its ``tolist()``) and the rows."""
    cell = _json_cell if json_output else _format_cell
    specs, typed = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype in (np.int64, np.float64):
            kind = int if column.dtype == np.int64 else float
            finite = kind is int or not json_output or np.isfinite(column).all()
            column = column.tolist()
        else:
            column = column.tolist() if isinstance(column, np.ndarray) else column
            kinds = set(map(type, column))
            kind = kinds.pop() if len(kinds) == 1 else None
            finite = kind is not float or not json_output or all(map(math.isfinite, column))
        if kind is int:
            specs.append("%d")
        elif kind is float and finite:
            specs.append("%r" if json_output else "%.17g")
        else:
            specs.append("%s")
            column = tuple(map(cell, column))
        typed.append(column)
    return specs, zip(*typed)


_WRITE_BLOCK_ROWS = 1024  # rows converted, formatted and written at a time


def _write_table(path: Path, fmt: str, command: str, header: list[str], columns) -> None:
    """Write ``columns`` (numpy arrays or sequences) as CSV or as ``json.dumps(indent=2)`` bytes."""
    json_output, count = fmt == "json", len(columns[0])
    keys = [f'"{key}"'.replace("%", "%%") for key in header]
    with open(path, "w", encoding="utf-8") as f:
        opening = f'{{\n  "command": "{command}",\n  "rows": ['
        f.write(opening if json_output else ",".join(header))
        for start in range(0, count, _WRITE_BLOCK_ROWS):  # each row opens with its separator
            specs, cells = _typed_columns([c[start : start + _WRITE_BLOCK_ROWS] for c in columns], json_output)
            if json_output:
                fields = ",\n".join(f"      {key}: {spec}" for key, spec in zip(keys, specs))
                row_template = ",\n    {\n" + fields + "\n    }"
            else:
                row_template = "\n" + ",".join(specs)
            block = "".join(row_template % row for row in cells)
            f.write(block[1:] if json_output and start == 0 else block)  # no comma before the first row
        f.write(("\n  ]" if count else "]") + "\n}\n" if json_output else "\n")


def _write_atomic(path: Path, write) -> None:
    """Let ``write(tmp)`` fill a temporary file beside ``path``, then rename it over ``path``."""
    if not path.name:  # "", "." and "/" name a directory, not a file
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Output(NamedTuple):
    """A runner's result: its row count, a writer that fills a given path, and report lines."""

    rows: int
    write: Callable[[Path], object]
    note: str | None = None  # printed after the summary line
    failure: str | None = None  # a failed self-check: the file is kept and the exit status is 3


def _table(config: RunConfig, header: list[str], columns, **report) -> _Output:
    write = partial(_write_table, fmt=config.fmt, command=config.command, header=header, columns=columns)
    return _Output(len(columns[0]), write, **report)


_SWEEP_HEADER = ["axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]


def _run_fano_scatter(config: RunConfig) -> _Output:
    keys = ("m", "s", "g", "alpha2", "trials", "seed")
    fanos = ensemble.run_fano_scatter(*(config.options[key] for key in keys))
    return _table(config, ["trial", "fano"], (range(fanos.size), fanos))


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
    return _table(config, _SWEEP_HEADER, (*columns, [t.trials] * t.mean_n.size))


def _run_loss_sweep(config: RunConfig) -> _Output:
    opt = config.options
    t = ensemble.run_loss_sweep(
        opt["g"], opt["s"], opt["alpha2"], opt["loss_grid"], opt["trials"], opt["seed"],
        channel_count=opt["m"],
    )
    columns = (t.squeeze_strength, t.loss_rate, t.mean_n, t.fano_ratio, t.snr_ratio, t.stderr_snr)
    return _table(config, ["g", *_SWEEP_HEADER], (*columns, [t.trials] * t.mean_n.size))


def _run_superres(config: RunConfig) -> _Output:
    opt = config.options
    t = ensemble.run_superres_sweep(
        opt["g"], opt["s"], opt["budgets"], opt["c"], opt["epsilon"], opt["trials"], opt["seed"],
        channel_count=opt["m"], alpha2=opt["alpha2"], num_modes=opt["modes"],
        quad_order=opt["quad_order"],
    )
    columns = (t.disorder_strength, t.mean_n, t.modes_kept, t.classical_width, t.recon_width)
    return _table(config, ["s", "mean_n", "Q", "W", "W_Q", "J"], (*columns, t.resolution_gain))


def _run_psf(config: RunConfig) -> _Output:
    opt = config.options
    basis = prolate.build_basis(opt["c"], opt["modes"], opt["quad_order"])
    z = np.arange(0.0, np.pi / opt["c"] + opt["step"], opt["step"])
    columns = (z, prolate.classical_psf(opt["c"], z), prolate.reconstruction_psf(basis, opt["q"], z))
    return _table(config, ["z", "classical", "reconstruction"], columns)


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
    columns = (range(report.cases), report.channel_counts, report.fed_modes, report.disorder_strengths)
    columns += (report.squeeze_strengths, report.alpha2, report.rel_err_mean, report.rel_err_var)
    return _table(config, header, columns, note=note, failure=failure)


def _run_photon_budget(config: RunConfig) -> _Output:
    inputs = tuple(config.options[key] for key in ("wavelength", "power", "duration", "fraction"))
    header = ["wavelength_m", "power_w", "duration_s", "focus_fraction", "mean_photons"]
    return _table(config, header, [[value] for value in (*inputs, quantum_stats.photon_budget(*inputs))])


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
         _Flag("--values", None, None, "default {g} with --axis g, {s} with --axis s".format(**_AXIS_VALUES)),
         _G, _S, *_MONTE_CARLO)),
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

    Numpy overflow raises in the run; it and exhausted memory, running or writing, exit 3 with no file.
    """
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            output = _COMMANDS[config.command].run(config)
        _write_atomic(config.out, output.write)
    except OSError as exc:
        return _fail(config, f"cannot write {config.out}: {exc.strerror or exc}", 2)
    except (ArithmeticError, MemoryError) as exc:
        return _fail(config, f"{type(exc).__name__}: {exc}", 3)
    except (SpeckleQError, ValueError) as exc:
        return _fail(config, exc, 3)
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
