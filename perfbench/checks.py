"""Output checks: seed-independent invariants plus comparison with pinned references.

``check_output`` returns a list of problems; an empty list means the file is
correct.  Invariants hold for any seed.  Reference rows, written by
``make_reference.py``, are compared for the recorded seed and, for commands
whose output does not depend on the seed, for every seed.

Reference tolerances (stored per column in the reference file):

* floats: |a - b| <= rtol * max(|b|, 1e-3 * max|column|), with rtol = 1e-9
  by default, which admits last-ulp reordering of sums but not a changed
  formula;
* integer columns: exact;
* superres W, W_Q, J: rtol = 1e-5, because the half-width is a grid
  interpolation accurate to well below 1e-6 absolute and a root finder in
  its place must still pass;
* prolate eigenfunction k (and the reconstruction PSF, through its last
  retained mode): rtol = 10 eps lambda_0 / lambda_k, the eigenvector
  sensitivity at the eigenvalue gap; at lambda_6 ~ 1.7e-13 an exchange of
  LAPACK eigensolver routines alone moves phi_6 by ~1e-3;
* oracle-check rel_err columns are rounding residues (~1e-16) and are not
  pinned; they must stay below 1e-10 instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INT_COLUMNS = {"trials", "Q", "case", "M", "N", "trial"}
TRIALS = 1000  # CLI default --trials

SWEEP_HEADER = ["axis_value", "mean_n", "fano_ratio", "snr_ratio", "stderr_snr", "trials"]


@dataclass
class Table:
    header: list
    rows: list
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        j = self.header.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)


def _cell(name: str, text: str):
    return int(text) if name in INT_COLUMNS else float(text)


def read_output(path: Path, kind: str) -> Table:
    """Parse one output file: CSV, the oracle-check JSON, or prolate-basis text."""
    text = path.read_text(encoding="utf-8")
    if kind == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [[_cell(h, v) for h, v in zip(header, line.split(","), strict=True)] for line in lines[1:]]
        return Table(header, rows)
    if kind == "json":
        payload = json.loads(text)
        rows = payload["rows"]
        header = list(rows[0]) if rows else []
        table_rows = [[row[h] for h in header] for row in rows]
        return Table(header, table_rows, {"command": payload["command"]})
    lines = text.splitlines()
    first = dict(item.split("=") for item in lines[0].split(":", 1)[1].split())
    meta = {
        "c": float(first["c"]),
        "modes": int(first["modes"]),
        "quad_order": int(first["quad_order"]),
        "lambda": [float(v) for v in lines[1].split(":", 1)[1].split()],
    }
    header = lines[2].split(":", 1)[1].split()
    rows = [[float(v) for v in line.split()] for line in lines[3:]]
    return Table(header, rows, meta)


def _range_values(start: float, stop: float, step: float) -> list:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rtol * np.abs(np.asarray(b)) + atol))


def _half_width(z: np.ndarray, values: np.ndarray) -> float:
    target = values[0] / 2.0
    i = int(np.nonzero(values < target)[0][0])
    return float(z[i - 1] + (target - values[i - 1]) * (z[i] - z[i - 1]) / (values[i] - values[i - 1]))


def _sweep(t: Table, values: list, problems: list) -> None:
    if not _close(t.column("axis_value"), values, 1e-12, 1e-15):
        problems.append("axis values differ from the requested grid")
    if any(row[-1] != TRIALS for row in t.rows):
        problems.append(f"trials column is not {TRIALS}")
    if not np.all(t.column("mean_n") > 0.0):
        problems.append("mean_n not positive")
    if not _close(t.column("fano_ratio") * t.column("snr_ratio"), 1.0, 0.0, 1e-12):
        problems.append("snr_ratio is not 1 / fano_ratio")
    if not np.all(t.column("stderr_snr") >= 0.0):
        problems.append("negative stderr_snr")


def _snr_above_one(t: Table, mask, problems: list) -> None:
    snr = t.column("snr_ratio")
    if not np.all(snr[mask] > 1.0):
        problems.append("snr_ratio <= 1 where g > 0 and loss < 1")


def _inv_snr_sweep_g(t, problems):
    _sweep(t, _range_values(0.0, 1.5, 0.1), problems)
    g = t.column("axis_value")
    _snr_above_one(t, g > 0.0, problems)
    if not _close(t.column("fano_ratio")[g == 0.0], 1.0, 0.0, 1e-12):
        problems.append("coherent light (g = 0) is not Poissonian")


def _inv_snr_sweep_s(t, problems):
    _sweep(t, _range_values(2.0, 8.0, 0.5), problems)
    _snr_above_one(t, slice(None), problems)


def _inv_nm_sweep(t, problems):
    _sweep(t, _range_values(0.1, 1.0, 0.1), problems)
    _snr_above_one(t, slice(None), problems)


def _inv_universal_fano(t, problems):
    _sweep(t, [0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99], problems)
    snr = t.column("snr_ratio")
    if not (np.all(np.diff(snr) > 0.0) and snr[-1] > 1.0):
        problems.append("snr_ratio does not rise with the coherent fraction to above 1")


def _inv_loss_sweep(t, problems):
    grid = _range_values(0.0, 0.9, 0.1)
    g_expected = [g for g in (0.5, 1.0, 1.5) for _ in grid]
    if not _close(t.column("g"), g_expected, 1e-12):
        problems.append("g blocks differ from 0.5,1,1.5")
        return
    _sweep(Table(t.header[1:], [row[1:] for row in t.rows]), grid * 3, problems)
    _snr_above_one(t, slice(None), problems)
    fano = t.column("fano_ratio").reshape(3, len(grid))
    q = np.array(grid)
    if not _close(fano, (1.0 - q) * fano[:, :1] + q, 1e-9):
        problems.append("fano_ratio breaks the affine loss law F_L = p2 F + q2")


W_CLASSICAL = 1.8954942670339809  # x / c with sin x / x = 1/2, at c = 1


def _inv_superres(t, problems):
    budgets = np.geomspace(1e6, 3.5e10, 25)
    curves = [0.0, 2.0, 4.0, 6.0, 8.0]
    if not _close(t.column("s"), np.repeat(curves, len(budgets)), 0.0):
        problems.append("s column differs from the coherent baseline plus 2,4,6,8")
    if not _close(t.column("mean_n"), np.tile(budgets, len(curves)), 1e-12):
        problems.append("mean_n column differs from the budget grid")
    q = t.column("Q").reshape(len(curves), len(budgets))
    if not (np.all((q >= 1) & (q <= 7)) and np.all(np.diff(q, axis=1) >= 0)):
        problems.append("Q outside [1, 7] or falling with the budget")
    w, wq, j = t.column("W"), t.column("W_Q"), t.column("J")
    if not _close(w, W_CLASSICAL, 1e-5):
        problems.append("classical width W differs from 1.8955")
    if not _close(j, w / wq, 1e-12):
        problems.append("J is not W / W_Q")
    for modes in set(t.column("Q")):
        widths = wq[t.column("Q") == modes]
        if not _close(widths, widths[0], 1e-12):
            problems.append(f"W_Q differs between rows with Q = {int(modes)}")


def _inv_psf(t, problems):
    z = t.column("z")
    if not _close(z, np.arange(len(t.rows)) * 1e-3, 1e-9, 1e-15):
        problems.append("z grid is not 0:pi:1e-3")
    w = _half_width(z, t.column("classical"))
    wq = _half_width(z, t.column("reconstruction"))
    if not (abs(w - 1.90) <= 0.01 and abs(wq - 0.25) <= 0.01 and abs(w / wq - 7.6) <= 0.3):
        problems.append(f"W={w:.4f} W_Q={wq:.4f} J={w / wq:.3f}, expected 1.90, 0.25, 7.6 at c=1, Q=7")


def _inv_prolate_basis(t, problems):
    meta = t.meta
    if (meta["c"], meta["modes"], meta["quad_order"]) != (1.0, 7, 256):
        problems.append(f"basis header {meta} is not c=1 modes=7 quad_order=256")
        return
    data = np.array(t.rows)
    weights, phi = data[:, 1], data[:, 2:]
    lam = np.array(meta["lambda"])
    if abs(weights.sum() - 2.0) > 1e-12:
        problems.append("quadrature weights do not sum to 2")
    gram = (phi * weights[:, None]).T @ phi
    if np.abs(gram - np.eye(phi.shape[1])).max() > 1e-8:
        problems.append("eigenfunctions are not orthonormal to 1e-8")
    if not (lam[0] < 1.0 and lam[-1] > 0.0 and np.all(np.diff(lam) < 0.0)):
        problems.append("eigenvalues not strictly decreasing in (0, 1)")
    if abs(lam.sum() - 2.0 / math.pi) > 1e-6:
        problems.append("eigenvalue trace differs from 2c/pi")


def _inv_oracle_check(t, problems):
    if t.meta.get("command") != "oracle-check":
        problems.append("JSON command field is not oracle-check")
    if [row[0] for row in t.rows] != list(range(len(t.rows))):
        problems.append("case column is not 0..n-1")
    m, n = t.column("M"), t.column("N")
    s, g, a2 = t.column("s"), t.column("g"), t.column("alpha2")
    if not (np.all((m >= 1) & (m <= 64) & (n >= 1) & (n <= m))):
        problems.append("M or N outside the sampled domain")
    if not (np.all((s > 1.0) & (s <= 10.0)) and np.all((g >= 0) & (g <= 2)) and np.all((a2 >= 0) & (a2 <= 1e5))):
        problems.append("s, g or alpha2 outside the sampled domain")
    worst = max(t.column("rel_err_mean").max(), t.column("rel_err_var").max())
    if not worst < 1e-10:
        problems.append(f"worst relative error {worst:.3e} is not below 1e-10")


def _inv_fano_scatter(t, problems):
    if [row[0] for row in t.rows] != list(range(len(t.rows))):
        problems.append("trial column is not 0..n-1")
    fano = t.column("fano")
    if not np.all((fano > 0.0) & (fano < 1.0)):
        problems.append("a per-trial Fano factor is not in (0, 1)")


_ORACLE_HEADER = ["case", "M", "N", "s", "g", "alpha2", "rel_err_mean", "rel_err_var"]

# label -> (header, row count, invariant check)
EXPECTED = {
    "snr-sweep-g": (SWEEP_HEADER, 16, _inv_snr_sweep_g),
    "snr-sweep-s": (SWEEP_HEADER, 13, _inv_snr_sweep_s),
    "universal-fano": (SWEEP_HEADER, 12, _inv_universal_fano),
    "nm-sweep": (SWEEP_HEADER, 10, _inv_nm_sweep),
    "loss-sweep": (["g", *SWEEP_HEADER], 30, _inv_loss_sweep),
    "superres": (["s", "mean_n", "Q", "W", "W_Q", "J"], 125, _inv_superres),
    "psf": (["z", "classical", "reconstruction"], 3143, _inv_psf),
    "prolate-basis": (["z", "weight"] + [f"phi_{k}" for k in range(7)], 256, _inv_prolate_basis),
    "oracle-check": (_ORACLE_HEADER, 10000, _inv_oracle_check),
    "fano-scatter": (["trial", "fano"], TRIALS, _inv_fano_scatter),
}


def compare_reference(table: Table, ref: dict) -> list:
    """Problems found comparing a table with its pinned reference rows."""
    if table.header != ref["header"] or len(table.rows) != ref["row_count"]:
        return ["header or row count differs from the reference"]
    problems = []
    for col, name in enumerate(table.header):
        rtol, scale = ref["rtol"][col], ref["scale"][col]
        if rtol is None:
            continue
        for stored in ref["rows"]:
            got, want = table.rows[stored[0]][col], stored[1 + col]
            if name in INT_COLUMNS:
                ok = got == want
            else:
                ok = abs(got - want) <= rtol * max(abs(want), 1e-3 * scale)
            if not ok:
                problems.append(f"{name} at row {stored[0]}: {got!r} vs reference {want!r} (rtol {rtol:g})")
                break
    if "lambda" in ref["meta"]:
        got, want = np.array(table.meta["lambda"]), np.array(ref["meta"]["lambda"])
        if got.shape != want.shape or not _close(got, want, 1e-9, 10 * np.finfo(float).eps * want[0]):
            problems.append("prolate eigenvalues differ from the reference")
    return problems


def check_output(label: str, table: Table, reference: dict | None) -> list:
    """All problems with one command's output; empty when it is correct."""
    header, count, invariant = EXPECTED[label]
    if table.header != header:
        return [f"header {table.header} is not {header}"]
    if len(table.rows) != count:
        return [f"{len(table.rows)} rows, expected {count}"]
    problems = []
    values = [v for row in table.rows for v in row]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value")
    invariant(table, problems)
    if reference is not None:
        problems.extend(compare_reference(table, reference))
    return problems
