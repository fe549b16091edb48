"""Write reference/seed-<recorded seed>.json from the current sources.

Usage (from the repository root):  python3 perfbench/make_reference.py

Runs every benchmark command once with the recorded seed and pins a strided
subset of each output's rows (at most ~250 per command) with per-column
tolerances (see ``checks.py``).  Regenerating pins today's numbers, so do it
only at a commit whose outputs are known to be right, and say so wherever
the change is recorded.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from checks import check_output, read_output
from run import BENCH, REFERENCE, child_env
from workloads import COMMANDS, RECORDED_SEED

MAX_ROWS = 250
RTOL = 1e-9
WIDTH_RTOL = 1e-5
EPS = float(np.finfo(float).eps)


def _mode_rtol(lam, k: int) -> float:
    return max(RTOL, 10.0 * EPS * lam[0] / lam[k])


def column_rtols(label: str, header: list, lam: list) -> list:
    rtols = []
    for name in header:
        if label == "superres" and name in ("W", "W_Q", "J"):
            rtols.append(WIDTH_RTOL)
        elif label == "prolate-basis" and name.startswith("phi_"):
            rtols.append(_mode_rtol(lam, int(name[4:])))
        elif label == "psf" and name == "reconstruction":
            rtols.append(_mode_rtol(lam, len(lam) - 1))  # default --q 7 keeps every mode
        elif label == "oracle-check" and name.startswith("rel_err"):
            rtols.append(None)
        else:
            rtols.append(RTOL)
    return rtols


def _dump(reference: dict) -> str:
    """JSON with one pinned row per line, so a re-pin shows as a readable diff."""
    blocks = []
    for label, entry in reference["commands"].items():
        head = json.dumps({k: v for k, v in entry.items() if k != "rows"})[:-1]
        rows = ",\n".join(json.dumps(row) for row in entry["rows"])
        blocks.append(f'{json.dumps(label)}: {head}, "rows": [\n{rows}\n]}}')
    return f'{{"recorded_seed": {reference["recorded_seed"]}, "commands": {{\n' + ",\n".join(blocks) + "\n}}\n"


def main() -> int:
    tables = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for label, command in COMMANDS.items():
            out = f"{tmp}/{label}.{command.suffix}"
            argv = [sys.executable, "-m", "speckleq.cli", *command.args, "--seed", str(RECORDED_SEED), "--out", out]
            subprocess.run(argv, cwd=tmp, env=child_env(), check=True, capture_output=True)
            tables[label] = read_output(Path(out), command.kind)
    lam = tables["prolate-basis"].meta["lambda"]
    reference = {"recorded_seed": RECORDED_SEED, "commands": {}}
    for label, table in tables.items():
        stride = max(1, math.ceil(len(table.rows) / MAX_ROWS))
        reference["commands"][label] = {
            "args": list(COMMANDS[label].args),
            "header": table.header,
            "row_count": len(table.rows),
            "stride": stride,
            "rtol": column_rtols(label, table.header, lam),
            "scale": [float(np.max(np.abs(table.column(h)))) for h in table.header],
            "meta": {k: v for k, v in table.meta.items() if k == "lambda"},
            "rows": [[i, *table.rows[i]] for i in range(0, len(table.rows), stride)],
        }
    for label, table in tables.items():
        problems = check_output(label, table, reference["commands"][label])
        if problems:
            print(f"{label}: {problems}", file=sys.stderr)
            return 1
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(_dump(reference), encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
