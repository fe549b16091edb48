"""Golden outputs of every Monte Carlo command at reduced trial counts.

The files under ``tests/golden/`` pin the numbers of each command, so a
refactor of the ensemble path is judged against them.  Floats must agree to
``rtol = 1e-12`` (a reordered sum may move the last few bits), integer
columns exactly.  Regenerate with ``PYTHONPATH=src python tests/test_golden.py``
only at a commit whose numbers are known to be right.
"""

from pathlib import Path

import numpy as np
import pytest

from speckleq.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-12
INTEGER_COLUMNS = {"trials", "Q", "trial"}
COMMON = ["--trials", "50", "--seed", "6"]

GOLDEN_COMMANDS = {
    "fano-scatter": ["fano-scatter"],
    "snr-sweep-g": ["snr-sweep", "--axis", "g"],
    "snr-sweep-s": ["snr-sweep", "--axis", "s"],
    "nm-sweep": ["nm-sweep"],
    "universal-fano": ["universal-fano"],
    "loss-sweep": ["loss-sweep"],
    "superres": ["superres", "--budgets", "1e6:3.5e10:log7"],
}


def write_output(name: str, out: Path) -> None:
    assert main([*GOLDEN_COMMANDS[name], *COMMON, "--out", str(out)]) == 0


def read_table(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    write_output(name, out)
    header, rows = read_table(out)
    golden_header, golden_rows = read_table(GOLDEN_DIR / f"{name}.csv")
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for k, column in enumerate(header):
        got = [row[k] for row in rows]
        want = [row[k] for row in golden_rows]
        if column in INTEGER_COLUMNS:
            assert [int(v) for v in got] == [int(v) for v in want], column
        else:
            np.testing.assert_allclose(
                np.array(got, dtype=float), np.array(want, dtype=float), rtol=RTOL, atol=0.0,
                err_msg=f"{name}: column {column}",
            )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden in sorted(GOLDEN_COMMANDS):
        write_output(golden, GOLDEN_DIR / f"{golden}.csv")
