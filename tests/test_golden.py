"""Golden outputs of every Monte Carlo command at reduced trial counts, and of the Slepian commands.

The files under ``tests/golden/`` pin the numbers of each command, so a
refactor of the ensemble or prolate path is judged against them.  The
prolate-basis file pins c = 2, 12 modes on 128 nodes, a basis whose
exported bits change if the eigenfunction array is not C-ordered.  Floats
must agree to ``rtol = 1e-12`` (a reordered sum may move the last few
bits), integer columns exactly.  Regenerate with ``PYTHONPATH=src python tests/test_golden.py``
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
    "fano-scatter": ["fano-scatter", *COMMON],
    "snr-sweep-g": ["snr-sweep", "--axis", "g", *COMMON],
    "snr-sweep-s": ["snr-sweep", "--axis", "s", *COMMON],
    "nm-sweep": ["nm-sweep", *COMMON],
    "universal-fano": ["universal-fano", *COMMON],
    "loss-sweep": ["loss-sweep", *COMMON],
    "superres": ["superres", "--budgets", "1e6:3.5e10:log7", *COMMON],
    "psf": ["psf", "--step", "0.01"],
    "prolate-basis": ["prolate-basis", "--c", "2", "--modes", "12", "--quad-order", "128"],
}


def golden_file(name: str) -> str:
    return f"{name}.txt" if name == "prolate-basis" else f"{name}.csv"


def write_output(name: str, out: Path) -> None:
    assert main([*GOLDEN_COMMANDS[name], "--out", str(out)]) == 0


def read_table(path: Path):
    """Header, rows and the ``#`` lines above the header (prolate-basis text only) of an output."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".csv":
        return lines[0].split(","), [line.split(",") for line in lines[1:]], []
    # prolate-basis: "# prolate basis: c=...", "# lambda: ...", "# columns: z weight phi_0 ...", rows
    *notes, columns = [line for line in lines if line.startswith("#")]
    return columns.split()[2:], [line.split() for line in lines if not line.startswith("#")], notes


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_matches_golden(name, tmp_path):
    out = tmp_path / golden_file(name)
    write_output(name, out)
    header, rows, notes = read_table(out)
    golden_header, golden_rows, golden_notes = read_table(GOLDEN_DIR / golden_file(name))
    assert header == golden_header
    if golden_notes:  # the basis parameters exactly, the eigenvalues as floats
        assert notes[0] == golden_notes[0]
        np.testing.assert_allclose(
            np.array(notes[1].split()[2:], dtype=float), np.array(golden_notes[1].split()[2:], dtype=float),
            rtol=RTOL, atol=0.0, err_msg=f"{name}: lambda",
        )
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
        write_output(golden, GOLDEN_DIR / golden_file(golden))
