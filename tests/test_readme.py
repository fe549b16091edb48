"""README's code examples run as written."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section_python_block(heading: str) -> str:
    """The first ```python block after the line ``heading`` in README.md."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(section_python_block("## Library use"), "README.md", "exec"), {})
    rows = [line.split() for line in printed.getvalue().splitlines()]
    assert [int(row[0]) for row in rows] == [50, 10]
    for _, mean, variance, fano in ((float(x) for x in row) for row in rows):
        assert mean > 0.0 and math.isfinite(variance)
        # amplitude squeezing of a bright input is sub-Poissonian at the focus
        assert 0.0 < fano < 1.0 and fano == variance / mean
