"""Machine-speed probe: a fixed piece of work timed next to every invocation.

On a machine shared with other tenants, the same CLI command can take
anywhere from 1x to 2x its usual time, in stretches of seconds to minutes.
Each child runs the probe just before and just after ``cli.main``, in its
own process, because the speed a process gets can differ from one process to
the next.  The same slowdown hits the probe, so scaling an invocation's
times by ``REFERENCE_S / mean probe time`` reports them at one reference
machine speed.  The probe uses only numpy, so a change to
speckleq cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# About the probe's time on an uncontended core of the machine that defined
# the benchmark (2-core Intel Xeon VM, Python 3.11, numpy 2.4).  It only sets
# the scale of the reported seconds; comparisons between commits on one
# machine do not depend on it.
REFERENCE_S = 0.08


def probe() -> float:
    """Seconds taken by a fixed loop of per-trial seeding, small draws and reductions.

    The loop resembles the program's Monte Carlo hot path.  It calls no BLAS
    routine: a parallel BLAS call would leave its threads spinning into the
    measured ``cli.main`` and inflate its CPU time.
    """
    start = time.perf_counter()
    total = 0.0
    for trial in range(2000):
        state = np.random.SeedSequence((7, trial)).generate_state(1, np.uint64)[0]
        draws = np.random.default_rng(int(state)).standard_normal((2, 50, 2))
        amps = np.abs(draws[0, :, 0] + 1j * draws[0, :, 1])
        total += float(np.cumsum(amps**2)[-1] + np.sum(draws[1] ** 2))
    elapsed = time.perf_counter() - start
    if not np.isfinite(total):
        raise RuntimeError("probe produced a non-finite result")
    return elapsed
