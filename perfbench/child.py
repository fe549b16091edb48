"""One CLI invocation in a fresh interpreter, measured from the inside.

Usage: python3 child.py RESULT_JSON TRACE -- <speckleq arguments>

Times the import of ``speckleq.cli`` (set-up), then ``speckleq.cli.main``
(wall and process CPU time, which includes BLAS threads), and writes the
measurements to RESULT_JSON.  The machine-speed probe (``probe.py``) runs
just before and just after ``main``, in this process, because the speed
a process gets can differ from one process to the next.  With TRACE = 1 the
span tracer is installed after the import and before ``main``, so set-up is
never traced.  The exit status is ``main``'s.  This file is only ever run as
a script: its module-level import is the timed set-up.
"""

import time

import speckleq.cli

IMPORT_DONE = time.monotonic()

import ctypes  # noqa: E402  (imported after the timed set-up)
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from probe import probe  # noqa: E402


def _blas_threads():
    """Thread count of the OpenBLAS library bundled with numpy, if it can be queried."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- ARGS...")
    argv = sys.argv[4:]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    probe_before = probe()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    status = speckleq.cli.main(argv)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    probe_after = probe()

    import numpy
    import scipy

    record = {
        "import_done": IMPORT_DONE,
        "status": status,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": [probe_before, probe_after],
        "speckleq_file": speckleq.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        record["spans"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
