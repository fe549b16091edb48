"""Exception types, and the whole-count check, shared across the package."""


class SpeckleQError(Exception):
    """Base class for speckleq domain errors."""


class ZeroMean(SpeckleQError):
    """Fano factor undefined for zero mean photon number."""


class TruncationError(SpeckleQError):
    """Fock-space cutoff too small for the requested state."""


class ConvergenceError(SpeckleQError):
    """Quadrature or eigensolve did not reach the requested accuracy."""


class NoCrossing(SpeckleQError):
    """Curve never falls below half of its peak on the sampled range."""


class TooDim(SpeckleQError):
    """Photon budget too small to reconstruct even a single mode."""


class UsageError(SpeckleQError):
    """Invalid command line arguments."""


class StreamMismatch(SpeckleQError, RuntimeError):
    """A batched draw or replay no longer reproduces numpy's own SeedSequence/PCG64 stream."""


def whole_count(value, name: str) -> int:
    """``value`` as an int, checked to be a whole number >= 1; the ValueError names the argument."""
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1")
    if value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)
