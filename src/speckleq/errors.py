"""Exception types shared across the package."""


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
    """The batched trial seeding no longer reproduces numpy's SeedSequence/PCG64 stream."""
