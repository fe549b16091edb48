"""Deterministic simulator for quantum imaging through a disordered scattering lens.

Photon statistics of a wavefront-shaped focus fed by squeezed-coherent
light, disorder-ensemble Monte Carlo studies, photon loss and partial mode
filling, and prolate-spheroidal super-resolution factors - with exact
Gaussian and truncated-Fock oracles backing every closed form.

``import speckleq`` loads nothing else: each export, and each submodule,
is imported on first access (PEP 562), so ``speckleq.cli`` can choose the
BLAS thread count before numpy loads.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ConvergenceError", "NoCrossing", "SpeckleQError", "StreamMismatch", "TooDim",
        "TruncationError", "UsageError", "ZeroMean",
    ),
    "random_media": (
        "CouplingSums", "DisorderParams", "EnsembleDraws", "ScatteringRealization",
        "coupling_sums", "derive_trial_seed", "draw_ensemble", "sample_realization",
    ),
    "quantum_stats": (
        "LossChannel", "PhotonMoments", "SqueezedInput", "apply_loss", "asymptotic_avg_fano",
        "asymptotic_avg_snr_ratio", "fano", "focus_moments", "mean_photon", "mean_photon_partial",
        "photon_budget", "variance_photon", "variance_photon_partial",
    ),
    "gaussian_oracle": (
        "EquivalenceReport", "GaussianModeState", "ModeCoefficients", "apply_loss_channel",
        "fock_photon_moments", "focus_mode_coefficients", "gaussian_photon_moments",
        "output_gaussian_state", "run_equivalence_check",
    ),
    "prolate": (
        "ProlateBasis", "PsfCurve", "ReconstructionReport", "build_basis", "classical_psf",
        "classical_psf_curve", "half_width", "reconstruction_psf",
        "reconstruction_psf_curve", "resolve_modes", "superres_factor",
    ),
    "ensemble": (
        "EnsembleSummary", "LossSweepTable", "SuperresTable", "SweepSpec", "run_fano_scatter",
        "run_loss_sweep", "run_superres_sweep", "run_sweep",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
