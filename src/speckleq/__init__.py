"""Deterministic simulator for quantum imaging through a disordered scattering lens.

Photon statistics of a wavefront-shaped focus fed by squeezed-coherent
light, disorder-ensemble Monte Carlo studies, photon loss and partial mode
filling, and prolate-spheroidal super-resolution factors - with exact
Gaussian and truncated-Fock oracles backing every closed form.
"""

from .errors import (
    AllZero,
    ConvergenceError,
    NoCrossing,
    NonzeroPhase,
    SpeckleQError,
    TooDim,
    TruncationError,
    UsageError,
    ZeroMean,
    ZeroVariance,
)
from .random_media import (
    CouplingSums,
    DisorderParams,
    EnsembleDraws,
    ScatteringRealization,
    coupling_sums,
    derive_trial_seed,
    draw_ensemble,
    sample_realization,
)
from .quantum_stats import (
    LossChannel,
    PhotonMoments,
    SqueezedCases,
    SqueezedInput,
    apply_loss,
    asymptotic_avg_fano,
    asymptotic_avg_snr_ratio,
    fano,
    focus_moments,
    mean_photon,
    mean_photon_partial,
    photon_budget,
    snr,
    variance_photon,
    variance_photon_partial,
)
from .gaussian_oracle import (
    EquivalenceReport,
    GaussianModeState,
    ModeCoefficients,
    apply_loss_channel,
    fock_photon_moments,
    focus_mode_coefficients,
    gaussian_photon_moments,
    output_gaussian_state,
    run_equivalence_check,
)
from .prolate import (
    ProlateBasis,
    PsfCurve,
    ReconstructionReport,
    build_basis,
    choose_mode_count,
    classical_psf,
    classical_psf_curve,
    export_basis,
    half_width,
    point_object_coeffs,
    reconstruction_psf,
    reconstruction_psf_curve,
    reconstruction_snr,
    resolve_modes,
    superres_factor,
)
from .ensemble import (
    EnsembleSummary,
    LossSweepTable,
    SuperresTable,
    SweepSpec,
    run_fano_scatter,
    run_loss_sweep,
    run_superres_sweep,
    run_sweep,
)

__version__ = "0.1.0"
