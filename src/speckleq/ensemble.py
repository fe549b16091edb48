"""Seeded Monte Carlo sweeps over disorder realizations.

Trial i draws its realization from a seed derived statelessly from
(master_seed, i), and per-trial results are reduced in fixed trial order,
so a rerun reproduces every table bitwise.  All axis values of a sweep use
the same realizations (common random numbers), which makes monotone
comparisons along the axis deterministic; each call therefore draws its
ensemble once (:func:`~speckleq.random_media.draw_ensemble`) and evaluates
every axis point as array expressions over the trials.

The ensemble Fano factor is a ratio of means - mean variance over mean
photon number - matching the averaged SNR definition
R-bar = n-bar / F-bar; the mean of per-trial Fano factors is kept as a
diagnostic field.  The reported ``stderr_snr`` combines the standard errors
of the numerator and denominator means in quadrature; the two means are
positively correlated, so this combined error is conservative and also
absorbs the O(1/M) finite-size offset between the sampled ensemble and the
asymptotic large-M formulas.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ZeroMean
from . import prolate
from .quantum_stats import NO_LOSS, LossChannel, SqueezedInput, focus_moments
from .random_media import DisorderParams, EnsembleDraws, draw_ensemble

SWEEP_AXES = ("squeeze_g", "disorder_s", "mode_fill_ratio", "loss_rate", "coherent_fraction")


class SweepSpec:
    """One parameter axis swept over a fixed disorder/input baseline; lossless but on the loss_rate axis."""

    __slots__ = ("axis", "axis_values", "disorder", "base_input", "trials", "master_seed")

    def __init__(
        self,
        axis: str,
        axis_values: tuple,
        disorder: DisorderParams,
        base_input: SqueezedInput,
        trials: int = 1000,
        master_seed: int = 1,
    ) -> None:
        if axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
        values = tuple(float(v) for v in axis_values)
        if len(values) == 0 or not all(math.isfinite(v) for v in values):
            raise ValueError("axis_values must be a nonempty sequence of finite reals")
        if not trials >= 1:
            raise ValueError("trials must be >= 1")
        if trials % 1 != 0:
            raise ValueError(f"trials must be an integer, got {trials}")
        self.axis, self.axis_values, self.disorder, self.base_input = axis, values, disorder, base_input
        self.trials, self.master_seed = int(trials), master_seed


class EnsembleSummary(NamedTuple):
    """Columnar per-axis-value aggregates of a Monte Carlo sweep."""

    axis: str
    axis_values: np.ndarray
    mean_n: np.ndarray
    mean_variance: np.ndarray
    fano_ratio: np.ndarray
    snr_ratio: np.ndarray
    stderr_mean_n: np.ndarray
    stderr_snr: np.ndarray
    fano_trial_mean: np.ndarray
    trials: int


def _effective_point(spec: SweepSpec, value: float):
    """Disorder, input and loss parameters at one axis value."""
    disorder, inp, loss = spec.disorder, spec.base_input, NO_LOSS
    if spec.axis == "squeeze_g":
        inp = inp.replace(squeeze_strength=value)
    elif spec.axis == "disorder_s":
        disorder = disorder.replace(disorder_strength=value)
    elif spec.axis == "mode_fill_ratio":
        if not 0.0 < value <= 1.0:
            raise ValueError(f"mode_fill_ratio must lie in (0, 1], got {value}")
        fed = min(max(int(round(value * disorder.channel_count)), 1), disorder.channel_count)
        inp = inp.replace(fed_modes=fed)
    elif spec.axis == "loss_rate":
        loss = LossChannel(value)
    elif spec.axis == "coherent_fraction":
        if not 0.0 <= value < 1.0:
            raise ValueError(f"coherent_fraction must lie in [0, 1), got {value}")
        alpha2 = value * math.sinh(inp.squeeze_strength) ** 2 / (1.0 - value)
        inp = inp.replace(alpha_mag=math.sqrt(alpha2))
    return disorder, inp, loss


def run_sweep(spec: SweepSpec) -> EnsembleSummary:
    """Monte Carlo sweep along one axis; deterministic for a fixed spec."""
    draws = draw_ensemble(spec.disorder.channel_count, spec.trials, spec.master_seed)
    return _sweep_draws(spec, draws)


def _sweep_draws(spec: SweepSpec, draws: EnsembleDraws) -> EnsembleSummary:
    points = [_point_summary(spec, value, draws) for value in spec.axis_values]
    columns = [np.array(column) for column in zip(*points)]
    return EnsembleSummary(spec.axis, np.array(spec.axis_values), *columns, trials=spec.trials)


def _point_summary(spec: SweepSpec, value: float, draws: EnsembleDraws) -> tuple:
    """One axis point's aggregates, in EnsembleSummary field order."""
    disorder, inp, loss = _effective_point(spec, value)
    means, variances = focus_moments(*draws.shaped_sums(disorder, inp.fed_modes), inp, loss)
    mean_n = float(np.mean(means))
    mean_v = float(np.mean(variances))
    if mean_n == 0.0:
        if loss.loss_rate != 1.0:
            raise ZeroMean(f"zero mean photon number at {spec.axis} = {value!r} (dark input)")
        # complete loss leaves vacuum, which is Poissonian-limited (the
        # q^2 -> 1 limit of the affine Fano law)
        return mean_n, mean_v, 1.0, 1.0, 0.0, 0.0, 1.0
    se_n = se_v = 0.0
    if spec.trials > 1:  # std of x / mean, not of x: squaring x itself overflows near 1e154
        se_n = float(np.std(means / mean_n, ddof=1)) * mean_n / math.sqrt(spec.trials)
        se_v = float(np.std(variances / mean_v, ddof=1)) * mean_v / math.sqrt(spec.trials)
    ratio = mean_n / mean_v
    # quadrature-combined standard error of snr_ratio = mean(n) / mean(var)
    stderr_snr = ratio * math.sqrt((se_n / mean_n) ** 2 + (se_v / mean_v) ** 2)
    return mean_n, mean_v, mean_v / mean_n, ratio, se_n, stderr_snr, float(np.mean(variances / means))


def run_fano_scatter(
    channel_count: int,
    disorder_strength: float,
    squeeze_strength: float,
    alpha2: float,
    trials: int,
    master_seed: int,
) -> np.ndarray:
    """Per-trial Fano factors of fully filled shaped foci (one value per realization)."""
    disorder = DisorderParams(channel_count, disorder_strength)
    inp = SqueezedInput.from_intensity(alpha2, squeeze_strength, fed_modes=channel_count)
    draws = draw_ensemble(channel_count, trials, master_seed)
    means, variances = focus_moments(*draws.shaped_sums(disorder, channel_count), inp, NO_LOSS)
    if (means == 0.0).any():
        raise ZeroMean("Fano factor undefined at zero mean photon number")
    return variances / means


class SuperresTable(NamedTuple):
    """J(budget) curves per disorder strength; s = 0 marks the coherent baseline."""

    disorder_strength: np.ndarray
    mean_n: np.ndarray
    modes_kept: np.ndarray
    classical_width: np.ndarray
    recon_width: np.ndarray
    resolution_gain: np.ndarray
    fano_by_curve: dict


def run_superres_sweep(
    squeeze_strength: float,
    disorder_strengths,
    budgets,
    bandwidth: float,
    epsilon: float,
    trials: int,
    master_seed: int,
    *,
    channel_count: int = 50,
    alpha2: float = 1e4,
    num_modes: int = 7,
    quad_order: int = 256,
) -> SuperresTable:
    """Super-resolution factor vs focus photon number, per disorder strength.

    The prolate budget is the illumination SNR: for the coherent baseline it
    equals the mean photon number itself, while squeezed light with disorder
    s boosts it to budget / F-bar(s), with F-bar estimated from the seeded
    disorder ensemble at the reference intensity (the bright-regime Fano
    ratio is insensitive to the exact intensity) by a ``disorder_s``
    :func:`run_sweep`.

    Each row equals :func:`~speckleq.prolate.superres_factor` at its budget, but one
    :func:`~speckleq.prolate.resolve_modes` call chooses every row's Q, W is resolved
    once per sweep and W_Q once per distinct Q, from one PSF per Q.
    """
    basis = prolate.build_basis(bandwidth, num_modes, quad_order)
    budgets = np.array([float(b) for b in budgets])
    strengths = tuple(float(s) for s in disorder_strengths)
    if not strengths:
        raise ValueError("disorder_strengths must be nonempty")
    if budgets.shape[0] == 0:
        raise ValueError("budgets must be nonempty")
    inp = SqueezedInput.from_intensity(alpha2, squeeze_strength, fed_modes=channel_count)
    disorder = DisorderParams(channel_count, strengths[0])
    fano = run_sweep(SweepSpec("disorder_s", strengths, disorder, inp, trials, master_seed)).fano_ratio
    curve_s, curve_fano = np.array([0.0, *strengths]), np.array([1.0, *fano])  # coherent baseline: F = 1

    modes_kept = prolate.resolve_modes(basis, budgets / curve_fano[:, None], epsilon)[0].ravel()
    classical_w = prolate.half_width(prolate.classical_psf_curve(basis.bandwidth))
    distinct_q, which = np.unique(modes_kept, return_inverse=True)
    w_q = [prolate.half_width(prolate.reconstruction_psf_curve(basis, q)) for q in distinct_q.tolist()]
    recon_w = np.array(w_q)[which]
    return SuperresTable(
        disorder_strength=np.repeat(curve_s, budgets.shape[0]),
        mean_n=np.tile(budgets, curve_s.shape[0]),
        modes_kept=modes_kept,
        classical_width=np.full(modes_kept.shape[0], classical_w),
        recon_width=recon_w,
        resolution_gain=classical_w / recon_w,
        fano_by_curve=dict(zip(curve_s.tolist(), curve_fano.tolist())),
    )


class LossSweepTable(NamedTuple):
    """Average SNR over mean photons vs loss rate, one block per squeeze strength."""

    squeeze_strength: np.ndarray
    loss_rate: np.ndarray
    mean_n: np.ndarray
    fano_ratio: np.ndarray
    snr_ratio: np.ndarray
    stderr_snr: np.ndarray
    trials: int


def run_loss_sweep(
    squeeze_strengths,
    disorder_strength: float,
    alpha2: float,
    loss_grid,
    trials: int,
    master_seed: int,
    *,
    channel_count: int = 50,
) -> LossSweepTable:
    """Lossy-focus table: the ratio 1 / F-bar_L against the loss rate |q|^2."""
    strengths = [float(g) for g in squeeze_strengths]
    if not strengths:
        raise ValueError("squeeze_strengths must be nonempty")
    draws = draw_ensemble(channel_count, trials, master_seed)
    blocks = []
    for g in strengths:
        spec = SweepSpec(
            axis="loss_rate",
            axis_values=tuple(float(q) for q in loss_grid),
            disorder=DisorderParams(channel_count, disorder_strength),
            base_input=SqueezedInput.from_intensity(alpha2, g, fed_modes=channel_count),
            trials=trials,
            master_seed=master_seed,
        )
        blocks.append((g, _sweep_draws(spec, draws)))
    n_axis = len(blocks[0][1].axis_values)
    g_col = np.concatenate([np.full(n_axis, g) for g, _ in blocks])
    return LossSweepTable(
        squeeze_strength=g_col,
        loss_rate=np.concatenate([b.axis_values for _, b in blocks]),
        mean_n=np.concatenate([b.mean_n for _, b in blocks]),
        fano_ratio=np.concatenate([b.fano_ratio for _, b in blocks]),
        snr_ratio=np.concatenate([b.snr_ratio for _, b in blocks]),
        stderr_snr=np.concatenate([b.stderr_snr for _, b in blocks]),
        trials=trials,
    )
