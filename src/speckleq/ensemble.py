"""Seeded Monte Carlo sweeps over disorder realizations.

Trial i draws its realization from a seed derived statelessly from
(master_seed, i), and per-trial results are reduced in fixed trial order,
so a rerun reproduces every table bitwise.  All axis values of a sweep use
the same realizations (common random numbers), which makes monotone
comparisons along the axis deterministic; each call therefore draws its
ensemble once (:func:`~speckleq.random_media.draw_ensemble`) and evaluates
its axis points as the rows of (points, trials) arrays, a block of rows at a time.

The ensemble Fano factor is a ratio of means - mean variance over mean
photon number - matching the averaged SNR definition R-bar = n-bar / F-bar.
The reported ``stderr_snr`` combines the standard errors of the numerator
and denominator means in quadrature; the two means are positively
correlated, so this combined error is conservative and also absorbs the
O(1/M) finite-size offset between the sampled ensemble and the asymptotic
large-M formulas.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ZeroMean, whole_count
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
        self.axis, self.axis_values, self.disorder, self.base_input = axis, values, disorder, base_input
        self.trials, self.master_seed = whole_count(trials, "trials"), master_seed


class EnsembleSummary(NamedTuple):
    """Columnar per-axis-value aggregates of a Monte Carlo sweep."""

    axis: str
    axis_values: np.ndarray
    mean_n: np.ndarray
    fano_ratio: np.ndarray
    snr_ratio: np.ndarray
    stderr_snr: np.ndarray
    trials: int


def run_sweep(spec: SweepSpec) -> EnsembleSummary:
    """Monte Carlo sweep along one axis; deterministic for a fixed spec."""
    draws = draw_ensemble(spec.disorder.channel_count, spec.trials, spec.master_seed)
    return _sweep_draws(spec, draws)


# Elements of one (points, trials) block, at least one row: a sweep's arrays stay this small
# at any point count, and the CLI's default sweeps (at most 16 points of 1000 trials) are one block.
_BLOCK_ELEMENTS = 2**16


def _axis_params(spec: SweepSpec, column: np.ndarray):
    """focus_moments' (disorder, fed modes, input, loss) at the axis values in ``column``, each checked."""
    disorder, inp, loss, fed = spec.disorder, spec.base_input, NO_LOSS, spec.base_input.fed_modes
    values = column.ravel().tolist()
    if spec.axis == "squeeze_g":
        inp = inp.replace(squeeze_strength=column)
    elif spec.axis == "disorder_s":
        disorder = disorder.replace(disorder_strength=column)
    elif spec.axis == "mode_fill_ratio":
        outside = [f for f in values if not 0.0 < f <= 1.0]
        if outside:
            raise ValueError(f"mode_fill_ratio must lie in (0, 1], got {outside[0]}")
        m = disorder.channel_count
        fed = np.clip(np.rint(column * m), 1, m).astype(np.int64)  # rint rounds half to even, as round does
    elif spec.axis == "loss_rate":
        loss = LossChannel(column)
    else:
        outside = [f for f in values if not 0.0 <= f < 1.0]
        if outside:
            raise ValueError(f"coherent_fraction must lie in [0, 1), got {outside[0]}")
        sh2 = math.sinh(inp.squeeze_strength) ** 2
        inp = inp.replace(alpha_mag=np.sqrt(column * sh2 / (1.0 - column)))
    return disorder, fed, inp, loss


def _block_points(spec: SweepSpec, draws: EnsembleDraws, params) -> np.ndarray:
    """A block's aggregates: a row per EnsembleSummary field, a column per point (vacuum's if dark)."""
    disorder, fed, inp, loss = params
    means, variances = focus_moments(*draws.shaped_sums(disorder, fed), inp, loss)
    mean_n, mean_v = means.mean(axis=1), variances.mean(axis=1)
    # dark rows keep vacuum's aggregates: zero mean and error, Fano and SNR ratios 1
    points = np.tile(np.array([[0.0], [1.0], [1.0], [0.0]]), len(mean_n))
    lit = mean_n != 0.0
    means, variances, n, v = means[lit], variances[lit], mean_n[lit], mean_v[lit]
    se_n = se_v = np.zeros(n.shape)
    if spec.trials > 1:  # std of x / mean, not of x: squaring x itself overflows near 1e154
        root = math.sqrt(spec.trials)
        se_n = np.std(means / n[:, None], axis=1, ddof=1) * n / root
        se_v = np.std(variances / v[:, None], axis=1, ddof=1) * v / root
    ratio = n / v
    # quadrature-combined standard error of snr_ratio = mean(n) / mean(var)
    stderr_snr = ratio * np.sqrt((se_n / n) ** 2 + (se_v / v) ** 2)
    points[:, lit] = n, v / n, ratio, stderr_snr
    return points


def _sweep_draws(spec: SweepSpec, draws: EnsembleDraws) -> EnsembleSummary:
    """Every axis point in array passes: point i is row i of (points, trials) moment blocks.

    Row reductions along axis 1 equal numpy's 1-D reductions bit for bit, so each
    point equals a one-point sweep.
    """
    column = np.array(spec.axis_values)[:, None]
    rows = max(1, _BLOCK_ELEMENTS // spec.trials)
    params = _axis_params(spec, column)  # every value is checked before the first block is evaluated
    blocks = []
    for start in range(0, len(column), rows):
        if rows < len(column):
            params = _axis_params(spec, column[start : start + rows])
        blocks.append(_block_points(spec, draws, params))
    points = np.concatenate(blocks, axis=1)
    # complete loss leaves vacuum, which is Poissonian-limited (the q^2 -> 1 limit of the
    # affine Fano law); any other dark point has no Fano factor
    for value, mean_n in zip(spec.axis_values, points[0].tolist()):
        if mean_n == 0.0 and (spec.axis, value) != ("loss_rate", 1.0):
            raise ZeroMean(f"zero mean photon number at {spec.axis} = {value!r} (dark input)")
    return EnsembleSummary(spec.axis, np.array(spec.axis_values), *points, trials=spec.trials)


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

    One :func:`~speckleq.prolate.superres_factor` call on every row's budget
    mean_n / F-bar(s) gives the rows' Q, W, W_Q and J: it evaluates the Slepian modes
    once per sweep and sums them once per distinct Q.  Budgets and epsilon
    are checked before the basis is built or the ensemble drawn.
    """
    budgets = np.array([float(b) for b in budgets])
    strengths = tuple(float(s) for s in disorder_strengths)
    if not strengths:
        raise ValueError("disorder_strengths must be nonempty")
    if budgets.shape[0] == 0:
        raise ValueError("budgets must be nonempty")
    prolate.checked_budget(budgets, epsilon)
    inp = SqueezedInput.from_intensity(alpha2, squeeze_strength, fed_modes=channel_count)
    disorder = DisorderParams(channel_count, strengths[0])
    spec = SweepSpec("disorder_s", strengths, disorder, inp, trials, master_seed)  # checked before the basis
    basis = prolate.build_basis(bandwidth, num_modes, quad_order)
    fano = run_sweep(spec).fano_ratio
    curve_s, curve_fano = np.array([0.0, *strengths]), np.array([1.0, *fano])  # coherent baseline: F = 1
    report = prolate.superres_factor(basis, (budgets / curve_fano[:, None]).ravel(), epsilon)
    return SuperresTable(np.repeat(curve_s, budgets.shape[0]), np.tile(budgets, curve_s.shape[0]), *report)


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
    disorder, grid = DisorderParams(channel_count, disorder_strength), tuple(loss_grid)
    blocks = [
        _sweep_draws(SweepSpec("loss_rate", grid, disorder, inp, trials, master_seed), draws)
        for inp in (SqueezedInput.from_intensity(alpha2, g, fed_modes=channel_count) for g in strengths)
    ]
    columns = zip(*((b.axis_values, b.mean_n, b.fano_ratio, b.snr_ratio, b.stderr_snr) for b in blocks))
    return LossSweepTable(np.repeat(strengths, len(grid)), *map(np.concatenate, columns), trials=trials)
