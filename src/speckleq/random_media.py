"""Random scattering-lens realizations for a single focus (output) mode.

One output mode of a strongly scattering slab couples to M transmission
channels and M reflection channels.  Raw coefficients are drawn as i.i.d.
circular complex Gaussians with E|t|^2 = 1/(M s) and E|r|^2 = (1 - 1/s)/M
(amplitudes Rayleigh, phases uniform), then the whole 2M-vector is rescaled
by one common factor so that sum|t|^2 + sum|r|^2 = 1 holds exactly.  Flux
conservation must be exact because the downstream Gaussian-oracle
equivalence checks rely on it; the price is an O(1/M) distortion of the
marginal means (see ``ensemble_coupling_stats``).

Wavefront shaping is represented implicitly: shaped propagation and both
oracles use only the amplitudes |t| and |r|, so channel phases are never
formed.

All operations are pure functions of their arguments; per-trial seeds for
ensemble work are derived statelessly from (master seed, trial index), so
any trial can be redrawn on its own.  ``draw_ensemble`` draws a whole
ensemble once and keeps only what the shaped statistics need from it;
``sample_realization`` draws one trial from the same stream layout and
channel weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class DisorderParams:
    """Scattering-lens parameters seen by one focus mode.

    channel_count: number of transmission channels M (the reflection side is
        modeled with the same number of channels).
    disorder_strength: s = thickness / transport mean free path; must exceed
        1 so the mean reflected intensity (1 - 1/s)/M stays nonnegative.
    """

    channel_count: int
    disorder_strength: float

    def __post_init__(self) -> None:
        if int(self.channel_count) != self.channel_count or self.channel_count < 1:
            raise ValueError(f"channel_count must be a positive integer, got {self.channel_count}")
        if not self.disorder_strength > 1.0:
            raise ValueError(
                f"disorder_strength must exceed 1, got {self.disorder_strength} "
                "(the reflected intensity (1-1/s)/M would be negative)"
            )


@dataclass(frozen=True)
class ScatteringRealization:
    """Transmission and reflection amplitudes of one sampled focus-mode coupling vector."""

    t_amp: np.ndarray
    r_amp: np.ndarray

    def __post_init__(self) -> None:
        for name in ("t_amp", "r_amp"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        m = self.t_amp.shape[0]
        if m < 1:
            raise ValueError("at least one transmission channel is required")
        if {self.t_amp.shape, self.r_amp.shape} != {(m,)}:
            raise ValueError(f"both amplitude arrays must share shape ({m},)")
        _require_physical(self.t_amp, self.r_amp)

    @property
    def channel_count(self) -> int:
        return self.t_amp.shape[0]


@dataclass(frozen=True)
class CouplingSums:
    """Shaped coupling sums entering the focus-mode photon statistics.

    ``cum_T[n]`` and ``cum_abs_t[n]`` hold the partial sums over the first n
    transmission channels (index 0 is zero), so the full sums are exactly the
    last cumulative entries and partial/full formulas agree bitwise.
    """

    sum_T: float
    sum_abs_t: float
    sum_R: float
    cum_T: np.ndarray
    cum_abs_t: np.ndarray

    @property
    def channel_count(self) -> int:
        return self.cum_T.shape[0] - 1

    def shaped_sums(self, fed_modes: int):
        """(tau_N, sum_{a<=N} |t_a|, tau_rest, sum_R) at N = ``fed_modes``, as in EnsembleDraws."""
        if not 0 <= fed_modes <= self.channel_count:
            raise ValueError(f"fed_modes={fed_modes} outside [0, {self.channel_count}]")
        tau_n = float(self.cum_T[fed_modes])
        return tau_n, float(self.cum_abs_t[fed_modes]), self.sum_T - tau_n, self.sum_R


def mask_seed(seed: int) -> int:
    """Map an arbitrary integer seed onto the unsigned 64-bit range."""
    return int(seed) & _U64_MASK


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Stateless (master seed, trial index) -> child seed mix.

    Uses a SeedSequence keyed on both integers, so any execution order or
    worker count reproduces the same per-trial streams.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    ss = np.random.SeedSequence((mask_seed(master_seed), int(trial_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _trial_intensity(channel_count: int, seed: int) -> np.ndarray:
    """|z|^2 of one trial's 2M circular normals: row 0 transmission, row 1 reflection.

    The one per-trial stream layout; every draw in the package goes through it.
    """
    rng = np.random.default_rng(mask_seed(seed))
    return np.square(rng.standard_normal((2, channel_count, 2))).sum(axis=2)


def _channel_weights(m, s):
    """Per-quadrature variances 1/(2Ms) of raw t and (1-1/s)/(2M) of raw r, per row for arrays."""
    return 1.0 / (2.0 * m * s), (1.0 - 1.0 / s) / (2.0 * m)


def _flux_scales(raw_T, raw_R, m, s):
    """Per-row factors taking raw |z_t|^2 and |z_r|^2 to intensities that sum to exactly one."""
    t_weight, r_weight = _channel_weights(m, s)
    norm = 1.0 / (t_weight * raw_T + r_weight * raw_R)
    return t_weight * norm, r_weight * norm


def _require_flux(flux) -> None:
    deviation = np.max(np.abs(flux - 1.0))  # a nan flux gives a nan deviation, which fails too
    if not deviation <= 1e-12:
        raise ValueError(f"flux not conserved: |sum|t|^2 + sum|r|^2 - 1| = {float(deviation)!r}")


def _require_physical(t_amp: np.ndarray, r_amp: np.ndarray) -> None:
    """Raise unless the amplitudes are nonnegative and each row (channels last) conserves flux."""
    if np.any(t_amp < 0.0) or np.any(r_amp < 0.0):
        raise ValueError("amplitudes must be nonnegative")
    _require_flux(np.sum(t_amp**2, axis=-1) + np.sum(r_amp**2, axis=-1))


def _amplitudes(intensity: np.ndarray, m, s) -> tuple[np.ndarray, np.ndarray]:
    """Flux-normalized |t| and |r| of trial intensities shaped (..., 2, channels)."""
    transmitted, reflected = intensity[..., 0, :], intensity[..., 1, :]
    t_scale, r_scale = _flux_scales(transmitted.sum(axis=-1), reflected.sum(axis=-1), m, s)
    return np.sqrt(t_scale[..., None] * transmitted), np.sqrt(r_scale[..., None] * reflected)


def sample_realization(params: DisorderParams, seed: int) -> ScatteringRealization:
    """Draw one scattering realization, exactly flux-normalized.

    Deterministic function of (params, seed): identical inputs give a
    bitwise-identical realization.
    """
    intensity = _trial_intensity(params.channel_count, seed)
    amplitudes = _amplitudes(intensity, params.channel_count, params.disorder_strength)
    return ScatteringRealization(*amplitudes)


def coupling_sums(real: ScatteringRealization) -> CouplingSums:
    """Transmission/reflection sums of a realization, with partials."""
    trans = real.t_amp**2
    cum_t = np.concatenate(([0.0], np.cumsum(trans)))
    cum_a = np.concatenate(([0.0], np.cumsum(real.t_amp)))
    return CouplingSums(
        sum_T=float(cum_t[-1]),
        sum_abs_t=float(cum_a[-1]),
        sum_R=float(np.sum(real.r_amp**2)),
        cum_T=cum_t,
        cum_abs_t=cum_a,
    )


@dataclass(frozen=True)
class EnsembleDraws:
    """A seeded ensemble's raw normals, reduced before any s-dependent scaling.

    Row i holds the same draw as ``sample_realization(params,
    derive_trial_seed(master_seed, i))``: prefix sums of |z_t|^2 and |z_t|
    over the transmission channels and the total |z_r|^2.
    """

    cum_T: np.ndarray
    cum_abs_t: np.ndarray
    sum_R: np.ndarray

    def shaped_sums(self, params: DisorderParams, fed_modes: int):
        """Per-trial (tau_N, sum_{a<=N} |t_a|, tau_rest, sum_R), exactly flux-normalized."""
        m = params.channel_count
        if self.cum_T.shape[1] != m or not 1 <= fed_modes <= m:
            raise ValueError(f"M={m}, N={fed_modes} do not fit draws of shape {self.cum_T.shape}")
        fed = (self.cum_T[:, fed_modes - 1], self.cum_abs_t[:, fed_modes - 1])
        return _flux_normalized_sums(self.cum_T[:, -1], *fed, self.sum_R, m, params.disorder_strength)


def _flux_normalized_sums(raw_T, raw_T_n, raw_abs_n, raw_R, m, s):
    """Per-row (tau_N, sum_{a<=N} |t_a|, tau_rest, sum_R), exactly flux-normalized.

    From raw |z_t|^2 and |z_r|^2 totals, |z_t|^2 and |z_t| over the N fed channels, M and s.
    """
    t_scale, r_scale = _flux_scales(raw_T, raw_R, m, s)
    tau_all, tau_n, sum_r = t_scale * raw_T, t_scale * raw_T_n, r_scale * raw_R
    _require_flux(tau_all + sum_r)
    return tau_n, np.sqrt(t_scale) * raw_abs_n, tau_all - tau_n, sum_r


def draw_ensemble(channel_count: int, trials: int, master_seed: int) -> EnsembleDraws:
    """Draw trials 0..trials-1 once and reduce them to their prefix sums."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    intensities = np.empty((trials, 2, channel_count))
    for i in range(trials):
        intensities[i] = _trial_intensity(channel_count, derive_trial_seed(master_seed, i))
    transmitted = intensities[:, 0]
    return EnsembleDraws(
        np.cumsum(transmitted, axis=1),
        np.cumsum(np.sqrt(transmitted), axis=1),
        intensities[:, 1].sum(axis=1),
    )


@dataclass(frozen=True)
class CouplingStats:
    """Monte Carlo summary of the coupling sums over a disorder ensemble."""

    mean_sum_T: float
    stderr_sum_T: float
    mean_sum_R: float
    stderr_sum_R: float
    trials: int


def ensemble_coupling_stats(params: DisorderParams, trials: int, seed: int) -> CouplingStats:
    """Average sum_T and sum_R over independent realizations.

    mean_sum_T converges to 1/s up to the O(1/M) distortion introduced by
    the exact flux normalization; the leading correction is
    (1 - 1/s)(1 - 2/s)/(M s).  mean_sum_R is reported as 1 - mean_sum_T,
    which is exact because every realization conserves flux.
    """
    draws = draw_ensemble(params.channel_count, trials, seed)
    sums = draws.shaped_sums(params, params.channel_count)[0]
    mean_t = float(np.mean(sums))
    stderr = float(np.std(sums, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return CouplingStats(
        mean_sum_T=mean_t,
        stderr_sum_T=stderr,
        mean_sum_R=1.0 - mean_t,
        stderr_sum_R=stderr,
        trials=trials,
    )


def normalization_bias(params: DisorderParams) -> float:
    """Leading O(1/M) shift of E[sum_T] away from 1/s under exact normalization.

    Second-order delta-method estimate for the ratio X/(X+Y) of the raw
    transmitted and reflected intensity sums; vanishes at s = 2.
    """
    m = params.channel_count
    s = params.disorder_strength
    return (1.0 - 1.0 / s) * (1.0 - 2.0 / s) / (m * s)
