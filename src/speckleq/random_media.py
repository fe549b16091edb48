"""Random scattering-lens realizations for a single focus (output) mode.

One output mode of a strongly scattering slab couples to M transmission
channels and M reflection channels.  Raw coefficients are drawn as i.i.d.
circular complex Gaussians with E|t|^2 = 1/(M s) and E|r|^2 = (1 - 1/s)/M
(amplitudes Rayleigh, phases uniform), then the whole 2M-vector is rescaled
by one common factor so that sum|t|^2 + sum|r|^2 = 1 holds exactly.  Flux
conservation must be exact because the downstream Gaussian-oracle
equivalence checks rely on it; the price is an O(1/M) distortion of the
marginal means (see ``ensemble_coupling_stats``).

Wavefront shaping is represented implicitly: shaped propagation always uses
the transmission amplitude |t| and never its phase, so phases are retained
only for unshaped diagnostics.

All operations are pure functions of their arguments; per-trial seeds for
ensemble work are derived statelessly from (master seed, trial index), so
any trial can be redrawn on its own.  ``draw_ensemble`` draws a whole
ensemble once and keeps only what the shaped statistics need from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64_MASK = 0xFFFFFFFFFFFFFFFF
TWO_PI = 2.0 * np.pi


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
    """Amplitudes and phases of one sampled focus-mode coupling vector."""

    t_amp: np.ndarray
    t_phase: np.ndarray
    r_amp: np.ndarray
    r_phase: np.ndarray

    def __post_init__(self) -> None:
        for name in ("t_amp", "t_phase", "r_amp", "r_phase"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        m = self.t_amp.shape[0]
        if m < 1:
            raise ValueError("at least one transmission channel is required")
        shapes = {self.t_amp.shape, self.t_phase.shape, self.r_amp.shape, self.r_phase.shape}
        if shapes != {(m,)}:
            raise ValueError(f"all coefficient arrays must share shape ({m},)")
        if np.any(self.t_amp < 0.0) or np.any(self.r_amp < 0.0):
            raise ValueError("amplitudes must be nonnegative")
        flux = float(np.sum(self.t_amp**2) + np.sum(self.r_amp**2))
        if abs(flux - 1.0) > 1e-12:
            raise ValueError(f"flux not conserved: sum|t|^2 + sum|r|^2 = {flux!r}")

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

    def _check_range(self, n: int) -> None:
        if not 0 <= n <= self.channel_count:
            raise ValueError(f"partial sum index {n} outside [0, {self.channel_count}]")

    def partial_sum_T(self, n: int) -> float:
        self._check_range(n)
        return float(self.cum_T[n])

    def partial_sum_abs_t(self, n: int) -> float:
        self._check_range(n)
        return float(self.cum_abs_t[n])


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


def sample_realization(params: DisorderParams, seed: int) -> ScatteringRealization:
    """Draw one scattering realization, exactly flux-normalized.

    Deterministic function of (params, seed): identical inputs give a
    bitwise-identical realization.
    """
    m = params.channel_count
    s = params.disorder_strength
    rng = np.random.default_rng(mask_seed(seed))
    draws = rng.standard_normal((2, m, 2))
    t = (draws[0, :, 0] + 1j * draws[0, :, 1]) * np.sqrt(1.0 / (2.0 * m * s))
    r = (draws[1, :, 0] + 1j * draws[1, :, 1]) * np.sqrt((1.0 - 1.0 / s) / (2.0 * m))
    scale = 1.0 / np.sqrt(np.sum(np.abs(t) ** 2) + np.sum(np.abs(r) ** 2))
    t *= scale
    r *= scale
    return ScatteringRealization(
        t_amp=np.abs(t),
        t_phase=np.mod(np.angle(t), TWO_PI),
        r_amp=np.abs(r),
        r_phase=np.mod(np.angle(r), TWO_PI),
    )


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

    Row i comes from the stream that ``sample_realization(params,
    derive_trial_seed(master_seed, i))`` uses: prefix sums of |z_t|^2 and
    |z_t| over the transmission channels and the total |z_r|^2.
    """

    cum_T: np.ndarray
    cum_abs_t: np.ndarray
    sum_R: np.ndarray

    def shaped_sums(self, params: DisorderParams, fed_modes: int):
        """Per-trial (tau_N, sum_{a<=N} |t_a|, tau_rest, sum_R), exactly flux-normalized."""
        m = params.channel_count
        if self.cum_T.shape[1] != m or not 1 <= fed_modes <= m:
            raise ValueError(f"M={m}, N={fed_modes} do not fit draws of shape {self.cum_T.shape}")
        s = params.disorder_strength
        t_weight = 1.0 / (2.0 * m * s)
        r_weight = (1.0 - 1.0 / s) / (2.0 * m)
        norm = 1.0 / (t_weight * self.cum_T[:, -1] + r_weight * self.sum_R)
        t_scale = t_weight * norm
        tau_all = t_scale * self.cum_T[:, -1]
        tau_n = t_scale * self.cum_T[:, fed_modes - 1]
        sum_r = r_weight * norm * self.sum_R
        if np.any(np.abs(tau_all + sum_r - 1.0) > 1e-12):
            raise ValueError("flux not conserved: sum|t|^2 + sum|r|^2 != 1")
        abs_n = np.sqrt(t_scale) * self.cum_abs_t[:, fed_modes - 1]
        return tau_n, abs_n, tau_all - tau_n, sum_r


def draw_ensemble(channel_count: int, trials: int, master_seed: int) -> EnsembleDraws:
    """Draw trials 0..trials-1 once, reducing each trial as it is drawn."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cum_t = np.empty((trials, channel_count))
    cum_a = np.empty((trials, channel_count))
    sum_r = np.empty(trials)
    for i in range(trials):
        rng = np.random.default_rng(mask_seed(derive_trial_seed(master_seed, i)))
        intensity = np.square(rng.standard_normal((2, channel_count, 2))).sum(axis=2)
        np.cumsum(intensity[0], out=cum_t[i])
        np.cumsum(np.sqrt(intensity[0]), out=cum_a[i])
        sum_r[i] = intensity[1].sum()
    return EnsembleDraws(cum_t, cum_a, sum_r)


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
