"""Independent ground-truth engines for the focus-mode photon statistics.

Two verification routes, both independent of the closed forms in
:mod:`speckleq.quantum_stats`:

* exact Gaussian-state moment propagation (any M, N, phases, loss), and
* a brute-force truncated-Fock simulation for up to three modes.

Quadrature convention: x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2),
so the vacuum covariance is I/2 and a displacement alpha shifts the mean
vector by sqrt(2) (Re alpha, Im alpha).  ``squeeze_phase`` rotates the
squeezing ellipse directly: the covariance of squeezed vacuum is
R(phi) diag(e^{-2g}, e^{2g})/2 R(phi)^T, which corresponds to the squeezing
operator S(zeta) with zeta = g exp(2 i phi).  Rotating alpha_phase and
squeeze_phase together is a global phase-space rotation and leaves photon
moments invariant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import TruncationError, whole_count
from .quantum_stats import NO_LOSS, LossChannel, PhotonMoments, SqueezedInput
from .quantum_stats import focus_moments
from .random_media import DisorderParams, EnsembleDraws, ScatteringRealization
from .random_media import draw_ensemble, draw_oracle_cases

_MAX_FOCK_MODES = 3
_MAX_CUTOFF = 256
_FOCK_PAD = 8
_PHYSICAL_TOL = 1e-9  # det V may undershoot the vacuum bound 1/4 by this much
_NORM_TOL = 1e-10  # probability the Fock oracle may lose past its cutoff
_TOLERANCE = 1e-10  # largest relative error the equivalence check passes


class GaussianModeState(NamedTuple):
    """Quadrature mean vector d, excess covariance E = V - I/2 and tr E of one bosonic mode.

    The photon moments are taken from E and tr E, not from V: near vacuum, V rounds to I/2 and
    loses E's low digits, so the states this module forms carry E and tr E from their own
    formulas.  :meth:`from_covariance` builds a checked state from d and V.
    """

    d: np.ndarray
    excess: np.ndarray
    tr_excess: float

    @classmethod
    def from_covariance(cls, d, V) -> GaussianModeState:
        """The state of mean vector d, shape (2,), and symmetric covariance V, shape (2, 2)."""
        d, V = np.asarray(d, dtype=float), np.asarray(V, dtype=float)
        if d.shape != (2,) or V.shape != (2, 2):
            raise ValueError("d must have shape (2,) and V shape (2, 2)")
        if abs(V[0, 1] - V[1, 0]) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        excess = V - np.eye(2) / 2.0
        return cls(d, excess, float(np.trace(excess)))


def _output_states(tau, abs_sum, g, alpha_mag, alpha_phase, squeeze_phase):
    """Stacked means d (..., 2), excess covariances E (..., 2, 2) and tr E over scalar or per-case arguments.

    E = tau R(phi) diag(expm1(-2g), expm1(2g))/2 R(phi)^T, and tr E = 2 tau sinh^2 g: the sum
    of E's diagonal would cancel to a relative error of eps / g at weak squeezing.
    """
    a, b = tau * np.expm1(-2.0 * g) / 2.0, tau * np.expm1(2.0 * g) / 2.0
    cos_p, sin_p = np.cos(squeeze_phase), np.sin(squeeze_phase)
    excess = np.empty(np.broadcast_shapes(np.shape(a), np.shape(cos_p)) + (2, 2))
    excess[..., 0, 0] = cos_p * cos_p * a + sin_p * sin_p * b
    excess[..., 0, 1] = excess[..., 1, 0] = cos_p * sin_p * (a - b)
    excess[..., 1, 1] = sin_p * sin_p * a + cos_p * cos_p * b
    amp = np.sqrt(2.0) * alpha_mag * abs_sum
    d = np.stack((amp * np.cos(alpha_phase), amp * np.sin(alpha_phase)), -1)
    return d, excess, 2.0 * tau * np.sinh(g) ** 2


def _photon_moments(d, excess, tr_excess):
    """Photon-number (mean, variance) of stacked states, as :func:`gaussian_photon_moments`."""
    cov = excess + np.eye(2) / 2.0
    det = cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] * cov[..., 1, 0]
    if np.any(det < 0.25 - _PHYSICAL_TOL):
        raise ValueError(f"unphysical covariance matrix: det V = {np.min(det)!r} < 1/4")
    mean = tr_excess / 2.0 + np.einsum("...i,...i", d, d) / 2.0
    var = (tr_excess + np.einsum("...ij,...ij", excess, excess)) / 2.0 + np.einsum("...i,...ij,...j", d, cov, d)
    return mean, var


def _lossy_states(d, excess, tr_excess, loss_rate):
    """Stacked states after beam-splitter vacuum channels of per-case (or one) loss rate.

    The channel takes V to (1 - loss) V + loss I/2, so it scales E and tr E by 1 - loss.
    """
    p2 = 1.0 - np.asarray(loss_rate)
    return np.sqrt(p2)[..., None] * d, p2[..., None, None] * excess, p2 * tr_excess


def output_gaussian_state(real: ScatteringRealization, inp: SqueezedInput) -> GaussianModeState:
    """Exact Gaussian state of the shaped focus mode.

    The first ``inp.fed_modes`` transmission channels carry the
    squeezed-coherent input; the remaining transmission channels and every
    reflection channel contribute vacuum (vacuum is phase invariant, so the
    reflection phases drop out of the focus mode).
    """
    n = inp.fed_modes
    if n > real.channel_count:
        raise ValueError(f"fed mode count {n} inconsistent with {real.channel_count} channels")
    amps = real.t_amp[:n]
    g, phases = inp.squeeze_strength, (inp.alpha_phase, inp.squeeze_phase)
    d, excess, tr_excess = _output_states(np.sum(amps**2), np.sum(amps), g, inp.alpha_mag, *phases)
    return GaussianModeState(d, excess, float(tr_excess))


def gaussian_photon_moments(state: GaussianModeState) -> PhotonMoments:
    """Photon-number mean and variance of a single-mode Gaussian state.

    With the excess covariance E = V - I/2, mean = tr E/2 + |d|^2/2 and
    var = (tr E + tr E^2)/2 + d^T V d in the vacuum-variance-1/2 convention; for a physical
    state each term is nonnegative, so nothing cancels.
    """
    return PhotonMoments(*map(float, _photon_moments(*state)))


def apply_loss_channel(state: GaussianModeState, loss: LossChannel) -> GaussianModeState:
    """Beam-splitter vacuum channel acting on the Gaussian state."""
    d, excess, tr_excess = _lossy_states(*state, loss.loss_rate)
    return GaussianModeState(d, excess, float(tr_excess))


class ModeCoefficients:
    """Complex weights composing the focus mode out of input modes."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray) -> None:
        self.c = np.asarray(c, dtype=complex)
        if self.c.ndim != 1 or self.c.shape[0] < 1:
            raise ValueError("coefficients must form a nonempty 1-D vector")
        norm = float(np.sum(np.abs(self.c) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"sum |c_k|^2 = {norm!r}, focus mode must be a proper bosonic mode")

    @property
    def n_modes(self) -> int:
        return self.c.shape[0]


def focus_mode_coefficients(real: ScatteringRealization, n_fed: int) -> ModeCoefficients:
    """Reduce a realization to fed amplitudes plus one collapsed vacuum mode.

    Any unitary acting only on vacuum channels leaves the output state
    invariant, so the unfed transmission channels and all reflection
    channels merge into a single effective vacuum mode of weight
    sqrt(1 - sum_{fed} T).
    """
    if not 1 <= n_fed <= real.channel_count:
        raise ValueError(f"n_fed {n_fed} inconsistent with {real.channel_count} channels")
    amps = real.t_amp[:n_fed]
    vac_weight = np.sqrt(max(1.0 - float(np.sum(amps**2)), 0.0))
    return ModeCoefficients(np.concatenate([amps, [vac_weight]]).astype(complex))


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def _single_mode_state(alpha: complex, zeta: complex, dim: int) -> np.ndarray:
    """D(alpha) S(zeta) |0> in a dim-level Fock ladder via matrix exponentials."""
    from scipy.linalg import expm  # only the Fock oracle needs it; keeps CLI import light
    low = _ladder(dim)
    hi = low.conj().T
    displace = expm(alpha * hi - np.conjugate(alpha) * low)
    squeeze = expm(0.5 * (-zeta * hi @ hi + np.conjugate(zeta) * low @ low))
    return (displace @ squeeze)[:, 0]


def _apply_ladder(tensor: np.ndarray, axis: int, raising: bool) -> np.ndarray:
    """a, or a^dag if ``raising``, on mode ``axis`` of a truncated Fock tensor."""
    moved = np.moveaxis(tensor, axis, 0)
    out = np.zeros_like(moved)
    factors = np.sqrt(np.arange(1, moved.shape[0])).reshape((-1,) + (1,) * (moved.ndim - 1))
    low, high = slice(None, -1), slice(1, None)
    dst, src = (high, low) if raising else (low, high)
    out[dst] = factors * moved[src]
    return np.moveaxis(out, 0, axis)


def fock_photon_moments(coeffs: ModeCoefficients, inp: SqueezedInput, cutoff: int) -> PhotonMoments:
    """Brute-force focus-mode photon moments in a truncated Fock space.

    The first ``inp.fed_modes`` of the K coefficient modes carry the
    squeezed-coherent state, the rest vacuum.  The focus-mode number
    operator is evaluated in the Heisenberg picture through
    b = sum_k c_k a_k, which is the only part of the completed mode unitary
    that reaches the focus marginal.  Raises TruncationError when the state
    leaks more than 1e-10 probability past the cutoff.
    """
    k = coeffs.n_modes
    if k > _MAX_FOCK_MODES:
        raise ValueError(f"fock oracle supports at most {_MAX_FOCK_MODES} modes, got {k}")
    if not 1 <= cutoff <= _MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [1, {_MAX_CUTOFF}], got {cutoff}")
    if inp.fed_modes > k:
        raise ValueError(f"fed_modes={inp.fed_modes} exceeds the {k} coefficient modes")

    alpha = inp.alpha_mag * np.exp(1j * inp.alpha_phase)
    zeta = inp.squeeze_strength * np.exp(2j * inp.squeeze_phase)
    padded = _single_mode_state(alpha, zeta, cutoff + _FOCK_PAD)
    tail = float(np.sum(np.abs(padded[cutoff:]) ** 2))
    deficit = inp.fed_modes * tail
    if deficit > _NORM_TOL:
        raise TruncationError(
            f"truncated-norm deficit {deficit:.3e} exceeds {_NORM_TOL:.1e}; increase cutoff"
        )
    fed = padded[:cutoff]
    vac = np.zeros(cutoff, dtype=complex)
    vac[0] = 1.0

    state = fed
    for mode in range(1, k):
        factor = fed if mode < inp.fed_modes else vac
        state = np.multiply.outer(state, factor)

    lowered = np.zeros_like(state)
    for mode in range(k):
        lowered += coeffs.c[mode] * _apply_ladder(state, mode, False)
    mean = float(np.vdot(lowered, lowered).real)

    number_applied = np.zeros_like(state)
    for mode in range(k):
        number_applied += np.conjugate(coeffs.c[mode]) * _apply_ladder(lowered, mode, True)
    second = float(np.vdot(number_applied, number_applied).real)
    var = second - mean**2
    if -1e-12 < var < 0.0:
        var = 0.0
    return PhotonMoments(mean, var)


class EquivalenceReport(NamedTuple):
    """Outcome of the analytic vs Gaussian-oracle random sweep."""

    channel_counts: np.ndarray
    fed_modes: np.ndarray
    disorder_strengths: np.ndarray
    squeeze_strengths: np.ndarray
    alpha2: np.ndarray
    rel_err_mean: np.ndarray
    rel_err_var: np.ndarray
    tolerance: float

    @property
    def cases(self) -> int:
        return self.channel_counts.shape[0]

    @property
    def max_rel_error(self) -> float:
        return float(max(np.max(self.rel_err_mean), np.max(self.rel_err_var)))

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    @property
    def worst(self) -> int:
        """Index of the case with the largest relative error, in the mean or the variance."""
        return int(np.argmax(np.maximum(self.rel_err_mean, self.rel_err_var)))


def _relative_error(value, reference):
    """|value - reference| / |reference| per case; 0 if both are 0, inf if only the reference is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(value - reference) / np.abs(reference)
    return np.where(reference == 0.0, np.where(value == 0.0, 0.0, np.inf), err)


# Cases evaluated at once, which bounds peak memory.  It fixes no output bits: draw_ensemble pads
# every row with M <= 64 to 64 columns, so each row's sums run over the same width in any block.
_BLOCK_CASES = 512


def _normalized_draws(intensity: np.ndarray, m, s) -> np.ndarray:
    """|t| and |r| of raw |z|^2 rows (rows, 2, channels), normalized here, not by random_media.

    Each |z|^2 is scaled by its channel's variance, E|t|^2 = 1/(M s) or E|r|^2 = (1 - 1/s)/M, and
    each row's 2M-vector of amplitudes is divided by its Euclidean norm.  The steps work in place:
    a new block-sized array costs about four times a pass over an existing one.
    """
    variances = np.stack((1.0 / (m * s), (1.0 - 1.0 / s) / m), axis=-1)
    amp = variances[..., None] * intensity
    np.sqrt(amp, out=amp)
    amp /= np.sqrt(np.einsum("ijk,ijk->i", amp, amp))[:, None, None]
    return amp


def _compare_block(draws: EnsembleDraws, params: DisorderParams, n, g, alpha2):
    """Relative errors, analytic against Gaussian oracle, of a block of cases."""
    alpha_mag = np.sqrt(alpha2)
    mean, variance = focus_moments(*draws.shaped_sums(params, n), SqueezedInput(alpha_mag, g), NO_LOSS)

    amp = _normalized_draws(draws.intensity, params.channel_count, params.disorder_strength)
    deviation = np.max(np.abs(np.einsum("ijk,ijk->i", amp, amp) - 1.0))  # nan fails too
    if not deviation <= 1e-12:
        raise ValueError(f"flux not conserved: |sum|t|^2 + sum|r|^2 - 1| = {float(deviation)!r}")
    fed = np.arange(amp.shape[2]) < n[:, None]
    tau, abs_sum = np.sum(amp[:, 0] ** 2, axis=1, where=fed), np.sum(amp[:, 0], axis=1, where=fed)
    oracle_mean, oracle_variance = _photon_moments(*_output_states(tau, abs_sum, g, alpha_mag, 0.0, 0.0))
    return _relative_error(mean, oracle_mean), _relative_error(variance, oracle_variance)


def run_equivalence_check(cases: int, seed: int) -> EquivalenceReport:
    """Random analytic vs Gaussian-oracle comparison over the supported domain.

    Cases draw M in {1..64}, N <= M, s in (1, 10], g in [0, 2] and
    |alpha|^2 in [0, 1e5] with both phases zero, from ``default_rng(seed mod 2**64)``;
    ``draw_oracle_cases`` replays those draws from the generator's raw words,
    one block of cases at a time.  Each block is one ``draw_ensemble`` call
    with one M per case, keeping the raw draws, so case i's disorder is trial i
    of master seed ``seed``.  The analytic side is the sweeps' own evaluation,
    ``focus_moments`` on ``EnsembleDraws.shaped_sums``; the oracle side normalizes its
    own draws (``_normalized_draws``) and runs the stacked Gaussian-state algebra.  The check
    passes if every relative error is below ``_TOLERANCE`` (1e-10).
    """
    blocks = []
    for trials, m, n, s, g, alpha2 in draw_oracle_cases(seed, whole_count(cases, "cases"), _BLOCK_CASES):
        draws = draw_ensemble(m, trials, seed, keep_raw=True)
        blocks.append((m, n, s, g, alpha2, *_compare_block(draws, DisorderParams(m, s), n, g, alpha2)))
    return EquivalenceReport(*(np.concatenate(column) for column in zip(*blocks)), tolerance=_TOLERANCE)
