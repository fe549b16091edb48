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

from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .quantum_stats import NO_LOSS, LossChannel, PhotonMoments, SqueezedCases, SqueezedInput
from .quantum_stats import focus_moments
from .random_media import ScatteringRealization, derive_trial_seed, mask_seed
from .random_media import _amplitudes, _flux_normalized_sums, _require_physical, _trial_intensity

_MAX_FOCK_MODES = 3
_MAX_CUTOFF = 256
_FOCK_PAD = 8


@dataclass(frozen=True)
class GaussianModeState:
    """Quadrature mean vector and 2x2 covariance of one bosonic mode."""

    d: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))
        if self.d.shape != (2,) or self.V.shape != (2, 2):
            raise ValueError("d must have shape (2,) and V shape (2, 2)")
        if abs(self.V[0, 1] - self.V[1, 0]) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")


def _output_states(tau, abs_sum, g, alpha_mag, alpha_phase, squeeze_phase):
    """Stacked means d (..., 2) and covariances V (..., 2, 2) over scalar or per-case arguments."""
    a, b = np.exp(-2.0 * g) / 2.0, np.exp(2.0 * g) / 2.0
    cos_p, sin_p = np.cos(squeeze_phase), np.sin(squeeze_phase)
    vacuum = (1.0 - tau) / 2.0
    cov = np.empty(np.broadcast_shapes(np.shape(tau), np.shape(a), np.shape(cos_p)) + (2, 2))
    cov[..., 0, 0] = tau * (cos_p * cos_p * a + sin_p * sin_p * b) + vacuum
    cov[..., 0, 1] = cov[..., 1, 0] = tau * (cos_p * sin_p * (a - b))
    cov[..., 1, 1] = tau * (sin_p * sin_p * a + cos_p * cos_p * b) + vacuum
    amp = np.sqrt(2.0) * alpha_mag * abs_sum
    return np.stack((amp * np.cos(alpha_phase), amp * np.sin(alpha_phase)), -1), cov


def _photon_moments(d, cov, physical_tol: float = 1e-9):
    """Photon-number (mean, variance) of stacked states, as :func:`gaussian_photon_moments`."""
    det = np.linalg.det(cov)
    if np.any(det < 0.25 - physical_tol):
        raise ValueError(f"unphysical covariance matrix: det V = {np.min(det)!r} < 1/4")
    mean = (np.trace(cov, axis1=-2, axis2=-1) - 1.0) / 2.0 + np.einsum("...i,...i", d, d) / 2.0
    var = (np.trace(cov @ cov, axis1=-2, axis2=-1) - 0.5) / 2.0 + np.einsum("...i,...ij,...j", d, cov, d)
    # exact zeros (vacuum) may round to tiny negatives
    return tuple(np.where((-1e-12 < x) & (x < 0.0), 0.0, x) for x in (mean, var))


def _lossy_states(d, cov, loss_rate):
    """Stacked states after beam-splitter vacuum channels of per-case (or one) loss rate."""
    q2 = np.asarray(loss_rate)[..., None, None]
    p2 = 1.0 - q2
    return np.sqrt(p2[..., 0]) * d, p2 * cov + q2 * np.eye(2) / 2.0


def output_gaussian_state(
    real: ScatteringRealization, inp: SqueezedInput, n_fed: int | None = None
) -> GaussianModeState:
    """Exact Gaussian state of the shaped focus mode.

    The first ``n_fed`` transmission channels carry the squeezed-coherent
    input; the remaining transmission channels and every reflection channel
    contribute vacuum (vacuum is phase invariant, so the reflection phases
    drop out of the focus mode).
    """
    n = inp.fed_modes if n_fed is None else n_fed
    if not 1 <= n <= real.channel_count:
        raise ValueError(f"fed mode count {n} inconsistent with {real.channel_count} channels")
    amps = real.t_amp[:n]
    phases = (inp.alpha_phase, inp.squeeze_phase)
    state = _output_states(np.sum(amps**2), np.sum(amps), inp.squeeze_strength, inp.alpha_mag, *phases)
    return GaussianModeState(*state)


def gaussian_photon_moments(state: GaussianModeState, *, physical_tol: float = 1e-9) -> PhotonMoments:
    """Photon-number mean and variance of a single-mode Gaussian state.

    mean = (V11 + V22 - 1)/2 + |d|^2/2 and
    var = (tr(V^2) - 1/2)/2 + d^T V d in the vacuum-variance-1/2 convention.
    """
    return PhotonMoments(*map(float, _photon_moments(state.d, state.V, physical_tol)))


def apply_loss_channel(state: GaussianModeState, loss: LossChannel) -> GaussianModeState:
    """Beam-splitter vacuum channel acting on the Gaussian state."""
    return GaussianModeState(*_lossy_states(state.d, state.V, loss.loss_rate))


@dataclass(frozen=True)
class ModeCoefficients:
    """Complex weights composing the focus mode out of input modes."""

    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", np.asarray(self.c, dtype=complex))
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


def _apply_lowering(tensor: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(tensor, axis, 0)
    out = np.zeros_like(moved)
    dim = moved.shape[0]
    factors = np.sqrt(np.arange(1, dim)).reshape((-1,) + (1,) * (moved.ndim - 1))
    out[:-1] = factors * moved[1:]
    return np.moveaxis(out, 0, axis)


def _apply_raising(tensor: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(tensor, axis, 0)
    out = np.zeros_like(moved)
    dim = moved.shape[0]
    factors = np.sqrt(np.arange(1, dim)).reshape((-1,) + (1,) * (moved.ndim - 1))
    out[1:] = factors * moved[:-1]
    return np.moveaxis(out, 0, axis)


def fock_photon_moments(
    coeffs: ModeCoefficients,
    inp: SqueezedInput,
    cutoff: int,
    *,
    norm_tol: float = 1e-10,
) -> PhotonMoments:
    """Brute-force focus-mode photon moments in a truncated Fock space.

    The first ``inp.fed_modes`` of the K coefficient modes carry the
    squeezed-coherent state, the rest vacuum.  The focus-mode number
    operator is evaluated in the Heisenberg picture through
    b = sum_k c_k a_k, which is the only part of the completed mode unitary
    that reaches the focus marginal.  Raises TruncationError when the state
    leaks more than ``norm_tol`` probability past the cutoff.
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
    if deficit > norm_tol:
        raise TruncationError(
            f"truncated-norm deficit {deficit:.3e} exceeds {norm_tol:.1e}; increase cutoff"
        )
    fed = padded[:cutoff]
    vac = np.zeros(cutoff, dtype=complex)
    vac[0] = 1.0

    state = fed if inp.fed_modes >= 1 else vac
    for mode in range(1, k):
        factor = fed if mode < inp.fed_modes else vac
        state = np.multiply.outer(state, factor)

    lowered = np.zeros_like(state)
    for mode in range(k):
        lowered += coeffs.c[mode] * _apply_lowering(state, mode)
    mean = float(np.vdot(lowered, lowered).real)

    number_applied = np.zeros_like(state)
    for mode in range(k):
        number_applied += np.conjugate(coeffs.c[mode]) * _apply_raising(lowered, mode)
    second = float(np.vdot(number_applied, number_applied).real)
    var = second - mean**2
    if -1e-12 < var < 0.0:
        var = 0.0
    return PhotonMoments(mean, var)


@dataclass(frozen=True)
class EquivalenceReport:
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

    def worst_case(self) -> dict:
        err = np.maximum(self.rel_err_mean, self.rel_err_var)
        i = int(np.argmax(err))
        return {
            "case": i,
            "channel_count": int(self.channel_counts[i]),
            "fed_modes": int(self.fed_modes[i]),
            "disorder_strength": float(self.disorder_strengths[i]),
            "squeeze_strength": float(self.squeeze_strengths[i]),
            "alpha2": float(self.alpha2[i]),
            "rel_err_mean": float(self.rel_err_mean[i]),
            "rel_err_var": float(self.rel_err_var[i]),
        }


def _relative_error(value, reference):
    """|value - reference| / |reference| per case; 0 if both are 0, inf if only the reference is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(value - reference) / np.abs(reference)
    return np.where(reference == 0.0, np.where(value == 0.0, 0.0, np.inf), err)


_BLOCK_CASES = 256  # cases evaluated at once; one block's arrays, not the run's, bound peak memory
_MAX_CHANNELS = 64


def _compare_block(m, n, s, g, alpha2, intensity):
    """Relative errors, analytic against Gaussian oracle, of a block of cases.

    ``intensity`` (cases, 2, _MAX_CHANNELS) holds raw |z|^2, zero past each
    case's M.  The analytic side normalizes raw sums as the sweeps do; the
    oracle side forms and checks amplitudes as ``sample_realization`` does.
    """
    fed = np.arange(_MAX_CHANNELS) < n[:, None]
    transmitted = intensity[:, 0]
    sums = _flux_normalized_sums(
        transmitted.sum(axis=1), np.sum(transmitted, axis=1, where=fed),
        np.sum(np.sqrt(transmitted), axis=1, where=fed), intensity[:, 1].sum(axis=1), m, s,
    )
    alpha_mag = np.sqrt(alpha2)
    mean, variance = focus_moments(*sums, SqueezedCases(g, alpha_mag**2), NO_LOSS)

    t_amp, r_amp = _amplitudes(intensity, m, s)
    _require_physical(t_amp, r_amp)
    tau, abs_sum = np.sum(t_amp**2, axis=1, where=fed), np.sum(t_amp, axis=1, where=fed)
    oracle_mean, oracle_variance = _photon_moments(*_output_states(tau, abs_sum, g, alpha_mag, 0.0, 0.0))
    return _relative_error(mean, oracle_mean), _relative_error(variance, oracle_variance)


def run_equivalence_check(cases: int, seed: int, *, tolerance: float = 1e-10) -> EquivalenceReport:
    """Random analytic vs Gaussian-oracle comparison over the supported domain.

    Cases draw M in {1..64}, N <= M, s in (1, 10], g in [0, 2] and
    |alpha|^2 in [0, 1e5] with both phases zero; case i's disorder is
    ``sample_realization``'s draw at ``derive_trial_seed(seed, i)``.  The
    analytic side is the one closed-form evaluation the sweeps run,
    ``focus_moments`` on flux-normalized sums, and the oracle the stacked
    Gaussian-state algebra; both run once per block of cases.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(mask_seed(seed))
    blocks = []
    for start in range(0, cases, _BLOCK_CASES):
        intensity = np.zeros((min(_BLOCK_CASES, cases - start), 2, _MAX_CHANNELS))
        drawn = []
        for j in range(intensity.shape[0]):
            m = int(rng.integers(1, _MAX_CHANNELS + 1))
            n = int(rng.integers(1, m + 1))
            s = 1.0 + 9.0 * (1.0 - rng.random())  # in (1, 10]
            g = 2.0 * rng.random()
            alpha2 = 1e5 * rng.random()
            drawn.append((m, n, s, g, alpha2))
            intensity[j, :, :m] = _trial_intensity(m, derive_trial_seed(seed, start + j))
        params = [np.array(column) for column in zip(*drawn)]
        blocks.append((*params, *_compare_block(*params, intensity)))
    return EquivalenceReport(*(np.concatenate(column) for column in zip(*blocks)), tolerance=tolerance)
