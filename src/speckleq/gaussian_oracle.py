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
from .quantum_stats import NO_LOSS, LossChannel, PhotonMoments, SqueezedInput, focus_moments
from .random_media import (
    DisorderParams,
    ScatteringRealization,
    coupling_sums,
    derive_trial_seed,
    mask_seed,
    sample_realization,
)

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


def vacuum_state() -> GaussianModeState:
    return GaussianModeState(np.zeros(2), np.eye(2) / 2.0)


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
    tau = float(np.sum(amps**2))
    abs_sum = float(np.sum(amps))
    g = inp.squeeze_strength
    cos_p, sin_p = np.cos(inp.squeeze_phase), np.sin(inp.squeeze_phase)
    rot = np.array([[cos_p, -sin_p], [sin_p, cos_p]])
    squeezed = rot @ np.diag([np.exp(-2.0 * g) / 2.0, np.exp(2.0 * g) / 2.0]) @ rot.T
    cov = tau * squeezed + (1.0 - tau) * np.eye(2) / 2.0
    mean_vec = np.sqrt(2.0) * inp.alpha_mag * abs_sum * np.array(
        [np.cos(inp.alpha_phase), np.sin(inp.alpha_phase)]
    )
    return GaussianModeState(mean_vec, cov)


def gaussian_photon_moments(state: GaussianModeState, *, physical_tol: float = 1e-9) -> PhotonMoments:
    """Photon-number mean and variance of a single-mode Gaussian state.

    mean = (V11 + V22 - 1)/2 + |d|^2/2 and
    var = (tr(V^2) - 1/2)/2 + d^T V d in the vacuum-variance-1/2 convention.
    """
    cov, mean_vec = state.V, state.d
    if np.linalg.det(cov) < 0.25 - physical_tol:
        raise ValueError(f"unphysical covariance matrix: det V = {np.linalg.det(cov)!r} < 1/4")
    mean = (cov[0, 0] + cov[1, 1] - 1.0) / 2.0 + (mean_vec @ mean_vec) / 2.0
    var = (np.trace(cov @ cov) - 0.5) / 2.0 + mean_vec @ cov @ mean_vec
    # exact zeros (vacuum) may round to tiny negatives
    if -1e-12 < mean < 0.0:
        mean = 0.0
    if -1e-12 < var < 0.0:
        var = 0.0
    return PhotonMoments(float(mean), float(var))


def apply_loss_channel(state: GaussianModeState, loss: LossChannel) -> GaussianModeState:
    """Beam-splitter vacuum channel acting on the Gaussian state."""
    p2 = loss.transmittance
    return GaussianModeState(np.sqrt(p2) * state.d, p2 * state.V + loss.loss_rate * np.eye(2) / 2.0)


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


def complete_unitary(coeffs: ModeCoefficients) -> np.ndarray:
    """Gram-Schmidt completion of the coefficient row to a K x K unitary.

    The completed rows span the orthogonal complement of the focus mode;
    they are arbitrary and do not affect its marginal statistics.
    """
    vec = coeffs.c
    k = coeffs.n_modes
    rows = [vec / np.linalg.norm(vec)]
    for j in range(k):
        cand = np.zeros(k, dtype=complex)
        cand[j] = 1.0
        for row in rows:
            cand = cand - np.vdot(row, cand) * row
        norm = np.linalg.norm(cand)
        if norm > 1e-10:
            rows.append(cand / norm)
        if len(rows) == k:
            break
    unitary = np.array(rows)
    if not np.allclose(unitary @ unitary.conj().T, np.eye(k), atol=1e-10):
        raise ValueError("Gram-Schmidt completion failed to produce a unitary")
    return unitary


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


def _relative_error(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / abs(reference)


def run_equivalence_check(cases: int, seed: int, *, tolerance: float = 1e-10) -> EquivalenceReport:
    """Random analytic vs Gaussian-oracle comparison over the supported domain.

    Cases draw M in {1..64}, N <= M, s in (1, 10], g in [0, 2] and
    |alpha|^2 in [0, 1e5] with both phases zero.  The analytic side is the
    one closed-form evaluation the sweeps run, ``focus_moments``, fed at any
    N <= M by the realization's ``CouplingSums.shaped_sums``.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(mask_seed(seed))
    rows = []
    for i in range(cases):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, m + 1))
        s = 1.0 + 9.0 * (1.0 - rng.random())  # in (1, 10]
        g = 2.0 * rng.random()
        alpha2 = 1e5 * rng.random()
        params = DisorderParams(m, s)
        real = sample_realization(params, derive_trial_seed(seed, i))
        inp = SqueezedInput.from_intensity(alpha2, g, fed_modes=n)
        mean, variance = focus_moments(*coupling_sums(real).shaped_sums(n), inp, NO_LOSS)
        oracle = gaussian_photon_moments(output_gaussian_state(real, inp))
        errors = (_relative_error(mean, oracle.mean), _relative_error(variance, oracle.variance))
        rows.append((m, n, s, g, alpha2, *errors))
    return EquivalenceReport(*(np.array(column) for column in zip(*rows)), tolerance=tolerance)
