"""Closed-form photon statistics of the wavefront-shaped focus mode.

The focus mode is a fixed linear combination of N squeezed-coherent inputs
(amplitude weights |t|) plus vacuum from the remaining transmission channels
and all reflection channels.  Mean and variance keep every term of the
exact second-moment expansion and are evaluated in one place,
:func:`focus_moments`, on arrays of per-trial coupling sums or on the scalar
sums of one realization alike.

The closed-form variance only holds for amplitude squeezing aligned with the
coherent axis (alpha_phase = squeeze_phase = 0); since mean and variance are
evaluated together, every closed form here raises NonzeroPhase for any other
phase combination, which must go through :mod:`speckleq.gaussian_oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonzeroPhase, ZeroMean, ZeroVariance
from .random_media import CouplingSums, ScatteringRealization, coupling_sums

PLANCK_CONSTANT = 6.62607015e-34  # J s, exact SI
LIGHT_SPEED = 299792458.0  # m / s, exact SI


@dataclass(frozen=True)
class SqueezedInput:
    """Identical squeezed-coherent states feeding the first ``fed_modes`` channels.

    ``squeeze_phase`` is the orientation angle of the squeezed quadrature
    axis; in terms of the squeezing-operator argument zeta = g e^{i phi} it
    corresponds to phi = 2 * squeeze_phase.  With both phases zero the state
    is amplitude squeezed along the coherent displacement.
    """

    alpha_mag: float
    squeeze_strength: float = 0.0
    fed_modes: int = 1
    alpha_phase: float = 0.0
    squeeze_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha_mag < 0.0:
            raise ValueError("alpha_mag must be nonnegative")
        if self.squeeze_strength < 0.0:
            raise ValueError("squeeze_strength must be nonnegative")
        if int(self.fed_modes) != self.fed_modes or self.fed_modes < 1:
            raise ValueError(f"fed_modes must be a positive integer, got {self.fed_modes}")

    @property
    def alpha2(self) -> float:
        return self.alpha_mag**2

    @classmethod
    def from_intensity(
        cls,
        alpha2: float,
        squeeze_strength: float = 0.0,
        fed_modes: int = 1,
        alpha_phase: float = 0.0,
        squeeze_phase: float = 0.0,
    ) -> "SqueezedInput":
        if alpha2 < 0.0:
            raise ValueError("alpha2 must be nonnegative")
        return cls(math.sqrt(alpha2), squeeze_strength, fed_modes, alpha_phase, squeeze_phase)


@dataclass(frozen=True)
class SqueezedCases:
    """Per-case g and |alpha|^2 (both phases zero): one :func:`focus_moments` call, many inputs."""

    squeeze_strength: np.ndarray
    alpha2: np.ndarray
    alpha_phase = 0.0
    squeeze_phase = 0.0

    def __post_init__(self) -> None:
        if np.any(self.squeeze_strength < 0.0) or np.any(self.alpha2 < 0.0):
            raise ValueError("squeeze_strength and alpha2 must be nonnegative")


@dataclass(frozen=True)
class PhotonMoments:
    """First two moments of the focus-mode photon number."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.mean < 0.0:
            raise ValueError(f"mean must be nonnegative, got {self.mean}")
        if self.variance < 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")


@dataclass(frozen=True)
class LossChannel:
    """Fictitious beam splitter with vacuum in the idle port; loss_rate = |q|^2."""

    loss_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must lie in [0, 1], got {self.loss_rate}")

    @property
    def transmittance(self) -> float:
        return 1.0 - self.loss_rate


NO_LOSS = LossChannel(0.0)


def _require_zero_phases(inp: SqueezedInput) -> None:
    if inp.alpha_phase != 0.0 or inp.squeeze_phase != 0.0:
        raise NonzeroPhase(
            "closed-form variance assumes alpha_phase = squeeze_phase = 0; "
            "use gaussian_oracle for arbitrary phases"
        )


def _squeeze_factors(g):
    """sinh^2 g, cosh^2 g and 1 - e^{-2g} of a scalar g, or per element of an array.

    Always evaluated with ``math``: numpy's sinh and cosh differ from it in the
    last bit for some inputs, and the sweep outputs are pinned to its values.
    """
    factors = [
        (math.sinh(x) ** 2, math.cosh(x) ** 2, 1.0 - math.exp(-2.0 * x)) for x in np.ravel(g).tolist()
    ]
    return np.array(factors).T.reshape((3,) + np.shape(g))


def mean_photon(sums: CouplingSums, inp: SqueezedInput) -> float:
    """Mean photon number of the shaped focus mode fed in its first ``inp.fed_modes`` channels.

    tau_N sinh^2(g) + |alpha|^2 (sum_{a<=N} |t_a|)^2; the double sum over
    channel pairs collapses to a square since shaped amplitudes are real.
    """
    return float(focus_moments(*sums.shaped_sums(inp.fed_modes), inp, NO_LOSS)[0])


def variance_photon(sums: CouplingSums, inp: SqueezedInput) -> float:
    """Exact photon-number variance of the shaped focus mode, all terms kept.

    tau_N^2 2 sinh^2 g cosh^2 g + tau_N (sum_R + tau_rest) sinh^2 g
    + |alpha|^2 (sum_{a<=N} |t_a|)^2 [1 - tau_N (1 - e^{-2g})]; tau_rest, the
    transmission of the unfed channels, vanishes at full filling N = M.
    """
    return float(focus_moments(*sums.shaped_sums(inp.fed_modes), inp, NO_LOSS)[1])


def mean_photon_partial(real: ScatteringRealization, inp: SqueezedInput) -> float:
    """:func:`mean_photon` on the coupling sums of a realization."""
    return mean_photon(coupling_sums(real), inp)


def variance_photon_partial(real: ScatteringRealization, inp: SqueezedInput) -> float:
    """:func:`variance_photon` on the coupling sums of a realization."""
    return variance_photon(coupling_sums(real), inp)


def fano(moments: PhotonMoments) -> float:
    """Variance over mean; 1 marks the shot-noise (coherent) limit."""
    if moments.mean == 0.0:
        raise ZeroMean("Fano factor undefined at zero mean photon number")
    return moments.variance / moments.mean


def snr(moments: PhotonMoments) -> float:
    """mean^2 / variance, i.e. mean / Fano."""
    if moments.variance == 0.0:
        raise ZeroVariance("SNR undefined at zero variance")
    return moments.mean**2 / moments.variance


def asymptotic_avg_fano(disorder_strength: float, squeeze_strength: float) -> float:
    """Disorder-averaged Fano factor in the bright, large-M limit: 1 - (1 - e^{-2g})/s."""
    if not disorder_strength > 1.0:
        raise ValueError("disorder_strength must exceed 1")
    return 1.0 - (1.0 - math.exp(-2.0 * squeeze_strength)) / disorder_strength


def asymptotic_avg_snr_ratio(disorder_strength: float, squeeze_strength: float) -> float:
    """Average SNR over mean photon number in the same limit: 1 / avg Fano."""
    return 1.0 / asymptotic_avg_fano(disorder_strength, squeeze_strength)


def _loss_terms(mean, variance, loss: LossChannel):
    p2 = loss.transmittance
    return p2 * mean, p2 * p2 * variance + p2 * loss.loss_rate * mean


def apply_loss(moments: PhotonMoments, loss: LossChannel) -> PhotonMoments:
    """Photon moments after the beam-splitter loss channel.

    mean' = |p|^2 mean and var' = |p|^4 var + |p|^2 |q|^2 mean, hence the
    affine Fano law F' = |p|^2 F + |q|^2.
    """
    return PhotonMoments(*_loss_terms(moments.mean, moments.variance, loss))


def focus_moments(tau, abs_sum, tau_rest, sum_r, inp: SqueezedInput | SqueezedCases, loss: LossChannel):
    """(mean, variance) of the shaped focus after loss: the one closed-form evaluation.

    Fed by :meth:`EnsembleDraws.shaped_sums` (per-trial arrays) or
    :meth:`CouplingSums.shaped_sums` (scalars) at N = ``inp.fed_modes``, or
    by per-case sums with a :class:`SqueezedCases` of per-case g and
    |alpha|^2; loss acts as in :func:`apply_loss`.
    """
    _require_zero_phases(inp)
    sh2, ch2, damping = _squeeze_factors(inp.squeeze_strength)
    coherent = inp.alpha2 * abs_sum**2
    squeezed = tau * tau * (2.0 * sh2 * ch2) + tau * sum_r * sh2 + tau * tau_rest * sh2
    mean, variance = _loss_terms(tau * sh2 + coherent, squeezed + coherent * (1.0 - tau * damping), loss)
    if not (np.all(mean >= 0.0) and np.all(variance >= 0.0)):
        raise ValueError("photon-number moments must be nonnegative, not nan")
    return mean, variance


def photon_budget(wavelength: float, power: float, duration: float, focus_fraction: float) -> float:
    """Mean photon number delivered into the focus during one observation.

    power * duration * focus_fraction converted to photons at the given
    wavelength (all SI units).
    """
    if wavelength <= 0.0 or power <= 0.0 or duration <= 0.0:
        raise ValueError("wavelength, power and duration must be positive")
    if not 0.0 < focus_fraction <= 1.0:
        raise ValueError(f"focus_fraction must lie in (0, 1], got {focus_fraction}")
    return power * duration * focus_fraction * wavelength / (PLANCK_CONSTANT * LIGHT_SPEED)
