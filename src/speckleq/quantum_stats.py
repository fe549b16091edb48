"""Closed-form photon statistics of the wavefront-shaped focus mode.

The focus mode is a fixed linear combination of N squeezed-coherent inputs
(amplitude weights |t|) plus vacuum from the remaining transmission channels
and all reflection channels.  Mean and variance below keep every term of the
exact second-moment expansion; the bright-beam approximations that drop the
squeezing-only contributions are available behind ``bright_approximation``
flags when the simplified asymptotic forms are wanted.

The closed-form variance only holds for amplitude squeezing aligned with the
coherent axis (alpha_phase = squeeze_phase = 0); any other phase combination
must go through :mod:`speckleq.gaussian_oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _require_full_fill(sums: CouplingSums, inp: SqueezedInput) -> None:
    if inp.fed_modes != sums.channel_count:
        raise ValueError(
            f"fed_modes={inp.fed_modes} != channel_count={sums.channel_count}; "
            "use the *_partial operations for partial mode filling"
        )


def _require_zero_phases(inp: SqueezedInput) -> None:
    if inp.alpha_phase != 0.0 or inp.squeeze_phase != 0.0:
        raise NonzeroPhase(
            "closed-form variance assumes alpha_phase = squeeze_phase = 0; "
            "use gaussian_oracle for arbitrary phases"
        )


def mean_photon(sums: CouplingSums, inp: SqueezedInput, *, bright_approximation: bool = False) -> float:
    """Mean photon number of the shaped focus mode for full mode filling.

    sum_T * sinh^2(g) + |alpha|^2 * (sum |t|)^2; the double sum over channel
    pairs collapses to (sum |t|)^2 since shaped amplitudes are real.
    """
    _require_full_fill(sums, inp)
    if bright_approximation:
        return inp.alpha2 * sums.sum_abs_t**2
    return _mean_terms(sums.sum_T, sums.sum_abs_t, inp)


def _mean_terms(tau, abs_sum, inp: SqueezedInput):
    return tau * math.sinh(inp.squeeze_strength) ** 2 + inp.alpha2 * abs_sum**2


def _variance_terms(tau, abs_sum, sum_r, tau_rest, inp: SqueezedInput):
    g = inp.squeeze_strength
    sh2 = math.sinh(g) ** 2
    ch2 = math.cosh(g) ** 2
    coherent = inp.alpha2 * abs_sum**2 * (1.0 - tau * (1.0 - math.exp(-2.0 * g)))
    return tau * tau * (2.0 * sh2 * ch2) + tau * sum_r * sh2 + tau * tau_rest * sh2 + coherent


def variance_photon(sums: CouplingSums, inp: SqueezedInput, *, bright_approximation: bool = False) -> float:
    """Exact photon-number variance of the shaped focus mode (full filling).

    (sum_T)^2 2 sinh^2 g cosh^2 g + sum_T sum_R sinh^2 g
    + |alpha|^2 (sum|t|)^2 [1 - sum_T (1 - e^{-2g})], all terms kept.
    """
    _require_full_fill(sums, inp)
    _require_zero_phases(inp)
    if bright_approximation:
        w = 1.0 - math.exp(-2.0 * inp.squeeze_strength)
        return inp.alpha2 * sums.sum_abs_t**2 * (1.0 - sums.sum_T * w)
    return _variance_terms(sums.sum_T, sums.sum_abs_t, sums.sum_R, 0.0, inp)


def mean_photon_partial(real: ScatteringRealization, inp: SqueezedInput) -> float:
    """Mean photon number when only the first ``fed_modes`` channels are fed."""
    n = inp.fed_modes
    if n > real.channel_count:
        raise ValueError(f"fed_modes={n} exceeds channel_count={real.channel_count}")
    sums = coupling_sums(real)
    return _mean_terms(sums.partial_sum_T(n), sums.partial_sum_abs_t(n), inp)


def variance_photon_partial(real: ScatteringRealization, inp: SqueezedInput) -> float:
    """Exact variance for partial mode filling (N <= M).

    Adds the squeezed/vacuum interference term sum_{a<=N} sum_{a'>N} T T'
    sinh^2 g to the full-filling expression; reduces bitwise to
    :func:`variance_photon` at N = M.
    """
    _require_zero_phases(inp)
    n = inp.fed_modes
    if n > real.channel_count:
        raise ValueError(f"fed_modes={n} exceeds channel_count={real.channel_count}")
    sums = coupling_sums(real)
    tau_n = sums.partial_sum_T(n)
    abs_n = sums.partial_sum_abs_t(n)
    tau_rest = sums.sum_T - tau_n
    return _variance_terms(tau_n, abs_n, sums.sum_R, tau_rest, inp)


def photon_moments(sums: CouplingSums, inp: SqueezedInput) -> PhotonMoments:
    """Convenience bundle of mean and exact variance (full filling)."""
    return PhotonMoments(mean_photon(sums, inp), variance_photon(sums, inp))


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


def focus_moments(tau, abs_sum, tau_rest, sum_r, inp: SqueezedInput, loss: LossChannel):
    """Per-trial (mean, variance) arrays of the shaped focus after loss.

    The array form of mean/variance_photon_partial followed by apply_loss,
    fed by :meth:`EnsembleDraws.shaped_sums` at N = ``inp.fed_modes``.
    """
    _require_zero_phases(inp)
    mean, variance = _loss_terms(
        _mean_terms(tau, abs_sum, inp), _variance_terms(tau, abs_sum, sum_r, tau_rest, inp), loss
    )
    if (mean < 0.0).any() or (variance < 0.0).any():
        raise ValueError("photon-number moments must be nonnegative")
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
