"""Closed-form photon statistics of the wavefront-shaped focus mode.

The focus mode is a fixed linear combination of N squeezed-coherent inputs
(amplitude weights |t|) plus vacuum from the remaining transmission channels
and all reflection channels.  Exact flux normalization makes that vacuum
share 1 - tau_N, so a realization enters only through two numbers: the fed
transmission tau = tau_N = sum_{a<=N} |t_a|^2 and the amplitude sum
S = sum_{a<=N} |t_a|.  Mean and variance keep every term of the exact
second-moment expansion and are evaluated in one place, :func:`focus_moments`,
on per-trial arrays of (tau, S) or on the scalar pair of one realization alike.

Only the coherent variance term depends on phase, through the angle
Delta = alpha_phase - squeeze_phase between the coherent amplitude and the
squeezing axis: |alpha|^2 S^2 [1 + tau (cos^2 Delta (e^{-2g} - 1)
+ sin^2 Delta (e^{2g} - 1))], with S = sum_{a<=N} |t_a| and tau = tau_N.  At
Delta = 0 (amplitude squeezing) it is |alpha|^2 S^2 [1 - tau (1 - e^{-2g})].
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ZeroMean
from .random_media import CouplingSums, ScatteringRealization, coupling_sums

PLANCK_CONSTANT = 6.62607015e-34  # J s, exact SI
LIGHT_SPEED = 299792458.0  # m / s, exact SI
# math's bits on every CPU: numpy's AVX-512 sinh, cosh and expm1 loops round some values differently
_sinh, _cosh, _expm1 = (np.vectorize(f, otypes=[float]) for f in (math.sinh, math.cosh, math.expm1))


class SqueezedInput:
    """Identical squeezed-coherent states feeding the first ``fed_modes`` channels.

    ``squeeze_phase`` is the orientation angle of the squeezed quadrature
    axis; in terms of the squeezing-operator argument zeta = g e^{i phi} it
    corresponds to phi = 2 * squeeze_phase.  Moments depend on the phases only
    through Delta = alpha_phase - squeeze_phase; Delta = 0 is amplitude squeezing
    along the coherent displacement.  ``alpha_mag`` and ``squeeze_strength`` may
    also be per-case arrays, one :func:`focus_moments` call evaluating many
    inputs; the phases are scalars.
    """

    __slots__ = ("alpha_mag", "squeeze_strength", "fed_modes", "alpha_phase", "squeeze_phase")

    def __init__(
        self,
        alpha_mag: float,
        squeeze_strength: float = 0.0,
        fed_modes: int = 1,
        alpha_phase: float = 0.0,
        squeeze_phase: float = 0.0,
    ) -> None:
        if not np.all(alpha_mag >= 0.0):
            raise ValueError("alpha_mag must be nonnegative")
        if not np.all(squeeze_strength >= 0.0):
            raise ValueError("squeeze_strength must be nonnegative")
        if not (fed_modes >= 1 and fed_modes % 1 == 0):  # nan and inf fail too, before int() sees them
            raise ValueError(f"fed_modes must be a positive integer, got {fed_modes}")
        self.alpha_mag, self.squeeze_strength, self.fed_modes = alpha_mag, squeeze_strength, int(fed_modes)
        self.alpha_phase, self.squeeze_phase = alpha_phase, squeeze_phase

    def replace(self, **changes) -> SqueezedInput:
        """A copy with ``changes`` applied, checked as a new one."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return SqueezedInput(**(fields | changes))

    @property
    def alpha2(self) -> float:
        return self.alpha_mag * self.alpha_mag  # rounds alike for floats and arrays; a float's ** 2 is C pow

    @classmethod
    def from_intensity(
        cls,
        alpha2: float,
        squeeze_strength: float = 0.0,
        fed_modes: int = 1,
        alpha_phase: float = 0.0,
        squeeze_phase: float = 0.0,
    ) -> "SqueezedInput":
        if not alpha2 >= 0.0:
            raise ValueError("alpha2 must be nonnegative")
        return cls(math.sqrt(alpha2), squeeze_strength, fed_modes, alpha_phase, squeeze_phase)


class PhotonMoments:
    """First two moments of the focus-mode photon number."""

    __slots__ = ("mean", "variance")

    def __init__(self, mean: float, variance: float) -> None:
        if not mean >= 0.0:
            raise ValueError(f"mean must be nonnegative, got {mean}")
        if not variance >= 0.0:
            raise ValueError(f"variance must be nonnegative, got {variance}")
        self.mean, self.variance = mean, variance


class LossChannel:
    """Fictitious beam splitter with vacuum in the idle port; loss_rate = |q|^2, one value or an array."""

    __slots__ = ("loss_rate",)

    def __init__(self, loss_rate: float) -> None:
        rate = np.asarray(loss_rate)
        outside = ~((0.0 <= rate) & (rate <= 1.0))
        if np.any(outside):
            raise ValueError(f"loss_rate must lie in [0, 1], got {rate[outside].tolist()[0]}")
        self.loss_rate = loss_rate

    @property
    def transmittance(self) -> float:
        return 1.0 - self.loss_rate


NO_LOSS = LossChannel(0.0)


def mean_photon(sums: CouplingSums, inp: SqueezedInput) -> float:
    """Mean photon number of the shaped focus mode fed in its first ``inp.fed_modes`` channels.

    tau_N sinh^2(g) + |alpha|^2 (sum_{a<=N} |t_a|)^2; the double sum over
    channel pairs collapses to a square since shaped amplitudes are real.
    """
    return float(focus_moments(*sums.shaped_sums(inp.fed_modes), inp, NO_LOSS)[0])


def variance_photon(sums: CouplingSums, inp: SqueezedInput) -> float:
    """Exact photon-number variance of the shaped focus mode, all terms kept.

    tau_N sinh^2 g (1 + tau_N cosh 2g)
    + |alpha|^2 S^2 [1 + tau_N (cos^2 Delta (e^{-2g} - 1) + sin^2 Delta (e^{2g} - 1))]
    with S = sum_{a<=N} |t_a| and Delta = alpha_phase - squeeze_phase.  The
    squeezed term is tau_N^2 2 sinh^2 g cosh^2 g + tau_N (1 - tau_N) sinh^2 g:
    the unfed transmission plus all reflection is the vacuum share 1 - tau_N.
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


def focus_moments(tau, abs_sum, inp: SqueezedInput, loss: LossChannel):
    """(mean, variance) of the shaped focus after loss: the one closed-form evaluation.

    ``tau`` is the fed transmission tau_N and ``abs_sum`` is sum_{a<=N} |t_a|,
    from :meth:`EnsembleDraws.shaped_sums` (per-trial arrays) or
    :meth:`CouplingSums.shaped_sums` (scalars) at N = ``inp.fed_modes``, or
    per-case pairs with an ``inp`` of per-case g and |alpha|; loss acts as
    in :func:`apply_loss`.
    """
    g, delta = inp.squeeze_strength, inp.alpha_phase - inp.squeeze_phase
    with np.errstate(over="raise"):  # an overflow raises (math's OverflowError or numpy's), never inf moments
        sh, ch = _sinh(g), _cosh(g)
        sh2, ch2, damping = sh * sh, ch * ch, -_expm1(-2.0 * g)  # damping = 1 - e^{-2g}
        if delta != 0.0:  # at Delta = 0 skip, not zero, the sin^2 term: e^{2g} may overflow, and inf * 0 is nan
            damping = math.cos(delta) ** 2 * damping - math.sin(delta) ** 2 * _expm1(2.0 * g)
        coherent = inp.alpha2 * (abs_sum * abs_sum)
        squeezed = tau * sh2 * (1.0 + tau * (2.0 * ch2 - 1.0))  # tau sinh^2 g (1 + tau cosh 2g)
        mean, variance = _loss_terms(tau * sh2 + coherent, squeezed + coherent * (1.0 - tau * damping), loss)
    if not (np.all(mean >= 0.0) and np.all(variance >= 0.0)):
        raise ValueError("photon-number moments must be nonnegative, not nan")
    return mean, variance


def photon_budget(wavelength: float, power: float, duration: float, focus_fraction: float) -> float:
    """Mean photon number delivered into the focus during one observation.

    power * duration * focus_fraction converted to photons at the given
    wavelength (all SI units).
    """
    if not (wavelength > 0.0 and power > 0.0 and duration > 0.0):
        raise ValueError("wavelength, power and duration must be positive")
    if not 0.0 < focus_fraction <= 1.0:
        raise ValueError(f"focus_fraction must lie in (0, 1], got {focus_fraction}")
    photons = power * duration * focus_fraction * wavelength / (PLANCK_CONSTANT * LIGHT_SPEED)
    # float products overflow to inf and underflow to 0 or a subnormal without raising
    if not math.isfinite(photons):
        raise OverflowError(f"photon budget is not finite: {photons!r}")
    if photons < sys.float_info.min:
        raise ArithmeticError(f"photon budget underflows: {photons!r}")
    return photons
