import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckleq import (
    DisorderParams,
    LossChannel,
    PhotonMoments,
    SqueezedInput,
    ZeroMean,
    apply_loss,
    apply_loss_channel,
    asymptotic_avg_fano,
    asymptotic_avg_snr_ratio,
    coupling_sums,
    derive_trial_seed,
    draw_ensemble,
    fano,
    focus_mode_coefficients,
    focus_moments,
    fock_photon_moments,
    gaussian_photon_moments,
    mean_photon,
    mean_photon_partial,
    output_gaussian_state,
    photon_budget,
    sample_realization,
    variance_photon,
    variance_photon_partial,
)
from speckleq.quantum_stats import NO_LOSS
from tests.test_random_media import make_realization


def oracle_moments(real, inp):
    return gaussian_photon_moments(output_gaussian_state(real, inp))


class TestMeanPhoton:
    def test_coherent_through_half_transmission(self):
        real = make_realization([np.sqrt(0.5)], [np.sqrt(0.5)])
        inp = SqueezedInput.from_intensity(10.0, 0.0, fed_modes=1)
        assert mean_photon(coupling_sums(real), inp) == pytest.approx(5.0, rel=1e-14)

    def test_squeezed_vacuum_contribution(self):
        # T = 0.5, g = 1.5, no displacement: mean = 0.5 sinh^2(1.5)
        real = make_realization([np.sqrt(0.5)], [np.sqrt(0.5)])
        inp = SqueezedInput(0.0, 1.5, fed_modes=1)
        value = mean_photon(coupling_sums(real), inp)
        assert value == pytest.approx(0.5 * math.sinh(1.5) ** 2, rel=1e-14)
        assert value == pytest.approx(oracle_moments(real, inp).mean, rel=1e-12)

    def test_bright_beam_full_transmission(self):
        real = make_realization([1.0], [0.0])
        inp = SqueezedInput.from_intensity(10_000.0, 1.5, fed_modes=1)
        expected = 10_000.0 + math.sinh(1.5) ** 2
        assert mean_photon(coupling_sums(real), inp) == pytest.approx(expected, rel=1e-14)

    def test_coupling_sums_view_is_the_realization_view(self):
        # one closed form: on CouplingSums it also feeds only the first N channels
        real = sample_realization(DisorderParams(8, 3.0), 4)
        sums = coupling_sums(real)
        for fed in (1, 5, 8):
            inp = SqueezedInput.from_intensity(40.0, 0.7, fed_modes=fed)
            assert mean_photon(sums, inp) == mean_photon_partial(real, inp)
            assert variance_photon(sums, inp) == variance_photon_partial(real, inp)
        with pytest.raises(ValueError):
            mean_photon(sums, SqueezedInput.from_intensity(40.0, 0.7, fed_modes=9))


class TestVariancePhoton:
    def test_coherent_focus_variance_equals_mean(self):
        # g = 0 reduces the focus mode to a coherent state, bitwise
        for seed in range(5):
            real = sample_realization(DisorderParams(20, 3.0), seed)
            inp = SqueezedInput.from_intensity(123.0, 0.0, fed_modes=20)
            sums = coupling_sums(real)
            assert variance_photon(sums, inp) == mean_photon(sums, inp)

    def test_single_mode_squeezed_coherent_textbook(self):
        # T = 1: var = 2 sinh^2 g cosh^2 g + |alpha|^2 e^{-2g}
        real = make_realization([1.0], [0.0])
        g, alpha2 = 0.8, 50.0
        inp = SqueezedInput.from_intensity(alpha2, g, fed_modes=1)
        expected = 2.0 * math.sinh(g) ** 2 * math.cosh(g) ** 2 + alpha2 * math.exp(-2.0 * g)
        value = variance_photon(coupling_sums(real), inp)
        assert value == pytest.approx(expected, rel=1e-13)
        assert value == pytest.approx(oracle_moments(real, inp).variance, rel=1e-12)

    def test_oracle_equivalence_bright_case(self):
        real = make_realization([np.sqrt(0.5)], [np.sqrt(0.5)])
        inp = SqueezedInput.from_intensity(10_000.0, 1.5, fed_modes=1)
        oracle = oracle_moments(real, inp)
        assert variance_photon(coupling_sums(real), inp) == pytest.approx(
            oracle.variance, rel=1e-10
        )


class TestPhases:
    """The closed form at any alpha_phase and squeeze_phase, against both oracles."""

    @staticmethod
    def random_cases(seed, cases):
        # M <= 64, N <= M, s in (1, 10], g in [0, 2], |alpha|^2 in [0, 1e5]
        rng = np.random.default_rng(seed)
        for case in range(cases):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, m + 1))
            s, g, alpha2 = 1.0 + 9.0 * (1.0 - rng.random()), 2.0 * rng.random(), 1e5 * rng.random()
            yield sample_realization(DisorderParams(m, s), derive_trial_seed(seed, case)), n, g, alpha2

    def test_scalar_views_match_gaussian_oracle(self):
        rng = np.random.default_rng(15)
        for real, n, g, alpha2 in self.random_cases(15, 2000):
            phases = rng.uniform(-np.pi, np.pi, 2)
            inp = SqueezedInput.from_intensity(alpha2, g, n, *phases)
            oracle = oracle_moments(real, inp)
            sums = coupling_sums(real)
            assert mean_photon(sums, inp) == pytest.approx(oracle.mean, rel=1e-12)
            assert variance_photon(sums, inp) == pytest.approx(oracle.variance, rel=1e-12)
            assert mean_photon_partial(real, inp) == mean_photon(sums, inp)
            assert variance_photon_partial(real, inp) == variance_photon(sums, inp)

    def test_array_call_matches_lossy_gaussian_oracle(self):
        # one focus_moments call per block of 50 cases: per-case sums, g and |alpha|,
        # with one phase pair and one loss rate per block
        rng = np.random.default_rng(16)
        cases = list(self.random_cases(16, 2000))
        for start in range(0, len(cases), 50):
            block = cases[start : start + 50]
            phases, channel = rng.uniform(-np.pi, np.pi, 2), LossChannel(rng.random())
            sums = [np.array(x) for x in zip(*(coupling_sums(real).shaped_sums(n) for real, n, _, _ in block))]
            g, alpha2 = (np.array([case[k] for case in block]) for k in (2, 3))
            means, variances = focus_moments(*sums, SqueezedInput(np.sqrt(alpha2), g, 1, *phases), channel)
            for i, (real, n, _, _) in enumerate(block):
                inp = SqueezedInput.from_intensity(alpha2[i], g[i], n, *phases)
                oracle = gaussian_photon_moments(apply_loss_channel(output_gaussian_state(real, inp), channel))
                assert means[i] == pytest.approx(oracle.mean, rel=1e-12)
                assert variances[i] == pytest.approx(oracle.variance, rel=1e-12)

    def test_matches_fock_oracle_at_nonzero_phases(self):
        # criterion 2's domain (M <= 2, weak squeezing, dim coherent light) at random phases
        rng = np.random.default_rng(17)
        for case in range(20):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, m + 1))
            real = sample_realization(DisorderParams(m, 1.0 + 9.0 * (1.0 - rng.random())), case)
            g, alpha2 = 0.5 * rng.random(), 4.0 * rng.random()
            inp = SqueezedInput.from_intensity(alpha2, g, n, *rng.uniform(-np.pi, np.pi, 2))
            fock = fock_photon_moments(focus_mode_coefficients(real, n), inp, cutoff=40)
            assert mean_photon_partial(real, inp) == pytest.approx(fock.mean, rel=1e-6)
            assert variance_photon_partial(real, inp) == pytest.approx(fock.variance, rel=1e-6)

    def test_equal_phases_keep_the_zero_phase_bits(self):
        # Delta = 0 evaluates the amplitude-squeezed expression itself, for any common phase
        draws = draw_ensemble(30, 20, 5)
        sums = draws.shaped_sums(DisorderParams(30, 3.0), 12)
        g = np.linspace(0.0, 2.0, 20)
        for alpha_mag, squeeze in ((70.0, 1.3), (np.linspace(0.0, 300.0, 20), g)):
            zero = focus_moments(*sums, SqueezedInput(alpha_mag, squeeze, 12), LossChannel(0.2))
            rotated = focus_moments(*sums, SqueezedInput(alpha_mag, squeeze, 12, 0.7, 0.7), LossChannel(0.2))
            for a, b in zip(zero, rotated):
                assert a.tobytes() == b.tobytes()


class TestPartialFilling:
    def test_full_fill_matches_exact(self):
        real = sample_realization(DisorderParams(12, 2.5), 9)
        inp = SqueezedInput.from_intensity(500.0, 1.2, fed_modes=12)
        sums = coupling_sums(real)
        assert mean_photon_partial(real, inp) == mean_photon(sums, inp)
        assert variance_photon_partial(real, inp) == variance_photon(sums, inp)

    def test_partial_mean_arithmetic(self):
        real = make_realization([np.sqrt(0.3), np.sqrt(0.2)], [np.sqrt(0.5), 0.0])
        inp = SqueezedInput.from_intensity(10.0, 0.0, fed_modes=1)
        assert mean_photon_partial(real, inp) == pytest.approx(3.0, rel=1e-14)

    def test_partial_squeezed_only(self):
        real = make_realization([np.sqrt(0.1), np.sqrt(0.4)], [np.sqrt(0.5), 0.0])
        inp = SqueezedInput(0.0, 1.5, fed_modes=1)
        assert mean_photon_partial(real, inp) == pytest.approx(
            0.1 * math.sinh(1.5) ** 2, rel=1e-13
        )

    def test_partial_variance_against_oracle(self):
        # channels beyond N enter as vacuum; the Gaussian oracle fixes the value
        real = make_realization([np.sqrt(0.4), np.sqrt(0.3)], [np.sqrt(0.3), 0.0])
        inp = SqueezedInput.from_intensity(10_000.0, 1.5, fed_modes=1)
        oracle = oracle_moments(real, inp)
        assert mean_photon_partial(real, inp) == pytest.approx(oracle.mean, rel=1e-10)
        assert variance_photon_partial(real, inp) == pytest.approx(oracle.variance, rel=1e-10)

    def test_partial_coherent_limit(self):
        real = sample_realization(DisorderParams(9, 4.0), 31)
        for fed in (1, 4, 9):
            inp = SqueezedInput.from_intensity(77.0, 0.0, fed_modes=fed)
            assert variance_photon_partial(real, inp) == mean_photon_partial(real, inp)

    def test_fed_modes_out_of_range(self):
        real = make_realization([1.0], [0.0])
        inp = SqueezedInput.from_intensity(1.0, 0.1, fed_modes=2)
        with pytest.raises(ValueError):
            mean_photon_partial(real, inp)
        with pytest.raises(ValueError):
            variance_photon_partial(real, inp)


class TestFanoAndSnr:
    def test_poissonian(self):
        assert fano(PhotonMoments(100.0, 100.0)) == 1.0

    def test_zero_mean_raises(self):
        with pytest.raises(ZeroMean):
            fano(PhotonMoments(0.0, 0.0))

    def test_bright_squeezed_fano_near_reduction_factor(self):
        # exact Fano including the subdominant squeezing terms stays within
        # 3e-3 of 1 - sum_T (1 - e^{-2g}) at |alpha|^2 = 1e4
        real = make_realization([np.sqrt(0.5)], [np.sqrt(0.5)])
        inp = SqueezedInput.from_intensity(10_000.0, 1.5, fed_modes=1)
        sums = coupling_sums(real)
        moments = PhotonMoments(mean_photon(sums, inp), variance_photon(sums, inp))
        value = fano(moments)
        oracle = oracle_moments(real, inp)
        assert value == pytest.approx(fano(oracle), rel=1e-12)
        assert abs(value - (1.0 - 0.5 * (1.0 - math.exp(-3.0)))) < 3e-3


class TestAsymptotics:
    def test_strong_squeezing_limit(self):
        assert asymptotic_avg_fano(2.0, 30.0) == pytest.approx(0.5, abs=1e-15)

    def test_no_squeezing_is_shot_noise(self):
        for s in (1.5, 2.0, 8.0):
            assert asymptotic_avg_fano(s, 0.0) == 1.0
            assert asymptotic_avg_snr_ratio(s, 0.0) == 1.0

    def test_reference_point(self):
        expected = 1.0 - (1.0 - math.exp(-3.0)) / 6.0
        assert asymptotic_avg_fano(6.0, 1.5) == pytest.approx(expected, rel=1e-15)

    def test_snr_ratio_reference(self):
        expected = 1.0 / (1.0 - (1.0 - math.exp(-3.0)) / 2.0)
        assert asymptotic_avg_snr_ratio(2.0, 1.5) == pytest.approx(expected, rel=1e-15)
        assert asymptotic_avg_snr_ratio(2.0, 1.5) == pytest.approx(1.9052, abs=1e-4)

    def test_rejects_weak_disorder(self):
        with pytest.raises(ValueError):
            asymptotic_avg_fano(1.0, 1.0)

    @given(
        s=st.floats(1.01, 20.0),
        g_lo=st.floats(0.01, 1.9),
        delta=st.floats(0.01, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_squeezing_and_disorder(self, s, g_lo, delta):
        assert asymptotic_avg_fano(s, g_lo + delta) < asymptotic_avg_fano(s, g_lo)
        assert asymptotic_avg_fano(s + delta, g_lo) > asymptotic_avg_fano(s, g_lo)


class TestLossChannel:
    def test_identity_at_zero_loss(self):
        m = PhotonMoments(10.0, 4.0)
        out = apply_loss(m, LossChannel(0.0))
        assert out.mean == 10.0 and out.variance == 4.0

    def test_total_loss_gives_vacuum(self):
        out = apply_loss(PhotonMoments(10.0, 4.0), LossChannel(1.0))
        assert out.mean == 0.0 and out.variance == 0.0

    def test_affine_fano_example(self):
        m = PhotonMoments(100.0, 50.0)
        out = apply_loss(m, LossChannel(0.3))
        assert fano(out) == pytest.approx(0.7 * 0.5 + 0.3, rel=1e-14)

    @given(
        mean=st.floats(1e-3, 1e6),
        fano_in=st.floats(0.01, 10.0),
        q2=st.floats(0.0, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_fano_law(self, mean, fano_in, q2):
        moments = PhotonMoments(mean, fano_in * mean)
        lossy = apply_loss(moments, LossChannel(q2))
        expected = (1.0 - q2) * fano_in + q2
        assert fano(lossy) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            LossChannel(1.5)
        with pytest.raises(ValueError):
            LossChannel(-0.1)


class TestSubPoissonianRegime:
    @given(
        amps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
        refl=st.floats(0.0, 1.0),
        g=st.floats(1.0, 2.0),
        alpha2=st.floats(450.0, 1e5),
    )
    @settings(max_examples=100, deadline=None)
    def test_bright_squeezed_focus_is_sub_poissonian(self, amps, refl, g, alpha2):
        # normalize an arbitrary nonnegative draw into a valid realization
        t = np.asarray(amps)
        r = np.concatenate([[refl], np.zeros(len(amps) - 1)])
        scale = np.sqrt(np.sum(t**2) + np.sum(r**2))
        real = make_realization(t / scale, r / scale)
        inp = SqueezedInput.from_intensity(alpha2, g, fed_modes=len(amps))
        sums = coupling_sums(real)
        value = fano(PhotonMoments(mean_photon(sums, inp), variance_photon(sums, inp)))
        assert value < 1.0


class TestPhotonBudget:
    def test_paper_reference_value(self):
        value = photon_budget(694e-9, 1e-3, 1e-3, 0.01)
        assert value == pytest.approx(3.47e10, rel=0.01)

    def test_linear_in_power(self):
        base = photon_budget(694e-9, 1e-3, 1e-3, 0.01)
        assert photon_budget(694e-9, 2e-3, 1e-3, 0.01) == 2.0 * base

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(wavelength=0.0, power=1.0, duration=1.0, focus_fraction=0.5),
            dict(wavelength=1e-6, power=1.0, duration=0.0, focus_fraction=0.5),
            dict(wavelength=1e-6, power=-1.0, duration=1.0, focus_fraction=0.5),
            dict(wavelength=1e-6, power=1.0, duration=1.0, focus_fraction=0.0),
            dict(wavelength=1e-6, power=1.0, duration=1.0, focus_fraction=1.5),
        ],
    )
    def test_rejects_nonpositive_inputs(self, kwargs):
        with pytest.raises(ValueError):
            photon_budget(**kwargs)

    def test_rejects_an_overflowing_product(self):
        # every input is finite, but the product overflows to inf
        with pytest.raises(ArithmeticError):
            photon_budget(694e-9, 1e300, 1e300, 1.0)

    @pytest.mark.parametrize("power,duration", [(1e-300, 1e-300), (1e-160, 1e-160)])
    def test_rejects_an_underflowing_product(self, power, duration):
        # positive inputs whose product rounds to 0 or a subnormal carry no photon count
        with pytest.raises(ArithmeticError, match="underflows"):
            photon_budget(694e-9, power, duration, 0.01)

    def test_accepts_the_smallest_normal_budget(self):
        assert photon_budget(694e-9, 1e-100, 1e-100, 1.0) > 0.0


class TestInputValidation:
    def test_squeezed_input_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SqueezedInput(-1.0)
        with pytest.raises(ValueError):
            SqueezedInput(1.0, -0.5)
        with pytest.raises(ValueError):
            SqueezedInput(1.0, 0.5, fed_modes=0)
        with pytest.raises(ValueError):
            SqueezedInput.from_intensity(-4.0)

    def test_photon_moments_nonnegative(self):
        with pytest.raises(ValueError):
            PhotonMoments(-1.0, 0.0)
        with pytest.raises(ValueError):
            PhotonMoments(1.0, -1.0)

    def test_alpha2_roundtrip(self):
        inp = SqueezedInput.from_intensity(450.0, 1.5, fed_modes=3)
        assert inp.alpha2 == pytest.approx(450.0, rel=1e-15)


class TestEnsembleEngine:
    @given(
        data=st.data(),
        m=st.integers(1, 64),
        s=st.floats(1.0, 10.0, exclude_min=True),
        g=st.floats(0.0, 2.0),
        alpha2=st.floats(0.0, 1e5),
        loss=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**63),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_trial_moments_match_gaussian_oracle(self, data, m, s, g, alpha2, loss, seed):
        # The batched draw-once path against the scalar realization path
        # through the independent Gaussian oracle, trial by trial.  The
        # absolute floor covers the oracle's own cancellation in
        # (V11 + V22 - 1)/2 when g and alpha2 are both tiny.
        n = data.draw(st.integers(1, m), label="n")
        trials = 3
        params = DisorderParams(m, s)
        inp = SqueezedInput.from_intensity(alpha2, g, fed_modes=n)
        channel = LossChannel(loss)
        draws = draw_ensemble(m, trials, seed)
        means, variances = focus_moments(*draws.shaped_sums(params, n), inp, channel)
        for i in range(trials):
            real = sample_realization(params, derive_trial_seed(seed, i))
            oracle = gaussian_photon_moments(
                apply_loss_channel(output_gaussian_state(real, inp), channel)
            )
            assert means[i] == pytest.approx(oracle.mean, rel=1e-10, abs=1e-12)
            assert variances[i] == pytest.approx(oracle.variance, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("m,s,seed", [(2, 1.5, 3), (17, 4.0, 11), (50, 2.0, 2026)])
    def test_ensemble_rows_equal_scalar_views(self, m, s, seed):
        # row i of the batched path is the scalar view of realization i, directly
        params = DisorderParams(m, s)
        trials = 4
        draws = draw_ensemble(m, trials, seed)
        for n in sorted({1, m // 2, m}):
            inp = SqueezedInput.from_intensity(2500.0, 1.1, fed_modes=n)
            means, variances = focus_moments(*draws.shaped_sums(params, n), inp, LossChannel(0.0))
            for i in range(trials):
                real = sample_realization(params, derive_trial_seed(seed, i))
                assert means[i] == pytest.approx(mean_photon_partial(real, inp), rel=1e-13)
                assert variances[i] == pytest.approx(variance_photon_partial(real, inp), rel=1e-13)


class TestPerCaseInputs:
    def test_rows_equal_scalar_calls_bitwise(self):
        # per-case g and |alpha|^2 in one call give each row the bits of its own scalar call
        rng = np.random.default_rng(9)
        cases = 50
        sums = (0.5 * rng.random(cases), rng.random(cases))
        inputs = [SqueezedInput(300.0 * rng.random(), 2.0 * rng.random()) for _ in range(cases)]
        batch = SqueezedInput(
            np.array([inp.alpha_mag for inp in inputs]), np.array([inp.squeeze_strength for inp in inputs])
        )
        channel = LossChannel(0.3)
        means, variances = focus_moments(*sums, batch, channel)
        for i, inp in enumerate(inputs):
            mean, variance = focus_moments(*(float(x[i]) for x in sums), inp, channel)
            assert means[i] == mean and variances[i] == variance

    def test_squeeze_terms_take_maths_bits(self):
        # numpy's AVX-512 sinh, cosh and expm1 loops round some of these g differently from math, which
        # its other loops match: the moments take math's values, so their bits do not depend on the CPU
        g, tau, abs_sum, delta = np.arange(1, 41) / 20.0, 0.3, 0.9, 0.5
        inp = SqueezedInput(1.0, g, alpha_phase=delta)
        means, variances = focus_moments(np.full(g.shape, tau), np.full(g.shape, abs_sum), inp, NO_LOSS)
        coherent = abs_sum * abs_sum  # |alpha|^2 = 1
        for x, mean, variance in zip(g.tolist(), means.tolist(), variances.tolist()):
            sh2, ch2 = math.sinh(x) * math.sinh(x), math.cosh(x) * math.cosh(x)
            damping = math.cos(delta) ** 2 * -math.expm1(-2.0 * x) - math.sin(delta) ** 2 * math.expm1(2.0 * x)
            assert mean == tau * sh2 + coherent
            assert variance == tau * sh2 * (1.0 + tau * (2.0 * ch2 - 1.0)) + coherent * (1.0 - tau * damping)

    def test_alpha2_rounds_alike_for_floats_and_arrays(self):
        # this |alpha| squares differently under C pow (a float's ** 2) and multiplication
        alpha = math.sqrt(0.01187 * math.sinh(1.5) ** 2 / (1.0 - 0.01187))
        assert alpha**2 != alpha * alpha
        assert SqueezedInput(alpha).alpha2 == SqueezedInput(np.array([alpha])).alpha2[0] == alpha * alpha

    def test_rejects_negative_cases(self):
        with pytest.raises(ValueError):
            SqueezedInput(np.array([1.0, 1.0]), np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            SqueezedInput(np.array([1.0, -1.0]), np.array([0.5, 0.1]))

    @pytest.mark.parametrize("g", [400.0, 800.0, np.array([0.5, 800.0])], ids=["400", "800", "array"])
    def test_overflow_raises_outside_errstate(self, g):
        # e^{2g} overflows sinh^2 g (g = 400) or sinh g itself (g = 800): an error, not inf
        # moments and not only a warning, under numpy's default error state
        assert np.geterr()["over"] != "raise"
        sums = (np.array([0.4, 0.2]), np.array([1.0, 0.5]))
        with warnings.catch_warnings(), pytest.raises(ArithmeticError):
            warnings.simplefilter("ignore")
            focus_moments(*sums, SqueezedInput(10.0, g), LossChannel(0.0))

    def test_rejects_nan_moments(self):
        # a nan sum gives nan moments, which are not data
        tau = np.array([0.4, np.nan])
        sums = (tau, np.array([1.0, 1.0]))
        inp = SqueezedInput.from_intensity(100.0, 0.5)
        with pytest.raises(ValueError, match="nan"):
            focus_moments(*sums, inp, LossChannel(0.0))
        mean, variance = focus_moments(*(x[:1] for x in sums), inp, LossChannel(0.0))
        assert mean[0] > 0.0 and variance[0] > 0.0
