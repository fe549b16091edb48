import numpy as np
import pytest

from speckleq import (
    CouplingSums,
    DisorderParams,
    ScatteringRealization,
    coupling_sums,
    derive_trial_seed,
    draw_ensemble,
    sample_realization,
)
from speckleq.random_media import normalization_bias


def ensemble_sum_t(params, trials, seed):
    """Per-trial flux-normalized sum_T of a drawn ensemble, with its mean and standard error."""
    draws = draw_ensemble(params.channel_count, trials, seed)
    sum_t = draws.shaped_sums(params, params.channel_count)[0]
    return sum_t, float(np.mean(sum_t)), float(np.std(sum_t, ddof=1) / np.sqrt(trials))


def make_realization(t_amp, r_amp):
    t_amp = np.asarray(t_amp, dtype=float)
    r_amp = np.asarray(r_amp, dtype=float)
    return ScatteringRealization(t_amp, r_amp)


class TestValidation:
    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            DisorderParams(0, 2.0)

    @pytest.mark.parametrize("s", [1.0, 0.5, -3.0])
    def test_rejects_weak_disorder(self, s):
        with pytest.raises(ValueError):
            DisorderParams(5, s)

    def test_rejects_flux_violation(self):
        with pytest.raises(ValueError):
            make_realization([0.9], [0.9])

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            make_realization([-1.0], [0.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScatteringRealization(np.array([1.0]), np.zeros(2))


class TestSampling:
    def test_weak_disorder_transmits_everything(self):
        # s -> 1+ kills the reflected variance, so one channel carries all flux
        real = sample_realization(DisorderParams(1, 1.0 + 1e-12), seed=3)
        assert real.t_amp[0] == pytest.approx(1.0, abs=1e-5)
        assert real.r_amp[0] < 1e-5

    def test_flux_conservation(self):
        params = DisorderParams(50, 2.0)
        for i in range(200):
            real = sample_realization(params, seed=i)
            flux = np.sum(real.t_amp**2) + np.sum(real.r_amp**2)
            assert abs(flux - 1.0) < 1e-12

    def test_deterministic_in_params_and_seed(self):
        params = DisorderParams(13, 3.5)
        a = sample_realization(params, seed=42)
        b = sample_realization(params, seed=42)
        assert np.array_equal(a.t_amp, b.t_amp)
        assert np.array_equal(a.r_amp, b.r_amp)

    def test_seed_changes_realization(self):
        params = DisorderParams(13, 3.5)
        a = sample_realization(params, seed=42)
        b = sample_realization(params, seed=43)
        assert not np.array_equal(a.t_amp, b.t_amp)

    def test_negative_seed_accepted(self):
        real = sample_realization(DisorderParams(4, 2.0), seed=-17)
        assert real.channel_count == 4


class TestCouplingSums:
    def test_perfect_transmission(self):
        sums = coupling_sums(make_realization([1.0], [0.0]))
        assert sums.sum_T == 1.0
        assert sums.sum_abs_t == 1.0
        assert sums.sum_R == 0.0

    def test_two_channel_arithmetic(self):
        sums = coupling_sums(make_realization([0.5, 0.5], [np.sqrt(0.5), 0.0]))
        assert sums.sum_T == pytest.approx(0.5, abs=1e-15)
        assert sums.sum_abs_t == pytest.approx(1.0, abs=1e-15)
        assert sums.sum_R == pytest.approx(0.5, abs=1e-15)

    def test_sums_to_one(self):
        params = DisorderParams(32, 4.0)
        for i in range(50):
            sums = coupling_sums(sample_realization(params, i))
            assert abs(sums.sum_T + sums.sum_R - 1.0) < 1e-12

    def test_abs_sum_dominates_intensity_sum(self):
        # (sum |t|)^2 >= sum |t|^2, equality only for a single active channel
        params = DisorderParams(32, 4.0)
        for i in range(50):
            sums = coupling_sums(sample_realization(params, i))
            assert sums.sum_abs_t**2 >= sums.sum_T
        single = coupling_sums(make_realization([1.0], [0.0]))
        assert single.sum_abs_t**2 == single.sum_T

    def test_partial_sums_monotone_and_consistent(self):
        sums = coupling_sums(sample_realization(DisorderParams(20, 2.0), 11))
        partial_t, partial_a, rest_t, sum_r = np.array([sums.shaped_sums(n) for n in range(21)]).T
        assert partial_t[0] == 0.0 and partial_a[0] == 0.0
        assert np.all(np.diff(partial_t) >= 0.0)
        assert np.all(np.diff(partial_a) >= 0.0)
        # full sums are exactly the last cumulative entries; the unfed rest is the complement
        assert partial_t[-1] == sums.sum_T and rest_t[-1] == 0.0
        assert partial_a[-1] == sums.sum_abs_t
        assert np.array_equal(rest_t, sums.sum_T - partial_t)
        assert np.all(sum_r == sums.sum_R)

    def test_partial_sum_range_checked(self):
        sums = coupling_sums(make_realization([1.0], [0.0]))
        with pytest.raises(ValueError):
            sums.shaped_sums(2)
        with pytest.raises(ValueError):
            sums.shaped_sums(-1)

    def test_direct_construction_partial_access(self):
        cum_t = np.array([0.0, 0.3, 0.5])
        cum_a = np.array([0.0, 0.6, 1.1])
        sums = CouplingSums(0.5, 1.1, 0.5, cum_t, cum_a)
        assert sums.channel_count == 2
        assert sums.shaped_sums(1) == (0.3, 0.6, 0.2, 0.5)


class TestEnsembleStats:
    def test_seed_mix_is_stateless(self):
        assert derive_trial_seed(123, 5) == derive_trial_seed(123, 5)
        assert derive_trial_seed(123, 5) != derive_trial_seed(123, 6)
        assert derive_trial_seed(-1, 0) == derive_trial_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_trial_seed(1, -1)

    def test_mean_transmission_small_samples(self):
        sum_t, mean, _ = ensemble_sum_t(DisorderParams(50, 2.0), trials=400, seed=2)
        assert mean == pytest.approx(0.5, abs=0.02)
        assert sum_t.shape == (400,)

    def test_reflection_mean_complement(self):
        # every realization conserves flux, so sum_R is exactly the complement of sum_T
        params = DisorderParams(50, 6.0)
        tau, _, tau_rest, sum_r = draw_ensemble(50, 100, 4).shaped_sums(params, 50)
        assert np.all(tau_rest == 0.0)
        assert np.max(np.abs(tau + sum_r - 1.0)) <= 1e-12
        assert np.mean(sum_r) == pytest.approx(1.0 - np.mean(tau), abs=1e-12)

    @pytest.mark.parametrize("s,band", [(2.0, 0.01), (6.0, 0.005)])
    def test_mean_transmission_matches_inverse_s(self, s, band):
        # Monte Carlo against the ensemble mean sum_T -> 1/s at 10^4 trials
        _, mean, _ = ensemble_sum_t(DisorderParams(50, s), trials=10_000, seed=20)
        assert abs(mean - 1.0 / s) < band

    @pytest.mark.parametrize("s", [2.0, 4.0, 6.0, 8.0])
    def test_mean_transmission_finite_size_oracle(self, s):
        # The exact flux normalization shifts E[sum_T] off 1/s by the known
        # O(1/M) delta-method correction (zero at s = 2); against that
        # corrected reference the sampler is unbiased at the 4-sigma level.
        # Against plain 1/s the shift itself exceeds 4 stderr at 1e4 trials
        # for s > 2, which the loose bands above absorb.
        params = DisorderParams(50, s)
        _, mean, stderr = ensemble_sum_t(params, trials=10_000, seed=20)
        reference = 1.0 / s + normalization_bias(params)
        assert abs(mean - reference) < 4.0 * stderr

    def test_normalization_bias_resolved_at_small_m(self):
        # At M = 20, s = 4 the O(1/M) shift is about 15 stderr at 4e4 trials:
        # the ensemble agrees with 1/s + bias and is resolved away from 1/s.
        params = DisorderParams(20, 4.0)
        _, mean, stderr = ensemble_sum_t(params, trials=40_000, seed=20)
        reference = 1.0 / 4.0 + normalization_bias(params)
        assert abs(mean - reference) < 4.0 * stderr
        assert abs(mean - 1.0 / 4.0) > 10.0 * stderr

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            draw_ensemble(5, 0, 1)
