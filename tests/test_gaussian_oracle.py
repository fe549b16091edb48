import math

import numpy as np
import pytest

from speckleq import (
    DisorderParams,
    GaussianModeState,
    LossChannel,
    ModeCoefficients,
    SqueezedInput,
    TruncationError,
    apply_loss,
    apply_loss_channel,
    coupling_sums,
    derive_trial_seed,
    fock_photon_moments,
    focus_mode_coefficients,
    focus_moments,
    gaussian_photon_moments,
    mean_photon,
    output_gaussian_state,
    run_equivalence_check,
    sample_realization,
    variance_photon,
)
from speckleq import gaussian_oracle
from speckleq.quantum_stats import NO_LOSS
from speckleq.random_media import mask_seed
from tests.test_random_media import make_realization


class TestGaussianMoments:
    def test_vacuum(self):
        moments = gaussian_photon_moments(GaussianModeState(np.zeros(2), np.eye(2) / 2.0))
        assert moments.mean == 0.0
        assert moments.variance == 0.0

    def test_coherent_state_is_poissonian(self):
        alpha2 = 7.3
        state = GaussianModeState(np.array([math.sqrt(2.0 * alpha2), 0.0]), np.eye(2) / 2.0)
        moments = gaussian_photon_moments(state)
        assert moments.mean == pytest.approx(alpha2, rel=1e-14)
        assert moments.variance == pytest.approx(alpha2, rel=1e-14)

    def test_squeezed_vacuum_moments(self):
        g = 1.1
        state = GaussianModeState(
            np.zeros(2), np.diag([math.exp(-2.0 * g), math.exp(2.0 * g)]) / 2.0
        )
        moments = gaussian_photon_moments(state)
        assert moments.mean == pytest.approx(math.sinh(g) ** 2, rel=1e-14)
        assert moments.variance == pytest.approx(
            2.0 * math.sinh(g) ** 2 * math.cosh(g) ** 2, rel=1e-14
        )

    def test_thermal_state_moments(self):
        nbar = 2.5
        state = GaussianModeState(np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2) / 2.0)
        moments = gaussian_photon_moments(state)
        assert moments.mean == pytest.approx(nbar, rel=1e-14)
        assert moments.variance == pytest.approx(nbar * (nbar + 1.0), rel=1e-14)

    def test_rejects_unphysical_covariance(self):
        with pytest.raises(ValueError):
            gaussian_photon_moments(GaussianModeState(np.zeros(2), np.eye(2) / 4.0))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            GaussianModeState(np.zeros(2), np.array([[0.5, 0.1], [0.0, 0.5]]))


class TestOutputState:
    def test_dark_input_gives_vacuum(self):
        real = make_realization([1.0], [0.0])
        state = output_gaussian_state(real, SqueezedInput(0.0, 0.0, fed_modes=1))
        assert np.allclose(state.d, 0.0)
        assert np.allclose(state.V, np.eye(2) / 2.0)

    def test_pure_squeezed_state(self):
        real = make_realization([1.0], [0.0])
        state = output_gaussian_state(real, SqueezedInput(0.0, 1.5, fed_modes=1))
        assert np.allclose(state.V, np.diag([math.exp(-3.0), math.exp(3.0)]) / 2.0, atol=1e-15)

    def test_convex_mixture_of_squeezed_and_vacuum(self):
        real = make_realization([np.sqrt(0.3), np.sqrt(0.2)], [np.sqrt(0.5), 0.0])
        state = output_gaussian_state(real, SqueezedInput(0.0, 1.0, fed_modes=2))
        expected = 0.5 * np.diag([math.exp(-2.0), math.exp(2.0)]) / 2.0 + 0.5 * np.eye(2) / 2.0
        assert np.allclose(state.V, expected, atol=1e-14)

    def test_displacement_scaling(self):
        real = make_realization([np.sqrt(0.5), np.sqrt(0.5)], [0.0, 0.0])
        inp = SqueezedInput(2.0, 0.0, fed_modes=2)
        state = output_gaussian_state(real, inp)
        assert state.d[0] == pytest.approx(math.sqrt(2.0) * 2.0 * 2.0 * math.sqrt(0.5), rel=1e-14)
        assert state.d[1] == 0.0

    def test_phase_covariance_of_photon_moments(self):
        # rotating alpha_phase and squeeze_phase together is a global rotation
        real = sample_realization(DisorderParams(6, 3.0), 12)
        rng = np.random.default_rng(0)
        for _ in range(10):
            phi_a, phi_s, theta = rng.uniform(0.0, 2.0 * np.pi, 3)
            base = SqueezedInput(1.3, 0.7, 6, alpha_phase=phi_a, squeeze_phase=phi_s)
            spun = SqueezedInput(1.3, 0.7, 6, alpha_phase=phi_a + theta, squeeze_phase=phi_s + theta)
            m0 = gaussian_photon_moments(output_gaussian_state(real, base))
            m1 = gaussian_photon_moments(output_gaussian_state(real, spun))
            assert m1.mean == pytest.approx(m0.mean, rel=1e-10)
            assert m1.variance == pytest.approx(m0.variance, rel=1e-10)

    def test_inconsistent_mode_count(self):
        real = make_realization([1.0], [0.0])
        with pytest.raises(ValueError):
            output_gaussian_state(real, SqueezedInput(1.0, 0.0, fed_modes=1), n_fed=2)


class TestLossConsistency:
    def test_beam_splitter_channel_matches_affine_law(self):
        real = sample_realization(DisorderParams(10, 2.0), 77)
        inp = SqueezedInput.from_intensity(200.0, 1.2, fed_modes=10)
        state = output_gaussian_state(real, inp)
        for q2 in (0.0, 0.25, 0.6, 1.0):
            lossy_direct = gaussian_photon_moments(apply_loss_channel(state, LossChannel(q2)))
            lossy_moments = apply_loss(gaussian_photon_moments(state), LossChannel(q2))
            assert lossy_direct.mean == pytest.approx(lossy_moments.mean, rel=1e-12, abs=1e-15)
            assert lossy_direct.variance == pytest.approx(
                lossy_moments.variance, rel=1e-12, abs=1e-15
            )


class TestModeCoefficients:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            ModeCoefficients(np.array([0.5, 0.5]))

    def test_focus_coefficients_collapse_vacuum(self):
        real = sample_realization(DisorderParams(2, 2.0), 5)
        coeffs = focus_mode_coefficients(real, 2)
        assert coeffs.n_modes == 3
        assert np.allclose(np.abs(coeffs.c[:2]), real.t_amp)
        assert np.sum(np.abs(coeffs.c) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestFockOracle:
    def test_coherent_single_mode(self):
        coeffs = ModeCoefficients(np.array([1.0 + 0j]))
        inp = SqueezedInput.from_intensity(1.0, 0.0, fed_modes=1)
        moments = fock_photon_moments(coeffs, inp, cutoff=30)
        assert moments.mean == pytest.approx(1.0, abs=1e-8)
        assert moments.variance == pytest.approx(1.0, abs=1e-8)

    def test_squeezed_vacuum_single_mode(self):
        coeffs = ModeCoefficients(np.array([1.0 + 0j]))
        inp = SqueezedInput(0.0, 0.5, fed_modes=1)
        moments = fock_photon_moments(coeffs, inp, cutoff=40)
        assert moments.mean == pytest.approx(math.sinh(0.5) ** 2, abs=1e-8)
        assert moments.variance == pytest.approx(
            2.0 * math.sinh(0.5) ** 2 * math.cosh(0.5) ** 2, abs=1e-8
        )

    def test_two_mode_shaped_cross_check(self):
        real = make_realization([np.sqrt(0.6), np.sqrt(0.4)], [0.0, 0.0])
        inp = SqueezedInput.from_intensity(2.0, 0.3, fed_modes=2)
        sums = coupling_sums(real)
        analytic_mean = mean_photon(sums, inp)
        analytic_var = variance_photon(sums, inp)
        coeffs = ModeCoefficients(real.t_amp.astype(complex))
        moments = fock_photon_moments(coeffs, inp, cutoff=40)
        assert moments.mean == pytest.approx(analytic_mean, rel=1e-6)
        assert moments.variance == pytest.approx(analytic_var, rel=1e-6)

    def test_three_mode_with_vacuum_port(self):
        real = sample_realization(DisorderParams(2, 4.0), 21)
        inp = SqueezedInput.from_intensity(1.5, 0.4, fed_modes=2)
        fock = fock_photon_moments(focus_mode_coefficients(real, 2), inp, cutoff=40)
        gauss = gaussian_photon_moments(output_gaussian_state(real, inp))
        assert fock.mean == pytest.approx(gauss.mean, rel=1e-7)
        assert fock.variance == pytest.approx(gauss.variance, rel=1e-7)

    def test_partial_fill_with_vacuum_port(self):
        real = sample_realization(DisorderParams(2, 4.0), 22)
        inp = SqueezedInput.from_intensity(1.0, 0.3, fed_modes=1)
        fock = fock_photon_moments(focus_mode_coefficients(real, 1), inp, cutoff=40)
        gauss = gaussian_photon_moments(output_gaussian_state(real, inp))
        assert fock.mean == pytest.approx(gauss.mean, rel=1e-7, abs=1e-10)
        assert fock.variance == pytest.approx(gauss.variance, rel=1e-7, abs=1e-10)

    def test_arbitrary_phases_against_gaussian(self):
        real = make_realization([np.sqrt(0.55), np.sqrt(0.25)], [np.sqrt(0.2), 0.0])
        rng = np.random.default_rng(8)
        for _ in range(4):
            inp = SqueezedInput(
                1.1,
                0.4,
                2,
                alpha_phase=rng.uniform(0.0, 2.0 * np.pi),
                squeeze_phase=rng.uniform(0.0, 2.0 * np.pi),
            )
            fock = fock_photon_moments(focus_mode_coefficients(real, 2), inp, cutoff=48)
            gauss = gaussian_photon_moments(output_gaussian_state(real, inp))
            assert fock.mean == pytest.approx(gauss.mean, rel=1e-6)
            assert fock.variance == pytest.approx(gauss.variance, rel=1e-6)

    def test_truncation_error(self):
        coeffs = ModeCoefficients(np.array([1.0 + 0j]))
        inp = SqueezedInput.from_intensity(25.0, 0.0, fed_modes=1)
        with pytest.raises(TruncationError):
            fock_photon_moments(coeffs, inp, cutoff=12)

    def test_validation(self):
        inp = SqueezedInput.from_intensity(1.0, 0.0, fed_modes=1)
        with pytest.raises(ValueError):
            fock_photon_moments(ModeCoefficients(np.ones(4) / 2.0), inp, cutoff=20)
        with pytest.raises(ValueError):
            fock_photon_moments(ModeCoefficients(np.array([1.0 + 0j])), inp, cutoff=500)
        with pytest.raises(ValueError):
            fock_photon_moments(
                ModeCoefficients(np.array([1.0 + 0j])),
                SqueezedInput(0.1, 0.0, fed_modes=2),
                cutoff=20,
            )


class TestEquivalenceSweep:
    def test_triple_engine_domain_sweep(self):
        report = run_equivalence_check(100, seed=11)
        assert report.cases == 100
        assert report.passed
        assert report.max_rel_error < 1e-10
        worst = report.worst_case()
        assert set(worst) >= {"channel_count", "fed_modes", "rel_err_mean", "rel_err_var"}

    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            run_equivalence_check(0, seed=1)


class TestStackedAlgebra:
    @pytest.mark.parametrize("lossy", [False, True])
    def test_rows_equal_single_state_api(self, lossy):
        # one stacked evaluation over random states, phases and loss rates, row by row
        # against the single-state views built on the same algebra
        rng = np.random.default_rng(5)
        cases = 40
        reals, inputs = [], []
        for i in range(cases):
            m = int(rng.integers(1, 12))
            reals.append(sample_realization(DisorderParams(m, 1.0 + 9.0 * rng.random()), i))
            inputs.append(
                SqueezedInput(
                    30.0 * rng.random(),
                    2.0 * rng.random(),
                    fed_modes=int(rng.integers(1, m + 1)),
                    alpha_phase=rng.uniform(-np.pi, np.pi),
                    squeeze_phase=rng.uniform(-np.pi, np.pi),
                )
            )
        loss = rng.random(cases) if lossy else np.zeros(cases)
        fed = [r.t_amp[: inp.fed_modes] for r, inp in zip(reals, inputs)]
        fields = ("squeeze_strength", "alpha_mag", "alpha_phase", "squeeze_phase")
        d, cov = gaussian_oracle._output_states(
            np.array([np.sum(a**2) for a in fed]),
            np.array([np.sum(a) for a in fed]),
            *(np.array([getattr(inp, name) for inp in inputs]) for name in fields),
        )
        assert d.shape == (cases, 2) and cov.shape == (cases, 2, 2)
        means, variances = gaussian_oracle._photon_moments(*gaussian_oracle._lossy_states(d, cov, loss))
        for i, (real, inp) in enumerate(zip(reals, inputs)):
            single = gaussian_photon_moments(
                apply_loss_channel(output_gaussian_state(real, inp), LossChannel(float(loss[i])))
            )
            assert means[i] == pytest.approx(single.mean, rel=1e-13, abs=1e-300)
            assert variances[i] == pytest.approx(single.variance, rel=1e-13, abs=1e-300)

    def test_rejects_one_unphysical_state_in_a_stack(self):
        cov = np.stack([np.eye(2) / 2.0, np.eye(2) / 4.0, np.eye(2)])
        with pytest.raises(ValueError, match="unphysical"):
            gaussian_oracle._photon_moments(np.zeros((3, 2)), cov)


def _scalar_reference(cases, seed):
    """Per-case rows of the equivalence check through the public single-case API."""
    rng = np.random.default_rng(mask_seed(seed))
    rows = []
    for i in range(cases):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, m + 1))
        s = 1.0 + 9.0 * (1.0 - rng.random())
        g = 2.0 * rng.random()
        alpha2 = 1e5 * rng.random()
        real = sample_realization(DisorderParams(m, s), derive_trial_seed(seed, i))
        inp = SqueezedInput.from_intensity(alpha2, g, fed_modes=n)
        mean, variance = focus_moments(*coupling_sums(real).shaped_sums(n), inp, NO_LOSS)
        oracle = gaussian_photon_moments(output_gaussian_state(real, inp))
        errors = (abs(mean - oracle.mean) / oracle.mean, abs(variance - oracle.variance) / oracle.variance)
        rows.append((m, n, s, g, alpha2, *errors))
    return [np.array(column) for column in zip(*rows)]


_REPORT_COLUMNS = (
    "channel_counts",
    "fed_modes",
    "disorder_strengths",
    "squeeze_strengths",
    "alpha2",
    "rel_err_mean",
    "rel_err_var",
)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", [3, 20260810])
    def test_equals_per_case_reference(self, seed):
        report = run_equivalence_check(300, seed)
        m, n, s, g, alpha2, ref_mean_err, ref_var_err = _scalar_reference(300, seed)
        np.testing.assert_array_equal(report.channel_counts, m)
        np.testing.assert_array_equal(report.fed_modes, n)
        np.testing.assert_array_equal(report.disorder_strengths, s)
        np.testing.assert_array_equal(report.squeeze_strengths, g)
        np.testing.assert_array_equal(report.alpha2, alpha2)
        assert np.max(ref_mean_err) < 1e-10 and np.max(ref_var_err) < 1e-10
        assert np.max(report.rel_err_mean) < 1e-10 and np.max(report.rel_err_var) < 1e-10

    def test_rows_do_not_depend_on_blocking(self, monkeypatch):
        block = gaussian_oracle._BLOCK_CASES
        exact = gaussian_oracle._trial_intensity
        seeds = []

        def recording(m, seed):
            seeds.append(seed)
            return exact(m, seed)

        monkeypatch.setattr(gaussian_oracle, "_trial_intensity", recording)
        longer = run_equivalence_check(2 * block + 1, 7)
        # case i draws trial i of the master seed, in every block
        assert seeds == [derive_trial_seed(7, i) for i in range(2 * block + 1)]
        for cases in (block - 1, block, block + 1):
            report = run_equivalence_check(cases, 7)
            for name in _REPORT_COLUMNS:
                np.testing.assert_array_equal(getattr(report, name), getattr(longer, name)[:cases])

    def test_catches_a_perturbed_variance(self, monkeypatch):
        # a 1e-8 relative error in every 7th case's analytic variance must fail the check
        exact = gaussian_oracle.focus_moments

        def perturbed(*args):
            mean, variance = exact(*args)
            variance = variance.copy()
            variance[3::7] *= 1.0 + 1e-8
            return mean, variance

        monkeypatch.setattr(gaussian_oracle, "focus_moments", perturbed)
        report = run_equivalence_check(200, 4)
        assert not report.passed
        assert report.worst_case()["case"] % 7 == 3
        assert np.all(report.rel_err_var[3::7] > 5e-9)

    @pytest.mark.parametrize("fault", ["amplitude scale", "overflowed draw"])
    def test_flux_violating_block_raises(self, monkeypatch, fault):
        if fault == "amplitude scale":
            exact = gaussian_oracle._amplitudes

            def broken(*args):
                t_amp, r_amp = exact(*args)
                return t_amp * (1.0 + 1e-9), r_amp

            monkeypatch.setattr(gaussian_oracle, "_amplitudes", broken)
        else:
            exact = gaussian_oracle._trial_intensity

            def broken(m, seed):
                intensity = exact(m, seed)
                intensity[0, 0] = np.inf
                return intensity

            monkeypatch.setattr(gaussian_oracle, "_trial_intensity", broken)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="flux not conserved"):
            run_equivalence_check(50, 1)
