import itertools
import math
from functools import partial

import numpy as np
import pytest

from speckleq import (
    DisorderParams,
    GaussianModeState,
    LossChannel,
    ModeCoefficients,
    SqueezedInput,
    StreamMismatch,
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
from speckleq import gaussian_oracle, random_media
from speckleq.quantum_stats import NO_LOSS
from speckleq.random_media import mask_seed
from tests.test_random_media import make_realization


class TestGaussianMoments:
    def test_vacuum(self):
        moments = gaussian_photon_moments(GaussianModeState.from_covariance(np.zeros(2), np.eye(2) / 2.0))
        assert moments.mean == 0.0
        assert moments.variance == 0.0

    def test_coherent_state_is_poissonian(self):
        alpha2 = 7.3
        state = GaussianModeState.from_covariance(np.array([math.sqrt(2.0 * alpha2), 0.0]), np.eye(2) / 2.0)
        moments = gaussian_photon_moments(state)
        assert moments.mean == pytest.approx(alpha2, rel=1e-14)
        assert moments.variance == pytest.approx(alpha2, rel=1e-14)

    def test_squeezed_vacuum_moments(self):
        g = 1.1
        state = GaussianModeState.from_covariance(
            np.zeros(2), np.diag([math.exp(-2.0 * g), math.exp(2.0 * g)]) / 2.0
        )
        moments = gaussian_photon_moments(state)
        assert moments.mean == pytest.approx(math.sinh(g) ** 2, rel=1e-14)
        assert moments.variance == pytest.approx(
            2.0 * math.sinh(g) ** 2 * math.cosh(g) ** 2, rel=1e-14
        )

    def test_thermal_state_moments(self):
        nbar = 2.5
        state = GaussianModeState.from_covariance(np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2) / 2.0)
        moments = gaussian_photon_moments(state)
        assert moments.mean == pytest.approx(nbar, rel=1e-14)
        assert moments.variance == pytest.approx(nbar * (nbar + 1.0), rel=1e-14)

    def test_rejects_unphysical_covariance(self):
        with pytest.raises(ValueError):
            gaussian_photon_moments(GaussianModeState.from_covariance(np.zeros(2), np.eye(2) / 4.0))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            GaussianModeState.from_covariance(np.zeros(2), np.array([[0.5, 0.1], [0.0, 0.5]]))


class TestOutputState:
    def test_dark_input_gives_vacuum(self):
        real = make_realization([1.0], [0.0])
        state = output_gaussian_state(real, SqueezedInput(0.0, 0.0, fed_modes=1))
        assert np.allclose(state.d, 0.0)
        assert np.allclose(state.excess + np.eye(2) / 2.0, np.eye(2) / 2.0)

    def test_pure_squeezed_state(self):
        real = make_realization([1.0], [0.0])
        state = output_gaussian_state(real, SqueezedInput(0.0, 1.5, fed_modes=1))
        assert np.allclose(state.excess + np.eye(2) / 2.0, np.diag([math.exp(-3.0), math.exp(3.0)]) / 2.0, atol=1e-15)

    def test_convex_mixture_of_squeezed_and_vacuum(self):
        real = make_realization([np.sqrt(0.3), np.sqrt(0.2)], [np.sqrt(0.5), 0.0])
        state = output_gaussian_state(real, SqueezedInput(0.0, 1.0, fed_modes=2))
        expected = 0.5 * np.diag([math.exp(-2.0), math.exp(2.0)]) / 2.0 + 0.5 * np.eye(2) / 2.0
        assert np.allclose(state.excess + np.eye(2) / 2.0, expected, atol=1e-14)

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
            output_gaussian_state(real, SqueezedInput(1.0, 0.0, fed_modes=2))


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

    @pytest.mark.parametrize("dim", [9, 17, 48, 128, 264])  # cutoffs 1 to 256, each padded by 8 levels
    def test_single_mode_state_equals_scipy_expm(self, dim):
        from scipy.linalg import expm  # the package runs on numpy alone; only this test holds it to scipy

        low = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
        high = low.conj().T
        # each alpha^2 and each g has its own nonzero phase, so the 25 pairs meet 25 relative phases
        alphas = [math.sqrt(a2) * np.exp(1j * phase) for a2, phase in zip(
            (0.0, 1e-8, 0.5, 4.0, 10.0), (0.3, 2.5, -1.9, 1.2, -0.6))]
        zetas = [g * np.exp(2j * phase) for g, phase in zip((0.0, 1e-8, 0.25, 0.5, 1.0), (1.1, -0.7, 2.8, 0.4, -2.2))]
        displace = [expm(alpha * high - np.conjugate(alpha) * low) for alpha in alphas]
        squeeze = [expm(0.5 * (-zeta * high @ high + np.conjugate(zeta) * low @ low)) for zeta in zetas]
        for (i, alpha), (j, zeta) in itertools.product(enumerate(alphas), enumerate(zetas)):
            state = gaussian_oracle._single_mode_state(alpha, zeta, dim)
            assert np.max(np.abs(state - (displace[i] @ squeeze[j])[:, 0])) < 1e-13, (alpha, zeta)

    def test_whole_number_counts(self):
        real = sample_realization(DisorderParams(2, 4.0), 21)
        inp = SqueezedInput.from_intensity(1.5, 0.4, fed_modes=2)
        coeffs = focus_mode_coefficients(real, 2.0)
        assert coeffs.c.tobytes() == focus_mode_coefficients(real, 2).c.tobytes()
        whole, integer = (fock_photon_moments(coeffs, inp, cutoff=cutoff) for cutoff in (40.0, 40))
        assert (whole.mean, whole.variance) == (integer.mean, integer.variance)
        rejected = [
            (partial(focus_mode_coefficients, real, 1.5), "n_fed must be an integer, got 1.5"),
            (partial(fock_photon_moments, coeffs, inp, cutoff=40.5), "cutoff must be an integer, got 40.5"),
            # each range check keeps its message
            (partial(focus_mode_coefficients, real, 3.0), "n_fed 3.0 inconsistent with 2 channels"),
            (partial(fock_photon_moments, coeffs, inp, cutoff=256.5), "cutoff must lie in [1, 256], got 256.5"),
        ]
        for call, message in rejected:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

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
        worst = report.worst
        assert max(report.rel_err_mean[worst], report.rel_err_var[worst]) == report.max_rel_error

    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            run_equivalence_check(0, seed=1)

    @pytest.mark.parametrize(
        "cases,message", [(2.5, "cases must be an integer, got 2.5"), (float("nan"), "cases must be >= 1")]
    )
    def test_cases_must_be_a_whole_number(self, cases, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_equivalence_check(cases, seed=1)
        assert run_equivalence_check(2.0, seed=1).cases == 2


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
        d, excess, tr_excess = gaussian_oracle._output_states(
            np.array([np.sum(a**2) for a in fed]),
            np.array([np.sum(a) for a in fed]),
            *(np.array([getattr(inp, name) for inp in inputs]) for name in fields),
        )
        assert d.shape == (cases, 2) and excess.shape == (cases, 2, 2) and tr_excess.shape == (cases,)
        lossy = gaussian_oracle._lossy_states(d, excess, tr_excess, loss)
        means, variances = gaussian_oracle._photon_moments(*lossy)
        for i, (real, inp) in enumerate(zip(reals, inputs)):
            single = gaussian_photon_moments(
                apply_loss_channel(output_gaussian_state(real, inp), LossChannel(float(loss[i])))
            )
            assert means[i] == pytest.approx(single.mean, rel=1e-13, abs=1e-300)
            assert variances[i] == pytest.approx(single.variance, rel=1e-13, abs=1e-300)

    def test_rejects_one_unphysical_state_in_a_stack(self):
        excess = np.stack([np.zeros((2, 2)), -np.eye(2) / 4.0, np.eye(2) / 2.0])
        with pytest.raises(ValueError, match="unphysical"):
            gaussian_oracle._photon_moments(np.zeros((3, 2)), excess, np.trace(excess, axis1=1, axis2=2))


class TestWeakSqueezing:
    """The oracle keeps full relative accuracy where V is within rounding of I/2."""

    def test_corner_grid_agrees_with_the_closed_form(self):
        # M in {1, 2, 64}, N in {1, M}, s from just above 1 to 10, g and alpha^2 down to 1e-150 and 1e-300
        cases = [
            (m, n, s, g, alpha2)
            for m in (1, 2, 64)
            for n in sorted({1, m})
            for s in (1.0 + 1e-9, 1.001, 10.0)
            for g in (0.0, 1e-150, 1e-8, 1e-6, 1e-3, 2.0)
            for alpha2 in (0.0, 1e-300, 1e-8, 1e5)
        ]
        m, n, s, g, alpha2 = (np.array(column) for column in zip(*cases))
        draws = random_media.draw_ensemble(m, len(cases), 3, keep_raw=True)
        rel_mean, rel_var = gaussian_oracle._compare_block(draws, DisorderParams(m, s), n, g, alpha2)
        assert np.max(rel_mean) < 1e-12 and np.max(rel_var) < 1e-12

    @pytest.mark.parametrize("g", [1e-3, 1e-6, 1e-8, 1e-150])
    def test_squeezed_vacuum_moments_at_weak_squeezing(self, g):
        real = sample_realization(DisorderParams(64, 10.0), 5)
        tau = float(np.sum(real.t_amp**2))
        state = output_gaussian_state(real, SqueezedInput(0.0, g, fed_modes=64))
        moments = gaussian_photon_moments(state)
        mean = tau * math.sinh(g) ** 2
        assert moments.mean == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert moments.variance == pytest.approx(mean * (1.0 + tau * math.cosh(2.0 * g)), rel=1e-14, abs=0.0)
        lossy = gaussian_photon_moments(apply_loss_channel(state, LossChannel(0.25)))
        assert lossy.mean == pytest.approx(0.75 * mean, rel=1e-14, abs=0.0)


def _scalar_parameters(cases, rng):
    """Per-case (M, N, s, g, alpha2) from numpy's own scalar calls of Generator ``rng``."""
    for _ in range(cases):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, m + 1))
        s = 1.0 + 9.0 * (1.0 - rng.random())
        g = 2.0 * rng.random()
        alpha2 = 1e5 * rng.random()
        yield m, n, s, g, alpha2


def _scalar_reference(cases, seed):
    """Per-case rows of the equivalence check through the public single-case API."""
    rows = []
    rng = np.random.default_rng(mask_seed(seed))
    for i, (m, n, s, g, alpha2) in enumerate(_scalar_parameters(cases, rng)):
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


# Master seed: (edge, buffered).  Case edge - 1 draws M = 1, last in a block of ``edge`` cases.
# With buffered 1 it took M from a new word's low half, so the high half stays buffered across
# the block edge; with 0 it took the half buffered before it, so the next block opens a new word.
_BLOCK_EDGES = {81: (256, 1), 96: (256, 1), 64: (512, 1), 12: (512, 0)}


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
        exact = random_media._draw_trials
        seeds = []

        def recording(out, block_seeds, channel_counts):
            seeds.extend(int(seed) for seed in block_seeds)
            return exact(out, block_seeds, channel_counts)

        monkeypatch.setattr(random_media, "_draw_trials", recording)
        for master in (7, *_BLOCK_EDGES):
            seeds.clear()
            longer = run_equivalence_check(2 * block + 1, master)
            # case i draws trial i of the master seed, in every block
            assert seeds == [derive_trial_seed(master, i) for i in range(2 * block + 1)]
            for cases in (block - 1, block, block + 1):
                report = run_equivalence_check(cases, master)
                for name in _REPORT_COLUMNS:
                    np.testing.assert_array_equal(getattr(report, name), getattr(longer, name)[:cases])
            # every row, errors included, is bitwise the same in blocks of any size
            for size in (100, 256, 512):
                with monkeypatch.context() as patch:
                    patch.setattr(gaussian_oracle, "_BLOCK_CASES", size)
                    reblocked = run_equivalence_check(2 * block + 1, master)
                for name in _REPORT_COLUMNS:
                    np.testing.assert_array_equal(getattr(reblocked, name), getattr(longer, name))

    @pytest.mark.parametrize("master", _BLOCK_EDGES)
    def test_block_edge_seeds(self, master):
        edge, buffered = _BLOCK_EDGES[master]
        rng = np.random.default_rng(master)
        m = [case[0] for case in _scalar_parameters(edge, rng)]
        assert m[-1] == 1 and rng.bit_generator.state["has_uint32"] == buffered

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
        assert report.worst % 7 == 3
        assert np.all(report.rel_err_var[3::7] > 5e-9)

    def test_catches_a_mis_weighted_normalization(self, monkeypatch):
        # The oracle normalizes its own draws, so a 0.3% error in the transmission weight of
        # the sweeps' normalization (random_media._flux_scales) must fail criterion 1's check.
        # Scaling raw_T and the returned t factor by 1.003 is _flux_scales with its t weight
        # scaled by 1.003: the rows still conserve flux, so only the oracle can see it.
        exact = random_media._flux_scales

        def mis_weighted(raw_T, raw_R, m, s):
            t_scale, r_scale = exact(1.003 * raw_T, raw_R, m, s)
            return 1.003 * t_scale, r_scale

        assert run_equivalence_check(500, 20260810).passed
        monkeypatch.setattr(random_media, "_flux_scales", mis_weighted)
        report = run_equivalence_check(500, 20260810)
        assert not report.passed and report.max_rel_error > 1e-4

    @pytest.mark.parametrize("fault", ["amplitude scale", "overflowed draw"])
    def test_flux_violating_block_raises(self, monkeypatch, fault):
        if fault == "amplitude scale":
            exact = gaussian_oracle._normalized_draws

            def broken(*args):
                amp = exact(*args)
                amp[:, 0] *= 1.0 + 1e-9
                return amp

            monkeypatch.setattr(gaussian_oracle, "_normalized_draws", broken)
        else:
            exact = random_media._draw_trials

            def broken(out, seeds, channel_counts):
                exact(out, seeds, channel_counts)
                out[1:, 0, 0] = np.inf  # row 0 is left to the stream guard

            monkeypatch.setattr(random_media, "_draw_trials", broken)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="flux not conserved"):
            run_equivalence_check(50, 1)


# Seeds 12 and 27 draw M = 1 twice in a row (the second takes M from the half
# the first left buffered); 81 and 96 put M = 1 at case 255, last in the first
# block, and 12 and 64 at case 511, last in the second; 2**32 + 5 seeds PCG64
# from two entropy words; negative seeds are masked to 64 bits.
_REPLAY_SEEDS = [*range(1, 21), 27, 64, 81, 96, 2**32 + 5, -3, -20260810]
_SINGLE_CHANNEL_CASES = {12: [41, 42, 511], 27: [32, 33], 64: [511], 81: [255], 96: [255]}


class TestCaseParameterReplay:
    # blocks of 1 and 7 put the buffered half and the unread words across every block edge
    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("seed", _REPLAY_SEEDS)
    def test_equals_numpy_scalar_draws(self, seed, block):
        rng = np.random.default_rng(mask_seed(seed))
        expected = [np.array(column) for column in zip(*_scalar_parameters(1000, rng))]
        assert np.all(expected[0][_SINGLE_CHANNEL_CASES.get(seed, [])] == 1)
        blocks = list(random_media.draw_oracle_cases(seed, 1000, block))
        assert [trials for trials, *_ in blocks] == [range(i, min(i + block, 1000)) for i in range(0, 1000, block)]
        for got, want in zip((np.concatenate(column) for column in list(zip(*blocks))[1:]), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_lemire_rejection_is_replayed(self):
        # a state whose next word is 62 << 26: M = 63 from its low half, and its high
        # half 0 leaves N's leftover 0 < 2**32 mod 63 = 4, so numpy redraws N
        word, inc = 62 << 26, 0xDA3E39CB94B95BDB
        high = 0x0123456789ABCDEF  # top six bits 0: XSL-RR rotates by 0, so low = word ^ high
        after = high << 64 | (word ^ high)
        state = (after - inc) * pow(random_media._PCG_MULT, -1, 2**128) % 2**128

        def crafted():
            bit_generator = np.random.PCG64(0)
            bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0,
            }
            return bit_generator

        assert int(crafted().random_raw()) == word
        expected = zip(*_scalar_parameters(40, np.random.Generator(crafted())))
        blocks = list(zip(*random_media._case_blocks(crafted(), 40, 16)))
        replayed = [np.concatenate(column) for column in blocks[1:]]
        second = int(crafted().random_raw(2)[1])
        # N is drawn twice: the rejected half 0, then the next word's low half
        assert (replayed[0][0], replayed[1][0]) == (63, 1 + ((second & 0xFFFFFFFF) * 63 >> 32))
        for got, want in zip(replayed, expected):
            np.testing.assert_array_equal(got, np.array(want))

    def test_guard_fires_when_the_replay_departs_from_numpy(self, monkeypatch):
        assert run_equivalence_check(5, 1).passed  # a passing check in this process does not excuse the next
        exact = random_media._case_blocks

        def one_ulp_off(*args):  # the first case's s one ulp higher
            blocks = exact(*args)
            trials, m, n, s, *rest = next(blocks)
            s[0] = np.nextafter(s[0], np.inf)
            yield trials, m, n, s, *rest
            yield from blocks

        monkeypatch.setattr(random_media, "_case_blocks", one_ulp_off)
        with pytest.raises(StreamMismatch, match="depart from numpy"):
            run_equivalence_check(5, 1)
