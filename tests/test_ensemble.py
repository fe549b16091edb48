import math
import re

import numpy as np
import pytest

from speckleq import (
    DisorderParams,
    LossChannel,
    ProlateBasis,
    SqueezedInput,
    SweepSpec,
    TooDim,
    ZeroMean,
    asymptotic_avg_fano,
    asymptotic_avg_snr_ratio,
    classical_psf_curve,
    draw_ensemble,
    focus_moments,
    half_width,
    run_fano_scatter,
    run_loss_sweep,
    run_superres_sweep,
    run_sweep,
    superres_factor,
)
from speckleq import ensemble


def small_spec(axis, values, *, g=1.5, s=2.0, m=50, alpha2=1e4, trials=200, seed=1):
    return SweepSpec(
        axis=axis,
        axis_values=tuple(values),
        disorder=DisorderParams(m, s),
        base_input=SqueezedInput.from_intensity(alpha2, g, fed_modes=m),
        trials=trials,
        master_seed=seed,
    )


class TestSpecValidation:
    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            small_spec("bogus", [1.0])

    def test_empty_values(self):
        with pytest.raises(ValueError):
            small_spec("squeeze_g", [])

    def test_nonfinite_values(self):
        with pytest.raises(ValueError):
            small_spec("squeeze_g", [float("nan")])

    def test_zero_trials(self):
        with pytest.raises(ValueError):
            small_spec("squeeze_g", [1.0], trials=0)

    def test_bad_fraction(self):
        spec = small_spec("coherent_fraction", [1.0])
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_bad_fill_ratio(self):
        spec = small_spec("mode_fill_ratio", [0.0])
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_dark_point_raises(self):
        # only total loss may turn a zero mean into the vacuum row
        spec = small_spec("squeeze_g", [1.0, 0.0], alpha2=0.0, trials=10)
        with pytest.raises(ZeroMean):
            run_sweep(spec)


class TestReproducibility:
    def test_bitwise_identical_reruns(self):
        for spec in (
            small_spec("squeeze_g", [0.0, 0.75, 1.5], trials=100),
            small_spec("disorder_s", [2.0, 4.0], trials=120),
        ):
            a = run_sweep(spec)
            b = run_sweep(spec)
            for field in ("mean_n", "fano_ratio", "snr_ratio", "stderr_snr"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(
            run_fano_scatter(50, 2.0, 1.5, 1e4, 150, 3), run_fano_scatter(50, 2.0, 1.5, 1e4, 150, 3)
        )


class TestFanoScatter:
    @pytest.mark.parametrize("g,s", [(1.5, 2.0), (1.5, 6.0), (1.0, 2.0), (1.0, 6.0)])
    def test_sub_shot_noise_and_mean(self, g, s):
        values = run_fano_scatter(50, s, g, 1e4, 1000, 1)
        assert values.shape == (1000,)
        assert np.all(values < 1.0)
        assert abs(values.mean() - asymptotic_avg_fano(s, g)) <= 0.05

    def test_coherent_input_is_poissonian(self):
        values = run_fano_scatter(50, 2.0, 0.0, 1e4, 300, 1)
        assert np.abs(values - 1.0).max() < 1e-12

    def test_mean_near_asymptote_with_mc_tolerance(self):
        values = run_fano_scatter(50, 2.0, 1.5, 1e4, 1000, 1)
        assert abs(values.mean() - 0.525) <= 0.05


class TestSweepStatistics:
    def test_snr_rises_with_squeezing(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
        summary = run_sweep(small_spec("squeeze_g", grid, trials=400))
        assert summary.snr_ratio[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(summary.snr_ratio) > 0.0)
        envelope = asymptotic_avg_snr_ratio(2.0, 1.5)
        assert summary.snr_ratio[-1] == pytest.approx(envelope, rel=0.02)

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 1.5])
    def test_mc_matches_analytic_envelope(self, g):
        summary = run_sweep(small_spec("disorder_s", [2.0, 4.0, 6.0, 8.0], g=g, trials=1000))
        for j, s in enumerate(summary.axis_values):
            envelope = asymptotic_avg_snr_ratio(s, g)
            diff = abs(summary.snr_ratio[j] - envelope)
            assert diff <= 3.0 * summary.stderr_snr[j], (g, s, diff, summary.stderr_snr[j])

    def test_coherent_baseline_exact(self):
        summary = run_sweep(small_spec("disorder_s", [2.0, 6.0], g=0.0, trials=200))
        assert np.abs(summary.fano_ratio - 1.0).max() < 1e-10

    def test_mode_fill_monotonic(self):
        ratios = np.arange(0.1, 1.01, 0.1)
        summary = run_sweep(small_spec("mode_fill_ratio", ratios, trials=400))
        assert np.all(np.diff(summary.snr_ratio) > 0.0)
        assert np.argmax(summary.snr_ratio) == ratios.shape[0] - 1

    def test_universal_fano_decreasing(self):
        fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99]
        spec = small_spec("coherent_fraction", fractions, alpha2=0.0, trials=400)
        summary = run_sweep(spec)
        assert np.all(np.diff(summary.fano_ratio) < 0.0)
        # fraction 0.99 corresponds to |alpha|^2 ~ 450 at g = 1.5
        assert abs(summary.fano_ratio[-1] - asymptotic_avg_fano(2.0, 1.5)) < 0.02


def per_point_sweep(spec):
    """The sweep one axis value at a time, the reference for the array pass.

    Each value is a one-row column, so it takes the array pass's ufunc loops: numpy squares
    an array by multiplication but a float with C pow, and equal rows are then not luck.
    """
    draws = draw_ensemble(spec.disorder.channel_count, spec.trials, spec.master_seed)
    rows = []
    for value in spec.axis_values:
        column = np.array([[value]])
        disorder, inp, loss, fed = spec.disorder, spec.base_input, LossChannel(0.0), spec.base_input.fed_modes
        if spec.axis == "squeeze_g":
            inp = inp.replace(squeeze_strength=column)
        elif spec.axis == "disorder_s":
            disorder = disorder.replace(disorder_strength=column)
        elif spec.axis == "mode_fill_ratio":
            if not 0.0 < value <= 1.0:
                raise ValueError(f"mode_fill_ratio must lie in (0, 1], got {value}")
            m = disorder.channel_count
            fed = np.array([[min(max(int(round(value * m)), 1), m)]])
        elif spec.axis == "loss_rate":
            loss = LossChannel(column)
        else:
            if not 0.0 <= value < 1.0:
                raise ValueError(f"coherent_fraction must lie in [0, 1), got {value}")
            inp = inp.replace(alpha_mag=np.sqrt(column * math.sinh(inp.squeeze_strength) ** 2 / (1.0 - column)))
        means, variances = focus_moments(*draws.shaped_sums(disorder, fed), inp, loss)
        mean_n, mean_v = means.mean(axis=1), variances.mean(axis=1)
        if mean_n[0] == 0.0:
            if (spec.axis, value) != ("loss_rate", 1.0):
                raise ZeroMean(f"zero mean photon number at {spec.axis} = {value!r} (dark input)")
            rows.append((0.0, 1.0, 1.0, 0.0))
            continue
        se_n = se_v = np.zeros(1)
        if spec.trials > 1:
            se_n = np.std(means / mean_n, axis=1, ddof=1) * mean_n / math.sqrt(spec.trials)
            se_v = np.std(variances / mean_v, axis=1, ddof=1) * mean_v / math.sqrt(spec.trials)
        ratio = mean_n / mean_v
        stderr_snr = ratio * np.sqrt((se_n / mean_n) ** 2 + (se_v / mean_v) ** 2)
        row = (mean_n, mean_v / mean_n, ratio, stderr_snr)
        rows.append(tuple(float(x[0]) for x in row))
    return rows


SUMMARY_COLUMNS = ("mean_n", "fano_ratio", "snr_ratio", "stderr_snr")
# fills whose value * 50 is exactly a tie, which round() and np.rint take to the even neighbour
HALF_FILLS = [0.01, 0.03, 0.05, 0.09, 0.45, 0.51, 0.99]
ARRAY_PASS_CASES = [
    ("squeeze_g", [0.0, 0.3, 1.5, 2.9], {}),
    ("disorder_s", [1.5, 2.0, 7.3], {"g": 0.7}),
    ("mode_fill_ratio", [*HALF_FILLS, 0.07, 0.55, 1.0], {}),
    ("mode_fill_ratio", [0.05, 0.15, 0.25, 0.35, 0.65], {"m": 10}),
    ("mode_fill_ratio", [0.01, 0.5], {"trials": 1}),
    ("loss_rate", [0.0, 0.3, 1.0, 0.5], {}),
    ("loss_rate", [1.0, 0.25], {"trials": 1}),
    # 0.01187's |alpha| squares differently under C pow and multiplication, so a scalar path shows here
    ("coherent_fraction", [0.0, 0.01187, 0.5, 0.98, 0.99, 0.995], {"alpha2": 0.0}),
    ("coherent_fraction", [0.99], {"alpha2": 0.0, "trials": 1}),
    ("squeeze_g", [1.0, 2.0], {"trials": 1}),
]


class TestArrayPass:
    """A sweep evaluates all its axis points at once; each row must equal the per-point loop bit for bit."""

    @pytest.mark.parametrize("rows_per_block", [None, 1, 3], ids=lambda rows: f"block-{rows or 'default'}")
    @pytest.mark.parametrize("axis,values,kwargs", ARRAY_PASS_CASES, ids=lambda case: str(case))
    def test_array_pass_equals_per_point_loop(self, monkeypatch, axis, values, kwargs, rows_per_block):
        spec = small_spec(axis, values, **{"trials": 150, "seed": 5, **kwargs})
        if rows_per_block is not None:  # blocks of a few rows, so the points cross block boundaries
            monkeypatch.setattr(ensemble, "_BLOCK_ELEMENTS", rows_per_block * spec.trials)
        summary = run_sweep(spec)
        for column, expected in zip(SUMMARY_COLUMNS, zip(*per_point_sweep(spec))):
            got = getattr(summary, column)
            assert got.dtype == np.float64 and got.tobytes() == np.array(expected).tobytes(), column
        if spec.trials == 1:
            assert not summary.stderr_snr.any()
        if axis == "loss_rate":
            vacuum = np.array(values) == 1.0
            assert np.all(summary.snr_ratio[vacuum] == 1.0) and np.all(summary.mean_n[vacuum] == 0.0)

    def test_array_pass_cases_reach_ties(self):
        assert all(value * 50 % 1 == 0.5 for value in HALF_FILLS)

    @pytest.mark.parametrize(
        "axis,values,kwargs",
        [
            ("squeeze_g", [1.0, 0.0, 2.0], {"alpha2": 0.0}),
            ("mode_fill_ratio", [0.5, 1.5, 0.0], {}),
            ("coherent_fraction", [0.5, -0.25, 1.0], {"alpha2": 0.0}),
            ("loss_rate", [0.5, 1.25], {}),
            ("disorder_s", [2.0, 0.5, 1.0], {}),
        ],
        ids=lambda case: str(case),
    )
    def test_array_pass_keeps_each_error(self, axis, values, kwargs):
        spec = small_spec(axis, values, **{"trials": 20, **kwargs})
        with pytest.raises((ValueError, ZeroMean)) as expected:
            per_point_sweep(spec)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            run_sweep(spec)

    @pytest.mark.parametrize("rows_per_block", [None, 1], ids=["one-block", "block-per-point"])
    @pytest.mark.parametrize(
        "axis,values,kwargs,first_error,message",
        [
            ("squeeze_g", [0.0, -1.0], {"alpha2": 0.0}, ZeroMean, "squeeze_strength must be nonnegative"),
            ("squeeze_g", [800.0, -1.0], {}, ArithmeticError, "squeeze_strength must be nonnegative"),
            (
                "mode_fill_ratio", [0.5, 1.5], {"alpha2": 0.0, "g": 0.0}, ZeroMean,
                "mode_fill_ratio must lie in (0, 1], got 1.5",
            ),
        ],
        ids=["dark-first", "overflow-first", "dark-fill-first"],
    )
    def test_every_value_is_checked_first(
        self, monkeypatch, axis, values, kwargs, first_error, message, rows_per_block
    ):
        # the per-point loop fails at its first point; the array pass checks every value before
        # it evaluates any block, whatever the block size, and looks for dark points after the last
        spec = small_spec(axis, values, **{"trials": 20, **kwargs})
        if rows_per_block is not None:
            monkeypatch.setattr(ensemble, "_BLOCK_ELEMENTS", rows_per_block * spec.trials)
        with pytest.raises(first_error):
            per_point_sweep(spec)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(spec)


class TestLossSweep:
    def test_zero_loss_matches_lossless(self):
        grid = [0.0, 0.2, 0.4]
        table = run_loss_sweep([1.5], 2.0, 1e4, grid, 200, 1)
        lossless = run_sweep(small_spec("loss_rate", [0.0], trials=200))
        assert table.snr_ratio[0] == lossless.snr_ratio[0]

    def test_total_loss_is_shot_noise_limited(self):
        table = run_loss_sweep([1.5], 2.0, 1e4, [0.0, 1.0], 100, 1)
        assert table.snr_ratio[-1] == 1.0
        assert table.fano_ratio[-1] == 1.0

    def test_ratio_decreasing_but_above_unity_below_half_loss(self):
        grid = np.arange(0.0, 0.5, 0.05)
        table = run_loss_sweep([1.5], 2.0, 1e4, grid, 400, 1)
        assert np.all(np.diff(table.snr_ratio) < 0.0)
        assert np.all(table.snr_ratio > 1.0)

    def test_affine_law_on_ensemble_ratios(self):
        # F-bar_L = |p|^2 F-bar + |q|^2 holds exactly for ratio-of-means
        grid = [0.0, 0.3, 0.7]
        table = run_loss_sweep([1.5], 2.0, 1e4, grid, 200, 1)
        base = table.fano_ratio[0]
        for j, q2 in enumerate(grid):
            assert table.fano_ratio[j] == pytest.approx((1.0 - q2) * base + q2, rel=1e-12)

    def test_empty_squeeze_list_raises(self):
        with pytest.raises(ValueError, match="^squeeze_strengths must be nonempty$"):
            run_loss_sweep([], 2.0, 1e4, [0.0, 0.5], 50, 1)

    def test_blocks_per_squeeze_strength(self):
        table = run_loss_sweep([0.5, 1.5], 2.0, 1e4, [0.0, 0.5], 50, 1)
        assert table.squeeze_strength.shape == (4,)
        assert set(table.squeeze_strength) == {0.5, 1.5}


@pytest.fixture(scope="module")
def table():
    budgets = np.geomspace(1e6, 3.5e10, 7)
    return run_superres_sweep(1.5, [2.0, 4.0, 6.0, 8.0], budgets, 1.0, 0.01, 300, 1)


@pytest.fixture(scope="module")
def table_fano():
    """F-bar(s) of the table's curves, as run_superres_sweep takes it: run_sweep's fano_ratio."""
    return run_sweep(small_spec("disorder_s", [2.0, 4.0, 6.0, 8.0], trials=300, seed=1)).fano_ratio


class TestSuperresSweep:
    def test_squeezed_beats_coherent(self, table):
        coherent = table.resolution_gain[table.disorder_strength == 0.0]
        for s in (2.0, 4.0, 6.0, 8.0):
            squeezed = table.resolution_gain[table.disorder_strength == s]
            assert np.all(squeezed >= coherent)

    def test_gain_ordering_in_disorder(self, table):
        curves = {
            s: table.resolution_gain[table.disorder_strength == s] for s in (2.0, 4.0, 6.0, 8.0)
        }
        assert np.all(curves[2.0] >= curves[4.0])
        assert np.all(curves[4.0] >= curves[6.0])
        assert np.all(curves[6.0] >= curves[8.0])

    def test_gain_nondecreasing_along_budget(self, table):
        for s in (0.0, 2.0, 4.0, 6.0, 8.0):
            gains = table.resolution_gain[table.disorder_strength == s]
            assert np.all(np.diff(gains) >= 0.0)

    def test_fano_bar_ordering(self, table_fano):
        # each curve divides its budgets by F-bar(s); the gain ordering in s rests on this one
        assert np.all(np.diff(table_fano) > 0.0) and table_fano[-1] < 1.0

    def test_tiny_budget_raises(self):
        with pytest.raises(TooDim):
            run_superres_sweep(1.5, [2.0], [1.0], 1.0, 0.01, 50, 1)

    def test_empty_budget_list_raises(self):
        with pytest.raises(ValueError, match="^budgets must be nonempty$"):
            run_superres_sweep(1.5, [2.0], [], 1.0, 0.01, 50, 1)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0, -1e8])
    def test_budget_must_be_finite_and_positive(self, budget):
        with pytest.raises(ValueError, match="^budget must be finite and positive$"):
            run_superres_sweep(1.5, [2.0], [1e8, budget], 1.0, 0.01, 50, 1)

    def test_empty_disorder_list_raises(self):
        # F-bar(s) comes from a disorder_s sweep, which needs at least one point
        with pytest.raises(ValueError, match="nonempty"):
            run_superres_sweep(1.5, [], [1e8], 1.0, 0.01, 50, 1)

    @pytest.mark.parametrize(
        "g,strengths,budgets,trials,message",
        [
            (1.5, [], [1e8], 50, "disorder_strengths must be nonempty"),
            (1.5, [2.0], [], 50, "budgets must be nonempty"),
            (1.5, [2.0], [1e8], 2.5, "trials must be an integer, got 2.5"),
            (-1.0, [2.0], [1e8], 50, "squeeze_strength must be nonnegative"),
        ],
        ids=["no-strengths", "no-budgets", "fractional-trials", "negative-g"],
    )
    def test_inputs_are_checked_before_the_basis_is_built(
        self, monkeypatch, g, strengths, budgets, trials, message
    ):
        def no_basis(*args):
            raise AssertionError("build_basis called before the inputs were checked")

        monkeypatch.setattr(ensemble.prolate, "build_basis", no_basis)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_superres_sweep(g, strengths, budgets, 1.0, 0.01, trials, 1)

    @pytest.mark.parametrize(
        "budgets,epsilon,message",
        [
            ([1e8, math.nan], 0.01, "budget must be finite and positive"),
            ([1e8, -1.0], 0.01, "budget must be finite and positive"),
            ([1e8], 1.5, "epsilon must lie in (0, 1), got 1.5"),
        ],
        ids=["nan-budget", "negative-budget", "epsilon-above-1"],
    )
    def test_budgets_and_epsilon_are_checked_before_any_work(self, monkeypatch, budgets, epsilon, message):
        called = []
        monkeypatch.setattr(ensemble.prolate, "build_basis", lambda *args: called.append("build_basis"))
        monkeypatch.setattr(ensemble, "draw_ensemble", lambda *args: called.append("draw_ensemble"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_superres_sweep(1.5, [2.0], budgets, 1.0, epsilon, 50, 1)
        assert called == []

    def test_deterministic(self):
        kwargs = dict(trials=100, master_seed=9)
        a = run_superres_sweep(1.5, [2.0], [1e8], 1.0, 0.01, kwargs["trials"], 9)
        b = run_superres_sweep(1.5, [2.0], [1e8], 1.0, 0.01, kwargs["trials"], 9)
        assert np.array_equal(a.resolution_gain, b.resolution_gain)
        assert np.array_equal(a.modes_kept, b.modes_kept)


class TestSuperresWidthCache:
    """The sweep resolves W once and W_Q once per Q; rows must not notice."""

    def test_rows_equal_per_row_superres_factor(self, table, table_fano, basis_c1):
        assert len(set(table.modes_kept.tolist())) >= 2
        fano_bar = dict(zip([0.0, 2.0, 4.0, 6.0, 8.0], [1.0, *table_fano.tolist()]))  # s = 0: coherent
        for i in range(table.mean_n.shape[0]):
            report = superres_factor(basis_c1, table.mean_n[i] / fano_bar[table.disorder_strength[i]], 0.01)
            assert table.modes_kept[i] == report.modes_kept
            assert table.classical_width[i] == report.classical_width
            assert table.recon_width[i] == report.recon_width
            assert table.resolution_gain[i] == report.resolution_gain

    def test_one_mode_evaluation_per_sweep(self, monkeypatch):
        calls = []
        original = ProlateBasis.evaluate

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProlateBasis, "evaluate", counting)
        half_width(classical_psf_curve(1.0))
        assert calls == []  # the classical PSF is closed-form
        budgets = np.geomspace(1e6, 3.5e10, 7)
        table = run_superres_sweep(1.5, [2.0, 8.0], budgets, 1.0, 0.01, 100, 1)
        assert len(set(table.modes_kept.tolist())) >= 2
        assert len(calls) == 1

    @pytest.mark.parametrize("forced_modes", [None, 1, 4, 7])
    def test_superres_factor_on_a_budget_array_equals_scalar_calls(self, basis_c1, forced_modes):
        budgets = np.geomspace(1e3, 1e14, 23)
        report = superres_factor(basis_c1, budgets, 0.01, forced_modes=forced_modes)
        scalar = [superres_factor(basis_c1, b, 0.01, forced_modes=forced_modes) for b in budgets.tolist()]
        if forced_modes is None:
            assert len(set(report.modes_kept.tolist())) >= 3
        for field, column in zip(report._fields, zip(*scalar)):
            expected = np.array(column)
            got = getattr(report, field)
            assert got.shape == budgets.shape and got.tobytes() == expected.tobytes(), field
        for one in scalar:
            assert type(one.modes_kept) is int
            assert all(type(value) is float for value in one[1:])
