"""The package's record types: validated parameter classes and result NamedTuples.

Parameter types are small ``__slots__`` classes whose ``__init__`` checks and
coerces its arguments; results are ``typing.NamedTuple``s, which a classmethod
such as ``GaussianModeState.from_covariance`` may build checked.  The rejection
table pins each check's exception type and exact message.
"""

import math

import numpy as np
import pytest

from speckleq import (
    CouplingSums,
    DisorderParams,
    EnsembleDraws,
    EnsembleSummary,
    EquivalenceReport,
    GaussianModeState,
    LossChannel,
    LossSweepTable,
    ModeCoefficients,
    PhotonMoments,
    ProlateBasis,
    PsfCurve,
    ReconstructionReport,
    ScatteringRealization,
    SqueezedInput,
    SuperresTable,
    SweepSpec,
    build_basis,
    draw_ensemble,
    half_width,
    photon_budget,
    run_fano_scatter,
    run_sweep,
    sample_realization,
)
from speckleq.cli import RunConfig

DISORDER = DisorderParams(50, 2.0)
INPUT = SqueezedInput(10.0, 1.5, 50)
VACUUM_V = [[0.5, 0.0], [0.0, 0.5]]

REJECTED = [
    (SqueezedInput, (-1.0,), {}, "alpha_mag must be nonnegative"),
    (SqueezedInput, (np.array([1.0, -1.0]),), {}, "alpha_mag must be nonnegative"),
    (SqueezedInput, (1.0, -0.5), {}, "squeeze_strength must be nonnegative"),
    (SqueezedInput, (1.0, np.array([0.5, -0.5])), {}, "squeeze_strength must be nonnegative"),
    (SqueezedInput, (1.0, 0.5), {"fed_modes": 0}, "fed_modes must be a positive integer, got 0"),
    (SqueezedInput, (1.0,), {"fed_modes": 1.5}, "fed_modes must be a positive integer, got 1.5"),
    (SqueezedInput.from_intensity, (-4.0,), {}, "alpha2 must be nonnegative"),
    (PhotonMoments, (-1.0, 0.0), {}, "mean must be nonnegative, got -1.0"),
    (PhotonMoments, (1.0, -1.0), {}, "variance must be nonnegative, got -1.0"),
    (LossChannel, (1.5,), {}, "loss_rate must lie in [0, 1], got 1.5"),
    (LossChannel, (-0.1,), {}, "loss_rate must lie in [0, 1], got -0.1"),
    (DisorderParams, (0, 2.0), {}, "channel_count must be a positive integer, got 0"),
    (DisorderParams, (2.5, 2.0), {}, "channel_count must be a positive integer, got 2.5"),
    (
        DisorderParams,
        (50, 1.0),
        {},
        "disorder_strength must exceed 1, got 1.0 (the reflected intensity (1-1/s)/M would be negative)",
    ),
    (ScatteringRealization, ([], []), {}, "at least one transmission channel is required"),
    (ScatteringRealization, ([0.6, 0.0], [0.8]), {}, "both amplitude arrays must share shape (2,)"),
    (ScatteringRealization, ([-0.6], [0.8]), {}, "amplitudes must be nonnegative"),
    (ScatteringRealization, ([0.6], [0.6]), {}, "flux not conserved: |sum|t|^2 + sum|r|^2 - 1| = 0.28"),
    (
        SweepSpec,
        ("bogus", (1.0,), DISORDER, INPUT),
        {},
        "axis must be one of ('squeeze_g', 'disorder_s', 'mode_fill_ratio', 'loss_rate', "
        "'coherent_fraction'), got 'bogus'",
    ),
    (
        SweepSpec,
        ("squeeze_g", (), DISORDER, INPUT),
        {},
        "axis_values must be a nonempty sequence of finite reals",
    ),
    (
        SweepSpec,
        ("squeeze_g", [1.0, math.nan], DISORDER, INPUT),
        {},
        "axis_values must be a nonempty sequence of finite reals",
    ),
    (SweepSpec, ("squeeze_g", (1.0,), DISORDER, INPUT), {"trials": 0}, "trials must be >= 1"),
    (PsfCurve, ([0.0], [1.0]), {}, "curve needs matching 1-D z and value arrays with >= 2 samples"),
    (PsfCurve, ([0.0, 1.0], [1.0]), {}, "curve needs matching 1-D z and value arrays with >= 2 samples"),
    (PsfCurve, ([0.1, 1.0], [1.0, 0.5]), {}, "z samples must start at 0 and increase strictly"),
    (PsfCurve, ([0.0, 1.0, 1.0], [1.0, 0.5, 0.2]), {}, "z samples must start at 0 and increase strictly"),
    (GaussianModeState.from_covariance, ([0.0], VACUUM_V), {}, "d must have shape (2,) and V shape (2, 2)"),
    (GaussianModeState.from_covariance, ([0.0, 0.0], [0.5, 0.5]), {}, "d must have shape (2,) and V shape (2, 2)"),
    (
        GaussianModeState.from_covariance,
        ([0.0, 0.0], [[0.5, 0.1], [0.0, 0.5]]),
        {},
        "covariance matrix must be symmetric",
    ),
    (ModeCoefficients, ([],), {}, "coefficients must form a nonempty 1-D vector"),
    (ModeCoefficients, ([[1.0]],), {}, "coefficients must form a nonempty 1-D vector"),
    (ModeCoefficients, ([0.5, 0.5],), {}, "sum |c_k|^2 = 0.5, focus mode must be a proper bosonic mode"),
    # NaN fails every ordered comparison, so each check is a negated positive test
    (SqueezedInput, (math.nan,), {}, "alpha_mag must be nonnegative"),
    (SqueezedInput, (np.array([1.0, math.nan]),), {}, "alpha_mag must be nonnegative"),
    (SqueezedInput, (1.0, math.nan), {}, "squeeze_strength must be nonnegative"),
    (SqueezedInput, (1.0, np.array([0.5, math.nan])), {}, "squeeze_strength must be nonnegative"),
    (SqueezedInput.from_intensity, (math.nan,), {}, "alpha2 must be nonnegative"),
    (PhotonMoments, (math.nan, 1.0), {}, "mean must be nonnegative, got nan"),
    (PhotonMoments, (1.0, math.nan), {}, "variance must be nonnegative, got nan"),
    (build_basis, (math.nan, 3), {}, "bandwidth must be positive"),
    (half_width, (PsfCurve([0.0, 1.0], [math.nan, 0.0]),), {}, "curve must have a positive peak at z = 0"),
    (photon_budget, (math.nan, 1e-3, 1e-3, 0.01), {}, "wavelength, power and duration must be positive"),
    (photon_budget, (694e-9, math.nan, 1e-3, 0.01), {}, "wavelength, power and duration must be positive"),
    (photon_budget, (694e-9, 1e-3, math.nan, 0.01), {}, "wavelength, power and duration must be positive"),
    (SweepSpec, ("squeeze_g", (1.0,), DISORDER, INPUT), {"trials": 2.5}, "trials must be an integer, got 2.5"),
    (SweepSpec, ("squeeze_g", (1.0,), DISORDER, INPUT), {"trials": math.nan}, "trials must be >= 1"),
    (draw_ensemble, (50, 2.5, 1), {}, "trials must be an integer, got 2.5"),
    (run_fano_scatter, (50, 2.0, 1.0, 1e4, 2.5, 1), {}, "trials must be an integer, got 2.5"),
    (SqueezedInput, (1.0,), {"fed_modes": math.nan}, "fed_modes must be a positive integer, got nan"),
    (SqueezedInput, (1.0,), {"fed_modes": math.inf}, "fed_modes must be a positive integer, got inf"),
    # a column of sweep values is checked at once, and the first value outside is named
    (LossChannel, (np.array([[0.5], [1.5], [-1.0]]),), {}, "loss_rate must lie in [0, 1], got 1.5"),
    (
        DisorderParams,
        (50, np.array([[2.0], [0.5], [1.0]])),
        {},
        "disorder_strength must exceed 1, got 0.5 (the reflected intensity (1-1/s)/M would be negative)",
    ),
    # draw_ensemble checks its channel counts by DisorderParams' rule, so none draws zero-width rows
    (draw_ensemble, (0, 10, 1), {}, "channel_count must be a positive integer, got 0"),
    (draw_ensemble, (np.array([0, 3]), 2, 1), {}, "channel_count must be a positive integer, got [0 3]"),
    (draw_ensemble, (2.5, 10, 1), {}, "channel_count must be a positive integer, got 2.5"),
]


@pytest.mark.parametrize(
    "build,args,kwargs,message",
    REJECTED,
    ids=[f"{case[0].__qualname__}-{i}" for i, case in enumerate(REJECTED)],
)
def test_each_check_rejects_with_its_message(build, args, kwargs, message):
    with pytest.raises(ValueError) as info:
        build(*args, **kwargs)
    assert type(info.value) is ValueError
    assert str(info.value) == message


class TestParameterTypes:
    def test_positional_keyword_and_default_construction(self):
        inp = SqueezedInput(2.0)
        assert (inp.alpha_mag, inp.squeeze_strength, inp.fed_modes) == (2.0, 0.0, 1)
        assert (inp.alpha_phase, inp.squeeze_phase) == (0.0, 0.0)
        inp = SqueezedInput(squeeze_phase=0.25, alpha_mag=3.0, fed_modes=4)
        assert (inp.alpha_mag, inp.squeeze_strength, inp.fed_modes, inp.squeeze_phase) == (3.0, 0.0, 4, 0.25)
        assert SqueezedInput.from_intensity(9.0, 1.0, fed_modes=2).alpha_mag == 3.0
        assert SqueezedInput.from_intensity(4.0, 1.0, 2, 0.5, 0.25).squeeze_phase == 0.25

        spec = SweepSpec("squeeze_g", [1.0], DISORDER, INPUT)
        assert (spec.trials, spec.master_seed) == (1000, 1)
        spec = SweepSpec(
            axis="loss_rate", axis_values=(0.5,), disorder=DISORDER, base_input=INPUT, trials=3, master_seed=9
        )
        assert (spec.axis, spec.disorder, spec.base_input, spec.trials, spec.master_seed) == (
            "loss_rate", DISORDER, INPUT, 3, 9,
        )
        assert DisorderParams(disorder_strength=3.0, channel_count=5).channel_count == 5
        assert LossChannel(loss_rate=0.25).transmittance == 0.75
        assert PhotonMoments(variance=2.0, mean=1.0).variance == 2.0

    def test_per_trial_values_pass_the_checks(self):
        params = DisorderParams(np.array([1, 64]), np.array([1.5, 10.0]))
        assert params.channel_count.tolist() == [1, 64]
        inp = SqueezedInput(np.array([0.0, 2.0]), np.array([0.0, 1.5]))
        assert inp.alpha2.tolist() == [0.0, 4.0]

    def test_integral_float_counts_are_stored_as_int(self):
        params = DisorderParams(50.0, 2.0)
        assert type(params.channel_count) is int and params.channel_count == 50
        assert np.array_equal(sample_realization(params, 7).t_amp, sample_realization(DISORDER, 7).t_amp)
        assert np.array_equal(draw_ensemble(params.channel_count, 3, 1).cum_T, draw_ensemble(50, 3, 1).cum_T)
        per_case = DisorderParams(np.array([1.0, 64.0]), 2.0)
        assert per_case.channel_count.dtype == np.int64 and per_case.channel_count.tolist() == [1, 64]
        for whole, counts, trials in ((50.0, 50, 100), (np.array([1.0, 3.0]), np.array([1, 3]), 2)):
            draws = draw_ensemble(whole, trials, 1, keep_raw=True)
            for got, want in zip(draws, draw_ensemble(counts, trials, 1, keep_raw=True)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

        inp = SqueezedInput(10.0, 1.5, fed_modes=2.0)
        assert type(inp.fed_modes) is int and inp.fed_modes == 2
        draws = draw_ensemble(50, 3, 1)
        assert np.array_equal(draws.shaped_sums(DISORDER, inp.fed_modes)[0], draws.shaped_sums(DISORDER, 2)[0])

        spec = SweepSpec("squeeze_g", (1.0,), DISORDER, INPUT, trials=2.0)
        assert type(spec.trials) is int and spec.trials == 2
        assert run_sweep(spec).trials == 2

    def test_arrays_are_coerced(self):
        real = ScatteringRealization([0.6], (0.8,))
        assert all(isinstance(a, np.ndarray) and a.dtype == float for a in (real.t_amp, real.r_amp))
        assert real.channel_count == 1
        state = GaussianModeState.from_covariance([0, 1], [[1, 0], [0, 1]])
        assert state.d.dtype == float and state.excess.dtype == float and state.excess.shape == (2, 2)
        coeffs = ModeCoefficients([1.0])
        assert coeffs.c.dtype == complex and coeffs.n_modes == 1
        curve = PsfCurve([0, 1], [1, 0])
        assert curve.z.dtype == float and curve.values.dtype == float
        spec = SweepSpec("squeeze_g", np.array([0.5, 1]), DISORDER, INPUT)
        assert spec.axis_values == (0.5, 1.0) and all(type(v) is float for v in spec.axis_values)

    def test_replace_keeps_the_other_fields_and_checks_again(self):
        inp = SqueezedInput(2.0, 0.5, 3, 0.25, 0.125)
        moved = inp.replace(squeeze_strength=1.5)
        assert (moved.alpha_mag, moved.squeeze_strength, moved.fed_modes) == (2.0, 1.5, 3)
        assert (moved.alpha_phase, moved.squeeze_phase) == (0.25, 0.125)
        assert inp.squeeze_strength == 0.5 and type(moved) is SqueezedInput
        with pytest.raises(ValueError, match="^squeeze_strength must be nonnegative$"):
            inp.replace(squeeze_strength=-1.0)
        with pytest.raises(ValueError, match="^fed_modes must be a positive integer, got 0$"):
            inp.replace(fed_modes=0)

        params = DisorderParams(50, 2.0)
        assert params.replace(disorder_strength=4.0).disorder_strength == 4.0
        assert params.replace(channel_count=7).disorder_strength == 2.0
        with pytest.raises(ValueError, match="^disorder_strength must exceed 1, got 0.5"):
            params.replace(disorder_strength=0.5)
        with pytest.raises(TypeError):
            params.replace(bogus=1)

    @pytest.mark.parametrize(
        "record",
        [
            INPUT, DISORDER, LossChannel(0.5), PhotonMoments(1.0, 1.0),
            SweepSpec("squeeze_g", (1.0,), DISORDER, INPUT), ScatteringRealization([0.6], [0.8]),
            PsfCurve([0.0, 1.0], [1.0, 0.0]),
            ModeCoefficients([1.0]),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_slotted_without_a_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.unknown_field = 1


RESULT_TYPES = [
    EnsembleSummary, SuperresTable, LossSweepTable, EquivalenceReport, ReconstructionReport,
    CouplingSums, EnsembleDraws, RunConfig, ProlateBasis, GaussianModeState,
]


class TestResultTuples:
    @pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
    def test_named_tuple_whose_fields_keep_the_tuple_methods(self, cls):
        assert issubclass(cls, tuple) and cls._fields
        assert not {"count", "index"} & set(cls._fields)
        assert callable(cls.count) and callable(cls.index)

    def test_tuple_equality_unpacking_and_replace(self):
        report = ReconstructionReport(3, 1.9, 0.9, 1.9 / 0.9)
        assert report == ReconstructionReport(
            modes_kept=3, classical_width=1.9, recon_width=0.9, resolution_gain=1.9 / 0.9
        )
        modes_kept, *_, gain = report
        assert (modes_kept, gain) == (3, 1.9 / 0.9)
        assert report._replace(recon_width=1.0).recon_width == 1.0 and report.recon_width == 0.9

    def test_evaluate_is_a_reassignable_class_attribute(self, monkeypatch):
        # a tracer may wrap ProlateBasis.evaluate from outside the package
        original = ProlateBasis.evaluate
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProlateBasis, "evaluate", counted)
        basis = build_basis(1.0, 3, 32)
        assert basis.evaluate(0.0).shape == (1, 3) and len(calls) == 1

