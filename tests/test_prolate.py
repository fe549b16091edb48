import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from speckleq import (
    NoCrossing,
    ProlateBasis,
    PsfCurve,
    TooDim,
    build_basis,
    classical_psf,
    classical_psf_curve,
    half_width,
    reconstruction_psf,
    reconstruction_psf_curve,
    resolve_modes,
    superres_factor,
)
from speckleq import cli, prolate
from speckleq.errors import ConvergenceError
from speckleq.prolate import _legval, _series_eigenvalues, _sinc_kernel, _solve_spectrum

# Sinc-kernel eigenvalues at c = 1, k < 7, to 50 digits: Rayleigh-Ritz on the integral
# operator in Legendre polynomials up to degree 60, with the spherical-Bessel overlap
# integrals summed exactly from their power series at 90 digits (mpmath; degree 44 agrees).
LAM_C1_REFERENCE = np.array([
    5.725817806378951222239686534549344836027845059356e-1,
    6.2791274149803334403570677720478448391005730012118e-2,
    1.2374793284659967105178034558186304889003429845538e-3,
    9.2009770495689268205831532686818759576569702085148e-6,
    3.7179285580655501719099475905919347068427881570578e-8,
    9.4914367339671568480477984802617767107403943748321e-11,
    1.6715715833522591313027350397299014476132587031274e-13,
])


class TestSpectrum:
    @pytest.mark.parametrize(
        "args,message",
        [
            ((2.5,), "num_modes must be an integer, got 2.5"),
            ((float("nan"),), "num_modes must be >= 1"),
            ((7, 255.5), "quad_order must be an integer, got 255.5"),
            ((7, float("nan")), "quad_order must be >= 1"),
        ],
    )
    def test_counts_must_be_whole_numbers(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_basis(1.0, *args)

    def test_whole_float_counts_build_the_same_basis(self, basis_c1):
        basis = build_basis(1.0, 7.0, 256.0)
        assert basis.phi.tobytes() == basis_c1.phi.tobytes() and basis.lam.tobytes() == basis_c1.lam.tobytes()

    def test_spectral_bounds_c1_k8(self):
        basis = build_basis(1.0, 8, 256)
        lam = basis.lam
        assert np.all(lam > 0.0) and np.all(lam < 1.0)
        assert np.all(np.diff(lam) < 0.0)
        assert lam.sum() <= 2.0 / np.pi

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_trace_identity(self, c):
        # sum of eigenvalues equals the kernel trace 2 c / pi; six modes
        # already capture everything above ~1e-9 for these bandwidths
        basis = build_basis(c, 6, 256)
        assert abs(basis.lam.sum() - 2.0 * c / np.pi) < 1e-6

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_orthonormality(self, c):
        basis = build_basis(c, 6, 256)
        gram = (basis.phi * basis.weights[:, None]).T @ basis.phi
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_parity(self, c):
        basis = build_basis(c, 6, 256)
        for k in range(6):
            mirrored = basis.phi[::-1, k]
            assert np.abs(mirrored - (-1.0) ** k * basis.phi[:, k]).max() < 1e-8

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_self_convergence_under_doubling(self, c):
        lam_256 = build_basis(c, 6, 256).lam
        lam_512 = build_basis(c, 6, 512).lam
        assert np.abs(lam_256 - lam_512).max() <= 1e-9

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_convergence_shift_is_recorded(self, c):
        basis = build_basis(c, 6, 256)
        assert math.isfinite(basis.convergence_shift)
        assert 0.0 <= basis.convergence_shift <= 1e-9
        # the recorded value is the distance the certificate measured from the series eigenvalues
        lam_series = _series_eigenvalues(c, 6, 256)
        assert basis.convergence_shift == np.abs(basis.lam - lam_series).max()

    def test_convergence_shift_defaults_to_nan(self, basis_c1):
        fields = ("bandwidth", "grid", "weights", "lam", "phi", "phi_at_zero")
        bare = ProlateBasis(*(getattr(basis_c1, name) for name in fields))
        assert math.isnan(bare.convergence_shift)

    def test_eigenfunction_self_convergence(self):
        # Nystrom evaluation noise scales as eps / lambda_k, so pointwise
        # 1e-9 stability is checked on the well-conditioned modes and the
        # kernel image lambda_k phi_k (noise-free) on all retained ones.
        coarse = build_basis(1.0, 6, 256)
        fine = build_basis(1.0, 6, 512)
        probe = np.linspace(-0.95, 0.95, 21)
        values_coarse = coarse.evaluate(probe)
        values_fine = fine.evaluate(probe)
        strong = coarse.lam >= 1e-5
        assert np.abs(values_coarse - values_fine)[:, strong].max() <= 1e-9
        image_gap = np.abs(values_coarse * coarse.lam - values_fine * fine.lam)
        assert image_gap.max() <= 1e-12

    def test_completeness_on_grid(self):
        # retained modes (all lambda > 1e-12) reproduce the kernel on the grid
        basis = build_basis(1.0, 7, 256)
        kernel = _sinc_kernel(1.0, basis.grid, basis.grid)
        recon = (basis.phi * basis.lam) @ basis.phi.T
        assert np.abs(kernel - recon).max() < 1e-6

    def test_sign_conventions(self):
        basis = build_basis(1.0, 6, 256)
        for k in range(0, 6, 2):
            assert basis.phi_at_zero[k] > 0.0
        step = 1e-4
        for k in range(1, 6, 2):
            assert basis.phi_at_zero[k] == 0.0
            slope = (basis.evaluate(step)[0, k] - basis.evaluate(-step)[0, k]) / (2.0 * step)
            assert slope > 0.0

    def test_evaluate_reproduces_grid_samples(self):
        basis = build_basis(1.0, 4, 256)
        probe = basis.grid[::50]
        values = basis.evaluate(probe)[:, :4]
        assert np.abs(values - basis.phi[::50, :4]).max() < 1e-9

    def test_evaluate_vanishes_outside_support(self):
        basis = build_basis(1.0, 4, 256)
        assert np.all(basis.evaluate(np.array([-1.5, 1.2, 3.0])) == 0.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_basis(0.0, 4, 256)
        with pytest.raises(ValueError):
            build_basis(1.0, 0, 256)
        with pytest.raises(ValueError):
            build_basis(1.0, 4, 255)
        with pytest.raises(ValueError):
            build_basis(1.0, 80, 256)

    def test_deep_modes_either_valid_or_rejected(self):
        # requesting modes at the numerical floor must never return a
        # spectrum that violates the (0, 1) strictly-decreasing contract
        try:
            basis = build_basis(0.5, 16, 256)
        except ConvergenceError:
            return
        assert np.all(basis.lam > 0.0) and np.all(np.diff(basis.lam) < 0.0)


class TestSeriesCertificate:
    def test_series_eigenvalues_match_reference_relatively(self):
        lam = _series_eigenvalues(1.0, 7, 256)
        assert np.abs(lam / LAM_C1_REFERENCE - 1.0).max() <= 1e-12

    def test_nystrom_eigenvalues_match_reference_within_gate(self, basis_c1):
        assert np.abs(basis_c1.lam - LAM_C1_REFERENCE).max() <= 1e-9

    def test_one_nystrom_solve_and_no_doubled_quadrature(self, monkeypatch):
        solves, orders = [], []
        solve, rule = prolate._solve_spectrum, prolate._gauss_legendre
        monkeypatch.setattr(prolate, "_solve_spectrum", lambda *args: solves.append(args) or solve(*args))
        monkeypatch.setattr(prolate, "_gauss_legendre", lambda n: orders.append(n) or rule(n))
        build_basis(1.0, 7, 256)
        assert solves == [(1.0, 256, 7)]
        assert orders == [256]

    @pytest.mark.parametrize("order", [2, 4, 6, 8, 128, 256, 512, 1024])
    def test_gauss_legendre_rule_is_numpy_leggauss_bit_for_bit(self, order):
        nodes, weights = prolate._gauss_legendre(order)
        expected_nodes, expected_weights = np.polynomial.legendre.leggauss(order)
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert nodes.tobytes() == expected_nodes.tobytes()
            assert weights.tobytes() == expected_weights.tobytes()
        else:
            # numpy 1.x's legval groups its Clenshaw products as (c1 * (nd - 1)) / nd, which
            # moves the last bits of the Newton step and of the weights
            np.testing.assert_allclose(nodes, expected_nodes, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(weights, expected_weights, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("order", [2, 3, 6, 64, 257, 1024])
    def test_zero_padded_derivative_column_keeps_each_series_bits(self, order):
        # _gauss_legendre's one Clenshaw pass for P_n and P_n' = sum (2k + 1) P_k, k = n - 1,
        # n - 3, ...: at any numpy version, each column equals its own legval bit for bit
        unit, der = np.zeros(order + 1), np.zeros(order)
        unit[order] = 1.0
        der[order - 1 :: -2] = np.arange(2 * order - 1, 0, -4)
        x = np.concatenate([np.random.default_rng(order).uniform(-1.0, 1.0, 200), [-1.0, -0.0, 0.0, 1.0]])
        both = _legval(x, np.stack([unit, np.append(der, 0.0)], axis=1)[..., None])
        assert both[0].tobytes() == _legval(x, unit).tobytes()
        assert both[1].tobytes() == _legval(x, der).tobytes()

    def test_rejects_exactly_where_doubling_moves_eigenvalues(self):
        # the certificate replaced a Nystrom re-solve at 2 * quad_order; it must reject
        # the same bases, and anything else only for the (0, 1) strict-decrease contract.
        # On the grid the mid-size Nystrom errors all fail the series tail first, so the
        # last rows add bandwidths whose error crosses the 1e-9 gate itself (7.2e-10 to 1.0e-7).
        groups = [
            (c, q, sorted({1, 2, q // 4}))
            for c in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
            for q in (8, 12, 16, 32, 64, 128)
        ]
        groups += [(c, 12, [3]) for c in (4.5, 5.0, 5.5)] + [(c, 16, [4]) for c in (8.0, 8.5, 9.0, 10.0)]
        verdicts = []
        for c, q, ks in groups:
            coarse = _solve_spectrum(c, q, q // 4)[2]
            fine = _solve_spectrum(c, 2 * q, q // 4)[2]
            for k in ks:
                lam = coarse[:k]
                if np.abs(lam - fine[:k]).max() > 1e-9:
                    expected = "certificate"
                elif lam[0] >= 1.0 or lam[-1] <= 0.0 or np.any(np.diff(lam) >= 0.0):
                    expected = "spectrum"
                else:
                    expected = "accepted"
                try:
                    build_basis(c, k, q)
                    verdict = "accepted"
                except ConvergenceError as err:
                    verdict = "certificate" if "Legendre" in str(err) else "spectrum"
                verdicts.append((c, q, k, expected, verdict))
        assert [v for v in verdicts if v[3] != v[4]] == []
        outcomes = [v[4] for v in verdicts]
        assert outcomes.count("certificate") >= 30 and outcomes.count("accepted") >= 60

    @pytest.mark.parametrize("c", [1e6, 1e300])
    def test_huge_bandwidth_rejected_promptly(self, c):
        # 1e300 would overflow c^2 in the series matrix
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="raise quad_order"):
            build_basis(c, 4, 256)
        assert time.perf_counter() - start < 1.0

    def test_undecayed_series_raises(self):
        # c = 12 needs Legendre degrees past 15, the highest that 8 terms per parity reach
        with pytest.raises(ConvergenceError, match="Legendre series.*raise quad_order"):
            _series_eigenvalues(12.0, 1, 8)

    @pytest.mark.parametrize("c, modes", [(20.0, 3), (40.0, 1)])
    def test_saturated_leading_eigenvalue_blames_the_bandwidth(self, c, modes):
        with pytest.raises(ConvergenceError) as err:
            build_basis(c, modes, 256)
        assert "too large to resolve lam_0 below 1 in double precision" in str(err.value)
        assert "reduce num_modes" not in str(err.value)


class TestClassicalPsf:
    def test_peak_value(self):
        for c in (0.5, 1.0, 2.0):
            assert classical_psf(c, 0.0) == pytest.approx(c / np.pi, rel=1e-15)

    def test_first_zero(self):
        assert abs(classical_psf(1.0, np.pi)) < 1e-16

    def test_half_width_against_bisection_oracle(self):
        # independent root of sin(u)/u = 1/2 fixes the half-max coordinate
        root = brentq(lambda u: math.sin(u) / u - 0.5, 1.0, math.pi)
        for c in (0.5, 1.0, 2.0):
            width = half_width(classical_psf_curve(c))
            assert width == pytest.approx(root / c, abs=1e-4)

    def test_reference_width(self):
        assert half_width(classical_psf_curve(1.0)) == pytest.approx(1.8955, abs=1e-3)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0])
    def test_grid_width_relative_accuracy(self, c):
        # the 1e-3 grid plus linear interpolation lands within 1e-7 relative of
        # the exact root (worst case about 4.8e-8, at c = 4)
        root = brentq(lambda u: math.sin(u) / u - 0.5, 1.0, math.pi, xtol=1e-15)
        assert half_width(classical_psf_curve(c)) == pytest.approx(root / c, rel=1e-7)


class TestHalfWidth:
    def test_rectangle(self):
        z = np.arange(0.0, 1.0 + 1e-3, 1e-3)
        curve = PsfCurve(z, np.where(z <= 0.5, 1.0, 0.0))
        assert half_width(curve) == pytest.approx(0.5, abs=1e-3)

    def test_drop_to_zero_halves_at_support_edge(self):
        # a curve still above half where it jumps to exact zeros halves at its
        # last nonzero sample; a line across the jump would overshoot the edge
        z = np.arange(0.0, 1.05 + 1e-3, 1e-3)
        curve = PsfCurve(z, np.where(z <= 1.0, 1.0 - 0.1 * z, 0.0))
        assert half_width(curve) == 1.0

    def test_no_crossing(self):
        z = np.arange(0.0, 1.0 + 1e-3, 1e-3)
        with pytest.raises(NoCrossing):
            half_width(PsfCurve(z, np.ones_like(z)))

    def test_requires_positive_peak(self):
        z = np.arange(0.0, 1.0 + 1e-3, 1e-3)
        with pytest.raises(ValueError):
            half_width(PsfCurve(z, np.zeros_like(z)))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            PsfCurve(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            PsfCurve(np.array([0.0]), np.array([1.0]))


def full_kernel_evaluate(basis, z):
    """Reference Nystrom interpolant: the sinc kernel at every point, all K modes, outside rows zeroed."""
    pts = np.atleast_1d(np.asarray(z, dtype=float))
    kernel = _sinc_kernel(basis.bandwidth, pts, basis.grid)
    values = (kernel * basis.weights) @ basis.phi / basis.lam
    values[np.abs(pts) > 1.0, :] = 0.0
    return values


def where_sinc_kernel(bandwidth, x, y):
    """Reference kernel: the 0 / 0 avoided by a safe denominator, c / pi chosen by np.where."""
    diff = np.subtract.outer(np.atleast_1d(x), np.atleast_1d(y))
    safe = np.where(diff == 0.0, 1.0, diff)
    return np.where(diff == 0.0, bandwidth / np.pi, np.sin(bandwidth * diff) / (np.pi * safe))


# rows and columns with exact zero differences (0 against 0 and -0.0, 1 against 1), NaN rows
# and columns, and an off-grid block as evaluate forms it
KERNEL_GRIDS = {
    "zeros": (np.array([0.0, -0.0, 1.0, -1.0, 0.5]), np.array([-0.0, 0.0, 1.0, -0.5, 0.25])),
    "nan": (np.array([np.nan, 0.0, -0.0, np.nan]), np.array([0.0, np.nan, -0.0, 0.75])),
    "block": (np.linspace(-1.0, 1.0, 129), np.polynomial.legendre.leggauss(256)[0]),
    "square": (np.linspace(-1.0, 1.0, 64),) * 2,
}


def assert_within_conditioning(basis, values, reference):
    """Per column, max|values - reference| <= quad_order eps (lam_0 / lam_k) max|phi_k|.

    Row blocks change the matmul's summation order and so its last bits: an eps-sized
    error in each kernel sum, amplified by the interpolant's 1 / lam_k.  Both arrays
    are NaN at the same points.
    """
    assert values.shape == reference.shape
    assert np.array_equal(np.isnan(values), np.isnan(reference))
    eps = np.finfo(float).eps
    bound = basis.grid.shape[0] * eps * (basis.lam[0] / basis.lam) * np.abs(basis.phi).max(axis=0)
    deviation = np.nan_to_num(np.abs(values - reference)).max(axis=0, initial=0.0)
    assert np.all(deviation <= bound)


def straddling_grid(n):
    """n points across [-1.5, 1.5] with the support ends -1 and 1 among them (n >= 3)."""
    z = np.linspace(-1.5, 1.5, n)
    for end in (-1.0, 1.0):
        z[np.argmin(np.abs(z - end))] = end
    return z


EVALUATION_GRIDS = {
    "1-inside": np.array([1.0]),
    "1-outside": np.array([-1.5]),
    **{str(n): straddling_grid(n) for n in (127, 128, 129, 257)},
    "257-shuffled": np.random.default_rng(0).permutation(straddling_grid(257)),
    "3143-psf": np.arange(0.0, np.pi + 1e-3, 1e-3),  # the psf command's z at c = 1
    "3143": straddling_grid(3143),
    "all-outside": np.concatenate([np.linspace(-4.0, -1.001, 150), np.linspace(1.001, 4.0, 150)]),
}
# (c, K, quad_order): the study default's neighbours, and bases whose row-blocked
# matmul differs from the full-height one in the last bits under OpenBLAS
EVALUATION_BASES = [
    (0.5, 7, 256), (1.0, 7, 256), (2.0, 7, 256), (4.0, 7, 256),
    (2.0, 12, 128), (1.0, 3, 64), (4.0, 16, 512), (8.0, 16, 1024),
]


@pytest.fixture(scope="module", params=EVALUATION_BASES, ids=lambda p: "c{}-K{}-n{}".format(*p))
def evaluation_basis(request):
    return build_basis(*request.param)


class TestBlockedEvaluation:
    """evaluate forms the kernel only inside the support, in row blocks, each projected on all K modes."""

    @pytest.mark.parametrize("grid", EVALUATION_GRIDS.values(), ids=EVALUATION_GRIDS.keys())
    def test_all_modes_and_zero_outside_the_support(self, evaluation_basis, grid):
        every = evaluation_basis.evaluate(grid)
        assert every.shape == (grid.shape[0], evaluation_basis.mode_count)
        outside = np.abs(grid) > 1.0
        assert np.all(every[outside] == 0.0) and not np.signbit(every[outside]).any()

    @pytest.mark.parametrize("grid", EVALUATION_GRIDS.values(), ids=EVALUATION_GRIDS.keys())
    def test_full_kernel_within_conditioning(self, evaluation_basis, grid):
        reference = full_kernel_evaluate(evaluation_basis, grid)
        assert_within_conditioning(evaluation_basis, evaluation_basis.evaluate(grid), reference)

    @pytest.mark.parametrize("state", [{}, {"over": "raise", "invalid": "raise"}], ids=["default", "cli"])
    @pytest.mark.parametrize("grid", KERNEL_GRIDS.values(), ids=KERNEL_GRIDS.keys())
    @pytest.mark.parametrize("c", [0.5, 1.0, 7.3])
    def test_sinc_kernel_is_the_where_formula_bit_for_bit(self, c, grid, state):
        # cli.execute runs in the raising state, where an unguarded 0 / 0 would exit 3
        x, y = grid
        expected = where_sinc_kernel(c, x, y)
        with warnings.catch_warnings(), np.errstate(**state):
            warnings.simplefilter("error")
            kernel = _sinc_kernel(c, x, y)
        assert kernel.tobytes() == expected.tobytes()
        assert np.array_equal(np.isnan(kernel), np.isnan(np.subtract.outer(x, y)))

    def test_support_ends_are_inside(self, basis_c1):
        values = basis_c1.evaluate(np.array([-1.0, 1.0]))
        assert np.all(values != 0.0)
        assert_within_conditioning(basis_c1, values, full_kernel_evaluate(basis_c1, [-1.0, 1.0]))

    def test_nan_points_stay_nan(self, basis_c1):
        grid = np.array([0.5, np.nan, 2.0, -0.25])
        values = basis_c1.evaluate(grid)
        assert np.isnan(values[1]).all() and not np.isnan(values[[0, 2, 3]]).any()
        assert np.all(values[2] == 0.0) and not np.signbit(values[2]).any()
        assert_within_conditioning(basis_c1, values, full_kernel_evaluate(basis_c1, grid))

    def test_reconstruction_psf_peak_memory(self, basis_c1):
        # the (n, K) modes plus block-sized temporaries; a (n, quad_order) kernel
        # alone, held for every point at once, would take 64 MB here
        z = np.arange(0.0, np.pi + 1e-4, 1e-4)
        assert z.shape[0] == 31417 and 1.0 in z
        reconstruction_psf(basis_c1, 7, z)
        tracemalloc.start()
        try:
            reconstruction_psf(basis_c1, 7, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestReconstructionPsf:
    def test_single_mode_profile(self, basis_c1):
        z = np.linspace(0.0, 1.0, 64)
        values = reconstruction_psf(basis_c1, 1, z)
        assert values[0] == pytest.approx(basis_c1.phi_at_zero[0] ** 2, rel=1e-12)
        assert np.all(values <= values[0] + 1e-12)

    def test_peak_grows_with_even_modes(self, basis_c1):
        peaks = [reconstruction_psf(basis_c1, q, 0.0) for q in range(1, 8)]
        # odd additions leave the origin value unchanged, even ones raise it
        assert peaks[1] == pytest.approx(peaks[0], rel=1e-12)
        assert peaks[2] > peaks[1]
        assert peaks[4] > peaks[3]
        assert peaks[6] > peaks[5]

    def test_out_of_range_modes(self, basis_c1):
        with pytest.raises(ValueError):
            reconstruction_psf(basis_c1, 0, 0.0)
        with pytest.raises(ValueError):
            reconstruction_psf(basis_c1, 8, 0.0)

    @pytest.mark.parametrize("q", range(1, 8))
    def test_half_width_within_support(self, basis_c1, q):
        # at Q <= 2 (c = 1) the PSF is still above half its peak at z = 1, the
        # support edge, so it halves exactly there
        curve = reconstruction_psf_curve(basis_c1, q)
        width = half_width(curve)
        if q <= 2:
            assert reconstruction_psf(basis_c1, q, 1.0) > curve.values[0] / 2.0
            assert width == 1.0
        else:
            assert width < 1.0

    def test_reference_half_width_q7(self, basis_c1):
        width = half_width(reconstruction_psf_curve(basis_c1, 7))
        assert width == pytest.approx(0.25, abs=0.01)


def brute_force_modes(basis, budget, epsilon):
    """Q and SNR the long way: a_k at one budget, then every Q from K down, summed afresh."""
    coeffs = math.sqrt(budget * epsilon) * basis.phi_at_zero
    for q in range(basis.mode_count, 0, -1):
        power = coeffs[:q] ** 2
        total = float(np.sum(power))
        if total > 0.0:
            value = total**2 / float(np.sum(power / basis.lam[:q]))
            if value >= 1.0:
                return q, value
    raise TooDim("no Q qualifies")


class TestPointObjectCoeffs:
    """a_k = sqrt(budget * epsilon) phi_k(0), seen through the SNR resolve_modes reports."""

    def test_odd_coefficients_vanish(self, basis_c1):
        # a zero odd coefficient adds nothing to either prefix sum: the SNR keeps its bits
        snr = [resolve_modes(basis_c1, 1e6, 0.01, forced_modes=q)[1] for q in range(1, 8)]
        assert snr[1] == snr[0] and snr[3] == snr[2] and snr[5] == snr[4]
        assert snr[2] != snr[1] and snr[4] != snr[3] and snr[6] != snr[5]

    def test_zero_budget(self, basis_c1):
        with pytest.raises(ValueError, match="finite and positive"):
            resolve_modes(basis_c1, 0.0, 0.01)

    def test_against_tophat_quadrature(self, basis_c1):
        # project the finite-width top hat numerically: the SNR at a forced Q must match
        budget, eps = 1e6, 0.01
        nodes, weights = np.polynomial.legendre.leggauss(20)
        z = 0.5 * eps * nodes
        w = 0.5 * eps * weights
        amplitude = math.sqrt(budget / eps)
        projected = amplitude * (w @ basis_c1.evaluate(z)[:, :7])
        for q in range(1, 8):
            power = projected[:q] ** 2
            expected = np.sum(power) ** 2 / np.sum(power / basis_c1.lam[:q])
            assert resolve_modes(basis_c1, budget, eps, forced_modes=q)[1] == pytest.approx(expected, rel=1e-3)

    def test_epsilon_validated(self, basis_c1):
        with pytest.raises(ValueError):
            resolve_modes(basis_c1, 1.0, 0.0)
        with pytest.raises(ValueError):
            resolve_modes(basis_c1, 1.0, 1.0)
        with pytest.raises(ValueError):
            resolve_modes(basis_c1, -1.0, 0.01)


class TestReconstructionSnr:
    def test_single_coefficient_collapse(self, basis_c1):
        budget, eps = 3e4, 0.01
        value = resolve_modes(basis_c1, budget, eps, forced_modes=1)[1]
        assert value == pytest.approx(budget * eps * basis_c1.phi_at_zero[0] ** 2 * basis_c1.lam[0], rel=1e-12)

    def test_appending_zero_keeps_value(self, basis_c1):
        assert resolve_modes(basis_c1, 1e5, 0.01, forced_modes=6)[1] == pytest.approx(
            resolve_modes(basis_c1, 1e5, 0.01, forced_modes=5)[1], rel=1e-12
        )

    def test_noisy_mode_reduces_snr(self, basis_c1):
        # a_4^2 / lambda_4 dominates its numerator gain for this budget
        snr5 = resolve_modes(basis_c1, 1e5, 0.01, forced_modes=5)[1]
        assert snr5 < resolve_modes(basis_c1, 1e5, 0.01, forced_modes=3)[1]

    def test_all_zero_raises(self, basis_c1):
        # a positive budget whose coefficients underflow to zero: no prefix qualifies
        assert math.sqrt(5e-324 * 0.01) * basis_c1.phi_at_zero[0] == 0.0
        with pytest.raises(TooDim):
            resolve_modes(basis_c1, 5e-324, 0.01)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0])
    def test_budget_must_be_finite_and_positive(self, basis_c1, budget):
        with pytest.raises(ValueError, match="budget must be finite and positive"):
            resolve_modes(basis_c1, budget, 0.01)
        with pytest.raises(ValueError, match="budget must be finite and positive"):
            resolve_modes(basis_c1, np.array([1e8, budget]), 0.01)

    def test_overflowing_snr_raises(self, basis_c1):
        with pytest.raises(FloatingPointError):
            resolve_modes(basis_c1, 1e300, 0.01)


class TestModeSelection:
    def test_huge_budget_saturates(self, basis_c1):
        assert resolve_modes(basis_c1, 1e16, 0.01)[0] == 7

    def test_too_dim(self, basis_c1):
        with pytest.raises(TooDim):
            resolve_modes(basis_c1, 10.0, 0.01)
        with pytest.raises(TooDim):  # one dim element fails the whole array
            resolve_modes(basis_c1, np.array([1e8, 10.0]), 0.01)

    def test_mode_count_nondecreasing_in_budget(self, basis_c1):
        counts = resolve_modes(basis_c1, np.geomspace(1e3, 1e15, 13), 0.01)[0]
        assert np.all(np.diff(counts) >= 0)

    @pytest.mark.parametrize("c,modes", [(1.0, 7), (2.0, 12)])
    @pytest.mark.parametrize("eps", [0.01, 0.3, 0.9])
    def test_array_call_equals_scalar_calls_and_brute_force(self, c, modes, eps):
        basis = build_basis(c, modes)
        budgets = np.geomspace(1e2, 1e15, 12 * 9).reshape(12, 9) / eps
        counts, snr = resolve_modes(basis, budgets, eps)
        assert counts.shape == snr.shape == budgets.shape
        assert len(set(counts.ravel().tolist())) >= 4
        for index, budget in np.ndenumerate(budgets):
            q, value = resolve_modes(basis, float(budget), eps)
            assert type(q) is int and type(value) is float
            assert (counts[index], snr[index]) == (q, value)
            q_ref, value_ref = brute_force_modes(basis, float(budget), eps)
            assert q == q_ref
            assert value == pytest.approx(value_ref, rel=1e-12)

    def test_forced_modes_pin_every_element(self, basis_c1):
        counts, snr = resolve_modes(basis_c1, np.array([10.0, 1e16]), 0.01, forced_modes=7)
        assert counts.tolist() == [7, 7]
        assert snr[0] < 1.0 <= snr[1]


class TestSuperresFactor:
    def test_reference_numbers_forced_q7(self, basis_c1):
        report = superres_factor(basis_c1, 1e9, 0.01, forced_modes=7)
        assert report.modes_kept == 7
        assert report.classical_width == pytest.approx(1.90, abs=0.01)
        assert report.recon_width == pytest.approx(0.25, abs=0.01)
        assert report.resolution_gain == pytest.approx(7.6, abs=0.3)

    def test_two_mode_gain_is_classical_width(self, basis_c1):
        report = superres_factor(basis_c1, 1e9, 0.01, forced_modes=2)
        assert report.recon_width == 1.0
        assert report.resolution_gain == report.classical_width

    def test_single_mode_gain_modestly_above_unity(self, basis_c1):
        report = superres_factor(basis_c1, 1e9, 0.01, forced_modes=1)
        assert 1.0 < report.resolution_gain < 2.5

    def test_gain_nondecreasing_in_budget(self, basis_c1):
        budgets = np.geomspace(1e4, 1e14, 11)
        reports = [superres_factor(basis_c1, b, 0.01) for b in budgets]
        gains = [r.resolution_gain for r in reports]
        widths = [r.recon_width for r in reports]
        assert np.all(np.diff(gains) >= 0.0)
        assert np.all(np.diff(widths) <= 0.0)
        assert all(r.classical_width == reports[0].classical_width for r in reports)

    def test_too_dim_propagates(self, basis_c1):
        with pytest.raises(TooDim):
            superres_factor(basis_c1, 1.0, 0.01)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_recon_width_is_half_width_of_the_psf_curve(self, c):
        basis = build_basis(c, 7, 256)
        for q in range(1, basis.mode_count + 1):
            report = superres_factor(basis, 1e9, 0.01, forced_modes=q)
            assert report.recon_width == half_width(reconstruction_psf_curve(basis, q))

    def test_resolve_modes_composes_mode_count_and_snr(self, basis_c1):
        for budget in np.geomspace(1e4, 1e14, 6):
            q, value = brute_force_modes(basis_c1, budget, 0.01)
            assert resolve_modes(basis_c1, budget, 0.01)[0] == q
            assert resolve_modes(basis_c1, budget, 0.01)[1] == pytest.approx(value, rel=1e-12)
            assert superres_factor(basis_c1, budget, 0.01).modes_kept == q
        assert resolve_modes(basis_c1, 1e4, 0.01, forced_modes=7)[0] == 7
        with pytest.raises(ValueError):
            resolve_modes(basis_c1, 1e4, 0.01, forced_modes=8)

    def test_mode_counts_may_be_whole_floats(self, basis_c1):
        z = np.linspace(0.0, 1.0, 9)
        assert reconstruction_psf(basis_c1, 3.0, z).tobytes() == reconstruction_psf(basis_c1, 3, z).tobytes()
        for budget in (1e4, np.array([1e4, 1e9])):
            forced = [resolve_modes(basis_c1, budget, 0.01, forced_modes=q) for q in (3.0, 3)]
            assert np.array_equal(forced[0][0], forced[1][0]) and np.array_equal(forced[0][1], forced[1][1])
        assert superres_factor(basis_c1, 1e9, 0.01, forced_modes=3.0) == superres_factor(
            basis_c1, 1e9, 0.01, forced_modes=3
        )
        for count in (2.5, 0):
            with pytest.raises(ValueError):
                reconstruction_psf(basis_c1, count, z)
            with pytest.raises(ValueError):
                resolve_modes(basis_c1, 1e4, 0.01, forced_modes=count)
            with pytest.raises(ValueError):
                superres_factor(basis_c1, 1e9, 0.01, forced_modes=count)


def export_basis_reference(basis):
    """The former ``prolate.export_basis`` body: the basis text it wrote, as a string."""
    k = basis.mode_count
    lam_text = " ".join(format(v, ".17g") for v in basis.lam)
    lines = [
        f"# prolate basis: c={basis.bandwidth:.17g} modes={k} quad_order={basis.grid.shape[0]}",
        f"# lambda: {lam_text}",
        "# columns: z weight " + " ".join(f"phi_{j}" for j in range(k)),
    ]
    row_template = " ".join(["%.17g"] * (k + 2))
    rows = zip(basis.grid.tolist(), basis.weights.tolist(), *basis.phi.T.tolist())
    lines.extend(row_template % row for row in rows)
    return "\n".join(lines) + "\n"


class TestExport:
    """The prolate-basis command's columnar text: a comment preamble, a columns line, then
    space-separated rows."""

    def test_roundtrip(self, tmp_path, basis_c1):
        out = tmp_path / "basis.txt"
        rc = cli.main(["prolate-basis", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# prolate basis: c=1 modes=7 quad_order=256"
        assert lines[2] == "# columns: z weight " + " ".join(f"phi_{k}" for k in range(7))
        assert lines[1].startswith("# lambda: ")
        lam = np.array([float(tok) for tok in lines[1].split()[2:]])
        assert np.array_equal(lam, basis_c1.lam)
        data = np.loadtxt(out)
        assert data.shape == (256, 9)
        z, w, phi = data[:, 0], data[:, 1], data[:, 2:]
        assert np.array_equal(z, basis_c1.grid)
        gram = (phi * w[:, None]).T @ phi
        assert np.abs(gram - np.eye(7)).max() < 1e-8

    @pytest.mark.parametrize("c, modes, quad_order", [(1.0, 7, 256), (2.0, 12, 128)])
    def test_text_equals_the_former_export(self, tmp_path, c, modes, quad_order):
        args = ["--c", str(c), "--modes", str(modes), "--quad-order", str(quad_order)]
        out = tmp_path / "basis.txt"
        rc = cli.main(["prolate-basis", *args, "--out", str(out)])
        assert rc == 0
        assert out.read_text() == export_basis_reference(build_basis(c, modes, quad_order))
