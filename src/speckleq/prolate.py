"""Prolate-spheroidal (Slepian) machinery for band-limited PSF reconstruction.

Eigenpairs of the integral operator with kernel
K(z, z') = sin(c (z - z')) / (pi (z - z')) on [-1, 1] are computed with a
Nystrom discretization on Gauss-Legendre nodes: the symmetrized matrix
sqrt(w_i) K(z_i, z_j) sqrt(w_j) shares the operator's eigenvalues, and the
eigenvector components divided by sqrt(w) sample the eigenfunctions, unit
normalized under the quadrature inner product.  The nodes and weights come
from numpy's own Gauss-Legendre algorithm, written out here so that no
command imports numpy.polynomial: companion-matrix eigenvalues, one Newton
step from P_n and P_n' (one Clenshaw pass for both), then weights from P_n'
and P_{n-1}; under numpy 2 they equal ``leggauss`` bit for bit.

The kernel commutes with the coordinate flip z -> -z, so the eigenproblem is
solved separately on the even and odd subspaces.  This keeps the parity of
every eigenfunction exact even where the spectrum is nearly degenerate at
the numerical floor (eigenvalues decay superexponentially, reaching ~1e-13
by k = 6 for c = 1).  Eigenfunctions vanish identically outside [-1, 1];
off-grid values inside the interval come from Nystrom interpolation, whose
sinc kernel is formed only for the points inside the support, in blocks of
at most 128 points, each projected on every mode as soon as it is formed.
Each kernel entry is one sin and one in-place division, c / pi over a 0 / 0.

Accuracy is certified against an independent eigenvalue source: the prolate
differential operator, which commutes with the kernel, is a symmetric
tridiagonal matrix in normalized Legendre polynomials (Bouwkamp 1947), and
the ratio formula of Xiao, Rokhlin & Yarvin (Inverse Problems 17, 2001)
turns its eigenvectors into the kernel's eigenvalues to relative accuracy.
Every retained Nystrom eigenvalue must agree with the series one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NoCrossing, TooDim, whole_count

_CERTIFICATE_TOL = 1e-9  # largest distance of a retained Nystrom eigenvalue from its series value
_SERIES_TAIL_TOL = 1e-12  # largest trailing Legendre coefficient of a retained series mode
_PSF_STEP = 1e-3  # z spacing of the sampled PSF curves; z = 1, the support edge, is a sample
_KERNEL_BLOCK_ROWS = 128  # evaluation points per sinc-kernel block; bounds the temporaries


def _sinc_kernel(bandwidth: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel matrix sin(c (x - y)) / (pi (x - y)), divided in place; c / pi written over each 0 / 0."""
    diff = np.subtract.outer(np.atleast_1d(x), np.atleast_1d(y))
    kernel = np.sin(bandwidth * diff)
    diff *= np.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel /= diff
    kernel[diff == 0.0] = bandwidth / np.pi
    return kernel


def _legval(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_l coef[l] P_l(x) by numpy's Clenshaw recurrence (legval), its products grouped alike."""
    nd = coef.shape[0]
    c0, c1 = coef[-2], coef[-1]
    for i in range(3, nd + 1):
        tmp, nd = c0, nd - 1
        c0 = coef[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: numpy 2's leggauss(order), bit for bit.

    One Clenshaw pass gives P_n and P_n' with legval's bits: P_n' gets a zero leading term, whose step is exact.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    companion, i = np.zeros((order, order)), np.arange(order - 1)  # the symmetric companion matrix of P_order
    companion[i, i + 1] = companion[i + 1, i] = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(companion)
    coef = np.zeros((order + 1, 2, 1))  # columns P_n and P_n' = sum (2k + 1) P_k, k = n - 1, n - 3, ...
    coef[order, 0] = 1.0
    coef[order - 1 :: -2, 1, 0] = np.arange(2 * order - 1, 0, -4)
    pn, df = _legval(x, coef)
    x -= pn / df  # one Newton step
    fm = _legval(x, coef[1:, 0, 0])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2.0 / w.sum())


def _kernel_z_derivative(bandwidth: float, x: float, y: np.ndarray) -> np.ndarray:
    """d/dx of the kernel at (x, y); only used away from the diagonal."""
    diff = x - y
    return (bandwidth * diff * np.cos(bandwidth * diff) - np.sin(bandwidth * diff)) / (np.pi * diff**2)


class ProlateBasis(NamedTuple):
    """Slepian eigenpairs of the sinc kernel on [-1, 1].

    ``phi`` holds the eigenfunction samples on the Gauss-Legendre grid,
    columns ordered by descending eigenvalue; ``phi_at_zero`` stores the
    center values (exactly zero for odd modes).  Signs follow
    phi_k(0) > 0 for even k and phi_k'(0) > 0 for odd k.
    ``convergence_shift``: largest distance of ``lam`` from the Legendre-series
    eigenvalues, certified <= 1e-9 (nan if none).
    """

    bandwidth: float
    grid: np.ndarray
    weights: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    phi_at_zero: np.ndarray
    convergence_shift: float = float("nan")

    @property
    def mode_count(self) -> int:
        return self.lam.shape[0]

    def evaluate(self, z) -> np.ndarray:
        """Sample every phi_k(z); +0.0 outside [-1, 1].  Shape: (len(z), K).

        Nystrom interpolation, exact at the quadrature nodes.  The weighted sinc kernel is formed
        for the points with |z| <= 1 (NaN included) in blocks of at most 128 rows, each projected
        on all K modes at once; callers that keep q modes slice the first q columns.
        """
        pts = np.atleast_1d(np.asarray(z, dtype=float))
        inside = np.flatnonzero(~(np.abs(pts) > 1.0))  # NaN points count as inside and stay NaN
        values = np.zeros((pts.shape[0], self.mode_count))
        for start in range(0, inside.shape[0], _KERNEL_BLOCK_ROWS):
            rows = inside[start : start + _KERNEL_BLOCK_ROWS]
            kernel = _sinc_kernel(self.bandwidth, pts[rows], self.grid)
            kernel *= self.weights
            values[rows] = kernel @ self.phi / self.lam
        return values


def _solve_spectrum(bandwidth: float, quad_order: int, num_modes: int):
    """The num_modes leading eigenpairs, from one eigh per parity block of the half grid."""
    nodes, weights = _gauss_legendre(quad_order)
    half = quad_order // 2
    nodes_pos = nodes[half:]
    sqrt_w = np.sqrt(weights[half:])
    direct = _sinc_kernel(bandwidth, nodes_pos, nodes_pos)
    mirrored = _sinc_kernel(bandwidth, nodes_pos, -nodes_pos)  # both parity blocks share them
    lams, vecs = [], []
    for sign in (+1.0, -1.0):
        kern = direct + sign * mirrored
        sym = sqrt_w[:, None] * kern * sqrt_w[None, :]
        lam, vec = np.linalg.eigh(0.5 * (sym + sym.T))
        lams.append(lam[::-1])  # descending within the block
        vecs.append(vec[:, ::-1])
    lam = np.concatenate(lams)
    order = np.argsort(-lam, kind="stable")[:num_modes]  # an even-odd tie keeps the even mode first
    parity = np.where(order < half, 1.0, -1.0)
    half_samples = np.hstack(vecs)[:, order] / sqrt_w[:, None] / np.sqrt(2.0)  # unit L2 norm on [-1, 1]
    # C order: the layout of phi changes the bits of the matmul in ProlateBasis.evaluate
    phi = np.ascontiguousarray(np.concatenate([parity * half_samples[::-1], half_samples]))
    return nodes, weights, lam[order], phi, parity


def _series_eigenvalues(bandwidth: float, num_modes: int, quad_order: int) -> np.ndarray:
    """The num_modes leading kernel eigenvalues from the Legendre series, in descending order.

    The prolate operator -(d/dz)(1 - z^2)(d/dz) + c^2 z^2 in the normalized
    Legendre polynomials sqrt(l + 1/2) P_l of one parity (l = parity, parity + 2, ...)
    is symmetric tridiagonal; its eigenvectors beta, by ascending eigenvalue,
    are the Legendre coefficients of that parity's modes in descending lam.
    With unit-norm beta and beta_l the coefficient of degree l,
    lam = c beta_0^2 / (pi phi(0)^2) for even modes and
    lam = c^3 beta_1^2 / (3 pi phi'(0)^2) for odd ones; even and odd modes
    interleave (lam_0 even, lam_1 odd, ...).  The series has
    num_modes + ceil(c) + 16 terms per parity, capped at quad_order;
    ConvergenceError if the retained modes' trailing coefficients have not
    fallen below 1e-12 within it.
    """
    lam, tail = np.empty(num_modes), np.inf
    # quad_order terms per parity reach degree 2 quad_order - 1, and the
    # coefficients of a mode of bandwidth c only start to fall past degree ~c;
    # uncapped, the length below leaves tails below 1e-30 for c <= 300, K <= 128
    if bandwidth < 2 * quad_order:
        terms = min(quad_order, num_modes + int(np.ceil(bandwidth)) + 16)
        c2 = bandwidth * bandwidth
        # P_2m(0) = -(2m - 1) / (2m) P_2m-2(0), and P_l'(0) = l P_l-1(0) for odd l
        m = np.arange(1, terms)
        p_even = np.cumprod(np.concatenate([[1.0], (1.0 - 2.0 * m) / (2.0 * m)]))
        tail = 0.0
        for parity in (0, 1):
            degree = parity + 2.0 * np.arange(terms)
            diag = degree * (degree + 1.0) + c2 * (2.0 * degree * (degree + 1.0) - 1.0) / (
                (2.0 * degree + 3.0) * (2.0 * degree - 1.0)
            )
            low = degree[:-1]
            off = c2 * (low + 1.0) * (low + 2.0) / (
                (2.0 * low + 3.0) * np.sqrt((2.0 * low + 1.0) * (2.0 * low + 5.0))
            )
            matrix = np.diag(diag)  # one terms x terms array: the cap bounds the memory
            i = np.arange(terms - 1)
            matrix[i, i + 1] = matrix[i + 1, i] = off
            beta = np.linalg.eigh(matrix)[1][:, : (num_modes + 1 - parity) // 2]
            center = (np.sqrt(degree + 0.5) * p_even * (degree if parity else 1.0)) @ beta
            scale = bandwidth / np.pi if parity == 0 else bandwidth**3 / (3.0 * np.pi)
            lam[parity::2] = scale * beta[0] ** 2 / center**2
            tail = max(tail, float(np.abs(beta[-1]).max(initial=0.0)))
    if tail > _SERIES_TAIL_TOL:
        raise ConvergenceError(
            f"the Legendre series for c={bandwidth:g} needs more than quad_order={quad_order} "
            "terms per parity to resolve the retained modes; raise quad_order"
        )
    return lam


def build_basis(bandwidth: float, num_modes: int, quad_order: int = 256) -> ProlateBasis:
    """Nystrom-discretized Slepian basis, certified against Legendre-series eigenvalues.

    Raises ConvergenceError when the series does not converge within
    quad_order terms per parity, when any retained Nystrom eigenvalue lies
    more than 1e-9 from its series value, or when the requested modes dig
    into the numerical noise floor (non-positive or non-decreasing tail).
    """
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    num_modes, quad_order = whole_count(num_modes, "num_modes"), whole_count(quad_order, "quad_order")
    if quad_order % 2 != 0:
        raise ValueError("quad_order must be even (the parity split needs symmetric nodes)")
    if num_modes > quad_order // 4:
        raise ValueError(
            f"num_modes={num_modes} exceeds quad_order/4={quad_order // 4}; raise quad_order"
        )

    lam_series = _series_eigenvalues(bandwidth, num_modes, quad_order)
    nodes, weights, lam, phi, parity = _solve_spectrum(bandwidth, quad_order, num_modes)
    shift = float(np.max(np.abs(lam - lam_series)))
    if shift > _CERTIFICATE_TOL:
        raise ConvergenceError(
            f"Nystrom eigenvalues lie {shift:.3e} from the Legendre-series ones "
            f"(tolerance {_CERTIFICATE_TOL:.1e}); raise quad_order"
        )
    if lam[0] >= 1.0 or lam[-1] <= 0.0 or np.any(np.diff(lam) >= 0.0):
        advice = (
            f"bandwidth c={bandwidth:g} is too large to resolve lam_0 below 1 in double precision"
            if lam[0] >= 1.0
            else "reduce num_modes"
        )
        raise ConvergenceError(
            "retained eigenvalues must lie in (0, 1) and decrease strictly; "
            f"got lam[0]={float(lam[0])!r}, lam[-1]={float(lam[-1])!r} - {advice}"
        )

    # sign conventions: phi_k(0) > 0 (even k), phi_k'(0) > 0 (odd k); parity is
    # exact by construction, so center values of odd modes are exactly zero.
    phi_at_zero = np.zeros(num_modes)
    center_kernel = _sinc_kernel(bandwidth, np.array([0.0]), nodes)[0]
    center_slope = _kernel_z_derivative(bandwidth, 0.0, nodes)
    for k in range(num_modes):
        if parity[k] > 0:
            value = float((center_kernel * weights) @ phi[:, k] / lam[k])
            if value < 0.0:
                phi[:, k] = -phi[:, k]
                value = -value
            phi_at_zero[k] = value
        else:
            slope = float((center_slope * weights) @ phi[:, k] / lam[k])
            if slope < 0.0:
                phi[:, k] = -phi[:, k]
    return ProlateBasis(
        bandwidth=float(bandwidth),
        grid=nodes,
        weights=weights,
        lam=lam,
        phi=phi,
        phi_at_zero=phi_at_zero,
        convergence_shift=shift,
    )


def classical_psf(bandwidth: float, z):
    """Diffraction-limited PSF sin(c z) / (pi z), with limit c / pi at z = 0."""
    scaled = np.asarray(z, dtype=float) * (bandwidth / np.pi)
    values = (bandwidth / np.pi) * np.sinc(scaled)
    return float(values) if np.isscalar(z) else values


def reconstruction_psf(basis: ProlateBasis, modes_kept: int, z):
    """Reconstruction PSF for a point source at the origin: sum_k phi_k(0) phi_k(z).

    Odd modes vanish at the origin and drop out identically.
    """
    modes_kept = whole_count(modes_kept, "modes_kept")
    if modes_kept > basis.mode_count:
        raise ValueError(f"modes_kept must lie in [1, {basis.mode_count}]")
    values = basis.evaluate(z)[:, :modes_kept] @ basis.phi_at_zero[:modes_kept]
    return float(values[0]) if np.isscalar(z) else values


class PsfCurve:
    """Densely sampled PSF profile for z >= 0 with its peak at z = 0."""

    __slots__ = ("z", "values")

    def __init__(self, z: np.ndarray, values: np.ndarray) -> None:
        self.z, self.values = np.asarray(z, dtype=float), np.asarray(values, dtype=float)
        if self.z.ndim != 1 or self.z.shape != self.values.shape or self.z.shape[0] < 2:
            raise ValueError("curve needs matching 1-D z and value arrays with >= 2 samples")
        if self.z[0] != 0.0 or np.any(np.diff(self.z) <= 0.0):
            raise ValueError("z samples must start at 0 and increase strictly")


def classical_psf_curve(bandwidth: float) -> PsfCurve:
    """Classical PSF sampled from the peak to its first zero at pi / c."""
    z = np.arange(0.0, np.pi / bandwidth + _PSF_STEP, _PSF_STEP)
    return PsfCurve(z, classical_psf(bandwidth, z))


def _reconstruction_z() -> np.ndarray:
    """z samples of a reconstruction PSF curve: the support [0, 1], then (1, 1.05]."""
    return np.arange(0.0, 1.05 + _PSF_STEP, _PSF_STEP)


def reconstruction_psf_curve(basis: ProlateBasis, modes_kept: int) -> PsfCurve:
    """Reconstruction PSF sampled on [0, 1.05]: the support [0, 1], then exact zeros."""
    z = _reconstruction_z()
    return PsfCurve(z, reconstruction_psf(basis, modes_kept, z))


def half_width(curve: PsfCurve) -> float:
    """Smallest z > 0 where the curve drops to half its z = 0 peak.

    Brackets the crossing on the sampled grid and solves the linear
    interpolant inside the bracketing cell (absolute tolerance well below
    1e-6 for the 1e-3 grids produced here).  A curve that is exactly zero
    from the first sample below half onward has left its support there: it
    drops at the last sample before, the support edge, and is not
    interpolated across the jump.  So a reconstruction PSF still above half
    its peak at z = 1 (Q <= 2 at c = 1) has half-width exactly 1.
    """
    peak = curve.values[0]
    if not peak > 0.0:
        raise ValueError("curve must have a positive peak at z = 0")
    target = peak / 2.0
    below = np.nonzero(curve.values < target)[0]
    if below.shape[0] == 0:
        raise NoCrossing("curve never falls below half of its peak on the sampled range")
    i = int(below[0])
    z_lo, z_hi = curve.z[i - 1], curve.z[i]
    v_lo, v_hi = curve.values[i - 1], curve.values[i]
    if not curve.values[i:].any():
        return float(z_lo)
    return float(z_lo + (target - v_lo) * (z_hi - z_lo) / (v_hi - v_lo))


class ReconstructionReport(NamedTuple):
    """Resolution summary: classical vs reconstruction PSF half-widths, per budget of :func:`superres_factor`."""

    modes_kept: int
    classical_width: float
    recon_width: float
    resolution_gain: float


def checked_budget(budget, epsilon: float) -> np.ndarray:
    """The budget as a float array; ValueError unless it is finite and positive and 0 < epsilon < 1."""
    budget = np.asarray(budget, dtype=float)
    if not np.all(np.isfinite(budget) & (budget > 0.0)):
        raise ValueError("budget must be finite and positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return budget


def resolve_modes(basis: ProlateBasis, budget, epsilon: float, forced_modes: int | None = None):
    """SNR-limited mode count Q (unless ``forced_modes`` pins it) and its SNR for a point object.

    The object is a top hat of amplitude sqrt(budget / epsilon) over |z| < epsilon / 2, so in
    the narrow-width limit a_k = sqrt(budget * epsilon) * phi_k(0), zero for odd k.  The SNR of
    the reconstruction from the first Q modes is (sum a^2)^2 / sum(a^2 / lambda); every prefix
    is summed at once, and Q is the largest with SNR >= 1.  A zero odd coefficient leaves the
    SNR unchanged, so ties go to the larger Q; a prefix whose sums underflow never qualifies,
    and an SNR that overflows raises FloatingPointError.  A scalar budget gives (int, float),
    an array one Q and one SNR per element.  Raises ValueError unless every budget is finite
    and positive, and TooDim when no Q qualifies.
    """
    budget = checked_budget(budget, epsilon)
    if forced_modes is not None:
        forced_modes = whole_count(forced_modes, "forced_modes")
        if forced_modes > basis.mode_count:
            raise ValueError(f"forced_modes must lie in [1, {basis.mode_count}]")
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        power = (np.sqrt(budget[..., None] * epsilon) * basis.phi_at_zero) ** 2
        snr = np.cumsum(power, axis=-1) ** 2 / np.cumsum(power / basis.lam, axis=-1)
        qualifies = snr >= 1.0
    if forced_modes is not None:
        modes_kept = np.full(budget.shape, forced_modes)
    elif not np.all(qualifies.any(axis=-1)):
        raise TooDim("reconstruction SNR stays below 1 even for a single mode")
    else:
        modes_kept = basis.mode_count - np.argmax(qualifies[..., ::-1], axis=-1)
    snr = np.take_along_axis(snr, np.expand_dims(modes_kept - 1, -1), -1)[..., 0]
    return (int(modes_kept), float(snr)) if budget.ndim == 0 else (modes_kept, snr)


def superres_factor(
    basis: ProlateBasis, budget, epsilon: float, *, forced_modes: int | None = None
) -> ReconstructionReport:
    """Super-resolution factor J = W / W_Q for a point object at the origin, per budget.

    One :func:`resolve_modes` call chooses every budget's Q and W is resolved once; one
    :meth:`ProlateBasis.evaluate` call samples the modes on the curve grid, summed once per
    distinct Q as :func:`reconstruction_psf` sums them, so W_Q equals
    half_width(reconstruction_psf_curve(basis, Q)) bit for bit.  A scalar budget gives int and
    float fields, a 1-D budget array one array element per budget in each field.
    """
    modes_kept = resolve_modes(basis, budget, epsilon, forced_modes)[0]
    classical_w = half_width(classical_psf_curve(basis.bandwidth))
    z = _reconstruction_z()
    modes = basis.evaluate(z)
    distinct_q, which = np.unique(np.ravel(modes_kept), return_inverse=True)
    widths = [half_width(PsfCurve(z, modes[:, :q] @ basis.phi_at_zero[:q])) for q in distinct_q.tolist()]
    if np.ndim(modes_kept) == 0:
        return ReconstructionReport(modes_kept, classical_w, widths[0], classical_w / widths[0])
    recon_w = np.array(widths)[which]
    return ReconstructionReport(modes_kept, np.full(recon_w.shape, classical_w), recon_w, classical_w / recon_w)

