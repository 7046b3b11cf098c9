"""Test oracles: slow or scalar references that no run uses.

Each one checks a fast path that runs take, and shares no arithmetic with
it. They live here, off the import path of the ``biphoton`` command, so no
run compiles them:

- the scalar disk transform on composite Gauss-Legendre panels, the
  reference of ``analytic.disk_transform_table``, and the closed-form
  stage-by-stage fields of the two pinhole-readout trains;
- the dense pair-state chain (``TwoPhotonAmplitude``, ``kernel_of``,
  ``evolve``), O(n^3), the reference of ``forward.forward_young``;
- the scalar detection probabilities and reversed intensities of the mode
  check and their random instances, the reference of the stacked
  arithmetic of ``modes.time_reversal_audit``.

Tests import them from here. The few names ``perfbench`` reaches in
``analytic``, ``forward`` and ``modes`` resolve there on first use (a
module ``__getattr__``).
"""
from __future__ import annotations

from typing import Union

import numpy as np

from . import analytic
from ._value import Value, asdict
from .analytic import FocusParams, YoungParams, _disk_arguments
from .elements import (
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
    Magnifier,
    OffsetChirp,
    OpticalElement,
    _flip_index,
    _offset_chirp,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    QuadratureError,
    UnsupportedElementError,
)
from .grid import Grid1D


# ---------------------------------------------------------------- disk transform

# The 8-point Gauss-Legendre rule bit for bit as np.polynomial.legendre.leggauss(8)
# gives it (nodes odd, weights even); written out so that importing the
# package does not load numpy.polynomial.
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
# The disk quadrature accepts a value when two panel doublings agree to
# QUAD_ATOL + QUAD_RTOL*|J|, and gives up past MAX_PANELS panels.
QUAD_RTOL = 1e-9
QUAD_ATOL = 1e-9
MAX_PANELS = 65536


def uniform_disk_transform(b: float, c: float, R: float) -> complex:
    """Dimensionless chirped transform of a uniform disk of radius R.

    Evaluates J = (2/R^2) * integral_0^R rho J0(b rho) exp(-i c rho^2) d rho,
    the azimuthally reduced form of the disk integral
    (1/(pi R^2)) * integral_{|r|<=R} exp(-i c |r|^2 - i b x) dr.
    J(0, 0) = 1; J(b, 0) = 2 J1(bR)/(bR); J(0, c) with g = c R^2 is
    exp(-i g/2) sinc(g/2).

    Composite 8-point Gauss-Legendre panels, doubled from 256 until two
    refinements agree to ``QUAD_ATOL + QUAD_RTOL*|J|``.

    Raises
    ------
    NonFiniteError
        If ``b*R`` or ``c*R*R`` is not finite.
    QuadratureError
        If the doubling sequence passes ``MAX_PANELS`` without converging.
    """
    beta, gamma = _disk_arguments(b, c, R)
    prev = None
    panels = 256
    while panels <= MAX_PANELS:
        half = 0.5 / panels
        centers = (2 * np.arange(panels) + 1) * half
        t = centers[:, None] + half * _GL_NODES[None, :]
        # j0 is looked up on ``analytic`` per call, so a j0 patched there
        # (perfbench/tracer.py counts its nodes) sees these calls too
        val = 2 * half * np.sum(_GL_WEIGHTS * t * analytic.j0(beta * t)
                                * np.exp(-1j * gamma * t * t))
        if prev is not None and abs(val - prev) <= QUAD_ATOL + QUAD_RTOL * abs(val):
            return complex(val)
        prev = val
        panels *= 2
    raise QuadratureError(
        f"disk transform did not converge below {QUAD_ATOL:.1e}+{QUAD_RTOL:.1e}*|J| "
        f"within {MAX_PANELS} panels (b={b:.3g}, c={c:.3g}, R={R:.3g})")


# ---------------------------------------------------------------- staged fields

class DeltaComb(Value):
    """Ideal point sources: a field proportional to sum_i w_i delta(x - loc_i).

    ``locations`` holds floats (1-D planes) or (x, y) pairs (2-D planes).
    """

    locations: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.locations) != len(self.weights):
            raise ConfigurationError("locations and weights must have equal length")


StageField = Union[complex, DeltaComb]


def _check_stage(stage: int, L1: float, L2: float) -> None:
    if stage not in range(6):
        raise ConfigurationError(f"stage must be 0..5, got {stage}")
    if not (L1 > 0 and L2 > 0):
        raise ConfigurationError(f"path lengths must be > 0, got L1={L1}, L2={L2}")


def young_stage_field(stage: int, x: float, x0: float, p: YoungParams,
                      L1: float, L2: float) -> StageField:
    """Closed-form field after each stage of the pinhole-readout slit train.

    Point source at x0, delta slits; constants are dropped. Stages:
    0 source, 1 slit plane (after the first lens), 2 behind the slits,
    3 crystal plane (after the L1 path and second lens, a demagnifier by
    -f/L1), 4 second harmonic, 5 far field over L2. Stages 0 and 2-4 are
    point combs and return a DeltaComb; stages 1 and 5 return the complex
    field at ``x``. The squared modulus of stage 5 at x=0 is the half-period
    fringe in x0.
    """
    _check_stage(stage, L1, L2)
    wl = p.wavelength
    theta = 2 * np.pi * x0 * p.x1 / (p.f * wl)
    x_img = p.x1 * p.f / L1
    if stage == 0:
        return DeltaComb((x0,), (1 + 0j,))
    if stage == 1:
        return complex(np.exp(-2j * np.pi * x0 * x / (p.f * wl)))
    if stage == 2:
        return DeltaComb((p.x1, -p.x1), (np.exp(-1j * theta), np.exp(1j * theta)))
    if stage == 3:
        return DeltaComb((-x_img, x_img), (np.exp(-1j * theta), np.exp(1j * theta)))
    if stage == 4:
        # SHG squares each weight; the second harmonic is at wl/2.
        return DeltaComb((-x_img, x_img), (np.exp(-2j * theta), np.exp(2j * theta)))
    spatial = 4 * np.pi * p.f * p.x1 * x / (L1 * L2 * wl)
    return complex(2 * np.cos(2 * theta - spatial))


def focus_stage_field(stage: int, r, r0, z0: float, p: FocusParams,
                      L1: float, L2: float) -> StageField:
    """Closed-form field after each stage of the pinhole-readout focus train.

    Point source at lateral r0 = (x, y) and axial offset z0, hard aperture D.
    Stages: 0 source, 1 back focal plane of the first lens, 2 behind the
    aperture, 3 crystal plane (demagnified by -f/L1), 4 second harmonic,
    5 far field over L2 at position r. Amplitude factors follow the
    power-preserving element conventions (relative factor 1 + z0/f); the
    squared modulus of stage 5 at r=0 matches spot_offaxis_two_photon up to
    one global constant.
    """
    _check_stage(stage, L1, L2)
    if abs(z0) >= p.f:
        raise DomainError(f"axial offset must satisfy |z0| < f = {p.f}")
    wl = p.wavelength
    f = p.f
    factor = 1 + z0 / f
    if stage == 0:
        return DeltaComb((tuple(r0),), (1 + 0j,))
    x0, y0 = r0
    if stage in (1, 2):
        x, y = r
        rsq = x * x + y * y
        val = factor * np.exp(-1j * np.pi * z0 * rsq / (f**2 * wl)) \
            * np.exp(-2j * np.pi * (x0 * x + y0 * y) / (f * wl))
        if stage == 2 and rsq > (p.D / 2) ** 2:
            return 0j
        return complex(val)
    mag = L1 / f                      # 1/|M| for the -f/L1 demagnifier
    R_crystal = f * p.D / (2 * L1)
    chirp = np.pi * z0 * L1**2 / (f**4 * wl)
    lin = 2 * np.pi * L1 / (f**2 * wl)
    if stage in (3, 4):
        x, y = r
        rsq = x * x + y * y
        if rsq > R_crystal**2:
            return 0j
        val = mag * factor * np.exp(-1j * chirp * rsq) \
            * np.exp(1j * lin * (x0 * x + y0 * y))
        return complex(val if stage == 3 else val * val)
    x, y = r
    ux = 4 * np.pi * x / (L2 * wl) - 2 * lin * x0
    uy = 4 * np.pi * y / (L2 * wl) - 2 * lin * y0
    J = uniform_disk_transform(float(np.hypot(ux, uy)), 2 * chirp, R_crystal)
    return complex((mag * factor) ** 2 * np.pi * R_crystal**2 * J)


# ---------------------------------------------------------------- dense pair chain

# Elements that are one far-field relay over their one length
_RELAYS = (FourierLens, FreeSpaceFourier)


class TwoPhotonAmplitude(Value, eq=False):
    """Symmetric pair amplitude psi(x_i, x_j) on a 1-D grid (units 1/m).

    Exchange symmetry psi = psi^T is required exactly; ``evolve`` keeps it
    by explicit symmetrization. ``forward_young`` streams its state in row
    blocks and never builds one of these.
    """

    grid: Grid1D
    psi: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.complex128)
        n = self.grid.n
        if psi.shape != (n, n):
            raise GridMismatchError(f"psi shape {psi.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(psi)):
            raise ValueError("pair amplitudes must be finite")
        if not np.array_equal(psi, psi.T):
            raise ValueError("pair amplitude must be exchange-symmetric (psi == psi.T)")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


class SingleParticleKernel(Value, eq=False):
    """Matrix of one linear element acting on one photon: out = K @ in."""

    grid_in: Grid1D
    grid_out: Grid1D
    K: np.ndarray

    def __post_init__(self):
        K = np.array(self.K, dtype=np.complex128)
        if K.shape != (self.grid_out.n, self.grid_in.n):
            raise GridMismatchError(
                f"kernel shape {K.shape} does not match grids "
                f"({self.grid_out.n}, {self.grid_in.n})")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)


def spdc_initial(grid: Grid1D) -> TwoPhotonAmplitude:
    """Ideal position-correlated pair: psi(i, j) = delta_ij / dx.

    Both photons sit at the same sample with uniform marginal; infinite
    phase-matching bandwidth is assumed.
    """
    return TwoPhotonAmplitude(grid, np.eye(grid.n, dtype=complex) / grid.dx)


def _relay_kernel(grid: Grid1D, dist: float, wavelength: float):
    dx_out = dist * wavelength / (grid.n * grid.dx)
    grid_out = Grid1D(grid.n, dx_out)
    x_out = grid_out.coords
    K = np.exp(-2j * np.pi * np.outer(x_out, grid.coords) / (dist * wavelength)) \
        * (grid.dx / np.sqrt(dist * wavelength))
    return grid_out, K


def kernel_of(element: OpticalElement, grid: Grid1D,
              wavelength: float) -> SingleParticleKernel:
    """Sampled matrix of a linear element on a 1-D grid.

    Integral kernels carry the dx quadrature weight, so ``K @ amp``
    reproduces the corresponding field operation. Nonlinear or terminal
    elements (SHG, PinholeSample) and inherently 2-D ones have no 1-D
    matrix and are rejected.
    """
    if isinstance(element, _RELAYS):
        (dist,) = asdict(element).values()
        grid_out, K = _relay_kernel(grid, dist, wavelength)
        return SingleParticleKernel(grid, grid_out, K)
    if isinstance(element, (DoubleSlit, OffsetChirp)):  # diagonal
        diag = (element.mask(grid) if isinstance(element, DoubleSlit)
                else (1 + element.z / element.f)
                * _offset_chirp(grid, element.z, element.f, wavelength))
        return SingleParticleKernel(grid, grid, np.diag(diag).astype(complex))
    if isinstance(element, Magnifier):
        M = element.M
        a = abs(M)
        grid_out = Grid1D(grid.n, a * grid.dx)
        K = np.zeros((grid.n, grid.n), dtype=complex)
        rows = np.arange(grid.n)
        cols = _flip_index(grid.n) if M < 0 else rows
        K[rows, cols] = 1 / np.sqrt(a)
        return SingleParticleKernel(grid, grid_out, K)
    raise UnsupportedElementError(
        f"no 1-D single-particle matrix for {type(element).__name__}")


def evolve(state: TwoPhotonAmplitude, k: SingleParticleKernel) -> TwoPhotonAmplitude:
    """Apply the kernel to each photon: psi' = K psi K^T (then symmetrize)."""
    if state.grid != k.grid_in:
        raise GridMismatchError("state grid does not match kernel input grid")
    d = np.diagonal(k.K)
    if k.grid_out == state.grid and np.array_equal(k.K, np.diag(d)):
        a = d[:, None] * state.psi * d[None, :]  # diagonal kernel, O(n^2)
    else:
        a = k.K @ state.psi @ k.K.T
    return TwoPhotonAmplitude(k.grid_out, (a + a.T) / 2)


def coincidence_diagonal(state: TwoPhotonAmplitude) -> np.ndarray:
    """Both-photons-at-one-point counting rate 2 |psi(k, k)|^2, unnormalized."""
    return 2 * np.abs(np.diagonal(state.psi)) ** 2


# ---------------------------------------------------------------- scalar mode check

class TwoPhotonCoeff(Value, eq=False):
    """Pair-emission coefficients f(s1, s2) for one pump mode.

    Exchange symmetry f == f.T must hold exactly; 2 sum|f|^2 = 1 fixes the
    total pair-emission probability to one.
    """

    f: np.ndarray

    def __post_init__(self):
        f = np.array(self.f, dtype=np.complex128)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 1:
            raise ValueError(f"coefficients must be a square matrix, got {f.shape}")
        if not np.array_equal(f, f.T):
            raise ValueError("pair coefficients must be exchange-symmetric (f == f.T)")
        total = 2 * np.sum(np.abs(f) ** 2)
        if abs(total - 1) > 1e-12:
            raise ValueError(f"2*sum|f|^2 = {total!r}, expected 1 within 1e-12")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    @property
    def n_modes(self) -> int:
        return self.f.shape[0]


class FinalMode(Value, eq=False):
    """Normalized single-photon mode function over the N mode labels."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.complex128)
        if psi.ndim != 1 or psi.size < 1:
            raise ValueError("mode function must be a nonempty vector")
        norm = np.linalg.norm(psi)
        if abs(norm - 1) > 1e-12:
            raise ValueError(f"mode function norm {norm!r} is not 1 within 1e-12")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


def _coeff_from_rng(n: int, rng: np.random.Generator) -> TwoPhotonCoeff:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = (g + g.T) / 2
    return TwoPhotonCoeff(g / np.sqrt(2 * np.sum(np.abs(g) ** 2)))


def random_coeff(n: int, seed: int) -> TwoPhotonCoeff:
    """Random normalized symmetric coefficient matrix, deterministic per seed."""
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    return _coeff_from_rng(n, np.random.default_rng(seed))


def _mode_from_rng(n: int, rng: np.random.Generator) -> FinalMode:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return FinalMode(v / np.linalg.norm(v))


def random_mode(n: int, seed: int) -> FinalMode:
    """Random normalized mode function, deterministic per seed."""
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    return _mode_from_rng(n, np.random.default_rng(seed))


def _check_index(fc: TwoPhotonCoeff, s_f: int) -> None:
    if not 0 <= s_f < fc.n_modes:
        raise IndexError(f"mode index {s_f} out of range for N={fc.n_modes}")


def forward_prob_single(fc: TwoPhotonCoeff, s_f: int) -> float:
    """Probability of finding both photons in mode s_f: 2 |f(s_f, s_f)|^2."""
    _check_index(fc, s_f)
    return float(2 * np.abs(fc.f[s_f, s_f]) ** 2)


def pair_overlap(fc: TwoPhotonCoeff, f1: FinalMode, f2: FinalMode) -> complex:
    """Contraction sum_{s1 s2} psi_f1*(s1) psi_f2*(s2) f(s1, s2)."""
    return complex(f1.psi.conj() @ fc.f @ f2.psi.conj())


def norm_factor(f1: FinalMode, f2: FinalMode) -> float:
    """k = [1 + |<psi_f1, psi_f2>|^2]^(-1/2) of the two-mode pair state."""
    return float(1 / np.sqrt(1 + np.abs(np.vdot(f1.psi, f2.psi)) ** 2))


def forward_prob_general(fc: TwoPhotonCoeff, f1: FinalMode, f2: FinalMode) -> float:
    """Probability of one photon in mode f1 and one in f2: 4 k^2 |contraction|^2.

    With f1 == f2 == basis vector e_s this reduces exactly to
    forward_prob_single(s) (k^2 = 1/2 cancels the 4 to the factor 2).
    """
    k = norm_factor(f1, f2)
    return float(4 * k**2 * np.abs(pair_overlap(fc, f1, f2)) ** 2)


def reversed_intensity_single(fc: TwoPhotonCoeff, s_f: int) -> float:
    """Upconverted intensity with a coherent beam in mode s_f: |f(s_f, s_f)|^2.

    The driving-amplitude constant is fixed to one, so the forward
    probability is exactly twice this wherever nonzero.
    """
    _check_index(fc, s_f)
    return float(np.abs(fc.f[s_f, s_f]) ** 2)


def reversed_intensity_conditional(fc: TwoPhotonCoeff, f1: FinalMode,
                                   f2: FinalMode) -> float:
    """Intensity after pairwise-only upconversion of beams in modes f1, f2.

    |sum_{s1 s2} f*(s1, s2) psi_f1(s1) psi_f2(s2)|^2, proportional to
    forward_prob_general with ratio 4 k^2.
    """
    return float(np.abs(f1.psi @ fc.f.conj() @ f2.psi) ** 2)

