"""Closed-form reference patterns for the two-slit and focused-spot systems.

These are the analytic laws the numerical pipeline must reproduce: fringe
profiles, somb/sinc focal-spot laws, the off-axis disk diffraction integral,
and the stage-by-stage fields of the pinhole-readout reconstruction trains
in their ideal point-source/delta-slit limit.

The Bessel functions J0 and J1 behind the somb and disk laws are numpy
polynomial evaluations, split at |x| = 8 into a polynomial in x^2 and a
modulus/phase form; ``scripts/bessel_coefficients.py`` regenerates their
coefficients with mpmath.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    NonFiniteError,
    QuadratureError,
    ShapeError,
)


# J0 and J1 in numpy alone: importing scipy.special for them cost each
# focus process 0.3 s and 24 MB of resident memory. The axis splits at
# |x| = _X0. Below, with s = 2 x^2/_X0^2 and u = s - 1 in [-1, 1],
# J0 = 1 + s g0(u), so j0(0) is exactly 1 and the rounding of u near x = 0
# is damped by s, and J1 = x g1(u), so J1(x)/x keeps its relative accuracy
# near 0. Above, the modulus/phase form sqrt(2/(pi x)) (P cos chi -
# (_X0/x) Q sin chi) with P and Q polynomials in v = 2 (_X0/x)^2 - 1.
# Coefficients, highest degree first, are mpmath.chebyfit fits made by
# scripts/bessel_coefficients.py, which also prints their float64 error.
_X0 = 8.0
_J0_NEAR = (
    2.943898162808492e-16, -1.1674985248496527e-14, 4.107265509297084e-13,
    -1.2795370733037728e-11, 3.4914261256206243e-10, -8.264550338692803e-09,
    1.678256388726179e-07, -2.8855747839074786e-06, 4.135877264133189e-05,
    -0.000484904695114048, 0.004542983684254527, -0.0330157022951241,
    0.17900455086271683, -0.6864725967098189, 1.72485205785354,
    -2.532940865523227, 1.8844715824360434, -0.9541703351401862)
_J1_NEAR = (
    -3.237828825886891e-16, 1.2095547763548495e-14, -3.9908120700697754e-13,
    1.1610590176624424e-11, -2.9430378793535847e-10, 6.431268798326299e-09,
    -1.1967081644265458e-07, 1.8684525371950885e-06, -2.4045748660869506e-05,
    0.0002494945813909099, -0.002029039494570245, 0.012456814392255438,
    -0.054745818212847276, 0.15858376432721938, -0.2595948652859303,
    0.15151665143806634, 0.08105866038589796, -0.05814382795599107)
_P0 = (
    -9.956789357075715e-14, 3.4522133160706755e-13, -1.0238327024264009e-12,
    4.674986189266031e-12, -2.490341621088381e-11, 1.5506348898107537e-10,
    -1.212113319927827e-09, 1.2803747958820875e-08, -2.052744819908975e-07,
    6.13741608125692e-06, -0.000536367319212998, 0.9994572757882519)
_Q0 = (
    9.575735875005847e-14, -3.119994376116503e-13, 8.259713596314508e-13,
    -3.4904977440952908e-12, 1.7051726884410257e-11, -9.475742351179434e-11,
    6.432736726927442e-10, -5.6687032442267705e-09, 7.106214898484435e-08,
    -1.4771388337607956e-06, 6.833149099343349e-05, -0.015555113879513503)
_P1 = (
    1.0611465423215105e-13, -3.6942891113569033e-13, 1.104039648785332e-12,
    -5.072230977922283e-12, 2.722599260495964e-11, -1.7137215568191013e-10,
    1.360300632416571e-09, -1.4708498675907175e-08, 2.4536766267949663e-07,
    -7.959694699656698e-06, 0.0008988049416705508, 1.0009070262780821)
_Q1 = (
    -1.0179381589087164e-13, 3.3289005448364253e-13, -8.87712379064879e-13,
    3.771644965774865e-12, -1.8544350761823707e-11, 1.0400745817311543e-10,
    -7.151057862334875e-10, 6.420118927317563e-09, -8.291960750207848e-08,
    1.821201852408518e-06, -9.621458822053857e-05, 0.04677687402744896)


def _horner(coeffs, u):
    """The polynomial with ``coeffs`` (highest degree first) at u, in one new array."""
    acc = u * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= u
        acc += c
    return acc


def _near(x, s, order):
    """J0 (order 0) or J1 (order 1) at |x| <= _X0, given s; may overwrite s."""
    if order == 0:
        acc = _horner(_J0_NEAR, s - 1)
        acc *= s
        acc += 1
    else:
        s -= 1
        acc = _horner(_J1_NEAR, s)
        acc *= x
    return acc


def _far(ax, order):
    """J0 (order 0) or J1 (order 1) at ax = |x| > _X0.

    cos chi and sin chi, chi = x - (2 order + 1) pi/4, are taken as sums of
    cos x and sin x over sqrt(2): chi is never rounded, so the phase error
    does not grow with x.
    """
    p, q = (_P0, _Q0) if order == 0 else (_P1, _Q1)
    z = _X0 / ax
    v = 2 * z * z - 1
    pv = _horner(p, v)
    zq = z * _horner(q, v)
    with np.errstate(invalid="ignore"):          # cos and sin of inf
        cos, sin = np.cos(ax), np.sin(ax)
    plus, minus = pv + zq, pv - zq
    val = plus * cos + minus * sin if order == 0 else plus * sin - minus * cos
    val *= np.sqrt(1 / np.pi / ax)
    val[np.isinf(ax)] = 0.0
    return val


def _bessel(x, order):
    x = np.asarray(x, dtype=float)
    s = np.square(x)
    s *= 2 / _X0**2
    if s.max(initial=0.0) <= 2:                  # every |x| <= _X0, no nan
        out = _near(x, s, order)
    else:
        out = np.empty_like(x)
        small = s <= 2
        out[small] = _near(x[small], s[small], order)
        big = ~small
        xb = x[big]
        far = _far(np.abs(xb), order)
        out[big] = far * np.sign(xb) if order else far
    return float(out) if out.ndim == 0 else out


def j0(x):
    """Bessel function J0 of real x; a scalar returns a float.

    Absolute error below 1.1e-15, largest just below |x| = _X0.
    """
    return _bessel(x, 0)


def j1(x):
    """Bessel function J1 of real x; a scalar returns a float.

    Exactly odd; absolute error below 5e-16.
    """
    return _bessel(x, 1)


@dataclass(frozen=True)
class YoungParams:
    """Two-slit geometry: slit half-separation x1, lens focal length f."""

    x1: float
    f: float
    wavelength: float

    def __post_init__(self):
        for name in ("x1", "f", "wavelength"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class FocusParams:
    """Focusing geometry: aperture diameter D, lens focal length f."""

    D: float
    f: float
    wavelength: float

    def __post_init__(self):
        for name in ("D", "f", "wavelength"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")


def _scalar_or_array(x, val):
    arr = np.asarray(val)
    return float(arr) if np.ndim(x) == 0 and arr.dtype.kind == "f" else arr


def somb(x):
    """Sombrero function J1(x)/x, with the removable value somb(0) = 1/2."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, 0.5)
    nz = x != 0
    out[nz] = j1(x[nz]) / x[nz]
    return float(out) if out.ndim == 0 else out


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    val = np.sinc(np.asarray(x, dtype=float) / np.pi)
    return float(val) if np.ndim(x) == 0 else val


def young_two_photon(x0, p: YoungParams):
    """Pair-detection fringe (1 + cos(8 pi x1 x0/(f wl)))/2; period f*wl/(4*x1)."""
    val = 0.5 * (1 + np.cos(8 * np.pi * p.x1 * np.asarray(x0) / (p.f * p.wavelength)))
    return _scalar_or_array(x0, val)


def young_classical(x0, p: YoungParams):
    """One-photon fringe (1 + cos(4 pi x1 x0/(f wl)))/2; twice the pair period."""
    val = 0.5 * (1 + np.cos(4 * np.pi * p.x1 * np.asarray(x0) / (p.f * p.wavelength)))
    return _scalar_or_array(x0, val)


def _check_kind(kind: str) -> None:
    if kind not in ("classical", "two_photon"):
        raise ConfigurationError(f"kind must be 'classical' or 'two_photon', got {kind!r}")


def spot_lateral(r0, p: FocusParams, kind: str):
    """Peak-normalized focal-plane spot profile.

    somb^2 of 2 pi D|r0|/(f wl) for a photon pair, or of half that argument
    for a classical beam through the same aperture; the pair spot is half
    as wide.
    """
    _check_kind(kind)
    scale = 2 if kind == "two_photon" else 1
    u = scale * np.pi * p.D * np.abs(np.asarray(r0)) / (p.f * p.wavelength)
    val = (2 * somb(u)) ** 2
    return _scalar_or_array(r0, val)


def spot_axial(z0, p: FocusParams, kind: str):
    """On-axis response (f+z0)^4 sinc^2(pi D^2 z0 / (q f^2 wl)), q=4 or 8.

    Not normalized and not symmetric: the (f+z0)^4 prefactor tilts the
    curve. q=4 for a photon pair, q=8 for a classical beam. Valid only for
    |z0| < f (the displaced plane must stay on the detection side).
    """
    _check_kind(kind)
    z0 = np.asarray(z0, dtype=float)
    if np.any(np.abs(z0) >= p.f):
        raise DomainError(f"axial offset must satisfy |z0| < f = {p.f}")
    q = 4 if kind == "two_photon" else 8
    arg = np.pi * p.D**2 * z0 / (q * p.f**2 * p.wavelength)
    val = (p.f + z0) ** 4 * sinc(arg) ** 2
    return _scalar_or_array(z0, val)


# ---------------------------------------------------------------- disk integral

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
# Quadrature nodes per matrix-product block in disk_transform_table; a fixed
# size bounds the block arrays at a few (rows + cols) * _TABLE_BLOCK floats,
# whatever the number of panels.
_TABLE_BLOCK = 128
# Most J0 values one radial block of _disk_panel_sums holds (rows x nodes).
# A j0 call costs about 40 passes plus a fixed overhead, so it runs over
# many product blocks at once; 128 KiB per array stays below the sizes at
# which glibc returns freed memory to the system and the next call faults
# it back in.
_RADIAL_VALUES = 1 << 14


def _disk_arguments(b, c, R: float) -> tuple:
    """``(b*R, c*R*R)``, the scaled arguments of the disk transform, for
    scalars or arrays alike, so the table keeps its scalar oracle's rule.

    Raises NonFiniteError if any is not finite: no panel count resolves it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        beta, gamma = b * R, c * R * R
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise NonFiniteError(
            f"disk transform arguments b*R, c*R^2 overflow the float range at R = {R!r}")
    return beta, gamma


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
        val = 2 * half * np.sum(_GL_WEIGHTS * t * j0(beta * t)
                                * np.exp(-1j * gamma * t * t))
        if prev is not None and abs(val - prev) <= QUAD_ATOL + QUAD_RTOL * abs(val):
            return complex(val)
        prev = val
        panels *= 2
    raise QuadratureError(
        f"disk transform did not converge below {QUAD_ATOL:.1e}+{QUAD_RTOL:.1e}*|J| "
        f"within {MAX_PANELS} panels (b={b:.3g}, c={c:.3g}, R={R:.3g})")


def disk_transform_table(b, c, R: float) -> np.ndarray:
    """``uniform_disk_transform`` at every pair (b[i], c[k]), as one table.

    Returns the complex (len(b), len(c)) array of J. Each entry follows the
    scalar rule: panels double from 256 and an entry is accepted at the
    first level where it agrees with the previous one to
    ``QUAD_ATOL + QUAD_RTOL*|J|``.
    The integrand separates, w t J0(b R t) depending only on b and
    exp(-i c R^2 t^2) only on c, so one level of the pending rows and
    columns is two real matrix products over the shared nodes, taken in
    blocks of ``_TABLE_BLOCK`` nodes; one j0 call covers as many blocks
    as ``_RADIAL_VALUES`` values hold. Only rows and columns that still
    hold a pending entry are evaluated at the next level.

    Raises
    ------
    NonFiniteError
        If a ``b*R`` or ``c*R*R`` is not finite, before any panel is summed.
    QuadratureError
        If an entry is still pending after the ``MAX_PANELS`` level.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    beta, gamma = _disk_arguments(b, c, R)
    J = np.empty((b.size, c.size), dtype=complex)
    pending = np.ones(J.shape, dtype=bool)
    prev = None
    panels = 256
    while panels <= MAX_PANELS and pending.any():
        rows = np.flatnonzero(pending.any(axis=1))
        cols = np.flatnonzero(pending.any(axis=0))
        block = np.ix_(rows, cols)
        val = _disk_panel_sums(beta[rows], gamma[cols], panels)
        if prev is None:
            prev = np.empty(J.shape, dtype=complex)
        else:
            done = pending[block] & (np.abs(val - prev[block])
                                     <= QUAD_ATOL + QUAD_RTOL * np.abs(val))
            J[block] = np.where(done, val, J[block])
            pending[block] &= ~done
        prev[block] = val
        panels *= 2
    if pending.any():
        i, k = np.argwhere(pending)[0]
        raise QuadratureError(
            f"disk transform did not converge below {QUAD_ATOL:.1e}+{QUAD_RTOL:.1e}*|J| "
            f"within {MAX_PANELS} panels (b={b[i]:.3g}, c={c[k]:.3g}, R={R:.3g})")
    return J


def _disk_panel_sums(beta: np.ndarray, gamma: np.ndarray, panels: int) -> np.ndarray:
    """Composite Gauss-Legendre J on ``panels`` panels at every (beta, gamma) pair."""
    half = 0.5 / panels
    step = _TABLE_BLOCK // _GL_NODES.size          # panels per product block
    span = step * max(1, _RADIAL_VALUES // (beta.size * _TABLE_BLOCK))
    re = np.zeros((beta.size, gamma.size))
    im = np.zeros((beta.size, gamma.size))
    for first in range(0, panels, span):
        centers = (2 * np.arange(first, min(first + span, panels)) + 1) * half
        t = centers[:, None] + half * _GL_NODES[None, :]
        weight = (2 * half * _GL_WEIGHTS * t).ravel()
        t = t.ravel()
        radial = j0(np.multiply.outer(beta, t))
        radial *= weight
        for k in range(0, t.size, _TABLE_BLOCK):
            tk = t[k:k + _TABLE_BLOCK]
            phase = np.multiply.outer(tk * tk, gamma)
            block = radial[:, k:k + _TABLE_BLOCK]
            re += block @ np.cos(phase)
            im -= block @ np.sin(phase, out=phase)
    return re + 1j * im


def spot_offaxis_two_photon(r0, z0, p: FocusParams):
    """Pair-detection probability at lateral r0, axial z0 near the focus.

    (f+z0)^4 |J|^2 with the disk transform J taken at b = 4 pi|r0|/(f wl),
    c = 2 pi z0/(f^2 wl), R = D/2. Scaled so the on-axis focal value is f^4:
    r0 = 0 recovers spot_axial and z0 = 0 recovers f^4 * spot_lateral, both
    for the pair case.

    ``r0`` and ``z0`` are scalars or arrays of one shape; a scalar pair
    returns a float. J comes from one ``disk_transform_table`` over the
    distinct |r0| and the distinct z0, so a lattice or a cut costs one
    table of exactly the points it needs. Overflow raises NonFiniteError.
    """
    r0 = np.asarray(r0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if r0.shape != z0.shape:
        raise ShapeError(f"r0 and z0 must have one shape, got {r0.shape} and {z0.shape}")
    if np.any(np.abs(z0) >= p.f):
        raise DomainError(f"axial offset must satisfy |z0| < f = {p.f}")
    r_vals, r_row = np.unique(np.abs(r0).ravel(), return_inverse=True)
    z_vals, z_col = np.unique(z0.ravel(), return_inverse=True)
    b = 4 * np.pi * r_vals / (p.f * p.wavelength)
    try:
        c = 2 * np.pi * z_vals / (p.f**2 * p.wavelength)
    except OverflowError:
        raise NonFiniteError(f"f**2 overflows the float range at f = {p.f!r} m") from None
    J = disk_transform_table(b, c, p.D / 2)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        val = (p.f + z0) ** 4 * np.abs(J[r_row, z_col].reshape(z0.shape)) ** 2
    if not np.all(np.isfinite(val)):
        raise NonFiniteError(f"the pair spot overflows the float range at f = {p.f!r} m")
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------- width estimate

def fwhm(x, y) -> float:
    """Full width at half maximum of a sampled curve.

    The half-max level is half the global peak; each crossing adjacent to
    the peak is located by linear interpolation between the bracketing
    samples.

    Raises
    ------
    ShapeError
        If the curve is too short, not on increasing coordinates, or has no
        half-max crossing on either side of the peak (e.g. monotone data).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ShapeError("need matching 1-D arrays with at least 3 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ShapeError("curve contains non-finite values")
    if np.any(np.diff(x) <= 0):
        raise ShapeError("coordinates must be strictly increasing")
    i = int(np.argmax(y))
    half = y[i] / 2

    def cross(j, k):
        # y[j] >= half > y[k]; interpolate between them.
        return x[j] + (y[j] - half) * (x[k] - x[j]) / (y[j] - y[k])

    left = None
    for j in range(i, 0, -1):
        if y[j - 1] < half:
            left = cross(j, j - 1)
            break
    right = None
    for j in range(i, x.size - 1):
        if y[j + 1] < half:
            right = cross(j, j + 1)
            break
    if left is None or right is None:
        raise ShapeError("no half-max crossing on both sides of the peak")
    return float(right - left)


# ---------------------------------------------------------------- staged fields

@dataclass(frozen=True)
class DeltaComb:
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
