"""Closed-form reference patterns for the two-slit and focused-spot systems.

The analytic laws the numerical pipeline must reproduce: fringe profiles,
somb/sinc focal-spot laws and the off-axis disk integral (a Lommel series).
Its scalar oracle on Gauss-Legendre panels and the stage-by-stage fields of
the pinhole-readout trains in their ideal point-source/delta-slit limit are
in ``oracles``.

The Bessel functions J0 and J1 behind the somb and disk laws are numpy
polynomial evaluations, split at |x| = 8 into a polynomial in x^2 and a
modulus/phase form; ``scripts/bessel_coefficients.py`` regenerates their
coefficients with mpmath.
"""
from __future__ import annotations

import numpy as np

from ._value import Value, fields, lazy_oracles
from .errors import (
    ConfigurationError,
    DomainError,
    NonFiniteError,
    QuadratureError,
    ShapeError,
    chirp_scale,
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


class _PositiveParams(Value):
    """Rule of the geometry classes: every field is > 0, checked in order."""

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ConfigurationError(f"{f.name} must be > 0, got {getattr(self, f.name)}")


class YoungParams(_PositiveParams):
    """Two-slit geometry: slit half-separation x1, lens focal length f."""

    x1: float
    f: float
    wavelength: float


class FocusParams(_PositiveParams):
    """Focusing geometry: aperture diameter D, lens focal length f."""

    D: float
    f: float
    wavelength: float


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

# disk_transform_table refuses b*R needing Bessel orders past _MAX_ORDER and
# |c|*R^2 past _MAX_GAMMA, where its phases' rounding passes 1e-9 rad. b*R
# below _BETA_FLOOR is raised to it (J moves by <= 2^-55), so a recurrence
# step grows a row by under 2^44, and rows are scaled down past _RESCALE.
_MAX_ORDER = 100_000
_MAX_GAMMA = 1e-9 / (2 * np.finfo(float).eps)
_BETA_FLOOR = 2.0 ** -26
_RESCALE = 2.0 ** 300


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


def disk_transform_table(b, c, R: float) -> np.ndarray:
    """``oracles.uniform_disk_transform`` at every pair (b[i], c[k]), as one table.

    Returns the complex (len(b), len(c)) array of J as the Lommel series of
    the defocused Airy integral (Born & Wolf, Principles of Optics, 8.8):
    with u = 2 c R^2 and v = b R, J = (2/u) exp(-iu/2) (U1 + i U2), where
    U_n = sum_s (-1)^s (u/v)^(n+2s) J_(n+2s)(v) if |u| < v, and otherwise
    U1 = sin theta - V1, U2 = V0 - cos theta, theta = u/2 + v^2/(2u), with
    V_n the same sum in v/u. It shares no arithmetic with the scalar
    oracle's panels and agrees with them to about 1e-15 (1e-14 up to the
    order cap), far inside their ``QUAD_ATOL + QUAD_RTOL*|J|``.

    Raises
    ------
    NonFiniteError
        If a ``b*R`` or ``c*R*R`` is not finite.
    QuadratureError
        If b*R needs orders past ``_MAX_ORDER`` or |c|*R*R passes ``_MAX_GAMMA``.
    Both are raised before any term is summed.
    """
    beta, gamma = _disk_arguments(np.asarray(b, dtype=float), np.asarray(c, dtype=float), R)
    top, phase = beta.max(initial=0.0), np.abs(gamma).max(initial=0.0)
    order = int(np.ceil(top + 25 * np.cbrt(top))) + 60
    if order > _MAX_ORDER:
        raise QuadratureError(f"disk transform series needs Bessel orders to {order}, "
                              f"past its cap {_MAX_ORDER} (b*R = {top:.3g}, R={R:.3g})")
    if phase > _MAX_GAMMA:
        raise QuadratureError(f"disk transform phase |c|*R^2 = {phase:.3g} passes "
                              f"{_MAX_GAMMA:.3g}, where its rounding exceeds 1e-9 rad")
    beta = np.maximum(beta, _BETA_FLOOR)
    v = beta[:, None]
    u = 2 * gamma[None, :]
    near = np.abs(u) < v
    d = np.where(near, v, u)                       # never 0
    r = np.where(near, u, v) / d                   # |r| <= 1
    even, s1, s2 = _lommel_sums(beta, -r * r, order)
    theta = (u + v * r) / 2
    # V0 - cos theta as 2 sin^2(theta/2) - 2 even - r^2 s2, since
    # J0 = 1 - 2 even: no cancellation at small theta
    U = np.where(near, s1 + 1j * r * s2,
                 np.sin(theta) - r * s1
                 + 1j * (2 * np.sin(theta / 2) ** 2 - 2 * even[:, None] - r * r * s2))
    return (2 / d) * np.exp(-0.5j * u) * U


def _lommel_sums(x: np.ndarray, m: np.ndarray, order: int) -> tuple:
    """sum_(k>=1) J_2k(x) per row, and sum_s m^s J_(2s+1)(x) and
    sum_s m^s J_(2s+2)(x) per entry, from one Miller recurrence: J_k(x),
    k = ``order``..0, from J_(k-1) = (2k/x) J_k - J_(k+1), normalised by
    J0 + 2 sum_k J_2k = 1, with the sums taken by Horner on the way down.
    """
    inv = 2 / x
    above = np.zeros_like(x)
    cur = np.ones_like(x)
    even = np.zeros_like(x)
    sums = (np.zeros(m.shape), np.zeros(m.shape))   # (J_(2s+2), J_(2s+1))
    for k in range(order, 0, -1):
        acc = sums[k % 2]
        acc *= m
        acc += cur[:, None]
        if k % 2 == 0:
            even += cur
        above, cur = cur, k * inv * cur - above
        big = np.abs(cur) > _RESCALE
        if big.any():
            for arr in (cur, above, even) + sums:
                arr[big] /= _RESCALE
    norm = cur + 2 * even
    return even / norm, sums[1] / norm[:, None], sums[0] / norm[:, None]


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
    c = 2 * np.pi * z_vals / chirp_scale(p.f, p.wavelength)
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


# The scalar disk transform, in ``oracles`` since no run uses it, resolves
# here on first use only because ``perfbench`` still reaches it here
# (ROADMAP items 1 and 14); tests import it from ``oracles``.
__getattr__ = lazy_oracles(__name__, ("uniform_disk_transform",))
