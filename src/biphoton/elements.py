"""Optical elements acting on sampled fields, and trains composing them.

All spectral stages (lens in 2-f configuration, long free-space path) are
far-field transforms with the kernel ``exp(-i 2 pi x y / (dist wl))``; no
general Fresnel propagator is provided. Elements are small frozen dataclasses
so trains are immutable and comparable. Each dataclass holds its element's
parameter rules; one table maps the class to its tag and its field function,
and drives ``apply_element``.

``run_train`` applies a train to one field and is the reference.
``run_train_batch`` reads the pinhole for many point sources at once, by
exact closed forms of the two reversed trains with a radius-0 pinhole: the
Young train on a 1-D grid and the focus train on a 2-D grid, SHG on or off.
It uses no FFT and no SampledField, and agrees with looped ``run_train`` to
1e-12 of the sweep peak. Every other train, finite pinholes included, runs
through looped ``run_train``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    NonFiniteError,
    SamplingError,
    UnsupportedElementError,
)
from .grid import (
    Grid,
    Grid1D,
    Grid2D,
    SampledField,
    _spectral_axis,
    _spectral_phase,
    unitary_fourier,
)


# ---------------------------------------------------------------- element types

@dataclass(frozen=True)
class _Element:
    """Rule shared by every element, checked before the class's ``_validate``.

    A field with a bool default holds a bool; every other field holds a
    finite real number, or None where None is its default.
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, bool):
                kind, ok = "a bool", isinstance(value, bool)
            else:
                kind = "a finite real number"
                ok = (value is None and f.default is None) or (
                    isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value))
            if not ok:
                raise ConfigurationError(
                    f"{type(self).__name__}.{f.name} must be {kind}, got {value!r}")
        self._validate()

    def _validate(self):
        """Rules of one element class; none by default."""


@dataclass(frozen=True)
class FourierLens(_Element):
    """Ideal lens of focal length ``f`` used in 2-f configuration."""

    f: float

    def _validate(self):
        if not self.f > 0:
            raise ConfigurationError(f"focal length must be > 0, got {self.f}")


@dataclass(frozen=True)
class FreeSpaceFourier(_Element):
    """Far-field (Fraunhofer) free-space path of length ``L``."""

    L: float

    def _validate(self):
        if not self.L > 0:
            raise ConfigurationError(f"propagation distance must be > 0, got {self.L}")


@dataclass(frozen=True)
class TwoFWithOffset(_Element):
    """2-f stage whose far plane is displaced ``z`` from the focal plane.

    The kernel is the focal-plane transform with an extra quadratic (chirp)
    phase and a relative amplitude factor ``1 + z/f``; ``z`` may be negative.
    With ``transpose`` the adjoint-direction kernel is applied instead: the
    chirp sits on the output plane, which models a point emitter on the
    displaced plane propagating back into the back focal plane.
    """

    f: float
    z: float
    transpose: bool = False

    def _validate(self):
        if not self.f > 0:
            raise ConfigurationError(f"focal length must be > 0, got {self.f}")


@dataclass(frozen=True)
class DoubleSlit(_Element):
    """Binary mask with openings centered at +-x1.

    ``slit_width=None`` means one grid cell at apply time: each slit passes
    exactly the sample nearest its center (the idealized delta slit).
    """

    x1: float
    slit_width: Optional[float] = None

    def _validate(self):
        if not self.x1 > 0:
            raise ConfigurationError(f"slit offset must be > 0, got {self.x1}")
        if self.slit_width is not None:
            if not self.slit_width > 0:
                raise ConfigurationError(
                    f"slit width must be > 0 or None, got {self.slit_width}")
            if self.x1 <= self.slit_width / 2:
                raise ConfigurationError(
                    f"slits overlap: x1={self.x1} <= slit_width/2={self.slit_width / 2}")


@dataclass(frozen=True)
class CircularAperture(_Element):
    """Hard circular stop of diameter ``D``: transmits |r| <= D/2."""

    D: float

    def _validate(self):
        if not self.D > 0:
            raise ConfigurationError(f"aperture diameter must be > 0, got {self.D}")


@dataclass(frozen=True)
class Magnifier(_Element):
    """Imaging stage of magnification ``M`` (negative M inverts the image)."""

    M: float

    def _validate(self):
        if self.M == 0:
            raise ConfigurationError("magnification must be nonzero")


@dataclass(frozen=True)
class SHG(_Element):
    """Thin-crystal second-harmonic stage: squares the field pointwise."""


@dataclass(frozen=True)
class PinholeSample(_Element):
    """Terminal intensity pickup at the origin; radius 0 reads one sample."""

    radius: float = 0.0

    def _validate(self):
        if self.radius < 0:
            raise ConfigurationError(f"pinhole radius must be >= 0, got {self.radius}")


OpticalElement = Union[FourierLens, FreeSpaceFourier, TwoFWithOffset, DoubleSlit,
                       CircularAperture, Magnifier, SHG, PinholeSample]


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered sequence of elements applied left to right.

    At most one SHG stage; a PinholeSample, if present, must be last (it
    collapses the field to a real intensity).
    """

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        n_shg = sum(isinstance(e, SHG) for e in self.elements)
        if n_shg > 1:
            raise ConfigurationError(f"train may contain at most one SHG stage, got {n_shg}")
        for i, e in enumerate(self.elements):
            if isinstance(e, PinholeSample) and i != len(self.elements) - 1:
                raise ConfigurationError("PinholeSample must be the last train element")


# ---------------------------------------------------------------- propagation

def _fourier_relay(field: SampledField, dist: float) -> SampledField:
    """Far-field transform to the plane at ``dist``: x_out = k * dist * wl / (2 pi).

    Output sample x picks up the input's spatial frequency 2 pi x/(dist wl);
    the grid rescale keeps power exact, so dx_out = dist*wl/(n*dx_in).
    """
    wl = field.wavelength
    if isinstance(field.grid, Grid1D):
        amp, grid = _relay_along(field.amp, field.grid, dist, wl, axis=0)
        return SampledField(grid, wl, amp)
    scale = dist * wl / (2 * np.pi)
    spec = unitary_fourier(field)
    g = Grid2D(spec.grid.nx, spec.grid.ny, spec.grid.dx * scale,
               spec.grid.dy * scale, (0.0, 0.0))
    return SampledField(g, wl, spec.amp / scale)


def _relay_phase(grid: Grid1D, dist: float, wavelength: float) -> np.ndarray:
    """The spectral phase of :func:`_relay_along` on ``grid``, to compute once
    for many relays over the same axis."""
    scale = dist * wavelength / (2 * np.pi)
    return _spectral_phase(grid.n, grid.dx, grid.center, False, 1 / np.sqrt(scale))


def _relay_along(amp: np.ndarray, grid: Grid1D, dist: float, wavelength: float,
                 axis: int, out: Optional[np.ndarray] = None,
                 phase: Optional[np.ndarray] = None) -> tuple:
    """The 1-D far-field relay applied along one axis of ``amp``.

    Every other axis is a batch axis. The 1-D field path runs through here
    too, so each 1-D slice gets the same arithmetic as a single field.
    Returns ``(amp_out, grid_out)``; ``out`` as in :func:`_spectral_axis`,
    ``phase`` the :func:`_relay_phase` of the same grid and relay.
    """
    if phase is None:
        phase = _relay_phase(grid, dist, wavelength)
    out, _ = _spectral_axis(amp, grid.n, grid.dx, grid.center, axis, inverse=False,
                            out=out, phase=phase)
    return out, _relay_grid(grid, dist, wavelength)


def apply_fourier_lens(field: SampledField, f: float) -> SampledField:
    """Transform from front to back focal plane of an ideal lens.

    Parameters
    ----------
    field : SampledField
        Input field (1-D or 2-D), any grid center.
    f : float
        Focal length in meters.

    Returns
    -------
    SampledField
        Field on the zero-centered conjugate grid with spacing
        ``f*wl/(n*dx_in)`` per axis. Power is preserved exactly.
    """
    FourierLens(f)  # parameter validation
    return _fourier_relay(field, f)


def free_space_fourier(field: SampledField, L: float) -> SampledField:
    """Far-field free-space propagation over ``L``; same map as a lens of f=L.

    Valid in the Fraunhofer regime only (long L); this package never needs
    the general Fresnel form.
    """
    FreeSpaceFourier(L)  # parameter validation
    return _fourier_relay(field, L)


def _axis_chirps(grid, z: float, f: float, wl: float) -> list:
    """Offset chirp ``exp(-i pi z c^2/(f^2 wl))`` per axis of ``grid``, x first.

    Raises SamplingError where the phase advances by more than pi per
    sample: beyond pi the chirp aliases and the z-sweep silently folds back;
    NonFiniteError where f**2 * wl is beyond the float range.
    """
    axes = [(grid.coords, grid.dx)] if isinstance(grid, Grid1D) else \
           [(grid.xs, grid.dx), (grid.ys, grid.dy)]
    try:
        scale = f ** 2 * wl
    except OverflowError:
        raise NonFiniteError(f"f**2 overflows the float range at f = {f!r} m") from None
    for coords, step in axes:
        inc = 2 * np.pi * abs(z) * np.abs(coords).max() * step / scale
        if inc > np.pi:
            raise SamplingError(
                f"chirp phase step {inc:.3f} rad/sample exceeds pi; "
                f"refine the grid or reduce |z|={abs(z):.3g}")
    return [np.exp(-1j * np.pi * z * coords ** 2 / scale) for coords, _ in axes]


def _offset_chirp(grid, z: float, f: float, wl: float) -> np.ndarray:
    """Offset chirp ``exp(-i pi z r^2/(f^2 wl))`` on ``grid``.

    On a 2-D grid the chirp is separable: the outer product of the per-axis
    chirps, 2n exponentials instead of n^2. Raises SamplingError as
    :func:`_axis_chirps` does.
    """
    chirps = _axis_chirps(grid, z, f, wl)
    if len(chirps) == 1:
        return chirps[0]
    cx, cy = chirps
    return np.outer(cy, cx)  # indexed [iy, ix]


def two_f_with_offset(field: SampledField, f: float, z: float,
                      transpose: bool = False) -> SampledField:
    """2-f transform onto a plane displaced ``z`` from the back focal plane.

    Chirp phase ``exp(-i pi z r^2/(f^2 wl))`` and relative amplitude
    ``1 + z/f`` applied on the input plane, then the focal-plane kernel.
    At z=0 this reduces to :func:`apply_fourier_lens` bit for bit. With
    ``transpose=True`` the adjoint-direction kernel (chirp on the output
    plane) is applied instead.

    Raises
    ------
    SamplingError
        If the chirp phase advances by more than pi per sample anywhere
        on the chirped plane (aliasing).
    """
    TwoFWithOffset(f, z, transpose)  # parameter validation
    wl = field.wavelength
    factor = 1 + z / f
    if not transpose:
        chirp = _offset_chirp(field.grid, z, f, wl)
        out = _fourier_relay(SampledField(field.grid, wl, field.amp * chirp), f)
        return SampledField(out.grid, wl, out.amp * factor)
    out = _fourier_relay(field, f)
    chirp = _offset_chirp(out.grid, z, f, wl)
    return SampledField(out.grid, wl, out.amp * factor * chirp)


# ---------------------------------------------------------------- masks

def apply_double_slit(field: SampledField, x1: float,
                      slit_width: Optional[float] = None) -> SampledField:
    """Binary double-slit mask at +-x1 on a 1-D field.

    ``slit_width=None`` passes exactly one sample per slit (delta slits).
    """
    if not isinstance(field.grid, Grid1D):
        raise UnsupportedElementError("double slit acts on 1-D fields only")
    return SampledField(field.grid, field.wavelength,
                        field.amp * _double_slit_mask(field.grid, x1, slit_width))


def _double_slit_mask(g: Grid1D, x1: float, slit_width: Optional[float]) -> np.ndarray:
    """0/1 transmission of the double slit on the samples of ``g``."""
    DoubleSlit(x1, slit_width)  # parameter validation
    mask = np.zeros(g.n)
    if slit_width is None:
        for pos in (x1, -x1):
            if not g.contains(pos):
                raise DomainError(f"slit at {pos} lies outside the grid")
            mask[g.index_of(pos)] = 1.0
    else:
        x = g.coords
        mask[np.abs(x - x1) <= slit_width / 2] = 1.0
        mask[np.abs(x + x1) <= slit_width / 2] = 1.0
    return mask


def apply_circular_aperture(field: SampledField, D: float) -> SampledField:
    """Hard circular stop on a 2-D field: zero outside |r| <= D/2."""
    if not isinstance(field.grid, Grid2D):
        raise UnsupportedElementError("circular aperture acts on 2-D fields only")
    CircularAperture(D)  # parameter validation
    mask = field.grid.radius_sq() <= (D / 2) ** 2
    return SampledField(field.grid, field.wavelength, field.amp * mask)


# ---------------------------------------------------------------- remaps

def _flip_index(n: int) -> np.ndarray:
    # Exact mirror about the center sample n//2; for even n the unpaired
    # edge sample wraps onto itself, matching a double Fourier transform.
    return (2 * (n // 2) - np.arange(n)) % n


def magnify(field: SampledField, M: float) -> SampledField:
    """Pure coordinate remap E'(x) = E(x/M) |M|^(-d/2); power preserved.

    Implemented as grid metadata: spacings scale by |M|, the center moves to
    M*center, and negative M reverses sample order about the center sample.
    """
    Magnifier(M)  # parameter validation
    a = abs(M)
    amp = field.amp
    if isinstance(field.grid, Grid1D):
        g = field.grid
        if M < 0:
            amp = amp[_flip_index(g.n)]
        return SampledField(Grid1D(g.n, a * g.dx, M * g.center),
                            field.wavelength, amp / np.sqrt(a))
    g = field.grid
    if M < 0:
        amp = amp[np.ix_(_flip_index(g.ny), _flip_index(g.nx))]
    grid = Grid2D(g.nx, g.ny, a * g.dx, a * g.dy,
                  (M * g.center[0], M * g.center[1]))
    return SampledField(grid, field.wavelength, amp / a)


def shg(field: SampledField) -> SampledField:
    """Second-harmonic stage: square the field, halve the wavelength.

    Undepleted-pump thin-crystal model; power is not conserved.
    """
    return SampledField(field.grid, field.wavelength / 2, field.amp ** 2)


def pinhole_intensity(field: SampledField, radius: float = 0.0) -> float:
    """Intensity collected by a pinhole centered on the origin.

    radius 0 reads the single sample nearest the origin as ``|E(0)|^2``;
    a finite radius integrates ``|amp|^2 * cell`` over samples within it.

    Raises
    ------
    DomainError
        If the origin lies outside the field's grid.
    """
    PinholeSample(radius)  # parameter validation
    grid = field.grid
    origin = 0.0 if isinstance(grid, Grid1D) else (0.0, 0.0)
    if not grid.contains(origin):
        raise DomainError("pinhole at the origin lies outside the grid")
    if radius == 0.0:
        return float(abs(field.amp[grid.index_of(origin)]) ** 2)
    if isinstance(grid, Grid1D):
        sel = np.abs(grid.coords) <= radius
    else:
        sel = grid.radius_sq() <= radius ** 2
    return float(np.sum(np.abs(field.amp[sel]) ** 2) * grid.cell)


# ---------------------------------------------------------------- element table

# Element class -> (tag, field function). The tag names the element's spans
# in perfbench/tracer.py. A field function takes the field, then the
# element's dataclass fields in their declared order.
_TABLE = {
    FourierLens: ("fourier_lens", apply_fourier_lens),
    FreeSpaceFourier: ("free_space", free_space_fourier),
    TwoFWithOffset: ("two_f_offset", two_f_with_offset),
    DoubleSlit: ("double_slit", apply_double_slit),
    CircularAperture: ("circular_aperture", apply_circular_aperture),
    Magnifier: ("magnifier", magnify),
    SHG: ("shg", shg),
    PinholeSample: ("pinhole", pinhole_intensity),
}
_TAGS = {cls: tag for cls, (tag, _) in _TABLE.items()}


def _params(element: OpticalElement) -> dict:
    """The element's dataclass fields, name -> value, in declared order."""
    return {f.name: getattr(element, f.name) for f in fields(element)}


# ---------------------------------------------------------------- trains

def apply_element(field: SampledField, element: OpticalElement):
    """Apply one element; returns a field, or a float for PinholeSample."""
    if type(element) not in _TABLE:
        raise UnsupportedElementError(f"unknown element {element!r}")
    _, apply = _TABLE[type(element)]
    return apply(field, *_params(element).values())


def run_train(source: SampledField, train: OpticalTrain):
    """Apply a train left to right; a trailing PinholeSample yields a float."""
    out = source
    for element in train.elements:
        out = apply_element(out, element)
    return out


def _check_finite(amp) -> None:
    if not np.all(np.isfinite(amp)):
        raise NonFiniteError("field amplitudes must be finite (no NaN/Inf)")


def run_train_batch(grid: Grid, wavelength: float, indices,
                    train: OpticalTrain) -> np.ndarray:
    """Pinhole readings of unit-power point sources on the samples ``indices``.

    Entry i stands for ``run_train(point_source(grid, <sample indices[i]>,
    1.0, wavelength), train)``. The train must end in a radius-0 pinhole and
    have one of two shapes, SHG on or off:

    - on a :class:`Grid1D`, the shape :func:`reversed_young_train` builds;
      ``indices`` lists sample indices;
    - on a :class:`Grid2D`, the shape :func:`reversed_focus_train` builds
      (any ``z``); ``indices`` lists ``(iy, ix)`` rows.

    Exact closed forms of the chain read all sources at once, with no FFT
    and no SampledField; the grids come from the relay chain's own
    arithmetic. The readings agree with the looped trains, which stay the
    reference, to 1e-12 of the sweep peak (floating-point order differs).

    Raises
    ------
    ConfigurationError
        If the wavelength is not positive.
    DomainError
        If an index is not a sample of ``grid`` or a delta slit misses the
        slit-plane grid.
    SamplingError
        If the offset chirp of a focus train aliases (as in the field path).
    NonFiniteError
        If a stage or a reading overflows the float range.
    UnsupportedElementError
        For any other train shape or a finite pinhole radius.
    """
    if not wavelength > 0:
        raise ConfigurationError(f"wavelength must be > 0, got {wavelength}")
    kinds = tuple(type(e) for e in train.elements)
    if isinstance(grid, Grid1D):
        supported, read = kinds in _YOUNG_TRAIN_KINDS, _young_totals
    else:
        supported = kinds in _FOCUS_TRAIN_KINDS and train.elements[0].transpose
        read = _focus_totals
    if not supported:
        raise UnsupportedElementError(
            "a batched train must have the shape reversed_young_train (1-D grid) "
            "or reversed_focus_train (2-D grid) builds")
    opening, _, path1, lens = train.elements[:4]
    pinhole = train.elements[-1]
    if pinhole.radius != 0.0:
        raise UnsupportedElementError(
            f"a batched train needs a radius-0 pinhole, got {pinhole.radius}")
    indices = _source_indices(grid, indices)

    pupil = _relay_grid(grid, opening.f, wavelength)
    image = _relay_grid(_relay_grid(pupil, path1.L, wavelength), lens.f, wavelength)
    wl_out = wavelength / 2 if SHG in kinds else wavelength
    readings = np.abs(read(grid, wavelength, indices, train, pupil, image, wl_out)) ** 2
    _check_finite(readings)
    return readings


def _reversed_train_kinds(*head: type) -> tuple:
    """Element classes of a reversed train: ``head``, SHG or not, path, pinhole."""
    return tuple(head + shg + (FreeSpaceFourier, PinholeSample) for shg in ((), (SHG,)))


_FOCUS_TRAIN_KINDS = _reversed_train_kinds(
    TwoFWithOffset, CircularAperture, FreeSpaceFourier, FourierLens)
_YOUNG_TRAIN_KINDS = _reversed_train_kinds(
    FourierLens, DoubleSlit, FreeSpaceFourier, FourierLens)


def _source_indices(grid: Grid, indices) -> np.ndarray:
    """``indices`` as an intp array of samples of ``grid``; DomainError otherwise.

    A 1-D grid takes a list of sample indices, a 2-D grid ``(iy, ix)`` rows.
    """
    indices = np.asarray(indices, dtype=np.intp)
    if isinstance(grid, Grid1D):
        shape, limit = indices.ndim == 1, grid.n
        what = f"a 1-D list within [0, {grid.n})"
    else:
        shape, limit = indices.ndim == 2 and indices.shape[1] == 2, (grid.ny, grid.nx)
        what = f"(iy, ix) rows within [0, {grid.ny}) x [0, {grid.nx})"
    if not shape or np.any((indices < 0) | (indices >= limit)):
        raise DomainError(f"source indices must be {what}")
    return indices


def _relay_grid(g: Grid, dist: float, wavelength: float) -> Grid:
    """Output grid of a far-field relay, in the field path's arithmetic."""
    scale = dist * wavelength / (2 * np.pi)
    if isinstance(g, Grid1D):
        return Grid1D(g.n, 2 * np.pi / (g.n * g.dx) * scale, 0.0)
    return Grid2D(g.nx, g.ny, 2 * np.pi / (g.nx * g.dx) * scale,
                  2 * np.pi / (g.ny * g.dy) * scale, (0.0, 0.0))


def _relayed_delta(n: int, d: float, center: float, m: np.ndarray, dist: float,
                   wavelength: float, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Far-field relays of unit spikes at samples ``m`` of a 1-D axis, one row each.

    Row i is the column of the sampled relay kernel at source ``m[i]``,
    ``exp(-2 pi i x' x0/(dist wl)) d/sqrt(dist wl)``. The phase index
    ``(j-c)(m-c) mod n`` is taken in exact integers, as the FFT's twiddle
    factors are, and the center offset enters as in :func:`_spectral_axis`.
    ``cols`` lists the output samples to build (default all n); each entry
    equals the full row's entry bit for bit.

    The array is built as (samples, sources) and returned transposed, the
    column-major layout ``full[:, cols]`` has: a matrix product or row sum
    over it then keeps the summation order it has over that slice.
    """
    c = n // 2
    j = (np.arange(n) if cols is None else np.asarray(cols, dtype=np.intp)) - c
    k = j * (2 * np.pi / (n * d))
    turns = (j[:, None] * (m - c)) % n
    return (np.exp(-2j * np.pi * turns / n - 1j * k[:, None] * center)
            * (d / np.sqrt(dist * wavelength))).T


def _young_totals(grid: Grid1D, wl: float, indices: np.ndarray, train: OpticalTrain,
                  slits: Grid1D, image: Grid1D, wl_out: float) -> np.ndarray:
    """On-axis amplitudes of the reversed Young train, one per source.

    Exact rewrites of the chain, for a source ``sqrt(1/dx)`` at sample m:

    1. the first lens relays the spike to one :func:`_relayed_delta` row,
       built only on the samples the slit mask keeps (it zeroes the rest);
    2. free path L1 then lens f is ``Magnifier(-f/L1)``, a factor
       ``sqrt(L1/f)``; its flip is skipped, since the sum in step 4 does
       not depend on sample order;
    3. SHG squares the field and halves the wavelength;
    4. the final relay read by a radius-0 pinhole at the origin is
       ``sum(amp) dx3/sqrt(L2 wl_out)``.

    That is n_src x |kept| exponentials.
    """
    opening, slit, path1, lens = train.elements[:4]
    path2 = train.elements[-2]
    kept = np.flatnonzero(_double_slit_mask(slits, slit.x1, slit.slit_width))
    rows = _relayed_delta(grid.n, grid.dx, grid.center, indices, opening.f, wl,
                          cols=kept)
    rows *= np.sqrt(1.0 / grid.cell) * np.sqrt(path1.L / lens.f)
    _check_finite(rows)
    if wl_out != wl:  # SHG
        np.square(rows, out=rows)
        _check_finite(rows)
    return rows.sum(axis=1) * (image.dx / np.sqrt(path2.L * wl_out))


def _focus_totals(grid: Grid2D, wl: float, indices: np.ndarray, train: OpticalTrain,
                  pupil: Grid2D, image: Grid2D, wl_out: float) -> np.ndarray:
    """On-axis amplitudes of the reversed focus train, one per source.

    Exact rewrites of the chain, for a source ``sqrt(1/cell)`` at (y0, x0):

    1. the transposed offset 2-f stage relays the spike to a separable plane
       wave, the outer product of one :func:`_relayed_delta` row per axis;
    2. the chirp with ``1 + z/f``, the aperture mask and the ``1/|M|`` of
       step 3 do not depend on the source: one weight ``w`` per call, held
       on the rows and columns the aperture reaches (it is zero elsewhere);
    3. free path L1 then lens f is ``Magnifier(-f/L1)``; its flip commutes
       with the final relay and the radius-0 pinhole reading is symmetric
       under it, so the flip is skipped;
    4. SHG squares the field and halves the wavelength; with p = 2 (SHG) or
       1, the field is ``ry^p[y] rx^p[x] w^p[y, x]``, so ``w^p`` is built
       once and each source's two axis rows are raised to p once;
    5. the final relay read at the origin is ``sum(amp) dx dy/(L2 wl)``,
       the bilinear form ``ry^p . (w^p @ rx^p)``: all sources are read by
       one matrix product and a row-wise dot, with no per-source 2-D array.
    """
    opening, aperture, path1, lens = train.elements[:4]
    path2 = train.elements[-2]
    f, z = opening.f, opening.z
    cx, cy = _axis_chirps(pupil, z, f, wl)
    # The aperture passes no sample outside the rows and columns kept here:
    # floating-point y^2 + x^2 is never below y^2 or x^2.
    r2_max = (aperture.D / 2) ** 2
    ky = np.flatnonzero(pupil.ys ** 2 <= r2_max)
    kx = np.flatnonzero(pupil.xs ** 2 <= r2_max)
    weight = np.outer(cy[ky], cx[kx])
    weight *= (1 + z / f) * (path1.L / lens.f)
    weight *= pupil.ys[ky, None] ** 2 + pupil.xs[None, kx] ** 2 <= r2_max
    on_axis = image.dx * image.dy / (path2.L * wl_out)

    amp0 = np.sqrt(1.0 / grid.cell)
    ry = _relayed_delta(grid.ny, grid.dy, grid.center[1], indices[:, 0], f, wl, cols=ky)
    rx = _relayed_delta(grid.nx, grid.dx, grid.center[0], indices[:, 1], f, wl, cols=kx)
    rx *= amp0
    if wl_out != wl:  # SHG
        for a in (weight, ry, rx):
            np.square(a, out=a)
    for a in (weight, ry, rx):
        _check_finite(a)
    return np.sum(ry * (weight @ rx.T).T, axis=1) * on_axis


def reversed_young_train(f: float, x1: float, L1: float, L2: float, *,
                         slit_width: Optional[float] = None,
                         second_harmonic: bool = True,
                         pinhole_radius: float = 0.0) -> OpticalTrain:
    """Train reconstructing the two-slit pattern from a scanned point source.

    Source plane -> lens f -> double slit -> free path L1 -> lens f (the two
    spectral stages demagnify the slits onto the crystal plane) -> optional
    SHG -> far field over L2 -> on-axis pinhole. With ``second_harmonic``
    off, the same geometry read out at the fundamental gives the ordinary
    (double-period) two-slit fringe.
    """
    elements = [FourierLens(f), DoubleSlit(x1, slit_width),
                FreeSpaceFourier(L1), FourierLens(f)]
    if second_harmonic:
        elements.append(SHG())
    elements += [FreeSpaceFourier(L2), PinholeSample(pinhole_radius)]
    return OpticalTrain(tuple(elements))


def reversed_focus_train(f: float, D: float, z: float, L1: float, L2: float, *,
                         second_harmonic: bool = True,
                         pinhole_radius: float = 0.0) -> OpticalTrain:
    """Train reconstructing the focal spot from a point source near the focus.

    The source sits a displacement ``z`` from the focal plane of the first
    lens, so the opening stage is the transposed offset 2-f kernel into the
    aperture plane; then free path L1 -> lens f -> optional SHG -> far field
    over L2 -> on-axis pinhole.
    """
    elements = [TwoFWithOffset(f, z, transpose=True), CircularAperture(D),
                FreeSpaceFourier(L1), FourierLens(f)]
    if second_harmonic:
        elements.append(SHG())
    elements += [FreeSpaceFourier(L2), PinholeSample(pinhole_radius)]
    return OpticalTrain(tuple(elements))
