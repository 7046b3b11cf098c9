"""Optical elements acting on sampled fields, and trains composing them.

All spectral stages (lens in 2-f configuration, long free-space path) are
far-field transforms with the kernel ``exp(-i 2 pi x y / (dist wl))``; no
general Fresnel propagator is provided. Elements are small frozen value
classes (``_value.Value``), so trains are immutable and comparable. Each
class is the one definition of its element: its parameter rules, checked
once when it is built; its ``tag``, a class attribute that names its spans
in ``perfbench/tracer.py``; and its field operator ``apply``, which
``apply_element`` calls. ``DoubleSlit.mask`` and ``CircularAperture.mask``
also serve the closed forms and checks that hold no field.

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
from typing import Optional, Union

import numpy as np

from ._value import Value, fields
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
    _far_field,
    _far_grid,
    _grid_from_axes,
    _spectral_phase,
    unitary_fourier,  # noqa: F401  (re-exported: callers look it up here)
)


# ---------------------------------------------------------------- element types

class _Element(Value):
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


class FourierLens(_Element):
    """Ideal lens of focal length ``f`` used in 2-f configuration.

    ``apply`` transforms a 1-D or 2-D field from the front to the back
    focal plane, onto the conjugate grid of spacing ``f*wl/(n*dx_in)`` per
    axis; power is preserved exactly.
    """

    f: float
    tag = "fourier_lens"

    def _validate(self):
        if not self.f > 0:
            raise ConfigurationError(f"focal length must be > 0, got {self.f}")

    def apply(self, field: SampledField) -> SampledField:
        return _fourier_relay(field, self.f)


class FreeSpaceFourier(_Element):
    """Far-field (Fraunhofer) free-space path of length ``L``.

    The same map as a lens of focal length ``L``; valid in the Fraunhofer
    regime only (long L), as this package never needs the Fresnel form.
    """

    L: float
    tag = "free_space"

    def _validate(self):
        if not self.L > 0:
            raise ConfigurationError(f"propagation distance must be > 0, got {self.L}")

    def apply(self, field: SampledField) -> SampledField:
        return _fourier_relay(field, self.L)


class TwoFWithOffset(_Element):
    """2-f stage whose far plane is displaced ``z`` from the focal plane.

    The kernel is the focal-plane transform with the chirp
    ``exp(-i pi z r^2/(f^2 wl))`` and the relative amplitude ``1 + z/f``
    on the input plane; ``z`` may be negative, and at z=0 ``apply`` equals
    :class:`FourierLens` bit for bit. With ``transpose`` the
    adjoint-direction kernel is applied instead: the chirp sits on the
    output plane, which models a point emitter on the displaced plane
    propagating back into the back focal plane. ``apply`` raises
    SamplingError where the chirp phase advances by more than pi per
    sample on the chirped plane (aliasing).
    """

    f: float
    z: float
    transpose: bool = False
    tag = "two_f_offset"

    def _validate(self):
        if not self.f > 0:
            raise ConfigurationError(f"focal length must be > 0, got {self.f}")

    def apply(self, field: SampledField) -> SampledField:
        f, z, wl = self.f, self.z, field.wavelength
        factor = 1 + z / f
        if not self.transpose:
            chirp = _offset_chirp(field.grid, z, f, wl)
            out = _fourier_relay(SampledField(field.grid, wl, field.amp * chirp), f)
            return SampledField(out.grid, wl, out.amp * factor)
        out = _fourier_relay(field, f)
        chirp = _offset_chirp(out.grid, z, f, wl)
        return SampledField(out.grid, wl, out.amp * factor * chirp)


class DoubleSlit(_Element):
    """Binary mask with openings centered at +-x1, on 1-D fields only.

    ``slit_width=None`` means one grid cell at apply time: each slit passes
    exactly the sample nearest its center (the idealized delta slit).
    """

    x1: float
    slit_width: Optional[float] = None
    tag = "double_slit"

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

    def mask(self, grid: Grid1D) -> np.ndarray:
        """0/1 transmission on the samples of ``grid``; DomainError if a
        delta slit lies outside it."""
        mask = np.zeros(grid.n)
        if self.slit_width is None:
            for pos in (self.x1, -self.x1):
                if not grid.contains(pos):
                    raise DomainError(f"slit at {pos} lies outside the grid")
                mask[grid.index_of(pos)] = 1.0
        else:
            x = grid.coords
            mask[np.abs(x - self.x1) <= self.slit_width / 2] = 1.0
            mask[np.abs(x + self.x1) <= self.slit_width / 2] = 1.0
        return mask

    def apply(self, field: SampledField) -> SampledField:
        if not isinstance(field.grid, Grid1D):
            raise UnsupportedElementError("double slit acts on 1-D fields only")
        return SampledField(field.grid, field.wavelength,
                            field.amp * self.mask(field.grid))


class CircularAperture(_Element):
    """Hard circular stop of diameter ``D`` on 2-D fields: transmits |r| <= D/2."""

    D: float
    tag = "circular_aperture"

    def _validate(self):
        if not self.D > 0:
            raise ConfigurationError(f"aperture diameter must be > 0, got {self.D}")

    def mask(self, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Transmission at each ``(y, x)`` of two coordinate axes, shape (ny, nx)."""
        return ys[:, None] ** 2 + xs[None, :] ** 2 <= (self.D / 2) ** 2

    def apply(self, field: SampledField) -> SampledField:
        grid = field.grid
        if not isinstance(grid, Grid2D):
            raise UnsupportedElementError("circular aperture acts on 2-D fields only")
        return SampledField(grid, field.wavelength,
                            field.amp * self.mask(grid.ys, grid.xs))


class Magnifier(_Element):
    """Imaging stage of magnification ``M`` (negative M inverts the image).

    ``apply`` is the pure coordinate remap E'(x) = E(x/M) |M|^(-d/2), with
    power preserved, done as grid metadata: spacings scale by |M|, and
    negative M reverses sample order about the center sample.
    """

    M: float
    tag = "magnifier"

    def _validate(self):
        if self.M == 0:
            raise ConfigurationError("magnification must be nonzero")

    def apply(self, field: SampledField) -> SampledField:
        a = abs(self.M)
        amp = field.amp
        axes = field.grid.axes
        if self.M < 0:
            amp = amp[np.ix_(*(_flip_index(g.n) for g in axes))]
        grid = _grid_from_axes([Grid1D(g.n, a * g.dx) for g in axes])
        return SampledField(grid, field.wavelength, amp / np.sqrt(a) ** len(axes))


class SHG(_Element):
    """Thin-crystal second-harmonic stage: squares the field pointwise and
    halves the wavelength (undepleted pump; power is not conserved)."""

    tag = "shg"

    def apply(self, field: SampledField) -> SampledField:
        return SampledField(field.grid, field.wavelength / 2, field.amp ** 2)


class PinholeSample(_Element):
    """Terminal intensity pickup centered on the origin.

    ``apply`` returns a float. Radius 0 reads the origin, sample ``n//2`` of
    each axis, as ``|E(0)|^2``; a finite radius integrates
    ``|amp|^2 * cell`` over the samples within it.
    """

    radius: float = 0.0
    tag = "pinhole"

    def _validate(self):
        if self.radius < 0:
            raise ConfigurationError(f"pinhole radius must be >= 0, got {self.radius}")

    def apply(self, field: SampledField) -> float:
        grid = field.grid
        if self.radius == 0.0:
            return float(abs(field.amp[tuple(s // 2 for s in grid.shape)]) ** 2)
        if isinstance(grid, Grid1D):
            sel = np.abs(grid.coords) <= self.radius
        else:
            sel = grid.radius_sq() <= self.radius ** 2
        return float(np.sum(np.abs(field.amp[sel]) ** 2) * grid.cell)


_ELEMENTS = (FourierLens, FreeSpaceFourier, TwoFWithOffset, DoubleSlit,
             CircularAperture, Magnifier, SHG, PinholeSample)
OpticalElement = Union[_ELEMENTS]
# The classes apply_element accepts, with the tags perfbench/tracer.py names
# their spans by.
_TAGS = {cls: cls.tag for cls in _ELEMENTS}


class OpticalTrain(Value):
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
    return _far_field(field, dist * field.wavelength / (2 * np.pi))


def _relay_phase(grid: Grid1D, dist: float, wavelength: float) -> np.ndarray:
    """The spectral phase :func:`_fourier_relay` applies along ``grid``, to
    compute once for many relays over the same axis.

    ``grid._spectral_axis`` with this phase relays every 1-D slice of an
    array along one axis with the arithmetic :func:`_fourier_relay` gives a
    1-D field, bit for bit; :func:`_relay_grid` is the output grid."""
    return _spectral_phase(grid, dist * wavelength / (2 * np.pi))


def _axis_chirps(grid, z: float, f: float, wl: float) -> list:
    """Offset chirp ``exp(-i pi z c^2/(f^2 wl))`` per axis of ``grid``, x first.

    Raises SamplingError where the phase advances by more than pi per
    sample: beyond pi the chirp aliases and the z-sweep silently folds back;
    NonFiniteError where f**2 * wl is beyond the float range.
    """
    axes = [(a.coords, a.dx) for a in reversed(grid.axes)]
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


def _flip_index(n: int) -> np.ndarray:
    # Exact mirror about the center sample n//2; for even n the unpaired
    # edge sample wraps onto itself, matching a double Fourier transform.
    return (2 * (n // 2) - np.arange(n)) % n


# ---------------------------------------------------------------- trains

def apply_element(field: SampledField, element: OpticalElement):
    """Apply one element; returns a field, or a float for PinholeSample."""
    if type(element) not in _TAGS:
        raise UnsupportedElementError(f"unknown element {element!r}")
    return element.apply(field)


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
    # each stage and the readings are checked; the checks name an overflow
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Output grid of :func:`_fourier_relay` over ``dist``."""
    return _far_grid(g, dist * wavelength / (2 * np.pi))


def _relayed_delta(n: int, d: float, m: np.ndarray, dist: float,
                   wavelength: float, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Far-field relays of unit spikes at samples ``m`` of a 1-D axis, one row each.

    Row i is the column of the sampled relay kernel at source ``m[i]``,
    ``exp(-2 pi i x' x0/(dist wl)) d/sqrt(dist wl)``. The phase index
    ``(j-c)(m-c) mod n`` is taken in exact integers, as the FFT's twiddle
    factors are.
    ``cols`` lists the output samples to build (default all n); each entry
    equals the full row's entry bit for bit.

    The array is built as (samples, sources) and returned transposed, the
    column-major layout ``full[:, cols]`` has: a matrix product or row sum
    over it then keeps the summation order it has over that slice.
    """
    c = n // 2
    j = (np.arange(n) if cols is None else np.asarray(cols, dtype=np.intp)) - c
    turns = (j[:, None] * (m - c)) % n
    return (np.exp(-2j * np.pi * turns / n) * (d / np.sqrt(dist * wavelength))).T


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
    kept = np.flatnonzero(slit.mask(slits))
    rows = _relayed_delta(grid.n, grid.dx, indices, opening.f, wl, cols=kept)
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
    # The aperture passes no sample outside the rows and columns kept here,
    # those it passes on the x and y axes: floating-point y^2 + x^2 is never
    # below y^2 or x^2, and y^2 + 0.0 is y^2.
    zero = np.zeros(1)
    ky = np.flatnonzero(aperture.mask(pupil.ys, zero))
    kx = np.flatnonzero(aperture.mask(zero, pupil.xs))
    weight = np.outer(cy[ky], cx[kx])
    weight *= (1 + z / f) * (path1.L / lens.f)
    weight *= aperture.mask(pupil.ys[ky], pupil.xs[kx])
    on_axis = image.dx * image.dy / (path2.L * wl_out)

    amp0 = np.sqrt(1.0 / grid.cell)
    ry = _relayed_delta(grid.ny, grid.dy, indices[:, 0], f, wl, cols=ky)
    rx = _relayed_delta(grid.nx, grid.dx, indices[:, 1], f, wl, cols=kx)
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
