"""Optical elements acting on sampled fields, and trains composing them.

All spectral stages (lens in 2-f configuration, long free-space path) are
far-field transforms with the kernel ``exp(-i 2 pi x y / (dist wl))``; no
general Fresnel propagator is provided. Elements are small frozen value
classes (``_value.Value``), so trains are immutable and comparable. Each
class is the one definition of its element: its parameter rules, checked
once when it is built; its ``tag``, a class attribute that names its spans
in ``perfbench/tracer.py``; and its field operator ``apply``, which
``apply_element`` calls. The stops' ``mask`` and ``runs`` also serve the
closed forms and checks that hold no field.

Each experiment has one forward system, ``(DoubleSlit, FourierLens)`` or
``(CircularAperture, OffsetChirp, FourierLens)``, and its reversed train is
that system read backwards (``_time_reversed``): a relay is again a relay,
and the slits, the aperture and the chirp screen are diagonal.

``run_train`` applies a train to one field and is the reference.
``run_train_batch`` reads the pinhole for many point sources at once, by one
exact closed form of the chain both reversed trains share, with SHG and a
radius-0 pinhole; its stop is the Young train's double slit on a 1-D grid or
the focus train's aperture on a 2-D grid, and states what it passes as runs.
It uses no FFT and no SampledField, and agrees with looped ``run_train`` to
1e-12 of the sweep peak. Every other train, SHG-off trains and finite
pinholes included, runs through looped ``run_train``.
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
    chirp_scale,
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
    """Rule shared by every element, checked before the class's ``_validate``:
    each field holds a finite real number, or None where None is its default.
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not ((value is None and f.default is None) or (
                    isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value))):
                raise ConfigurationError(f"{type(self).__name__}.{f.name} must be "
                                         f"a finite real number, got {value!r}")
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


class OffsetChirp(_Element):
    """Chirp screen that, next to a ``FourierLens(f)``, offsets its 2-f stage.

    ``apply`` multiplies a field on the plane it sits on by
    ``(1 + z/f) exp(-i pi z r^2/(f^2 wl))``: ``[OffsetChirp, FourierLens]``
    relays a field onto the plane ``z`` past the focal plane, and
    ``[FourierLens, OffsetChirp]`` relays a point emitter on that plane back
    into the front focal plane. ``z`` may be negative. ``apply`` raises
    SamplingError where the chirp phase advances by more than pi per sample
    (aliasing).
    """

    f: float
    z: float
    tag = "offset_chirp"

    def _validate(self):
        if not self.f > 0:
            raise ConfigurationError(f"focal length must be > 0, got {self.f}")

    def apply(self, field: SampledField) -> SampledField:
        chirp = _offset_chirp(field.grid, self.z, self.f, field.wavelength)
        return SampledField(field.grid, field.wavelength,
                            field.amp * (1 + self.z / self.f) * chirp)


class DoubleSlit(_Element):
    """Binary mask with openings centered at +-x1, on 1-D fields only.

    ``slit_width=None`` means one grid cell at apply time: each slit passes
    exactly the sample nearest its center, one sample each (the delta slit).
    Within 1e-9 of a cell, a delta slit's tie rounds down and a finite slit
    passes its edge samples, so a double relay that moves dx by an ulp
    keeps the same samples.
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
        delta slit lies outside it, or both fall on one sample."""
        mask = np.zeros(grid.n)
        margin = 1e-9 * grid.dx
        if self.slit_width is None:
            for pos in (self.x1, -self.x1):
                if not grid.contains(pos):
                    raise DomainError(f"slit at {pos} lies outside the grid")
                mask[grid.index_of(pos - margin)] = 1.0
            if mask.sum() < 2:
                raise DomainError(f"delta slits at +-{self.x1} m share one grid sample")
        else:
            x, half = grid.coords, self.slit_width / 2 + margin
            mask[np.abs(x - self.x1) <= half] = 1.0
            mask[np.abs(x + self.x1) <= half] = 1.0
        return mask

    def runs(self, grid: Grid1D) -> tuple:
        """What the slits pass on ``grid``, in the form of
        :meth:`CircularAperture.runs`: the kept samples, as one run."""
        kept = np.flatnonzero(self.mask(grid))
        return (kept,), np.array([0]), np.array([len(kept)])

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

    def runs(self, grid: Grid2D) -> tuple:
        """What the stop passes on ``grid``: ``((ky, kx), lo, hi)``.

        ``ky`` and ``kx`` are the rows and columns it passes on the y and x
        axes, and it passes no sample off them: floating-point y^2 + x^2 is
        never below y^2 or x^2, and y^2 + 0.0 is y^2. Row ``ky[i]`` passes
        the columns ``kx[lo[i]:hi[i]]``, one run holding the centre column:
        floating-point y^2 + x^2 grows with |x| on each side of sample n//2.
        """
        zero = np.zeros(1)
        ky = np.flatnonzero(self.mask(grid.ys, zero))
        kx = np.flatnonzero(self.mask(zero, grid.xs))
        passes = self.mask(grid.ys[ky], grid.xs[kx])
        lo = passes.argmax(axis=1)
        return (ky, kx), lo, lo + np.count_nonzero(passes, axis=1)

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


_ELEMENTS = (FourierLens, FreeSpaceFourier, OffsetChirp, DoubleSlit,
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
    NonFiniteError where f**2 is beyond the float range (``chirp_scale``).
    """
    axes = [(a.coords, a.dx) for a in reversed(grid.axes)]
    scale = chirp_scale(f, wl)
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
    1.0, wavelength), train)``. The train must be one of two shapes, with
    SHG and a radius-0 pinhole, as the builders' defaults give:

    - on a :class:`Grid1D`, the shape :func:`reversed_young_train` builds;
      ``indices`` lists sample indices;
    - on a :class:`Grid2D`, the shape :func:`reversed_focus_train` builds
      (any ``z``); ``indices`` lists ``(iy, ix)`` rows.

    One exact closed form of the chain both shapes share reads all sources
    at once, with no FFT and no SampledField; the stop states what it
    passes as runs, and the grids come from the relay chain's own
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
        For any other train, SHG-off trains and finite pinholes included:
        looped ``run_train`` reads those.
    """
    if not wavelength > 0:
        raise ConfigurationError(f"wavelength must be > 0, got {wavelength}")
    young = isinstance(grid, Grid1D)
    elements = train.elements
    if (tuple(map(type, elements)) != (_YOUNG_KINDS if young else _FOCUS_KINDS)
            or elements[-1].radius != 0.0):
        raise UnsupportedElementError(
            "a batched train must be the SHG, radius-0 pinhole train that "
            "reversed_young_train (1-D grid) or reversed_focus_train (2-D grid) "
            "builds; run_train reads any other train")
    indices = _source_indices(grid, indices)
    # each stage and the readings are checked; the checks name an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        readings = np.abs(_pinhole_totals(grid, wavelength, indices, train)) ** 2
    _check_finite(readings)
    return readings


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
    column-major layout ``full[:, cols]`` has: a row sum or prefix sum over
    it then keeps the summation order it has over that slice.
    """
    c = n // 2
    j = (np.arange(n) if cols is None else np.asarray(cols, dtype=np.intp)) - c
    turns = (j[:, None] * (m - c)) % n
    return (np.exp(-2j * np.pi * turns / n) * (d / np.sqrt(dist * wavelength))).T


def _pinhole_totals(grid: Grid, wl: float, indices: np.ndarray,
                    train: OpticalTrain) -> np.ndarray:
    """On-axis amplitudes of a reversed train, one per source.

    Both reversed trains are one chain: an opening lens, the chirp screen
    of a focus train, a stop, free path L1 then lens f, SHG, a far field
    over L2 and a radius-0 pinhole. Exact rewrites of it, for a source
    ``sqrt(1/cell)`` on one sample of each axis:

    1. the opening lens relays the spike to a separable plane wave, one
       :func:`_relayed_delta` row per axis, built only on the pupil samples
       the stop reaches; the screen's chirp is separable too, so each row
       takes its axis's chirp, and its ``1 + z/f`` joins the gain;
    2. free path L1 then lens f is ``Magnifier(-f/L1)``, a gain
       ``(L1/f)^(d/2)`` on d axes; its flip commutes with the final relay,
       and the radius-0 reading is symmetric under it, so it is skipped;
    3. SHG squares each row and the gain once and halves the wavelength;
    4. the final relay read at the origin is ``sum(amp) cell/(L2 wl/2)^(d/2)``
       on the image grid. The stop passes one run ``[lo, hi)`` of the last
       axis per kept sample of the first (one run on one axis), so the sum
       is ``sum_y ry^2[y] (C[hi_y] - C[lo_y])``, with ``C`` the prefix sums
       of ``rx^2``: O(ky + kx) per source, with no per-source 2-D array.

    The gain keeps each grid's rounding order: on one axis ``sqrt(L1/f)``
    rides with the source amplitude before squaring; on two, ``(1 + z/f)
    L1/f`` is squared as one scalar.
    """
    opening, *screen, stop, path1, lens, _, path2, _ = train.elements
    pupil = _relay_grid(grid, opening.f, wl)
    kept, lo, hi = stop.runs(pupil)
    rows = [_relayed_delta(a.n, a.dx, m, opening.f, wl, cols=k) for a, m, k in
            zip(grid.axes, indices.reshape(len(indices), len(kept)).T, kept)]
    factor = 1.0
    for s in screen:  # the focus train's chirp screen
        factor += s.z / s.f
        chirps = reversed(_axis_chirps(pupil, s.z, s.f, wl))  # (y, x)
        for row, chirp, k in zip(rows, chirps, kept):
            row *= chirp[k]
    image = _relay_grid(_relay_grid(pupil, path1.L, wl), lens.f, wl)
    spread = path2.L * (wl / 2)
    amp0 = np.sqrt(1.0 / grid.cell)
    if len(rows) == 1:
        rows[0] *= amp0 * (factor * np.sqrt(path1.L / lens.f))
        scales = [image.dx / np.sqrt(spread)]
    else:
        rows[-1] *= amp0
        gain = factor * (path1.L / lens.f)
        scales = [gain * gain, image.dx * image.dy / spread]
    for a in rows:
        _check_finite(np.square(a, out=a))
    _check_finite(scales)
    prefix = np.zeros((len(indices), len(kept[-1]) + 1), dtype=rows[-1].dtype)
    np.cumsum(rows[-1], axis=1, out=prefix[:, 1:])
    runs = prefix[:, hi] - prefix[:, lo]
    totals = runs[:, 0] if len(rows) == 1 else np.sum(rows[0] * runs, axis=1)
    for scale in scales:
        totals = totals * scale
    return totals


def _time_reversed(forward: tuple, L1: float, L2: float, second_harmonic: bool,
                   pinhole_radius: float) -> OpticalTrain:
    """The forward system ``forward``, which ends in a lens, read backwards
    from a point source, then free path L1 -> that lens again (the two
    spectral stages demagnify the stop onto the crystal plane) -> optional
    SHG -> far field over L2 -> on-axis pinhole."""
    elements = [*reversed(forward), FreeSpaceFourier(L1), forward[-1]]
    if second_harmonic:
        elements.append(SHG())
    elements += [FreeSpaceFourier(L2), PinholeSample(pinhole_radius)]
    return OpticalTrain(tuple(elements))


def reversed_young_train(f: float, x1: float, L1: float, L2: float, *,
                         slit_width: Optional[float] = None,
                         second_harmonic: bool = True,
                         pinhole_radius: float = 0.0) -> OpticalTrain:
    """Train reconstructing the two-slit pattern from a scanned point source.

    The forward system, double slit -> lens f, read backwards, then the
    shared tail. With ``second_harmonic`` off, the fundamental readout gives
    the ordinary (double-period) two-slit fringe.
    """
    return _time_reversed((DoubleSlit(x1, slit_width), FourierLens(f)), L1, L2,
                          second_harmonic, pinhole_radius)


def reversed_focus_train(f: float, D: float, z: float, L1: float, L2: float, *,
                         second_harmonic: bool = True,
                         pinhole_radius: float = 0.0) -> OpticalTrain:
    """Train reconstructing the focal spot from a point source near the focus.

    The forward system, circular aperture -> chirp screen -> lens f (the 2-f
    stage onto the plane ``z`` past the focal plane), read backwards, then
    the shared tail.
    """
    return _time_reversed((CircularAperture(D), OffsetChirp(f, z), FourierLens(f)),
                          L1, L2, second_harmonic, pinhole_radius)


# The element classes of the two trains run_train_batch reads, from their builders
_YOUNG_KINDS, _FOCUS_KINDS = (tuple(map(type, t.elements)) for t in (
    reversed_young_train(1, 1, 1, 1), reversed_focus_train(1, 1, 0, 1, 1)))
