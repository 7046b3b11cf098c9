"""Sampled complex optical fields on uniform grids, with unitary spectral transforms.

Conventions used throughout the package:

* a 1-D grid of ``n`` samples spaced ``dx`` has coordinates
  ``x_k = (k - n//2) * dx``, so the sample at index ``n//2`` sits on the
  optical axis (every grid is centred on it);
* ``power`` is the cell-area-weighted squared norm ``sum |amp|^2 * cell``;
* the spectral transform uses the kernel ``exp(-i k x)`` and is scaled so that
  power is preserved exactly (discrete Parseval), with output spacing
  ``dk = 2 pi / (n dx)``.
"""
from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ._value import Value
from .errors import ConfigurationError, DomainError, GridMismatchError


def _axis_ends(n: int, d: float) -> tuple:
    """First and last coordinate of an axis, in the arithmetic of ``coords``
    (``xs``, ``ys``) but without building the array."""
    return (0 - n // 2) * d, (n - 1 - n // 2) * d


class Grid1D(Value):
    """Uniform 1-D sampling grid. Lengths are in meters."""

    n: int
    dx: float

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"grid needs n >= 2 samples, got {self.n}")
        if not self.dx > 0:
            raise ConfigurationError(f"grid spacing must be > 0, got {self.dx}")

    @property
    def coords(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def cell(self) -> float:
        """Measure of one sample cell (length in 1-D)."""
        return self.dx

    @property
    def shape(self) -> tuple:
        return (self.n,)

    @property
    def axes(self) -> tuple:
        """The 1-D axes in array-axis order: the grid itself."""
        return (self,)

    def contains(self, pos: float) -> bool:
        first, last = _axis_ends(self.n, self.dx)
        return first - self.dx / 2 <= pos <= last + self.dx / 2

    def index_of(self, pos: float) -> int:
        """Index of the sample nearest ``pos`` (ties round toward -inf)."""
        return int(np.ceil(pos / self.dx - 0.5)) + self.n // 2

    def snap(self, positions, point: str, where: str) -> tuple:
        """:meth:`contains` and :meth:`index_of` on every position at once,
        in their arithmetic (they stay the scalar reference).

        Returns ``(samples, row)``: the distinct sample indices, increasing,
        and for each position the entry of ``samples`` it snaps to. Raises
        DomainError ``"<point> <x> m is outside <where>"`` for the first
        position ``x`` off the grid.
        """
        x = np.asarray(positions, dtype=float)
        first, last = _axis_ends(self.n, self.dx)
        outside = ~((first - self.dx / 2 <= x) & (x <= last + self.dx / 2))
        if outside.any():
            first_out = float(x[outside.argmax()])
            raise DomainError(f"{point} {first_out!r} m is outside {where}")
        idx = np.ceil(x / self.dx - 0.5).astype(np.intp) + self.n // 2
        return np.unique(idx, return_inverse=True)


class Grid2D(Value):
    """Uniform 2-D sampling grid; arrays are indexed ``[iy, ix]``."""

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if n < 2:
                raise ConfigurationError(f"grid needs n >= 2 samples per axis, got {n}")
        for d in (self.dx, self.dy):
            if not d > 0:
                raise ConfigurationError(f"grid spacing must be > 0, got {d}")

    @property
    def axes(self) -> tuple:
        """The 1-D axes in array-axis order: ``(y, x)``."""
        return Grid1D(self.ny, self.dy), Grid1D(self.nx, self.dx)

    @property
    def xs(self) -> np.ndarray:
        return self.axes[1].coords

    @property
    def ys(self) -> np.ndarray:
        return self.axes[0].coords

    @property
    def cell(self) -> float:
        """Measure of one sample cell (area in 2-D)."""
        return self.dx * self.dy

    @property
    def shape(self) -> tuple:
        return (self.ny, self.nx)

    def radius_sq(self) -> np.ndarray:
        """|r|^2 on the full grid, shape (ny, nx)."""
        return self.ys[:, None] ** 2 + self.xs[None, :] ** 2

    def contains(self, pos: tuple) -> bool:
        """:meth:`Grid1D.contains` on each axis; ``pos`` is ``(x, y)``."""
        y, x = self.axes
        return x.contains(pos[0]) and y.contains(pos[1])

    def index_of(self, pos: tuple) -> tuple:
        """(iy, ix) of the sample nearest ``pos``, by :meth:`Grid1D.index_of`."""
        y, x = self.axes
        return y.index_of(pos[1]), x.index_of(pos[0])


Grid = Union[Grid1D, Grid2D]


def _grid_from_axes(axes) -> Grid:
    """The grid whose :attr:`axes` are ``axes``: one Grid1D, or ``(y, x)``."""
    if len(axes) == 1:
        return axes[0]
    y, x = axes
    return Grid2D(x.n, y.n, x.dx, y.dx)


class SampledField(Value, eq=False):
    """Complex scalar field sampled on a grid, tagged with its wavelength.

    Immutable: ``amp`` is copied and write-protected on construction, and all
    operations return new fields.
    """

    grid: Grid
    wavelength: float
    amp: np.ndarray

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ConfigurationError(f"wavelength must be > 0, got {self.wavelength}")
        amp = np.array(self.amp, dtype=np.complex128)
        if amp.shape != self.grid.shape:
            raise GridMismatchError(
                f"amplitude shape {amp.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("field amplitudes must be finite (no NaN/Inf)")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)


def point_source(grid: Grid, pos, total_power: float, wavelength: float) -> SampledField:
    """Discrete delta: all energy in the single sample nearest ``pos``.

    The spike amplitude is ``sqrt(total_power / cell)`` so that
    ``power(result) == total_power`` exactly.
    """
    if total_power < 0:
        raise ConfigurationError(f"total_power must be >= 0, got {total_power}")
    if not grid.contains(pos):
        raise DomainError(f"source position {pos} lies outside the grid")
    amp = np.zeros(grid.shape, dtype=np.complex128)
    amp[grid.index_of(pos)] = np.sqrt(total_power / grid.cell)
    return SampledField(grid, wavelength, amp)


def power(f: SampledField) -> float:
    """Cell-weighted total power, ``sum |amp|^2 * cell``."""
    return float(np.sum(np.abs(f.amp) ** 2) * f.grid.cell)


def inner_product(a: SampledField, b: SampledField) -> complex:
    """Cell-weighted inner product ``sum conj(a) b * cell``.

    Conjugate-symmetric: ``inner_product(a, b) == conj(inner_product(b, a))``.
    """
    if a.grid != b.grid or a.wavelength != b.wavelength:
        raise GridMismatchError("inner product requires identical grids and wavelengths")
    return complex(np.sum(np.conj(a.amp) * b.amp) * a.grid.cell)


def _spectral_phase(a: Grid1D, scale: float) -> np.ndarray:
    """The n-vector :func:`_spectral_axis` multiplies the shifted FFT of axis
    ``a`` by, for :func:`_far_field` at ``scale``.

    Phases fold the index-space FFT into the centered-coordinate kernel;
    every scale factor and the gain ``1/sqrt(scale)`` are folded in too.
    Computing it once serves many transforms over the same axis.
    """
    n, d = a.n, a.dx
    c = n // 2
    dk = 2 * np.pi / (n * d)
    j = np.arange(n)
    phase = np.exp(2j * np.pi * (j - c) * c / n)
    phase *= np.sqrt(d / dk) * (1 / np.sqrt(scale))
    return phase


def _spectral_axis(amp: np.ndarray, phase: np.ndarray, axis: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """One axis of the transform: kernel ``exp(-i k x)``, ``k_j = (j - n//2) dk``.

    ``phase`` is :func:`_spectral_phase` of the axis, computed once by the
    caller; it is only read. The result is written to ``out`` when given:
    an array of ``amp``'s shape and dtype, which may be ``amp`` itself (the
    FFT reads it first).

    The ``fftshift`` and every scale factor are folded into one multiply by
    that n-vector, written as two slice products, so the spectrum takes one
    pass after the FFT. Every caller that must agree bit for bit with
    another goes through this function with the same ``phase``.
    """
    n = phase.size
    c = n // 2
    spec = np.fft.fft(amp, axis=axis, norm="ortho")
    shape = [1] * amp.ndim
    shape[axis] = n
    phase = phase.reshape(shape)
    if out is None:
        out = np.empty_like(spec)

    def cut(a, lo, hi):
        index = [slice(None)] * a.ndim
        index[axis] = slice(lo, hi)
        return a[tuple(index)]

    # out[k] = spec[(k - c) mod n] * phase[k], the fftshift as index arithmetic
    np.multiply(cut(spec, n - c, n), cut(phase, 0, c), out=cut(out, 0, c))
    np.multiply(cut(spec, 0, n - c), cut(phase, c, n), out=cut(out, c, n))
    return out


def _far_grid(g: Grid, scale: float) -> Grid:
    """Output grid of :func:`_far_field`: per axis, n samples at ``dk * scale``."""
    return _grid_from_axes([Grid1D(a.n, 2 * np.pi / (a.n * a.dx) * scale)
                           for a in g.axes])


def _far_field(f: SampledField, scale: float) -> SampledField:
    """:func:`_spectral_axis` along every axis of the field, x first, with
    spatial frequency k placed at ``k * scale``.

    The gain ``1/sqrt(scale)`` per axis rides in the spectral phase, so
    power is preserved on the rescaled grid with no extra pass. A 1-D field
    and each axis of a 2-D one get the same arithmetic.
    """
    amp, axes = f.amp, f.grid.axes
    for i in reversed(range(len(axes))):  # x is the last array axis
        # past the first axis ``amp`` is this call's own array: transform in place
        amp = _spectral_axis(amp, _spectral_phase(axes[i], scale), i,
                             out=None if amp is f.amp else amp)
    return SampledField(_far_grid(f.grid, scale), f.wavelength, amp)


def unitary_fourier(f: SampledField) -> SampledField:
    """Power-preserving discrete Fourier transform of the field.

    Output samples live on the conjugate grid with spacing ``dk = 2pi/(n dx)``
    per axis. Equal to the Riemann sum of
    ``integral g(x) exp(-i x k) dx / sqrt(2 pi)`` on the sample points.
    """
    return _far_field(f, 1.0)
