"""Sampled complex optical fields on uniform grids, with unitary spectral transforms.

Conventions used throughout the package:

* a 1-D grid of ``n`` samples spaced ``dx`` has coordinates
  ``x_k = center + (k - n//2) * dx``, so the sample at index ``n//2`` sits at
  the grid center;
* ``power`` is the cell-area-weighted squared norm ``sum |amp|^2 * cell``;
* the spectral transform uses the kernel ``exp(-i k x)`` and is scaled so that
  power is preserved exactly (discrete Parseval), with output spacing
  ``dk = 2 pi / (n dx)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, DomainError, GridMismatchError


def _axis_ends(n: int, d: float, center: float) -> tuple:
    """First and last coordinate of an axis, in the arithmetic of ``coords``
    (``xs``, ``ys``) but without building the array."""
    return center + (0 - n // 2) * d, center + (n - 1 - n // 2) * d


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D sampling grid. Lengths are in meters."""

    n: int
    dx: float
    center: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"grid needs n >= 2 samples, got {self.n}")
        if not self.dx > 0:
            raise ConfigurationError(f"grid spacing must be > 0, got {self.dx}")

    @property
    def coords(self) -> np.ndarray:
        return self.center + (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def cell(self) -> float:
        """Measure of one sample cell (length in 1-D)."""
        return self.dx

    @property
    def shape(self) -> tuple:
        return (self.n,)

    def contains(self, pos: float) -> bool:
        first, last = _axis_ends(self.n, self.dx, self.center)
        return first - self.dx / 2 <= pos <= last + self.dx / 2

    def index_of(self, pos: float) -> int:
        """Index of the sample nearest ``pos`` (ties round toward -inf)."""
        t = (pos - self.center) / self.dx
        return int(np.ceil(t - 0.5)) + self.n // 2

    def snap(self, positions, point: str, where: str) -> tuple:
        """:meth:`contains` and :meth:`index_of` on every position at once,
        in their arithmetic (they stay the scalar reference).

        Returns ``(samples, row)``: the distinct sample indices, increasing,
        and for each position the entry of ``samples`` it snaps to. Raises
        DomainError ``"<point> <x> m is outside <where>"`` for the first
        position ``x`` off the grid.
        """
        x = np.asarray(positions, dtype=float)
        first, last = _axis_ends(self.n, self.dx, self.center)
        outside = ~((first - self.dx / 2 <= x) & (x <= last + self.dx / 2))
        if outside.any():
            first_out = float(x[outside.argmax()])
            raise DomainError(f"{point} {first_out!r} m is outside {where}")
        idx = np.ceil((x - self.center) / self.dx - 0.5).astype(np.intp) + self.n // 2
        return np.unique(idx, return_inverse=True)


@dataclass(frozen=True)
class Grid2D:
    """Uniform 2-D sampling grid; arrays are indexed ``[iy, ix]``."""

    nx: int
    ny: int
    dx: float
    dy: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if n < 2:
                raise ConfigurationError(f"grid needs n >= 2 samples per axis, got {n}")
        for d in (self.dx, self.dy):
            if not d > 0:
                raise ConfigurationError(f"grid spacing must be > 0, got {d}")

    @property
    def xs(self) -> np.ndarray:
        return self.center[0] + (np.arange(self.nx) - self.nx // 2) * self.dx

    @property
    def ys(self) -> np.ndarray:
        return self.center[1] + (np.arange(self.ny) - self.ny // 2) * self.dy

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
        px, py = pos
        x0, x1 = _axis_ends(self.nx, self.dx, self.center[0])
        y0, y1 = _axis_ends(self.ny, self.dy, self.center[1])
        return (x0 - self.dx / 2 <= px <= x1 + self.dx / 2
                and y0 - self.dy / 2 <= py <= y1 + self.dy / 2)

    def index_of(self, pos: tuple) -> tuple:
        """(iy, ix) of the sample nearest ``pos`` (ties round toward -inf)."""
        tx = (pos[0] - self.center[0]) / self.dx
        ty = (pos[1] - self.center[1]) / self.dy
        return (int(np.ceil(ty - 0.5)) + self.ny // 2,
                int(np.ceil(tx - 0.5)) + self.nx // 2)


Grid = Union[Grid1D, Grid2D]


@dataclass(frozen=True, eq=False)
class SampledField:
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


def _spectral_phase(n: int, d: float, center: float, inverse: bool,
                    gain: float = 1.0) -> np.ndarray:
    """The n-vector :func:`_spectral_axis` multiplies the shifted FFT by.

    Phases fold the index-space FFT into the centered-coordinate kernel,
    including the offset of the input grid center; every scale factor and
    ``gain`` are folded in too. Computing it once serves many transforms
    over the same axis.
    """
    c = n // 2
    dk = 2 * np.pi / (n * d)
    j = np.arange(n)
    k_out = (j - c) * dk
    if not inverse:
        phase = np.exp(-1j * k_out * center + 2j * np.pi * (j - c) * c / n)
    else:
        phase = np.exp(1j * center * k_out - 2j * np.pi * (j - c) * c / n)
    phase *= np.sqrt(d / dk) * gain
    return phase


def _spectral_axis(amp: np.ndarray, n: int, d: float, center: float, axis: int,
                   inverse: bool, out: Optional[np.ndarray] = None,
                   phase: Optional[np.ndarray] = None) -> tuple:
    """One axis of the unitary transform; returns (amp_out, d_out).

    Forward kernel is ``exp(-i k x)`` with ``k_j = (j - n//2) dk``; the output
    grid is centered at 0. ``inverse`` applies the conjugate-transpose map.
    The result is written to ``out`` when given: an array of ``amp``'s shape
    and dtype, which may be ``amp`` itself (the FFT reads it first).
    ``phase``, when given, is :func:`_spectral_phase` of the same arguments,
    computed once by the caller with any ``gain`` folded in; it is only read.

    The ``fftshift`` and every scale factor are folded into one multiply by
    that n-vector, written as two slice products, so the spectrum takes one
    pass after the FFT. Every caller that must agree bit for bit with
    another goes through this function with the same ``phase``.
    """
    c = n // 2
    dk = 2 * np.pi / (n * d)
    if phase is None:
        phase = _spectral_phase(n, d, center, inverse)
    if not inverse:
        spec = np.fft.fft(amp, axis=axis, norm="ortho")
    else:
        spec = np.fft.ifft(amp, axis=axis, norm="ortho")
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
    return out, dk


def _transform(f: SampledField, inverse: bool) -> SampledField:
    """:func:`_spectral_axis` along every axis of the field, x first."""
    g = f.grid
    if isinstance(g, Grid1D):
        out, d = _spectral_axis(f.amp, g.n, g.dx, g.center, 0, inverse)
        return SampledField(Grid1D(g.n, d, 0.0), f.wavelength, out)
    out, dx = _spectral_axis(f.amp, g.nx, g.dx, g.center[0], 1, inverse)
    out, dy = _spectral_axis(out, g.ny, g.dy, g.center[1], 0, inverse)
    return SampledField(Grid2D(g.nx, g.ny, dx, dy, (0.0, 0.0)), f.wavelength, out)


def unitary_fourier(f: SampledField) -> SampledField:
    """Power-preserving discrete Fourier transform of the field.

    Output samples live on the conjugate grid with spacing ``dk = 2pi/(n dx)``
    per axis, centered at zero. Equal to the Riemann sum of
    ``integral g(x) exp(-i x k) dx / sqrt(2 pi)`` on the sample points.
    """
    return _transform(f, inverse=False)


def inverse_unitary_fourier(f: SampledField) -> SampledField:
    """Conjugate-transpose of :func:`unitary_fourier`.

    For a field produced by the forward transform of a zero-centered grid,
    this recovers the original field to machine precision.
    """
    return _transform(f, inverse=True)
