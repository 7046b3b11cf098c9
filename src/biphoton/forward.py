"""Forward-propagating two-photon simulation on 1-D grids.

The pair state is an n x n symmetric amplitude matrix psi(x_i, x_j); linear
elements act as the same single-particle operator on each photon index, and
coincidence detection at a single point reads the diagonal. This is the
numerical counterpart of the classical pinhole-readout trains, used to check
that both produce identical patterns.

``forward_young`` relays psi by FFTs along each axis, in blocks of rows
on the calling thread, and holds no n x n array. The reversed side of
``forward_vs_reversed_young`` reads the same detection samples through the
closed form of the reversed train (``run_train_batch``, tested against
looped ``run_train``). The relayed pair state stays the forward side of that
compare: it shares no closed form with the reversed side, while
``young_coincidence_at`` computes the same sum as the closed form and is
never compared with it. The dense O(n^3) reference, the
``TwoPhotonAmplitude``/``kernel_of``/``evolve`` chain, is in ``oracles``.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ._value import Value, lazy_oracles
from .analytic import YoungParams
from .elements import (
    DoubleSlit,
    _relay_grid,
    _relay_phase,
    _source_indices,
    reversed_young_train,
    run_train,  # noqa: F401  (re-exported: callers look it up here)
    run_train_batch,
)
from .errors import ConfigurationError, DomainError, SamplingError
from .grid import Grid1D, _spectral_axis, point_source  # noqa: F401  (point_source re-exported)

# Bytes of one relay block: ``forward_young`` relays its rows this many at
# a time in one buffer it allocates once per call. 512 KiB is 16 rows at
# n=2048, where the young compare (85 rows) took 320-640 faults per run
# instead of 1430 and the full grid 2.2-5.1k (measured with one block per
# CPU); 128 KiB blocks made the full grid 1.6x slower.
_BLOCK_BYTES = 512 * 1024


def _block_rows(n: int) -> int:
    """Rows of n complex samples in one ``_BLOCK_BYTES`` relay block (at least 1)."""
    return max(1, _BLOCK_BYTES // (16 * n))


def forward_young(p: YoungParams, grid: Grid1D,
                  slit_width: Optional[float] = None, samples=None):
    """Pair fringe of the forward two-slit system, peak-normalized.

    ``grid`` samples the slit plane, where the pair state is again
    position-correlated (the imaging stage ahead of the slits only rescales
    coordinates and is absorbed). Chain: correlated pairs -> slit mask ->
    focal-plane relay on each photon -> diagonal coincidence. The relay runs
    as an FFT along each axis of psi, O(n^2 log n), on the columns the slits
    keep and then one block of rows at a time, on the calling thread;
    ``kernel_of`` and ``evolve`` give the same state densely. ``samples``
    lists the detection-plane samples to read (default: all n); only their
    rows are relayed along axis 1, and each diagonal entry is bit-identical
    to the same entry of the full run. Each block's relayed rows are checked for
    finiteness and only their diagonal entries are kept, so the n x n state
    is never held; the diagonal needs no symmetrization, as ``(a + a.T)/2``
    leaves it unchanged. The relay's phase vector is computed once per call.

    Every row read is relayed in full on purpose. A direct sum for the
    diagonal alone is what ``young_coincidence_at`` and the reversed closed
    form compute, and the forward side of ``forward_vs_reversed_young`` must
    not share it.

    Returns
    -------
    (Grid1D, ndarray)
        The detection-plane grid and the fringe on ``samples``, normalized
        by its peak over them.

    Raises
    ------
    DomainError
        If ``samples`` is empty or not a 1-D list of sample indices.
    SamplingError
        If the detection grid resolves the fringe with fewer than 8
        samples per period.
    """
    samples_per_fringe = grid.n * grid.dx / (4 * p.x1)
    if samples_per_fringe < 8:
        raise SamplingError(
            f"only {samples_per_fringe:.2f} detection samples per fringe; "
            "need >= 8 (enlarge n*dx or reduce x1)")
    n = grid.n
    sel = np.arange(n) if samples is None else _source_indices(grid, samples)
    if sel.size == 0:
        raise DomainError("no detection samples to read")
    # spdc_initial after the diagonal slit kernel: mask^2 / dx = mask / dx
    # on the diagonal, since the mask is 0/1. Its other columns are zero
    # and the FFT of a zero column is exactly zero, so the axis-0 relay runs
    # on the kept columns only.
    kept = np.flatnonzero(DoubleSlit(p.x1, slit_width).mask(grid))
    cols = np.zeros((n, len(kept)), dtype=complex)
    cols[kept, np.arange(len(kept))] = 1 / grid.dx
    phase = _relay_phase(grid, p.f, p.wavelength)
    cols = _spectral_axis(cols, phase, 0)
    diag = np.empty(len(sel), dtype=complex)
    height = _block_rows(n)
    block = np.empty((min(height, len(sel)), n), dtype=complex)
    for lo in range(0, len(sel), height):
        idx = sel[lo:lo + height]
        part = block[:len(idx)]
        part.fill(0)
        part[:, kept] = cols[idx]
        _spectral_axis(part, phase, 1, out=part)
        if not np.all(np.isfinite(part)):
            raise ValueError("pair amplitudes must be finite")
        diag[lo:lo + len(idx)] = part[np.arange(len(idx)), idx]
    curve = 2 * np.abs(diag) ** 2
    peak = curve.max()
    if peak == 0:
        raise ConfigurationError("slit mask transmitted nothing on this grid")
    return _relay_grid(grid, p.f, p.wavelength), curve / peak


def snap_young_sweep(p: YoungParams, grid: Grid1D, positions,
                     compare: bool = False) -> tuple:
    """Detection-plane samples nearest the sweep ``positions``.

    The detection grid is the focal-plane relay of ``grid``, the one
    ``forward_young`` reads and the reversed trains run from. Returns
    ``(det, sources, row)``: that grid and :meth:`Grid1D.snap` of the
    positions on it.

    Raises
    ------
    ConfigurationError
        With ``compare``, if the positions snap to fewer than 2 distinct
        samples, where the peak-normalized deviation is 0 by construction.
    DomainError
        If a position lies outside the detection grid.
    """
    det = _relay_grid(grid, p.f, p.wavelength)
    sources, row = det.snap(positions, "sweep point", "the reversed-train source grid "
                            f"(half-width {det.n * det.dx / 2:.3e} m)")
    if compare and len(sources) < 2:
        raise ConfigurationError(
            f"the sweep snaps to {len(sources)} detection sample; a compare "
            "needs at least 2, since one peak-normalized sample deviates by 0")
    return det, sources, row


def young_coincidence_at(p: YoungParams, grid: Grid1D, positions,
                         slit_width: Optional[float] = None) -> np.ndarray:
    """Unnormalized pair rate at arbitrary detector positions.

    Same chain as forward_young, but the focal-plane kernel row is evaluated
    directly at each requested position instead of on the conjugate grid, so
    there is no snapping and no fringe-resolution precondition. The kernel
    rows are built on the samples the slits pass only, in blocks of about
    ``_BLOCK_BYTES`` and at least 2 rows (a 1-row product takes another BLAS
    route), whose products are the full product's rows bit for bit.
    """
    mask = DoubleSlit(p.x1, slit_width).mask(grid)
    kept = np.flatnonzero(mask)
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    flam = p.f * p.wavelength
    # diagonal of K psi K^T with psi = diag(mask^2)/dx and K the sampled
    # focal-plane kernel; the squared kernel doubles the phase argument
    coords, weights = grid.coords[kept], mask[kept].astype(complex) ** 2
    blocks = len(positions) // max(2, _block_rows(max(1, len(kept))))
    diag = np.concatenate([np.exp(-4j * np.pi * np.outer(block, coords) / flam) @ weights
                           for block in np.array_split(positions, max(1, blocks))])
    return 2 * np.abs((grid.dx / flam) * diag) ** 2


class EquivalenceReport(Value):
    """Outcome of a forward-vs-reconstruction sweep over ``n_points`` samples."""

    max_rel_err: float
    n_points: int


def forward_vs_reversed_young(p: YoungParams, grid: Grid1D,
                              slit_width: Optional[float] = None,
                              L1: float = 0.25, L2: float = 0.5,
                              positions=None) -> EquivalenceReport:
    """Compare the forward pair fringe with the scanned-source pinhole train.

    Both sides are read on the distinct detection-plane samples that the
    sweep ``positions`` snap to (:func:`snap_young_sweep`; default: every
    sample): the forward side relays only their pair-state rows, and the
    reconstruction train is read from a point source at each of them by its
    closed form (``run_train_batch``). Each curve is normalized by its own
    peak over those samples and the maximum pointwise deviation is reported.
    The result does not depend on L1/L2 (they enter only through an exact
    discrete demagnifier).

    Raises
    ------
    ConfigurationError, DomainError
        As :func:`snap_young_sweep` with ``compare`` raises them.
    """
    sources = (np.arange(grid.n) if positions is None
               else snap_young_sweep(p, grid, positions, compare=True)[1])
    det_grid, fwd = forward_young(p, grid, slit_width, sources)
    train = reversed_young_train(p.f, p.x1, L1, L2, slit_width=slit_width)
    rev = run_train_batch(det_grid, p.wavelength, sources, train)
    rev = rev / rev.max()
    return EquivalenceReport(max_rel_err=float(np.max(np.abs(fwd - rev))),
                             n_points=len(sources))


# Part of the dense pair-state chain, in ``oracles`` since no run uses it,
# resolves here on first use only because ``perfbench`` still reaches it
# here (ROADMAP items 1 and 14); tests import it from ``oracles``.
__getattr__ = lazy_oracles(__name__, (
    "TwoPhotonAmplitude", "spdc_initial", "kernel_of", "evolve", "coincidence_diagonal"))
