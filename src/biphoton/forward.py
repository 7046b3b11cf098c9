"""Forward-propagating two-photon simulation on 1-D grids.

The pair state is an n x n symmetric amplitude matrix psi(x_i, x_j); linear
elements act as the same single-particle operator on each photon index, and
coincidence detection at a single point reads the diagonal. This is the
numerical counterpart of the classical pinhole-readout trains, used to check
that both produce identical patterns.

``forward_young`` relays psi by FFTs along each axis, in row chunks on a
kept thread pool, and holds no n x n array. The reversed side of
``forward_vs_reversed_young`` reads the same detection samples through the
closed form of the reversed train (``run_train_batch``, tested against
looped ``run_train``). The relayed pair state stays the forward side of that
compare: it shares no closed form with the reversed side, while
``young_coincidence_at`` computes the same sum as the closed form and is
never compared with it. The dense ``kernel_of``/``evolve`` chain is the
O(n^3) reference.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import YoungParams
from .elements import (
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
    Magnifier,
    OpticalElement,
    TwoFWithOffset,
    _double_slit_mask,
    _flip_index,
    _offset_chirp,
    _params,
    _relay_grid,
    _relay_phase,
    _source_indices,
    reversed_young_train,
    run_train,  # noqa: F401  (re-exported: callers look it up here)
    run_train_batch,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    SamplingError,
    UnsupportedElementError,
)
from .grid import Grid1D, _spectral_axis, point_source  # noqa: F401  (point_source re-exported)

# Bytes of one relay block: a chunk relays its rows this many at a time in
# one buffer it allocates once. 512 KiB is 16 rows at n=2048, where the
# young compare (85 rows) takes 320-640 faults per run instead of 1430 and
# the full grid 2.2-5.1k; 128 KiB blocks made the full grid 1.6x slower.
_BLOCK_BYTES = 512 * 1024
# Elements that are one far-field relay over their one length
_RELAYS = (FourierLens, FreeSpaceFourier)


def _workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _row_pool(pid: int, workers: int) -> "ThreadPoolExecutor":
    """The pool of :func:`_map_row_chunks` and the mode audit, made on first use and kept.

    Threads made per call left each run's buffers in a new malloc arena,
    which made peak RSS drift by 10% from run to run. The key holds the pid,
    since a pool's threads do not survive a fork; an evicted pool's idle
    threads exit when it is collected. ``concurrent.futures`` is imported
    here, so a run that never uses the pool does not load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers)


def _block_rows(n: int) -> int:
    """Rows of n complex samples in one ``_BLOCK_BYTES`` relay block (at least 1)."""
    return max(1, _BLOCK_BYTES // (16 * n))


def _map_row_chunks(fn: Callable[[slice], object], n_rows: int) -> list:
    """``[fn(rows) ...]`` over consecutive row slices, in order.

    The slices cut ``range(n_rows)``, the positions in the caller's list of
    rows; ``forward_young`` maps them to the detection samples it reads.
    Each slice holds ``ceil(n_rows / workers)`` rows (the last one may hold
    fewer): one chunk per worker.

    The chunks run on a shared pool of one thread per usable CPU; numpy's
    FFT and ufuncs release the GIL, so they run in parallel. ``fn`` must not
    itself call this function. An exception in any chunk re-raises here.
    Zero rows still make one empty chunk.
    """
    workers = _workers()
    size = max(1, -(-n_rows // workers))
    chunks = [slice(i, min(i + size, n_rows)) for i in range(0, max(n_rows, 1), size)]
    return list(_row_pool(os.getpid(), workers).map(fn, chunks))


@dataclass(frozen=True, eq=False)
class TwoPhotonAmplitude:
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


@dataclass(frozen=True, eq=False)
class SingleParticleKernel:
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
        (dist,) = _params(element).values()
        grid_out, K = _relay_kernel(grid, dist, wavelength)
        return SingleParticleKernel(grid, grid_out, K)
    if isinstance(element, TwoFWithOffset):
        f, z = element.f, element.z
        factor = 1 + z / f
        grid_out, K = _relay_kernel(grid, f, wavelength)
        if not element.transpose:
            K = K * (factor * _offset_chirp(grid, z, f, wavelength))[None, :]
        else:
            K = (factor * _offset_chirp(grid_out, z, f, wavelength))[:, None] * K
        return SingleParticleKernel(grid, grid_out, K)
    if isinstance(element, DoubleSlit):
        mask = _double_slit_mask(grid, element.x1, element.slit_width)
        return SingleParticleKernel(grid, grid, np.diag(mask).astype(complex))
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


def forward_young(p: YoungParams, grid: Grid1D,
                  slit_width: Optional[float] = None, samples=None):
    """Pair fringe of the forward two-slit system, peak-normalized.

    ``grid`` samples the slit plane, where the pair state is again
    position-correlated (the imaging stage ahead of the slits only rescales
    coordinates and is absorbed). Chain: correlated pairs -> slit mask ->
    focal-plane relay on each photon -> diagonal coincidence. The relay runs
    as an FFT along each axis of psi, O(n^2 log n), on the columns the slits
    keep and then in row chunks, one block of rows at a time; ``kernel_of``
    and ``evolve`` give the same state densely. ``samples`` lists the
    detection-plane samples to read (default: all n); only their rows are
    relayed along axis 1, and each diagonal entry is bit-identical to the
    same entry of the full run. Each block's relayed rows are checked for
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
    kept = np.flatnonzero(_double_slit_mask(grid, p.x1, slit_width))
    cols = np.zeros((n, len(kept)), dtype=complex)
    cols[kept, np.arange(len(kept))] = 1 / grid.dx
    phase = _relay_phase(grid, p.f, p.wavelength)
    cols = _spectral_axis(cols, phase, 0)
    diag = np.empty(len(sel), dtype=complex)
    height = _block_rows(n)

    def relay_rows(rows: slice) -> None:
        # one small block per chunk, reused for each run of its rows
        block = np.empty((min(height, rows.stop - rows.start), n), dtype=complex)
        for lo in range(rows.start, rows.stop, height):
            idx = sel[lo:min(lo + height, rows.stop)]
            part = block[:len(idx)]
            part.fill(0)
            part[:, kept] = cols[idx]
            _spectral_axis(part, phase, 1, out=part)
            if not np.all(np.isfinite(part)):
                raise ValueError("pair amplitudes must be finite")
            diag[lo:lo + len(idx)] = part[np.arange(len(idx)), idx]

    _map_row_chunks(relay_rows, len(sel))
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
    rows are built on the samples the slits pass only.
    """
    mask = _double_slit_mask(grid, p.x1, slit_width)
    kept = np.flatnonzero(mask)
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    flam = p.f * p.wavelength
    # diagonal of K psi K^T with psi = diag(mask^2)/dx and K the sampled
    # focal-plane kernel; the squared kernel doubles the phase argument
    rows = np.exp(-4j * np.pi * np.outer(positions, grid.coords[kept]) / flam)
    diag = (grid.dx / flam) * (rows @ mask[kept].astype(complex) ** 2)
    return 2 * np.abs(diag) ** 2


@dataclass(frozen=True)
class EquivalenceReport:
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
