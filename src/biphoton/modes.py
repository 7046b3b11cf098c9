"""Discrete-mode check of the time-reversal identity.

Everything a pair source feeds into a linear system is summarized by a
symmetric coefficient matrix f(s1, s2) over N modes. The forward detection
probabilities and the classically measured reversed intensities are simple
contractions of f; this module computes both sides and audits their exact
proportionality on random instances, all drawn from one seeded generator.

The audit runs stacked over chunks of trials. Its scalar reference, the
value classes ``TwoPhotonCoeff``/``FinalMode`` and one function per
probability and intensity, is in ``oracles``.
"""
from __future__ import annotations

import contextvars
import functools
import json
import os

import numpy as np

from ._value import Value, asdict, lazy_oracles
from .config import audit_chunk_trials, audit_diags
from .errors import ConfigurationError


class AuditReport(Value):
    """Result of a randomized forward-vs-reversed proportionality audit."""

    n_modes: int
    trials: int
    seed: int
    max_ratio_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_ratio_dev <= self.tolerance

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# Largest forward-vs-reversed ratio deviation an audit passes with.
AUDIT_TOLERANCE = 1e-9


def time_reversal_audit(n: int, trials: int, seed: int) -> AuditReport:
    """Check forward_prob_general == 4 k^2 * reversed_intensity_conditional.

    Trial i draws its coefficient matrix and two final modes from the i-th
    block of 2n^2 + 4n normals of one ``default_rng(seed)``: the numbers
    ``_coeff_from_rng`` and two ``_mode_from_rng`` calls draw when called
    trial after trial on that generator, at any chunk size.

    Arguments that break ``config.audit_diags``, the rule ``validate``
    applies to an audit config, raise ``ConfigurationError`` before a draw.

    ``max_ratio_dev`` reads 0.0 by construction: the forward contraction
    conj(f1) F conj(f2) is the exact IEEE conjugate of the reversed
    f1 conj(F) f2, and both are squared with the same k. The audit measures
    no rounding drift against its tolerance and fails only on a structural
    error, such as a wrong k or a dropped chunk, until its forward side is
    computed independently (ROADMAP item 2).
    """
    diags = audit_diags(n, trials, seed, ("n", "trials", "seed"))
    if diags:
        raise ConfigurationError("; ".join(diags))
    max_dev = 0.0
    for fwd, scaled in _audit_chunks(n, trials, seed):
        denom = np.maximum(fwd, scaled)
        keep = denom > 0
        dev = np.abs(fwd - scaled)[keep] / denom[keep]
        max_dev = max(max_dev, float(dev.max(initial=0.0)))
    return AuditReport(n_modes=n, trials=trials, seed=seed,
                       max_ratio_dev=max_dev, tolerance=AUDIT_TOLERANCE)


def _audit_chunks(n: int, trials: int, seed: int):
    """(forward, 4 k^2 * reversed) arrays for successive chunks of trials.

    ``_unpack_draws`` and ``_normalize_chunk`` repeat the scalar arithmetic
    and checks on the rows of ``_audit_draws``, so the coefficients and
    modes equal the scalar functions' exactly; the contractions and the tail
    run stacked, within rounding of them, and give each trial the same bits
    at any chunk size.

    This thread only draws: each chunk's arithmetic (``_chunk_values``, its
    copy out of the draws buffer included) runs on the one thread of
    ``_chunk_pool`` while this thread draws the next chunk into the other
    buffer of ``_audit_draws``, since ``standard_normal`` releases the GIL.
    One chunk at most is in flight, and its result is taken before the next
    is submitted, so the chunks come back in order, a buffer is refilled
    only after the chunk drawn into it is read, and the first trial that
    fails a check raises its ``ValueError`` here.
    """
    pool = _chunk_pool(os.getpid())
    future = None
    try:
        for draws in _audit_draws(n, trials, seed):
            ready = None if future is None else future.result()
            # the copied context carries the caller's np.errstate to the pool
            future = pool.submit(contextvars.copy_context().run, _chunk_values, draws, n)
            if ready is not None:
                yield ready
        if future is not None:
            yield future.result()
    finally:
        if future is not None:
            future.exception()  # a generator closed early still waits for its chunk


@functools.lru_cache(maxsize=1)
def _chunk_pool(pid: int) -> "ThreadPoolExecutor":
    """The one-thread pool of :func:`_audit_chunks`, made on first use and kept.

    Threads made per audit left each run's buffers in a new malloc arena,
    which made peak RSS drift by 10% from run to run. The key holds the pid,
    since a pool's thread does not survive a fork; an evicted pool's idle
    thread exits when it is collected. ``concurrent.futures`` is imported
    here, so a run that never audits does not load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


def _chunk_values(draws: np.ndarray, n: int):
    """(forward, 4 k^2 * reversed) per trial of one ``_audit_draws`` chunk."""
    fc, f1, f2 = _normalize_chunk(*_unpack_draws(draws, n))
    overlap = _contract(f1.conj(), fc, f2.conj())
    reverse = _contract(f1, fc.conj(), f2)
    vdot = (f1.conj()[:, None, :] @ f2[:, :, None])[:, 0, 0]
    k = 1 / np.sqrt(1 + np.abs(vdot) ** 2)
    return 4 * k**2 * np.abs(overlap) ** 2, 4 * k**2 * np.abs(reverse) ** 2


def _audit_draws(n: int, trials: int, seed: int):
    """Chunks of ``audit_chunk_trials(n)`` rows of 2n^2 + 4n normals, one row per trial.

    The rows are successive blocks of one ``default_rng(seed)`` stream, each
    chunk filled by one ``standard_normal(out=...)``. ``normal()`` returns
    those ziggurat values z as ``0.0 + 1.0 * z``, which turns z = -0.0 into
    +0.0; the ``+= 0.0`` does the same, so every bit matches ``normal()``.

    Chunk k is a view of buffer k % 2 and is overwritten by chunk k + 2, so
    one chunk may still be read while the next is drawn. The second buffer
    is made when a second chunk is drawn. A fresh array per chunk was
    faulted back in each time (about 8000 minor faults per 10000-trial
    audit at 16 modes).
    """
    rows, width = audit_chunk_trials(n), 2 * n * n + 4 * n
    fill = np.random.default_rng(seed).standard_normal
    bufs = [np.empty((min(rows, trials), width))]
    for k, start in enumerate(range(0, trials, rows)):
        if k == 1:
            bufs.append(np.empty((min(rows, trials - start), width)))
        draws = bufs[k % 2][:min(rows, trials - start)]
        fill(out=draws)
        draws += 0.0
        yield draws


def _unpack_draws(draws: np.ndarray, n: int):
    """``g + g.T`` and the two raw mode vectors of each row, in new arrays.

    Row layout: Re g, Im g (n x n each), then Re/Im of each mode vector.
    Complex ``+`` adds the parts one by one, so ``g + g.T`` for
    ``g = a + 1j * b`` is ``a + a.T`` and ``b + b.T`` written into the real
    and imaginary parts. Nothing returned shares memory with ``draws``, so
    ``_normalize_chunk`` works in place and the buffer may be refilled once
    this returns.
    """
    m, nn = draws.shape[0], n * n
    ab = draws[:, :2 * nn].reshape(m, 2, n, n)
    fc = np.empty((m, n, n), dtype=complex)
    np.add(ab[:, 0], ab[:, 0].transpose(0, 2, 1), out=fc.real)
    np.add(ab[:, 1], ab[:, 1].transpose(0, 2, 1), out=fc.imag)
    v = draws[:, 2 * nn:].reshape(m, 2, 2, n)
    psi = np.empty((m, 2, n), dtype=complex)
    psi.real, psi.imag = v[:, :, 0], v[:, :, 1]
    return fc, psi


def _normalize_chunk(fc: np.ndarray, psi: np.ndarray):
    """Halve and normalize ``_unpack_draws``'s stacks in place and check them.

    Returns the coefficient matrices and the two final modes of each trial,
    equal to those of ``_coeff_from_rng`` and ``_mode_from_rng`` bit for bit
    for draws without -0.0 (as ``normal()`` gives): ``* 0.5`` on the float
    view is ``/ 2``, and ``_divide_stack`` is numpy's complex-by-real ``/``.
    Raises the ``ValueError`` of ``TwoPhotonCoeff`` or ``FinalMode`` for the
    first trial that fails their checks.
    """
    parts = fc.view(np.float64)
    parts *= 0.5
    _divide_stack(fc, np.sqrt(2 * _sum_sq(fc)))
    _divide_stack(psi, np.sqrt(_norm_sq(psi)))

    if not np.array_equal(fc, fc.transpose(0, 2, 1)):
        raise ValueError("pair coefficients must be exchange-symmetric (f == f.T)")
    total = 2 * _sum_sq(fc)
    bad = np.flatnonzero(np.abs(total - 1) > 1e-12)
    if bad.size:
        raise ValueError(f"2*sum|f|^2 = {total[bad[0]]!r}, expected 1 within 1e-12")
    norm = np.sqrt(_norm_sq(psi))
    bad = np.argwhere(np.abs(norm - 1) > 1e-12)
    if bad.size:
        raise ValueError(f"mode function norm {norm[tuple(bad[0])]!r} "
                         "is not 1 within 1e-12")
    return fc, psi[:, 0], psi[:, 1]


def _divide_stack(z: np.ndarray, s: np.ndarray) -> None:
    """``z /= s`` in place for a complex stack z and one real s per leading index.

    numpy divides complex by real as by ``s + 0j``: with rat = 0 and
    scl = 1/s each part becomes ``(part +- other * 0) * scl``, which is
    ``part * (1/s)`` bit for bit unless the part is -0.0. So the parts are
    multiplied by ``1 / s`` on the float view, with no complex arithmetic.
    """
    parts = z.view(np.float64)
    parts *= (1 / s).reshape(s.shape + (1,) * (z.ndim - s.ndim))


def _sum_sq(f: np.ndarray) -> np.ndarray:
    """sum |f|^2 of each matrix in a stack, summed as ``np.sum`` sums one matrix."""
    return np.sum(np.abs(f.reshape(f.shape[0], -1)) ** 2, axis=1)


def _norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each vector in a stack, as ``np.linalg.norm`` forms it."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _contract(u: np.ndarray, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u @ f @ w per trial, as stacked matmuls (the scalar path's gemv, then dot)."""
    return (u[:, None, :] @ f @ w[:, :, None])[:, 0, 0]


# Part of the scalar mode check, in ``oracles`` since no run uses it,
# resolves here on first use only because ``perfbench`` still reaches it
# here (ROADMAP items 1 and 14); tests import it from ``oracles``.
__getattr__ = lazy_oracles(__name__, (
    "_coeff_from_rng", "_mode_from_rng", "forward_prob_general", "norm_factor",
    "reversed_intensity_conditional"))
