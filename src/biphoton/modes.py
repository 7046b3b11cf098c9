"""Discrete-mode check of the time-reversal identity.

Everything a pair source feeds into a linear system is summarized by a
symmetric coefficient matrix f(s1, s2) over N modes. The forward detection
probabilities and the classically measured reversed intensities are simple
contractions of f; this module computes both sides and audits their exact
proportionality on random instances, all drawn from one seeded generator.
"""
from __future__ import annotations

import contextvars
import json
import os
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .config import MAX_ARRAY_BYTES, audit_array_bytes, audit_chunk_trials
from .errors import ConfigurationError
from .forward import _row_pool, _workers


@dataclass(frozen=True, eq=False)
class TwoPhotonCoeff:
    """Pair-emission coefficients f(s1, s2) for one pump mode.

    Exchange symmetry f == f.T must hold exactly; 2 sum|f|^2 = 1 fixes the
    total pair-emission probability to one.
    """

    f: np.ndarray

    def __post_init__(self):
        f = np.array(self.f, dtype=np.complex128)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 1:
            raise ValueError(f"coefficients must be a square matrix, got {f.shape}")
        if not np.array_equal(f, f.T):
            raise ValueError("pair coefficients must be exchange-symmetric (f == f.T)")
        total = 2 * np.sum(np.abs(f) ** 2)
        if abs(total - 1) > 1e-12:
            raise ValueError(f"2*sum|f|^2 = {total!r}, expected 1 within 1e-12")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    @property
    def n_modes(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True, eq=False)
class FinalMode:
    """Normalized single-photon mode function over the N mode labels."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.complex128)
        if psi.ndim != 1 or psi.size < 1:
            raise ValueError("mode function must be a nonempty vector")
        norm = np.linalg.norm(psi)
        if abs(norm - 1) > 1e-12:
            raise ValueError(f"mode function norm {norm!r} is not 1 within 1e-12")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class MixtureWeights:
    """Convex combination of pure detection cases."""

    cases: Tuple[Tuple[float, object], ...]

    def __post_init__(self):
        cases = tuple((float(w), case) for w, case in self.cases)
        if not cases:
            raise ConfigurationError("mixture needs at least one case")
        if any(w < 0 for w, _ in cases):
            raise ConfigurationError("mixture weights must be nonnegative")
        total = sum(w for w, _ in cases)
        if abs(total - 1) > 1e-12:
            raise ConfigurationError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "cases", cases)


def _coeff_from_rng(n: int, rng: np.random.Generator) -> TwoPhotonCoeff:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = (g + g.T) / 2
    return TwoPhotonCoeff(g / np.sqrt(2 * np.sum(np.abs(g) ** 2)))


def random_coeff(n: int, seed: int) -> TwoPhotonCoeff:
    """Random normalized symmetric coefficient matrix, deterministic per seed."""
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    return _coeff_from_rng(n, np.random.default_rng(seed))


def _mode_from_rng(n: int, rng: np.random.Generator) -> FinalMode:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return FinalMode(v / np.linalg.norm(v))


def random_mode(n: int, seed: int) -> FinalMode:
    """Random normalized mode function, deterministic per seed."""
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    return _mode_from_rng(n, np.random.default_rng(seed))


def _check_index(fc: TwoPhotonCoeff, s_f: int) -> None:
    if not 0 <= s_f < fc.n_modes:
        raise IndexError(f"mode index {s_f} out of range for N={fc.n_modes}")


def forward_prob_single(fc: TwoPhotonCoeff, s_f: int) -> float:
    """Probability of finding both photons in mode s_f: 2 |f(s_f, s_f)|^2."""
    _check_index(fc, s_f)
    return float(2 * np.abs(fc.f[s_f, s_f]) ** 2)


def pair_overlap(fc: TwoPhotonCoeff, f1: FinalMode, f2: FinalMode) -> complex:
    """Contraction sum_{s1 s2} psi_f1*(s1) psi_f2*(s2) f(s1, s2)."""
    return complex(f1.psi.conj() @ fc.f @ f2.psi.conj())


def norm_factor(f1: FinalMode, f2: FinalMode) -> float:
    """k = [1 + |<psi_f1, psi_f2>|^2]^(-1/2) of the two-mode pair state."""
    return float(1 / np.sqrt(1 + np.abs(np.vdot(f1.psi, f2.psi)) ** 2))


def forward_prob_general(fc: TwoPhotonCoeff, f1: FinalMode, f2: FinalMode) -> float:
    """Probability of one photon in mode f1 and one in f2: 4 k^2 |contraction|^2.

    With f1 == f2 == basis vector e_s this reduces exactly to
    forward_prob_single(s) (k^2 = 1/2 cancels the 4 to the factor 2).
    """
    k = norm_factor(f1, f2)
    return float(4 * k**2 * np.abs(pair_overlap(fc, f1, f2)) ** 2)


def reversed_intensity_single(fc: TwoPhotonCoeff, s_f: int) -> float:
    """Upconverted intensity with a coherent beam in mode s_f: |f(s_f, s_f)|^2.

    The driving-amplitude constant is fixed to one, so the forward
    probability is exactly twice this wherever nonzero.
    """
    _check_index(fc, s_f)
    return float(np.abs(fc.f[s_f, s_f]) ** 2)


def reversed_intensity_conditional(fc: TwoPhotonCoeff, f1: FinalMode,
                                   f2: FinalMode) -> float:
    """Intensity after pairwise-only upconversion of beams in modes f1, f2.

    |sum_{s1 s2} f*(s1, s2) psi_f1(s1) psi_f2(s2)|^2, proportional to
    forward_prob_general with ratio 4 k^2.
    """
    return float(np.abs(f1.psi @ fc.f.conj() @ f2.psi) ** 2)


def mixed_reconstruction(weights: MixtureWeights,
                         evaluator: Callable[[object], float]) -> float:
    """Weighted sum of pure-case values: sum_i w_i evaluator(case_i)."""
    return float(sum(w * evaluator(case) for w, case in weights.cases))


@dataclass(frozen=True)
class AuditReport:
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
        return {
            "n_modes": self.n_modes,
            "trials": self.trials,
            "seed": self.seed,
            "max_ratio_dev": self.max_ratio_dev,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }

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

    The seed must be a nonnegative integer, not a bool, and the largest
    array of a chunk of trials (``config.audit_array_bytes``) must fit
    ``config.MAX_ARRAY_BYTES``; anything else raises ``ConfigurationError``
    before a draw.
    """
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    if trials < 1:
        raise ConfigurationError(f"trials: must be >= 1, got {trials}")
    size = audit_array_bytes(n, trials)
    if size > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"n: {n} modes need a {size / 2 ** 30:.3g} GiB array, above the "
            f"{MAX_ARRAY_BYTES / 2 ** 30:.3g} GiB limit")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed: must be a nonnegative integer, got {seed!r}")
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

    ``_draw_chunk`` repeats the scalar arithmetic and checks on the rows of
    ``_audit_draws``, so the coefficients and modes equal the scalar
    functions' exactly; the contractions and the tail run stacked, within
    rounding of them, and give each trial the same bits at any chunk size.

    This thread copies each chunk out of the draws buffer
    (``_unpack_draws``); the rest (``_chunk_values``) runs on the shared
    pool of ``forward._row_pool`` while this thread draws the next chunk,
    since ``standard_normal`` releases the GIL. One chunk at most is in
    flight, and its result is taken before the next is submitted, so one
    pool thread at a time works on the audit, the chunks come back in
    order and the first trial that fails a check raises its
    ``ValueError`` here.
    """
    pool = _row_pool(os.getpid(), _workers())
    future = None
    try:
        for draws in _audit_draws(n, trials, seed):
            stacks = _unpack_draws(draws, n)
            ready = None if future is None else future.result()
            # the copied context carries the caller's np.errstate to the pool
            future = pool.submit(contextvars.copy_context().run, _chunk_values, *stacks)
            if ready is not None:
                yield ready
        if future is not None:
            yield future.result()
    finally:
        if future is not None:
            future.exception()  # a generator closed early still waits for its chunk


def _chunk_values(fc: np.ndarray, psi: np.ndarray):
    """(forward, 4 k^2 * reversed) per trial of one ``_unpack_draws`` chunk."""
    fc, f1, f2 = _normalize_chunk(fc, psi)
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

    Every chunk is a view of one buffer, overwritten by the next: a fresh
    array per chunk was faulted back in each time (about 8000 minor faults
    per 10000-trial audit at 16 modes).
    """
    rows = audit_chunk_trials(n)
    fill = np.random.default_rng(seed).standard_normal
    buf = np.empty((min(rows, trials), 2 * n * n + 4 * n))
    for start in range(0, trials, rows):
        draws = buf[:min(rows, trials - start)]
        fill(out=draws)
        draws += 0.0
        yield draws


def _draw_chunk(draws: np.ndarray, n: int):
    """Coefficient matrices and two final modes per row of raw normal draws.

    Row layout: Re g, Im g (n x n each), then Re/Im of each mode vector.
    The values equal those of ``_coeff_from_rng`` and ``_mode_from_rng`` bit
    for bit, for draws without -0.0 (as ``normal()`` gives). Complex ``+``
    adds the parts one by one, so ``g + g.T`` for ``g = a + 1j * b`` is
    ``a + a.T`` and ``b + b.T`` written into the real and imaginary parts;
    ``* 0.5`` on the float view is ``/ 2``; and ``_divide_stack`` is numpy's
    complex-by-real ``/``. Raises the ``ValueError`` of ``TwoPhotonCoeff``
    or ``FinalMode`` for the first trial that fails their checks.
    """
    return _normalize_chunk(*_unpack_draws(draws, n))


def _unpack_draws(draws: np.ndarray, n: int):
    """``g + g.T`` and the two raw mode vectors of each row, in new arrays.

    Nothing returned shares memory with ``draws``, so the next chunk may
    overwrite it.
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

    Returns the coefficient matrices and the two final modes of each trial.
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
