"""Discrete-mode check of the time-reversal identity.

Everything a pair source feeds into a linear system is summarized by a
symmetric coefficient matrix f(s1, s2) over N modes. The forward detection
probabilities and the classically measured reversed intensities are simple
contractions of f; this module computes both sides and audits their exact
proportionality on random instances.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError


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


# Trials drawn and contracted together in time_reversal_audit; a fixed size
# keeps the chunk arrays (chunk x n x n complex) small.
_AUDIT_CHUNK = 32


def time_reversal_audit(n: int, trials: int, seed: int,
                        tolerance: float = 1e-9) -> AuditReport:
    """Check forward_prob_general == 4 k^2 * reversed_intensity_conditional.

    Each trial draws an independent random coefficient matrix and two random
    final modes from a per-trial spawn of the seed, so the trial loop could
    run in any order (or in parallel) with identical results.

    Trials run in chunks of ``_AUDIT_CHUNK``; trial i still draws from the
    i-th child of ``SeedSequence(seed).spawn(trials)``. Its single draw of
    2n^2 + 4n normals is the stream ``_coeff_from_rng`` and two
    ``_mode_from_rng`` calls consume, and every step repeats their
    arithmetic and their checks, so each trial's values are bit-identical
    to the scalar functions.
    """
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    if trials < 1:
        raise ConfigurationError(f"trial count must be >= 1, got {trials}")
    max_dev = 0.0
    for fwd, scaled in _audit_values(n, trials, seed):
        denom = max(fwd, scaled)
        if denom > 0:
            max_dev = max(max_dev, abs(fwd - scaled) / denom)
    return AuditReport(n_modes=n, trials=trials, seed=seed,
                       max_ratio_dev=max_dev, tolerance=tolerance)


def _audit_values(n: int, trials: int, seed: int):
    """Yield (forward, 4 k^2 * reversed) of every audit trial, in trial order."""
    # Successive spawn() calls continue one child sequence, so spawning per
    # chunk gives the children of spawn(trials) without holding them all.
    parent = np.random.SeedSequence(seed)
    for start in range(0, trials, _AUDIT_CHUNK):
        children = parent.spawn(min(_AUDIT_CHUNK, trials - start))
        draws = np.stack([np.random.default_rng(child).normal(size=2 * n * n + 4 * n)
                          for child in children])
        fc, f1, f2 = _draw_chunk(draws, n)
        overlap = _contract(f1.conj(), fc, f2.conj())
        reverse = _contract(f1, fc.conj(), f2)
        vdot = (f1.conj()[:, None, :] @ f2[:, :, None])[:, 0, 0]
        # Scalar tail in Python floats: numpy squares float64 scalars with pow
        # and arrays with x*x, so array arithmetic would move the last bit.
        for ov, rv, vd in zip(overlap.tolist(), reverse.tolist(), vdot.tolist()):
            k = 1 / math.sqrt(1 + abs(vd) ** 2)
            yield 4 * k**2 * abs(ov) ** 2, 4 * k**2 * abs(rv) ** 2


def _draw_chunk(draws: np.ndarray, n: int):
    """Coefficient matrices and two final modes per row of raw normal draws.

    Row layout: Re g, Im g (n x n each), then Re/Im of each mode vector.
    Raises the ``ValueError`` of ``TwoPhotonCoeff`` or ``FinalMode`` for
    the first trial that fails their checks.
    """
    m, nn = draws.shape[0], n * n
    g = draws[:, :nn].reshape(m, n, n) + 1j * draws[:, nn:2 * nn].reshape(m, n, n)
    g = (g + g.transpose(0, 2, 1)) / 2
    fc = g / np.sqrt(2 * _sum_sq(g))[:, None, None]
    v = draws[:, 2 * nn:].reshape(m, 4, n)
    v = v[:, 0::2] + 1j * v[:, 1::2]
    psi = v / np.sqrt(_norm_sq(v))[..., None]

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
