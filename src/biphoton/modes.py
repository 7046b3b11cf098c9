"""Discrete-mode check of the time-reversal identity.

Everything a pair source feeds into a linear system is summarized by a
symmetric coefficient matrix f(s1, s2) over N modes. The forward detection
probabilities and the classically measured reversed intensities are simple
contractions of f; this module computes both sides and audits their exact
proportionality on random instances.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .config import AUDIT_CHUNK as _AUDIT_CHUNK
from .config import MAX_ARRAY_BYTES, audit_array_bytes
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


# Trials whose PCG64 streams are derived together, as uint32 vectors.
_SEED_BLOCK = 1024
# Each trial's spawn key must be one uint32 word, so trials stay below 2**32.
_MAX_TRIALS = 2**32

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the multiplier of PCG64's 128-bit LCG step.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def time_reversal_audit(n: int, trials: int, seed: int,
                        tolerance: float = 1e-9) -> AuditReport:
    """Check forward_prob_general == 4 k^2 * reversed_intensity_conditional.

    Each trial draws an independent random coefficient matrix and two random
    final modes from a per-trial spawn of the seed, so the trial loop could
    run in any order (or in parallel) with identical results.

    Trial i draws from the i-th child of ``SeedSequence(seed).spawn(trials)``:
    its single draw of 2n^2 + 4n normals is the stream ``_coeff_from_rng``
    and two ``_mode_from_rng`` calls consume from ``default_rng(child)``.
    The children are never built: ``_spawn_states`` runs numpy's
    SeedSequence and PCG64 seeding arithmetic for many children at once, and
    each result is set on one reused generator. A Generator's draws depend
    only on its bit generator's state, so every trial gets the numbers
    ``default_rng(child)`` gives and the seed contract is unchanged.

    The seed must be a nonnegative integer and trials below 2**32 (one
    uint32 spawn key per trial), and the largest array of a chunk of trials
    (``config.audit_array_bytes``) must fit ``config.MAX_ARRAY_BYTES``;
    anything else raises ``ConfigurationError`` before a draw.
    """
    if n < 1:
        raise ConfigurationError(f"mode count must be >= 1, got {n}")
    if not 1 <= trials < _MAX_TRIALS:
        raise ConfigurationError(f"trials: must be >= 1 and < 2**32, got {trials}")
    size = audit_array_bytes(n, trials)
    if size > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"n: {n} modes need a {size / 2 ** 30:.3g} GiB array, above the "
            f"{MAX_ARRAY_BYTES / 2 ** 30:.3g} GiB limit")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed: must be a nonnegative integer, got {seed!r}")
    max_dev = 0.0
    for fwd, scaled in _audit_chunks(n, trials, seed):
        denom = np.maximum(fwd, scaled)
        keep = denom > 0
        dev = np.abs(fwd - scaled)[keep] / denom[keep]
        max_dev = max(max_dev, float(dev.max(initial=0.0)))
    return AuditReport(n_modes=n, trials=trials, seed=seed,
                       max_ratio_dev=max_dev, tolerance=tolerance)


def _audit_chunks(n: int, trials: int, seed: int):
    """(forward, 4 k^2 * reversed) arrays for successive chunks of trials.

    Trial i's draws are bit-identical to ``default_rng(child).normal`` for
    the i-th child of ``SeedSequence(seed).spawn(trials)``: the child's PCG64
    state is derived, not seeded (``_spawn_states``), and the state is all
    a generator's output depends on. ``_draw_chunk`` repeats the scalar
    arithmetic and checks, so the coefficients and modes equal the scalar
    functions' exactly; the contractions and the tail run stacked, within
    rounding of them.
    """
    for draws in _audit_draws(n, trials, seed):
        fc, f1, f2 = _draw_chunk(draws, n)
        overlap = _contract(f1.conj(), fc, f2.conj())
        reverse = _contract(f1, fc.conj(), f2)
        vdot = (f1.conj()[:, None, :] @ f2[:, :, None])[:, 0, 0]
        k = 1 / np.sqrt(1 + np.abs(vdot) ** 2)
        yield 4 * k**2 * np.abs(overlap) ** 2, 4 * k**2 * np.abs(reverse) ** 2


def _audit_draws(n: int, trials: int, seed: int):
    """Chunks of ``_AUDIT_CHUNK`` rows of 2n^2 + 4n normals, one row per trial.

    Row i is ``default_rng(SeedSequence(seed).spawn(trials)[i]).normal(...)``:
    one reused PCG64 is set to each child's derived state through the public
    ``state`` setter, which is all ``default_rng(child)`` differs by.
    """
    width = 2 * n * n + 4 * n
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    streams = _spawn_states(int(seed), trials)
    for start in range(0, trials, _AUDIT_CHUNK):
        draws = np.empty((min(_AUDIT_CHUNK, trials - start), width))
        for row in draws:
            state["state"]["state"], state["state"]["inc"] = next(streams)
            bitgen.state = state
            row[:] = rng.normal(size=width)
        yield draws


def _spawn_states(seed: int, trials: int):
    """Yield the PCG64 (state, inc) of each child of SeedSequence(seed).spawn(trials).

    Follows numpy's published SeedSequence algorithm: child i mixes the
    seed's little-endian uint32 words, zero-padded to the pool size of 4,
    plus its spawn key (i,) into a 4-word pool; ``generate_state(4, uint64)``
    hashes the pool into two 128-bit words; ``pcg64_set_seed`` turns those
    into (state, inc). The uint32 hashing runs as vectors over blocks of
    ``_SEED_BLOCK`` keys, the 128-bit step in Python ints. Needs
    0 <= seed and trials <= 2**32.
    """
    words = []
    while True:
        words.append(np.array([seed & _MASK32], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    words += [np.zeros(1, dtype=np.uint32)] * (4 - len(words))
    for start in range(0, trials, _SEED_BLOCK):
        keys = np.arange(start, min(start + _SEED_BLOCK, trials), dtype=np.uint32)
        state = _generate_state(_mix_entropy(words + [keys]))
        for s1, s0, i1, i0 in zip(*state.tolist()):
            inc = (i1 << 64 | i0) << 1 & _MASK128 | 1
            yield ((inc + (s1 << 64 | s0)) * _PCG64_MULT + inc) & _MASK128, inc


def _mix_entropy(entropy: list) -> list:
    """SeedSequence.mix_entropy of at least 5 uint32 words into a 4-word pool.

    Each word is a uint32 array (length 1 or one entry per key); array
    arithmetic wraps mod 2**32 as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) of each pool, as 4 rows of uint64."""
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append((value ^ value >> 16).astype(np.uint64))
    # uint32 words pair up little-endian into uint64 words
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)])


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
