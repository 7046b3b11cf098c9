"""Mode-space detection probabilities against independent Fock-basis oracles."""
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton.modes as modes
from biphoton.config import AUDIT_CHUNK, audit_chunk_trials
from biphoton.errors import ConfigurationError
from biphoton.modes import (
    AuditReport,
    _audit_chunks,
    _audit_draws,
    _contract,
    _normalize_chunk,
    _unpack_draws,
    time_reversal_audit,
)
from biphoton.oracles import (
    FinalMode,
    TwoPhotonCoeff,
    _coeff_from_rng,
    _mode_from_rng,
    forward_prob_general,
    forward_prob_single,
    norm_factor,
    random_coeff,
    random_mode,
    reversed_intensity_conditional,
    reversed_intensity_single,
)


def fock_vector(c):
    """Amplitudes of sum_ab c_ab a+(a) a+(b) |0> on the a<=b occupation basis.

    A doubly occupied mode picks up the bosonic sqrt(2); distinct modes add
    the two orderings.
    """
    n = c.shape[0]
    out = []
    for a in range(n):
        for b in range(a, n):
            out.append(np.sqrt(2) * c[a, a] if a == b else c[a, b] + c[b, a])
    return np.array(out)


def basis_mode(n, s):
    e = np.zeros(n)
    e[s] = 1.0
    return FinalMode(e)


def projection_prob(fc, c_final):
    """|<final|pair state>|^2 by direct overlap in the physical basis."""
    v_pair = fock_vector(fc.f)
    assert np.linalg.norm(v_pair) == pytest.approx(1.0, abs=1e-12)
    return np.abs(np.vdot(fock_vector(c_final), v_pair)) ** 2


# ------------------------------------------------------------- constructors


def test_random_coeff_deterministic_per_seed():
    a = random_coeff(6, seed=123)
    b = random_coeff(6, seed=123)
    assert np.array_equal(a.f, b.f)
    assert not np.array_equal(a.f, random_coeff(6, seed=124).f)


def test_random_coeff_invariants_many_seeds():
    for seed in range(100):
        fc = random_coeff(5, seed)
        assert np.array_equal(fc.f, fc.f.T)
        assert 2 * np.sum(np.abs(fc.f) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_random_coeff_single_mode():
    fc = random_coeff(1, seed=0)
    assert 2 * abs(fc.f[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_random_coeff_rejects_zero_modes():
    with pytest.raises(ConfigurationError):
        random_coeff(0, seed=1)


def test_coeff_rejects_asymmetric():
    f = np.array([[0, 0.5], [0.5j, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        TwoPhotonCoeff(f)


def test_coeff_rejects_wrong_normalization():
    with pytest.raises(ValueError, match="expected 1"):
        TwoPhotonCoeff(np.eye(2))


def test_coeff_rejects_nonsquare():
    with pytest.raises(ValueError):
        TwoPhotonCoeff(np.zeros((2, 3)))


def test_final_mode_must_be_unit():
    with pytest.raises(ValueError, match="norm"):
        FinalMode(np.array([1.0, 1.0]))
    FinalMode(np.array([1.0, 1.0]) / np.sqrt(2))


# -------------------------------------------------------- single-mode pair


def off_diagonal_coeff():
    # All weight on (0,1)+(1,0): 2 * (2 * 0.25) = 1.
    return TwoPhotonCoeff(np.array([[0, 0.5], [0.5, 0]], dtype=complex))


def test_single_prob_zero_for_zero_diagonal():
    fc = off_diagonal_coeff()
    assert forward_prob_single(fc, 0) == 0.0
    assert forward_prob_single(fc, 1) == 0.0


def test_single_prob_is_one_for_one_mode():
    assert forward_prob_single(random_coeff(1, 5), 0) == pytest.approx(1.0, abs=1e-12)


def test_single_prob_index_checked():
    fc = random_coeff(3, 0)
    with pytest.raises(IndexError):
        forward_prob_single(fc, 3)
    with pytest.raises(IndexError):
        reversed_intensity_single(fc, -1)


def test_single_prob_matches_projection_oracle():
    for seed in range(12):
        fc = random_coeff(4, seed)
        s = seed % 4
        want = projection_prob(fc, np.outer(*2 * [np.eye(4)[s]]) / np.sqrt(2))
        assert forward_prob_single(fc, s) == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------- two-mode general


def test_general_reduces_to_single_for_equal_basis_modes():
    fc = random_coeff(5, seed=9)
    for s in range(5):
        e = basis_mode(5, s)
        assert forward_prob_general(fc, e, e) == pytest.approx(
            forward_prob_single(fc, s), rel=1e-14)


def test_norm_factor_is_one_for_orthogonal_modes():
    assert norm_factor(basis_mode(3, 0), basis_mode(3, 2)) == 1.0


def test_general_prob_matches_projection_oracle():
    for seed in range(12):
        fc = random_coeff(4, seed)
        f1 = random_mode(4, 100 + seed)
        f2 = random_mode(4, 200 + seed)
        k = norm_factor(f1, f2)
        c_final = k * np.outer(f1.psi, f2.psi)
        # The physical final state really is normalized; this pins down k.
        assert np.linalg.norm(fock_vector(c_final)) == pytest.approx(1.0, abs=1e-12)
        want = projection_prob(fc, c_final)
        assert forward_prob_general(fc, f1, f2) == pytest.approx(want, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_probabilities_stay_in_unit_interval(seed, n):
    fc = random_coeff(n, seed)
    singles = [forward_prob_single(fc, s) for s in range(n)]
    assert all(0 <= p <= 1 + 1e-12 for p in singles)
    assert sum(singles) <= 1 + 1e-12
    rng = np.random.default_rng(seed)
    f1 = FinalMode((lambda v: v / np.linalg.norm(v))(
        rng.normal(size=n) + 1j * rng.normal(size=n)))
    f2 = FinalMode((lambda v: v / np.linalg.norm(v))(
        rng.normal(size=n) + 1j * rng.normal(size=n)))
    assert 0 <= forward_prob_general(fc, f1, f2) <= 1 + 1e-12


# ------------------------------------------------------- reversed readouts


def test_reversed_single_is_half_forward():
    fc = random_coeff(3, seed=7)
    ratios = []
    for s in range(3):
        rev = reversed_intensity_single(fc, s)
        assert rev > 0
        ratios.append(forward_prob_single(fc, s) / rev)
    assert ratios == [2.0, 2.0, 2.0]


def test_reversed_single_zero_diagonal():
    assert reversed_intensity_single(off_diagonal_coeff(), 1) == 0.0


def test_reversed_conditional_basis_reduction():
    fc = random_coeff(4, seed=2)
    got = reversed_intensity_conditional(fc, basis_mode(4, 1), basis_mode(4, 1))
    assert got == pytest.approx(abs(fc.f[1, 1]) ** 2, rel=1e-14)


def test_reversed_conditional_matches_loop_oracle():
    fc = random_coeff(5, seed=31)
    f1 = random_mode(5, 41)
    f2 = random_mode(5, 43)
    acc = 0.0
    for s1 in reversed(range(5)):  # summation order deliberately different
        for s2 in reversed(range(5)):
            acc += np.conj(fc.f[s1, s2]) * f1.psi[s1] * f2.psi[s2]
    assert reversed_intensity_conditional(fc, f1, f2) == pytest.approx(
        abs(acc) ** 2, rel=1e-14)


def test_forward_is_4k2_times_reversed_across_sweep():
    fc = random_coeff(6, seed=77)
    f1 = random_mode(6, 78)
    for seed in range(79, 99):
        f2 = random_mode(6, seed)
        fwd = forward_prob_general(fc, f1, f2)
        rev = reversed_intensity_conditional(fc, f1, f2)
        assert fwd == pytest.approx(4 * norm_factor(f1, f2) ** 2 * rev, rel=1e-10)


# --------------------------------------------------------------- mixtures


def test_mixture_matches_density_matrix_oracle():
    # Tr[rho_final rho_pair] with rho_final the weighted final-state mixture.
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 4
        fc = random_coeff(n, 1000 + seed)
        w = rng.random(3)
        w /= w.sum()
        cases = []
        rho_final = np.zeros((n * (n + 1) // 2,) * 2, dtype=complex)
        for i in range(3):
            f1 = random_mode(n, rng.integers(2**32))
            f2 = random_mode(n, rng.integers(2**32))
            cases.append((w[i], (f1, f2)))
            v = fock_vector(norm_factor(f1, f2) * np.outer(f1.psi, f2.psi))
            rho_final += w[i] * np.outer(v, v.conj())
        v_pair = fock_vector(fc.f)
        rho_pair = np.outer(v_pair, v_pair.conj())
        want = np.trace(rho_final @ rho_pair).real
        got = sum(wi * forward_prob_general(fc, f1, f2) for wi, (f1, f2) in cases)
        assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------ audit


def test_audit_small():
    report = time_reversal_audit(2, trials=100, seed=11)
    assert report.max_ratio_dev <= 1e-10


def test_audit_at_scale():
    report = time_reversal_audit(16, trials=1000, seed=42)
    assert report.max_ratio_dev <= 1e-9
    assert report.passed


def test_audit_rejects_bad_counts():
    with pytest.raises(ConfigurationError):
        time_reversal_audit(4, trials=0, seed=1)
    with pytest.raises(ConfigurationError):
        time_reversal_audit(0, trials=10, seed=1)


def test_audit_deterministic_and_serializable():
    a = time_reversal_audit(3, trials=50, seed=5)
    b = time_reversal_audit(3, trials=50, seed=5)
    assert a.max_ratio_dev == b.max_ratio_dev
    d = json.loads(a.to_json())
    assert d["n_modes"] == 3 and d["trials"] == 50 and d["seed"] == 5
    assert d["passed"] is True and isinstance(d["max_ratio_dev"], float)
    assert AuditReport(**{k: d[k] for k in
                          ("n_modes", "trials", "seed", "max_ratio_dev", "tolerance")
                          }).passed == d["passed"]


# ------------------------------------------------------- chunked audit oracle


def scalar_trials(n, trials, seed):
    """Per-trial (coefficients, modes, forward, scaled reversed) via the scalar API.

    One ``default_rng(seed)`` serves every trial, in trial order.
    """
    out = []
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        fc = _coeff_from_rng(n, rng)
        f1 = _mode_from_rng(n, rng)
        f2 = _mode_from_rng(n, rng)
        fwd = forward_prob_general(fc, f1, f2)
        scaled = 4 * norm_factor(f1, f2) ** 2 * reversed_intensity_conditional(fc, f1, f2)
        out.append((fc, f1, f2, fwd, scaled))
    return out


def looped_audit(n, trials, seed, tolerance=1e-9):
    """The one-trial-at-a-time audit the chunked one replaces."""
    max_dev = 0.0
    for _, _, _, fwd, scaled in scalar_trials(n, trials, seed):
        denom = max(fwd, scaled)
        if denom > 0:
            max_dev = max(max_dev, abs(fwd - scaled) / denom)
    return AuditReport(n_modes=n, trials=trials, seed=seed,
                       max_ratio_dev=max_dev, tolerance=tolerance)


@pytest.mark.parametrize("n,seed", [(1, 3), (2, 8), (16, 21)])
def test_chunk_draws_bit_identical_to_scalar_draws(n, seed):
    draws = np.random.default_rng(seed).normal(size=(5, 2 * n * n + 4 * n))
    fc, f1, f2 = _normalize_chunk(*_unpack_draws(draws, n))
    for i, (coeff, m1, m2, _, _) in enumerate(scalar_trials(n, 5, seed)):
        assert np.array_equal(fc[i], coeff.f)
        assert np.array_equal(f1[i], m1.psi)
        assert np.array_equal(f2[i], m2.psi)


def test_chunk_rejects_draws_the_dataclasses_reject():
    # all-zero draws normalize to NaN, which the symmetry check refuses
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="exchange-symmetric"):
        _normalize_chunk(*_unpack_draws(np.zeros((2, 2 * 9 + 4 * 3)), 3))


@pytest.mark.parametrize("n,trials,seed", [(1, 40, 2), (4, 2 * audit_chunk_trials(4) + 7, 11),
                                           (16, 50, 42)])
def test_chunked_values_match_scalar_functions(n, trials, seed):
    got = np.column_stack([np.concatenate(side)
                           for side in zip(*_audit_chunks(n, trials, seed))])
    want = [(fwd, scaled) for *_, fwd, scaled in scalar_trials(n, trials, seed)]
    assert len(got) == trials
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,trials,seed", [(1, 1, 0), (1, 45, 6), (3, 1, 9),
                                           (5, audit_chunk_trials(5) + 1, 13), (16, 70, 4)])
def test_chunked_audit_report_equals_looped(n, trials, seed):
    assert time_reversal_audit(n, trials, seed) == looped_audit(n, trials, seed)


def test_chunk_trials_fill_the_byte_budget_above_a_floor_of_32():
    # 64 trials of 2 * 16**2 + 4 * 16 draws at 16 modes; from 23 modes up
    # the floor holds, so large audits keep their 32-trial array limit
    assert [audit_chunk_trials(n) for n in (1, 4, 5, 16, 22, 23, 2896)] == \
        [6144, 768, 526, 64, 34, 32, 32]
    assert AUDIT_CHUNK == 32


@pytest.mark.parametrize("n", [1, 16])
def test_per_trial_values_bit_identical_across_chunk_sizes(n, monkeypatch):
    # 135 trials split into no whole number of chunks of 7, 32, 64 or 6144
    trials, seed = 135, 17
    runs = []
    for rows in (1, 7, 32, audit_chunk_trials(n)):
        monkeypatch.setattr(modes, "audit_chunk_trials", lambda n_modes: rows)
        chunks = list(_audit_chunks(n, trials, seed))
        assert [len(fwd) for fwd, _ in chunks] == \
            [rows] * (trials // rows) + [trials % rows] * (trials % rows > 0)
        runs.append(np.column_stack([np.concatenate(side) for side in zip(*chunks)]))
    assert all(np.array_equal(r.view(np.uint64), runs[0].view(np.uint64))
               for r in runs[1:])


# ------------------------------------------------------ one seeded stream


class RecordingRng:
    """Passes ``normal`` calls to ``default_rng(seed)`` and keeps each draw."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), []

    def normal(self, size):
        z = self.rng.normal(size=size)
        self.drawn.append(z.ravel())
        return z


def scalar_draw_rows(n, trials, seed):
    """The normals the scalar functions draw per trial from one generator."""
    rng = RecordingRng(seed)
    for _ in range(trials):
        _coeff_from_rng(n, rng)
        _mode_from_rng(n, rng)
        _mode_from_rng(n, rng)
    return np.concatenate(rng.drawn).reshape(trials, -1)


# 2**64 + 5 and 2**200 + 7 are wider than one uint64 word.
STREAM_SEEDS = [0, 1, 2**31 - 1, 2**64 + 5, 2**200 + 7]
STREAM_IDS = ["0", "1", "2^31-1", "2^64+5", "2^200+7"]


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=STREAM_IDS)
def test_chunked_draws_bit_identical_to_one_generator_loop(seed, monkeypatch):
    # each default chunk size (6144, 768 and 64 rows) is crossed, and 7 and
    # 32 divide none of the trial counts
    for n in (1, 4, 16):
        trials = audit_chunk_trials(n) + 33
        want = scalar_draw_rows(n, trials, seed)
        for rows in (1, 7, 32, audit_chunk_trials(n)):
            monkeypatch.setattr(modes, "audit_chunk_trials", lambda n_modes: rows)
            # each chunk is a view of one buffer that the next chunk overwrites
            chunks = [c.copy() for c in _audit_draws(n, trials, seed)]
            assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
            got = np.concatenate(chunks)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, rows)


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=STREAM_IDS)
def test_audit_stream_state_equals_pcg64_of_seed_after_each_chunk(seed, monkeypatch):
    # the audit's one generator is PCG64(SeedSequence(seed)), and after each
    # chunk it has consumed exactly the words the scalar loop consumes over
    # the same trials: no draw is made ahead or thrown away
    made = []

    def recording_default_rng(*args):
        made.append(default_rng(*args))
        return made[-1]

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    for n in (1, 16):
        trials = audit_chunk_trials(n) + 33
        for rows in (7, audit_chunk_trials(n)):
            monkeypatch.setattr(modes, "audit_chunk_trials", lambda n_modes: rows)
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            done = 0
            for chunk in _audit_draws(n, trials, seed):
                for _ in range(len(chunk)):
                    _coeff_from_rng(n, ref)
                    _mode_from_rng(n, ref)
                    _mode_from_rng(n, ref)
                done += len(chunk)
                assert made[-1].bit_generator.state == ref.bit_generator.state, \
                    (n, rows, done)
            assert done == trials


def test_audit_draws_reuse_one_buffer():
    # a fresh array per chunk was returned to the system and faulted back in
    # on every chunk
    chunks = _audit_draws(16, 2 * audit_chunk_trials(16) + 1, 7)
    first, second, last = next(chunks), next(chunks), next(chunks)
    assert np.shares_memory(first, second) and np.shares_memory(first, last)
    assert len(last) == 1


# ------------------------------------------------- arithmetic on the pool


def serial_chunks(n, trials, seed):
    """The audit's per-chunk arithmetic on this thread, one chunk after another."""
    for draws in _audit_draws(n, trials, seed):
        fc, f1, f2 = _normalize_chunk(*_unpack_draws(draws, n))
        overlap = _contract(f1.conj(), fc, f2.conj())
        reverse = _contract(f1, fc.conj(), f2)
        vdot = (f1.conj()[:, None, :] @ f2[:, :, None])[:, 0, 0]
        k = 1 / np.sqrt(1 + np.abs(vdot) ** 2)
        yield 4 * k**2 * np.abs(overlap) ** 2, 4 * k**2 * np.abs(reverse) ** 2


@pytest.mark.parametrize("n", [1, 4, 16])
def test_pipelined_chunks_bit_identical_to_serial_arithmetic(n, monkeypatch):
    # each default chunk size (6144, 768 and 64 rows) is crossed
    trials, seed = audit_chunk_trials(n) + 33, 23
    for rows in (1, 7, audit_chunk_trials(n)):
        monkeypatch.setattr(modes, "audit_chunk_trials", lambda n_modes: rows)
        got = list(_audit_chunks(n, trials, seed))
        want = list(serial_chunks(n, trials, seed))
        assert len(got) == len(want) == -(-trials // rows)
        for g, w in zip(got, want):
            for g_side, w_side in zip(g, w):
                assert np.array_equal(g_side.view(np.uint64), w_side.view(np.uint64)), (n, rows)


def test_successive_audits_start_no_threads():
    # the chunks run on the one kept pool, one chunk at a time
    time_reversal_audit(16, 1000, 1)
    after_first = threading.active_count()
    for seed in range(2, 21):
        time_reversal_audit(16, 1000, seed)
    assert threading.active_count() <= after_first


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_audit_runs_in_a_forked_child_of_a_process_that_ran_one():
    # A pool's thread does not survive a fork; a child that reused the
    # parent's pool would queue its chunks forever.
    want = time_reversal_audit(16, 1000, 1)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(time_reversal_audit, (16, 1000, 1))
        assert child.get(timeout=60) == want


def test_audit_raises_for_a_bad_middle_chunk_and_runs_again(monkeypatch):
    # chunk 3 of 5 holds all-zero draws, which normalize to NaN
    n, seed = 4, 9
    trials = 5 * audit_chunk_trials(n)
    want = time_reversal_audit(n, trials, seed)
    drawn = []
    draws = modes._audit_draws

    def zero_third_chunk(*args):
        for chunk in draws(*args):
            drawn.append(len(chunk))
            if len(drawn) == 3:
                chunk[:] = 0.0
            yield chunk

    monkeypatch.setattr(modes, "_audit_draws", zero_third_chunk)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="exchange-symmetric"):
        time_reversal_audit(n, trials, seed)
    # at most one chunk is drawn past the bad one before it raises
    assert len(drawn) <= 4
    monkeypatch.setattr(modes, "_audit_draws", draws)
    assert time_reversal_audit(n, trials, seed) == want == looped_audit(n, trials, seed)


def test_audit_takes_each_chunk_before_submitting_the_next(monkeypatch):
    # one chunk in flight: results come back in order on one pool thread
    unread = []

    class Watched(Future):
        def result(self, timeout=None):
            unread.remove(self)
            return super().result(timeout)

    class InlinePool:
        def submit(self, fn, *args):
            assert not unread, "a chunk went to the pool before the last one was taken"
            unread.append(Watched())
            unread[-1].set_result(fn(*args))
            return unread[-1]

    monkeypatch.setattr(modes, "_chunk_pool", lambda pid: InlinePool())
    n, seed = 4, 5
    trials = 3 * audit_chunk_trials(n) + 1
    assert time_reversal_audit(n, trials, seed) == looped_audit(n, trials, seed)
    assert not unread


def test_closing_the_chunk_generator_waits_for_the_chunk_in_flight(monkeypatch):
    finished = []
    values = modes._chunk_values

    def slow_values(*stacks):
        time.sleep(0.05)
        finished.append(values(*stacks))
        return finished[-1]

    monkeypatch.setattr(modes, "_chunk_values", slow_values)
    chunks = _audit_chunks(4, 3 * audit_chunk_trials(4), 1)
    next(chunks)  # chunk 1 is taken and chunk 2 is in flight
    chunks.close()
    assert len(finished) == 2


def test_pool_arithmetic_follows_the_callers_errstate(monkeypatch):
    # the normalization of all-zero draws divides by zero on the pool thread
    n = 2

    def zero_draws(n_modes, trials, seed):
        yield np.zeros((trials, 2 * n_modes * n_modes + 4 * n_modes))

    monkeypatch.setattr(modes, "_audit_draws", zero_draws)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="divide by zero"):
        time_reversal_audit(n, 3, 0)


@pytest.mark.parametrize("seed", [-1, -2**64, 1.5, None, "7", True, False])
def test_audit_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        time_reversal_audit(2, trials=3, seed=seed)


def test_audit_accepts_numpy_integer_seed():
    assert time_reversal_audit(2, trials=3, seed=np.int64(5)) == \
        time_reversal_audit(2, trials=3, seed=5)


def test_audit_rejects_a_chunk_beyond_the_array_limit(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before rejecting the mode count")

    monkeypatch.setattr(modes, "_audit_chunks", no_draws)
    for n, trials in ((10**6, 1), (2896, 32), (10**400, 1)):
        with pytest.raises(ConfigurationError, match=r"^n: \d+ modes need"):
            time_reversal_audit(n, trials=trials, seed=0)


def test_audit_rejects_counts_that_are_not_integers_before_drawing(monkeypatch):
    # these raised numpy's bare TypeError after the first chunk was drawn
    def no_draws(*args):
        raise AssertionError("drew before rejecting the counts")

    monkeypatch.setattr(modes, "_audit_chunks", no_draws)
    for n, trials, field in ((2, 2.5, "trials"), (2.0, 3, "n"), (True, 3, "n"),
                             (2, False, "trials"), (2, "3", "trials")):
        with pytest.raises(ConfigurationError, match=rf"^{field}: must be an integer"):
            time_reversal_audit(n, trials, 0)


def test_audit_accepts_numpy_integer_counts():
    assert time_reversal_audit(np.int64(2), np.int32(3), 5) == \
        time_reversal_audit(2, 3, 5)
