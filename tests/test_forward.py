"""Two-photon forward evolution and its agreement with the classical trains."""
import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton.elements as elements
import biphoton.forward as forward
from biphoton.analytic import YoungParams, young_two_photon
from biphoton.elements import (
    CircularAperture,
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
    Magnifier,
    OpticalTrain,
    PinholeSample,
    SHG,
    TwoFWithOffset,
    apply_fourier_lens,
    free_space_fourier,
    magnify,
    reversed_focus_train,
    reversed_young_train,
    run_train,
    run_train_batch,
    two_f_with_offset,
)
from biphoton.errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    SamplingError,
    UnsupportedElementError,
)
from biphoton.forward import (
    SingleParticleKernel,
    TwoPhotonAmplitude,
    coincidence_diagonal,
    evolve,
    forward_vs_reversed_young,
    forward_young,
    kernel_of,
    spdc_initial,
)
from biphoton.grid import Grid1D, Grid2D, SampledField, point_source

WL = 780e-9
F = 50e-3


def random_field(grid, wl, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    return SampledField(grid, wl, amp)


def random_symmetric_state(grid, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return TwoPhotonAmplitude(grid, (a + a.T) / 2)


def pair_norm(state):
    return np.sum(np.abs(state.psi) ** 2) * state.grid.dx**2


# ---------------------------------------------------------------- state type


def test_spdc_is_scaled_identity():
    g = Grid1D(4, 0.5)
    psi = spdc_initial(g).psi
    assert np.array_equal(psi, np.eye(4) * 2.0)


def test_spdc_marginal_is_uniform():
    g = Grid1D(9, 0.3)
    psi = spdc_initial(g).psi
    marginal = np.sum(np.abs(psi) ** 2, axis=1) * g.dx
    assert np.allclose(marginal, 1 / g.dx, rtol=1e-15)


def test_asymmetric_amplitude_rejected():
    g = Grid1D(3, 1.0)
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        TwoPhotonAmplitude(g, psi)


def test_amplitude_shape_must_match_grid():
    with pytest.raises(GridMismatchError):
        TwoPhotonAmplitude(Grid1D(4, 1.0), np.zeros((3, 3)))


def test_nonfinite_amplitude_rejected():
    psi = np.full((3, 3), np.nan)
    with pytest.raises(ValueError, match="finite"):
        TwoPhotonAmplitude(Grid1D(3, 1.0), psi)


@pytest.mark.parametrize("workers", [1, 8])
def test_symmetrize_in_place_equals_unblocked_sum(monkeypatch, workers):
    # n = 300 is not a multiple of the block size, so edge blocks are ragged;
    # 8 threads with a short switch interval would expose a lost block write.
    monkeypatch.setattr(forward, "_workers", lambda: workers)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    expected = (a + a.T) / 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        forward._symmetrize(a)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(a, expected)
    assert np.array_equal(a, a.T)


def test_symmetric_path_keeps_shape_and_finiteness_checks():
    g = Grid1D(3, 1.0)
    psi = np.ones((3, 3), dtype=complex)
    state = TwoPhotonAmplitude._symmetric(g, psi)
    assert state.psi is psi and not psi.flags.writeable
    with pytest.raises(GridMismatchError):
        TwoPhotonAmplitude._symmetric(Grid1D(4, 1.0), np.ones((3, 3), dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        TwoPhotonAmplitude._symmetric(g, np.full((3, 3), np.nan, dtype=complex))


def forward_young_state(monkeypatch, p, g, slit_width):
    """The pair state ``forward_young`` builds, and its curve."""
    states = []
    build = TwoPhotonAmplitude._symmetric

    def spy(grid, psi):
        states.append(build(grid, psi))
        return states[-1]

    with monkeypatch.context() as m:
        m.setattr(TwoPhotonAmplitude, "_symmetric", spy)
        _, curve = forward_young(p, g, slit_width)
    (state,) = states
    return state, curve


@pytest.mark.parametrize("slit_cells", [None, 12])
def test_forward_young_state_is_exactly_symmetric(monkeypatch, slit_cells):
    # The state skips the public psi == psi.T compare, so check it here on
    # a grid of several row chunks; 12-cell slits keep 26 columns.
    p, g = young_setup(n=2 * forward._CHUNK_ROWS + 44, x1_cells=8)
    slit_width = None if slit_cells is None else slit_cells * g.dx
    state, curve = forward_young_state(monkeypatch, p, g, slit_width)
    assert np.array_equal(state.psi, state.psi.T)
    np.testing.assert_array_equal(curve, coincidence_diagonal(state)
                                  / coincidence_diagonal(state).max())


def test_kernel_shape_must_match_grids():
    g = Grid1D(4, 1.0)
    with pytest.raises(GridMismatchError):
        SingleParticleKernel(g, g, np.zeros((4, 5)))


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("element,op", [
    (FourierLens(F), lambda fld: apply_fourier_lens(fld, F)),
    (FreeSpaceFourier(0.35), lambda fld: free_space_fourier(fld, 0.35)),
    (TwoFWithOffset(F, 2e-4), lambda fld: two_f_with_offset(fld, F, 2e-4)),
    (TwoFWithOffset(F, -2e-4, transpose=True),
     lambda fld: two_f_with_offset(fld, F, -2e-4, transpose=True)),
])
def test_kernel_matrix_reproduces_field_operation(element, op):
    g = Grid1D(128, 5e-6)
    fld = random_field(g, WL, seed=7)
    k = kernel_of(element, g, WL)
    want = op(fld)
    assert k.grid_out == want.grid
    assert np.allclose(k.K @ fld.amp, want.amp, atol=1e-12 * np.abs(want.amp).max())


def test_lens_kernel_unitary_up_to_cell_ratio():
    # K^dagger K = (dx_in / dx_out) * I for a lossless relay.
    g = Grid1D(64, 4e-6)
    k = kernel_of(FourierLens(F), g, WL)
    gram = k.K.conj().T @ k.K
    expect = (g.dx / k.grid_out.dx) * np.eye(g.n)
    assert np.allclose(gram, expect, atol=1e-10 * g.dx / k.grid_out.dx)


def test_slit_kernel_is_diagonal_mask():
    g = Grid1D(64, 1e-4)
    x1 = 16 * g.dx
    k = kernel_of(DoubleSlit(x1), g, WL)
    assert k.grid_out == g
    mask = np.diagonal(k.K).real
    assert mask.sum() == 2.0
    assert np.array_equal(k.K, np.diag(mask).astype(complex))
    assert mask[g.index_of(x1)] == 1.0 and mask[g.index_of(-x1)] == 1.0


def test_magnifier_kernel_matches_field_operation():
    g = Grid1D(32, 2e-6, center=1e-5)
    fld = random_field(g, WL, seed=3)
    k = kernel_of(Magnifier(-0.5), g, WL)
    want = magnify(fld, -0.5)
    assert k.grid_out == want.grid
    assert np.allclose(k.K @ fld.amp, want.amp, rtol=1e-14)


def test_two_f_kernel_shares_chirp_guard():
    g = Grid1D(64, 2e-4)  # coarse enough to alias the quadratic phase
    with pytest.raises(SamplingError):
        kernel_of(TwoFWithOffset(F, 5e-3), g, WL)


@pytest.mark.parametrize("element", [SHG(), PinholeSample(0.0), CircularAperture(0.01)])
def test_kernel_of_rejects_nonmatrix_elements(element):
    with pytest.raises(UnsupportedElementError):
        kernel_of(element, Grid1D(16, 1e-5), WL)


# ------------------------------------------------------------------- evolve


def test_evolve_requires_matching_grid():
    k = kernel_of(FourierLens(F), Grid1D(16, 1e-5), WL)
    state = spdc_initial(Grid1D(16, 2e-5))
    with pytest.raises(GridMismatchError):
        evolve(state, k)


def test_evolve_keeps_exact_exchange_symmetry():
    g = Grid1D(48, 3e-6)
    state = random_symmetric_state(g, seed=11)
    out = evolve(state, kernel_of(FourierLens(F), g, WL))
    assert np.array_equal(out.psi, out.psi.T)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24))
def test_evolve_preserves_norm_under_lossless_kernel(seed, n):
    g = Grid1D(n, 2.5e-6)
    state = random_symmetric_state(g, seed)
    out = evolve(state, kernel_of(FourierLens(F), g, WL))
    assert pair_norm(out) == pytest.approx(pair_norm(state), rel=1e-10)


def test_evolve_slit_then_lens_gives_joint_cosine():
    # Correlated pairs restricted to +-x1 then Fourier-imaged: the full
    # amplitude matrix is cos(2 pi x1 (x' + x'') / (f lambda)).
    g = Grid1D(128, 2e-5)
    x1 = 16 * g.dx
    state = spdc_initial(g)
    state = evolve(state, kernel_of(DoubleSlit(x1), g, WL))
    state = evolve(state, kernel_of(FourierLens(F), g, WL))
    x = state.grid.coords
    want = np.cos(2 * np.pi * x1 * np.add.outer(x, x) / (F * WL))
    got = state.psi
    assert np.abs(got.imag).max() <= 1e-12 * np.abs(got.real).max()
    got = got.real / np.abs(got.real).max()
    assert np.allclose(got, want / np.abs(want).max(), atol=1e-10)


def test_coincidence_diagonal_of_spdc_is_flat():
    g = Grid1D(10, 0.2)
    rate = coincidence_diagonal(spdc_initial(g))
    assert np.allclose(rate, 2 / g.dx**2, rtol=1e-15)


# ------------------------------------------------------------- young fringe


def young_setup(n=512, x1_cells=16):
    dx = 1e-5
    g = Grid1D(n, dx)
    p = YoungParams(x1=x1_cells * dx, f=F, wavelength=WL)
    return p, g


def measured_period(grid, curve):
    inner = curve[1:-1]
    peaks = np.flatnonzero((inner >= curve[:-2]) & (inner >= curve[2:])) + 1
    return float(np.mean(np.diff(peaks))) * grid.dx


def test_forward_young_matches_cosine_formula():
    p, g = young_setup()
    det, curve = forward_young(p, g)
    assert np.allclose(curve, young_two_photon(det.coords, p), atol=1e-10)


def test_forward_young_full_visibility_for_delta_slits():
    p, g = young_setup()
    _, curve = forward_young(p, g)
    vis = (curve.max() - curve.min()) / (curve.max() + curve.min())
    assert vis == pytest.approx(1.0, abs=1e-6)


def test_forward_young_period_within_one_cell():
    p, g = young_setup()
    det, curve = forward_young(p, g)
    expect = p.f * p.wavelength / (4 * p.x1)
    assert abs(measured_period(det, curve) - expect) < det.dx


def test_forward_young_doubling_x1_halves_period():
    p1, g = young_setup(x1_cells=8)
    p2, _ = young_setup(x1_cells=16)
    det1, c1 = forward_young(p1, g)
    det2, c2 = forward_young(p2, g)
    t1 = measured_period(det1, c1)
    t2 = measured_period(det2, c2)
    assert abs(t1 - 2 * t2) < det1.dx


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("finite_slits", [False, True])
def test_forward_young_matches_dense_kernel_chain(n, finite_slits):
    # The axis-wise FFT relay against the O(n^3) K psi K^T oracle.
    dx = 1e-5
    g = Grid1D(n, dx)
    p = YoungParams(x1=(n // 32) * dx, f=F, wavelength=WL)  # 8 samples per fringe
    slit_width = p.x1 if finite_slits else None
    det, curve = forward_young(p, g, slit_width)
    state = spdc_initial(g)
    state = evolve(state, kernel_of(DoubleSlit(p.x1, slit_width), g, WL))
    state = evolve(state, kernel_of(FourierLens(p.f), g, WL))
    dense = coincidence_diagonal(state)
    assert det == state.grid
    assert np.abs(curve - dense / dense.max()).max() <= 1e-13


def test_forward_young_rejects_unresolved_fringe():
    dx = 1e-5
    g = Grid1D(256, dx)
    p = YoungParams(x1=40 * dx, f=F, wavelength=WL)  # 1.6 samples per period
    with pytest.raises(SamplingError):
        forward_young(p, g)


def test_forward_young_finite_slits_keep_dark_fringes():
    # The slit envelope multiplies the cosine; zeros stay exact zeros.
    p, g = young_setup()
    _, curve = forward_young(p, g, slit_width=4 * g.dx)
    assert curve.max() == 1.0
    vis = (curve.max() - curve.min()) / (curve.max() + curve.min())
    assert vis == pytest.approx(1.0, abs=1e-6)


def full_row_coincidence(p, grid, positions, slit_width):
    """The coincidence rate with kernel rows over every grid sample."""
    mask = elements._double_slit_mask(grid, p.x1, slit_width)
    flam = p.f * p.wavelength
    rows = np.exp(-4j * np.pi * np.outer(positions, grid.coords) / flam)
    return 2 * np.abs((grid.dx / flam) * (rows @ mask.astype(complex) ** 2)) ** 2


@pytest.mark.parametrize("slit_cells", [None, 1, 4, 7])
def test_young_coincidence_at_matches_full_kernel_rows(slit_cells):
    # rows on the slit samples only: the same numbers for delta slits, and
    # the same sum in another order for finite ones
    p, g = young_setup(n=256, x1_cells=20)
    width = None if slit_cells is None else slit_cells * g.dx
    x = np.linspace(-3e-4, 3e-4, 101)
    got = forward.young_coincidence_at(p, g, x, width)
    want = full_row_coincidence(p, g, x, width)
    if width is None:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * want.max()


@pytest.mark.parametrize("slit_cells", [None, 4])
def test_young_coincidence_at_matches_dense_chain_on_detection_grid(slit_cells):
    p, g = young_setup(n=128, x1_cells=8)
    width = None if slit_cells is None else slit_cells * g.dx
    state = spdc_initial(g)
    for element in (DoubleSlit(p.x1, width), FourierLens(p.f)):
        state = evolve(state, kernel_of(element, state.grid, p.wavelength))
    want = coincidence_diagonal(state)
    got = forward.young_coincidence_at(p, g, state.grid.coords, width)
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def test_young_coincidence_at_with_no_slit_sample_is_zero():
    p, g = young_setup(n=64, x1_cells=40)  # finite slits beyond the grid edge
    assert np.array_equal(forward.young_coincidence_at(p, g, [0.0, 1e-4], 2e-5),
                          np.zeros(2))


# --------------------------------------------- forward vs reversed readout


def test_forward_equals_reversed_delta_slits():
    p, g = young_setup()
    report = forward_vs_reversed_young(p, g)
    assert report.n_points == g.n
    assert report.max_rel_err <= 1e-10


def test_forward_equals_reversed_finite_slits():
    p, g = young_setup()
    report = forward_vs_reversed_young(p, g, slit_width=4 * g.dx)
    assert report.max_rel_err <= 1e-10


def test_equivalence_does_not_depend_on_relay_lengths():
    p, g = young_setup(n=256, x1_cells=8)
    a = forward_vs_reversed_young(p, g, L1=0.1, L2=0.9)
    b = forward_vs_reversed_young(p, g, L1=0.8, L2=0.15)
    assert a.max_rel_err <= 1e-10 and b.max_rel_err <= 1e-10


def test_unnormalized_curves_match_up_to_single_constant():
    # Least-squares constant between raw coincidence rate and raw pinhole
    # intensity, over random slit separations and two unrelated grids.
    rng = np.random.default_rng(20240817)
    for n, dx in [(256, 1.1e-5), (384, 0.7e-5)]:
        g = Grid1D(n, dx)
        for m in rng.choice(np.arange(3, n // 32 + 1), size=3, replace=False):
            p = YoungParams(x1=int(m) * dx, f=F, wavelength=WL)
            state = spdc_initial(g)
            state = evolve(state, kernel_of(DoubleSlit(p.x1), g, WL))
            state = evolve(state, kernel_of(FourierLens(p.f), g, WL))
            rate = coincidence_diagonal(state)
            det = state.grid
            train = reversed_young_train(p.f, p.x1, 0.25, 0.5)
            inten = np.array([
                run_train(point_source(det, x0, 1.0, WL), train)
                for x0 in det.coords])
            c = np.dot(rate, inten) / np.dot(rate, rate)
            assert np.abs(inten - c * rate).max() <= 1e-6 * inten.max()


YOUNG_CASES = [(slit_cells, shg, L1, L2, n, center_cells)
               for slit_cells in (None, 1, 4, 7)
               for shg in (True, False)
               for L1, L2 in ((0.25, 0.5), (0.8, 0.15))
               for n, center_cells in ((64, 0.0), (63, 3.3))]
# At bench-like n, looped trains cost about 0.1 s a case: a subset only.
YOUNG_CASES += [(slit_cells, shg, 0.25, 0.5, n, center_cells)
                for slit_cells in (None, 4)
                for shg in (True, False)
                for n, center_cells in ((256, 0.0), (255, 3.3))]


@pytest.mark.parametrize("slit_cells,shg,L1,L2,n,center_cells", YOUNG_CASES)
def test_closed_form_young_readings_match_looped_trains(slit_cells, shg, L1, L2,
                                                        n, center_cells):
    # Raw readings against the field path, on odd n and an off-centre
    # detector grid too; a subset in any order, with repeats, reads the
    # same rows.
    p, g = young_setup(n=n, x1_cells=8)
    det_dx = p.f * p.wavelength / (g.n * g.dx)
    det = Grid1D(g.n, det_dx, center_cells * det_dx)
    slit_width = None if slit_cells is None else slit_cells * g.dx
    train = reversed_young_train(p.f, p.x1, L1, L2, slit_width=slit_width,
                                 second_harmonic=shg)
    want = np.array([run_train(point_source(det, x0, 1.0, WL), train)
                     for x0 in det.coords])
    got = run_train_batch(det, WL, np.arange(det.n), train)
    assert want.max() > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
    idx = np.array([n - 5, 3, 3, n // 2, 0, n // 3])
    sub = run_train_batch(det, WL, idx, train)
    assert np.max(np.abs(sub - want[idx])) <= 1e-12 * want.max()


def test_batched_train_rejects_what_it_cannot_run():
    # Trains of neither closed-form shape are read by looped run_train only,
    # on either grid; so is a focus train with an untransposed 2-f stage.
    g, g2 = Grid1D(32, 1e-5), Grid2D(8, 8, 1e-6, 1e-6)
    focus = reversed_focus_train(F, 12.7e-3, 0.0, 0.25, 0.5).elements
    untransposed = OpticalTrain((TwoFWithOffset(F, 0.0),) + focus[1:])
    for train in (OpticalTrain((Magnifier(2.0), PinholeSample())),
                  OpticalTrain((FourierLens(F),)),
                  untransposed):
        with pytest.raises(UnsupportedElementError):
            run_train_batch(g, WL, [0], train)
        with pytest.raises(UnsupportedElementError):
            run_train_batch(g2, WL, [(4, 4)], train)


def test_closed_form_young_readings_reject_what_they_cannot_read():
    p, g = young_setup(n=64, x1_cells=8)
    det = Grid1D(g.n, p.f * p.wavelength / (g.n * g.dx))
    train = reversed_young_train(p.f, p.x1, 0.25, 0.5)
    e = train.elements
    others = [
        reversed_young_train(p.f, p.x1, 0.25, 0.5, pinhole_radius=1e-4),
        reversed_young_train(p.f, p.x1, 0.25, 0.5, pinhole_radius=1e-4,
                             second_harmonic=False),
        reversed_focus_train(p.f, 12.7e-3, 0.0, 0.25, 0.5),
        OpticalTrain(e[:4] + (Magnifier(2.0),) + e[4:]),
        OpticalTrain(e[:2] + e[3:]),
        OpticalTrain((PinholeSample(),)),
        OpticalTrain((FourierLens(F),)),
    ]
    for other in others:
        with pytest.raises(UnsupportedElementError):
            run_train_batch(det, WL, [0], other)
    with pytest.raises(UnsupportedElementError):
        run_train_batch(Grid2D(8, 8, 1e-6, 1e-6), WL, [(4, 4)], train)
    for bad in ([-1], [64], [[0, 1]]):
        with pytest.raises(DomainError):
            run_train_batch(det, WL, bad, train)
    for wl in (0.0, -WL):
        with pytest.raises(ConfigurationError):
            run_train_batch(det, wl, [0], train)


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_closed_form_young_readings_nonfinite_stage_raises(monkeypatch, value):
    # A NaN in the relayed rows, or a finite value that overflows under SHG
    relay = elements._relayed_delta

    def poisoned(*args, **kwargs):
        out = relay(*args, **kwargs)
        out[-1, 0] = value
        return out

    p, g = young_setup(n=64, x1_cells=8)
    det = Grid1D(g.n, p.f * p.wavelength / (g.n * g.dx))
    train = reversed_young_train(p.f, p.x1, 0.25, 0.5)
    monkeypatch.setattr(elements, "_relayed_delta", poisoned)
    with pytest.raises(ValueError, match="field amplitudes must be finite"):
        run_train_batch(det, WL, np.arange(det.n), train)


def pool_setup():
    # More rows than one chunk and not a multiple of it; 12-cell slits
    p, g = young_setup(n=2 * forward._CHUNK_ROWS + 44, x1_cells=8)
    return p, g, 12 * g.dx


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_batch_is_bit_identical_across_chunks_and_workers(monkeypatch, workers):
    # Any chunking and thread count gives the one-chunk, one-thread state,
    # also with more threads than chunks and a short switch interval.
    p, g, slit_width = pool_setup()
    with monkeypatch.context() as m:
        m.setattr(forward, "_workers", lambda: 1)
        m.setattr(forward, "_CHUNK_ROWS", g.n)
        want, want_curve = forward_young_state(monkeypatch, p, g, slit_width)
    monkeypatch.setattr(forward, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        state, curve = forward_young_state(monkeypatch, p, g, slit_width)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(state.psi, want.psi)
    np.testing.assert_array_equal(curve, want_curve)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_batch_runs_in_a_forked_child_of_a_process_that_used_the_pool():
    # Pool threads do not survive a fork; a child that reused the parent's
    # pool would queue its chunks forever.
    p, g, slit_width = pool_setup()
    _, curve = forward_young(p, g, slit_width)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(forward_young, (p, g, slit_width))
        np.testing.assert_array_equal(child.get(timeout=60)[1], curve)


def test_batch_nonfinite_stage_in_one_chunk_raises(monkeypatch):
    # A NaN injected by the row relay of the last, shorter chunk only.
    p, g, slit_width = pool_setup()
    relay = forward._relay_along
    tail = g.n % forward._CHUNK_ROWS

    def poisoned(amp, *args, **kwargs):
        out, grid = relay(amp, *args, **kwargs)
        if len(out) == tail:
            out[0, 0] = np.nan
        return out, grid

    monkeypatch.setattr(forward, "_relay_along", poisoned)
    with pytest.raises(ValueError, match="pair amplitudes must be finite"):
        forward_young(p, g, slit_width)
