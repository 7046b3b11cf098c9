"""Two-photon forward evolution and its agreement with the classical trains."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton.elements as elements
import biphoton.forward as forward
from biphoton.analytic import YoungParams, young_classical, young_two_photon
from biphoton.elements import (
    CircularAperture,
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
    Magnifier,
    OffsetChirp,
    OpticalTrain,
    PinholeSample,
    SHG,
    reversed_focus_train,
    reversed_young_train,
    run_train,
    run_train_batch,
)
from biphoton.errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    SamplingError,
    UnsupportedElementError,
)
from biphoton.forward import forward_vs_reversed_young, forward_young
from biphoton.grid import Grid1D, Grid2D, SampledField, point_source
from biphoton.oracles import (
    SingleParticleKernel,
    TwoPhotonAmplitude,
    coincidence_diagonal,
    evolve,
    kernel_of,
    spdc_initial,
)

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


def forward_young_rows(monkeypatch, p, g, slit_width, samples=None):
    """``forward_young``'s relayed pair-state rows in the order of ``samples``
    (default: every row), the heights of its relay blocks in row order, and
    its curve.

    Spies on the axis-1 relay of each block.
    """
    blocks = []
    relay = forward._spectral_axis

    def spy_relay(amp, phase, axis, out=None):
        out = relay(amp, phase, axis, out=out)
        if axis == 1:
            blocks.append(out.copy())
        return out

    with monkeypatch.context() as m:
        m.setattr(forward, "_spectral_axis", spy_relay)
        _, curve = forward_young(p, g, slit_width, samples)
    return np.concatenate(blocks), [len(b) for b in blocks], curve


def block_layout(n_rows, height):
    """Heights of the blocks ``forward_young`` should relay ``n_rows`` rows in."""
    return [min(height, n_rows - lo) for lo in range(0, n_rows, height)]


@pytest.mark.parametrize("slit_cells", [None, 12])
def test_forward_young_state_is_exactly_symmetric(slit_cells):
    # The full state built the old way, unchunked: kept-column relay, axis-1
    # relay, then (a + a.T)/2. forward_young never builds it; on a grid of
    # several relay blocks (109, 109 and 82 rows) its curve must be this
    # state's diagonal bit for bit. 12-cell slits keep 26 columns.
    p, g = young_setup(n=300, x1_cells=8)
    slit_width = None if slit_cells is None else slit_cells * g.dx
    kept = np.flatnonzero(DoubleSlit(p.x1, slit_width).mask(g))
    cols = np.zeros((g.n, len(kept)), dtype=complex)
    cols[kept, np.arange(len(kept))] = 1 / g.dx
    phase = elements._relay_phase(g, p.f, p.wavelength)
    cols = forward._spectral_axis(cols, phase, 0)
    det = elements._relay_grid(g, p.f, p.wavelength)
    a = np.zeros((g.n, g.n), dtype=complex)
    a[:, kept] = cols
    a = forward._spectral_axis(a, phase, 1)
    state = TwoPhotonAmplitude(det, (a + a.T) / 2)
    assert np.array_equal(state.psi, state.psi.T)
    got_grid, curve = forward_young(p, g, slit_width)
    assert got_grid == det
    want = coincidence_diagonal(state)
    np.testing.assert_array_equal(curve, want / want.max())


def test_forward_young_holds_no_n_by_n_array():
    # One relay block is live at a time; the full pair state would take
    # n*n*16 B = 64 MiB.
    p, g = young_setup(n=2048, x1_cells=16)
    forward_young(p, g)  # the FFT plan caches are made outside the trace
    tracemalloc.start()
    try:
        forward_young(p, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n ** 2 * 16 / 4


@pytest.mark.parametrize("n", [2048, 600])
@pytest.mark.parametrize("slit_cells", [None, 4])
def test_forward_young_on_samples_reads_the_full_runs_entries(monkeypatch, n,
                                                              slit_cells):
    # Only the rows of the selected samples are relayed: unsorted
    # selections of 308 and 90 samples are relayed in blocks of at most 16
    # and 54 rows, each ending in a short block (4 and 36 rows). Each raw
    # diagonal entry is the full run's bit for bit, and the curve is
    # normalized by its peak over the selection.
    p, g = young_setup(n=n, x1_cells=16)
    slit_width = None if slit_cells is None else slit_cells * g.dx
    sel = np.random.default_rng(n).choice(n, size=n // 4 - n // 10, replace=False)
    full, _, _ = forward_young_rows(monkeypatch, p, g, slit_width)
    rows, layout, curve = forward_young_rows(monkeypatch, p, g, slit_width, sel)
    assert rows.shape == (len(sel), n)
    assert layout == block_layout(len(sel), forward._block_rows(n))
    assert layout[-1] == {2048: 4, 600: 36}[n]
    raw = rows[np.arange(len(sel)), sel]
    np.testing.assert_array_equal(raw, full[sel, sel])
    want = 2 * np.abs(raw) ** 2
    np.testing.assert_array_equal(curve, want / want.max())


def compare_samples(n=2048):
    """The benchmark-sized compare: a 401-point sweep over +-40 um snaps to
    85 detection samples of an n = 2048, 20 um grid."""
    g = Grid1D(n, 2e-5)
    p = YoungParams(x1=5e-4, f=F, wavelength=WL)
    _, sources, _ = forward.snap_young_sweep(p, g, np.linspace(-4e-5, 4e-5, 401))
    assert len(sources) == 85
    return p, g, sources


def test_compare_rows_bit_identical_at_block_heights_1_16_85(monkeypatch):
    # The 85 rows relayed one at a time, in the default 16-row blocks
    # (five and a 5-row tail) or in one block give the same rows and
    # curve, bit for bit.
    p, g, sources = compare_samples()
    assert forward._block_rows(g.n) == 16
    runs = []
    for height in (1, 16, 85):
        with monkeypatch.context() as m:
            m.setattr(forward, "_BLOCK_BYTES", 16 * g.n * height)
            rows, layout, curve = forward_young_rows(monkeypatch, p, g, None, sources)
        assert layout == block_layout(len(sources), height)
        runs.append((rows, curve))
    (want, want_curve), *others = runs
    for rows, curve in others:
        np.testing.assert_array_equal(rows, want)
        np.testing.assert_array_equal(curve, want_curve)


def test_compare_relay_memory_is_bounded_by_its_blocks():
    # One relay block, the FFT output of one block and numpy's buffers for
    # the phase multiply (3 operands of getbufsize() items) are live at a
    # time: 1.375 MiB at n = 2048, with 512 KiB left for the kept columns,
    # their relay and the small per-block arrays.
    p, g, sources = compare_samples()
    forward_young(p, g, None, sources)  # FFT plans made outside the trace
    tracemalloc.start()
    try:
        forward_young(p, g, None, sources)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 16 * g.n * forward._block_rows(g.n)
    buffers = 3 * 16 * np.getbufsize()
    assert peak < 2 * block + buffers + 512 * 1024


@pytest.mark.parametrize("samples", [[-1], [0, 64], [[1, 2]], []])
def test_forward_young_rejects_samples_off_the_detection_grid(samples):
    p, g = young_setup(n=64, x1_cells=2)
    with pytest.raises(DomainError):
        forward_young(p, g, None, samples)


def test_kernel_shape_must_match_grids():
    g = Grid1D(4, 1.0)
    with pytest.raises(GridMismatchError):
        SingleParticleKernel(g, g, np.zeros((4, 5)))


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("element,op", [
    (FourierLens(F), lambda fld: FourierLens(F).apply(fld)),
    (FreeSpaceFourier(0.35), lambda fld: FreeSpaceFourier(0.35).apply(fld)),
    (OffsetChirp(F, 2e-4), lambda fld: OffsetChirp(F, 2e-4).apply(fld)),
    (OffsetChirp(F, -2e-4), lambda fld: OffsetChirp(F, -2e-4).apply(fld)),
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
    g = Grid1D(32, 2e-6)
    fld = random_field(g, WL, seed=3)
    k = kernel_of(Magnifier(-0.5), g, WL)
    want = Magnifier(-0.5).apply(fld)
    assert k.grid_out == want.grid
    assert np.allclose(k.K @ fld.amp, want.amp, rtol=1e-14)


def test_two_f_kernel_shares_chirp_guard():
    g = Grid1D(64, 2e-4)  # coarse enough to alias the quadratic phase
    with pytest.raises(SamplingError):
        kernel_of(OffsetChirp(F, 5e-3), g, WL)


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
    mask = DoubleSlit(p.x1, slit_width).mask(grid)
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


def observed_orders(errors):
    """log2 of the ratio of successive deviations over grid halvings."""
    return np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))


def test_finite_slit_young_laws_converge_at_first_order():
    # The shipped compare's optics with 80 um slits, the slit plane's width
    # n*dx fixed while dx halves: the peak-normalized pair law against the
    # CSV's forward column, and the one-photon law against the SHG-off
    # reversed train (looped run_train, its reference), both carrying the
    # slit envelope, close in on the sampled columns at first order in dx.
    # Without the envelope the deviations stall near 0.09 and 0.025.
    width = 8e-5
    p = YoungParams(x1=5e-4, f=F, wavelength=WL)
    x = np.linspace(-4e-5, 4e-5, 81)
    pair, single = [], []
    for n, dx in ((1024, 2e-5), (2048, 1e-5), (4096, 5e-6)):
        g = Grid1D(n, dx)
        fwd = forward.young_coincidence_at(p, g, x, width)
        pair.append(np.max(np.abs(fwd / fwd.max() - young_two_photon(x, p, width))))
        det, sources, _ = forward.snap_young_sweep(p, g, x)
        train = reversed_young_train(p.f, p.x1, 0.25, 0.5, slit_width=width,
                                     second_harmonic=False)
        rev = np.array([run_train(point_source(det, det.coords[i], 1.0, WL), train)
                        for i in sources])
        law = young_classical(det.coords[sources], p, width)
        single.append(np.max(np.abs(rev / rev.max() - law / law.max())))
    for errors in (pair, single):
        assert np.all(np.diff(errors) < 0), errors
        assert np.all(np.abs(observed_orders(errors) - 1) <= 0.1), errors


@pytest.mark.parametrize("n,dx,x1,width,span", [
    (1024, 2e-5, 5e-4, None, 4e-5),
    (2048, 2e-5, 24 * 2e-5, None, 4e-5),
    (2048, 2e-5, 5e-4, 8e-5, 4e-5),
    (4096, 1e-5, 5e-4, 8e-5, 4e-5),
    (256, 1.3e-5, 6.5e-5, 5.2e-5, 4e-4),
])
def test_forward_column_equals_the_reversed_closed_form(n, dx, x1, width, span):
    # The CSV's forward column (young_coincidence_at) read on the detection
    # samples a sweep snaps to, against the reversed train's closed form
    p = YoungParams(x1=x1, f=F, wavelength=WL)
    g = Grid1D(n, dx)
    det, sources, _ = forward.snap_young_sweep(p, g, np.linspace(-span, span, 81))
    fwd = forward.young_coincidence_at(p, g, det.coords[sources], width)
    rev = run_train_batch(det, WL, sources,
                          reversed_young_train(F, x1, 0.25, 0.5, slit_width=width))
    assert len(sources) >= 43
    assert np.max(np.abs(fwd / fwd.max() - rev / rev.max())) <= 1e-12


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


def test_equivalence_on_a_sweep_reads_its_distinct_samples():
    # 81 points over 27 detection samples; each side is normalized on them
    p, g = young_setup()
    sweep = np.linspace(-1e-4, 1e-4, 81)
    det, sources, row = forward.snap_young_sweep(p, g, sweep)
    assert np.array_equal(sources, np.arange(243, 270))
    assert np.array_equal(sources[row], [det.index_of(x) for x in sweep])
    report = forward_vs_reversed_young(p, g, None, 0.25, 0.5, sweep)
    assert report.n_points == 27 and report.max_rel_err <= 1e-14
    _, fwd = forward_young(p, g, None, sources)
    rev = run_train_batch(det, WL, sources, reversed_young_train(p.f, p.x1, 0.25, 0.5))
    assert report.max_rel_err == np.max(np.abs(fwd - rev / rev.max()))


def scalar_snap(contains, index_of, positions, message):
    """A sweep snap point by point through the scalar ``contains``/``index_of``."""
    for xi in positions:
        if not contains(xi):
            raise DomainError(message(xi))
    return np.array([index_of(xi) for xi in positions], dtype=np.intp)


def test_snap_young_sweep_equals_the_scalar_snap():
    # On random grids: random points, exact samples, half-sample ties and
    # both edges snap to the scalar path's samples, and a point just past
    # either edge raises its message. Young sweeps snap onto the detection
    # grid (the focal-plane relay of the slit plane), focus r0 sweeps onto
    # the x axis of the square source grid, where the scalar path is
    # Grid2D.contains/index_of at y = 0.
    rng = np.random.default_rng(3000)
    for trial in range(6000):  # 3000 grids of each kind
        n = int(rng.integers(2, 5000))
        g = Grid1D(n, 10 ** rng.uniform(-6, -4))
        if trial % 2 == 0:
            p = YoungParams(x1=1e-4, f=10 ** rng.uniform(-2, 0),
                            wavelength=10 ** rng.uniform(-7, -5.5))
            det = elements._relay_grid(g, p.f, p.wavelength)

            def message(xi):
                return (f"sweep point {float(xi)!r} m is outside the reversed-train "
                        f"source grid (half-width {det.n * det.dx / 2:.3e} m)")

            def snap(positions):
                got_det, sources, row = forward.snap_young_sweep(p, g, positions)
                assert got_det == det
                return sources[row]

            contains, index_of = det.contains, det.index_of
        else:
            det, src = g, Grid2D(n, n, g.dx, g.dx)

            def message(xi):
                return f"lateral offset {float(xi)!r} m is outside the source grid"

            def snap(positions):
                samples, row = g.snap(positions, "lateral offset", "the source grid")
                return samples[row]

            def contains(xi):
                return src.contains((xi, 0.0))

            def index_of(xi):
                iy, ix = src.index_of((xi, 0.0))
                assert iy == n // 2
                return ix

        xs = det.coords
        lo, hi = xs[0] - det.dx / 2, xs[-1] + det.dx / 2
        k = rng.integers(0, n, 8)
        inside = np.concatenate([rng.uniform(lo, hi, 16), xs[k], xs[k] + det.dx / 2,
                                 xs[k] - det.dx / 2, [lo, hi]])
        inside = rng.permutation(inside[[contains(x) for x in inside]])
        np.testing.assert_array_equal(snap(inside),
                                      scalar_snap(contains, index_of, inside, message))
        for edge, step in ((lo, -1), (hi, 1)):
            off = np.concatenate([inside[:3], [np.nextafter(edge, edge + step)], inside[3:]])
            with pytest.raises(DomainError) as want_exc:
                scalar_snap(contains, index_of, off, message)
            with pytest.raises(DomainError, match=re.escape(str(want_exc.value))):
                snap(off)


@pytest.mark.parametrize("positions,error", [([0.0, 1e-9], ConfigurationError),
                                             ([0.0, 1.0], DomainError)])
def test_equivalence_on_a_sweep_that_cannot_fail_or_snap_raises(positions, error):
    # one distinct sample deviates by 0 by construction
    p, g = young_setup()
    with pytest.raises(error):
        forward_vs_reversed_young(p, g, positions=positions)


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


# The last entry moves the slits that many cells past 8 cells off axis; SHG
# is on, as in the one Young train run_train_batch reads
YOUNG_CASES = [(slit_cells, True, L1, L2, n, shift_cells)
               for slit_cells in (None, 1, 4, 7)
               for L1, L2 in ((0.25, 0.5), (0.8, 0.15))
               for n, shift_cells in ((64, 0.0), (63, 3.3))]
# At bench-like n, looped trains cost about 0.1 s a case: a subset only.
YOUNG_CASES += [(slit_cells, True, 0.25, 0.5, n, shift_cells)
                for slit_cells in (None, 4)
                for n, shift_cells in ((256, 0.0), (255, 3.3))]


@pytest.mark.parametrize("slit_cells,shg,L1,L2,n,shift_cells", YOUNG_CASES)
def test_closed_form_young_readings_match_looped_trains(slit_cells, shg, L1, L2,
                                                        n, shift_cells):
    # Raw readings against the field path, on odd n and with slits between
    # samples too; a subset in any order, with repeats, reads the same rows.
    p, g = young_setup(n=n, x1_cells=8 + shift_cells)
    det = Grid1D(g.n, p.f * p.wavelength / (g.n * g.dx))
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
    # on either grid; so is a focus train whose chirp screen comes before its
    # opening lens (the forward 2-f stage).
    g, g2 = Grid1D(32, 1e-5), Grid2D(8, 8, 1e-6, 1e-6)
    focus = reversed_focus_train(F, 12.7e-3, 0.0, 0.25, 0.5).elements
    screen_first = OpticalTrain((focus[1], focus[0]) + focus[2:])
    for train in (OpticalTrain((Magnifier(2.0), PinholeSample())),
                  OpticalTrain((FourierLens(F),)),
                  screen_first):
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
        reversed_young_train(p.f, p.x1, 0.25, 0.5, second_harmonic=False),
        reversed_young_train(p.f, p.x1, 0.25, 0.5, slit_width=4 * g.dx,
                             second_harmonic=False),
        reversed_focus_train(p.f, 12.7e-3, 0.0, 0.25, 0.5),
        OpticalTrain(e[:4] + (Magnifier(2.0),) + e[4:]),
        OpticalTrain(e[:2] + e[3:]),
        OpticalTrain((PinholeSample(),)),
        OpticalTrain((FourierLens(F),)),
    ]
    for other in others:
        with pytest.raises(UnsupportedElementError, match="run_train reads"):
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


def test_batch_nonfinite_stage_in_one_chunk_raises(monkeypatch):
    # A NaN injected by the relay of the short last block only: 16-row
    # blocks cut 300 rows into 18 full blocks and one of 12. 12-cell slits.
    p, g = young_setup(n=300, x1_cells=8)
    slit_width = 12 * g.dx
    monkeypatch.setattr(forward, "_BLOCK_BYTES", 16 * 16 * g.n)
    layout = block_layout(g.n, forward._block_rows(g.n))
    tail = layout[-1]
    assert layout == [16] * 18 + [12] and tail == 12
    relay = forward._spectral_axis

    def poisoned(amp, phase, axis, out=None):
        out = relay(amp, phase, axis, out=out)
        if len(out) == tail:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(forward, "_spectral_axis", poisoned)
    with pytest.raises(ValueError, match="pair amplitudes must be finite"):
        forward_young(p, g, slit_width)


@pytest.mark.parametrize("count", [1, 2, 3, 80, 81, 159, 2000])
def test_young_coincidence_at_in_blocks_equals_one_product(count):
    # 4 mm slits at 2.5 mm keep 413 samples, so the sum runs in blocks of
    # about 79 rows, at least 2 each; every reading is the one full
    # product's bit for bit (a 1-row product takes another BLAS route)
    p, g = young_setup(n=512, x1_cells=250)
    x = np.linspace(-4e-5, 4e-5, count)
    mask = DoubleSlit(p.x1, 4e-3).mask(g)
    kept = np.flatnonzero(mask)
    flam = p.f * p.wavelength
    kernel = np.exp(-4j * np.pi * np.outer(x, g.coords[kept]) / flam)
    want = 2 * np.abs((g.dx / flam) * (kernel @ mask[kept].astype(complex) ** 2)) ** 2
    got = forward.young_coincidence_at(p, g, x, 4e-3)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
