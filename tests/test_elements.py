"""Optical elements: propagation kernels, masks, SHG, pinhole, trains.

Spectral stages are checked against direct O(n^2) quadrature of the
``exp(-i 2 pi x y/(dist wl))`` kernel; the offset 2-f stage against the
closed-form axial/lateral profiles of a uniformly lit disk.
"""
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j1

import biphoton.elements as elements
from biphoton._value import fields
from biphoton.analytic import FocusParams, YoungParams, spot_lateral
from biphoton.config import load_config, validate
from biphoton.elements import (
    CircularAperture,
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
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
    SamplingError,
    UnsupportedElementError,
)
from biphoton.forward import forward_young, young_coincidence_at
from biphoton.grid import (
    Grid1D,
    Grid2D,
    SampledField,
    _grid_from_axes,
    _spectral_axis,
    point_source,
    power,
)
from biphoton.oracles import kernel_of

WL = 780e-9
F = 50e-3


def random_field(grid, seed, wavelength=WL):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, wavelength, amp)


def direct_relay(field, dist):
    """O(n^2) quadrature of the far-field kernel, on the element's own grid."""
    g = field.grid
    dx_out = dist * field.wavelength / (g.n * g.dx)
    x_out = (np.arange(g.n) - g.n // 2) * dx_out
    kernel = np.exp(-2j * np.pi * np.outer(x_out, g.coords) / (dist * field.wavelength))
    return kernel @ field.amp * g.dx / np.sqrt(dist * field.wavelength), x_out


def somb(u):
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    nz = u != 0
    out[nz] = 2 * j1(u[nz]) / u[nz]
    return out


# ---------------------------------------------------------------- lens / free space

def test_lens_matches_direct_quadrature():
    g = Grid1D(n=257, dx=11e-6)
    f = random_field(g, seed=1)
    out = FourierLens(F).apply(f)
    ref, x_out = direct_relay(f, F)
    np.testing.assert_allclose(out.amp, ref, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_allclose(out.grid.coords, x_out, rtol=1e-12)


@pytest.mark.parametrize("n", [64, 257])
def test_lens_on_1d_field_equals_batched_relay_bit_for_bit(n):
    # forward_young relays the pair state along each axis with
    # _spectral_axis and the relay phase; the reversed trains relay 1-D
    # fields with the lens. Both must give the same bits, grid included,
    # for the compare.
    g = Grid1D(n=n, dx=11e-6)
    f = random_field(g, seed=n)
    out = FourierLens(F).apply(f)
    grid_out, phase = FourierLens(F).axis_op(g, WL)
    np.testing.assert_array_equal(out.amp, _spectral_axis(f.amp, phase, 0))
    assert out.grid == grid_out == elements._relay_grid(g, F, WL)
    batch = np.stack([f.amp, 2 * f.amp], axis=1)
    along = _spectral_axis(batch, phase, 0)
    np.testing.assert_array_equal(along[:, 0], out.amp)


def test_lens_output_spacing():
    g = Grid1D(n=256, dx=10e-6)
    out = FourierLens(F).apply(random_field(g, seed=2))
    assert out.grid.dx == pytest.approx(F * WL / (256 * 10e-6))


def test_lens_centered_delta_gives_flat_output():
    g = Grid1D(n=128, dx=5e-6)
    out = FourierLens(F).apply(point_source(g, 0.0, 1.0, WL))
    assert np.allclose(np.abs(out.amp), np.abs(out.amp[0]))


def test_lens_plane_wave_focuses_to_offset_delta():
    # Linear phase exp(-i 2 pi x0 x/(f wl)) carries the frequency of the
    # sample at -x0, so it focuses there (two transforms invert parity).
    g = Grid1D(n=256, dx=10e-6)
    dx_out = F * WL / (256 * 10e-6)
    x0 = 20 * dx_out
    f = SampledField(g, WL, np.exp(-2j * np.pi * x0 * g.coords / (F * WL)))
    out = FourierLens(F).apply(f)
    i = int(np.argmax(np.abs(out.amp)))
    assert out.grid.coords[i] == pytest.approx(-x0, rel=1e-12)
    others = np.delete(np.abs(out.amp), i)
    assert others.max() < 1e-10 * np.abs(out.amp[i])


def test_lens_gaussian_waist():
    # Waist w maps to f*wl/(pi*w).
    g = Grid1D(n=1024, dx=10e-6)
    w = 0.5e-3
    f = SampledField(g, WL, np.exp(-(g.coords / w) ** 2))
    out = FourierLens(F).apply(f)
    w_out = F * WL / (np.pi * w)
    profile = np.abs(out.amp) / np.abs(out.amp).max()
    np.testing.assert_allclose(profile, np.exp(-(out.grid.coords / w_out) ** 2),
                               atol=1e-9)


def test_free_space_same_kernel_as_lens():
    g = Grid1D(n=128, dx=8e-6)
    f = random_field(g, seed=3)
    a = FreeSpaceFourier(0.7).apply(f)
    b = FourierLens(0.7).apply(f)
    np.testing.assert_allclose(a.amp, b.amp, rtol=1e-15)
    assert a.grid == b.grid


def test_double_lens_is_parity_flip():
    g = Grid1D(n=128, dx=8e-6)
    f = random_field(g, seed=4)
    out = FourierLens(F).apply(FourierLens(F).apply(f))
    flip = (2 * (128 // 2) - np.arange(128)) % 128
    ratio = out.amp / f.amp[flip]
    assert np.abs(ratio - ratio[0]).max() < 1e-10 * np.abs(ratio[0])
    assert out.grid.dx == pytest.approx(g.dx, rel=1e-12)


def flip_and_rescale(f, M):
    """The image of magnification ``M`` < 0: each axis mirrored about sample
    n//2 (for even n the unpaired edge sample wraps onto itself, as under a
    double Fourier transform), spacings scaled by |M| and amplitudes by
    |M|^(-d/2), so power is kept."""
    a, axes = abs(M), f.grid.axes
    amp = f.amp[np.ix_(*((2 * (g.n // 2) - np.arange(g.n)) % g.n for g in axes))]
    grid = _grid_from_axes([Grid1D(g.n, a * g.dx) for g in axes])
    return SampledField(grid, f.wavelength, amp / np.sqrt(a) ** len(axes))


def relay_pair(f, L):
    """Lens F then free path L: the relay pair the reversed trains end in."""
    return FreeSpaceFourier(L).apply(FourierLens(F).apply(f))


def test_lens_then_free_space_is_magnifier():
    # the flip and gain that _pinhole_totals folds the pair into
    for g in (Grid1D(n=96, dx=12e-6), Grid2D(nx=24, ny=15, dx=12e-6, dy=9e-6)):
        f = random_field(g, seed=5)
        L = 0.8
        composed = relay_pair(f, L)
        direct = flip_and_rescale(f, -L / F)
        np.testing.assert_allclose(composed.amp, direct.amp,
                                   atol=1e-10 * np.abs(direct.amp).max())
        for got, want in zip(composed.grid.axes, direct.grid.axes):
            assert got.dx == pytest.approx(want.dx, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), dist=st.floats(0.01, 10.0))
def test_relay_preserves_power(seed, dist):
    f = random_field(Grid1D(n=64, dx=7e-6), seed=seed)
    assert power(FreeSpaceFourier(dist).apply(f)) == pytest.approx(power(f), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_relay_linearity(seed):
    g = Grid1D(n=64, dx=7e-6)
    a, b = random_field(g, seed=seed), random_field(g, seed=seed + 1)
    al, be = 1.3 - 0.4j, -0.7 + 2.1j
    mixed = SampledField(g, WL, al * a.amp + be * b.amp)
    lhs = FourierLens(F).apply(mixed).amp
    rhs = al * FourierLens(F).apply(a).amp + be * FourierLens(F).apply(b).amp
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


# ---------------------------------------------------------------- offset 2-f stage

def disk_field(n, extent, wavelength=WL):
    grid = Grid2D(nx=n, ny=n, dx=extent / n, dy=extent / n)
    return SampledField(grid, wavelength, np.ones((n, n)))


def offset_2f(z, transposed=False):
    """The 2-f stage onto the plane ``z`` past the focal plane, or, transposed,
    back from it: the chirp screen sits on the lens's front focal plane."""
    stage = (OffsetChirp(F, z), FourierLens(F))
    return OpticalTrain(stage[::-1] if transposed else stage)


def test_two_f_zero_offset_reduces_to_lens():
    # the screen at z=0 leaves a field bit for bit, so either order of the
    # stage is the lens alone
    for f in (random_field(Grid2D(nx=64, ny=48, dx=2e-4, dy=3e-4), seed=6),
              random_field(Grid1D(n=64, dx=2e-4), seed=7)):
        same = OffsetChirp(F, 0.0).apply(f)
        assert same.grid == f.grid and same.wavelength == f.wavelength
        assert np.array_equal(same.amp.view(np.int64), f.amp.view(np.int64))
        b = FourierLens(F).apply(f)
        for transposed in (False, True):
            a = run_train(f, offset_2f(0.0, transposed))
            assert a.grid == b.grid
            assert np.array_equal(a.amp.view(np.int64), b.amp.view(np.int64))
    with pytest.raises(ConfigurationError, match="focal length"):
        OffsetChirp(-F, 0.0)


def test_two_f_axial_profile_of_disk():
    # On-axis response of a uniformly lit disk vs (1+z/f) sinc(pi D^2 z/(8 f^2 wl)).
    D = 12.7e-3
    src = CircularAperture(D).apply(disk_field(n=512, extent=1.32 * D))
    z_half = 8 * F**2 * WL / (np.pi * D**2)           # half-period of the sinc arg
    zs = np.linspace(-4, 4, 17) * z_half
    on_axis = []
    for z in zs:
        out = run_train(src, offset_2f(z))
        on_axis.append(out.amp[out.grid.ny // 2, out.grid.nx // 2])
    on_axis = np.abs(on_axis)
    expected = np.abs((1 + zs / F) * np.sinc(D**2 * zs / (8 * F**2 * WL)))
    np.testing.assert_allclose(on_axis / on_axis[8], expected, atol=2e-3)


def test_two_f_lateral_profile_of_disk():
    # Focal-plane cut of a uniformly lit disk follows 2 J1(u)/u with
    # u = pi D r /(f wl).
    D = 12.7e-3
    n = 1024
    extent = F * WL / 0.75e-6                          # sets output spacing 0.75 um
    src = CircularAperture(D).apply(disk_field(n=n, extent=extent))
    out = run_train(src, offset_2f(0.0))
    row = np.abs(out.amp[n // 2])
    x = out.grid.xs
    sel = np.abs(x) <= 15e-6
    expected = np.abs(somb(np.pi * D * np.abs(x[sel]) / (F * WL)))
    np.testing.assert_allclose(row[sel] / row[n // 2], expected, atol=5e-3)


def test_two_f_transpose_on_point_source():
    # A point emitter at (r0, z) back-propagates to chirp times linear phase.
    g = Grid2D(nx=128, ny=128, dx=4e-6, dy=4e-6)
    x0, y0 = 12e-6, -20e-6
    z = 30e-6
    out = run_train(point_source(g, (x0, y0), 1.0, WL), offset_2f(z, transposed=True))
    xs, ys = out.grid.xs, out.grid.ys
    rsq = out.grid.radius_sq()
    expected = ((1 + z / F) * np.exp(-1j * np.pi * z * rsq / (F**2 * WL))
                * np.exp(-2j * np.pi * (xs[None, :] * x0 + ys[:, None] * y0) / (F * WL)))
    ratio = out.amp / expected
    assert np.abs(ratio - ratio[0, 0]).max() < 1e-10 * np.abs(ratio[0, 0])


def test_two_f_chirp_aliasing_guard():
    f = random_field(Grid2D(nx=64, ny=64, dx=1e-3, dy=1e-3), seed=7)
    with pytest.raises(SamplingError):
        OffsetChirp(F, 1e-3).apply(f)
    OffsetChirp(F, 1e-8).apply(f)  # well-sampled chirp passes


def test_two_f_works_in_1d():
    g = Grid1D(n=256, dx=5e-5)
    out = run_train(random_field(g, seed=8), offset_2f(1e-5))
    assert out.grid.n == 256


# ---------------------------------------------------------------- time reversal

YOUNG_SYSTEM = (DoubleSlit(0.5e-3, 8e-5), FourierLens(F))
FOCUS_SYSTEM = (CircularAperture(12.7e-3), OffsetChirp(F, -2e-5), FourierLens(F))


def test_reversed_builders_read_their_forward_systems_backwards():
    # each reversed train is its forward system read backwards, then the
    # shared tail: free path L1, the last lens, SHG if on, free path L2, pinhole
    tail = (FreeSpaceFourier(0.25), FourierLens(F), SHG(), FreeSpaceFourier(0.5),
            PinholeSample(0.0))
    assert reversed_young_train(F, 0.5e-3, 0.25, 0.5, slit_width=8e-5).elements == (
        FourierLens(F), DoubleSlit(0.5e-3, 8e-5)) + tail
    assert reversed_focus_train(F, 12.7e-3, -2e-5, 0.25, 0.5).elements == (
        FourierLens(F), OffsetChirp(F, -2e-5), CircularAperture(12.7e-3)) + tail
    assert reversed_young_train(F, 0.5e-3, 0.7, 1.1, second_harmonic=False,
                                pinhole_radius=2e-6).elements == (
        FourierLens(F), DoubleSlit(0.5e-3), FreeSpaceFourier(0.7), FourierLens(F),
        FreeSpaceFourier(1.1), PinholeSample(2e-6))


@pytest.mark.parametrize("element", YOUNG_SYSTEM + FOCUS_SYSTEM,
                         ids=lambda e: type(e).__name__)
def test_forward_system_elements_read_the_same_backwards(element):
    # Reading a system backwards takes each element's transpose; every
    # element of both forward systems is its own transpose: its sampled
    # matrix is symmetric in the sample indices, to rounding. kernel_of
    # gives the 1-D matrix (the slits lie on its grid); the
    # aperture, on 2-D fields only, has its matrix taken from apply on a
    # small 2-D grid, as the lens and the screen have too.
    matrices = []
    if not isinstance(element, CircularAperture):
        matrices.append(kernel_of(element, Grid1D(n=129, dx=1e-5), WL).K)
    if not isinstance(element, DoubleSlit):
        g2 = Grid2D(nx=6, ny=5, dx=2e-3, dy=3e-3)
        points = np.eye(30).reshape(30, 5, 6)
        matrices.append(np.stack([element.apply(SampledField(g2, WL, p)).amp.ravel()
                                  for p in points], axis=1))
    for K in matrices:
        assert np.count_nonzero(K) > 1
        assert np.allclose(K, K.T, rtol=0, atol=1e-13 * np.abs(K).max())


# Each linear element class, and the grids it acts on, up to n = 4096 per axis
LINEAR_ELEMENTS = (FourierLens(F), FreeSpaceFourier(0.7), OffsetChirp(F, -2e-5),
                   DoubleSlit(1e-4), DoubleSlit(1e-4, 4e-5), CircularAperture(5e-4))
TRANSPOSE_GRIDS = (Grid1D(n=4096, dx=3e-6), Grid1D(n=63, dx=1e-5),
                   Grid2D(nx=4096, ny=3, dx=3e-6, dy=2e-5),
                   Grid2D(nx=48, ny=63, dx=2e-5, dy=1.5e-5))
TRANSPOSE_CASES = [(e, g) for e in LINEAR_ELEMENTS for g in TRANSPOSE_GRIDS
                   if len(g.shape) in {DoubleSlit: (1,), CircularAperture: (2,)}.get(
                       type(e), (1, 2))]


def test_transpose_cases_cover_every_linear_element_class():
    # SHG squares the field and the pinhole reads a number: neither is a
    # linear map between fields
    assert {type(e) for e, _ in TRANSPOSE_CASES} == set(elements._TAGS) - {SHG, PinholeSample}


@pytest.mark.parametrize("element,grid", TRANSPOSE_CASES, ids=lambda v: (
    type(v).__name__ if isinstance(v, elements._Element) else "x".join(map(str, v.shape))))
def test_every_element_is_its_own_transpose(element, grid):
    # The dot-product test (Claerbout, Earth Soundings Analysis, 1992) with
    # the bilinear form of each grid: sum (A x) y cell_out = sum x (A y)
    # cell_in, where A runs on y from its output grid, back onto the input
    # grid. Random complex x and y; no matrix is formed.
    x = random_field(grid, seed=grid.shape[-1])
    ax = element.apply(x)
    y = random_field(ax.grid, seed=len(grid.shape))
    ay = element.apply(y)
    for back, axis in zip(ay.grid.axes, grid.axes):
        assert back.dx == pytest.approx(axis.dx, rel=1e-12)
    lhs = np.sum(ax.amp * y.amp) * ax.grid.cell
    rhs = np.sum(x.amp * ay.amp) * grid.cell
    assert abs(lhs) > 0
    assert abs(lhs - rhs) <= 1e-12 * np.sqrt(power(ax) * power(y))


# ---------------------------------------------------------------- masks

# 60 um slits at +-500 um on a 10 um grid: each passes the 7 samples 47..53
# cells from the centre, both edge samples included, though in floating
# point 530 um lies 8e-20 m outside the edge and 470 um 3e-20 m inside
SLIT_CELLS = np.arange(47, 54)


def test_double_slit_support():
    g = Grid1D(n=512, dx=10e-6)
    f = SampledField(g, WL, np.ones(512))
    out = DoubleSlit(x1=0.5e-3, slit_width=60e-6).apply(f)
    open_ = np.zeros(512, dtype=bool)
    open_[256 + SLIT_CELLS] = open_[256 - SLIT_CELLS] = True
    assert np.array_equal(out.amp != 0, open_)


def test_double_slit_power_fraction():
    g = Grid1D(n=512, dx=10e-6)
    f = SampledField(g, WL, np.ones(512))
    out = DoubleSlit(x1=0.5e-3, slit_width=60e-6).apply(f)
    assert power(out) == pytest.approx(power(f) * 2 * len(SLIT_CELLS) / 512, rel=1e-12)


def test_double_slit_default_is_single_cell():
    g = Grid1D(n=512, dx=10e-6)
    f = SampledField(g, WL, np.ones(512))
    out = DoubleSlit(x1=0.5e-3).apply(f)
    idx = np.flatnonzero(out.amp)
    assert len(idx) == 2
    assert list(g.coords[idx]) == pytest.approx([-0.5e-3, 0.5e-3])


def test_double_slit_overlap_rejected():
    f = SampledField(Grid1D(n=64, dx=1e-5), WL, np.ones(64))
    with pytest.raises(ConfigurationError):
        DoubleSlit(x1=1e-5, slit_width=4e-5).apply(f)


def test_double_slit_outside_grid():
    f = SampledField(Grid1D(n=64, dx=1e-5), WL, np.ones(64))
    with pytest.raises(DomainError):
        DoubleSlit(x1=1.0).apply(f)


def test_delta_slits_on_one_sample_are_refused():
    # Below dx/2 both delta slits round to the centre sample; at dx/2 they
    # take the samples on either side of the axis
    g = Grid1D(n=1024, dx=2e-5)
    for x1 in (8e-6, 9.999e-6):
        with pytest.raises(DomainError, match="share one grid sample"):
            DoubleSlit(x1).mask(g)
    assert np.flatnonzero(DoubleSlit(1e-5).mask(g)).tolist() == [511, 512]


def test_double_slit_needs_1d():
    f = SampledField(Grid2D(nx=8, ny=8, dx=1e-5, dy=1e-5), WL, np.ones((8, 8)))
    with pytest.raises(UnsupportedElementError):
        DoubleSlit(x1=2e-5).apply(f)


SLIT_P = YoungParams(x1=1.6e-4, f=F, wavelength=WL)  # 8 cells, 8 samples per fringe
SLIT_GRID = Grid1D(n=256, dx=2e-5)
YOUNG_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "young_compare.json"


@pytest.mark.parametrize("caller", [
    lambda: forward_young(SLIT_P, SLIT_GRID),
    lambda: young_coincidence_at(SLIT_P, SLIT_GRID, [0.0, 1e-5]),
    lambda: run_train_batch(SLIT_GRID, WL, [128, 130],
                            reversed_young_train(F, SLIT_P.x1, L1=0.25, L2=0.5)),
    lambda: validate(load_config(str(YOUNG_CONFIG))),
    lambda: kernel_of(DoubleSlit(SLIT_P.x1), SLIT_GRID, WL),
], ids=["forward_young", "young_coincidence_at", "young_closed_form", "validate",
        "kernel_of"])
def test_every_slit_mask_is_the_element_mask(monkeypatch, caller):
    # Each run path and check that masks the slit plane without a field
    # takes the transmission from DoubleSlit.mask, the one slit definition
    grids = []
    mask = DoubleSlit.mask

    def spy(self, grid):
        grids.append(grid)
        return mask(self, grid)

    monkeypatch.setattr(DoubleSlit, "mask", spy)
    caller()
    assert grids


def test_aperture_identity_when_larger_than_grid():
    g = Grid2D(nx=32, ny=32, dx=1e-4, dy=1e-4)
    f = random_field(g, seed=9)
    out = CircularAperture(D=1.0).apply(f)
    np.testing.assert_array_equal(out.amp, f.amp)


def test_aperture_power_ratio_counts_samples():
    g = Grid2D(nx=128, ny=128, dx=1e-4, dy=1e-4)
    f = SampledField(g, WL, np.ones((128, 128)))
    D = 6e-3
    out = CircularAperture(D).apply(f)
    n_in = int(np.sum(g.radius_sq() <= (D / 2) ** 2))
    assert power(out) == pytest.approx(n_in * g.cell, rel=1e-12)


def test_aperture_blocks_outside_point():
    g = Grid2D(nx=64, ny=64, dx=1e-4, dy=1e-4)
    f = point_source(g, (2.5e-3, 0.0), 1.0, WL)
    out = CircularAperture(D=2e-3).apply(f)
    assert not np.any(out.amp)


def test_aperture_needs_2d():
    f = SampledField(Grid1D(n=16, dx=1e-4), WL, np.ones(16))
    with pytest.raises(UnsupportedElementError):
        CircularAperture(D=1e-3).apply(f)


# ---------------------------------------------------------------- relay pair / SHG / pinhole

def test_magnify_flip():
    # lens F then free path F images at magnification -1
    g = Grid1D(n=64, dx=1e-5)
    f = point_source(g, 5e-5, 1.0, WL)
    out = relay_pair(f, F)
    assert out.grid.coords[int(np.argmax(np.abs(out.amp)))] == pytest.approx(-5e-5)
    assert power(out) == pytest.approx(power(f), rel=1e-12)


def test_magnify_moves_delta():
    g = Grid1D(n=64, dx=1e-5)
    f = point_source(g, 8e-5, 1.0, WL)
    out = relay_pair(f, 2.5 * F)
    assert out.grid.coords[int(np.argmax(np.abs(out.amp)))] == pytest.approx(-2.5 * 8e-5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), M=st.floats(1e-3, 10))
def test_magnify_preserves_power(seed, M):
    f = random_field(Grid1D(n=48, dx=1e-5), seed=seed)
    out = relay_pair(f, M * F)
    assert power(out) == pytest.approx(power(f), rel=1e-12)
    assert out.grid.dx == pytest.approx(M * f.grid.dx, rel=1e-12)


def test_magnify_2d_flip():
    g = Grid2D(nx=32, ny=32, dx=1e-5, dy=1e-5)
    f = point_source(g, (3e-5, -4e-5), 1.0, WL)
    out = relay_pair(f, 2 * F)
    iy, ix = np.unravel_index(int(np.argmax(np.abs(out.amp))), out.amp.shape)
    assert out.grid.xs[ix] == pytest.approx(-6e-5)
    assert out.grid.ys[iy] == pytest.approx(8e-5)
    assert power(out) == pytest.approx(power(f), rel=1e-12)


def test_shg_squares_field_and_halves_wavelength():
    g = Grid1D(n=32, dx=1e-5)
    rng = np.random.default_rng(11)
    f = SampledField(g, WL, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    out = SHG().apply(f)
    assert out.wavelength == WL / 2
    np.testing.assert_allclose(out.amp, f.amp ** 2, rtol=1e-15)
    np.testing.assert_allclose(np.abs(out.amp), np.abs(f.amp) ** 2, rtol=1e-12)


def test_shg_doubles_two_delta_phases():
    g = Grid1D(n=64, dx=1e-5)
    theta = 0.7
    amp = np.zeros(64, dtype=complex)
    i_plus, i_minus = g.index_of(2e-4), g.index_of(-2e-4)
    amp[i_plus], amp[i_minus] = np.exp(-1j * theta), np.exp(1j * theta)
    out = SHG().apply(SampledField(g, WL, amp))
    assert np.angle(out.amp[i_plus]) == pytest.approx(-2 * theta)
    assert np.angle(out.amp[i_minus]) == pytest.approx(2 * theta)


def test_pinhole_zero_field():
    f = SampledField(Grid1D(n=16, dx=1e-5), WL, np.zeros(16))
    assert PinholeSample(0.0).apply(f) == 0.0
    assert PinholeSample(1.0).apply(f) == 0.0


def test_pinhole_radius_covering_grid_gives_power():
    f = random_field(Grid1D(n=64, dx=1e-5), seed=12)
    assert PinholeSample(radius=1.0).apply(f) == pytest.approx(power(f), rel=1e-12)


def test_pinhole_zero_radius_reads_on_axis_sample():
    # Radius 0 reads the origin, sample n//2 of each axis: on even and odd
    # 1-D grids and a non-square 2-D one, indexed [iy, ix]
    for g, origin in ((Grid1D(n=64, dx=1e-5), (32,)),
                      (Grid1D(n=63, dx=1e-5), (31,)),
                      (Grid2D(nx=48, ny=40, dx=1e-5, dy=2e-5), (20, 24))):
        f = random_field(g, seed=13)
        assert all(a.coords[i] == 0.0 for a, i in zip(g.axes, origin))
        assert PinholeSample(0.0).apply(f) == pytest.approx(abs(f.amp[origin]) ** 2)


def test_pinhole_finite_radius_2d():
    g = Grid2D(nx=32, ny=32, dx=1e-5, dy=1e-5)
    f = random_field(g, seed=14)
    r = 5.5e-5
    expected = np.sum(np.abs(f.amp[g.radius_sq() <= r**2]) ** 2) * g.cell
    assert PinholeSample(r).apply(f) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- trains

def test_empty_train_is_identity():
    f = random_field(Grid1D(n=16, dx=1e-5), seed=15)
    out = run_train(f, OpticalTrain(()))
    assert out is f


def test_single_element_train():
    f = random_field(Grid1D(n=64, dx=1e-5), seed=16)
    out = run_train(f, OpticalTrain((FourierLens(F),)))
    np.testing.assert_array_equal(out.amp, FourierLens(F).apply(f).amp)


def test_train_rejects_two_shg():
    with pytest.raises(ConfigurationError):
        OpticalTrain((SHG(), FourierLens(F), SHG()))


def test_train_rejects_pinhole_not_last():
    with pytest.raises(ConfigurationError):
        OpticalTrain((PinholeSample(0.0), FourierLens(F)))


def young_sweep(train, n, dx_src, offsets):
    """Run a pinhole train over point-source positions ``offsets`` (meters)."""
    grid = Grid1D(n=n, dx=dx_src)
    return np.array([run_train(point_source(grid, x0, 1.0, WL), train)
                     for x0 in offsets])


def test_reversed_young_train_half_period_fringe():
    # Scanned SH pinhole signal follows (1 + cos(8 pi x1 x0/(f wl)))/2; with
    # delta slits the discrete chain is exact, not just grid-converged.
    x1 = 0.5e-3
    n = 512
    dx_src = F * WL / (n * (x1 / 12))                  # slits land on-grid
    train = reversed_young_train(F, x1, L1=0.7, L2=1.1)
    x0 = np.arange(-8, 9) * 2 * dx_src
    intensity = young_sweep(train, n, dx_src, x0)
    expected = 0.5 * (1 + np.cos(8 * np.pi * x1 * x0 / (F * WL)))
    np.testing.assert_allclose(intensity / intensity.max(),
                               expected / expected.max(), atol=1e-10)


def test_reversed_young_without_shg_has_classical_period():
    x1 = 0.5e-3
    n = 512
    dx_src = F * WL / (n * (x1 / 12))
    train = reversed_young_train(F, x1, L1=0.7, L2=1.1, second_harmonic=False)
    x0 = np.arange(-8, 9) * 2 * dx_src
    intensity = young_sweep(train, n, dx_src, x0)
    expected = 0.5 * (1 + np.cos(4 * np.pi * x1 * x0 / (F * WL)))
    np.testing.assert_allclose(intensity / intensity.max(),
                               expected / expected.max(), atol=1e-10)


def test_reversed_focus_without_shg_reads_the_classical_spot():
    # The looped SHG-off train read at the fundamental is the classical
    # lateral spot, twice the pair spot's width: on a 9-point r0 cut at z = 0
    # with the shipped optics it agrees to 1.05e-4 of the peak at 256^2,
    # 4.5e-5 at 512^2 and 2.8e-5 at 1024^2
    D = 12.7e-3
    p = FocusParams(D=D, f=F, wavelength=WL)
    train = reversed_focus_train(F, D, 0.0, 0.25, 0.5, second_harmonic=False)
    g = Grid2D(nx=256, ny=256, dx=1e-6, dy=1e-6)
    r0 = np.linspace(-4e-6, 4e-6, 9)
    got = np.array([run_train(point_source(g, (x, 0.0), 1.0, WL), train) for x in r0])
    got /= got.max()
    assert np.max(np.abs(got - spot_lateral(r0, p, "classical"))) <= 2e-4
    assert np.max(np.abs(got - spot_lateral(r0, p, "two_photon"))) > 0.4


FOCUS_SOURCES = [(64, 64), (64, 67), (64, 60), (66, 64), (61, 65)]


@pytest.mark.parametrize("z,second_harmonic,radius,L1,L2,center", [
    (0.0, True, 0.0, 0.25, 0.5, (0.0, 0.0)),
    (2e-5, True, 0.0, 0.7, 1.1, (0.0, 0.0)),
    (-3e-5, True, 0.0, 0.25, 0.5, (3e-6, -2e-6)),
])
def test_run_train_batch_2d_matches_looped_trains(z, second_harmonic, radius,
                                                  L1, L2, center):
    # The fused focus sweep against the field path, in raw readings, for a
    # cross of sources around ``center`` (x, y): on the axis or off it
    g = Grid2D(nx=128, ny=128, dx=1e-6, dy=1e-6)
    iy0, ix0 = g.index_of(center)
    sources = [(iy + iy0 - 64, ix + ix0 - 64) for iy, ix in FOCUS_SOURCES]
    train = reversed_focus_train(F, 12.7e-3, z, L1, L2, pinhole_radius=radius,
                                 second_harmonic=second_harmonic)
    got = run_train_batch(g, WL, sources, train)
    want = np.array([run_train(point_source(g, (g.xs[ix], g.ys[iy]), 1.0, WL), train)
                     for iy, ix in sources])
    assert len(set(want)) == len(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def looped_readings(g, train, sources):
    return np.array([run_train(point_source(g, (g.xs[ix], g.ys[iy]), 1.0, WL), train)
                     for iy, ix in sources])


@pytest.mark.parametrize("second_harmonic", [True])
def test_run_train_batch_2d_non_square_grid(second_harmonic):
    # nx != ny and dx != dy, so a swapped pair of axes fails on shape or value;
    # the aperture cuts both pupil axes and repeated sources read alike; on
    # even and odd sizes, the centre sample n//2 and the edges
    train = reversed_focus_train(F, 12.7e-3, 3e-5, 0.25, 0.5,
                                 second_harmonic=second_harmonic)
    for nx, ny in ((96, 64), (97, 63)):
        g = Grid2D(nx=nx, ny=ny, dx=1.1e-6, dy=0.8e-6)
        cy, cx = ny // 2, nx // 2
        sources = [(cy, cx), (cy - 2, cx + 3), (cy, cx), (cy + 3, cx - 4),
                   (cy - 2, cx + 3), (0, nx - 1), (ny - 1, 0)]
        # on an odd grid the two corners mirror each other through the
        # centre sample, and mirror images read alike
        mirrored = nx % 2 == 1 and ny % 2 == 1
        got = run_train_batch(g, WL, sources, train)
        want = looped_readings(g, train, sources)
        distinct = want[:6] if mirrored else want
        assert len(set(distinct)) == (4 if mirrored else 5)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
        assert got[2] == pytest.approx(got[0], rel=1e-12)
        assert got[4] == pytest.approx(got[1], rel=1e-12)
        if mirrored:
            assert got[6] == pytest.approx(got[5], rel=1e-12)


@pytest.mark.parametrize("second_harmonic", [True])
def test_run_train_batch_2d_aperture_rim_sample_passes(second_harmonic):
    # D/2 equals a pupil coordinate, so four pupil samples sit exactly on
    # the rim; CircularAperture passes |r| <= D/2, and so must the batch
    g = Grid2D(nx=64, ny=64, dx=1e-6, dy=1e-6)
    opening = offset_2f(2e-5, transposed=True)
    pupil = run_train(point_source(g, (0.0, 0.0), 1.0, WL), opening).grid
    D = 2 * pupil.xs[32 + 10]
    assert pupil.xs[32 + 10] == pupil.ys[32 + 10] == D / 2
    train = reversed_focus_train(F, D, 2e-5, 0.25, 0.5,
                                 second_harmonic=second_harmonic)
    sources = [(32, 32), (33, 30), (29, 35)]
    got = run_train_batch(g, WL, sources, train)
    want = looped_readings(g, train, sources)
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), nx=st.integers(2, 160), ny=st.integers(2, 160),
       dx=st.floats(1e-7, 1e-3), dy=st.floats(1e-7, 1e-3))
def test_aperture_rows_are_runs_through_the_centre_column(data, nx, ny, dx, dy):
    # The batched reader sums each kept pupil row over the run of columns
    # the stop's runs name: on the rows and columns the aperture passes on
    # the axes, it must pass one run per row holding the centre column n//2,
    # and nothing off them; on even and odd sizes, also where D/2 is a
    # sample coordinate. The slits' runs are their kept samples, as one run.
    g = Grid2D(nx=nx, ny=ny, dx=dx, dy=dy)
    if data.draw(st.booleans(), label="rim-exact"):
        axis = data.draw(st.sampled_from([g.xs, g.ys]), label="rim axis")
        D = 2 * abs(data.draw(st.sampled_from(axis[axis != 0].tolist()), label="rim"))
    else:
        D = data.draw(st.floats(1e-3, 1.5), label="fill") * max(nx * dx, ny * dy)
    aperture = CircularAperture(D)
    (ky, kx), lo, hi = aperture.runs(g)
    centre = int(np.searchsorted(kx, nx // 2))
    assert kx[centre] == nx // 2
    passes = aperture.mask(g.ys[ky], g.xs[kx])
    assert np.count_nonzero(aperture.mask(g.ys, g.xs)) == np.count_nonzero(passes)
    assert len(lo) == len(hi) == len(ky)
    for row, start, stop in zip(passes, lo, hi):
        cols = np.flatnonzero(row)
        assert cols[0] <= centre <= cols[-1]
        np.testing.assert_array_equal(cols, np.arange(cols[0], cols[-1] + 1))
        np.testing.assert_array_equal(cols, np.arange(start, stop))

    line = g.axes[1]
    positive = line.coords[line.coords > 0]
    if positive.size and data.draw(st.booleans(), label="delta slits"):
        slit = DoubleSlit(data.draw(st.sampled_from(positive.tolist()), label="x1"))
    else:
        x1 = data.draw(st.floats(1e-3, 1.5), label="x1 fill") * nx * dx
        width = data.draw(st.floats(0.01, 0.99), label="width fill") * 2 * x1
        slit = DoubleSlit(x1, width)
    (kept,), lo, hi = slit.runs(line)
    np.testing.assert_array_equal(kept, np.flatnonzero(slit.mask(line)))
    assert lo.tolist() == [0] and hi.tolist() == [len(kept)]


def test_run_train_batch_2d_holds_no_pupil_sized_complex_array():
    # One 9-source read on a 1024^2 grid (the shipped focus compare) peaks
    # below one complex array over the pupil rows and columns the aperture
    # reaches
    g = Grid2D(nx=1024, ny=1024, dx=1e-6, dy=1e-6)
    D = 12.7e-3
    train = reversed_focus_train(F, D, 2e-5, 0.25, 0.5)
    sources = [(512, 512 + k) for k in range(-4, 5)]
    run_train_batch(g, WL, sources, train)  # warm-up
    tracemalloc.start()
    try:
        run_train_batch(g, WL, sources, train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    opening = OpticalTrain(train.elements[:2])
    pupil = run_train(point_source(g, (0.0, 0.0), 1.0, WL), opening).grid
    ky = np.count_nonzero(np.abs(pupil.ys) <= D / 2)
    kx = np.count_nonzero(np.abs(pupil.xs) <= D / 2)
    assert peak < 16 * ky * kx


def test_offset_chirp_2d_is_separable_and_keeps_the_guard():
    g = Grid2D(nx=48, ny=40, dx=3e-4, dy=5e-4)
    z = 1e-4
    f = random_field(g, seed=40)
    direct = np.exp(-1j * np.pi * z * g.radius_sq() / (F**2 * WL))
    out = OffsetChirp(F, z).apply(f)
    assert out.grid == g
    np.testing.assert_allclose(out.amp, f.amp * (1 + z / F) * direct,
                               rtol=0, atol=1e-14 * np.abs(f.amp).max())
    # the y axis alone aliases: its phase step passes pi, the x step does not
    tall = Grid2D(nx=48, ny=400, dx=3e-4, dy=5e-4)
    OffsetChirp(F, z).axis_op(tall.axes[1], WL)
    with pytest.raises(SamplingError):
        OffsetChirp(F, z).apply(random_field(tall, seed=41))


@pytest.mark.parametrize("n", [64, 63, 128])
def test_relayed_delta_on_chosen_columns_equals_full_row_slice(n):
    # Built per element, so building only some columns changes no bit
    m = np.array([n // 2, 0, n - 1, 5, 5, n // 3])
    cols = np.array([n - 1, 3, n // 2, 3, 0, 17])
    full = elements._relayed_delta(n, 1e-6, m, F, WL)
    part = elements._relayed_delta(n, 1e-6, m, F, WL, cols=cols)
    np.testing.assert_array_equal(part, full[:, cols])
    assert part.strides == full[:, cols].strides


def test_run_train_batch_2d_guards():
    g = Grid2D(nx=128, ny=128, dx=1e-6, dy=1e-6)
    aliasing = reversed_focus_train(F, 12.7e-3, 1e-3, 0.25, 0.5)
    with pytest.raises(SamplingError):
        run_train(point_source(g, (0.0, 0.0), 1.0, WL), aliasing)
    with pytest.raises(SamplingError):
        run_train_batch(g, WL, [(64, 64)], aliasing)
    train = reversed_focus_train(F, 12.7e-3, 2e-5, 0.25, 0.5)
    for bad in ([(64, 128)], [(-1, 64)], [(128, 0)], [64, 64]):
        with pytest.raises(DomainError):
            run_train_batch(g, WL, bad, train)
    # the screen before its lens is the forward stage, not the reversed one
    screen_first = OpticalTrain(offset_2f(2e-5).elements + train.elements[2:])
    # finite pinholes and SHG-off trains run through looped run_train only
    looped = [reversed_focus_train(F, 12.7e-3, -2e-5, 0.25, 0.5, pinhole_radius=1.013e-3),
              reversed_focus_train(F, 12.7e-3, 2e-5, 0.7, 1.1, pinhole_radius=1.013e-3,
                                   second_harmonic=False),
              reversed_focus_train(F, 12.7e-3, 2e-5, 0.25, 0.5, second_harmonic=False)]
    for other in looped + [reversed_young_train(F, 0.5e-3, L1=0.7, L2=1.1), screen_first,
                           OpticalTrain(train.elements[:4] + train.elements[5:])]:
        with pytest.raises(UnsupportedElementError, match="run_train reads"):
            run_train_batch(g, WL, [(64, 64)], other)
    for wl in (0.0, -WL):
        with pytest.raises(ConfigurationError):
            run_train_batch(g, wl, [(64, 64)], train)


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_run_train_batch_2d_nonfinite_stage_raises(monkeypatch, value):
    # A NaN in the relayed axis rows, or a finite value that overflows under SHG
    relay = elements._relayed_delta

    def poisoned(*args, **kwargs):
        out = relay(*args, **kwargs)
        out[-1, 0] = value
        return out

    g = Grid2D(nx=64, ny=64, dx=1e-6, dy=1e-6)
    train = reversed_focus_train(F, 12.7e-3, 2e-5, 0.25, 0.5)
    monkeypatch.setattr(elements, "_relayed_delta", poisoned)
    with pytest.raises(ValueError, match="field amplitudes must be finite"):
        run_train_batch(g, WL, [(32, 32), (30, 35)], train)


# ---------------------------------------------------------------- element rules

@pytest.mark.parametrize("cls,args", [
    (FourierLens, (np.inf,)),
    (FreeSpaceFourier, (np.nan,)),
    (OffsetChirp, (np.nan, 0.0)),
    (OffsetChirp, (F, np.nan)),
    (OffsetChirp, (np.inf, 0.0)),
    (DoubleSlit, (0.5e-3, np.inf)),
    (PinholeSample, (np.nan,)),
    (CircularAperture, (np.inf,)),
    (FourierLens, ("abc",)),
    (FourierLens, (True,)),
    (DoubleSlit, (None,)),
    (DoubleSlit, (np.inf,)),
    # the geometry and the grids keep the elements' number rule
    (YoungParams, (np.inf, F, WL)),
    (YoungParams, (0.5e-3, -np.inf, WL)),
    (YoungParams, (0.5e-3, F, np.nan)),
    (YoungParams, (True, F, WL)),
    (FocusParams, (np.inf, F, WL)),
    (FocusParams, (0.01, np.nan, WL)),
    (FocusParams, (0.01, F, -np.inf)),
    (FocusParams, (0.01, True, WL)),
    (Grid1D, (np.inf, 1e-6)),
    (Grid1D, (64, -np.inf)),
    (Grid1D, (64, np.nan)),
    (Grid1D, (True, 1e-6)),
    (Grid2D, (np.nan, 64, 1e-6, 1e-6)),
    (Grid2D, (64, 64, np.inf, 1e-6)),
    (Grid2D, (64, 64, 1e-6, -np.inf)),
    (Grid2D, (64, True, 1e-6, 1e-6)),
])
def test_elements_reject_nonfinite_parameters(cls, args):
    with pytest.raises(ConfigurationError, match="finite"):
        cls(*args)


@pytest.mark.parametrize("cls,args", [
    (FourierLens, (-F,)),
    (FreeSpaceFourier, (0.0,)),
    (PinholeSample, (-1e-6,)),
])
def test_elements_reject_out_of_range_parameters(cls, args):
    with pytest.raises(ConfigurationError):
        cls(*args)


def test_benchmark_tracer_hooks_into_elements():
    # The benchmark wraps these names from outside the package; a rename
    # would otherwise surface only in its smoke run.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.pop(0)
    original = elements.apply_element
    # every element class has a tag, which names its spans
    every_element = (FourierLens(F), DoubleSlit(0.5e-3), FreeSpaceFourier(0.7),
                     OffsetChirp(F, -2e-5), CircularAperture(12.7e-3),
                     SHG(), PinholeSample())
    assert {type(e) for e in every_element} == set(elements._TAGS)
    assert all(isinstance(tag, str) for tag in elements._TAGS.values())
    # the tag is a class attribute, not a field, and apply_element is the
    # element's own apply, bit for bit, on every field the element accepts
    on_1d = random_field(Grid1D(n=64, dx=2e-5), seed=32)
    on_2d = random_field(Grid2D(nx=16, ny=12, dx=2e-5, dy=3e-5), seed=33)
    for e in every_element:
        assert e.tag == elements._TAGS[type(e)]
        assert "tag" not in [f.name for f in fields(e)]
        accepted = 0
        for fld in (on_1d, on_2d):
            try:
                want = e.apply(fld)
            except UnsupportedElementError:  # a slit on 2-D, an aperture on 1-D
                continue
            got = elements.apply_element(fld, e)
            accepted += 1
            if isinstance(e, PinholeSample):
                assert got == want
            else:
                assert got.grid == want.grid and got.wavelength == want.wavelength
                np.testing.assert_array_equal(got.amp, want.amp)
        assert accepted
    with pytest.raises(UnsupportedElementError):
        elements.apply_element(on_1d, object())
    tracer = Tracer()
    tracer.install()
    try:
        assert elements.apply_element is not original
        out = run_train(point_source(Grid1D(n=64, dx=1e-5), 0.0, 1.0, WL),
                        OpticalTrain((FourierLens(F), SHG(), PinholeSample())))
        assert out > 0
        assert {span[0] for span in tracer.spans} >= {
            "elements.apply.fourier_lens", "elements.apply.shg",
            "elements.apply.pinhole"}
    finally:
        tracer.uninstall()
    assert elements.apply_element is original
