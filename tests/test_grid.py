"""Grids, sampled fields, and the unitary spectral transform.

The transform is checked against a brute-force O(n^2) evaluation of the
centered kernel sum, which is independent of any FFT machinery.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton.elements import FourierLens, TwoFWithOffset
from biphoton.errors import ConfigurationError, DomainError, GridMismatchError
from biphoton.grid import (
    Grid1D,
    Grid2D,
    SampledField,
    _axis_ends,
    _grid_from_axes,
    _spectral_axis,
    _spectral_phase,
    inner_product,
    point_source,
    power,
    unitary_fourier,
)

WL = 780e-9


def random_field(grid, seed, wavelength=WL):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, wavelength, amp)


def brute_force_transform(f):
    """Direct kernel sum: out[j] = (dx/sqrt(2 pi)) sum_k g_k exp(-i k_j x_k)."""
    g = f.grid
    dk = 2 * np.pi / (g.n * g.dx)
    k = (np.arange(g.n) - g.n // 2) * dk
    x = g.coords
    kernel = np.exp(-1j * np.outer(k, x))
    return (kernel @ f.amp) * g.dx / np.sqrt(2 * np.pi)


# ---------------------------------------------------------------- grids

def test_grid_center_sample():
    g = Grid1D(n=8, dx=0.5)
    assert g.coords[8 // 2] == 0.0
    assert g.coords[0] == -4 * 0.5


def test_grid_center_sample_odd():
    g = Grid1D(n=7, dx=1.0)
    assert g.coords[7 // 2] == 0.0
    assert g.coords[-1] == 3.0


def test_grids_are_on_axis_and_take_no_center():
    # Every grid is centred on the optical axis; no centre can be set.
    with pytest.raises(TypeError):
        Grid1D(8, 0.5, 0.0)
    with pytest.raises(TypeError):
        Grid1D(n=8, dx=0.5, center=0.0)
    with pytest.raises(TypeError):
        Grid2D(4, 4, 1.0, 1.0, center=(0.0, 0.0))


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid1D(n=1, dx=1.0)
    with pytest.raises(ConfigurationError):
        Grid1D(n=8, dx=0.0)
    with pytest.raises(ConfigurationError):
        Grid2D(nx=4, ny=4, dx=1.0, dy=-1.0)


def test_grid2d_shape_and_cell():
    g = Grid2D(nx=6, ny=4, dx=0.5, dy=0.25)
    assert g.shape == (4, 6)
    assert g.cell == 0.5 * 0.25
    assert g.radius_sq().shape == (4, 6)
    assert g.radius_sq()[4 // 2, 6 // 2] == 0.0


def test_axis_ends_equal_the_coordinate_ends_bit_for_bit():
    # contains() takes the end samples without building the arrays; on
    # random grids they are the arrays' ends exactly, and Grid2D.contains
    # agrees with the bounds taken from xs and ys at and just past them.
    rng = np.random.default_rng(11)
    for _ in range(2000):
        nx, ny = (int(v) for v in rng.integers(2, 5000, 2))
        dx, dy = 10 ** rng.uniform(-9, 2, 2)
        g = Grid2D(nx, ny, dx, dy)
        xs, ys = g.xs, g.ys
        assert _axis_ends(nx, dx) == (xs[0], xs[-1])
        assert _axis_ends(ny, dy) == (ys[0], ys[-1])
        g1 = Grid1D(nx, dx)
        assert _axis_ends(g1.n, g1.dx) == (g1.coords[0], g1.coords[-1])
        x_lo, x_hi = xs[0] - dx / 2, xs[-1] + dx / 2
        y_lo, y_hi = ys[0] - dy / 2, ys[-1] + dy / 2
        for px in (x_lo, x_hi, np.nextafter(x_lo, -np.inf), np.nextafter(x_hi, np.inf)):
            for py in (y_lo, y_hi, np.nextafter(y_lo, -np.inf), np.nextafter(y_hi, np.inf)):
                want = x_lo <= px <= x_hi and y_lo <= py <= y_hi
                assert g.contains((px, py)) == want


@settings(max_examples=200, deadline=None)
@given(nx=st.integers(2, 4000), ny=st.integers(2, 4000),
       dx=st.floats(1e-9, 1e2), dy=st.floats(1e-9, 1e2),
       tx=st.floats(-0.7, 0.7), ty=st.floats(-0.7, 0.7))
def test_grid2d_is_its_two_axes(nx, ny, dx, dy, tx, ty):
    # Grid2D's per-axis questions are Grid1D's, and its axes rebuild it.
    # Positions reach past the edges: t = +-0.5 is the edge, in widths.
    g = Grid2D(nx, ny, dx, dy)
    x, y = Grid1D(nx, dx), Grid1D(ny, dy)
    assert g.axes == (y, x)
    assert _grid_from_axes(g.axes) == g
    assert _grid_from_axes(x.axes) == x
    np.testing.assert_array_equal(g.xs, x.coords)
    np.testing.assert_array_equal(g.ys, y.coords)
    pos = (tx * nx * dx, ty * ny * dy)
    assert g.contains(pos) == (x.contains(pos[0]) and y.contains(pos[1]))
    assert g.index_of(pos) == (y.index_of(pos[1]), x.index_of(pos[0]))


def test_field_shape_mismatch():
    g = Grid1D(n=8, dx=1.0)
    with pytest.raises(GridMismatchError):
        SampledField(g, WL, np.zeros(7))


def test_field_rejects_nonfinite():
    g = Grid1D(n=4, dx=1.0)
    with pytest.raises(ValueError):
        SampledField(g, WL, np.array([1.0, np.nan, 0.0, 0.0]))


def test_field_amp_is_readonly():
    f = random_field(Grid1D(n=8, dx=1.0), seed=0)
    with pytest.raises(ValueError):
        f.amp[0] = 1.0


# ---------------------------------------------------------------- point sources

def test_point_source_power_exact():
    g = Grid1D(n=64, dx=0.3)
    f = point_source(g, pos=0.7, total_power=2.5, wavelength=WL)
    # Exact up to IEEE rounding of sqrt/square (a couple of ulp).
    assert power(f) == pytest.approx(2.5, rel=4e-16)
    assert np.count_nonzero(f.amp) == 1


def test_point_source_snaps_to_nearest_sample():
    g = Grid1D(n=16, dx=1.0)
    f = point_source(g, pos=2.4, total_power=1.0, wavelength=WL)
    assert np.flatnonzero(f.amp)[0] == 16 // 2 + 2


def test_point_source_tie_rounds_down():
    # Halfway between samples: the lower-coordinate sample wins.
    g = Grid1D(n=16, dx=1.0)
    f = point_source(g, pos=2.5, total_power=1.0, wavelength=WL)
    assert np.flatnonzero(f.amp)[0] == 16 // 2 + 2


def test_point_source_outside_grid():
    g = Grid1D(n=8, dx=1.0)
    edge = g.coords[-1]
    with pytest.raises(DomainError):
        point_source(g, pos=edge + 1.0, total_power=1.0, wavelength=WL)
    # Within half a cell of the edge sample is still in-domain.
    point_source(g, pos=edge + 0.4, total_power=1.0, wavelength=WL)


def test_point_source_2d():
    g = Grid2D(nx=16, ny=16, dx=1.0, dy=1.0)
    f = point_source(g, pos=(3.0, -2.0), total_power=1.0, wavelength=WL)
    iy, ix = np.argwhere(f.amp)[0]
    assert (iy, ix) == (16 // 2 - 2, 16 // 2 + 3)
    assert power(f) == pytest.approx(1.0, rel=4e-16)
    with pytest.raises(DomainError):
        point_source(g, pos=(9.0, 0.0), total_power=1.0, wavelength=WL)


# ---------------------------------------------------------------- transform

def test_transform_matches_brute_force_kernel():
    g = Grid1D(n=65, dx=0.37)
    f = random_field(g, seed=7)
    out = unitary_fourier(f)
    ref = brute_force_transform(f)
    np.testing.assert_allclose(out.amp, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_transform_matches_brute_force_even_n():
    g = Grid1D(n=64, dx=0.5)
    f = random_field(g, seed=11)
    np.testing.assert_allclose(unitary_fourier(f).amp, brute_force_transform(f),
                               rtol=0, atol=1e-12)


def test_transform_output_grid():
    g = Grid1D(n=128, dx=0.25)
    out = unitary_fourier(random_field(g, seed=3))
    assert out.grid.n == 128
    assert out.grid.dx == pytest.approx(2 * np.pi / (128 * 0.25))
    assert out.wavelength == WL


def test_delta_at_center_transforms_flat():
    g = Grid1D(n=256, dx=0.1)
    f = point_source(g, pos=0.0, total_power=1.0, wavelength=WL)
    out = unitary_fourier(f)
    assert np.allclose(out.amp, out.amp[0])
    assert out.amp[0].real > 0
    assert abs(out.amp[0].imag) < 1e-13 * out.amp[0].real


def test_offset_delta_transforms_to_linear_phase():
    g = Grid1D(n=128, dx=0.2)
    x_star = g.coords[90]
    f = point_source(g, pos=x_star, total_power=1.0, wavelength=WL)
    out = unitary_fourier(f)
    k = out.grid.coords
    expected = out.amp[128 // 2] * np.exp(-1j * k * x_star)
    np.testing.assert_allclose(out.amp, expected, atol=1e-12)


def test_gaussian_transforms_to_gaussian():
    # exp(-x^2/(2 s^2)) -> exp(-k^2 s^2 / 2), shapes compared peak-normalized.
    g = Grid1D(n=512, dx=0.05)
    s = 1.7
    f = SampledField(g, WL, np.exp(-g.coords**2 / (2 * s**2)))
    out = unitary_fourier(f)
    k = out.grid.coords
    expected = np.exp(-(k * s) ** 2 / 2)
    np.testing.assert_allclose(np.abs(out.amp) / np.abs(out.amp).max(), expected,
                               atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 200), seed=st.integers(0, 2**31))
def test_transform_preserves_power(n, seed):
    f = random_field(Grid1D(n=n, dx=0.13), seed=seed)
    assert power(unitary_fourier(f)) == pytest.approx(power(f), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 96), seed=st.integers(0, 2**31))
def test_transform_preserves_inner_products(n, seed):
    g = Grid1D(n=n, dx=0.21)
    a = random_field(g, seed=seed)
    b = random_field(g, seed=seed + 1)
    before = inner_product(a, b)
    after = inner_product(unitary_fourier(a), unitary_fourier(b))
    assert after == pytest.approx(before, rel=1e-11, abs=1e-11)


F, Z = 0.05, 1e-3


def test_transform_2d_separable():
    # On a non-square grid each 2-D transform is the tensor
    # product of its 1-D transforms, on the grid their axes make, and
    # keeps power up to factor^2 on a field that is not separable. The
    # offset 2-f stage applies its amplitude factor 1 + z/f once per field.
    transforms = [
        (unitary_fourier, 1.0),
        (FourierLens(F).apply, 1.0),
        (TwoFWithOffset(F, Z, transpose=True).apply, 1 + Z / F),
    ]
    gx = Grid1D(n=32, dx=1.1e-5)
    gy = Grid1D(n=16, dx=1.7e-5)
    rng = np.random.default_rng(5)
    ax = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    ay = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g2 = _grid_from_axes((gy, gx))
    f = random_field(g2, seed=9)
    for transform, factor in transforms:
        out2 = transform(SampledField(g2, WL, np.outer(ay, ax)))
        ox = transform(SampledField(gx, WL, ax))
        oy = transform(SampledField(gy, WL, ay))
        assert out2.grid == _grid_from_axes((oy.grid, ox.grid))
        want = np.outer(oy.amp, ox.amp) / factor
        np.testing.assert_allclose(out2.amp, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert power(transform(f)) == pytest.approx(power(f) * factor ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("axis", [0, 1])
def test_spectral_axis_along_either_axis_with_gain_and_out(n, axis):
    # Each slice along ``axis`` matches the brute-force sum times the gain
    # 1/sqrt(scale), and writing the result over the input gives the same bits.
    g = Grid1D(n=n, dx=0.4)
    amp = random_field(Grid2D(nx=n, ny=n, dx=1.0, dy=1.0), seed=n + axis).amp
    scale = 0.16
    phase = _spectral_phase(g, scale)
    out = _spectral_axis(amp, phase, axis)
    for i in range(n):
        line = amp[:, i] if axis == 0 else amp[i]
        got = out[:, i] if axis == 0 else out[i]
        ref = 2.5 * brute_force_transform(SampledField(g, WL, line))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    work = amp.copy()
    _spectral_axis(work, phase, axis, out=work)
    np.testing.assert_array_equal(work, out)


# ---------------------------------------------------------------- inner product

def test_inner_product_conjugate_symmetry():
    g = Grid1D(n=50, dx=0.2)
    a, b = random_field(g, seed=1), random_field(g, seed=2)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_grid_mismatch():
    a = random_field(Grid1D(n=8, dx=1.0), seed=0)
    b = random_field(Grid1D(n=8, dx=2.0), seed=0)
    with pytest.raises(GridMismatchError):
        inner_product(a, b)
    c = random_field(Grid1D(n=8, dx=1.0), seed=0, wavelength=WL / 2)
    with pytest.raises(GridMismatchError):
        inner_product(a, c)


def test_inner_product_norm_is_power():
    f = random_field(Grid1D(n=33, dx=0.7), seed=4)
    assert inner_product(f, f).real == pytest.approx(power(f), rel=1e-14)
