"""Closed-form patterns vs. independent oracles.

Oracles here avoid the implementation's own machinery: scipy's Cephes J0
and J1 and a power-series J1 for the numpy Bessel functions, bisection on
that series for the sombrero zero, plain sin/x bisection for half-max
points, a polar midpoint Riemann sum (no Bessel reduction) for the
chirped disk integral, and its Gauss-Legendre scalar transform for the
Lommel-series table.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j0 as scipy_j0, j1 as scipy_j1

from biphoton import analytic
from biphoton.analytic import (
    DeltaComb,
    FocusParams,
    YoungParams,
    disk_transform_table,
    focus_stage_field,
    fwhm,
    j0,
    j1,
    sinc,
    somb,
    spot_axial,
    spot_lateral,
    spot_offaxis_two_photon,
    uniform_disk_transform,
    young_classical,
    young_stage_field,
    young_two_photon,
)
from biphoton.errors import (
    ConfigurationError,
    DomainError,
    NonFiniteError,
    QuadratureError,
    ShapeError,
)

WL = 780e-9
YP = YoungParams(x1=0.5e-3, f=50e-3, wavelength=WL)
FP = FocusParams(D=12.7e-3, f=50e-3, wavelength=WL)


# ---------------------------------------------------------------- oracles

def j1_series(x, terms=60):
    """Power series sum_m (-1)^m (x/2)^(2m+1) / (m! (m+1)!)."""
    total = 0.0
    term = x / 2
    for m in range(terms):
        total += term
        term *= -(x / 2) ** 2 / ((m + 1) * (m + 2))
    return total


def bisect(g, lo, hi, iters=80):
    glo = g(lo)
    assert glo * g(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if glo * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
            glo = g(lo)
    return 0.5 * (lo + hi)


J1_FIRST_ZERO = bisect(j1_series, 3.0, 4.0)
SINC_SQ_HALF = bisect(lambda x: (np.sin(x) / x) ** 2 - 0.5, 1.0, 2.0)
SOMB_SQ_HALF = bisect(lambda x: (2 * j1_series(x) / x) ** 2 - 0.5, 1.0, 2.0)


def disk_transform_oracle(b, c, R, n_rho=16384, n_phi=256):
    """Polar midpoint Riemann sum of the chirped disk integral, no Bessel."""
    rho = (np.arange(n_rho) + 0.5) * (R / n_rho)
    phi = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
    angular = np.exp(-1j * np.outer(b * rho, np.cos(phi))).mean(axis=1)
    radial = np.sum(rho * np.exp(-1j * c * rho**2) * angular) * (R / n_rho)
    return 2 * radial / R**2


# ---------------------------------------------------------------- J0 / J1

def bessel_points():
    """About 2.1e6 points on |x| <= 1e4, densest on [0, 30], with the split at 8."""
    rng = np.random.default_rng(2024)
    split = np.array([8.0, np.nextafter(8.0, 0), np.nextafter(8.0, 9)])
    dense = np.linspace(0, 30, 600_001)
    wide = np.geomspace(30, 1e4, 300_000)
    scattered = rng.uniform(-1e4, 1e4, 300_000)
    return np.concatenate([split, -split, dense, -dense, wide, -wide, scattered])


def test_bessel_matches_scipy_oracle():
    x = bessel_points()
    near = np.abs(x) <= 25
    for ours, oracle in ((j0, scipy_j0), (j1, scipy_j1)):
        err = np.abs(ours(x) - oracle(x))
        assert err[near].max() <= 2e-15, ours.__name__
        assert err.max() <= 1e-13, ours.__name__


def test_j1_matches_series_oracle_within_its_rounding():
    # The series adds terms as large as I1(x), about 1.7e4 at x = 12, so its
    # own rounding is a few eps * I1(x); j1_series(1j * x) = 1j * I1(x) sums
    # the same terms without cancellation.
    x = np.linspace(0, 12, 2401)
    bound = 1e-15 + 4 * np.finfo(float).eps * j1_series(1j * x).imag
    assert np.all(np.abs(j1(x) - j1_series(x)) <= bound)
    assert np.all(np.abs(j1(-x) + j1_series(x)) <= bound)


def test_bessel_parity_and_special_values():
    x = np.concatenate([np.linspace(0, 40, 4001), np.geomspace(40, 1e6, 500)])
    np.testing.assert_array_equal(j0(-x), j0(x))
    np.testing.assert_array_equal(j1(-x), -j1(x))
    assert j0(0.0) == 1.0 and j0(-0.0) == 1.0
    assert j1(0.0) == 0.0
    special = np.array([np.inf, -np.inf, np.nan, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (j0, j1):
            val = fn(special)
            assert val[0] == 0.0 and val[1] == 0.0 and np.isnan(val[2])
            assert val[3] == fn(1.0)
            assert fn(np.inf) == 0.0 and np.isnan(fn(np.nan))


def test_bessel_scalar_in_scalar_out_and_shapes():
    for fn in (j0, j1):
        for arg in (1.5, 3, np.float64(9.5), np.array(2.0)):
            assert type(fn(arg)) is float
        assert fn(np.ones((3, 4))).shape == (3, 4)
        assert fn(np.empty(0)).shape == (0,)
        assert fn(np.array([[2.0, 20.0]])).shape == (1, 2)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert analytic._GL_NODES.tobytes() == nodes.tobytes()
    assert analytic._GL_WEIGHTS.tobytes() == weights.tobytes()


# ---------------------------------------------------------------- somb / sinc

def test_somb_at_zero():
    assert somb(0.0) == 0.5


def test_somb_near_zero_keeps_relative_accuracy():
    tiny = np.array([1e-300, -1e-300, 1e-200, 1e-100, 1e-8])
    np.testing.assert_allclose(somb(tiny), 0.5 - tiny**2 / 16, rtol=4.5e-16, atol=0)


def test_somb_even():
    x = np.linspace(0.1, 10, 50)
    np.testing.assert_allclose(somb(x), somb(-x), rtol=1e-15)


def test_somb_first_zero_matches_series_oracle():
    assert J1_FIRST_ZERO == pytest.approx(3.8317060, abs=1e-6)
    assert abs(somb(J1_FIRST_ZERO)) < 1e-12
    assert somb(J1_FIRST_ZERO - 0.1) * somb(J1_FIRST_ZERO + 0.1) < 0


def test_somb_matches_series_oracle():
    for x in (0.3, 1.7, 4.2, 9.9):
        assert somb(x) == pytest.approx(j1_series(x) / x, rel=1e-12)


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)
    assert SINC_SQ_HALF == pytest.approx(1.3915574, abs=1e-6)
    assert sinc(SINC_SQ_HALF) == pytest.approx(np.sqrt(0.5), rel=1e-9)


# ---------------------------------------------------------------- fringes

def test_young_two_photon_values():
    assert young_two_photon(0.0, YP) == 1.0
    x_dark = YP.f * WL / (8 * YP.x1)
    assert young_two_photon(x_dark, YP) == pytest.approx(0.0, abs=1e-12)


def test_young_periods_for_reference_geometry():
    assert YP.f * WL / (4 * YP.x1) == pytest.approx(19.5e-6, rel=1e-12)
    assert YP.f * WL / (2 * YP.x1) == pytest.approx(39.0e-6, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(x1=st.floats(1e-4, 5e-3), f=st.floats(5e-3, 0.5),
       x0=st.floats(-1e-3, 1e-3))
def test_young_periodicity_and_parity(x1, f, x0):
    p = YoungParams(x1=x1, f=f, wavelength=WL)
    period = f * WL / (4 * x1)
    assert young_two_photon(x0 + period, p) == pytest.approx(
        young_two_photon(x0, p), abs=1e-9)
    assert young_classical(x0 + 2 * period, p) == pytest.approx(
        young_classical(x0, p), abs=1e-9)
    assert young_two_photon(-x0, p) == pytest.approx(young_two_photon(x0, p),
                                                     rel=1e-12, abs=1e-12)


def test_young_classical_has_double_period():
    # At a quarter of the classical period the pair fringe is dark again
    # while the classical fringe sits at half intensity.
    x = YP.f * WL / (8 * YP.x1)
    assert young_two_photon(x, YP) == pytest.approx(0.0, abs=1e-12)
    assert young_classical(x, YP) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------- focal spots

def test_spot_lateral_normalization_and_parity():
    assert spot_lateral(0.0, FP, "two_photon") == 1.0
    assert spot_lateral(0.0, FP, "classical") == 1.0
    r = np.linspace(-5e-6, 5e-6, 101)
    np.testing.assert_allclose(spot_lateral(r, FP, "two_photon"),
                               spot_lateral(-r, FP, "two_photon"), rtol=1e-14)


def test_spot_lateral_fwhm_values():
    r = np.linspace(-6e-6, 6e-6, 4001)
    w2 = fwhm(r, spot_lateral(r, FP, "two_photon"))
    wc = fwhm(r, spot_lateral(r, FP, "classical"))
    expected2 = SOMB_SQ_HALF * FP.f * WL / (np.pi * FP.D)
    assert w2 == pytest.approx(expected2, rel=1e-4)
    assert w2 == pytest.approx(1.5800e-6, rel=5e-4)
    assert wc == pytest.approx(3.1599e-6, rel=5e-4)
    assert w2 / wc == pytest.approx(0.5, abs=1e-3)


def test_spot_axial_peak_and_domain():
    assert spot_axial(0.0, FP, "two_photon") == pytest.approx(FP.f**4, rel=1e-12)
    with pytest.raises(DomainError):
        spot_axial(FP.f, FP, "two_photon")
    with pytest.raises(DomainError):
        spot_axial(-2 * FP.f, FP, "classical")


def test_spot_axial_fwhm_values():
    z = np.linspace(-120e-6, 120e-6, 6001)
    w2 = fwhm(z, spot_axial(z, FP, "two_photon"))
    wc = fwhm(z, spot_axial(z, FP, "classical"))
    assert w2 / wc == pytest.approx(0.5, abs=1e-2)
    # With the (f+z0)^4 tilt divided out the width is set by the sinc alone.
    tilt = (FP.f + z) ** 4 / FP.f**4
    w2_flat = fwhm(z, spot_axial(z, FP, "two_photon") / tilt)
    expected = 8 * SINC_SQ_HALF * FP.f**2 * WL / (np.pi * FP.D**2)
    assert w2_flat == pytest.approx(expected, rel=1e-4)
    assert w2_flat == pytest.approx(42.84e-6, rel=1e-3)


def test_spot_kind_validated():
    with pytest.raises(ConfigurationError):
        spot_lateral(0.0, FP, "quantum")
    with pytest.raises(ConfigurationError):
        spot_axial(0.0, FP, "both")


def test_params_validated():
    with pytest.raises(ConfigurationError):
        YoungParams(x1=0.0, f=1.0, wavelength=WL)
    with pytest.raises(ConfigurationError):
        FocusParams(D=1.0, f=-1.0, wavelength=WL)


# ---------------------------------------------------------------- disk transform

def test_disk_transform_at_origin():
    assert uniform_disk_transform(0.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(1e-3, 12.0))
def test_disk_transform_pure_bessel(beta):
    # c = 0: J = 2 J1(beta)/beta for unit radius. The alternating series
    # oracle cancels catastrophically beyond beta ~ 12, hence the cap.
    val = uniform_disk_transform(beta, 0.0, 1.0)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(2 * j1_series(beta) / beta, rel=1e-9, abs=5e-11)


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(-30.0, 30.0))
def test_disk_transform_pure_chirp(gamma):
    # b = 0: J = exp(-i gamma/2) sinc(gamma/2) for unit radius.
    val = uniform_disk_transform(0.0, gamma, 1.0)
    expected = np.exp(-0.5j * gamma) * sinc(gamma / 2)
    assert val == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_disk_transform_non_convergence():
    with pytest.raises(QuadratureError):
        uniform_disk_transform(0.0, 1e9, 1.0)


def test_spot_offaxis_matches_riemann_oracle_on_lattice():
    # 5x5 (r0, z0) lattice against the no-Bessel polar Riemann sum.
    r0s = np.array([0.0, 0.8, 1.6, 2.4, 3.2]) * 1e-6
    z0s = np.array([-40.0, -20.0, 0.0, 20.0, 40.0]) * 1e-6
    got = np.empty((5, 5))
    ref = np.empty((5, 5))
    for i, r0 in enumerate(r0s):
        for j, z0 in enumerate(z0s):
            got[i, j] = spot_offaxis_two_photon(r0, z0, FP)
            b = 4 * np.pi * r0 / (FP.f * WL)
            c = 2 * np.pi * z0 / (FP.f**2 * WL)
            ref[i, j] = (FP.f + z0) ** 4 * abs(disk_transform_oracle(b, c, FP.D / 2)) ** 2
    assert np.max(np.abs(got - ref)) <= 1e-6 * ref.max()


def test_spot_offaxis_reduces_on_axes():
    for z0 in (-30e-6, 15e-6, 40e-6):
        assert spot_offaxis_two_photon(0.0, z0, FP) == pytest.approx(
            spot_axial(z0, FP, "two_photon"), rel=1e-8)
    for r0 in (0.5e-6, 1.3e-6, 2.9e-6):
        assert spot_offaxis_two_photon(r0, 0.0, FP) == pytest.approx(
            FP.f**4 * spot_lateral(r0, FP, "two_photon"), rel=1e-8)


def test_spot_offaxis_domain():
    with pytest.raises(DomainError):
        spot_offaxis_two_photon(0.0, FP.f, FP)
    with pytest.raises(DomainError):
        spot_offaxis_two_photon(np.zeros(3), np.array([0.0, 1e-5, -FP.f]), FP)
    with pytest.raises(ShapeError):
        spot_offaxis_two_photon(np.zeros(3), np.zeros(2), FP)


# Table oracle: z0 of +-45 mm and 20 mm need 1024-4096 panels, the rest 512.
DEEP_R0 = np.array([0.0, 0.8, -0.8, 2.4, 30.0]) * 1e-6
DEEP_Z0 = np.array([-45e-3, -20e-6, 0.0, 40e-6, 20e-3, 45e-3])


def looped_spot(r0s, z0s):
    """spot_offaxis_two_photon point by point through the scalar transform."""
    return np.array([(FP.f + z0) ** 4 * abs(uniform_disk_transform(
        4 * np.pi * abs(r0) / (FP.f * WL), 2 * np.pi * z0 / (FP.f**2 * WL), FP.D / 2)) ** 2
        for r0, z0 in zip(r0s, z0s)])


def test_disk_table_matches_looped_scalar_transform(monkeypatch):
    b = 4 * np.pi * np.abs(DEEP_R0) / (FP.f * WL)
    c = 2 * np.pi * DEEP_Z0 / (FP.f**2 * WL)
    R = FP.D / 2
    with monkeypatch.context() as m, pytest.raises(QuadratureError):
        m.setattr(analytic, "MAX_PANELS", 512)  # the lattice reaches past 512 panels
        uniform_disk_transform(b[0], c[-1], R)
    table = disk_transform_table(b, c, R)
    ref = np.array([[uniform_disk_transform(bi, ck, R) for ck in c] for bi in b])
    assert table.shape == (b.size, c.size)
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("r0s,z0s", [
    tuple(np.meshgrid(DEEP_R0, DEEP_Z0, indexing="ij")),          # lattice
    (np.linspace(-3e-6, 3e-6, 13), np.full(13, 30e-6)),          # r0 cut
    (np.zeros(9), np.linspace(-45e-3, 45e-3, 9)),                # z0 cut
])
def test_spot_offaxis_arrays_match_looped_scalar_path(r0s, z0s):
    got = spot_offaxis_two_photon(r0s, z0s, FP)
    ref = looped_spot(r0s.ravel(), z0s.ravel()).reshape(r0s.shape)
    assert got.shape == r0s.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * ref.max()


def test_spot_offaxis_even_in_r0_and_scalar_in_scalar_out():
    r0s = np.array([0.8e-6, -0.8e-6, 2.4e-6, -2.4e-6])
    got = spot_offaxis_two_photon(r0s, np.full(4, 30e-6), FP)
    assert got[0] == got[1] and got[2] == got[3]
    one = spot_offaxis_two_photon(-2.4e-6, 30e-6, FP)
    assert isinstance(one, float)
    assert abs(one - got[2]) <= 1e-12 * got[2]


def test_disk_table_refuses_a_phase_past_its_rounding_bound():
    # the float rounding of a 1e9 rad phase alone passes 1e-9 rad
    with pytest.raises(QuadratureError, match=r"phase \|c\|\*R\^2 = 1e\+09"):
        disk_transform_table([0.0, 1.0], [0.0, 1e9], 1.0)
    assert disk_transform_table([0.0], [2e6, -2e6], 1.0).shape == (1, 2)


def test_disk_table_refuses_orders_past_its_cap():
    # the shipped focus optics admit |r0| up to 48.3 mm: 48 mm needs Bessel
    # orders to 99425 of the 100000 cap, 49 mm to 101479
    with pytest.raises(QuadratureError, match="past its cap 100000"):
        spot_offaxis_two_photon(np.array([0.0, 0.049]), np.zeros(2), FP)
    assert spot_offaxis_two_photon(0.048, 0.0, FP) >= 0


def table_error(b, c, R=1.0):
    """Largest |table - looped scalar oracle| over the (b, c) table."""
    ref = np.array([[uniform_disk_transform(bi, ck, R) for ck in c] for bi in b])
    return np.max(np.abs(disk_transform_table(b, c, R) - ref))


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.0, 200.0), gamma=st.floats(-200.0, 200.0))
def test_disk_table_matches_scalar_oracle_at_random_arguments(beta, gamma):
    assert table_error([beta], [gamma]) <= 1e-12


@pytest.mark.parametrize("beta", [1e-6, 0.5, 3.0, 17.0, 150.0])
def test_disk_table_is_continuous_across_the_lommel_switch(beta):
    # |u| = v is where the table turns from the U sums to the V sums
    g = beta / 2 * (1 + np.array([-1e-12, 0.0, 1e-12]))
    assert table_error([beta], np.concatenate([g, -g])) <= 1e-12


def test_disk_table_limits_at_zero_b_and_zero_c():
    b = np.array([0.0, 1e-300, 1e-9, 0.7, 40.0])
    c = np.array([0.0, 1e-300, -2 * np.pi, 3.0, -90.0])
    assert table_error(b, c) <= 1e-15
    J = disk_transform_table(b, c, 1.0)
    assert abs(J[0, 0] - 1) <= 1e-15
    np.testing.assert_allclose(J[0], np.exp(-0.5j * c) * sinc(c / 2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(J[:, 0], 2 * somb(b), rtol=0, atol=1e-15)


def test_disk_table_at_tiny_chirp_keeps_J_and_its_square():
    # v <= |u|, on the V side: U2 = V0 - cos theta would cancel to eps/|u|
    # absolute if taken as written
    for gamma in (1e-5, -1e-7, 1e-9, 1e-12):
        b = np.array([0.0, abs(gamma), 2 * abs(gamma)])
        ref = np.array([uniform_disk_transform(bi, gamma, 1.0) for bi in b])
        got = disk_transform_table(b, [gamma], 1.0)[:, 0]
        assert np.max(np.abs(got - ref)) <= 1e-15
        np.testing.assert_allclose(np.abs(got) ** 2, np.abs(ref) ** 2, rtol=1e-15)


def test_disk_table_miller_start_grows_with_the_cube_root_of_b(monkeypatch):
    c = [-2600.0, -7.0, 0.0, 1.0, 2400.0]
    assert table_error([5000.0], c) <= 1e-12
    series = analytic._lommel_sums
    monkeypatch.setattr(analytic, "_lommel_sums",
                        lambda x, m, order: series(x, m, int(np.ceil(x.max())) + 60))
    assert table_error([5000.0], c) > 1e-10          # a b*R + 60 start misses


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("b,c,R", [
    (1e300, 0.0, 1e10),      # b R overflows
    (0.0, 1.0, 1e300),       # c R^2 overflows
    (np.inf, 0.0, 1.0),
    (0.0, np.nan, 1.0),
])
def test_disk_transform_refuses_non_finite_arguments_before_any_panel(monkeypatch, b, c, R):
    # The scalar and the table keep one rule: no panel and no series term runs.
    def no_panel(*args):
        raise AssertionError("a quadrature panel or series term ran")

    monkeypatch.setattr(analytic, "j0", no_panel)
    monkeypatch.setattr(analytic, "_lommel_sums", no_panel)
    with pytest.raises(NonFiniteError, match=r"b\*R, c\*R\^2"):
        uniform_disk_transform(np.float64(b), np.float64(c), R)
    with pytest.raises(NonFiniteError, match=r"b\*R, c\*R\^2"):
        disk_transform_table([0.0, b], [c, 0.0], R)


# ---------------------------------------------------------------- width estimate

def test_fwhm_gaussian_closed_form():
    sigma = 1.3
    x = np.linspace(-6, 6, 1201) * sigma
    intensity = np.exp(-(x / sigma) ** 2)  # amplitude width sqrt(2) sigma
    assert fwhm(x, intensity) == pytest.approx(2 * sigma * np.sqrt(np.log(2)),
                                               rel=1e-4)


def test_fwhm_sampled_somb_squared():
    x = np.linspace(-6, 6, 2401)
    assert fwhm(x, somb(x) ** 2) == pytest.approx(2 * SOMB_SQ_HALF, rel=1e-4)
    assert fwhm(x, somb(x) ** 2) == pytest.approx(3.2327, abs=1e-3)


def test_fwhm_monotone_curve_rejected():
    x = np.linspace(0, 1, 50)
    with pytest.raises(ShapeError):
        fwhm(x, x**2)


def test_fwhm_bad_inputs():
    with pytest.raises(ShapeError):
        fwhm([0, 1], [1, 2])
    with pytest.raises(ShapeError):
        fwhm([0, 1, 1], [0, 1, 0])
    with pytest.raises(ShapeError):
        fwhm([0, 1, 2], [0, np.nan, 0])


def test_fwhm_is_exact_on_triangle():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    assert fwhm(x, y) == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------- staged fields

def test_young_stage_source_and_plane_wave():
    s0 = young_stage_field(0, 0.0, 7e-6, YP, 0.7, 1.1)
    assert s0 == DeltaComb((7e-6,), (1 + 0j,))
    for x in (0.0, 3e-4, -2e-4):
        s1 = young_stage_field(1, x, 7e-6, YP, 0.7, 1.1)
        assert abs(s1) == pytest.approx(1.0, rel=1e-12)
        assert s1 == pytest.approx(np.exp(-2j * np.pi * 7e-6 * x / (YP.f * WL)))


def test_young_stage_slits_and_images():
    x0 = 11e-6
    theta = 2 * np.pi * x0 * YP.x1 / (YP.f * WL)
    s2 = young_stage_field(2, 0.0, x0, YP, 0.7, 1.1)
    assert s2.locations == (YP.x1, -YP.x1)
    assert s2.weights[0] == pytest.approx(np.exp(-1j * theta))
    assert s2.weights[1] == pytest.approx(np.exp(1j * theta))
    s3 = young_stage_field(3, 0.0, x0, YP, 0.7, 1.1)
    assert s3.locations == (-YP.x1 * YP.f / 0.7, YP.x1 * YP.f / 0.7)
    s4 = young_stage_field(4, 0.0, x0, YP, 0.7, 1.1)
    assert s4.locations == s3.locations
    for w4, w3 in zip(s4.weights, s3.weights):
        assert w4 == pytest.approx(w3**2, rel=1e-12)


def test_young_stage_five_reproduces_fringe():
    x0 = np.linspace(-30e-6, 30e-6, 41)
    vals = np.array([abs(young_stage_field(5, 0.0, x, YP, 0.7, 1.1)) ** 2
                     for x in x0])
    np.testing.assert_allclose(vals, 4 * young_two_photon(x0, YP), atol=1e-9)


def test_focus_stage_aperture_mask():
    r0 = (0.5e-6, -0.3e-6)
    inside = (1e-3, 2e-3)
    outside = (5e-3, 5e-3)
    s1_in = focus_stage_field(1, inside, r0, 10e-6, FP, 0.7, 1.1)
    s2_in = focus_stage_field(2, inside, r0, 10e-6, FP, 0.7, 1.1)
    assert s2_in == s1_in
    assert focus_stage_field(2, outside, r0, 10e-6, FP, 0.7, 1.1) == 0j
    assert abs(focus_stage_field(1, outside, r0, 10e-6, FP, 0.7, 1.1)) > 0


def test_focus_stage_shg_doubles_chirp_phase():
    r = (1e-5, 0.0)
    z0 = 5e-6
    s3 = focus_stage_field(3, r, (0.0, 0.0), z0, FP, 0.7, 1.1)
    s4 = focus_stage_field(4, r, (0.0, 0.0), z0, FP, 0.7, 1.1)
    assert np.angle(s4) == pytest.approx(2 * np.angle(s3), rel=1e-9)
    assert abs(s4) == pytest.approx(abs(s3) ** 2, rel=1e-12)


def test_focus_stage_five_tracks_offaxis_spot():
    # |stage 5 at r=0|^2 equals the detection law up to one global constant.
    pts = [(0.0, 0.0), (0.8e-6, 0.0), (1.6e-6, -20e-6),
           (0.0, 25e-6), (2.4e-6, 10e-6), (3.2e-6, -40e-6)]
    ratios = []
    for r0x, z0 in pts:
        e5 = focus_stage_field(5, (0.0, 0.0), (r0x, 0.0), z0, FP, 0.7, 1.1)
        spot = spot_offaxis_two_photon(r0x, z0, FP)
        ratios.append(abs(e5) ** 2 / spot)
    ratios = np.array(ratios)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-8)


def test_stage_validation():
    with pytest.raises(ConfigurationError):
        young_stage_field(6, 0.0, 0.0, YP, 0.7, 1.1)
    with pytest.raises(ConfigurationError):
        young_stage_field(2, 0.0, 0.0, YP, -0.7, 1.1)
    with pytest.raises(DomainError):
        focus_stage_field(1, (0.0, 0.0), (0.0, 0.0), FP.f, FP, 0.7, 1.1)
    with pytest.raises(ConfigurationError):
        DeltaComb((1.0, 2.0), (1 + 0j,))
