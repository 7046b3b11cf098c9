"""Acceptance gate: one test per release criterion, tolerances pinned.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion. Each test also prints its measured numbers (visible with -rA
or on failure).
"""
import numpy as np
import pytest

from biphoton.analytic import (
    FocusParams,
    YoungParams,
    fwhm,
    spot_axial,
    spot_lateral,
    spot_offaxis_two_photon,
)
from biphoton.cli import run as run_experiment
from biphoton.config import load_config
from biphoton.elements import (
    DoubleSlit,
    FourierLens,
    reversed_focus_train,
    reversed_young_train,
    run_train,
)
from biphoton.forward import (
    forward_vs_reversed_young,
    forward_young,
)
from biphoton.grid import Grid1D, Grid2D, SampledField, point_source
from biphoton.modes import time_reversal_audit
from biphoton.oracles import (
    FinalMode,
    focus_stage_field,
    forward_prob_general,
    forward_prob_single,
    norm_factor,
    random_coeff,
    random_mode,
    young_stage_field,
)

WL = 7.8e-7
F = 0.05
D = 0.0127


def mean_peak_spacing(grid, curve):
    inner = curve[1:-1]
    peaks = np.flatnonzero((inner >= curve[:-2]) & (inner >= curve[2:])) + 1
    return float(np.mean(np.diff(peaks))) * grid.dx


def test_criterion_1_fringe_period_halving():
    # Simulated pair-fringe period f wl / (4 x1), classical f wl / (2 x1);
    # ratio pinned to 0.500 +- 0.005 over 3 random parameter sets.
    rng = np.random.default_rng(20240825)
    ratios = []
    for _ in range(3):
        n, dx = 512, 1e-5
        g = Grid1D(n, dx)
        f = rng.uniform(0.03, 0.08)
        wl = rng.uniform(5e-7, 9e-7)
        x1 = int(rng.integers(8, 17)) * dx
        p = YoungParams(x1=x1, f=f, wavelength=wl)
        det, pair = forward_young(p, g)
        period_pair = mean_peak_spacing(det, pair)
        plane = SampledField(g, wl, np.ones(n))
        classical = FourierLens(f).apply(DoubleSlit(x1).apply(plane))
        period_classical = mean_peak_spacing(classical.grid,
                                             np.abs(classical.amp) ** 2)
        assert abs(period_pair - f * wl / (4 * x1)) < det.dx
        assert abs(period_classical - f * wl / (2 * x1)) < det.dx
        ratios.append(period_pair / period_classical)
    assert all(abs(r - 0.5) <= 0.005 for r in ratios)
    print(f"criterion 1: period ratios {[f'{r:.4f}' for r in ratios]}")


def test_criterion_2_forward_reversed_equivalence():
    # Max relative deviation <= 1e-6 on an n=1024 grid, delta and 4-cell slits.
    p = YoungParams(x1=5e-4, f=F, wavelength=WL)
    g = Grid1D(1024, 2e-5)
    delta = forward_vs_reversed_young(p, g)
    finite = forward_vs_reversed_young(p, g, slit_width=4 * g.dx)
    assert delta.max_rel_err <= 1e-6
    assert finite.max_rel_err <= 1e-6
    print(f"criterion 2: deviations {delta.max_rel_err:.3e} (delta slits), "
          f"{finite.max_rel_err:.3e} (4-cell slits)")


def test_criterion_3_lateral_spot_widths():
    # FWHM = 1.62 wl f / (pi D) pair and 3.23 wl f / (pi D) classical, 0.5%.
    p = FocusParams(D=D, f=F, wavelength=WL)
    r = np.linspace(-3e-6, 3e-6, 4001)
    got_pair = fwhm(r, spot_lateral(r, p, "two_photon"))
    got_classical = fwhm(r, spot_lateral(r, p, "classical"))
    want_pair = 1.62 * WL * F / (np.pi * D)
    want_classical = 3.23 * WL * F / (np.pi * D)
    assert got_pair == pytest.approx(want_pair, rel=5e-3)
    assert got_classical == pytest.approx(want_classical, rel=5e-3)
    print(f"criterion 3: lateral FWHM {got_pair * 1e6:.3f} um pair, "
          f"{got_classical * 1e6:.3f} um classical")


def test_criterion_4_axial_spot_width():
    # Pair axial FWHM = 11.1 wl f^2 / (pi D^2) within 1%, obliquity factor
    # (f+z0)^4 frozen to f^4.
    p = FocusParams(D=D, f=F, wavelength=WL)
    z = np.linspace(-6e-5, 6e-5, 4001)
    vals = np.array([spot_axial(zi, p, "two_photon") * (F / (F + zi)) ** 4
                     for zi in z])
    got = fwhm(z, vals)
    want = 11.1 * WL * F**2 / (np.pi * D**2)
    assert got == pytest.approx(want, rel=1e-2)
    print(f"criterion 4: axial FWHM {got * 1e6:.2f} um (target {want * 1e6:.2f})")


def disk_riemann(b, c, R, n_rho=16384, n_phi=256):
    # midpoint polar Riemann sum of (2/R^2) int rho J0(b rho) e^{-i c rho^2}
    rho = (np.arange(n_rho) + 0.5) * (R / n_rho)
    phi = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
    ang = np.exp(-1j * np.outer(b * rho, np.cos(phi))).mean(axis=1)
    return (2 / R**2) * np.sum(rho * np.exp(-1j * c * rho**2) * ang) * (R / n_rho)


def test_criterion_5_offaxis_quadrature_vs_riemann():
    # Radial quadrature matches the brute-force disk sum to 1e-6 of the
    # lattice peak on a 5 x 5 (r0, z0) lattice.
    p = FocusParams(D=D, f=F, wavelength=WL)
    r0s = np.array([0.0, 0.8, 1.6, 2.4, 3.2]) * 1e-6
    z0s = np.array([-40.0, -20.0, 0.0, 20.0, 40.0]) * 1e-6
    got = np.empty((5, 5))
    want = np.empty((5, 5))
    for i, r0 in enumerate(r0s):
        for j, z0 in enumerate(z0s):
            got[i, j] = spot_offaxis_two_photon(r0, z0, p)
            b = 4 * np.pi * r0 / (F * WL)
            c = 2 * np.pi * z0 / (F**2 * WL)
            want[i, j] = (F + z0) ** 4 * abs(disk_riemann(b, c, D / 2)) ** 2
    dev = np.abs(got - want).max() / want.max()
    assert dev <= 1e-6
    print(f"criterion 5: quadrature vs Riemann deviation {dev:.3e}")


def test_criterion_6_staged_chain_equivalence():
    # Numerically run pinhole trains match the closed-form stage-5 fields
    # to 1e-3 of the sweep peak across 11 source positions.
    L1, L2 = 0.25, 0.5

    yp = YoungParams(x1=5e-4, f=F, wavelength=WL)
    det = Grid1D(512, F * WL / (512 * 1e-5))
    train = reversed_young_train(yp.f, yp.x1, L1, L2)
    x0s = np.arange(-5, 6) * det.dx
    got = np.array([run_train(point_source(det, x0, 1.0, WL), train)
                    for x0 in x0s])
    want = np.array([abs(young_stage_field(5, 0.0, x0, yp, L1, L2)) ** 2
                     for x0 in x0s])
    dev_young = np.abs(got / got.max() - want / want.max()).max()
    assert dev_young <= 1e-3

    fp = FocusParams(D=D, f=F, wavelength=WL)
    z0 = 2e-5
    g2 = Grid2D(1024, 1024, 1e-6, 1e-6)
    train = reversed_focus_train(fp.f, fp.D, z0, L1, L2)
    r0s = np.arange(-5, 6) * 1e-6
    got = np.array([run_train(point_source(g2, (r0, 0.0), 1.0, WL), train)
                    for r0 in r0s])
    want = np.array([
        abs(focus_stage_field(5, (0.0, 0.0), (r0, 0.0), z0, fp, L1, L2)) ** 2
        for r0 in r0s])
    dev_focus = np.abs(got / got.max() - want / want.max()).max()
    assert dev_focus <= 1e-3
    print(f"criterion 6: chain deviations {dev_young:.3e} (fringe), "
          f"{dev_focus:.3e} (focus)")


def test_criterion_7_mode_space_audit():
    # Randomized proportionality audit at N=16, 1000 trials, <= 1e-9; the
    # two-mode probability reduces to the single-mode one at 1e-12.
    report = time_reversal_audit(16, trials=1000, seed=20240825)
    assert report.max_ratio_dev <= 1e-9
    for seed in range(20):
        fc = random_coeff(6, seed)
        s = seed % 6
        e = np.zeros(6)
        e[s] = 1.0
        mode = FinalMode(e)
        assert forward_prob_general(fc, mode, mode) == pytest.approx(
            forward_prob_single(fc, s), rel=1e-12, abs=1e-15)
    print(f"criterion 7: audit max ratio deviation {report.max_ratio_dev:.3e}")


def test_criterion_8_mixture_vs_density_matrix():
    # Weighted pure-case sums equal the density-matrix trace to 1e-12
    # relative, on random 3-component mixtures.
    def fock_vector(c):
        n = c.shape[0]
        out = []
        for a in range(n):
            for b in range(a, n):
                out.append(np.sqrt(2) * c[a, a] if a == b else c[a, b] + c[b, a])
        return np.array(out)

    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 4
        fc = random_coeff(n, 3000 + seed)
        w = rng.random(3)
        w /= w.sum()
        cases = []
        rho_final = np.zeros((n * (n + 1) // 2,) * 2, dtype=complex)
        for wi in w:
            f1 = random_mode(n, int(rng.integers(2**32)))
            f2 = random_mode(n, int(rng.integers(2**32)))
            cases.append((wi, (f1, f2)))
            v = fock_vector(norm_factor(f1, f2) * np.outer(f1.psi, f2.psi))
            rho_final += wi * np.outer(v, v.conj())
        v_pair = fock_vector(fc.f)
        want = float(np.trace(rho_final @ np.outer(v_pair, v_pair.conj())).real)
        got = sum(wi * forward_prob_general(fc, f1, f2) for wi, (f1, f2) in cases)
        worst = max(worst, abs(got - want) / want)
        assert got == pytest.approx(want, rel=1e-12)
    print(f"criterion 8: worst mixture deviation {worst:.3e}")


def test_criterion_9_csv_determinism(tmp_path, monkeypatch):
    # Identical config + seed produce byte-identical CSV output.
    from pathlib import Path

    monkeypatch.chdir(tmp_path)
    cfg = load_config(str(Path(__file__).resolve().parents[1]
                          / "configs" / "young_compare.json"))
    run_experiment(cfg, out=str(tmp_path / "a.csv"))
    run_experiment(cfg, out=str(tmp_path / "b.csv"))
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a.startswith(b"x0_m,")
    print(f"criterion 9: {len(a)} identical bytes across runs")
