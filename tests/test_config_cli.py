"""Config validation, CSV/JSON emission, exit codes, determinism."""
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import biphoton.cli as cli
import biphoton.config as config
import biphoton.forward as forward
import biphoton.modes as modes
from biphoton.analytic import FocusParams, YoungParams, young_two_photon
from biphoton.cli import FOCUS_COMPARE_TOL, YOUNG_COMPARE_TOL, exit_code, main, run
from biphoton.config import (
    AUDIT_CHUNK,
    MAX_ARRAY_BYTES,
    ExperimentConfig,
    SweepSpec,
    _largest_array_bytes,
    audit_array_bytes,
    audit_chunk_trials,
    load_config,
    validate,
)
from biphoton.elements import DoubleSlit, _relay_grid, reversed_focus_train, run_train_batch
from biphoton.errors import (
    ConfigurationError,
    DomainError,
    QuadratureError,
    SamplingError,
)
from biphoton.forward import forward_vs_reversed_young
from biphoton.grid import Grid1D, Grid2D
from biphoton.modes import AuditReport

WL = 7.8e-7
F = 0.05
D = 0.0127


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def young_doc(mode="analytic", **overrides):
    doc = {
        "experiment": "young",
        "mode": mode,
        "wavelength": WL,
        "f": F,
        "x1": 2.5e-4,
        "L1": 0.25,
        "L2": 0.5,
        "sweep": {"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 21},
        "grid": {"n": 512, "dx": 2e-5},
    }
    doc.update(overrides)
    return doc


def focus_doc(mode="analytic", **overrides):
    doc = {
        "experiment": "focus",
        "mode": mode,
        "wavelength": WL,
        "f": F,
        "D": D,
        "sweep": {"axis": "r0", "start": -4e-6, "stop": 4e-6, "count": 5},
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------ config


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path, "a.json", young_doc("compare")))
    assert cfg.experiment == "young" and cfg.mode == "compare"
    assert cfg.x1 == 2.5e-4 and cfg.grid.n == 512
    assert cfg.sweep.count == 21 and cfg.sweep.second is None
    assert validate(cfg) == []


def test_load_config_rejects_unknown_key(tmp_path):
    doc = young_doc()
    doc["slit_separation"] = 1e-3
    with pytest.raises(ConfigurationError, match="slit_separation"):
        load_config(write_config(tmp_path, "a.json", doc))


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config("/nonexistent/nowhere.json")


@pytest.mark.parametrize("doc,needle", [
    (focus_doc(D=-1.0), "D"),
    (young_doc(sweep={"axis": "x0", "start": 0, "stop": 1e-5, "count": 1}),
     "sweep.count"),
    (young_doc(experiment="slit"), "experiment"),
    (young_doc(mode="sideways"), "mode"),
    (young_doc(sweep={"axis": "x0", "start": -1e-5, "stop": 1e-5, "count": 4,
                      "second": {"axis": "x0", "start": 0, "stop": 1, "count": 3}}),
     "one-dimensional"),
    (focus_doc(mode="forward", grid={"n": 64, "dx": 1e-6}), "mode"),
    ({"experiment": "modes-audit", "mode": "forward"}, "audit"),
    (focus_doc(z0=0.06), "z0"),
    (young_doc(mode="reversed"), "grid"),
    (young_doc(x1=None), "x1"),
    (focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 65536, "dx": 1e-6}), "grid.n"),
    # two 2501-sample slits relayed on 65536 rows: 4.9 GiB
    (young_doc("compare", x1=0.1, slit_width=0.05, grid={"n": 65536, "dx": 2e-5}),
     "grid.n"),
])
def test_validate_flags_field(doc, needle):
    doc = dict(doc)
    if doc.get("mode") == "reversed":
        doc.pop("grid", None)  # provoke the missing-grid diagnostic
    diags = validate(ExperimentConfig.from_dict(doc))
    assert any(needle in d for d in diags), diags


def test_validate_ok_is_empty():
    assert validate(ExperimentConfig.from_dict(focus_doc())) == []
    # a forward young sweep holds one row per point, not the n x n pair state
    big_n = young_doc("forward", grid={"n": 65536, "dx": 2e-5})
    assert validate(ExperimentConfig.from_dict(big_n)) == []


def test_validate_bounds_young_compare_by_the_kept_slit_columns():
    # a delta-slit compare relays an n x 2 column pair and blocks of at most
    # 128 x n, not the n x n pair state
    delta = young_doc("compare", grid={"n": 32768, "dx": 2e-5})
    assert validate(ExperimentConfig.from_dict(delta)) == []
    assert _largest_array_bytes(ExperimentConfig.from_dict(delta)) == 16 * 32768 * 21
    # the bound holds the mask's count, by at most 2 per slit, and n (the
    # last grid's slits run past its edges)
    for n, dx, x1, width in [(512, 2e-5, 2.5e-4, 8e-5), (512, 2e-5, 2.5e-4, 8e-5 - 1e-20),
                             (600, 3e-6, 4e-5, 3e-5), (64, 1e-5, 2e-4, 3e-4)]:
        doc = young_doc("compare", x1=x1, slit_width=width, grid={"n": n, "dx": dx},
                        sweep={"axis": "x0", "start": -1e-9, "stop": 1e-9, "count": 2})
        kept = DoubleSlit(x1, width).mask(Grid1D(n, dx)).sum()
        bound = _largest_array_bytes(ExperimentConfig.from_dict(doc)) / (16 * n)
        assert kept <= bound <= (n if n == 64 else kept + 4)


def test_wide_slit_forward_sweep_peaks_under_the_validate_bound():
    # 4 mm slits keep 402 of 512 samples; the 2000-row forward column used
    # to build its 2000 x 402 kernel rows at once and peaked at 25.6 MB,
    # above the 16.4 MB validate allows; it now sums them in blocks
    doc = young_doc("forward", x1=2.5e-3, slit_width=4e-3,
                    sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 2000})
    cfg = ExperimentConfig.from_dict(doc)
    assert validate(cfg) == []
    p = YoungParams(x1=cfg.x1, f=cfg.f, wavelength=cfg.wavelength)
    grid = Grid1D(cfg.grid.n, cfg.grid.dx)
    x = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    forward.young_coincidence_at(p, grid, x, cfg.slit_width)  # warm-up
    tracemalloc.start()
    try:
        forward.young_coincidence_at(p, grid, x, cfg.slit_width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _largest_array_bytes(cfg)


@pytest.mark.parametrize("mode", ["reversed", "compare"])
def test_young_sweep_from_the_lower_cell_edge_runs(tmp_path, capsys, mode):
    # contains() admits the lower outer cell edge of the detection grid, and
    # index_of's ties round toward -inf, so the edge snapped to sample -1:
    # validate printed ok and the run exited 2 with "source indices must be
    # a 1-D list within [0, 512)"; the edge is sample 0
    doc = young_doc(mode)
    p = YoungParams(x1=doc["x1"], f=F, wavelength=WL)
    det, _, _ = forward.snap_young_sweep(p, Grid1D(512, 2e-5), [0.0])
    lo = float(det.coords[0] - det.dx / 2)
    assert det.index_of(lo) == 0 and det.snap([lo], "p", "g")[0].tolist() == [0]
    doc["sweep"] = {"axis": "x0", "start": lo, "stop": 0.0, "count": 21}
    cfg = ExperimentConfig.from_dict(doc)
    assert validate(cfg) == []
    summary = run(cfg, out=str(tmp_path / "edge.csv"))
    capsys.readouterr()
    assert summary["n_rows"] == 21
    assert summary.get("passed", True) is True


@pytest.mark.parametrize("mode", ["reversed", "compare"])
def test_validate_flags_young_sweep_end_off_the_detection_grid(mode):
    # validate snaps the ends as the run does: the outer cell edges of the
    # detection grid pass, the next floats beyond them are flagged
    doc = young_doc(mode)
    p = YoungParams(x1=doc["x1"], f=F, wavelength=WL)
    det, _, _ = forward.snap_young_sweep(p, Grid1D(512, 2e-5), [0.0])
    lo = float(det.coords[0] - det.dx / 2)
    hi = float(det.coords[-1] + det.dx / 2)
    for start, stop, bad in [(lo, hi, None), (np.nextafter(lo, -1.0), hi, "start"),
                             (lo, np.nextafter(hi, 1.0), "stop")]:
        doc["sweep"] = {"axis": "x0", "start": float(start), "stop": float(stop),
                        "count": 21}
        diags = validate(ExperimentConfig.from_dict(doc))
        if bad is None:
            assert diags == []
        else:
            value = float(start if bad == "start" else stop)
            assert diags == [f"sweep: sweep point {value!r} m is outside the "
                             "reversed-train source grid (half-width 9.750e-04 m)"]
    doc["mode"] = "analytic"  # reads no detection sample
    assert validate(ExperimentConfig.from_dict(doc)) == []


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("mode", ["reversed", "compare"])
def test_main_young_sweep_off_the_detection_grid_exits_2(tmp_path, monkeypatch, capsys,
                                                         command, mode):
    # a compare used to run such a sweep; a reversed run found it while running
    monkeypatch.chdir(tmp_path)
    doc = young_doc(mode, sweep={"axis": "x0", "start": -4e-5, "stop": 1e-3, "count": 21})
    path = write_config(tmp_path, "off.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert "sweep point 0.001 m is outside" in out.out + out.err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_young_compare_on_one_detection_sample_exits_2(tmp_path, monkeypatch, capsys,
                                                       command):
    # 21 points inside one 3.8 um detection cell: both sides would be 1.0
    # after peak normalization, so the deviation could not be anything but 0
    monkeypatch.chdir(tmp_path)
    doc = young_doc("compare", sweep={"axis": "x0", "start": -1e-7, "stop": 1e-7,
                                      "count": 21})
    path = write_config(tmp_path, "one.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert "snaps to 1 detection sample" in out.out + out.err
    assert not list(tmp_path.glob("*.csv"))
    doc["mode"] = "reversed"  # a constant reversed column is still a reading
    assert validate(ExperimentConfig.from_dict(doc)) == []


def shipped(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("change,message", [
    ({"slit_width": 1.2e-3}, "slit_width: slits overlap: x1=0.0005 <= slit_width/2=0.0006"),
    # the shipped grid spans 20.5 mm, so a slit at 20 mm lies off it
    ({"x1": 2e-2}, "x1: slit at 0.02 lies outside the grid"),
    # delta slits closer than dx/2 = 10 um to the axis both round to the
    # centre sample, so both sides read one slit: the compare used to pass
    # with a 0 deviation and a measured period of 1 um
    ({"x1": 8e-6}, "x1: delta slits at +-8e-06 m share one grid sample"),
    ({"x1": 9.999e-6}, "x1: delta slits at +-9.999e-06 m share one grid sample"),
])
def test_young_slits_the_run_cannot_build_exit_2(tmp_path, monkeypatch, capsys, command,
                                                 change, message):
    # validate builds the slit mask the run builds; it used to print ok for
    # both configs, which simulate then rejected
    monkeypatch.chdir(tmp_path)
    doc = dict(shipped("young_compare"), **change)
    path = write_config(tmp_path, "slits.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert message in out.out + out.err
    assert not list(tmp_path.glob("*.csv"))


def test_delta_slits_half_a_cell_off_axis_still_run(tmp_path, monkeypatch):
    # x1 = dx/2 puts the two delta slits on samples 511 and 512
    monkeypatch.chdir(tmp_path)
    doc = dict(shipped("young_compare"), x1=1e-5)
    assert main(["simulate", "--config", write_config(tmp_path, "half.json", doc)]) == 0
    summary = json.loads((tmp_path / "young_compare.summary.json").read_text())
    assert summary["passed"] is True


def test_young_compare_with_a_slit_edge_on_a_sample_passes(tmp_path, monkeypatch, capsys):
    # x1 = 5 cells and slit_width/2 = 2 cells put both edges of each slit on
    # samples. The reversed side masks the double relay of the grid, where dx
    # reads 1.3000000000000001e-05, so an exact edge test kept samples 3..7
    # on the forward side and 3..6 on the reversed one: the compare failed
    # with a deviation of 0.253
    monkeypatch.chdir(tmp_path)
    doc = dict(shipped("young_compare"), x1=6.5e-5, slit_width=5.2e-5,
               sweep={"axis": "x0", "start": -4.0e-4, "stop": 4.0e-4, "count": 81},
               grid={"n": 256, "dx": 1.3e-5})
    path = write_config(tmp_path, "edge.json", doc)
    assert main(["validate", "--config", path]) == 0
    assert main(["simulate", "--config", path]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "young_compare.summary.json").read_text())
    assert summary["passed"] is True and summary["max_deviation"] <= 1e-12


@pytest.mark.parametrize("n,dx,x1", [(868, 1.56e-5, 2.262e-4), (279, 3.5e-5, 2.975e-4),
                                      (737, 6.1e-6, 3.355e-5)])
def test_young_compare_with_delta_slits_at_a_half_cell_passes(n, dx, x1):
    # x1 is 14.5, 8.5 and 5.5 cells: each delta slit ties between two
    # samples, and the double relay's dx, an ulp off, used to break the tie
    # the other way on one slit, so the compare deviated by 0.98 to 1.0
    p = YoungParams(x1=x1, f=F, wavelength=WL)
    assert forward_vs_reversed_young(p, Grid1D(n, dx)).max_rel_err <= 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(8, 4096), dx=st.floats(1e-7, 1e-4),
       f=st.floats(1e-3, 1.0), wl=st.floats(2e-7, 2e-6))
def test_slit_mask_is_the_same_on_the_grid_and_its_double_relay(data, n, dx, f, wl):
    # A young compare masks the slits on the slit-plane grid (forward) and
    # on its relay's relay (reversed), whose dx can differ by an ulp. With
    # x1 and slit_width/2 whole or half cells, edges fall on samples and a
    # delta slit at a half cell ties between two; a shifted width puts the
    # edges off the samples. Delta slits stay inside the grid.
    if data.draw(st.booleans(), label="delta slits"):
        slit = DoubleSlit(data.draw(st.integers(1, n - 2), label="x1 in half cells") * dx / 2)
    else:
        half_cells = data.draw(st.integers(2, 2 * n), label="x1 in half cells")
        width_cells = data.draw(st.integers(1, half_cells - 1), label="width in cells")
        shift = data.draw(st.sampled_from([0.0, 0.3, -0.3]), label="width shift in cells")
        slit = DoubleSlit(half_cells * dx / 2, (width_cells + shift) * dx)
    grid = Grid1D(n, dx)
    relayed = _relay_grid(_relay_grid(grid, f, wl), f, wl)
    np.testing.assert_array_equal(slit.mask(grid), slit.mask(relayed))


def test_a_third_sweep_level_is_refused(tmp_path, monkeypatch, capsys):
    # the second sweep takes no second sweep of its own: it used to load,
    # validate and run, and the summary recorded a sweep that never ran
    monkeypatch.chdir(tmp_path)
    doc = shipped("focus_map_two_photon")
    doc["sweep"]["second"]["second"] = {"axis": "r0", "start": 0.0, "stop": 1e-6,
                                        "count": 3}
    path = write_config(tmp_path, "third.json", doc)
    with pytest.raises(ConfigurationError, match=r"sweep\.second: unknown keys \['second'\]"):
        load_config(path)
    for command in ("validate", "simulate"):
        assert main([command, "--config", path]) == 2
        out = capsys.readouterr()
        assert "sweep.second" in out.out + out.err
    assert [p.name for p in tmp_path.iterdir()] == ["third.json"]
    # a sweep built in code is held to the same rule
    doc = shipped("focus_map_two_photon")
    inner = SweepSpec(**doc["sweep"]["second"])
    doc["sweep"] = SweepSpec(**dict(doc["sweep"], second=SweepSpec(
        inner.axis, inner.start, inner.stop, inner.count, second=inner)))
    cfg = ExperimentConfig(**doc)
    assert validate(cfg) == ["sweep.second: takes no second sweep of its own"]


@pytest.mark.parametrize("mode", ["analytic", "forward", "reversed", "compare"])
def test_validate_builds_the_slit_mask_of_each_mode(mode):
    # a delta slit off the grid matters only to modes that sample the slit
    # plane; overlapping or zero-width slits are refused in every mode
    off = young_doc(mode, x1=6e-3)  # the 512 x 20 um grid spans 10.24 mm
    assert validate(ExperimentConfig.from_dict(off)) == (
        [] if mode == "analytic" else ["x1: slit at 0.006 lies outside the grid"])
    for width, needle in [(5e-4, "slits overlap"), (0.0, "slit width must be > 0")]:
        diags = validate(ExperimentConfig.from_dict(young_doc(mode, slit_width=width)))
        assert len(diags) == 1 and diags[0].startswith("slit_width: ") and needle in diags[0]


def test_validate_flags_a_compare_whose_slits_pass_no_sample(tmp_path, monkeypatch, capsys):
    # 10 um slits at 250 um on a 40 um grid hold no sample; the compare's
    # forward side used to raise while running
    monkeypatch.chdir(tmp_path)
    doc = young_doc("compare", slit_width=1e-5, x1=2.3e-4, grid={"n": 512, "dx": 4e-5})
    assert not DoubleSlit(2.3e-4, 1e-5).mask(Grid1D(512, 4e-5)).any()
    diags = validate(ExperimentConfig.from_dict(doc))
    assert len(diags) == 1 and "pass no sample" in diags[0]
    path = write_config(tmp_path, "dark.json", doc)
    assert main(["simulate", "--config", path]) == 2
    assert "pass no sample" in capsys.readouterr().err
    # a forward or reversed run used to write an all-zero column and exit 0
    for mode in ("forward", "reversed"):
        doc["mode"] = mode
        diags = validate(ExperimentConfig.from_dict(doc))
        assert len(diags) == 1 and "pass no sample" in diags[0]
        path = write_config(tmp_path, f"dark_{mode}.json", doc)
        assert main(["simulate", "--config", path]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_young_reversed_period_is_measured_on_distinct_samples(tmp_path, monkeypatch):
    # At the benchmark's size the 401-point sweep snaps to 85 detection
    # samples, each read 4 or 5 times. Peaks taken on the repeated rows
    # found every plateau: a 2.5e-7 m period for a 1.95e-5 m fringe.
    monkeypatch.chdir(tmp_path)
    n, dx = 2048, 2e-5
    doc = young_doc("reversed", x1=5e-4, grid={"n": n, "dx": dx},
                    sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 401})
    summary = run(ExperimentConfig.from_dict(doc), out="rev.csv")
    assert summary["n_rows"] == 401
    step = F * WL / (n * dx)  # one detection-grid step, 0.95 um
    assert abs(summary["period_measured_m"]["reversed"]
               - summary["period_m"]["two_photon"]) <= step


# --------------------------------------------------------------- CSV shape


def test_csv_rows_match_sweep_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(ExperimentConfig.from_dict(young_doc()), out="y.csv")
    lines = (tmp_path / "y.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x0_m,two_photon,classical"
    assert len(lines) == 1 + 21


def test_csv_long_format_for_maps(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = focus_doc(sweep={"axis": "r0", "start": -2e-6, "stop": 2e-6, "count": 5,
                           "second": {"axis": "z0", "start": -4e-5, "stop": 4e-5,
                                      "count": 3}})
    run(ExperimentConfig.from_dict(doc), out="map.csv")
    lines = (tmp_path / "map.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r0_m,z0_m,two_photon"
    assert len(lines) == 1 + 5 * 3


def test_identical_config_gives_identical_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig.from_dict(young_doc("compare"))
    run(cfg, out="r1.csv")
    run(cfg, out="r2.csv")
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_raw_flag_switches_off_normalization(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig.from_dict(focus_doc())
    run(cfg, raw=True, out="raw.csv")
    rows = np.genfromtxt(tmp_path / "raw.csv", delimiter=",", names=True)
    # on-axis focal value of the unnormalized pair spot is f^4
    assert rows["two_photon"].max() == pytest.approx(F**4, rel=1e-9)
    run(cfg, raw=False, out="norm.csv")
    rows = np.genfromtxt(tmp_path / "norm.csv", delimiter=",", names=True)
    assert rows["two_photon"].max() == 1.0


# ---------------------------------------------------------------- summaries


def test_compare_summary_equals_library_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig.from_dict(young_doc("compare"))
    summary = run(cfg, out="c.csv")
    p = YoungParams(x1=cfg.x1, f=cfg.f, wavelength=cfg.wavelength)
    sweep = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    report = forward_vs_reversed_young(p, Grid1D(512, 2e-5), None, 0.25, 0.5, sweep)
    assert summary["max_deviation"] == report.max_rel_err
    assert summary["deviation_points"] == report.n_points == 21
    on_disk = json.loads((tmp_path / "c.summary.json").read_text(encoding="utf-8"))
    assert on_disk["max_deviation"] == report.max_rel_err
    assert on_disk["config"]["x1"] == cfg.x1
    assert on_disk["period_m"]["classical"] == pytest.approx(
        2 * on_disk["period_m"]["two_photon"], rel=1e-15)


def test_young_compare_within_tolerance_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "yc.json", young_doc("compare"))
    assert main(["simulate", "--config", path, "--out", "yc.csv"]) == 0
    summary = json.loads((tmp_path / "yc.summary.json").read_text(encoding="utf-8"))
    assert summary["tolerance"] == YOUNG_COMPARE_TOL
    assert summary["max_deviation"] <= 1e-14 and summary["passed"] is True


def test_young_compare_exits_3_above_tolerance(tmp_path, monkeypatch, capsys):
    # Every reversed reading but the peak grows by 1e-9 (a uniform scale
    # would cancel in the peak normalization); the CSV and the summary are
    # still written.
    monkeypatch.chdir(tmp_path)
    batch = forward.run_train_batch

    def skewed_batch(*args):
        rev = batch(*args)
        return np.where(rev == rev.max(), rev, rev * (1 + 1e-9))

    monkeypatch.setattr(forward, "run_train_batch", skewed_batch)
    path = write_config(tmp_path, "yc.json", young_doc("compare"))
    assert main(["simulate", "--config", path, "--out", "yc.csv"]) == 3
    assert "tolerance" in capsys.readouterr().err
    rows = np.genfromtxt(tmp_path / "yc.csv", delimiter=",", names=True)
    assert rows.size == 21
    summary = json.loads((tmp_path / "yc.summary.json").read_text(encoding="utf-8"))
    assert 1e-10 < summary["max_deviation"] <= 1.1e-9
    assert summary["tolerance"] == YOUNG_COMPARE_TOL and summary["passed"] is False


def test_young_compare_exits_3_when_forward_side_skews(tmp_path, monkeypatch, capsys):
    # The compare relays only the pair-state rows its sweep snaps to, here
    # 21 rows, in 8-row blocks: 8 + 8 + 5. The relayed rows of the last,
    # short block, which does not hold the fringe peak, grow by 1e-9; the
    # curve there then grows by about 2e-9.
    monkeypatch.chdir(tmp_path)
    n = 600
    monkeypatch.setattr(forward, "_BLOCK_BYTES", 16 * n * 8)
    doc = young_doc("compare", grid={"n": n, "dx": 2e-5})
    p = YoungParams(x1=doc["x1"], f=doc["f"], wavelength=doc["wavelength"])
    _, sources, _ = forward.snap_young_sweep(p, Grid1D(n, 2e-5),
                                             np.linspace(-4e-5, 4e-5, 21))
    tail = len(sources) % forward._block_rows(n)
    assert len(sources) == 21 and tail == 5
    assert n // 2 < sources[-tail]  # the peak sits on the centre row
    spectral_axis = forward._spectral_axis

    def skewed_axis(amp, phase, axis, out=None):
        out = spectral_axis(amp, phase, axis, out=out)
        if axis == 1 and len(out) == tail:
            out *= 1 + 1e-9
        return out

    monkeypatch.setattr(forward, "_spectral_axis", skewed_axis)
    path = write_config(tmp_path, "yc.json", doc)
    assert main(["simulate", "--config", path, "--out", "yc.csv"]) == 3
    assert "tolerance" in capsys.readouterr().err
    summary = json.loads((tmp_path / "yc.summary.json").read_text(encoding="utf-8"))
    assert 1e-10 < summary["max_deviation"] <= 2.1e-9
    assert summary["tolerance"] == YOUNG_COMPARE_TOL and summary["passed"] is False


def test_csv_bytes_pin_17_significant_digits(tmp_path):
    # an axis and a value column write the bytes csv.writer wrote from numpy
    # scalars
    x = np.array([-0.0, 5e-324, 1e308, 0.1, -1.5, 2.0 / 3.0, 123456789.0])
    y = x[::-1] * -1
    want = ("x,y\n"
            "-0,-123456789\n"
            "4.9406564584124654e-324,-0.66666666666666663\n"
            "1e+308,1.5\n"
            "0.10000000000000001,-0.10000000000000001\n"
            "-1.5,-1e+308\n"
            "0.66666666666666663,-4.9406564584124654e-324\n"
            "123456789,0\n")
    cli._write_csv(str(tmp_path / "pin.csv"), {"x": (x, np.arange(len(x)))}, {"y": y})
    assert (tmp_path / "pin.csv").read_bytes() == want.encode()
    # an axis value is formatted once for all the rows that index it; -0.0
    # and 0.0 (equal as floats) and 1 and the next float up each keep their
    # own text, as the value column written from the same rows shows
    axis = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0)])
    index = np.array([1, 0, 3, 2, 2, 1, 0, 3, 1])
    cli._write_csv(str(tmp_path / "axis.csv"), {"a": (axis, index)}, {"v": axis[index]})
    texts = ["0", "-0", "1", "1.0000000000000002"]
    want = "a,v\n" + "".join(f"{texts[i]},{texts[i]}\n" for i in index)
    assert (tmp_path / "axis.csv").read_text(encoding="utf-8") == want


def test_reversed_mode_snaps_and_matches_formula(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = young_doc("reversed", x1=2e-4,
                    grid={"n": 256, "dx": 4e-5},
                    sweep={"axis": "x0", "start": -1.5e-5, "stop": 1.5e-5,
                           "count": 9})
    run(ExperimentConfig.from_dict(doc), out="rev.csv")
    rows = np.genfromtxt(tmp_path / "rev.csv", delimiter=",", names=True)
    det_dx = F * WL / (256 * 4e-5)
    steps = rows["x0_m"] / det_dx
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    p = YoungParams(x1=2e-4, f=F, wavelength=WL)
    want = young_two_photon(rows["x0_m"], p)
    assert np.allclose(rows["reversed"], want / want.max(), atol=1e-9)


def test_focus_compare_runs_trains(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 256, "dx": 2e-6})
    summary = run(ExperimentConfig.from_dict(doc), out="fc.csv")
    assert summary["max_deviation"] < 5e-2  # coarse grid; accuracy pinned elsewhere
    rows = np.genfromtxt(tmp_path / "fc.csv", delimiter=",", names=True)
    assert set(rows.dtype.names) == {"r0_m", "two_photon", "classical", "reversed"}


def test_focus_compare_snaps_r0_once(tmp_path, monkeypatch):
    # 1 um steps on a 2 um source grid: the rows at r0 = +-1, +-3 um used to
    # read the train at a neighbouring sample while the CSV and the analytic
    # columns kept the requested r0 (max deviation 0.686).
    monkeypatch.chdir(tmp_path)
    grid = {"n": 256, "dx": 2e-6}
    on_grid = run(ExperimentConfig.from_dict(
        focus_doc("compare", L1=0.25, L2=0.5, grid=grid)), out="five.csv")
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid=grid,
                    sweep={"axis": "r0", "start": -4e-6, "stop": 4e-6, "count": 9})
    summary = run(ExperimentConfig.from_dict(doc), out="nine.csv")
    assert on_grid["max_deviation"] <= 3.6e-5
    assert summary["max_deviation"] == on_grid["max_deviation"]
    rows = np.genfromtxt(tmp_path / "nine.csv", delimiter=",", names=True)
    steps = rows["r0_m"] / 2e-6
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
    assert set(np.round(steps)) == {-2, -1, 0, 1, 2}


def test_focus_fwhm_uses_distinct_snapped_r0(tmp_path, monkeypatch):
    # the 9-point cut snaps to 5 distinct samples, each twice or more; fwhm
    # needs increasing coordinates and used to come out null for every column
    monkeypatch.chdir(tmp_path)
    grid = {"n": 256, "dx": 2e-6}
    five = run(ExperimentConfig.from_dict(
        focus_doc("compare", L1=0.25, L2=0.5, grid=grid)), out="five.csv")
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid=grid,
                    sweep={"axis": "r0", "start": -4e-6, "stop": 4e-6, "count": 9})
    nine = run(ExperimentConfig.from_dict(doc), out="nine.csv")
    assert set(nine["fwhm_m"]) == {"two_photon", "classical", "reversed"}
    assert all(v is not None for v in nine["fwhm_m"].values())
    assert nine["fwhm_m"] == five["fwhm_m"]
    assert nine["peak_position_m"] == five["peak_position_m"]


def test_focus_compare_exits_3_above_tolerance(tmp_path, monkeypatch, capsys):
    # an 8x8, 1 um grid deviates by 4.6e-2 and used to exit 0
    monkeypatch.chdir(tmp_path)
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 8, "dx": 1e-6},
                    sweep={"axis": "r0", "start": -2e-6, "stop": 2e-6, "count": 5})
    path = write_config(tmp_path, "coarse.json", doc)
    assert main(["simulate", "--config", path, "--out", "c.csv"]) == 3
    assert "tolerance" in capsys.readouterr().err
    rows = np.genfromtxt(tmp_path / "c.csv", delimiter=",", names=True)
    assert rows.size == 5
    summary = json.loads((tmp_path / "c.summary.json").read_text(encoding="utf-8"))
    assert summary["max_deviation"] > FOCUS_COMPARE_TOL
    assert summary["tolerance"] == FOCUS_COMPARE_TOL and summary["passed"] is False


def test_focus_compare_within_tolerance_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 256, "dx": 2e-6})
    path = write_config(tmp_path, "fine.json", doc)
    assert main(["simulate", "--config", path, "--out", "f.csv"]) == 0
    summary = json.loads((tmp_path / "f.summary.json").read_text(encoding="utf-8"))
    assert summary["max_deviation"] <= 3.6e-5 and summary["passed"] is True


def test_focus_compare_exits_3_when_one_reversed_reading_skews(tmp_path, monkeypatch,
                                                                capsys):
    # At focus on a 0.5 um grid the reading next to the peak is 0.77 of it,
    # so growing it by 1 + 2e-3 moves that row by 1.5e-3, above the 1e-3
    # tolerance; unskewed the compare deviates by 3.4e-5.
    monkeypatch.chdir(tmp_path)
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 1024, "dx": 5e-7},
                    sweep={"axis": "r0", "start": -1e-6, "stop": 1e-6, "count": 5})
    path = write_config(tmp_path, "fc.json", doc)
    assert main(["simulate", "--config", path, "--out", "ok.csv"]) == 0
    batch = cli.run_train_batch

    def skewed(*args):
        readings = batch(*args)
        readings[np.argmax(readings) + 1] *= 1 + 2e-3
        return readings

    monkeypatch.setattr(cli, "run_train_batch", skewed)
    assert main(["simulate", "--config", path, "--out", "skew.csv"]) == 3
    assert "tolerance" in capsys.readouterr().err
    rows = np.genfromtxt(tmp_path / "skew.csv", delimiter=",", names=True)
    assert rows.size == 5
    summary = json.loads((tmp_path / "skew.summary.json").read_text(encoding="utf-8"))
    assert 1.4e-3 < summary["max_deviation"] < 1.6e-3
    assert summary["tolerance"] == FOCUS_COMPARE_TOL and summary["passed"] is False


@pytest.mark.parametrize("outer", ["r0", "z0"])
def test_focus_reversed_map_reads_each_row_from_its_own_source(tmp_path, monkeypatch,
                                                               outer):
    # Either axis order: the first sweep axis is the slow one, every r0 is
    # snapped onto the 2 um source grid (-2.33 -> -2, 1.33 -> 2 and
    # 5 -> 6 um), and each row's reading is a one-source batch at its
    # (r0, z0).
    monkeypatch.chdir(tmp_path)
    n, dx = 64, 2e-6
    r = {"axis": "r0", "start": -6e-6, "stop": 5e-6, "count": 4}
    z = {"axis": "z0", "start": -4e-5, "stop": 4e-5, "count": 3}
    sweep = dict(r, second=z) if outer == "r0" else dict(z, second=r)
    doc = focus_doc("reversed", L1=0.25, L2=0.5, grid={"n": n, "dx": dx}, sweep=sweep)
    run(ExperimentConfig.from_dict(doc), raw=True, out="map.csv")
    rows = np.genfromtxt(tmp_path / "map.csv", delimiter=",", names=True)
    r0s = np.array([-6e-6, -2e-6, 2e-6, 6e-6])
    z0s = np.linspace(-4e-5, 4e-5, 3)
    if outer == "r0":
        want_r, want_z = np.repeat(r0s, 3), np.tile(z0s, 4)
    else:
        want_r, want_z = np.tile(r0s, 3), np.repeat(z0s, 4)
    np.testing.assert_allclose(rows["r0_m"], want_r, rtol=1e-15)
    np.testing.assert_array_equal(rows["z0_m"], want_z)
    grid = Grid2D(n, n, dx, dx)
    for row in rows:
        train = reversed_focus_train(F, D, float(row["z0_m"]), 0.25, 0.5)
        want = run_train_batch(grid, WL, [grid.index_of((row["r0_m"], 0.0))], train)
        assert row["reversed"] == pytest.approx(want[0], rel=1e-12)


def test_analytic_focus_map_evaluates_each_radius_once(tmp_path, monkeypatch):
    # np.linspace's mirrored points are not exact negatives, so the
    # benchmark's 81-point map asked the disk-transform table for 72
    # distinct radii where 41 suffice. Mirrored rows now share one radius;
    # the CSV keeps the swept r0.
    monkeypatch.chdir(tmp_path)
    spot = cli.spot_offaxis_two_photon
    radii = []

    def recording(r0, z0, p):
        radii.append(np.unique(np.abs(r0)).size)
        return spot(r0, z0, p)

    monkeypatch.setattr(cli, "spot_offaxis_two_photon", recording)
    r0 = np.linspace(-3e-6, 3e-6, 81)
    z0 = np.linspace(-6e-5, 6e-5, 41)
    doc = focus_doc(sweep={"axis": "r0", "start": -3e-6, "stop": 3e-6, "count": 81,
                           "second": {"axis": "z0", "start": -6e-5, "stop": 6e-5,
                                      "count": 41}})
    run(ExperimentConfig.from_dict(doc), raw=True, out="map.csv")
    assert np.unique(np.abs(r0)).size == 72 and radii == [41]
    rows = np.genfromtxt(tmp_path / "map.csv", delimiter=",", names=True)
    np.testing.assert_array_equal(rows["r0_m"], np.repeat(r0, 41))
    vals = rows["two_photon"].reshape(81, 41)
    np.testing.assert_array_equal(vals, vals[::-1])
    p = FocusParams(D=D, f=F, wavelength=WL)
    want = spot(np.abs(np.repeat(r0, 41)), np.tile(z0, 81), p)
    assert np.max(np.abs(vals.ravel() - want)) <= 1e-15 * want.max()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_focus_pupil_window_narrower_than_the_aperture_exits_2(tmp_path, monkeypatch,
                                                               capsys, command):
    # At dx = 4 um the shipped compare's pupil window f*wl/dx is 9.75 mm
    # against D = 12.7 mm, so the train cut a quarter of the aperture away;
    # validate printed ok and the compare failed only on its tolerance.
    monkeypatch.chdir(tmp_path)
    doc = dict(shipped("focus_compare"), grid={"n": 256, "dx": 4e-6})
    path = write_config(tmp_path, "narrow.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert ("grid.dx: the pupil window f*wavelength/dx = 0.00975 m is narrower than "
            "the aperture D = 0.0127 m") in out.out + out.err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_focus_r0_sweep_off_the_source_grid_exits_2(tmp_path, monkeypatch, capsys,
                                                    command):
    # The 8-sample, 1 um source grid ends at 3.5 um, so the shipped +-4 um cut
    # reaches past it; validate printed ok, which simulate then rejected.
    monkeypatch.chdir(tmp_path)
    doc = dict(shipped("focus_compare"), grid={"n": 8, "dx": 1e-6})
    path = write_config(tmp_path, "off.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert ("sweep: lateral offset 4e-06 m is outside the source grid"
            in out.out + out.err)
    assert not list(tmp_path.glob("*.csv"))
    # an r0 axis swept second is snapped too
    doc["sweep"] = {"axis": "z0", "start": -2e-5, "stop": 2e-5, "count": 3,
                    "second": dict(shipped("focus_compare")["sweep"])}
    assert validate(ExperimentConfig.from_dict(doc)) == [
        "sweep.second: lateral offset 4e-06 m is outside the source grid"]


@pytest.mark.parametrize("mode", ["reversed", "compare"])
def test_validate_pupil_window_on_both_sides_of_the_aperture(mode):
    # flagged exactly when f*wl/dx < D, whatever n is; analytic runs have
    # no pupil grid
    edge = F * WL / D
    for n in (64, 1024):
        for dx, flagged in [(edge * (1 - 1e-9), False), (edge * (1 + 1e-9), True),
                            (1e-6, False), (2e-6, False), (4e-6, True)]:
            doc = focus_doc(mode, L1=0.25, L2=0.5, grid={"n": n, "dx": dx})
            diags = validate(ExperimentConfig.from_dict(doc))
            assert diags == ([] if not flagged else [diags[0]]), (n, dx, diags)
            assert not flagged or diags[0].startswith("grid.dx: the pupil window")
    doc = focus_doc("analytic", grid={"n": 64, "dx": 4e-6})
    assert validate(ExperimentConfig.from_dict(doc)) == []


def failing_audit(n, trials, seed):
    return AuditReport(n_modes=n, trials=trials, seed=seed, max_ratio_dev=1e-3,
                       tolerance=1e-9)


def test_failed_audit_exits_3_after_writing_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "time_reversal_audit", failing_audit)
    doc = {"experiment": "modes-audit", "mode": "forward",
           "audit": {"n_modes": 4, "trials": 50}, "seed": 3}
    path = write_config(tmp_path, "aud.json", doc)
    assert main(["simulate", "--config", path, "--out", "aud.out.json"]) == 3
    assert "FAILED" in capsys.readouterr().out
    report = json.loads((tmp_path / "aud.out.json").read_text(encoding="utf-8"))
    assert report["passed"] is False and report["max_ratio_dev"] == 1e-3

    assert main(["audit", "--n", "4", "--trials", "50", "--out", "rep.json"]) == 3
    assert json.loads(capsys.readouterr().out)["passed"] is False
    assert json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))["passed"] is False


def test_audit_exits_3_when_its_last_short_chunk_deviates(tmp_path, monkeypatch, capsys):
    # The reversed side of the last chunk, shorter than the others, grows by
    # 1e-8. Only a run that reduces every chunk it draws sees it.
    monkeypatch.chdir(tmp_path)
    n, rows = 16, audit_chunk_trials(16)
    trials = 2 * rows + 5
    chunks = modes._audit_chunks

    def skewed_chunks(*args):
        out = list(chunks(*args))
        assert [len(fwd) for fwd, _ in out] == [rows, rows, 5]
        fwd, scaled = out[-1]
        return out[:-1] + [(fwd, scaled * (1 + 1e-8))]

    monkeypatch.setattr(modes, "_audit_chunks", skewed_chunks)
    report = modes.time_reversal_audit(n, trials, seed=3)
    assert report.max_ratio_dev > 1e-9 and report.passed is False

    doc = {"experiment": "modes-audit", "mode": "forward",
           "audit": {"n_modes": n, "trials": trials}, "seed": 3}
    path = write_config(tmp_path, "aud.json", doc)
    assert main(["simulate", "--config", path, "--out", "aud.out.json"]) == 3
    assert "FAILED" in capsys.readouterr().out
    assert json.loads((tmp_path / "aud.out.json").read_text(encoding="utf-8"))["passed"] is False
    assert main(["audit", "--n", str(n), "--trials", str(trials), "--seed", "3"]) == 3
    assert json.loads(capsys.readouterr().out)["max_ratio_dev"] > 1e-9


def load_script(name):
    """The example script ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_young_fringes_script_exits_3_on_a_failed_compare(tmp_path, monkeypatch):
    # the script's compare, with every reversed reading but the peak grown by
    # 1e-9, deviates by 9.9e-10 against the 1e-12 tolerance
    script = load_script("young_fringes")
    monkeypatch.setattr(sys, "argv", ["young_fringes.py", "--out", str(tmp_path / "y.csv")])
    assert script.main() == 0
    batch = forward.run_train_batch

    def skewed_batch(*args):
        rev = batch(*args)
        return np.where(rev == rev.max(), rev, rev * (1 + 1e-9))

    monkeypatch.setattr(forward, "run_train_batch", skewed_batch)
    assert script.main() == 3
    summary = json.loads((tmp_path / "y.summary.json").read_text(encoding="utf-8"))
    assert summary["max_deviation"] > YOUNG_COMPARE_TOL and summary["passed"] is False


@pytest.mark.parametrize("name,argv,cause", [
    ("young_fringes", ["--span", "1e-3"],
     "sweep point -0.001 m is outside the reversed-train source grid"),
    ("focus_maps", ["--preset", "compare", "--n", "1"], "grid.n: must be >= 2, got 1"),
])
def test_example_scripts_exit_2_on_a_bad_config(tmp_path, monkeypatch, capsys,
                                                name, argv, cause):
    # as `biphoton simulate` does: no traceback, the cause on stderr, no output
    script = load_script(name)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv, "--out", str(out)])
    assert script.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and cause in err
    assert not out.exists()


@pytest.mark.parametrize("error,code", [(ConfigurationError, 2), (DomainError, 2),
                                        (SamplingError, 3), (QuadratureError, 3)])
def test_exit_code_maps_each_error_and_names_it(capsys, error, code):
    def task():
        raise error("the cause")

    assert exit_code(task) == code
    assert "the cause" in capsys.readouterr().err


@pytest.mark.parametrize("result,code", [(0, 0), (2, 2), ({}, 0), ({"passed": True}, 0),
                                         ({"passed": False, "tolerance": 1e-12}, 3)])
def test_exit_code_of_a_returned_code_or_summary(capsys, result, code):
    assert exit_code(lambda: result) == code
    assert ("tolerance 1e-12" in capsys.readouterr().err) == (code == 3)


def test_audit_experiment_writes_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"experiment": "modes-audit", "mode": "forward",
           "audit": {"n_modes": 4, "trials": 50}, "seed": 3}
    summary = run(ExperimentConfig.from_dict(doc), out="aud.json")
    on_disk = json.loads((tmp_path / "aud.json").read_text(encoding="utf-8"))
    assert on_disk == summary
    assert on_disk["passed"] is True


# --------------------------------------------------------------- exit codes


def test_main_simulate_success(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "ok.json", young_doc())
    assert main(["simulate", "--config", path, "--out", "ok.csv"]) == 0
    assert (tmp_path / "ok.csv").exists()
    assert (tmp_path / "ok.summary.json").exists()


def test_main_validate_reports_and_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json", focus_doc(D=-2.0))
    assert main(["validate", "--config", path]) == 2
    assert "D" in capsys.readouterr().out


def test_main_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, "ok.json", focus_doc())
    assert main(["validate", "--config", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_main_config_error_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json", young_doc(x1=None))
    assert main(["simulate", "--config", path]) == 2
    assert "x1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("doc,field", [
    (young_doc(sweep={"axis": "x0", "start": -4e-5, "stop": float("inf"), "count": 21}),
     "sweep.stop"),
    (young_doc(sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 2.9}),
     "sweep.count"),
    (young_doc(wavelength=float("nan")), "wavelength"),
    (young_doc("forward", grid={"n": 512.5, "dx": 2e-5}), "grid.n"),
    ({"experiment": "modes-audit", "mode": "forward",
      "audit": {"n_modes": 4, "trials": 50.5}}, "audit.trials"),
])
def test_main_rejects_nonfinite_and_nonintegral(tmp_path, monkeypatch, capsys,
                                                command, doc, field):
    # Infinity used to run and write a NaN CSV; 2.9 used to become 2.
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "bad.json", doc)
    assert main([command, "--config", path]) == 2
    assert field in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_integral_floats_are_accepted(tmp_path):
    doc = young_doc(sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 21.0})
    cfg = load_config(write_config(tmp_path, "a.json", doc))
    assert cfg.sweep.count == 21 and isinstance(cfg.sweep.count, int)


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("doc,field", [
    (young_doc(f="0.05"), "f"),
    (young_doc(f=True), "f"),
    (young_doc(f="abc"), "f"),
    (young_doc(f=[1]), "f"),
    (young_doc(f=10 ** 400), "f"),
    (young_doc("forward", grid={"n": 10 ** 400, "dx": 2e-5}), "grid.n"),
    (young_doc(sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": True}),
     "sweep.count"),
])
def test_main_rejects_non_numbers(tmp_path, monkeypatch, capsys, command, doc, field):
    # "0.05" and true used to load as 0.05 and 1.0 and exit 0; "abc" and [1]
    # gave a bare float() message naming no field.
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "bad.json", doc)
    assert main([command, "--config", path]) == 2
    assert f": {field}: must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_import_and_validation_leave_scipy_unimported():
    # scipy.special costs about 0.3 s to import and only the Bessel
    # functions need it; importing the CLI and validating every shipped
    # config must not load it, nor concurrent.futures, which only the
    # thread pool needs, nor dataclasses (its generated methods cost about
    # 15 ms of start-up) or the test oracles.
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import glob, sys",
        "import biphoton.cli",
        "from biphoton.config import load_config, validate",
        "paths = sorted(glob.glob('configs/*.json'))",
        "assert paths",
        "for path in paths:",
        "    assert validate(load_config(path)) == [], path",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "print('concurrent.futures' in sys.modules)",
        "print('dataclasses' in sys.modules)",
        "print('biphoton.oracles' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False", "False", "False"]


SHIPPED_CONFIGS = sorted(p.name for p in (Path(__file__).resolve().parents[1]
                                          / "configs").glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_config_runs_without_scipy(tmp_path, name):
    # numpy is the only runtime dependency: with scipy unimportable every
    # shipped config still runs, and none loads scipy, numpy.polynomial,
    # dataclasses or the test oracles.
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from biphoton.cli import main",
        "code = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])",
        "print(sorted(m for m, mod in sys.modules.items() if mod is not None and (",
        "    m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'polynomial']",
        "    or m in ('dataclasses', 'biphoton.oracles'))))",
        "sys.exit(code)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = tmp_path / f"{Path(name).stem}.out"
    proc = subprocess.run([sys.executable, "-c", code, str(root / "configs" / name), str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert out.exists()


def test_compares_start_no_thread_and_the_audit_at_most_one(tmp_path):
    # The young and focus compares run on the calling thread and never load
    # concurrent.futures; the audit keeps one pool thread for its chunks.
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys, threading",
        "from biphoton.cli import run",
        "from biphoton.config import load_config",
        "for name in ('young_compare', 'focus_compare', 'modes_audit'):",
        "    run(load_config(f'{sys.argv[1]}/{name}.json'), out=f'{name}.out')",
        "    print(name, 'concurrent.futures' in sys.modules, threading.active_count())",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code, str(root / "configs")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = [line.split() for line in proc.stdout.splitlines()
            if line.split()[0] in ("young_compare", "focus_compare", "modes_audit")]
    assert seen[:2] == [["young_compare", "False", "1"], ["focus_compare", "False", "1"]]
    assert seen[2][0] == "modes_audit" and int(seen[2][2]) <= 2


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_main_rejects_grid_above_memory_ceiling(tmp_path, monkeypatch, capsys, command):
    # a 65536^2 focus field is 64 GiB; validate used to print "ok"
    monkeypatch.chdir(tmp_path)
    doc = focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 65536, "dx": 1e-6})
    path = write_config(tmp_path, "big.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert "GiB" in out.out + out.err
    assert not list(tmp_path.glob("*.csv"))
    # n = 10**300 is a valid float but its array size is not; this used to
    # raise OverflowError while formatting the message
    doc["grid"]["n"] = 10 ** 300
    path = write_config(tmp_path, "huge.json", doc)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert "inf GiB" in out.out + out.err


@pytest.mark.parametrize("doc,size", [
    # a 200000 x 200000 analytic focus map and a 10^12-point analytic young
    # sweep; validate used to print "ok" and simulate to fail allocating
    (dict(shipped("focus_map_two_photon"),
          sweep={"axis": "r0", "start": -3e-6, "stop": 3e-6, "count": 200000,
                 "second": {"axis": "z0", "start": -6e-5, "stop": 6e-5, "count": 200000}}),
     "2.98e+04 GiB"),
    (young_doc(sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 10 ** 12}),
     "5.59e+05 GiB"),
    # each count a valid float, their product past the float range
    (focus_doc(sweep={"axis": "r0", "start": -3e-6, "stop": 3e-6, "count": 10 ** 200,
                      "second": {"axis": "z0", "start": 0.0, "stop": 1e-5,
                                 "count": 10 ** 200}}), "inf GiB"),
])
def test_validate_holds_every_sweep_to_the_array_limit(tmp_path, capsys, doc, size):
    path = write_config(tmp_path, "long.json", doc)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().out == (f"sweep.count: writing the CSV needs {size}, "
                                       "above the 4 GiB limit\n")


def test_sweep_array_limit_counts_200_bytes_a_value():
    # an analytic young sweep writes 3 values a row: 7158278 rows of 600 B
    # fit the 4 GiB limit, one more row does not
    doc = young_doc(sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5,
                           "count": MAX_ARRAY_BYTES // 600})
    assert validate(ExperimentConfig.from_dict(doc)) == []
    doc["sweep"]["count"] += 1
    diags = validate(ExperimentConfig.from_dict(doc))
    assert len(diags) == 1 and diags[0].startswith("sweep.count: ")


PEAK_ROWS = 10 ** 5


def _sweep(axis, start, stop, count=PEAK_ROWS, **second):
    return {"axis": axis, "start": start, "stop": stop, "count": count, **second}


@pytest.mark.parametrize("doc", [
    young_doc(sweep=_sweep("x0", -4e-5, 4e-5)),
    young_doc("forward", sweep=_sweep("x0", -4e-5, 4e-5)),
    young_doc("reversed", sweep=_sweep("x0", -4e-5, 4e-5)),
    young_doc("compare", sweep=_sweep("x0", -4e-5, 4e-5)),
    focus_doc(sweep=_sweep("r0", -4e-6, 4e-6)),
    focus_doc(sweep=_sweep("z0", -1e-4, 1e-4)),
    focus_doc(sweep=_sweep("r0", -3e-6, 3e-6, 400, second=_sweep("z0", -6e-5, 6e-5, 250))),
    focus_doc("reversed", L1=0.25, L2=0.5, z0=2e-5, grid={"n": 64, "dx": 1e-6},
              sweep=_sweep("r0", -4e-6, 4e-6)),
    focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 64, "dx": 1e-6},
              sweep=_sweep("r0", -4e-6, 4e-6)),
], ids=["young_analytic", "young_forward", "young_reversed", "young_compare",
        "focus_analytic_r0", "focus_analytic_z0", "focus_analytic_map",
        "focus_reversed_r0", "focus_compare_r0"])
def test_sweep_peak_stays_under_the_validate_bound(tmp_path, capsys, doc):
    # validate bounds a sweep's memory by the values it writes; the run's
    # peak, traced while it computes and writes 1e5 rows, must stay below
    # that bound. At 25 B a value it peaked 2.8 to 6.4 times above it.
    cfg = ExperimentConfig.from_dict(doc)
    assert validate(cfg) == []
    tracemalloc.start()
    try:
        run(cfg, out=str(tmp_path / "sweep.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < config._sweep_write_bytes(cfg)


@pytest.mark.parametrize("doc,message", [
    (young_doc("reversed", sweep={"axis": "x0", "start": -1.0, "stop": 1.0, "count": 3}),
     "sweep point -1.0 m"),
    (focus_doc("compare", L1=0.25, L2=0.5, grid={"n": 4, "dx": 1e-6}),
     "lateral offset -4e-06 m"),
])
def test_main_out_of_grid_message_prints_plain_floats(tmp_path, monkeypatch, capsys,
                                                      doc, message):
    # numpy scalars used to print as "np.float64(-1.0)"
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "off.json", doc)
    assert main(["simulate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "np.float64" not in err


def test_main_missing_file_exit_2(capsys):
    assert main(["simulate", "--config", "/none/such.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_sampling_guard_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # 512 cells at 2e-5 resolve only 5.12 samples per fringe for x1 = 1 mm
    path = write_config(tmp_path, "coarse.json", young_doc("compare", x1=1e-3))
    assert main(["simulate", "--config", path]) == 3
    assert "samples per fringe" in capsys.readouterr().err


def test_a_guard_tripped_by_the_compare_check_writes_nothing(tmp_path, capsys):
    # The shipped young compare on 256 samples of 20 um: its columns are
    # finite, and only the forward-vs-reversed check trips its guard.
    # validate does not predict this guard yet.
    doc = shipped("young_compare")
    doc["grid"] = {"n": 256, "dx": 2e-5}
    path = write_config(tmp_path, "coarse.json", doc)
    out = tmp_path / "coarse.csv"
    assert main(["validate", "--config", path]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical guard:"), err
    assert "only 2.56 detection samples per fringe" in err[0]
    assert captured.out == ""
    assert not out.exists() and not out.with_suffix(".summary.json").exists()


@pytest.mark.parametrize("name", ["young_compare", "focus_compare"])
def test_raw_compare_changes_only_the_csv(tmp_path, capsys, name):
    path = str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    runs = {}
    for raw in (False, True):
        out = tmp_path / f"{name}_{raw}.csv"
        code = main(["simulate", "--config", path, "--out", str(out)] + ["--raw"] * raw)
        summary = json.loads(out.with_suffix(".summary.json").read_text(encoding="utf-8"))
        runs[raw] = code, summary, np.genfromtxt(out, delimiter=",", names=True)
    (code, summary, norm), (raw_code, raw_summary, raw_rows) = runs[False], runs[True]
    assert code == raw_code == 0
    assert raw_summary["passed"] is summary["passed"] is True
    assert (np.float64(raw_summary["max_deviation"]).view(np.uint64)
            == np.float64(summary["max_deviation"]).view(np.uint64))
    # the whole summary but its CSV name: JSON floats round-trip exactly
    assert raw_summary.pop("csv") != summary.pop("csv")
    assert raw_summary == summary
    # the raw CSV holds the unnormalized columns, the other one their peak ratios
    for column in summary["columns"]:
        assert norm[column].max() == 1.0
        np.testing.assert_array_equal(raw_rows[column] / raw_rows[column].max(),
                                      norm[column])


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "configs/young_compare.json", "--out", "{missing}/x.csv"],
    ["simulate", "--config", "configs/young_compare.json", "--out", "{dir}"],
    ["simulate", "--config", "configs/modes_audit.json", "--out", "{missing}/a.json"],
    ["audit", "--n", "2", "--trials", "3", "--out", "{missing}/a.json"],
], ids=["sweep-missing-dir", "sweep-is-a-dir", "audit-config", "audit-subcommand"])
def test_an_unwritable_output_exits_2_and_names_the_path(tmp_path, monkeypatch, capsys,
                                                         argv):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    (tmp_path / "dir").mkdir()
    places = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path / "dir")}
    argv = [arg.format(**places) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {argv[-1]!r}: "), err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()
    assert list(tmp_path.rglob("*")) == [tmp_path / "dir"]


def test_an_unwritable_summary_leaves_the_csv(tmp_path, capsys):
    path = str(Path(__file__).resolve().parents[1] / "configs" / "young_compare.json")
    out = tmp_path / "y.csv"
    out.with_suffix(".summary.json").mkdir()
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {str(out.with_suffix('.summary.json'))!r}: "
                   "Is a directory"]
    assert out.read_text(encoding="utf-8").startswith("x0_m,two_photon,classical,forward\n")


def test_main_audit_stdout_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["audit", "--n", "6", "--trials", "40", "--seed", "9",
                 "--out", "rep.json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["trials"] == 40
    assert json.loads((tmp_path / "rep.json").read_text(encoding="utf-8")) == report


def test_audit_cli_rejects_negative_seed(capsys):
    assert main(["audit", "--n", "2", "--trials", "3", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_audit_beyond_the_array_limit_exits_2_without_drawing(tmp_path, monkeypatch,
                                                            capsys):
    def no_draws(*args):
        raise AssertionError("drew before rejecting the mode count")

    monkeypatch.setattr("biphoton.modes._audit_chunks", no_draws)
    doc = {"experiment": "modes-audit", "mode": "forward",
           "audit": {"n_modes": 10 ** 6, "trials": 1}, "seed": 0}
    diags = validate(ExperimentConfig.from_dict(doc))
    assert any(d.startswith("audit.n_modes") for d in diags), diags
    path = write_config(tmp_path, "big.json", doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert "audit.n_modes" in capsys.readouterr().err
    assert main(["audit", "--n", str(10 ** 6), "--trials", "1"]) == 2
    assert "n: 1000000" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_audit_array_limit_counts_one_chunk_of_trials():
    # A chunk holds min(AUDIT_CHUNK, trials) rows of 2n^2 + 4n float64 draws:
    # n = 2896 fits one trial but not a full chunk under the 4 GiB limit.
    assert audit_array_bytes(2896, 1) <= MAX_ARRAY_BYTES
    assert audit_array_bytes(2896, AUDIT_CHUNK) > MAX_ARRAY_BYTES
    assert audit_array_bytes(2895, 10 ** 6) <= MAX_ARRAY_BYTES
    assert audit_array_bytes(16, 3) == 8 * 3 * (2 * 16 ** 2 + 4 * 16)
    assert audit_array_bytes(10 ** 400, 1) == float("inf")

    def diags(n, trials):
        doc = {"experiment": "modes-audit", "mode": "forward",
               "audit": {"n_modes": n, "trials": trials}}
        return [d for d in validate(ExperimentConfig.from_dict(doc))
                if d.startswith("audit.n_modes")]

    assert diags(2896, 1) == [] and diags(2895, 10 ** 6) == []
    assert diags(2896, AUDIT_CHUNK) and diags(2896, 10 ** 6)


class _Drew(Exception):
    """Raised by a patched ``_audit_chunks``: the audit passed its checks."""


def test_validate_flags_an_audit_config_exactly_when_the_audit_refuses_it(monkeypatch):
    # `biphoton audit` runs the audit without `validate`, so the two rule
    # sets must not drift. A full chunk passes 4 GiB from n = 2896 up, and
    # trial counts past 2**32 need no rule of their own.
    def drew(*args):
        raise _Drew

    monkeypatch.setattr(modes, "_audit_chunks", drew)
    for n, trials, seed in itertools.product(
            (0, 1, 16, 2895, 2896, 10 ** 6),
            (0, 1, AUDIT_CHUNK - 1, AUDIT_CHUNK, 2 ** 32, 2 ** 40), (-1, 0, 2 ** 70)):
        doc = {"experiment": "modes-audit", "mode": "forward",
               "audit": {"n_modes": n, "trials": trials}, "seed": seed}
        flagged = bool(validate(ExperimentConfig.from_dict(doc)))
        try:
            modes.time_reversal_audit(n, trials, seed)
        except ConfigurationError:
            refused = True
        except _Drew:
            refused = False
        assert flagged == refused, (n, trials, seed)


# ------------------------------------------------------------ CLI property


@st.composite
def focus_sweep(draw, axis):
    # z0 ranges reach past f = 50 mm; count 1 and an empty span break the schema
    bound, widest = (8e-6, 8e-6) if axis == "r0" else (0.055, 0.02)
    start = draw(st.floats(-bound, bound))
    return {"axis": axis, "start": start,
            "stop": start + draw(st.floats(0.0, widest)),
            "count": draw(st.integers(1, 6))}


@st.composite
def small_focus_docs(draw):
    axis = draw(st.sampled_from(["r0", "z0"]))
    sweep = draw(focus_sweep(axis))
    if draw(st.booleans()):
        sweep["second"] = draw(focus_sweep("z0" if axis == "r0" else "r0"))
    mode = draw(st.sampled_from(["analytic", "compare"]))
    doc = focus_doc(mode, sweep=sweep, z0=draw(st.sampled_from([0.0, 0.0, 2e-5, 0.05])))
    if mode == "compare":
        doc.update(L1=0.25, L2=0.5,
                   grid={"n": draw(st.sampled_from([8, 16, 32])),
                         "dx": draw(st.sampled_from([5e-7, 1e-6, 2e-6]))})
    return doc


def focus_compare_optics(mode, **overrides):
    """configs/focus_compare.json's optics and cut on a 64-sample grid."""
    doc = focus_doc(mode, L1=0.25, L2=0.5, z0=2e-5, grid={"n": 64, "dx": 1e-6},
                    sweep={"axis": "r0", "start": -4e-6, "stop": 4e-6, "count": 9})
    doc.update(overrides)
    return doc


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=small_focus_docs())
# optics whose fields or values leave the float range: each exits 3
@example(doc=focus_compare_optics("reversed", L2=1e-300))
@example(doc=focus_compare_optics("reversed", L1=1e300))
@example(doc=focus_compare_optics("reversed", L1=1e-300))
@example(doc=focus_compare_optics("analytic", f=1e300))
@example(doc=focus_compare_optics("compare", f=1e300))
@example(doc=focus_compare_optics("reversed", f=1e300))
@example(doc=focus_compare_optics("analytic", f=1e100))
def test_focus_cli_exits_0_2_or_3_and_writes_finite_csv(tmp_path, doc):
    path = write_config(tmp_path, "fuzz.json", doc)
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code in (0, 2, 3)
    # validate refuses exactly the configs that simulate refuses
    assert (code == 2) == bool(validate(ExperimentConfig.from_dict(doc)))
    if code == 0:
        rows = np.genfromtxt(out, delimiter=",", skip_header=1, ndmin=2)
        assert rows.size > 0 and np.all(np.isfinite(rows))


@st.composite
def small_young_docs(draw):
    start = draw(st.floats(-1e-4, 1e-4))
    sweep = {"axis": "x0", "start": start,
             "stop": start + draw(st.floats(0.0, 1e-4)),
             "count": draw(st.integers(1, 8))}
    doc = young_doc(draw(st.sampled_from(["analytic", "forward", "reversed", "compare"])),
                    sweep=sweep, x1=draw(st.sampled_from([2e-5, 5e-5, 1e-4, 2.5e-4, 1e-3])),
                    grid={"n": draw(st.sampled_from([16, 64, 128, 256])),
                          "dx": draw(st.sampled_from([5e-6, 1e-5, 2e-5, 4e-5]))})
    width = draw(st.sampled_from([None, None, 1e-5, 4e-5]))
    if width is not None:
        doc["slit_width"] = width
    return doc


def young_compare_optics(mode, **overrides):
    """configs/young_compare.json's optics and sweep on a 64-sample grid."""
    doc = young_doc(mode, x1=5e-4, grid={"n": 64, "dx": 2e-5},
                    sweep={"axis": "x0", "start": -4e-5, "stop": 4e-5, "count": 81})
    doc.update(overrides)
    return doc


# optics whose values leave the float range: each exits 3 with one line
EXTREME_OPTICS = {
    "young analytic f=1e-310": young_compare_optics("analytic", f=1e-310),
    "young forward f=1e-300": young_compare_optics("forward", f=1e-300),
    "young forward wavelength=1e-290": young_compare_optics("forward", wavelength=1e-290),
    "focus analytic f=1e100": focus_compare_optics("analytic", f=1e100),
    "focus reversed L2=1e-300": focus_compare_optics("reversed", L2=1e-300),
    "focus analytic D=1e300": focus_compare_optics("analytic", D=1e300),
}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=small_young_docs())
@example(doc=EXTREME_OPTICS["young analytic f=1e-310"])
@example(doc=EXTREME_OPTICS["young forward f=1e-300"])
@example(doc=EXTREME_OPTICS["young forward wavelength=1e-290"])
def test_young_cli_exits_0_2_or_3_and_writes_finite_csv(tmp_path, doc):
    path = write_config(tmp_path, "fuzz.json", doc)
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code in (0, 2, 3)
    # validate refuses exactly the configs that simulate refuses
    assert (code == 2) == bool(validate(ExperimentConfig.from_dict(doc)))
    if code == 0:
        rows = np.genfromtxt(out, delimiter=",", skip_header=1, ndmin=2)
        assert rows.size > 0 and np.all(np.isfinite(rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(EXTREME_OPTICS))
def test_extreme_optics_exit_3_with_one_guard_line_and_no_csv(tmp_path, capsys, name):
    # numpy's own overflow warnings would print before the guard's message
    path = write_config(tmp_path, "extreme.json", EXTREME_OPTICS[name])
    out = tmp_path / "extreme.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical guard:"), err
    assert not out.exists()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_modes=st.integers(0, 6), trials=st.integers(0, 40), seed=st.integers(-1, 99),
       mode=st.sampled_from(["forward", "analytic"]))
def test_audit_cli_exits_0_2_or_3_and_writes_finite_report(tmp_path, n_modes, trials,
                                                           seed, mode):
    doc = {"experiment": "modes-audit", "mode": mode,
           "audit": {"n_modes": n_modes, "trials": trials}, "seed": seed}
    path = write_config(tmp_path, "fuzz.json", doc)
    out = tmp_path / "fuzz.out.json"
    out.unlink(missing_ok=True)
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is True and report["trials"] == trials
        assert np.isfinite(report["max_ratio_dev"])
