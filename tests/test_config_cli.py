"""Config validation, CSV/JSON emission, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import biphoton.cli as cli
import biphoton.forward as forward
from biphoton.analytic import YoungParams, young_two_photon
from biphoton.cli import FOCUS_COMPARE_TOL, YOUNG_COMPARE_TOL, main, run
from biphoton.config import (
    AUDIT_CHUNK,
    MAX_ARRAY_BYTES,
    ExperimentConfig,
    audit_array_bytes,
    load_config,
    validate,
)
from biphoton.errors import ConfigurationError
from biphoton.forward import forward_vs_reversed_young
from biphoton.grid import Grid1D
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
    (young_doc("compare", grid={"n": 32768, "dx": 2e-5}), "grid.n"),
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
    report = forward_vs_reversed_young(p, Grid1D(512, 2e-5), None, 0.25, 0.5)
    assert summary["max_deviation"] == report.max_rel_err
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
    # config must not load it.
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
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_audit_trials_beyond_one_word_spawn_keys_exit_2(tmp_path, monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("drew before rejecting the trial count")

    monkeypatch.setattr("biphoton.modes._audit_chunks", no_draws)
    doc = {"experiment": "modes-audit", "mode": "forward",
           "audit": {"n_modes": 2, "trials": 2 ** 32}, "seed": 0}
    diags = validate(ExperimentConfig.from_dict(doc))
    assert any(d.startswith("audit.trials") for d in diags), diags
    path = write_config(tmp_path, "big.json", doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert "audit.trials" in capsys.readouterr().err
    assert main(["audit", "--n", "2", "--trials", str(2 ** 32)]) == 2
    assert "trials" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


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


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=small_focus_docs())
def test_focus_cli_exits_0_2_or_3_and_writes_finite_csv(tmp_path, doc):
    path = write_config(tmp_path, "fuzz.json", doc)
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code in (0, 2, 3)
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


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=small_young_docs())
def test_young_cli_exits_0_2_or_3_and_writes_finite_csv(tmp_path, doc):
    path = write_config(tmp_path, "fuzz.json", doc)
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        rows = np.genfromtxt(out, delimiter=",", skip_header=1, ndmin=2)
        assert rows.size > 0 and np.all(np.isfinite(rows))


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
