"""Exact unit scaling of every shipped sweep config.

Multiply every length and the wavelength by s. Every phase and argument the
package forms is a ratio of them: x*y/(dist*wavelength), z*r^2/(f^2*wavelength),
D*r/(f*wavelength) and the Lommel arguments. With s a power of 2, binary
floating point scales each length exactly and leaves each ratio bit for bit
the same. So a correct run gives coordinate columns exactly s times the
originals, bit-identical value columns, and summary periods, peak positions
and FWHMs exactly s times the originals. The check needs no oracle, and it
catches a wrong dimension that a test at fixed optics cannot see.

Two such mutants equal the original at the shipped f = 0.05 m, and no other
test kills them:

- in ``analytic.spot_offaxis_two_photon``, ``c = 2 pi z/(f^2 wavelength)``
  changed to ``2 pi z/(f wavelength)/0.05``: the scaled focus_axial,
  focus_compare and focus_map ``two_photon`` columns change;
- in ``elements._axis_chirps``, ``scale = f**2 * wl`` changed to
  ``f * wl * 0.05``: the scaled focus_compare ``reversed`` column changes
  and its compare fails.
"""
import copy
import json
from pathlib import Path

import numpy as np
import pytest

from biphoton.cli import run
from biphoton.config import ExperimentConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_CONFIGS = sorted(
    p.name for p in CONFIGS.glob("*.json")
    if json.loads(p.read_text(encoding="utf-8"))["experiment"] != "modes-audit")
# the config's lengths, the wavelength included; z0 and the sweep ends too
LENGTHS = ("wavelength", "f", "D", "x1", "slit_width", "L1", "L2", "z0")


def scaled(doc: dict, s: float) -> dict:
    doc = copy.deepcopy(doc)
    for key in LENGTHS:
        if doc.get(key) is not None:
            doc[key] *= s
    sweep = doc["sweep"]
    while sweep is not None:
        sweep["start"] *= s
        sweep["stop"] *= s
        sweep = sweep.get("second")
    if "grid" in doc:
        doc["grid"]["dx"] *= s
    return doc


def run_doc(doc: dict, out: Path):
    """The run's summary and its CSV as {column: float array}."""
    summary = run(ExperimentConfig.from_dict(doc), out=str(out))
    with open(out, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    return summary, dict(zip(header, np.array(rows).T))


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_scaling_every_length_by_a_power_of_2_is_exact(tmp_path, name):
    doc = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    want_summary, want = run_doc(doc, tmp_path / "base.csv")
    for s in (4.0, 1 / 16):
        summary, got = run_doc(scaled(doc, s), tmp_path / f"scaled_{s}.csv")
        assert list(got) == list(want)
        for column, vals in want.items():
            expected = s * vals if column.endswith("_m") else vals
            assert np.array_equal(bits(got[column]), bits(expected)), (s, column)
        for key in ("period_m", "period_measured_m", "peak_position_m", "fwhm_m"):
            assert summary.get(key, {}).keys() == want_summary.get(key, {}).keys(), key
            for column, length in want_summary.get(key, {}).items():
                assert (summary[key][column] is None) == (length is None), (s, key, column)
                if length is not None:
                    assert summary[key][column] == s * length, (s, key, column)
        if "max_deviation" in want_summary:
            assert bits(summary["max_deviation"]) == bits(want_summary["max_deviation"])
            assert summary["passed"] is want_summary["passed"] is True
