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
- in ``elements.OffsetChirp.axis_op``, ``scale = chirp_scale(self.f, wl)`` (f**2 * wl)
  changed to ``f * wl * 0.05``: the scaled focus_compare ``reversed``
  column changes and its compare fails.

Two further relations hold to rounding, and are pinned where they were
measured bit-exact: the relay lengths L1 and L2 do not change a reversed
reading's normalized pattern, and every shipped sweep is mirror-symmetric,
x0 -> -x0 and r0 -> -r0. Where a column moves, it moves by at most
``ROUNDING`` of its peak.
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
# largest move, as a share of the column's peak, of a column that is not
# bit-identical under L1/L2 or mirror changes; the measured moves are 1.4e-20 m
# of a 40 um coordinate (3.4e-16) and up to 2.1e-15 of a value column's peak
ROUNDING = 4e-15


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


def load(name: str, mode: str) -> dict:
    doc = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    doc["mode"] = mode
    return doc


def assert_moves_by_rounding(got, want, exact: bool, what) -> None:
    if exact:
        assert np.array_equal(bits(got), bits(want)), what
    else:
        assert np.max(np.abs(got - want)) <= ROUNDING * np.max(np.abs(want)), what


# (L1, L2) against the shipped (0.25, 0.5), and the pairs at which the
# reversed readings and the compare's max_deviation were bit-identical
RELAYS = [(0.1, 0.9), (0.8, 0.15), (0.5, 0.25), (1.0, 2.0)]
EXACT_RELAYS = {
    ("young_compare", "reversed"): {(1.0, 2.0)},
    ("young_compare", "compare"): {(1.0, 2.0)},
    ("focus_compare", "compare"): {(0.5, 0.25), (1.0, 2.0)},
}


@pytest.mark.parametrize("name,mode", list(EXACT_RELAYS))
def test_relay_lengths_leave_the_normalized_pattern(tmp_path, name, mode):
    # Only the reversed trains take L1 and L2: a young compare's columns are
    # the analytic and forward ones, and its deviation reads the trains.
    doc = load(name, mode)
    want_summary, want = run_doc(doc, tmp_path / "base.csv")
    for relay in RELAYS:
        doc["L1"], doc["L2"] = relay
        summary, got = run_doc(doc, tmp_path / "relay.csv")
        exact = relay in EXACT_RELAYS[name, mode]
        assert list(got) == list(want)
        for column, vals in want.items():
            assert_moves_by_rounding(got[column], vals, exact or column != "reversed",
                                     (relay, column))
        if "max_deviation" in want_summary:
            # a deviation of the normalized columns, whose peaks are 1
            dev, want_dev = summary["max_deviation"], want_summary["max_deviation"]
            assert bits(dev) == bits(want_dev) if exact else abs(dev - want_dev) <= ROUNDING
            assert summary["passed"] is True


# the columns that are bit-identical under the mirror; the lateral cut's
# and the map's two_photon share each mirrored pair's radius
MIRRORS = {
    ("young_compare", "compare"): set(),
    ("young_compare", "reversed"): {"x0_m", "reversed"},
    ("focus_compare", "compare"): {"r0_m", "two_photon"},
    ("focus_lateral_analytic", "analytic"): {"two_photon"},
    ("focus_map_two_photon", "analytic"): {"z0_m", "two_photon"},
}


@pytest.mark.parametrize("name,mode", list(MIRRORS))
def test_every_sweep_is_mirror_symmetric(tmp_path, name, mode):
    # Each shipped x0 or r0 sweep runs from -a to a, so the mirror maps it
    # onto itself, row i onto row count-1-i; a map flips along its r0 axis.
    doc = load(name, mode)
    _, columns = run_doc(doc, tmp_path / "mirror.csv")
    second = doc["sweep"].get("second")
    shape = (doc["sweep"]["count"], -1 if second is None else second["count"])
    for column, vals in columns.items():
        vals = vals.reshape(shape)
        # 0.0 - x keeps a zero coordinate +0.0
        mirrored = 0.0 - vals[::-1] if column in ("x0_m", "r0_m") else vals[::-1]
        assert_moves_by_rounding(mirrored, vals, column in MIRRORS[name, mode], column)
