"""Seeded `biphoton simulate` configs for each workload, and the checks on their outputs.

A workload is a list of steps; one step is one ``biphoton simulate --config``
call on a config written here. The seed changes only inputs that leave the
amount of work the same: grid sizes and point counts are fixed per workload.

Generation uses only the standard library, so ``run.py`` can write the
configs without importing numpy. The checks run in the worker process.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

WL = 7.8e-7
F = 0.05
D = 0.0127
L1 = 0.25
L2 = 0.5

X1_NOMINAL = 5.0e-4
# Analytic-vs-reversed tolerance for the focus cut. At n=1024, dx=1 um the
# deviation is about 2e-5; a coarse grid (8x8 at 1 um) gives 4e-2.
FOCUS_TOL = 1e-4
YOUNG_DEV_TOL = 1e-12
AXIAL_RTOL = 1e-12


@dataclass(frozen=True)
class Step:
    """One `biphoton simulate` call: a config written to <stem>.json."""

    stem: str
    config: dict
    raw: bool = False

    def argv(self, workdir: Path) -> List[str]:
        argv = ["simulate", "--config", str(workdir / f"{self.stem}.json"),
                "--out", str(self.out(workdir))]
        return argv + (["--raw"] if self.raw else [])

    def out(self, workdir: Path) -> Path:
        ext = "json" if self.config["experiment"] == "modes-audit" else "csv"
        return workdir / f"{self.stem}.out.{ext}"


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    steps: List[Step]
    # size in bytes and description of the largest array one run allocates
    largest_array: Dict[str, object]


# Full sizes, as the benchmark runs them; --smoke shrinks every one. The
# *_ns lists are the grid sizes of the time-vs-n fits in the traced run;
# setup_probes set-up probes run before the loop and as many after it.
SIZES = {
    "full": {"young_n": 2048, "young_dx": 2.0e-5, "young_count": 401,
             "focus_n": 1024, "focus_dx": 1.0e-6, "focus_count": 9,
             "map_r0": 81, "map_z0": 41, "audit_n": 16, "audit_trials": 10000,
             "ns_1d": [256, 512, 1024, 2048], "ns_2d": [128, 256, 512, 1024],
             "setup_probes": 3},
    "smoke": {"young_n": 512, "young_dx": 8.0e-5, "young_count": 101,
              "focus_n": 512, "focus_dx": 2.0e-6, "focus_count": 5,
              "map_r0": 9, "map_z0": 5, "audit_n": 4, "audit_trials": 200,
              "ns_1d": [64, 128, 256], "ns_2d": [32, 64, 128],
              "setup_probes": 1},
}


def young(seed: int, size: str = "full") -> Workload:
    """Young compare: dense pair evolution plus n small reversed trains."""
    s = SIZES[size]
    rng = random.Random(f"young/{seed}")
    n, dx, count = s["young_n"], s["young_dx"], s["young_count"]
    # x1 within +-10% of 0.5 mm, on a grid sample so the delta slits are not
    # snapped and the forward fringe keeps the period f*wl/(4*x1) exactly.
    ks = [k for k in range(1, n // 2)
          if abs(k * dx - X1_NOMINAL) <= 0.1 * X1_NOMINAL]
    x1 = rng.choice(ks) * dx
    step = 8.0e-5 / (count - 1)
    offset = rng.random() * step
    cfg = {
        "experiment": "young", "mode": "compare", "wavelength": WL, "f": F,
        "x1": x1, "L1": L1, "L2": L2,
        "sweep": {"axis": "x0", "start": -4.0e-5 + offset,
                  "stop": 4.0e-5 + offset, "count": count},
        "grid": {"n": n, "dx": dx},
    }
    return Workload("young", size, [Step("young", cfg)],
                    {"bytes": n * n * 16, "what": f"pair amplitude psi, {n}x{n} complex128"})


def focus(seed: int, size: str = "full") -> Workload:
    """Focus compare: a few 2-D reversed trains on large arrays."""
    s = SIZES[size]
    rng = random.Random(f"focus/{seed}")
    n, count, dx = s["focus_n"], s["focus_count"], s["focus_dx"]
    half = (count - 1) // 2 * dx
    # Whole-cell offset: every source point stays on a grid sample, so the
    # reversed train and the closed form see the same r0.
    offset = rng.randint(-2, 2) * dx
    cfg = {
        "experiment": "focus", "mode": "compare", "wavelength": WL, "f": F,
        "D": D, "L1": L1, "L2": L2, "z0": 2.0e-5,
        "sweep": {"axis": "r0", "start": -half + offset, "stop": half + offset,
                  "count": count},
        "grid": {"n": n, "dx": dx},
    }
    return Workload("focus", size, [Step("focus", cfg)],
                    {"bytes": n * n * 16, "what": f"2-D field, {n}x{n} complex128"})


def closed_form(seed: int, size: str = "full") -> Workload:
    """Analytic focus map plus a mode-space audit; no sampled field at all."""
    s = SIZES[size]
    rng = random.Random(f"closed_form/{seed}")
    fmap = {
        "experiment": "focus", "mode": "analytic", "wavelength": WL, "f": F,
        "D": D,
        "sweep": {"axis": "r0", "start": -3.0e-6, "stop": 3.0e-6,
                  "count": s["map_r0"],
                  "second": {"axis": "z0", "start": -6.0e-5, "stop": 6.0e-5,
                             "count": s["map_z0"]}},
    }
    audit = {"experiment": "modes-audit", "mode": "forward",
             "audit": {"n_modes": s["audit_n"], "trials": s["audit_trials"]},
             "seed": rng.randrange(2 ** 31)}
    # The finest quadrature level the map reaches is 512 panels x 8 nodes.
    return Workload("closed_form", size,
                    [Step("map", fmap, raw=True), Step("audit", audit)],
                    {"bytes": 512 * 8 * 16,
                     "what": "disk quadrature integrand, 512 panels x 8 nodes, complex128"})


WORKLOADS = {"young": young, "focus": focus, "closed_form": closed_form}


def write(workload: Workload, workdir: Path) -> None:
    """Write every step's config and the step list the worker reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    for st in workload.steps:
        (workdir / f"{st.stem}.json").write_text(json.dumps(st.config, indent=2) + "\n",
                                                 encoding="utf-8")
    doc = {"workload": workload.name, "size": workload.size,
           "steps": [{"stem": st.stem, "config": st.config, "raw": st.raw}
                     for st in workload.steps],
           "largest_array": workload.largest_array}
    (workdir / "steps.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read(workdir: Path) -> Workload:
    doc = json.loads((workdir / "steps.json").read_text(encoding="utf-8"))
    steps = [Step(d["stem"], d["config"], d["raw"]) for d in doc["steps"]]
    return Workload(doc["workload"], doc["size"], steps, doc["largest_array"])


# ------------------------------------------------------------------ checks


def _read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(v) for v in r] for r in rows[1:]]
    return header, body


def _finite_csv(path: Path, rows_expected: int, problems: List[str]):
    header, body = _read_csv(path)
    if len(body) != rows_expected:
        problems.append(f"{path.name}: {len(body)} rows, expected {rows_expected}")
    if not all(math.isfinite(v) for r in body for v in r):
        problems.append(f"{path.name}: non-finite value")
    return header, body


def _summary(out: Path) -> dict:
    return json.loads(out.with_suffix(".summary.json").read_text(encoding="utf-8"))


def _check_young(workload: Workload, workdir: Path, problems: List[str]) -> None:
    st = workload.steps[0]
    cfg, out = st.config, st.out(workdir)
    _finite_csv(out, cfg["sweep"]["count"], problems)
    summary = _summary(out)
    dev = summary.get("max_deviation")
    if dev is None or not dev <= YOUNG_DEV_TOL:
        problems.append(f"young max_deviation {dev!r} exceeds {YOUNG_DEV_TOL}")
    sw = cfg["sweep"]
    step = (sw["stop"] - sw["start"]) / (sw["count"] - 1)
    expected = cfg["f"] * cfg["wavelength"] / (4 * cfg["x1"])
    for column in ("two_photon", "forward"):
        got = summary["period_measured_m"].get(column)
        if got is None or not abs(got - expected) <= step:
            problems.append(f"young {column} period {got!r} not within "
                            f"{step:.3g} m of {expected:.6g} m")


def _check_focus(workload: Workload, workdir: Path, problems: List[str]) -> None:
    st = workload.steps[0]
    out = st.out(workdir)
    _finite_csv(out, st.config["sweep"]["count"], problems)
    dev = _summary(out).get("max_deviation")
    if dev is None or not dev <= FOCUS_TOL:
        problems.append(f"focus analytic-vs-reversed deviation {dev!r} exceeds {FOCUS_TOL}")


def _check_closed_form(workload: Workload, workdir: Path, problems: List[str]) -> None:
    from biphoton.analytic import FocusParams, spot_axial

    fmap, audit = workload.steps
    sw = fmap.config["sweep"]
    header, body = _finite_csv(fmap.out(workdir), sw["count"] * sw["second"]["count"],
                               problems)
    ir, iz, iv = header.index("r0_m"), header.index("z0_m"), header.index("two_photon")
    axis = [(r[iz], r[iv]) for r in body if abs(r[ir]) < 1e-15]
    if len(axis) != sw["second"]["count"]:
        problems.append(f"map: {len(axis)} on-axis rows, expected {sw['second']['count']}")
    p = FocusParams(D=fmap.config["D"], f=fmap.config["f"],
                    wavelength=fmap.config["wavelength"])
    for z, val in axis:
        ref = spot_axial(z, p, "two_photon")
        if not abs(val - ref) <= AXIAL_RTOL * abs(ref):
            problems.append(f"map on-axis value at z0={z:.3g} off by "
                            f"{abs(val - ref) / abs(ref):.3g} relative")
            break
    report = json.loads(audit.out(workdir).read_text(encoding="utf-8"))
    if report.get("passed") is not True:
        problems.append(f"audit did not pass: {report}")


CHECKS = {"young": _check_young, "focus": _check_focus,
          "closed_form": _check_closed_form}


def check(workload: Workload, workdir: Path) -> List[str]:
    """Problems found in the outputs of the last run; empty means correct."""
    problems: List[str] = []
    try:
        CHECKS[workload.name](workload, workdir, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
