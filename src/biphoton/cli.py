"""Command-line experiment runner: sweeps to CSV plus a JSON summary.

Three subcommands: ``simulate`` runs a sweep from a JSON config, ``audit``
runs the randomized mode-space identity check, ``validate`` reports config
diagnostics without running. Exit codes: 0 success, 2 configuration problem,
3 tripped numerical guard or failed check (an audit that did not pass, a
``compare`` deviation above ``YOUNG_COMPARE_TOL`` or ``FOCUS_COMPARE_TOL``;
the report, CSV and summary are written first).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .analytic import (
    FocusParams,
    YoungParams,
    fwhm,
    spot_axial,
    spot_lateral,
    spot_offaxis_two_photon,
    young_classical,
    young_two_photon,
)
from .config import ExperimentConfig, load_config
from .config import validate as validate_config
from .elements import (
    reversed_focus_train,
    reversed_young_train,
    run_train,  # noqa: F401  (re-exported: callers look it up here)
    run_train_batch,
)
from .errors import (
    ConfigurationError,
    DomainError,
    QuadratureError,
    SamplingError,
    ShapeError,
)
from .forward import forward_vs_reversed_young, young_coincidence_at
from .grid import Grid1D, Grid2D, point_source  # noqa: F401  (re-exported)
from .modes import time_reversal_audit

# Largest forward-vs-reversed deviation a young `compare` run accepts. Both
# sides sum the same sampled kernel, so they agree to rounding: the shipped
# config reaches 1.8e-15.
YOUNG_COMPARE_TOL = 1e-12
# Largest analytic-vs-reversed deviation a focus `compare` run accepts; the
# shipped 1024^2, 1 um config reaches 1.8e-5, an 8x8 grid 4.6e-2.
FOCUS_COMPARE_TOL = 1e-3


def _format_length(meters: float) -> str:
    if abs(meters) < 1e-6:
        return f"{meters * 1e9:.4g} nm"
    if abs(meters) < 1e-3:
        return f"{meters * 1e6:.4g} µm"
    return f"{meters * 1e3:.4g} mm"


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])


def _write_summary(csv_path: str, summary: dict) -> str:
    path = str(Path(csv_path).with_suffix(".summary.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return path


def _normalize(columns: Dict[str, np.ndarray], raw: bool) -> Dict[str, np.ndarray]:
    if raw:
        return columns
    out = {}
    for name, vals in columns.items():
        peak = np.max(vals)
        out[name] = vals / peak if peak > 0 else vals
    return out


def _peak_positions(coords: np.ndarray, columns: Dict[str, np.ndarray]) -> dict:
    return {name: float(coords[int(np.argmax(vals))])
            for name, vals in columns.items()}


def _measured_period(coords: np.ndarray, vals: np.ndarray) -> Optional[float]:
    inner = vals[1:-1]
    peaks = np.flatnonzero((inner >= vals[:-2]) & (inner >= vals[2:])) + 1
    if len(peaks) < 2:
        return None
    return float(np.mean(np.diff(coords[peaks])))


def _try_fwhm(coords: np.ndarray, vals: np.ndarray) -> Optional[float]:
    try:
        return fwhm(coords, vals)
    except ShapeError:
        return None


# ------------------------------------------------------------------- young


def _run_young(cfg: ExperimentConfig, raw: bool, out: str) -> dict:
    p = YoungParams(x1=cfg.x1, f=cfg.f, wavelength=cfg.wavelength)
    x = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    columns: Dict[str, np.ndarray] = {}

    if cfg.mode in ("analytic", "compare"):
        columns["two_photon"] = young_two_photon(x, p)
        columns["classical"] = young_classical(x, p)
    if cfg.mode in ("forward", "compare"):
        g = Grid1D(cfg.grid.n, cfg.grid.dx)
        columns["forward"] = young_coincidence_at(p, g, x, cfg.slit_width)
    if cfg.mode == "reversed":
        g = Grid1D(cfg.grid.n, cfg.grid.dx)
        det = Grid1D(g.n, p.f * p.wavelength / (g.n * g.dx))
        train = reversed_young_train(p.f, p.x1, cfg.L1, cfg.L2,
                                     slit_width=cfg.slit_width)
        for xi in x:
            if not det.contains(xi):
                raise DomainError(
                    f"sweep point {float(xi)!r} m is outside the reversed-train "
                    f"source grid (half-width {det.n * det.dx / 2:.3e} m)")
        idx = np.array([det.index_of(xi) for xi in x])
        sources, row = np.unique(idx, return_inverse=True)
        x = det.coords[idx]
        columns["reversed"] = run_train_batch(det, p.wavelength, sources, train)[row]

    columns = _normalize(columns, raw)
    _write_csv(out, ["x0_m"] + list(columns), zip(x, *columns.values()))

    summary = {
        "experiment": cfg.experiment,
        "mode": cfg.mode,
        "csv": out,
        "n_rows": len(x),
        "columns": list(columns),
        "period_m": {
            "two_photon": p.f * p.wavelength / (4 * p.x1),
            "classical": p.f * p.wavelength / (2 * p.x1),
        },
        "period_measured_m": {name: _measured_period(x, vals)
                              for name, vals in columns.items()},
        "peak_position_m": _peak_positions(x, columns),
    }
    if cfg.mode == "compare":
        report = forward_vs_reversed_young(
            p, Grid1D(cfg.grid.n, cfg.grid.dx), cfg.slit_width, cfg.L1, cfg.L2)
        summary["max_deviation"] = report.max_rel_err
        summary["tolerance"] = YOUNG_COMPARE_TOL
        summary["passed"] = report.max_rel_err <= YOUNG_COMPARE_TOL

    print(f"two-photon fringe period {_format_length(summary['period_m']['two_photon'])}"
          f", classical {_format_length(summary['period_m']['classical'])}")
    if "max_deviation" in summary:
        print(f"forward vs reversed max deviation {summary['max_deviation']:.3e} "
              f"(tolerance {YOUNG_COMPARE_TOL:.0e})")
    return summary


# ------------------------------------------------------------------- focus


def _snap_to_sources(grid: Grid2D, points) -> tuple:
    """Move each (r0, z0) point's r0 onto the nearest source sample.

    Returns the snapped points and the ``(iy, ix)`` source index of each.
    """
    snapped, indices = [], []
    for r0, z0 in points:
        if not grid.contains((r0, 0.0)):
            raise DomainError(
                f"lateral offset {float(r0)!r} m is outside the source grid")
        iy, ix = grid.index_of((r0, 0.0))
        snapped.append((float(grid.xs[ix]), z0))
        indices.append((iy, ix))
    return snapped, indices


def _focus_reversed(cfg: ExperimentConfig, p: FocusParams, grid: Grid2D,
                    points, indices) -> np.ndarray:
    """Reversed-train reading at each point: one batched run per distinct z0."""
    z0s = np.array([z0 for _, z0 in points])
    indices = np.array(indices)
    out = np.empty(len(points))
    for z0 in np.unique(z0s):
        rows = np.flatnonzero(z0s == z0)
        sources, row = np.unique(indices[rows], axis=0, return_inverse=True)
        train = reversed_focus_train(p.f, p.D, float(z0), cfg.L1, cfg.L2)
        out[rows] = run_train_batch(grid, p.wavelength, sources, train)[row.ravel()]
    return out


def _run_focus(cfg: ExperimentConfig, raw: bool, out: str) -> dict:
    p = FocusParams(D=cfg.D, f=cfg.f, wavelength=cfg.wavelength)
    first = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    second = None
    if cfg.sweep.second is not None:
        second = np.linspace(cfg.sweep.second.start, cfg.sweep.second.stop,
                             cfg.sweep.second.count)

    def lattice():
        # (r0, z0) per output row; first axis is the slow (outer) one
        if second is None:
            fixed = cfg.z0 if cfg.sweep.axis == "r0" else 0.0
            for v in first:
                yield (v, fixed) if cfg.sweep.axis == "r0" else (fixed, v)
        else:
            for a in first:
                for b in second:
                    yield (a, b) if cfg.sweep.axis == "r0" else (b, a)

    points = list(lattice())
    if cfg.mode in ("reversed", "compare"):
        grid = Grid2D(cfg.grid.n, cfg.grid.n, cfg.grid.dx, cfg.grid.dx)
        # every column is evaluated at the source sample the train runs from
        points, indices = _snap_to_sources(grid, points)
    if second is None:
        coords = np.array([pt[0] if cfg.sweep.axis == "r0" else pt[1]
                           for pt in points])
    columns: Dict[str, np.ndarray] = {}
    if cfg.mode in ("analytic", "compare"):
        r0s, z0s = np.array(points, dtype=float).T
        columns["two_photon"] = spot_offaxis_two_photon(r0s, z0s, p)
        if second is None:
            # closed-form classical references exist on the axes only
            if cfg.sweep.axis == "r0" and cfg.z0 == 0.0:
                columns["classical"] = spot_lateral(coords, p, "classical")
            elif cfg.sweep.axis == "z0":
                columns["classical"] = spot_axial(coords, p, "classical")
    if cfg.mode in ("reversed", "compare"):
        columns["reversed"] = _focus_reversed(cfg, p, grid, points, indices)

    columns = _normalize(columns, raw)
    if second is None:
        coord_name = "r0_m" if cfg.sweep.axis == "r0" else "z0_m"
        _write_csv(out, [coord_name] + list(columns),
                   zip(coords, *columns.values()))
    else:
        _write_csv(out, ["r0_m", "z0_m"] + list(columns),
                   (tuple(pt) + row for pt, row in
                    zip(points, zip(*columns.values()))))

    summary = {
        "experiment": cfg.experiment,
        "mode": cfg.mode,
        "csv": out,
        "n_rows": len(points),
        "columns": list(columns),
    }
    if second is None:
        # r0 snapped onto a coarser source grid repeats rows with equal
        # values; widths need distinct, increasing coordinates
        distinct, first_row = np.unique(coords, return_index=True)
        cut = {name: vals[first_row] for name, vals in columns.items()}
        summary["peak_position_m"] = _peak_positions(distinct, cut)
        summary["fwhm_m"] = {name: _try_fwhm(distinct, vals)
                             for name, vals in cut.items()}
        for name, val in summary["fwhm_m"].items():
            if val is not None:
                print(f"{name} FWHM {_format_length(val)}")
    if cfg.mode == "compare":
        pair = columns["two_photon"]
        dev = float(np.max(np.abs(pair - columns["reversed"])))
        summary["max_deviation"] = dev
        summary["tolerance"] = FOCUS_COMPARE_TOL
        summary["passed"] = dev <= FOCUS_COMPARE_TOL
        print(f"analytic vs reversed max deviation {dev:.3e} "
              f"(tolerance {FOCUS_COMPARE_TOL:.0e})")
    return summary


# ------------------------------------------------------------------- audit


def _run_audit(cfg: ExperimentConfig, out: str) -> dict:
    report = time_reversal_audit(cfg.audit.n_modes, cfg.audit.trials, cfg.seed)
    summary = report.to_dict()
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(f"audit {'passed' if report.passed else 'FAILED'}: "
          f"max ratio deviation {report.max_ratio_dev:.3e} over "
          f"{report.trials} trials (N={report.n_modes})")
    return summary


def run(cfg: ExperimentConfig, raw: bool = False,
        out: Optional[str] = None) -> dict:
    """Execute a validated config; returns the summary dict.

    Writes the CSV (or audit JSON) to ``out``/config ``output``/a default
    name, plus a ``.summary.json`` next to it for sweep experiments.
    """
    diags = validate_config(cfg)
    if diags:
        raise ConfigurationError("invalid config: " + "; ".join(diags))
    ext = "json" if cfg.experiment == "modes-audit" else "csv"
    out = out or cfg.output or f"{cfg.experiment.replace('-', '_')}_{cfg.mode}.{ext}"
    if cfg.experiment == "modes-audit":
        return _run_audit(cfg, out)
    runner = _run_young if cfg.experiment == "young" else _run_focus
    summary = runner(cfg, raw, out)
    summary["config"] = asdict(cfg)
    path = _write_summary(out, summary)
    print(f"wrote {out} and {path}")
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon interference sweeps and time-reversal audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a sweep from a JSON config")
    sim.add_argument("--config", required=True, help="path to JSON config")
    sim.add_argument("--raw", action="store_true",
                     help="write unnormalized values instead of peak-normalized")
    sim.add_argument("--out", help="override the output path")

    aud = sub.add_parser("audit", help="randomized mode-space identity check")
    aud.add_argument("--n", type=int, required=True, help="mode count")
    aud.add_argument("--trials", type=int, required=True)
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--out", help="also write the JSON report here")

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            summary = run(load_config(args.config), raw=args.raw, out=args.out)
        elif args.command == "audit":
            report = time_reversal_audit(args.n, args.trials, args.seed)
            print(report.to_json())
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json() + "\n")
            summary = report.to_dict()
        else:
            diags = validate_config(load_config(args.config))
            if diags:
                for d in diags:
                    print(d)
                return 2
            print("ok")
            return 0
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SamplingError, QuadratureError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    if summary.get("passed") is False:
        # the outputs are written; the run still fails its stated tolerance
        print(f"check failed: deviation above the tolerance {summary['tolerance']!r}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
