"""Command-line experiment runner: sweeps to CSV plus a JSON summary.

Three subcommands: ``simulate`` runs a sweep from a JSON config, ``audit``
runs the randomized mode-space identity check, ``validate`` reports config
diagnostics without running. Exit codes: 0 success, 2 configuration problem,
3 tripped numerical guard or failed check (an audit deviation above
``modes.AUDIT_TOLERANCE``, a ``compare`` deviation above ``YOUNG_COMPARE_TOL``
or ``FOCUS_COMPARE_TOL``; the report, CSV and summary are written first).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ._value import asdict
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
    NonFiniteError,
    QuadratureError,
    SamplingError,
    ShapeError,
)
from .forward import forward_vs_reversed_young, snap_young_sweep, young_coincidence_at
from .grid import Grid1D, Grid2D, point_source  # noqa: F401  (re-exported)
from .modes import time_reversal_audit

# Largest forward-vs-reversed deviation a young `compare` run accepts, on
# the detection samples its sweep snaps to. Both sides sum the same sampled
# kernel, so they agree to rounding: the shipped config reaches 1.2e-15.
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
    """Write ``rows`` with every value as ``.17g``; pass Python floats
    (``ndarray.tolist()``), which format faster than numpy scalars.

    One format string writes each row. A ``.17g`` number holds no comma,
    quote or newline, so these are the bytes ``csv.writer`` wrote.
    """
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _write_summary(csv_path: str, summary: dict) -> str:
    path = str(Path(csv_path).with_suffix(".summary.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return path


def _normalize(columns: Dict[str, np.ndarray], raw: bool) -> Dict[str, np.ndarray]:
    """Peak-normalize each column unless ``raw``; NonFiniteError names the
    first column holding a NaN or Inf, so no such value reaches the CSV."""
    for name, vals in columns.items():
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError(f"the {name} column leaves the float range (NaN or Inf)")
    if raw:
        return columns
    return {name: vals / vals.max() if vals.max() > 0 else vals
            for name, vals in columns.items()}


def _peak_positions(coords: np.ndarray, columns: Dict[str, np.ndarray]) -> dict:
    return {name: float(coords[int(np.argmax(vals))])
            for name, vals in columns.items()}


def _distinct(coords: np.ndarray, columns: Dict[str, np.ndarray]) -> tuple:
    """The sweep on its distinct, increasing coordinates, one row each: a
    sweep snapped onto a coarser grid repeats rows, and peaks, periods and
    widths are taken here."""
    distinct, first_row = np.unique(coords, return_index=True)
    return distinct, {name: vals[first_row] for name, vals in columns.items()}


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


def _shared_radii(r0: np.ndarray) -> np.ndarray:
    """|r0|, with one radius for the two points of each mirrored pair.

    ``np.linspace``'s symmetric points are not exact negatives: their |r0|
    differ by up to 3 ulps of the sweep's largest |r0|. Radii within 8 of
    those ulps take the smallest of them, so the disk-transform table
    evaluates each radius once.
    """
    r = np.abs(r0)
    s = np.sort(r)
    kept = s[np.concatenate(([True], np.diff(s) > 8 * np.spacing(s[-1])))]
    return kept[np.searchsorted(kept, r, side="right") - 1]


# ------------------------------------------------------------------- young


def _run_young(cfg: ExperimentConfig, raw: bool, out: str) -> dict:
    p = YoungParams(x1=cfg.x1, f=cfg.f, wavelength=cfg.wavelength)
    x = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    g = None if cfg.mode == "analytic" else Grid1D(cfg.grid.n, cfg.grid.dx)
    columns: Dict[str, np.ndarray] = {}

    # optics beyond the float range give NaN or Inf here, which _normalize names
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.mode in ("analytic", "compare"):
            columns["two_photon"] = young_two_photon(x, p)
            columns["classical"] = young_classical(x, p)
        if cfg.mode in ("forward", "compare"):
            columns["forward"] = young_coincidence_at(p, g, x, cfg.slit_width)
    if cfg.mode == "reversed":
        det, sources, row = snap_young_sweep(p, g, x)
        train = reversed_young_train(p.f, p.x1, cfg.L1, cfg.L2,
                                     slit_width=cfg.slit_width)
        x = det.coords[sources][row]
        columns["reversed"] = run_train_batch(det, p.wavelength, sources, train)[row]

    columns = _normalize(columns, raw)
    _write_csv(out, ["x0_m"] + list(columns),
               zip(x.tolist(), *(v.tolist() for v in columns.values())))

    xs, cut = _distinct(x, columns)
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
        "period_measured_m": {name: _measured_period(xs, vals)
                              for name, vals in cut.items()},
        "peak_position_m": _peak_positions(xs, cut),
    }
    if cfg.mode == "compare":
        # measured on the distinct detection samples the sweep snaps to
        report = forward_vs_reversed_young(p, g, cfg.slit_width, cfg.L1, cfg.L2, x)
        summary["max_deviation"] = report.max_rel_err
        summary["deviation_points"] = report.n_points
        summary["tolerance"] = YOUNG_COMPARE_TOL
        summary["passed"] = report.max_rel_err <= YOUNG_COMPARE_TOL

    print(f"two-photon fringe period {_format_length(summary['period_m']['two_photon'])}"
          f", classical {_format_length(summary['period_m']['classical'])}")
    if "max_deviation" in summary:
        print(f"forward vs reversed max deviation {summary['max_deviation']:.3e} "
              f"(tolerance {YOUNG_COMPARE_TOL:.0e})")
    return summary


# ------------------------------------------------------------------- focus


def _run_focus(cfg: ExperimentConfig, raw: bool, out: str) -> dict:
    p = FocusParams(D=cfg.D, f=cfg.f, wavelength=cfg.wavelength)
    first = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    sw2 = cfg.sweep.second
    second = None if sw2 is None else np.linspace(sw2.start, sw2.stop, sw2.count)
    # the r0 and z0 axes; a cut holds the other coordinate fixed
    fixed = np.array([cfg.z0 if cfg.sweep.axis == "r0" else 0.0])
    inner = fixed if second is None else second
    r_axis, z_axis = (first, inner) if cfg.sweep.axis == "r0" else (inner, first)
    if cfg.mode in ("reversed", "compare"):
        grid = Grid2D(cfg.grid.n, cfg.grid.n, cfg.grid.dx, cfg.grid.dx)
        # every column is evaluated at the source sample the train runs from
        x_axis = grid.axes[1]
        sources, r_row = x_axis.snap(r_axis, "lateral offset", "the source grid")
        r_axis = x_axis.coords[sources][r_row]
    # output rows: the first sweep axis is the slow (outer) one
    slow, fast = np.divmod(np.arange(len(first) * len(inner)), len(inner))
    ir, iz = (slow, fast) if cfg.sweep.axis == "r0" else (fast, slow)
    axes = {"r0_m": r_axis[ir], "z0_m": z_axis[iz]}
    heads = list(axes) if second is not None else [f"{cfg.sweep.axis}_m"]
    z0s, coords = axes["z0_m"], axes[heads[0]]

    columns: Dict[str, np.ndarray] = {}
    if cfg.mode in ("analytic", "compare"):
        columns["two_photon"] = spot_offaxis_two_photon(_shared_radii(r_axis)[ir], z0s, p)
        if second is None:
            # closed-form classical references exist on the axes only
            if cfg.sweep.axis == "r0" and cfg.z0 == 0.0:
                columns["classical"] = spot_lateral(coords, p, "classical")
            elif cfg.sweep.axis == "z0":
                columns["classical"] = spot_axial(coords, p, "classical")
    if cfg.mode in ("reversed", "compare"):
        # one batched run per z0 over the distinct source samples, all at y = 0
        rows = np.column_stack([np.full(len(sources), grid.ny // 2), sources])
        readings = np.array([
            run_train_batch(grid, p.wavelength, rows,
                            reversed_focus_train(p.f, p.D, float(z0), cfg.L1, cfg.L2))
            for z0 in z_axis])
        columns["reversed"] = readings[iz, r_row[ir]]

    columns = _normalize(columns, raw)
    _write_csv(out, heads + list(columns), zip(*(axes[h].tolist() for h in heads),
                                               *(v.tolist() for v in columns.values())))

    summary = {
        "experiment": cfg.experiment,
        "mode": cfg.mode,
        "csv": out,
        "n_rows": len(coords),
        "columns": list(columns),
    }
    if second is None:
        distinct, cut = _distinct(coords, columns)
        summary["peak_position_m"] = _peak_positions(distinct, cut)
        summary["fwhm_m"] = {name: _try_fwhm(distinct, vals)
                             for name, vals in cut.items()}
        for name, val in summary["fwhm_m"].items():
            if val is not None:
                print(f"{name} FWHM {_format_length(val)}")
    if cfg.mode == "compare":
        dev = float(np.max(np.abs(columns["two_photon"] - columns["reversed"])))
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


def exit_code(task: Callable[[], Union[dict, int]]) -> int:
    """Run ``task`` and return the exit code of its outcome.

    ``task`` returns an exit code or a summary. A summary whose ``passed``
    is False gives 3: its outputs are written, but the run fails its stated
    tolerance. ``ConfigurationError`` and ``DomainError`` give 2,
    ``SamplingError``, ``QuadratureError`` (disk transform bounds) and
    ``NonFiniteError`` 3; each names its cause on stderr. The example
    scripts end through here too.
    """
    try:
        result = task()
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SamplingError, QuadratureError, NonFiniteError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    if isinstance(result, int):
        return result
    if result.get("passed") is False:
        print(f"check failed: deviation above the tolerance {result['tolerance']!r}",
              file=sys.stderr)
        return 3
    return 0


def _audit(args: argparse.Namespace) -> dict:
    report = time_reversal_audit(args.n, args.trials, args.seed)
    print(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return report.to_dict()


def _validate(args: argparse.Namespace) -> int:
    diags = validate_config(load_config(args.config))
    print("\n".join(diags) if diags else "ok")
    return 2 if diags else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return exit_code(lambda: run(load_config(args.config), raw=args.raw, out=args.out))
    if args.command == "audit":
        return exit_code(lambda: _audit(args))
    return exit_code(lambda: _validate(args))


if __name__ == "__main__":
    sys.exit(main())
