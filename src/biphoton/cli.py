"""Command-line experiment runner: sweeps to CSV plus a JSON summary.

Three subcommands: ``simulate`` runs a sweep from a JSON config, ``audit``
runs the randomized mode-space identity check, ``validate`` reports config
diagnostics without running. A sweep computes every column and check
before it writes, and ``_write`` is the one place that opens an output file.
Exit codes: 0 success; 2 configuration problem or an output path that cannot
be written (a summary that cannot be written leaves its CSV behind); 3
tripped numerical guard (nothing is written) or failed check (an audit
deviation above ``modes.AUDIT_TOLERANCE``, a ``compare`` deviation above
``YOUNG_COMPARE_TOL`` or ``FOCUS_COMPARE_TOL``; the report, CSV and summary
are written first).
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


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``: the one place this module opens an output
    file. An OSError becomes a ConfigurationError that names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _write_csv(path: str, axes: Dict[str, tuple],
               columns: Dict[str, np.ndarray]) -> None:
    """Write the coordinate columns, then the value columns, every number as
    ``.17g``.

    ``axes`` maps each coordinate column to its runner's ``(axis, index)``
    pair: the column is ``axis[index]``. Each axis value is formatted once
    and its text repeated on the rows that index it, so a map's few
    distinct coordinates are not formatted on every row, and -0.0 and 0.0
    keep their own texts. The value columns are formatted row by row from
    Python floats (``ndarray.tolist()``), which format faster than numpy
    scalars; one format string, mapped over the columns, writes each row. A
    ``.17g`` number holds no comma, quote or newline, so these are the bytes
    ``csv.writer`` wrote.
    """
    texts = []
    for axis, index in axes.values():
        labels = [f"{v:.17g}" for v in axis.tolist()]
        texts.append([labels[i] for i in index.tolist()])
    line = ",".join(["{}"] * len(axes) + ["{:.17g}"] * len(columns)) + "\n"
    values = [v.tolist() for v in columns.values()]
    _write(path, ",".join([*axes, *columns]) + "\n"
           + "".join(map(line.format, *texts, *values)))


def _write_summary(csv_path: str, summary: dict) -> str:
    path = str(Path(csv_path).with_suffix(".summary.json"))
    _write(path, json.dumps(summary, indent=2) + "\n")
    return path


def _normalize(columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Peak-normalize each column; NonFiniteError names the first column
    holding a NaN or Inf, so no such value reaches the CSV."""
    for name, vals in columns.items():
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError(f"the {name} column leaves the float range (NaN or Inf)")
    return {name: vals / vals.max() if vals.max() > 0 else vals
            for name, vals in columns.items()}


def _peak_at(coords: np.ndarray, vals: np.ndarray) -> float:
    return float(coords[int(np.argmax(vals))])


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


def _run_young(cfg: ExperimentConfig) -> tuple:
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
    axis = (x, np.arange(len(x)))
    if cfg.mode == "reversed":
        det, sources, row = snap_young_sweep(p, g, x)
        train = reversed_young_train(p.f, p.x1, cfg.L1, cfg.L2,
                                     slit_width=cfg.slit_width)
        axis = (det.coords[sources], row)
        columns["reversed"] = run_train_batch(det, p.wavelength, sources, train)[row]

    fields = {"period_m": {"two_photon": p.f * p.wavelength / (4 * p.x1),
                           "classical": p.f * p.wavelength / (2 * p.x1)},
              "period_measured_m": _measured_period, "peak_position_m": _peak_at}

    def deviation(normal: Dict[str, np.ndarray]) -> dict:
        # measured on the distinct detection samples the sweep snaps to
        report = forward_vs_reversed_young(p, g, cfg.slit_width, cfg.L1, cfg.L2, x)
        return {"max_deviation": report.max_rel_err, "deviation_points": report.n_points}

    return {"x0_m": axis}, columns, fields, deviation if cfg.mode == "compare" else None


# ------------------------------------------------------------------- focus


def _run_focus(cfg: ExperimentConfig) -> tuple:
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
    axes = {"r0_m": (r_axis, ir), "z0_m": (z_axis, iz)}
    heads = list(axes) if second is not None else [f"{cfg.sweep.axis}_m"]
    axis, index = axes[heads[0]]
    z0s, coords = z_axis[iz], axis[index]

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

    fields = {"peak_position_m": _peak_at, "fwhm_m": _try_fwhm} if second is None else {}
    return ({h: axes[h] for h in heads}, columns, fields,
            _focus_deviation if cfg.mode == "compare" else None)


def _focus_deviation(normal: Dict[str, np.ndarray]) -> dict:
    return {"max_deviation": float(np.max(np.abs(normal["two_photon"] - normal["reversed"])))}


# ------------------------------------------------------------------- run


def run(cfg: ExperimentConfig, raw: bool = False,
        out: Optional[str] = None) -> dict:
    """Execute a validated config; returns the summary dict.

    Writes the CSV (or audit JSON) to ``out``/config ``output``/a default
    name, plus a ``.summary.json`` next to it for sweep experiments. A sweep's
    runner computes its coordinate axes, raw columns, own summary fields (a
    value, or a function of the distinct coordinates and one column) and, for
    a compare, its deviation as a function of the normalized columns; each
    coordinate column comes as an ``(axis, index)`` pair, the column being
    ``axis[index]``, which ``_write_csv`` formats once per axis value. Here the
    columns are peak-normalized, and the summary fields and the compare
    verdict are taken on them; only then are the CSV (unnormalized with
    ``raw``, which changes nothing else) and the summary written, so a tripped
    guard writes nothing.
    """
    diags = validate_config(cfg)
    if diags:
        raise ConfigurationError("invalid config: " + "; ".join(diags))
    ext = "json" if cfg.experiment == "modes-audit" else "csv"
    out = out or cfg.output or f"{cfg.experiment.replace('-', '_')}_{cfg.mode}.{ext}"
    if cfg.experiment == "modes-audit":
        report = time_reversal_audit(cfg.audit.n_modes, cfg.audit.trials, cfg.seed)
        _write(out, report.to_json() + "\n")
        print(f"audit {'passed' if report.passed else 'FAILED'}: "
              f"max ratio deviation {report.max_ratio_dev:.3e} over "
              f"{report.trials} trials (N={report.n_modes})")
        return report.to_dict()

    young = cfg.experiment == "young"
    axes, columns, fields, deviation = (_run_young if young else _run_focus)(cfg)
    normal = _normalize(columns)
    axis, index = next(iter(axes.values()))
    coords = axis[index]
    summary = {
        "experiment": cfg.experiment,
        "mode": cfg.mode,
        "csv": out,
        "n_rows": len(coords),
        "columns": list(columns),
    }
    distinct, cut = _distinct(coords, normal)
    for key, field in fields.items():
        summary[key] = ({name: field(distinct, vals) for name, vals in cut.items()}
                        if callable(field) else field)
    if deviation is not None:
        summary.update(deviation(normal))
        summary["tolerance"] = tol = YOUNG_COMPARE_TOL if young else FOCUS_COMPARE_TOL
        summary["passed"] = summary["max_deviation"] <= tol
    summary["config"] = asdict(cfg)

    _write_csv(out, axes, columns if raw else normal)
    path = _write_summary(out, summary)
    if young:
        period = summary["period_m"]
        print(f"two-photon fringe period {_format_length(period['two_photon'])}"
              f", classical {_format_length(period['classical'])}")
    for name, width in summary.get("fwhm_m", {}).items():
        if width is not None:
            print(f"{name} FWHM {_format_length(width)}")
    if deviation is not None:
        print(f"{'forward' if young else 'analytic'} vs reversed max deviation "
              f"{summary['max_deviation']:.3e} (tolerance {tol:.0e})")
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
    tolerance. ``ConfigurationError`` (an output that cannot be written
    too) and ``DomainError`` give 2,
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
    if args.out:
        _write(args.out, report.to_json() + "\n")
    print(report.to_json())
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
