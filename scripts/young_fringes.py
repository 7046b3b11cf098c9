#!/usr/bin/env python3
"""Two-slit pair fringes: analytic curves plus the simulated cross-check.

Writes a CSV with the half-period pair fringe next to the classical one and
prints the measured periods. The compare mode also reads the forward pair
state and the reversed trains on the detection samples the sweep snaps to
and reports their maximum deviation; it exits 3 when that is above the
compare tolerance, after writing its outputs. An invalid config exits 2.

Run from anywhere:
    python3 scripts/young_fringes.py
    python3 scripts/young_fringes.py --mode compare --slit-width 8e-5 --plot
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from biphoton.cli import exit_code, run
from biphoton.config import ExperimentConfig, GridSpec, SweepSpec


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="young",
        mode=args.mode,
        wavelength=args.wavelength,
        f=args.f,
        x1=args.x1,
        slit_width=args.slit_width,
        L1=0.25,
        L2=0.5,
        sweep=SweepSpec("x0", -args.span, args.span, args.points),
        grid=GridSpec(args.n, args.dx),
    )


def maybe_plot(csv_path: str, enabled: bool) -> None:
    if not enabled:
        return
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot", file=sys.stderr)
        return
    rows = np.genfromtxt(csv_path, delimiter=",", names=True)
    x_um = rows["x0_m"] * 1e6
    for name in rows.dtype.names[1:]:
        plt.plot(x_um, rows[name], label=name.replace("_", " "))
    plt.xlabel("source position x0 (µm)")
    plt.ylabel("normalized intensity")
    plt.legend()
    png = csv_path.rsplit(".", 1)[0] + ".png"
    plt.savefig(png, dpi=150, bbox_inches="tight")
    print(f"wrote {png}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", default="compare",
                        choices=["analytic", "forward", "reversed", "compare"])
    parser.add_argument("--wavelength", type=float, default=7.8e-7)
    parser.add_argument("--f", type=float, default=0.05)
    parser.add_argument("--x1", type=float, default=5e-4,
                        help="slit half-separation in meters (illustrative default)")
    parser.add_argument("--slit-width", type=float, default=None,
                        help="slit width in meters; default is one grid cell")
    parser.add_argument("--span", type=float, default=4e-5,
                        help="sweep half-width in meters")
    parser.add_argument("--points", type=int, default=161)
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--dx", type=float, default=2e-5,
                        help="slit-plane sample spacing in meters")
    parser.add_argument("--out", default="young_fringes.csv")
    parser.add_argument("--raw", action="store_true")
    parser.add_argument("--plot", action="store_true")
    args = parser.parse_args()

    def task() -> dict:
        summary = run(build_config(args), raw=args.raw, out=args.out)
        maybe_plot(args.out, args.plot)
        return summary

    # exit 2 or 3 like `biphoton simulate`, naming the cause
    return exit_code(task)


if __name__ == "__main__":
    sys.exit(main())
