#!/usr/bin/env python3
"""Pair-focusing spot profiles: lateral / axial cuts and the (r0, z0) map.

Presets:
    lateral  - spot cross-section at focus, pair vs classical (FWHM ratio 2)
    axial    - on-axis profile vs defocus, pair vs classical
    map      - long-format (r0, z0) map of the pair spot
    compare  - lateral cut re-measured by running the reversed optical train

Run from anywhere:
    python3 scripts/focus_maps.py --preset lateral --plot
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from biphoton.cli import exit_code, run
from biphoton.config import ExperimentConfig, GridSpec, SweepSpec

LATERAL = SweepSpec("r0", -4e-6, 4e-6, 161)
AXIAL = SweepSpec("z0", -1e-4, 1e-4, 201)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    common = dict(experiment="focus", wavelength=args.wavelength,
                  f=args.f, D=args.D)
    if args.preset == "lateral":
        return ExperimentConfig(mode="analytic", sweep=LATERAL, **common)
    if args.preset == "axial":
        return ExperimentConfig(mode="analytic", sweep=AXIAL, **common)
    if args.preset == "map":
        sweep = SweepSpec("r0", -3e-6, 3e-6, 61,
                          second=SweepSpec("z0", -6e-5, 6e-5, 41))
        return ExperimentConfig(mode="analytic", sweep=sweep, **common)
    # compare: snap the sweep to the source grid so the reversed train is
    # probed exactly where the closed form is evaluated
    dx = args.dx
    sweep = SweepSpec("r0", -2 * dx, 2 * dx, 5)
    return ExperimentConfig(mode="compare", sweep=sweep,
                            grid=GridSpec(args.n, dx), L1=0.25, L2=0.5,
                            **common)


def maybe_plot(csv_path: str, preset: str, enabled: bool) -> None:
    if not enabled:
        return
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot", file=sys.stderr)
        return
    rows = np.genfromtxt(csv_path, delimiter=",", names=True)
    if preset == "map":
        r = np.unique(rows["r0_m"])
        z = np.unique(rows["z0_m"])
        img = rows["two_photon"].reshape(len(r), len(z))
        plt.pcolormesh(z * 1e6, r * 1e6, img, shading="nearest")
        plt.xlabel("defocus z0 (µm)")
        plt.ylabel("lateral offset r0 (µm)")
        plt.colorbar(label="normalized pair probability")
    else:
        coord = rows.dtype.names[0]
        for name in rows.dtype.names[1:]:
            plt.plot(rows[coord] * 1e6, rows[name], label=name.replace("_", " "))
        plt.xlabel(coord.replace("_m", " (µm)"))
        plt.ylabel("normalized intensity")
        plt.legend()
    png = csv_path.rsplit(".", 1)[0] + ".png"
    plt.savefig(png, dpi=150, bbox_inches="tight")
    print(f"wrote {png}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="lateral",
                        choices=["lateral", "axial", "map", "compare"])
    parser.add_argument("--wavelength", type=float, default=7.8e-7)
    parser.add_argument("--f", type=float, default=0.05)
    parser.add_argument("--D", type=float, default=0.0127)
    parser.add_argument("--n", type=int, default=512,
                        help="source grid size for the reversed train")
    parser.add_argument("--dx", type=float, default=1e-6,
                        help="source grid spacing in meters (compare preset)")
    parser.add_argument("--out", default=None)
    parser.add_argument("--raw", action="store_true")
    parser.add_argument("--plot", action="store_true")
    args = parser.parse_args()

    out = args.out or f"focus_{args.preset}.csv"

    def task() -> dict:
        summary = run(build_config(args), raw=args.raw, out=out)
        maybe_plot(out, args.preset, args.plot)
        return summary

    # exit 2 or 3 like `biphoton simulate`, naming the cause
    return exit_code(task)


if __name__ == "__main__":
    sys.exit(main())
