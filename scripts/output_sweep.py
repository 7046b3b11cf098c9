#!/usr/bin/env python3
"""Write every shipped output of this tree into one directory.

Two sweeps of one tree must be byte-identical; sweeps of two trees, say a
change and its parent, show by ``diff -r`` which outputs the change moves.
From inside OUTDIR, with relative output names, the sweep runs:

- ``biphoton simulate`` on every ``configs/*.json``, with and without ``--raw``;
- the four ``scripts/focus_maps.py`` presets;
- ``scripts/young_fringes.py`` by default, with ``--mode reversed``, with
  ``--slit-width 8e-5`` and with both;
- ``biphoton audit --n 16 --trials 1000 --seed 42``;
- ``biphoton simulate`` on the ``perfbench/workloads.py`` configs at seeds 3
  and 11.

Each run keeps its stdout, stderr and exit code in ``<name>.stdout``,
``<name>.stderr`` and ``<name>.exit``; a failing run does not stop the sweep.
Uses only the standard library and runs the package from this tree's src/:

    python3 scripts/output_sweep.py OUTDIR
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (3, 11)


def _workloads():
    """``perfbench/workloads.py``, which is not in a package; no bytecode
    cache is left in the benchmark's directory."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def runs(outdir: Path) -> list:
    """``(name, argv)`` of each run; argv is run from inside ``outdir``."""
    cli = [sys.executable, "-m", "biphoton.cli"]
    out = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        ext = "json" if config.stem == "modes_audit" else "csv"
        for raw in (False, True):
            name = config.stem + ("_raw" if raw else "")
            out.append((name, cli + ["simulate", "--config", str(config),
                                     "--out", f"{name}.{ext}"] + (["--raw"] if raw else [])))
    for preset in ("lateral", "axial", "map", "compare"):
        out.append((f"focus_maps_{preset}",
                    [sys.executable, str(ROOT / "scripts" / "focus_maps.py"),
                     "--preset", preset, "--out", f"focus_maps_{preset}.csv"]))
    for name, extra in (("young_fringes", []),
                        ("young_fringes_reversed", ["--mode", "reversed"]),
                        ("young_fringes_slits", ["--slit-width", "8e-5"]),
                        ("young_fringes_slits_reversed",
                         ["--slit-width", "8e-5", "--mode", "reversed"])):
        out.append((name, [sys.executable, str(ROOT / "scripts" / "young_fringes.py"),
                           "--out", f"{name}.csv"] + extra))
    out.append(("audit", cli + ["audit", "--n", "16", "--trials", "1000", "--seed", "42",
                                "--out", "audit.json"]))
    workloads = _workloads()
    for seed in SEEDS:
        for build in workloads.WORKLOADS.values():
            workload = build(seed)
            workdir = Path(f"{workload.name}_seed{seed}")
            workloads.write(workload, outdir / workdir)
            for step in workload.steps:
                out.append((f"{workdir}/{step.stem}", cli + step.argv(workdir)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    outdir = parser.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for name, argv in runs(outdir):
        done = subprocess.run(argv, cwd=outdir, env=env, capture_output=True, text=True)
        for ext, text in (("stdout", done.stdout), ("stderr", done.stderr),
                          ("exit", f"{done.returncode}\n")):
            (outdir / f"{name}.{ext}").write_text(text, encoding="utf-8")
        print(f"{name}: exit {done.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
