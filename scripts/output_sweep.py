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
Uses only the standard library and local git, and runs the package from
this tree's src/:

    python3 scripts/output_sweep.py OUTDIR [--base REV]

With ``--base``, the revision REV (say ``HEAD``, or a change's parent) is put
into a temporary directory by ``git archive`` and swept there by its own
copy of this script; the two sweeps are then compared file by file. It
prints ``identical: N files``, or, for each file that differs, its name and
for a CSV the largest deviation of each column that moves, relative to that
column's peak in REV's sweep, for a JSON file each value that moves. Exit
code 0 when identical, 1 when any file differs, 2 when REV cannot be
archived or swept.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import zipfile
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


def sweep(outdir: Path, verbose: bool = True) -> None:
    """Run every run of :func:`runs` and keep its outputs in ``outdir``;
    ``verbose`` prints each run's exit code."""
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for name, argv in runs(outdir):
        done = subprocess.run(argv, cwd=outdir, env=env, capture_output=True, text=True)
        for ext, text in (("stdout", done.stdout), ("stderr", done.stderr),
                          ("exit", f"{done.returncode}\n")):
            (outdir / f"{name}.{ext}").write_text(text, encoding="utf-8")
        if verbose:
            print(f"{name}: exit {done.returncode}", flush=True)


def _csv_deviations(base: bytes, head: bytes) -> list:
    """``column: deviation`` for each column whose values move, the largest
    change relative to the column's peak |value| in ``base``."""
    rows = [list(csv.reader(io.StringIO(b.decode("utf-8")))) for b in (base, head)]
    if rows[0][0] != rows[1][0] or len(rows[0]) != len(rows[1]):
        return [f"columns or rows differ: {rows[0][0]} x {len(rows[0]) - 1} "
                f"-> {rows[1][0]} x {len(rows[1]) - 1}"]
    out = []
    for j, column in enumerate(rows[0][0]):
        pairs = [(float(a[j]), float(b[j])) for a, b in zip(rows[0][1:], rows[1][1:])]
        dev = max(abs(a - b) for a, b in pairs)
        if dev > 0 or any(str(a) != str(b) for a, b in pairs):  # -0.0 and 0.0 too
            peak = max(abs(a) for a, _ in pairs)
            out.append(f"{column}: {dev / peak if peak else dev:.3g}")
    return out


def _leaves(doc, path: str = "") -> dict:
    """Every scalar of a JSON document by its dotted path."""
    if isinstance(doc, dict):
        return {k: v for key, value in doc.items()
                for k, v in _leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(doc, list):
        return {k: v for i, value in enumerate(doc)
                for k, v in _leaves(value, f"{path}[{i}]").items()}
    return {path: doc}


def _json_changes(base: bytes, head: bytes) -> list:
    """``key: old -> new`` for each value of a JSON document that moves."""
    old, new = (_leaves(json.loads(b.decode("utf-8"))) for b in (base, head))
    return [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def compare(base: Path, head: Path) -> tuple:
    """``(name, details)`` for each file of either sweep that differs, and
    the number of files in either."""
    names = sorted({p.relative_to(d).as_posix() for d in (base, head)
                    for p in d.rglob("*") if p.is_file()})
    differ = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            differ.append((name, [f"only in the {'base' if a.is_file() else 'head'} sweep"]))
            continue
        old, new = a.read_bytes(), b.read_bytes()
        if old == new:
            continue
        try:
            details = (_csv_deviations(old, new) if name.endswith(".csv")
                       else _json_changes(old, new) if name.endswith(".json") else [])
        except ValueError:  # not numbers, or not JSON
            details = []
        differ.append((name, details))
    return differ, len(names)


def ab(outdir: Path, rev: str) -> int:
    """Sweep this tree into ``outdir`` and REV in a temporary directory, and
    compare them; the exit code of ``--base``."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", rev],
                                 capture_output=True)
        script = tree / "scripts" / "output_sweep.py"
        if archive.returncode == 0:
            with zipfile.ZipFile(io.BytesIO(archive.stdout)) as zipped:
                zipped.extractall(tree)
        if archive.returncode != 0 or not script.is_file():
            print(f"cannot archive and sweep {rev!r}: "
                  f"{archive.stderr.decode(errors='replace').strip() or 'no sweep script'}",
                  file=sys.stderr)
            return 2
        base = Path(tmp) / "sweep"
        done = subprocess.run([sys.executable, str(script), str(base)],
                              stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"the sweep of {rev!r} exited {done.returncode}", file=sys.stderr)
            return 2
        sweep(outdir, verbose=False)
        differ, total = compare(base, outdir)
    if not differ:
        print(f"identical: {total} files")
        return 0
    for name, details in differ:
        print(f"differs: {name}")
        for line in details:
            print(f"  {line}")
    print(f"{len(differ)} of {total} files differ from {rev}")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--base", metavar="REV",
                        help="also sweep REV and compare the two sweeps")
    args = parser.parse_args()
    if args.base is not None:
        return ab(args.outdir, args.base)
    sweep(args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
