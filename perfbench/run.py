"""Benchmark for ``biphoton simulate`` on seeded workloads.

    python3 perfbench/run.py --workload young --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The workloads (``young``, ``focus``,
``closed_form``) are described in ``perfbench/README.md``. For each run this
script writes the workload's configs from ``--seed`` into
``.perfbench_work/``, then starts fresh interpreters (``worker.py``):

* ``--trace 0``: several set-up probes (import ``biphoton.cli``, load and
  validate the configs), then one process that repeats the workload in a
  closed loop for ``--seconds`` and checks every run's output. It reports
  the end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1``: one process that times a few untraced runs, then two
  traced runs with wrappers installed from outside the package, then fits
  time-vs-n exponents. It reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs every
workload at toy sizes in both modes and checks that output against the
schema in ``BENCHMARK.json``; it takes a few seconds.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every child process must end well inside the 180 s a benchmark run may take.
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    """Cores this process may run on; also the BLAS thread count."""
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    env.update({var: threads for var in BLAS_THREAD_VARS})
    return env


def _worker(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cmd_output(cmd: list):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, workload: workloads.Workload, versions: dict) -> dict:
    def cache(level: int):
        val = _cmd_output(["getconf", f"LEVEL{level}_CACHE_SIZE"])
        return int(val) if val and val.isdigit() else None

    commit = None
    if (ROOT / ".git").exists():
        commit = _cmd_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": nproc(),
        "git_commit": commit,
        "seed": seed,
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "largest_array_bytes": workload.largest_array["bytes"],
        "largest_array": workload.largest_array["what"],
    }


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result line plus the details behind it."""
    if not (ROOT / "src" / "biphoton" / "cli.py").is_file():
        raise BenchError(f"no biphoton source under {ROOT / 'src'}")
    workload = workloads.WORKLOADS[name](seed, size)
    workdir = WORK / f"{name}-{size}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.write(workload, workdir)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = bench["per_layer" if trace else "end_to_end"]

    if not trace:
        def probe():
            return _worker(["setup", workdir], 60)["setup_s"]

        probes = workloads.SIZES[size]["setup_probes"]
        probe()  # fills the bytecode and file caches; not counted
        # Half the probes before the loop and half after, so that they sample
        # the machine over the same span as the workload runs.
        setups = [probe() for _ in range(probes)]
        out = _worker(["run", workdir, seconds], CHILD_TIMEOUT_S)
        setups += [probe() for _ in range(probes)]
        runs = out["runs"]
        walls = [r["wall_s"] for r in runs]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        context = {"wall_s_quartiles": _quartiles(walls),
                   "cpu_s": statistics.median(r["cpu_s"] for r in runs),
                   "setup_s_all": setups}
        mismatch = []
    else:
        out = _worker(["trace", workdir, seconds], CHILD_TIMEOUT_S)
        runs = out["untraced"] + out["traced"]
        first, second = out["layers"]
        # times: mean of the two traced runs; counts are equal in both
        values = {k: first[k] if first[k] == second[k] else (first[k] + second[k]) / 2
                  for k in first}
        untraced = statistics.median(r["wall_s"] for r in out["untraced"])
        traced = statistics.mean(r["wall_s"] for r in out["traced"])
        values.update({
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced,
            "trace.overhead": traced / untraced - 1,
        })
        for layer, fit in out["scaling"].items():
            values[f"{layer}.n_exponent"] = fit["n_exponent"]
        context = {"scaling_times_s": {k: v["times_s"] for k, v in out["scaling"].items()},
                   "count_mismatch": out["count_mismatch"]}
        mismatch = out["count_mismatch"]

    failed = sum(1 for r in runs if r["problems"])
    problems = [p for r in runs for p in r["problems"]]
    if mismatch:
        problems.append(f"exact counts differ between two traced runs: {mismatch}")
    line = {
        "correct": failed == 0 and not mismatch,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    details = {
        "workload": name, "size": size, "trace": int(trace), "seconds": seconds,
        "env": environment(seed, workload, out["versions"]),
        "fail_ratio": failed / len(runs),
        "problems": problems[:20],
        "wall_s_runs": [r["wall_s"] for r in runs],
        "cpu_s_runs": [r["cpu_s"] for r in runs],
        "context": context,
        "result": line,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workdir.name}-s{seed}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return details


def report(details: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    line = details["result"]
    print(f"perfbench {details['workload']} seed={details['env']['seed']} "
          f"trace={details['trace']} runs={line['attempted']} failed={line['failed']}")
    # fail_ratio is 0 when all is well, so BENCHMARK.json cannot list it
    print(f"  {'fail_ratio':45s} {details['fail_ratio']:.6g} ratio")
    for name, m in line["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if not details["trace"]:
        lo, hi = details["context"]["wall_s_quartiles"]
        print(f"  wall_s quartiles {lo:.4g}..{hi:.4g} s over {line['attempted']} runs; "
              f"cpu_s median {details['context']['cpu_s']:.4g} s (context, not gated)")
    for p in details["problems"]:
        print(f"  problem: {p}")
    print("env " + json.dumps(details["env"]))
    print(json.dumps(line))


def check_schema(line: dict, specs: list) -> list:
    """Ways in which a result line breaks the contract in BENCHMARK.json."""
    errors = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(line)}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        errors.append(f"attempted {line.get('attempted')!r}")
    if not isinstance(line.get("failed"), int):
        errors.append(f"failed {line.get('failed')!r}")
    metrics = line.get("metrics", {})
    if list(metrics) != [s["name"] for s in specs]:
        errors.append(f"metric names {sorted(set(metrics) ^ {s['name'] for s in specs})}")
    for s in specs:
        m = metrics.get(s["name"], {})
        if m.get("unit") != s["unit"]:
            errors.append(f"{s['name']}: unit {m.get('unit')!r}, expected {s['unit']!r}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{s['name']}: value {v!r}")
    return errors


def smoke() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS", file=sys.stderr)
        return 1
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            details = measure(name, 0, 0.2, trace, size="smoke")
            specs = bench["per_layer" if trace else "end_to_end"]
            errors = check_schema(details["result"], specs)
            if not details["result"]["correct"]:
                errors.append(f"incorrect output: {sorted(set(details['problems']))}")
            status = "ok" if not errors else "FAILED: " + "; ".join(errors)
            print(f"smoke {name} trace={int(trace)}: {status}")
            bad += bool(errors)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, every workload, both modes; checks the output schema")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(details)
    return 0 if details["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
