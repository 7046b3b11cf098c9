"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py setup <workdir>
    python3 perfbench/worker.py run   <workdir> <seconds>
    python3 perfbench/worker.py trace <workdir> <seconds>

``<workdir>`` holds the configs and ``steps.json`` that ``run.py`` wrote.
``setup`` times importing ``biphoton.cli`` plus loading and validating the
configs. ``run`` repeats the workload in a closed loop (one run at a time,
the next starting when the last ends) for ``<seconds>``. ``trace`` times a
few untraced runs, then two traced runs, then fits time-vs-n exponents.
Each mode prints one JSON object as its last line.
"""
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import biphoton.cli as cli

    # Refuse an installed copy: the benchmark measures the checkout's source.
    if Path(cli.__file__).resolve().parent != SRC / "biphoton":
        raise SystemExit(f"biphoton imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workdir: Path) -> dict:
    steps = workloads.read(workdir).steps
    t0 = time.perf_counter()
    cli = _import_cli()
    for st in steps:
        diags = cli.validate_config(cli.load_config(str(workdir / f"{st.stem}.json")))
        if diags:
            raise SystemExit(f"generated config {st.stem} is invalid: {diags}")
    return {"setup_s": time.perf_counter() - t0}


def _one_run(cli, workload, workdir: Path, tracer=None) -> dict:
    """One workload run: every step through ``cli.main``, then the output checks.

    With a tracer, the steps run inside its root span ``bench.run``.
    """
    sink = io.StringIO()
    codes = []

    def steps():
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for st in workload.steps:
                try:
                    codes.append(cli.main(st.argv(workdir)))
                except Exception as exc:  # a traceback counts as a failed run
                    codes.append(repr(exc))

    w0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        steps()
    else:
        tracer.call("bench.run", steps)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    problems = [f"step {st.stem} exited {code!r}: {sink.getvalue()[-500:]}"
                for st, code in zip(workload.steps, codes) if code != 0]
    if not problems:
        problems = workloads.check(workload, workdir)
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems}


def _loop(cli, workload, workdir: Path, seconds: float) -> list:
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(_one_run(cli, workload, workdir))
    return runs


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(workdir: Path, seconds: float) -> dict:
    cli = _import_cli()
    workload = workloads.read(workdir)
    runs = _loop(cli, workload, workdir, seconds)
    return {"runs": runs, "peak_rss_mb": _peak_rss_mb(), "versions": _versions()}


def _time_min(fn, budget: float = 0.3, max_reps: int = 10) -> float:
    """Fastest of repeated calls, repeating until ``budget`` seconds are spent."""
    best, spent, reps = float("inf"), 0.0, 0
    while reps < 1 or (spent < budget and reps < max_reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best, spent, reps = min(best, dt), spent + dt, reps + 1
    return best


def _exponent(ns, times) -> float:
    import numpy as np

    return float(np.polyfit(np.log(ns), np.log(times), 1)[0])


def scaling(size: str) -> dict:
    """Time-vs-n exponents of pair evolution and of 1-D and 2-D reversed trains."""
    from biphoton.analytic import YoungParams
    from biphoton.elements import (DoubleSlit, FourierLens, reversed_focus_train,
                                   reversed_young_train, run_train)
    from biphoton.forward import evolve, kernel_of, spdc_initial
    from biphoton.grid import Grid1D, Grid2D, point_source

    w = workloads
    p = YoungParams(x1=w.X1_NOMINAL, f=w.F, wavelength=w.WL)
    out = {"forward.evolve": {}, "elements.run_train_1d": {}, "elements.run_train_2d": {}}
    for n in w.SIZES[size]["ns_1d"]:
        g = Grid1D(n, 2.0e-5)
        state = evolve(spdc_initial(g), kernel_of(DoubleSlit(p.x1), g, p.wavelength))
        lens = kernel_of(FourierLens(p.f), g, p.wavelength)
        out["forward.evolve"][n] = _time_min(lambda: evolve(state, lens))
        del state, lens
        det = Grid1D(n, p.f * p.wavelength / (n * g.dx))
        train = reversed_young_train(p.f, p.x1, w.L1, w.L2)
        src = point_source(det, 0.0, 1.0, p.wavelength)
        out["elements.run_train_1d"][n] = _time_min(lambda: run_train(src, train))
    train = reversed_focus_train(w.F, w.D, 2.0e-5, w.L1, w.L2)
    for n in w.SIZES[size]["ns_2d"]:
        src = point_source(Grid2D(n, n, 1.0e-6, 1.0e-6), (0.0, 0.0), 1.0, w.WL)
        out["elements.run_train_2d"][n] = _time_min(lambda: run_train(src, train))
    return {name: {"times_s": t, "n_exponent": _exponent(list(t), list(t.values()))}
            for name, t in out.items()}


def trace(workdir: Path, seconds: float) -> dict:
    import tracer as tr

    cli = _import_cli()
    workload = workloads.read(workdir)
    untraced = _loop(cli, workload, workdir, seconds / 3)

    tracer = tr.Tracer()
    tracer.install()
    traced, counts = [], []
    try:
        for _ in range(2):  # same seed twice: the exact-count self-check
            tracer.new_run()
            traced.append(_one_run(cli, workload, workdir, tracer))
            counts.append(dict(tracer.counts))
    finally:
        tracer.uninstall()
    tracer.write(workdir / "spans.jsonl")
    own = tracer.self_times()
    layers = [tr.summarize(tracer.spans, own, c, run)
              for run, c in zip((1, 2), counts)]
    mismatched = [k for k in tr.EXACT_COUNTS if layers[0][k] != layers[1][k]]
    return {"untraced": untraced, "traced": traced, "layers": layers,
            "count_mismatch": mismatched, "scaling": scaling(workload.size),
            "versions": _versions()}


def main(argv) -> int:
    mode, workdir = argv[0], Path(argv[1])
    if mode == "setup":
        result = setup(workdir)
    elif mode == "run":
        result = run(workdir, float(argv[2]))
    elif mode == "trace":
        result = trace(workdir, float(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
