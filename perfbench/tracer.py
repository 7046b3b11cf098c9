"""In-memory span tracer that wraps biphoton's functions from outside the package.

Each wrapper is installed on the name its caller looks up at call time:
``cli`` imports ``run_train``, ``forward_vs_reversed_young`` and friends by
name, ``forward`` imports ``run_train`` and ``elements`` imports
``unitary_fourier``, so patching only the defining module would miss those
calls. ``uninstall`` restores every original; the untraced runs never see a
wrapper.

A span is ``[name, start, end, parent, run]``; ``run`` tells the traced
workload runs apart. Self time is a span's length minus the time its child
spans cover. Counters (bytes, flops, quadrature nodes) are computed from
array sizes at the same boundaries.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

# Element tags that the workloads run; each gets elements.apply.<tag>.*
ELEMENT_TAGS = ("fourier_lens", "free_space", "two_f_offset", "double_slit",
                "circular_aperture", "shg", "pinhole")
LAYERS = ("grid", "elements", "forward", "analytic", "modes", "config_cli")
EXACT_COUNTS = ("forward.evolve.flops", "grid.fft.bytes", "grid.sampled_field.count",
                "elements.run_train.calls", "analytic.quad.nodes")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "config_cli" if head in ("config", "cli") else head


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.run = 0
        self._stack: List[int] = []
        self._patched: list = []
        self._quad: List[list] = []  # j0 node counts of open disk transforms

    def new_run(self) -> None:
        """Start the next traced workload run with fresh counters."""
        self.run += 1
        self.counts = defaultdict(int)

    # -------------------------------------------------------------- spans

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is a string or a function of the call's arguments; ``after``
        gets ``(args, kwargs, result)`` and updates the counters.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the public functions of every layer where their callers find them."""
        import biphoton.analytic as analytic
        import biphoton.cli as cli
        import biphoton.elements as elements
        import biphoton.forward as forward
        import biphoton.grid as grid
        import biphoton.modes as modes

        # grid
        def fft_bytes(args, kwargs, result):
            # computed: one read and one write of the array per transformed axis
            self.counts["grid.fft.bytes"] += 2 * result.amp.ndim * result.amp.nbytes

        self.wrap(elements, "unitary_fourier", "grid.unitary_fourier", fft_bytes)
        self.wrap(grid.SampledField, "__post_init__", "grid.sampled_field")
        for owner in (cli, forward):
            self.wrap(owner, "point_source", "grid.point_source")

        # elements
        tags = elements._TAGS
        for owner in (cli, forward):
            self.wrap(owner, "run_train", "elements.run_train")
        self.wrap(elements, "apply_element",
                  lambda a, k: f"elements.apply.{tags.get(type(a[1]), 'unknown')}")
        for fn in ("reversed_young_train", "reversed_focus_train"):
            self.wrap(cli, fn, f"elements.{fn}")

        # forward
        def evolve_flops(args, kwargs, result):
            state, k = args
            n = state.grid.n
            d = np.diagonal(k.K)
            if k.grid_out == state.grid and np.array_equal(k.K, np.diag(d)):
                self.counts["forward.evolve.flops"] += 2 * 6 * n * n   # two complex scalings
            else:
                self.counts["forward.evolve.flops"] += 2 * 8 * n ** 3  # two complex matmuls

        self.wrap(forward, "evolve", "forward.evolve", evolve_flops)
        for fn in ("kernel_of", "forward_young", "spdc_initial", "coincidence_diagonal"):
            self.wrap(forward, fn, f"forward.{fn}")
        self.wrap(forward.TwoPhotonAmplitude, "__post_init__", "forward.pair_amplitude")
        for fn in ("young_coincidence_at", "forward_vs_reversed_young"):
            self.wrap(cli, fn, f"forward.{fn}")

        # analytic
        orig_j0 = analytic.j0

        def counted_j0(x):
            nodes = int(np.size(x))
            self.counts["analytic.quad.nodes"] += nodes
            if self._quad:
                self._quad[-1].append(nodes)
            return orig_j0(x)

        analytic.j0 = counted_j0
        self._patched.append((analytic, "j0", orig_j0))

        udt_span = "analytic.uniform_disk_transform"
        orig_udt = analytic.uniform_disk_transform

        def disk_transform(*args, **kwargs):
            self._quad.append([])
            try:
                result = self.call(udt_span, orig_udt, *args, **kwargs)
                self.counts["analytic.quad.accepted_nodes"] += self._quad[-1][-1]
                return result
            finally:
                self._quad.pop()

        analytic.uniform_disk_transform = disk_transform
        self._patched.append((analytic, "uniform_disk_transform", orig_udt))
        for fn in ("spot_offaxis_two_photon", "spot_axial", "spot_lateral",
                   "young_two_photon", "young_classical", "fwhm"):
            self.wrap(cli, fn, f"analytic.{fn}")

        # modes
        self.wrap(cli, "time_reversal_audit", "modes.time_reversal_audit")
        self.wrap(modes, "_coeff_from_rng", "modes.draw_coeff")
        self.wrap(modes, "_mode_from_rng", "modes.draw_mode")
        for fn in ("forward_prob_general", "norm_factor", "reversed_intensity_conditional"):
            self.wrap(modes, fn, f"modes.{fn}")

        # config / cli
        def written(args, kwargs, result):
            path = result if isinstance(result, str) else args[0]
            self.counts["cli.bytes_written"] += os.path.getsize(path)

        self.wrap(cli, "load_config", "config.load_config")
        self.wrap(cli, "validate_config", "config.validate")
        self.wrap(cli, "_write_csv", "cli.write_csv", written)
        self.wrap(cli, "_write_summary", "cli.write_summary", written)
        self.wrap(cli, "run", "cli.run")
        self.wrap(cli, "main", "cli.main")

    # -------------------------------------------------------------- results

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times()):
                name, start, end, parent, run = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "self": own}) + "\n")


def summarize(spans: List[list], self_times: List[float], counts: Dict[str, int],
              run: int) -> Dict[str, float]:
    """Per-layer metrics of one traced workload run."""
    counts = defaultdict(int, counts)
    calls: Dict[str, int] = defaultdict(int)
    own: Dict[str, float] = defaultdict(float)
    layer: Dict[str, float] = defaultdict(float)
    for span, t in zip(spans, self_times):
        if span[4] != run:
            continue
        calls[span[0]] += 1
        own[span[0]] += t
        layer[layer_of(span[0])] += t

    m: Dict[str, float] = {
        "grid.unitary_fourier.calls": calls["grid.unitary_fourier"],
        "grid.unitary_fourier.self_s": own["grid.unitary_fourier"],
        "grid.fft.bytes": counts["grid.fft.bytes"],
        "grid.sampled_field.count": calls["grid.sampled_field"],
        "grid.sampled_field.self_s": own["grid.sampled_field"],
        "elements.run_train.calls": calls["elements.run_train"],
        "elements.run_train.self_s": own["elements.run_train"],
    }
    for tag in ELEMENT_TAGS:
        m[f"elements.apply.{tag}.calls"] = calls[f"elements.apply.{tag}"]
        m[f"elements.apply.{tag}.self_s"] = own[f"elements.apply.{tag}"]
    nodes = counts["analytic.quad.nodes"]
    m.update({
        "forward.evolve.calls": calls["forward.evolve"],
        "forward.evolve.self_s": own["forward.evolve"],
        "forward.evolve.flops": counts["forward.evolve.flops"],
        "forward.kernel_of.self_s": own["forward.kernel_of"],
        "forward.young_coincidence_at.self_s": own["forward.young_coincidence_at"],
        "forward.forward_vs_reversed_young.calls": calls["forward.forward_vs_reversed_young"],
        "analytic.uniform_disk_transform.calls": calls["analytic.uniform_disk_transform"],
        "analytic.uniform_disk_transform.self_s": own["analytic.uniform_disk_transform"],
        "analytic.quad.nodes": nodes,
        # 0 when the workload runs no quadrature
        "analytic.quad.useful_ratio": counts["analytic.quad.accepted_nodes"] / nodes
        if nodes else 0.0,
        "modes.trials": calls["modes.draw_coeff"],
        "modes.draw_s": own["modes.draw_coeff"] + own["modes.draw_mode"],
        "modes.contract_s": own["modes.forward_prob_general"] + own["modes.norm_factor"]
        + own["modes.reversed_intensity_conditional"],
        "modes.time_reversal_audit.self_s": own["modes.time_reversal_audit"],
        "config.load_s": own["config.load_config"],
        "config.validate_s": own["config.validate"],
        "cli.write_s": own["cli.write_csv"] + own["cli.write_summary"],
        "cli.bytes_written": counts["cli.bytes_written"],
    })
    for name in LAYERS:
        m[f"layer.{name}.self_s"] = layer[name]
    m["layer.untraced.self_s"] = layer["bench"]
    m["trace.spans"] = sum(calls.values())
    return m
