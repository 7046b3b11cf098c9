"""Experiment configuration: JSON schema, loading, and validation.

All lengths in the config file are in meters. Loading rejects a value that
is not a number of the right kind (a string, a bool, a list, a non-finite
float, a non-integral count) with a ConfigurationError naming the field.
Validation never raises on a bad value; it returns a list of human-readable
diagnostics naming the field, so a config can be checked as a whole before
anything runs.
"""
from __future__ import annotations

import json
import math
import numbers
from typing import List, Optional, Tuple

from ._value import Value
from .analytic import YoungParams
from .elements import DoubleSlit, _relay_grid
from .errors import ConfigurationError, DomainError
from .forward import snap_young_sweep
from .grid import Grid1D

EXPERIMENTS = ("young", "focus", "modes-audit")
MODES = ("forward", "reversed", "analytic", "compare")
# Ceiling on the largest single array a run may allocate and on a sweep's CSV
# text, checked by ``validate`` so an oversized run exits before it allocates.
MAX_ARRAY_BYTES = 4 * 2 ** 30
# Fewest trials an audit draws and contracts together
# (``modes.time_reversal_audit``); small mode counts take more, up to
# AUDIT_CHUNK_BYTES of draws per chunk.
AUDIT_CHUNK = 32
# Draw bytes per audit chunk when that is more than AUDIT_CHUNK trials: 64
# trials at 16 modes. With each chunk's copy and arithmetic on a pool thread
# while the next is drawn into a second buffer, and the two threads held on
# different CPUs of a 2-core host, a 10000-trial audit at 16 modes took
# 83-101 ms (median 92) in chunks of 32, 77-96 (89) in 64, 75-84 (79) in 128
# and 79-97 (85) in 512 (five sweeps, each a median of 15 or 21 in-process
# runs). A bare fill of the same draws took 72-93 ms from process to
# process, so only 32 stands apart; 128 and 512 hold 2 and 8 times the two
# buffers' memory.
AUDIT_CHUNK_BYTES = 64 * 8 * (2 * 16 ** 2 + 4 * 16)


def audit_chunk_trials(n_modes: int) -> int:
    """Trials per audit chunk: ``AUDIT_CHUNK_BYTES`` of draws, at least ``AUDIT_CHUNK``.

    A trial draws 2n^2 + 4n float64 values. From 23 modes up a chunk is
    ``AUDIT_CHUNK`` trials, so the array limit of large audits is unchanged.
    """
    return max(AUDIT_CHUNK, AUDIT_CHUNK_BYTES // (8 * (2 * n_modes ** 2 + 4 * n_modes)))


def audit_array_bytes(n_modes: int, trials: int) -> float:
    """Size of the largest array one audit chunk allocates.

    That is the chunk's float64 draws, ``min(audit_chunk_trials(n), trials)``
    rows of 2n^2 + 4n values; its complex n x n stacks are smaller. That is
    at most ``AUDIT_CHUNK_BYTES`` below 23 modes and ``AUDIT_CHUNK`` rows
    from there up. An audit of more than one chunk also holds a second
    draws buffer of at most this size, since the next chunk is drawn while
    the last is read; the bound is on the largest single array. A float, so
    a size beyond the float range reads inf instead of raising.
    """
    try:
        n = float(n_modes)
    except OverflowError:  # an integer beyond the float range
        return math.inf
    return 8.0 * min(audit_chunk_trials(n_modes), trials) * (2 * n * n + 4 * n)


def audit_diags(n_modes, trials, seed,
                names: Tuple[str, str, str] = ("audit.n_modes", "audit.trials", "seed")
                ) -> List[str]:
    """What keeps an audit of ``n_modes`` modes and ``trials`` trials drawn
    from ``seed`` from running, one string per problem, each led by its
    field's name from ``names``.

    The counts must be integers >= 1 and the seed a nonnegative integer,
    none of them a bool, and the largest array of a chunk of trials
    (``audit_array_bytes``) must fit ``MAX_ARRAY_BYTES``. ``validate`` and
    ``modes.time_reversal_audit`` both apply this rule, so a config passes
    ``validate`` exactly when its audit runs.
    """
    n_name, trials_name, seed_name = names
    diags = []
    for value, name in ((n_modes, n_name), (trials, trials_name)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            diags.append(f"{name}: must be an integer, got {value!r}")
        elif value < 1:
            diags.append(f"{name}: must be >= 1, got {value}")
    if not diags:
        size = audit_array_bytes(n_modes, trials)
        if size > MAX_ARRAY_BYTES:
            diags.append(f"{n_name}: {n_modes} modes need a {size / 2 ** 30:.3g} GiB "
                         f"array, above the {MAX_ARRAY_BYTES / 2 ** 30:.3g} GiB limit")
    return diags + _seed_diags(seed, seed_name)


def _seed_diags(seed, name: str = "seed") -> List[str]:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        return [f"{name}: must be a nonnegative integer, got {seed!r}"]
    return []


def _take(d: dict, context: str, required: Tuple[str, ...],
          optional: Tuple[str, ...] = ()) -> dict:
    if not isinstance(d, dict):
        raise ConfigurationError(f"{context}: expected a JSON object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigurationError(f"{context}: missing keys {missing}")
    return d


def _finite(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{field}: must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigurationError(f"{field}: must be finite, got {value!r}")
    return x


def _integer(value, field: str) -> int:
    x = _finite(value, field)
    if isinstance(value, int):
        return value
    if not x.is_integer():
        raise ConfigurationError(f"{field}: must be an integer, got {value!r}")
    return int(x)


class SweepSpec(Value):
    """One linear sweep axis: `count` points from `start` to `stop` (meters),
    with an optional `second` axis, which takes no `second` of its own."""

    axis: str
    start: float
    stop: float
    count: int
    second: Optional["SweepSpec"] = None

    @staticmethod
    def from_dict(d: dict, context: str = "sweep") -> "SweepSpec":
        _take(d, context, ("axis", "start", "stop", "count"),
              ("second",) if context == "sweep" else ())
        second = None
        if d.get("second") is not None:
            second = SweepSpec.from_dict(d["second"], context + ".second")
        return SweepSpec(str(d["axis"]), _finite(d["start"], context + ".start"),
                         _finite(d["stop"], context + ".stop"),
                         _integer(d["count"], context + ".count"), second)


class GridSpec(Value):
    """Simulation grid: n samples at dx meters (per axis for 2-D runs)."""

    n: int
    dx: float

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        _take(d, "grid", ("n", "dx"))
        return GridSpec(_integer(d["n"], "grid.n"), _finite(d["dx"], "grid.dx"))


class AuditSpec(Value):
    """Size of the randomized mode-space audit."""

    n_modes: int
    trials: int

    @staticmethod
    def from_dict(d: dict) -> "AuditSpec":
        _take(d, "audit", ("n_modes", "trials"))
        return AuditSpec(_integer(d["n_modes"], "audit.n_modes"),
                         _integer(d["trials"], "audit.trials"))


class ExperimentConfig(Value):
    experiment: str
    mode: str
    wavelength: Optional[float] = None
    f: Optional[float] = None
    D: Optional[float] = None
    x1: Optional[float] = None
    slit_width: Optional[float] = None
    L1: Optional[float] = None
    L2: Optional[float] = None
    z0: float = 0.0
    sweep: Optional[SweepSpec] = None
    grid: Optional[GridSpec] = None
    audit: Optional[AuditSpec] = None
    seed: int = 0
    output: Optional[str] = None

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _take(d, "config", ("experiment", "mode"),
              ("wavelength", "f", "D", "x1", "slit_width", "L1", "L2", "z0",
               "sweep", "grid", "audit", "seed", "output"))

        def num(key):
            return None if d.get(key) is None else _finite(d[key], key)

        return ExperimentConfig(
            experiment=str(d["experiment"]),
            mode=str(d["mode"]),
            wavelength=num("wavelength"), f=num("f"), D=num("D"),
            x1=num("x1"), slit_width=num("slit_width"),
            L1=num("L1"), L2=num("L2"), z0=_finite(d.get("z0", 0.0), "z0"),
            sweep=None if d.get("sweep") is None else SweepSpec.from_dict(d["sweep"]),
            grid=None if d.get("grid") is None else GridSpec.from_dict(d["grid"]),
            audit=None if d.get("audit") is None else AuditSpec.from_dict(d["audit"]),
            seed=_integer(d.get("seed", 0), "seed"),
            output=None if d.get("output") is None else str(d["output"]),
        )


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON experiment config; malformed documents raise ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    try:
        return ExperimentConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config {path!r}: {exc}") from exc


def _positive(diags: List[str], cfg: ExperimentConfig, *names: str) -> None:
    for name in names:
        val = getattr(cfg, name)
        if val is None:
            diags.append(f"{name}: required for this experiment/mode")
        elif not val > 0:
            diags.append(f"{name}: must be positive, got {val!r}")


def _check_axis(diags: List[str], sweep: SweepSpec, allowed: Tuple[str, ...],
                prefix: str = "sweep") -> None:
    if sweep.axis not in allowed:
        diags.append(f"{prefix}.axis: must be one of {list(allowed)}, got {sweep.axis!r}")
    if sweep.count < 2:
        diags.append(f"{prefix}.count: must be >= 2, got {sweep.count}")
    if not sweep.stop > sweep.start:
        diags.append(f"{prefix}.stop: must exceed {prefix}.start")


def _largest_array_bytes(cfg: ExperimentConfig) -> float:
    """Size of the largest complex128 array a grid run of ``cfg`` allocates.

    The focus field is n x n; a young sweep holds one n-sample row per
    point. A young ``compare`` also relays the n x |kept| slit columns of
    its pair state, then one block of ``forward._BLOCK_BYTES`` (at least one
    row, at most one per sweep point). This runs before any mask is built
    (a huge n must not allocate one), so |kept| is bounded: 2 for delta
    slits, else two slits of w/dx + 2 samples (one more for rounding at the
    edges), and n. A float: a size beyond the float range reads inf.
    """
    n = cfg.grid.n
    if cfg.experiment == "focus":
        return 16.0 * n * n
    rows = cfg.sweep.count
    if cfg.mode == "compare":
        kept = 2 if cfg.slit_width is None else 2 * (cfg.slit_width / cfg.grid.dx + 2)
        rows = max(rows, min(n, kept))
    return 16.0 * n * rows


def _sweep_write_bytes(cfg: ExperimentConfig) -> float:
    """Bound on a long sweep's peak allocation while it writes its CSV: 200 B a
    written value; a row holds its axes and at most 2, 3 or 1 columns in
    ``analytic``, ``compare`` or another mode. Under tracemalloc at 2e5 rows
    every experiment and mode peaks at most 166 B a value (a focus
    ``reversed`` z0 cut), against about 21 B of text. A float, inf if huge."""
    second = cfg.sweep.second
    axes, rows = (1, 1.0) if second is None else (2, float(second.count))
    columns = {"analytic": 2, "compare": 3}.get(cfg.mode, 1)
    return 200.0 * (axes + columns) * rows * cfg.sweep.count


def _young_diags(cfg: ExperimentConfig) -> List[str]:
    """What keeps a young run from its slits or its detection samples.

    The slit mask is built on each slit-plane grid the run masks: the grid
    itself for ``forward``/``compare``, and for the reversed trains of
    ``reversed``/``compare`` the relay of the detection grid, as
    ``run_train_batch`` builds it. Each mask must pass a sample, or the run
    reads an all-zero column. An ``analytic`` run masks
    nothing; only ``DoubleSlit``'s own rules apply. Only the sweep's ends
    are snapped: the sweep increases and holds both ends exactly, so every
    point lies on the detection grid if they do, and it reads one sample
    only if they do.
    """
    grid = None if cfg.mode == "analytic" else Grid1D(cfg.grid.n, cfg.grid.dx)
    planes = [grid] if cfg.mode in ("forward", "compare") else []
    if cfg.mode in ("reversed", "compare"):
        det = _relay_grid(grid, cfg.f, cfg.wavelength)
        planes.append(_relay_grid(det, cfg.f, cfg.wavelength))
    try:
        slit = DoubleSlit(cfg.x1, cfg.slit_width)
        masks = [slit.mask(plane) for plane in planes]
    except ConfigurationError as exc:
        return [f"slit_width: {exc}"]
    except DomainError as exc:
        return [f"x1: {exc}"]
    if not all(mask.any() for mask in masks):
        return [f"slit_width: {cfg.slit_width!r} m slits pass no sample of the "
                f"{cfg.grid.dx!r} m slit-plane grid; a {cfg.mode} run has no fringe "
                "to read"]
    if cfg.mode in ("reversed", "compare"):
        try:
            snap_young_sweep(YoungParams(x1=cfg.x1, f=cfg.f, wavelength=cfg.wavelength),
                             grid, (cfg.sweep.start, cfg.sweep.stop),
                             compare=cfg.mode == "compare")
        except (ConfigurationError, DomainError) as exc:
            return [f"sweep: {exc}"]
    return []


def _focus_diags(cfg: ExperimentConfig) -> List[str]:
    """What keeps a focus reversed/compare run from its sources or its pupil.

    Each r0 sweep must lie on the x axis of the source grid, which the run
    snaps it to; as for the Young sweep, only its ends are snapped. The
    source grid (n samples at dx) relays onto n pupil samples at
    f*wavelength/(n*dx): a window of f*wavelength/dx, whatever n is. A
    window narrower than D cuts the disk to a square (Voelz & Roggemann,
    Appl. Opt. 48, 6132 (2009)); the run would show no other sign.
    """
    x_axis = Grid1D(cfg.grid.n, cfg.grid.dx)
    for spec, prefix in ((cfg.sweep, "sweep"), (cfg.sweep.second, "sweep.second")):
        if spec is not None and spec.axis == "r0":
            try:
                x_axis.snap((spec.start, spec.stop), "lateral offset", "the source grid")
            except DomainError as exc:
                return [f"{prefix}: {exc}"]
    pupil = _relay_grid(x_axis, cfg.f, cfg.wavelength)
    window = pupil.n * pupil.dx
    if window >= cfg.D:
        return []
    return [f"grid.dx: the pupil window f*wavelength/dx = {window:.4g} m is narrower "
            f"than the aperture D = {cfg.D:.4g} m; need dx <= f*wavelength/D = "
            f"{cfg.f * cfg.wavelength / cfg.D:.4g} m"]


def validate(cfg: ExperimentConfig) -> List[str]:
    """All violated invariants, one string per problem; empty means runnable."""
    diags: List[str] = []
    if cfg.experiment not in EXPERIMENTS:
        diags.append(f"experiment: must be one of {list(EXPERIMENTS)}, "
                     f"got {cfg.experiment!r}")
        return diags
    if cfg.mode not in MODES:
        diags.append(f"mode: must be one of {list(MODES)}, got {cfg.mode!r}")
        return diags
    if cfg.experiment == "modes-audit" and cfg.audit is not None:
        return audit_diags(cfg.audit.n_modes, cfg.audit.trials, cfg.seed)
    diags += _seed_diags(cfg.seed)
    if cfg.experiment == "modes-audit":
        diags.append("audit: required for modes-audit (n_modes, trials)")
        return diags

    needs_grid = cfg.mode in ("forward", "reversed", "compare")
    if cfg.sweep is None:
        diags.append("sweep: required for young/focus experiments")
    if needs_grid:
        if cfg.grid is None:
            diags.append(f"grid: required for mode={cfg.mode}")
        else:
            if cfg.grid.n < 2:
                diags.append(f"grid.n: must be >= 2, got {cfg.grid.n}")
            if not cfg.grid.dx > 0:
                diags.append(f"grid.dx: must be positive, got {cfg.grid.dx}")
    if cfg.mode in ("reversed", "compare"):
        _positive(diags, cfg, "L1", "L2")

    if cfg.experiment == "young":
        _positive(diags, cfg, "wavelength", "f", "x1")
        if cfg.sweep is not None:
            _check_axis(diags, cfg.sweep, ("x0",))
            if cfg.sweep.second is not None:
                diags.append("sweep.second: young sweeps are one-dimensional")
    else:  # focus
        _positive(diags, cfg, "wavelength", "f", "D")
        if cfg.mode == "forward":
            diags.append("mode: focus supports analytic/reversed/compare only")
        if cfg.f is not None and not abs(cfg.z0) < cfg.f:
            diags.append(f"z0: |z0| must stay below f, got {cfg.z0!r}")
        if cfg.sweep is not None:
            _check_axis(diags, cfg.sweep, ("r0", "z0"))
            if cfg.sweep.second is not None:
                _check_axis(diags, cfg.sweep.second, ("r0", "z0"), "sweep.second")
                if cfg.sweep.second.second is not None:
                    diags.append("sweep.second: takes no second sweep of its own")
                if cfg.sweep.second.axis == cfg.sweep.axis:
                    diags.append("sweep.second.axis: must differ from sweep.axis")
            for spec, prefix in ((cfg.sweep, "sweep"),
                                 (cfg.sweep.second, "sweep.second")):
                if spec is not None and spec.axis == "z0" and cfg.f is not None:
                    if max(abs(spec.start), abs(spec.stop)) >= cfg.f:
                        diags.append(f"{prefix}: |z0| values must stay below f")
    if not diags and (size := _sweep_write_bytes(cfg)) > MAX_ARRAY_BYTES:
        diags.append(f"sweep.count: writing the CSV needs {size / 2 ** 30:.3g} GiB, "
                     f"above the {MAX_ARRAY_BYTES / 2 ** 30:.3g} GiB limit")
    if needs_grid and not diags:
        size = _largest_array_bytes(cfg)
        if size > MAX_ARRAY_BYTES:
            diags.append(f"grid.n: {cfg.grid.n} needs a {size / 2 ** 30:.3g} GiB "
                         f"array, above the {MAX_ARRAY_BYTES / 2 ** 30:.3g} GiB limit")
    if cfg.experiment == "young" and not diags:
        diags += _young_diags(cfg)
    if cfg.experiment == "focus" and cfg.mode in ("reversed", "compare") and not diags:
        diags += _focus_diags(cfg)
    return diags
