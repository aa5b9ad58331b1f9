"""The parallel + cached design-space exploration engine.

The paper's workflow builds the BET **once** and re-projects it across
hardware points (Sec. V, Sec. VII); co-design studies therefore look like
batch jobs: a list of machine×input design points, or a matrix of
(workload × machine × ablation) analyses.  This module provides that batch
layer:

* :func:`build_bet_cached` — memoized BET construction keyed by
  (program fingerprint, frozen inputs, entry), so one tree serves every
  sweep point of a session;
* :func:`evaluate_cells` — the one sweep core (DESIGN.md §8): an explicit
  list of cells, each a dict of machine-field and ``input:<name>``
  overrides, projected in chunks with deterministic ordering, executor
  fan-out, retries, checkpoints, and the lane-grouped vector backend.
  Cells with input axes are routed through
  :class:`~repro.bet.SymbolicBET` rebinds, so each worker amortizes one
  recorded build (and the expression-compile warmup) across its whole
  chunk;
* :func:`sweep_grid` and :func:`sweep_inputs` — thin adapters over that
  core: the cross product of a machine (or mixed) grid, and a sweep of
  workload inputs (``input:``-prefixed cells returned as
  :class:`InputSweepResult`); :func:`repro.analysis.sweep_machine` is the
  one-axis adapter;
* :func:`analyze_matrix` — the full Prof-vs-Modl pipeline fanned out over
  a (workload × machine × ablation) matrix; results are fed back into the
  bounded pipeline cache so later figure slicing is free.

Every result carries per-stage wall seconds and cache statistics so the
performance trajectory is observable (``timings`` / ``cache_stats``).
All fan-out runs a :class:`~repro.parallel.shard.ShardScheduler` over a
:class:`~repro.parallel.executors.SweepExecutor` (``workers=1`` runs
in-process); parallel results are bit-identical to serial ones.
"""

from __future__ import annotations

import contextlib
import itertools
import pickle
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import arrayops as _aops
from ..analysis.sensitivity import project_machine, project_with_model
from ..analysis.vectorized import project_batch
from ..bet import SymbolicBET, build_bet
from ..bet.nodes import BETNode, render_tree
from ..errors import AnalysisError, CheckpointError, RetryExhaustedError
from ..hardware.machine import MachineModel, ensure_valid_machine
from ..hardware.roofline import RooflineModel
from ..skeleton.bst import Program
from .cache import CacheStats, LRUCache
from .executors import resolve_executor
from .lanes import (
    INPUT_PREFIX, LanePack, cell_signature, pack_group, plan_lane_chunks,
    split_overrides,
)
from .fault import (
    PointFailure, RetryPolicy, SweepCheckpoint, factory_tag, overrides_key,
    resilient_map, sweep_key,
)
from .shard import ShardScheduler

# -- BET-build memoization ----------------------------------------------------

#: one tree serves every sweep point: BETs keyed by
#: (program fingerprint, frozen inputs, entry)
_BET_CACHE = LRUCache(maxsize=64)


def _freeze_inputs(inputs: Optional[Dict[str, float]]) -> Tuple:
    return tuple(sorted((inputs or {}).items()))


def build_bet_cached(program: Program,
                     inputs: Optional[Dict[str, float]] = None,
                     entry: str = "main") -> BETNode:
    """Build (or fetch) the BET for ``program`` with ``inputs``.

    The cache key is the program's content :meth:`~Program.fingerprint`
    plus the frozen inputs, so equivalent programs share one tree no
    matter how many sweeps re-request it.  Returned trees are shared —
    treat them as read-only (all analysis passes do).
    """
    key = (program.fingerprint(), _freeze_inputs(inputs), entry)
    return _BET_CACHE.get_or_create(
        key, lambda: build_bet(program, inputs=inputs, entry=entry))


def bet_cache_stats() -> CacheStats:
    """Counters of the BET-build memo (hits/misses/evictions)."""
    return _BET_CACHE.stats


def clear_bet_cache() -> None:
    _BET_CACHE.clear()


# -- results -------------------------------------------------------------------

@dataclass
class GridPoint:
    """Projection at one cell of a machine-parameter grid."""

    overrides: Dict[str, float]    #: parameter -> value for this cell
    machine: MachineModel
    runtime: float                 #: projected whole-run wall seconds
    ranking: List[str]             #: hot-spot sites, hottest first
    top_label: str
    memory_fraction: float         #: non-overlapped memory share
    completeness: float = 1.0      #: modeled fraction (1.0 = no quarantine)


class _PointTable:
    """Accessors and rendering shared by :class:`GridResult` and
    :class:`InputSweepResult` (``points`` in sweep order, ``failures``)."""

    @property
    def completeness(self) -> float:
        """Modeled fraction of the projected BETs (< 1.0 after a degraded
        build quarantined part of the program)."""
        if not self.points:
            return 1.0
        return min(point.completeness for point in self.points)

    def runtime_curve(self) -> List[float]:
        return [point.runtime for point in self.points]

    def best(self):
        """The fastest point (ties keep sweep order)."""
        return min(self.points, key=lambda p: p.runtime)

    def _table(self, title: str, names: List[str],
               coordinates: Callable[[Any], List[float]],
               note: str = "") -> str:
        failed = f", {len(self.failures)} failed" if self.failures else ""
        header = "  ".join(f"{name:>12}" for name in names)
        lines = [f"{title} ({len(self.points)} points{failed}){note}",
                 f"{header}  {'runtime':>10}  {'mem%':>6}  top hot spot"]
        for point in self.points:
            cells = "  ".join(f"{value:12.4g}" for value in coordinates(point))
            lines.append(
                f"{cells}  {point.runtime:10.4g}  "
                f"{100 * point.memory_fraction:5.1f}%  {point.top_label}")
        lines.extend(failure.render() for failure in self.failures)
        return "\n".join(lines)


@dataclass
class GridResult(_PointTable):
    """A full N-dimensional design-space grid.

    Points are in row-major order over ``grid`` (last parameter varies
    fastest), deterministically, regardless of worker count.  Cells that
    failed (after any configured retries) are absent from ``points`` and
    recorded in ``failures`` instead — one
    :class:`~repro.parallel.PointFailure` each, carrying the exception
    type, message, captured traceback, and attempt count.
    """

    grid: Dict[str, List[float]]   #: parameter -> swept values, in order
    points: List[GridPoint]
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)
    backend: str = "scalar"        #: resolved evaluation backend
    executor: str = ""             #: executor that ran the sweep
    shard_stats: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[Any] = field(default_factory=list)

    @property
    def parameters(self) -> List[str]:
        return list(self.grid)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(values) for values in self.grid.values())

    def point(self, **overrides: float) -> GridPoint:
        """The cell whose overrides match exactly."""
        for candidate in self.points:
            if candidate.overrides == overrides:
                return candidate
        raise AnalysisError(f"no grid point with overrides {overrides}")

    def render(self) -> str:
        names = self.parameters
        note = (f" [degraded model: {100 * self.completeness:.1f}% of the "
                "program projected]" if self.completeness < 1.0 else "")
        return self._table(f"design-space grid over {' x '.join(names)}",
                           names, lambda point: [point.overrides[name]
                                                 for name in names], note)


@dataclass
class InputPoint:
    """Projection at one input (workload-parameter) binding."""

    inputs: Dict[str, float]       #: swept input -> value for this point
    runtime: float                 #: projected whole-run wall seconds
    ranking: List[str]             #: hot-spot sites, hottest first
    top_label: str
    memory_fraction: float
    completeness: float = 1.0      #: modeled fraction (1.0 = no quarantine)


@dataclass
class InputSweepResult(_PointTable):
    """A sweep over workload inputs with one symbolic tree.

    Points are in row-major order over ``axes`` (last axis varies
    fastest) or in the caller's order for an explicit point list.
    ``timings`` carries per-stage seconds (``build`` / ``rebind`` /
    ``compile`` / ``project``) and ``cache_stats`` the replay and
    expression-cache counters, so the amortization is observable.
    """

    axes: Dict[str, List[float]]   #: input -> swept values ({} for lists)
    base_inputs: Dict[str, float]  #: bindings held constant
    points: List[InputPoint]
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)
    backend: str = "scalar"        #: resolved evaluation backend
    executor: str = ""             #: executor that ran the sweep
    shard_stats: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[Any] = field(default_factory=list)

    @property
    def parameters(self) -> List[str]:
        if self.axes:
            return list(self.axes)
        names: List[str] = []
        for point in self.points:
            for name in point.inputs:
                if name not in names:
                    names.append(name)
        return names

    def point(self, **inputs: float) -> InputPoint:
        """The point whose swept inputs match exactly."""
        for candidate in self.points:
            if candidate.inputs == inputs:
                return candidate
        raise AnalysisError(f"no sweep point with inputs {inputs}")

    def render(self) -> str:
        names = self.parameters
        return self._table(f"input sweep over {' x '.join(names) or '(none)'}",
                           names, lambda point: [point.inputs.get(name, 0)
                                                 for name in names])


def _cell_machine(base_machine: MachineModel,
                  overrides: Dict[str, float]) -> MachineModel:
    """The derived machine for one grid cell (single source of naming, so
    checkpoint-resumed points are bit-identical to computed ones).

    ``input:``-prefixed axes describe workload inputs, not machine
    fields; they appear in the name tag but are not applied as overrides.
    """
    tag = ",".join(f"{name}={value:g}"
                   for name, value in overrides.items())
    machine_part = {name: value for name, value in overrides.items()
                    if not name.startswith(INPUT_PREFIX)}
    return base_machine.with_overrides(
        name=f"{base_machine.name}[{tag}]", **machine_part)


def _projection_values(projection: Dict[str, Any]) -> Tuple:
    """The trailing fields every point type shares (``runtime``,
    ``ranking``, ``top_label``, ``memory_fraction``, ``completeness``),
    in field order, from a computed projection or a checkpoint payload
    (floats round-trip exactly through JSON, so a resumed point equals a
    computed one)."""
    return (projection["runtime"], list(projection["ranking"]),
            projection["top_label"], projection["memory_fraction"],
            projection.get("completeness", 1.0))


# -- the sweep core -------------------------------------------------------------

#: ``backend="auto"`` picks the vector backend at this many input points —
#: below it the batch-replay setup costs more than it saves
VECTOR_MIN_POINTS = 64

#: floor for the automatic chunk size: chunks smaller than this ship more
#: pickle traffic than work (and starve the vector backend of lanes)
_MIN_CHUNK_POINTS = 16


@dataclass
class _CellRun:
    """What the sweep core hands its adapters: one projection dict per
    cell (``None`` where the cell failed), plus the run's accounting."""

    projections: List[Optional[Dict[str, Any]]]
    failures: List[PointFailure]
    timings: Dict[str, float]
    counters: Dict[str, float]     #: replay/lane/expression counters
    backend: str
    executor: str
    shard_stats: Dict[str, float]
    diagnostics: List[Any]


def _evaluate_cell_list(base_machine: MachineModel,
                        cells: List[Dict[str, float]],
                        bet: Optional[BETNode] = None,
                        model_factory: Optional[Callable] = None,
                        k: int = 10,
                        workers: int = 1,
                        strict: bool = False,
                        policy: Optional[RetryPolicy] = None,
                        timeout: Optional[float] = None,
                        checkpoint: Optional[str] = None,
                        resume: bool = False,
                        checkpoint_key: Optional[str] = None,
                        validate: bool = True,
                        program: Optional[Program] = None,
                        inputs: Optional[Dict[str, float]] = None,
                        entry: str = "main",
                        library=None,
                        chunk_size: Optional[int] = None,
                        backend: str = "auto",
                        executor=None,
                        shards: Optional[int] = None,
                        topology=None,
                        chaos=None,
                        describe: Callable[..., str] = overrides_key,
                        ) -> _CellRun:
    """The one evaluation path behind every sweep entry point.

    Validates the cells, resolves the executor (``executor=None``: from
    ``workers``), opens the checkpoint, and dispatches the cells still
    pending in chunks through :func:`_run_chunked`: cells with input axes
    (or with no prebuilt ``bet``) bind a :class:`~repro.bet.SymbolicBET`
    per chunk, lane-planned on the vector backend; machine-only cells
    re-project ``bet`` point by point inside their chunk.  Projections
    come back as plain dicts: each adapter builds its own point type, so
    per-cell machines are only constructed where the result carries
    them.  ``describe`` renders a cell into its :class:`PointFailure`
    label.
    """
    if not cells:
        raise AnalysisError("evaluate_cells needs at least one cell")
    names = dict.fromkeys(name for cell in cells for name in cell)
    input_names = [name for name in names if name.startswith(INPUT_PREFIX)]
    machine_names = [name for name in names
                     if not name.startswith(INPUT_PREFIX)]
    for name in machine_names:
        if not hasattr(base_machine, name):
            raise AnalysisError(f"machine has no parameter {name!r}")
    if input_names and program is None:
        raise AnalysisError(
            f"cells override workload inputs {sorted(input_names)}; "
            "pass program= (and optionally inputs=)")
    if bet is None and program is None:
        raise AnalysisError("machine-only cells need a built BET (bet=) "
                            "or a program=")
    symbolic = bool(input_names) or bet is None
    if validate:
        ensure_valid_machine(base_machine)
    started = time.perf_counter()
    base_inputs = dict(inputs or {})
    backend = _resolve_backend(backend, len(cells),
                               has_machine_axes=bool(machine_names),
                               has_input_axes=symbolic)
    source: Any = bet
    if symbolic:
        # a content-keyed tree travels as a _TapeRef: the live tree in
        # process, its key plus one pickle per run across a boundary
        source = SymbolicBET(program, entry=entry, library=library)
        if library is None:
            source = _TapeRef(source)

    def point_payload(cell):
        return (source, base_machine, cell, base_inputs, model_factory, k)

    chunk_task = _cell_chunk_task if symbolic else _point_chunk_task
    vector = backend == "vector"

    def resolve(width: int):
        return resolve_executor(executor, workers=width, topology=topology,
                                chaos=chaos,
                                probe=(chunk_task, point_payload(cells[0])))

    def plan(indices: Sequence[int], width: int) -> List[List[int]]:
        """Chunks (lists of global cell indices) over ``indices``:
        ``shards`` splits them evenly, else an explicit ``chunk_size``
        wins, else :func:`_auto_chunk_size` over ``width``."""
        subset = [cells[index] for index in indices]
        size = (-(-len(subset) // max(1, int(shards))) if shards
                else chunk_size if chunk_size is not None
                else _auto_chunk_size(len(subset), width, vector=vector))
        size = max(1, size)
        if vector:
            # grouped dispatch (DESIGN.md §15): every chunk is one
            # lane-group slice, shipped as a columnar LanePack, or a slice
            # of the unbatchable residue
            positions = plan_lane_chunks(subset, size)
        else:
            positions = [range(start, min(start + size, len(subset)))
                         for start in range(0, len(subset), size)]
        return [[indices[position] for position in chunk]
                for chunk in positions]

    resolved = resolve(workers)
    chunks: Optional[List[List[int]]] = None     #: planned over every cell
    if resolved.width > 1 and timeout is None:
        chunks = plan(range(len(cells)), resolved.width)
        if len(chunks) < 2:
            # the whole sweep is one chunk: nothing to fan out, and no
            # deadline that only a worker process could enforce.  Decided
            # over every cell, not the pending ones, so a resumed run
            # resolves (and checkpoints) the same executor as its first
            # run
            resolved = resolve(1)
            chunks = None

    ckpt: Optional[SweepCheckpoint] = None
    if checkpoint:
        cell_keys = tuple(overrides_key(cell) for cell in cells)
        key = checkpoint_key or (
            sweep_key(program.fingerprint(),
                      tuple(sorted(base_inputs.items())), entry,
                      repr(base_machine), cell_keys, k)
            if symbolic else
            sweep_key(render_tree(bet), repr(base_machine), cell_keys, k))
        ckpt = SweepCheckpoint.load(
            checkpoint, key, resume=resume,
            settings=_checkpoint_settings(backend, model_factory,
                                          resolved.name))
        if any(not isinstance(payload, dict) or "overrides" not in payload
               for payload in ckpt.completed.values()):
            raise CheckpointError(
                f"[SKOP706] checkpoint {checkpoint} holds points in a "
                "format this engine no longer writes (an older "
                "sweep_machine or sweep_inputs file); delete it or drop "
                "--resume")

    projections: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    pending_indices: List[int] = []
    for index, cell in enumerate(cells):
        stored = ckpt.get(overrides_key(cell)) if ckpt else None
        if stored is not None:
            projections[index] = stored
        else:
            pending_indices.append(index)
    resumed = len(cells) - len(pending_indices)

    def record(index: int, projection: Dict[str, Any]) -> None:
        projections[index] = projection
        if ckpt is not None:
            cell = cells[index]
            ckpt.record(overrides_key(cell),
                        {"overrides": dict(cell), **projection})

    # a chunk stops at its first failing cell when that failure is final
    fail_fast = strict and policy is None and timeout is None
    if chunks is None or resumed:
        chunks = plan(pending_indices, resolved.width)

    def chunk_payload(chunk):
        chunk_cells = [cells[index] for index in chunk]
        signature = cell_signature(chunk_cells[0]) if vector else None
        shipped = (pack_group(chunk_cells, signature) if signature
                   else chunk_cells)
        return (source, base_machine, shipped, base_inputs, model_factory,
                k, fail_fast)

    try:
        failures, stages, shard_stats = _run_chunked(
            cells, chunks, [chunk_payload(chunk) for chunk in chunks],
            point_payload=point_payload, chunk_task=chunk_task,
            describe=describe, record=record, workers=workers,
            strict=strict, policy=policy, timeout=timeout,
            executor=resolved,
            # a named executor supervises its shards (retry per policy,
            # then quarantine); the default one only batches the
            # per-point model, so a chunk it loses goes to phase 2
            quarantine=executor is not None)
    finally:
        if ckpt is not None:
            ckpt.flush()

    elapsed = time.perf_counter() - started
    timings = {"project": stages.get("project_seconds", elapsed),
               "total": elapsed,
               "workers": float(max(workers, 1)),
               "points": float(sum(projection is not None
                                   for projection in projections)),
               "failed": float(len(failures)),
               "resumed": float(resumed)}
    counters: Dict[str, float] = {}
    if symbolic:
        timings.update(
            build=stages.get("bet_build_seconds", 0.0),
            rebind=stages.get("bet_replay_seconds", 0.0),
            batch=stages.get("bet_batch_seconds", 0.0),
            compile=stages.get("compile_seconds", 0.0))
        counters = {
            "bet_builds": stages.get("bet_builds", 0.0),
            "bet_replays": stages.get("bet_replays", 0.0),
            "bet_shape_rebuilds": stages.get("bet_shape_rebuilds", 0.0),
            "bet_batch_replays": stages.get("bet_batch_replays", 0.0),
            "lanes_vectorized": stages.get("bet_lanes_vectorized", 0.0),
            "lanes_fallback": stages.get("bet_lanes_fallback", 0.0),
            "lane_groups": stages.get("lane_groups", 0.0),
            "compiles": stages.get("compiles", 0.0),
            "compile_cache_hits": stages.get("compile_cache_hits", 0.0),
            "parse_cache_hits": stages.get("parse_cache_hits", 0.0)}
    return _CellRun(
        projections=projections, failures=failures, timings=timings,
        counters=counters, backend=backend, executor=resolved.name,
        shard_stats=shard_stats,
        diagnostics=list(ckpt.diagnostics) if ckpt is not None else [])


# -- the public entry points (adapters over the core) ---------------------------

def evaluate_cells(base_machine: MachineModel,
                   cells: Sequence[Dict[str, float]],
                   bet: Optional[BETNode] = None,
                   model_factory: Optional[Callable] = None,
                   k: int = 10,
                   workers: int = 1,
                   strict: bool = False,
                   policy: Optional[RetryPolicy] = None,
                   timeout: Optional[float] = None,
                   checkpoint: Optional[str] = None,
                   resume: bool = False,
                   checkpoint_key: Optional[str] = None,
                   validate: bool = True,
                   program: Optional[Program] = None,
                   inputs: Optional[Dict[str, float]] = None,
                   entry: str = "main",
                   library=None,
                   chunk_size: Optional[int] = None,
                   backend: str = "auto",
                   executor=None,
                   shards: Optional[int] = None,
                   topology=None,
                   chaos=None) -> GridResult:
    """Project an *explicit list* of machine×input cells, exactly.

    The caller names each cell — a dict of machine-field and/or
    ``input:<name>`` overrides — and gets one :class:`GridPoint` per cell
    (in order, failures recorded aside), computed through the chunked
    dispatch, vector backend, retry, checkpoint, and executor machinery
    that every sweep entry point shares (:func:`sweep_grid` is the cross
    product of a grid spec fed through here).  This is also the
    evaluation primitive of the :mod:`repro.explore` active-learning
    loop, which acquires scattered index sets of a lazy
    :class:`~repro.explore.GridSpace` rather than dense boxes.

    ``result.grid`` is the union of the cells' axes, each axis's values
    in first-encounter order.  ``checkpoint_key`` should be passed when
    the same checkpoint file accumulates several calls over one logical
    space (the explorer keys it by the space fingerprint); the default
    key hashes the exact cell list, so different batches would otherwise
    refuse to share a file.  Other parameters match :func:`sweep_grid`.
    """
    cells = list(cells)
    run = _evaluate_cell_list(
        base_machine, cells, bet=bet, model_factory=model_factory, k=k,
        workers=workers, strict=strict, policy=policy, timeout=timeout,
        checkpoint=checkpoint, resume=resume,
        checkpoint_key=checkpoint_key, validate=validate, program=program,
        inputs=inputs, entry=entry, library=library,
        chunk_size=chunk_size, backend=backend, executor=executor,
        shards=shards, topology=topology, chaos=chaos)
    # the axis union; a dict per axis keeps first-encounter order and
    # dedups equal values (1 == 1.0) in one pass
    union: Dict[str, Dict[Any, None]] = {}
    for cell in cells:
        for name, value in cell.items():
            union.setdefault(name, {})[value] = None
    cache_stats = bet_cache_stats().as_dict()
    cache_stats.update(run.counters)
    return GridResult(
        grid={name: list(values) for name, values in union.items()},
        points=[GridPoint(dict(cell), _cell_machine(base_machine, cell),
                          *_projection_values(projection))
                for cell, projection in zip(cells, run.projections)
                if projection is not None],
        timings=run.timings, cache_stats=cache_stats,
        failures=run.failures, backend=run.backend,
        executor=run.executor, shard_stats=run.shard_stats,
        diagnostics=run.diagnostics)


def _default_grid_key(bet: Optional[BETNode], base_machine: MachineModel,
                      grid: Dict[str, Sequence[float]], k: int,
                      program: Optional[Program] = None,
                      inputs: Optional[Dict[str, float]] = None,
                      entry: str = "main") -> str:
    """Content key tying a grid checkpoint to (tree or program + inputs,
    machine, grid, k)."""
    spec = sorted((name, tuple(values)) for name, values in grid.items())
    if program is not None and (bet is None or any(
            name.startswith(INPUT_PREFIX) for name in grid)):
        return sweep_key(program.fingerprint(),
                         tuple(sorted((inputs or {}).items())), entry,
                         repr(base_machine), spec, k)
    return sweep_key(render_tree(bet), repr(base_machine), spec, k)


def sweep_grid(bet: Optional[BETNode], base_machine: MachineModel,
               grid: Dict[str, Sequence[float]],
               model_factory: Optional[Callable] = None,
               k: int = 10,
               workers: int = 1,
               strict: bool = False,
               policy: Optional[RetryPolicy] = None,
               timeout: Optional[float] = None,
               checkpoint: Optional[str] = None,
               resume: bool = False,
               checkpoint_key: Optional[str] = None,
               validate: bool = True,
               program: Optional[Program] = None,
               inputs: Optional[Dict[str, float]] = None,
               entry: str = "main",
               library=None,
               chunk_size: Optional[int] = None,
               backend: str = "auto",
               executor=None,
               shards: Optional[int] = None,
               topology=None,
               chaos=None) -> GridResult:
    """Project one BET over the cross product of machine parameters.

    The cross product of ``grid`` is evaluated by :func:`evaluate_cells`
    (DESIGN.md §8); only the cell order, ``result.grid`` and the default
    checkpoint key are grid-specific.

    Parameters
    ----------
    bet:
        A built BET (machine independent; shared by every cell).  May be
        ``None`` when ``program`` is given and every axis is an input
        axis.
    base_machine:
        The machine whose fields are overridden per cell.
    grid:
        ``{parameter: values, ...}`` — cells are the cross product, in
        row-major order (last parameter varies fastest).  An axis named
        ``input:<name>`` sweeps the workload input ``<name>`` instead of
        a machine field; such grids require ``program`` and are routed
        through :class:`~repro.bet.SymbolicBET` rebinds with chunked
        dispatch (list input axes first so consecutive cells share a
        binding).
    workers:
        Process-pool width; ``1`` runs serially.  Ordering and values are
        identical either way.
    strict:
        ``False`` (default): a failing cell becomes a
        :class:`~repro.parallel.PointFailure` on ``result.failures`` while
        every healthy cell completes.  ``True`` restores fail-fast
        (:class:`~repro.errors.RetryExhaustedError` /
        :class:`~repro.errors.TaskTimeoutError`).
    policy:
        :class:`~repro.parallel.RetryPolicy` for transient faults
        (default: no retries).
    timeout:
        Per-cell bound in seconds, enforced on the parallel path.
    checkpoint / resume / checkpoint_key:
        Path for periodic JSON checkpoints of completed cells;
        ``resume=True`` skips cells already checkpointed (the key —
        defaulting to a hash of the rendered BET, the machine, and the
        grid — must match, else :class:`~repro.errors.CheckpointError`).
    validate:
        Pre-flight the base machine
        (:func:`~repro.hardware.validate_machine`) before any work.
    program / inputs / entry / library:
        The workload behind ``input:`` axes: per-cell bindings are
        ``inputs`` overlaid with the cell's input-axis values.
    chunk_size:
        Cells per shipped chunk on the input-axis path (default: about
        four chunks per worker, floored at 16 cells).
    backend:
        ``"scalar"``, ``"vector"``, or ``"auto"`` (default).  The vector
        backend batch-replays the input axes of each lane group (cells
        sharing machine overrides); ``auto`` selects it for input grids
        of at least :data:`VECTOR_MIN_POINTS` cells.
    executor / shards / topology / chaos:
        Sharded dispatch (DESIGN.md §12).  ``executor`` names a
        :class:`~repro.parallel.executors.SweepExecutor` (``"serial"`` /
        ``"pool"`` / ``"multinode"``) or is an instance; the grid is
        split into ``shards`` work units (default: about four per
        executor worker) scheduled with work-stealing, crash/heartbeat
        supervision, and poison-shard quarantine.  ``topology`` selects
        the simulated cluster for ``"multinode"``; ``chaos`` injects a
        :class:`~repro.parallel.chaos.ChaosSchedule` of executor-layer
        faults.  ``executor=None`` (default) resolves from ``workers``: in
        process for ``workers=1``, else a process pool of that width.
    """
    if not grid or any(len(list(values)) == 0 for values in grid.values()):
        raise AnalysisError("grid needs at least one value per parameter")
    names = list(grid)
    cells = [dict(zip(names, combo))
             for combo in itertools.product(*(grid[name] for name in names))]
    if checkpoint and not checkpoint_key and (bet is not None
                                              or program is not None):
        checkpoint_key = _default_grid_key(bet, base_machine, grid, k,
                                           program, inputs, entry)
    result = evaluate_cells(
        base_machine, cells, bet=bet, model_factory=model_factory, k=k,
        workers=workers, strict=strict, policy=policy, timeout=timeout,
        checkpoint=checkpoint, resume=resume,
        checkpoint_key=checkpoint_key, validate=validate, program=program,
        inputs=inputs, entry=entry, library=library,
        chunk_size=chunk_size, backend=backend, executor=executor,
        shards=shards, topology=topology, chaos=chaos)
    result.grid = {name: list(values) for name, values in grid.items()}
    return result


def _input_combos(axes) -> Tuple[Dict[str, List[float]],
                                 List[Dict[str, float]]]:
    """Normalize an axes dict or explicit point list into point dicts."""
    if isinstance(axes, dict):
        if not axes or any(len(list(values)) == 0
                           for values in axes.values()):
            raise AnalysisError(
                "input sweep needs at least one value per axis")
        names = list(axes)
        combos = [dict(zip(names, combo))
                  for combo in itertools.product(*(axes[name]
                                                   for name in names))]
        return {name: list(values) for name, values in axes.items()}, combos
    combos = [dict(point) for point in axes]
    if not combos:
        raise AnalysisError("input sweep needs at least one point")
    return {}, combos


def sweep_inputs(program: Program, machine: MachineModel, axes,
                 base_inputs: Optional[Dict[str, float]] = None,
                 entry: str = "main",
                 library=None,
                 model_factory: Optional[Callable] = None,
                 k: int = 10,
                 workers: int = 1,
                 chunk_size: Optional[int] = None,
                 strict: bool = False,
                 policy: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 checkpoint: Optional[str] = None,
                 resume: bool = False,
                 checkpoint_key: Optional[str] = None,
                 validate: bool = True,
                 backend: str = "auto",
                 executor=None,
                 shards: Optional[int] = None,
                 topology=None,
                 chaos=None) -> InputSweepResult:
    """Sweep workload inputs with one symbolic tree per worker.

    Where :func:`sweep_grid` re-projects a fixed BET across machines,
    this routes *input*-axis points through
    :meth:`~repro.bet.SymbolicBET.rebind`: the tree structure is built
    (and its expressions compiled) once, then each point replays only the
    input-dependent annotations.  Each point is an ``input:``-prefixed
    cell of the :func:`evaluate_cells` core, so points ship in chunks and
    each worker amortizes one recorded build across its whole chunk;
    results are bit-identical to building a fresh BET per point.

    Parameters
    ----------
    axes:
        Either ``{input: values, ...}`` — points are the cross product in
        row-major order (last axis varies fastest) — or an explicit
        sequence of ``{input: value, ...}`` dicts, swept in order.
    base_inputs:
        Bindings held constant across the sweep (per-point values win).
    chunk_size:
        Points per shipped chunk (default: spread pending points about
        four chunks per worker; serial runs use one chunk).
    strict / policy / timeout / checkpoint / resume / checkpoint_key:
        The per-point fault semantics: failed points are
        retried individually under ``policy`` with exact per-point
        ``timeout``; ``strict=True`` fail-fasts with the canonical error;
        completed points checkpoint by their input bindings and are
        skipped on ``resume=True``.
    backend:
        ``"scalar"`` binds and projects point by point; ``"vector"``
        evaluates each chunk as one array-batched tape replay plus a
        batched model projection (bit-identical results; lanes the batch
        cannot vectorize transparently take the scalar path);
        ``"auto"`` (default) picks vector for sweeps of at least
        :data:`VECTOR_MIN_POINTS` points when numpy is available.
    executor / shards / topology / chaos:
        Sharded dispatch with supervision and quarantine — see
        :func:`sweep_grid`; semantics are identical here, with each
        chunk of input points forming one shard.
    """
    axes_dict, combos = _input_combos(axes)
    base = dict(base_inputs or {})
    if checkpoint and not checkpoint_key:
        checkpoint_key = sweep_key(
            program.fingerprint(), repr(machine),
            sorted((name, tuple(values)) for name, values in axes_dict.items())
            if axes_dict else [tuple(sorted(combo.items()))
                               for combo in combos],
            tuple(sorted(base.items())), entry, k)
    run = _evaluate_cell_list(
        machine, [{INPUT_PREFIX + name: value
                   for name, value in combo.items()} for combo in combos],
        model_factory=model_factory, k=k, workers=workers, strict=strict,
        policy=policy, timeout=timeout, checkpoint=checkpoint,
        resume=resume, checkpoint_key=checkpoint_key, validate=validate,
        program=program, inputs=base, entry=entry, library=library,
        chunk_size=chunk_size, backend=backend, executor=executor,
        shards=shards, topology=topology, chaos=chaos,
        describe=lambda cell: overrides_key(split_overrides(cell)[1]))
    return InputSweepResult(
        axes=axes_dict, base_inputs=base,
        points=[InputPoint(dict(combo), *_projection_values(projection))
                for combo, projection in zip(combos, run.projections)
                if projection is not None],
        timings=run.timings, cache_stats=run.counters,
        failures=run.failures, backend=run.backend, executor=run.executor,
        shard_stats=run.shard_stats, diagnostics=run.diagnostics)


# -- dispatch -------------------------------------------------------------------

def _auto_chunk_size(total: int, workers: int,
                     vector: bool = False) -> int:
    """Points per chunk: about four chunks per worker, floored so tiny
    sweeps on many workers do not degenerate into one-point chunks.

    On a vector-backend sweep (``vector=True``) the floor rises to
    :data:`VECTOR_MIN_POINTS`: a chunk is one ``rebind_batch`` lane
    array, and splitting a vector-eligible group below the
    auto-vectorization threshold would leave its lanes running scalar
    for no reason.
    """
    if total <= 0:
        return 1
    if workers <= 1:
        return total
    floor = VECTOR_MIN_POINTS if vector else _MIN_CHUNK_POINTS
    per_worker = -(-total // (workers * 4))
    return max(1, min(total, max(per_worker, floor)))


def _resolve_backend(backend: str, points: int, has_machine_axes: bool,
                     has_input_axes: bool = True) -> str:
    """Validate and resolve a sweep's ``backend`` choice.

    ``auto`` picks ``vector`` when it is a clear win: numpy present,
    input axes to batch over, and at least :data:`VECTOR_MIN_POINTS`
    points to amortize the batch setup.  Mixed machine×input cell lists
    qualify too — the grouped dispatch path partitions them into
    machine-signature lane groups (DESIGN.md §15) so each group replays
    as one lane array.
    """
    if backend not in ("scalar", "vector", "auto"):
        raise AnalysisError(
            f"unknown sweep backend {backend!r}; expected 'scalar', "
            f"'vector', or 'auto'")
    if backend == "vector":
        if not _aops.HAVE_NUMPY:
            raise AnalysisError("backend='vector' requires numpy")
        if not has_input_axes:
            raise AnalysisError("the vector backend batches over input "
                                "axes; this sweep has none")
        return "vector"
    if backend == "auto" and _aops.HAVE_NUMPY and has_input_axes \
            and points >= VECTOR_MIN_POINTS:
        return "vector"
    return "scalar"


def _checkpoint_settings(backend: str,
                         model_factory: Optional[Callable],
                         executor: str) -> Dict[str, str]:
    """Evaluation-semantics fingerprint stored inside a checkpoint.

    A resumed run must produce points comparable with the stored ones,
    so the checkpoint refuses (``SKOP706``) to merge across a change of
    backend, cache model, or executor kind — the dimensions that decide
    *how* a point's numbers were computed, as opposed to *which* points
    (those live in the sweep key).  The backend is recorded post-
    resolution: ``auto`` that resolved to ``vector`` is the same
    semantics as an explicit ``vector``, and ``executor=None`` records
    the executor it resolved to.
    """
    return {"backend": backend, "cache_model": factory_tag(model_factory),
            "executor": executor}


def _run_chunked(cells: Sequence,
                 chunks: List[List[int]],
                 payloads: List[Any],
                 point_payload: Callable[[Any], Any],
                 chunk_task: Callable,
                 describe: Callable[[Any], str],
                 record: Callable[[int, Any], None],
                 workers: int,
                 strict: bool,
                 policy: Optional[RetryPolicy],
                 timeout: Optional[float],
                 executor,
                 quarantine: bool):
    """Chunked two-phase dispatch of the sweep core.

    ``chunks`` are lists of indices into ``cells`` (contiguous runs, or
    lane-group slices from :func:`~repro.parallel.lanes.plan_lane_chunks`)
    shipped as ``payloads``.  Phase 1 runs each chunk as one shard of a
    :class:`~repro.parallel.shard.ShardScheduler` on ``executor``, so a
    worker amortizes one symbolic build across the chunk; the chunk task
    traps per-point errors as rows.  With ``quarantine`` the scheduler
    retries a faulting shard per ``policy`` and a shard it quarantines is
    terminal (its points become :class:`PointFailure` records); without
    it a shard gets one attempt and its points fail like points failing
    inside a healthy chunk.  Those get phase 2 — one at a time through
    :func:`resilient_map`, so a hung point times out alone — only when a
    retry policy or timeout is configured; otherwise they are final:
    recorded, or under ``strict`` the lowest failing index raises
    :class:`~repro.errors.RetryExhaustedError` from its first attempt.

    Every computed point goes to ``record(index, value)``.
    Returns ``(failures, stages, shard_stats)``: ``stages`` sums
    per-stage seconds and cache counters over the chunks, ``shard_stats``
    holds the scheduler's counters.
    """
    chunk_size = max((len(chunk) for chunk in chunks), default=1)
    fail_rows: Dict[int, PointFailure] = {}
    stages: Dict[str, float] = {}

    def on_chunk(local: int, result) -> None:
        rows, stats = result
        for name, value in stats.items():
            stages[name] = stages.get(name, 0.0) + value
        for index, row in zip(chunks[local], rows):
            if row[0] == "ok":
                record(index, row[1])
            else:
                fail_rows[index] = row[1]

    scheduler = ShardScheduler(
        executor, policy=policy if quarantine else None,
        timeout=(timeout * chunk_size if timeout else None))
    run = scheduler.run(chunk_task, payloads,
                        sizes=[len(chunk) for chunk in chunks],
                        on_result=on_chunk)
    failures: List[PointFailure] = []
    for shard_id in sorted(run.quarantined):
        error = run.quarantined[shard_id]
        if not quarantine:
            fail_rows.update((index, PointFailure(
                index, error.error_type, error.message, "", error.attempts))
                for index in chunks[shard_id])
            continue
        if strict:
            raise error
        failures += [PointFailure(
            index=index, error_type=error.error_type,
            message=(f"shard {shard_id} quarantined after "
                     f"{error.attempts} attempts: {error.message}"),
            traceback="", attempts=error.attempts,
            item=describe(cells[index])) for index in chunks[shard_id]]

    targets = sorted(fail_rows)
    if targets and (policy is not None or timeout is not None):
        # phase 2: the failed points get the full per-point semantics —
        # retries with backoff, exact timeouts, fail-fast
        failures += resilient_map(
            _cell_point_task,
            [point_payload(cells[index]) for index in targets],
            workers=workers, policy=policy, timeout=timeout,
            strict=strict, indices=targets,
            describe=lambda payload: describe(payload[2]),
            on_point=lambda local, value: record(targets[local],
                                                 value)).failures
    elif targets and strict:
        first = fail_rows[targets[0]]
        raise RetryExhaustedError(targets[0], first.attempts,
                                  first.error_type, first.message,
                                  first.traceback) from first.exception
    else:
        failures += [replace(fail_rows[index], index=index,
                             item=describe(cells[index]))
                     for index in targets]
    failures.sort(key=lambda failure: failure.index)
    return failures, stages, run.stats


# -- worker tasks ---------------------------------------------------------------

#: worker-resident symbolic trees, keyed by content (program fingerprint,
#: entry, builder options): pool workers persist across chunks — and, on
#: the warm pool, across runs — so one recorded build serves every chunk a
#: worker receives for a program
_SYM_CACHE: Dict[Tuple, SymbolicBET] = {}
_SYM_CACHE_LIMIT = 8
_SYM_LOCK = threading.Lock()


class _TapeRef:
    """A chunk payload's handle on the run's :class:`SymbolicBET`.

    In process it holds the live tree, handed over as is.  Pickled, it is
    the tree's content key plus the tree pickled once per run (both
    computed on the first pickle and reused for every later chunk), so a
    worker that already holds the key replays its resident tape without
    unpickling the program or hashing it again.
    """

    __slots__ = ("sym", "_key", "_blob")

    def __init__(self, sym: SymbolicBET):
        self.sym: Optional[SymbolicBET] = sym
        self._key: Optional[Tuple] = None
        self._blob: Optional[bytes] = None

    def key(self) -> Tuple:
        if self._key is None:
            self._key = (self.sym.program.fingerprint(), self.sym.entry,
                         repr(sorted(self.sym.builder_kwargs.items())))
        return self._key

    def tape(self) -> SymbolicBET:
        """The live tree, or a fresh unpickled copy of the shipped one."""
        return self.sym if self.sym is not None else pickle.loads(self._blob)

    def __getstate__(self):
        if self._blob is None:
            self._blob = pickle.dumps(self.sym)
        return self.key(), self._blob

    def __setstate__(self, state):
        self.sym = None
        self._key, self._blob = state


@contextlib.contextmanager
def _symbolic_for(source):
    """Check out the process's resident :class:`SymbolicBET` for
    ``source`` (a :class:`_TapeRef` or a :class:`SymbolicBET`) for the
    duration of a ``with`` block.

    Keeping one recorded instance per content key means later chunks —
    later runs, on a warm pool — replay an already-recorded tape instead
    of rebuilding.  A checked-out tape is off the cache until its block
    ends, so two threads evaluating one program never bind the same tape
    (rebinds mutate the shared tree): the second uses its own copy, and
    whichever finishes first returns its tape to the cache.  Trees with a
    custom library are not content-keyed and are used as shipped.
    """
    if isinstance(source, SymbolicBET):
        if source.library is not None:
            yield source
            return
        source = _TapeRef(source)
    key = source.key()
    with _SYM_LOCK:
        tape = _SYM_CACHE.pop(key, None)
    if tape is None:
        tape = source.tape()
    try:
        yield tape
    finally:
        with _SYM_LOCK:
            if key not in _SYM_CACHE:
                if len(_SYM_CACHE) >= _SYM_CACHE_LIMIT:
                    _SYM_CACHE.pop(next(iter(_SYM_CACHE)))
                _SYM_CACHE[key] = tape


def clear_symbolic_cache() -> None:
    """Drop worker-resident symbolic trees (mainly for tests)."""
    with _SYM_LOCK:
        _SYM_CACHE.clear()


def _perf_counters() -> Dict[str, float]:
    """Process-wide expression-layer counters (compile + parse caches)."""
    from ..expressions import compile_stats, parser_stats
    compiled = compile_stats()
    parsed = parser_stats()
    return {"compile_seconds": float(compiled["compile_seconds"]),
            "compiles": float(compiled["compiles"]),
            "compile_cache_hits": float(compiled["cache_hits"]),
            "parse_cache_hits": float(parsed["cache_hits"])}


def _stage_snapshot(sym: SymbolicBET) -> Dict[str, float]:
    snap = {f"bet_{name}": float(value)
            for name, value in sym.stats.items()}
    snap.update(_perf_counters())
    snap["project_seconds"] = 0.0
    return snap


def _stage_delta(sym: SymbolicBET, before: Dict[str, float],
                 project_seconds: float) -> Dict[str, float]:
    after = _stage_snapshot(sym)
    after["project_seconds"] = project_seconds
    return {name: after[name] - before.get(name, 0.0)
            for name in after}


def _fail_row(exc: Exception) -> Tuple:
    # the record keeps the live exception (the strict error's cause) for
    # as long as the row stays in this process
    return ("fail", PointFailure.from_exception(0, exc, 1))


def _scalar_rows(sym: SymbolicBET, base_machine: MachineModel, cells,
                 base_inputs, model_factory, k: int,
                 fail_fast: bool = False):
    """Bind and project cells one at a time.

    One timing model serves every cell of a machine signature (a model
    depends only on the machine's numeric fields), and consecutive cells
    with equal bindings share one bind.  Returns ``(rows,
    project_seconds)``; per-cell errors become fail rows, and with
    ``fail_fast`` the first one ends the loop.
    """
    factory = model_factory or RooflineModel
    models: Dict[Tuple, Any] = {}
    rows: List[Tuple] = []
    project_seconds = 0.0
    bound_key: Any = None
    bet: Optional[BETNode] = None
    for cell in cells:
        machine_part, input_part = split_overrides(cell)
        try:
            signature = tuple(sorted(machine_part.items()))
            model = models.get(signature)
            if model is None:
                # built from this cell's machine, so an invalid override
                # fails with the cell's own name tag (failures are not
                # cached: every such cell reports its own error)
                model = factory(_cell_machine(base_machine, cell)
                                if machine_part else base_machine)
                models[signature] = model
            inputs = {**base_inputs, **input_part}
            key = tuple(sorted(inputs.items()))
            if bet is None or key != bound_key:
                bet = sym.bind(inputs)
                bound_key = key
            started = time.perf_counter()
            rows.append(("ok", project_with_model(bet, model, k)))
            project_seconds += time.perf_counter() - started
        except Exception as exc:              # captured, re-raised in phase 2
            rows.append(_fail_row(exc))
            if fail_fast:
                break
            bet, bound_key = None, None   # bind state unknown after a fault
    return rows, project_seconds


def _lane_pack_rows(sym: SymbolicBET, base_machine: MachineModel,
                    pack: LanePack, base_inputs, model_factory, k: int,
                    fail_fast: bool = False):
    """Batch-evaluate one packed lane-group slice (DESIGN.md §15).

    The pack is a single machine signature, so the whole chunk is one
    ``rebind_batch`` lane array against one timing model; lanes the
    batch cannot vectorize (shape flips, domain errors, unsafe values —
    or the whole pack, if the model or the batch cannot be built) run
    through :func:`_scalar_rows`, which reproduces the canonical
    per-cell result or error.  Returns ``(rows, project_seconds,
    lane_groups)`` in lane (= original chunk) order; with ``fail_fast``
    the rows end before the first fallback lane left unrun.
    """
    factory = model_factory or RooflineModel
    project_seconds = 0.0
    lane_groups = 0
    machine_part = pack.machine_part()
    try:
        model = factory(_cell_machine(base_machine, machine_part)
                        if machine_part else base_machine)
        batch = sym.rebind_batch(pack.input_columns(base_inputs))
        started = time.perf_counter()
        projections = project_batch(batch, model, k)
        project_seconds = time.perf_counter() - started
        lane_groups = 1
    except Exception:
        projections = [None] * pack.count
    rows: List[Any] = [("ok", projection) for projection in projections]
    fallback = [lane for lane, projection in enumerate(projections)
                if projection is None]
    if fallback:
        cells = pack.cells()
        fallback_rows, seconds = _scalar_rows(
            sym, base_machine, [cells[lane] for lane in fallback],
            base_inputs, model_factory, k, fail_fast)
        for lane, row in zip(fallback, fallback_rows):
            rows[lane] = row
        if len(fallback_rows) < len(fallback):
            rows = rows[:fallback[len(fallback_rows)]]
        project_seconds += seconds
    return rows, project_seconds, lane_groups


def _cell_chunk_task(payload):
    """Process-pool task: bind + project one chunk of cells.

    A chunk shipped as a :class:`~repro.parallel.lanes.LanePack` is one
    pre-planned lane group, batch-replayed in one pass; a plain cell list
    runs the scalar loop.  One symbolic build (first chunk per worker;
    replays after) amortizes across every cell, and per-cell errors are
    captured as rows, never raised, so chunk-mates always complete.
    """
    (shipped, base_machine, cells, base_inputs, model_factory, k,
     fail_fast) = payload
    with _symbolic_for(shipped) as sym:
        before = _stage_snapshot(sym)
        if isinstance(cells, LanePack):
            rows, project_seconds, lane_groups = _lane_pack_rows(
                sym, base_machine, cells, base_inputs, model_factory, k,
                fail_fast)
        else:
            rows, project_seconds = _scalar_rows(
                sym, base_machine, cells, base_inputs, model_factory, k,
                fail_fast)
            lane_groups = 0
        delta = _stage_delta(sym, before, project_seconds)
    delta["lane_groups"] = float(lane_groups)
    return rows, delta


def _cell_point_task(payload) -> Dict[str, Any]:
    """Process-pool task: project one cell — machine-only cells over the
    shared BET, or (phase 2 / retries) one input cell via a rebind."""
    source, base_machine, cell, base_inputs, model_factory, k = payload
    machine_part, input_part = split_overrides(cell)
    machine = (_cell_machine(base_machine, cell) if machine_part
               else base_machine)
    if not isinstance(source, (SymbolicBET, _TapeRef)):
        return project_machine(source, machine, model_factory, k)
    with _symbolic_for(source) as sym:
        bet = sym.bind({**base_inputs, **input_part})
        return project_machine(bet, machine, model_factory, k)


def _point_chunk_task(payload):
    """Process-pool task: project one chunk of machine-only cells.

    Runs :func:`_cell_point_task` per cell in the chunked ``(rows,
    stats)`` protocol, so machine-only cells shard exactly like input
    cells: per-point errors become fail rows (phase-2 territory), never
    shard faults, and with ``fail_fast`` the first one ends the chunk.
    """
    source, base_machine, cells, base_inputs, model_factory, k, \
        fail_fast = payload
    rows = []
    for cell in cells:
        try:
            rows.append(("ok", _cell_point_task(
                (source, base_machine, cell, base_inputs, model_factory,
                 k))))
        except Exception as exc:
            rows.append(_fail_row(exc))
            if fail_fast:
                break
    return rows, {}


# -- batched full analyses ----------------------------------------------------

def _analyze_task(payload):
    """Process-pool task: one full Prof-vs-Modl pipeline run."""
    from ..experiments import pipeline
    name, machine, options = payload
    return pipeline.analyze(name, machine, **dict(options))


def analyze_matrix(workloads: Sequence[str],
                   machines: Sequence,
                   ablations: Optional[Sequence[Dict]] = None,
                   workers: int = 1,
                   strict: bool = True,
                   policy: Optional[RetryPolicy] = None,
                   timeout: Optional[float] = None):
    """Run the full pipeline over a (workload × machine × ablation) matrix.

    ``ablations`` is a sequence of keyword-option dicts for
    :func:`repro.experiments.analyze` (default: one empty dict — the
    paper's baseline configuration).  Results come back as a flat list in
    row-major (workload, machine, ablation) order, deterministic for any
    worker count, and are inserted into the shared bounded pipeline cache
    so subsequent slicing (figures, tables) hits instead of re-running.

    With ``strict=False`` a failing matrix point (after any retries per
    ``policy``, or exceeding ``timeout`` on the parallel path) occupies
    its slot as a :class:`~repro.parallel.PointFailure` record instead of
    aborting the batch; healthy points are unaffected.  ``strict=True``
    raises :class:`~repro.errors.RetryExhaustedError` (chained from the
    original error) for the first failing point.
    """
    from ..experiments import pipeline
    option_sets = [dict(options) for options in (ablations or [{}])]
    tasks = [(name, machine, tuple(sorted(options.items())))
             for name in workloads
             for machine in machines
             for options in option_sets]
    started = time.perf_counter()
    outcome = resilient_map(
        _analyze_task, tasks, workers=workers, policy=policy,
        timeout=timeout, strict=strict,
        describe=lambda task: f"{task[0]}@{getattr(task[1], 'name', task[1])}")
    failures = {failure.index: failure for failure in outcome.failures}
    results = []
    for slot, (value, task) in enumerate(zip(outcome.results, tasks)):
        if slot in failures:
            results.append(failures[slot])
            continue
        if workers > 1:
            pipeline.remember(value, **dict(task[2]))
        results.append(value)
    elapsed = time.perf_counter() - started
    for analysis in results:
        if hasattr(analysis, "timings"):
            analysis.timings.setdefault("matrix_total", elapsed)
    return results
