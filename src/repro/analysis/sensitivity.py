"""Design-space sensitivity analysis.

Co-design asks not just "what is hot on machine X" but "how does the answer
move as I turn a hardware knob?"  Given one BET (built once — it is machine
independent), :func:`sweep_machine` re-characterizes it across a parameter
sweep and reports, per point, the projected runtime, the hot-spot ranking,
and how stable the ranking is relative to the baseline — the quantitative
version of the paper's observation that hot spots do not port across
machines (Sec. I).

The sweep is the one-axis adapter over the :mod:`repro.parallel` sweep
core (:func:`repro.parallel.evaluate_cells`): ``workers > 1`` fans the
points out to a process pool, and results are deterministic and
bit-identical to the serial path.  For multi-parameter grids and batched
full analyses see :func:`repro.parallel.sweep_grid` and
:func:`repro.parallel.analyze_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..bet.nodes import BETNode
from ..errors import AnalysisError
from ..hardware.machine import MachineModel
from ..hardware.roofline import RooflineModel
from .block_metrics import characterize, total_time
from .hotspots import group_blocks
from .quality import common_spots


@dataclass
class SweepPoint:
    """Projection at one value of the swept parameter."""

    value: float
    machine: MachineModel
    runtime: float                 #: projected whole-run wall seconds
    ranking: List[str]             #: hot-spot sites, hottest first
    top_label: str
    memory_fraction: float         #: non-overlapped memory share
    completeness: float = 1.0      #: modeled fraction (1.0 = no quarantine)

    def common_with(self, other: "SweepPoint", k: int = 10) -> int:
        return len(common_spots(self.ranking[:k], other.ranking[:k]))


@dataclass
class SweepResult:
    """A full parameter sweep.

    Values that failed to project (after any configured retries) are
    absent from ``points`` and recorded as structured
    :class:`~repro.parallel.PointFailure` entries in ``failures``.
    """

    parameter: str
    points: List[SweepPoint]
    #: per-stage wall seconds (``project``, ``total``) and engine facts
    #: (``workers``, ``points``, ``failed``, ``resumed``) recorded by the
    #: sweep driver
    timings: Dict[str, float] = field(default_factory=dict)
    failures: List = field(default_factory=list)
    #: checkpoint-salvage and other sweep-level diagnostics (SKOP701…)
    diagnostics: List = field(default_factory=list)

    @property
    def baseline(self) -> SweepPoint:
        return self.points[0]

    @property
    def completeness(self) -> float:
        """Modeled fraction of the swept BET (< 1.0 after a degraded
        build quarantined part of the program)."""
        if not self.points:
            return 1.0
        return min(point.completeness for point in self.points)

    def ranking_stability(self, k: int = 10) -> List[float]:
        """Per point: fraction of the baseline top-k still in the top-k."""
        out = []
        for point in self.points:
            shared = point.common_with(self.baseline, k)
            out.append(shared / min(k, len(self.baseline.ranking) or 1))
        return out

    def runtime_curve(self) -> List[float]:
        return [point.runtime for point in self.points]

    def render(self) -> str:
        stability = self.ranking_stability() if self.points else []
        head = f"sensitivity sweep over {self.parameter!r}"
        if self.failures:
            head += f" ({len(self.failures)} point(s) failed)"
        if self.completeness < 1.0:
            head += (f" [degraded model: {100 * self.completeness:.1f}% "
                     f"of the program projected]")
        lines = [head,
                 f"{'value':>12}  {'runtime':>10}  {'mem%':>6}  "
                 f"{'top-10 kept':>11}  top hot spot"]
        for point, kept in zip(self.points, stability):
            lines.append(
                f"{point.value:12.4g}  {point.runtime:10.4g}  "
                f"{100 * point.memory_fraction:5.1f}%  "
                f"{100 * kept:10.0f}%  {point.top_label}")
        for failure in self.failures:
            lines.append(failure.render())
        return "\n".join(lines)


def project_machine(bet: BETNode, machine: MachineModel,
                    model_factory: Optional[Callable] = None,
                    k: int = 10) -> Dict[str, object]:
    """Characterize one BET on one machine, returning the sweep metrics.

    Shared by :func:`sweep_machine`, the grid engine, and the CLI so a
    reported (runtime, ranking, memory fraction) always has one source.
    """
    factory = model_factory or RooflineModel
    return project_with_model(bet, factory(machine), k)


def project_with_model(bet: BETNode, model, k: int = 10) -> Dict[str, object]:
    """:func:`project_machine` with a prebuilt timing model.

    Input sweeps project thousands of BETs on one fixed machine; reusing
    the model skips the per-point construction and pre-flight validation
    while computing exactly the same numbers.
    """
    records = characterize(bet, model)
    spots = group_blocks(records)
    runtime = total_time(records)
    hot_total = sum(s.projected_time for s in spots[:k])
    hot_memory = sum(s.memory_time - s.overlap_time for s in spots[:k])
    # a degraded build leaves its BuildReport on the root's ``meta``;
    # carry its completeness so every downstream report shows it
    report = getattr(bet, "meta", None)
    return {
        "runtime": runtime,
        "ranking": [s.site for s in spots],
        "top_label": spots[0].label if spots else "-",
        "memory_fraction": hot_memory / hot_total if hot_total else 0.0,
        "completeness": getattr(report, "completeness", 1.0),
    }


def sweep_machine(bet: BETNode,
                  base_machine: MachineModel,
                  parameter: str,
                  values: Sequence[float],
                  model_factory: Optional[Callable] = None,
                  k: int = 10,
                  workers: int = 1,
                  strict: bool = False,
                  policy=None,
                  timeout: Optional[float] = None,
                  checkpoint: Optional[str] = None,
                  resume: bool = False,
                  checkpoint_key: Optional[str] = None,
                  validate: bool = True) -> SweepResult:
    """Re-project one BET across a machine-parameter sweep.

    Parameters
    ----------
    bet:
        A built BET (machine independent; reused across all points).
    base_machine:
        The machine whose ``parameter`` field is overridden per point.
    parameter:
        A :class:`~repro.hardware.MachineModel` field name
        (``bandwidth``, ``cores``, ``div_cost``, ``llc_size``, ...).
    values:
        Values to sweep; the first is the baseline for stability metrics.
    model_factory:
        ``machine -> block-time model`` (default: plain RooflineModel).
    workers:
        Process-pool width; ``1`` (the default) runs serially.  Parallel
        results are deterministic and identical to the serial path.
    strict / policy / timeout:
        Resilience knobs (see :func:`repro.parallel.sweep_grid`): by
        default a failing value becomes a
        :class:`~repro.parallel.PointFailure` on ``result.failures``;
        ``strict=True`` restores fail-fast; ``policy`` retries transient
        faults with deterministic backoff; ``timeout`` bounds each point
        on the parallel path.
    checkpoint / resume / checkpoint_key:
        Periodic JSON checkpointing of completed values, resumable after
        an interruption (see :class:`repro.parallel.SweepCheckpoint`).
    validate:
        Pre-flight the base machine before any work.
    """
    from ..bet.nodes import render_tree
    from ..expressions import compile_stats, parser_stats
    from ..parallel.engine import (
        _cell_machine, _evaluate_cell_list, _projection_values,
    )
    from ..parallel.fault import sweep_key
    if not values:
        raise AnalysisError("sweep needs at least one value")
    values = list(values)
    if checkpoint and not checkpoint_key:
        checkpoint_key = sweep_key(render_tree(bet), repr(base_machine),
                                   parameter, tuple(values), k)
    compiled, parsed = compile_stats(), parser_stats()
    run = _evaluate_cell_list(
        base_machine, [{parameter: value} for value in values], bet=bet,
        model_factory=model_factory, k=k, workers=workers, strict=strict,
        policy=policy, timeout=timeout, checkpoint=checkpoint,
        resume=resume, checkpoint_key=checkpoint_key, validate=validate,
        describe=lambda cell: f"{parameter}={cell[parameter]:g}")
    # expression-layer counters (serial path; workers compile in their
    # own processes) so `repro sweep --stats` sees the cache behaviour
    compiled_after, parsed_after = compile_stats(), parser_stats()
    timings = dict(
        run.timings,
        compile=float(compiled_after["compile_seconds"]
                      - compiled["compile_seconds"]),
        compile_cache_hits=float(compiled_after["cache_hits"]
                                 - compiled["cache_hits"]),
        parse_cache_hits=float(parsed_after["cache_hits"]
                               - parsed["cache_hits"]))
    points = [SweepPoint(value, _cell_machine(base_machine,
                                              {parameter: value}),
                         *_projection_values(projection))
              for value, projection in zip(values, run.projections)
              if projection is not None]
    return SweepResult(parameter=parameter, points=points,
                       timings=timings, failures=run.failures,
                       diagnostics=run.diagnostics)
