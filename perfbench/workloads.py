"""Seeded op generators, op runners and correctness oracles.

Each workload turns ``--seed`` into a fixed op list before timing starts;
the program only ever sees the generated inputs.  Op lists are built in
shuffled *blocks* that each hold every combination of the properties an
op's cost depends on (workload, machine, cache model, size) once, so any
prefix a timed run completes has nearly the same mix whatever the seed.
Inside a block the seed picks the order and the input bindings.

Library workloads (``analyze-hotpath``, ``sweep-inputs``,
``cells-mixed``) are classes with ``warm()``, ``run(op)`` (the timed
call), ``digest(op, output)`` (what the check needs, kept in memory) and
``check(op, digest)``; ``serve-mix`` lives in :mod:`serve`.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, Tuple

import repro
from repro import export
from repro.analysis.sensitivity import project_with_model
from repro.bet import SymbolicBET
from repro.hardware.cachemodel import RooflineFactory, cache_model_by_name

WORKLOADS = ("cfd", "chargei", "pedagogical", "sord", "srad", "stassuij")
MACHINES = ("bgq", "xeon")
CACHE_MODELS = ("constant", "analytic")
#: inputs that count iterations rather than sizes (see workloads.load)
ITERATION_INPUTS = ("nt", "niter", "nloop", "reps")
SWEEP_SIZES = (4, 8, 16, 32, 64, 128, 256, 1000)
CELL_WORKLOADS = ("sord", "cfd", "srad")
CELL_GROUPS = (4, 8, 12, 16)
#: machine fields a cell may override, with the factors applied to the
#: preset's value; a machine signature is one (bandwidth, cores) pair
CELL_FIELDS = {"bandwidth": (0.5, 1.0, 2.0, 4.0),
               "cores": (0.5, 1.0, 2.0, 4.0)}


def defaults(workload: str) -> Dict[str, float]:
    return dict(repro.workloads.spec(workload).default_inputs)


def bind_value(rng: random.Random, name: str, default: float) -> int:
    """A seeded positive integer near ``default`` (sizes vary 0.5x-2x,
    iteration counts 0.5x-1.5x), so bindings rarely repeat."""
    if name in ITERATION_INPUTS:
        factor = rng.uniform(0.5, 1.5)
    else:
        factor = 2.0 ** rng.uniform(-1.0, 1.0)
    return max(1, int(round(default * factor)))


def bindings(rng: random.Random, workload: str) -> Dict[str, int]:
    return {name: bind_value(rng, name, value)
            for name, value in sorted(defaults(workload).items())}


def model_factory(cache_model: str):
    """``None`` for the constant model: the engine's own default path."""
    model = cache_model_by_name(cache_model)
    return RooflineFactory(cache_model=model) if model is not None else None


def timing_model(machine, cache_model: str):
    return repro.RooflineModel(machine,
                               cache_model=cache_model_by_name(cache_model))


def projection_fields(projection: Dict[str, Any]) -> Tuple:
    """The exported fields of one projected point, for exact comparison."""
    return (projection["runtime"], list(projection["ranking"][:10]),
            projection["top_label"], projection["memory_fraction"],
            projection["completeness"])


def exported_fields(point: Dict[str, Any]) -> Tuple:
    return (point["runtime_seconds"], point["ranking"], point["top_spot"],
            point["memory_fraction"], point["completeness"])


def blocks(rng: random.Random, combos: List[Tuple], total: int) -> List:
    """``total`` items: shuffled copies of ``combos``, one block after
    another, so every prefix is close to the full mix."""
    out: List = []
    while len(out) < total:
        block = list(combos)
        rng.shuffle(block)
        out.extend(block)
    return out[:total]


class AnalyzeHotpath:
    """The CLI ``hotpath --json`` flow, one design point per op."""

    name = "analyze-hotpath"
    op_count = 6000

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        combos = list(itertools.product(WORKLOADS, MACHINES, CACHE_MODELS))
        self.ops = [{"workload": w, "machine": m, "cache_model": c,
                     "bindings": bindings(rng, w), "points": 1}
                    for w, m, c in blocks(rng, combos, self.op_count)]
        self._tapes: Dict[str, SymbolicBET] = {}

    def warm(self) -> None:
        for workload in WORKLOADS:
            for cache_model in CACHE_MODELS:
                self.run({"workload": workload, "machine": "bgq",
                          "cache_model": cache_model, "bindings": {}})

    def run(self, op) -> Dict[str, Any]:
        program, inputs = repro.load_workload(op["workload"])
        inputs.update(op["bindings"])
        model = timing_model(repro.machine_by_name(op["machine"]),
                             op["cache_model"])
        bet = repro.build_bet(program, inputs=inputs)
        records = repro.characterize(bet, model)
        selection = repro.select_hotspots(
            records, program.static_size(), coverage=1.0, leanness=1.0,
            max_spots=10)
        path = repro.extract_hot_path(selection.spots)
        text = export.to_json(export.hotpath_to_dict(path))
        return {"runtime": selection.total_time,
                "ranking": [spot.site for spot in selection.all_spots],
                "json_bytes": len(text)}

    @staticmethod
    def digest(op, outcome):
        return outcome

    def check(self, op, outcome) -> bool:
        """Runtime and ranking equal the scalar tape's
        (``SymbolicBET.bind`` + ``project_with_model``)."""
        tape = self._tapes.get(op["workload"])
        if tape is None:
            program, _ = repro.load_workload(op["workload"])
            tape = self._tapes[op["workload"]] = SymbolicBET(program)
        inputs = dict(defaults(op["workload"]), **op["bindings"])
        expected = project_with_model(
            tape.bind(inputs),
            timing_model(repro.machine_by_name(op["machine"]),
                         op["cache_model"]))
        return (outcome["runtime"] == expected["runtime"]
                and outcome["ranking"] == list(expected["ranking"])
                and outcome["json_bytes"] > 0)


class SweepInputs:
    """Serial ``sweep_inputs(backend="auto")`` + ``input_sweep_to_dict``."""

    name = "sweep-inputs"
    op_count = 2400

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        combos = list(itertools.product(WORKLOADS, SWEEP_SIZES))
        self.ops = []
        for workload, size in blocks(rng, combos, self.op_count):
            axis = rng.choice(sorted(defaults(workload)))
            default = defaults(workload)[axis]
            self.ops.append({
                "workload": workload, "axis": axis,
                "values": [bind_value(rng, axis, default)
                           for _ in range(size)],
                "machine": rng.choice(MACHINES),
                "cache_model": rng.choice(CACHE_MODELS),
                "sample": rng.randrange(size), "points": size})
        self.programs = {w: repro.load_workload(w)[0] for w in WORKLOADS}

    def warm(self) -> None:
        for workload in WORKLOADS:
            axis = sorted(defaults(workload))[0]
            for size in (8, 64):
                self.run({"workload": workload, "axis": axis,
                          "values": [defaults(workload)[axis]] * size,
                          "machine": "bgq", "cache_model": "constant"})

    def run(self, op) -> Dict[str, Any]:
        result = repro.sweep_inputs(
            self.programs[op["workload"]],
            repro.machine_by_name(op["machine"]),
            {op["axis"]: op["values"]},
            base_inputs=defaults(op["workload"]),
            model_factory=model_factory(op["cache_model"]),
            backend="auto")
        return export.input_sweep_to_dict(result)

    @staticmethod
    def digest(op, payload):
        """What the check and the lane counters need, so a run keeps no
        full result in memory."""
        points = payload["points"]
        return {"complete": (len(points) == len(op["values"])
                             and not payload["failures"]),
                "sample": (exported_fields(points[op["sample"]])
                           if len(points) > op["sample"] else None),
                "cache_stats": payload["cache_stats"]}

    def check(self, op, digest) -> bool:
        """Every point present; the seeded sample point bit-identical to
        a fresh ``build_bet`` + ``project_with_model``."""
        if not digest["complete"]:
            return False
        value = op["values"][op["sample"]]
        inputs = dict(defaults(op["workload"]), **{op["axis"]: value})
        expected = project_with_model(
            repro.build_bet(self.programs[op["workload"]], inputs=inputs),
            timing_model(repro.machine_by_name(op["machine"]),
                         op["cache_model"]))
        return digest["sample"] == projection_fields(expected)


class CellsMixed:
    """``evaluate_cells`` + ``grid_point_to_dict`` on shuffled
    machine x input cell lists, through the process pool."""

    name = "cells-mixed"
    op_count = 160

    def __init__(self, seed: int, workers: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.workers = workers
        combos = list(itertools.product(CELL_WORKLOADS, CELL_GROUPS))
        signatures = list(itertools.product(*CELL_FIELDS.values()))
        self.ops = []
        for workload, groups in blocks(rng, combos, self.op_count):
            machine = rng.choice(MACHINES)
            base = repro.machine_by_name(machine)
            axis = rng.choice(sorted(defaults(workload)))
            default = defaults(workload)[axis]
            chosen = rng.sample(signatures, groups)
            cells = []
            for _ in range(rng.randint(200, 600)):
                bandwidth, cores = rng.choice(chosen)
                cells.append({
                    "bandwidth": base.bandwidth * bandwidth,
                    "cores": max(1, int(base.cores * cores)),
                    f"input:{axis}": bind_value(rng, axis, default)})
            rng.shuffle(cells)
            self.ops.append({
                "workload": workload, "machine": machine, "cells": cells,
                "cache_model": rng.choice(CACHE_MODELS),
                "samples": rng.sample(range(len(cells)), 2),
                "points": len(cells)})
        self.programs = {w: repro.load_workload(w)[0]
                         for w in CELL_WORKLOADS}

    def warm(self) -> None:
        warmed = set()
        for op in self.ops:
            if op["workload"] not in warmed:
                warmed.add(op["workload"])
                self.run(op)

    def run(self, op) -> Dict[str, Any]:
        result = repro.parallel.evaluate_cells(
            repro.machine_by_name(op["machine"]), op["cells"],
            program=self.programs[op["workload"]],
            inputs=defaults(op["workload"]),
            model_factory=model_factory(op["cache_model"]),
            workers=self.workers)
        return {"points": [export.grid_point_to_dict(point)
                           for point in result.points],
                "failures": len(result.failures),
                "cache_stats": result.cache_stats}

    @staticmethod
    def digest(op, output):
        points = output["points"]
        complete = (not output["failures"]
                    and [point["overrides"] for point in points]
                    == op["cells"])
        return {"complete": complete,
                "samples": ([exported_fields(points[index])
                             for index in op["samples"]]
                            if complete else None),
                "cache_stats": output["cache_stats"]}

    def check(self, op, digest) -> bool:
        """Every cell present, in order; the seeded sample cells
        bit-identical to a fresh ``build_bet`` + ``project_with_model``."""
        if not digest["complete"]:
            return False
        base = repro.machine_by_name(op["machine"])
        for index, got in zip(op["samples"], digest["samples"]):
            cell = op["cells"][index]
            inputs = defaults(op["workload"])
            fields = {}
            for name, value in cell.items():
                if name.startswith("input:"):
                    inputs[name[len("input:"):]] = value
                else:
                    fields[name] = value
            expected = project_with_model(
                repro.build_bet(self.programs[op["workload"]],
                                inputs=inputs),
                timing_model(base.with_overrides(**fields),
                             op["cache_model"]))
            if got != projection_fields(expected):
                return False
        return True
