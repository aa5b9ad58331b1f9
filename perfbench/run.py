"""The repository benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` at the root says why each exists):
``analyze-hotpath``, ``serve-analyze``, ``sweep-inputs``, ``cells-mixed``.
``serve-mix`` runs too but is not in ``BENCHMARK.json``: two server
defects fail some of its requests (see :mod:`serve`).
Every workload is a closed loop: the next op starts when the previous one
has returned.  An *op* is one library call or one HTTP request.

``--trace 0`` measures the ``end_to_end`` metrics of ``BENCHMARK.json``
with no tracing.  ``--trace 1`` runs half of ``--seconds`` untraced and
half with the span recorder of :mod:`spans` installed, and reports the
``per_layer`` metrics plus the tracing overhead (the traced half's median
op latency minus the untraced half's).

Set-up time is the time from process start to the moment the first timed
op could start: import, op generation, parsing, server start and warm-up.
The command measures it in three fresh processes (two set-up probes, then
the measuring process itself) and reports the median.  A full untraced
run (``--seconds`` 10 or more) also lasts until ``P90_OPS`` ops are done,
so at least ten op latencies lie beyond its p90.

Every op's output is checked against an oracle (see :mod:`workloads` and
:mod:`serve`); an op that raised, was refused or differs counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's environment metadata, sample count and error rate (failed ops over
attempted ops; it is not a metric because a correct run reads 0).  Both,
with the layer map of ``ledger.LAYER_MAP``, are also written to
``perfbench/out/``, and so are a traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

import ledger
import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: workloads and metrics: the benchmark's definition at the root
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}
#: runnable, but not in BENCHMARK.json while it fails its oracle
WORKLOADS["serve-mix"] = ("serve-analyze plus 15% /sweep of 8-64 cells, "
                          "half streamed")

#: fresh-process set-ups measured besides the measuring process's own
SETUP_PROBES = 2
#: seconds a child may take beyond ``--seconds`` before it is killed
CHILD_SLACK_S = 140.0
#: ops a full untraced run completes at least: ten of them beyond p90
P90_OPS = 100


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "probe", "worker"),
                        default="parent", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- parent: set-up samples, then the measuring process ----------------------

def _spawn(args, role: str):
    command = [sys.executable, str(HERE / "run.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=str(ROOT))
    return process, started


def _supervised(process, started: float, limit: float):
    """(seconds until the child printed ``ready``, rest of its stdout)."""
    watchdog = threading.Timer(limit, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - started
        rest, _ = process.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or process.returncode != 0:
        raise BenchError(f"{process.args[3]} process failed "
                         f"(exit {process.returncode})")
    return ready, rest


def drive(args) -> int:
    setups: List[float] = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            process, started = _spawn(args, "probe")
            setups.append(_supervised(process, started, CHILD_SLACK_S)[0])
    process, started = _spawn(args, "worker")
    ready, out = _supervised(process, started,
                             args.seconds + CHILD_SLACK_S)
    setups.append(ready)
    result = json.loads(out.strip().splitlines()[-1])
    meta = result.pop("meta")
    if args.trace == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    meta["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps(
        dict(result, meta=meta, why=WORKLOADS[args.workload],
             layer_map=ledger.LAYER_MAP), indent=2))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


# -- worker: the measured process --------------------------------------------

def environment(args) -> Dict[str, Any]:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "mode": "full" if args.seconds >= 10 else "quick",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": git_revision()}


def git_revision() -> Optional[str]:
    """HEAD's commit from ``.git`` at the root, without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of the modelling: this process's, or that of
    the largest process-pool worker it reaped, whichever is larger."""
    multiprocessing.active_children()     # reap pool workers that exited
    return max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """One timed closed-loop stretch."""

    def __init__(self, window, records, next_op, extra=None):
        self.window = window            #: (start, end) perf_counter_ns
        self.records = records          #: (op index, latency ms, result)
        self.next_op = next_op
        self.extra = extra or {}

    @property
    def elapsed(self) -> float:
        return (self.window[1] - self.window[0]) / 1e9

    def p50(self) -> float:
        return statistics.median(latency for _, latency, _ in self.records)


class Bench:
    """What both kinds of workload share: a cyclic op list."""

    ops: List[Dict[str, Any]]

    def op(self, index: int) -> Dict[str, Any]:
        return self.ops[index % len(self.ops)]

    def points(self, record) -> int:
        return self.op(record[0])["points"]


class LibraryBench(Bench):
    """A library workload run in this process."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.ops
        workload.warm()
        self.first_error: Optional[str] = None

    def phase(self, first: int, seconds: float, min_ops: int = 0) -> Phase:
        from repro.parallel.engine import bet_cache_stats
        records = []
        index = first
        cache_before = bet_cache_stats().as_dict()
        start = time.perf_counter_ns()
        stop_at = start + int(seconds * 1e9)
        clock = time.perf_counter_ns
        while clock() < stop_at or len(records) < min_ops:
            op = self.op(index)
            with spans.op_scope(index + 1):
                began = clock()
                try:
                    output = self.workload.run(op)
                except Exception:
                    output = None
                    if self.first_error is None:
                        self.first_error = traceback.format_exc()
                ended = clock()
            digest = (self.workload.digest(op, output)
                      if output is not None else None)
            records.append((index, (ended - began) / 1e6, digest))
            index += 1
        window = (start, clock())
        return Phase(window, records, index, {
            "cache_before": cache_before,
            "cache_after": bet_cache_stats().as_dict()})

    def completed(self, record) -> bool:
        return record[2] is not None

    def failed(self, phases: List[Phase]) -> int:
        failed = 0
        for phase in phases:
            for index, _, digest in phase.records:
                if digest is None or not self.workload.check(self.op(index),
                                                             digest):
                    failed += 1
        if self.first_error:
            sys.stderr.write(self.first_error)
        return failed

    def traced_phase(self, first: int, seconds: float):
        recorder = spans.Recorder()
        spans.install(recorder)
        return self.phase(first, seconds), recorder.dump()

    def layer_extras(self, phase: Phase) -> Dict[str, float]:
        before = phase.extra["cache_before"]
        after = phase.extra["cache_after"]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        groups = vectorized = points = 0.0
        for record in phase.records:
            points += self.points(record)
            stats = (record[2] or {}).get("cache_stats")
            if stats:
                groups += stats.get("lane_groups", 0.0)
                vectorized += stats.get("lanes_vectorized", 0.0)
        return {"bet.cache.hit_ratio": hits / lookups if lookups else 0.0,
                "parallel.lane_groups": groups / len(phase.records),
                "parallel.lanes_vectorized_ratio":
                    vectorized / points if points else 0.0}

    def close(self) -> None:
        pass


class ServeBench(Bench):
    """A served workload: this process drives a ``repro serve`` process."""

    def __init__(self, mix):
        self.mix = mix
        self.ops = mix.ops
        OUT.mkdir(exist_ok=True)
        mix.start(OUT, traced=False)

    def _phase(self, first: int, seconds: float, min_ops: int = 0) -> Phase:
        run = self.mix.drive(first, seconds, min_ops)
        records = [(index, latency * 1e3, (status, body))
                   for index, latency, status, body in run["records"]]
        return Phase(run["window"], records, run["next"],
                     {"before": run["before"], "after": run["after"]})

    def phase(self, first: int, seconds: float, min_ops: int = 0) -> Phase:
        phase = self._phase(first, seconds, min_ops)
        report = self.mix.stop()
        phase.extra["peak_rss_mb"] = report.get("peak_rss_kb", 0) / 1024.0
        return phase

    def traced_phase(self, first: int, seconds: float):
        self.mix.start(OUT, traced=True)
        phase = self._phase(first, seconds)
        report = self.mix.stop()
        return phase, report.get("trace", {})

    def completed(self, record) -> bool:
        return record[2][0] == 200

    def failed(self, phases: List[Phase]) -> int:
        failed = 0
        for phase in phases:
            for index, _, (status, body) in phase.records:
                op = self.op(index)
                if not self.mix.check(op, status, body):
                    failed += 1
                    if failed == 1:
                        sys.stderr.write(f"{self.mix.name}: {op['path']} got "
                                         f"{status}: {str(body)[:300]}\n")
        return failed

    def layer_extras(self, phase: Phase) -> Dict[str, float]:
        before, after = phase.extra["before"], phase.extra["after"]

        def delta(*path) -> float:
            high, low = after, before
            for key in path:
                high, low = high.get(key, {}), low.get(key, {})
            return float(high or 0) - float(low or 0)

        requests = len(phase.records)
        hits = delta("caches", "bet", "stats", "hits")
        lookups = hits + delta("caches", "bet", "stats", "misses")
        sweeps = delta("counters", "sweep_total")
        sweep_points = sum(self.points(record) for record in phase.records
                           if self.op(record[0])["path"] == "/sweep")
        return {
            "bet.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "parallel.lane_groups":
                delta("lanes", "lane_groups") / requests,
            "parallel.lanes_vectorized_ratio":
                (delta("lanes", "lanes_vectorized") / sweep_points
                 if sweep_points else 0.0),
            "service.coalesce_ratio":
                (delta("counters", "coalesced_requests") / sweeps
                 if sweeps else 0.0),
            "service.shed_ratio": delta("counters", "shed_total") / requests,
            "service.degraded_ratio":
                delta("counters", "degraded_responses") / requests,
        }

    def close(self) -> None:
        if self.mix.server is not None:
            self.mix.stop()


def make_bench(args):
    import workloads
    if args.workload == "serve-mix":
        import serve
        return ServeBench(serve.ServeMix(args.seed,
                                         len(os.sched_getaffinity(0))))
    if args.workload == "serve-analyze":
        import serve
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return ServeBench(serve.ServeAnalyze(args.seed,
                                             serve.ANALYZE_CLIENTS))
    if args.workload == "analyze-hotpath":
        return LibraryBench(workloads.AnalyzeHotpath(args.seed))
    if args.workload == "sweep-inputs":
        return LibraryBench(workloads.SweepInputs(args.seed))
    return LibraryBench(workloads.CellsMixed(
        args.seed, min(2, len(os.sched_getaffinity(0)))))


def end_to_end(bench, phase: Phase) -> Dict[str, float]:
    latencies = sorted(latency for _, latency, _ in phase.records)
    done = [record for record in phase.records if bench.completed(record)]
    return {
        "p50_ms": statistics.median(latencies),
        "p90_ms": percentile(latencies, 0.90),
        "ops_per_s": len(done) / phase.elapsed,
        "points_per_s": sum(bench.points(record) for record in done)
        / phase.elapsed,
        "peak_rss_mb": phase.extra["peak_rss_mb"],
    }


def per_layer(bench, untraced: Phase, traced: Phase,
              dump: Dict[str, Any]) -> Dict[str, float]:
    low, high = traced.window
    recorded = [spans.Span(*row) for row in dump.get("spans", ())]
    inside = [span for span in recorded
              if span.start >= low and span.end <= high]
    busy = spans.busy_ns_by_layer(inside)
    calls: Dict[str, int] = {}
    for span in inside:
        calls[span.name] = calls.get(span.name, 0) + 1
    ops = len(traced.records)
    counts = dump.get("counts", {})
    by_id = {span.span_id: span.name for span in recorded}
    # a bind that did not replay its tape re-records: a build inside it
    rebuilt_binds = len({span.parent for span in inside
                         if span.name == "bet.build"
                         and by_id.get(span.parent) == "bet.bind"})
    top_model_ns = sum(
        span.end - span.start for span in inside
        if span.name in spans.MODEL_LAYERS
        and by_id.get(span.parent) not in spans.MODEL_LAYERS)
    waits = [wait for at, wait in dump.get("queue_waits", ())
             if low <= at <= high]
    mean_latency = statistics.fmean(
        latency for _, latency, _ in traced.records)
    service = isinstance(bench, ServeBench)
    metrics = {
        "bet.replay_ratio": (1.0 - rebuilt_binds / calls["bet.bind"]
                             if calls.get("bet.bind") else 0.0),
        "bet.rebind_batch.lanes":
            counts.get("bet.rebind_batch.lanes", 0.0) / ops,
        "parallel.worker_wait_ms":
            busy.get("parallel.worker_wait", 0) / 1e6 / ops,
        "service.queue_wait_ms": (statistics.fmean(waits) * 1e3
                                  if waits else 0.0),
        "service.overhead_ms": (mean_latency - top_model_ns / 1e6 / ops
                                if service else 0.0),
        "service.coalesce_ratio": 0.0,
        "service.shed_ratio": 0.0,
        "service.degraded_ratio": 0.0,
        "trace.p50_ms": traced.p50(),
        "trace.overhead_ms": traced.p50() - untraced.p50(),
    }
    metrics.update(bench.layer_extras(traced))
    for name in (entry["name"] for entry in SPEC["per_layer"]):
        if name in metrics:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(layer, 0) / ops
        elif kind == "busy_ms":
            metrics[name] = busy.get(layer, 0) / 1e6 / ops
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
    return metrics


def work(args) -> int:
    bench = make_bench(args)
    print("ready", flush=True)
    try:
        if args.trace == 0:
            phase = bench.phase(0, args.seconds, P90_OPS
                                if args.seconds >= 10 else 0)
            phase.extra.setdefault("peak_rss_mb", peak_rss_mb())
            values = end_to_end(bench, phase)
            phases = [phase]
            wanted = SPEC["end_to_end"]
        else:
            untraced = bench.phase(0, args.seconds / 2)
            traced, dump = bench.traced_phase(untraced.next_op,
                                              args.seconds / 2)
            values = per_layer(bench, untraced, traced, dump)
            phases = [untraced, traced]
            wanted = SPEC["per_layer"]
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json"
             ).write_text(json.dumps(dump))
    finally:
        bench.close()
    attempted = sum(len(phase.records) for phase in phases)
    failed = bench.failed(phases)
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in wanted if entry["name"] in values}
    samples = len(phases[-1].records)
    meta = dict(environment(args), samples=samples,
                beyond_p90=samples - math.ceil(0.9 * samples),
                error_rate=failed / attempted if attempted else 1.0)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics, "meta": meta}))
    return 0


def probe(args) -> int:
    bench = make_bench(args)
    print("ready", flush=True)
    bench.close()
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: perfbench needs the repro sources under src/ at the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    args = parse_args(argv)
    if args.role == "probe":
        return probe(args)
    if args.role == "worker":
        return work(args)
    try:
        return drive(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
