#!/usr/bin/env python
"""Sharded sweep executor benchmark: equivalence, chaos, and scaling.

Four sections, all recorded in ``BENCH_shard.json`` (repo root by
default) plus a rendered summary under ``results/``:

* **equivalence** — a real design-space sweep (pedagogical workload on
  the Xeon model) is bit-identical across the legacy path and every
  executor (serial / pool / simulated multinode on each cluster preset),
  including runs with a seeded chaos schedule injecting worker kills,
  heartbeat partitions, and corrupt result envelopes;
* **identity at scale** — a large pure-arithmetic sweep (10^5 points,
  10^7 with ``--full``) merged through the shard scheduler matches the
  straight serial loop checksum-for-checksum, with injected crashes;
* **throughput gate** — the sharded pool executor must not be slower
  than the same work pushed through one flat process-pool map (the
  pre-shard code path); CI fails when the gate trips;
* **scaling curve** — simulated makespan over the cluster presets
  (8 → 32 → 128 workers) must shrink near-linearly with worker count.

Usage:
    python benchmarks/bench_shard.py [--full] [--output PATH]
"""

import argparse
import hashlib
import json
import pathlib
import pickle
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bet import build_bet                                 # noqa: E402
from repro.hardware import XEON_E5_2420                         # noqa: E402
from repro.multinode import CLUSTER_PRESETS                     # noqa: E402
from repro.parallel import (                                    # noqa: E402
    ChaosSchedule, MultinodeExecutor, PoolExecutor, SerialExecutor,
    ShardScheduler, plan_shards, sweep_grid,
)
from repro.parallel.executors import default_workers            # noqa: E402
from repro.workloads import load                                # noqa: E402

#: pedagogical co-design grid for the real-sweep equivalence section
GRID = {"cores": [float(2 ** k) for k in range(1, 7)],
        "bandwidth": [(10 + 10 * i) * 1e9 for i in range(8)]}

CHAOS_SEED = 2026


def _grid_signature(result):
    return [(point.overrides, point.runtime, point.memory_fraction,
             point.top_label, tuple(point.ranking))
            for point in result.points]


def equivalence_section():
    """Every executor (and a chaotic run of each) matches the legacy
    path bit for bit on a real 48-point sweep."""
    program, inputs = load("pedagogical")
    bet = build_bet(program, inputs=inputs)
    baseline = _grid_signature(sweep_grid(bet, XEON_E5_2420, GRID))

    shards = 12
    runs = {}
    variants = [("serial", {"executor": "serial"}),
                ("pool", {"executor": "pool", "workers": 2})]
    for preset in CLUSTER_PRESETS:
        variants.append((f"multinode:{preset}",
                         {"executor": "multinode", "topology": preset}))
    for label, kwargs in list(variants):
        chaos = ChaosSchedule.seeded(
            CHAOS_SEED, shards,
            kinds=("kill", "corrupt", "drop_heartbeats"),
            events_per_kind=2)
        variants.append((f"{label}+chaos", dict(kwargs, chaos=chaos)))

    identical = True
    for label, kwargs in variants:
        result = sweep_grid(bet, XEON_E5_2420, GRID, shards=shards,
                            **kwargs)
        same = (_grid_signature(result) == baseline
                and not result.failures)
        identical = identical and same
        runs[label] = {
            "bit_identical": same,
            "reassignments": result.shard_stats.get(
                "shard_reassignments", 0.0),
            "quarantined": result.shard_stats.get(
                "shards_quarantined", 0.0),
        }
    return {"points": len(baseline), "shards": shards,
            "runs": runs, "all_bit_identical": identical}


def _poly(chunk):
    """The pure per-shard task for the synthetic sections: cheap enough
    to push 10^5..10^7 points through, shaped like a model projection
    (a float out per point in)."""
    start, stop = chunk
    return [float(i * i % 1000003) * 1.0009 + 1.0 / (i + 1)
            for i in range(start, stop)]


def _checksum(rows):
    return hashlib.sha256(pickle.dumps(rows)).hexdigest()


def _run_sharded(executor, ranges, chaos_unused=None):
    scheduler = ShardScheduler(executor, sleep=lambda _s: None)
    outcome = scheduler.run(_poly, ranges,
                            sizes=[stop - start for start, stop in ranges])
    assert outcome.ok, outcome.quarantined
    merged = []
    for shard_id in range(len(ranges)):
        merged.extend(outcome.results[shard_id])
    return merged, outcome


def identity_at_scale_section(total):
    """10^5 (or 10^7) points: scheduler-merged output must equal the
    straight loop byte for byte — also under injected crashes."""
    reference = _checksum(_poly((0, total)))
    ranges = plan_shards(total, 64, workers=default_workers())

    merged, _ = _run_sharded(SerialExecutor(), ranges)
    serial_ok = _checksum(merged) == reference

    chaos = ChaosSchedule.seeded(CHAOS_SEED, len(ranges),
                                 kinds=("kill", "corrupt"),
                                 events_per_kind=4)
    merged, outcome = _run_sharded(SerialExecutor(chaos=chaos), ranges)
    chaos_ok = _checksum(merged) == reference

    multi = MultinodeExecutor(topology=CLUSTER_PRESETS["dual-node"],
                              chaos=ChaosSchedule.seeded(
                                  CHAOS_SEED + 1, len(ranges),
                                  kinds=("kill",), events_per_kind=2))
    merged, _ = _run_sharded(multi, ranges)
    multinode_ok = _checksum(merged) == reference

    return {"points": total, "shards": len(ranges),
            "serial_identical": serial_ok,
            "chaos_identical": chaos_ok,
            "chaos_reassignments": outcome.stats["shard_reassignments"],
            "multinode_chaos_identical": multinode_ok,
            "all_identical": serial_ok and chaos_ok and multinode_ok}


def throughput_section(total):
    """Sharded pool dispatch vs one flat pool map over the same chunks."""
    from concurrent.futures import ProcessPoolExecutor

    workers = min(4, default_workers())
    ranges = plan_shards(total, workers * 4, workers=workers)

    started = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        flat = []
        for rows in pool.map(_poly, ranges):
            flat.extend(rows)
    flat_s = time.perf_counter() - started

    started = time.perf_counter()
    merged, _ = _run_sharded(PoolExecutor(workers=workers), ranges)
    sharded_s = time.perf_counter() - started

    assert _checksum(merged) == _checksum(flat)
    # supervision bookkeeping must cost noise, not throughput: allow a
    # tolerance band for pool startup jitter on loaded CI hosts
    not_slower = sharded_s <= flat_s * 1.25 + 0.5
    return {"points": total, "workers": workers,
            "flat_pool_s": flat_s, "sharded_pool_s": sharded_s,
            "overhead_ratio": sharded_s / flat_s if flat_s else 0.0,
            "sharded_not_slower": not_slower}


def scaling_section():
    """Simulated makespan across cluster presets: more workers, a
    near-linearly shorter sweep."""
    shard_count = 256
    ranges = plan_shards(256_00, shard_count, workers=8)
    curve = {}
    for name, topology in sorted(CLUSTER_PRESETS.items(),
                                 key=lambda kv: kv[1].total_workers):
        _, outcome = _run_sharded(MultinodeExecutor(topology=topology),
                                  ranges)
        curve[name] = {
            "workers": topology.total_workers,
            "sim_seconds": outcome.stats["executor_sim_seconds"],
        }
    names = sorted(curve, key=lambda n: curve[n]["workers"])
    near_linear = True
    for small, big in zip(names, names[1:]):
        worker_ratio = (curve[big]["workers"]
                        / curve[small]["workers"])
        speedup = (curve[small]["sim_seconds"]
                   / curve[big]["sim_seconds"])
        curve[big]["speedup_vs_prev"] = speedup
        # at least 60% parallel efficiency step to step
        near_linear = near_linear and speedup >= 0.6 * worker_ratio
    return {"shards": shard_count, "curve": curve,
            "near_linear": near_linear}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="10^7-point identity/throughput sections")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_shard.json"))
    args = parser.parse_args(argv)

    total = 10_000_000 if args.full else 100_000

    equivalence = equivalence_section()
    identity = identity_at_scale_section(total)
    throughput = throughput_section(total)
    scaling = scaling_section()

    checks = {
        "real_sweep_bit_identical": equivalence["all_bit_identical"],
        "scale_identity": identity["all_identical"],
        "sharded_not_slower": throughput["sharded_not_slower"],
        "scaling_near_linear": scaling["near_linear"],
    }
    report = {
        "mode": "full" if args.full else "quick",
        "equivalence": equivalence,
        "identity_at_scale": identity,
        "throughput": throughput,
        "scaling": scaling,
        "checks": checks,
    }
    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    lines = [f"sharded sweep executors ({report['mode']} mode, "
             f"{total} synthetic points)",
             "",
             f"real sweep: {equivalence['points']} points x "
             f"{len(equivalence['runs'])} executor variants, "
             f"bit-identical={equivalence['all_bit_identical']}"]
    for label, row in sorted(equivalence["runs"].items()):
        lines.append(f"  {label:<24} identical={row['bit_identical']} "
                     f"reassigned={row['reassignments']:.0f} "
                     f"quarantined={row['quarantined']:.0f}")
    lines += ["",
              f"identity at scale: {identity['points']} points, "
              f"{identity['shards']} shards, "
              f"chaos reassignments={identity['chaos_reassignments']:.0f}, "
              f"identical={identity['all_identical']}",
              "",
              f"throughput ({throughput['workers']} workers): "
              f"flat pool {throughput['flat_pool_s']:.3f}s, "
              f"sharded {throughput['sharded_pool_s']:.3f}s "
              f"({throughput['overhead_ratio']:.2f}x), "
              f"gate ok={throughput['sharded_not_slower']}",
              "",
              "simulated scaling curve:"]
    for name, row in sorted(scaling["curve"].items(),
                            key=lambda kv: kv[1]["workers"]):
        extra = (f"  ({row['speedup_vs_prev']:.1f}x vs prev)"
                 if "speedup_vs_prev" in row else "")
        lines.append(f"  {name:<12} {row['workers']:>4} workers  "
                     f"{row['sim_seconds']:>8.1f} sim-s{extra}")
    text = "\n".join(lines)
    print(text)
    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "bench_shard.txt").write_text(text + "\n",
                                                 encoding="utf-8")

    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"\nFAILED gates: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
