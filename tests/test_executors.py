"""Tests for the sharded sweep executor layer (`repro.parallel.shard`,
`repro.parallel.executors`): shard planning, result-envelope integrity,
work-stealing dispatch, supervision (crash/heartbeat/reassign), poison
quarantine, the three executors' bit-for-bit equivalence, and the
hung-worker pool-abandonment regression."""

import functools
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.errors import (
    EnvelopeCorruptError, ExecutorError, ShardQuarantinedError,
)
from repro.hardware import XEON_E5_2420
from repro.multinode import (
    CLUSTER_PRESETS, DUAL_NODE, TORUS_RACK, ClusterTopology,
)
from repro.parallel import (
    ChaosEvent, ChaosSchedule, MultinodeExecutor, PointFailure,
    PoolExecutor, RetryPolicy, SerialExecutor, ShardEnvelope,
    ShardScheduler, SupervisionLog, SweepExecutor, clear_symbolic_cache,
    evaluate_cells, plan_shards, release_pools, resolve_executor,
    sweep_grid,
)
from repro.workloads import load


def _square(item):
    return [value * value for value in item]


def _no_sleep(_seconds):
    pass


def _die_once(flag_path, item):
    """SIGKILL the hosting pool worker the first time the poison point
    runs (module-level so it pickles; the flag file spans processes)."""
    if 7 in item and not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return _square(item)


def _nap(item):
    """A shard that takes a while (module-level so it pickles)."""
    time.sleep(0.6)
    return item


def _hang_on_negative(item):
    """A shard that hangs far past any test deadline when it holds a
    negative value (module-level so it pickles)."""
    if min(item) < 0:
        time.sleep(60.0)
    return item


def _run(executor, payloads, task=_square, **kwargs):
    kwargs.setdefault("sleep", _no_sleep)
    scheduler = ShardScheduler(executor, **kwargs)
    return scheduler.run(task, payloads,
                         sizes=[len(p) for p in payloads])


def _merge(outcome, payloads):
    merged = []
    for shard_id in range(len(payloads)):
        merged.extend(outcome.results[shard_id])
    return merged


PAYLOADS = [list(range(start, start + 5)) for start in range(0, 40, 5)]
EXPECTED = [value * value for value in range(40)]


# -- shard planning -----------------------------------------------------------

class TestPlanShards:
    def test_ranges_cover_exactly_in_order(self):
        ranges = plan_shards(103, 8, workers=4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 103
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert sum(stop - start for start, stop in ranges) == 103

    def test_default_is_about_four_per_worker(self):
        assert len(plan_shards(1000, None, workers=4)) == 16

    def test_never_more_shards_than_points(self):
        assert len(plan_shards(3, 100, workers=4)) == 3
        assert len(plan_shards(2, None, workers=8)) == 2

    def test_empty_and_single(self):
        assert plan_shards(0, 4, workers=1) == []
        assert plan_shards(1, None, workers=4) == [(0, 1)]

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start
                 for start, stop in plan_shards(100, 7, workers=1)]
        assert max(sizes) - min(sizes) <= 1


# -- envelope integrity -------------------------------------------------------

class TestShardEnvelope:
    def test_pack_unpack_roundtrip(self):
        envelope = ShardEnvelope.pack(3, 1, "w0", {"rows": [1, 2]})
        assert envelope.unpack() == {"rows": [1, 2]}
        assert envelope.shard_id == 3 and envelope.attempt == 1

    def test_damaged_payload_is_detected(self):
        envelope = ShardEnvelope.pack(5, 2, "w0", list(range(100)))
        with pytest.raises(EnvelopeCorruptError) as info:
            envelope.corrupted().unpack()
        assert info.value.shard_id == 5
        assert "recomputed" in str(info.value)

    def test_envelope_survives_pickling(self):
        envelope = ShardEnvelope.pack(1, 1, "w0", "value")
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.unpack() == "value"


# -- supervision log ----------------------------------------------------------

class TestSupervisionLog:
    def test_counts_and_renders(self):
        log = SupervisionLog()
        log.note("dispatch", 0, "w0", "attempt 1")
        log.note("fault", 0, "w0", "WorkerCrashError")
        log.note("reassign", 0, "w1", "1/3")
        assert log.count("dispatch") == 1
        assert log.count("reassign") == 1
        text = log.render()
        assert "shard 0" in text and "WorkerCrashError" in text


# -- the scheduler on the serial reference executor ---------------------------

class TestShardScheduler:
    def test_clean_run_merges_every_shard(self):
        outcome = _run(SerialExecutor(), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.stats["shards_completed"] == len(PAYLOADS)
        assert outcome.stats["shard_reassignments"] == 0

    def test_on_result_streams_each_shard(self):
        seen = []
        scheduler = ShardScheduler(SerialExecutor(), sleep=_no_sleep)
        scheduler.run(_square, PAYLOADS,
                      on_result=lambda sid, value: seen.append(sid))
        assert sorted(seen) == list(range(len(PAYLOADS)))

    def test_task_exception_without_policy_quarantines(self):
        def poison(item):
            if 7 in item:
                raise ValueError("poison point")
            return _square(item)

        outcome = _run(SerialExecutor(), PAYLOADS, task=poison)
        assert not outcome.ok
        assert list(outcome.quarantined) == [1]     # shard holding 7
        error = outcome.quarantined[1]
        assert isinstance(error, ShardQuarantinedError)
        assert error.error_type == "ValueError"
        # every healthy shard still completed
        assert outcome.stats["shards_completed"] == len(PAYLOADS) - 1

    def test_retry_policy_gives_transient_faults_more_attempts(self):
        calls = {"n": 0}

        def flaky(item):
            if 7 in item:
                calls["n"] += 1
                if calls["n"] < 3:
                    raise ValueError("transient")
            return _square(item)

        outcome = _run(SerialExecutor(), PAYLOADS, task=flaky,
                       policy=RetryPolicy(max_attempts=3, base_delay=0.0))
        assert outcome.ok
        assert calls["n"] == 3
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_exhausted_policy_quarantines_with_attempt_count(self):
        def poison(item):
            if 7 in item:
                raise ValueError("always")
            return _square(item)

        outcome = _run(SerialExecutor(), PAYLOADS, task=poison,
                       policy=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcome.quarantined[1].attempts == 2
        assert outcome.log.count("quarantine") == 1

    def test_crash_reassigns_without_a_policy(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=2)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.log.count("reassign") == 1
        assert outcome.shards[2].infra_faults == 1

    def test_corrupt_envelope_is_recomputed_not_merged(self):
        chaos = ChaosSchedule([ChaosEvent("corrupt", shard=4)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert any("EnvelopeCorruptError" in detail
                   for kind, _, _, detail in outcome.log.events
                   if kind == "fault")

    def test_reassign_limit_exhaustion_quarantines(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 6)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS,
                       reassign_limit=2)
        assert list(outcome.quarantined) == [0]
        assert outcome.quarantined[0].error_type == "WorkerCrashError"

    def test_executor_timeout_without_configured_bound(self):
        # an injected stall on an executor with no scheduler timeout
        # must not claim a "0s shard timeout" in the quarantine record
        chaos = ChaosSchedule([ChaosEvent("stall", shard=2)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS)
        assert list(outcome.quarantined) == [2]
        assert "executor-reported timeout" \
            in outcome.quarantined[2].message
        assert "0s" not in outcome.quarantined[2].message

    def test_rejects_negative_reassign_limit(self):
        with pytest.raises(ValueError):
            ShardScheduler(SerialExecutor(), reassign_limit=-1)

    def test_unknown_event_kind_is_an_executor_error(self):
        class Rogue(SerialExecutor):
            def wait(self):
                events = super().wait()
                return [("gibberish", 0, "w", None)] if events else []

        with pytest.raises(ExecutorError):
            _run(Rogue(), PAYLOADS[:1])


# -- the simulated multinode executor -----------------------------------------

class TestMultinodeExecutor:
    def test_matches_serial_bit_for_bit(self):
        serial = _merge(_run(SerialExecutor(), PAYLOADS), PAYLOADS)
        multi = _merge(_run(MultinodeExecutor(topology=DUAL_NODE),
                            PAYLOADS), PAYLOADS)
        assert multi == serial == EXPECTED

    def test_width_and_worker_names_follow_topology(self):
        executor = MultinodeExecutor(topology=DUAL_NODE)
        assert executor.width == 8
        executor.open(_square)
        names = executor.idle_workers()
        assert names[0] == "n0.w0" and "n1.w3" in names

    def test_simulated_clock_reports_makespan(self):
        outcome = _run(MultinodeExecutor(topology=DUAL_NODE), PAYLOADS)
        # 8 shards over 8 workers, 1 simulated second each: one wave
        assert outcome.stats["executor_sim_seconds"] >= 1.0
        assert outcome.stats["executor_network_seconds"] > 0.0

    def test_killed_worker_stays_dead(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0)])
        executor = MultinodeExecutor(topology=DUAL_NODE, chaos=chaos)
        outcome = _run(executor, PAYLOADS)
        assert outcome.ok
        assert outcome.stats["executor_workers_lost"] == 1.0
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_partition_result_arrives_stale_and_is_discarded(self):
        chaos = ChaosSchedule([ChaosEvent("drop_heartbeats", shard=3)])
        outcome = _run(MultinodeExecutor(topology=DUAL_NODE, chaos=chaos),
                       PAYLOADS)
        assert outcome.ok
        assert outcome.log.count("stale") == 1
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_stall_fires_timeout_then_policy_path(self):
        chaos = ChaosSchedule([ChaosEvent("stall", shard=2)])
        outcome = _run(MultinodeExecutor(topology=DUAL_NODE, chaos=chaos),
                       PAYLOADS, timeout=0.5,
                       policy=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert any("TaskTimeoutError" in detail
                   for kind, _, _, detail in outcome.log.events
                   if kind == "fault")

    def test_stall_with_timeout_on_single_worker_recovers(self):
        # regression: after the timeout event fired, the timeline was
        # empty while the lone worker stayed busy past the stall, so
        # wait() returned [] forever and the idle watchdog aborted the
        # sweep; the clock must advance to the worker's busy_until
        topology = ClusterTopology(name="solo", nodes=1,
                                   workers_per_node=1,
                                   network=DUAL_NODE.network)
        chaos = ChaosSchedule([ChaosEvent("stall", shard=2)])
        outcome = _run(MultinodeExecutor(topology=topology, chaos=chaos),
                       PAYLOADS, timeout=0.5,
                       policy=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_losing_every_worker_raises(self):
        topology = ClusterTopology(name="tiny", nodes=1,
                                   workers_per_node=1,
                                   network=DUAL_NODE.network)
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 10)])
        with pytest.raises(ExecutorError) as info:
            _run(MultinodeExecutor(topology=topology, chaos=chaos),
                 PAYLOADS, reassign_limit=10)
        assert "workers were lost" in str(info.value)

    def test_topology_validation(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            ClusterTopology(name="bad", nodes=0, workers_per_node=4,
                            network=DUAL_NODE.network)
        with pytest.raises(ReproError):
            ClusterTopology(name="bad", nodes=1, workers_per_node=1,
                            network=DUAL_NODE.network,
                            heartbeat_interval=0.0)


# -- the process-pool executor ------------------------------------------------

class TestPoolExecutor:
    def test_matches_serial_bit_for_bit(self):
        outcome = _run(PoolExecutor(workers=2), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_chaos_faults_recover_identically(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=1),
                               ChaosEvent("corrupt", shard=5)])
        outcome = _run(PoolExecutor(workers=2, chaos=chaos), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.stats["shard_reassignments"] == 2

    def test_real_worker_crash_reassigns_its_shard(self, tmp_path):
        # a SIGKILLed worker breaks the whole pool; the shard whose
        # future raised BrokenExecutor (not only the other in-flight
        # slots) must surface as a crash event so the scheduler
        # reassigns it instead of stranding it until the watchdog
        # aborts the sweep
        task = functools.partial(_die_once, str(tmp_path / "flag"))
        outcome = _run(PoolExecutor(workers=2), PAYLOADS, task=task)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.log.count("reassign") >= 1
        assert any(kind == "fault" and "WorkerCrashError" in detail
                   for kind, _, _, detail in outcome.log.events)

    def test_long_shard_is_not_mistaken_for_a_stall(self, monkeypatch):
        # regression: wait() used to come back empty every TICK while a
        # shard ran, so the scheduler's idle watchdog (64 empty rounds)
        # aborted any run whose shard outlasted 64 ticks
        monkeypatch.setattr(PoolExecutor, "TICK", 0.005)
        outcome = _run(PoolExecutor(workers=2), [[1]], task=_nap)
        assert outcome.ok and outcome.results == {0: [1]}

    def test_queued_shard_deadline_starts_when_it_can_run(self):
        # one worker holds a running shard plus one queued behind it; the
        # queued shard's clock must not run while it waits its turn
        executor = PoolExecutor(workers=1)
        outcome = _run(executor, [[1], [2]], task=_nap, timeout=1.0)
        assert outcome.ok
        assert executor.stats["timeouts"] == 0.0

    def test_shards_queued_behind_hung_workers_still_run(self):
        # both processes hang in shards that already timed out; the shard
        # queued behind them must move to a fresh pool, not stall until
        # the idle watchdog aborts the run
        import multiprocessing
        baseline = len(multiprocessing.active_children())
        executor = PoolExecutor(workers=2)
        started = time.perf_counter()
        outcome = _run(executor, [[-1], [-2], [3]],
                       task=_hang_on_negative, timeout=0.3)
        assert time.perf_counter() - started < 10.0
        assert outcome.results == {2: [3]}
        assert sorted(outcome.quarantined) == [0, 1]
        assert all(error.error_type == "TaskTimeoutError"
                   for error in outcome.quarantined.values())
        assert executor.stats["pool_rebuilds"] == 1.0
        release_pools()     # the replacement pool is parked warm
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline and \
                len(multiprocessing.active_children()) > baseline:
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= baseline

    def test_keeps_one_shard_queued_per_worker(self):
        executor = PoolExecutor(workers=2)
        executor.open(_square)
        try:
            for shard_id in range(4):
                executor.dispatch(shard_id, 1, [shard_id],
                                  executor.idle_workers()[0])
            assert executor.idle_workers() == []
        finally:
            executor.close()

    def test_no_children_leak_after_clean_close(self):
        # a clean close keeps the pool warm (at most `workers` more
        # children) until release_pools() shuts it down
        before = len(multiprocessing.active_children())
        outcome = _run(PoolExecutor(workers=2), PAYLOADS)
        assert outcome.ok
        assert len(_live_children()) <= before + 2
        release_pools()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = _live_children()
            if len(leaked) <= before:
                break
            time.sleep(0.1)
        assert len(leaked) <= before


def _live_children():
    return [child for child in multiprocessing.active_children()
            if child.is_alive()]


def _warm_pool():
    """The parked warm pool (``None`` when the slot is empty)."""
    from repro.parallel import executors
    return executors._WARM[0] if executors._WARM is not None else None


def _input_sweep(program, inputs, **kwargs):
    """An 8-chunk scalar input sweep of ``program``."""
    cells = [{"bandwidth": bandwidth, "input:n": float(n)}
             for bandwidth in (2e10, 4e10) for n in range(8, 72)]
    return evaluate_cells(XEON_E5_2420, cells, program=program,
                          inputs=inputs, backend="scalar", chunk_size=16,
                          **kwargs)


def _sweep_record(result):
    return ([(point.overrides, point.runtime, point.ranking,
              point.memory_fraction) for point in result.points],
            [(failure.index, failure.error_type, failure.message,
              failure.item, failure.attempts)
             for failure in result.failures])


class TestWarmPool:
    """The pool outlives a run: checkout, return, reuse, release."""

    def test_second_sweep_reuses_the_pool_and_its_tapes(self, pedagogical):
        program, inputs = pedagogical
        release_pools()
        clear_symbolic_cache()
        first = _input_sweep(program, inputs, workers=2)
        second = _input_sweep(program, inputs, workers=2)
        serial = _input_sweep(program, inputs, workers=1)
        assert first.executor == second.executor == "pool"
        assert _sweep_record(first) == _sweep_record(serial)
        assert _sweep_record(second) == _sweep_record(serial)
        assert first.shard_stats["executor_pool_starts"] == 1.0
        assert second.shard_stats["executor_pool_starts"] == 0.0
        assert second.cache_stats["bet_builds"] == 0.0
        assert second.cache_stats["bet_replays"] > 0

    def test_worker_killed_while_idle_loses_no_points(self, pedagogical):
        program, inputs = pedagogical
        release_pools()
        first = _input_sweep(program, inputs, workers=2)
        pool = _warm_pool()
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.01)
        second = _input_sweep(program, inputs, workers=2)
        assert not second.failures
        assert _sweep_record(second) == _sweep_record(first)
        # checkout discarded the damaged pool: no chunk met the dead worker
        assert second.shard_stats["executor_pool_starts"] == 1.0
        assert second.shard_stats["executor_pool_rebuilds"] == 0.0
        assert second.shard_stats["shard_reassignments"] == 0.0
        assert _warm_pool() is not pool

    def test_pool_abandoned_after_a_hang_is_never_handed_out(self):
        release_pools()
        assert _run(PoolExecutor(workers=2), PAYLOADS).ok
        warm = _warm_pool()
        assert warm is not None
        hung = PoolExecutor(workers=2)
        outcome = _run(hung, [[-1], [2]], task=_hang_on_negative,
                       timeout=0.3)
        assert hung.stats["pool_starts"] == 0.0      # it ran on `warm`
        assert sorted(outcome.quarantined) == [0]
        assert _warm_pool() is None
        fresh = PoolExecutor(workers=2)
        assert _run(fresh, PAYLOADS).ok
        assert fresh.stats["pool_starts"] == 1.0
        assert _warm_pool() is not warm

    def test_concurrent_checkout_builds_its_own_pool(self):
        release_pools()
        first, second = PoolExecutor(workers=2), PoolExecutor(workers=2)
        first.open(_square)
        second.open(_square)
        try:
            assert first.stats["pool_starts"] == 1.0
            assert second.stats["pool_starts"] == 1.0
            kept = first._pool
        finally:
            first.close()
            second.close()
        assert _warm_pool() is kept      # the extra pool was shut down
        again = PoolExecutor(workers=2)
        assert _run(again, PAYLOADS).ok
        assert again.stats["pool_starts"] == 0.0

    def test_other_width_leaves_the_warm_pool_parked(self):
        release_pools()
        assert _run(PoolExecutor(workers=2), PAYLOADS).ok
        warm = _warm_pool()
        narrow = PoolExecutor(workers=1)
        assert _run(narrow, PAYLOADS).ok
        assert narrow.stats["pool_starts"] == 1.0
        assert _warm_pool() is warm       # the narrow pool was shut down
        same = PoolExecutor(workers=2)
        assert _run(same, PAYLOADS).ok
        assert same.stats["pool_starts"] == 0.0
        wide = PoolExecutor(workers=3)
        assert _run(wide, PAYLOADS).ok
        assert wide.stats["pool_starts"] == 1.0
        assert _warm_pool() is not warm   # the wider pool took the slot
        release_pools()
        assert _warm_pool() is None

    def test_policy_sweep_with_failing_cells_keeps_the_pool(self,
                                                            pedagogical):
        # two cells fail validation, so each sweep ends with a 2-wide
        # per-point phase 2 run next to the 3-wide chunk run
        program, inputs = pedagogical
        release_pools()
        cells = [{"cores": -4.0 if n in (9, 40) else 4.0,
                  "input:n": float(n)} for n in range(8, 72)]
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        results = []
        for _ in range(2):
            results.append(evaluate_cells(
                XEON_E5_2420, cells, program=program, inputs=inputs,
                backend="scalar", chunk_size=8, workers=3, policy=policy))
            if len(results) == 1:
                warm = _warm_pool()
        first, second = results
        assert [failure.index for failure in first.failures] == [1, 32]
        assert _sweep_record(second) == _sweep_record(first)
        assert second.shard_stats["executor_pool_starts"] == 0.0
        assert _warm_pool() is warm

    def test_main_redefinition_retires_the_warm_pool(self, pedagogical,
                                                    monkeypatch):
        # work pickles __main__ callables by name: a worker forked before
        # a (re)definition would run stale code or fail to unpickle it
        import types
        program, inputs = pedagogical
        release_pools()
        main = types.ModuleType("__main__")
        monkeypatch.setitem(__import__("sys").modules, "__main__", main)
        _input_sweep(program, inputs, workers=2)
        warm = _warm_pool()
        reused = _input_sweep(program, inputs, workers=2)
        assert reused.shard_stats["executor_pool_starts"] == 0.0
        exec("def factory(machine):\n    return machine\n", vars(main))
        main.factory.__module__ = "__main__"
        fresh = _input_sweep(program, inputs, workers=2)
        assert fresh.shard_stats["executor_pool_starts"] == 1.0
        assert _warm_pool() is not warm
        release_pools()


# -- executor resolution ------------------------------------------------------

class TestResolveExecutor:
    def test_names_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("pool", workers=2),
                          PoolExecutor)
        assert isinstance(resolve_executor("multinode"),
                          MultinodeExecutor)

    def test_instances_pass_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_cluster_preset_by_name(self):
        executor = resolve_executor("multinode", topology="torus-rack")
        assert executor.topology is TORUS_RACK
        assert "torus-rack" in CLUSTER_PRESETS

    def test_unknown_names_raise(self):
        with pytest.raises(ExecutorError):
            resolve_executor("mainframe")
        with pytest.raises(ExecutorError):
            resolve_executor("multinode", topology="atlantis")

    def test_base_protocol_is_abstract(self):
        executor = SweepExecutor()
        with pytest.raises(NotImplementedError):
            executor.open(_square)


# -- sweep_grid integration ---------------------------------------------------

@pytest.fixture(scope="module")
def pedagogical():
    return load("pedagogical")


@pytest.fixture(scope="module")
def pedagogical_bet(pedagogical):
    from repro.bet import build_bet
    program, inputs = pedagogical
    return build_bet(program, inputs=inputs)


@pytest.fixture(scope="module")
def small_grid():
    return {"cores": [2.0, 4.0, 8.0], "bandwidth": [2e10, 4e10]}


def _grid_key(result):
    return [(point.overrides["cores"], point.overrides["bandwidth"],
             point.runtime, point.memory_fraction, tuple(point.ranking))
            for point in result.points]


class TestSweepGridExecutors:
    def test_every_executor_is_bit_identical(self, pedagogical_bet,
                                             small_grid):
        results = {}
        for spec in ("serial", "multinode", None):
            results[spec] = sweep_grid(
                pedagogical_bet, XEON_E5_2420, small_grid,
                executor=spec, shards=4 if spec else None)
        baseline = _grid_key(results[None])
        assert _grid_key(results["serial"]) == baseline
        assert _grid_key(results["multinode"]) == baseline
        assert results["serial"].executor == "serial"
        assert results[None].executor == "serial"
        assert results["serial"].shard_stats["shards_planned"] > 0

    def test_point_failures_keep_legacy_semantics(self, pedagogical_bet,
                                                  small_grid):
        # a point that fails validation inside a healthy shard surfaces
        # as the same PointFailure record the unsharded path produces
        bad = dict(small_grid)
        bad["cores"] = [2.0, -4.0, 8.0]     # -4 cores fails validation
        legacy = sweep_grid(pedagogical_bet, XEON_E5_2420, bad)
        sharded = sweep_grid(pedagogical_bet, XEON_E5_2420, bad,
                             executor="serial", shards=6)
        assert [(f.index, f.error_type) for f in sharded.failures] \
            == [(f.index, f.error_type) for f in legacy.failures]
        assert len(sharded.points) == len(legacy.points) == 4
        assert sharded.shard_stats["shards_quarantined"] == 0.0

    def test_quarantined_shard_becomes_point_failures(self, pedagogical_bet,
                                                      small_grid):
        # four kills on the same shard exhaust the reassign limit (3):
        # the shard is quarantined and its points become failure records
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 6)])
        result = sweep_grid(pedagogical_bet, XEON_E5_2420, small_grid,
                            executor="serial", shards=3, chaos=chaos)
        assert result.failures
        assert all(isinstance(f, PointFailure) for f in result.failures)
        assert all("quarantined" in f.message for f in result.failures)
        assert all(f.error_type == "WorkerCrashError"
                   for f in result.failures)
        assert len(result.points) + len(result.failures) == 6
        assert result.shard_stats["shards_quarantined"] == 1.0

    def test_strict_mode_raises_on_quarantine(self, pedagogical_bet,
                                              small_grid):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 6)])
        with pytest.raises(ShardQuarantinedError):
            sweep_grid(pedagogical_bet, XEON_E5_2420, small_grid,
                       executor="serial", shards=3, chaos=chaos,
                       strict=True)

    def test_export_carries_executor_fields(self, pedagogical_bet,
                                            small_grid):
        from repro.export import grid_to_dict
        result = sweep_grid(pedagogical_bet, XEON_E5_2420, small_grid,
                            executor="serial", shards=2)
        payload = grid_to_dict(result)
        assert payload["executor"] == "serial"
        assert payload["shard_stats"]["shards_planned"] == 2.0
        assert payload["schema_version"] == 2
