"""Tests for the parallel + cached design-space sweep engine
(`repro.parallel`): the bounded LRU cache, BET-build memoization, grid
sweeps, batched analyses, and the serial/parallel equivalence guarantee.
"""

import pickle

import pytest

from repro.analysis.sensitivity import sweep_machine
from repro.bet import SymbolicBET, build_bet
from repro.errors import AnalysisError
from repro.experiments import analyze, cache_stats, clear_cache
from repro.experiments import pipeline
from repro.hardware import BGQ, XEON_E5_2420
from repro.parallel import (
    CacheStats, LRUCache, analyze_matrix, bet_cache_stats,
    build_bet_cached, clear_bet_cache, evaluate_cells, sweep_grid,
)
from repro.parallel import (
    PoolExecutor, ShardScheduler, clear_symbolic_cache, plan_shards,
    resilient_map,
)
from repro.parallel.engine import _symbolic_for, _TapeRef
from repro.workloads import load


@pytest.fixture(scope="module")
def pedagogical():
    return load("pedagogical")


@pytest.fixture(scope="module")
def pedagogical_bet(pedagogical):
    program, inputs = pedagogical
    return build_bet(program, inputs=inputs)


# -- LRU cache ----------------------------------------------------------------

class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("nope") is None
        assert cache.get("nope", 42) == 42

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert "b" not in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)        # rewrite refreshes too
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.get("a") == 10

    def test_counters(self):
        cache = LRUCache(maxsize=1)
        cache.get("a")            # miss
        cache.put("a", 1)
        cache.get("a")            # hit
        cache.put("b", 2)         # evicts "a"
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.requests == 2
        assert stats.hit_rate == 0.5

    def test_stats_reporting(self):
        stats = CacheStats(hits=3, misses=1, evictions=2)
        assert stats.as_dict() == {"hits": 3, "misses": 1,
                                   "evictions": 2, "quota_evictions": 0,
                                   "hit_rate": 0.75}
        assert "hit_rate=75%" in str(stats)
        assert CacheStats().hit_rate == 0.0

    def test_get_or_create_runs_factory_once(self):
        cache = LRUCache(maxsize=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or 7)
        assert value == 7
        assert len(calls) == 1
        assert cache.stats.hits == 2

    # -- per-owner quotas: one hot tenant cannot flush a shared cache --

    def test_quota_evicts_owner_lru_only(self):
        cache = LRUCache(maxsize=8, owner_quota=2)
        cache.put("a1", 1, owner="a")
        cache.put("a2", 2, owner="a")
        cache.put("b1", 3, owner="b")
        cache.put("a3", 4, owner="a")     # evicts a1, a's LRU entry
        assert "a1" not in cache
        assert cache.get("a2") == 2 and cache.get("a3") == 4
        assert cache.get("b1") == 3      # other owner untouched
        assert cache.stats.quota_evictions == 1
        assert cache.stats.evictions == 0

    def test_occupancy_reports_per_owner(self):
        cache = LRUCache(maxsize=8, owner_quota=4)
        cache.put("a1", 1, owner="a")
        cache.put("a2", 2, owner="a")
        cache.put("b1", 3, owner="b")
        cache.put("s", 4)                 # SHARED_OWNER
        assert cache.occupancy() == {"a": 2, "b": 1, "shared": 1}

    def test_rewrite_can_change_owner(self):
        cache = LRUCache(maxsize=4, owner_quota=2)
        cache.put("k", 1, owner="a")
        cache.put("k", 2, owner="b")      # entry changes hands
        assert cache.occupancy() == {"b": 1}
        assert cache.get("k") == 2

    def test_global_eviction_updates_owner_books(self):
        cache = LRUCache(maxsize=2, owner_quota=2)
        cache.put("a1", 1, owner="a")
        cache.put("b1", 2, owner="b")
        cache.put("b2", 3, owner="b")     # global eviction of a1
        assert cache.occupancy() == {"b": 2}
        assert cache.stats.evictions == 1

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=4, owner_quota=0)

    def test_get_or_create_evicts_when_full(self):
        cache = LRUCache(maxsize=1)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_clear_keeps_stats_by_default(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        cache.clear(reset_stats=True)
        assert cache.stats.hits == 0

    def test_rejects_unusable_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_never_grows_past_maxsize(self):
        cache = LRUCache(maxsize=3)
        for index in range(10):
            cache.put(index, index)
            assert len(cache) <= 3
        assert cache.stats.evictions == 7


# -- process-pool primitives --------------------------------------------------

def _double(x):
    return 2 * x


class _PickleCounter:
    """Counts parent-side pickles of every instance (class-level tally);
    the double-serialization regression test reads ``events``."""

    events = 0

    def __init__(self, value):
        self.value = value

    def __getstate__(self):
        type(self).events += 1
        return {"value": self.value}

    def __setstate__(self, state):
        self.__dict__.update(state)


def _unwrap_double(item):
    return 2 * item.value


_CALL_LOG = []


def _record_call(x):
    _CALL_LOG.append(x)
    return 10 * x


def _settled_future(fn, item, fail):
    from concurrent.futures import BrokenExecutor, Future
    future = Future()
    if fail:
        future.set_exception(BrokenExecutor("pool died"))
    else:
        future.set_result(fn(*item))
    return future


class _DyingPool:
    """Stand-in process pool: runs work in-process at submit and dies
    (its futures raise BrokenExecutor) from the third submit on."""

    def __init__(self, max_workers):
        self._submitted = 0

    def submit(self, fn, *args):
        self._submitted += 1
        return _settled_future(fn, args, fail=self._submitted >= 3)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _NoProcessesPool:
    """Stand-in for a host that cannot start worker processes."""

    def __init__(self, max_workers):
        raise PermissionError("process creation is not permitted")


class TestPool:
    def test_serial_map(self):
        assert resilient_map(_double, [1, 2, 3], workers=1).results == \
            [2, 4, 6]

    def test_pool_map_preserves_order(self):
        items = list(range(16))
        assert resilient_map(_double, items, workers=2).results == \
            [2 * x for x in items]

    def test_unpicklable_payload_falls_back_to_serial(self):
        items = [1, 2, 3]
        assert resilient_map(lambda x: 2 * x, items,
                             workers=2).results == [2, 4, 6]

    def test_chunk_contiguous_and_complete(self):
        pieces = plan_shards(10, 3, workers=1)
        assert [x for start, stop in pieces
                for x in range(start, stop)] == list(range(10))
        assert len(pieces) == 3
        sizes = [stop - start for start, stop in pieces]
        assert max(sizes) - min(sizes) <= 1

    def test_chunk_never_makes_empty_pieces(self):
        assert plan_shards(2, 5, workers=1) == [(0, 1), (1, 2)]
        assert plan_shards(0, 3, workers=1) == []

    def test_items_are_not_pickled_twice(self):
        # regression: the pickle probe used to serialize the *entire*
        # payload up front, doubling the bill the executor pays again at
        # submit time — a large batch is now probed with one item only
        _PickleCounter.events = 0
        items = [_PickleCounter(i) for i in range(6)]
        assert resilient_map(_unwrap_double, items, workers=2).results \
            == [0, 2, 4, 6, 8, 10]
        assert _PickleCounter.events == len(items) + 1  # probe + submits

    def test_dead_pool_keeps_completed_results(self, monkeypatch):
        # regression: the broken-pool fallback used to recompute every
        # item; now only shards without a completed result run again
        from repro.parallel import executors
        _CALL_LOG.clear()
        monkeypatch.setattr(executors, "ProcessPoolExecutor", _DyingPool)
        outcome = resilient_map(_record_call, [1, 2, 3, 4], workers=2)
        assert outcome.results == [10, 20, 30, 40]
        assert sorted(_CALL_LOG) == [1, 2, 3, 4]   # each exactly once

    def test_host_without_processes_finishes_in_process(self,
                                                        monkeypatch):
        from repro.parallel import executors
        _CALL_LOG.clear()
        monkeypatch.setattr(executors, "ProcessPoolExecutor",
                            _NoProcessesPool)
        outcome = resilient_map(_record_call, [1, 2, 3, 4], workers=2)
        assert outcome.ok and outcome.results == [10, 20, 30, 40]
        assert sorted(_CALL_LOG) == [1, 2, 3, 4]
        executor = PoolExecutor(workers=2)
        outcome = ShardScheduler(executor).run(_double, [1, 2, 3])
        assert outcome.results == {0: 2, 1: 4, 2: 6}
        assert executor.stats["in_process"] == 3.0


# -- what a chunk ships --------------------------------------------------------

def _refuse(*_args, **_kwargs):
    raise AssertionError("must not run")


class TestShipOnce:
    """Symbolic chunks carry a tape reference: the live tree in process,
    its content key plus one pickle of the tree per run across a
    process boundary."""

    def test_tree_pickles_once_for_every_chunk(self, pedagogical,
                                               monkeypatch):
        program, _ = pedagogical
        calls = []
        getstate = SymbolicBET.__getstate__
        monkeypatch.setattr(SymbolicBET, "__getstate__",
                            lambda sym: calls.append(1) or getstate(sym))
        ref = _TapeRef(SymbolicBET(program))
        for chunk in range(4):
            pickle.dumps((ref, chunk))
        assert len(calls) == 1

    def test_resident_key_skips_unpickle_and_fingerprint(self, pedagogical,
                                                         monkeypatch):
        program, inputs = pedagogical
        clear_symbolic_cache()
        live = _TapeRef(SymbolicBET(program))
        with _symbolic_for(live) as tape:
            tape.bind(dict(inputs))
        shipped = pickle.loads(pickle.dumps(live))
        monkeypatch.setattr(SymbolicBET, "__setstate__", _refuse)
        monkeypatch.setattr(type(program), "fingerprint", _refuse)
        with _symbolic_for(shipped) as resident:
            assert resident is tape

    def test_serial_sweep_never_pickles_the_tree(self, pedagogical,
                                                 monkeypatch):
        program, inputs = pedagogical
        monkeypatch.setattr(SymbolicBET, "__getstate__", _refuse)
        cells = [{"input:n": float(n)} for n in range(8, 40)]
        result = evaluate_cells(XEON_E5_2420, cells, program=program,
                                inputs=inputs, chunk_size=8)
        assert len(result.points) == len(cells) and not result.failures


# -- BET-build memoization ----------------------------------------------------

class TestBuildBetCached:
    def test_second_build_returns_same_tree(self, pedagogical):
        program, inputs = pedagogical
        clear_bet_cache()
        first = build_bet_cached(program, inputs)
        second = build_bet_cached(program, inputs)
        assert second is first

    def test_counts_hits_and_misses(self, pedagogical):
        program, inputs = pedagogical
        clear_bet_cache()
        before = bet_cache_stats().as_dict()
        build_bet_cached(program, inputs)
        build_bet_cached(program, inputs)
        after = bet_cache_stats().as_dict()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_different_inputs_are_different_entries(self, pedagogical):
        program, inputs = pedagogical
        clear_bet_cache()
        base = build_bet_cached(program, inputs)
        bumped = build_bet_cached(
            program, dict(inputs, n=2 * int(inputs.get("n", 64))))
        assert bumped is not base

    def test_matches_uncached_build(self, pedagogical, pedagogical_bet):
        from repro.bet.nodes import render_tree
        program, inputs = pedagogical
        clear_bet_cache()
        cached = build_bet_cached(program, inputs)
        assert cached.size() == pedagogical_bet.size()
        assert render_tree(cached) == render_tree(pedagogical_bet)


# -- grid sweeps --------------------------------------------------------------

class TestSweepGrid:
    def test_row_major_product_order(self, pedagogical_bet):
        grid = {"bandwidth": [10e9, 20e9],
                "frequency_hz": [1e9, 2e9, 3e9]}
        result = sweep_grid(pedagogical_bet, BGQ, grid)
        assert result.shape == (2, 3)
        assert result.parameters == ["bandwidth", "frequency_hz"]
        combos = [(p.overrides["bandwidth"], p.overrides["frequency_hz"])
                  for p in result.points]
        # last parameter varies fastest
        assert combos == [(10e9, 1e9), (10e9, 2e9), (10e9, 3e9),
                          (20e9, 1e9), (20e9, 2e9), (20e9, 3e9)]

    def test_point_lookup_and_best(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 40e9]})
        point = result.point(bandwidth=40e9)
        assert point.machine.bandwidth == 40e9
        assert result.best().runtime == min(result.runtime_curve())
        with pytest.raises(AnalysisError):
            result.point(bandwidth=123.0)

    def test_machines_get_descriptive_names(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9],
                             "frequency_hz": [2e9]})
        name = result.points[0].machine.name
        assert "bandwidth=1e+10" in name and "frequency_hz=2e+09" in name

    def test_render_mentions_every_cell(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9]})
        text = result.render()
        assert "design-space grid" in text
        assert text.count("\n") >= 1 + len(result.points)

    def test_timings_and_cache_stats_recorded(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9]})
        for key in ("project", "total", "workers", "points"):
            assert key in result.timings
        assert result.timings["points"] == 2.0
        assert set(result.cache_stats) == \
            {"hits", "misses", "evictions", "quota_evictions",
             "hit_rate"}

    def test_rejects_empty_grid(self, pedagogical_bet):
        with pytest.raises(AnalysisError):
            sweep_grid(pedagogical_bet, BGQ, {})
        with pytest.raises(AnalysisError):
            sweep_grid(pedagogical_bet, BGQ, {"bandwidth": []})

    def test_rejects_unknown_parameter(self, pedagogical_bet):
        with pytest.raises(AnalysisError):
            sweep_grid(pedagogical_bet, BGQ, {"warp_drive": [1.0]})

    def test_cell_list_grid_is_first_encounter_axis_union(
            self, pedagogical_bet):
        # equal values dedup (4 == 4.0) and the first spelling wins
        result = evaluate_cells(BGQ, [{"bandwidth": 2e10, "cores": 4},
                                      {"cores": 8, "bandwidth": 1e10},
                                      {"bandwidth": 2e10, "cores": 4.0}],
                                bet=pedagogical_bet)
        assert result.grid == {"bandwidth": [2e10, 1e10], "cores": [4, 8]}
        assert list(result.grid) == ["bandwidth", "cores"]
        assert isinstance(result.grid["cores"][0], int)


# -- serial/parallel equivalence (ISSUE: bit-identical results) ---------------

def _grid_signature(result):
    return [(p.overrides, p.machine.name, p.runtime, tuple(p.ranking),
             p.top_label, p.memory_fraction) for p in result.points]


class TestParallelEquivalence:
    def test_sweep_machine_parallel_matches_serial(self, pedagogical_bet):
        values = tuple(gbs * 1e9 for gbs in (5, 10, 20, 40))
        serial = sweep_machine(pedagogical_bet, BGQ, "bandwidth", values)
        fanned = sweep_machine(pedagogical_bet, BGQ, "bandwidth", values,
                               workers=2)
        assert [p.value for p in fanned.points] == \
            [p.value for p in serial.points]
        assert fanned.runtime_curve() == serial.runtime_curve()
        assert [p.ranking for p in fanned.points] == \
            [p.ranking for p in serial.points]
        assert [p.memory_fraction for p in fanned.points] == \
            [p.memory_fraction for p in serial.points]
        assert fanned.timings["workers"] == 2.0

    def test_sweep_grid_parallel_matches_serial(self, pedagogical_bet):
        grid = {"bandwidth": [10e9, 20e9, 40e9],
                "frequency_hz": [1e9, 2e9]}
        serial = sweep_grid(pedagogical_bet, BGQ, grid)
        fanned = sweep_grid(pedagogical_bet, BGQ, grid, workers=2)
        assert _grid_signature(fanned) == _grid_signature(serial)

    @pytest.mark.parametrize("resume", [False, True],
                             ids=["fresh", "resumed"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_machine_matches_one_axis_grid(
            self, pedagogical_bet, tmp_path, workers, resume):
        # sweep_machine is the one-axis adapter over the evaluate_cells
        # core: same numbers, names and failures as the equivalent grid,
        # also after an interrupted run resumes from its checkpoint
        values = [2.0, -4.0, 8.0, 16.0]          # -4 cores fails

        def via_sweep(count, **kwargs):
            return sweep_machine(pedagogical_bet, BGQ, "cores",
                                 values[:count], workers=workers, **kwargs)

        def via_grid(count, **kwargs):
            return sweep_grid(pedagogical_bet, BGQ,
                              {"cores": values[:count]}, workers=workers,
                              **kwargs)

        results = []
        for entry in (via_sweep, via_grid):
            if resume:
                path = str(tmp_path / f"{entry.__name__}.json")
                entry(2, checkpoint=path, checkpoint_key="half")
                result = entry(len(values), checkpoint=path,
                               checkpoint_key="half", resume=True)
                assert result.timings["resumed"] == 1.0
            else:
                result = entry(len(values))
            results.append(result)
        swept, gridded = results
        assert [(p.value, p.runtime, p.ranking, p.machine.name)
                for p in swept.points] == \
            [(p.overrides["cores"], p.runtime, p.ranking, p.machine.name)
             for p in gridded.points]
        assert [(f.index, f.error_type) for f in swept.failures] == \
            [(f.index, f.error_type) for f in gridded.failures]
        assert [f.index for f in swept.failures] == [1]

    def test_analyze_matrix_parallel_matches_serial(self):
        clear_cache()
        serial = analyze_matrix(["pedagogical"], [BGQ, XEON_E5_2420])
        clear_cache()
        fanned = analyze_matrix(["pedagogical"], [BGQ, XEON_E5_2420],
                                workers=2)
        assert len(serial) == len(fanned) == 2
        for a, b in zip(serial, fanned):
            assert (a.name, a.machine) == (b.name, b.machine)
            assert a.projected_total == b.projected_total
            assert a.measured_total == b.measured_total
            assert a.model_sites() == b.model_sites()
            assert a.quality() == b.quality()


# -- batched analyses ---------------------------------------------------------

class TestSweepCore:
    def test_concurrent_threads_on_one_program_match_serial(
            self, pedagogical):
        # two threads evaluating input cells of one program must never
        # bind the same cached tape at once (a rebind rewrites the tree
        # the other thread is projecting)
        import sys
        import threading
        from repro.export import grid_point_to_dict
        from repro.parallel import clear_symbolic_cache
        program, inputs = pedagogical
        jobs = [[{"input:n": 100.0 + 7 * i} for i in range(12)],
                [{"input:n": 5000.0 + 11 * i} for i in range(12)]]

        def evaluate(cells):
            result = evaluate_cells(BGQ, cells, program=program,
                                    inputs=inputs)
            return [grid_point_to_dict(point) for point in result.points]

        clear_symbolic_cache()
        expected = [evaluate(cells) for cells in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = [None] * 4
                threads = [threading.Thread(
                    target=lambda i=i: got.__setitem__(
                        i, evaluate(jobs[i % 2])))
                    for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == expected * 2
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("entry", ["sweep_machine", "sweep_inputs"])
    def test_older_adapter_checkpoint_is_refused(self, pedagogical,
                                                 pedagogical_bet, tmp_path,
                                                 entry):
        # checkpoints written before sweep_machine / sweep_inputs ran on
        # the shared core stored other cell keys, payloads and settings;
        # resuming one must refuse, never merge or silently recompute
        import json
        from repro.errors import CheckpointError
        from repro.parallel import sweep_inputs
        program, inputs = pedagogical
        projection = {"runtime": 1.0, "ranking": ["s1"], "top_label": "s1",
                      "memory_fraction": 0.5, "completeness": 1.0}
        if entry == "sweep_machine":
            completed = {"bandwidth=10000000000.0": dict(projection,
                                                         value=1e10)}
            settings = {"cache_model": "default"}
        else:
            completed = {"n=500": projection}
            settings = {"backend": "scalar", "cache_model": "default",
                        "executor": "legacy"}
        path = str(tmp_path / "legacy.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "key": "legacy", "settings": settings,
                       "completed": completed}, handle)
        with pytest.raises(CheckpointError, match="SKOP706"):
            if entry == "sweep_machine":
                sweep_machine(pedagogical_bet, BGQ, "bandwidth", [1e10],
                              checkpoint=path, checkpoint_key="legacy",
                              resume=True)
            else:
                sweep_inputs(program, BGQ, {"n": [500]}, base_inputs=inputs,
                             checkpoint=path, checkpoint_key="legacy",
                             resume=True)


    def test_parent_default_dispatch_checkpoint_is_refused(
            self, pedagogical_bet, tmp_path):
        # executor=None used to record the executor setting "legacy";
        # it now records the executor it resolved to, so a file written
        # by the old default dispatch is refused, never merged
        import json
        from repro.errors import CheckpointError
        from repro.parallel.fault import overrides_key
        cell = {"bandwidth": 1e10}
        projection = {"runtime": 1.0, "ranking": ["s1"], "top_label": "s1",
                      "memory_fraction": 0.5, "completeness": 1.0}
        path = str(tmp_path / "default.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "key": "default",
                       "settings": {"backend": "scalar",
                                    "cache_model": "default",
                                    "executor": "legacy"},
                       "completed": {overrides_key(cell): dict(
                           projection, overrides=cell)}}, handle)
        with pytest.raises(CheckpointError, match="SKOP706") as err:
            sweep_grid(pedagogical_bet, BGQ, {"bandwidth": [1e10, 2e10]},
                       checkpoint=path, checkpoint_key="default",
                       resume=True)
        assert "executor: legacy -> serial" in str(err.value)


class TestAnalyzeMatrix:
    def test_row_major_task_order(self):
        clear_cache()
        results = analyze_matrix(
            ["pedagogical"], [BGQ, XEON_E5_2420],
            ablations=[{}, {"overlap": False}])
        assert [(r.name, r.machine.name) for r in results] == \
            [("pedagogical", BGQ.name), ("pedagogical", BGQ.name),
             ("pedagogical", XEON_E5_2420.name),
             ("pedagogical", XEON_E5_2420.name)]

    def test_parallel_results_seed_parent_cache(self):
        clear_cache()
        results = analyze_matrix(["pedagogical"], [BGQ, XEON_E5_2420],
                                 workers=2)
        hits_before = cache_stats().hits
        again = analyze("pedagogical", BGQ)
        assert cache_stats().hits == hits_before + 1
        assert again.projected_total == results[0].projected_total

    def test_matrix_total_timing_stamped(self):
        clear_cache()
        results = analyze_matrix(["pedagogical"], [BGQ])
        assert "matrix_total" in results[0].timings
        assert results[0].timings["matrix_total"] >= 0.0

    def test_ablation_options_respected(self):
        clear_cache()
        base, ablated = analyze_matrix(
            ["pedagogical"], [BGQ],
            ablations=[{}, {"miss_rate": 0.5}])
        assert base.projected_total != ablated.projected_total


# -- bounded pipeline cache ---------------------------------------------------

class TestPipelineCache:
    def test_analysis_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        for name in ("pedagogical", "stassuij", "chargei"):
            analyze(name, BGQ)
        assert len(pipeline._CACHE) <= 2
        assert pipeline.cache_stats().evictions >= 1

    def test_repeat_analysis_hits(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        first = analyze("pedagogical", BGQ)
        second = analyze("pedagogical", BGQ)
        assert second is first
        assert pipeline.cache_stats().hits == 1

    def test_clear_cache_forces_recompute(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        first = analyze("pedagogical", BGQ)
        clear_cache()
        second = analyze("pedagogical", BGQ)
        assert second is not first
        assert second.projected_total == first.projected_total

    def test_per_stage_timings_recorded(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        analysis = analyze("pedagogical", BGQ)
        for key in ("profile", "build_bet", "characterize", "select",
                    "total"):
            assert key in analysis.timings
            assert analysis.timings[key] >= 0.0
        assert analysis.timings["total"] >= \
            analysis.timings["characterize"]


# -- CLI ----------------------------------------------------------------------

class TestSweepCommand:
    def test_single_parameter_sweep(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical",
                     "--param", "bandwidth=10e9,20e9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sensitivity sweep over 'bandwidth'" in out
        assert "[2 points in" in out and "workers=1]" in out

    def test_grid_sweep(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical",
                     "--param", "bandwidth=10e9,20e9",
                     "--param", "frequency_hz=1e9,2e9",
                     "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "design-space grid over bandwidth x frequency_hz" in out
        assert "[4 points in" in out and "workers=2]" in out

    def test_json_output(self, capsys):
        import json
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--json",
                     "--param", "bandwidth=10e9,20e9",
                     "--param", "frequency_hz=1e9,2e9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"] == ["bandwidth", "frequency_hz"]
        assert len(payload["points"]) == 4
        assert "cache_stats" in payload and "timings" in payload

    def test_bad_param_syntax_is_an_error(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--param", "bandwidth"])
        assert code != 0
        assert "NAME=V1,V2" in capsys.readouterr().err
