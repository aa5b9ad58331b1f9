"""Pluggable executors for sharded sweep dispatch (DESIGN.md §12).

A :class:`SweepExecutor` is the substrate the
:class:`~repro.parallel.shard.ShardScheduler` dispatches shards onto, and
the only way work reaches a worker: every fan-out in the package is a
scheduler run over one.  Three implementations ship:

* :class:`SerialExecutor` — one in-process worker; the reference
  semantics every other executor must match bit-for-bit, and the
  cheapest host for the chaos harness.  Results are handed back as is:
  nothing crosses a process boundary, so nothing is pickled or
  checksummed;
* :class:`PoolExecutor` — the package's one
  :class:`ProcessPoolExecutor`, behind worker slots, with real crash
  detection (a broken pool becomes crash events and a fresh pool),
  per-shard deadlines, hung-worker reaping via :func:`abandon_pool`,
  one shard queued behind each running one so no worker idles while
  the parent refills it, and one healthy pool kept warm across runs
  until :func:`release_pools`;
* :class:`MultinodeExecutor` — a simulated cluster over a
  :class:`~repro.multinode.cluster.ClusterTopology`: shard tasks are
  pure, so they execute in-process while a deterministic virtual clock
  models per-worker occupancy, postal-model result shipping, heartbeat
  supervision, and permanent worker loss.

The executor protocol is event-based: the scheduler calls
:meth:`dispatch` for idle workers and :meth:`wait` for a batch of
``(kind, shard_id, worker, detail)`` events::

    ("result",  shard_id, worker, ShardEnvelope or in-process hand-off)
    ("failed",  shard_id, worker, (error_type, message))
    ("timeout", shard_id, worker, None)
    ("crash",   -1,       worker, [lost shard ids])
    ("dead",    -1,       worker, [lost shard ids])

Every executor accepts an optional
:class:`~repro.parallel.chaos.ChaosSchedule`; injected faults surface
through the exact same events as real ones, so the supervision paths the
chaos suite proves are the paths production faults take.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading
import time
import types
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import ExecutorError
from ..multinode.cluster import CLUSTER_PRESETS, DUAL_NODE, ClusterTopology
from .chaos import ChaosSchedule
from .shard import ShardEnvelope

#: executor names accepted by the CLI and :func:`resolve_executor`
EXECUTOR_NAMES = ("serial", "pool", "multinode")

Event = Tuple[str, int, str, Any]


# -- worker processes ---------------------------------------------------------

#: worker processes of pools abandoned because a worker hung; reaped
#: lazily and at exit (the processes, not the pools: ``shutdown`` nulls
#: the pool's ``_processes`` map, so they must be snapshotted first)
_ABANDONED: List[Any] = []
#: manager threads of pools shut down without waiting, joined by
#: :func:`release_pools`
_CLOSING: List[threading.Thread] = []
_ABANDONED_LOCK = threading.Lock()


def _shutdown_nowait(pool) -> List[Any]:
    """Shut ``pool`` down without blocking on it; returns its worker
    processes (snapshotted first: ``shutdown()`` sets ``pool._processes``
    to ``None`` even with ``wait=False``)."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    thread = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    if thread is not None:
        with _ABANDONED_LOCK:
            _CLOSING[:] = [alive for alive in _CLOSING if alive.is_alive()]
            _CLOSING.append(thread)
    return processes


def abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Give up on a pool with a hung worker without blocking on it.

    ``shutdown(wait=False)`` alone leaks the hung child for the life of
    the parent; this terminates every worker and parks it for
    :func:`reap_abandoned` (called after each abandon and at exit).
    """
    processes = _shutdown_nowait(pool)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    with _ABANDONED_LOCK:
        _ABANDONED.extend(processes)


def reap_abandoned(timeout: float = 1.0) -> int:
    """Join every abandoned worker process, killing stragglers; returns
    how many are confirmed dead (a survivor waits for the next call)."""
    with _ABANDONED_LOCK:
        processes = list(_ABANDONED)
        _ABANDONED.clear()
    reaped = 0
    stubborn = []
    for process in processes:
        try:
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeout)
            if process.is_alive():
                stubborn.append(process)
            else:
                reaped += 1
        except Exception:
            pass
    if stubborn:
        with _ABANDONED_LOCK:
            _ABANDONED.extend(stubborn)
    return reaped


# -- the warm pool -------------------------------------------------------------

#: the one idle pool kept between runs, as ``(pool, width, the
#: ProcessPoolExecutor factory that built it, the __main__ definitions
#: its workers hold)``: its workers, and the symbolic tapes resident in
#: them, serve the next run of that width (DESIGN.md §12)
_WARM: Optional[Tuple[Any, int, Any, Dict[str, Any]]] = None
_WARM_LOCK = threading.Lock()
#: seconds :func:`release_pools` waits for each closing pool to exit
_RELEASE_JOIN_SECONDS = 10.0


def _pool_healthy(pool) -> bool:
    """Neither broken nor shut down, and no worker process has exited
    (a worker that died while the pool idled would lose the next run's
    first shards)."""
    if getattr(pool, "_broken", False) \
            or getattr(pool, "_shutdown_thread", False):
        return False
    processes = list((getattr(pool, "_processes", None) or {}).values())
    return all(process.exitcode is None for process in processes)


def _main_definitions() -> Dict[str, Any]:
    """The classes and functions defined in ``__main__``.

    Work pickles them by name (a ``model_factory``, say), and a worker
    resolves the name in the ``__main__`` it forked from: a worker that
    forked before one was defined fails to unpickle the work, and one
    that forked before a redefinition runs the old code.
    """
    main = sys.modules.get("__main__")
    if main is None:
        return {}
    return {name: value for name, value in list(vars(main).items())
            if isinstance(value, (type, types.FunctionType))
            and getattr(value, "__module__", None) == "__main__"}


def _discard(pool) -> None:
    """Retire a pool that will not be reused."""
    if _pool_healthy(pool):
        _shutdown_nowait(pool)
    else:
        abandon_pool(pool)
        reap_abandoned()


def _park(entry: Tuple[Any, int, Any, Dict[str, Any]]) -> None:
    """Make ``entry`` the warm pool unless one at least as wide holds the
    slot (a concurrent run parked first); the other pool is shut down
    without waiting."""
    global _WARM
    with _WARM_LOCK:
        if _WARM is None or _WARM[1] < entry[1]:
            _WARM, entry = entry, _WARM
    if entry is not None:
        _shutdown_nowait(entry[0])


def _checkout(width: int):
    """The warm pool when it has ``width`` workers, else ``None``.

    A warm pool that is unhealthy, was built by another
    :class:`ProcessPoolExecutor` factory or whose workers hold other
    ``__main__`` definitions than the parent now has is retired; a
    healthy one of another width stays parked for its own width, and
    this run builds a pool of its own.  The pool leaves the warm slot,
    so a concurrent run builds its own too.
    """
    global _WARM
    with _WARM_LOCK:
        warm, _WARM = _WARM, None
    if warm is None:
        return None
    pool, warm_width, factory, definitions = warm
    if factory is not ProcessPoolExecutor or not _pool_healthy(pool) \
            or definitions != _main_definitions():
        _discard(pool)
    elif warm_width == width:
        return pool
    else:
        _park(warm)
    return None


def _checkin(pool, width: int, flight: List[Any]) -> None:
    """Park the pool of a run that ended (``flight``: its unfinished
    futures) for the next run, when it is healthy and idle once its
    queued futures are cancelled; otherwise shut it down without
    waiting."""
    for future in flight:
        future.cancel()
    if all(future.done() for future in flight) and _pool_healthy(pool):
        # the run started on (or forked) workers holding the parent's
        # __main__ definitions as they are now
        _park((pool, width, ProcessPoolExecutor, _main_definitions()))
    else:
        _shutdown_nowait(pool)


def release_pools() -> None:
    """Shut the warm pool down and wait until every pool this process
    closed has exited, worker processes included.

    Runs at interpreter exit ahead of ``concurrent.futures``' own exit
    hook, which would otherwise poke the wakeup pipe of a pool still
    closing (``OSError: [Errno 9] Bad file descriptor``), and on the
    service's drain.  The next pool run starts a fresh pool.
    """
    global _WARM
    with _WARM_LOCK:
        warm, _WARM = _WARM, None
    if warm is not None:
        _shutdown_nowait(warm[0])
    with _ABANDONED_LOCK:
        closing = list(_CLOSING)
        _CLOSING.clear()
    for thread in closing:
        thread.join(_RELEASE_JOIN_SECONDS)
    stragglers = [thread for thread in closing if thread.is_alive()]
    if stragglers:
        with _ABANDONED_LOCK:
            _CLOSING.extend(stragglers)
    reap_abandoned()


try:
    # threading's exit hooks run newest first, so this one runs before
    # concurrent.futures' (registered when ProcessPoolExecutor was
    # imported above)
    threading._register_atexit(release_pools)
except (AttributeError, RuntimeError):      # pragma: no cover
    atexit.register(release_pools)


def default_workers() -> int:
    """A sensible worker count for this host (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# -- the protocol -------------------------------------------------------------

class SweepExecutor:
    """The executor protocol (see the module docstring for the events).

    Lifecycle: ``open(task)`` → interleaved ``idle_workers`` /
    ``dispatch`` / ``wait`` → ``close()`` (always, in a ``finally``).
    ``stats`` is a plain name→number dict merged into the scheduler's
    shard stats under ``executor_*`` keys.
    """

    name = "base"

    def __init__(self):
        self.stats: Dict[str, float] = {}

    @property
    def width(self) -> int:
        """Concurrent worker slots (drives the default shard count)."""
        return 1

    def open(self, task: Callable[[Any], Any]) -> None:
        raise NotImplementedError

    def idle_workers(self) -> List[str]:
        raise NotImplementedError

    def dispatch(self, shard_id: int, attempt: int, payload: Any,
                 worker: str, timeout: Optional[float] = None) -> None:
        raise NotImplementedError

    def wait(self) -> List[Event]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _Handoff(NamedTuple):
    """A shard result produced in this process: nothing crossed a
    boundary, so nothing is pickled or checksummed (live exceptions in
    the value survive)."""

    attempt: int
    value: Any

    def unpack(self) -> Any:
        return self.value


def _withheld(chaos: Optional[ChaosSchedule], shard_id: int, attempt: int,
              worker: str) -> Optional[Event]:
    """The event an injected kill, partition or stall turns this dispatch
    into (the shard's work is withheld, as a failed worker would), or
    ``None`` when no such fault is scheduled."""
    if chaos is None:
        return None
    if chaos.take("kill", shard_id, attempt, worker):
        return ("crash", -1, worker, [shard_id])
    if chaos.take("drop_heartbeats", shard_id, attempt, worker):
        return ("dead", -1, worker, [shard_id])
    if chaos.take("stall", shard_id, attempt, worker):
        return ("timeout", shard_id, worker, None)
    return None


def _run_here(task: Callable[[Any], Any], chaos: Optional[ChaosSchedule],
              shard_id: int, attempt: int, worker: str,
              payload: Any) -> Event:
    """Run one shard in this process and report it as an event.

    An injected ``corrupt`` still packs and damages a real envelope, so
    the scheduler's checksum detection runs exactly as for a result that
    crossed a boundary.
    """
    try:
        value = task(payload)
    except Exception as exc:
        return ("failed", shard_id, worker, (type(exc).__name__, str(exc)))
    if chaos is not None and chaos.take("corrupt", shard_id, attempt,
                                        worker):
        return ("result", shard_id, worker,
                ShardEnvelope.pack(shard_id, attempt, worker,
                                   value).corrupted())
    return ("result", shard_id, worker, _Handoff(attempt, value))


# -- serial (reference) -------------------------------------------------------

class SerialExecutor(SweepExecutor):
    """One in-process worker; the bit-identical reference substrate.

    Chaos faults are honored by *withholding* the shard's work — a
    killed or partitioned worker never produces its result, exactly as a
    real one would not — and reporting the matching event, so the
    scheduler's recovery logic is exercised for real.
    """

    name = "serial"
    WORKER = "serial-0"

    def __init__(self, chaos: Optional[ChaosSchedule] = None):
        super().__init__()
        self.chaos = chaos
        self._task: Optional[Callable[[Any], Any]] = None
        self._queue: List[Tuple[int, int, Any]] = []

    def open(self, task):
        self._task = task
        self._queue = []
        self.stats = {"dispatches": 0.0, "executed": 0.0}

    def idle_workers(self):
        return [] if self._queue else [self.WORKER]

    def dispatch(self, shard_id, attempt, payload, worker, timeout=None):
        self.stats["dispatches"] += 1
        self._queue.append((shard_id, attempt, payload))

    def wait(self):
        if not self._queue:
            return []
        shard_id, attempt, payload = self._queue.pop(0)
        event = (_withheld(self.chaos, shard_id, attempt, self.WORKER)
                 or _run_here(self._task, self.chaos, shard_id, attempt,
                              self.WORKER, payload))
        if event[0] == "result":
            self.stats["executed"] += 1
        return [event]

    def close(self):
        self._queue = []


# -- process pool -------------------------------------------------------------

def _pool_shard_task(task: Callable[[Any], Any], shard_id: int,
                     attempt: int, worker: str,
                     payload: Any) -> ShardEnvelope:
    """Worker-side shard runner: execute and seal (module-level, so it
    pickles)."""
    return ShardEnvelope.pack(shard_id, attempt, worker, task(payload))


class _Slot:
    """One shard in flight on the pool."""

    __slots__ = ("worker", "shard_id", "attempt", "payload", "future",
                 "timeout", "deadline", "zombie")

    def __init__(self, worker, shard_id, attempt, payload, future,
                 timeout):
        self.worker = worker
        self.shard_id = shard_id
        self.attempt = attempt
        self.payload = payload
        self.future = future
        self.timeout = timeout
        self.deadline: Optional[float] = None   #: set once it can run
        self.zombie = False     #: timed out; still holds its process


class PoolExecutor(SweepExecutor):
    """Process-pool executor with crash detection and deadline policing.

    Worker slots are named ``pool-0..N-1``; each holds the shard its
    process runs plus one queued behind it, so a process never idles
    through the parent's wake → unpack → refill round trip.  The pool
    runs shards in submission order, so a shard can run once fewer than
    ``workers`` shards submitted before it are unfinished — and only then
    does its deadline start.  A broken pool (a worker segfaulted or was
    OOM-killed) becomes one crash event per in-flight shard and a fresh
    pool; a shard that outlives its deadline becomes a timeout event and
    a zombie holding its process until the hung future resolves (the
    pool cannot pre-empt one worker).  Once zombies hold every process,
    the shards queued behind them move to a fresh pool.  A pool holding
    zombies is abandoned — workers terminated and reaped.  Otherwise a
    healthy, idle pool outlives the run: ``close`` parks it as the
    process's warm pool and the next ``open`` of the same width checks
    it out, so its workers keep their resident symbolic tapes;
    :func:`release_pools` shuts it down.  A host that cannot start
    worker processes runs every shard in-process instead.
    """

    name = "pool"
    #: polling granularity while every running shard is a zombie
    TICK = 0.05
    #: shards in flight per worker slot: the running one plus look-ahead
    DEPTH = 2

    def __init__(self, workers: Optional[int] = None,
                 chaos: Optional[ChaosSchedule] = None):
        super().__init__()
        self.workers = workers if workers and workers > 0 \
            else default_workers()
        self.chaos = chaos
        self._task: Optional[Callable[[Any], Any]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._flight: List[_Slot] = []      #: in submission order
        self._events: List[Event] = []

    @property
    def width(self) -> int:
        return self.workers

    def open(self, task):
        self._task = task
        self._flight = []
        self._events = []
        self.stats = {"dispatches": 0.0, "pool_starts": 0.0,
                      "pool_rebuilds": 0.0, "timeouts": 0.0,
                      "crashes": 0.0, "in_process": 0.0}
        self._pool = _checkout(self.workers) or self._new_pool()

    def _new_pool(self) -> Optional[ProcessPoolExecutor]:
        """A fresh pool, or ``None`` when this host cannot build one."""
        try:
            pool = ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, ImportError, NotImplementedError):
            return None
        self.stats["pool_starts"] += 1
        return pool

    def idle_workers(self):
        if self._pool is None:      # in-process: one shard at a time
            return [] if self._events else ["pool-0"]
        load = {f"pool-{index}": 0 for index in range(self.workers)}
        for slot in self._flight:
            load[slot.worker] += 1
        return sorted((worker for worker, count in load.items()
                       if count < self.DEPTH), key=load.__getitem__)

    def dispatch(self, shard_id, attempt, payload, worker, timeout=None):
        if worker not in self.idle_workers():
            raise ExecutorError(f"worker {worker} is not idle")
        self.stats["dispatches"] += 1
        withheld = _withheld(self.chaos, shard_id, attempt, worker)
        if withheld is not None:
            # simulated substrate faults: deterministic regardless of
            # pool timing
            if withheld[0] == "timeout":
                self.stats["timeouts"] += 1
            self._events.append(withheld)
            return
        self._submit(worker, shard_id, attempt, payload, timeout)

    def _submit(self, worker, shard_id, attempt, payload, timeout) -> None:
        """Put one shard on the pool (or run it here, without one)."""
        if self._pool is not None:
            try:
                future = self._pool.submit(_pool_shard_task, self._task,
                                           shard_id, attempt, worker,
                                           payload)
            except OSError:
                # the host cannot start worker processes: the run
                # finishes in-process
                self._events.extend(self._rebuild(in_process=True))
            except (BrokenExecutor, RuntimeError):
                self._events.extend(self._rebuild())
                self._events.append(("crash", -1, worker, [shard_id]))
                return
            else:
                self._flight.append(_Slot(worker, shard_id, attempt,
                                          payload, future, timeout))
                self._start_clocks()
                return
        self.stats["in_process"] += 1
        self._events.append(_run_here(self._task, self.chaos, shard_id,
                                      attempt, worker, payload))

    def _start_clocks(self) -> List[_Slot]:
        """Start the deadline of every shard that can now run (zombies
        still hold their process); returns the live running ones."""
        now = time.monotonic()
        running = self._flight[:self.workers]
        for slot in running:
            if slot.deadline is None and slot.timeout is not None:
                slot.deadline = now + slot.timeout
        return [slot for slot in running if not slot.zombie]

    def _rebuild(self, in_process: bool = False) -> List[Event]:
        """Replace a broken pool (by none at all when ``in_process``).

        Returns one crash event per shard the old pool still held, zombies
        excepted (they were already reported as timeouts).
        """
        crashed = [("crash", -1, slot.worker, [slot.shard_id])
                   for slot in self._flight if not slot.zombie]
        if self._pool is not None:
            abandon_pool(self._pool)
            reap_abandoned()
        if not in_process:
            self.stats["pool_rebuilds"] += 1
            self.stats["crashes"] += 1
        self._pool = None if in_process else self._new_pool()
        self._flight = []
        return crashed

    def _rehome(self) -> None:
        """Every process is held by a zombie, so the shards queued behind
        them cannot start before the hangs end: abandon the pool (reaping
        the hung workers) and resubmit those shards, which never started,
        to a fresh one."""
        waiting = [slot for slot in self._flight if not slot.zombie]
        abandon_pool(self._pool)
        reap_abandoned()
        self.stats["pool_rebuilds"] += 1
        self._pool = self._new_pool()
        self._flight = []
        for slot in waiting:
            self._submit(slot.worker, slot.shard_id, slot.attempt,
                         slot.payload, slot.timeout)

    def wait(self):
        while not self._events and self._flight:
            running = self._start_clocks()
            if not running and not all(slot.zombie
                                       for slot in self._flight):
                self._rehome()
                continue
            deadlines = [slot.deadline - time.monotonic()
                         for slot in running if slot.deadline is not None]
            # block until a shard finishes or a deadline falls due; when
            # every running shard is a zombie, poll so the scheduler's
            # watchdog sees the stall
            horizon = (max(0.0, min(deadlines)) if deadlines
                       else None if running else self.TICK)
            _futures_wait([slot.future for slot in self._flight],
                          timeout=horizon, return_when=FIRST_COMPLETED)
            events = self._collect()
            if events or not running:
                return events
        events, self._events = self._events, []
        return events

    def _collect(self) -> List[Event]:
        """Turn finished futures and due deadlines into events."""
        events: List[Event] = []
        now = time.monotonic()
        lost: List[_Slot] = []
        for slot in list(self._flight):
            if slot.future.done():
                self._flight.remove(slot)
                if slot.zombie:
                    continue          # already reported as a timeout
                try:
                    envelope = slot.future.result()
                except (BrokenExecutor, OSError):
                    lost.append(slot)
                    continue
                except Exception as exc:
                    events.append(("failed", slot.shard_id, slot.worker,
                                   (type(exc).__name__, str(exc))))
                    continue
                if self.chaos is not None and self.chaos.take(
                        "corrupt", slot.shard_id, slot.attempt,
                        slot.worker):
                    envelope = envelope.corrupted()
                events.append(("result", slot.shard_id, slot.worker,
                               envelope))
            elif (slot.deadline is not None and now >= slot.deadline
                  and not slot.zombie):
                slot.zombie = True
                self.stats["timeouts"] += 1
                events.append(("timeout", slot.shard_id, slot.worker, None))
        if lost:
            # one broken future means the whole pool is gone: the shards
            # whose futures raised died with it, and so did every shard
            # still in flight
            events.extend(("crash", -1, slot.worker, [slot.shard_id])
                          for slot in lost)
            events.extend(self._rebuild())
        return events

    def close(self):
        if self._pool is not None:
            if any(slot.zombie for slot in self._flight):
                abandon_pool(self._pool)
            else:
                # never block on a healthy pool: park it for the next run,
                # or let its workers exit once their (bounded) task returns
                _checkin(self._pool, self.workers,
                         [slot.future for slot in self._flight])
        reap_abandoned()
        self._pool = None
        self._flight = []


# -- simulated multi-node cluster ---------------------------------------------

class _SimWorker:
    """One simulated worker's liveness and occupancy."""

    __slots__ = ("name", "busy_until", "dead_at")

    def __init__(self, name):
        self.name = name
        self.busy_until = 0.0
        self.dead_at: Optional[float] = None


class MultinodeExecutor(SweepExecutor):
    """Simulated cluster executor over a :class:`ClusterTopology`.

    Shard tasks execute in-process (they are pure, so results are
    bit-identical to the serial path no matter the topology) while a
    deterministic virtual clock simulates the distributed run: each
    shard occupies its worker for ``topology.task_seconds``, results
    ship back at postal-model cost, workers heartbeat every
    ``heartbeat_interval`` simulated seconds, and chaos faults play out
    in simulated time:

    * ``kill`` — the worker dies halfway through the shard (permanent);
    * ``drop_heartbeats`` — a partition: heartbeats *and* the result
      stop arriving; the supervisor declares the worker dead after the
      miss limit, and the stale result surfaces later to be discarded;
    * ``stall`` — the shard runs four timeouts long; the deadline fires
      while the worker stays occupied until the slow task ends;
    * ``corrupt`` — the result envelope is damaged in transit.

    ``stats`` records the simulated makespan (``sim_seconds``), network
    shipping time, heartbeats observed, and workers lost — the inputs to
    the ``BENCH_shard.json`` scaling curve.
    """

    name = "multinode"

    def __init__(self, topology: ClusterTopology = DUAL_NODE,
                 chaos: Optional[ChaosSchedule] = None):
        super().__init__()
        self.topology = topology
        self.chaos = chaos
        self._task: Optional[Callable[[Any], Any]] = None
        self._clock = 0.0
        self._workers: Dict[str, _SimWorker] = {}
        #: scheduled simulation events: (sim_time, seq, event, effects)
        self._timeline: List[Tuple[float, int, Event,
                                   Optional[Tuple[str, float]]]] = []
        self._seq = 0

    @property
    def width(self) -> int:
        return self.topology.total_workers

    def open(self, task):
        self._task = task
        self._clock = 0.0
        self._seq = 0
        self._timeline = []
        self._workers = {name: _SimWorker(name)
                         for name in self.topology.worker_names()}
        self.stats = {"sim_seconds": 0.0, "network_seconds": 0.0,
                      "heartbeats": 0.0, "workers_lost": 0.0,
                      "dispatches": 0.0}

    def idle_workers(self):
        return [worker.name for worker in self._workers.values()
                if worker.dead_at is None
                and worker.busy_until <= self._clock]

    def _schedule(self, at: float, event: Event,
                  kills: Optional[str] = None) -> None:
        self._timeline.append((at, self._seq, event,
                               (kills, at) if kills else None))
        self._seq += 1

    def dispatch(self, shard_id, attempt, payload, worker, timeout=None):
        sim = self._workers[worker]
        if sim.dead_at is not None or sim.busy_until > self._clock:
            raise ExecutorError(f"worker {worker} is not idle")
        self.stats["dispatches"] += 1
        start = self._clock
        duration = self.topology.task_seconds
        if self.chaos is not None:
            if self.chaos.take("kill", shard_id, attempt, worker):
                # dies halfway through; no result, permanent loss
                died = start + duration * 0.5
                sim.busy_until = died
                self._schedule(died, ("crash", -1, worker, [shard_id]),
                               kills=worker)
                return
            if self.chaos.take("drop_heartbeats", shard_id, attempt,
                               worker):
                # network partition: supervisor declares death after the
                # miss limit; the stale result limps in afterwards
                contract = self.topology
                declared = start + (contract.heartbeat_interval
                                    * contract.heartbeat_miss_limit)
                sim.busy_until = declared
                self._schedule(declared,
                               ("dead", -1, worker, [shard_id]),
                               kills=worker)
                value = self._task(payload)
                envelope = ShardEnvelope.pack(shard_id, attempt, worker,
                                              value)
                late = (max(declared, start + duration)
                        + contract.heartbeat_interval)
                self._schedule(late,
                               ("result", shard_id, worker, envelope))
                return
            stalled = self.chaos.take("stall", shard_id, attempt, worker)
            if stalled is not None:
                slow = max(duration, (timeout or duration) * 4.0)
                sim.busy_until = start + slow
                if timeout is not None:
                    self._schedule(start + timeout,
                                   ("timeout", shard_id, worker, None))
                    return
                duration = slow       # no deadline: just a slow shard
        value = self._task(payload)
        envelope = ShardEnvelope.pack(shard_id, attempt, worker, value)
        if self.chaos is not None and self.chaos.take(
                "corrupt", shard_id, attempt, worker):
            envelope = envelope.corrupted()
        # a wall-clock timeout cannot be compared against the virtual
        # clock's work unit, so in the simulation only injected stalls
        # violate deadlines; real hangs are PoolExecutor territory
        done = start + duration
        ship = self.topology.ship_seconds(len(envelope.data))
        self.stats["network_seconds"] += ship
        sim.busy_until = done
        self._schedule(done + ship, ("result", shard_id, worker, envelope))

    def wait(self):
        if not self._timeline:
            living = [worker for worker in self._workers.values()
                      if worker.dead_at is None]
            if not living:
                raise ExecutorError(
                    f"cluster {self.topology.name!r}: all "
                    f"{self.topology.total_workers} workers were lost")
            busy = [worker.busy_until for worker in living
                    if worker.busy_until > self._clock]
            if busy:
                # no event left to pop, but a worker is still occupied
                # (e.g. a stalled shard whose timeout already fired):
                # advance the clock so it becomes dispatchable again
                # instead of idling the scheduler forever
                self._clock = min(busy)
            return []
        self._timeline.sort(key=lambda entry: (entry[0], entry[1]))
        at, _seq, event, effect = self._timeline.pop(0)
        self._clock = max(self._clock, at)
        if effect is not None:
            victim, when = effect
            sim = self._workers[victim]
            if sim.dead_at is None:
                sim.dead_at = when
                self.stats["workers_lost"] += 1
        return [event]

    def close(self):
        interval = self.topology.heartbeat_interval
        beats = 0.0
        for worker in self._workers.values():
            alive_until = (worker.dead_at if worker.dead_at is not None
                           else self._clock)
            beats += max(0.0, alive_until) / interval
        self.stats["heartbeats"] = float(int(beats))
        self.stats["sim_seconds"] = self._clock
        self._timeline = []


# -- resolution ---------------------------------------------------------------

def resolve_executor(spec, workers: Optional[int] = None,
                     topology=None,
                     chaos: Optional[ChaosSchedule] = None,
                     probe: Any = None) -> SweepExecutor:
    """Build an executor from a CLI-style spec.

    ``spec`` is an executor name (``serial`` / ``pool`` / ``multinode``),
    an already-constructed :class:`SweepExecutor` (returned as is), or
    ``None`` — the default for ``workers``: a :class:`SerialExecutor` for
    ``workers <= 1``, else a :class:`PoolExecutor` of that width provided
    ``probe`` (the task with one representative payload) pickles.  Work
    that does not pickle stays in-process on a :class:`SerialExecutor`.
    One payload is probed, not the batch: the pool pickles every payload
    once at submit anyway.  ``topology`` names a
    :data:`~repro.multinode.cluster.CLUSTER_PRESETS` entry or is a
    :class:`ClusterTopology`; ``chaos`` applies to named executors.
    """
    if isinstance(spec, SweepExecutor):
        return spec
    if spec is None:
        if workers is not None and workers > 1:
            try:
                pickle.dumps(probe)
            except Exception:
                return SerialExecutor()
            return PoolExecutor(workers=workers)
        return SerialExecutor()
    if spec == "serial":
        return SerialExecutor(chaos=chaos)
    if spec == "pool":
        return PoolExecutor(workers=workers, chaos=chaos)
    if spec == "multinode":
        if topology is None:
            topology = DUAL_NODE
        elif isinstance(topology, str):
            try:
                topology = CLUSTER_PRESETS[topology]
            except KeyError:
                raise ExecutorError(
                    f"unknown cluster preset {topology!r}; choose from "
                    f"{sorted(CLUSTER_PRESETS)}") from None
        return MultinodeExecutor(topology=topology, chaos=chaos)
    raise ExecutorError(
        f"unknown executor {spec!r}; choose from {list(EXECUTOR_NAMES)}")
