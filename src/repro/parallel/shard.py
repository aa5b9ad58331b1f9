"""Shard scheduling for distributed sweeps (DESIGN.md §12).

A sweep over 10^5..10^7 points cannot live or die with a single process
pool: workers crash, tasks hang, and results get lost or damaged in
transit.  This module splits a sweep's pending points into **shards**
(contiguous work units), dispatches them to a pluggable
:class:`~repro.parallel.executors.SweepExecutor` with work-stealing
(idle workers pull the next pending shard), and supervises the run:

* **integrity** — results crossing a process boundary (or a simulated
  wire) travel in a :class:`ShardEnvelope` (pickled rows + SHA-256
  checksum); damage is detected at merge time and the shard recomputed,
  never silently merged;
* **supervision** — worker crashes and heartbeat losses reported by the
  executor turn into shard **reassignment** to the surviving workers;
* **quarantine** — a shard that keeps failing after the configured
  :class:`~repro.parallel.RetryPolicy` is exhausted is quarantined: its
  points become :class:`~repro.parallel.PointFailure` records on the
  sweep result (flowing into the degraded-mode completeness accounting)
  while every healthy shard completes;
* **observability** — every dispatch, steal, crash, reassignment, and
  quarantine is appended to a :class:`SupervisionLog` so tests (and
  humans) can audit exactly how a chaotic run unfolded.

Because shards are merged by their global indices and every shard task
is pure, results are **bit-identical** to the single-node path for any
executor, shard count, and fault schedule — the chaos suite asserts
exactly that.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..errors import (
    EnvelopeCorruptError, ExecutorError, ShardQuarantinedError,
)

if TYPE_CHECKING:       # fault.py dispatches through this module
    from .fault import RetryPolicy

#: fault types caused by the distribution substrate rather than the shard
#: task itself; these earn reassignment even without a retry policy
INFRA_FAULTS = frozenset({
    "WorkerCrashError", "HeartbeatLostError", "EnvelopeCorruptError",
})

#: how many times an infrastructure fault may bounce one shard to another
#: worker before the scheduler gives up and quarantines it
DEFAULT_REASSIGN_LIMIT = 3


# -- result envelopes ---------------------------------------------------------

def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ShardEnvelope:
    """One shard's result in transit: payload bytes plus integrity data.

    The checksum is computed where the result is produced (inside the
    worker), so any damage on the way back — a truncated pipe, a bad
    serializer, an injected chaos fault — is caught at
    :meth:`unpack` time instead of silently merging garbage into the
    sweep.
    """

    shard_id: int
    attempt: int        #: 1-based dispatch attempt that produced this
    worker: str         #: producing worker's identifier
    data: bytes         #: pickled result value
    checksum: str       #: SHA-256 hex digest of ``data``

    @classmethod
    def pack(cls, shard_id: int, attempt: int, worker: str,
             value: Any) -> "ShardEnvelope":
        """Seal ``value`` for the trip back to the scheduler."""
        data = pickle.dumps(value)
        return cls(shard_id=shard_id, attempt=attempt, worker=worker,
                   data=data, checksum=_checksum(data))

    def unpack(self) -> Any:
        """Verify integrity and return the carried value.

        Raises :class:`~repro.errors.EnvelopeCorruptError` when the
        payload does not match its checksum (the scheduler treats that
        as an infrastructure fault and recomputes the shard).
        """
        actual = _checksum(self.data)
        if actual != self.checksum:
            raise EnvelopeCorruptError(self.shard_id, self.checksum,
                                       actual)
        try:
            return pickle.loads(self.data)
        except Exception as exc:
            raise EnvelopeCorruptError(
                self.shard_id, self.checksum,
                f"undecodable:{type(exc).__name__}") from exc

    def corrupted(self) -> "ShardEnvelope":
        """A copy with one payload byte flipped (chaos harness)."""
        if not self.data:
            return ShardEnvelope(self.shard_id, self.attempt, self.worker,
                                 b"\x00", self.checksum)
        index = len(self.data) // 2
        mutated = (self.data[:index]
                   + bytes([self.data[index] ^ 0xFF])
                   + self.data[index + 1:])
        return ShardEnvelope(self.shard_id, self.attempt, self.worker,
                             mutated, self.checksum)


# -- shard bookkeeping --------------------------------------------------------

#: shard lifecycle states (see the state machine in DESIGN.md §12)
PENDING, RUNNING, DONE, QUARANTINED = ("pending", "running", "done",
                                       "quarantined")


@dataclass
class Shard:
    """One schedulable work unit covering a contiguous run of points."""

    id: int
    payload: Any               #: the executor-shipped task payload
    size: int = 1              #: points covered (for reporting)
    state: str = PENDING
    attempts: int = 0          #: dispatch attempts so far
    infra_faults: int = 0      #: crashes/heartbeats/corruption absorbed
    worker: str = ""           #: current (or last) assignee
    last_error: str = ""       #: "Type: message" of the last fault


def plan_shards(total: int, shard_count: Optional[int],
                workers: int) -> List[Tuple[int, int]]:
    """Split ``total`` points into ``[start, stop)`` shard ranges.

    ``shard_count=None`` picks about four shards per worker (so work
    stealing has slack to rebalance) without creating shards smaller
    than one point.  Ranges are contiguous and cover ``0..total``
    exactly, in order — the merge step depends on that.
    """
    if total <= 0:
        return []
    if shard_count is None:
        shard_count = max(1, min(total, max(workers, 1) * 4))
    shard_count = max(1, min(int(shard_count), total))
    size, extra = divmod(total, shard_count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(shard_count):
        stop = start + size + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# -- supervision --------------------------------------------------------------

@dataclass
class SupervisionLog:
    """Append-only audit trail of one sharded run.

    Entries are ``(kind, shard_id, worker, detail)`` tuples — plain data,
    picklable, and cheap to assert on in tests.  ``kind`` is one of
    ``dispatch`` / ``steal`` / ``result`` / ``stale`` / ``fault`` /
    ``reassign`` / ``quarantine`` / ``worker-dead``.
    """

    events: List[Tuple[str, int, str, str]] = field(default_factory=list)

    def note(self, kind: str, shard_id: int, worker: str,
             detail: str = "") -> None:
        self.events.append((kind, shard_id, worker, detail))

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event[0] == kind)

    def render(self) -> str:
        lines = []
        for kind, shard_id, worker, detail in self.events:
            where = f" shard {shard_id}" if shard_id >= 0 else ""
            tail = f": {detail}" if detail else ""
            lines.append(f"{kind:<12}{where} [{worker}]{tail}")
        return "\n".join(lines)


@dataclass
class ShardRunResult:
    """Everything the scheduler learned about one sharded dispatch."""

    #: shard id -> unpacked task result, for every completed shard
    results: Dict[int, Any]
    #: shard id -> terminal error, for every quarantined shard
    quarantined: Dict[int, ShardQuarantinedError]
    shards: List[Shard]
    log: SupervisionLog
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.quarantined


class ShardScheduler:
    """Dispatch shards to an executor with supervision and quarantine.

    The scheduler owns the pending queue; executors expose their idle
    workers and the scheduler assigns the next pending shard to each —
    work-stealing scheduling without shared-memory queues (an idle
    worker "steals" whatever is at the head of the global queue, so a
    slow worker never strands work assigned up front).

    Fault handling is two-tier:

    * **infrastructure faults** (worker crash, heartbeat loss, corrupt
      envelope) are the executor's fault, not the shard's: the shard is
      reassigned to a surviving worker, up to ``reassign_limit`` times,
      regardless of the retry policy;
    * **task faults** (the shard task raised, or exceeded ``timeout``)
      follow the configured :class:`~repro.parallel.RetryPolicy` — and
      when it is exhausted the shard is **quarantined**: recorded as a
      terminal :class:`~repro.errors.ShardQuarantinedError`, its points
      surfacing as failure records while every other shard completes.
    """

    def __init__(self, executor,
                 policy: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 reassign_limit: int = DEFAULT_REASSIGN_LIMIT,
                 sleep: Callable[[float], None] = time.sleep,
                 log: Optional[SupervisionLog] = None):
        if reassign_limit < 0:
            raise ValueError("reassign_limit must be >= 0")
        self.executor = executor
        self.policy = policy
        self.timeout = timeout
        self.reassign_limit = reassign_limit
        self.sleep = sleep
        self.log = log if log is not None else SupervisionLog()

    # -- the dispatch loop ----------------------------------------------
    def run(self, task: Callable[[Any], Any], payloads: Sequence[Any],
            sizes: Optional[Sequence[int]] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            ) -> ShardRunResult:
        """Run every payload as one shard; never raises for shard faults.

        ``on_result(shard_id, value)`` fires in the parent as each
        envelope is verified and unpacked — the streamed-checkpoint
        hook.  Returns a :class:`ShardRunResult` whose ``results`` map
        is keyed by shard id (the caller merges by global index).
        """
        shards = [Shard(id=index, payload=payload,
                        size=(sizes[index] if sizes else 1))
                  for index, payload in enumerate(payloads)]
        pending = deque(shards)
        inflight: Dict[int, Shard] = {}
        results: Dict[int, Any] = {}
        quarantined: Dict[int, ShardQuarantinedError] = {}
        started = time.perf_counter()

        self.executor.open(task)
        try:
            idle_rounds = 0
            while pending or inflight:
                dispatched = self._fill(pending, inflight)
                events = self.executor.wait()
                if not events and not dispatched:
                    idle_rounds += 1
                    if idle_rounds > max(len(shards) * 4, 64):
                        raise ExecutorError(
                            f"executor {self.executor.name!r} made no "
                            f"progress with {len(inflight)} shard(s) in "
                            "flight")
                else:
                    idle_rounds = 0
                for event in events:
                    self._handle(event, pending, inflight, results,
                                 quarantined, on_result)
        finally:
            self.executor.close()

        stats = {
            "shards_planned": float(len(shards)),
            "shards_completed": float(len(results)),
            "shards_quarantined": float(len(quarantined)),
            "shard_dispatches": float(self.log.count("dispatch")),
            "shard_reassignments": float(self.log.count("reassign")),
            "shard_infra_faults": float(
                sum(shard.infra_faults for shard in shards)),
            "shard_seconds": time.perf_counter() - started,
        }
        for name, value in getattr(self.executor, "stats", {}).items():
            stats[f"executor_{name}"] = float(value)
        return ShardRunResult(results=results, quarantined=quarantined,
                              shards=shards, log=self.log, stats=stats)

    def _fill(self, pending: deque, inflight: Dict[int, Shard]) -> int:
        """Hand pending shards to idle workers (the steal step)."""
        dispatched = 0
        while pending:
            workers = self.executor.idle_workers()
            if not workers:
                break
            shard = pending.popleft()
            worker = workers[0]
            stolen = shard.attempts > 0
            shard.attempts += 1
            shard.worker = worker
            shard.state = RUNNING
            inflight[shard.id] = shard
            self.executor.dispatch(shard.id, shard.attempts,
                                   shard.payload, worker,
                                   timeout=self.timeout)
            self.log.note("steal" if stolen else "dispatch", shard.id,
                          worker, f"attempt {shard.attempts}")
            dispatched += 1
        return dispatched

    def _handle(self, event, pending: deque, inflight: Dict[int, Shard],
                results: Dict[int, Any],
                quarantined: Dict[int, ShardQuarantinedError],
                on_result) -> None:
        kind, shard_id, worker, detail = event
        if kind == "result":
            shard = inflight.get(shard_id)
            envelope = detail       # a ShardEnvelope or in-process hand-off
            if shard is None or envelope.attempt != shard.attempts \
                    or shard.state != RUNNING:
                # a worker declared dead (or timed out) finished anyway;
                # its shard was reassigned, so this result is stale
                self.log.note("stale", shard_id, worker,
                              f"attempt {envelope.attempt}")
                return
            try:
                value = envelope.unpack()
            except EnvelopeCorruptError as exc:
                self.log.note("fault", shard_id, worker,
                              f"EnvelopeCorruptError: {exc}")
                self._fault(shard, "EnvelopeCorruptError", str(exc),
                            pending, inflight, quarantined)
                return
            inflight.pop(shard_id, None)
            shard.state = DONE
            results[shard_id] = value
            self.log.note("result", shard_id, worker,
                          f"attempt {envelope.attempt}")
            if on_result is not None:
                on_result(shard_id, value)
            return
        if kind in ("crash", "dead"):
            # detail is the list of shard ids lost with the worker
            error_type = ("WorkerCrashError" if kind == "crash"
                          else "HeartbeatLostError")
            self.log.note("worker-dead", -1, worker, error_type)
            for lost in detail:
                shard = inflight.get(lost)
                if shard is None:
                    continue
                self.log.note("fault", lost, worker, error_type)
                self._fault(shard, error_type,
                            f"worker {worker} lost shard {lost}",
                            pending, inflight, quarantined)
            return
        if kind not in ("timeout", "failed"):
            raise ExecutorError(f"unknown executor event kind {kind!r}")
        shard = inflight.get(shard_id)
        if shard is None:
            return
        error_type, message = detail if kind == "failed" else (
            "TaskTimeoutError",
            "executor-reported timeout" if self.timeout is None
            else f"no result within the {self.timeout:g}s shard timeout")
        self.log.note("fault", shard_id, worker, f"{error_type}: {message}")
        self._fault(shard, error_type, message, pending, inflight,
                    quarantined)

    def _fault(self, shard: Shard, error_type: str, message: str,
               pending: deque, inflight: Dict[int, Shard],
               quarantined: Dict[int, ShardQuarantinedError]) -> None:
        """Route one shard fault: reassign, retry, or quarantine."""
        inflight.pop(shard.id, None)
        shard.last_error = f"{error_type}: {message}"
        if error_type in INFRA_FAULTS:
            shard.infra_faults += 1
            if shard.infra_faults <= self.reassign_limit:
                shard.state = PENDING
                pending.append(shard)
                self.log.note("reassign", shard.id, shard.worker,
                              f"{error_type} ({shard.infra_faults}/"
                              f"{self.reassign_limit})")
                return
        else:
            task_attempts = shard.attempts - shard.infra_faults
            if self.policy is not None \
                    and task_attempts < self.policy.max_attempts:
                self.sleep(self.policy.delay(task_attempts, shard.id))
                shard.state = PENDING
                pending.append(shard)
                self.log.note("reassign", shard.id, shard.worker,
                              f"retry {task_attempts + 1}/"
                              f"{self.policy.max_attempts}")
                return
        shard.state = QUARANTINED
        error = ShardQuarantinedError(shard.id, shard.attempts,
                                      error_type, message)
        quarantined[shard.id] = error
        self.log.note("quarantine", shard.id, shard.worker,
                      f"{error_type}: {message}")
