"""The resilience layer of the experiment pipeline.

The sweep engine's value is cheap exploration of *large* co-design spaces,
and large batch jobs meet faults: a degenerate machine config that blows up
deep in the math, a worker that hangs, a transient pickling hiccup.  This
module makes the pipeline degrade gracefully instead of aborting:

* **failure isolation** — :func:`resilient_map` turns a failing point into
  a structured :class:`PointFailure` record (exception type, message,
  captured traceback, attempt count) while every healthy point completes;
  ``strict=True`` restores fail-fast via
  :class:`~repro.errors.RetryExhaustedError` /
  :class:`~repro.errors.TaskTimeoutError`;
* **retry with deterministic backoff** — :class:`RetryPolicy` computes an
  exponential schedule with jitter seeded by the point index, so retry
  behaviour is reproducible (no RNG state, no wall-clock dependence in
  tests: the ``sleep`` callable is injectable);
* **per-point timeouts** — a hung worker fails its own point within the
  configured bound instead of stalling the whole sweep;
* **checkpoint/resume** — :class:`SweepCheckpoint` persists completed
  points as JSON keyed by a sweep fingerprint, so an interrupted grid
  restarts where it left off (``repro sweep --checkpoint PATH --resume``);
* **fault injection** — :class:`FaultInjector` and :class:`CallRecorder`
  deterministically fail or hang the Nth call of any wrapped callable, so
  the tests exercise every failure path without flaky sleeps.

See DESIGN.md section 7 for the failure model and the checkpoint format.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar,
)

from ..errors import (
    CheckpointError, RetryExhaustedError, TaskTimeoutError,
)
from ..rng import unit_fraction as _unit_fraction
from .executors import resolve_executor
from .shard import ShardScheduler

T = TypeVar("T")
R = TypeVar("R")

#: how many characters of an item's description a failure record keeps
_ITEM_REPR_LIMIT = 200


# -- structured failure records ----------------------------------------------

@dataclass
class PointFailure:
    """One failed point of a sweep/grid/matrix run.

    Attached to results (``SweepResult.failures``, ``GridResult.failures``,
    matrix output) instead of aborting the run; everything needed to
    diagnose the fault travels with the record, including across process
    boundaries (the dataclass is plain data, so it pickles).
    """

    index: int          #: position of the point in the run (row-major)
    error_type: str     #: type name of the last exception
    message: str        #: message of the last exception
    traceback: str      #: captured traceback of the last attempt
    attempts: int       #: how many attempts were made (1 = no retry)
    item: str = ""      #: short description of the failing point

    @classmethod
    def from_exception(cls, index: int, exc: BaseException, attempts: int,
                       item: str = "") -> "PointFailure":
        """Capture a live exception (with its traceback) as a record."""
        text = "".join(_traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        failure = cls(index=index, error_type=type(exc).__name__,
                      message=str(exc), traceback=text, attempts=attempts,
                      item=item[:_ITEM_REPR_LIMIT])
        failure._exception = exc
        return failure

    @property
    def exception(self) -> Optional[BaseException]:
        """The live exception, when the failure happened in this process."""
        return getattr(self, "_exception", None)

    def __getstate__(self):
        # the live exception (and its unpicklable traceback object) stays
        # in the process that caught it; the formatted text travels
        state = dict(self.__dict__)
        state.pop("_exception", None)
        return state

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready flat view (used by the exporters)."""
        return {
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "item": self.item,
        }

    def render(self) -> str:
        """One human-readable summary line."""
        where = f" {self.item}" if self.item else ""
        plural = "s" if self.attempts != 1 else ""
        return (f"FAILED point {self.index}{where}: {self.error_type}: "
                f"{self.message} ({self.attempts} attempt{plural})")


# -- deterministic retry policies ---------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff for transiently failing points.

    The delay before retry ``a`` (1-based) of point ``index`` is::

        min(base_delay * multiplier ** (a - 1), max_delay)
            * (1 + jitter * fraction(index, a))

    where ``fraction`` is :func:`repro.rng.unit_fraction` over
    ``(index, attempt)`` — a SHA-256 hash mapped to [0, 1), fully
    deterministic, no RNG state, no wall-clock dependence.
    ``max_attempts=1`` (the default) disables retries entirely.
    """

    max_attempts: int = 1        #: total tries per point (1 = no retry)
    base_delay: float = 0.05     #: seconds before the first retry
    multiplier: float = 2.0      #: exponential growth factor
    max_delay: float = 2.0       #: cap on any single delay
    jitter: float = 0.0          #: extra delay fraction, seeded by index
    retry_on: Tuple[type, ...] = (Exception,)  #: retryable exception types

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempt: int, index: int = 0) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        raw = min(self.base_delay * self.multiplier ** (attempt - 1),
                  self.max_delay)
        if self.jitter:
            raw *= 1.0 + self.jitter * _unit_fraction(index, attempt)
        return raw

    def schedule(self, index: int = 0) -> List[float]:
        """The full backoff schedule for one point (len = retries)."""
        return [self.delay(attempt, index)
                for attempt in range(1, self.max_attempts)]

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt ``attempt`` failing with ``exc`` is retryable."""
        return (attempt < self.max_attempts
                and isinstance(exc, self.retry_on))


#: the do-nothing policy: one attempt, no backoff
NO_RETRY = RetryPolicy(max_attempts=1)


# -- the per-point execution core ---------------------------------------------

def run_point(fn: Callable[[T], R], item: T, index: int,
              policy: Optional[RetryPolicy] = None,
              sleep: Callable[[float], None] = time.sleep) -> Tuple:
    """Run one point with retry; never raises.

    Returns ``("ok", value, attempts)`` or ``("fail", PointFailure)``.
    This is the unit of work shipped to pool workers (retries happen in
    the worker, so a transient fault costs one re-dispatch, not a round
    trip through the parent).
    """
    policy = policy or NO_RETRY
    attempts = 0
    while True:
        attempts += 1
        try:
            return ("ok", fn(item), attempts)
        except Exception as exc:
            if not policy.should_retry(exc, attempts):
                return ("fail", PointFailure.from_exception(
                    index, exc, attempts))
            sleep(policy.delay(attempts, index))


class _ResilientTask:
    """Picklable shard task wrapping ``fn`` with in-worker retry."""

    def __init__(self, fn: Callable, policy: Optional[RetryPolicy],
                 sleep: Callable[[float], None] = time.sleep):
        self.fn = fn
        self.policy = policy
        self.sleep = sleep

    def __call__(self, payload: Tuple[int, Any]) -> Tuple:
        index, item = payload
        return run_point(self.fn, item, index, self.policy,
                         sleep=self.sleep)


@dataclass
class MapOutcome:
    """Everything :func:`resilient_map` learned about a batch.

    ``results`` is aligned with the input items (``None`` where a point
    failed); ``failures`` holds one :class:`PointFailure` per failed point;
    ``attempts[i]`` counts the tries point ``i`` took (success or not).
    """

    results: List[Optional[Any]]
    failures: List[PointFailure] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every point succeeded."""
        return not self.failures

    def successes(self) -> List[Any]:
        """The successful results, in order, with failures dropped."""
        return [value for value in self.results if value is not None]


def resilient_map(fn: Callable[[T], R], items: Sequence[T],
                  workers: int = 1,
                  policy: Optional[RetryPolicy] = None,
                  timeout: Optional[float] = None,
                  strict: bool = False,
                  sleep: Callable[[float], None] = time.sleep,
                  indices: Optional[Sequence[int]] = None,
                  describe: Optional[Callable[[T], str]] = None,
                  on_point: Optional[Callable[[int, R], None]] = None,
                  ) -> MapOutcome:
    """Fault-tolerant, order-preserving map over ``items``.

    Each point is retried per ``policy`` and, if it still fails, recorded
    as a :class:`PointFailure` while the remaining points complete.  Each
    item is one shard of a :class:`~repro.parallel.shard.ShardScheduler`
    run on the executor ``workers`` resolves to, which owns crash
    recovery, deadlines and hung-worker reaping.  Healthy results are
    bit-identical between ``workers=1`` and ``workers=N``.

    Parameters
    ----------
    workers:
        Process-pool width; ``<= 1`` (or a single item, or work that
        does not pickle) runs in-process.
    policy:
        Retry policy (default: no retries).  Retries run inside the
        worker, sleeping through ``sleep`` (injectable, so tests keep
        schedules wall-clock free).
    timeout:
        Per-point bound in seconds, enforced on the pool from the moment
        the point reaches a worker (a point that exceeds it fails with a
        ``TaskTimeoutError``-typed failure and its worker is reaped).
        The in-process path cannot pre-empt a running call and ignores
        it.
    strict:
        Fail fast: raise :class:`~repro.errors.RetryExhaustedError` (or
        :class:`~repro.errors.TaskTimeoutError`) for the first failing
        point, in item order, instead of recording it.
    indices:
        Global point numbers for labels/jitter when ``items`` is a
        filtered subset of a larger run (checkpoint resume); defaults to
        ``0..len(items)-1``.
    describe:
        Renders an item into the short ``PointFailure.item`` label
        (parent-side only, so it need not pickle).
    on_point:
        ``(local_index, value)`` callback fired in the parent, in item
        order, as each successful result is accepted — the checkpoint
        hook.
    """
    items = list(items)
    count = len(items)
    if indices is None:
        indices = list(range(count))
    indices = list(indices)
    if len(indices) != count:
        raise ValueError("indices must align with items")

    results: List[Optional[R]] = [None] * count
    failures: List[PointFailure] = []
    attempts: List[int] = [0] * count

    def handle(local: int, outcome: Tuple) -> None:
        if outcome[0] == "ok":
            _, value, tries = outcome
            results[local] = value
            attempts[local] = tries
            if on_point is not None:
                on_point(local, value)
            return
        failure = outcome[1]
        failure.index = indices[local]
        if describe is not None and not failure.item:
            failure.item = str(describe(items[local]))[:_ITEM_REPR_LIMIT]
        attempts[local] = failure.attempts
        if strict:
            if failure.error_type == "TaskTimeoutError":
                raise TaskTimeoutError(failure.index, timeout or 0.0,
                                       failure.item)
            raise RetryExhaustedError(
                failure.index, failure.attempts, failure.error_type,
                failure.message, failure.traceback,
            ) from failure.exception
        failures.append(failure)

    # outcomes arrive in completion order and are committed in item order
    arrived: Dict[int, Tuple] = {}
    committed = 0

    def commit(local: int, outcome: Tuple) -> None:
        nonlocal committed
        arrived[local] = outcome
        while committed in arrived:
            handle(committed, arrived.pop(committed))
            committed += 1

    task = _ResilientTask(fn, policy, sleep)
    payloads = [(indices[local], item) for local, item in enumerate(items)]
    executor = resolve_executor(None, workers=min(workers, count),
                                probe=(task, payloads[:1]))
    run = ShardScheduler(executor, timeout=timeout).run(
        task, payloads, on_result=commit)
    for local, error in sorted(run.quarantined.items()):
        timed_out = error.error_type == "TaskTimeoutError"
        commit(local, ("fail", PointFailure(
            index=indices[local], error_type=error.error_type,
            message=(f"no result within the {timeout:g}s per-point "
                     "timeout" if timed_out and timeout else error.message),
            traceback="", attempts=1 if timed_out else error.attempts)))
    return MapOutcome(results, failures, attempts)


# -- checkpoint / resume ------------------------------------------------------

def sweep_key(*parts: Any) -> str:
    """A stable fingerprint for a sweep configuration.

    Hash of the ``repr`` of the parts — callers pass content-stable pieces
    (``Program.fingerprint()``, frozen inputs, the machine's field values,
    the grid spec) so a checkpoint can refuse to resume a *different*
    sweep.
    """
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def overrides_key(overrides: Dict[str, float]) -> str:
    """Canonical cell key for a dict of parameter overrides."""
    return "|".join(f"{name}={value!r}"
                    for name, value in sorted(overrides.items()))


def factory_tag(model_factory: Optional[Callable]) -> str:
    """A content-stable tag for a ``model_factory`` callable.

    Used in checkpoint ``settings`` so a resume under a different cache
    model is refused.  Factories with a stable ``__repr__`` (the
    :class:`~repro.hardware.cachemodel.RooflineFactory` family) are
    tagged by it; anything whose repr embeds a memory address falls back
    to the qualified type name, which still distinguishes factory
    *kinds* even when it cannot see their configuration.
    """
    if model_factory is None:
        return "default"
    text = repr(model_factory)
    if " at 0x" in text:
        kind = type(model_factory)
        return f"{kind.__module__}.{kind.__qualname__}"
    return text


class SweepCheckpoint:
    """Periodic JSON checkpoint of a sweep's completed points.

    The file holds ``{"version", "key", "completed": {cell_key: payload}}``
    where ``key`` fingerprints the sweep configuration (see
    :func:`sweep_key`) and each payload is the engine's JSON-ready view of
    one completed point.  Writes are crash-atomic: the payload goes to a
    temp file, is ``fsync``'d, the previous snapshot is preserved as
    ``<path>.bak``, and only then does ``os.replace`` publish the new
    file — a crash at *any* instant leaves at least one valid snapshot
    on disk.  Resume salvages through that chain: a truncated or corrupt
    main file falls back to the ``.bak`` snapshot (or an empty
    checkpoint) with a ``SKOP701`` diagnostic on ``self.diagnostics``
    instead of raising; only a *valid* file belonging to a different
    sweep or format version is a :class:`~repro.errors.CheckpointError`.
    """

    VERSION = 1

    def __init__(self, path: str, key: str, flush_every: int = 1,
                 settings: Optional[Dict[str, str]] = None):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = str(path)
        self.key = key
        self.flush_every = flush_every
        self.settings: Dict[str, str] = dict(settings or {})
        self.completed: Dict[str, Dict[str, Any]] = {}
        self.diagnostics: List[Any] = []
        self._pending = 0
        #: set False when the path cannot be written (missing parent,
        #: path is a directory, permission denied): the sweep keeps
        #: running, persistence is disabled, and one SKOP701 diagnostic
        #: explains why — never a raw OSError mid-sweep
        self.persist = True

    @property
    def backup_path(self) -> str:
        return f"{self.path}.bak"

    @classmethod
    def _read_snapshot(cls, path: str, key: str,
                       settings: Optional[Dict[str, str]] = None):
        """Parse one snapshot file.

        Returns ``("ok", completed)``, ``("missing", None)``,
        ``("corrupt", reason)``, or raises
        :class:`~repro.errors.CheckpointError` for a *valid* file with
        the wrong version, key, or evaluation settings (salvaging those
        would silently mix sweeps).
        """
        if not os.path.exists(path):
            return ("missing", None)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            return ("corrupt", str(exc))
        if not isinstance(payload, dict):
            return ("corrupt", "not a JSON object")
        if payload.get("version") != cls.VERSION:
            raise CheckpointError(
                f"checkpoint {path} has version "
                f"{payload.get('version')!r}, expected {cls.VERSION}")
        if payload.get("key") != key:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different "
                "sweep (program, machine, or grid changed); delete it or "
                "drop --resume")
        stored = payload.get("settings")
        if (settings and isinstance(stored, dict)
                and stored != dict(settings)):
            drift = sorted(set(stored) | set(settings))
            changes = "; ".join(
                f"{name}: {stored.get(name, '<unset>')} -> "
                f"{settings.get(name, '<unset>')}"
                for name in drift
                if stored.get(name) != settings.get(name))
            raise CheckpointError(
                f"[SKOP706] checkpoint {path} was written under "
                f"different evaluation settings ({changes}); its points "
                "are not comparable with this run — delete it or rerun "
                "with the original settings")
        completed = payload.get("completed", {})
        if not isinstance(completed, dict):
            return ("corrupt", "'completed' is not an object")
        return ("ok", completed)

    def _note_salvage(self, message: str) -> None:
        from ..diagnostics import Diagnostic
        self.diagnostics.append(Diagnostic(
            code="SKOP701", message=message, severity="warning",
            source_name=self.path, phase="sweep"))

    def _path_problem(self) -> Optional[str]:
        """Why this checkpoint path can never be written, or ``None``."""
        if os.path.isdir(self.path):
            return "the path is a directory"
        parent = os.path.dirname(os.path.abspath(self.path))
        if not os.path.isdir(parent):
            return f"parent directory {parent!r} does not exist"
        return None

    @classmethod
    def load(cls, path: str, key: str, resume: bool = False,
             flush_every: int = 1,
             settings: Optional[Dict[str, str]] = None,
             ) -> "SweepCheckpoint":
        """Open a checkpoint, resuming prior progress when asked.

        ``resume=False`` starts fresh (an existing file is overwritten on
        the first flush).  ``resume=True`` loads completed points; a
        corrupt or truncated file is salvaged from the ``.bak`` snapshot
        (with a ``SKOP701`` diagnostic) rather than raised, while a
        valid file written by a different sweep configuration, format
        version, or evaluation ``settings`` fingerprint (``SKOP706``)
        still raises :class:`~repro.errors.CheckpointError` — points
        computed under a different backend, cache model, or executor are
        not comparable and must never be silently merged.
        """
        checkpoint = cls(path, key, flush_every=flush_every,
                         settings=settings)
        problem = checkpoint._path_problem()
        if problem is not None:
            # an unusable path (missing directory, path *is* a
            # directory) can neither be resumed from nor flushed to:
            # reuse the SKOP701 salvage path so the sweep runs to
            # completion with one clean diagnostic instead of dying on
            # a raw OSError at the first flush
            checkpoint.persist = False
            checkpoint._note_salvage(
                f"checkpoint path is unusable ({problem}); "
                + ("resuming from an empty checkpoint and "
                   if resume else "")
                + "continuing without checkpoint persistence")
            return checkpoint
        if not resume:
            return checkpoint
        state, value = cls._read_snapshot(checkpoint.path, key,
                                          settings=settings)
        if state == "ok":
            checkpoint.completed = value
            return checkpoint
        if state == "missing" and not os.path.exists(
                checkpoint.backup_path):
            return checkpoint
        reason = value if state == "corrupt" else "file is missing"
        backup_state, backup_value = cls._read_snapshot(
            checkpoint.backup_path, key, settings=settings)
        if backup_state == "ok":
            checkpoint.completed = backup_value
            checkpoint._note_salvage(
                f"checkpoint is unreadable ({reason}); salvaged "
                f"{len(backup_value)} completed point(s) from the last "
                f"valid snapshot {checkpoint.backup_path}")
        else:
            checkpoint._note_salvage(
                f"checkpoint is unreadable ({reason}) and no valid "
                "snapshot exists; resuming from an empty checkpoint "
                "(every point will be recomputed)")
        return checkpoint

    def __contains__(self, cell_key: str) -> bool:
        return cell_key in self.completed

    def __len__(self) -> int:
        return len(self.completed)

    def get(self, cell_key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for one completed cell, if any."""
        return self.completed.get(cell_key)

    def record(self, cell_key: str, payload: Dict[str, Any]) -> None:
        """Record one completed point; flushes every ``flush_every``."""
        self.completed[cell_key] = payload
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Crash-atomically persist the checkpoint to disk.

        Write order: temp file → ``fsync`` (the bytes are durable before
        any rename) → previous snapshot renamed to ``.bak`` → temp
        renamed over the main path.  Whatever instant a crash lands on,
        either the main file or the backup is a complete valid snapshot
        and :meth:`load` finds it.
        """
        if not self.persist:
            self._pending = 0
            return
        payload = {"version": self.VERSION, "key": self.key,
                   "completed": self.completed}
        if self.settings:
            payload["settings"] = self.settings
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            if os.path.exists(self.path):
                os.replace(self.path, self.backup_path)
            os.replace(tmp, self.path)
        except OSError as exc:
            # losing persistence must not lose the sweep: disable
            # further flushes and surface one SKOP701 diagnostic
            self.persist = False
            self._note_salvage(
                f"checkpoint cannot be written ({exc}); the sweep "
                "continues without checkpoint persistence")
        self._pending = 0


# -- deterministic fault injection (test harness) -----------------------------

class CallRecorder:
    """File-backed call counter that survives process boundaries.

    Each :meth:`record` appends one line to ``path`` (O_APPEND writes are
    atomic for short lines), so calls made inside pool workers are counted
    in the parent — the checkpoint/resume tests assert "only the
    unfinished points were recomputed" through this.
    """

    def __init__(self, path: str):
        self.path = str(path)

    def record(self, tag: str = "") -> None:
        """Append one call record."""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(tag.replace("\n", " ") + "\n")

    def count(self) -> int:
        """Number of recorded calls so far."""
        return len(self.tags())

    def tags(self) -> List[str]:
        """All recorded tags, in call order."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return [line.rstrip("\n") for line in handle]
        except OSError:
            return []


class FaultInjector:
    """Deterministic fault-injection wrapper around any callable.

    ``fail_on`` / ``hang_on`` are 1-based call indices at which the
    wrapped callable raises ``error`` / sleeps ``hang_seconds`` before
    proceeding.  The counter lives on the instance, so on a process pool
    (each shard pickles a fresh copy into its worker) call indices count
    calls within one shard — for :func:`resilient_map`, *attempts of one
    point* — while in-process they count calls across the whole run —
    both documented, both deterministic.  An optional :class:`CallRecorder`
    counts calls across processes.
    """

    def __init__(self, fn: Callable,
                 fail_on: Sequence[int] = (),
                 error: Optional[BaseException] = None,
                 hang_on: Sequence[int] = (),
                 hang_seconds: float = 0.0,
                 recorder: Optional[CallRecorder] = None):
        self.fn = fn
        self.fail_on = frozenset(fail_on)
        self.error = error
        self.hang_on = frozenset(hang_on)
        self.hang_seconds = hang_seconds
        self.recorder = recorder
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.recorder is not None:
            self.recorder.record(f"call {self.calls}")
        if self.calls in self.hang_on:
            time.sleep(self.hang_seconds)
        if self.calls in self.fail_on:
            error = self.error
            if error is None:
                error = RuntimeError(f"injected fault (call {self.calls})")
            elif isinstance(error, type):
                error = error(f"injected fault (call {self.calls})")
            raise error
        return self.fn(*args, **kwargs)
