"""The resilient asyncio analysis server (modeling-as-a-service).

One process serves analyze / sweep / explore requests over HTTP/JSON,
composed from the existing pipeline layers and designed around failure
first (DESIGN.md §14):

* **admission** — every request passes the bounded
  :class:`~repro.service.admission.AdmissionQueue`; overload sheds with
  429 + ``SKOP710`` and a ``Retry-After`` hint instead of buffering.
* **budgets & deadlines** — skeleton builds run under an
  :class:`~repro.diagnostics.budget.EvalBudget`, and every request
  carries a deadline checked between evaluation chunks, so a
  power-bomb skeleton or a glacial sweep degrades *one response*.
* **circuit breaker** — executor-infra failures trip the
  :class:`~repro.service.breaker.CircuitBreaker`; while open the server
  answers from the in-process serial path with the constant cache
  model, every such response explicitly marked degraded (``SKOP713``).
* **coalescing** — compatible queued sweep requests merge into one
  shared batch (PR 5's vector backend amortizes the replay), fanned
  back out per subscriber, with per-tenant fairness.
* **streaming** — sweep results stream as chunked JSON lines through a
  bounded per-client buffer; a stalled reader is disconnected
  (``SKOP714``) without stalling its batch-mates.
* **drain** — SIGTERM stops admission, finishes or checkpoints
  in-flight sweeps (``SKOP715``), shuts the warm worker pool down,
  then exits; a restarted server resumes checkpointed work
  bit-identically.

Everything evaluated on the normal path is **bit-identical** to a
direct :func:`~repro.parallel.sweep_grid` call — the service reuses
:func:`~repro.export.grid_point_to_dict`, the same engine entry points,
and the same checkpoint machinery, so "served" never means "different
numbers".
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import arrayops as _aops
from ..analysis.sensitivity import project_machine
from ..bet import build_bet
from ..diagnostics import Diagnostic, DiagnosticSink
from ..diagnostics.budget import EvalBudget
from ..errors import BudgetExceededError, ReproError
from ..export import SCHEMA_VERSION, grid_point_to_dict
from ..hardware import machine_by_name
from ..hardware.cachemodel import (
    CACHE_MODEL_NAMES, RooflineFactory, cache_model_by_name,
)
from ..parallel.cache import LRUCache
from ..parallel.chaos import CHAOS_KINDS, ChaosSchedule
from ..parallel.engine import (
    INPUT_PREFIX, VECTOR_MIN_POINTS, evaluate_cells,
)
from ..parallel.executors import release_pools
from ..parallel.fault import overrides_key, sweep_key
from ..skeleton import parse_skeleton
from ..validate import preflight
from ..workloads import load as load_workload
from ..workloads import names as workload_names
from .admission import AdmissionQueue, DEFAULT_TENANT, ServiceRequest
from .breaker import DEGRADED, NORMAL, PROBE, CircuitBreaker
from .coalesce import Batch, SweepPlan, build_batch, plan_key
from .http11 import (
    LAST_CHUNK, MAX_BODY_BYTES, MAX_HEADER_BYTES, ProtocolError, Request,
    chunk_bytes, event_line, read_request, response_bytes,
    stream_head_bytes,
)

#: checkpoint names a client may use (a single path component)
_CHECKPOINT_NAME = re.compile(r"^[A-Za-z0-9._-]{1,80}$")


@dataclass
class ServiceConfig:
    """Tunables of one :class:`AnalysisService` instance."""

    host: str = "127.0.0.1"
    port: int = 8177               #: 0 = pick a free port
    # admission
    queue_limit: int = 64
    tenant_queue_limit: int = 16
    dispatchers: int = 2           #: concurrent evaluation batches
    # evaluation
    engine_workers: int = 1
    executor: Optional[str] = None     #: "serial"/"pool"/... or None
    shards: Optional[int] = None
    chunk_cells: int = 16          #: cells per streamed evaluation step
    #: step ceiling for vector-eligible batches: a coalesced cell list
    #: steps in strides up to this so the engine's grouped lane dispatch
    #: (DESIGN.md §15) sees whole lane groups instead of 16-cell dices
    vector_chunk_cells: int = 256
    max_cells_per_request: int = 512
    coalesce_limit: int = 8        #: max requests merged into one batch
    k: int = 10
    # budgets & deadlines
    default_deadline_s: float = 30.0
    max_deadline_s: float = 300.0
    build_max_seconds: float = 10.0
    build_max_contexts: Optional[int] = 100_000
    explore_max_budget: int = 128
    # breaker
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    breaker_probes: int = 1
    # HTTP limits / streaming
    max_header_bytes: int = MAX_HEADER_BYTES
    max_body_bytes: int = MAX_BODY_BYTES
    read_timeout_s: float = 30.0
    write_timeout_s: float = 10.0
    client_buffer_chunks: int = 16
    # caches
    bet_cache_size: int = 128
    tenant_cache_quota: Optional[int] = 32
    # persistence / testing
    checkpoint_dir: Optional[str] = None
    #: JSON snapshot of per-tenant BET/tape cache keys, written on
    #: SIGTERM drain and pre-warmed on the next start (``--warm-cache``)
    warm_cache_path: Optional[str] = None
    allow_chaos: bool = False      #: honor per-request chaos schedules


def _budget_code(resource: str) -> str:
    if "clock" in resource or "second" in resource:
        return "SKOP602"
    if "context" in resource:
        return "SKOP603"
    return "SKOP601"


class AnalysisService:
    """The long-lived server; one instance per process.

    Use :func:`run` / ``repro serve`` for a blocking CLI server, or
    :func:`start_in_thread` to host one inside tests and benchmarks.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.admission = AdmissionQueue(
            limit=cfg.queue_limit, tenant_limit=cfg.tenant_queue_limit)
        self.breaker = CircuitBreaker(
            threshold=cfg.breaker_threshold,
            cooldown=cfg.breaker_cooldown_s, probes=cfg.breaker_probes)
        self.bet_cache = LRUCache(maxsize=cfg.bet_cache_size,
                                  owner_quota=cfg.tenant_cache_quota)
        #: service-wide diagnostics (SKOP71x); shared across request
        #: tasks and worker threads — DiagnosticSink is thread-safe
        self.sink = DiagnosticSink(limit=2000)
        self.counters: Dict[str, int] = {}
        #: deduped warm-cache descriptors (tenant + program source +
        #: inputs), snapshotted to ``warm_cache_path`` on drain
        self._warm_notes: Dict[Tuple, Dict[str, Any]] = {}
        self.port: Optional[int] = None
        self.draining = False
        self._ids = itertools.count(1)
        self._started_at = 0.0
        self._active_connections = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatch_tasks: List[asyncio.Task] = []
        self._stopped: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- small helpers ---------------------------------------------------
    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def _now(self) -> float:
        return time.monotonic()

    def _diag(self, code: str, message: str) -> Diagnostic:
        diagnostic = Diagnostic(code=code, message=message,
                                severity="warning", source_name="service",
                                phase="serve")
        self.sink.add(diagnostic)
        return diagnostic

    # -- lifecycle -------------------------------------------------------
    async def serve(self,
                    ready: Optional[asyncio.Event] = None) -> None:
        """Run until :meth:`begin_drain` (or SIGTERM) completes."""
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._started_at = self._now()
        try:
            self._loop.add_signal_handler(
                signal.SIGTERM, self.begin_drain)
        except (NotImplementedError, RuntimeError):
            # non-main thread or platform without signal support: drain
            # is still reachable programmatically
            pass
        # pre-warm caches from the previous instance's drain snapshot
        # before accepting traffic: first requests after a rolling
        # restart hit warm BETs and recorded tapes
        await asyncio.to_thread(self._load_warm_cache)
        self._server = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatch_tasks = [
            self._loop.create_task(self._dispatch_loop())
            for _ in range(max(1, cfg.dispatchers))]
        if ready is not None:
            ready.set()
        await self._stopped.wait()

    def begin_drain(self) -> None:
        """Stop admitting; finish/checkpoint in-flight work; then stop.

        Callable from a signal handler.  Idempotent.
        """
        if self.draining:
            return
        self.draining = True
        self._count("drains")
        if self._loop is not None:
            self._loop.create_task(self._finish_drain())

    async def _finish_drain(self) -> None:
        # refuse everything still queued (it never started)
        for request in self.admission.close():
            self._finish(request, 503, self._error_payload(
                request, "SKOP715", "server draining; request was "
                "queued but never started — retry against the next "
                "instance"))
        await asyncio.gather(*self._dispatch_tasks,
                             return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # give open connections a moment to flush their final events
        deadline = self._now() + 5.0
        while self._active_connections and self._now() < deadline:
            await asyncio.sleep(0.02)
        self._write_warm_cache()
        # no sweep is left to use the warm pool: stop its workers now
        await asyncio.to_thread(release_pools)
        if self._stopped is not None:
            self._stopped.set()

    # -- connection handling ---------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._active_connections += 1
        try:
            await self._handle_one(reader, writer)
        except (ConnectionError, asyncio.TimeoutError,
                BrokenPipeError):
            self._count("connection_errors")
        except Exception as exc:  # never let a request kill the server
            self._count("internal_errors")
            self._diag("SKOP712",
                       f"internal error handling a request: {exc!r}")
            try:
                writer.write(response_bytes(500, {
                    "error": "internal error", "detail": repr(exc)}))
                await writer.drain()
            except Exception:
                pass
        finally:
            self._active_connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_one(self, reader, writer) -> None:
        cfg = self.config
        try:
            request = await read_request(
                reader, max_header_bytes=cfg.max_header_bytes,
                max_body_bytes=cfg.max_body_bytes,
                timeout=cfg.read_timeout_s)
        except ProtocolError as exc:
            self._count("protocol_rejections")
            diagnostic = self._diag(exc.code, exc.message)
            writer.write(response_bytes(exc.status, {
                "error": exc.message,
                "diagnostics": [diagnostic.as_dict()]}))
            await writer.drain()
            return
        if request is None:
            return
        self._count("requests_total")
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            await self._send_simple(writer, *self._healthz())
            return
        if route == ("GET", "/statsz"):
            await self._send_simple(writer, 200, self.statsz())
            return
        if request.method != "POST" or request.path not in (
                "/analyze", "/sweep", "/explore"):
            await self._send_simple(writer, 404, {
                "error": f"no route {request.method} {request.path}"})
            return
        try:
            service_request = self._admit(request)
        except ProtocolError as exc:
            self._count("protocol_rejections")
            diagnostic = self._diag(exc.code, exc.message)
            await self._send_simple(writer, exc.status, {
                "error": exc.message,
                "diagnostics": [diagnostic.as_dict()]})
            return
        if isinstance(service_request, tuple):
            status, payload, headers = service_request
            await self._send_simple(writer, status, payload, headers)
            return
        await self._respond(service_request, writer)

    async def _send_simple(self, writer, status, payload,
                           headers: Optional[Dict[str, str]] = None
                           ) -> None:
        writer.write(response_bytes(status, payload, headers))
        await writer.drain()

    # -- admission & resolution ------------------------------------------
    def _admit(self, request: Request):
        """Parse, resolve, and offer one POST request.

        Returns a :class:`ServiceRequest` on admission or a
        ``(status, payload, headers)`` tuple for an immediate response
        (shedding).  Raises :class:`ProtocolError` for invalid input.
        """
        payload = request.json()
        kind = request.path.lstrip("/")
        tenant = str(payload.get("tenant")
                     or request.headers.get("x-tenant")
                     or DEFAULT_TENANT)
        service_request = ServiceRequest(
            kind=kind, tenant=tenant, payload=payload,
            id=next(self._ids),
            stream=bool(payload.get("stream", False)))
        deadline_s = payload.get("deadline_s",
                                 self.config.default_deadline_s)
        try:
            deadline_s = float(deadline_s)
        except (TypeError, ValueError):
            raise ProtocolError(400,
                                f"bad deadline_s {deadline_s!r}")
        deadline_s = min(max(deadline_s, 0.1),
                         self.config.max_deadline_s)
        service_request.deadline = self._now() + deadline_s
        if kind == "sweep":
            service_request.plan = self._resolve_sweep(service_request)
        elif kind == "analyze":
            self._resolve_source(payload)  # validate early
        elif kind == "explore":
            self._resolve_source(payload)
        service_request.out = asyncio.Queue(
            maxsize=max(2, self.config.client_buffer_chunks))
        shed = self.admission.offer(service_request)
        if shed is not None:
            self._count("shed_total")
            diagnostic = self._diag(shed.code, (
                f"request shed ({shed.reason}); retry after "
                f"~{shed.retry_after}s"))
            return (shed.status, {
                "error": f"request shed: {shed.reason}",
                "retry_after_seconds": shed.retry_after,
                "diagnostics": [diagnostic.as_dict()],
            }, {"Retry-After": str(shed.retry_after)})
        return service_request

    def _resolve_source(self, payload: Dict[str, Any]):
        """(program, inputs) from a workload name or skeleton text."""
        workload = payload.get("workload")
        skeleton = payload.get("skeleton")
        if bool(workload) == bool(skeleton):
            raise ProtocolError(
                400, "exactly one of 'workload' or 'skeleton' required")
        if workload is not None:
            if workload not in workload_names():
                raise ProtocolError(
                    400, f"unknown workload {workload!r} (have: "
                    f"{', '.join(workload_names())})")
            program, inputs = load_workload(workload)
        else:
            if not isinstance(skeleton, str):
                raise ProtocolError(400, "'skeleton' must be a string")
            try:
                program = parse_skeleton(skeleton)
            except ReproError as exc:
                raise ProtocolError(400,
                                    f"skeleton does not parse: {exc}")
            inputs = {}
        extra = payload.get("inputs", {})
        if not isinstance(extra, dict):
            raise ProtocolError(400, "'inputs' must be an object")
        try:
            inputs = dict(inputs, **{str(name): float(value)
                                     for name, value in extra.items()})
        except (TypeError, ValueError):
            raise ProtocolError(400, "'inputs' values must be numbers")
        machine_name = str(payload.get("machine", "bgq"))
        try:
            machine = machine_by_name(machine_name)
        except ReproError as exc:
            raise ProtocolError(400, str(exc))
        try:
            k = int(payload.get("k", self.config.k))
        except (TypeError, ValueError):
            raise ProtocolError(400, "'k' must be an integer")
        cache_model_name = str(payload.get("cache_model", "constant"))
        if cache_model_name not in CACHE_MODEL_NAMES:
            raise ProtocolError(
                400, f"unknown cache_model {cache_model_name!r}")
        cache_model = cache_model_by_name(cache_model_name)
        model_factory = (RooflineFactory(cache_model=cache_model)
                         if cache_model is not None else None)
        return (program, inputs, machine, k, model_factory,
                cache_model_name)

    def _resolve_sweep(self,
                       service_request: ServiceRequest) -> SweepPlan:
        payload = service_request.payload
        (program, inputs, machine, k, model_factory,
         cache_model_name) = self._resolve_source(payload)
        params = payload.get("params")
        if not isinstance(params, dict) or not params:
            raise ProtocolError(
                400, "'params' must map axis names to value lists")
        grid: Dict[str, List[float]] = {}
        for name, values in params.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ProtocolError(
                    400, f"axis {name!r} needs a non-empty value list")
            # keep ints as ints: override values must round-trip
            # bit-identically against a direct sweep_grid call with the
            # same JSON-decoded grid
            if any(isinstance(value, bool)
                   or not isinstance(value, (int, float))
                   for value in values):
                raise ProtocolError(
                    400, f"axis {name!r} has non-numeric values")
            grid[str(name)] = list(values)
        total = 1
        for values in grid.values():
            total *= len(values)
        if total > self.config.max_cells_per_request:
            raise ProtocolError(
                413, f"{total} cells exceed the per-request limit of "
                f"{self.config.max_cells_per_request}")
        names = list(grid)
        cells = [dict(zip(names, combo)) for combo
                 in itertools.product(*(grid[name] for name in names))]
        try:
            preflight(program, inputs, machine)
        except ReproError as exc:
            raise ProtocolError(400, f"preflight failed: {exc}")
        backend = str(payload.get("backend", "auto"))
        if backend not in ("auto", "scalar", "vector"):
            raise ProtocolError(400, f"unknown backend {backend!r}")
        plan = SweepPlan(
            program=program, inputs=inputs, machine=machine,
            cells=cells, grid=grid, k=k, model_factory=model_factory,
            cache_model=cache_model_name, backend=backend)
        plan.chaos = self._resolve_chaos(payload)
        checkpoint = payload.get("checkpoint")
        if checkpoint is not None:
            if self.config.checkpoint_dir is None:
                raise ProtocolError(
                    400, "this server has no --checkpoint-dir; "
                    "checkpointed sweeps are unavailable")
            if not _CHECKPOINT_NAME.match(str(checkpoint)):
                raise ProtocolError(
                    400, f"bad checkpoint name {checkpoint!r} (one "
                    "path component, [A-Za-z0-9._-])")
            plan.checkpoint = os.path.join(
                self.config.checkpoint_dir, str(checkpoint))
            plan.resume = bool(payload.get("resume", False))
            plan.checkpoint_key = sweep_key(
                program.fingerprint(), tuple(sorted(inputs.items())),
                repr(machine),
                tuple(sorted((name, tuple(values))
                             for name, values in grid.items())), k)
        plan.key = plan_key(plan, service_request.id)
        return plan

    def _resolve_chaos(self,
                       payload: Dict[str, Any]) -> Optional[ChaosSchedule]:
        spec = payload.get("chaos")
        if spec is None:
            return None
        if not self.config.allow_chaos:
            raise ProtocolError(
                400, "chaos injection is disabled on this server "
                "(start with --allow-chaos)")
        if not isinstance(spec, dict):
            raise ProtocolError(400, "'chaos' must be an object")
        kinds = tuple(spec.get("kinds", ("kill",)))
        unknown = [kind for kind in kinds if kind not in CHAOS_KINDS]
        if unknown:
            raise ProtocolError(400, f"unknown chaos kinds {unknown}")
        try:
            return ChaosSchedule.seeded(
                int(spec.get("seed", 0)),
                int(spec.get("shards", 4)),
                kinds=kinds,
                events_per_kind=int(spec.get("events_per_kind", 1)))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(400, f"bad chaos spec: {exc}")

    # -- response delivery ----------------------------------------------
    def _finish(self, request: ServiceRequest, status: int,
                payload: Dict[str, Any]) -> None:
        """Queue the terminal event; a stalled stream drops the client."""
        if request.dropped:
            return
        try:
            request.out.put_nowait(("done", status, payload))
        except asyncio.QueueFull:
            self._drop_client(request, "send buffer full at summary")

    def _emit_line(self, request: ServiceRequest,
                   event: Dict[str, Any]) -> None:
        if not request.stream or request.dropped:
            return
        try:
            request.out.put_nowait(("line", event))
        except asyncio.QueueFull:
            self._drop_client(request, "send buffer full")

    def _drop_client(self, request: ServiceRequest, why: str) -> None:
        if request.dropped:
            return
        request.dropped = True
        request.drop_reason = why
        self._count("slow_client_drops")
        self._diag("SKOP714",
                   f"request {request.id} ({request.tenant}): {why}; "
                   "client disconnected, batch unaffected")

    def _error_payload(self, request: ServiceRequest, code: str,
                       message: str,
                       status: str = "error") -> Dict[str, Any]:
        diagnostic = self._diag(code, message)
        return {
            "schema_version": SCHEMA_VERSION,
            "request_id": request.id,
            "kind": request.kind,
            "status": status,
            "error": message,
            "diagnostics": [diagnostic.as_dict()],
        }

    async def _respond(self, request: ServiceRequest, writer) -> None:
        """Drain the request's event queue out to the client socket."""
        cfg = self.config
        if request.stream:
            writer.write(stream_head_bytes(200))
        while True:
            kind, *rest = await request.out.get()
            if kind == "line":
                if not await self._write_client(
                        writer, request, chunk_bytes(
                            event_line(rest[0]))):
                    return
                continue
            status, payload = rest
            if request.stream:
                summary = dict(payload)
                summary["event"] = "summary"
                summary["status_code"] = int(status)
                await self._write_client(
                    writer, request,
                    chunk_bytes(event_line(summary)) + LAST_CHUNK)
            else:
                await self._write_client(
                    writer, request, response_bytes(status, payload))
            return

    async def _write_client(self, writer, request: ServiceRequest,
                            data: bytes) -> bool:
        try:
            writer.write(data)
            await asyncio.wait_for(writer.drain(),
                                   self.config.write_timeout_s)
            return True
        except (asyncio.TimeoutError, ConnectionError,
                BrokenPipeError):
            self._drop_client(request, "client too slow or gone")
            return False

    # -- dispatch --------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            request = await self.admission.next()
            if request is None:
                return
            started = self._now()
            group = [request]
            if request.kind == "sweep":
                peers = self.admission.take_compatible(
                    lambda other: (other.kind == "sweep"
                                   and other.plan.key
                                   == request.plan.key),
                    self.config.coalesce_limit - 1)
                if peers:
                    group += peers
                    self._count("coalesced_batches")
                    self._count("coalesced_requests", len(peers))
            try:
                if request.kind == "sweep":
                    await self._run_sweep_group(group)
                elif request.kind == "analyze":
                    await self._run_analyze(request)
                else:
                    await self._run_explore(request)
            except Exception as exc:  # defensive: keep dispatching
                self._count("dispatch_errors")
                for member in group:
                    self._finish(member, 500, self._error_payload(
                        member, "SKOP712",
                        f"internal evaluation error: {exc!r}"))
            self.admission.note_service_time(self._now() - started)

    # -- analyze ---------------------------------------------------------
    def _bet_for(self, program, inputs, tenant: str,
                 budget: EvalBudget):
        key = (program.fingerprint(),
               tuple(sorted(inputs.items())), "main")
        return self.bet_cache.get_or_create(
            key,
            lambda: build_bet(program, inputs=inputs, budget=budget),
            owner=tenant)

    def _build_budget(self) -> EvalBudget:
        return EvalBudget(max_seconds=self.config.build_max_seconds,
                          max_contexts=self.config.build_max_contexts)

    # -- warm cache ------------------------------------------------------
    def _warm_note(self, request: ServiceRequest) -> None:
        """Record one request's cache descriptor for the drain snapshot.

        Only what rebuilds the cache keys is kept — tenant, program
        source (workload name or skeleton text), and explicit inputs —
        never results.  Deduped, so snapshot size is bounded by distinct
        (tenant, program, inputs) triples, not traffic volume.
        """
        if self.config.warm_cache_path is None:
            return
        payload = request.payload
        entry: Dict[str, Any] = {"tenant": request.tenant}
        for name in ("workload", "skeleton", "inputs"):
            value = payload.get(name)
            if value is not None:
                entry[name] = value
        inputs = entry.get("inputs") or {}
        if not isinstance(inputs, dict):
            return
        key = (request.tenant, entry.get("workload"),
               entry.get("skeleton"),
               tuple(sorted((str(k), v) for k, v in inputs.items())))
        self._warm_notes[key] = entry

    def _write_warm_cache(self) -> None:
        """Snapshot warm-cache descriptors during drain (SKOP716)."""
        path = self.config.warm_cache_path
        if path is None or not self._warm_notes:
            return
        payload = {"version": 1,
                   "entries": list(self._warm_notes.values())}
        try:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            self._count("warm_cache_errors")
            self._diag("SKOP716", f"warm-cache snapshot failed: {exc}")
            return
        self._count("warm_cache_saved", len(self._warm_notes))

    def _load_warm_cache(self) -> None:
        """Pre-warm BET and symbolic-tape caches from a drain snapshot.

        Every entry is best-effort: a stale workload name, unparsable
        skeleton, or budget blow-up skips that entry with a SKOP716
        diagnostic and never blocks startup.
        """
        path = self.config.warm_cache_path
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            entries = payload.get("entries", [])
            if not isinstance(entries, list):
                raise ValueError("'entries' must be a list")
        except (OSError, ValueError) as exc:
            self._count("warm_cache_errors")
            self._diag("SKOP716", f"warm-cache load failed: {exc}")
            return
        from ..bet.symbolic import SymbolicBET
        from ..parallel.engine import _symbolic_for
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            try:
                (program, inputs, _machine, _k, _factory,
                 _name) = self._resolve_source({
                     "workload": entry.get("workload"),
                     "skeleton": entry.get("skeleton"),
                     "inputs": entry.get("inputs", {}),
                 })
                tenant = str(entry.get("tenant", DEFAULT_TENANT))
                self._bet_for(program, inputs, tenant,
                              self._build_budget())
                # seed the engine's worker-resident tape cache too, so
                # the first served sweep replays instead of re-recording
                with _symbolic_for(SymbolicBET(program)) as tape:
                    tape.bind(dict(inputs))
            except Exception as exc:
                self._count("warm_cache_errors")
                self._diag("SKOP716",
                           f"warm-cache entry skipped: {exc!r}")
                continue
            inputs_note = entry.get("inputs") or {}
            key = (entry.get("tenant", DEFAULT_TENANT),
                   entry.get("workload"), entry.get("skeleton"),
                   tuple(sorted((str(k), v)
                                for k, v in inputs_note.items())))
            # re-note loaded entries: the *next* drain re-snapshots them
            # even if this instance never sees fresh traffic for them
            self._warm_notes.setdefault(key, entry)
            self._count("warm_cache_loaded")

    async def _run_analyze(self, request: ServiceRequest) -> None:
        self._count("analyze_total")
        (program, inputs, machine, k, model_factory,
         cache_model_name) = self._resolve_source(request.payload)
        self._warm_note(request)
        tenant = request.tenant

        def work():
            bet = self._bet_for(program, inputs, tenant,
                                self._build_budget())
            return project_machine(bet, machine, model_factory, k)

        try:
            projection = await asyncio.to_thread(work)
        except BudgetExceededError as exc:
            self._count("budget_rejections")
            self._finish(request, 422, self._error_payload(
                request, _budget_code(exc.resource),
                f"analysis exceeded its evaluation budget: {exc}"))
            return
        except ReproError as exc:
            self._finish(request, 422, self._error_payload(
                request, "SKOP712", f"analysis failed: {exc}"))
            return
        self._finish(request, 200, {
            "schema_version": SCHEMA_VERSION,
            "request_id": request.id,
            "kind": "analyze",
            "status": "ok",
            "machine": machine.name,
            "cache_model": cache_model_name,
            "runtime_seconds": projection["runtime"],
            "ranking": list(projection["ranking"][:k]),
            "top_spot": projection["top_label"],
            "memory_fraction": projection["memory_fraction"],
            "completeness": projection.get("completeness", 1.0),
            "diagnostics": [],
        })

    # -- explore ---------------------------------------------------------
    async def _run_explore(self, request: ServiceRequest) -> None:
        self._count("explore_total")
        from ..explore import explore
        payload = request.payload
        (program, inputs, machine, k, model_factory,
         _cache_model_name) = self._resolve_source(payload)
        params = payload.get("params")
        if not isinstance(params, dict) or not params:
            self._finish(request, 400, self._error_payload(
                request, "SKOP712",
                "'params' must map axis names to value lists"))
            return
        objectives = payload.get("objectives", ["runtime"])
        if isinstance(objectives, str):
            # accept the CLI's comma-separated syntax too
            objectives = [spec.strip() for spec in objectives.split(",")
                          if spec.strip()]
        if not (isinstance(objectives, list) and objectives and all(
                isinstance(spec, str) for spec in objectives)):
            self._finish(request, 400, self._error_payload(
                request, "SKOP712",
                "'objectives' must be a list of objective specs "
                "(e.g. [\"runtime\", \"bandwidth:min\"])"))
            return
        budget = min(int(payload.get("budget", 32)),
                     self.config.explore_max_budget)
        rounds = min(int(payload.get("rounds", 4)), 16)
        seed = int(payload.get("seed", 0))

        def work():
            axes = {str(name): [float(v) for v in values]
                    for name, values in params.items()}
            return explore(axes, machine, list(objectives),
                           program=program, inputs=inputs, k=k,
                           budget=budget, rounds=rounds, seed=seed,
                           workers=1, model_factory=model_factory)

        try:
            result = await asyncio.to_thread(work)
        except (ReproError, ValueError) as exc:
            self._finish(request, 422, self._error_payload(
                request, "SKOP712", f"explore failed: {exc}"))
            return
        from ..export import explore_to_dict
        body = explore_to_dict(result)
        body.update(request_id=request.id, kind="explore", status="ok")
        self._finish(request, 200, body)

    # -- sweeps ----------------------------------------------------------
    async def _run_sweep_group(self, group: List[ServiceRequest]
                               ) -> None:
        self._count("sweep_total", len(group))
        batch = build_batch(group)
        plan = group[0].plan
        for member in group:
            self._warm_note(member)
        step = self._sweep_step(plan, batch.cells)
        state: Dict[int, Dict[str, Any]] = {
            member.id: {
                "points": [None] * len(member.plan.cells),
                "failures": [],
                "diagnostics": [],
                "stop_code": None,       # SKOP711 / SKOP715
                "degraded": False,
            } for member in group}
        for member in group:
            self._emit_line(member, {
                "event": "start", "request_id": member.id,
                "kind": "sweep", "cells": len(member.plan.cells),
                "coalesced": batch.coalesced,
                "schema_version": SCHEMA_VERSION})
        total = len(batch.cells)
        index = 0
        chunk_index = 0
        drained = False
        started = self._now()
        while index < total:
            now = self._now()
            for member in group:
                st = state[member.id]
                if (st["stop_code"] is None and not member.dropped
                        and member.expired(now)):
                    st["stop_code"] = "SKOP711"
                    self._count("deadline_expirations")
                    diagnostic = self._diag(
                        "SKOP711",
                        f"request {member.id} passed its deadline; "
                        "returning the points computed so far")
                    st["diagnostics"].append(diagnostic.as_dict())
                    self._emit_line(member, {
                        "event": "diagnostic",
                        "diagnostic": diagnostic.as_dict()})
            if self.draining:
                drained = True
                break
            active = [member for member in group
                      if not member.dropped
                      and state[member.id]["stop_code"] is None]
            if not active:
                break
            stop = min(index + step, total)
            wanted: List[Tuple[int, Dict[str, float]]] = []
            for cell_index in range(index, stop):
                subscribers = batch.routes[cell_index]
                if any(not member.dropped
                       and state[member.id]["stop_code"] is None
                       for member, _ in subscribers):
                    wanted.append((cell_index, batch.cells[cell_index]))
            index = stop
            if not wanted:
                continue
            route = self.breaker.route()
            degraded = route == DEGRADED
            cells = [cell for _, cell in wanted]
            result, route_failures = await self._evaluate_guarded(
                plan, cells, route, chunk_index, state, group)
            chunk_index += 1
            if result is None and route_failures is None:
                # breaker fell open mid-batch: one degraded retry
                degraded = True
                result, route_failures = await self._evaluate_guarded(
                    plan, cells, DEGRADED, chunk_index, state, group)
                chunk_index += 1
            if degraded:
                self._count("degraded_chunks")
            self._fan_out(batch, wanted, result, route_failures,
                          state, degraded)
        else:
            drained = False
        if drained:
            self._count("drain_interruptions")
            for member in group:
                st = state[member.id]
                if st["stop_code"] is None and any(
                        point is None for point in st["points"]):
                    st["stop_code"] = "SKOP715"
                    checkpointed = member.plan.checkpoint is not None
                    diagnostic = self._diag("SKOP715", (
                        f"request {member.id}: server draining; "
                        + ("completed cells are checkpointed — resume "
                           "with the same checkpoint name"
                           if checkpointed else
                           "partial results returned")))
                    st["diagnostics"].append(diagnostic.as_dict())
                    self._emit_line(member, {
                        "event": "diagnostic",
                        "diagnostic": diagnostic.as_dict()})
        elapsed = self._now() - started
        for member in group:
            self._finish_sweep(member, state[member.id],
                               batch.coalesced, elapsed)

    def _sweep_step(self, plan: SweepPlan,
                    cells: List[Dict[str, float]]) -> int:
        """Cells per streamed evaluation step for one batch.

        Vector-eligible batches (numpy present, input axes, enough
        cells to amortize a lane array) step in strides up to
        ``vector_chunk_cells`` so the merged tenant-interleaved cell
        list reaches the engine's grouped lane dispatch whole; anything
        else keeps the small ``chunk_cells`` stride that bounds
        deadline-check latency.
        """
        cfg = self.config
        step = max(1, cfg.chunk_cells)
        if plan.backend == "scalar" or not _aops.HAVE_NUMPY:
            return step
        total = len(cells)
        if total < VECTOR_MIN_POINTS:
            return step
        if not any(name.startswith(INPUT_PREFIX)
                   for cell in cells[:1] for name in cell):
            return step
        return max(step, min(total, max(1, cfg.vector_chunk_cells)))

    async def _evaluate_guarded(self, plan: SweepPlan,
                                cells: List[Dict[str, float]],
                                route: str, chunk_index: int,
                                state, group):
        """One chunk evaluation with breaker accounting.

        Returns ``(result, failures)``; ``(None, None)`` signals "the
        breaker just tripped — retry this chunk degraded".
        """
        probe = route == PROBE
        degraded = route == DEGRADED
        try:
            result = await asyncio.to_thread(
                self._evaluate_chunk, plan, cells, degraded,
                chunk_index)
        except BudgetExceededError as exc:
            self._count("budget_rejections")
            return None, [("budget", _budget_code(exc.resource),
                           str(exc))]
        except Exception as exc:
            if not degraded:
                self.breaker.record(False, probe=probe)
                self._count("executor_failures")
                if self.breaker.route() == DEGRADED:
                    for member in group:
                        st = state[member.id]
                        if not st["degraded"]:
                            st["degraded"] = True
                            diagnostic = self._diag("SKOP713", (
                                "circuit breaker open after executor "
                                f"failures ({exc!r}); serving degraded "
                                "constant-cache-model answers"))
                            st["diagnostics"].append(
                                diagnostic.as_dict())
                            self._emit_line(member, {
                                "event": "diagnostic",
                                "diagnostic": diagnostic.as_dict()})
                    return None, None
            return None, [("error", type(exc).__name__, str(exc))]
        stats = getattr(result, "cache_stats", None) or {}
        for name in ("lanes_vectorized", "lanes_fallback",
                     "lane_groups"):
            value = int(stats.get(name, 0))
            if value:
                self._count(name, value)
        # chunks share the process's warm pool: this stays at one start
        # while the pool stays healthy
        starts = int((getattr(result, "shard_stats", None) or {})
                     .get("executor_pool_starts", 0))
        if starts:
            self._count("executor_pool_starts", starts)
        if not degraded:
            infra = self._infra_noise(result)
            self.breaker.record(not infra, probe=probe)
            if infra:
                self._count("executor_faults_recovered")
        return result, None

    def _infra_noise(self, result) -> bool:
        """Did this chunk's executor substrate misbehave (even if the
        shard scheduler recovered exact results)?"""
        stats = getattr(result, "shard_stats", None) or {}
        return (stats.get("shard_reassignments", 0)
                + stats.get("executor_crashes", 0)
                + stats.get("executor_workers_lost", 0)) > 0

    def _evaluate_chunk(self, plan: SweepPlan,
                        cells: List[Dict[str, float]], degraded: bool,
                        chunk_index: int):
        """Evaluate one chunk of cells (runs in a worker thread).

        Normal mode uses the configured executor/backend/cache model;
        degraded mode forces the in-process serial path with the
        constant cache model (``model_factory=None``).
        """
        cfg = self.config
        kwargs: Dict[str, Any] = dict(
            k=plan.k, program=plan.program, inputs=plan.inputs,
            validate=False)
        has_input_axes = any(
            name.startswith(INPUT_PREFIX)
            for cell in cells for name in cell)
        if degraded:
            kwargs.update(model_factory=None, workers=1,
                          backend=plan.backend)
        else:
            kwargs.update(model_factory=plan.model_factory,
                          workers=cfg.engine_workers,
                          backend=plan.backend)
            executor = cfg.executor
            if plan.chaos is not None and executor is None:
                executor = "serial"
            if executor is not None:
                kwargs.update(executor=executor, shards=cfg.shards,
                              chaos=plan.chaos)
            if plan.checkpoint is not None:
                kwargs.update(
                    checkpoint=plan.checkpoint,
                    checkpoint_key=plan.checkpoint_key,
                    resume=plan.resume or chunk_index > 0)
        bet = None
        if not has_input_axes:
            bet = self._bet_for(plan.program, plan.inputs,
                                "sweep", self._build_budget())
        return evaluate_cells(plan.machine, cells, bet=bet, **kwargs)

    def _fan_out(self, batch: Batch,
                 wanted: List[Tuple[int, Dict[str, float]]],
                 result, route_failures, state,
                 degraded: bool) -> None:
        """Distribute one chunk's outcome to every subscriber."""
        points_by_key: Dict[str, Any] = {}
        failures_by_local: Dict[int, Any] = {}
        if result is not None:
            points_by_key = {overrides_key(point.overrides): point
                             for point in result.points}
            failures_by_local = {failure.index: failure
                                 for failure in result.failures}
        for local, (cell_index, cell) in enumerate(wanted):
            cell_id = overrides_key(cell)
            point = points_by_key.get(cell_id)
            payload = (grid_point_to_dict(point)
                       if point is not None else None)
            for member, member_index in batch.routes[cell_index]:
                st = state[member.id]
                if member.dropped or st["stop_code"] is not None:
                    continue
                if payload is not None:
                    if degraded and not st["degraded"]:
                        st["degraded"] = True
                        diagnostic = self._diag(
                            "SKOP713",
                            f"request {member.id}: served degraded "
                            "constant-cache-model points while the "
                            "breaker is open")
                        st["diagnostics"].append(diagnostic.as_dict())
                        self._emit_line(member, {
                            "event": "diagnostic",
                            "diagnostic": diagnostic.as_dict()})
                    entry = dict(payload)
                    if degraded:
                        entry["degraded"] = True
                    st["points"][member_index] = entry
                    self._count("points_served")
                    self._emit_line(member, {
                        "event": "point", "index": member_index,
                        "point": entry})
                else:
                    failure = failures_by_local.get(local)
                    record = {
                        "index": member_index,
                        "overrides": dict(cell),
                        "error_type": (failure.error_type if failure
                                       else "EvaluationError"),
                        "message": (failure.message if failure
                                    else "cell not evaluated"),
                    }
                    if route_failures:
                        _, code_or_type, message = route_failures[0]
                        record["error_type"] = code_or_type
                        record["message"] = message
                    st["failures"].append(record)
                    self._emit_line(member, {
                        "event": "failure", "failure": record})

    def _finish_sweep(self, member: ServiceRequest,
                      st: Dict[str, Any], coalesced: bool,
                      elapsed: float) -> None:
        points = [point for point in st["points"] if point is not None]
        complete = len(points) == len(st["points"])
        if st["stop_code"] is not None:
            status = "partial"
        elif st["degraded"]:
            status = "degraded"
        else:
            status = "ok"
        if st["degraded"]:
            self._count("degraded_responses")
        http_status = 200 if (complete or st["stop_code"]) else (
            200 if points or st["failures"] else 500)
        self._finish(member, http_status, {
            "schema_version": SCHEMA_VERSION,
            "request_id": member.id,
            "kind": "sweep",
            "status": status,
            "degraded": st["degraded"],
            "coalesced": coalesced,
            "machine": member.plan.machine.name,
            "cache_model": member.plan.cache_model,
            "backend": member.plan.backend,
            "cells": len(st["points"]),
            "points": points,
            "failures": st["failures"],
            "diagnostics": st["diagnostics"],
            "checkpointed": member.plan.checkpoint is not None,
            "timings": {"total": elapsed,
                        "points": float(len(points))},
        })

    # -- introspection ---------------------------------------------------
    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        healthy = not self.draining
        return (200 if healthy else 503), {
            "status": "ok" if healthy else "draining",
            "queue_depth": self.admission.depth(),
            "breaker": self.breaker.state,
            "uptime_seconds": (self._now() - self._started_at
                               if self._started_at else 0.0),
        }

    def statsz(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": (self._now() - self._started_at
                               if self._started_at else 0.0),
            "queue": self.admission.as_dict(),
            "breaker": self.breaker.as_dict(),
            "caches": {
                "bet": {
                    "stats": self.bet_cache.stats_dict(),
                    "occupancy": self.bet_cache.occupancy(),
                    "maxsize": self.bet_cache.maxsize,
                    "owner_quota": self.bet_cache.owner_quota,
                },
            },
            "lanes": {
                "lanes_vectorized":
                    self.counters.get("lanes_vectorized", 0),
                "lanes_fallback":
                    self.counters.get("lanes_fallback", 0),
                "lane_groups": self.counters.get("lane_groups", 0),
            },
            "warm_cache": {
                "path": self.config.warm_cache_path,
                "entries": len(self._warm_notes),
                "loaded": self.counters.get("warm_cache_loaded", 0),
                "saved": self.counters.get("warm_cache_saved", 0),
                "errors": self.counters.get("warm_cache_errors", 0),
            },
            "counters": dict(self.counters),
            "connections_active": self._active_connections,
            "diagnostics_collected": len(self.sink),
            "diagnostics_dropped": self.sink.dropped,
        }


# -- hosting helpers ----------------------------------------------------------

class ServiceHandle:
    """A service running on a daemon thread (tests and benchmarks)."""

    def __init__(self, service: AnalysisService,
                 thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.service = service
        self.thread = thread
        self.loop = loop

    @property
    def port(self) -> int:
        return self.service.port or 0

    def drain(self) -> None:
        """Trigger graceful drain from any thread."""
        self.loop.call_soon_threadsafe(self.service.begin_drain)

    def stop(self, timeout: float = 30.0) -> None:
        self.drain()
        self.thread.join(timeout)


def start_in_thread(config: Optional[ServiceConfig] = None,
                    timeout: float = 30.0) -> ServiceHandle:
    """Start an :class:`AnalysisService` on a background thread and
    block until it is accepting connections."""
    service = AnalysisService(config)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def runner():
        async def main():
            ready = asyncio.Event()
            box["loop"] = asyncio.get_running_loop()

            async def flag():
                await ready.wait()
                started.set()

            flag_task = asyncio.ensure_future(flag())
            try:
                await service.serve(ready=ready)
            finally:
                flag_task.cancel()

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="repro-service",
                              daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("service failed to start within "
                           f"{timeout}s")
    return ServiceHandle(service, thread, box["loop"])


def run(config: Optional[ServiceConfig] = None) -> None:
    """Blocking entry point used by ``repro serve``."""
    asyncio.run(AnalysisService(config).serve())
