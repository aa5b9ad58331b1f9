"""Outside-in span recorder for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's public functions, under every name a caller resolves them
by (module globals that imported the function, and class attributes for
methods), with a wrapper that records one span per call.  Spans are kept
in memory and written out when the run ends.

A span is ``(name, start_ns, end_ns, span_id, parent_id, op_id)``.  The
parent is the span open in the caller's context when the call began
(a :mod:`contextvars` variable, so threads started through
``asyncio.to_thread`` inherit it); the op id names the benchmark op (or
served request) the span belongs to.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.

Pool workers forked by the sweep engine inherit the wrappers, but their
spans would die with the worker; the recorder ignores calls made in any
process other than the one that installed it, so worker-side time shows
up only as the parent's wait (``parallel.worker_wait``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
_OP = contextvars.ContextVar("perfbench_op", default=0)

#: span name -> (module path, attribute path) of the wrapped callables.
#: ``Class.method`` targets patch the class; bare names patch the function
#: under every ``repro`` module global bound to it.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "skeleton.parse": (("repro.skeleton.parser", "parse_skeleton"),),
    "skeleton.fingerprint": (("repro.skeleton.bst", "Program.fingerprint"),),
    "bet.build": (("repro.bet.builder", "BETBuilder.build"),),
    "bet.bind": (("repro.bet.symbolic", "SymbolicBET.bind"),),
    "bet.rebind_batch": (("repro.bet.symbolic", "SymbolicBET.rebind_batch"),),
    "hardware.model": (("repro.hardware.roofline",
                        "RooflineModel.block_time"),),
    "analysis.characterize": (("repro.analysis.block_metrics",
                               "characterize"),),
    "analysis.project": (("repro.analysis.sensitivity",
                          "project_with_model"),),
    "analysis.select": (("repro.analysis.hotspots", "select_hotspots"),),
    "analysis.hotpath": (("repro.analysis.hotpath", "extract_hot_path"),),
    "analysis.project_batch": (("repro.analysis.vectorized",
                                "project_batch"),),
    "export": tuple(("repro.export", name) for name in (
        "hotpath_to_dict", "input_sweep_to_dict", "grid_point_to_dict",
        "to_json")),
    "parallel.dispatch": (("repro.parallel.engine", "sweep_inputs"),
                          ("repro.parallel.engine", "evaluate_cells")),
    "parallel.worker_wait": (("repro.parallel.fault", "resilient_map"),),
}

#: the server's request handlers, spanned as ``service.run`` and scoping
#: everything they run to the op id of the request (or batch leader)
SERVICE_TARGETS = (
    ("repro.service.server", "AnalysisService._run_analyze",
     lambda args: args[1].id),
    ("repro.service.server", "AnalysisService._run_sweep_group",
     lambda args: args[1][0].id),
)

MODEL_LAYERS = frozenset(LAYER_TARGETS)


class Span(NamedTuple):
    name: str
    start: int          #: perf_counter_ns
    end: int
    span_id: int
    parent: int
    op: int


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (it cannot, in a single thread, but a span
    handed across threads might) never drives self time negative.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out: Dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = (span.end - span.start) - covered
    return out


def busy_ns_by_layer(spans: Iterable[Span]) -> Dict[str, int]:
    """Total self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, int] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0) + own[span.span_id]
    return totals


@contextlib.contextmanager
def op_scope(op_id: int):
    """Spans opened inside the block carry ``op_id``."""
    token = _OP.set(op_id)
    try:
        yield
    finally:
        _OP.reset(token)


class Recorder:
    """In-memory span and counter sink for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: counters set by layer hooks (e.g. batch lanes)
        self.counts: Dict[str, float] = {}
        #: (dequeue time ns, seconds the request waited in the queue)
        self.queue_waits: List[Tuple[int, float]] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def active(self) -> bool:
        return os.getpid() == self._pid

    def count(self, name: str, delta: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + delta

    def wrap(self, name: str, fn: Callable,
             hook: Callable[..., None] = None) -> Callable:
        """``fn`` with a span around every in-process call.

        ``hook(recorder, args, result)`` runs after a call returns, to
        derive counters from the call's public inputs and outputs.
        """
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append(Span(name, start, end, span_id, parent,
                                  _OP.get()))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable,
                   op_of: Callable[[Tuple], int]) -> Callable:
        """Coroutine-method twin of :meth:`wrap` that also opens an op
        scope (``op_of(args)`` names it) for everything the call awaits,
        including work it hands to threads."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id = next(ids)
            parent = _CURRENT.get()
            op_token = _OP.set(op_of(args))
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append(Span(name, start, end, span_id, parent,
                                  _OP.get()))
                _OP.reset(op_token)

        return traced

    def dump(self) -> Dict[str, Any]:
        return {"spans": [list(span) for span in self.spans],
                "counts": dict(self.counts),
                "queue_waits": [list(row) for row in self.queue_waits]}


def _resolve(module_name: str, path: str):
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that is ``original``.

    Callers that imported the function by name resolve it through their
    own module globals, so patching only the defining module would miss
    them.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _count_lanes(recorder: Recorder, args, result) -> None:
    recorder.count("bet.rebind_batch.lanes", float(result.lanes))


_HOOKS = {"bet.rebind_batch": _count_lanes}


def install(recorder: Recorder, service: bool = False) -> None:
    """Wrap every layer target (and, for a server, its request handlers
    and admission queue) so calls record into ``recorder``."""
    import repro  # noqa: F401  (load the package before resolving)
    for name, targets in LAYER_TARGETS.items():
        for module_name, path in targets:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = recorder.wrap(name, original, _HOOKS.get(name))
            if isinstance(owner, type):
                # aliases on the class (SymbolicBET.rebind is bind)
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, alias, wrapped)
            else:
                patch_everywhere(original, wrapped)
    if not service:
        return
    for module_name, path, op_of in SERVICE_TARGETS:
        owner, attr = _resolve(module_name, path)
        setattr(owner, attr,
                recorder.wrap_async("service.run", getattr(owner, attr),
                                    op_of))
    from repro.service.admission import AdmissionQueue
    original_next = AdmissionQueue.next

    @functools.wraps(original_next)
    async def next_traced(queue, *args, **kwargs):
        request = await original_next(queue, *args, **kwargs)
        if request is not None:
            recorder.queue_waits.append(
                (time.perf_counter_ns(),
                 max(0.0, time.monotonic() - request.received)))
        return request

    AdmissionQueue.next = next_traced
