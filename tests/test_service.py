"""Tests for the resilient analysis service (`repro.service`).

Unit tests cover each mechanism in isolation — admission/shedding,
circuit breaker, request coalescing, HTTP framing, per-tenant cache
quotas — and integration tests run a real server on a loopback port:
correctness (served sweep bit-identical to a direct ``sweep_grid``),
load shedding under a busy dispatcher, breaker-driven degraded
answers, deadline expiry, slow-client disconnection, and the
SIGTERM drain → checkpoint → restart → bit-identical resume cycle
(ISSUE 9 satellite).
"""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bet import build_bet
from repro.export import grid_point_to_dict
from repro.hardware import machine_by_name
from repro.parallel import sweep_grid
from repro.service import (
    AdmissionQueue, AnalysisService, CircuitBreaker, DEGRADED, NORMAL,
    OPEN, PROBE, ProtocolError, ServiceConfig, ServiceRequest,
    build_batch, read_request, response_bytes, start_in_thread,
)
from repro.service.server import _budget_code
from repro.workloads import load as load_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


# -- helpers -------------------------------------------------------------------

def http_json(port, method, path, payload=None, timeout=30.0,
              headers=None):
    """One request against the loopback server → (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    conn.close()
    parsed = json.loads(data) if data else {}
    return response.status, dict(response.getheaders()), parsed


def http_stream(port, path, payload, timeout=30.0):
    """POST and decode a chunked JSON-lines stream → list of events."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("POST", path, body=json.dumps(payload).encode())
    response = conn.getresponse()
    events = []
    for line in response:
        line = line.strip()
        if line:
            events.append(json.loads(line))
    conn.close()
    return events


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def direct_grid_points(workload, grid, machine="bgq", k=10):
    """The reference result the service must match bit-for-bit."""
    program, inputs = load_workload(workload)
    base = machine_by_name(machine)
    has_input = any(name.startswith("input:") for name in grid)
    bet = None if has_input else build_bet(program, inputs=inputs)
    result = sweep_grid(bet, base, grid, program=program, inputs=inputs,
                        k=k)
    return [grid_point_to_dict(point) for point in result.points]


# -- admission -----------------------------------------------------------------

def _request(tenant="anon", kind="analyze", payload=None):
    return ServiceRequest(kind=kind, tenant=tenant,
                          payload=payload or {})


class TestAdmissionQueue:
    def test_sheds_past_global_limit(self):
        queue = AdmissionQueue(limit=2)
        assert queue.offer(_request()) is None
        assert queue.offer(_request()) is None
        shed = queue.offer(_request())
        assert shed is not None
        assert (shed.status, shed.code) == (429, "SKOP710")
        assert shed.reason == "queue full"
        assert 1 <= shed.retry_after <= 60
        assert queue.shed_total == 1

    def test_sheds_past_tenant_quota(self):
        queue = AdmissionQueue(limit=10, tenant_limit=1)
        assert queue.offer(_request(tenant="a")) is None
        shed = queue.offer(_request(tenant="a"))
        assert shed is not None and shed.reason == "tenant quota"
        # other tenants unaffected
        assert queue.offer(_request(tenant="b")) is None

    def test_round_robin_across_tenants(self):
        queue = AdmissionQueue(limit=10)
        order = []
        for tag, tenant in (("a1", "a"), ("a2", "a"), ("a3", "a"),
                            ("b1", "b")):
            request = _request(tenant=tenant)
            request.payload["tag"] = tag
            queue.offer(request)

        async def drain():
            for _ in range(4):
                request = await queue.next()
                order.append(request.payload["tag"])

        asyncio.run(drain())
        assert order == ["a1", "b1", "a2", "a3"]

    def test_close_returns_pending_and_ends_dispatch(self):
        queue = AdmissionQueue(limit=10)
        queue.offer(_request(tenant="a"))
        queue.offer(_request(tenant="b"))
        pending = queue.close()
        assert len(pending) == 2
        assert queue.depth() == 0
        assert queue.offer(_request()).status == 503

        async def ended():
            return await queue.next()

        assert asyncio.run(ended()) is None

    def test_take_compatible_preserves_the_rest(self):
        queue = AdmissionQueue(limit=10)
        keep = _request(tenant="a", kind="analyze")
        take1 = _request(tenant="a", kind="sweep")
        take2 = _request(tenant="b", kind="sweep")
        for request in (keep, take1, take2):
            queue.offer(request)
        taken = queue.take_compatible(
            lambda request: request.kind == "sweep", limit=8)
        assert set(map(id, taken)) == {id(take1), id(take2)}
        assert queue.depth() == 1

    def test_retry_after_tracks_service_rate(self):
        queue = AdmissionQueue(limit=100)
        for _ in range(10):
            queue.offer(_request())
        for _ in range(8):
            queue.note_service_time(4.0)
        assert queue.retry_after() > 10
        assert queue.retry_after() <= 60


# -- circuit breaker -----------------------------------------------------------

class TestCircuitBreaker:
    def _clocked(self, **kwargs):
        clock = SimpleNamespace(now=0.0)
        breaker = CircuitBreaker(time_fn=lambda: clock.now, **kwargs)
        return breaker, clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self._clocked(threshold=3, cooldown=10.0)
        for _ in range(2):
            breaker.record(False)
        assert breaker.state == "closed"
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.route() == DEGRADED
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self._clocked(threshold=2)
        breaker.record(False)
        breaker.record(True)
        breaker.record(False)
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self._clocked(threshold=1, cooldown=5.0,
                                       probes=1)
        breaker.record(False)
        assert breaker.route() == DEGRADED
        clock.now = 5.0
        assert breaker.route() == PROBE
        # only one probe token; the next caller stays degraded
        assert breaker.route() == DEGRADED
        breaker.record(True, probe=True)
        assert breaker.state == "closed"
        assert breaker.route() == NORMAL
        assert breaker.probe_successes == 1

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self._clocked(threshold=1, cooldown=5.0)
        breaker.record(False)
        clock.now = 5.0
        assert breaker.route() == PROBE
        breaker.record(False, probe=True)
        assert breaker.state == OPEN
        assert breaker.trips == 2
        # a fresh cooldown is required before the next probe
        assert breaker.route() == DEGRADED
        clock.now = 10.0
        assert breaker.route() == PROBE

    def test_as_dict_reports_counters(self):
        breaker, _ = self._clocked(threshold=1)
        breaker.record(False)
        state = breaker.as_dict()
        assert state["state"] == OPEN
        assert state["trips"] == 1 and state["failures_total"] == 1


# -- coalescing ----------------------------------------------------------------

def _fake_request(cells, rid=0):
    return SimpleNamespace(id=rid, plan=SimpleNamespace(cells=cells))


class TestCoalesce:
    def test_batch_dedups_and_routes(self):
        a = _fake_request([{"cores": 1.0}, {"cores": 2.0}], rid=1)
        b = _fake_request([{"cores": 2.0}, {"cores": 3.0}], rid=2)
        batch = build_batch([a, b])
        assert batch.coalesced
        assert len(batch.cells) == 3          # cores=2.0 shared
        shared = [routes for cell, routes
                  in zip(batch.cells, batch.routes)
                  if cell == {"cores": 2.0}][0]
        assert {member.id for member, _ in shared} == {1, 2}
        # every member index is routed exactly once
        for member in (a, b):
            routed = sorted(index for routes in batch.routes
                            for who, index in routes if who is member)
            assert routed == [0, 1]

    def test_interleave_gives_small_requests_early_slots(self):
        big = _fake_request([{"x": float(i)} for i in range(6)], rid=1)
        small = _fake_request([{"y": 1.0}], rid=2)
        batch = build_batch([big, small])
        # the small request's only cell lands in the first round
        assert batch.cells[1] == {"y": 1.0}

    def test_single_request_not_marked_coalesced(self):
        batch = build_batch([_fake_request([{"x": 1.0}])])
        assert not batch.coalesced

    def test_checkpointed_plans_never_share_a_key(self):
        from repro.service import SweepPlan, plan_key
        program, inputs = load_workload("pedagogical")
        machine = machine_by_name("bgq")
        base = dict(program=program, inputs=inputs, machine=machine,
                    cells=[{"cores": 8.0}], grid={"cores": [8.0]})
        open_plan = SweepPlan(**base)
        pinned = SweepPlan(**base, checkpoint="/tmp/x.json")
        assert plan_key(open_plan, 1) == plan_key(open_plan, 2)
        assert plan_key(pinned, 1) != plan_key(pinned, 2)
        assert plan_key(pinned, 1) != plan_key(open_plan, 1)


# -- HTTP framing --------------------------------------------------------------

def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHttp11:
    def test_parses_post_with_body(self):
        raw = (b"POST /sweep?x=1 HTTP/1.1\r\nHost: h\r\n"
               b"Content-Length: 2\r\n\r\n{}")
        request = _parse(raw)
        assert request.method == "POST"
        assert request.path == "/sweep"
        assert request.query == {"x": "1"}
        assert request.json() == {}

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_truncated_head_is_400(self):
        with pytest.raises(ProtocolError) as info:
            _parse(b"POST /sweep HTTP/1.1\r\nHost")
        assert info.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as info:
            _parse(b"NONSENSE\r\n\r\n")
        assert info.value.status == 400

    def test_oversized_head_is_431(self):
        filler = b"X-Pad: " + b"a" * 20_000 + b"\r\n"
        with pytest.raises(ProtocolError) as info:
            _parse(b"GET / HTTP/1.1\r\n" + filler + b"\r\n")
        assert info.value.status == 431

    def test_oversized_body_is_413_before_buffering(self):
        raw = (b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        with pytest.raises(ProtocolError) as info:
            _parse(raw)
        assert info.value.status == 413

    def test_bad_content_length_is_400(self):
        with pytest.raises(ProtocolError) as info:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n")
        assert info.value.status == 400

    def test_chunked_request_body_is_411(self):
        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        with pytest.raises(ProtocolError) as info:
            _parse(raw)
        assert info.value.status == 411

    def test_non_object_json_is_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n[42]"
        with pytest.raises(ProtocolError):
            _parse(raw).json()

    def test_response_bytes_framing(self):
        data = response_bytes(429, {"error": "shed"},
                              {"Retry-After": "7"})
        text = data.decode()
        assert text.startswith("HTTP/1.1 429 ")
        assert "Retry-After: 7" in text
        assert "Connection: close" in text
        head, _, body = text.partition("\r\n\r\n")
        assert f"Content-Length: {len(body)}" in head

    def test_budget_code_mapping(self):
        assert _budget_code("wall_clock") == "SKOP602"
        assert _budget_code("contexts") == "SKOP603"
        assert _budget_code("expr_nodes") == "SKOP601"
        assert _budget_code("expr_depth") == "SKOP601"


# -- integration: one live server per class ------------------------------------

@pytest.fixture(scope="module")
def server():
    handle = start_in_thread(ServiceConfig(
        port=0, dispatchers=2, queue_limit=16, chunk_cells=4))
    yield handle
    handle.stop()


class TestServiceEndpoints:
    def test_healthz(self, server):
        status, _, body = http_json(server.port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["breaker"] == "closed"

    def test_unknown_route_is_404(self, server):
        status, _, _ = http_json(server.port, "GET", "/nope")
        assert status == 404

    def test_malformed_json_is_400_with_diagnostic(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("POST", "/analyze", body=b"{nope")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["diagnostics"][0]["code"] == "SKOP712"

    def test_unknown_workload_is_400(self, server):
        status, _, body = http_json(server.port, "POST", "/analyze",
                                    {"workload": "warp-drive"})
        assert status == 400
        assert "unknown workload" in body["error"]

    def test_analyze_matches_direct_projection(self, server):
        status, _, body = http_json(server.port, "POST", "/analyze",
                                    {"workload": "pedagogical"})
        assert status == 200 and body["status"] == "ok"
        from repro.analysis.sensitivity import project_machine
        program, inputs = load_workload("pedagogical")
        bet = build_bet(program, inputs=inputs)
        direct = project_machine(bet, machine_by_name("bgq"))
        assert body["runtime_seconds"] == direct["runtime"]
        assert body["top_spot"] == direct["top_label"]

    def test_explore_endpoint_returns_frontier(self, server):
        # objectives accepts both the CLI's comma-separated string and
        # a JSON list; the default objective is plain "runtime"
        params = {"bandwidth": [1e10, 2e10, 4e10, 8e10],
                  "cores": [4.0, 8.0, 16.0, 32.0]}
        for objectives in ("runtime,bandwidth:min",
                           ["runtime", "bandwidth:min"]):
            status, _, body = http_json(
                server.port, "POST", "/explore",
                {"workload": "pedagogical", "params": params,
                 "objectives": objectives, "budget": 8, "rounds": 2,
                 "seed": 3})
            assert status == 200, body
            assert body["status"] == "ok"
            assert body["frontier"]
        status, _, body = http_json(
            server.port, "POST", "/explore",
            {"workload": "pedagogical", "params": params,
             "budget": 8, "rounds": 2})
        assert status == 200, body  # default objectives must be valid
        status, _, body = http_json(
            server.port, "POST", "/explore",
            {"workload": "pedagogical", "params": params,
             "objectives": [1, 2]})
        assert status == 400
        assert body["diagnostics"][0]["code"] == "SKOP712"

    def test_sweep_bit_identical_to_direct(self, server):
        grid = {"bandwidth": [1e10, 2e10], "cores": [8, 16]}
        status, _, body = http_json(
            server.port, "POST", "/sweep",
            {"workload": "pedagogical", "params": grid})
        assert status == 200 and body["status"] == "ok"
        assert not body["degraded"]
        direct = direct_grid_points("pedagogical", grid)
        assert json.dumps(body["points"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_input_axis_sweep_bit_identical(self, server):
        grid = {"input:n": [500.0, 1000.0, 2000.0]}
        status, _, body = http_json(
            server.port, "POST", "/sweep",
            {"workload": "pedagogical", "params": grid})
        assert status == 200
        direct = direct_grid_points("pedagogical", grid)
        assert json.dumps(body["points"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_streamed_sweep_events(self, server):
        grid = {"cores": [8, 16, 32]}
        events = http_stream(server.port, "/sweep",
                             {"workload": "pedagogical", "params": grid,
                              "stream": True})
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start" and kinds[-1] == "summary"
        assert kinds.count("point") == 3
        summary = events[-1]
        assert summary["status"] == "ok"
        streamed = [event["point"] for event in events
                    if event["event"] == "point"]
        assert streamed == summary["points"]

    def test_cell_cap_is_413(self, server):
        status, _, body = http_json(
            server.port, "POST", "/sweep",
            {"workload": "pedagogical",
             "params": {"cores": list(range(1, 1001))}})
        assert status == 413
        assert "exceed" in body["error"]

    def test_statsz_reports_tenant_cache_occupancy(self, server):
        for tenant in ("alice", "bob"):
            status, _, _ = http_json(
                server.port, "POST", "/analyze",
                {"workload": "pedagogical", "tenant": tenant,
                 "inputs": {"n": 512 if tenant == "alice" else 256}})
            assert status == 200
        status, _, stats = http_json(server.port, "GET", "/statsz")
        assert status == 200
        occupancy = stats["caches"]["bet"]["occupancy"]
        assert occupancy.get("alice", 0) >= 1
        assert occupancy.get("bob", 0) >= 1
        assert stats["queue"]["limit"] == 16
        assert stats["breaker"]["state"] == "closed"
        assert stats["counters"]["analyze_total"] >= 2

    def test_checkpoint_without_dir_is_400(self, server):
        status, _, body = http_json(
            server.port, "POST", "/sweep",
            {"workload": "pedagogical", "params": {"cores": [8]},
             "checkpoint": "ck"})
        assert status == 400
        assert "checkpoint" in body["error"]

    def test_chaos_disabled_by_default(self, server):
        status, _, body = http_json(
            server.port, "POST", "/sweep",
            {"workload": "pedagogical", "params": {"cores": [8]},
             "chaos": {"seed": 1}})
        assert status == 400
        assert "chaos" in body["error"]


class TestLoadShedding:
    def test_http_429_with_retry_after_when_saturated(self):
        handle = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, queue_limit=1,
            default_deadline_s=30.0))
        service = handle.service
        original = service._evaluate_chunk
        busy = threading.Event()
        release = threading.Event()

        def gated(plan, cells, degraded, chunk_index):
            busy.set()
            release.wait(timeout=20.0)
            return original(plan, cells, degraded, chunk_index)

        service._evaluate_chunk = gated
        results = {}

        def sweep(tag):
            results[tag] = http_json(
                handle.port, "POST", "/sweep",
                {"workload": "pedagogical", "params": {"cores": [8]}})

        try:
            blocker = threading.Thread(target=sweep, args=("blocker",))
            blocker.start()
            assert busy.wait(10.0)        # dispatcher is now occupied
            queued = threading.Thread(target=sweep, args=("queued",))
            queued.start()
            assert wait_until(
                lambda: service.admission.depth() == 1)
            status, headers, body = http_json(
                handle.port, "POST", "/analyze",
                {"workload": "pedagogical"})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["diagnostics"][0]["code"] == "SKOP710"
            assert body["retry_after_seconds"] >= 1
        finally:
            release.set()
            blocker.join(20.0)
            queued.join(20.0)
        # the shed never hurt admitted work
        assert results["blocker"][0] == 200
        assert results["queued"][0] == 200
        _, _, stats = http_json(handle.port, "GET", "/statsz")
        assert stats["queue"]["shed_total"] >= 1
        handle.stop()

    def test_coalesced_sweeps_share_one_batch(self):
        handle = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, queue_limit=16))
        service = handle.service
        original = service._evaluate_chunk
        busy = threading.Event()
        release = threading.Event()
        first = threading.Event()

        def gated(plan, cells, degraded, chunk_index):
            if not first.is_set():
                first.set()
                busy.set()
                release.wait(timeout=20.0)
            return original(plan, cells, degraded, chunk_index)

        service._evaluate_chunk = gated
        grid = {"cores": [8, 16]}
        payload = {"workload": "pedagogical", "params": grid}
        results = {}

        def call(tag, tenant):
            results[tag] = http_json(
                handle.port, "POST", "/sweep",
                dict(payload, tenant=tenant))

        try:
            blocker = threading.Thread(
                target=call, args=("blocker", "z"))
            blocker.start()
            assert busy.wait(10.0)
            a = threading.Thread(target=call, args=("a", "alice"))
            b = threading.Thread(target=call, args=("b", "bob"))
            a.start(), b.start()
            assert wait_until(
                lambda: service.admission.depth() == 2)
        finally:
            release.set()
        for thread in (blocker, a, b):
            thread.join(20.0)
        direct = direct_grid_points("pedagogical", grid)
        for tag in ("a", "b"):
            status, _, body = results[tag]
            assert status == 200
            assert body["coalesced"] is True
            assert json.dumps(body["points"], sort_keys=True) == \
                json.dumps(direct, sort_keys=True)
        assert service.counters.get("coalesced_batches", 0) >= 1
        handle.stop()


class TestDegradedMode:
    def _service_and_request(self, config=None, payload=None):
        service = AnalysisService(config or ServiceConfig(
            breaker_threshold=1, chunk_cells=4))
        request = ServiceRequest(
            kind="sweep", tenant="t",
            payload=payload or {"workload": "pedagogical",
                                "params": {"cores": [8, 16]}})
        request.id = 1
        request.plan = service._resolve_sweep(request)
        return service, request

    def test_breaker_trips_and_serves_degraded_exactly(self):
        service, request = self._service_and_request()
        original = service._evaluate_chunk

        def broken(plan, cells, degraded, chunk_index):
            if not degraded:
                raise RuntimeError("worker pool broke")
            return original(plan, cells, degraded, chunk_index)

        service._evaluate_chunk = broken

        async def run():
            request.out = asyncio.Queue(maxsize=64)
            request.deadline = None
            await service._run_sweep_group([request])
            return await request.out.get()

        kind, status, body = asyncio.run(run())
        assert (kind, status) == ("done", 200)
        assert body["status"] == "degraded" and body["degraded"]
        assert [d["code"] for d in body["diagnostics"]] == ["SKOP713"]
        assert service.breaker.state == OPEN
        # every point is marked AND matches the documented fallback
        # (in-process constant-cache model) exactly
        direct = direct_grid_points("pedagogical", {"cores": [8, 16]})
        for point, reference in zip(body["points"], direct):
            assert point.pop("degraded") is True
            assert json.dumps(point, sort_keys=True) == \
                json.dumps(reference, sort_keys=True)

    def test_deadline_expiry_returns_partial_with_skop711(self):
        service, request = self._service_and_request()

        async def run():
            request.out = asyncio.Queue(maxsize=64)
            request.deadline = 0.0       # already expired
            await service._run_sweep_group([request])
            return await request.out.get()

        kind, status, body = asyncio.run(run())
        assert (kind, status) == ("done", 200)
        assert body["status"] == "partial"
        assert body["points"] == []
        assert "SKOP711" in [d["code"] for d in body["diagnostics"]]

    def test_slow_client_buffer_overflow_drops_with_skop714(self):
        service, request = self._service_and_request()
        request.stream = True
        request.out = asyncio.Queue(maxsize=2)
        for index in range(4):
            service._emit_line(request, {"event": "point",
                                         "index": index})
        assert request.dropped
        assert service.counters["slow_client_drops"] == 1
        assert service.sink.by_code("SKOP714")


class TestSlowClientIntegration:
    def test_disconnected_reader_does_not_hurt_the_server(self):
        handle = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, chunk_cells=1,
            write_timeout_s=2.0, client_buffer_chunks=2))
        payload = json.dumps({
            "workload": "pedagogical", "stream": True,
            "params": {"bandwidth": [1e10, 2e10, 3e10],
                       "cores": [8, 16]}}).encode()
        sock = socket.create_connection(("127.0.0.1", handle.port),
                                        timeout=10)
        sock.sendall(
            b"POST /sweep HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload) + payload)
        sock.recv(256)               # read a little of the stream…
        sock.close()                 # …then vanish mid-response
        # the server must shrug this off and stay fully available
        assert wait_until(lambda: http_json(
            handle.port, "GET", "/healthz")[0] == 200)
        status, _, body = http_json(
            handle.port, "POST", "/sweep",
            {"workload": "pedagogical", "params": {"cores": [8]}})
        assert status == 200 and body["status"] == "ok"
        handle.stop()


# -- graceful drain across a restart (ISSUE satellite) -------------------------

SERVER_SCRIPT = """
import asyncio, sys, time
sys.path.insert(0, {src!r})
from repro.service import AnalysisService, ServiceConfig

service = AnalysisService(ServiceConfig(
    port=0, dispatchers=1, chunk_cells=1, checkpoint_dir={ckpt!r}))
_original = service._evaluate_chunk

def slow(plan, cells, degraded, chunk_index):
    time.sleep({delay})
    return _original(plan, cells, degraded, chunk_index)

service._evaluate_chunk = slow

async def main():
    ready = asyncio.Event()
    task = asyncio.ensure_future(service.serve(ready=ready))
    await ready.wait()
    print(service.port, flush=True)
    await task

asyncio.run(main())
"""


class TestGracefulDrain:
    def _spawn(self, tmp_path, delay):
        script = tmp_path / "server.py"
        script.write_text(SERVER_SCRIPT.format(
            src=SRC, ckpt=str(tmp_path / "ckpts"), delay=delay))
        os.makedirs(tmp_path / "ckpts", exist_ok=True)
        process = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            text=True)
        port = int(process.stdout.readline())
        return process, port

    def test_sigterm_checkpoints_then_restart_resumes_bit_identically(
            self, tmp_path):
        grid = {"bandwidth": [1e10, 2e10, 3e10], "cores": [8, 16]}
        payload = {"workload": "pedagogical", "params": grid,
                   "checkpoint": "drainck", "stream": True}

        process, port = self._spawn(tmp_path, delay=0.4)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=60)
            conn.request("POST", "/sweep",
                         body=json.dumps(payload).encode())
            response = conn.getresponse()
            events = []
            for line in response:
                line = line.strip()
                if not line:
                    continue
                events.append(json.loads(line))
                if (events[-1].get("event") == "point"
                        and process.poll() is None
                        and not any(e.get("event") == "diagnostic"
                                    for e in events)):
                    process.send_signal(signal.SIGTERM)
            conn.close()
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
        summary = events[-1]
        assert summary["event"] == "summary"
        assert summary["status"] == "partial"
        assert "SKOP715" in [d["code"]
                             for d in summary["diagnostics"]]
        assert summary["checkpointed"] is True
        done = len(summary["points"])
        assert 0 < done < 6
        assert os.path.exists(tmp_path / "ckpts" / "drainck")

        # a fresh server resumes the same checkpoint and completes the
        # sweep bit-identically to a never-interrupted direct run
        process, port = self._spawn(tmp_path, delay=0.0)
        try:
            status, _, body = http_json(
                port, "POST", "/sweep",
                {"workload": "pedagogical", "params": grid,
                 "checkpoint": "drainck", "resume": True},
                timeout=120)
            assert status == 200 and body["status"] == "ok"
            direct = direct_grid_points("pedagogical", grid)
            assert json.dumps(body["points"], sort_keys=True) == \
                json.dumps(direct, sort_keys=True)
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0


SERVE_CLI_SCRIPT = """
import multiprocessing, sys
sys.path.insert(0, {src!r})
from repro import cli
status = cli.main(["serve", "--port", "{port}", "--workers", "2"])
# the drain has run: every pool worker must already be gone
print(len(multiprocessing.active_children()), flush=True)
sys.exit(status)
"""


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _answers(port):
    try:
        return http_json(port, "GET", "/healthz", timeout=2.0)[0] == 200
    except OSError:
        return False


class TestWarmPoolServed:
    def test_sweeps_share_one_pool_and_drain_releases_it(self, tmp_path):
        port = _free_port()
        script = tmp_path / "serve.py"
        script.write_text(SERVE_CLI_SCRIPT.format(src=SRC, port=port))
        process = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            assert wait_until(lambda: _answers(port), timeout=60.0)
            # two lane groups of 64 cells: each request fans out to the
            # pool in one engine call
            grid = {"bandwidth": [1e10, 2e10],
                    "input:n": [float(n) for n in range(8, 72)]}
            for _ in range(2):
                status, _, body = http_json(
                    port, "POST", "/sweep",
                    {"workload": "pedagogical", "params": grid},
                    timeout=120)
                assert status == 200 and body["status"] == "ok"
                assert len(body["points"]) == 128
            status, _, stats = http_json(port, "GET", "/statsz")
            assert status == 200
            assert stats["counters"]["executor_pool_starts"] == 1
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert out.split() == ["0"]


# -- CLI -----------------------------------------------------------------------

class TestServeCommand:
    def test_serve_registered_with_resilience_flags(self, capsys):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--queue-limit", "8",
             "--breaker-threshold", "2", "--checkpoint-dir", "/tmp/x",
             "--allow-chaos"])
        assert args.command == "serve"
        assert args.queue_limit == 8
        assert args.breaker_threshold == 2
        assert args.allow_chaos is True

    def test_serve_accepts_warm_cache_flag(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--warm-cache", "/tmp/warm.json"])
        assert args.warm_cache == "/tmp/warm.json"


# -- warm cache + lane counters (ISSUE 10 satellites) -------------------------

class TestWarmCache:
    def test_drain_snapshots_and_restart_prewarms(self, tmp_path):
        path = str(tmp_path / "warm.json")
        first = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, warm_cache_path=path))
        try:
            status, _, body = http_json(
                first.port, "POST", "/analyze",
                {"workload": "pedagogical"},
                headers={"X-Tenant": "acme"})
            assert status == 200 and body["status"] == "ok"
        finally:
            first.stop()
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["version"] == 1
        assert any(entry.get("workload") == "pedagogical"
                   and entry.get("tenant") == "acme"
                   for entry in snapshot["entries"])
        assert first.service.counters["warm_cache_saved"] >= 1

        second = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, warm_cache_path=path))
        try:
            status, _, stats = http_json(second.port, "GET", "/statsz")
            assert status == 200
            warm = stats["warm_cache"]
            assert warm["loaded"] >= 1
            assert warm["errors"] == 0
            # the BET cache is hot before the first request arrives
            assert sum(stats["caches"]["bet"]["occupancy"]
                       .values()) >= 1
        finally:
            second.stop()
        # a drain with no fresh traffic still re-snapshots the entries
        with open(path, "r", encoding="utf-8") as handle:
            resnap = json.load(handle)
        assert any(entry.get("workload") == "pedagogical"
                   for entry in resnap["entries"])

    def test_corrupt_snapshot_never_blocks_startup(self, tmp_path):
        path = str(tmp_path / "warm.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{nope")
        handle = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, warm_cache_path=path))
        try:
            status, _, body = http_json(handle.port, "GET", "/statsz")
            assert status == 200
            assert body["warm_cache"]["errors"] >= 1
        finally:
            handle.stop()


class TestLaneCountersServed:
    def test_vector_sweep_reports_lane_counters(self, tmp_path):
        handle = start_in_thread(ServiceConfig(
            port=0, dispatchers=1, chunk_cells=4,
            max_cells_per_request=512))
        try:
            grid = {"bandwidth": [1e10, 2e10],
                    "input:n": [float(n) for n in range(8, 72)]}
            status, _, body = http_json(
                handle.port, "POST", "/sweep",
                {"workload": "pedagogical", "params": grid},
                timeout=120)
            assert status == 200 and body["status"] == "ok"
            assert len(body["points"]) == 128
            status, _, stats = http_json(handle.port, "GET", "/statsz")
            assert status == 200
            lanes = stats["lanes"]
            assert lanes["lanes_vectorized"] >= 128
            assert lanes["lane_groups"] >= 2
            # vector-eligible batches step past chunk_cells: far fewer
            # chunks than the 128/4 the scalar stride would take
            direct = direct_grid_points("pedagogical", grid)
            assert json.dumps(body["points"], sort_keys=True) == \
                json.dumps(direct, sort_keys=True)
        finally:
            handle.stop()
