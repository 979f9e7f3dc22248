"""Trace propagation across the cluster boundary (in-process agent).

The wire contract mirrors ``X-Trace-Id`` on HTTP: a transport carries
its trace id on every frame, the hub hands the trace to workers through
the hello meta, and a worker adopts it -- the same trace id on both
sides of the machine gap, with the hub's ``sweep_hub`` root span and
the workers' ``remote_lease`` children folding into one waterfall.
"""

from __future__ import annotations

import pytest

from repro.cluster import worker as worker_module
from repro.cluster.agent import ClusterAgent
from repro.cluster.transport import SocketTransport
from repro.cluster.worker import RemoteWorker, SweepHub
from repro.eval.sweep import SweepPoint, point_runner
from repro.telemetry import bus as telemetry_bus
from repro.telemetry.tracing import new_span_id, new_trace_id
from tests.conftest import SteppedWallClock

pytestmark = pytest.mark.trace


@point_runner("trace-noop")
def _noop_point(ctx, point):
    return {"x": point.param("x")}


@pytest.fixture
def agent(tmp_path):
    spaces = {
        name: str(tmp_path / name)
        for name in ("exchange", "telemetry", "points")
    }
    agent = ClusterAgent(spaces, node="hub", stale_after_s=5.0)
    agent.start_in_thread()
    yield agent
    agent.stop()


def _capture_spans(name: str):
    """``(spans, unsubscribe)``: the ``span`` events named ``name``."""
    spans: list[dict] = []
    bus = telemetry_bus.get_bus()

    def collect(event):
        if event.data.get("name") == name:
            spans.append(dict(event.data))

    callback = bus.subscribe(callback=collect, types={"span"})
    return spans, lambda: bus.unsubscribe(callback)


def _capture_requests(agent) -> list[dict]:
    captured: list[dict] = []
    original = agent.handle

    def handle(request):
        captured.append(dict(request))
        return original(request)

    agent.handle = handle
    return captured


def test_transport_stamps_every_frame_with_its_trace_id(agent):
    captured = _capture_requests(agent)
    transport = SocketTransport(agent.address, node="w1")
    try:
        transport.ping()
        assert "trace_id" not in captured[-1]  # untraced by default

        transport.trace_id = "feedfacecafef00d"
        transport.ping()
        transport.hello()
        transport.doc_put("exchange", "x.json", {"x": 1})
        stamped = [r for r in captured if r.get("trace_id")]
        assert len(stamped) == 3
        assert all(r["trace_id"] == "feedfacecafef00d" for r in stamped)

        # An explicit per-call trace id wins over the transport's.
        transport.call("ping", trace_id="0123456789abcdef")
        assert captured[-1]["trace_id"] == "0123456789abcdef"
    finally:
        transport.close()


def test_worker_adopts_the_hub_trace_from_hello_meta(agent):
    trace_id = new_trace_id()
    agent.meta = {
        "kind": "sweep",
        "session": "s1",
        "scale": "fast",
        "resume": False,
        "telemetry": False,
        "trace_id": trace_id,
        "span_id": new_span_id(),
    }
    captured = _capture_requests(agent)
    worker = RemoteWorker(
        agent.address, node="w1", max_idle_s=0.3, idle_poll_s=0.05
    )
    worker.run()  # no offered points: connects, idles out, exits

    # The worker adopted the hub's trace and stamped its lease polls.
    assert worker.transport.trace_id == trace_id
    leases = [r for r in captured if r.get("op") == "lease_next"]
    assert leases, "worker never polled for work"
    assert all(r.get("trace_id") == trace_id for r in leases)


def test_sweep_hub_mints_a_trace_and_publishes_its_root_span(tmp_path):
    from repro.eval.sweep import SweepSession

    session = SweepSession(
        scale="fast", workers=1, store_root=str(tmp_path / "store")
    )
    spans: list[dict] = []
    bus = telemetry_bus.get_bus()
    callback = bus.subscribe(
        callback=lambda event: spans.append(dict(event.data)),
        types={"span"},
    )
    try:
        hub = SweepHub.create(session, listen="127.0.0.1:0")
        assert hub.trace_id and hub.root_span_id

        # The meta a connecting worker sees names the same trace.
        transport = SocketTransport(hub.address, node="probe")
        try:
            meta = transport.hello()["meta"]
        finally:
            transport.close()
        assert meta["trace_id"] == hub.trace_id
        assert meta["span_id"] == hub.root_span_id

        hub.close()
        roots = [s for s in spans if s.get("name") == "sweep_hub"]
        assert len(roots) == 1
        assert roots[0]["trace_id"] == hub.trace_id
        assert roots[0]["span_id"] == hub.root_span_id
        assert roots[0]["parent_id"] is None
        assert roots[0]["duration_ms"] >= 0.0
    finally:
        bus.unsubscribe(callback)


def test_sweep_hub_span_duration_ignores_wall_clock_steps(agent, monkeypatch):
    monkeypatch.setattr(worker_module, "time", SteppedWallClock())
    spans, unsubscribe = _capture_spans("sweep_hub")
    try:
        hub = SweepHub(
            agent, trace_id=new_trace_id(), root_span_id=new_span_id()
        )
        hub.close()
    finally:
        unsubscribe()
    (span,) = spans
    assert span["start"] == 1_000_000.0
    assert 0.0 <= span["duration_ms"] < 60_000.0


def test_remote_lease_span_duration_ignores_wall_clock_steps(
    agent, monkeypatch
):
    agent.meta = {
        "kind": "sweep",
        "session": "s1",
        "scale": "fast",
        "resume": False,
        "telemetry": False,
        "trace_id": new_trace_id(),
        "span_id": new_span_id(),
    }
    point = SweepPoint.make("trace-noop", None, x=1)
    agent.ledger.offer([{"spec": point.spec(), "cost": point.cost}])
    monkeypatch.setattr(worker_module, "time", SteppedWallClock())
    spans, unsubscribe = _capture_spans("remote_lease")
    try:
        worker = RemoteWorker(
            agent.address, node="w1", max_idle_s=0.3, idle_poll_s=0.05
        )
        worker.run()
    finally:
        unsubscribe()
    assert worker.completed_points == 1
    (span,) = spans
    assert span["status"] == "ok"
    assert 0.0 <= span["duration_ms"] < 60_000.0
