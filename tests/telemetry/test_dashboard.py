"""Dashboard machinery: SSE framing, the event relay, and the server.

The relay and framing tests are tier-1 (no sockets); the
:class:`~repro.telemetry.dashboard.DashboardServer` end-to-end tests bind
real localhost sockets and live in the opt-in ``serve`` lane.
"""

import asyncio
import json
import socket
import urllib.request

import pytest

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.dashboard import (
    DASHBOARD_HTML,
    DashboardServer,
    EventRelay,
    format_sse,
)


def test_format_sse_framing():
    frame = format_sse("point_finished", {"a": 1, "b": "x"}).decode("utf-8")
    lines = frame.splitlines()
    assert lines[0] == "event: point_finished"
    assert lines[1].startswith("data: ")
    assert json.loads(lines[1][len("data: "):]) == {"a": 1, "b": "x"}
    assert frame.endswith("\n\n")


def test_dashboard_html_is_self_contained():
    assert "<script" in DASHBOARD_HTML
    assert "EventSource" in DASHBOARD_HTML
    assert "/v1/events" in DASHBOARD_HTML
    assert "/v1/telemetry" in DASHBOARD_HTML
    # Zero external assets: no http(s) URLs outside the page's own routes.
    assert "https://" not in DASHBOARD_HTML
    assert "http://" not in DASHBOARD_HTML


def test_relay_merges_local_bus_and_feeds_aggregator():
    bus = TelemetryBus(role="serve")
    relay = EventRelay(local_bus=bus)
    subscription = relay.subscribe(maxlen=16)
    bus.publish("point_finished", key="p1", reused=False)
    events = subscription.drain()
    assert [event.type for event in events] == ["point_finished"]
    assert relay.snapshot()["sweep"]["done"] == 1
    relay.close()
    # Closed relay no longer consumes the local bus.
    bus.publish("point_finished", key="p2", reused=False)
    assert relay.snapshot()["sweep"]["done"] == 1


def test_relay_does_not_double_count_own_spool(tmp_path):
    """Own events arrive via the bus; the follower must skip our file."""
    bus = TelemetryBus(role="serve")
    bus.attach_spool(str(tmp_path), role="serve")
    # Trailing slash: the own-file skip must normalize paths, not compare
    # the raw strings.
    relay = EventRelay(local_bus=bus, spool_dir=str(tmp_path) + "/")
    bus.publish("point_finished", key="own", reused=False)
    relay.poll()  # would re-ingest the spooled copy if not skipped
    assert relay.snapshot()["sweep"]["done"] == 1
    # A peer's spool file IS followed.
    peer = TelemetryBus(role="peer")
    peer.attach_spool(str(tmp_path), role="peer")
    peer.publish("point_finished", key="peer", reused=False)
    relay.poll()
    assert relay.snapshot()["sweep"]["done"] == 2
    bus.detach_spool()
    peer.detach_spool()
    relay.close()


# ---------------------------------------------------------------------------
# DashboardServer end-to-end (real sockets: opt-in serve lane)
# ---------------------------------------------------------------------------


def _run_dash(spool_dir, actions):
    """Start a DashboardServer on port 0, run ``actions(port)`` off-loop."""

    async def main():
        server = DashboardServer(spool_dir=spool_dir, port=0, poll_s=0.05)
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, actions, server.port)
        finally:
            await server.stop()

    return asyncio.run(main())


@pytest.mark.serve
def test_dashboard_server_routes(tmp_path):
    writer = TelemetryBus(role="sweep")
    writer.attach_spool(str(tmp_path), role="sweep")
    writer.publish("sweep_started", points=2)
    writer.publish("point_finished", key="p1", model="resnet18", reused=False)

    def actions(port):
        base = f"http://127.0.0.1:{port}"
        html = urllib.request.urlopen(f"{base}/dashboard", timeout=10).read()
        assert b"repro telemetry" in html
        health = json.load(urllib.request.urlopen(f"{base}/healthz", timeout=10))
        assert health == {"status": "ok"}
        # The follower needs one poll interval to ingest the spool.
        deadline = 50
        for _ in range(deadline):
            snapshot = json.load(
                urllib.request.urlopen(f"{base}/v1/telemetry", timeout=10)
            )
            if snapshot["sweep"]["done"] == 1:
                break
            import time

            time.sleep(0.05)
        assert snapshot["sweep"]["total"] == 2
        assert snapshot["sweep"]["done"] == 1
        with urllib.request.urlopen(f"{base}/missing", timeout=10) as _:
            pass

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _run_dash(str(tmp_path), actions)
    assert excinfo.value.code == 404
    writer.detach_spool()


@pytest.mark.serve
def test_dashboard_server_sse_stream(tmp_path):
    writer = TelemetryBus(role="sweep")
    writer.attach_spool(str(tmp_path), role="sweep")
    writer.publish("point_finished", key="p0", reused=False)

    def actions(port):
        connection = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/events", timeout=10
        )
        assert connection.headers["Content-Type"] == "text/event-stream"
        # Frame 1 is the snapshot (possibly empty -- the follower may not
        # have polled yet); the spooled events then stream live.
        writer.publish("point_finished", key="p1", reused=True)
        frames = []
        current = []
        seen_keys = []
        while "p1" not in seen_keys:
            line = connection.readline().decode("utf-8")
            if line.startswith(":"):
                continue
            if line.strip():
                current.append(line.strip())
                continue
            if current:
                frames.append(current)
                if current[0] == "event: point_finished":
                    event = json.loads(current[1][len("data: "):])
                    seen_keys.append(event["data"]["key"])
                current = []
        assert frames[0][0] == "event: snapshot"
        snapshot = json.loads(frames[0][1][len("data: "):])
        # p0 arrives exactly once: either folded into the opening snapshot
        # (the follower polled before this connection subscribed) or as a
        # live frame ahead of p1 -- never both, never dropped.
        if seen_keys == ["p1"]:
            assert snapshot["sweep"]["done"] == 1
        else:
            assert seen_keys == ["p0", "p1"]
        connection.close()

    _run_dash(str(tmp_path), actions)
    writer.detach_spool()


@pytest.mark.serve
def test_dashboard_server_enforces_the_header_cap(tmp_path):
    """The dashboard runs on the hardened core: >32 KiB of headers is 431."""

    def actions(port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"GET /dashboard HTTP/1.1\r\nHost: x\r\nX-Big: "
                + b"a" * (40 * 1024) + b"\r\n\r\n"
            )
            return sock.makefile("rb").readline()

    status_line = _run_dash(str(tmp_path), actions)
    assert status_line.split()[1] == b"431"


def test_relay_corruption_counts_survive_restart(tmp_path):
    """`corrupt_lines` is an operator-facing damage odometer (and an alert
    input): a follower restart must not reset it to zero."""
    from repro.telemetry.bus import Event

    def spool_file(name, lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines))
        return path

    good = Event(
        "point_finished", at=1.0, source={"pid": 999}, seq=0,
        data={"key": "p", "reused": False},
    ).to_json()
    damaged = spool_file("peer-11.jsonl", [good, "{not json", "%% nope"])

    relay = EventRelay(spool_dir=str(tmp_path), stats_name="shard0")
    relay.poll()
    assert relay.corruption_stats()["corrupt_lines"] == 2
    relay.close()

    damaged.unlink()  # even the damaged file itself disappearing...

    relay2 = EventRelay(spool_dir=str(tmp_path), stats_name="shard0")
    relay2.poll()
    assert relay2.corruption_stats()["corrupt_lines"] == 2  # ...is remembered
    spool_file("other-12.jsonl", ["garbage"])
    relay2.poll()
    stats = relay2.snapshot()["spool"]
    assert stats["corrupt_lines"] == 3  # cumulative across the restart
    assert stats["session_corrupt_lines"] == 1  # this follower saw only one
    relay2.close()

    # A third relay under a *different* name starts from its own baseline.
    relay3 = EventRelay(spool_dir=str(tmp_path), stats_name="other")
    relay3.poll()
    assert relay3.corruption_stats()["corrupt_lines"] == 1
    relay3.close()
