"""SSE event streaming and the zero-dependency HTML dashboard.

Two surfaces mount the same :func:`telemetry_route` (``/dashboard``,
``/v1/events`` SSE, ``/v1/telemetry``, ``/v1/traces``), both on the one
hardened HTTP core, :class:`repro.utils.httpcore.HttpCore`:

* The serving front-end (:mod:`repro.serve.server`), relaying the
  process-local telemetry bus plus -- when sharded -- every peer shard's
  event spool.
* ``repro.cli dash``'s standalone :class:`DashboardServer` over a spool
  *directory* (a live sweep's or a sharded service's), so sweeps get a
  dashboard without any serving stack at all.

An :class:`EventRelay` is the common core: it merges the local bus with a
:class:`~repro.telemetry.bus.SpoolFollower` (skipping the process's own
spool file to avoid double-delivery), feeds every event through a
:class:`~repro.telemetry.timeseries.TelemetryAggregator`, and fans out to
per-connection SSE subscriptions.  An SSE stream opens with one
``snapshot`` frame (the aggregator's full current state) followed by live
events, so a dashboard reconnecting mid-run renders instantly instead of
replaying history.

The dashboard page itself is a single self-contained HTML document --
inline CSS and JS, no external assets -- rendering sweep progress (points
done/total, reuse hits, ETA, per-model table), per-endpoint serving
health (recent p99 against the latency budget, goodput, shed counts) and
the per-shard operating-point timelines.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.cluster.documents import DocumentStore
from repro.telemetry.bus import SpoolFollower, TelemetryBus, get_bus
from repro.telemetry.timeseries import TelemetryAggregator
from repro.utils.httpcore import Handoff, HttpCore, HttpError, RawBody


def format_sse(event_type: str, payload: dict) -> bytes:
    """One Server-Sent-Events frame (``event:`` + ``data:`` lines)."""
    data = json.dumps(payload, separators=(",", ":"))
    return f"event: {event_type}\ndata: {data}\n\n".encode("utf-8")


def _normalize_spool_basename(basename: str) -> str:
    """Fold a rotated generation (``*.jsonl.old``) onto its spool name."""
    return basename.removesuffix(".old")


class EventRelay:
    """Local bus + peer spools, merged, aggregated, and fanned out."""

    def __init__(
        self,
        local_bus: TelemetryBus | None = None,
        spool_dir: str | None = None,
        aggregator: TelemetryAggregator | None = None,
        stats_name: str | None = None,
    ):
        self.aggregator = aggregator or TelemetryAggregator()
        self._fanout = TelemetryBus(role="relay")
        self._local_bus = local_bus
        self._callback = None
        self._consumers: list = []
        # Cumulative corruption accounting (survives follower restarts).
        # A fresh follower re-reads every file from byte 0, so its live
        # counters restart at whatever corruption still *exists* on disk;
        # per-file max() against the persisted baseline neither loses the
        # pre-restart count nor double-counts re-read corrupt lines.
        # Rotated generations fold onto their spool name first, so a
        # post-rotation file's new corruption adds to (rather than hides
        # behind) the old generation's count.
        self._stats_documents: DocumentStore | None = None
        self._stats_doc: str | None = None
        self._corrupt_baseline: dict[str, int] = {}
        self._last_persisted: dict | None = None
        if spool_dir is not None and stats_name is not None:
            self._stats_documents = DocumentStore.for_directory(str(spool_dir))
            self._stats_doc = f"relay-stats-{stats_name}.json"
            document = self._stats_documents.get(self._stats_doc)
            baseline = (document or {}).get("corrupt_by_file")
            if isinstance(baseline, dict):
                self._corrupt_baseline = {
                    str(name): int(count)
                    for name, count in baseline.items()
                    if isinstance(count, (int, float))
                }
        skip: set[str] = set()
        if (
            local_bus is not None
            and spool_dir is not None
            and local_bus.spool_path is not None
            and os.path.abspath(os.path.dirname(local_bus.spool_path))
            == os.path.abspath(str(spool_dir))
        ):
            # Our own events arrive via the bus callback; following our own
            # spool file too would deliver every one of them twice.
            skip.add(os.path.basename(local_bus.spool_path))
        self.follower = (
            SpoolFollower(spool_dir, skip_basenames=skip)
            if spool_dir is not None
            else None
        )
        if local_bus is not None:
            self._callback = local_bus.subscribe(callback=self.ingest)

    def add_consumer(self, consumer) -> None:
        """Attach an extra per-event consumer (e.g. the alert engine).

        Consumers see every ingested event -- local bus and followed
        spools alike -- and may publish back onto the local bus (the
        alert lifecycle); a consumer raising never breaks the relay.
        """
        self._consumers.append(consumer)

    def ingest(self, event) -> None:
        self.aggregator.consume(event)
        for consumer in list(self._consumers):
            try:
                consumer(event)
            except Exception:  # noqa: BLE001 - consumers never break relaying
                pass
        self._fanout.forward(event)

    def poll(self) -> int:
        """Pull new spool events in; returns how many were ingested."""
        if self.follower is None:
            return 0
        events = self.follower.poll()
        for event in events:
            self.ingest(event)
        return len(events)

    def subscribe(self, **kwargs):
        return self._fanout.subscribe(**kwargs)

    def corruption_stats(self) -> dict:
        """Cumulative corruption counters (survive follower restarts).

        Per normalized file: rotated generations summed within this
        follower's lifetime, then max()-merged against the persisted
        baseline from previous runs (see ``__init__``).  Persists the
        merged counters whenever they change, so the next restart's
        relay starts from here.
        """
        merged = dict(self._corrupt_baseline)
        if self.follower is not None:
            live: dict[str, int] = {}
            by_file = self.follower.stats().get("corrupt_by_file", {})
            for name, count in by_file.items():
                key = _normalize_spool_basename(name)
                live[key] = live.get(key, 0) + int(count)
            for key, count in live.items():
                merged[key] = max(merged.get(key, 0), count)
        cumulative = {
            "corrupt_lines": sum(merged.values()),
            "corrupt_by_file": merged,
        }
        if (
            self._stats_documents is not None
            and cumulative != self._last_persisted
        ):
            try:
                self._stats_documents.put(self._stats_doc, cumulative)
                self._last_persisted = {
                    "corrupt_lines": cumulative["corrupt_lines"],
                    "corrupt_by_file": dict(merged),
                }
            except OSError:  # pragma: no cover - spool dir torn down
                pass
        return cumulative

    def trace_summaries(self, limit: int = 32) -> list[dict]:
        """Newest-first summaries of the traces folded so far."""
        return self.aggregator.trace_summaries(limit=limit)

    def trace_spans(self, trace_id: str) -> list[dict]:
        """One trace's spans (deduped, start-ordered); [] when unknown."""
        return self.aggregator.trace_spans(trace_id)

    def snapshot(self) -> dict:
        snapshot = self.aggregator.snapshot()
        if self.follower is not None:
            stats = dict(self.follower.stats())
            # Keep `corrupt_lines` cumulative across restarts (the alert
            # rules threshold on it); the follower's own session counter
            # stays visible under its own key.
            stats["session_corrupt_lines"] = stats.get("corrupt_lines", 0)
            stats.update(self.corruption_stats())
            snapshot["spool"] = stats
        return snapshot

    def close(self) -> None:
        if self._callback is not None and self._local_bus is not None:
            self._local_bus.unsubscribe(self._callback)
            self._callback = None


_SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n"
    b"\r\n"
)


async def stream_sse(
    writer: asyncio.StreamWriter,
    relay: EventRelay,
    *,
    stopped=lambda: False,
    keepalive_s: float = 10.0,
) -> None:
    """Serve one ``/v1/events`` connection until the client goes away.

    Opens with a ``snapshot`` frame, then streams every relayed event as
    an SSE frame named by its type; quiet periods emit comment keepalives
    so proxies and clients can tell a silent stream from a dead one.
    ``stopped`` lets the owning server end streams on shutdown.
    """
    subscription = relay.subscribe(maxlen=1024)
    loop = asyncio.get_running_loop()
    try:
        writer.write(_SSE_HEAD)
        writer.write(format_sse("snapshot", relay.snapshot()))
        await writer.drain()
        last_write = time.monotonic()
        while not stopped():
            # Wake at most every 0.5s so `stopped()` is honored promptly,
            # but only emit the keepalive comment after `keepalive_s` of
            # actual silence.
            event = await loop.run_in_executor(
                None, subscription.get, min(keepalive_s, 0.5)
            )
            if event is None:
                if time.monotonic() - last_write >= keepalive_s:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    last_write = time.monotonic()
                continue
            writer.write(format_sse(event.type, event.describe()))
            await writer.drain()
            last_write = time.monotonic()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    finally:
        subscription.close()


# The palette below is the validated default data-viz palette (ordinal
# blue ramp for ladder rungs, reserved status colors for budget state);
# rung segments additionally carry their number as text, so rung identity
# is never color-alone.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro telemetry</title>
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --critical: #d03b3b;
  --rung-0: #86b6ef; --rung-1: #5598e7; --rung-2: #2a78d6;
  --rung-3: #1c5cab; --rung-4: #104281;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --rung-0: #86b6ef; --rung-1: #5598e7; --rung-2: #3987e5;
    --rung-3: #256abf; --rung-4: #184f95;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 16px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 16px; margin: 0 0 4px; }
h2 { font-size: 13px; margin: 0 0 8px; color: var(--text-secondary);
  font-weight: 600; text-transform: uppercase; letter-spacing: .04em; }
.sub { color: var(--muted); font-size: 12px; margin-bottom: 16px; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 16px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; min-width: 220px; flex: 1; }
.tiles { display: flex; gap: 18px; flex-wrap: wrap; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .l { font-size: 11px; color: var(--muted); }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--muted); font-weight: 500;
  border-bottom: 1px solid var(--grid); padding: 2px 8px 2px 0; }
td { padding: 3px 8px 3px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
.meter { position: relative; height: 10px; background: var(--grid);
  border-radius: 4px; overflow: hidden; margin-top: 4px; }
.meter .fill { position: absolute; inset: 0 auto 0 0; border-radius: 4px; }
.status { font-size: 12px; font-weight: 600; }
.timeline { position: relative; height: 18px; background: var(--grid);
  border-radius: 4px; overflow: hidden; margin: 3px 0; }
.timeline .seg { position: absolute; top: 0; bottom: 0; color: #fff;
  font-size: 10px; text-align: center; overflow: hidden;
  border-right: 2px solid var(--surface-1); }
.tl-label { font-size: 11px; color: var(--muted); }
#log, #history-strip { background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px; padding: 8px 12px; max-height: 260px; overflow: auto;
  font: 11px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
  color: var(--text-secondary); }
#log .t, #history-strip .t { color: var(--muted); }
.wf-row { display: flex; align-items: center; gap: 8px; font-size: 11px; }
.wf-name { width: 160px; overflow: hidden; text-overflow: ellipsis;
  white-space: nowrap; font-family: ui-monospace, Menlo, monospace; }
.wf-track { position: relative; flex: 1; height: 12px;
  background: var(--grid); border-radius: 3px; overflow: hidden; }
.wf-bar { position: absolute; top: 1px; bottom: 1px; border-radius: 2px;
  background: var(--rung-2); min-width: 2px; }
.wf-bar.err { background: var(--critical); }
.wf-ms { width: 72px; text-align: right; font-size: 11px;
  color: var(--muted); font-variant-numeric: tabular-nums; }
.trace-link { cursor: pointer; text-decoration: underline dotted; }
.dot { display: inline-block; width: 8px; height: 8px; border-radius: 2px;
  margin-right: 6px; vertical-align: baseline; }
</style>
</head>
<body>
<h1>repro telemetry</h1>
<div class="sub" id="status">connecting&hellip;</div>

<div class="cards">
  <div class="card" id="sweep-card">
    <h2>Sweep</h2>
    <div class="tiles">
      <div class="tile"><div class="v" id="sw-done">&ndash;</div>
        <div class="l">points done / total</div></div>
      <div class="tile"><div class="v" id="sw-reuse">&ndash;</div>
        <div class="l">reuse hits</div></div>
      <div class="tile"><div class="v" id="sw-rate">&ndash;</div>
        <div class="l">points / s (30s)</div></div>
      <div class="tile"><div class="v" id="sw-eta">&ndash;</div>
        <div class="l">ETA</div></div>
    </div>
    <div id="sw-models" style="margin-top:10px"></div>
  </div>
  <div class="card" id="alerts-card">
    <h2>Alerts</h2>
    <div class="tiles">
      <div class="tile"><div class="v" id="al-active">&ndash;</div>
        <div class="l">active</div></div>
      <div class="tile"><div class="v" id="al-fired">&ndash;</div>
        <div class="l">fired</div></div>
      <div class="tile"><div class="v" id="al-resolved">&ndash;</div>
        <div class="l">resolved</div></div>
    </div>
    <div id="al-list" style="margin-top:10px"></div>
  </div>
  <div class="card" id="traces-card">
    <h2>Traces</h2>
    <div class="tiles">
      <div class="tile"><div class="v" id="tr-count">&ndash;</div>
        <div class="l">recent traces</div></div>
      <div class="tile"><div class="v" id="tr-spans">&ndash;</div>
        <div class="l">spans seen</div></div>
    </div>
    <div id="tr-list" style="margin-top:10px"></div>
    <div id="tr-waterfall" style="margin-top:10px"></div>
  </div>
</div>

<div class="cards" id="endpoints"></div>

<div class="card" style="margin-bottom:16px" id="history-card" hidden>
  <h2>History</h2>
  <div id="history-strip"></div>
</div>

<div class="card" style="margin-bottom:16px">
  <h2>Event log</h2>
  <div id="log"></div>
</div>

<script>
"use strict";
const RUNGS = ["--rung-0","--rung-1","--rung-2","--rung-3","--rung-4"];
const css = (name) =>
  getComputedStyle(document.documentElement).getPropertyValue(name).trim();
const rungColor = (level) => css(RUNGS[Math.min(level, RUNGS.length - 1)]);
// Event data (endpoint/model names, transition reasons) is untrusted
// input to this page: escape everything interpolated into markup.
const esc = (value) => String(value).replace(/[&<>"']/g, (c) => ({
  "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;",
}[c]));
let state = null;

function fmt(x, digits) {
  if (x === null || x === undefined) return "\\u2013";
  return Number(x).toFixed(digits === undefined ? 1 : digits);
}
function fmtEta(s) {
  if (s === null || s === undefined) return "\\u2013";
  if (s < 90) return Math.round(s) + "s";
  return Math.round(s / 60) + "m";
}

function renderSweep(sw) {
  document.getElementById("sw-done").textContent =
    sw.total ? sw.done + " / " + sw.total : String(sw.done);
  document.getElementById("sw-reuse").textContent = sw.reused;
  document.getElementById("sw-rate").textContent = fmt(sw.points_per_s, 2);
  document.getElementById("sw-eta").textContent =
    sw.finished ? "done" : fmtEta(sw.eta_s);
  const models = Object.keys(sw.per_model || {}).sort();
  if (!models.length) {
    document.getElementById("sw-models").innerHTML = "";
    return;
  }
  let html = "<table><tr><th>model</th><th>done</th><th>reused</th>" +
    "<th>in flight</th></tr>";
  for (const m of models) {
    const e = sw.per_model[m];
    html += "<tr><td>" + esc(m) + "</td><td>" + e.done + "</td><td>" +
      e.reused + "</td><td>" + (e.in_flight || 0) + "</td></tr>";
  }
  document.getElementById("sw-models").innerHTML = html + "</table>";
}

// Seconds of timeline history shown; ?window=N overrides the default.
const WINDOW_S = Math.max(
  10, Number(new URLSearchParams(location.search).get("window")) || 120);

function timelineHtml(segments, now) {
  const t0 = now - WINDOW_S;
  let html = '<div class="timeline">';
  for (const seg of segments) {
    const until = seg.until === null ? now : seg.until;
    if (until < t0) continue;
    // Clamp a segment that predates the window to its left edge *before*
    // deriving geometry, so width and position stay consistent instead of
    // relying on pixel clamping alone.
    const since = Math.max(seg.since, t0);
    const left = (since - t0) / WINDOW_S * 100;
    const width = Math.max(0.5, (until - since) / WINDOW_S * 100);
    const title = "rung " + seg.level +
      (seg.reason ? " \\u2014 " + esc(seg.reason) : "");
    html += '<div class="seg" style="left:' + left + "%;width:" + width +
      "%;background:" + rungColor(seg.level) + '" title="' + title + '">' +
      seg.level + "</div>";
  }
  return html + "</div>";
}

function renderEndpoints(endpoints, coordinator, now) {
  const container = document.getElementById("endpoints");
  const names = Object.keys(endpoints || {}).sort();
  if (!names.length) { container.innerHTML = ""; return; }
  let html = "";
  for (const name of names) {
    const ep = endpoints[name];
    const budget = ep.latency_budget_ms || 0;
    const p99 = ep.recent_p99_ms || 0;
    const over = budget > 0 && p99 > budget;
    const frac = budget > 0 ? Math.min(1, p99 / budget) : 0;
    const statusColor = over ? css("--critical") : css("--good");
    const statusText = budget > 0
      ? (over ? "\\u2715 over budget" : "\\u2713 within budget")
      : "no budget set";
    const rec = (coordinator || {})[name];
    html += '<div class="card"><h2>' + esc(name) + "</h2>" +
      '<div class="tiles">' +
      '<div class="tile"><div class="v">' + fmt(ep.throughput_images_per_s) +
      '</div><div class="l">images / s</div></div>' +
      '<div class="tile"><div class="v">' + fmt(ep.goodput_images_per_s) +
      '</div><div class="l">goodput / s</div></div>' +
      '<div class="tile"><div class="v">' + (ep.rejected_images || 0) +
      '</div><div class="l">shed images</div></div>' +
      '<div class="tile"><div class="v">' + (ep.respawns || 0) +
      '</div><div class="l">respawns</div></div>' +
      "</div>" +
      '<div style="margin-top:8px"><span class="tl-label">p99 ' +
      fmt(p99) + " ms" + (budget ? " / budget " + fmt(budget) + " ms" : "") +
      '</span> <span class="status" style="color:' + statusColor + '">' +
      statusText + "</span>" +
      '<div class="meter"><div class="fill" style="width:' +
      (frac * 100) + "%;background:" + statusColor + '"></div></div></div>';
    const timelines = ep.timelines || {};
    const shards = Object.keys(timelines).sort();
    if (shards.length) {
      html += '<div style="margin-top:8px" class="tl-label">rung timeline ' +
        "(last " + WINDOW_S + "s)" +
        (rec ? " \\u2014 coordinator recommends rung " + rec.level : "") +
        "</div>";
      for (const shard of shards) {
        html += '<div class="tl-label">shard ' + esc(shard) + "</div>" +
          timelineHtml(timelines[shard], now);
      }
    }
    html += "</div>";
  }
  container.innerHTML = html;
}

function renderAlerts(al) {
  al = al || {};
  const active = al.active || [];
  document.getElementById("al-active").textContent = active.length;
  document.getElementById("al-fired").textContent = al.fired || 0;
  document.getElementById("al-resolved").textContent = al.resolved || 0;
  if (!active.length) {
    document.getElementById("al-list").innerHTML =
      '<span class="tl-label">no active alerts</span>';
    return;
  }
  let html = "<table><tr><th>rule</th><th>key</th><th>severity</th>" +
    "<th>value</th></tr>";
  for (const a of active) {
    html += '<tr><td style="color:' + css("--critical") + '">' +
      esc(a.rule) + "</td><td>" + esc(a.key) + "</td><td>" +
      esc(a.severity) + "</td><td>" + fmt(a.value, 3) + "</td></tr>";
  }
  document.getElementById("al-list").innerHTML = html + "</table>";
}

function waterfallHtml(spans) {
  const byId = {};
  for (const s of spans) byId[s.span_id] = s;
  const depthOf = (span) => {
    let depth = 0, parent = span.parent_id;
    const seen = new Set();
    while (parent && byId[parent] && !seen.has(parent)) {
      seen.add(parent);
      depth += 1;
      parent = byId[parent].parent_id;
    }
    return depth;
  };
  const t0 = Math.min(...spans.map((s) => s.start));
  const t1 = Math.max(...spans.map((s) => s.start + s.duration_ms / 1000));
  const total = Math.max(1e-6, t1 - t0);
  let html = "";
  for (const s of spans) {
    const left = (s.start - t0) / total * 100;
    const width = Math.max(0.4, (s.duration_ms / 1000) / total * 100);
    const bad = s.status && s.status !== "ok";
    const mark = (s.exemplar ? " [" + esc(s.exemplar) + "]" : "") +
      (s.orphan ? " [orphan]" : "");
    html += '<div class="wf-row">' +
      '<div class="wf-name" style="padding-left:' + depthOf(s) * 10 +
      'px" title="' + esc(s.name) + '">' + esc(s.name) + mark + "</div>" +
      '<div class="wf-track"><div class="wf-bar' + (bad ? " err" : "") +
      '" style="left:' + left + "%;width:" + width + '%" title="' +
      esc(s.name) + " " + fmt(s.duration_ms, 2) + ' ms"></div></div>' +
      '<div class="wf-ms">' + fmt(s.duration_ms, 2) + " ms</div></div>";
  }
  return html;
}

async function showWaterfall(traceId) {
  try {
    const response = await fetch("/v1/traces/" + encodeURIComponent(traceId));
    if (!response.ok) return;
    const payload = await response.json();
    const spans = payload.spans || [];
    if (!spans.length) return;
    document.getElementById("tr-waterfall").innerHTML =
      '<div class="tl-label">trace ' + esc(traceId) + "</div>" +
      waterfallHtml(spans);
  } catch (error) { /* trace aged out of the fold */ }
}

function renderTraces(traces) {
  document.getElementById("tr-count").textContent = traces.length;
  if (!traces.length) {
    document.getElementById("tr-list").innerHTML =
      '<span class="tl-label">no traces yet</span>';
    return;
  }
  let html = "<table><tr><th>trace</th><th>root</th><th>ms</th>" +
    "<th>spans</th><th>status</th></tr>";
  for (const t of traces.slice(0, 8)) {
    const mark = t.exemplar ? " [" + esc(t.exemplar) + "]" : "";
    html += '<tr><td class="trace-link" data-trace="' + esc(t.trace_id) +
      '">' + esc(t.trace_id) + "</td><td>" + esc(t.root || "?") +
      "</td><td>" + fmt(t.duration_ms, 2) + "</td><td>" + t.spans +
      "</td><td>" + esc(t.status || "") + mark + "</td></tr>";
  }
  document.getElementById("tr-list").innerHTML = html + "</table>";
  for (const cell of document.querySelectorAll("#tr-list .trace-link")) {
    cell.onclick = () => showWaterfall(cell.dataset.trace);
  }
}

async function refreshTraces() {
  try {
    const response = await fetch("/v1/traces");
    if (!response.ok) return;
    const payload = await response.json();
    renderTraces(payload.traces || []);
  } catch (error) { /* front-end without tracing; card stays empty */ }
}

async function refreshHistory() {
  try {
    const response = await fetch("/v1/history");
    if (!response.ok) return;
    const payload = await response.json();
    const events = payload.events || [];
    if (!events.length) return;
    document.getElementById("history-card").hidden = false;
    let html = "";
    for (const ev of events.slice(-80).reverse()) {
      const when = new Date(ev.at * 1000).toLocaleTimeString();
      html += '<div><span class="t">' + esc(when) + "</span> " +
        esc(ev.type) + " " + esc(JSON.stringify(ev.data)) + "</div>";
    }
    document.getElementById("history-strip").innerHTML = html;
  } catch (error) { /* no persisted history behind this server */ }
}

function render() {
  if (!state) return;
  renderSweep(state.sweep || {});
  renderAlerts(state.alerts);
  renderEndpoints(state.endpoints, state.coordinator, state.at);
  const traces = state.traces || (state.tracing ? state.tracing : null);
  if (traces && traces.spans_seen !== undefined) {
    document.getElementById("tr-spans").textContent = traces.spans_seen;
  }
  document.getElementById("status").textContent =
    "live \\u2014 " + state.events_seen + " events seen";
}

function logEvent(ev) {
  const log = document.getElementById("log");
  const line = document.createElement("div");
  const when = new Date(ev.at * 1000).toLocaleTimeString();
  line.innerHTML = '<span class="t">' + esc(when) + "</span> " +
    '<span class="dot" style="background:' + rungColor(0) + '"></span>' +
    esc(ev.type) + " " + esc(JSON.stringify(ev.data));
  log.prepend(line);
  while (log.childNodes.length > 50) log.removeChild(log.lastChild);
}

const source = new EventSource("/v1/events");
source.addEventListener("snapshot", (message) => {
  state = JSON.parse(message.data);
  render();
});
source.onmessage = () => {};
for (const type of ["sweep_started", "sweep_finished", "point_started",
                    "point_finished", "point_failed", "worker_started",
                    "worker_exited", "endpoint_health", "rung_transition",
                    "shed", "replica_respawn", "span",
                    "coordinator_recommendation", "alert_fired",
                    "alert_resolved", "probe_result", "spool_health"]) {
  source.addEventListener(type, (message) => {
    logEvent(JSON.parse(message.data));
  });
}
source.onerror = () => {
  document.getElementById("status").textContent =
    "disconnected \\u2014 retrying\\u2026";
};
async function refresh() {
  try {
    const response = await fetch("/v1/telemetry");
    if (response.ok) { state = await response.json(); render(); }
  } catch (error) { /* server away; EventSource drives the status line */ }
}
refresh();
refreshTraces();
refreshHistory();
setInterval(refresh, 2000);
setInterval(refreshTraces, 3000);
setInterval(refreshHistory, 5000);
</script>
</body>
</html>
"""


_DASHBOARD_PAGE = DASHBOARD_HTML.encode("utf-8")

_TELEMETRY_PATHS = frozenset({
    "/", "/dashboard", "/dashboard/", "/v1/events", "/v1/telemetry",
    "/v1/traces",
})


def telemetry_route(relay: EventRelay, method: str, path: str, *,
                    stopped, snapshot=None):
    """The telemetry routes both HTTP front-ends mount; ``None`` off them.

    ``path`` carries no query string; ``snapshot()`` (default: the
    relay's) answers ``/v1/telemetry``; ``stopped()`` ends SSE streams.
    """
    if path not in _TELEMETRY_PATHS and not path.startswith("/v1/traces/"):
        return None
    if method != "GET":
        raise HttpError(405, "use GET")
    if path == "/v1/events":
        return Handoff(
            lambda writer: stream_sse(writer, relay, stopped=stopped)
        )
    if path == "/v1/telemetry":
        return 200, (snapshot or relay.snapshot)()
    if path in ("/v1/traces", "/v1/traces/"):
        return 200, {"traces": relay.trace_summaries()}
    if path.startswith("/v1/traces/"):
        trace_id = path[len("/v1/traces/"):]
        spans = relay.trace_spans(trace_id)
        if not spans:
            raise HttpError(404, f"unknown trace {trace_id!r}")
        return 200, {"trace_id": trace_id, "spans": spans}
    return 200, RawBody(_DASHBOARD_PAGE, "text/html; charset=utf-8")


class DashboardServer:
    """Standalone dashboard over a telemetry spool directory.

    ``repro.cli dash --dir <spool>`` serves :func:`telemetry_route` plus
    ``/healthz``, with the HTTP core's default limits, from whatever
    events appear in the directory -- a running sweep's spool, a sharded
    service's, or both if they share one directory.
    """

    def __init__(
        self,
        spool_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 8471,
        poll_s: float = 0.25,
        local_bus: TelemetryBus | None = None,
    ):
        self.relay = EventRelay(local_bus=local_bus, spool_dir=spool_dir)
        self.host = host
        self.port = port
        self.poll_s = float(poll_s)
        self.http = HttpCore(self._route)
        self._stopped = False
        self._poll: asyncio.Task | None = None

    async def start(self) -> None:
        self.port = await self.http.listen(self.host, self.port)
        if self.relay.follower is not None:
            self._poll = asyncio.create_task(self._poll_loop())

    async def _poll_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopped:
            await loop.run_in_executor(None, self.relay.poll)
            await asyncio.sleep(self.poll_s)

    async def _route(self, request):
        path = request.path.split("?", 1)[0]
        response = telemetry_route(
            self.relay, request.method, path, stopped=lambda: self._stopped
        )
        if response is not None:
            return response
        if path == "/healthz":
            return 200, {"status": "ok"}
        raise HttpError(404, f"no route for {request.method} {path}")

    async def stop(self) -> None:
        self._stopped = True
        if self._poll is not None:
            self._poll.cancel()
            await asyncio.gather(self._poll, return_exceptions=True)
        await self.http.close()
        self.relay.close()

    async def serve_forever(self) -> None:
        await self.start()
        print(
            f"repro.telemetry: dashboard on http://{self.host}:{self.port}"
            f"/dashboard"
            + (
                f" (following {self.relay.follower.directory})"
                if self.relay.follower is not None
                else ""
            ),
            flush=True,
        )
        try:
            while not self._stopped:
                await asyncio.sleep(0.5)
        finally:
            await self.stop()


def run_dashboard(
    spool_dir: str | None = None,
    host: str = "127.0.0.1",
    port: int = 8471,
) -> None:
    """Blocking entry point used by ``repro.cli dash``."""
    server = DashboardServer(
        spool_dir=spool_dir or get_bus().spool_dir, host=host, port=port
    )
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
