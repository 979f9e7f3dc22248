"""``serve-small`` and ``serve-bulk``: the predict path over a real socket.

socket -> JSON decode -> admission -> batcher -> forked replica -> engine
-> socket.  A run starts ``repro.cli --scale fast serve googlenet --threads
2 --fork-workers 1`` as a subprocess (three times; ``setup_s`` is the
median spawn-to-``/healthz``-ok time, the endpoint is warm by then) and
drives the last one from this process with at most two connections:

* ``serve-small``: closed loop, two clients, one image per request.
* ``serve-bulk``: open loop, sixteen images per request, arrivals of a
  Poisson process at a fixed rate (conditioned on its count; one fixed
  arrival trace for every seed); latency runs from each request's due
  time.

Images are drawn by seed from the fast validation split.  After the timed
region every served row is compared bit for bit with the in-process
harness forward at the endpoint's thread assignment.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import (
    ROOT, WORK, BenchError, SpanRecorder, median, now, peak_rss_tree_mb,
    program_env, quantile,
)

ENDPOINT = "googlenet"
SERVER_ARGS = ["--scale", "fast", "serve", ENDPOINT, "--threads", "2",
               "--fork-workers", "1"]
CLIENTS = 2
SETUPS = 3
READY_TIMEOUT_S = 120.0
#: Seed of the open loop's arrival times (``--seed`` picks what is sent).
ARRIVAL_TRACE_SEED = 0
#: Traces the server's aggregator keeps (``/v1/traces/<id>`` answers for
#: the most recent ones only).
SERVER_TRACE_RING = 64


@dataclass(frozen=True)
class Plan:
    name: str
    images_per_request: int
    #: ``None``: closed loop; else the open-loop arrival rate (requests/s).
    rate: float | None
    #: Fixed latency limit of ``within_limit_frac`` (from the seed commit).
    limit_ms: float
    #: Images in the seeded pool requests draw from.
    pool_images: int
    #: Batch sizes the server can form from this load (reference shapes).
    batch_sizes: tuple[int, ...]


PLANS = {
    # Two closed-loop clients with one image each: batches of 1 or 2.
    "serve-small": Plan("serve-small", 1, None, limit_ms=80.0,
                        pool_images=64, batch_sizes=(1, 2)),
    # 16-image requests, max_batch 32: batches of 16 or 32 (whole
    # requests), which compute every row as the 16-image forward does.
    "serve-bulk": Plan("serve-bulk", 16, 3.0, limit_ms=600.0,
                       pool_images=160, batch_sizes=(16,)),
}


@dataclass
class Payloads:
    """Request bodies, JSON-encoded before the timed region.

    The generator shares this box's two vCPUs with the server; encoding
    on the request path would bill the server for client CPU.  Encoding is
    timed here instead (``loadgen.encode_ms``).
    """

    images: list[np.ndarray]  # pool indices of each body
    bodies: list[bytes]
    encode_s: list[float]

    @classmethod
    def encode(cls, pool: np.ndarray, plan: Plan, seed: int) -> "Payloads":
        k = plan.images_per_request
        order = np.random.default_rng([seed, 1]).permutation(pool.shape[0])
        images = [order[i:i + k] for i in range(0, len(order) - k + 1, k)]
        bodies, encode_s = [], []
        for group in images:
            started = now()
            bodies.append(json.dumps({"inputs": pool[group].tolist()}).encode())
            encode_s.append(now() - started)
        return cls(images, bodies, encode_s)


@dataclass
class Request:
    body: int  # index into Payloads
    images: np.ndarray  # pool indices
    due: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    decoded: float = 0.0
    status: int = 0
    outputs: list | None = None
    error: str | None = None
    trace_id: str | None = None  # set on requests to the traced server

    @property
    def latency_s(self) -> float:
        return self.decoded - (self.due or self.sent)


# -- the server process ------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro.cli serve`` subprocess on a free localhost port."""

    def __init__(self, traced: bool, log_name: str):
        self.port = _free_port()
        args = [sys.executable, "-m", "repro.cli", *SERVER_ARGS,
                "--port", str(self.port)]
        if traced:
            args += ["--trace-sample", "1.0"]
        log_path = WORK / "logs" / f"{log_name}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "wb")
        self.started = now()
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=program_env(), stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/healthz`` answers ``ok``."""
        while now() - self.started < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}")
            try:
                if self.get("/healthz", timeout=1.0).get("status") == "ok":
                    return now() - self.started
            except (OSError, http.client.HTTPException, ValueError):
                time.sleep(0.02)
        raise BenchError("server did not become healthy")

    def get(self, path: str, timeout: float = 30.0) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise BenchError(f"GET {path}: HTTP {response.status}")
            return json.loads(body)
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_tree_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole group if stuck."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._log.close()


# -- load generation -----------------------------------------------------------------
def _send(connection, request: Request, payloads: Payloads) -> None:
    headers = {"Content-Type": "application/json"}
    if request.trace_id is not None:
        headers["X-Trace-Id"] = request.trace_id
    request.sent = now()
    connection.request("POST", f"/v1/models/{ENDPOINT}:predict",
                       body=payloads.bodies[request.body], headers=headers)
    response = connection.getresponse()
    raw = response.read()
    request.received = now()
    payload = json.loads(raw)
    request.decoded = now()
    request.status = response.status
    if response.status == 200:
        request.outputs = payload["outputs"]
    else:
        request.error = str(payload.get("error"))


def drive(port: int, plan: Plan, payloads: Payloads, seconds: float,
          rng: np.random.Generator,
          traced: bool) -> tuple[list[Request], float, float]:
    """Offer one segment of load: its requests, start time and duration."""
    count = len(payloads.bodies)

    def new_request(body: int, due: float = 0.0) -> Request:
        return Request(body, payloads.images[body], due=due)

    if plan.rate is None:
        queue = None
    else:
        arrivals = max(1, round(plan.rate * seconds))
        # One fixed arrival trace for every seed: with a schedule per seed,
        # ten seeds' p90 spread 246-417 ms on how bursty each draw was.
        arrival_rng = np.random.default_rng(ARRIVAL_TRACE_SEED)
        dues = np.sort(arrival_rng.uniform(0.0, seconds, size=arrivals))
        queue = [new_request(int(rng.integers(count)), float(d))
                 for d in dues]
    client_rngs = [np.random.default_rng(rng.integers(1 << 62))
                   for _ in range(CLIENTS)]
    done: list[Request] = []
    lock = threading.Lock()
    start = now() + 0.05
    stop_at = start + seconds

    def client(index: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                if queue is None:
                    if now() >= stop_at:
                        return
                    request = new_request(
                        int(client_rngs[index].integers(count)))
                else:
                    with lock:
                        if not queue:
                            return
                        request = queue.pop(0)
                    request.due += start
                    delay = request.due - now()
                    if delay > 0:
                        time.sleep(delay)
                if traced:
                    request.trace_id = os.urandom(8).hex()
                try:
                    _send(connection, request, payloads)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    request.error = repr(exc)
                    request.decoded = now()
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60)
                with lock:
                    done.append(request)
        finally:
            connection.close()

    while now() < start:
        time.sleep(0.001)
    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 90)
        if thread.is_alive():
            raise BenchError("a load-generator client did not finish")
    elapsed = max([r.decoded for r in done], default=now()) - start
    return done, start, elapsed


# -- correctness ---------------------------------------------------------------------
def reference_rows(pool: np.ndarray, plan: Plan, endpoint: dict) -> list[set]:
    """Admissible served bytes per pool image: the harness forward of it in
    every batch shape the server can form from this load."""
    from repro.core.engine import NBSMTEngine
    from repro.eval.experiments.common import get_harness

    if endpoint.get("slow_layers") or endpoint.get("reorder"):
        raise BenchError("reference assumes a static, unreordered endpoint")
    harness = get_harness(endpoint["model"], "fast")
    qmodel = harness.qmodel
    qmodel.ensure_installed()
    qmodel.set_threads(int(endpoint["threads"]))
    harness.clear_permutations()
    qmodel.set_engine(NBSMTEngine(endpoint["policy"], collect_stats=True))
    admissible: list[set] = [set() for _ in range(pool.shape[0])]
    count = pool.shape[0]
    for size in plan.batch_sizes:
        for start in range(0, count, size):
            index = [(start + offset) % count for offset in range(size)]
            logits = qmodel.forward(pool[index])
            for row, image in enumerate(index):
                admissible[image].add(
                    np.asarray(logits[row], dtype=np.float32).tobytes())
    return admissible


def check_outputs(requests: list[Request], admissible: list[set],
                  corrupt_first: bool = False) -> None:
    """Marks every answer that is not bit-equal to the harness as failed."""
    corrupted = not corrupt_first
    for request in requests:
        if request.status != 200:
            continue
        rows = np.asarray(request.outputs, dtype=np.float32)
        if not corrupted:
            rows[0, 0] += 1.0  # a deliberately wrong logit
            corrupted = True
        if rows.shape[0] != len(request.images):
            request.error = "wrong number of output rows"
        else:
            for row, image in zip(rows, request.images):
                if row.tobytes() not in admissible[int(image)]:
                    request.error = "output differs from the harness forward"
                    break
        if request.error is not None:
            request.status = -1


# -- traces ----------------------------------------------------------------------------
def join_traces(server: Server, requests: list[Request]) -> list[dict]:
    """Per-request stage times from the server's spans (recent traces)."""
    rows = []
    recent = [r for r in requests if r.trace_id and r.status == 200]
    recent.sort(key=lambda r: r.decoded)
    for request in recent[-SERVER_TRACE_RING:]:
        try:
            spans = server.get(f"/v1/traces/{request.trace_id}")["spans"]
        except BenchError:
            continue
        root = next((s for s in spans if s["name"] == "request"), None)
        if root is None:
            continue
        children = [s for s in spans if s.get("parent_id") == root["span_id"]]
        batch = next((s for s in children if s["name"] == "batch"), None)
        engine = next((s for s in spans if s["name"] == "engine_compute"),
                      None)
        if batch is None or engine is None:
            continue
        roundtrip_ms = (request.received - request.sent) * 1000.0
        layers: dict[str, float] = {}
        for span in spans:
            if span["name"].startswith("layer:"):
                name = span["name"][len("layer:"):]
                layers[name] = layers.get(name, 0.0) + span["duration_ms"]
        rows.append({
            "front_door_ms": roundtrip_ms - root["duration_ms"],
            "decode_ms": root["duration_ms"]
            - sum(c["duration_ms"] for c in children),
            "queue_wait_ms": sum(c["duration_ms"] for c in children
                                 if c["name"] == "queue_wait"),
            "engine_compute_ms": engine["duration_ms"],
            "replica_ipc_ms": batch["duration_ms"] - engine["duration_ms"],
            "layers": layers,
        })
    return rows


# -- the workload ----------------------------------------------------------------------
def _pool(seed: int, plan: Plan) -> np.ndarray:
    from repro.models.zoo import load_dataset

    dataset = load_dataset(fast=True)
    chosen = np.random.default_rng([seed, 0]).choice(
        dataset.val_images.shape[0], plan.pool_images, replace=False)
    return np.ascontiguousarray(dataset.val_images[np.sort(chosen)])


def _warm_up(port: int, payloads: Payloads) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for _ in range(2):
            request = Request(0, payloads.images[0])
            _send(connection, request, payloads)
            if request.status != 200:
                raise BenchError(f"warm-up request failed: {request.error}")
    finally:
        connection.close()


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, inject_wrong_output: bool = False) -> dict:
    plan = PLANS[workload]
    pool = _pool(seed, plan)
    rng = np.random.default_rng([seed, 2])
    servers: list[Server] = []
    try:
        if trace:
            return _run_traced(plan, pool, seed, seconds, rng, servers,
                               inject_wrong_output)
        setup_times = []
        for attempt in range(1 if smoke else SETUPS):
            if servers:
                servers.pop().stop()
            servers.append(Server(False, f"{workload}-seed{seed}-{attempt}"))
            setup_times.append(servers[-1].wait_ready())
        server = servers[-1]
        endpoint = _endpoint(server)
        admissible = reference_rows(pool, plan, endpoint)
        payloads = Payloads.encode(pool, plan, seed)
        _warm_up(server.port, payloads)
        segment = drive(server.port, plan, payloads, seconds, rng, False)
        requests = segment[0]
        rss = server.peak_rss_mb()
        check_outputs(requests, admissible, inject_wrong_output)
        metrics = _end_to_end(plan, [segment])
        metrics["setup_s"] = (median(setup_times), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        return _result(requests, metrics)
    finally:
        for server in servers:
            server.stop()


def _endpoint(server: Server) -> dict:
    models = server.get("/v1/models")["models"]
    return next(m for m in models if m["name"] == ENDPOINT)


def _throughput(plan: Plan, segments) -> float:
    """Correct images per second over ``(requests, start, elapsed)`` segments.

    Open loop: over the whole segments (the offered load sets the rate).
    Closed loop: the mean of the middle half of the whole one-second
    windows, so a brief stall of this shared box does not move the run's
    figure.
    """
    total_images = total_s = 0.0
    counts: list[int] = []
    for requests, start, elapsed in segments:
        window = [0] * int(elapsed)
        for request in requests:
            if request.status != 200:
                continue
            total_images += len(request.images)
            slot = int(request.decoded - start)
            if slot < len(window):
                window[slot] += len(request.images)
        total_s += elapsed
        counts.extend(window)
    if plan.rate is not None or len(counts) < 4:
        return total_images / total_s if total_s > 0 else 0.0
    counts.sort()
    middle = counts[len(counts) // 4: len(counts) - len(counts) // 4]
    return sum(middle) / len(middle)


def _end_to_end(plan: Plan, segments) -> dict:
    requests = [r for segment in segments for r in segment[0]]
    ok = [r for r in requests if r.status == 200]
    latencies = [r.latency_s * 1000.0 for r in ok]
    within = sum(1 for value in latencies if value <= plan.limit_ms)
    return {
        "throughput_img_s": (_throughput(plan, segments), "img/s"),
        "latency_p50_ms": (quantile(latencies, 0.5), "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9), "ms"),
        "within_limit_frac": (within / max(1, len(requests)), "frac"),
        "failed_frac": ((len(requests) - len(ok)) / max(1, len(requests)),
                        "frac"),
    }


def _result(requests, metrics) -> dict:
    """Any failed request (wrong output, error, shed) fails the run."""
    failed = [r for r in requests if r.status != 200]
    return {"attempted": len(requests), "failed": len(failed),
            "problems": sorted({str(r.error) for r in failed}),
            "metrics": metrics}


def _run_traced(plan, pool, seed, seconds, rng, servers, inject) -> dict:
    """Untraced (A, program defaults) and traced (B: ``--trace-sample 1.0``,
    client trace ids, bench spans) servers side by side, driven A B B A."""
    plain = Server(False, f"{plan.name}-seed{seed}-plain")
    servers.append(plain)
    traced = Server(True, f"{plan.name}-seed{seed}-traced")
    servers.append(traced)
    plain.wait_ready()
    traced.wait_ready()
    endpoint = _endpoint(plain)
    admissible = reference_rows(pool, plan, endpoint)
    payloads = Payloads.encode(pool, plan, seed)
    for server in (plain, traced):
        _warm_up(server.port, payloads)
    segments = {"A": [], "B": []}
    for name in "ABBA":
        server = traced if name == "B" else plain
        segments[name].append(drive(server.port, plan, payloads, seconds / 4,
                                    rng, name == "B"))
    everything = [r for name in "AB" for seg in segments[name] for r in seg[0]]
    check_outputs(everything, admissible, inject)
    recorder = SpanRecorder()
    for request in everything:
        if request.trace_id:
            request_span = recorder.record(
                "client_request", request.due or request.sent,
                request.decoded, trace_id=request.trace_id,
                status=request.status, images=len(request.images))
            for name, start, end in (("roundtrip", request.sent,
                                      request.received),
                                     ("decode", request.received,
                                      request.decoded)):
                recorder.record(name, start, end, request_span["id"],
                                trace_id=request.trace_id)
    joined = join_traces(traced, [r for seg in segments["B"] for r in seg[0]])
    server_metrics = traced.get("/v1/metrics")
    metrics = _end_to_end(plan, segments["A"] + segments["B"])
    untraced = _end_to_end(plan, segments["A"])
    traced_e2e = _end_to_end(plan, segments["B"])
    if plan.rate is None:
        overhead = 1.0 - (traced_e2e["throughput_img_s"][0]
                          / untraced["throughput_img_s"][0])
    else:
        # Open loop: throughput is the offered rate, so tracing shows in
        # latency instead.
        overhead = (traced_e2e["latency_p50_ms"][0]
                    / untraced["latency_p50_ms"][0]) - 1.0
    metrics["telemetry.tracing_overhead_frac"] = (overhead, "frac")
    metrics.update(_stage_metrics(everything, joined, server_metrics,
                                  payloads))
    recorder.write(WORK / "traces" / f"{plan.name}-seed{seed}.json",
                   workload=plan.name, seed=seed, server_spans=joined,
                   server_metrics=server_metrics)
    return _result(everything, metrics)


def _stage_metrics(requests, joined, server_metrics, payloads) -> dict:
    endpoint = server_metrics["endpoints"][ENDPOINT]
    ok = [r for r in requests if r.status == 200]
    lateness = [max(0.0, r.sent - r.due) * 1000.0 for r in ok if r.due]
    # Queue waits from the spans: the histogram's log buckets are coarser.
    waits = [row["queue_wait_ms"] for row in joined]
    metrics = {
        "loadgen.encode_ms": (median(s * 1000.0 for s in payloads.encode_s),
                              "ms"),
        "loadgen.decode_ms": (median((r.decoded - r.received) * 1000.0
                                     for r in ok), "ms"),
        "loadgen.late_p90_ms": (quantile(lateness, 0.9), "ms"),
        "serve.queue_wait_p50_ms": (quantile(waits, 0.5), "ms"),
        "serve.queue_wait_p90_ms": (quantile(waits, 0.9), "ms"),
        "serve.batch_service_p50_ms": (
            endpoint["batch_service"]["p50_s"] * 1e3, "ms"),
        "serve.batch_size_mean": (endpoint["mean_batch_size"], "count"),
        "serve.batch_fill": (endpoint["batch_fill"], "frac"),
        "serve.admission.shed": (endpoint["rejected_requests"], "count"),
        "serve.expired": (endpoint["expired_requests"], "count"),
    }
    for key in ("front_door_ms", "decode_ms", "engine_compute_ms",
                "replica_ipc_ms"):
        metrics[f"serve.{key}"] = (median(row[key] for row in joined), "ms")
    layers: dict[str, list[float]] = {}
    for row in joined:
        for name, value in row["layers"].items():
            layers.setdefault(name, []).append(value)
    for name, values in layers.items():
        metrics[f"serve.layer.{name}.ms"] = (median(values), "ms")
    return metrics
