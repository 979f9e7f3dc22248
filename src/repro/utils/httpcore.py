"""One small hardened HTTP/1.1 core shared by every HTTP front-end.

Pure stdlib on ``asyncio`` streams (keep-alive, ``Content-Length``
framing).  The inference front-end (:mod:`repro.serve.server`) and the
standalone dashboard (:mod:`repro.telemetry.dashboard`) each mount one
route on an :class:`HttpCore`, which owns parse limits (400/413/431),
read and write timeouts (408; byte-drip readers are aborted), the
connection cap with slow-loris eviction, active-request accounting for
draining, and hand-off to streaming routes (SSE).

A route takes a :class:`Request` and returns ``(status, payload)`` (a
JSON-able payload or a :class:`RawBody`) or a :class:`Handoff`; it may
raise :class:`HttpError`, and any other exception is answered ``500``.
Header names are lowercased; values are kept as sent.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from http.client import responses as _REASONS

MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 32 * 1024


class HttpError(Exception):
    """An error response: ``{"error": message, **extra}`` plus headers."""

    def __init__(self, status: int, message: str, extra: dict | None = None,
                 headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra or {}
        self.headers = headers or {}

    def body(self) -> dict:
        return {"error": self.message, **self.extra}


@dataclass
class RawBody:
    """A non-JSON response body (the dashboard page)."""

    body: bytes
    content_type: str


@dataclass
class Handoff:
    """A route's answer that takes the connection over: ``run(writer)`` is
    awaited after the request's accounting closes, then the socket closes."""

    run: object


@dataclass(slots=True)
class Request:
    """One parsed request; a route may add ``response_headers``."""

    method: str
    path: str
    headers: dict
    body: bytes
    response_headers: dict = field(default_factory=dict)


class _ConnState:
    """Liveness bookkeeping of one open connection (slow-loris eviction)."""

    __slots__ = ("writer", "last_activity", "busy")

    def __init__(self, writer, now: float):
        self.writer = writer
        self.last_activity = now
        #: A busy connection is awaiting an admitted request's result --
        #: evicting it would lose a ledgered response, so eviction only
        #: ever targets idle (reading/parked) connections.
        self.busy = False


def _abort(writer) -> None:
    transport = writer.transport
    if transport is not None:
        transport.abort()


class HttpCore:
    """The hardened socket layer around one route callable."""

    def __init__(
        self,
        route,
        *,
        clock=time.monotonic,
        max_connections: int = 256,
        read_timeout_s: float = 10.0,
        body_timeout_s: float = 30.0,
        write_timeout_s: float = 30.0,
        max_header_bytes: int = MAX_HEADER_BYTES,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.route = route
        self.clock = clock
        self.max_connections = max(1, int(max_connections))
        self.read_timeout_s = float(read_timeout_s)
        self.body_timeout_s = float(body_timeout_s)
        self.write_timeout_s = float(write_timeout_s)
        self.max_header_bytes = int(max_header_bytes)
        self.max_body_bytes = int(max_body_bytes)
        #: Set by :meth:`close`: new connections are refused and keep-alive
        #: connections close after their current response.
        self.draining = False
        self.active_requests = 0
        self.evicted_connections = 0
        self.refused_connections = 0
        self.timed_out_reads = 0
        self.timed_out_writes = 0
        self._connections: set[_ConnState] = set()
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ---------------------------------------------------------
    async def listen(self, host: str, port: int, *, sock=None,
                     reuse_port: bool = False) -> int:
        """Start accepting on ``sock`` or ``host:port``; returns the port."""
        if sock is not None:
            host = port = None
        self._server = await asyncio.start_server(
            self.handle_connection, host, port, sock=sock,
            reuse_port=reuse_port or None,
        )
        sockets = self._server.sockets or []
        return sockets[0].getsockname()[1] if sockets else port

    async def close(self, drain_timeout_s: float = 0.0) -> None:
        """Stop accepting, wait (bounded) for in-flight requests, then
        abort every connection still open."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drain_until = self.clock() + drain_timeout_s
        while self.active_requests > 0 and self.clock() < drain_until:
            await asyncio.sleep(0.02)
        for state in list(self._connections):
            _abort(state.writer)

    def connection_stats(self) -> dict:
        """Socket-hardening counters."""
        return {
            "open": len(self._connections),
            "max": self.max_connections,
            "active_requests": self.active_requests,
            "evicted": self.evicted_connections,
            "refused": self.refused_connections,
            "timed_out_reads": self.timed_out_reads,
            "timed_out_writes": self.timed_out_writes,
        }

    # -- connections -------------------------------------------------------
    def _evict_idlest(self) -> bool:
        """Abort the longest-idle non-busy connection (slow-loris victim).

        Only idle connections are candidates -- a busy one is awaiting an
        admitted request's result, and evicting it would turn a ledgered
        in-flight request into a lost response.
        """
        candidates = [s for s in self._connections if not s.busy]
        if not candidates:
            return False
        victim = min(candidates, key=lambda s: s.last_activity)
        self.evicted_connections += 1
        _abort(victim.writer)
        # The victim's handler wakes with a reset and unregisters itself;
        # drop it from the set now so the accounting never over-counts.
        self._connections.discard(victim)
        return True

    async def handle_connection(self, reader, writer) -> None:
        """Serve keep-alive requests on one connection until it closes."""
        if self.draining or (
            len(self._connections) >= self.max_connections
            and not self._evict_idlest()
        ):
            # Draining: the listener is closed, but a connection may have
            # been accepted into the kernel backlog before that.  Full:
            # every slot is busy computing -- refuse the newcomer rather
            # than kill an in-flight response.
            self.refused_connections += 1
            _abort(writer)
            return
        state = _ConnState(writer, self.clock())
        self._connections.add(state)
        try:
            while True:
                try:
                    request = await self.read_request(reader)
                except HttpError as exc:
                    await self.write_response(
                        writer, exc.status, exc.body(), False
                    )
                    break
                if request is None:
                    break
                state.last_activity = self.clock()
                state.busy = True
                self.active_requests += 1
                try:
                    result = await self.route(request)
                except HttpError as exc:
                    result = exc.status, exc.body()
                    request.response_headers.update(exc.headers)
                except Exception as exc:  # noqa: BLE001 - reported as 500
                    result = 500, {"error": repr(exc)}
                finally:
                    state.busy = False
                    self.active_requests -= 1
                    state.last_activity = self.clock()
                if isinstance(result, Handoff):
                    await result.run(writer)
                    break
                status, payload = result
                keep_alive = (
                    request.headers.get("connection", "").lower() != "close"
                    and not self.draining
                )
                await self.write_response(
                    writer, status, payload, keep_alive,
                    request.response_headers,
                )
                state.last_activity = self.clock()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(state)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    # -- parsing -----------------------------------------------------------
    async def _read_line(self, reader) -> bytes:
        """One header line within the read timeout (slow-loris defense).

        The timeout bounds *each line*, not the whole header block -- but
        with the header byte cap a dripping client can stretch the read
        phase to at most ``read_timeout_s`` per line over a bounded number
        of lines before 431/408 reclaims the connection.
        """
        try:
            return await asyncio.wait_for(
                reader.readline(), timeout=self.read_timeout_s
            )
        except asyncio.TimeoutError:
            self.timed_out_reads += 1
            raise HttpError(408, "timed out reading request") from None
        except ValueError:
            # The line overran the stream's buffer limit without a newline.
            raise HttpError(431, "request line too large") from None

    async def read_request(self, reader) -> Request | None:
        """The next request on ``reader``; ``None`` at a clean EOF."""
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        header_bytes = len(request_line)
        if header_bytes > self.max_header_bytes:
            raise HttpError(431, "request line too large")
        try:
            method, path, _version = request_line.decode("ascii").split(None, 2)
        except ValueError:
            raise HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            header_bytes += len(line)
            if header_bytes > self.max_header_bytes:
                raise HttpError(431, "request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise HttpError(400, "malformed Content-Length header")
        if length > self.max_body_bytes:
            raise HttpError(413, "request body too large")
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.body_timeout_s
                )
            except asyncio.TimeoutError:
                # Mid-body disconnect or byte-drip: the declared body never
                # arrived inside the budget.
                self.timed_out_reads += 1
                raise HttpError(408, "timed out reading request body") from None
        else:
            body = b""
        return Request(method.upper(), path, headers, body)

    async def write_response(
        self, writer, status: int, payload, keep_alive: bool,
        extra_headers: dict | None = None,
    ) -> None:
        if isinstance(payload, RawBody):
            body, content_type = payload.body, payload.content_type
        else:
            body, content_type = json.dumps(payload).encode(), "application/json"
        headers = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{headers}"
            "\r\n"
        ).encode("ascii")
        writer.write(head + body)
        try:
            await asyncio.wait_for(writer.drain(), timeout=self.write_timeout_s)
        except asyncio.TimeoutError:
            # A client that stopped reading (byte-drip / half-open) is
            # holding our buffers hostage; abort rather than wait forever.
            self.timed_out_writes += 1
            _abort(writer)
            raise ConnectionResetError("response write timed out") from None
