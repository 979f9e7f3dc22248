"""The shared HTTP core's limits and connection loop, without sockets.

Requests are fed through an in-memory :class:`asyncio.StreamReader` and
answered into a recording writer, so every parse limit (408/413/431/400),
keep-alive framing, the SSE hand-off and slow-loris eviction run in the
fast default lane.
"""

import asyncio
import json

import pytest

from repro.utils.httpcore import Handoff, HttpCore, HttpError, RawBody


class _Transport:
    def __init__(self):
        self.aborted = False

    def abort(self):
        self.aborted = True


class _Writer:
    """Records what a connection writes; ``transport.abort`` is observable."""

    def __init__(self):
        self.transport = _Transport()
        self.data = bytearray()
        self.closed = False

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass

    def responses(self) -> list[tuple[int, dict, bytes]]:
        """``(status, headers, body)`` of every framed response written."""
        out, rest = [], bytes(self.data)
        while rest:
            head, _, rest = rest.partition(b"\r\n\r\n")
            status_line, *lines = head.decode("ascii").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            length = int(headers["Content-Length"])
            out.append((int(status_line.split()[1]), headers, rest[:length]))
            rest = rest[length:]
        return out


def _reader(data: bytes, *, eof: bool = True, limit: int = 2 ** 16):
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _parse(data: bytes, *, eof: bool = True, limit: int = 2 ** 16, **limits):
    """``(request_or_status, core)``: the parsed request, or the HttpError
    status it raised."""
    core = HttpCore(None, **limits)

    async def main():
        try:
            return await core.read_request(_reader(data, eof=eof, limit=limit))
        except HttpError as exc:
            return exc.status

    return asyncio.run(main()), core


def _serve(data: bytes, route, **limits):
    """Run one connection over ``data`` through the core's loop."""
    core = HttpCore(route, **limits)
    writer = _Writer()

    async def main():
        await core.handle_connection(_reader(data), writer)

    asyncio.run(main())
    return writer, core


async def _echo(request):
    return 200, {"method": request.method, "path": request.path,
                 "body": request.body.decode()}


def test_parses_request_line_headers_and_body():
    raw = (b"post /v1/x?q=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n"
           b"\r\nhello")
    request, _ = _parse(raw)
    assert (request.method, request.path, request.body) == (
        "POST", "/v1/x?q=1", b"hello"
    )
    assert request.headers == {"host": "h", "content-length": "5"}


def test_clean_eof_is_no_request():
    request, _ = _parse(b"")
    assert request is None


def test_header_names_are_lowercased_values_are_kept():
    raw = (b"GET / HTTP/1.1\r\nX-Idempotency-Key:  Order-A \r\n"
           b"X-Trace-Id: AbC\r\n\r\n")
    request, _ = _parse(raw)
    assert request.headers == {"x-idempotency-key": "Order-A",
                               "x-trace-id": "AbC"}


def test_header_read_timeout_is_408():
    status, core = _parse(b"GET / HTTP/1.1\r\nHost: h", eof=False,
                          read_timeout_s=0.05)
    assert status == 408
    assert core.timed_out_reads == 1


def test_body_read_timeout_is_408():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
    status, core = _parse(raw, eof=False, body_timeout_s=0.05)
    assert status == 408
    assert core.timed_out_reads == 1


def test_header_block_over_the_cap_is_431():
    raw = (b"GET / HTTP/1.1\r\nX-Big: " + b"a" * (33 * 1024)
           + b"\r\n\r\n")
    status, _ = _parse(raw)
    assert status == 431
    many = b"GET / HTTP/1.1\r\n" + b"X-A: b\r\n" * 200 + b"\r\n"
    status, _ = _parse(many, max_header_bytes=1024)
    assert status == 431


def test_request_line_over_the_cap_is_431():
    status, _ = _parse(b"GET /" + b"a" * 2048 + b" HTTP/1.1\r\n\r\n",
                       max_header_bytes=1024)
    assert status == 431
    # A line overrunning the stream's buffer without any newline.
    status, _ = _parse(b"GET /" + b"a" * 4096, eof=False, limit=1024)
    assert status == 431


def test_body_over_the_cap_is_413():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n" + b"x" * 17
    status, _ = _parse(raw, max_body_bytes=16)
    assert status == 413


@pytest.mark.parametrize("raw", [
    b"GARBAGE\r\n\r\n",
    b"GET \xff HTTP/1.1\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: five\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello",
])
def test_malformed_request_line_or_content_length_is_400(raw):
    status, _ = _parse(raw)
    assert status == 400


def test_negative_content_length_gets_a_400_response():
    raw = b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello"
    writer, core = _serve(raw, _echo)
    ((status, headers, body),) = writer.responses()
    assert status == 400
    assert headers["Connection"] == "close"
    assert json.loads(body) == {"error": "malformed Content-Length header"}
    assert writer.closed and core.connection_stats()["open"] == 0


def test_keep_alive_serves_pipelined_requests_until_close():
    raw = (b"GET /a HTTP/1.1\r\n\r\n"
           b"POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
           b"GET /c HTTP/1.1\r\nConnection: Close\r\n\r\n"
           b"GET /never HTTP/1.1\r\n\r\n")
    writer, core = _serve(raw, _echo)
    responses = writer.responses()
    assert [json.loads(body)["path"] for _, _, body in responses] == [
        "/a", "/b", "/c"
    ]
    assert json.loads(responses[1][2])["body"] == "hi"
    assert [headers["Connection"] for _, headers, _ in responses] == [
        "keep-alive", "keep-alive", "close"
    ]
    assert core.active_requests == 0


def test_route_errors_become_responses():
    async def route(request):
        if request.path == "/shed":
            raise HttpError(429, "busy", extra={"retry_after_ms": 50.0},
                            headers={"Retry-After": "1"})
        if request.path == "/page":
            request.response_headers["X-Trace-Id"] = "t1"
            return 200, RawBody(b"<html>", "text/html")
        raise RuntimeError("boom")

    raw = (b"GET /shed HTTP/1.1\r\n\r\nGET /page HTTP/1.1\r\n\r\n"
           b"GET /crash HTTP/1.1\r\n\r\n")
    writer, _ = _serve(raw, route)
    shed, page, crash = writer.responses()
    assert shed[0] == 429 and shed[1]["Retry-After"] == "1"
    assert json.loads(shed[2]) == {"error": "busy", "retry_after_ms": 50.0}
    assert page == (200, {"Content-Type": "text/html", "Content-Length": "6",
                          "Connection": "keep-alive", "X-Trace-Id": "t1"},
                    b"<html>")
    assert crash[0] == 500 and "boom" in json.loads(crash[2])["error"]


def test_handoff_takes_the_connection_over():
    async def stream(writer):
        writer.write(f"active={core.active_requests}".encode())

    async def route(request):
        return Handoff(stream)

    raw = b"GET /v1/events HTTP/1.1\r\n\r\nGET /next HTTP/1.1\r\n\r\n"
    core = HttpCore(route)
    writer = _Writer()

    async def main():
        await core.handle_connection(_reader(raw), writer)

    asyncio.run(main())
    # Accounting closed before the hand-off; nothing framed after it.
    assert bytes(writer.data) == b"active=0" and writer.closed


def test_full_core_evicts_the_idlest_idle_connection_or_refuses():
    release = None

    async def route(request):
        await release.wait()
        return 200, {}

    async def main():
        nonlocal release
        release = asyncio.Event()
        core = HttpCore(route, max_connections=1)
        idle = _Writer()
        parked = asyncio.create_task(
            core.handle_connection(_reader(b"", eof=False), idle)
        )
        await asyncio.sleep(0)
        busy = _Writer()
        working = asyncio.create_task(core.handle_connection(
            _reader(b"GET / HTTP/1.1\r\n\r\n", eof=False), busy
        ))
        await asyncio.sleep(0.01)
        # The parked idle connection made room for the newcomer ...
        assert idle.transport.aborted and core.evicted_connections == 1
        # ... but a busy one is never evicted: the next newcomer is refused.
        refused = _Writer()
        await core.handle_connection(_reader(b""), refused)
        assert refused.transport.aborted and core.refused_connections == 1
        assert not busy.transport.aborted
        release.set()
        await asyncio.sleep(0.01)
        assert busy.responses()[0][0] == 200
        await core.close()
        late = _Writer()
        await core.handle_connection(_reader(b""), late)
        assert late.transport.aborted and core.refused_connections == 2
        for task in (parked, working):
            task.cancel()
        await asyncio.gather(parked, working, return_exceptions=True)

    asyncio.run(main())
