"""A minimal HTTP/1.1 layer on ``asyncio.start_server`` -- no dependencies.

The serving plane deliberately does not pull in aiohttp/FastAPI: the API
surface is six JSON endpoints, and a hand-rolled request/response pair
keeps the repo's zero-new-dependency rule intact while remaining small
enough to test exhaustively.  The layer knows nothing about the grid --
it parses requests, enforces size limits, handles keep-alive, and hands
a :class:`HttpRequest` to an async handler that returns a
:class:`HttpResponse`.  Routing and grid logic live one layer up
(:mod:`repro.serve.routers`).

Deliberate limitations (documented in docs/serving.md): no TLS, no
chunked transfer encoding, no multipart -- JSON bodies with a
``Content-Length`` only.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "REASON_PHRASES",
]

#: Header-block and body ceilings; beyond them the request is refused.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: ``json.dumps(payload, sort_keys=True)`` without building an encoder
#: per response.
_JSON = json.JSONEncoder(sort_keys=True)

REASON_PHRASES: Dict[int, str] = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class HttpError(Exception):
    """A malformed/oversized request the parser refuses."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    #: Request-scoped trace id: the client's ``x-repro-trace`` header, or
    #: one minted by the server (``req-%08d``, a deterministic per-server
    #: counter so scripted traces replay byte-identically).  Carried into
    #: the ``serve.request`` span, correlating the whole span tree.
    trace_id: str = ""

    def json(self) -> Any:
        """Decode the body as JSON (raises :class:`HttpError` 400)."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None


@dataclass
class HttpResponse:
    """One response: status plus a JSON payload *or* a plain-text body.

    ``payload`` renders as canonical JSON (the default content type);
    ``text`` takes precedence and renders verbatim with ``content_type``
    (the Prometheus exposition path).
    """

    status: int = 200
    payload: Any = None
    headers: Dict[str, str] = field(default_factory=dict)
    text: Optional[str] = None
    content_type: Optional[str] = None

    def encode(self) -> bytes:
        if self.text is not None:
            body = self.text.encode("utf-8")
            content_type = self.content_type or "text/plain; charset=utf-8"
        else:
            body = b""
            if self.payload is not None:
                body = (_JSON.encode(self.payload) + "\n").encode()
            content_type = self.content_type or "application/json"
        reason = REASON_PHRASES.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = {
            "content-type": content_type,
            "content-length": str(len(body)),
            **self.headers,
        }
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


#: The application layer: one async callable per parsed request.
Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


#: Longest head line buffered while looking for its end: asyncio's
#: default ``StreamReader`` limit, so the parser accepts exactly what a
#: ``readline`` per line would.  A line past it gets the same 400 as an
#: over-long line under it.
_LINE_LIMIT = 2 ** 16
#: Most bytes taken off the transport per read.
_READ_SIZE = 2 ** 16


class _RequestReader:
    """One connection's inbound bytes, parsed one request at a time.

    Whatever the transport has delivered is taken off the
    ``StreamReader`` in one read and kept here; a request head is then
    parsed in a single pass over those bytes, waiting for more only when
    a line is still incomplete -- one await per request in the common
    case, not one per head line.  Each line is checked as soon as it is
    complete, so a client that sends a bad line and waits is answered at
    once, and bytes after a request stay buffered for the next
    (keep-alive).
    """

    __slots__ = ("_reader", "_data", "_eof")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._data = b""
        self._eof = False

    def _line_end(self, start: int) -> Optional[int]:
        """End of the line starting at ``start``, past its newline.

        ``None`` until the line is buffered; ``-1`` once it is longer
        than the line limit; at EOF a partial line ends the data.
        """
        data = self._data
        newline = data.find(b"\n", start)
        if newline >= 0:
            return newline + 1 if newline - start <= _LINE_LIMIT else -1
        if len(data) - start > _LINE_LIMIT:
            return -1
        return len(data) if self._eof else None

    async def _await_line(self, start: int) -> int:
        while True:
            chunk = await self._reader.read(_READ_SIZE)
            if chunk:
                self._data += chunk
            else:
                self._eof = True
            end = self._line_end(start)
            if end is not None:
                return end

    async def read(self) -> Optional[HttpRequest]:
        """Parse one request; ``None`` on clean EOF.

        Raises :class:`HttpError` on malformed input (the caller answers
        with the error status and closes the connection).
        """
        end = self._line_end(0)
        if end is None:
            try:
                end = await self._await_line(0)
            except ConnectionError:
                return None
        if end < 0:
            raise HttpError(400, "request line too long")
        request_line = self._data[:end]
        if not request_line.strip():
            return None  # clean close (or a bare liveness connect)
        if end > MAX_HEADER_BYTES:
            raise HttpError(400, "request line too long")
        try:
            text = request_line.decode("latin-1").strip()
            method, target, version = text.split(" ", 2)
        except ValueError:
            raise HttpError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise HttpError(400, f"unsupported protocol {version!r}")

        headers: Dict[str, str] = {}
        pos = end
        while True:
            end = self._line_end(pos)
            if end is None:
                end = await self._await_line(pos)
            if end < 0 or end > MAX_HEADER_BYTES + len(request_line):
                raise HttpError(400, "header block too large")
            line = self._data[pos:end]
            pos = end
            if line == b"\r\n" or line == b"\n":
                break
            if not line:
                raise HttpError(400, "truncated header block")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise HttpError(400, "malformed content-length") from None
            if length < 0:
                raise HttpError(400, "negative content-length")
            if length > MAX_BODY_BYTES:
                raise HttpError(413, "request body too large")
            if length:
                body = self._data[pos:pos + length]
                pos += length
                if len(body) < length:
                    try:
                        body += await self._reader.readexactly(
                            length - len(body)
                        )
                    except asyncio.IncompleteReadError:
                        raise HttpError(400, "truncated request body") from None
        elif headers.get("transfer-encoding"):
            raise HttpError(501, "chunked transfer encoding not supported")
        self._data = self._data[pos:]

        try:
            split = urlsplit(target)
        except ValueError:  # e.g. "//[": an unclosed IPv6 netloc
            raise HttpError(400, "malformed request target") from None
        return HttpRequest(
            method=method.upper(),
            path=split.path or "/",
            query=dict(parse_qsl(split.query)) if split.query else {},
            headers=headers,
            body=body,
        )


class HttpServer:
    """Accept loop + per-connection request/response cycle."""

    def __init__(self, handler: Handler, host: str, port: int) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        #: Live per-connection tasks (keep-alive loops), cancelled on stop.
        self._connections: "set[asyncio.Task]" = set()
        #: Monotone trace-id counter (``req-%08d``); deterministic, so a
        #: scripted request trace replays with identical trace ids.
        self._next_trace = 0

    @property
    def address(self) -> Tuple[str, int]:
        """Actually bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit in readline() forever; cancel
        # them so shutdown leaves no pending tasks behind.
        pending = [t for t in self._connections if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._connections.clear()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        requests = _RequestReader(reader)
        try:
            while True:
                try:
                    request = await requests.read()
                except HttpError as exc:
                    writer.write(HttpResponse(
                        exc.status, {"error": exc.message}
                    ).encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                request.trace_id = request.headers.get("x-repro-trace", "")
                if not request.trace_id:
                    request.trace_id = f"req-{self._next_trace:08d}"
                    self._next_trace += 1
                response = await self.handler(request)
                response.headers.setdefault("x-repro-trace", request.trace_id)
                keep_alive = request.headers.get(
                    "connection", "keep-alive"
                ).lower() != "close"
                if not keep_alive:
                    response.headers.setdefault("connection", "close")
                writer.write(response.encode())
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away (or the server is stopping)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            finally:
                # Deregister last: until here the task still awaits the
                # transport teardown, and stop() must be able to reap it.
                if task is not None:
                    self._connections.discard(task)
