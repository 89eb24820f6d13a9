"""The line-by-line HTTP/1.1 request parser the server used to run.

``_read_request`` is the serving plane's former request parser, kept
verbatim as the oracle for ``tests/serve/test_http_parser.py``: it awaits
one ``StreamReader.readline`` per head line.  The production parser
(:mod:`repro.serve.http`) reads each head in one pass over the
connection's buffered bytes and must accept and reject exactly what this
one does -- except that a line past the stream limit, on which this
parser lets ``readline``'s ``ValueError`` escape, is answered there with
the same 400 as an over-long line under the limit.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.serve.http import MAX_BODY_BYTES, MAX_HEADER_BYTES, HttpError, HttpRequest

__all__ = ["_read_request"]


async def _read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input (the caller answers
    with the error status and closes the connection).
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line.strip():
        return None  # clean close (or a bare liveness connect)
    if len(request_line) > MAX_HEADER_BYTES:
        raise HttpError(400, "request line too long")
    try:
        text = request_line.decode("latin-1").strip()
        method, target, version = text.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpError(400, "truncated header block")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "undecodable header") from None
        if not _:
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
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body") from None
    elif headers.get("transfer-encoding"):
        raise HttpError(501, "chunked transfer encoding not supported")

    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )
