"""Client/server seam of the campaign service: HTTP/1.1 over a Unix socket.

Stdlib-only on both sides.  The server is a thin asyncio adapter from wire
requests to :class:`~repro.runtime.service.CampaignService` calls:

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
GET    ``/health``                  roster, quotas, campaign-state counts
GET    ``/campaigns``               status of every campaign
POST   ``/campaigns``               submit (JSON :class:`CampaignSpec` body);
                                    409 with the in-flight fingerprint when
                                    the label is already running
GET    ``/campaigns/<id>``          one campaign's status (id or label)
GET    ``/campaigns/<id>/tail``     live progress stream — NDJSON by default,
                                    SSE with ``?format=sse``
DELETE ``/campaigns/<id>``          cancel: group-kill shards, journal it
====== ============================ ==========================================

Streaming responses carry no ``Content-Length`` and are delimited by
connection close (every response sends ``Connection: close``), which keeps
the protocol a strict, curl-compatible subset of HTTP/1.1 with none of
chunked encoding's complexity.  A client that disconnects mid-stream (or
mid-anything) only ever tears down its own handler: the write raises, the
handler's ``finally`` closes the transport, and the daemon keeps serving —
the fd-leak chaos test in ``tests/runtime/test_service.py`` holds the server
to exactly that.

:class:`ServiceClient` is the deliberately *synchronous* counterpart used by
the ``repro-campaign submit|status|tail|cancel`` CLI and by tests: plain
``socket`` I/O, no event loop, so client-side code stays trivially steppable.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
from pathlib import Path
from typing import Dict, Iterator, Optional
from urllib.parse import parse_qs, unquote

from repro.runtime.service import CampaignService, CampaignSpec, ServiceError

#: Largest accepted request body (submissions are tiny; anything bigger is
#: a client bug or abuse).
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request line / header line.
MAX_LINE_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ProtocolError(Exception):
    """A malformed or oversized request; carries the HTTP status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    """One parsed request: method, path segments, query, JSON body."""

    def __init__(self, method: str, path: str, query: Dict[str, list], body: bytes) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.body = body
        self.segments = [unquote(part) for part in path.strip("/").split("/") if part]

    def json(self) -> dict:
        """The request body parsed as a JSON object."""
        if not self.body:
            raise ProtocolError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise ProtocolError(400, f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return payload


async def _read_request(reader: "asyncio.StreamReader") -> Optional[_Request]:
    """Parse one HTTP/1.1 request off the stream (``None`` on immediate EOF)."""
    line = await reader.readline()
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(400, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ProtocolError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length > 0 else b""
    path, _, query_text = target.partition("?")
    return _Request(method, path, parse_qs(query_text), body)


def _response(status: int, payload: object, *, content_type: str = "application/json") -> bytes:
    """One complete non-streaming response with Content-Length."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def _stream_head(content_type: str) -> bytes:
    """Response head of a connection-delimited streaming response."""
    return (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: {content_type}\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")


class ServiceAPI:
    """The campaign service's Unix-socket HTTP server."""

    def __init__(self, service: CampaignService, socket_path) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self._server: Optional["asyncio.AbstractServer"] = None

    async def start(self) -> None:
        """Bind and start accepting connections (replaces a stale socket file)."""
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path)
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting connections and remove the socket file."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with contextlib.suppress(OSError):
            self.socket_path.unlink()

    # ------------------------------------------------------------- connections
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one connection: parse, dispatch, always clean up.

        A client that vanishes mid-request or mid-stream must never take the
        daemon with it: connection-level errors are swallowed here (the
        stream tail simply ends) and the transport is closed in ``finally``,
        so no file descriptor outlives its connection.
        """
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except ProtocolError as error:
                writer.write(_response(error.status, {"error": str(error)}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            pass
        except Exception as error:  # one bad handler must not kill the daemon
            with contextlib.suppress(Exception):
                writer.write(_response(500, {"error": str(error)}))
                await writer.drain()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: _Request, writer) -> None:
        """Route one parsed request to the service."""
        segments = request.segments
        if request.method == "GET" and segments == ["health"]:
            writer.write(_response(200, {"status": "ok", **self.service.describe()}))
            await writer.drain()
            return
        if segments[:1] != ["campaigns"]:
            raise ProtocolError(404, f"no such path {request.path!r}")
        if request.method == "POST" and len(segments) == 1:
            await self._submit(request, writer)
            return
        if request.method == "GET" and len(segments) == 1:
            campaigns = [
                self.service.campaign_status(self.service.campaigns[campaign_id])
                for campaign_id in sorted(self.service.campaigns)
            ]
            writer.write(_response(200, {"campaigns": campaigns}))
            await writer.drain()
            return
        if len(segments) < 2:
            raise ProtocolError(405, f"{request.method} not allowed on {request.path!r}")
        try:
            campaign = self.service.resolve(segments[1])
        except ServiceError as error:
            raise ProtocolError(404, str(error))
        if request.method == "GET" and len(segments) == 2:
            writer.write(_response(200, self.service.campaign_status(campaign)))
            await writer.drain()
            return
        if request.method == "GET" and segments[2:] == ["tail"]:
            await self._tail(request, campaign, writer)
            return
        if request.method == "DELETE" and len(segments) == 2:
            try:
                cancelled = await self.service.cancel(campaign.id)
            except ServiceError as error:
                raise ProtocolError(409, str(error))
            writer.write(_response(200, self.service.campaign_status(cancelled)))
            await writer.drain()
            return
        raise ProtocolError(405, f"{request.method} not allowed on {request.path!r}")

    async def _submit(self, request: _Request, writer) -> None:
        """POST /campaigns — submit one campaign."""
        try:
            spec = CampaignSpec.from_dict(request.json())
            campaign = await self.service.submit(spec)
        except ServiceError as error:
            status = 409 if "already in flight" in str(error) else 400
            writer.write(_response(status, {"error": str(error)}))
            await writer.drain()
            return
        writer.write(_response(201, self.service.campaign_status(campaign)))
        await writer.drain()

    async def _tail(self, request: _Request, campaign, writer) -> None:
        """GET /campaigns/<id>/tail — stream progress until terminal state."""
        fmt = (request.query.get("format") or ["ndjson"])[0]
        if fmt not in ("ndjson", "sse"):
            raise ProtocolError(400, f"unknown tail format {fmt!r} (ndjson or sse)")
        writer.write(_stream_head("text/event-stream" if fmt == "sse" else "application/x-ndjson"))
        await writer.drain()
        async for event in self.service.stream(campaign):
            data = json.dumps(event, sort_keys=True)
            if fmt == "sse":
                writer.write(f"data: {data}\n\n".encode("utf8"))
            else:
                writer.write((data + "\n").encode("utf8"))
            # drain() is where a vanished client surfaces (ConnectionError),
            # unwinding this handler without touching the campaign itself.
            await writer.drain()


# --------------------------------------------------------------------- client
class ServiceClientError(Exception):
    """The daemon refused a request (carries the HTTP status and detail)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Synchronous Unix-socket HTTP client for the campaign service.

    One connection per request (the server closes after each response), so
    the client object is stateless and reusable.  Used by the thin
    ``repro-campaign submit|status|tail|cancel`` commands and by tests.
    """

    def __init__(self, socket_path, timeout: float = 60.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = float(timeout)

    # -------------------------------------------------------------- transport
    def _connect(self) -> socket.socket:
        """A connected Unix-domain socket."""
        connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        connection.settimeout(self.timeout)
        try:
            connection.connect(self.socket_path)
        except OSError as error:
            connection.close()
            raise ServiceClientError(
                0, f"cannot reach the campaign service at {self.socket_path}: {error}"
            )
        return connection

    @staticmethod
    def _request_bytes(method: str, path: str, payload: Optional[dict]) -> bytes:
        """Serialize one request."""
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    def _read_head(handle) -> int:
        """Consume the status line + headers; return the status code."""
        status_line = handle.readline()
        if not status_line:
            raise ServiceClientError(0, "empty response from the campaign service")
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServiceClientError(0, f"malformed status line {status_line!r}")
        while True:
            line = handle.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        return int(parts[1])

    @staticmethod
    def _decode(status: int, body: bytes):
        """The JSON response body; raises :class:`ServiceClientError` on non-2xx."""
        try:
            decoded = json.loads(body) if body.strip() else {}
        except json.JSONDecodeError:
            if status < 400:
                raise ServiceClientError(status, f"undecodable response body {body[:200]!r}")
            decoded = {}
        if status >= 400:
            message = decoded.get("error") if isinstance(decoded, dict) else None
            raise ServiceClientError(status, message or f"HTTP {status}")
        return decoded

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        """One request/response round trip; raises on non-2xx."""
        with contextlib.closing(self._connect()) as connection:
            connection.sendall(self._request_bytes(method, path, payload))
            with connection.makefile("rb") as handle:
                status = self._read_head(handle)
                body = handle.read()
        return self._decode(status, body)

    def stream(self, path: str) -> Iterator[dict]:
        """Yield NDJSON events from a streaming endpoint until the server closes."""
        with contextlib.closing(self._connect()) as connection:
            connection.sendall(self._request_bytes("GET", path, None))
            with connection.makefile("rb") as handle:
                status = self._read_head(handle)
                if status >= 400:
                    self._decode(status, handle.read())
                for line in handle:
                    line = line.strip()
                    if line:
                        yield json.loads(line)

    # ------------------------------------------------------------ convenience
    def health(self) -> dict:
        """GET /health."""
        return self.request("GET", "/health")

    def submit(self, spec: dict) -> dict:
        """POST /campaigns with a submission payload."""
        return self.request("POST", "/campaigns", spec)

    def campaigns(self) -> list:
        """GET /campaigns — every campaign's status."""
        return self.request("GET", "/campaigns").get("campaigns", [])

    def status(self, target: str) -> dict:
        """GET /campaigns/<target> (id or label)."""
        return self.request("GET", f"/campaigns/{target}")

    def tail(self, target: str) -> Iterator[dict]:
        """GET /campaigns/<target>/tail — NDJSON event iterator."""
        return self.stream(f"/campaigns/{target}/tail")

    def cancel(self, target: str) -> dict:
        """DELETE /campaigns/<target>."""
        return self.request("DELETE", f"/campaigns/{target}")


__all__ = [
    "MAX_BODY_BYTES",
    "ProtocolError",
    "ServiceAPI",
    "ServiceClient",
    "ServiceClientError",
]
