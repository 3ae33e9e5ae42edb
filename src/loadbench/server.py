"""Embeddable object server: a minimal S3-style store over HTTP/1.1.

Wire protocol (path-style keys, no auth):

    GET /{key}                 200 + full body
    GET /{key} + Range header  206 + requested bytes + Content-Range
                               (bytes=a-b, bytes=a- or the suffix bytes=-n)
    HEAD /{key}                headers only (Content-Length, Accept-Ranges)
    PUT /{key}                 200 after storing the body
    GET /?prefix=p             200 + newline-separated keys (listing helper)
    404                        unknown key
    416                        unsatisfiable range (+ Content-Range: bytes */total)

Connections are persistent (HTTP/1.1 keep-alive), and each is handled on
its own thread, so concurrent clients each pay their own latency rather than
queueing behind one another.  Responses go out as a header write and a body
write, so the sockets set TCP_NODELAY: without it, a small body written after
the headers waits on the client's delayed ACK (tens of milliseconds per
request on a reused connection).

An optional ``LatencyModel`` delays each request before it is served, which
is how the remote-storage experiments dial in AWS-like or LAN-like round
trips.
"""

from __future__ import annotations

import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote, urlparse, parse_qs

from .storage import (
    ByteRange,
    LatencyModel,
    LocalBackend,
    NotFoundError,
    RangeError,
    StorageBackend,
)

_RANGE_RE = re.compile(r"bytes=(?:(\d+)-(\d*)|-(\d+))$")


def _parse_range(header: str, total: int) -> ByteRange:
    """The range that a ``Range`` header asks of an object of ``total`` bytes.

    ``bytes=a-b`` and ``bytes=a-`` are absolute (ByteRange raises ValueError
    when b < a); the suffix ``bytes=-n`` is the last n bytes, the whole
    object when n >= total.  A malformed header or ``bytes=-0`` raises
    RangeError.
    """
    match = _RANGE_RE.match(header.strip())
    if not match:
        raise RangeError(f"unsupported range {header!r}")
    first, last, suffix = match.groups()
    if suffix is None:
        return ByteRange(int(first), int(last) if last else None)
    if int(suffix) == 0:
        raise RangeError("empty suffix range")
    return ByteRange(max(0, total - int(suffix)))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "loadbench-store/0.1"
    disable_nagle_algorithm = True  # headers and body are two writes

    # set per server class in ObjectServer
    backend: StorageBackend
    latency: LatencyModel | None

    def _delay(self) -> None:
        if self.latency is not None:
            delay = self.latency.sample_seconds()
            if delay > 0:
                threading.Event().wait(delay)

    def _key(self) -> str:
        return unquote(urlparse(self.path).path.lstrip("/"))

    def _send(self, status: int, body: bytes = b"",
              headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body and self.command != "HEAD":
            self.wfile.write(body)

    def _serve_listing(self) -> None:
        query = parse_qs(urlparse(self.path).query)
        prefix = query.get("prefix", [""])[0]
        body = "\n".join(self.backend.list(prefix)).encode("utf-8")
        self._send(200, body, {"Content-Type": "text/plain; charset=utf-8"})

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._delay()
        key = self._key()
        if not key:
            self._serve_listing()
            return
        try:
            total = self.backend.size(key)
        except NotFoundError:
            self._send(404)
            return
        except ValueError:
            self._send(400)
            return

        range_header = self.headers.get("Range")
        if range_header is None:
            try:
                body = self.backend.get(key)
            except NotFoundError:
                self._send(404)
                return
            except Exception:
                self._send(500)
                return
            self._send(200, body, {
                "Content-Type": "application/octet-stream",
                "Accept-Ranges": "bytes",
            })
            return

        try:
            byte_range = _parse_range(range_header, total)
            body = self.backend.get(key, byte_range)
        except (RangeError, ValueError):
            self._send(416, headers={"Content-Range": f"bytes */{total}"})
            return
        except NotFoundError:
            self._send(404)
            return
        except Exception:
            self._send(500)
            return
        start = byte_range.start
        last = start + len(body) - 1
        self._send(206, body, {
            "Content-Type": "application/octet-stream",
            "Accept-Ranges": "bytes",
            "Content-Range": f"bytes {start}-{last}/{total}",
        })

    def do_HEAD(self) -> None:  # noqa: N802
        self._delay()
        key = self._key()
        try:
            total = self.backend.size(key)
        except (NotFoundError, ValueError):
            self._send(404)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Accept-Ranges", "bytes")
        self.send_header("Content-Length", str(total))
        self.end_headers()

    def do_PUT(self) -> None:  # noqa: N802
        self._delay()
        key = self._key()
        length = int(self.headers.get("Content-Length", 0))
        data = self.rfile.read(length) if length else b""
        try:
            self.backend.put(key, data)
        except ValueError:
            self._send(400)
            return
        except Exception:
            self._send(500)
            return
        self._send(200)

    def log_message(self, fmt: str, *args) -> None:  # silence request logging
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default backlog is 5: a burst of first connections,
    # such as a client's fetch threads waking together, overflows it, and
    # each dropped handshake is only retried a second later
    request_queue_size = socket.SOMAXCONN


class ObjectServer:
    """A running store; use as a context manager or call ``stop()`` yourself."""

    def __init__(self, backend: StorageBackend, port: int = 0,
                 host: str = "127.0.0.1",
                 latency: LatencyModel | None = None) -> None:
        handler = type("BoundHandler", (_Handler,),
                       {"backend": backend, "latency": latency})
        self._httpd = _Server((host, port), handler)
        self.backend = backend
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="loadbench-store", daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "ObjectServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(directory: str | Path | StorageBackend, port: int = 0,
          latency: LatencyModel | None = None,
          host: str = "127.0.0.1") -> ObjectServer:
    """Serve a directory (or any backend) on ``port`` (0 picks a free one)."""
    backend = (directory if isinstance(directory, StorageBackend)
               else LocalBackend(directory))
    return ObjectServer(backend, port=port, host=host, latency=latency)
