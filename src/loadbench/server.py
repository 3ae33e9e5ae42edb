"""Embeddable object server: a minimal S3-style store over HTTP/1.1.

Wire protocol (path-style keys, no auth):

    GET /{key}                 200 + full body
    GET /{key} + Range header  206 + requested bytes + Content-Range
                               (bytes=a-b, bytes=a- or the suffix bytes=-n)
    HEAD /{key}                the GET's status and headers, no body
    PUT /{key}                 200 after storing the body
    GET /?prefix=p             200 + newline-separated keys (listing helper)
    400                        invalid key (empty, or with a '..' segment),
                               a malformed request or header line, or a
                               PUT's Content-Length malformed or negative
    404                        unknown key
    416                        unsatisfiable range (+ Content-Range: bytes */total)
    500                        any other failure of the backend
    501                        a method other than GET, HEAD and PUT

Connections are persistent (HTTP/1.1 keep-alive), and each is handled on
its own thread, so concurrent clients each pay their own latency rather than
queueing behind one another.  The handler parses a request line and its
headers itself, by the rules the client reads a response head with: a
request line over 64 KiB answers 414, a header line over 64 KiB or more than
100 headers 431, a malformed request line or a header line without a colon
400, and a connection that ends before the head's blank line gets no reply.
It closes the connection after an HTTP/1.0 request, ``Connection: close`` or
any error it answers before the request is parsed.  Each response (status
line, headers and body) is one write; an error reply has no body.  The
sockets set TCP_NODELAY, so that write leaves at once instead of waiting on
the client's ACK of an earlier one.

A GET or HEAD makes at most one backend call: the server asks the backend
for an object's size once and keeps it until a PUT of that key.  Objects
are assumed to change only through the server's PUT.

An optional ``LatencyModel`` delays each request before it is served (its
``wait``, the same sleep as ``with_latency``), which is how the
remote-storage experiments dial in AWS-like or LAN-like round trips.
"""

from __future__ import annotations

import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote, urlparse, parse_qs

from .storage import (
    _MAX_HEADERS,
    _MAX_LINE,
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

    ``bytes=a-b`` and ``bytes=a-`` are absolute; the suffix ``bytes=-n`` is
    the last n bytes, the whole object when n >= total.  A malformed header,
    ``bytes=a-b`` with b < a, or ``bytes=-0`` raises RangeError.
    """
    match = _RANGE_RE.match(header.strip())
    if not match:
        raise RangeError(f"unsupported range {header!r}")
    first, last, suffix = match.groups()
    if suffix is None:
        if last and int(last) < int(first):
            raise RangeError(f"range {header!r} ends before it starts")
        return ByteRange(int(first), int(last) if last else None)
    if int(suffix) == 0:
        raise RangeError("empty suffix range")
    return ByteRange(max(0, total - int(suffix)))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "loadbench-store/0.1"
    # a response is one write, but Nagle would still hold it back until the
    # client acknowledges what was sent before it on the connection
    disable_nagle_algorithm = True

    def _key(self) -> str:
        return unquote(urlparse(self.path).path.lstrip("/"))

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the headers into ``headers``, a
        dict keyed in lower case; on failure, answer and return False."""
        self.requestline = str(self.raw_requestline, "latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.command, self.request_version = None, self.protocol_version
            self.send_error(400)
            return False
        self.command, path, self.request_version = words
        # as http.server does: a leading '//' would parse as a host
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line:  # the connection ended inside the head: no reply
                self.close_connection = True
                return False
            if len(line) > _MAX_LINE:
                self.send_error(431)
                return False
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                self.send_error(400)
                return False
            self.headers[name.strip().lower()] = value.strip()
        else:
            self.send_error(431)
            return False
        self.close_connection = (self.request_version == "HTTP/1.0" or
                                 self.headers.get("connection", "").lower() == "close")
        if (self.headers.get("expect", "").lower() == "100-continue"
                and self.request_version == "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def send_error(self, code: int, *_) -> None:
        """Every error answered before a request is parsed (http.server's own
        414 and 501 too): one write, no body, and the connection closes."""
        self.close_connection = True
        self._send(code)

    def _send(self, status: int, body: bytes = b"",
              headers: dict[str, str] | None = None) -> None:
        """One response in one write; ``headers`` may replace the body's
        Content-Length.  It says ``Connection: close`` when the connection
        closes after it."""
        fields = {"Server": self.version_string(), "Date": self.date_time_string(),
                  "Content-Length": str(len(body)), **(headers or {})}
        if self.close_connection:
            fields["Connection"] = "close"
        head = [f"{self.protocol_version} {status} {self.responses[status][0]}",
                *(f"{name}: {value}" for name, value in fields.items())]
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)

    def _serve_listing(self) -> None:
        query = parse_qs(urlparse(self.path).query)
        prefix = query.get("prefix", [""])[0]
        body = "\n".join(self.server.backend.list(prefix)).encode("utf-8")
        self._send(200, body, {"Content-Type": "text/plain; charset=utf-8"})

    def _serve_object(self) -> None:
        """GET or HEAD of one object: all of it, or the range that a
        ``Range`` header asks for.  A HEAD reads no bytes of the object."""
        total = 0
        try:
            key = self._key()
            total = self.server.object_size(key)
            header = self.headers.get("range")
            byte_range = None if header is None else _parse_range(header, total)
            start, end = ((0, total - 1) if byte_range is None
                          else byte_range.resolve(total))
            body = (b"" if self.command == "HEAD"
                    else self.server.backend.get(key, byte_range))
        except NotFoundError:
            return self._send(404)
        except RangeError:
            return self._send(416, headers={"Content-Range": f"bytes */{total}"})
        except ValueError:  # an invalid key
            return self._send(400)
        except Exception:
            return self._send(500)
        headers = {"Content-Type": "application/octet-stream",
                   "Accept-Ranges": "bytes"}
        if self.command == "HEAD":  # the length that a GET would send
            headers["Content-Length"] = str(end - start + 1)
        if byte_range is None:
            return self._send(200, body, headers)
        headers["Content-Range"] = f"bytes {start}-{end}/{total}"
        self._send(206, body, headers)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self.server.latency.wait()
        if self._key():
            self._serve_object()
        else:
            self._serve_listing()

    def do_HEAD(self) -> None:  # noqa: N802
        self.server.latency.wait()
        self._serve_object()

    def do_PUT(self) -> None:  # noqa: N802
        self.server.latency.wait()
        length = self.headers.get("content-length", "0")
        if not length.isdecimal():
            # malformed or negative: where the body ends is unknown, and so
            # is where the next request on this connection starts
            self.close_connection = True
            return self._send(400)
        data = self.rfile.read(int(length))
        try:
            self.server.put_object(self._key(), data)
        except ValueError:  # an invalid key
            return self._send(400)
        except Exception:
            return self._send(500)
        self._send(200)

    def log_message(self, fmt: str, *args) -> None:  # silence request logging
        pass


class ObjectServer(ThreadingHTTPServer):
    """A running store; use as a context manager or call ``stop()`` yourself."""

    daemon_threads = True
    # socketserver's default backlog is 5: a burst of first connections,
    # such as many clients starting together, overflows it, and each
    # dropped handshake is only retried a second later
    request_queue_size = socket.SOMAXCONN

    def __init__(self, backend: StorageBackend, port: int = 0,
                 host: str = "127.0.0.1",
                 latency: LatencyModel | None = None) -> None:
        super().__init__((host, port), _Handler)
        self.backend = backend
        self.latency = latency or LatencyModel(mean_ms=0.0)
        self.host = host
        self.port = self.server_address[1]
        self._sizes: dict[str, int] = {}
        self._sizes_lock = threading.Lock()  # orders size reads against PUTs
        self._thread = threading.Thread(
            target=self.serve_forever, name="loadbench-store", daemon=True)
        self._thread.start()

    def object_size(self, key: str) -> int:
        """The size of object ``key``, asked of the backend on first use."""
        size = self._sizes.get(key)
        if size is None:
            with self._sizes_lock:
                size = self._sizes.get(key)
                if size is None:
                    size = self._sizes[key] = self.backend.size(key)
        return size

    def put_object(self, key: str, data: bytes) -> None:
        """Store ``data`` as ``key`` and forget the size kept for it."""
        with self._sizes_lock:
            try:
                self.backend.put(key, data)
            finally:  # a failed PUT may have changed the object too
                self._sizes.pop(key, None)

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(directory: str | Path | StorageBackend, port: int = 0,
          latency: LatencyModel | None = None,
          host: str = "127.0.0.1") -> ObjectServer:
    """Serve a directory (or any backend) on ``port`` (0 picks a free one)."""
    backend = (directory if isinstance(directory, StorageBackend)
               else LocalBackend(directory))
    return ObjectServer(backend, port=port, host=host, latency=latency)
