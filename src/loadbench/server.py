"""Embeddable object server: a minimal S3-style store over HTTP/1.1.

Wire protocol (path-style keys, no auth):

    GET /{key}                 200 + full body
    GET /{key} + Range header  206 + requested bytes + Content-Range
                               (bytes=a-b, bytes=a- or the suffix bytes=-n)
    GET /{key} + Range list    206 multipart/byteranges, one part per range
                               in the list's order (bytes=a-b,c-d,...)
    HEAD /{key}                the GET's status and headers, no body
    PUT /{key}                 200 after storing the body
    GET /?prefix=p             200 + newline-separated keys (listing helper)
    400                        invalid key (empty, or with a '..' segment),
                               a malformed request or header line, or a
                               PUT's Content-Length malformed or negative
    404                        unknown key
    416                        a malformed or unsatisfiable range, or any
                               such range of a list (+ Content-Range:
                               bytes */total)
    500                        any other failure of the backend
    501                        a method other than GET, HEAD and PUT

Every connection has a thread of its own, which reads its requests in
turn on a blocking socket and answers each before it reads the next.
Connections are persistent (HTTP/1.1 keep-alive), so pipelined requests
are answered in order.  A connection reads its requests' heads as the
client reads its responses' (``storage._Wire``), a line at a time, each
received byte searched once: a request line of 64 KiB or more answers 414,
a header line of 64 KiB or more, or more than 100 headers, 431, a malformed
request line or a header line without a colon 400, and a connection that
ends before the head's blank line, or before a PUT's whole body, gets no
reply.  The connection closes after an HTTP/1.0 request, ``Connection:
close`` or any error answered before the request is parsed.  A response's
status line and headers go out with its body, never joined, in one
``sendmsg`` of at most IOV_MAX buffers as far as the socket takes them; an
error reply has no body.  The sockets set TCP_NODELAY, so a reply leaves at
once instead of waiting on the client's ACK of an earlier one.

The server keeps nothing between requests: a GET or HEAD of an object asks
the backend for its size, and a PUT is one backend ``put``.  A GET of the
whole object is then one ``get``, and a GET with ranges one ``read_into``
of all of them, however many the ``Range`` header lists; a multipart
reply's part heads and slices of that one buffer go out as they are.  A
HEAD says the Content-Length the GET would send.

An optional ``LatencyModel`` delays each request before it is served, which
is how the remote-storage experiments dial in AWS-like or LAN-like round
trips.  A connection's thread draws the request's sample once the request
has arrived whole and waits it out before the backend calls, so requests on
different connections pay their latency in parallel rather than queueing
behind one another.  Bytes that arrive during the hold wait in the socket
until the reply is out.  A client that shuts down its sending side (a
half-close) still gets its reply, and then the connection closes.  A reset
during the hold closes the connection, and its request is never answered
nor read from the backend.
"""

from __future__ import annotations

import os
import re
import secrets
import socket
import sys
import threading
from contextlib import suppress
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs, unquote

from .storage import (
    _BadHead,
    _Wire,
    LatencyModel,
    LocalBackend,
    NotFoundError,
    RangeError,
    ReadError,
    StorageBackend,
)

_RANGE_RE = re.compile(r"(\d+)-(\d*)|-(\d+)")  # one range of a Range header
_SERVER = f"loadbench-store/0.1 Python/{sys.version.split()[0]}"
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_METHODS = ("GET", "HEAD", "PUT")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_PART = "Content-Type: application/octet-stream\r\n"
_OBJECT = f"{_PART}Accept-Ranges: bytes\r\n"
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # the most buffers one sendmsg takes


def _parse_range(header: str, total: int) -> list[tuple[int, int]]:
    """The (start, end) pairs, inclusive, that a ``Range`` header asks of an
    object of ``total`` bytes, in the header's order.

    The header is ``bytes=`` and a comma-separated list of ranges.
    ``a-b`` and ``a-`` are absolute; the suffix ``-n`` is the last n bytes,
    the whole object when n >= total.  A malformed header or an empty list
    element, ``a-b`` with b < a, ``-0``, or any range that does not lie
    within the object raises RangeError.
    """
    unit, _, specs = header.strip().partition("=")
    if unit != "bytes":
        raise RangeError(f"unsupported range {header!r}")
    ranges = []
    for spec in specs.split(","):
        match = _RANGE_RE.fullmatch(spec.strip())
        if not match:
            raise RangeError(f"unsupported range {header!r}")
        first, last, suffix = match.groups()
        if suffix is None:
            start, end = int(first), int(last) if last else total - 1
            if last and end < start:
                raise RangeError(f"range {spec!r} ends before it starts")
        elif int(suffix) == 0:
            raise RangeError("empty suffix range")
        else:
            start, end = max(0, total - int(suffix)), total - 1
        if start >= total or end >= total:
            raise RangeError(f"range {spec!r} beyond object of {total} bytes")
        ranges.append((start, end))
    return ranges


class _Conn(_Wire):
    """One client connection and the request it carries.

    The bytes of a pipelined request wait in ``buf`` until the request
    before is answered.  A request's ``length`` is the body bytes a PUT
    sends, or None for a malformed Content-Length.
    """

    def read_request(self) -> None:
        """Read the next request whole; EOFError if the connection ends
        before it does.  A head the server refuses raises _BadHead with the
        status that answers it."""
        self.close_connection = False  # HTTP/1.0 or ``Connection: close``
        self.body: bytes | None = None
        line, self.fields = self.head()
        self._request_line(line)
        self._end_head()
        if self.length:
            end = self.pos + self.length
            while len(self.buf) < end:  # it grows as the bytes arrive
                self._recv()
            self.body = bytes(self.buf[self.pos:end])
            self.pos = end

    def _request_line(self, line: str) -> None:
        words = line.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _BadHead(400, f"malformed request line {line[:80]!r}")
        self.method, target, self.version = words
        # as http.server does: a leading '//' would parse as a host
        self.target = "/" + target.lstrip("/") if target.startswith("//") else target

    def _end_head(self) -> None:
        fields = self.fields
        self.close_connection = (self.version == "HTTP/1.0"
                                 or fields.get("connection", "").lower() == "close")
        if (fields.get("expect", "").lower() == "100-continue"
                and self.version == "HTTP/1.1"):
            self.sock.sendall(_CONTINUE)
        if self.method not in _METHODS:
            raise _BadHead(501, f"method {self.method!r} not implemented")
        self.length: int | None = 0
        if self.method == "PUT":
            length = fields.get("content-length", "0")
            if length.isdecimal():
                self.length = int(length)
            else:
                # malformed or negative: where the body ends is unknown, and
                # so is where the next request on this connection starts
                self.length, self.close_connection = None, True


class ObjectServer:
    """A running store; use as a context manager or call ``stop()`` yourself.

    Its thread ``loadbench-store`` accepts connections and starts a daemon
    thread, ``loadbench-store-conn``, for each.  That thread reads the
    connection's requests one at a time, holds each for its latency sample,
    makes its backend calls and sends the reply, and it ends when the client
    closes the connection.  ``stop()`` ends them all and joins them.
    """

    # seconds a connection may wait for a request's bytes before the server
    # closes it; None waits for ever
    _idle_timeout: float | None = None

    def __init__(self, backend: StorageBackend, port: int = 0,
                 host: str = "127.0.0.1",
                 latency: LatencyModel | None = None) -> None:
        self.backend = backend
        self.latency = latency or LatencyModel(mean_ms=0.0)
        self.host = host
        # each connection's thread and socket; only the accept thread adds
        # to it, and stop() reads it once that thread has ended
        self._conns: dict[threading.Thread, socket.socket] = {}
        self._closing = threading.Lock()  # a socket's close, or stop()'s shutdown
        self._stopping = threading.Event()  # also ends every latency hold
        self._boundary = secrets.token_hex(16)  # between multipart/byteranges parts
        # a burst of first connections, such as many clients starting
        # together, must not overflow the accept queue: each dropped
        # handshake is only retried a second later
        self._listener = socket.create_server((host, port), backlog=socket.SOMAXCONN)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self._accept, name="loadbench-store", daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Close the listener and every connection, and join every thread
        the server started; a request still held goes unanswered."""
        self._stopping.set()
        with suppress(OSError):  # wakes the blocked accept
            self._listener.shutdown(socket.SHUT_RDWR)
        self._thread.join()
        self._listener.close()
        with self._closing:  # wakes each connection's recv or sendmsg
            for sock in self._conns.values():
                with suppress(OSError):  # closed already
                    sock.shutdown(socket.SHUT_RDWR)
        for thread in self._conns:
            thread.join()

    def __enter__(self) -> "ObjectServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the threads -------------------------------------------------------------

    def _accept(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:  # stop(), or none can be taken now
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self._idle_timeout)
            thread = threading.Thread(target=self._serve, args=(sock,),
                                      name="loadbench-store-conn", daemon=True)
            thread.start()
            # a thread drops out once it has ended, its socket closed
            self._conns = {t: s for t, s in self._conns.items() if t.is_alive()}
            self._conns[thread] = sock

    def _serve(self, sock: socket.socket) -> None:
        """Answer the connection's requests until it ends."""
        conn = _Conn(sock)
        try:
            while self._answer(conn):
                pass
        except OSError:  # a reset, the idle timeout, or stop()
            pass
        finally:
            with self._closing:
                with suppress(OSError):
                    sock.shutdown(socket.SHUT_WR)
                sock.close()

    def _answer(self, conn: _Conn) -> bool:
        """Read ``conn``'s next request, hold it for its latency and answer
        it; True while the connection carries on."""
        try:
            conn.read_request()
        except EOFError:
            return False  # a request cut short gets no reply, and stores nothing
        except _BadHead as bad:  # answered, and the connection closes
            conn.close_connection = True
            self._reply(conn, bad.status)
            return False
        if (self._stopping.wait(self.latency.sample_ms() / 1000.0)
                or conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)):
            return False  # stopped, or reset during the hold: no backend calls
        self._reply(conn, *self._respond(conn))
        return not conn.close_connection

    def _respond(self, conn: _Conn) -> tuple[int, list, str, int]:
        """Make the backend calls that ``conn``'s request asks for: the
        status, body buffers, extra header lines and Content-Length of its
        reply (a HEAD's says what the GET would send)."""
        total = 0
        try:
            path, _, query = conn.target.partition("?")
            key = unquote(path.lstrip("/"))
            if conn.method == "PUT":
                if conn.length is None:
                    return 400, [], "", 0
                self.backend.put(key, conn.body or b"")
                return 200, [], "", 0
            if conn.method == "GET" and not key:
                prefix = parse_qs(query).get("prefix", [""])[0]
                body = "\n".join(self.backend.list(prefix)).encode("utf-8")
                return 200, [body], "Content-Type: text/plain; charset=utf-8\r\n", len(body)
            # GET or HEAD of one object: all of it, or the ranges that a
            # Range header asks for; a HEAD reads no bytes of the object
            total = self.backend.size(key)
            header = conn.fields.get("range")
            if header is None:
                if conn.method == "HEAD":
                    return 200, [], _OBJECT, total
                body = self.backend.get(key)
                return 200, [body], _OBJECT, len(body)
            ranges = _parse_range(header, total)
            data = None
            if conn.method == "GET":
                data = memoryview(bytearray(sum(end - start + 1 for start, end in ranges)))
                self.backend.read_into([(key, start, end - start + 1)
                                        for start, end in ranges], data)
        except Exception as exc:  # read_into's ReadError carries the cause
            cause = exc.cause if isinstance(exc, ReadError) else exc
            if isinstance(cause, NotFoundError):
                return 404, [], "", 0
            if isinstance(cause, RangeError):
                return 416, [], f"Content-Range: bytes */{total}\r\n", 0
            if isinstance(cause, ValueError):  # an invalid key
                return 400, [], "", 0
            return 500, [], "", 0
        if len(ranges) == 1:
            (start, end), = ranges
            return (206, [] if data is None else [data],
                    f"{_OBJECT}Content-Range: bytes {start}-{end}/{total}\r\n",
                    end - start + 1)
        # several ranges: one part each, in the header's order
        body, pos, delimiter = [], 0, f"--{self._boundary}\r\n"
        for start, end in ranges:
            body.append(f"{delimiter}{_PART}Content-Range: bytes {start}-{end}/{total}"
                        "\r\n\r\n".encode("latin-1"))
            if data is not None:
                body.append(data[pos:pos + end - start + 1])
            pos += end - start + 1
            delimiter = f"\r\n--{self._boundary}\r\n"
        body.append(f"\r\n--{self._boundary}--\r\n".encode("latin-1"))
        length = sum(map(len, body)) + (pos if data is None else 0)
        return (206, [] if data is None else body,
                f"Content-Type: multipart/byteranges; boundary={self._boundary}\r\n"
                "Accept-Ranges: bytes\r\n", length)

    def _reply(self, conn: _Conn, status: int, body: list = (), fields: str = "",
               length: int = 0) -> None:
        """Send a reply to ``conn``'s request.  ``body`` is its buffers,
        ``fields`` header lines, each ending in CRLF, and ``length`` its
        Content-Length.  The buffers are never joined: they go out in one
        ``sendmsg`` of at most IOV_MAX of them at a time, as far as the
        socket takes them.  The reply says ``Connection: close`` when the
        connection closes after it."""
        close = "Connection: close\r\n" if conn.close_connection else ""
        out = [f"HTTP/1.1 {status} {_PHRASES[status]}\r\nServer: {_SERVER}\r\n"
               f"Date: {formatdate(usegmt=True)}\r\nContent-Length: {length}\r\n"
               f"{fields}{close}\r\n".encode("latin-1"), *body]
        while out:
            sent = conn.sock.sendmsg(out[:_IOV_MAX])
            done = 0
            while done < len(out) and sent >= len(out[done]):
                sent -= len(out[done])
                done += 1
            del out[:done]
            if sent:
                out[0] = memoryview(out[0])[sent:]


def serve(directory: str | Path | StorageBackend, port: int = 0,
          latency: LatencyModel | None = None,
          host: str = "127.0.0.1") -> ObjectServer:
    """Serve a directory (or any backend) on ``port`` (0 picks a free one)."""
    backend = (directory if isinstance(directory, StorageBackend)
               else LocalBackend(directory))
    return ObjectServer(backend, port=port, host=host, latency=latency)
