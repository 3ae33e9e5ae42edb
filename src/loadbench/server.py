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

One thread serves every connection from a selector loop.  Connections are
persistent (HTTP/1.1 keep-alive), and each carries one request at a time,
so pipelined requests are answered in order.  The loop reads a request's
head with the client's own head reader (``storage._HeadReader``), which
looks at each received byte once and splits the head in one pass once its
blank line has arrived: a request line over 64 KiB answers 414, a header
line over 64 KiB or more than 100 headers 431, a malformed request line or
a header line without a colon 400, and a connection that ends before the
head's blank line, or before a PUT's whole body, gets no reply.  It closes
the connection after an HTTP/1.0 request, ``Connection: close`` or any
error it answers before the request is parsed.  A response's status line
and headers go out with its body, never joined, in one ``sendmsg`` of at
most IOV_MAX buffers as far as the socket takes them; an error reply has no
body.  The sockets set TCP_NODELAY, so a reply leaves at once instead of
waiting on the client's ACK of an earlier one.

A GET or HEAD makes at most one backend call: the server asks the backend
for an object's size once and keeps it until a PUT of that key.  Objects
are assumed to change only through the server's PUT.  A GET of the whole
object is one ``get``, and a GET with ranges one ``read_into`` of all of
them, however many the ``Range`` header lists; a multipart reply's part
heads and slices of that one buffer go out as they are.  A HEAD says the
Content-Length the GET would send.

An optional ``LatencyModel`` delays each request before it is served, which
is how the remote-storage experiments dial in AWS-like or LAN-like round
trips.  The loop draws each request's sample as the request arrives and
answers it once that deadline passes, so concurrent requests pay their
latency in parallel rather than queueing behind one another.  A held
request's connection stays registered for reads, so a request costs no
change to the selector.  Bytes that arrive during the hold are buffered,
not parsed, until the reply is out.  The client's end of stream (a
half-close) stops the reading; the reply still goes out, and then the
connection closes.  A reset closes the connection at once, and its request
is never answered nor read from the backend.
"""

from __future__ import annotations

import heapq
import itertools
import os
import re
import secrets
import selectors
import socket
import sys
import threading
import time
from contextlib import suppress
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs, unquote

from .storage import (
    _RECV_BYTES,
    _BadHead,
    _HeadReader,
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


class _Conn:
    """One client connection and the request it carries.

    ``inbuf`` holds the bytes received and not yet consumed, ``out`` the
    reply buffers not yet sent.  The request's ``method`` is None until its
    head is read, and ``length`` is -1 until then; then it is the body bytes
    a PUT waits for, or None for a malformed Content-Length.  A request is
    ``held`` from when it is complete until its reply is queued.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.out: list[bytes | memoryview] = []
        self.events = 0         # what the selector watches it for
        self.since = 0.0        # when it last began to wait for bytes
        self.closing = False    # it closes once ``out`` is sent
        self.eof = False        # the client has sent all it will send
        self.reader = _HeadReader()  # reads each request's head from inbuf
        self.next_request()

    def next_request(self) -> None:
        self.method: str | None = None
        self.target = self.version = ""
        self.fields: dict[str, str] = {}
        self.length: int | None = -1
        self.body: bytes | None = None
        self.held = False
        self.close_connection = False  # HTTP/1.0 or ``Connection: close``

    def parse(self) -> bool:
        """Read the request's head once it is complete; True once it is
        and ``inbuf`` holds the whole body.  A head the server refuses raises
        _BadHead with the status that answers it."""
        if self.length == -1:
            head = self.reader.read(self.inbuf)
            if head is None:
                return False
            line, self.fields, end = head
            del self.inbuf[:end]
            self._request_line(line)
            self._end_head()
        return self.length is None or len(self.inbuf) >= self.length

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
            self.out.append(_CONTINUE)
        if self.method not in _METHODS:
            raise _BadHead(501, f"method {self.method!r} not implemented")
        self.length = 0
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

    Its one thread, ``loadbench-store``, runs the selector loop: it accepts
    connections, reads requests, keeps each request's latency deadline on a
    heap and, once the deadline passes, makes the backend call itself, so a
    slow backend call delays every connection.
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
        self._sizes: dict[str, int] = {}
        self._conns: set[_Conn] = set()
        # requests waiting out their latency: (deadline, arrival, connection)
        self._due: list[tuple[float, int, _Conn]] = []
        self._arrivals = itertools.count()
        self._date = (-1, "")   # a Date header, formatted once a second
        self._boundary = secrets.token_hex(16)  # between multipart/byteranges parts
        self._stopping = False
        # a burst of first connections, such as many clients starting
        # together, must not overflow the accept queue: each dropped
        # handshake is only retried a second later
        self._listener = socket.create_server((host, port), backlog=socket.SOMAXCONN)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake, self._waker = socket.socketpair()  # stop() ends a select
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._thread = threading.Thread(
            target=self._serve, name="loadbench-store", daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _object_size(self, key: str) -> int:
        """The size of object ``key``, asked of the backend on first use."""
        size = self._sizes.get(key)
        if size is None:
            size = self._sizes[key] = self.backend.size(key)
        return size

    def _put_object(self, key: str, data: bytes) -> None:
        """Store ``data`` as ``key`` and forget the size kept for it."""
        try:
            self.backend.put(key, data)
        finally:  # a failed PUT may have changed the object too
            self._sizes.pop(key, None)

    def stop(self) -> None:
        """Close the listener and every connection, and end the loop thread."""
        self._stopping = True
        if self._thread.is_alive():
            self._waker.send(b"\0")
            self._thread.join()
        self._wake.close()
        self._waker.close()

    def __enter__(self) -> "ObjectServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the loop ----------------------------------------------------------------

    def _serve(self) -> None:
        try:
            while not self._stopping:
                for key, mask in self._selector.select(self._timeout()):
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._listener:
                            self._accept()
                    elif mask & selectors.EVENT_WRITE:
                        self._send(conn)
                    else:
                        self._read(conn)
                self._answer_due()
                if self._idle_timeout is not None:
                    self._close_idle()
        finally:
            for conn in list(self._conns):
                self._close(conn)
            self._selector.close()
            self._listener.close()

    def _timeout(self) -> float | None:
        """How long the next select may wait: until the next deadline."""
        timeout = None
        if self._due:
            timeout = max(0.0, self._due[0][0] - time.monotonic())
        idle = self._idle_timeout
        if idle is not None and (timeout is None or timeout > idle):
            timeout = idle
        return timeout

    def _watch(self, conn: _Conn, events: int) -> None:
        """Have the selector watch ``conn`` for ``events`` (0: not at all)."""
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # none waiting, or none can be taken now
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self._conns.add(conn)
            self._advance(conn)

    def _close(self, conn: _Conn) -> None:
        self._watch(conn, 0)
        self._conns.discard(conn)
        with suppress(OSError):
            conn.sock.shutdown(socket.SHUT_WR)
        conn.sock.close()

    def _close_idle(self) -> None:
        now = time.monotonic()
        for conn in [conn for conn in self._conns if conn.events == selectors.EVENT_READ
                     and not conn.held and now - conn.since >= self._idle_timeout]:
            self._close(conn)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:  # a reset: a held request goes unanswered
            return self._close(conn)
        if conn.held:  # parsed once the reply is out, as is the end of stream
            conn.inbuf += data
            conn.eof = not data
            if conn.eof or len(conn.inbuf) >= _RECV_BYTES:
                self._watch(conn, 0)  # no more reading until the reply is out
            return
        if not data:  # a request cut short gets no reply, and stores nothing
            return self._close(conn)
        conn.inbuf += data
        self._advance(conn)

    def _advance(self, conn: _Conn) -> None:
        """Read ``conn``'s next request as far as its bytes go: refuse it,
        wait for more, or hold it for its latency once it is complete.  The
        connection stays watched for reads while its request is held."""
        try:
            complete = conn.parse()
        except _BadHead as bad:  # answered, and the connection closes
            conn.close_connection = True
            return self._reply(conn, bad.status)
        if conn.out:  # a "100 Continue": reading goes on once it is sent
            return self._send(conn)
        if not complete:
            if conn.eof:  # a request cut short gets no reply, and stores nothing
                return self._close(conn)
            conn.since = time.monotonic()
            return self._watch(conn, selectors.EVENT_READ)
        self._watch(conn, 0 if conn.eof else selectors.EVENT_READ)
        if conn.length:
            conn.body = bytes(conn.inbuf[:conn.length])
            del conn.inbuf[:conn.length]
        conn.held = True
        deadline = time.monotonic() + self.latency.sample_ms() / 1000.0
        heapq.heappush(self._due, (deadline, next(self._arrivals), conn))

    def _answer_due(self) -> None:
        """Answer every request whose latency has passed, unless a reset
        closed its connection meanwhile."""
        now = time.monotonic()
        while self._due and self._due[0][0] <= now:
            conn = heapq.heappop(self._due)[2]
            if conn in self._conns:
                self._reply(conn, *self._respond(conn))

    def _respond(self, conn: _Conn) -> tuple[int, list, str, int]:
        """Make the backend call that ``conn``'s request asks for: the
        status, body buffers, extra header lines and Content-Length of its
        reply (a HEAD's says what the GET would send)."""
        total = 0
        try:
            path, _, query = conn.target.partition("?")
            key = unquote(path.lstrip("/"))
            if conn.method == "PUT":
                if conn.length is None:
                    return 400, [], "", 0
                self._put_object(key, conn.body or b"")
                return 200, [], "", 0
            if conn.method == "GET" and not key:
                prefix = parse_qs(query).get("prefix", [""])[0]
                body = "\n".join(self.backend.list(prefix)).encode("utf-8")
                return 200, [body], "Content-Type: text/plain; charset=utf-8\r\n", len(body)
            # GET or HEAD of one object: all of it, or the ranges that a
            # Range header asks for; a HEAD reads no bytes of the object
            total = self._object_size(key)
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
        """Queue a reply to ``conn``'s request and send it.  ``body`` is its
        buffers, queued without a join, ``fields`` header lines, each ending
        in CRLF, and ``length`` its Content-Length.  The reply says
        ``Connection: close`` when the connection closes after it."""
        second = int(time.time())
        if second != self._date[0]:  # formatdate drops the fraction too
            self._date = (second, formatdate(second, usegmt=True))
        close = "Connection: close\r\n" if conn.close_connection else ""
        conn.out.append(
            f"HTTP/1.1 {status} {_PHRASES[status]}\r\nServer: {_SERVER}\r\n"
            f"Date: {self._date[1]}\r\nContent-Length: {length}\r\n"
            f"{fields}{close}\r\n".encode("latin-1"))
        conn.out += body
        conn.closing = conn.close_connection
        conn.next_request()
        self._send(conn)

    def _send(self, conn: _Conn) -> None:
        """Send what ``conn`` has queued, never joining the buffers; once
        all of it is out, close the connection or read on."""
        out = conn.out
        try:
            while out:
                sent = conn.sock.sendmsg(out[:_IOV_MAX])
                done = 0
                while done < len(out) and sent >= len(out[done]):
                    sent -= len(out[done])
                    done += 1
                del out[:done]
                if sent:
                    out[0] = memoryview(out[0])[sent:]
        except BlockingIOError:
            return self._watch(conn, selectors.EVENT_WRITE)
        except OSError:
            return self._close(conn)
        if conn.closing:
            self._close(conn)
        else:
            self._advance(conn)


def serve(directory: str | Path | StorageBackend, port: int = 0,
          latency: LatencyModel | None = None,
          host: str = "127.0.0.1") -> ObjectServer:
    """Serve a directory (or any backend) on ``port`` (0 picks a free one)."""
    backend = (directory if isinstance(directory, StorageBackend)
               else LocalBackend(directory))
    return ObjectServer(backend, port=port, host=host, latency=latency)
