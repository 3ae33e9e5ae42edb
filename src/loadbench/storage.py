"""Byte stores: local directory, in-memory, and S3-compatible HTTP backends.

All backends speak the same small contract (get / put / list / size, plus
``get_many``, ``read_into`` and ``close``) with inclusive byte ranges, so
the loading pipeline never knows where bytes live.  ``get_many`` reads a
list of (key, range) requests and yields their bytes in request order; each
request may carry a wait, a delay it holds before it is sent.  By default
it runs one ``get`` at a time, each when its bytes are asked for, after
sleeping its wait.  ``HTTPBackend`` runs every request through one small
HTTP/1.1 codec and a poll loop in the calling thread, on a pool of
keep-alive connections shared by its callers: ``get_many`` keeps up to
``_IN_FLIGHT`` requests in flight and times their waits in the loop, so
delayed requests overlap too.  ``close()`` releases the connections.

``read_into`` reads a batch of (key, offset, length) requests, back to back
in request order, into one buffer the caller allocated; a failed request
raises ``ReadError`` with its index once the requests before it are in the
buffer.  By default it runs over ``get_many``, so each backend's waits and
concurrency carry over.  ``MemoryBackend`` copies the extents itself under
one hold of its lock, checking each distinct key once.  ``HTTPBackend``
merges each key's extents into runs and asks for all of a key's runs in one
multi-range GET, which the object server answers as ``multipart/byteranges``:
a batch costs one GET per shard it reads.  Amazon S3 serves no multi-range
GET, so there its ``read_into`` fails with StorageError.

Two wrappers recreate network conditions on top of any backend:

* ``with_latency`` delays every request by a sample from a ``LatencyModel``
  (constant or lognormal round-trip time, clamped to a floor); in
  ``get_many`` the samples become the inner backend's waits.  The object
  server delays its requests by samples of the same ``LatencyModel``.
* ``CachedBackend`` adds a byte-capacity LRU over (key, range) entries; its
  ``get_many`` answers hits itself and sends the misses to the inner
  backend in one ``get_many``.

Ranges are strict: a range reaching past the end of the object is an error,
not a clamp, so every backend returns identical bytes for identical requests.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import math
import os
import re
import select
import socket
import threading
import time
from collections import OrderedDict, deque
from collections.abc import Generator
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote, urlsplit

from .prng import SplitMix64, derive_seed


class StorageError(Exception):
    """Base error for backend failures."""


class NotFoundError(StorageError):
    """The requested key does not exist."""


class RangeError(StorageError):
    """The requested byte range is not satisfiable."""


class ReadError(StorageError):
    """Request ``index`` of a ``read_into`` call failed with ``cause``."""

    def __init__(self, index: int, cause: Exception) -> None:
        super().__init__(f"request {index} failed: {cause!r}")
        self.index = index
        self.cause = cause


# Requests an HTTPBackend keeps in flight, and so its most connections.
# ``read_into`` sends one GET per key, so a batch holds one connection per
# shard it reads.  The calls that fill the pool are ``get_many``, one GET per
# (key, range), and so the ``read_into`` of the wrapped backends
# (``with_latency``, ``cached``), which runs over it.  The depth was chosen
# when the loader sent one ranged GET per sample: perfbench's http-remote
# workload (2 loader workers, 64-sample batches, a 3 ms hold at the server)
# in-process on a 2-vCPU VM read set medians of about 5700 samples/s at 32,
# 8400 at 64 and 9900 at 128, where both workers' whole batches were in
# flight at once; a deeper setting would only fit the benchmark.
_IN_FLIGHT = 64
_MAX_LINE = 65536  # the longest status, request or header line (as http.client)
_MAX_HEADERS = 100
_RECV_BYTES = 1 << 16
_HEAD_END = re.compile(rb"\n\r?\n")  # a head's blank line, after CRLF or bare LF


def validate_key(key: str) -> str:
    """Object keys are non-empty relative POSIX paths without '..' segments."""
    if not key or key.startswith("/"):
        raise ValueError(f"invalid object key {key!r}")
    if ".." in key.split("/"):
        raise ValueError(f"object key {key!r} contains '..'")
    return key


@dataclass(frozen=True)
class ByteRange:
    """Inclusive byte range; ``end=None`` means to the end of the object."""

    start: int
    end: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("range start must be >= 0")
        if self.end is not None and self.end < self.start:
            raise ValueError("range end must be >= start")

    def resolve(self, size: int) -> tuple[int, int]:
        """Concrete (start, end) against an object of ``size`` bytes."""
        end = size - 1 if self.end is None else self.end
        if self.start >= size or end >= size:
            raise RangeError(
                f"range [{self.start}, {end}] beyond object of {size} bytes")
        return self.start, end


class StorageBackend:
    """Contract shared by every byte store."""

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[str]:
        raise NotImplementedError

    def size(self, key: str) -> int:
        return len(self.get(key))

    def get_many(self, requests: list[tuple[str, ByteRange | None]],
                 waits: list[float] | None = None) -> Generator[bytes, None, None]:
        """Yield the bytes of each (key, range) request, in request order.

        ``waits`` gives each request a delay in seconds to hold before it
        is sent.  A failed request raises its own error when its turn comes.
        Closing the generator early drops the requests that have not
        started.  Here the requests run one at a time, each when its bytes
        are asked for.
        """
        for i, (key, byte_range) in enumerate(requests):
            if waits and waits[i] > 0:
                time.sleep(waits[i])
            yield self.get(key, byte_range)

    def read_into(self, requests: list[tuple[str, int, int]], out) -> None:
        """Read each (key, offset, length) request into ``out``, back to back
        in request order.

        ``out`` is a writable buffer of the requests' total length, and
        offsets and lengths are at least 0 and 1.  When request ``i`` fails,
        ``ReadError(i, error)`` is raised once the requests before it are in
        ``out``.  Here the requests run through one ``get_many``.
        """
        view = memoryview(out).cast("B")
        pos = 0
        with closing(self.get_many([(key, ByteRange(start, start + length - 1))
                                    for key, start, length in requests])) as reads:
            for i, (_, _, length) in enumerate(requests):
                try:
                    view[pos:pos + length] = next(reads)
                except Exception as exc:
                    raise ReadError(i, exc) from exc
                pos += length

    def close(self) -> None:
        """Release connections; a no-op for most backends."""


class LocalBackend(StorageBackend):
    """Files under a root directory; ranged reads via seek."""

    def __init__(self, root: str | Path, create: bool = False) -> None:
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        if not self.root.is_dir():
            raise StorageError(f"{self.root} is not a directory")

    def _path(self, key: str) -> Path:
        return self.root / validate_key(key)

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        path = self._path(key)
        try:
            if byte_range is None:
                return path.read_bytes()
            start, end = byte_range.resolve(path.stat().st_size)
            with path.open("rb") as fh:
                fh.seek(start)
                return fh.read(end - start + 1)
        except FileNotFoundError:
            raise NotFoundError(key) from None

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:
            raise StorageError(f"cannot write {key}: {exc}") from exc

    def list(self, prefix: str = "") -> list[str]:
        keys = [p.relative_to(self.root).as_posix()
                for p in self.root.rglob("*") if p.is_file()]
        return sorted(k for k in keys if k.startswith(prefix))

    def size(self, key: str) -> int:
        try:
            return self._path(key).stat().st_size
        except FileNotFoundError:
            raise NotFoundError(key) from None


class MemoryBackend(StorageBackend):
    """Objects held in a dict; the fastest possible store."""

    def __init__(self, objects: dict[str, bytes] | None = None) -> None:
        self._objects: dict[str, bytes] = dict(objects or {})
        self._lock = threading.Lock()

    @classmethod
    def load(cls, source: StorageBackend, prefix: str = "") -> "MemoryBackend":
        """Copy every object under ``prefix`` from another backend into RAM."""
        backend = cls()
        for key in source.list(prefix):
            backend.put(key, source.get(key))
        return backend

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        validate_key(key)
        with self._lock:
            if key not in self._objects:
                raise NotFoundError(key)
            data = self._objects[key]
        if byte_range is None:
            return data
        start, end = byte_range.resolve(len(data))
        return data[start:end + 1]

    def read_into(self, requests: list[tuple[str, int, int]], out) -> None:
        """One hold of the lock, one key check per distinct object and one
        copy per request, made in request order."""
        view = memoryview(out).cast("B")
        objects: dict[str, memoryview] = {}
        pos = 0
        with self._lock:
            for i, (key, start, length) in enumerate(requests):
                try:
                    data = objects.get(key)
                    if data is None:
                        validate_key(key)
                        if key not in self._objects:
                            raise NotFoundError(key)
                        data = objects[key] = memoryview(self._objects[key])
                    end = start + length
                    if start < 0 or length < 1 or end > len(data):
                        # the error ``get`` raises for the same request
                        ByteRange(start, end - 1).resolve(len(data))
                    view[pos:pos + length] = data[start:end]
                except Exception as exc:
                    raise ReadError(i, exc) from exc
                pos += length

    def put(self, key: str, data: bytes) -> None:
        validate_key(key)
        with self._lock:
            self._objects[key] = bytes(data)

    def list(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))

    def size(self, key: str) -> int:
        validate_key(key)
        with self._lock:
            if key not in self._objects:
                raise NotFoundError(key)
            return len(self._objects[key])


class _BadHead(Exception):
    """An HTTP head that breaks the codec's rules; ``status`` is what a
    server answers it with."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status


class _HeadReader:
    """Reads the HTTP head that a growing buffer starts with.

    Both ends of the object protocol read heads by these rules.  Lines end
    in CRLF or a bare LF, and field names are kept in lower case.  A line
    of more than _MAX_LINE bytes with its line ending, more than
    _MAX_HEADERS header lines, or a header line without a colon raises
    _BadHead.  Each ``read`` looks only at the bytes added since the last
    one: it resumes the search for the blank line and checks the lines
    completed since, so a head is scanned once however it arrives, and none
    grows without bound.  A complete head is then split in one pass.
    """

    def __init__(self) -> None:
        self._scanned = 0  # the buffer's length at the last read
        self._checked = 0  # where the first line not yet checked starts
        self._lines = 0    # the lines checked

    def read(self, buf: bytes | bytearray,
             start: int = 0) -> tuple[str, dict[str, str], int] | None:
        """The first line, the header fields and the end of the head that
        starts at ``start`` in ``buf``, once its blank line has arrived, and
        the reader starts over; None until then.  A head's reads all give
        the same ``start``: a multipart body's part heads are read in place."""
        if self._checked < start:  # a head's first read
            self._scanned = self._checked = start
        blank = _HEAD_END.search(buf, max(self._scanned - 2, start))
        done = blank.start() + 1 if blank else buf.rfind(b"\n", self._scanned) + 1
        if done > self._checked:  # lines completed since the last read
            lines = buf[self._checked:done - 1].split(b"\n")
            if not self._lines and len(lines[0]) >= _MAX_LINE:
                raise _BadHead(414, f"a first line over {_MAX_LINE} bytes")
            self._lines += len(lines)
            if self._lines > _MAX_HEADERS + 1:
                raise _BadHead(431, f"more than {_MAX_HEADERS} header lines")
            if max(map(len, lines)) >= _MAX_LINE:
                raise _BadHead(431, f"a header line over {_MAX_LINE} bytes")
            self._checked = done
        if blank is None:
            if len(buf) - self._checked >= _MAX_LINE:
                raise _BadHead(431 if self._lines else 414,
                               f"a line over {_MAX_LINE} bytes")
            self._scanned = len(buf)
            return None
        self._scanned = self._checked = self._lines = 0
        first, *lines = buf[start:blank.start()].decode("latin-1").split("\n")
        try:
            fields = {name.strip().lower(): value.strip()
                      for name, value in (line.split(":", 1) for line in lines)}
        except ValueError:  # a line without a colon
            bad = next(line for line in lines if ":" not in line)
            raise _BadHead(400, f"malformed header line {bad[:80]!r}") from None
        return first, fields, blank.end()


class _Connection:
    """One keep-alive HTTP/1.1 connection of an ``HTTPBackend``'s pool.

    It carries one request at a time.  ``start`` sends a request in one
    ``send`` (a body the socket's buffer cannot take waits for room, up to
    the timeout), and ``feed`` reads the response as its bytes arrive: the
    head, read by a ``_HeadReader``, then exactly
    ``Content-Length`` body bytes.  Interim (1xx) responses are skipped, and
    HEAD, 204 and 304 have no body.  A malformed or short response raises
    StorageError; a connection that closes before any byte of the response
    raises ConnectionError.  Bytes past the body close the connection, as
    does ``Connection: close``.
    """

    def __init__(self, address: tuple[str, int | None, float]) -> None:
        self._address = address
        self.sock: socket.socket | None = None
        self.reused = False    # it answered a request before the current one
        self.received = False  # a byte of the current response arrived
        self.index = -1        # the request it carries, within its pass

    def open(self) -> None:
        self.reused = False
        # http.client opens the socket (TCP_NODELAY, its audit event)
        opener = http.client.HTTPConnection(*self._address)
        opener.connect()
        self.sock = opener.sock
        # Non-blocking, so that a send or a read is one system call: with a
        # timeout, Python polls the socket before each.  The loop reads only
        # a socket the poll found readable.
        self.sock.setblocking(False)
        self._reader = _HeadReader()

    def start(self, wire: bytes, bodiless: bool) -> None:
        """Send a request; ``bodiless`` (a HEAD) means no response body."""
        self._bodiless = bodiless
        self.received = False
        self._head = b""    # the response head's bytes so far
        self._missing = -1  # body bytes still to come, once the head is read
        self._body: list[bytes] = []
        sent = self.sock.send(wire)  # an idle connection's send buffer is empty
        if sent < len(wire):  # a body larger than the buffer: wait for room
            self.sock.settimeout(self._address[2])
            self.sock.sendall(memoryview(wire)[sent:])
            self.sock.setblocking(False)

    def feed(self) -> tuple[int, dict[str, str], bytes] | None:
        """Read what has arrived (call it when the socket is readable); the
        response once it is complete."""
        try:
            data = self.sock.recv(_RECV_BYTES)
        except BlockingIOError:  # nothing after all
            return None
        if not data:
            if not self.received:
                raise ConnectionError("connection closed before a status line")
            if self._missing < 0:
                raise StorageError("connection closed inside a response head")
            got = sum(map(len, self._body))
            raise StorageError(f"body cut short: {got} of {got + self._missing} bytes")
        self.received = True
        if self._missing < 0:
            if self._head:  # the head came in pieces
                self._head += data
                data = self._head
            data = self._read_head(data)
            if data is None:
                return None
        self._body.append(data)
        self._missing -= len(data)
        if self._missing > 0:
            return None
        body = b"".join(self._body)
        if self._missing < 0:  # no request asked for the bytes past the body
            body = body[:len(body) + self._missing]
            self.close()
        elif self._fields.get("connection", "").lower() == "close":
            self.close()
        return self._status, self._fields, body

    def _read_head(self, buf: bytes | bytearray) -> bytes | None:
        """Once ``buf`` holds the final response's whole head, set the
        status, fields and body length and return the bytes after the head;
        until then keep ``buf`` and return None."""
        while True:
            try:
                head = self._reader.read(buf)
            except _BadHead as exc:
                raise StorageError(str(exc)) from None
            if head is None:
                self._head = buf if isinstance(buf, bytearray) else bytearray(buf)
                return None
            line, fields, end = head
            words = line.split(None, 2)
            if (len(words) < 2 or not words[0].startswith("HTTP/1.")
                    or len(words[1]) != 3 or not words[1].isdecimal()):
                raise StorageError(f"malformed status line {line[:80]!r}")
            status, buf = int(words[1]), buf[end:]
            if status >= 200:  # a 1xx is interim: the final response follows it
                break
        self._status, self._fields, self._missing = status, fields, 0
        if not self._bodiless and status not in (204, 304):
            length = fields.get("content-length", "")
            if not length.isdecimal():
                raise StorageError(f"HTTP {status} without a Content-Length")
            self._missing = int(length)
        return bytes(buf)  # copies only a head that came in pieces

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()


class _Pass:
    """One call's requests, all of one method, on an ``HTTPBackend``'s
    connection pool, run by a ``select.poll`` loop in the calling thread.
    Watching a connection is an entry in the poll object's own table, not a
    system call as with epoll, so it never lets the interpreter lock go.

    Each connection the pass holds carries one request at a time, in
    request order; a request with a wait holds its connection that long
    before it is sent.  ``result(i)`` runs the loop until request i is
    answered.  A pass that needs more connections than the pool can spare
    waits in the pool's queue for the rest, with or without requests in
    flight: a call that gives connections back hands them to it there and
    writes a byte to its wake pipe, which the loop polls beside the
    sockets, so the pass sends on them at once.  A request that fails on a
    reused connection before any byte of its response (the server closed
    the idle connection) is sent once more on a fresh one.  ``close``
    closes the connections whose responses are still due, so no later
    request can read one, leaves the queue, returns the connections to the
    pool, those handed to it included, and then closes the wake pipe.
    """

    def __init__(self, backend: "HTTPBackend", method: str, wires: list[bytes],
                 waits: list[float] | None) -> None:
        self._backend = backend
        self._method = method
        self._bodiless = method == "HEAD"  # its responses have no body
        self._wires = wires  # each request's bytes
        self._waits = waits
        self._next = 0  # the next request to get a connection
        self._results: dict[int, tuple | StorageError] = {}
        self._free: list[_Connection] = []  # held, carrying no request
        self._timers: list[tuple[float, int, _Connection]] = []  # sends due
        self._poller = select.poll()  # watches the connections reading
        self._reading: dict[int, _Connection] = {}  # by socket fd
        self._progress = 0.0  # when a response last moved, or a request went out
        # Under the pool's lock: the connections the pass waits for in the
        # pool's queue (0 when it is not queued), those handed to it there,
        # and whether a byte is on its wake pipe.
        self._lacking = 0
        self._handed: list[_Connection] = []
        self._woken = False
        self._waker: tuple[int, int] | None = None  # the wake pipe's fds, once queued

    def result(self, index: int) -> tuple[int, dict[str, str], bytes]:
        self._progress = time.monotonic()  # a stall is time the caller waits
        while True:
            self._fill()
            if index in self._results:
                break
            self._poll()
        result = self._results.pop(index)
        if isinstance(result, StorageError):
            raise result
        return result

    def _fill(self) -> None:
        """Give the next requests the connections the pass holds free, those
        handed to it and those the pool can spare, and give the free ones
        back once every request has one."""
        free, unsent = self._free, len(self._wires) - self._next
        # _lacking and _woken are read without the lock: only this pass sets
        # _lacking, _give sets _woken before the byte that ends the poll, and
        # a stale value costs one more hold of the lock
        if unsent > len(free) or self._lacking or self._woken:
            free += self._backend._take(self, unsent - len(free))
        while free and self._next < len(self._wires):
            conn, index = free.pop(), self._next
            self._next += 1
            wait_s = self._waits[index] if self._waits else 0.0
            if wait_s > 0:
                heapq.heappush(self._timers, (time.monotonic() + wait_s, index, conn))
            else:
                self._send(conn, index)
        if free:
            self._backend._give(self)

    def _wake(self) -> None:
        """Make the loop's poll return: one byte on the pipe until ``_take``
        reads it.  Called under the pool's lock, while the pass is queued,
        so the pipe is open."""
        if not self._woken:
            self._woken = True
            os.write(self._waker[1], b"\0")

    def _send(self, conn: _Connection, index: int) -> None:
        conn.index = index
        try:
            if conn.sock is None:
                conn.open()
            conn.start(self._wires[index], self._bodiless)
        except OSError as exc:
            return self._lost(conn, exc)
        self._progress = time.monotonic()
        fd = conn.sock.fileno()
        self._reading[fd] = conn
        self._poller.register(fd, select.POLLIN)

    def _unwatch(self, fd: int) -> _Connection:
        self._poller.unregister(fd)
        return self._reading.pop(fd)

    def _poll(self) -> None:
        timeout = self._backend.timeout
        if self._timers:
            timeout = min(timeout, self._timers[0][0] - time.monotonic())
        events = self._poller.poll(max(timeout, 0.0) * 1000.0)
        for fd, _ in events:
            conn = self._reading.get(fd)
            if conn is None:  # the wake pipe: _fill takes what was handed over
                continue
            try:
                response = conn.feed()
            except (OSError, StorageError) as exc:
                self._lost(self._unwatch(fd), exc)
                continue
            if response is not None:
                self._unwatch(fd)
                conn.reused = True
                self._results[conn.index] = response
                self._free.append(conn)
        now = time.monotonic()
        if events:
            self._progress = now
        while self._timers and self._timers[0][0] <= now:
            _, index, conn = heapq.heappop(self._timers)
            self._send(conn, index)
        if now - self._progress >= self._backend.timeout:
            if not self._reading and not self._timers:
                raise StorageError(f"no connection free for {self._backend.timeout} s")
            stalled = StorageError(
                f"transport failure: no response for {self._backend.timeout} s")
            for fd in list(self._reading):
                self._fail(self._unwatch(fd), stalled)

    def _lost(self, conn: _Connection, exc: Exception) -> None:
        """``conn`` failed while carrying a request."""
        conn.close()
        if (isinstance(exc, ConnectionError) and conn.reused and not conn.received
                and self._method in ("GET", "HEAD")):
            return self._send(conn, conn.index)  # not reused once it reopens
        self._fail(conn, exc if isinstance(exc, StorageError)
                   else StorageError(f"transport failure: {exc!r}"))

    def _fail(self, conn: _Connection, error: StorageError) -> None:
        conn.close()
        self._results[conn.index] = error
        self._free.append(conn)  # it reconnects for the pass's next request

    def close(self) -> None:
        for fd in list(self._reading):
            conn = self._unwatch(fd)
            conn.close()  # its response is due: no later request may read it
            self._free.append(conn)
        self._free.extend(conn for _, _, conn in self._timers)
        self._timers.clear()
        if self._free or self._waker is not None:
            self._backend._give(self)  # out of the queue: no more writes
        if self._waker is not None:
            for fd in self._waker:
                os.close(fd)
            self._waker = None


def _parts(status: int, fields: dict[str, str], data: bytes,
           runs: list[list]) -> list[memoryview]:
    """The bytes of each [key, start, end (exclusive), ...] run in the answer
    to one GET of them: a 206 of exactly the run's length for one run, and
    for more a 206 ``multipart/byteranges`` body whose parts are the runs
    in request order, each after a head read by ``_HeadReader`` with the
    run's own Content-Range, and then the closing delimiter.  Any other
    answer raises StorageError."""
    if status != 206:
        raise StorageError(f"HTTP {status} for a ranged GET")
    if len(runs) == 1:
        start, end = runs[0][1:3]
        if len(data) != end - start:
            raise StorageError(
                f"HTTP 206 with {len(data)} bytes for bytes={start}-{end - 1}")
        return [memoryview(data)]
    kind, _, boundary = fields.get("content-type", "").partition(";")
    name, _, boundary = boundary.strip().partition("=")
    if (kind.strip().lower() != "multipart/byteranges" or name.lower() != "boundary"
            or not boundary.strip('"')):
        raise StorageError(f"a multi-range GET answered as {fields.get('content-type')!r}")
    delimiter = "--" + boundary.strip('"')
    reader, body, parts, pos = _HeadReader(), memoryview(data), [], 0
    for k, (_, start, end, _) in enumerate(runs):
        if k and data[pos:pos + 2] != b"\r\n":
            raise StorageError(f"multipart part {k - 1} is not its range's length")
        pos += 2 if k else 0
        try:
            head = reader.read(data, pos)
        except _BadHead as exc:
            raise StorageError(f"multipart part {k}: {exc}") from None
        crange, _, size = ("" if head is None
                           else head[1].get("content-range", "")).partition("/")
        if (head is None or head[0].rstrip() != delimiter
                or crange != f"bytes {start}-{end - 1}" or not size.isdecimal()):
            raise StorageError(f"multipart part {k} is not bytes={start}-{end - 1}")
        pos = head[2] + end - start
        parts.append(body[head[2]:pos])
    if data[pos:] not in (f"\r\n{delimiter}--\r\n".encode("latin-1"),
                          f"\r\n{delimiter}--".encode("latin-1")):
        raise StorageError("multipart body without its closing delimiter "
                           "after the last part's bytes")
    return parts


def _past_end(requests: list[tuple[str, int, int]], fields: dict[str, str],
              members: list[int]) -> int:
    """The first of ``members`` that reaches past the size a 416's
    ``Content-Range: bytes */size`` gives; StorageError if it gives none or
    none reaches past it."""
    size = fields.get("content-range", "").removeprefix("bytes */")
    past = [i for i in members if requests[i][1] + requests[i][2] > int(size)
            ] if size.isdecimal() else []
    if not past:
        raise StorageError(f"HTTP 416 with Content-Range "
                           f"{fields.get('content-range')!r} for ranges within it")
    return min(past)


class HTTPBackend(StorageBackend):
    """Client for the object server's wire protocol (path-style GET/PUT/HEAD).

    Ranged reads are sent as ``Range: bytes=a-b`` (``a-`` when open-ended)
    and must come back as 206, with exactly the range's length when its end
    is known; 404 maps to NotFoundError, 416 to RangeError and any other
    failure to StorageError.  ``read_into`` sends one GET per key, whose
    ``Range`` header lists the key's merged runs (``bytes=a-b,c-d``): more
    than one run must come back as a 206 ``multipart/byteranges`` body with
    exactly those parts, in that order, or the GET fails with StorageError,
    so a server that serves no multi-range GET (Amazon S3) fails loudly.

    The backend starts no threads.  Every call runs its requests on one
    shared pool of at most ``_IN_FLIGHT`` keep-alive connections, through a
    ``select.poll`` loop in the calling thread (so it needs a platform that
    has one): ``get_many`` keeps as many requests
    in flight as it holds connections and yields the bytes in request
    order, and ``get``, ``put``, ``size`` and ``list`` are passes of one
    request.  A call that needs more connections than the pool can spare
    waits in a queue, in arrival order: a call that gives connections back
    hands them to the oldest waiting call first, up to what it lacks, and
    wakes its loop, which sends on them at once even while its own
    requests are in flight.  Only connections no call waits for go idle.
    A request goes out in one ``send`` as a rule, and a response must carry
    exactly ``Content-Length`` body bytes; ``Connection: close`` closes the
    connection after its response.  A GET or HEAD that fails on a reused
    connection before a status line arrives (the server closed an idle
    connection) is sent once more on a fresh one; nothing else is retried.
    A call that receives nothing for ``timeout`` seconds fails with
    StorageError, as does a call that waits that long for a connection
    with nothing in flight.  An invalid key raises ValueError at its
    request's turn.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        parts = urlsplit(endpoint)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"endpoint must be http://host[:port], got {endpoint!r}")
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self._base = parts.path.rstrip("/")
        self._address = (parts.hostname, parts.port, timeout)
        host = parts.hostname if parts.port is None else f"{parts.hostname}:{parts.port}"
        self._host_line = f"Host: {host}"
        self._lock = threading.Lock()  # guards the pool below
        self._idle: list[_Connection] = []  # empty while a pass is queued
        self._opened = 0  # connections open or being opened, idle or held
        self._queue: deque[_Pass] = deque()  # passes lacking connections, oldest first
        self._closed = False

    def _path(self, key: str) -> str:
        return f"{self._base}/{quote(validate_key(key))}"

    def _take(self, run: _Pass, wanted: int) -> list[_Connection]:
        """The connections handed to ``run``, then idle ones and new ones
        while the pool has room, up to ``wanted`` in all; ``run`` waits in
        the queue for the rest, and leaves it once it lacks none."""
        with self._lock:
            if self._closed:
                raise StorageError(f"{self.endpoint}: backend is closed")
            if run._woken:  # the byte is on the pipe, so the read cannot block
                os.read(run._waker[0], 1)
                run._woken = False
            taken, run._handed = run._handed, []
            short = wanted - len(taken)
            if short > 0:
                taken += self._idle[-short:]
                del self._idle[-short:]
            new = max(0, min(wanted - len(taken), _IN_FLIGHT - self._opened))
            self._opened += new
            lacking = max(0, wanted - len(taken) - new)
            if lacking and not run._lacking:
                if run._waker is None:
                    run._waker = os.pipe()
                    run._poller.register(run._waker[0], select.POLLIN)
                self._queue.append(run)
            elif run._lacking and not lacking:
                self._queue.remove(run)
            run._lacking = lacking
        return taken + [_Connection(self._address) for _ in range(new)]

    def _give(self, run: _Pass) -> None:
        """Take ``run`` out of the queue and return its free connections and
        those handed to it; a closed one frees its place.  They go to the
        queued passes first, oldest first, each up to what it lacks and
        then woken, live connections before new ones; the rest go idle."""
        with self._lock:
            if run._lacking:
                self._queue.remove(run)
                run._lacking = 0
            live = []
            for conn in itertools.chain(run._free, run._handed):
                if conn.sock is not None and not self._closed:
                    live.append(conn)
                else:
                    conn.close()
                    self._opened -= 1
            run._free.clear()
            run._handed = []
            while self._queue and (live or self._opened < _IN_FLIGHT):
                waiting = self._queue[0]
                handed = live[max(0, len(live) - waiting._lacking):]
                del live[len(live) - len(handed):]
                new = max(0, min(waiting._lacking - len(handed), _IN_FLIGHT - self._opened))
                self._opened += new
                waiting._handed += handed + [_Connection(self._address) for _ in range(new)]
                waiting._lacking -= len(handed) + new
                if not waiting._lacking:
                    self._queue.popleft()
                waiting._wake()
            self._idle += live

    @staticmethod
    def _check(method: str, path: str, status: int) -> None:
        if status == 404:
            raise NotFoundError(path)
        if status == 416:
            raise RangeError(path)
        if not 200 <= status < 300:
            raise StorageError(f"HTTP {status} for {method} {path}")

    def _request(self, method: str, path: str, body: bytes | None = None
                 ) -> tuple[dict[str, str], bytes]:
        length = "" if body is None else f"Content-Length: {len(body)}\r\n"
        wire = f"{method} {path} HTTP/1.1\r\n{self._host_line}\r\n{length}\r\n"
        run = _Pass(self, method, [wire.encode("latin-1") + (body or b"")], None)
        try:
            status, fields, data = run.result(0)
        finally:
            run.close()
        self._check(method, path, status)
        return fields, data

    def get_many(self, requests: list[tuple[str, ByteRange | None]],
                 waits: list[float] | None = None) -> Generator[bytes, None, None]:
        paths: dict[str, str] = {}  # each key validated and quoted once
        wires = []
        invalid = None  # an invalid key's error, raised at its request's turn
        for key, br in requests:
            path = paths.get(key)
            if path is None:
                try:
                    path = paths[key] = self._path(key)
                except ValueError as exc:
                    invalid = exc
                    break
            wires.append((f"GET {path} HTTP/1.1\r\n{self._host_line}\r\n\r\n" if br is None
                          else f"GET {path} HTTP/1.1\r\n{self._host_line}\r\nRange: bytes="
                          f"{br.start}-{'' if br.end is None else br.end}\r\n\r\n"
                          ).encode("latin-1"))
        run = _Pass(self, "GET", wires, waits)
        try:
            for index, (key, br) in enumerate(requests[:len(wires)]):
                status, _, data = run.result(index)
                self._check("GET", paths[key], status)
                if br is not None and (status != 206 or (
                        br.end is not None and len(data) != br.end - br.start + 1)):
                    raise StorageError(
                        f"HTTP {status} with {len(data)} bytes for "
                        f"bytes={br.start}-{'' if br.end is None else br.end} of {key}")
                yield data
            if invalid is not None:
                raise invalid
        finally:
            run.close()

    def read_into(self, requests: list[tuple[str, int, int]], out) -> None:
        """One GET per key, however the batch is ordered: a key's extents,
        sorted by offset, merge into runs where they overlap or touch, and
        its runs go out in one ``Range`` header, split over more GETs only
        where the header line would reach _MAX_LINE.  The GETs run through
        one pass, and each extent is copied from its run to its place.

        A failed GET fails its first request, or for a 416 the first of its
        requests that reaches past the size the 416 gives.  The request
        ``i`` that raises is the earliest failed one; when a failed GET also
        held requests before ``i``, those are read again with one ranged GET
        each, so that they are in ``out``.
        """
        view = memoryview(out).cast("B")
        at = list(itertools.accumulate((n for *_, n in requests), initial=0))
        runs = []  # [key, start, end (exclusive), its requests], by key and start
        for i in sorted(range(len(requests)), key=requests.__getitem__):
            key, start, length = requests[i]
            last = runs[-1] if runs else None
            if last and last[0] == key and start <= last[2]:
                last[2] = max(last[2], start + length)
                last[3].append(i)
            else:
                runs.append([key, start, start + length, [i]])
        gets = []  # [key, runs, Range header line], one per GET
        for key_run in runs:
            spec = f"{key_run[1]}-{key_run[2] - 1}"
            last = gets[-1] if gets else None
            if last and last[0] == key_run[0] and len(last[2]) + len(spec) + 3 < _MAX_LINE:
                last[1].append(key_run)
                last[2] += "," + spec
            else:
                gets.append([key_run[0], [key_run], "Range: bytes=" + spec])
        paths: dict[str, str] = {}  # each key validated and quoted once
        wires, sent = [], []
        failed = []  # (the request that fails, the error, every request) per GET
        for key, get_runs, line in gets:
            members = [i for run in get_runs for i in run[3]]
            path = paths.get(key)
            if path is None:
                try:
                    path = paths[key] = self._path(key)
                except ValueError as exc:
                    failed.append((min(members), exc, members))
                    continue
            wires.append(f"GET {path} HTTP/1.1\r\n{self._host_line}\r\n{line}\r\n\r\n"
                         .encode("latin-1"))
            sent.append((path, get_runs, members))
        run = _Pass(self, "GET", wires, None)
        try:
            for n, (path, get_runs, members) in enumerate(sent):
                try:
                    status, fields, data = run.result(n)
                    if status == 416:
                        index = _past_end(requests, fields, members)
                        failed.append((index, RangeError(path), members))
                        continue
                    self._check("GET", path, status)
                    parts = _parts(status, fields, data, get_runs)
                except StorageError as exc:
                    failed.append((min(members), exc, members))
                    continue
                for (_, start, _, extents), part in zip(get_runs, parts):
                    for i in extents:
                        _, offset, length = requests[i]
                        view[at[i]:at[i] + length] = part[offset - start:offset - start + length]
        finally:
            run.close()
        if failed:
            index, cause, _ = min(failed, key=lambda failure: failure[0])
            if any(i < index for *_, members in failed for i in members):
                StorageBackend.read_into(self, requests[:index], view[:at[index]])
            raise ReadError(index, cause) from cause

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        with closing(self.get_many([(key, byte_range)])) as data:
            return next(data)

    def put(self, key: str, data: bytes) -> None:
        self._request("PUT", self._path(key), body=data)

    def list(self, prefix: str = "") -> list[str]:
        body = self._request("GET", f"{self._base}/?prefix={quote(prefix)}")[1]
        return [line for line in body.decode("utf-8").splitlines() if line]

    def size(self, key: str) -> int:
        length = self._request("HEAD", self._path(key))[0].get("content-length", "")
        if not length.isdecimal():
            raise StorageError(f"HEAD {key} without a Content-Length")
        return int(length)

    def close(self) -> None:
        """Close the idle connections, and each held one when its call ends;
        wake the waiting calls.  Later requests raise StorageError."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._opened -= len(idle)
            for run in self._queue:
                run._lacking = 0
                run._wake()  # its _take raises: the backend is closed
            self._queue.clear()
        for conn in idle:
            conn.close()


@dataclass
class LatencyModel:
    """Round-trip-time model applied per request.

    ``constant`` ignores std; ``lognormal`` matches the given mean/std of the
    RTT itself (the underlying normal's mu/sigma are derived from them).
    Samples never go below ``min_ms``.  The n-th lognormal sample is a pure
    function of (``seed``, n), with ``seed=None`` drawing as 0, so a model's
    samples repeat from run to run; n comes from a counter that threads
    share without a lock.
    """

    mean_ms: float
    std_ms: float = 0.0
    min_ms: float = 0.0
    distribution: str = "constant"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.distribution not in ("constant", "lognormal"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.mean_ms < 0 or self.std_ms < 0 or self.min_ms < 0:
            raise ValueError("latency parameters must be >= 0")
        self._draws = itertools.count()

    def sample_ms(self) -> float:
        if self.distribution == "constant" or self.std_ms == 0 or self.mean_ms == 0:
            return max(self.mean_ms, self.min_ms)
        ratio = self.std_ms / self.mean_ms
        sigma2 = math.log(1.0 + ratio * ratio)
        mu = math.log(self.mean_ms) - sigma2 / 2.0
        # Box-Muller over two uniforms of the draw's own stream
        rng = SplitMix64(derive_seed(self.seed or 0, next(self._draws)))
        radius = math.sqrt(-2.0 * math.log(1.0 - rng.next_float()))
        normal = radius * math.cos(2.0 * math.pi * rng.next_float())
        return max(math.exp(mu + math.sqrt(sigma2) * normal), self.min_ms)

    def wait(self) -> None:
        """Sleep for one sample: the delay of one request."""
        delay_ms = self.sample_ms()
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)


class LatencyBackend(StorageBackend):
    """Delays every request by one latency sample, then defers to the inner backend."""

    def __init__(self, inner: StorageBackend, model: LatencyModel) -> None:
        self.inner = inner
        self.model = model

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        self.model.wait()
        return self.inner.get(key, byte_range)

    def get_many(self, requests: list[tuple[str, ByteRange | None]],
                 waits: list[float] | None = None) -> Generator[bytes, None, None]:
        """The inner ``get_many``, each request's wait longer by its sample."""
        delays = [self.model.sample_ms() / 1000.0 for _ in requests]
        if waits:
            delays = [a + b for a, b in zip(delays, waits)]
        yield from self.inner.get_many(requests, delays)

    def put(self, key: str, data: bytes) -> None:
        self.model.wait()
        self.inner.put(key, data)

    def list(self, prefix: str = "") -> list[str]:
        self.model.wait()
        return self.inner.list(prefix)

    def size(self, key: str) -> int:
        self.model.wait()
        return self.inner.size(key)

    def close(self) -> None:
        self.inner.close()


def with_latency(backend: StorageBackend, model: LatencyModel) -> LatencyBackend:
    return LatencyBackend(backend, model)


@dataclass
class StorageStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    requests: int = 0
    bytes_read: int = 0


class CachedBackend(StorageBackend):
    """Byte-capacity LRU over (key, range) entries.

    Objects are assumed immutable, so a hit is always byte-identical to the
    inner read.  Entries larger than the whole capacity bypass the cache.
    Ranged reads of the same object are distinct entries (no coalescing).
    A put invalidates that key's entries.
    """

    def __init__(self, inner: StorageBackend, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be > 0")
        self.inner = inner
        self.capacity_bytes = capacity_bytes
        self.stats = StorageStats()
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()

    def _lookup(self, ck: tuple[str, ByteRange | None]) -> bytes | None:
        """The cached bytes of ``ck``, or None on a miss; the caller holds the lock."""
        self.stats.requests += 1
        if ck in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(ck)
            return self._entries[ck]
        self.stats.misses += 1
        return None

    def _store(self, ck: tuple[str, ByteRange | None], data: bytes) -> None:
        with self._lock:
            self.stats.bytes_read += len(data)
            if len(data) <= self.capacity_bytes and ck not in self._entries:
                self._entries[ck] = data
                self._used += len(data)
                while self._used > self.capacity_bytes:
                    _, evicted = self._entries.popitem(last=False)
                    self._used -= len(evicted)
                    self.stats.evictions += 1

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        with self._lock:
            data = self._lookup((key, byte_range))
        if data is None:
            data = self.inner.get(key, byte_range)
            self._store((key, byte_range), data)
        return data

    def get_many(self, requests: list[tuple[str, ByteRange | None]],
                 waits: list[float] | None = None) -> Generator[bytes, None, None]:
        """Hits are answered here (after their waits); the misses go to the
        inner backend in one ``get_many``."""
        with self._lock:
            found = [self._lookup((key, br)) for key, br in requests]
        misses = [i for i, data in enumerate(found) if data is None]
        with closing(self.inner.get_many(
                [requests[i] for i in misses],
                waits and [waits[i] for i in misses])) as fetched:
            for i, ((key, br), data) in enumerate(zip(requests, found)):
                if data is None:
                    data = next(fetched)
                    self._store((key, br), data)
                elif waits and waits[i] > 0:
                    time.sleep(waits[i])
                yield data

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(key, data)
        with self._lock:
            stale = [ck for ck in self._entries if ck[0] == key]
            for ck in stale:
                self._used -= len(self._entries.pop(ck))

    def list(self, prefix: str = "") -> list[str]:
        return self.inner.list(prefix)

    def size(self, key: str) -> int:
        return self.inner.size(key)

    def close(self) -> None:
        self.inner.close()

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._used


def cached(backend: StorageBackend, capacity_bytes: int) -> CachedBackend:
    return CachedBackend(backend, capacity_bytes)
