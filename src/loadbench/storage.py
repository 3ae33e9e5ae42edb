"""Byte stores: local directory, in-memory, and HTTP object-store backends.

All backends speak the same small contract (get / put / list / size, plus
``read_into``, ``start_read`` and ``close``) with inclusive byte ranges, so
the loading pipeline never knows where bytes live.

``read_into`` reads a batch of (key, offset, length) requests, back to back
in request order, into one buffer the caller allocated; a failed request
raises ``ReadError`` with its index once the requests before it are in the
buffer.  ``start_read`` splits it into a send and a receive: it returns a
``PendingRead`` whose ``finish(out)`` completes the read, in any thread,
and whose ``close()`` lets go of it.  ``start_read`` is the one batch read:
the loader calls nothing else, and a backend that does more than read in
``finish`` overrides it and reads into a buffer by starting a read and
finishing it at once.

By default ``read_into`` runs one ``get`` per request, in request order,
and ``start_read`` does the whole ``read_into`` in ``finish``.
``MemoryBackend`` copies the extents itself under one hold of its lock,
checking each distinct key once.  ``HTTPBackend`` runs every request through
one small HTTP/1.1 codec in the calling thread, on a pool of blocking
keep-alive connections shared by its callers, which ``close()`` releases;
a call sends what it has connections for, then reads the responses in
request order.  A call that gets no connection as it starts queues at
once, connections given back go to the oldest queued call, one to a call,
nothing is taken while a call is queued, and a call that holds a
connection never waits for another (see ``HTTPBackend``).
Its batch read merges each key's extents into runs and asks for all of a
key's runs in one multi-range GET, sent as the read starts, which the
object server answers as ``multipart/byteranges``: a batch costs one GET
per shard it reads.  Amazon S3 serves no multi-range GET, so there a batch
read fails with StorageError.

Two wrappers recreate network conditions on top of any backend, and both
compose over ``start_read``:

* ``LatencyBackend`` delays every request by a sample from a ``LatencyModel``
  (constant or lognormal round-trip time, clamped to a floor).  A batch
  read draws one sample per distinct key it touches, one per GET the HTTP
  plan sends, and is due the largest of them after it starts, since those
  GETs are in flight together; ``finish`` sleeps what is left of the wait,
  then runs the inner read.  The object server delays its requests by
  samples of the same ``LatencyModel``.
* ``CachedBackend`` adds a byte-capacity LRU over (key, start, end)
  entries.  A batch read looks up every extent as it starts, passes the
  misses on as one inner read, started at once, and stores them when it
  finishes.

Ranges are strict: a range reaching past the end of the object is an error,
not a clamp, so every backend returns identical bytes for identical requests.
"""

from __future__ import annotations

import http.client
import itertools
import math
import re
import socket
import threading
import time
from collections import OrderedDict, deque
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
# A batch read sends one GET per shard it reads, and the loader starts a
# read for each batch in its prefetch window, so what fills the pool is one
# GET per shard per batch in the window; ``get``, ``put``, ``size`` and
# ``list`` hold one connection each.  Counted under a loader of 1000
# samples in 64-sample batches over 3 epochs: in one 1000-sample shard
# with 2 workers (perfbench's http-remote) every read is 1 GET, at most 4
# connections are open and no call queues; in 500-sample shards with 4
# workers and a window of 8, reads are 2 GETs and at most 16 are open; only
# in 64-sample shards (4 workers, window 8, reads of 14-16 GETs) does the
# cap bind, and 12 of the 48 reads queued.
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


class PendingRead:
    """A read that ``StorageBackend.start_read`` began.

    ``finish(out)`` completes it into ``out`` and raises what ``read_into``
    would; ``close()`` lets go of what the read holds.  Close every read,
    finished or not: one that is never finished may hold connections.  This
    one starts nothing, and ``finish`` runs the backend's whole
    ``read_into``.
    """

    def __init__(self, backend: "StorageBackend",
                 requests: list[tuple[str, int, int]]) -> None:
        self._backend, self._requests = backend, requests

    def finish(self, out) -> None:
        self._backend.read_into(self._requests, out)

    def close(self) -> None:
        """Nothing is held before ``finish``."""


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

    def read_into(self, requests: list[tuple[str, int, int]], out) -> None:
        """Read each (key, offset, length) request into ``out``, back to back
        in request order.

        ``out`` is a writable buffer of the requests' total length, and
        offsets and lengths are at least 0 and 1.  When request ``i`` fails,
        ``ReadError(i, error)`` is raised once the requests before it are in
        ``out``.  Here each request is one ``get``, made in request order: the
        fallback of a backend that defines only ``get``.
        """
        view = memoryview(out).cast("B")
        pos = 0
        for i, (key, start, length) in enumerate(requests):
            try:
                view[pos:pos + length] = self.get(key, ByteRange(start, start + length - 1))
            except Exception as exc:
                raise ReadError(i, exc) from exc
            pos += length

    def start_read(self, requests: list[tuple[str, int, int]]) -> PendingRead:
        """Begin a ``read_into`` of ``requests``, to be finished with
        ``finish(out)`` on the read, in this thread or another, and then
        closed.  What the backend can send now goes out before this returns,
        and ``finish`` receives the rest.  It raises nothing for a request:
        an invalid key, a closed backend or a failed connection surfaces
        from ``finish`` as ``ReadError``.  Here nothing is sent early, and
        ``finish`` runs the whole ``read_into``.
        """
        return PendingRead(self, requests)

    def close(self) -> None:
        """Release connections; a no-op for most backends."""


class _ReadsByStart(StorageBackend):
    """A backend whose batch read is its own ``start_read``: ``read_into``
    starts a read, finishes it at once and closes it."""

    def read_into(self, requests: list[tuple[str, int, int]], out) -> None:
        with closing(self.start_read(requests)) as read:
            read.finish(out)


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
    """One keep-alive HTTP/1.1 connection of an ``HTTPBackend``'s pool: a
    blocking socket with the backend's timeout, carrying one request at a
    time.

    ``send`` sends a request whole, and ``receive`` reads its response: the
    head, read by a ``_HeadReader``, then exactly ``Content-Length`` body
    bytes.  Interim (1xx) responses are skipped, and HEAD, 204 and 304 have
    no body.  A malformed or short response raises StorageError; a
    connection that closes before any byte of the response raises
    ConnectionError, and one silent for the timeout TimeoutError.  Bytes
    past the body close the connection, as does ``Connection: close``.
    """

    def __init__(self, address: tuple[str, int | None, float]) -> None:
        self._address = address
        self.sock: socket.socket | None = None
        self.reused = False    # it answered a request before the current one
        self.received = False  # a byte of the current response arrived

    def open(self) -> None:
        self.reused = False
        # http.client opens the socket (TCP_NODELAY, the timeout, its audit event)
        opener = http.client.HTTPConnection(*self._address)
        opener.connect()
        self.sock = opener.sock

    def send(self, wire: bytes) -> None:
        self.received = False
        self.sock.sendall(wire)

    def receive(self, bodiless: bool) -> tuple[int, dict[str, str], bytearray]:
        """The status, fields and body of the response to the request sent;
        ``bodiless`` (a HEAD) means no body."""
        reader, buf = _HeadReader(), bytearray()
        while True:
            try:
                head = reader.read(buf)
            except _BadHead as exc:
                raise StorageError(str(exc)) from None
            if head is None:
                data = self.sock.recv(_RECV_BYTES)
                if not data:
                    if not self.received:
                        raise ConnectionError("connection closed before a status line")
                    raise StorageError("connection closed inside a response head")
                self.received = True
                buf += data
                continue
            line, fields, end = head
            words = line.split(None, 2)
            if (len(words) < 2 or not words[0].startswith("HTTP/1.")
                    or len(words[1]) != 3 or not words[1].isdecimal()):
                raise StorageError(f"malformed status line {line[:80]!r}")
            status = int(words[1])
            del buf[:end]
            if status >= 200:  # a 1xx is interim: the final response follows it
                break
        length = 0
        if not bodiless and status not in (204, 304):
            length = fields.get("content-length", "")
            if not length.isdecimal():
                raise StorageError(f"HTTP {status} without a Content-Length")
            length = int(length)
        body, got = bytearray(length), min(len(buf), length)
        body[:got] = buf[:got]
        view = memoryview(body)
        while got < length:
            n = self.sock.recv_into(view[got:])
            if not n:
                raise StorageError(f"body cut short: {got} of {length} bytes")
            got += n
        if len(buf) > length or fields.get("connection", "").lower() == "close":
            self.close()  # no request asked for the bytes past the body
        return status, fields, body

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()


class _Call:
    """One call's requests, all of one method, on an ``HTTPBackend``'s
    connection pool: a batch read's GETs, or the one request of ``get``,
    ``put``, ``size`` or ``list``.

    The call sends as many requests as it gets connections for as it is
    made; a call that gets none waits in the pool's queue.  ``result(i)``
    then reads the responses in request order, in the calling thread, until
    request i is answered, waiting first for the connection the queue hands
    to the call if it holds none.  After each response the call sends its
    next unsent request on the connection just freed, and on any the pool
    can spare without waiting, and it gives a connection back once it has
    nothing left to send on it.  A request that fails on a reused connection
    before any byte of its response (the server closed the idle connection)
    is sent once more on a fresh one.  A read that waits the timeout fails
    every request the call has left.  ``close`` closes the connections whose
    responses are still due, so no later request can read one, leaves the
    queue and gives every connection back, the one handed to it included.
    """

    def __init__(self, backend: "HTTPBackend", method: str, wires: list[bytes]) -> None:
        self._backend = backend
        self._bodiless = method == "HEAD"  # its responses have no body
        self._resend = method in ("GET", "HEAD")  # safe to send once more
        self._wires = wires  # each request's bytes
        self._next = 0  # the first request not yet sent
        self._flight: dict[int, _Connection] = {}  # sent, response due, by request
        self._results: dict[int, tuple | StorageError] = {}
        self.handed: _Connection | None = None  # set in the pool's queue, under its lock
        self._carry([])

    def result(self, index: int) -> tuple[int, dict[str, str], bytearray]:
        while index not in self._results:
            if self._flight:
                self._receive(min(self._flight))
                continue
            try:  # nothing in flight and requests unsent: the call is queued
                conn = self._backend._wait(self)
            except StorageError as exc:
                self._fail_rest(exc)
            else:
                self._carry([conn])
        result = self._results.pop(index)
        if isinstance(result, StorageError):
            raise result
        return result

    def _carry(self, conns: list[_Connection]) -> None:
        """Send the next unsent requests, one on each of ``conns`` and of the
        connections the pool can spare without waiting, and give back those
        left with nothing to send.  With none, the call joins the queue."""
        short = len(self._wires) - self._next - len(conns)
        if short > 0:
            try:
                conns += self._backend._take(self, short, queue=not conns)
            except StorageError as exc:  # the backend is closed
                self._fail_rest(exc)
        while conns and self._next < len(self._wires):
            self._next += 1
            if self._send(conns[-1], self._next - 1):
                conns.pop()
        if conns:
            self._backend._give(conns)

    def _send(self, conn: _Connection, index: int) -> bool:
        """Send request ``index`` on ``conn``, opened if closed; False when
        the request failed."""
        try:
            if conn.sock is None:
                conn.open()
            conn.send(self._wires[index])
        except OSError as exc:
            return self._lost(conn, index, exc)
        self._flight[index] = conn
        return True

    def _receive(self, index: int) -> None:
        conn = self._flight.pop(index)
        try:
            self._results[index] = conn.receive(self._bodiless)
            conn.reused = True
        except TimeoutError:
            self._flight[index] = conn  # fails with the rest
            return self._fail_rest(StorageError(
                f"transport failure: no response for {self._backend.timeout} s"))
        except (OSError, StorageError) as exc:
            if self._lost(conn, index, exc):
                return
        self._carry([conn])

    def _lost(self, conn: _Connection, index: int, exc: Exception) -> bool:
        """``conn`` failed carrying request ``index``: close it and send the
        request once more on a fresh connection when it may go again (True
        if it went), or record the failure."""
        conn.close()
        if (isinstance(exc, ConnectionError) and conn.reused and not conn.received
                and self._resend):
            return self._send(conn, index)  # not reused once it reopens
        self._results[index] = (exc if isinstance(exc, StorageError)
                                else StorageError(f"transport failure: {exc!r}"))
        return False

    def _fail_rest(self, error: StorageError) -> None:
        """Fail every request in flight or unsent with ``error``."""
        for index in [*self._flight, *range(self._next, len(self._wires))]:
            self._results[index] = error
        self.close()

    def close(self) -> None:
        conns = list(self._flight.values())
        for conn in conns:
            conn.close()  # its response is due: no later request may read it
        self._flight.clear()
        self._next = len(self._wires)
        self._backend._give(conns, self)


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


class _RangedRead(PendingRead):
    """An ``HTTPBackend`` read: one GET per key, however the batch is
    ordered.  A key's extents, sorted by offset, merge into runs where they
    overlap or touch, and its runs go out in one ``Range`` header, split
    over more GETs only where the header line would reach _MAX_LINE.  The
    GETs are one call, which sends them as the read starts, on the
    connections the pool can spare then; ``finish`` reads the call's
    responses, which sends the rest, and copies each extent from its run to
    its place.

    A failed GET fails its first request, or for a 416 the first of its
    requests that reaches past the size the 416 gives.  The request ``i``
    that ``finish`` raises ``ReadError`` for is the earliest failed one; when
    a failed GET also held requests before ``i``, the requests before ``i``
    are read again with one more read, so that they are in ``out``.
    """

    def __init__(self, backend: "HTTPBackend",
                 requests: list[tuple[str, int, int]]) -> None:
        super().__init__(backend, requests)
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
        wires = []
        self._sent = []  # (path, runs, every request) per GET sent
        self._failed = []  # (the request that fails, the error, every request) per GET
        for key, get_runs, line in gets:
            members = [i for run in get_runs for i in run[3]]
            path = paths.get(key)
            if path is None:
                try:
                    path = paths[key] = backend._path(key)
                except ValueError as exc:
                    self._failed.append((min(members), exc, members))
                    continue
            wires.append(f"GET {path} HTTP/1.1\r\n{backend._host_line}\r\n{line}\r\n\r\n"
                         .encode("latin-1"))
            self._sent.append((path, get_runs, members))
        self._run = _Call(backend, "GET", wires)

    def finish(self, out) -> None:
        requests, failed = self._requests, self._failed
        view = memoryview(out).cast("B")
        at = list(itertools.accumulate((n for *_, n in requests), initial=0))
        try:
            for n, (path, get_runs, members) in enumerate(self._sent):
                try:
                    status, fields, data = self._run.result(n)
                    if status == 416:
                        index = _past_end(requests, fields, members)
                        failed.append((index, RangeError(path), members))
                        continue
                    self._backend._check("GET", path, status)
                    parts = _parts(status, fields, data, get_runs)
                except StorageError as exc:
                    failed.append((min(members), exc, members))
                    continue
                for (_, start, _, extents), part in zip(get_runs, parts):
                    for i in extents:
                        _, offset, length = requests[i]
                        view[at[i]:at[i] + length] = part[offset - start:offset - start + length]
        finally:
            self._run.close()
        if failed:
            index, cause, _ = min(failed, key=lambda failure: failure[0])
            if any(i < index for *_, members in failed for i in members):
                self._backend.read_into(requests[:index], view[:at[index]])
            raise ReadError(index, cause) from cause

    def close(self) -> None:
        """Close the call: connections whose responses are still due are
        closed, and the others go back to the pool."""
        self._run.close()


class HTTPBackend(_ReadsByStart):
    """Client for the object server's wire protocol (path-style GET/PUT/HEAD).

    Ranged reads are sent as ``Range: bytes=a-b`` (``a-`` when open-ended)
    and must come back as 206, with exactly the range's length when its end
    is known; 404 maps to NotFoundError, 416 to RangeError and any other
    failure to StorageError.  A batch read (``start_read``, ``read_into``)
    sends one GET per key, whose ``Range`` header lists the key's merged
    runs (``bytes=a-b,c-d``): more than one run must come back as a 206
    ``multipart/byteranges`` body with exactly those parts, in that order,
    or the GET fails with StorageError, so a server that serves no
    multi-range GET (Amazon S3) fails loudly.

    The backend starts no threads.  Every call runs its requests on one
    shared pool of at most ``_IN_FLIGHT`` keep-alive connections, each a
    blocking socket that carries one request at a time: ``get``, ``put``,
    ``size`` and ``list`` are calls of one request, and a batch read is a
    call of one GET per key.  A call sends as many requests as it gets
    connections for and then reads the responses in request order, in the
    calling thread.  After each response it sends its next request on the
    connection just freed, and on any idle one it can take without
    waiting, and it gives each connection back as soon as it has nothing
    left to send on it.  ``start_read`` splits a batch read in two: its
    GETs go out on the thread that starts it, as far as the pool has
    connections then, and ``finish`` reads the responses, and sends the
    rest, on the thread that calls it.  In between, the read holds its
    connections and its responses wait in their sockets' buffers.

    The pool keeps four rules.  The loader starts its reads in batch order
    and builds, so finishes, them in batch order; under these rules its
    prefetch window cannot deadlock:

    1. A call that gets no connection as it starts joins a FIFO queue at
       once; a started read does not wait for its ``finish`` to join.
    2. A connection given back, or the place a closed one frees under
       ``_IN_FLIGHT``, goes to the oldest queued call, one to a call.
    3. No call takes an idle connection or opens a new one while a call is
       queued.
    4. A call that holds a connection never waits on the pool.

    So a call with requests in flight gets no connection that another call
    gives back: it slides over its own.  A queued call waits up to
    ``timeout`` seconds for its connection (a started read from its
    ``finish``), and then fails with StorageError, as it does once the
    backend is closed.  A request goes
    out whole, and a response must carry exactly ``Content-Length`` body
    bytes; ``Connection: close`` closes the connection after its response.
    A GET or HEAD that fails on a reused connection before a byte of its
    response arrives (the server closed an idle connection) is sent once
    more on a fresh one; nothing else is retried.  A read that waits
    ``timeout`` seconds for a byte fails its request, and every other
    request its call has left, with StorageError; for a started read the
    wait counts from ``finish``.  An invalid key raises ValueError, and in
    a batch read fails its own request.
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
        self._ready = threading.Condition(self._lock)  # a queued call was handed one
        self._idle: list[_Connection] = []  # empty while a call is queued
        self._opened = 0  # connections open or to be opened, idle or held
        self._queue: deque[_Call] = deque()  # calls holding none, oldest first
        self._closed = False

    def _path(self, key: str) -> str:
        return f"{self._base}/{quote(validate_key(key))}"

    def _take(self, call: _Call, wanted: int, queue: bool) -> list[_Connection]:
        """Idle connections, then new ones while the pool has room, up to
        ``wanted`` in all, and none while a call is queued; ``call`` joins
        the queue if it gets none and ``queue`` says it holds none."""
        with self._lock:
            if self._closed:
                raise StorageError(f"{self.endpoint}: backend is closed")
            taken, new = [], 0
            if not self._queue:
                taken = self._idle[-wanted:]
                del self._idle[-wanted:]
                new = max(0, min(wanted - len(taken), _IN_FLIGHT - self._opened))
                self._opened += new
            if queue and not taken and not new:
                self._queue.append(call)
        return taken + [_Connection(self._address) for _ in range(new)]

    def _wait(self, call: _Call) -> _Connection:
        """The connection the queue hands to ``call``, waited for up to the
        timeout."""
        with self._lock:
            if not self._ready.wait_for(
                    lambda: call.handed is not None or self._closed, self.timeout):
                self._queue.remove(call)
                raise StorageError(f"no connection free for {self.timeout} s")
            if self._closed:
                raise StorageError(f"{self.endpoint}: backend is closed")
            conn, call.handed = call.handed, None
        return conn

    def _give(self, conns: list[_Connection], leaving: _Call | None = None) -> None:
        """Return ``conns``, and take ``leaving`` out of the queue with the
        connection handed to it.  Each connection, closed or not, goes to
        the oldest queued call, one to a call; the rest go idle, and a
        closed one frees its place."""
        with self._lock:
            if leaving is not None:
                if leaving in self._queue:
                    self._queue.remove(leaving)
                if leaving.handed is not None:
                    conns.append(leaving.handed)
                    leaving.handed = None
            for conn in conns:
                if self._closed:
                    conn.close()
                if self._queue:
                    self._queue.popleft().handed = conn  # it opens a closed one
                    self._ready.notify_all()
                elif conn.sock is None:
                    self._opened -= 1
                else:
                    self._idle.append(conn)

    @staticmethod
    def _check(method: str, path: str, status: int) -> None:
        if status == 404:
            raise NotFoundError(path)
        if status == 416:
            raise RangeError(path)
        if not 200 <= status < 300:
            raise StorageError(f"HTTP {status} for {method} {path}")

    def _request(self, method: str, path: str, body: bytes | None = None,
                 header: str = "") -> tuple[int, dict[str, str], bytearray]:
        """One request, with ``header`` lines after the Host line; its
        status, fields and body once ``_check`` passes the status."""
        length = "" if body is None else f"Content-Length: {len(body)}\r\n"
        wire = f"{method} {path} HTTP/1.1\r\n{self._host_line}\r\n{header}{length}\r\n"
        call = _Call(self, method, [wire.encode("latin-1") + (body or b"")])
        try:
            status, fields, data = call.result(0)
        finally:
            call.close()
        self._check(method, path, status)
        return status, fields, data

    def start_read(self, requests: list[tuple[str, int, int]]) -> "_RangedRead":
        """Send the read's GETs now, as far as the pool has connections."""
        return _RangedRead(self, requests)

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        path = self._path(key)
        if byte_range is None:
            return bytes(self._request("GET", path)[2])
        spec = f"{byte_range.start}-{'' if byte_range.end is None else byte_range.end}"
        status, _, data = self._request("GET", path, header=f"Range: bytes={spec}\r\n")
        if status != 206 or (byte_range.end is not None
                             and len(data) != byte_range.end - byte_range.start + 1):
            raise StorageError(f"HTTP {status} with {len(data)} bytes for bytes={spec} of {key}")
        return bytes(data)

    def put(self, key: str, data: bytes) -> None:
        self._request("PUT", self._path(key), body=data)

    def list(self, prefix: str = "") -> list[str]:
        body = self._request("GET", f"{self._base}/?prefix={quote(prefix)}")[2]
        return [line for line in body.decode("utf-8").splitlines() if line]

    def size(self, key: str) -> int:
        length = self._request("HEAD", self._path(key))[1].get("content-length", "")
        if not length.isdecimal():
            raise StorageError(f"HEAD {key} without a Content-Length")
        return int(length)

    def close(self) -> None:
        """Close the idle connections, and each held one when its call ends;
        the queued calls fail.  Later requests raise StorageError."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._opened -= len(idle)
            self._queue.clear()
            self._ready.notify_all()
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
    share without a lock.  So which request gets which delay depends on the
    order of the draws.  The loader starts every batch read on its consumer
    thread in batch order, so a latency-wrapped loader's per-batch delays
    are a pure function of the seeds, with workers or without; draws made
    by concurrent callers on their own threads are seeded only as a
    multiset.  The object server draws on its connections' threads, one
    thread to a connection, so its delays are seeded only as a multiset too.
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


class _DelayedRead(PendingRead):
    """A ``LatencyBackend`` read, due ``delay_s`` after it starts: ``finish``
    sleeps what is left of that, then runs the inner backend's read."""

    def __init__(self, inner: StorageBackend, requests: list[tuple[str, int, int]],
                 delay_s: float) -> None:
        super().__init__(inner, requests)
        self._due = time.monotonic() + delay_s

    def finish(self, out) -> None:
        left = self._due - time.monotonic()
        if left > 0:
            time.sleep(left)
        super().finish(out)


class LatencyBackend(_ReadsByStart):
    """Delays every request by one latency sample, then defers to the inner
    backend.  A batch read draws one sample per distinct key it reads, as
    the HTTP plan sends one GET per key, and waits the largest, counted from
    ``start_read``: those GETs are in flight together."""

    def __init__(self, inner: StorageBackend, model: LatencyModel) -> None:
        self.inner = inner
        self.model = model

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        self.model.wait()
        return self.inner.get(key, byte_range)

    def start_read(self, requests: list[tuple[str, int, int]]) -> PendingRead:
        keys = len({key for key, *_ in requests})
        delay_ms = max((self.model.sample_ms() for _ in range(keys)), default=0.0)
        return _DelayedRead(self.inner, requests, delay_ms / 1000.0)

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


@dataclass
class StorageStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    requests: int = 0
    bytes_read: int = 0


class _CachedRead(PendingRead):
    """A ``CachedBackend`` read: every extent is looked up as it starts, and
    the misses go to the inner backend as one read, started at once."""

    def __init__(self, cache: "CachedBackend",
                 requests: list[tuple[str, int, int]]) -> None:
        super().__init__(cache, requests)
        with cache._lock:
            self._found = [cache._lookup((key, start, start + length - 1))
                           for key, start, length in requests]
        self._missed = [i for i, data in enumerate(self._found) if data is None]
        self._inner = cache.inner.start_read([requests[i] for i in self._missed])

    def finish(self, out) -> None:
        """Scatter the hits and the misses into ``out`` in request order and
        store the misses; a failed miss stops both at its own request."""
        requests, cache = self._requests, self._backend
        fetched = memoryview(bytearray(sum(requests[i][2] for i in self._missed)))
        failed = None
        try:
            self._inner.finish(fetched)
        except ReadError as exc:
            failed = exc
        stop = len(requests) if failed is None else self._missed[failed.index]
        view = memoryview(out).cast("B")
        pos = at = 0
        with cache._lock:
            for (key, start, length), data in zip(requests[:stop], self._found):
                if data is None:
                    data = bytes(fetched[at:at + length])
                    at += length
                    cache._store((key, start, start + length - 1), data)
                view[pos:pos + length] = data
                pos += length
        if failed is not None:
            raise ReadError(stop, failed.cause) from failed.cause

    def close(self) -> None:
        self._inner.close()


class CachedBackend(_ReadsByStart):
    """Byte-capacity LRU over (key, start, end) entries, ``end`` inclusive
    or None for the end of the object; ``get(key)`` is (key, 0, None).

    Objects are assumed immutable, so a hit is always byte-identical to the
    inner read.  Entries larger than the whole capacity bypass the cache.
    Ranged reads of the same object are distinct entries (no coalescing).
    A put invalidates that key's entries.  A batch read looks up all of its
    extents as it starts and stores its misses as it finishes.
    """

    def __init__(self, inner: StorageBackend, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be > 0")
        self.inner = inner
        self.capacity_bytes = capacity_bytes
        self.stats = StorageStats()
        self._entries: OrderedDict[tuple[str, int, int | None], bytes] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()

    def _lookup(self, ck: tuple[str, int, int | None]) -> bytes | None:
        """The cached bytes of ``ck``, or None on a miss; the caller holds the lock."""
        self.stats.requests += 1
        if ck in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(ck)
            return self._entries[ck]
        self.stats.misses += 1
        return None

    def _store(self, ck: tuple[str, int, int | None], data: bytes) -> None:
        """Count ``data`` as read and keep it; the caller holds the lock."""
        self.stats.bytes_read += len(data)
        if len(data) <= self.capacity_bytes and ck not in self._entries:
            self._entries[ck] = data
            self._used += len(data)
            while self._used > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._used -= len(evicted)
                self.stats.evictions += 1

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        ck = (key, 0, None) if byte_range is None else (key, byte_range.start, byte_range.end)
        with self._lock:
            data = self._lookup(ck)
        if data is None:
            data = self.inner.get(key, byte_range)
            with self._lock:
                self._store(ck, data)
        return data

    def start_read(self, requests: list[tuple[str, int, int]]) -> PendingRead:
        return _CachedRead(self, requests)

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
