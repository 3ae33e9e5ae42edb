"""Byte stores: local directory, in-memory, and S3-compatible HTTP backends.

All backends speak the same small contract (get / put / list / size, plus
``get_many`` and ``close``) with inclusive byte ranges, so the loading
pipeline never knows where bytes live.  ``get_many`` reads a list of
(key, range) requests and yields their bytes in request order; each request
may carry a wait, a delay it holds before it is sent.  By default it runs
one ``get`` at a time, each when its bytes are asked for, after sleeping its
wait.  ``HTTPBackend`` runs every request through one small HTTP/1.1 codec
and a selector loop in the calling thread, on a pool of keep-alive
connections shared by its callers: ``get_many`` keeps up to ``_IN_FLIGHT``
requests in flight and times their waits in the loop, so delayed requests
overlap too.  ``close()`` releases the connections.

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
import selectors
import socket
import threading
import time
from collections import OrderedDict
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


# Requests an HTTPBackend keeps in flight, and so its most connections.
# In-process run_loop of perfbench's http-remote workload (64x64x3 images,
# one ranged GET each, from a server process that holds every request 3 ms;
# 2 loader workers), 16 repetitions per depth on a 2-vCPU VM.  With the
# server's selector loop, at 45-71 us of store CPU a GET, 32 gave 4368-5298
# samples/s (medians of two sweeps 4697 and 4974), 64 gave 5431-6669
# (5837, 6241), 96 gave 5567-7540 (6247, 6695) and 128 gave 5712-7637
# (6416, 6947).  At 128 both workers' whole 64-sample batches are in flight
# at once, the workload's own ceiling, so a deeper setting would only fit
# the benchmark.  The thread-per-connection server it replaced, at 121-168
# us a GET, gave 3622-4515 (4059) at 32 and 3777-4919 (4379) at 64, in 8
# repetitions each.
_IN_FLIGHT = 64
_MAX_LINE = 65536  # the longest status, request or header line (as http.client)
_MAX_HEADERS = 100
_RECV_BYTES = 1 << 16


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


class _Connection:
    """One keep-alive HTTP/1.1 connection of an ``HTTPBackend``'s pool.

    It carries one request at a time.  ``start`` sends a request in one
    ``sendall``, and ``feed`` parses the response as its bytes arrive: a
    status line, headers (keyed in lower case) and exactly
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
        self.sock = opener.sock  # it keeps the timeout, for sendall

    def start(self, method: str, wire: bytes) -> None:
        self._method = method
        self.received = False
        self._head, self._pos, self._status, self._lines = b"", 0, 0, 0
        self._fields: dict[str, str] = {}
        self._body: list[bytes] = []
        self._missing = -1  # body bytes still to come, once the head is read
        self.sock.sendall(wire)

    def feed(self) -> tuple[int, dict[str, str], bytes] | None:
        """Read what has arrived (call it when the socket is readable); the
        response once it is complete."""
        data = self.sock.recv(_RECV_BYTES)
        if not data:
            if not self.received:
                raise ConnectionError("connection closed before a status line")
            if self._missing < 0:
                raise StorageError("connection closed inside a response head")
            got = sum(map(len, self._body))
            raise StorageError(f"body cut short: {got} of {got + self._missing} bytes")
        self.received = True
        if self._missing < 0:
            data = self._read_head(self._head + data)
            if self._missing < 0:
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

    def _read_head(self, buf: bytes) -> bytes:
        """Parse the head lines in ``buf``; once the head is complete, set
        the body length and return the bytes after the head."""
        pos = self._pos
        while (end := buf.find(b"\n", pos) + 1) and end - pos <= _MAX_LINE:
            line, pos = buf[pos:end], end
            if not self._status:
                words = line.split(None, 2)
                if (len(words) < 2 or not words[0].startswith(b"HTTP/1.")
                        or len(words[1]) != 3 or not words[1].isdigit()):
                    raise StorageError(f"malformed status line {line[:80]!r}")
                self._status, self._fields, self._lines = int(words[1]), {}, 0
            elif line not in (b"\r\n", b"\n"):
                name, colon, value = line.decode("latin-1").partition(":")
                if not colon:
                    raise StorageError(f"malformed header line {line[:80]!r}")
                self._lines += 1
                if self._lines > _MAX_HEADERS:
                    raise StorageError(f"more than {_MAX_HEADERS} header lines")
                self._fields[name.lower()] = value.strip()
            elif self._status < 200:  # an interim response; the final one follows
                self._status = 0
            else:
                self._missing = 0
                if self._method != "HEAD" and self._status not in (204, 304):
                    length = self._fields.get("content-length", "")
                    if not length.isdecimal():
                        raise StorageError(
                            f"HTTP {self._status} without a Content-Length")
                    self._missing = int(length)
                return buf[pos:]
        if len(buf) - pos > _MAX_LINE:
            raise StorageError(f"a response line over {_MAX_LINE} bytes")
        self._head, self._pos = buf, pos
        return b""

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()


class _Pass:
    """One call's requests on an ``HTTPBackend``'s connection pool, run by
    a selector loop in the calling thread.

    Each connection the pass holds carries one request at a time, in
    request order; a request with a wait holds its connection that long
    before it is sent.  ``result(i)`` runs the loop until request i is
    answered.  A request that fails on a reused connection before any byte
    of its response (the server closed the idle connection) is sent once
    more on a fresh one.  ``close`` closes the connections whose responses
    are still due, so no later request can read one, and returns the rest
    to the pool.
    """

    def __init__(self, backend: "HTTPBackend", requests: list[tuple[str, bytes]],
                 waits: list[float] | None) -> None:
        self._backend = backend
        self._requests = requests
        self._waits = waits
        self._next = 0  # the next request to get a connection
        self._results: dict[int, tuple | StorageError] = {}
        self._free: list[_Connection] = []  # held, carrying no request
        self._timers: list[tuple[float, int, _Connection]] = []  # sends due
        self._selector = selectors.DefaultSelector()  # connections reading
        self._progress = 0.0  # when a response last moved, or a request went out

    def result(self, index: int) -> tuple[int, dict[str, str], bytes]:
        self._progress = time.monotonic()  # a stall is time the caller waits
        while True:
            self._fill(wait=index not in self._results)
            if index in self._results:
                break
            self._poll()
        result = self._results.pop(index)
        if isinstance(result, StorageError):
            raise result
        return result

    def _fill(self, wait: bool) -> None:
        """Give the next requests the connections the pass holds or the pool
        has free; block for one only while none is in flight."""
        while self._next < len(self._requests):
            if self._free:
                conn = self._free.pop()
            else:
                idle = not self._timers and not self._selector.get_map()
                conn = self._backend._acquire(wait and idle)
                if conn is None:
                    break
            index, self._next = self._next, self._next + 1
            wait_s = self._waits[index] if self._waits else 0.0
            if wait_s > 0:
                heapq.heappush(self._timers, (time.monotonic() + wait_s, index, conn))
            else:
                self._send(conn, index)
        while self._free:
            self._backend._release(self._free.pop())

    def _send(self, conn: _Connection, index: int) -> None:
        method, wire = self._requests[index]
        conn.index = index
        try:
            if conn.sock is None:
                conn.open()
            conn.start(method, wire)
        except OSError as exc:
            return self._lost(conn, exc)
        self._progress = time.monotonic()
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _poll(self) -> None:
        timeout = self._backend.timeout
        if self._timers:
            timeout = min(timeout, self._timers[0][0] - time.monotonic())
        events = self._selector.select(max(timeout, 0.0))
        for key, _ in events:
            conn = key.data
            try:
                response = conn.feed()
            except (OSError, StorageError) as exc:
                self._selector.unregister(key.fileobj)
                self._lost(conn, exc)
                continue
            if response is not None:
                self._selector.unregister(key.fileobj)
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
            stalled = StorageError(
                f"transport failure: no response for {self._backend.timeout} s")
            for key in list(self._selector.get_map().values()):
                self._selector.unregister(key.fileobj)
                self._fail(key.data, stalled)

    def _lost(self, conn: _Connection, exc: Exception) -> None:
        """``conn`` failed while carrying a request."""
        conn.close()
        if (isinstance(exc, ConnectionError) and conn.reused and not conn.received
                and self._requests[conn.index][0] in ("GET", "HEAD")):
            return self._send(conn, conn.index)  # not reused once it reopens
        self._fail(conn, exc if isinstance(exc, StorageError)
                   else StorageError(f"transport failure: {exc!r}"))

    def _fail(self, conn: _Connection, error: StorageError) -> None:
        conn.close()
        self._results[conn.index] = error
        self._free.append(conn)  # it reconnects for the pass's next request

    def close(self) -> None:
        for key in list(self._selector.get_map().values()):
            self._selector.unregister(key.fileobj)
            key.data.close()  # its response is due: no later request may read it
            self._free.append(key.data)
        self._free.extend(conn for _, _, conn in self._timers)
        self._timers.clear()
        self._selector.close()
        while self._free:
            self._backend._release(self._free.pop())


class HTTPBackend(StorageBackend):
    """Client for the object server's wire protocol (path-style GET/PUT/HEAD).

    Ranged reads are sent as ``Range: bytes=a-b`` (``a-`` when open-ended)
    and must come back as 206, with exactly the range's length when its end
    is known; 404 maps to NotFoundError, 416 to RangeError and any other
    failure to StorageError.

    The backend starts no threads.  Every call runs its requests on one
    shared pool of at most ``_IN_FLIGHT`` keep-alive connections, through a
    selector loop in the calling thread: ``get_many`` keeps as many requests
    in flight as it holds connections and yields the bytes in request
    order, and ``get``, ``put``, ``size`` and ``list`` are passes of one
    request.  A call blocks for a connection only while it has none in
    flight, so concurrent callers share the pool first come, first served.
    A request goes out in one ``sendall``, and a response must carry exactly ``Content-Length`` body bytes; ``Connection: close``
    closes the connection after its response.  A GET or HEAD that fails on
    a reused connection before a status line arrives (the server closed an
    idle connection) is sent once more on a fresh one; nothing else is
    retried.  A call that receives nothing for ``timeout`` seconds fails
    with StorageError.  An invalid key raises ValueError before any request
    of its call is sent.
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
        self._room = threading.Condition()  # guards the pool below
        self._idle: list[_Connection] = []
        self._opened = 0  # connections open or being opened, idle or held
        self._closed = False

    def _path(self, key: str) -> str:
        return f"{self._base}/{quote(validate_key(key))}"

    def _acquire(self, wait: bool) -> _Connection | None:
        """An idle connection or a new one, if the pool has room; else None,
        or with ``wait``, the first one freed."""
        with self._room:
            if wait and not self._room.wait_for(
                    lambda: self._idle or self._opened < _IN_FLIGHT or self._closed,
                    self.timeout):
                raise StorageError(f"no connection free for {self.timeout} s")
            if self._closed:
                raise StorageError(f"{self.endpoint}: backend is closed")
            if self._idle:
                return self._idle.pop()
            if self._opened < _IN_FLIGHT:
                self._opened += 1
                return _Connection(self._address)
            return None

    def _release(self, conn: _Connection) -> None:
        with self._room:
            if conn.sock is not None and not self._closed:
                self._idle.append(conn)
            else:
                conn.close()
                self._opened -= 1
            self._room.notify()

    def _encode(self, method: str, path: str, headers: tuple[str, ...] = (),
                body: bytes | None = None) -> tuple[str, bytes]:
        lines = [f"{method} {path} HTTP/1.1", self._host_line, *headers]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        return method, "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + (body or b"")

    def _exchange(self, requests: list[tuple[str, bytes]],
                  waits: list[float] | None = None
                  ) -> Generator[tuple[int, dict[str, str], bytes], None, None]:
        """Yield the (status, headers, body) of each (method, request bytes)
        in order; a transport or protocol failure raises at its turn."""
        run = _Pass(self, requests, waits)
        try:
            for index in range(len(requests)):
                yield run.result(index)
        finally:
            run.close()

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
        with closing(self._exchange([self._encode(method, path, body=body)])) as responses:
            status, fields, data = next(responses)
        self._check(method, path, status)
        return fields, data

    def get_many(self, requests: list[tuple[str, ByteRange | None]],
                 waits: list[float] | None = None) -> Generator[bytes, None, None]:
        paths = [self._path(key) for key, _ in requests]
        ranges = [None if br is None else
                  f"bytes={br.start}-{'' if br.end is None else br.end}"
                  for _, br in requests]
        wires = [self._encode("GET", path, () if spec is None else (f"Range: {spec}",))
                 for path, spec in zip(paths, ranges)]
        with closing(self._exchange(wires, waits)) as responses:
            for (key, br), path, spec, (status, _, data) in zip(
                    requests, paths, ranges, responses):
                self._check("GET", path, status)
                if br is not None and (status != 206 or (
                        br.end is not None and len(data) != br.end - br.start + 1)):
                    raise StorageError(f"HTTP {status} with {len(data)} bytes for "
                                       f"{spec} of {key}")
                yield data

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
        later requests raise StorageError."""
        with self._room:
            self._closed = True
            idle, self._idle = self._idle, []
            self._opened -= len(idle)
            self._room.notify_all()
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
