"""Byte stores: local directory, in-memory, and S3-compatible HTTP backends.

All backends speak the same small contract (get / put / list / size, plus
``get_many`` and ``close``) with inclusive byte ranges, so the loading
pipeline never knows where bytes live.  ``get_many`` reads a list of
(key, range) requests and yields their bytes in request order.  How the
requests run is up to the backend's ``map``: by default the builtin, one
``get`` at a time, each when its bytes are asked for.  ``HTTPBackend`` keeps
one persistent connection per thread and maps the requests over a pool of 16
fetch threads it owns, so up to 16 requests are in flight at once;
``close()`` releases the connections and the pool.  Its requests and
responses go through a small HTTP/1.1 codec of its own: one ``sendall`` per
request, and a response must carry exactly ``Content-Length`` body bytes.
The wrappers below take the ``map`` of the backend they wrap, so their own
per-request work runs with the inner backend's concurrency.

Two wrappers recreate network conditions on top of any backend:

* ``with_latency`` delays every request by a sample from a ``LatencyModel``
  (constant or lognormal round-trip time, clamped to a floor).  The object
  server delays its requests with the same ``LatencyModel.wait``.
* ``CachedBackend`` adds a byte-capacity LRU over (key, range) entries.

Ranges are strict: a range reaching past the end of the object is an error,
not a clamp, so every backend returns identical bytes for identical requests.
"""

from __future__ import annotations

import http.client
import itertools
import math
import socket
import threading
import time
from collections import OrderedDict
from collections.abc import Generator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO
from urllib.parse import quote, urlsplit

from .prng import SplitMix64, derive_seed


class StorageError(Exception):
    """Base error for backend failures."""


class NotFoundError(StorageError):
    """The requested key does not exist."""


class RangeError(StorageError):
    """The requested byte range is not satisfiable."""


# Requests an HTTPBackend keeps in flight.  Loading 64x64x3 images over
# loopback from a server that holds each request 3 ms, on 2 vCPUs: 8 gave
# 1906-1959 samples/s, 16 gave 2519-2868 and 32 gave 2710-2909.  32's edge
# is inside the spread, and it doubles the threads and connections at both
# ends.
_FETCH_THREADS = 16
_MAX_LINE = 65536  # the longest status, request or header line (as http.client)
_MAX_HEADERS = 100


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

    # runs get_many's fetches: the builtin one at a time, each when its
    # bytes are asked for; a backend with requests in flight sets its own
    map = map

    def get_many(self, requests: list[tuple[str, ByteRange | None]]
                 ) -> Generator[bytes, None, None]:
        """Yield the bytes of each (key, range) request, in request order.

        A failed request raises its own error when its turn comes.  Closing
        the generator early drops the requests that have not started.
        """
        # yield from, not return: an early close reaches an Executor's map
        yield from self.map(self.get, [key for key, _ in requests],
                            [byte_range for _, byte_range in requests])

    def close(self) -> None:
        """Release connections and threads; a no-op for most backends."""


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
    """One keep-alive HTTP/1.1 connection that speaks the object protocol.

    A request goes out in one ``sendall``.  A response is a status line,
    headers (keyed in lower case) and exactly ``Content-Length`` body bytes;
    HEAD, 1xx, 204 and 304 have no body.  A malformed or short response
    raises StorageError; a connection that closes before a status line
    raises ConnectionError.  ``Connection: close`` closes the socket, and
    the next request opens a new one.
    """

    def __init__(self, host: str, port: int | None, timeout: float) -> None:
        self._address = (host, port, timeout)
        self._host = host if port is None else f"{host}:{port}"
        self.sock: socket.socket | None = None
        self._file: BinaryIO | None = None

    def request(self, method: str, path: str, headers: dict[str, str],
                body: bytes | None = None) -> tuple[int, dict[str, str], bytes]:
        if self.sock is None:
            # http.client opens the socket (TCP_NODELAY, its audit event)
            opener = http.client.HTTPConnection(*self._address)
            opener.connect()
            self.sock, self._file = opener.sock, opener.sock.makefile("rb")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self._host}",
                 *(f"{name}: {value}" for name, value in headers.items())]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        self.sock.sendall("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
                          + (body or b""))
        status, fields = self._read_head()
        while status < 200:  # an interim response; the final one follows
            status, fields = self._read_head()
        data = b""
        if method != "HEAD" and status not in (204, 304):
            length = fields.get("content-length", "")
            if not length.isdecimal():
                raise StorageError(f"HTTP {status} without a Content-Length")
            data = self._file.read(int(length))
            if len(data) != int(length):
                raise StorageError(f"body cut short: {len(data)} of {length} bytes")
        if fields.get("connection", "").lower() == "close":
            self.close()
        return status, fields, data

    def _read_head(self) -> tuple[int, dict[str, str]]:
        line = self._file.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionError("connection closed before a status line")
        words = line.split(None, 2)
        if (len(words) < 2 or not words[0].startswith(b"HTTP/1.")
                or len(words[1]) != 3 or not words[1].isdigit()):
            raise StorageError(f"malformed status line {line[:80]!r}")
        fields = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._file.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                return int(words[1]), fields
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or len(line) > _MAX_LINE:
                raise StorageError(f"malformed header line {line[:80]!r}")
            fields[name.lower()] = value.strip()
        raise StorageError(f"more than {_MAX_HEADERS} header lines")

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            self._file.close()
            sock.close()


class HTTPBackend(StorageBackend):
    """Client for the object server's wire protocol (path-style GET/PUT/HEAD).

    Ranged reads are sent as ``Range: bytes=a-b`` (``a-`` when open-ended)
    and must come back as 206, with exactly the range's length when its end
    is known; 404 maps to NotFoundError, 416 to RangeError and any other
    failure to StorageError.  Each thread keeps one persistent HTTP/1.1
    connection.  A GET or HEAD that fails on a reused connection before a
    status line arrives (the server closed an idle connection) is sent once
    more on a fresh one; nothing else is retried.  ``get_many`` runs its
    requests on a pool of ``_FETCH_THREADS`` fetch threads, each with its
    own connection.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        parts = urlsplit(endpoint)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"endpoint must be http://host[:port], got {endpoint!r}")
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self._host, self._port = parts.hostname, parts.port
        self._base = parts.path.rstrip("/")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[_Connection] = []
        self._pool = ThreadPoolExecutor(_FETCH_THREADS,
                                        thread_name_prefix="loadbench-fetch")
        # Executor.map submits every request at once and yields in order; a
        # failure or an early close cancels the fetches not yet started
        self.map = self._pool.map

    def _path(self, key: str) -> str:
        return f"{self._base}/{quote(validate_key(key))}"

    def _conn(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self._host, self._port, self.timeout)
            self._local.conn = conn
            with self._lock:
                self._conns.append(conn)
        return conn

    def _request(self, method: str, path: str, body: bytes | None = None,
                 headers: dict[str, str] | None = None
                 ) -> tuple[int, dict[str, str], bytes]:
        conn = self._conn()
        reused = conn.sock is not None
        try:
            try:
                status, fields, data = conn.request(method, path, headers or {}, body)
            except ConnectionError:
                # the server closed the idle connection: no status line came
                if not (reused and method in ("GET", "HEAD")):
                    raise
                conn.close()
                status, fields, data = conn.request(method, path, headers or {}, body)
        except OSError as exc:
            conn.close()
            raise StorageError(f"transport failure: {exc!r}") from exc
        except StorageError:  # a malformed response: the stream is lost
            conn.close()
            raise
        if status == 404:
            raise NotFoundError(path)
        if status == 416:
            raise RangeError(path)
        if not 200 <= status < 300:
            raise StorageError(f"HTTP {status} for {method} {path}")
        return status, fields, data

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        if byte_range is None:
            return self._request("GET", self._path(key))[2]
        end = "" if byte_range.end is None else byte_range.end
        status, _, data = self._request(
            "GET", self._path(key),
            headers={"Range": f"bytes={byte_range.start}-{end}"})
        if status != 206 or (byte_range.end is not None and
                             len(data) != byte_range.end - byte_range.start + 1):
            raise StorageError(f"HTTP {status} with {len(data)} bytes for "
                               f"bytes={byte_range.start}-{end} of {key}")
        return data

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
        """Shut the fetch pool (queued fetches are cancelled) and close every
        connection.  A later ``get`` reconnects; ``get_many`` raises."""
        self._pool.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
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
        self.map = inner.map

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        self.model.wait()
        return self.inner.get(key, byte_range)

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
        self.map = inner.map
        self.stats = StorageStats()
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        ck = (key, byte_range)
        with self._lock:
            self.stats.requests += 1
            if ck in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(ck)
                return self._entries[ck]
            self.stats.misses += 1
        data = self.inner.get(key, byte_range)
        with self._lock:
            self.stats.bytes_read += len(data)
            if len(data) <= self.capacity_bytes and ck not in self._entries:
                self._entries[ck] = data
                self._used += len(data)
                while self._used > self.capacity_bytes:
                    _, evicted = self._entries.popitem(last=False)
                    self._used -= len(evicted)
                    self.stats.evictions += 1
        return data

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
