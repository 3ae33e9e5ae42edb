"""Byte stores: local directory, in-memory, and S3-compatible HTTP backends.

All backends speak the same small contract (get / put / list / size, plus
``get_many`` and ``close``) with inclusive byte ranges, so the loading
pipeline never knows where bytes live.  ``get_many`` reads a list of
(key, range) requests and yields their bytes in request order.  How the
requests run is ``map_requests``'s business: by default one ``get`` at a
time, each when its bytes are asked for.  ``HTTPBackend`` keeps one
persistent connection per thread and runs them on a pool of 8 fetch threads
it owns, so up to 8 requests are in flight at once; ``close()`` releases the
connections and the pool.  The wrappers below pass ``map_requests`` through
to the backend they wrap, so their own per-request work runs with the inner
backend's concurrency.

Two wrappers recreate network conditions on top of any backend:

* ``with_latency`` delays every request by a sample from a ``LatencyModel``
  (constant or lognormal round-trip time, clamped to a floor).
* ``CachedBackend`` adds a byte-capacity LRU over (key, range) entries.

Ranges are strict: a range reaching past the end of the object is an error,
not a clamp, so every backend returns identical bytes for identical requests.
"""

from __future__ import annotations

import http.client
import math
import random
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Generator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from urllib.parse import quote, urlsplit


class StorageError(Exception):
    """Base error for backend failures."""


class NotFoundError(StorageError):
    """The requested key does not exist."""


class RangeError(StorageError):
    """The requested byte range is not satisfiable."""


_FETCH_THREADS = 8  # requests an HTTPBackend keeps in flight (16 ran slower on 2 vCPUs)


def validate_key(key: str) -> str:
    """Object keys are non-empty relative POSIX paths without '..' segments."""
    if not key or key.startswith("/"):
        raise ValueError(f"invalid object key {key!r}")
    if ".." in PurePosixPath(key).parts:
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

    def get_many(self, requests: list[tuple[str, ByteRange | None]]
                 ) -> Generator[bytes, None, None]:
        """Yield the bytes of each (key, range) request, in request order.

        A failed request raises its own error when its turn comes.  Closing
        the generator early drops the requests that have not started.
        """
        return self.map_requests(self.get, requests)

    def map_requests(self, fetch: Callable[[str, ByteRange | None], bytes],
                     requests: list[tuple[str, ByteRange | None]]
                     ) -> Generator[bytes, None, None]:
        """Yield ``fetch(key, range)`` for each request, in request order.

        Here each fetch runs when its result is asked for, so one request's
        bytes are held at a time; a backend that can keep several requests
        in flight overrides this.
        """
        for key, byte_range in requests:
            yield fetch(key, byte_range)

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
        with self._lock:
            if key not in self._objects:
                raise NotFoundError(key)
            return len(self._objects[key])


class HTTPBackend(StorageBackend):
    """Client for the object server's wire protocol (path-style GET/PUT/HEAD).

    Ranged reads are sent as ``Range: bytes=a-b`` (``a-`` when open-ended);
    404 maps to NotFoundError and 416 to RangeError.  Each thread keeps one
    persistent HTTP/1.1 connection.  A GET or HEAD that fails on a reused
    connection before a status line arrives (the server closed an idle
    connection) is sent once more on a fresh one; nothing else is retried.
    ``get_many`` runs its requests on a pool of ``_FETCH_THREADS`` fetch
    threads, each with its own connection.
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
        self._conns: list[http.client.HTTPConnection] = []
        self._pool = ThreadPoolExecutor(_FETCH_THREADS,
                                        thread_name_prefix="loadbench-fetch")

    def _path(self, key: str) -> str:
        return f"{self._base}/{quote(validate_key(key))}"

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port,
                                              timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._conns.append(conn)
        return conn

    def _request(self, method: str, path: str, body: bytes | None = None,
                 headers: dict[str, str] | None = None
                 ) -> tuple[http.client.HTTPResponse, bytes]:
        conn = self._conn()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=body, headers=headers or {})
                resp = conn.getresponse()
            except ConnectionError:
                # the server closed the idle connection: no status line came
                if not (reused and method in ("GET", "HEAD")):
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers or {})
                resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise StorageError(f"transport failure: {exc!r}") from exc
        if resp.status == 404:
            raise NotFoundError(path)
        if resp.status == 416:
            raise RangeError(path)
        if not 200 <= resp.status < 300:
            raise StorageError(f"HTTP {resp.status} for {method} {path}")
        return resp, data

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        headers = {}
        if byte_range is not None:
            end = "" if byte_range.end is None else byte_range.end
            headers["Range"] = f"bytes={byte_range.start}-{end}"
        return self._request("GET", self._path(key), headers=headers)[1]

    def map_requests(self, fetch, requests):
        # every request goes to the pool when iteration starts
        futures = [self._pool.submit(fetch, key, byte_range)
                   for key, byte_range in requests]
        try:
            for f in futures:
                yield f.result()
        finally:  # after a failure or an early close, drop the unstarted fetches
            for f in futures:
                f.cancel()

    def put(self, key: str, data: bytes) -> None:
        self._request("PUT", self._path(key), body=data)

    def list(self, prefix: str = "") -> list[str]:
        _, body = self._request("GET", f"{self._base}/?prefix={quote(prefix)}")
        return [line for line in body.decode("utf-8").splitlines() if line]

    def size(self, key: str) -> int:
        resp, _ = self._request("HEAD", self._path(key))
        return int(resp.headers["Content-Length"])

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
    Samples never go below ``min_ms``.
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
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def sample_ms(self) -> float:
        if self.distribution == "constant" or self.std_ms == 0 or self.mean_ms == 0:
            return max(self.mean_ms, self.min_ms)
        ratio = self.std_ms / self.mean_ms
        sigma2 = math.log(1.0 + ratio * ratio)
        mu = math.log(self.mean_ms) - sigma2 / 2.0
        with self._lock:
            value = self._rng.lognormvariate(mu, math.sqrt(sigma2))
        return max(value, self.min_ms)

    def sample_seconds(self) -> float:
        return self.sample_ms() / 1000.0


class LatencyBackend(StorageBackend):
    """Delays every request by one latency sample, then defers to the inner backend."""

    def __init__(self, inner: StorageBackend, model: LatencyModel) -> None:
        self.inner = inner
        self.model = model

    def _wait(self) -> None:
        delay = self.model.sample_seconds()
        if delay > 0:
            time.sleep(delay)

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        self._wait()
        return self.inner.get(key, byte_range)

    def put(self, key: str, data: bytes) -> None:
        self._wait()
        self.inner.put(key, data)

    def list(self, prefix: str = "") -> list[str]:
        self._wait()
        return self.inner.list(prefix)

    def size(self, key: str) -> int:
        self._wait()
        return self.inner.size(key)

    def map_requests(self, fetch, requests):
        return self.inner.map_requests(fetch, requests)

    def close(self) -> None:
        self.inner.close()


def with_latency(backend: StorageBackend, model: LatencyModel) -> LatencyBackend:
    return LatencyBackend(backend, model)


@dataclass
class CacheConfig:
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be > 0")


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

    def __init__(self, inner: StorageBackend, config: CacheConfig) -> None:
        self.inner = inner
        self.config = config
        self.stats = StorageStats()
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()

    @staticmethod
    def _cache_key(key: str, byte_range: ByteRange | None) -> tuple:
        if byte_range is None:
            return (key, None)
        return (key, (byte_range.start, byte_range.end))

    def get(self, key: str, byte_range: ByteRange | None = None) -> bytes:
        ck = self._cache_key(key, byte_range)
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
            if len(data) <= self.config.capacity_bytes and ck not in self._entries:
                self._entries[ck] = data
                self._used += len(data)
                while self._used > self.config.capacity_bytes:
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

    def map_requests(self, fetch, requests):
        return self.inner.map_requests(fetch, requests)

    def close(self) -> None:
        self.inner.close()

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._used


def cached(backend: StorageBackend, capacity_bytes: int) -> CachedBackend:
    return CachedBackend(backend, CacheConfig(capacity_bytes))
