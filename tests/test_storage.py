import http.client
import time
from contextlib import closing
from collections import OrderedDict

import numpy as np
import pytest

import loadbench.server as server_module
import loadbench.storage as storage_module
from loadbench.prng import SplitMix64, stream_bytes
from loadbench.server import serve
from loadbench.storage import (
    ByteRange,
    CacheConfig,
    CachedBackend,
    HTTPBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    NotFoundError,
    RangeError,
    cached,
    validate_key,
    with_latency,
)


@pytest.fixture(params=["local", "memory"])
def backend(request, tmp_path):
    if request.param == "local":
        return LocalBackend(tmp_path, create=True)
    return MemoryBackend()


def test_key_validation():
    assert validate_key("a/b.bin") == "a/b.bin"
    for bad in ("", "/abs", "a/../b", ".."):
        with pytest.raises(ValueError):
            validate_key(bad)


def test_byte_range_validation():
    assert ByteRange(3, 5).resolve(10) == (3, 5)
    assert ByteRange(3).resolve(10) == (3, 9)
    with pytest.raises(ValueError):
        ByteRange(-1)
    with pytest.raises(ValueError):
        ByteRange(5, 4)
    with pytest.raises(RangeError):
        ByteRange(10).resolve(10)
    with pytest.raises(RangeError):
        ByteRange(0, 10).resolve(10)


def test_get_full_range_identity(backend):
    payload = bytes(range(10))
    backend.put("obj", payload)
    assert backend.get("obj", ByteRange(0, 9)) == backend.get("obj")


def test_get_inner_range(backend):
    backend.put("obj", bytes(range(10)))
    assert backend.get("obj", ByteRange(3, 5)) == bytes([3, 4, 5])
    assert backend.get("obj", ByteRange(9, 9)) == bytes([9])
    assert backend.get("obj", ByteRange(4)) == bytes([4, 5, 6, 7, 8, 9])


def test_missing_key_and_bad_range(backend):
    with pytest.raises(NotFoundError):
        backend.get("nope")
    with pytest.raises(NotFoundError):
        backend.size("nope")
    backend.put("obj", b"abc")
    with pytest.raises(RangeError):
        backend.get("obj", ByteRange(3))
    with pytest.raises(RangeError):
        backend.get("obj", ByteRange(0, 3))


def test_put_get_list(backend):
    backend.put("a", b"one")
    backend.put("b/c", b"two")
    assert backend.get("a") == b"one"
    assert backend.list("") == ["a", "b/c"]
    assert backend.list("b/") == ["b/c"]
    assert backend.size("b/c") == 3


def test_randomized_roundtrip(backend):
    # oracle: an in-test dict shadowing every put
    rng = SplitMix64(99)
    shadow = {}
    for i in range(100):
        key = f"k{rng.next_below(1000):03d}/obj{i}"
        payload = stream_bytes(rng.next_u64(), rng.next_below(300) + 1)
        backend.put(key, payload)
        shadow[key] = payload
    assert backend.list("") == sorted(shadow)
    for key, payload in shadow.items():
        assert backend.get(key) == payload


def test_local_and_memory_agree(tmp_path):
    local = LocalBackend(tmp_path, create=True)
    rng = SplitMix64(5)
    for i in range(20):
        local.put(f"d{i % 3}/o{i}", stream_bytes(rng.next_u64(), rng.next_below(200) + 1))
    mem = MemoryBackend.load(local)
    assert mem.list("") == local.list("")
    for key in local.list(""):
        size = local.size(key)
        assert mem.get(key) == local.get(key)
        for _ in range(5):
            start = rng.next_below(size)
            end = start + rng.next_below(size - start)
            br = ByteRange(start, end)
            assert mem.get(key, br) == local.get(key, br)


# -- latency ----------------------------------------------------------------

def test_constant_latency_floor():
    backend = MemoryBackend({"obj": b"x" * 16})
    delayed = with_latency(backend, LatencyModel(mean_ms=17.3))
    t0 = time.perf_counter()
    for _ in range(10):
        assert delayed.get("obj") == b"x" * 16
    assert time.perf_counter() - t0 >= 0.173


def test_zero_latency_is_transparent():
    backend = MemoryBackend({"obj": b"data"})
    delayed = with_latency(backend, LatencyModel(mean_ms=0.0))
    assert delayed.get("obj", ByteRange(1, 2)) == b"at"


def test_lognormal_latency_statistics():
    model = LatencyModel(mean_ms=59.2, std_ms=58.5, min_ms=8.8,
                         distribution="lognormal", seed=4)
    samples = np.array([model.sample_ms() for _ in range(1000)])
    assert np.all(samples >= 8.8)
    assert abs(samples.mean() - 59.2) / 59.2 < 0.15


def test_latency_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(mean_ms=-1)
    with pytest.raises(ValueError):
        LatencyModel(mean_ms=1, distribution="normal")
    # constant ignores std entirely
    assert LatencyModel(mean_ms=5.0, std_ms=100.0).sample_ms() == 5.0
    assert LatencyModel(mean_ms=1.0, min_ms=3.0).sample_ms() == 3.0


# -- LRU cache ----------------------------------------------------------------

def test_cache_forced_eviction():
    inner = MemoryBackend({"A": b"a" * 10, "B": b"b" * 10})
    cache = cached(inner, capacity_bytes=10)  # room for one object
    for key in ("A", "B", "A"):
        cache.get(key)
    assert cache.stats.misses == 3
    assert cache.stats.hits == 0


def test_cache_hit_when_capacity_suffices():
    inner = MemoryBackend({"A": b"a" * 10, "B": b"b" * 10})
    cache = cached(inner, capacity_bytes=20)
    for key in ("A", "B", "A"):
        cache.get(key)
    assert cache.stats.misses == 2
    assert cache.stats.hits == 1
    assert cache.stats.requests == 3


class _ReferenceLRU:
    """Independent byte-capacity LRU simulation (hit/miss oracle)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.used = 0

    def access(self, key, size):
        if key in self.entries:
            self.entries.move_to_end(key)
            return "hit"
        if size <= self.capacity:
            self.entries[key] = size
            self.used += size
            while self.used > self.capacity:
                _, evicted = self.entries.popitem(last=False)
                self.used -= evicted
        return "miss"


def test_cache_matches_reference_policy():
    objects = {f"o{i}": bytes([i]) * (10 + 13 * i % 40) for i in range(8)}
    inner = MemoryBackend(objects)
    capacity = 90
    cache = cached(inner, capacity)
    reference = _ReferenceLRU(capacity)
    rng = SplitMix64(17)
    for _ in range(400):
        key = f"o{rng.next_below(8)}"
        if rng.next_below(4) == 0:
            size = len(objects[key])
            start = rng.next_below(size)
            br = ByteRange(start, start + rng.next_below(size - start))
        else:
            br = None
        before = cache.stats.hits
        data = cache.get(key, br)
        outcome = "hit" if cache.stats.hits > before else "miss"
        # transparency: cached bytes equal the uncached read
        assert data == inner.get(key, br)
        ref_key = (key, None if br is None else (br.start, br.end))
        expected_size = len(data)
        assert outcome == reference.access(ref_key, expected_size)
        assert cache.cached_bytes <= capacity
    assert cache.stats.hits + cache.stats.misses == cache.stats.requests


def test_cache_invalidates_on_put():
    inner = MemoryBackend({"A": b"old"})
    cache = cached(inner, 100)
    assert cache.get("A") == b"old"
    cache.put("A", b"new")
    assert cache.get("A") == b"new"


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(0)
    inner = MemoryBackend({"A": b"abc"})
    assert CachedBackend(inner, CacheConfig(1)).get("A") == b"abc"  # oversize bypass


# -- get_many, persistent HTTP connections, close -------------------------------

@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    local = LocalBackend(root)
    rng = SplitMix64(5)
    for i in range(4):
        local.put(f"s/shard{i}.bin", stream_bytes(rng.next_u64(), 300 + 41 * i))
    return root, local


def _random_requests(local, n, seed):
    rng = SplitMix64(seed)
    keys = local.list("s/")
    requests = []
    for _ in range(n):
        key = keys[rng.next_below(len(keys))]
        size = local.size(key)
        if rng.next_below(8) == 0:
            requests.append((key, None))
            continue
        start = rng.next_below(size)
        requests.append((key, ByteRange(start, start + rng.next_below(size - start))))
    return requests


def _count_connects(monkeypatch) -> list:
    opened = []
    connect = http.client.HTTPConnection.connect

    def counting(conn):
        opened.append(conn)
        connect(conn)
    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


@pytest.mark.parametrize("kind", ["local", "memory", "latency", "cached", "http"])
def test_get_many_matches_get_in_order(shards, kind):
    root, local = shards
    requests = _random_requests(local, 40, seed=9)
    expected = [local.get(key, br) for key, br in requests]
    with serve(root) as server:
        backend = {
            "local": lambda: LocalBackend(root),
            "memory": lambda: MemoryBackend.load(local),
            "latency": lambda: with_latency(local, LatencyModel(mean_ms=0.1)),
            "cached": lambda: cached(local, 2000),
            "http": lambda: HTTPBackend(server.endpoint),
        }[kind]()
        with closing(backend):
            assert list(backend.get_many(requests)) == expected
            assert list(backend.get_many(requests[:1])) == expected[:1]
            assert list(backend.get_many([])) == []


def test_default_get_many_reads_one_request_at_a_time():
    class Counting(MemoryBackend):
        gets = 0

        def get(self, key, byte_range=None):
            self.gets += 1
            return super().get(key, byte_range)

    backend = Counting({"A": b"abc"})
    bufs = backend.get_many([("A", None), ("A", ByteRange(1, 1)), ("absent", None)])
    assert backend.gets == 0
    assert next(bufs) == b"abc" and backend.gets == 1
    assert next(bufs) == b"b" and backend.gets == 2
    with pytest.raises(NotFoundError):
        next(bufs)


def test_http_connections_are_reused(shards, monkeypatch):
    root, local = shards
    opened = _count_connects(monkeypatch)
    requests = _random_requests(local, 100, seed=3)
    with serve(root) as server, closing(HTTPBackend(server.endpoint)) as client:
        t0 = time.perf_counter()
        for key, br in requests:
            assert client.get(key, br) == local.get(key, br)
        serial = time.perf_counter() - t0
        assert list(client.get_many(requests)) == [local.get(k, r) for k, r in requests]
    assert 1 < len(opened) <= storage_module._FETCH_THREADS + 1
    # about 0.5 ms a request; a server that leaves Nagle on stalls each
    # request on a reused connection for tens of ms (over 4 s in all)
    assert serial < 2.0


@pytest.mark.parametrize("wrap", [
    lambda client: client,
    lambda client: with_latency(client, LatencyModel(mean_ms=10.0)),
    lambda client: cached(client, 1 << 20),
], ids=["http", "latency", "cached"])
def test_get_many_overlaps_round_trips(shards, wrap):
    # the injected 20 ms per request dominates the noise: serially, 32
    # requests cannot take less than 640 ms
    root, local = shards
    requests = _random_requests(local, 32, seed=4)
    with serve(root, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(wrap(HTTPBackend(server.endpoint))) as client:
        t0 = time.perf_counter()
        data = list(client.get_many(requests))
        wall = time.perf_counter() - t0
    assert data == [local.get(key, br) for key, br in requests]
    assert wall < 0.5 * 32 * 0.020


def test_http_reopens_connection_the_server_closed(shards, monkeypatch):
    root, local = shards
    monkeypatch.setattr(server_module._Handler, "timeout", 0.05)  # idle drop
    opened = _count_connects(monkeypatch)
    key = local.list("s/")[1]
    with serve(root) as server, closing(HTTPBackend(server.endpoint)) as client:
        assert client.get(key) == local.get(key)
        time.sleep(0.3)  # the server closes the idle connection
        assert client.get(key, ByteRange(3, 9)) == local.get(key, ByteRange(3, 9))
        time.sleep(0.3)
        assert client.size(key) == local.size(key)
    assert len(opened) == 3


class _CountingBackend(MemoryBackend):
    def __init__(self, objects):
        super().__init__(objects)
        self.sizes = 0

    def size(self, key):
        self.sizes += 1  # the server asks for the size once per GET
        return super().size(key)


def test_failed_get_many_cancels_queued_fetches(shards, monkeypatch):
    # one fetch thread, so the failing first request runs alone
    monkeypatch.setattr(storage_module, "_FETCH_THREADS", 1)
    root, local = shards
    key = local.list("s/")[0]
    served = _CountingBackend({key: local.get(key)})
    requests = [("s/absent.bin", None)] + [(key, None)] * 20
    with serve(served, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        with pytest.raises(NotFoundError):
            list(client.get_many(requests))
        time.sleep(0.2)  # ten more round trips, had the fetches gone on
        assert served.sizes <= 3


def test_wrappers_forward_close():
    class Closing(MemoryBackend):
        closed = 0

        def close(self):
            self.closed += 1

    inner = Closing({"A": b"abc"})
    with closing(cached(with_latency(inner, LatencyModel(mean_ms=0.0)), 100)) as backend:
        assert list(backend.get_many([("A", ByteRange(1, 2))])) == [b"bc"]
    assert inner.closed == 1
