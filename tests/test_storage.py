import http.client
import os
import socketserver
import sys
import threading
import time
from contextlib import closing, contextmanager
from collections import OrderedDict
from pathlib import PurePosixPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loadbench.server as server_module
import loadbench.storage as storage_module
from loadbench.prng import SplitMix64, stream_bytes
from loadbench.server import serve
from loadbench.storage import (
    ByteRange,
    CachedBackend,
    HTTPBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    NotFoundError,
    RangeError,
    ReadError,
    StorageError,
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


def _path_parse_rule(key):
    """The rule ``validate_key`` once applied through a path parse."""
    return bool(key) and not key.startswith("/") and ".." not in PurePosixPath(key).parts


@pytest.mark.parametrize("key", ["", "/a", "..", "a/../b", "a/..", "a//b",
                                 "a/./b", "..a/b", "a/b..", "a/b.bin", "../x"])
def test_key_validation_matches_the_path_parse(key):
    if _path_parse_rule(key):
        assert validate_key(key) == key
    else:
        with pytest.raises(ValueError):
            validate_key(key)


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


@pytest.mark.parametrize("kind", ["local", "memory", "latency", "cached", "http"])
def test_every_backend_rejects_a_dotdot_key(tmp_path, kind):
    local = LocalBackend(tmp_path, create=True)
    local.put("x", b"data")
    with serve(tmp_path) as server:
        backend = {
            "local": lambda: local,
            "memory": lambda: MemoryBackend.load(local),
            "latency": lambda: with_latency(MemoryBackend(), LatencyModel(mean_ms=0.0)),
            "cached": lambda: cached(MemoryBackend(), 100),
            "http": lambda: HTTPBackend(server.endpoint),
        }[kind]()
        with closing(backend):
            for call in (lambda: backend.get("../x"), lambda: backend.size("../x"),
                         lambda: backend.put("../x", b"y")):
                with pytest.raises(ValueError):
                    call()
    assert local.list("") == ["x"]


# -- latency ----------------------------------------------------------------

def _lognormal(seed):
    return LatencyModel(mean_ms=59.2, std_ms=58.5, min_ms=8.8,
                        distribution="lognormal", seed=seed)


def test_latency_samples_repeat_per_seed():
    model, again = _lognormal(4), _lognormal(4)
    samples = [model.sample_ms() for _ in range(200)]
    assert samples == [again.sample_ms() for _ in range(200)]
    other = _lognormal(5)
    assert samples != [other.sample_ms() for _ in range(200)]
    assert len(set(samples)) > 150  # draws differ from one another too


def test_latency_seed_none_draws_as_zero():
    unseeded, zero = _lognormal(None), _lognormal(0)
    assert [unseeded.sample_ms() for _ in range(50)] == \
        [zero.sample_ms() for _ in range(50)]


def test_latency_draws_across_threads_lose_and_repeat_none():
    serial = _lognormal(9)
    expected = sorted(serial.sample_ms() for _ in range(1000))
    shared = _lognormal(9)
    drawn = [[] for _ in range(4)]
    barrier = threading.Barrier(4)

    def draw(out):
        barrier.wait()
        out.extend(shared.sample_ms() for _ in range(250))
    threads = [threading.Thread(target=draw, args=(out,)) for out in drawn]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(x for out in drawn for x in out) == expected


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
    inner = MemoryBackend({"A": b"abc"})
    with pytest.raises(ValueError):
        CachedBackend(inner, 0)
    assert CachedBackend(inner, 1).get("A") == b"abc"  # oversize bypass


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
            extents = _extents(local, requests)
            out = np.empty(sum(length for *_, length in extents), dtype=np.uint8)
            backend.read_into(extents, out)
            assert out.tobytes() == b"".join(expected)
            backend.read_into([], out[:0])


def _extents(local, requests):
    """``requests`` as ``read_into``'s (key, offset, length) requests."""
    return [(key, 0, local.size(key)) if br is None
            else (key, br.start, br.end - br.start + 1) for key, br in requests]


_BACKENDS = {
    "local": lambda root, local, server: LocalBackend(root),
    "memory": lambda root, local, server: MemoryBackend.load(local),
    "latency": lambda root, local, server: with_latency(
        MemoryBackend.load(local), LatencyModel(mean_ms=0.1)),
    "cached": lambda root, local, server: cached(local, 2000),
    "http": lambda root, local, server: HTTPBackend(server.endpoint),
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
@pytest.mark.parametrize("bad, error", [
    (("s/absent.bin", 0, 4), NotFoundError),
    (("s/shard0.bin", 297, 4), RangeError),  # the object is 300 bytes long
    (("s/../shard0.bin", 0, 4), ValueError),
], ids=["missing", "past-end", "invalid-key"])
def test_read_into_fails_at_its_own_request(shards, kind, bad, error):
    root, local = shards
    requests = _random_requests(local, 6, seed=2)
    extents = _extents(local, requests)
    before = sum(length for *_, length in extents[:4])
    with serve(root) as server, \
            closing(_BACKENDS[kind](root, local, server)) as backend:
        out = np.zeros(before + 4 + sum(n for *_, n in extents[4:]), dtype=np.uint8)
        with pytest.raises(ReadError) as err:
            backend.read_into(extents[:4] + [bad] + extents[4:], out)
    assert err.value.index == 4
    assert isinstance(err.value.cause, error)
    assert out[:before].tobytes() == b"".join(local.get(*r) for r in requests[:4])


def test_read_into_holds_every_wait():
    # a latency-wrapped memory backend reads through the base read_into,
    # so each request still waits its sample, one after another
    backend = with_latency(MemoryBackend({"A": b"abcdef"}),
                           LatencyModel(mean_ms=10.0))
    out = bytearray(12)
    t0 = time.perf_counter()
    backend.read_into([("A", i % 6, 1) for i in range(12)], out)
    assert time.perf_counter() - t0 >= 12 * 0.010
    assert out == b"abcdefabcdef"


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
    assert 1 < len(opened) <= storage_module._IN_FLIGHT + 1
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
    monkeypatch.setattr(server_module.ObjectServer, "_idle_timeout", 0.05)  # idle drop
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
        self.gets = 0

    def size(self, key):
        self.sizes += 1  # the server asks once per key, then keeps the size
        return super().size(key)

    def get(self, key, byte_range=None):
        self.gets += 1  # once per GET of an existing object
        return super().get(key, byte_range)


def test_failed_get_many_cancels_queued_fetches(shards, monkeypatch):
    # one request in flight, so the failing first request runs alone
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
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


def test_closed_get_many_cancels_queued_fetches(shards, monkeypatch):
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = shards
    key = local.list("s/")[0]
    served = _CountingBackend({key: local.get(key)})
    with serve(served, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        with closing(client.get_many([(key, None)] * 20)) as bufs:
            assert next(bufs) == local.get(key)
        time.sleep(0.2)  # ten more round trips, had the fetches gone on
        assert served.sizes <= 3


@pytest.mark.parametrize("stop", ["fail", "close"])
def test_stopped_get_many_sends_no_more_requests(shards, monkeypatch, stop):
    # the server keeps each object's size, so count its reads of the bytes
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = shards
    key = local.list("s/")[0]
    served = _CountingBackend({key: local.get(key)})
    with serve(served, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        if stop == "fail":
            with pytest.raises(NotFoundError):
                list(client.get_many([("s/absent.bin", None)] + [(key, None)] * 20))
        else:
            with closing(client.get_many([(key, None)] * 20)) as bufs:
                assert next(bufs) == local.get(key)
        time.sleep(0.2)  # ten more round trips, had the requests gone on
        assert served.gets <= 2


class _HeldRequests(LatencyModel):
    """Counts the requests a server holds: from the latency draw at a
    request's arrival to the backend read that answers it."""

    def __init__(self, mean_ms):
        super().__init__(mean_ms)
        self.held = self.peak = 0
        self._count = threading.Lock()

    def sample_ms(self):
        with self._count:
            self.held += 1
            self.peak = max(self.peak, self.held)
        return super().sample_ms()

    def answered(self):
        with self._count:
            self.held -= 1


class _AnsweringBackend(MemoryBackend):
    def __init__(self, objects, latency):
        super().__init__(objects)
        self.latency = latency

    def get(self, key, byte_range=None):  # a whole-object GET
        self.latency.answered()
        return super().get(key, byte_range)

    def read_into(self, requests, out):  # a ranged GET
        self.latency.answered()
        super().read_into(requests, out)


def test_concurrent_get_many_share_one_pool(shards):
    # more callers than cores, switching threads as often as possible
    root, local = shards
    held = _HeldRequests(mean_ms=20.0)  # far longer than it takes to send a request
    served = _AnsweringBackend({key: local.get(key) for key in local.list("s/")}, held)
    requests = [_random_requests(local, 3 * storage_module._IN_FLIGHT, seed)
                for seed in range(6, 10)]
    results = [None] * len(requests)
    with serve(served, latency=held) as server:
        before = set(threading.enumerate())
        client = HTTPBackend(server.endpoint)

        def fetch(i):
            results[i] = list(client.get_many(requests[i]))
        threads = [threading.Thread(target=fetch, args=(i,))
                   for i in range(len(requests))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        client.close()
        assert not any(t.is_alive() for t in threads)
        # neither the calls nor the server leave a thread behind
        deadline = time.monotonic() + 5
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) <= before
    for got, wanted in zip(results, requests):
        assert got == [local.get(key, br) for key, br in wanted]
    assert 1 < held.peak <= storage_module._IN_FLIGHT


class _Arrivals(LatencyModel):
    """Records when each request reaches the server, and holds the first
    ones ``first_ms`` in turn, the rest ``mean_ms``."""

    def __init__(self, mean_ms, first_ms=()):
        super().__init__(mean_ms)
        self.times = []
        self._first = list(first_ms)

    def sample_ms(self):
        self.times.append(time.monotonic())
        return self._first.pop(0) if self._first else super().sample_ms()


class _LoggingBackend(MemoryBackend):
    def __init__(self, objects):
        super().__init__(objects)
        self.log = []  # the keys read, in the order the server answers

    def get(self, key, byte_range=None):
        self.log.append(key)
        return super().get(key, byte_range)


def test_queued_requests_go_out_on_connections_given_back(shards, monkeypatch):
    # Call A holds two of the four connections; call B takes the other two
    # and waits for four more.  When A's responses come in, A's connections
    # carry B's next requests at once, not when B's own responses come in.
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 4)
    root, local = shards
    key = local.list("s/")[0]
    hold = 0.3
    arrivals = _Arrivals(mean_ms=hold * 1000)
    ranges = [ByteRange(0, i) for i in range(6)]
    with serve(root, latency=arrivals) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        first = threading.Thread(target=lambda: list(client.get_many([(key, None)] * 2)))
        first.start()
        deadline = time.monotonic() + 5
        while len(arrivals.times) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(hold * 2 / 3)  # A's two requests are held
        got = list(client.get_many([(key, br) for br in ranges]))
        first.join(10)
    assert not first.is_alive()
    assert got == [local.get(key, br) for br in ranges]
    assert len(arrivals.times) == 8
    # B's own first responses return a hold after its first request arrived
    # (without the handover its third and fourth requests would go out only
    # then); A's return about a third of a hold after it
    b0 = arrivals.times[2]
    assert max(arrivals.times[4:6]) < b0 + hold * 2 / 3


def test_given_back_connections_go_to_the_oldest_waiting_call(shards, monkeypatch):
    # A holds both connections.  B waits for two, then C for one: A's two
    # connections go to B as they come back, and C gets one only when B's
    # first response does.
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 2)
    root, local = shards
    a, b, c = local.list("s/")[:3]
    served = _LoggingBackend({key: local.get(key) for key in (a, b, c)})
    holds = _Arrivals(mean_ms=200.0, first_ms=[150.0, 250.0])  # A's two requests
    with serve(served, latency=holds) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        calls = [threading.Thread(target=lambda k=k, n=n: list(client.get_many([(k, None)] * n)))
                 for k, n in ((a, 2), (b, 2), (c, 1))]
        for call in calls:
            call.start()
            time.sleep(0.05)
        for call in calls:
            call.join(10)
    assert not any(call.is_alive() for call in calls)
    assert served.log == [a, a, b, b, c]


@pytest.mark.parametrize("stop", ["close", "timeout"])
def test_call_waiting_for_a_connection_fails_promptly(shards, monkeypatch, stop):
    # the only connection carries a request of a call that is not reading
    # its response, so a second call waits with nothing in flight
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = shards
    key = local.list("s/")[0]
    failed = []

    def wait():
        t0 = time.monotonic()
        try:
            client.get(key)
        except StorageError as exc:
            failed.append((exc, time.monotonic() - t0))
    with serve(root) as server, closing(HTTPBackend(
            server.endpoint, timeout=0.2 if stop == "timeout" else 30.0)) as client:
        with closing(client.get_many([(key, None)] * 2)) as held:
            assert next(held) == local.get(key)
            waiter = threading.Thread(target=wait)
            waiter.start()
            if stop == "close":
                time.sleep(0.1)
                client.close()
            waiter.join(10)
    assert not waiter.is_alive()
    (error, waited), = failed
    if stop == "close":
        assert "backend is closed" in str(error) and waited < 1.0
    else:
        assert "no connection free for 0.2 s" in str(error) and 0.2 <= waited < 1.0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_no_fd_outlives_close(shards, monkeypatch):
    # a wake pipe raises no ResourceWarning if it leaks, so count the
    # process's fds; two connections for calls of four requests, so every
    # call waits in the queue
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 2)
    root, local = shards
    requests = _random_requests(local, 4, seed=12)
    expected = [local.get(key, br) for key, br in requests]
    extents = _extents(local, requests)
    failures = []

    def calls():
        try:
            for i in range(100):
                if i % 5 == 0:
                    assert list(client.get_many(requests)) == expected
                elif i % 5 == 1:  # closed early
                    with closing(client.get_many(requests)) as bufs:
                        assert next(bufs) == expected[0]
                elif i % 5 == 2:
                    with pytest.raises(NotFoundError):
                        list(client.get_many(requests[:2] + [("s/absent.bin", None)]
                                             + requests[2:]))
                else:  # one GET per key, and a 416 whose GET is read again
                    bad = [("s/shard0.bin", 297, 4)] if i % 5 == 4 else []
                    out = bytearray(2 * sum(n for *_, n in extents) + 4 * len(bad))
                    try:
                        client.read_into(extents + bad + extents, out)
                    except ReadError as exc:
                        assert bad and exc.index == len(extents)
                    assert out[:len(b"".join(expected))] == b"".join(expected)
        except BaseException as exc:
            failures.append(exc)
    before = len(os.listdir("/proc/self/fd"))
    with serve(root, latency=LatencyModel(mean_ms=1.0)) as server:
        client = HTTPBackend(server.endpoint)
        threads = [threading.Thread(target=calls) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        client.close()
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert len(os.listdir("/proc/self/fd")) == before


def test_unread_responses_are_never_read_as_later_ones(shards):
    # responses still on their way when a call ends must not answer the
    # next call's requests
    root, local = shards
    keys = local.list("s/")
    first = [(keys[0], ByteRange(i, i + 7)) for i in range(40)]
    later = _random_requests(local, 40, seed=11)
    expected = [local.get(key, br) for key, br in later]
    with serve(root, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        with closing(client.get_many(first)) as bufs:
            assert next(bufs) == local.get(*first[0])
        assert list(client.get_many(later)) == expected
        assert client.get(*later[0]) == expected[0]
        with pytest.raises(NotFoundError):
            list(client.get_many([("s/absent.bin", None)] + first))
        assert list(client.get_many(later)) == expected
        assert client.get(*later[1]) == expected[1]


def test_wrappers_forward_close():
    class Closing(MemoryBackend):
        closed = 0

        def close(self):
            self.closed += 1

    inner = Closing({"A": b"abc"})
    with closing(cached(with_latency(inner, LatencyModel(mean_ms=0.0)), 100)) as backend:
        assert list(backend.get_many([("A", ByteRange(1, 2))])) == [b"bc"]
    assert inner.closed == 1


# -- the HTTP client's codec against scripted and real servers -----------------

class _ScriptedHandler(socketserver.StreamRequestHandler):
    """Answers each request it reads, on any connection, with the next raw
    reply of the server's script (a list of bytes is sent a piece at a
    time); closes the connection after a reply only when the script says
    so."""

    disable_nagle_algorithm = True

    def handle(self):
        while True:
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                pass
            if not line:
                return
            reply, close = next(self.server.script)
            for piece in reply if isinstance(reply, list) else [reply]:
                self.wfile.write(piece)
                time.sleep(0.001 if isinstance(reply, list) else 0)
            if close:
                return


@contextmanager
def _scripted_server(*replies):
    """Yield the endpoint of a server that sends ``replies``, a sequence of
    (raw bytes, close after), one per request."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.daemon_threads = True
    server.script = iter(replies)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


_HELLO = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"


@pytest.mark.parametrize("reply, byte_range, close", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello", None, True),
    (b"HTTP/1.1 200 OK\r\n\r\nhello", None, True),
    (b"HELLO THERE\r\nContent-Length: 5\r\n\r\nhello", None, True),
    (b"HTTP/1.1 206 Partial Content\r\nContent-Length: 3\r\n\r\nell",
     ByteRange(1, 4), False),
    (b"HTTP/1.1 206 Partial Content\r\nContent-Length: 5\r\n\r\nhello",
     ByteRange(1, 3), False),
    (_HELLO, ByteRange(1), False),
    (b"HTTP/1.1 200 OK\r\nNoColon\r\nContent-Length: 5\r\n\r\nhello", None, False),
], ids=["eof-mid-body", "no-content-length", "garbage-status-line",
        "206-short", "206-long", "200-for-a-range", "header-without-colon"])
def test_http_rejects_a_bad_response(reply, byte_range, close):
    # the bad response raises; the next request gets its own bytes, none
    # left over from the bad one
    with _scripted_server((reply, close), (_HELLO, False)) as endpoint, \
            closing(HTTPBackend(endpoint, timeout=5)) as client:
        with pytest.raises(StorageError):
            client.get("k", byte_range)
        assert client.get("k") == b"hello"


_BARE_LF = b"HTTP/1.1 100 Continue\n\nHTTP/1.1 200 OK\nContent-Length: 5\n\nhello"


# ok: the reply is read as "hello"; connections: how many the two requests
# open, 2 when the first reply closes its connection
@pytest.mark.parametrize("reply, ok, connections", [
    (b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 99 + b"Content-Length: 5\r\n\r\nhello",
     True, 1),
    (b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 100 + b"Content-Length: 5\r\n\r\nhello",
     False, 2),
    (b"HTTP/1.1 200 OK\r\nX: " + b"a" * (70 << 10) + b"\r\n" + _HELLO[17:], False, 2),
    ([bytes([c]) for c in b"HTTP/1.1 100 Continue\r\n\r\n" + _HELLO], True, 1),
    (_BARE_LF, True, 1),
    ([bytes([c]) for c in _BARE_LF], True, 1),
    (b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello", True, 1),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nCONNECTION: close\r\n\r\nhello",
     True, 2),
], ids=["100-headers", "101-headers", "70KiB-line", "byte-by-byte", "bare-lf",
        "bare-lf-byte-by-byte", "lower-case-name", "upper-case-close"])
def test_http_response_head_limits_and_pieces(monkeypatch, reply, ok, connections):
    # the client's head rules are the server's; a response may arrive in
    # any number of pieces
    opened = _count_connects(monkeypatch)
    with _scripted_server((reply, False), (_HELLO, False)) as endpoint, \
            closing(HTTPBackend(endpoint, timeout=5)) as client:
        if ok:
            assert client.get("k") == b"hello"
        else:
            with pytest.raises(StorageError):
                client.get("k")
        assert client.get("k") == b"hello"
    assert len(opened) == connections


def test_head_reader_looks_at_each_byte_once(monkeypatch):
    # 99 header lines of 60,000 bytes arrive in 64 KiB pieces, as a socket
    # delivers them; each read resumes the blank-line search where the last
    # one stopped instead of starting again at the head's first byte
    pattern, searched = storage_module._HEAD_END, []

    class Counting:
        def search(self, buf, pos):
            searched.append(len(buf) - pos)
            return pattern.search(buf, pos)

    monkeypatch.setattr(storage_module, "_HEAD_END", Counting())
    head = (b"GET / HTTP/1.1\r\n"
            + b"".join(b"X%d: %s\r\n" % (i, b"a" * 60000) for i in range(99)) + b"\r\n")
    reader, buf, got = storage_module._HeadReader(), bytearray(), None
    for start in range(0, len(head) + 4, 1 << 16):
        buf += (head + b"body")[start:start + (1 << 16)]
        if (got := reader.read(buf)) is not None:
            break
    first, fields, end = got
    assert first.split() == ["GET", "/", "HTTP/1.1"] and end == len(head)
    assert len(fields) == 99 and fields["x98"] == "a" * 60000
    assert sum(searched) <= len(buf) + 2 * len(searched)


@pytest.mark.parametrize("head, status", [
    (b"GET /" + b"a" * (70 << 10), 414),
    (b"GET / HTTP/1.1\r\nX: " + b"a" * (70 << 10), 431),
    (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 101, 431),
], ids=["70KiB-first-line", "70KiB-header-line", "101-headers"])
def test_head_reader_refuses_a_head_before_it_ends(head, status):
    # fed 1 KiB at a time, a head that breaks a limit is refused within a
    # piece of the limit, without waiting for a blank line
    reader = storage_module._HeadReader()
    buf = bytearray()
    with pytest.raises(storage_module._BadHead) as refused:
        for start in range(0, len(head), 1024):
            buf += head[start:start + 1024]
            assert reader.read(buf) is None
    assert refused.value.status == status
    assert len(buf) <= (64 << 10) + 1024 + 16


def test_http_skips_interim_responses_and_reads_no_head_body():
    head = b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n"
    with _scripted_server((b"HTTP/1.1 100 Continue\r\n\r\n" + _HELLO, False),
                          (head, False), (_HELLO, False)) as endpoint, \
            closing(HTTPBackend(endpoint, timeout=5)) as client:
        assert client.get("k") == b"hello"
        assert client.size("k") == 99
        assert client.get("k") == b"hello"


def test_http_connection_close_opens_one_new_connection(monkeypatch):
    # the scripted server leaves the connection open after its
    # "Connection: close" reply, so only the client can close it
    opened = _count_connects(monkeypatch)
    closing_reply = (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
                     b"Connection: close\r\n\r\nhello")
    with _scripted_server((closing_reply, False), (_HELLO, False),
                          (_HELLO, False)) as endpoint, \
            closing(HTTPBackend(endpoint, timeout=5)) as client:
        assert client.get("k") == b"hello"
        assert len(opened) == 1
        assert client.get("k") == b"hello"
        assert len(opened) == 2
        assert client.get("k") == b"hello"
    assert len(opened) == 2


@st.composite
def _ranged_requests(draw, sizes):
    """(key, range) requests: whole objects, open-ended, one-byte and
    closed ranges."""
    requests = []
    for _ in range(draw(st.integers(0, 12))):
        key = draw(st.sampled_from(sorted(sizes)))
        start = draw(st.integers(0, sizes[key] - 1))
        byte_range = draw(st.sampled_from([
            None, ByteRange(start), ByteRange(start, start),
            ByteRange(start, draw(st.integers(start, sizes[key] - 1)))]))
        requests.append((key, byte_range))
    return requests


def test_http_ranged_reads_equal_local_reads(shards):
    root, local = shards
    sizes = {key: local.size(key) for key in local.list("s/")}
    with serve(root) as server, closing(HTTPBackend(server.endpoint)) as client:

        @settings(deadline=None, max_examples=60)
        @given(_ranged_requests(sizes))
        def check(requests):
            expected = [local.get(key, br) for key, br in requests]
            assert list(client.get_many(requests)) == expected
            assert [client.get(key, br) for key, br in requests] == expected

        check()


# -- read_into over HTTP: one GET per key, answered as multipart/byteranges ----

class _CountingReads(MemoryBackend):
    """Counts the ranged GETs a server answers: one ``read_into`` each."""

    reads = 0

    def read_into(self, requests, out):
        self.reads += 1
        super().read_into(requests, out)


@st.composite
def _batch_extents(draw, sizes):
    """read_into requests over several keys: new extents, and repeats,
    overlaps and neighbours of earlier ones; now and then one that fails
    (an absent key, past the object's end, or an invalid key)."""
    extents = []
    for _ in range(draw(st.integers(0, 24))):
        how = draw(st.sampled_from(["new", "same", "overlap", "adjacent", "bad"]
                                   if extents else ["new", "bad"]))
        if how == "bad":
            extents.append(draw(st.sampled_from([
                ("s/absent.bin", 0, 4), ("s/shard1.bin", sizes["s/shard1.bin"] - 2, 4),
                ("s/../shard0.bin", 0, 4)])))
            continue
        if how == "new":
            key = draw(st.sampled_from(sorted(sizes)))
            start = draw(st.integers(0, sizes[key] - 1))
        else:
            key, start, length = draw(st.sampled_from(extents))
            if key not in sizes or start + length > sizes[key]:
                continue
            if how == "same":
                extents.append((key, start, length))
                continue
            start = (draw(st.integers(start, start + length - 1)) if how == "overlap"
                     else start + length)
            if start >= sizes[key]:
                continue
        extents.append((key, start, draw(st.integers(1, min(64, sizes[key] - start)))))
    return extents


def test_http_read_into_equals_memory_read_into(shards):
    # read coalescing changes no byte and no failure: the same bytes, or
    # the same failed request, cause type and bytes before it
    root, local = shards
    sizes = {key: local.size(key) for key in local.list("s/")}
    memory = MemoryBackend.load(local)
    served = _CountingReads({key: local.get(key) for key in sizes})
    with serve(served) as server, closing(HTTPBackend(server.endpoint)) as client:

        @settings(deadline=None, max_examples=80)
        @given(_batch_extents(sizes))
        def check(extents):
            total = sum(length for *_, length in extents)
            expected, got = np.zeros(total, np.uint8), np.zeros(total, np.uint8)
            served.reads = 0
            try:
                memory.read_into(extents, expected)
            except ReadError as want:
                with pytest.raises(ReadError) as err:
                    client.read_into(extents, got)
                assert err.value.index == want.index
                assert type(err.value.cause) is type(want.cause)
                before = sum(length for *_, length in extents[:want.index])
                assert got[:before].tobytes() == expected[:before].tobytes()
            else:
                client.read_into(extents, got)
                assert got.tobytes() == expected.tobytes()
                assert served.reads == len({key for key, *_ in extents})

        check()


def test_http_read_into_splits_a_range_line_too_long(tmp_path):
    # 10,000 one-byte extents with gaps between them make a Range line of
    # about 104 KiB, so the key's runs go out in two GETs
    data = stream_bytes(3, 20000)
    served = _CountingReads({"k": data})
    extents = [("k", offset, 1) for offset in range(0, 20000, 2)]
    out = bytearray(len(extents))
    with serve(served) as server, closing(HTTPBackend(server.endpoint)) as client:
        client.read_into(extents, out)
    assert out == data[::2]
    assert served.reads == 2


def test_a_batch_over_http_is_one_get_per_shard(tiny_dataset):
    from loadbench.dataset import record_extents
    from loadbench.pipeline import DataLoader, LoaderConfig
    from loadbench.sampling import SamplerConfig
    from loadbench.transforms import TransformConfig

    root, manifests = tiny_dataset
    manifest = manifests["train"]  # 48 records, 16 to a shard
    local = LocalBackend(root)
    served = _CountingReads({key: local.get(key) for key in local.list("")})
    config = LoaderConfig(batch_size=16, sampler=SamplerConfig(kind="sequential"),
                          transform=TransformConfig(seed=3))
    with serve(served) as server, closing(HTTPBackend(server.endpoint)) as client:
        loader = DataLoader(config, manifest, client)
        assert sum(1 for _ in loader) == 3
        assert served.reads == 3  # each sequential batch is one shard
        loader.shutdown()
        rng = np.random.default_rng(5)
        for ids in (rng.permutation(np.flatnonzero(manifest.shard == 1)),
                    rng.permutation(len(manifest))[:16]):
            extents = record_extents(manifest, ids)
            out = bytearray(sum(length for *_, length in extents))
            served.reads = 0
            client.read_into(extents, out)
            assert served.reads == len(set(manifest.shard[ids].tolist()))
            assert out == b"".join(local.get(key, ByteRange(offset, offset + length - 1))
                                   for key, offset, length in extents)


@pytest.mark.parametrize("bad, index", [
    ([("s/shard0.bin", 295, 10)], 2),          # past the end, after a request of its GET
    ([("s/absent.bin", 0, 4), ("s/shard0.bin", 295, 10)], 2),
    ([("s/shard0.bin", 295, 10), ("s/absent.bin", 0, 4)], 2),
    ([("s/shard2.bin", 0, 4), ("s/absent.bin", 0, 4)], 3),
])
def test_http_read_into_fails_at_the_earliest_failed_request(shards, bad, index):
    # requests 0 and 3+ share shard0's GET, which a 416 fails; the requests
    # before the failed one are all in ``out``
    root, local = shards
    good = [("s/shard0.bin", 10, 20), ("s/shard1.bin", 0, 5)]
    extents = good + bad + [("s/shard0.bin", 40, 5)]
    out = np.zeros(sum(n for *_, n in extents), np.uint8)
    with serve(root) as server, closing(HTTPBackend(server.endpoint)) as client:
        with pytest.raises(ReadError) as err:
            client.read_into(extents, out)
    assert err.value.index == index
    key, offset, length = extents[index]
    assert isinstance(err.value.cause, NotFoundError if "absent" in key else RangeError)
    before = sum(n for *_, n in extents[:index])
    assert out[:before].tobytes() == b"".join(
        local.get(key, ByteRange(offset, offset + length - 1))
        for key, offset, length in extents[:index])


def _multipart_reply(*parts, boundary=b"B", content_type=None, closing_delimiter=True,
                separator=b"\r\n"):
    """A 206 multipart/byteranges reply of (Content-Range, bytes) parts."""
    body = b"".join(b"%s--%s\r\nContent-Range: bytes %s\r\n\r\n%s" % (
        separator if i else b"", boundary, crange, data) for i, (crange, data) in enumerate(parts))
    if closing_delimiter:
        body += b"\r\n--%s--\r\n" % boundary
    content_type = content_type or b"multipart/byteranges; boundary=" + boundary
    return (b"HTTP/1.1 206 Partial Content\r\nContent-Type: %s\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (content_type, len(body), body))


_PARTS = [(b"0-1/8", b"ab"), (b"5-6/8", b"fg")]  # of the same length


@pytest.mark.parametrize("reply, ok", [
    (_multipart_reply(*_PARTS), True),
    (_multipart_reply(*_PARTS, content_type=b'multipart/byteranges; boundary="B"'), True),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nabcdefgh", False),
    (b"HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-1/8\r\n"
     b"Content-Length: 2\r\n\r\nab", False),
    (_multipart_reply(*_PARTS[::-1]), False),
    (_multipart_reply((b"1-2/8", b"bc"), _PARTS[1]), False),
    (_multipart_reply((b"0-1/8", b"a"), _PARTS[1]), False),
    (_multipart_reply(*_PARTS, closing_delimiter=False), False),
    (_multipart_reply(*_PARTS, separator=b"XX"), False),
    (_multipart_reply(*_PARTS, content_type=b"multipart/byteranges"), False),
], ids=["well-formed", "quoted-boundary", "200-whole-object", "single-part-206",
        "reordered-parts", "wrong-content-range", "part-cut-short",
        "no-closing-delimiter", "bad-separator", "no-boundary"])
def test_http_read_into_rejects_a_bad_multipart_answer(reply, ok):
    # two runs of one key are one GET; any answer but the exact parts in
    # request order fails the GET's first request and writes no byte
    with _scripted_server((reply, False), (_HELLO, False)) as endpoint, \
            closing(HTTPBackend(endpoint, timeout=5)) as client:
        out = bytearray(4)
        if ok:
            client.read_into([("k", 5, 2), ("k", 0, 2)], out)
            assert out == b"fgab"
        else:
            with pytest.raises(ReadError) as err:
                client.read_into([("k", 5, 2), ("k", 0, 2)], out)
            assert err.value.index == 0 and type(err.value.cause) is StorageError
            assert out == bytes(4)
        assert client.get("k") == b"hello"
