import http.client
import os
import socket
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

from conftest import assert_pool_at_rest
import loadbench.server as server_module
import loadbench.storage as storage_module
from loadbench.prng import SplitMix64, stream_bytes
from loadbench.server import serve
from loadbench.storage import (
    ByteRange,
    CachedBackend,
    HTTPBackend,
    LatencyBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    NotFoundError,
    RangeError,
    ReadError,
    StorageBackend,
    StorageError,
    validate_key,
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
            "latency": lambda: LatencyBackend(MemoryBackend(), LatencyModel(mean_ms=0.0)),
            "cached": lambda: CachedBackend(MemoryBackend(), 100),
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
    delayed = LatencyBackend(backend, LatencyModel(mean_ms=17.3))
    t0 = time.perf_counter()
    for _ in range(10):
        assert delayed.get("obj") == b"x" * 16
    assert time.perf_counter() - t0 >= 0.173


def test_zero_latency_is_transparent():
    backend = MemoryBackend({"obj": b"data"})
    delayed = LatencyBackend(backend, LatencyModel(mean_ms=0.0))
    assert delayed.get("obj", ByteRange(1, 2)) == b"at"


class _Clock:
    """Stands in for ``loadbench.storage``'s ``time``: a clock that moves
    only when told to or slept on, and a ``sleep`` that records its wait."""

    def __init__(self):
        self.now, self.slept = 100.0, []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_latency_read_waits_its_largest_sample_once(monkeypatch):
    # five requests over three keys: three samples, in flight together, so
    # a read finished at once sleeps the largest of them, then reads
    clock = _Clock()
    monkeypatch.setattr(storage_module, "time", clock)
    reference = _lognormal(3)
    samples = [reference.sample_ms() for _ in range(3)]
    backend = LatencyBackend(MemoryBackend({"A": b"abcdef", "B": b"ghij", "C": b"kl"}),
                           _lognormal(3))
    out = bytearray(9)
    with closing(backend.start_read([("A", 0, 2), ("B", 1, 2), ("A", 4, 2),
                                     ("C", 0, 2), ("B", 0, 1)])) as read:
        assert clock.slept == []
        read.finish(out)
    assert clock.slept == [pytest.approx(max(samples) / 1000.0)]
    assert out == b"abhiefklg"
    assert backend.model.sample_ms() == reference.sample_ms()  # three draws, no more
    backend.read_into([], out[:0])  # no key, no sample, no wait
    assert len(clock.slept) == 1
    assert backend.model.sample_ms() == reference.sample_ms()


def test_latency_read_counts_its_wait_from_its_start(monkeypatch):
    # two reads started together wait together: the one finished before its
    # deadline sleeps what is left, the one finished after it does not sleep
    clock = _Clock()
    monkeypatch.setattr(storage_module, "time", clock)
    backend = LatencyBackend(MemoryBackend({"A": b"abc"}), LatencyModel(mean_ms=10.0))
    first = backend.start_read([("A", 0, 1)])
    second = backend.start_read([("A", 1, 2)])
    clock.now += 0.004
    out = bytearray(3)
    first.finish(memoryview(out)[:1])
    assert clock.slept == [pytest.approx(0.006)]
    clock.now += 0.001
    second.finish(memoryview(out)[1:])
    assert clock.slept == [pytest.approx(0.006)]
    assert out == b"abc"


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
    cache = CachedBackend(inner, capacity_bytes=10)  # room for one object
    for key in ("A", "B", "A"):
        cache.get(key)
    assert cache.stats.misses == 3
    assert cache.stats.hits == 0


def test_cache_hit_when_capacity_suffices():
    inner = MemoryBackend({"A": b"a" * 10, "B": b"b" * 10})
    cache = CachedBackend(inner, capacity_bytes=20)
    for key in ("A", "B", "A"):
        cache.get(key)
    assert cache.stats.misses == 2
    assert cache.stats.hits == 1
    assert cache.stats.requests == 3


class _ReferenceLRU:
    """Independent byte-capacity LRU simulation (hit/miss oracle), with the
    cache's counters.  ``lookup`` and ``store`` are the two halves of a
    miss, which a batch read runs at its start and at its finish."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.used = 0
        self.hits = self.misses = self.evictions = self.bytes_read = 0

    def lookup(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def store(self, key, size):
        self.bytes_read += size
        if size <= self.capacity and key not in self.entries:
            self.entries[key] = size
            self.used += size
            while self.used > self.capacity:
                _, evicted = self.entries.popitem(last=False)
                self.used -= evicted
                self.evictions += 1

    def access(self, key, size):
        if self.lookup(key):
            return "hit"
        self.store(key, size)
        return "miss"

    def drop(self, name):
        for key in [key for key in self.entries if key[0] == name]:
            self.used -= self.entries.pop(key)


def test_cache_matches_reference_policy():
    objects = {f"o{i}": bytes([i]) * (10 + 13 * i % 40) for i in range(8)}
    inner = MemoryBackend(objects)
    capacity = 90
    cache = CachedBackend(inner, capacity)
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
    cache = CachedBackend(inner, 100)
    assert cache.get("A") == b"old"
    cache.put("A", b"new")
    assert cache.get("A") == b"new"


def test_cache_config_validation():
    inner = MemoryBackend({"A": b"abc"})
    with pytest.raises(ValueError):
        CachedBackend(inner, 0)
    assert CachedBackend(inner, 1).get("A") == b"abc"  # oversize bypass


def test_cache_read_fails_at_the_callers_index_after_hits():
    # the misses go to the inner backend as one read; its failure is raised
    # at the caller's index, with every request before it in ``out``, hits
    # and misses alike
    cache = CachedBackend(MemoryBackend({"A": b"abcdef", "B": b"ghij"}), 100)
    cache.read_into([("A", 0, 2), ("B", 1, 2)], bytearray(4))
    requests = [("A", 0, 2), ("A", 3, 2), ("B", 1, 2), ("absent", 0, 1),
                ("A", 0, 2), ("B", 0, 1)]
    out = bytearray(10)
    with pytest.raises(ReadError) as err:
        cache.read_into(requests, out)
    assert err.value.index == 3 and isinstance(err.value.cause, NotFoundError)
    assert out[:6] == b"abdehi"
    assert (cache.stats.hits, cache.stats.misses) == (3, 5)
    assert cache.cached_bytes == 6  # the miss before the failed one is stored


@st.composite
def _cache_ops(draw):
    """Objects, a capacity, and a run of gets, batch read starts and
    finishes, and puts."""
    sizes = {f"o{i}": draw(st.integers(1, 40)) for i in range(4)}

    def extent():
        key = draw(st.sampled_from(sorted(sizes)))
        start = draw(st.integers(0, sizes[key] - 1))
        return key, start, draw(st.integers(1, sizes[key] - start))
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["get", "start", "finish", "put"]))
        if kind == "get":
            key, start, length = extent()
            ops.append(("get", key, draw(st.sampled_from(
                [None, ByteRange(start, start + length - 1)]))))
        elif kind == "start":
            ops.append(("start", [extent() for _ in range(draw(st.integers(0, 6)))]))
        elif kind == "put":
            ops.append(("put", draw(st.sampled_from(sorted(sizes))), draw(st.integers(0, 9))))
        else:
            ops.append(("finish",))
    return sizes, draw(st.integers(1, 120)), ops


@settings(deadline=None, max_examples=200)
@given(_cache_ops())
def test_cache_matches_reference_lru(case):
    # a batch read looks up all of its extents as it starts and stores its
    # misses as it finishes, with reads started and finished in any order
    # around gets; puts come between reads
    sizes, capacity, ops = case
    objects = {key: stream_bytes(i, size) for i, (key, size) in enumerate(sizes.items())}
    cache = CachedBackend(MemoryBackend(objects), capacity)
    reference = _ReferenceLRU(capacity)
    pending = []  # started reads: the read, its extents and which missed

    def finish_oldest():
        read, extents, missed = pending.pop(0)
        out = bytearray(sum(n for *_, n in extents))
        with closing(read):
            read.finish(out)
        assert out == b"".join(objects[key][start:start + n] for key, start, n in extents)
        for (key, start, n), miss in zip(extents, missed):
            if miss:
                reference.store((key, start, start + n - 1), n)

    for op in ops:
        if op[0] == "get":
            _, key, br = op
            data = cache.get(key, br)
            assert data == (objects[key] if br is None else objects[key][br.start:br.end + 1])
            reference.access((key, 0, None) if br is None else (key, br.start, br.end),
                             len(data))
        elif op[0] == "start":
            extents = op[1]
            missed = [not reference.lookup((key, start, start + n - 1))
                      for key, start, n in extents]
            pending.append((cache.start_read(extents), extents, missed))
        elif op[0] == "finish":
            if pending:
                finish_oldest()
        else:
            while pending:
                finish_oldest()
            _, key, seed = op
            objects[key] = stream_bytes(seed, sizes[key])
            cache.put(key, objects[key])
            reference.drop(key)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions, stats.bytes_read) == (
            reference.hits, reference.misses, reference.evictions, reference.bytes_read)
        assert stats.requests == stats.hits + stats.misses
        assert cache.cached_bytes == reference.used
    while pending:
        finish_oldest()


# -- batch reads, persistent HTTP connections, close ----------------------------
# The tests named for ``get_many``, the per-request batch call the backends
# had before ``start_read`` became the one batch read, now check the same
# behaviour through ``start_read`` and ``read_into``.

@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    local = LocalBackend(root)
    rng = SplitMix64(5)
    for i in range(4):
        local.put(f"s/shard{i}.bin", stream_bytes(rng.next_u64(), 300 + 41 * i))
    return root, local


@pytest.fixture(scope="module")
def many_shards(tmp_path_factory):
    """40 objects under ``m/``: a batch read of all of them is 40 GETs."""
    root = tmp_path_factory.mktemp("many-shards")
    local = LocalBackend(root)
    for i in range(40):
        local.put(f"m/k{i:02d}.bin", stream_bytes(100 + i, 200 + 7 * i))
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


def _one_extent_each(local, prefix, seed):
    """One extent of each object under ``prefix``, in a seeded order: a
    batch read of them is one GET per object."""
    rng = SplitMix64(seed)
    drawn = []
    for key in local.list(prefix):
        size = local.size(key)
        start = rng.next_below(size)
        drawn.append((rng.next_u64(), (key, start, 1 + rng.next_below(min(64, size - start)))))
    return [extent for _, extent in sorted(drawn)]


def _expected(local, extents):
    """The bytes a read of (key, offset, length) ``extents`` puts in its buffer."""
    return b"".join(local.get(key, ByteRange(offset, offset + length - 1))
                    for key, offset, length in extents)


def _count_connects(monkeypatch) -> list:
    opened = []
    connect = http.client.HTTPConnection.connect

    def counting(conn):
        opened.append(conn)
        connect(conn)
    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


def _extents(local, requests):
    """``requests`` as ``read_into``'s (key, offset, length) requests."""
    return [(key, 0, local.size(key)) if br is None
            else (key, br.start, br.end - br.start + 1) for key, br in requests]


_BACKENDS = {
    "local": lambda root, local, server: LocalBackend(root),
    "memory": lambda root, local, server: MemoryBackend.load(local),
    "latency": lambda root, local, server: LatencyBackend(
        MemoryBackend.load(local), LatencyModel(mean_ms=0.1)),
    "cached": lambda root, local, server: CachedBackend(local, 2000),
    "http": lambda root, local, server: HTTPBackend(server.endpoint),
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_get_many_matches_get_in_order(shards, kind):
    # the cache answers the read's extents that the gets stored, so its
    # read scatters hits and misses
    root, local = shards
    requests = _random_requests(local, 40, seed=9)
    expected = [local.get(key, br) for key, br in requests]
    extents = _extents(local, requests)
    with serve(root) as server, \
            closing(_BACKENDS[kind](root, local, server)) as backend:
        assert [backend.get(key, br) for key, br in requests] == expected
        out = np.empty(sum(length for *_, length in extents), dtype=np.uint8)
        backend.read_into(extents, out)
        assert out.tobytes() == b"".join(expected)
        first = out[:extents[0][2]]
        first[:] = 0
        with closing(backend.start_read(extents[:1])) as read:
            read.finish(first)
        assert first.tobytes() == expected[0]
        backend.read_into([], out[:0])


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


def test_default_read_into_gets_each_request_in_order():
    # a backend that defines only ``get`` reads a batch with one ``get`` per
    # request, in request order, and gets nothing after a failed request
    class GetOnly(StorageBackend):
        def __init__(self, objects):
            self.inner, self.log = MemoryBackend(objects), []

        def get(self, key, byte_range=None):
            self.log.append((key, byte_range))
            return self.inner.get(key, byte_range)

    backend = GetOnly({"A": b"abc"})
    out = bytearray(6)
    with pytest.raises(ReadError) as err:
        backend.read_into([("A", 0, 3), ("A", 1, 1), ("absent", 0, 1), ("A", 2, 1)], out)
    assert err.value.index == 2 and isinstance(err.value.cause, NotFoundError)
    assert out[:4] == b"abcb"
    assert backend.log == [("A", ByteRange(0, 2)), ("A", ByteRange(1, 1)),
                           ("absent", ByteRange(0, 0))]


def test_http_connections_are_reused(shards, monkeypatch):
    root, local = shards
    opened = _count_connects(monkeypatch)
    requests = _random_requests(local, 100, seed=3)
    extents = _extents(local, requests)
    with serve(root) as server, closing(HTTPBackend(server.endpoint)) as client:
        t0 = time.perf_counter()
        for key, br in requests:
            assert client.get(key, br) == local.get(key, br)
        serial = time.perf_counter() - t0
        out = bytearray(sum(n for *_, n in extents))
        client.read_into(extents, out)  # one GET per shard, in flight together
        assert out == _expected(local, extents)
    assert 1 < len(opened) <= 4
    # about 0.5 ms a request; a server that leaves Nagle on stalls each
    # request on a reused connection for tens of ms (over 4 s in all)
    assert serial < 2.0


@pytest.mark.parametrize("wrap", [
    lambda client: client,
    lambda client: LatencyBackend(client, LatencyModel(mean_ms=10.0)),
    lambda client: CachedBackend(client, 1 << 20),
], ids=["http", "latency", "cached"])
def test_get_many_overlaps_round_trips(many_shards, wrap):
    # a read of 40 objects is 40 GETs, and the injected 20 ms per GET
    # dominates the noise: one after another they cannot take less than 800 ms
    root, local = many_shards
    extents = _one_extent_each(local, "m/", seed=4)
    out = bytearray(sum(n for *_, n in extents))
    with serve(root, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(wrap(HTTPBackend(server.endpoint))) as client:
        t0 = time.perf_counter()
        client.read_into(extents, out)
        wall = time.perf_counter() - t0
    assert out == _expected(local, extents)
    assert wall < 0.5 * 40 * 0.020


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
        self.reads = 0

    def size(self, key):
        self.sizes += 1  # the server asks once per key, then keeps the size
        return super().size(key)

    def read_into(self, requests, out):
        self.reads += 1  # once per ranged GET of an existing object
        super().read_into(requests, out)


def test_failed_get_many_cancels_queued_fetches(many_shards, monkeypatch):
    # one connection, so the failing first request goes out alone; the
    # server asks one size per key it is sent, and nothing is sent after
    # the read raises
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = many_shards
    served = _CountingBackend({key: local.get(key) for key in local.list("m/")})
    extents = _one_extent_each(local, "m/", seed=6)[:20]
    with serve(served, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        with pytest.raises(ReadError) as err:
            client.read_into([("m/absent.bin", 0, 4)] + extents,
                             bytearray(4 + sum(n for *_, n in extents)))
        assert err.value.index == 0 and isinstance(err.value.cause, NotFoundError)
        sizes = served.sizes
        time.sleep(0.2)  # ten more round trips, had the fetches gone on
        assert served.sizes == sizes <= 21


def test_closed_get_many_cancels_queued_fetches(many_shards, monkeypatch):
    # one connection; the read is closed once the server holds its first GET
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = many_shards
    served = _CountingBackend({key: local.get(key) for key in local.list("m/")})
    extents = _one_extent_each(local, "m/", seed=7)[:20]
    with serve(served, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        read = client.start_read(extents)
        deadline = time.monotonic() + 5.0
        while served.sizes == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        read.close()
        assert served.sizes >= 1
        time.sleep(0.2)  # ten more round trips, had the fetches gone on
        assert served.sizes <= 3
        assert_pool_at_rest(client)


@pytest.mark.parametrize("stop", ["fail", "close"])
def test_stopped_get_many_sends_no_more_requests(many_shards, monkeypatch, stop):
    # one connection, so a read's GETs go out one at a time; the server
    # keeps each object's size, so it asks for one size per object it is
    # sent, and reads the bytes of each ranged GET it answers.  A failed
    # read has read every GET when it raises (the earliest failed request
    # may be in any of them), and a read closed unfinished sends no more.
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = many_shards
    served = _CountingBackend({key: local.get(key) for key in local.list("m/")})
    extents = _one_extent_each(local, "m/", seed=5)[:20]
    with serve(served, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        if stop == "fail":
            with pytest.raises(ReadError) as err:
                client.read_into(extents[:5] + [("m/absent.bin", 0, 4)] + extents[5:],
                                 bytearray(4 + sum(n for *_, n in extents)))
            assert err.value.index == 5 and isinstance(err.value.cause, NotFoundError)
            assert (served.sizes, served.reads) == (21, 20)
        else:
            client.start_read(extents).close()  # its first GET is on its way
        assert_pool_at_rest(client)
        sent = served.sizes, served.reads
        time.sleep(0.2)  # ten more round trips, had the GETs gone on
        if stop == "fail":
            assert (served.sizes, served.reads) == sent
        else:
            assert served.sizes <= 1 and served.reads <= 1
        out = bytearray(sum(n for *_, n in extents[:3]))
        client.read_into(extents[:3], out)
        assert out == _expected(local, extents[:3])


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


def test_concurrent_get_many_share_one_pool(many_shards):
    # more callers than cores, switching threads as often as possible; four
    # reads of 40 GETs each need more connections than the pool has
    root, local = many_shards
    held = _HeldRequests(mean_ms=20.0)  # far longer than it takes to send a request
    served = _AnsweringBackend({key: local.get(key) for key in local.list("m/")}, held)
    reads = [[_one_extent_each(local, "m/", seed + 4 * k) for k in range(3)]
             for seed in range(6, 10)]
    results = [[] for _ in reads]
    with serve(served, latency=held) as server:
        before = set(threading.enumerate())
        client = HTTPBackend(server.endpoint)

        def fetch(i):
            for extents in reads[i]:
                out = bytearray(sum(n for *_, n in extents))
                client.read_into(extents, out)
                results[i].append(bytes(out))
        threads = [threading.Thread(target=fetch, args=(i,))
                   for i in range(len(reads))]
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
    for got, wanted in zip(results, reads):
        assert got == [_expected(local, extents) for extents in wanted]
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
        self.log = []  # the key of each ranged GET, in the order the server answers

    def read_into(self, requests, out):
        self.log.append(requests[0][0])
        super().read_into(requests, out)


def test_given_back_connections_go_to_the_oldest_waiting_call(many_shards, monkeypatch):
    # Read A holds both connections.  B (two GETs), then C (one), queue.  A
    # connection given back goes to the oldest queued call, one to a call:
    # A's first carries B's first GET, A's second C's GET, and B's second
    # GET goes out on B's own connection once its first response is in.
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 2)
    root, local = many_shards
    keys = local.list("m/")[:5]
    served = _LoggingBackend({key: local.get(key) for key in keys})
    holds = _Arrivals(mean_ms=200.0, first_ms=[150.0, 250.0])  # A's two GETs
    with serve(served, latency=holds) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        calls = [threading.Thread(target=lambda ks=ks: client.read_into(
            [(key, 0, 8) for key in ks], bytearray(8 * len(ks))))
            for ks in (keys[:2], keys[2:4], keys[4:])]
        for call in calls:
            call.start()
            time.sleep(0.05)
        for call in calls:
            call.join(10)
    assert not any(call.is_alive() for call in calls)
    # A's two GETs go out together, so either may reach the server first
    assert sorted(served.log[:2]) == keys[:2]
    assert served.log[2:] == [keys[2], keys[4], keys[3]]


def test_a_started_read_queues_before_it_is_finished(many_shards, monkeypatch):
    # One connection.  R1 holds it, and R2, started, gets none, so it
    # queues at once; finishing R1 hands the connection to R2.  R3, started
    # and finished on a thread after that, finds no idle connection to
    # barge in with: it queues behind R2 and goes out once R2 finishes.
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 1)
    root, local = many_shards
    keys = local.list("m/")[:3]
    served = _LoggingBackend({key: local.get(key) for key in keys})
    outs = [bytearray(8) for _ in keys]
    took = {}

    def finish(k, read):
        t0 = time.monotonic()
        with closing(read):
            read.finish(outs[k])
        took[k] = time.monotonic() - t0
    with serve(served) as server, \
            closing(HTTPBackend(server.endpoint, timeout=5)) as client:
        r1, r2 = (client.start_read([(key, 0, 8)]) for key in keys[:2])
        finish(0, r1)
        third = threading.Thread(
            target=lambda: finish(2, client.start_read([(keys[2], 0, 8)])))
        third.start()
        time.sleep(0.1)  # R3 waits in its finish
        finish(1, r2)
        third.join(10)
        assert_pool_at_rest(client)
    assert not third.is_alive()
    assert served.log == keys
    assert outs == [local.get(key, ByteRange(0, 7)) for key in keys]
    assert took[1] < 1.0 and took[2] < 1.1


@pytest.mark.parametrize("stop", ["close", "timeout"])
def test_call_waiting_for_a_connection_fails_promptly(shards, monkeypatch, stop):
    # the only connection carries the GET of a started read that is not
    # reading its response, so a second call, holding none, queues
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
        with closing(client.start_read([(key, 0, 8)])):
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
    # count the process's fds, which shows a socket left open even where
    # no ResourceWarning is raised for it; two connections for two threads'
    # reads of four GETs, so reads wait in the queue
    monkeypatch.setattr(storage_module, "_IN_FLIGHT", 2)
    root, local = shards
    extents = [(key, 5 * k, 20) for k, key in enumerate(local.list("s/"))]
    expected = _expected(local, extents)
    failures = []

    def calls():
        try:
            for i in range(100):
                if i % 5 == 0:
                    out = bytearray(len(expected))
                    client.read_into(extents, out)
                    assert out == expected
                elif i % 5 == 1:  # closed unfinished
                    client.start_read(extents).close()
                elif i % 5 == 2:  # a failed GET, and GETs not waited for
                    with pytest.raises(ReadError):
                        client.read_into(extents[:2] + [("s/absent.bin", 0, 4)]
                                         + extents[2:], bytearray(len(expected) + 4))
                else:  # and a 416 whose GET is read again
                    bad = [("s/shard0.bin", 297, 4)] if i % 5 == 4 else []
                    out = bytearray(2 * len(expected) + 4 * len(bad))
                    try:
                        client.read_into(extents + bad + extents, out)
                    except ReadError as exc:
                        assert bad and exc.index == len(extents)
                    assert out[:len(expected)] == expected
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


def test_unread_responses_are_never_read_as_later_ones(many_shards):
    # responses still on their way when a read ends must not answer the
    # next call's requests
    root, local = many_shards
    first = _one_extent_each(local, "m/", seed=10)
    later = _one_extent_each(local, "m/", seed=11)
    expected = _expected(local, later)
    out = bytearray(len(expected))
    with serve(root, latency=LatencyModel(mean_ms=20.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        client.start_read(first).close()
        client.read_into(later, out)
        assert out == expected
        key, offset, length = later[0]
        assert client.get(key, ByteRange(offset, offset + length - 1)) == expected[:length]
        with pytest.raises(ReadError):
            client.read_into([("m/absent.bin", 0, 4)] + first,
                             bytearray(4 + sum(n for *_, n in first)))
        out[:] = bytes(len(out))
        client.read_into(later, out)
        assert out == expected
        assert client.get(key, ByteRange(offset, offset + length - 1)) == expected[:length]


# -- start_read: a batch read sent before it is finished ------------------------

def test_base_start_read_reads_in_finish():
    class Counting(MemoryBackend):
        reads = 0

        def read_into(self, requests, out):
            self.reads += 1
            super().read_into(requests, out)

    backend = Counting({"A": b"abcdef"})
    with closing(backend.start_read([("A", 4, 2), ("A", 0, 3)])) as read:
        assert backend.reads == 0
        out = bytearray(5)
        read.finish(out)
    assert backend.reads == 1 and out == b"efabc"
    backend.start_read([("A", 0, 9)]).close()  # never finished: never read
    assert backend.reads == 1


def test_http_start_read_sends_before_finish(shards):
    # the server sees every GET of a started read before its finish begins
    root, local = shards
    keys = local.list("s/")
    extents = [(keys[i % 4], 3 * i, 5) for i in range(8)]
    arrivals = _Arrivals(mean_ms=1.0)
    with serve(root, latency=arrivals) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        with closing(client.start_read(extents)) as read:
            deadline = time.monotonic() + 5
            while len(arrivals.times) < 4 and time.monotonic() < deadline:
                time.sleep(0.001)
            began = time.monotonic()
            out = bytearray(40)
            read.finish(out)
    assert len(arrivals.times) == 4 and max(arrivals.times) < began
    assert out == b"".join(local.get(key, ByteRange(o, o + n - 1)) for key, o, n in extents)


def _refusing_endpoint() -> str:
    """An endpoint on a loopback port that was bound and closed again."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


@pytest.mark.parametrize("failure", ["invalid-key", "past-end", "closed", "refused"])
def test_start_read_defers_every_failure_to_finish(shards, failure):
    # start_read raises nothing; finish raises the read's ReadError, with
    # the requests before the failed one in the buffer
    root, local = shards
    extents = _extents(local, _random_requests(local, 6, seed=4))
    bad = {"invalid-key": ("s/../shard0.bin", 0, 4),
           "past-end": ("s/shard0.bin", 297, 4)}.get(failure)
    requests = extents[:3] + [bad] + extents[3:] if bad else extents
    index = 3 if bad else 0
    out = np.zeros(sum(n for *_, n in requests), dtype=np.uint8)
    with serve(root) as server, closing(HTTPBackend(
            _refusing_endpoint() if failure == "refused" else server.endpoint,
            timeout=5)) as client:
        if failure == "closed":
            client.close()
        read = client.start_read(requests)
        with closing(read), pytest.raises(ReadError) as err:
            read.finish(out)
        assert_pool_at_rest(client)
    assert err.value.index == index
    assert isinstance(err.value.cause, {"invalid-key": ValueError,
                                        "past-end": RangeError}.get(failure, StorageError))
    before = sum(n for *_, n in requests[:index])
    assert out[:before].tobytes() == b"".join(
        local.get(key, ByteRange(o, o + n - 1)) for key, o, n in requests[:index])


def test_stall_timeout_counts_from_finish(shards):
    # responses that came in long before finish are read, however long
    # ago: the 0.2 s the read waited before finish is no stall
    root, local = shards
    extents = _extents(local, _random_requests(local, 8, seed=6))
    expected = b"".join(local.get(key, ByteRange(o, o + n - 1)) for key, o, n in extents)
    out = bytearray(len(expected))
    with serve(root) as server, \
            closing(HTTPBackend(server.endpoint, timeout=0.2)) as client:
        with closing(client.start_read(extents)) as read:
            time.sleep(0.5)
            read.finish(out)
        assert_pool_at_rest(client)
    assert out == expected


def test_silent_server_fails_a_started_read_a_timeout_after_finish_begins():
    # the server accepts (into its backlog) and never answers; the read
    # waited longer than the timeout before finish, yet finish waits a whole one
    with socket.create_server(("127.0.0.1", 0)) as silent, closing(HTTPBackend(
            f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.2)) as client:
        read = client.start_read([("k", 0, 4)])
        time.sleep(0.5)
        began = time.monotonic()
        with closing(read), pytest.raises(ReadError) as err:
            read.finish(bytearray(4))
        waited = time.monotonic() - began
        assert_pool_at_rest(client)
    assert "no response for 0.2 s" in str(err.value.cause)
    assert 0.2 <= waited < 1.0


def test_silent_server_fails_every_get_of_a_read_within_one_timeout():
    # four GETs in flight to a server that never answers: the first read
    # that waits the timeout fails them all, so the read fails after one
    # timeout, not one per GET (0.8 s), and gives every connection back
    with socket.create_server(("127.0.0.1", 0)) as silent, closing(HTTPBackend(
            f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.2)) as client:
        read = client.start_read([(f"k{i}", 0, 4) for i in range(4)])
        began = time.monotonic()
        with closing(read), pytest.raises(ReadError) as err:
            read.finish(bytearray(16))
        waited = time.monotonic() - began
        assert_pool_at_rest(client)
    assert err.value.index == 0 and "no response for 0.2 s" in str(err.value.cause)
    assert 0.2 <= waited < 0.6


def test_wrappers_forward_close():
    class Closing(MemoryBackend):
        closed = 0

        def close(self):
            self.closed += 1

    inner = Closing({"A": b"abc"})
    with closing(CachedBackend(LatencyBackend(inner, LatencyModel(mean_ms=0.0)), 100)) as backend:
        out = bytearray(2)
        backend.read_into([("A", 1, 2)], out)
        assert out == b"bc"
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


def _wrapped_http(endpoint, stack):
    """The backend ``BackendConfig.build`` makes for a remote store with
    latency, a cache or both."""
    from loadbench.bench import BackendConfig

    return BackendConfig(
        kind="remote", endpoint=endpoint,
        latency=None if stack == "cached" else LatencyModel(mean_ms=1.0),
        cache_bytes=1 << 20 if stack.startswith("cached") else 0).build()


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("stack", ["latency", "cached", "cached-latency"])
def test_a_wrapped_batch_over_http_is_one_get_per_shard(tiny_dataset, stack, workers):
    # the wrappers pass the batch read on whole, so the HTTP plan still
    # sends one GET per shard a batch reads, not one per record
    from loadbench.pipeline import DataLoader, LoaderConfig
    from loadbench.sampling import SamplerConfig
    from loadbench.transforms import TransformConfig

    root, manifests = tiny_dataset
    manifest = manifests["train"]  # 48 records in 3 shards
    local = LocalBackend(root)
    served = _CountingReads({key: local.get(key) for key in local.list("")})
    config = LoaderConfig(batch_size=8, num_workers=workers,
                          sampler=SamplerConfig(kind="shuffle", seed=4),
                          transform=TransformConfig(seed=3))
    with serve(served) as server, \
            closing(_wrapped_http(server.endpoint, stack)) as backend, \
            DataLoader(config, manifest, backend, epochs=1) as loader:
        shards = [len(set(manifest.shard[batch.ids].tolist())) for batch in loader]
    assert len(shards) == 6 and served.reads == sum(shards)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("stack", ["cached", "cached-latency"])
def test_a_cache_that_holds_the_split_sends_no_get_in_a_second_epoch(tiny_dataset, stack,
                                                                     workers):
    # each epoch on a loader that looks no further ahead, so every read of
    # the first has finished, and stored its misses, before the second starts
    from loadbench.pipeline import DataLoader, LoaderConfig
    from loadbench.sampling import SamplerConfig
    from loadbench.transforms import TransformConfig

    root, manifests = tiny_dataset
    manifest = manifests["train"]
    local = LocalBackend(root)
    served = _CountingReads({key: local.get(key) for key in local.list("")})
    config = LoaderConfig(batch_size=8, num_workers=workers,
                          sampler=SamplerConfig(kind="shuffle", seed=4),
                          transform=TransformConfig(seed=3))
    with serve(served) as server, \
            closing(_wrapped_http(server.endpoint, stack)) as backend:
        with DataLoader(config, manifest, backend, epochs=1) as loader:
            assert sum(len(batch) for batch in loader) == 48
        reads, hits = served.reads, backend.stats.hits
        with DataLoader(config, manifest, backend, epochs=2) as loader:
            loader.start_epoch(1)
            assert sum(len(batch) for batch in loader) == 48
    assert reads > 0 and served.reads == reads
    assert backend.stats.hits - hits == 48


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
