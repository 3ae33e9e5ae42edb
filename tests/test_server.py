import http.client
import threading
import time
import urllib.error
import urllib.request

import pytest

from loadbench.prng import SplitMix64, stream_bytes
from loadbench.server import serve
from loadbench.storage import ByteRange, HTTPBackend, LatencyModel, LocalBackend


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("served")
    local = LocalBackend(root)
    rng = SplitMix64(31)
    for i in range(6):
        local.put(f"train/shard{i}.dlbs", stream_bytes(rng.next_u64(), 200 + 37 * i))
    with serve(root) as server:
        yield root, local, server


def _status(url, headers=None, method="GET"):
    req = urllib.request.Request(url, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), b""


def test_full_get(store):
    root, local, server = store
    status, headers, body = _status(f"{server.endpoint}/train/shard0.dlbs")
    assert status == 200
    assert body == local.get("train/shard0.dlbs")
    assert int(headers["Content-Length"]) == local.size("train/shard0.dlbs")


def test_ranged_get_matches_file_slice(store):
    root, local, server = store
    status, headers, body = _status(f"{server.endpoint}/train/shard0.dlbs",
                                    {"Range": "bytes=0-63"})
    assert status == 206
    assert len(body) == 64
    assert body == local.get("train/shard0.dlbs")[:64]
    total = local.size("train/shard0.dlbs")
    assert headers["Content-Range"] == f"bytes 0-63/{total}"


def test_open_ended_range(store):
    root, local, server = store
    status, headers, body = _status(f"{server.endpoint}/train/shard1.dlbs",
                                    {"Range": "bytes=100-"})
    assert status == 206
    assert body == local.get("train/shard1.dlbs")[100:]


def test_missing_key_404(store):
    _, _, server = store
    status, _, _ = _status(f"{server.endpoint}/train/absent.dlbs")
    assert status == 404
    status, _, _ = _status(f"{server.endpoint}/train/absent.dlbs", method="HEAD")
    assert status == 404


def test_unsatisfiable_range_416(store):
    root, local, server = store
    total = local.size("train/shard0.dlbs")
    status, headers, _ = _status(f"{server.endpoint}/train/shard0.dlbs",
                                 {"Range": f"bytes={total}-"})
    assert status == 416
    assert headers["Content-Range"] == f"bytes */{total}"
    status, _, _ = _status(f"{server.endpoint}/train/shard0.dlbs",
                           {"Range": "bytes=nonsense"})
    assert status == 416


def test_suffix_range(store):
    root, local, server = store
    url = f"{server.endpoint}/train/shard3.dlbs"
    whole = local.get("train/shard3.dlbs")
    total = len(whole)
    status, headers, body = _status(url, {"Range": "bytes=-10"})
    assert status == 206
    assert body == whole[-10:]
    assert headers["Content-Range"] == f"bytes {total - 10}-{total - 1}/{total}"
    for n in (total, total + 5):
        status, headers, body = _status(url, {"Range": f"bytes=-{n}"})
        assert status == 206
        assert body == whole
        assert headers["Content-Range"] == f"bytes 0-{total - 1}/{total}"
    status, headers, _ = _status(url, {"Range": "bytes=-0"})
    assert status == 416
    assert headers["Content-Range"] == f"bytes */{total}"


def test_head(store):
    root, local, server = store
    status, headers, body = _status(f"{server.endpoint}/train/shard2.dlbs",
                                    method="HEAD")
    assert status == 200
    assert body == b""
    assert int(headers["Content-Length"]) == local.size("train/shard2.dlbs")
    assert headers["Accept-Ranges"] == "bytes"


def test_put_roundtrip(store):
    _, local, server = store
    client = HTTPBackend(server.endpoint)
    client.put("uploads/new.bin", b"fresh bytes")
    assert client.get("uploads/new.bin") == b"fresh bytes"
    assert local.get("uploads/new.bin") == b"fresh bytes"


def test_listing(store):
    _, local, server = store
    client = HTTPBackend(server.endpoint)
    assert client.list("train/") == local.list("train/")


def test_http_backend_equivalence(store):
    # property: identical bytes for identical (key, range) across backends
    root, local, server = store
    client = HTTPBackend(server.endpoint)
    rng = SplitMix64(77)
    for key in local.list("train/"):
        size = local.size(key)
        assert client.get(key) == local.get(key)
        assert client.size(key) == size
        for _ in range(8):
            start = rng.next_below(size)
            end = start + rng.next_below(size - start)
            br = ByteRange(start, end)
            assert client.get(key, br) == local.get(key, br)


def test_http_backend_errors(store):
    _, _, server = store
    client = HTTPBackend(server.endpoint)
    from loadbench.storage import NotFoundError, RangeError
    with pytest.raises(NotFoundError):
        client.get("missing")
    with pytest.raises(RangeError):
        client.get("train/shard0.dlbs", ByteRange(10**9))


def test_server_latency_and_concurrency(tmp_path):
    local = LocalBackend(tmp_path, create=True)
    local.put("obj", b"payload")
    with serve(tmp_path, latency=LatencyModel(mean_ms=50.0)) as server:
        client = HTTPBackend(server.endpoint)
        t0 = time.perf_counter()
        client.get("obj")
        single = time.perf_counter() - t0
        assert single >= 0.050

        # concurrent requests pay their latency in parallel, not queued
        results = []
        def fetch():
            results.append(HTTPBackend(server.endpoint).get("obj"))
        threads = [threading.Thread(target=fetch) for _ in range(4)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        assert all(r == b"payload" for r in results)
        assert wall < 4 * 0.050


def test_serve_backend_or_directory(tmp_path):
    from loadbench.storage import MemoryBackend
    backend = MemoryBackend({"k": b"v"})
    with serve(backend) as server:
        assert HTTPBackend(server.endpoint).get("k") == b"v"


def test_burst_of_first_connections_is_accepted_at_once(store):
    # 16 clients open their first connection together, as a backend's fetch
    # threads do after waking behind a latency wrapper.  A handshake the
    # accept queue drops is retried only after a second.
    root, local, server = store
    key = "train/shard1.dlbs"
    clients = 16
    for _ in range(10):
        barrier = threading.Barrier(clients)
        times: list[float] = []
        bodies: list[bytes] = []

        def fetch() -> None:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            barrier.wait()
            t0 = time.perf_counter()
            try:
                conn.request("GET", f"/{key}")
                bodies.append(conn.getresponse().read())
            finally:
                conn.close()
            times.append(time.perf_counter() - t0)

        threads = [threading.Thread(target=fetch) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(15)
        assert not any(t.is_alive() for t in threads)
        assert bodies == [local.get(key)] * clients
        assert max(times) < 0.5, sorted(times)[-3:]
