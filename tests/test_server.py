import http.client
import os
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import ExitStack, closing

import pytest

import loadbench.server as server_module
from loadbench.prng import SplitMix64, stream_bytes
from loadbench.server import serve
from loadbench.storage import (ByteRange, HTTPBackend, LatencyModel, LocalBackend,
                               MemoryBackend, StorageError)


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
        exc.close()  # the error holds the response, and so the socket
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


def _byteranges(headers, body):
    """The (Content-Range, bytes) parts of a multipart/byteranges body."""
    kind, _, boundary = headers["Content-Type"].partition("; boundary=")
    assert kind == "multipart/byteranges" and boundary
    delimiter = b"--" + boundary.encode()
    assert body.startswith(delimiter + b"\r\n")
    assert body.endswith(b"\r\n" + delimiter + b"--\r\n")
    parts = []
    for part in body[len(delimiter) + 2:-len(delimiter) - 6].split(
            b"\r\n" + delimiter + b"\r\n"):
        head, _, data = part.partition(b"\r\n\r\n")
        fields = dict(line.split(": ", 1) for line in head.decode().split("\r\n"))
        assert fields["Content-Type"] == "application/octet-stream"
        parts.append((fields["Content-Range"], data))
    return parts


def test_multi_range_get_answers_multipart_byteranges(store):
    # one part per range, in the header's order, overlaps and all
    root, local, server = store
    whole = local.get("train/shard4.dlbs")
    total = len(whole)
    status, headers, body = _status(f"{server.endpoint}/train/shard4.dlbs",
                                    {"Range": "bytes=100-149, 0-9,5-14,-3"})
    assert status == 206
    assert int(headers["Content-Length"]) == len(body)
    assert _byteranges(headers, body) == [
        (f"bytes {a}-{b}/{total}", whole[a:b + 1])
        for a, b in ((100, 149), (0, 9), (5, 14), (total - 3, total - 1))]


@pytest.mark.parametrize("spec", [
    "bytes=0-1,{total}-{total}", "bytes=0-1,5-{total}", "bytes=1-2,,3-4",
    "bytes=5-3,0-1", "bytes=0-1,-0", "bytes=0-1,x"])
def test_unsatisfiable_range_list_416(store, spec):
    # one bad range fails the whole request, as a lone bad range does
    root, local, server = store
    total = local.size("train/shard0.dlbs")
    status, headers, _ = _status(f"{server.endpoint}/train/shard0.dlbs",
                                 {"Range": spec.format(total=total)})
    assert status == 416
    assert headers["Content-Range"] == f"bytes */{total}"


def test_more_parts_than_one_sendmsg_takes(tmp_path):
    # 1500 one-byte ranges are over 3000 reply buffers, more than IOV_MAX
    data = stream_bytes(9, 3000)
    ranges = [(i, i) for i in range(0, 3000, 2)]
    assert 2 * len(ranges) > server_module._IOV_MAX
    with serve(MemoryBackend({"k": data})) as server:
        status, headers, body = _status(
            f"{server.endpoint}/k",
            {"Range": "bytes=" + ",".join(f"{a}-{b}" for a, b in ranges)})
    assert status == 206
    assert _byteranges(headers, body) == [
        (f"bytes {a}-{a}/3000", data[a:a + 1]) for a, _ in ranges]


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


@pytest.mark.parametrize("range_header", [
    None, "bytes=0-63", "bytes=100-", "bytes=-10", "bytes=9999-", "bytes=9-3",
    "bytes=0-9,20-29,5-14"])
def test_head_answers_the_get_headers(store, range_header):
    _, _, server = store
    url = f"{server.endpoint}/train/shard2.dlbs"
    headers = {} if range_header is None else {"Range": range_header}
    get_status, get_headers, _ = _status(url, headers)
    head_status, head_headers, body = _status(url, headers, method="HEAD")
    assert body == b""
    assert head_status == get_status
    get_headers.pop("Date"), head_headers.pop("Date")
    assert head_headers == get_headers


def _raw(server, method, path, headers=()):
    """Status and headers of one request sent exactly as given."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest(method, path, skip_accept_encoding=True)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        resp = conn.getresponse()
        resp.read()
        return resp.status, dict(resp.headers)
    finally:
        conn.close()


@pytest.mark.parametrize("method", ["GET", "HEAD", "PUT"])
def test_invalid_key_400(store, method):
    _, local, server = store
    headers = [("Content-Length", "0")] if method == "PUT" else []
    for path in ("/train/../train/shard0.dlbs", "/..", "/a/.."):
        assert _raw(server, method, path, headers)[0] == 400
    assert local.list("a") == []


@pytest.mark.parametrize("length", ["-5", "abc", "", "1.5"])
def test_put_with_bad_content_length_400(store, length):
    # the body's end is unknown, so the server answers and closes the
    # connection instead of failing inside the handler with no response
    _, local, server = store
    status, headers = _raw(server, "PUT", "/uploads/bad.bin",
                           [("Content-Length", length)])
    assert status == 400
    assert headers["Connection"] == "close"
    assert "uploads/bad.bin" not in local.list("uploads/")
    assert _status(f"{server.endpoint}/train/shard0.dlbs")[0] == 200


def test_put_roundtrip(store):
    _, local, server = store
    with closing(HTTPBackend(server.endpoint)) as client:
        client.put("uploads/new.bin", b"fresh bytes")
        assert client.get("uploads/new.bin") == b"fresh bytes"
    assert local.get("uploads/new.bin") == b"fresh bytes"


def test_listing(store):
    _, local, server = store
    with closing(HTTPBackend(server.endpoint)) as client:
        assert client.list("train/") == local.list("train/")


def test_http_backend_equivalence(store):
    # property: identical bytes for identical (key, range) across backends
    root, local, server = store
    rng = SplitMix64(77)
    with closing(HTTPBackend(server.endpoint)) as client:
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
    from loadbench.storage import NotFoundError, RangeError
    with closing(HTTPBackend(server.endpoint)) as client:
        with pytest.raises(NotFoundError):
            client.get("missing")
        with pytest.raises(RangeError):
            client.get("train/shard0.dlbs", ByteRange(10**9))


def test_server_latency_and_concurrency(tmp_path):
    local = LocalBackend(tmp_path, create=True)
    local.put("obj", b"payload")
    with serve(tmp_path, latency=LatencyModel(mean_ms=50.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        t0 = time.perf_counter()
        client.get("obj")
        single = time.perf_counter() - t0
        assert single >= 0.050

        # concurrent requests pay their latency in parallel, not queued
        results = []
        def fetch():
            with closing(HTTPBackend(server.endpoint)) as own:
                results.append(own.get("obj"))
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
    with serve(backend) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        assert client.get("k") == b"v"


def test_ranged_gets_ask_the_backend_for_the_size_once(tmp_path):
    from loadbench.storage import MemoryBackend

    class Counting(MemoryBackend):
        sizes = 0

        def size(self, key):
            self.sizes += 1
            return super().size(key)

    backend = Counting({"k": bytes(range(100))})
    with serve(backend) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        for i in range(20):
            assert client.get("k", ByteRange(i, i + 9)) == bytes(range(i, i + 10))
        assert backend.sizes == 1
        client.put("k", bytes(range(150)))  # a new length
        assert client.get("k", ByteRange(140)) == bytes(range(140, 150))
        status, headers, body = _status(f"{server.endpoint}/k", {"Range": "bytes=100-"})
        assert (status, body) == (206, bytes(range(100, 150)))
        assert headers["Content-Range"] == "bytes 100-149/150"


def test_burst_of_first_connections_is_accepted_at_once(store):
    # 16 clients open their first connection together.  A handshake the
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


# -- the handler's own request parse, over raw sockets --------------------------

def _until_close(server, raw: bytes) -> bytes:
    """Everything the server sends for ``raw`` until it closes the
    connection (a connection left open times the read out)."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a stream of responses to GET or PUT into (status, headers, body)."""
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = {name.lower(): value.strip()
                  for name, _, value in (line.partition(":") for line in lines)}
        length = int(fields.get("content-length", 0))
        responses.append((int(status_line.split()[1]), fields, data[:length]))
        data = data[length:]
    return responses


@pytest.mark.parametrize("request_line", [
    b"NONSENSE", b"GET /train/shard0.dlbs", b"GET /a b HTTP/1.1",
    b"GET /train/shard0.dlbs HTTP/2.0"])
def test_malformed_request_line_400_and_close(store, request_line):
    _, _, server = store
    # the second request is never read: the connection closes after the 400
    raw = request_line + b"\r\n\r\nGET /train/shard0.dlbs HTTP/1.1\r\n\r\n"
    [(status, fields, _)] = _responses(_until_close(server, raw))
    assert status == 400
    assert fields["connection"] == "close"


def test_http10_request_is_answered_then_closed(store):
    _, local, server = store
    raw = b"GET /train/shard0.dlbs HTTP/1.0\r\n\r\n" * 2
    [(status, fields, body)] = _responses(_until_close(server, raw))
    assert status == 200
    assert fields["connection"] == "close"
    assert body == local.get("train/shard0.dlbs")


# each request also carries "Connection: close", its last header
@pytest.mark.parametrize("headers, status", [
    (b"X-Big: " + b"a" * (70 << 10) + b"\r\n", 431),
    (b"".join(b"X-H%d: v\r\n" % i for i in range(100)), 431),
    (b"".join(b"X-H%d: v\r\n" % i for i in range(99)), 200),
    (b"X-Same: v\r\n" * 100, 431),
], ids=["70KiB-line", "101-headers", "100-headers", "101-same-name"])
def test_header_limits_431(store, headers, status):
    _, _, server = store
    raw = (b"GET /train/shard0.dlbs HTTP/1.1\r\n" + headers
           + b"Connection: close\r\n\r\n")
    [(answered, fields, _)] = _responses(_until_close(server, raw))
    assert answered == status
    assert fields["connection"] == "close"


def test_pipelined_gets_are_answered_in_order(store):
    _, local, server = store
    raw = (b"GET /train/shard1.dlbs HTTP/1.1\r\nRange: bytes=5-20\r\n\r\n"
           b"GET /train/shard4.dlbs HTTP/1.1\r\nConnection: close\r\n\r\n")
    first, second = _responses(_until_close(server, raw))
    assert first[0] == 206 and "connection" not in first[1]
    assert first[2] == local.get("train/shard1.dlbs", ByteRange(5, 20))
    assert second[0] == 200 and second[1]["connection"] == "close"
    assert second[2] == local.get("train/shard4.dlbs")


def test_put_with_expect_100_continue_stores_its_body(store):
    _, local, server = store
    with socket.create_connection((server.host, server.port), timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"PUT /uploads/expect.bin HTTP/1.1\r\nContent-Length: 9\r\n"
                     b"Expect: 100-continue\r\nConnection: close\r\n\r\n")
        assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert rfile.readline() == b"\r\n"
        sock.sendall(b"continued")
        [(status, _, _)] = _responses(rfile.read())
    assert status == 200
    assert local.get("uploads/expect.bin") == b"continued"


def test_unknown_method_501_without_body_and_close(store):
    _, _, server = store
    raw = (b"BREW /train/shard0.dlbs HTTP/1.1\r\n\r\n"
           b"GET /train/shard0.dlbs HTTP/1.1\r\n\r\n")
    reply = _until_close(server, raw)
    assert reply.endswith(b"\r\n\r\n")  # a head and no body
    [(status, fields, _)] = _responses(reply)
    assert status == 501
    assert fields["content-length"] == "0"
    assert fields["connection"] == "close"


def test_header_line_without_colon_400_and_close(store):
    _, _, server = store
    raw = (b"GET /train/shard0.dlbs HTTP/1.1\r\nNoColon\r\n\r\n"
           b"GET /train/shard0.dlbs HTTP/1.1\r\nConnection: close\r\n\r\n")
    [(status, fields, _)] = _responses(_until_close(server, raw))
    assert status == 400
    assert fields["connection"] == "close"


def test_head_cut_off_by_eof_gets_no_reply(store):
    _, _, server = store
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(b"GET /train/shard0.dlbs HTTP/1.1\r\nX: y")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""


def test_put_cut_short_stores_nothing(store):
    _, local, server = store
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(b"PUT /uploads/short.bin HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                     b"only-ten-b")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""
    assert "uploads/short.bin" not in local.list("uploads/")


def test_bare_lf_request_is_answered(store):
    _, local, server = store
    raw = b"GET /train/shard3.dlbs HTTP/1.1\nRange: bytes=2-9\nConnection: close\n\n"
    [(status, _, body)] = _responses(_until_close(server, raw))
    assert status == 206
    assert body == local.get("train/shard3.dlbs", ByteRange(2, 9))


def test_request_line_over_64KiB_414_and_close(store):
    _, _, server = store
    raw = b"GET /" + b"a" * (70 << 10) + b" HTTP/1.1\r\n\r\n"
    [(status, fields, _)] = _responses(_until_close(server, raw))
    assert status == 414
    assert fields["connection"] == "close"


class _CountingGets(MemoryBackend):
    gets = 0

    def get(self, key, byte_range=None):
        self.gets += 1
        return super().get(key, byte_range)


def test_half_closed_client_gets_its_reply_after_the_hold():
    # the client's end of stream arrives while its request is held
    with serve(MemoryBackend({"k": b"payload"}),
               latency=LatencyModel(mean_ms=100.0)) as server, \
            socket.create_connection((server.host, server.port), timeout=10) as sock:
        t0 = time.perf_counter()
        sock.sendall(b"GET /k HTTP/1.1\r\n\r\n")
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        wall = time.perf_counter() - t0
    [(status, _, body)] = _responses(b"".join(chunks))
    assert (status, body) == (200, b"payload")
    assert wall >= 0.1  # answered once its latency passed, then closed


def test_client_reset_during_the_hold_costs_no_backend_read():
    # an abortive close (RST) reaches the loop while the request is held;
    # an orderly one cannot be told from a half-close there, so it is answered
    backend = _CountingGets({"k": b"payload"})
    with serve(backend, latency=LatencyModel(mean_ms=100.0)) as server:
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /k HTTP/1.1\r\n\r\n")
            time.sleep(0.03)  # the server holds the request
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        time.sleep(0.15)  # past the request's deadline
        assert backend.gets == 0
        assert _status(f"{server.endpoint}/k")[::2] == (200, b"payload")
        assert backend.gets == 1


def test_stop_closes_every_connection():
    before = set(threading.enumerate())
    with serve(MemoryBackend({"k": b"v"})) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        assert client.get("k") == b"v"  # its connection stays open
        server.stop()
        assert set(threading.enumerate()) <= before
        with pytest.raises(StorageError):
            client.get("k")


def test_failing_backend_answers_500_and_the_server_goes_on():
    class Failing(MemoryBackend):
        def list(self, prefix=""):
            raise RuntimeError("no listing")

        def size(self, key):
            if key == "no-size":
                raise RuntimeError("no size")
            return super().size(key)

        def get(self, key, byte_range=None):
            if key == "no-get":
                raise RuntimeError("no bytes")
            return super().get(key, byte_range)

        def read_into(self, requests, out):  # a ranged GET's one backend call
            if any(key == "no-get" for key, *_ in requests):
                raise RuntimeError("no bytes")
            super().read_into(requests, out)

    backend = Failing({"good": b"fine", "no-size": b"x", "no-get": b"y"})
    with serve(backend) as server:
        assert _raw(server, "GET", "/?prefix=")[0] == 500
        assert _raw(server, "GET", "/no-size")[0] == 500
        assert _raw(server, "HEAD", "/no-size")[0] == 500
        assert _raw(server, "GET", "/no-get")[0] == 500
        assert _raw(server, "GET", "/no-get", [("Range", "bytes=0-0")])[0] == 500
        assert _status(f"{server.endpoint}/good")[::2] == (200, b"fine")


def test_large_object_whole_and_ranged_among_small_gets(tmp_path):
    # 8 MB replies outgrow the socket's send buffer, so each goes out in
    # many partial writes while small replies go out on other connections:
    # whole and ranged GETs of the big object on other threads, and a batch
    # read of one multi-range GET of it among one GET per small object
    local = LocalBackend(tmp_path, create=True)
    local.put("big.bin", stream_bytes(5, 8 << 20))
    for k in range(12):
        local.put(f"small{k}.bin", stream_bytes(6 + k, 4096))
    extents = []
    for i in range(6):
        extents += [("big.bin", i << 20, 1 << 19)] + [
            (f"small{(i + j) % 12}.bin", j, 100) for j in range(i, 4000, 500)]
    ranges = [None if i % 3 == 0 else ByteRange(i << 20, (i + 2 << 20) - 1)
              for i in range(6)]
    got = [None] * len(ranges)
    with serve(tmp_path) as server, closing(HTTPBackend(server.endpoint)) as client:

        def get(i):
            got[i] = client.get("big.bin", ranges[i])
        threads = [threading.Thread(target=get, args=(i,)) for i in range(len(ranges))]
        for t in threads:
            t.start()
        out = bytearray(sum(n for *_, n in extents))
        client.read_into(extents, out)
        for t in threads:
            t.join(30)
    assert not any(t.is_alive() for t in threads)
    assert got == [local.get("big.bin", br) for br in ranges]
    assert out == b"".join(local.get(key, ByteRange(o, o + n - 1)) for key, o, n in extents)


def test_client_puts_a_body_larger_than_its_send_buffer(tmp_path):
    # an 8 MB PUT outgrows the client socket's send buffer, so its first
    # send takes only part of it and the rest waits for room
    data = stream_bytes(7, 8 << 20)
    with serve(tmp_path) as server, closing(HTTPBackend(server.endpoint)) as client:
        client.put("big.bin", data)
        assert client.get("big.bin", ByteRange(1 << 20, (2 << 20) - 1)) == \
            data[1 << 20:2 << 20]
    assert LocalBackend(tmp_path).get("big.bin") == data


def _conn_threads(before: set[threading.Thread]) -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name == "loadbench-store-conn" and t not in before}


def test_keep_alive_connections_each_have_a_thread_until_closed(store):
    _, local, server = store
    before = set(threading.enumerate())
    with ExitStack() as stack:
        conns = [stack.enter_context(closing(http.client.HTTPConnection(
            server.host, server.port, timeout=10))) for _ in range(32)]
        for conn in conns:
            conn.request("GET", "/train/shard2.dlbs")
        for conn in conns:
            assert conn.getresponse().read() == local.get("train/shard2.dlbs")
        assert len(_conn_threads(before)) == 32
    deadline = time.monotonic() + 2.0
    for thread in _conn_threads(before):
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not _conn_threads(before)


class _Drawn(LatencyModel):
    """Sets ``drawn`` at each draw: the server holds a request."""

    def __init__(self, mean_ms):
        super().__init__(mean_ms)
        self.drawn = threading.Event()

    def sample_ms(self):
        self.drawn.set()
        return super().sample_ms()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_stop_during_a_latency_hold_ends_every_thread_at_once():
    latency = _Drawn(mean_ms=10_000.0)
    before = set(threading.enumerate())
    fds = len(os.listdir("/proc/self/fd"))
    server = serve(MemoryBackend({"k": b"v"}), latency=latency)
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(b"GET /k HTTP/1.1\r\n\r\n")
        assert latency.drawn.wait(5)
        t0 = time.perf_counter()
        server.stop()
        assert time.perf_counter() - t0 < 1.0
        # joined, not only told to end: no thread left and no fd but ours
        assert set(threading.enumerate()) <= before
        assert len(os.listdir("/proc/self/fd")) == fds + 1
        assert sock.recv(65536) == b""  # closed, the held request unanswered


def test_stop_joins_a_connection_thread_in_a_backend_call():
    reading = threading.Event()

    class SlowSize(MemoryBackend):
        def size(self, key):
            reading.set()
            time.sleep(0.2)
            return super().size(key)

    before = set(threading.enumerate())
    server = serve(SlowSize({"k": b"v"}))
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(b"HEAD /k HTTP/1.1\r\n\r\n")
        assert reading.wait(5)
        server.stop()
        assert set(threading.enumerate()) <= before


def test_size_is_asked_once_and_never_kept_past_a_put():
    class SlowSize(MemoryBackend):
        def __init__(self, objects):
            super().__init__(objects)
            self.sizes = 0
            self.asking = threading.Event()

        def size(self, key):
            self.sizes += 1
            size = super().size(key)  # a PUT during the pause makes it stale
            self.asking.set()
            time.sleep(0.05)
            return size

    backend = SlowSize({"k": b"abc", "j": b"abc"})
    with serve(backend) as server:
        # 8 connections HEAD one key at once: one of them asks its size
        barrier = threading.Barrier(8)
        lengths = []

        def head():
            barrier.wait()
            lengths.append(_raw(server, "HEAD", "/k")[1]["Content-Length"])
        threads = [threading.Thread(target=head) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert lengths == ["3"] * 8
        assert backend.sizes == 1
        # a PUT that lands while a HEAD waits for the old object's size
        backend.asking.clear()
        asking = threading.Thread(target=_raw, args=(server, "HEAD", "/j"))
        asking.start()
        assert backend.asking.wait(5)
        with closing(HTTPBackend(server.endpoint)) as client:
            client.put("j", b"abcdefgh")
        asking.join(10)
        assert not asking.is_alive()
        assert _raw(server, "HEAD", "/j")[1]["Content-Length"] == "8"


def test_latency_of_64_concurrent_requests_overlaps(tmp_path):
    # a batch read over 64 objects is 64 GETs in flight together
    local = LocalBackend(tmp_path)
    for k in range(64):
        local.put(f"obj{k:02d}", b"payload%02d" % k)
    extents = [(f"obj{k:02d}", 0, 9) for k in range(64)]
    out = bytearray(64 * 9)
    with serve(tmp_path, latency=LatencyModel(mean_ms=50.0)) as server, \
            closing(HTTPBackend(server.endpoint)) as client:
        t0 = time.perf_counter()
        client.read_into(extents, out)
        wall = time.perf_counter() - t0
    assert out == b"".join(b"payload%02d" % k for k in range(64))
    assert wall < 0.25 * 64 * 0.050
