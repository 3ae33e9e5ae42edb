"""The object server of the http-remote workload, run as its own process.

Usage: ``python3 perfbench/store.py DATA_DIR RTT_MS``.  Loads the dataset
into memory, serves it on a free loopback port through
``loadbench.server.serve``, delaying every request by a constant ``RTT_MS``
milliseconds (the server's ``LatencyModel``), and prints
``{"endpoint": ...}``.  When standard input closes or reads
``stop``, it stops the server and prints the calls the server made on its
backend, as ``{"get": n, "size": n}``.

A remote store does not share the trainer's interpreter lock, so it gets a
process of its own; ``Store`` starts and stops one from the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

from workloads import use_checkout_source


class Store:
    """A store process; a context manager that yields the endpoint."""

    def __init__(self, data_dir: Path, rtt_ms: float, timeout: float) -> None:
        self._args = [sys.executable, str(Path(__file__)), str(data_dir),
                      str(rtt_ms)]
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        self.counts: dict[str, int] = {}

    def __enter__(self) -> str:
        self._proc = subprocess.Popen(self._args, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        try:
            return json.loads(self._proc.stdout.readline())["endpoint"]
        except BaseException:  # no endpoint: the store died or printed junk
            self._kill()
            raise

    def __exit__(self, exc_type, *exc) -> None:
        try:
            out, _ = self._proc.communicate("stop\n", timeout=self._timeout)
        finally:
            self._kill()
        if exc_type is None:
            if self._proc.returncode != 0:
                raise RuntimeError(f"store exited with {self._proc.returncode}")
            self.counts = json.loads(out.strip().splitlines()[-1])

    def _kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()


def _counting_backend(inner):
    from loadbench.storage import StorageBackend

    class CountingBackend(StorageBackend):
        """Counts the reads the server makes on the backend behind it."""

        def __init__(self) -> None:
            self.counts = {"get": 0, "size": 0}
            self._lock = threading.Lock()

        def _count(self, op: str) -> None:
            with self._lock:
                self.counts[op] += 1

        def get(self, key, byte_range=None):
            self._count("get")
            return inner.get(key, byte_range)

        def size(self, key):
            self._count("size")
            return inner.size(key)

        def put(self, key, data):
            inner.put(key, data)

        def list(self, prefix=""):
            return inner.list(prefix)

    return CountingBackend()


def main(data_dir: str, rtt_ms: float) -> None:
    use_checkout_source()
    from loadbench.server import serve
    from loadbench.storage import LatencyModel, LocalBackend, MemoryBackend

    backend = _counting_backend(MemoryBackend.load(LocalBackend(data_dir)))
    server = serve(backend, latency=LatencyModel(mean_ms=rtt_ms))
    try:
        print(json.dumps({"endpoint": server.endpoint}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.stop()
    print(json.dumps(backend.counts), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
