"""Outside-in tracing of one ``run_loop`` call: spans recorded from here only.

``Tracer.install`` rebinds the names the package looks up at call time
(``loadbench.pipeline.read_record`` and friends, ``loadbench.bench.
load_manifest``) and wraps ``DataLoader.next_batch``,
``LinearModel.train_step``, the built backend's ``get`` and
``HTTPConnection.connect``.  No file of the package changes.

A span is (name, start, end, self time, thread, epoch, batch).  Self time
is the duration minus the time of spans nested in it on the same thread.
The batch index is the shared id: a worker's spans wait in a per-thread
list until the ``collate`` that closes them names their batch; consumer
spans take the batch ``next_batch`` returned.  Spans stay in memory and
are written out once the run is over.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
from time import perf_counter_ns

import loadbench.bench as bench
import loadbench.pipeline as pipeline
from loadbench.model import LinearModel


class _Thread:
    """One thread's open-span stack and closed spans not yet tied to a batch."""

    __slots__ = ("tid", "stack", "pending", "last_batch", "get_bytes",
                 "get_errors")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[int] = []  # per open span: time of its children, ns
        self.pending: list[tuple] = []
        self.last_batch: int | None = None
        self.get_bytes = 0
        self.get_errors = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, t0, t1, self_ns, tid, epoch, batch)
        self.epoch = -1
        self.depths: list[int] = []   # buffered_batches at each delivering call
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread(threading.get_ident())
            self._threads.append(state)
            return state

    def _open(self) -> tuple[_Thread, int]:
        st = self._thread()
        st.stack.append(0)
        return st, perf_counter_ns()

    @staticmethod
    def _close(st: _Thread, name: str, t0: int) -> None:
        t1 = perf_counter_ns()
        dur = t1 - t0
        self_ns = dur - st.stack.pop()
        if st.stack:
            st.stack[-1] += dur
        st.pending.append((name, t0, t1, self_ns))

    def _flush(self, st: _Thread, batch: int | None) -> None:
        epoch, tid = self.epoch, st.tid
        self.spans.extend((name, t0, t1, self_ns, tid, epoch, batch)
                          for name, t0, t1, self_ns in st.pending)
        st.pending.clear()

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            st, t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(st, name, t0)
        return traced

    # -- wrappers with more to record than a span --------------------------

    def _replica_order(self, fn):
        def traced(config, manifest, epoch, *args, **kwargs):
            self.epoch = epoch
            st, t0 = self._open()
            try:
                return fn(config, manifest, epoch, *args, **kwargs)
            finally:
                self._close(st, "sampling.replica_order", t0)
        return traced

    def _collate(self, fn):
        def traced(samples, batch_index=0):
            st, t0 = self._open()
            try:
                return fn(samples, batch_index)
            finally:
                self._close(st, "pipeline.collate", t0)
                self._flush(st, batch_index)
        return traced

    def _next_batch(self, fn):
        def traced(loader):
            st = self._thread()
            self._flush(st, None)  # set-up spans belong to no batch
            depth = loader.buffered_batches
            st, t0 = self._open()
            batch = None
            try:
                batch = fn(loader)
                return batch
            finally:
                self._close(st, "pipeline.next_batch", t0)
                if batch is not None:
                    self.depths.append(depth)
                    st.last_batch = batch.batch_index
                self._flush(st, None if batch is None else batch.batch_index)
        return traced

    def _train_step(self, fn):
        def traced(model, X, y):
            st, t0 = self._open()
            try:
                return fn(model, X, y)
            finally:
                self._close(st, "model.train_step", t0)
                self._flush(st, st.last_batch)
        return traced

    def _get(self, fn):
        def traced(key, byte_range=None):
            st, t0 = self._open()
            try:
                data = fn(key, byte_range)
            except Exception:
                st.get_errors += 1
                raise
            finally:
                self._close(st, "storage.get", t0)
            st.get_bytes += len(data)
            return data
        return traced

    def _build(self, fn):
        def traced(backend_config):
            backend = fn(backend_config)
            backend.get = self._get(backend.get)
            return backend
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> "Tracer":
        self._patch(pipeline, "read_record",
                    lambda f: self.span("dataset.read_record", f))
        self._patch(pipeline, "apply_stack",
                    lambda f: self.span("transforms.apply_stack", f))
        self._patch(pipeline, "sample_seed",
                    lambda f: self.span("transforms.sample_seed", f))
        self._patch(pipeline, "collate", self._collate)
        self._patch(pipeline, "replica_order", self._replica_order)
        self._patch(bench, "load_manifest",
                    lambda f: self.span("dataset.load_manifest", f))
        self._patch(pipeline.DataLoader, "next_batch", self._next_batch)
        self._patch(LinearModel, "train_step", self._train_step)
        self._patch(bench.BackendConfig, "build", self._build)
        self._patch(http.client.HTTPConnection, "connect",
                    lambda f: self.span("storage.http.connect", f))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for st in self._threads:
            self._flush(st, None)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, result) -> dict[str, float]:
        """Per-layer totals for the traced ``run_loop`` result."""
        total_ns: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for name, t0, t1, own, _tid, _epoch, _batch in self.spans:
            total_ns[name] = total_ns.get(name, 0) + (t1 - t0)
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1

        def seconds(name: str) -> float:
            return total_ns.get(name, 0) / 1e9

        # The consumer's spans are in call order.  Its first batch is the
        # warm-up, which run_loop does not count.
        waits = [t1 - t0 for name, t0, t1, *_, batch in self.spans
                 if name == "pipeline.next_batch" and batch is not None][1:]
        steps = [t1 - t0 for name, t0, t1, *_ in self.spans
                 if name == "model.train_step"][1:]
        waits_ms = sorted(d / 1e6 for d in waits)
        counted_s = float(sum(result.per_batch_seconds[1:]))
        covered_s = (sum(waits) + sum(steps)) / 1e9
        get_calls = calls.get("storage.get", 0)
        return {
            "storage.get.calls": get_calls,
            "storage.get.s": seconds("storage.get"),
            "storage.get.bytes": sum(st.get_bytes for st in self._threads),
            "storage.get.errors": sum(st.get_errors for st in self._threads),
            "storage.get.per_sample": get_calls / len(result.processed_ids),
            "storage.http.connections": calls.get("storage.http.connect", 0),
            "dataset.load_manifest.s": seconds("dataset.load_manifest"),
            "dataset.read_record.calls": calls.get("dataset.read_record", 0),
            "dataset.read_record.s": seconds("dataset.read_record"),
            "dataset.read_record.self_s":
                self_ns.get("dataset.read_record", 0) / 1e9,
            "sampling.replica_order.s": seconds("sampling.replica_order"),
            "transforms.sample_seed.s": seconds("transforms.sample_seed"),
            "transforms.apply_stack.s": seconds("transforms.apply_stack"),
            "pipeline.collate.s": seconds("pipeline.collate"),
            "pipeline.next_batch.s": seconds("pipeline.next_batch"),
            "pipeline.next_batch.p50_ms": _quantile(waits_ms, 0.50),
            "pipeline.next_batch.p95_ms": _quantile(waits_ms, 0.95),
            "pipeline.starved_frac":
                sum(d == 0 for d in self.depths) / len(self.depths),
            "pipeline.queue_depth_mean": sum(self.depths) / len(self.depths),
            "model.train_step.s": seconds("model.train_step"),
            "bench.loop_other.s": counted_s - covered_s,
            "trace.coverage": covered_s / counted_s,
        }

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        base = min((s[1] for s in self.spans), default=0)
        events = [{"name": name, "ph": "X", "pid": 0, "tid": tid,
                   "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                   "args": {"epoch": epoch, "batch": batch}}
                  for name, t0, t1, _self, tid, epoch, batch in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
