import dataclasses
import hashlib
import os
import struct
import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from conftest import assert_pool_at_rest
from loadbench.dataset import (
    RECORD_HEADER,
    DatasetError,
    DatasetSpec,
    ImageRecord,
    generate_random_dataset,
    pack_record,
    read_record,
    record_extent,
)
from loadbench import pipeline, storage
from loadbench.pipeline import (
    Batch,
    DataLoader,
    LoaderConfig,
    WorkerError,
    collate,
)
from loadbench.sampling import SamplerConfig, replica_order
from loadbench.server import serve
from loadbench.storage import (
    ByteRange,
    CachedBackend,
    HTTPBackend,
    LatencyBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    RangeError,
    StorageBackend,
    StorageError,
)
from loadbench.transforms import TransformConfig


def _loader_config(batch_size=8, num_workers=0, seed=3, **kwargs):
    sampler = kwargs.pop("sampler", SamplerConfig(kind="shuffle", seed=seed))
    transform = kwargs.pop("transform", TransformConfig(seed=seed))
    return LoaderConfig(batch_size=batch_size, num_workers=num_workers,
                        sampler=sampler, transform=transform, **kwargs)


def _digest(batch: Batch) -> str:
    h = hashlib.md5()
    h.update(np.ascontiguousarray(batch.X).tobytes())
    h.update(batch.y.tobytes())
    return h.hexdigest()


def _epoch_digests(config, manifest, backend) -> list[str]:
    loader = DataLoader(config, manifest, backend)
    try:
        return [_digest(b) for b in loader]
    finally:
        loader.shutdown()


# -- collate ------------------------------------------------------------------

def test_collate_single_sample():
    img = np.random.default_rng(0).random((3, 4, 4)).astype(np.float32)
    batch = collate([(img, 2)])
    assert batch.X.shape == (1, 3, 4, 4)
    assert np.array_equal(batch.X[0], img)
    assert batch.y.tolist() == [2]


def test_collate_full_batch_shape():
    rng = np.random.default_rng(1)
    samples = [(rng.random((3, 256, 256)).astype(np.float32), i % 20)
               for i in range(64)]
    batch = collate(samples, batch_index=5)
    assert batch.X.shape == (64, 3, 256, 256)
    assert batch.batch_index == 5
    assert batch.y.dtype == np.int64


def test_collate_elementwise():
    rng = np.random.default_rng(2)
    samples = [(rng.random((1, 3, 2)).astype(np.float32), i) for i in range(7)]
    batch = collate(samples)
    for i, (img, label) in enumerate(samples):
        assert np.array_equal(batch.X[i], img)
        assert batch.y[i] == label


def test_collate_errors():
    with pytest.raises(ValueError):
        collate([])
    a = np.zeros((3, 4, 4), dtype=np.float32)
    b = np.zeros((3, 4, 5), dtype=np.float32)
    with pytest.raises(ValueError):
        collate([(a, 0), (b, 1)])


# -- batch plan ----------------------------------------------------------------

@pytest.fixture(scope="module")
def bulk_dataset():
    spec = DatasetSpec(n_train=45000, n_val=0, n_test=0, width=2, height=2,
                       channels=1, n_classes=20, seed=1)
    backend = MemoryBackend()
    manifests = generate_random_dataset(spec, backend, shard_capacity=10000)
    return backend, manifests["train"]


def test_batch_count_and_tail(bulk_dataset):
    backend, manifest = bulk_dataset
    config = _loader_config(batch_size=64,
                            sampler=SamplerConfig(kind="sequential"))
    loader = DataLoader(config, manifest, backend)
    sizes = [len(b) for b in loader]
    assert len(sizes) == 704  # ceil(45000 / 64)
    assert sizes[-1] == 8
    assert all(s == 64 for s in sizes[:-1])


def test_drop_last(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    manifest = manifests["val"]  # 12 samples
    config = _loader_config(batch_size=5, drop_last=True)
    loader = DataLoader(config, manifest, backend)
    sizes = [len(b) for b in loader]
    assert sizes == [5, 5]


def test_empty_dataset_yields_no_batches():
    spec = DatasetSpec(n_train=0, n_val=0, n_test=0, width=2, height=2,
                       channels=1, n_classes=2, seed=1)
    backend = MemoryBackend()
    manifests = generate_random_dataset(spec, backend)
    loader = DataLoader(_loader_config(), manifests["train"], backend)
    assert loader.next_batch() is None


def test_batch_index_gap_free(tiny_dataset):
    root, manifests = tiny_dataset
    loader = DataLoader(_loader_config(batch_size=7, num_workers=2),
                        manifests["train"], LocalBackend(root))
    try:
        indices = [b.batch_index for b in loader]
    finally:
        loader.shutdown()
    assert indices == list(range(len(indices)))


def test_completeness(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    manifest = manifests["train"]
    n = len(manifest)
    loader = DataLoader(_loader_config(batch_size=7), manifest, backend)
    assert sum(len(b) for b in loader) == n
    # sharded world: each replica sees its slice only
    for world in (2, 3):
        total = 0
        for rank in range(world):
            sampler = SamplerConfig(kind="shuffle", seed=3, rank=rank,
                                    world_size=world)
            loader = DataLoader(_loader_config(batch_size=7, sampler=sampler),
                                manifest, backend)
            total += sum(len(b) for b in loader)
        assert total == n


def test_labels_follow_sampler_order(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    manifest = manifests["train"]
    config = _loader_config(batch_size=5)
    loader = DataLoader(config, manifest, backend)
    labels = np.concatenate([b.y for b in loader])
    from loadbench.sampling import epoch_order
    order = epoch_order(config.sampler, manifest, 0)
    expected = manifest.labels()[order.ids]
    assert np.array_equal(labels, expected)


# -- worker equivalence and prefetching ----------------------------------------

def test_worker_count_does_not_change_contents(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    manifest = manifests["train"]
    reference = _epoch_digests(_loader_config(num_workers=0), manifest, backend)
    assert len(reference) > 3
    for workers in (1, 2):
        digests = _epoch_digests(_loader_config(num_workers=workers),
                                 manifest, backend)
        assert digests == reference


def test_contents_independent_of_depth_latency(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = LocalBackend(root)
    reference = _epoch_digests(_loader_config(num_workers=0), manifest, backend)
    variants = [
        (_loader_config(num_workers=2, prefetch_depth=1), backend),
        (_loader_config(num_workers=2, prefetch_depth=6), backend),
        (_loader_config(num_workers=2),
         LatencyBackend(backend, LatencyModel(mean_ms=1.0))),
    ]
    for config, be in variants:
        assert _epoch_digests(config, manifest, be) == reference


def _settled_occupancy(loader, target):
    loader.start_epoch()
    deadline = time.perf_counter() + 2.0
    while loader.buffered_batches < target and time.perf_counter() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)  # settle: nothing beyond the expected amount accumulates
    return loader.buffered_batches


def test_prefetch_occupancy(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["train"]  # 48 samples -> 6 batches of 8
    loader = DataLoader(_loader_config(batch_size=8, num_workers=2,
                                       prefetch_depth=4),
                        manifest, LocalBackend(root))
    try:
        assert _settled_occupancy(loader, 4) == 4
    finally:
        loader.shutdown()


def test_prefetch_occupancy_capped_by_total(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["val"]  # 12 samples -> 2 batches of 8
    loader = DataLoader(_loader_config(batch_size=8, num_workers=2,
                                       prefetch_depth=4),
                        manifest, LocalBackend(root), epochs=1)
    try:
        assert _settled_occupancy(loader, 2) == min(4, 2)
    finally:
        loader.shutdown()


@pytest.mark.parametrize("depth, settled", [(3, 3), (4, 4), (6, 4)])
def test_unbounded_loader_fills_window_from_next_epoch(tiny_dataset, depth,
                                                       settled):
    # a 2-batch epoch: the window holds the next epoch's first batches too,
    # up to prefetch_depth, and looks no further than one epoch ahead
    root, manifests = tiny_dataset
    loader = DataLoader(_loader_config(batch_size=8, num_workers=2,
                                       prefetch_depth=depth),
                        manifests["val"], LocalBackend(root))
    try:
        assert _settled_occupancy(loader, settled) == settled
    finally:
        loader.shutdown()


def test_buffer_never_exceeds_depth(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    depth = 3
    loader = DataLoader(_loader_config(batch_size=4, num_workers=2,
                                       prefetch_depth=depth),
                        manifest, LocalBackend(root))
    try:
        for _ in range(3):  # the window reaches into the next epoch
            seen = 0
            while True:
                assert loader.buffered_batches <= depth
                batch = loader.next_batch()
                if batch is None:
                    break
                seen += 1
                time.sleep(0.002)
            assert seen == 12
    finally:
        loader.shutdown()


def test_prefetch_depth_default_scales_with_workers():
    assert _loader_config(num_workers=0).resolved_prefetch_depth == 1
    assert _loader_config(num_workers=2).resolved_prefetch_depth == 4
    assert _loader_config(num_workers=2, prefetch_depth=7).resolved_prefetch_depth == 7


# -- epochs ----------------------------------------------------------------------

def test_epochs_reshuffle(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    loader = DataLoader(_loader_config(batch_size=6), manifest,
                        LocalBackend(root))
    first = [b.y.tolist() for b in loader]
    second = [b.y.tolist() for b in loader]
    assert len(first) == len(second)
    assert first != second  # per-epoch reshuffle


def test_abandoned_epoch_leaks_no_batches(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = LocalBackend(root)
    reference = DataLoader(_loader_config(batch_size=4), manifest, backend)
    list(reference)
    expected = [_digest(b) for b in reference]
    loader = DataLoader(_loader_config(batch_size=4, num_workers=2), manifest,
                        LatencyBackend(backend, LatencyModel(mean_ms=1.0)))
    try:
        loader.next_batch()
        loader.next_batch()
        # iterating abandons epoch 0 while its later batches are in flight
        assert [_digest(b) for b in loader] == expected
    finally:
        loader.shutdown()


def test_batch_ids_track_delivery(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    loader = DataLoader(_loader_config(batch_size=8, num_workers=1),
                        manifest, LocalBackend(root))
    batches = [b for b in loader]
    assert sum(len(b) for b in batches) == len(manifest)
    assert all(len(b.ids) == len(b) for b in batches)
    ids = [i for b in batches for i in b.ids.tolist()]
    assert sorted(ids) == list(range(len(manifest)))
    for b in batches:  # each id is the sample whose label the batch holds
        assert b.y.tolist() == [manifest.locators[i].label for i in b.ids]


# -- shutdown and failure ---------------------------------------------------------

def test_shutdown_idempotent(tiny_dataset):
    root, manifests = tiny_dataset
    loader = DataLoader(_loader_config(num_workers=2), manifests["train"],
                        LocalBackend(root))
    loader.next_batch()
    loader.shutdown()
    loader.shutdown()
    assert loader.next_batch() is None


def _assert_new_workers_exit(before: set[threading.Thread]) -> None:
    deadline = time.perf_counter() + 2.0
    for t in threading.enumerate():
        if t.name.startswith("loadbench-worker") and t not in before:
            t.join(max(0.0, deadline - time.perf_counter()))
            assert not t.is_alive(), t.name


def test_shutdown_after_epoch_stops_workers(tiny_dataset):
    root, manifests = tiny_dataset
    before = set(threading.enumerate())
    loader = DataLoader(_loader_config(num_workers=2), manifests["train"],
                        LocalBackend(root))
    assert len(list(loader)) == 6
    loader.shutdown()
    _assert_new_workers_exit(before)


def test_shutdown_mid_epoch_is_bounded(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LatencyBackend(LocalBackend(root), LatencyModel(mean_ms=5.0))
    loader = DataLoader(_loader_config(batch_size=4, num_workers=2),
                        manifests["train"], backend)
    loader.next_batch()
    t0 = time.perf_counter()
    loader.shutdown()
    assert time.perf_counter() - t0 <= 2.0
    assert loader.next_batch() is None


class _PoisonBackend(StorageBackend):
    """Raises on the byte range of one chosen sample."""

    def __init__(self, inner, poison: ByteRange, shard: str):
        self.inner = inner
        self.poison = (shard, poison.start, poison.end)

    def get(self, key, byte_range=None):
        if byte_range is not None and (key, byte_range.start, byte_range.end) == self.poison:
            raise StorageError("injected read failure")
        return self.inner.get(key, byte_range)

    def put(self, key, data):
        self.inner.put(key, data)

    def list(self, prefix=""):
        return self.inner.list(prefix)

    def size(self, key):
        return self.inner.size(key)


@pytest.mark.parametrize("workers", [0, 2])
def test_worker_failure_carries_sample_id(tiny_dataset, workers):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    victim = 17
    loc = manifest.locators[victim]
    backend = _PoisonBackend(LocalBackend(root),
                             ByteRange(loc.offset, loc.offset + loc.length - 1),
                             loc.shard)
    before = set(threading.enumerate())
    loader = DataLoader(_loader_config(batch_size=4, num_workers=workers),
                        manifest, backend)
    with pytest.raises(WorkerError) as err:
        for _ in loader:
            pass
    assert err.value.sample_id == victim
    loader.shutdown()
    _assert_new_workers_exit(before)


@pytest.mark.parametrize("workers", [0, 2])
def test_http_read_failure_carries_first_sample_id(tiny_dataset, workers):
    # two records of the second batch point past the end of their shard;
    # the error names the one that comes first in the batch, and it is
    # raised when that batch is delivered, also from a window of 6 that
    # started the batch's read before the first batch was delivered
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    second = replica_order(_loader_config().sampler, manifest, 0).ids[4:8].tolist()
    offset = manifest.offset.copy()
    for victim in (second[1], second[3]):
        loc = manifest.locators[victim]
        offset[victim] = LocalBackend(root).size(loc.shard) - loc.length + 1
    broken = dataclasses.replace(manifest, offset=offset)
    before = set(threading.enumerate())
    for depth in [None, 6] if workers else [None]:
        config = _loader_config(batch_size=4, num_workers=workers,
                                prefetch_depth=depth)
        delivered = []
        with serve(root) as server:
            backend = HTTPBackend(server.endpoint)
            loader = DataLoader(config, broken, backend)
            with pytest.raises(WorkerError) as err:
                for batch in loader:
                    delivered.append(batch.batch_index)
            loader.shutdown()
            _assert_new_workers_exit(before)
            backend.close()
        assert delivered == [0]
        assert err.value.sample_id == second[1]
        assert isinstance(err.value.cause, RangeError)


def _bad_payload_len(backend, manifest, victim):
    # the record's payload_len field says one byte more than its dimensions
    key, extent = record_extent(manifest, victim)
    shard = bytearray(backend.get(key))
    field = extent.start + RECORD_HEADER.size - 4
    payload_len = struct.unpack_from("<I", shard, field)[0]
    struct.pack_into("<I", shard, field, payload_len + 1)
    backend.put(key, bytes(shard))
    return manifest


def _bad_label(backend, manifest, victim):
    label = manifest.label.copy()
    label[victim] = (label[victim] + 1) % manifest.spec.n_classes
    return dataclasses.replace(manifest, label=label)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("corrupt", [_bad_label, _bad_payload_len])
def test_bad_record_names_the_first_in_batch_order(tiny_dataset, workers,
                                                   corrupt):
    # two records of the second batch fail read_record's checks; the
    # error names the one that comes first and carries read_record's error
    root, manifests = tiny_dataset
    config = _loader_config(batch_size=4, num_workers=workers)
    second = replica_order(config.sampler, manifests["train"], 0).ids[4:8].tolist()
    backend = MemoryBackend.load(LocalBackend(root))
    manifest = manifests["train"]
    for victim in (second[3], second[1]):
        manifest = corrupt(backend, manifest, victim)
    with pytest.raises(DatasetError) as direct:
        read_record(manifest, second[1], backend)
    before = set(threading.enumerate())
    with DataLoader(config, manifest, backend) as loader:
        assert len(loader.next_batch()) == 4
        with pytest.raises(WorkerError) as err:
            loader.next_batch()
    _assert_new_workers_exit(before)
    assert err.value.sample_id == second[1]
    assert isinstance(err.value.cause, DatasetError)
    assert str(err.value.cause) == str(direct.value)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("bad_first", [True, False])
def test_bad_record_and_failed_read_fail_in_batch_order(tiny_dataset, workers,
                                                        bad_first):
    # one record of the second batch fails its label check and a later (or
    # earlier) one fails its read: the error is the one that comes first
    root, manifests = tiny_dataset
    config = _loader_config(batch_size=4, num_workers=workers)
    second = replica_order(config.sampler, manifests["train"], 0).ids[4:8].tolist()
    bad, failed = (second[1], second[2]) if bad_first else (second[2], second[1])
    manifest = _bad_label(None, manifests["train"], bad)
    shard, extent = record_extent(manifest, failed)
    backend = _PoisonBackend(LocalBackend(root), extent, shard)
    with DataLoader(config, manifest, backend) as loader:
        assert len(loader.next_batch()) == 4
        with pytest.raises(WorkerError) as err:
            loader.next_batch()
    assert err.value.sample_id == second[1]
    assert isinstance(err.value.cause, DatasetError if bad_first else StorageError)


# -- lookahead across epoch boundaries --------------------------------------------

class _CountingBackend(StorageBackend):
    """Counts ``read_into`` calls; once ``gate`` is cleared, the calls after
    the first ``free`` wait for it to be set again (``blocked`` tells)."""

    def __init__(self, inner, free=0):
        self.inner = inner
        self.free = free
        self.calls = 0
        self.gate = threading.Event()
        self.gate.set()
        self.blocked = threading.Event()
        self._lock = threading.Lock()

    def read_into(self, requests, out):
        with self._lock:
            self.calls += 1
            held = self.calls > self.free and not self.gate.is_set()
        if held:
            self.blocked.set()
            assert self.gate.wait(5.0)
        self.inner.read_into(requests, out)

    def get(self, key, byte_range=None):
        return self.inner.get(key, byte_range)

    def put(self, key, data):
        self.inner.put(key, data)

    def list(self, prefix=""):
        return self.inner.list(prefix)

    def size(self, key):
        return self.inner.size(key)


def _drain(loader) -> list[str]:
    """The digests of the started epoch's remaining batches."""
    digests = []
    while (batch := loader.next_batch()) is not None:
        digests.append(_digest(batch))
    return digests


def _run_epochs(loader, epochs):
    try:
        return [[_digest(b) for b in loader] for _ in range(epochs)]
    finally:
        loader.shutdown()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("depth", [1, 2, 6])
@pytest.mark.parametrize("kind", ["local", "memory", "latency"])
def test_lookahead_keeps_contents_over_epochs(tiny_dataset, workers, depth,
                                              kind):
    root, manifests = tiny_dataset
    manifest = manifests["train"]  # 6 batches of 8 an epoch
    local = LocalBackend(root)
    reference = _run_epochs(DataLoader(_loader_config(), manifest, local), 3)
    backend = {"local": local,
               "memory": MemoryBackend.load(local),
               "latency": LatencyBackend(local, LatencyModel(mean_ms=1.0))}[kind]
    loader = DataLoader(_loader_config(num_workers=workers,
                                       prefetch_depth=depth),
                        manifest, backend)
    assert _run_epochs(loader, 3) == reference


def test_lookahead_under_thread_stress(tiny_dataset):
    # more workers than cores and a short switch interval: four epochs of
    # 12 batches each still give the 0-worker loader's bytes
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = MemoryBackend.load(LocalBackend(root))
    reference = _run_epochs(DataLoader(_loader_config(batch_size=4), manifest,
                                       backend), 4)
    workers = len(os.sched_getaffinity(0)) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        loader = DataLoader(_loader_config(batch_size=4, num_workers=workers,
                                           prefetch_depth=3),
                            manifest, backend)
        assert _run_epochs(loader, 4) == reference
    finally:
        sys.setswitchinterval(interval)


def test_start_out_of_sequence_cancels_the_lookahead(tiny_dataset):
    root, manifests = tiny_dataset
    manifest = manifests["val"]  # 2 batches of 8 an epoch
    reference = DataLoader(_loader_config(batch_size=8), manifest,
                           LocalBackend(root))
    reference.start_epoch(3)
    expected = _drain(reference)
    # epoch 0's two builds pass; epoch 1's first waits at the gate while
    # its second is queued behind it (one worker)
    backend = _CountingBackend(LocalBackend(root), free=2)
    backend.gate.clear()
    loader = DataLoader(_loader_config(batch_size=8, num_workers=1,
                                       prefetch_depth=4),
                        manifest, backend, epochs=4)
    try:
        assert len([b for b in loader]) == 2
        assert backend.blocked.wait(2.0)
        loader.start_epoch(3)  # not epoch 1: the queued build is cancelled
        backend.gate.set()
        assert _drain(loader) == expected
    finally:
        loader.shutdown()
    # epoch 0's two, epoch 1's first (already running) and epoch 3's two
    assert backend.calls == 5


@pytest.mark.parametrize("epochs", [1, 2, 3])
def test_bounded_loader_builds_no_batch_past_its_epochs(tiny_dataset, epochs):
    root, manifests = tiny_dataset
    backend = _CountingBackend(LocalBackend(root))
    loader = DataLoader(_loader_config(batch_size=8, num_workers=2,
                                       prefetch_depth=6),
                        manifests["train"], backend, epochs=epochs)
    assert [len(e) for e in _run_epochs(loader, epochs)] == [6] * epochs
    assert backend.calls == epochs * 6


class _LatePoisonBackend(_PoisonBackend):
    """``_PoisonBackend`` whose first ``clean`` batch reads pass untouched."""

    def __init__(self, inner, poison: ByteRange, shard: str, clean: int):
        super().__init__(inner, poison, shard)
        self.clean = clean
        self._lock = threading.Lock()

    def read_into(self, requests, out):
        with self._lock:
            self.clean -= 1
            clean = self.clean >= 0
        if clean:
            return self.inner.read_into(requests, out)
        return super().read_into(requests, out)


@pytest.mark.parametrize("workers", [0, 2])
def test_lookahead_failure_surfaces_in_its_own_epoch(tiny_dataset, workers):
    # the first batch of epoch 1 holds a record whose read fails there
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    depth = 4
    config = _loader_config(batch_size=8, num_workers=workers,
                            prefetch_depth=depth)
    victim = int(replica_order(config.sampler, manifest, 1).ids[0])
    shard, extent = record_extent(manifest, victim)
    backend = _LatePoisonBackend(LocalBackend(root), extent, shard, clean=6)
    before = set(threading.enumerate())
    with DataLoader(config, manifest, backend) as loader:
        for _ in range(6):
            assert loader.next_batch() is not None
        if workers:  # epoch 1's first batches, the failed one too, are built
            deadline = time.perf_counter() + 2.0
            while (loader.buffered_batches < depth
                   and time.perf_counter() < deadline):
                time.sleep(0.01)
            assert loader.buffered_batches == depth
        assert loader.next_batch() is None  # epoch 0 completes
        with pytest.raises(WorkerError) as err:
            loader.next_batch()
    _assert_new_workers_exit(before)
    assert err.value.sample_id == victim
    assert isinstance(err.value.cause, StorageError)


@pytest.mark.parametrize("epochs", [None, 2])
def test_shutdown_after_last_epoch_stops_lookahead_workers(tiny_dataset,
                                                           epochs):
    root, manifests = tiny_dataset
    backend = LatencyBackend(LocalBackend(root), LatencyModel(mean_ms=5.0))
    before = set(threading.enumerate())
    loader = DataLoader(_loader_config(batch_size=4, num_workers=2),
                        manifests["train"], backend, epochs=epochs)
    assert [len(e) for e in _run_epochs(loader, 2)] == [12, 12]
    _assert_new_workers_exit(before)


@pytest.mark.parametrize("workers", [0, 2])
def test_iterating_a_started_epoch_yields_it(tiny_dataset, workers):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = LocalBackend(root)
    with DataLoader(_loader_config(), manifest, backend) as reference:
        reference.start_epoch(3)
        expected = _drain(reference)
    with DataLoader(_loader_config(num_workers=workers), manifest,
                    backend) as loader:
        loader.start_epoch(3)  # delivers nothing, so iter() goes on with it
        assert [_digest(b) for b in loader] == expected


# -- wrapped backends: one batch read through every wrapper ---------------------

_WRAPS = {
    "plain": lambda backend: backend,
    "latency": lambda backend: LatencyBackend(backend, LatencyModel(mean_ms=0.5)),
    "cached": lambda backend: CachedBackend(backend, 1 << 20),
    "cached-latency": lambda backend: CachedBackend(
        LatencyBackend(backend, LatencyModel(mean_ms=0.5)), 1 << 20),
}


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("wrap", sorted(_WRAPS))
@pytest.mark.parametrize("kind", ["local", "memory", "http"])
def test_contents_independent_of_backend_and_wrappers(tiny_dataset, kind, wrap,
                                                      workers):
    # two epochs, so a cache that holds the split answers the second from
    # its hits alone
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    local = LocalBackend(root)
    reference = _run_epochs(DataLoader(_loader_config(), manifest, local), 2)
    with serve(root) as server:
        backend = {"local": lambda: local,
                   "memory": lambda: MemoryBackend.load(local),
                   "http": lambda: HTTPBackend(server.endpoint)}[kind]()
        with closing(_WRAPS[wrap](backend)) as wrapped:
            loader = DataLoader(_loader_config(num_workers=workers), manifest,
                                wrapped, epochs=2)
            assert _run_epochs(loader, 2) == reference


def test_latency_draws_repeat_batch_for_batch(tiny_dataset):
    # every batch read starts on the consumer thread in batch order, so with
    # workers too each batch draws the same delays from a seeded model in
    # every run
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    local = LocalBackend(root)

    def draws():
        model = LatencyModel(mean_ms=1.0, std_ms=0.8, distribution="lognormal", seed=6)
        per_batch, drawn = [], []
        sample_ms = model.sample_ms

        def recording():
            drawn.append(sample_ms())
            return drawn[-1]
        model.sample_ms = recording

        class Batches(storage.LatencyBackend):
            def start_read(self, requests):
                before = len(drawn)
                read = super().start_read(requests)
                per_batch.append((tuple(requests), tuple(drawn[before:])))
                return read
        loader = DataLoader(_loader_config(num_workers=2, prefetch_depth=4),
                            manifest, Batches(local, model), epochs=2)
        _run_epochs(loader, 2)
        return per_batch

    first = draws()
    assert len(first) == 12 and len({d for _, ds in first for d in ds}) > 12
    assert all(len(ds) == len({key for key, *_ in requests}) for requests, ds in first)
    assert draws() == first


# -- worker placement ---------------------------------------------------------

_TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="needs 2 or more allowed CPUs")


class _AffinityBackend(_CountingBackend):
    """Records the allowed CPUs of each thread that calls ``read_into``."""

    def __init__(self, inner):
        super().__init__(inner)
        self.affinities = []

    def read_into(self, requests, out):
        self.affinities.append(frozenset(os.sched_getaffinity(0)))
        super().read_into(requests, out)


@_TWO_CPUS
def test_current_cpu_reads_the_calling_threads_cpu():
    seen = {}

    def probe(cpu):  # runs on ``cpu`` alone once pinned there
        os.sched_setaffinity(0, {cpu})
        seen[cpu] = pipeline._current_cpu()

    allowed = os.sched_getaffinity(0)
    for cpu in sorted(allowed):
        thread = threading.Thread(target=probe, args=(cpu,))
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive()
    assert seen == {cpu: cpu for cpu in allowed}


@_TWO_CPUS
def test_workers_run_off_the_constructing_threads_cpu(tiny_dataset,
                                                      monkeypatch):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = MemoryBackend.load(LocalBackend(root))
    reference = _run_epochs(DataLoader(_loader_config(), manifest, backend), 2)
    read = []  # the CPU the loader read for its constructing thread

    def current_cpu():
        read.append(real_current_cpu())
        return read[-1]

    real_current_cpu = pipeline._current_cpu
    monkeypatch.setattr(pipeline, "_current_cpu", current_cpu)
    recorder = _AffinityBackend(backend)
    loader = DataLoader(_loader_config(num_workers=2), manifest, recorder)
    allowed = os.sched_getaffinity(0)
    assert len(read) == 1 and read[0] in allowed
    assert loader.worker_cpus == tuple(sorted(allowed - {read[0]}))
    assert _run_epochs(loader, 2) == reference
    assert set(recorder.affinities) == {frozenset(allowed - {read[0]})}


@pytest.mark.parametrize("workers, one_cpu", [(0, False), (2, True)])
def test_no_pinning_without_workers_or_a_second_cpu(tiny_dataset, monkeypatch,
                                                    workers, one_cpu):
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = LocalBackend(root)
    reference = _run_epochs(DataLoader(_loader_config(), manifest, backend), 2)
    pins = []
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda *args: pins.append(args))
    if one_cpu:  # the constructing thread may run on its current CPU only
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {pipeline._current_cpu()})
    loader = DataLoader(_loader_config(num_workers=workers), manifest, backend)
    assert loader.worker_cpus is None
    assert _run_epochs(loader, 2) == reference
    assert pins == []


@_TWO_CPUS
def test_failed_pin_leaves_the_pool_working(tiny_dataset, monkeypatch):
    # an initializer that raised would break the pool: every build would
    # fail with BrokenThreadPool
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    backend = LocalBackend(root)
    reference = _run_epochs(DataLoader(_loader_config(), manifest, backend), 2)
    allowed = os.sched_getaffinity(0)

    def refuse(pid, cpus):
        raise PermissionError("sched_setaffinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    recorder = _AffinityBackend(backend)
    loader = DataLoader(_loader_config(num_workers=2), manifest, recorder)
    assert _run_epochs(loader, 2) == reference
    assert set(recorder.affinities) == {frozenset(allowed)}  # unpinned


def test_dropped_loader_lets_its_workers_exit(tiny_dataset):
    # nothing a pool thread holds, its pin included, keeps the loader alive
    root, manifests = tiny_dataset
    before = set(threading.enumerate())
    loader = DataLoader(_loader_config(num_workers=2), manifests["val"],
                        LocalBackend(root), epochs=1)
    assert len(list(loader)) == 2
    del loader  # never shut down
    _assert_new_workers_exit(before)


# -- reads started as batches enter the window ------------------------------------

@pytest.mark.parametrize("in_flight", [None, 2, 1])
@pytest.mark.parametrize("depth", [1, 2, 6])
@pytest.mark.parametrize("workers", [1, 2])
def test_started_reads_keep_contents_over_epochs(tiny_dataset, monkeypatch,
                                                 workers, depth, in_flight):
    # each batch's GETs go out as it enters the window; with one or two
    # connections for reads of up to three shards, started reads also wait
    # in the pool's queue: the bytes are a 0-worker memory loader's, and
    # nothing stalls
    root, manifests = tiny_dataset
    manifest = manifests["train"]  # 6 batches of 8 an epoch, from 3 shards
    memory = MemoryBackend.load(LocalBackend(root))
    reference = _run_epochs(DataLoader(_loader_config(), manifest, memory), 3)
    if in_flight:
        monkeypatch.setattr(storage, "_IN_FLIGHT", in_flight)
    got = []
    with serve(root) as server, \
            closing(HTTPBackend(server.endpoint, timeout=5)) as backend:
        loader = DataLoader(_loader_config(num_workers=workers,
                                           prefetch_depth=depth),
                            manifest, backend, epochs=3)
        runner = threading.Thread(
            target=lambda: got.append(_run_epochs(loader, 3)), daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "the loader stalled"
        assert_pool_at_rest(backend)
    assert got == [reference]


def test_started_reads_under_thread_stress(tiny_dataset, monkeypatch):
    # more workers than cores, a short switch interval and two connections:
    # reads started on the consumer thread, finished on the workers and
    # handed connections in the pool's queue give four epochs of the
    # 0-worker loader's bytes
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    reference = _run_epochs(DataLoader(_loader_config(batch_size=4), manifest,
                                       MemoryBackend.load(LocalBackend(root))), 4)
    monkeypatch.setattr(storage, "_IN_FLIGHT", 2)
    workers = len(os.sched_getaffinity(0)) + 1
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serve(root) as server, \
                closing(HTTPBackend(server.endpoint, timeout=5)) as backend:
            loader = DataLoader(_loader_config(batch_size=4, num_workers=workers,
                                               prefetch_depth=3),
                                manifest, backend, epochs=4)
            runner = threading.Thread(
                target=lambda: got.append(_run_epochs(loader, 4)), daemon=True)
            runner.start()
            runner.join(60)
            assert not runner.is_alive(), "the loader stalled"
    finally:
        sys.setswitchinterval(interval)
    assert got == [reference]


def _past_end_of_third_batch(root, manifest, config):
    """``manifest`` with the third batch's first record past its shard's end."""
    victim = replica_order(config.sampler, manifest, 0).ids[2 * config.batch_size]
    offset = manifest.offset.copy()
    loc = manifest.locators[victim]
    offset[victim] = LocalBackend(root).size(loc.shard) - loc.length + 1
    return dataclasses.replace(manifest, offset=offset)


def _reiterate(loader):
    next(iter(loader))
    next(iter(loader))  # mid-epoch: epoch 0 is abandoned


def _out_of_sequence(loader):
    loader.next_batch()
    loader.start_epoch(5)
    loader.next_batch()


def _failed_build(loader):
    with pytest.raises(WorkerError):
        for _ in loader:
            pass


def _shutdown_mid_epoch(loader):
    loader.next_batch()
    loader.next_batch()


def _last_epoch(loader):
    assert [len(list(loader)) for _ in range(2)] == [6, 6]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
@pytest.mark.parametrize("in_flight", [None, 2])
@pytest.mark.parametrize("use", [_reiterate, _out_of_sequence, _failed_build,
                                 _shutdown_mid_epoch, _last_epoch],
                         ids=lambda use: use.__name__.strip("_"))
def test_cancelled_reads_hold_no_connection(tiny_dataset, monkeypatch, use,
                                            in_flight):
    # one worker and a window of 6, and every request held 20 ms at the
    # server: the loader is left with reads queued, in flight and answered
    # but unread; once it is shut down and its worker has exited, every
    # connection the backend still counts is idle, no read waits in the
    # pool's queue, and no socket is left open
    root, manifests = tiny_dataset
    config = _loader_config(num_workers=1, prefetch_depth=6)
    manifest = manifests["train"]
    if use is _failed_build:
        manifest = _past_end_of_third_batch(root, manifest, config)
    if in_flight:
        monkeypatch.setattr(storage, "_IN_FLIGHT", in_flight)
    before = set(threading.enumerate())
    fds = len(os.listdir("/proc/self/fd"))
    with serve(root, latency=LatencyModel(mean_ms=20.0)) as server:
        with closing(HTTPBackend(server.endpoint, timeout=5)) as backend:
            loader = DataLoader(config, manifest, backend,
                                epochs=2 if use is _last_epoch else None)
            use(loader)
            loader.shutdown()
            _assert_new_workers_exit(before)
            assert_pool_at_rest(backend)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_tracer_hooks_stay_bound():
    # perfbench/spans.py traces a run by rebinding these names on the module
    import loadbench.pipeline as pipeline
    for name in ("read_record", "apply_stack", "sample_seed", "collate",
                 "replica_order"):
        assert callable(getattr(pipeline, name, None)), name


def _odd_record_loader(root, manifest, config, width, height, mislabel=()):
    # the record at position 6 of the epoch is width x height x 3, put in a
    # shard of its own, and the manifest gives the records at the positions
    # in ``mislabel`` another label; the loader reads from memory
    order = replica_order(config.sampler, manifest, 0).ids
    victim = order[6]
    backend = MemoryBackend.load(LocalBackend(root))
    label = int(manifest.label[victim])
    blob = pack_record(ImageRecord(label=label, width=width, height=height,
                                   channels=3, pixels=bytes(width * height * 3)))
    backend.put("train/odd.bin", blob)
    shard, offset, length, labels = (manifest.shard.copy(), manifest.offset.copy(),
                                     manifest.length.copy(), manifest.label.copy())
    shard[victim], offset[victim], length[victim] = (
        len(manifest.shard_keys), 0, len(blob))
    for pos in mislabel:
        labels[order[pos]] = (labels[order[pos]] + 1) % manifest.spec.n_classes
    odd = dataclasses.replace(
        manifest, shard_keys=manifest.shard_keys + ("train/odd.bin",),
        shard=shard, offset=offset, length=length, label=labels)
    return DataLoader(config, odd, backend)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("bad", [6, 7])
def test_bad_record_beside_an_odd_size_one_is_named(tiny_dataset, workers, bad):
    # the second batch's records have two lengths and share one buffer; the
    # mislabelled one (the odd record, or the record after it) is named
    root, manifests = tiny_dataset
    config = _loader_config(batch_size=4, num_workers=workers)
    order = replica_order(config.sampler, manifests["train"], 0).ids.tolist()
    with _odd_record_loader(root, manifests["train"], config, 5, 6,
                            mislabel=[bad]) as loader:
        assert len(loader.next_batch()) == 4
        with pytest.raises(WorkerError) as err:
            loader.next_batch()
    assert err.value.sample_id == order[bad]
    assert isinstance(err.value.cause, DatasetError)
    assert f"label mismatch for sample {order[bad]}" in str(err.value.cause)


@pytest.mark.parametrize("workers", [0, 2])
def test_record_of_another_shape_fails_its_batch(tiny_dataset, workers):
    # one record of the second batch is 5 pixels wide instead of 8
    root, manifests = tiny_dataset
    config = _loader_config(batch_size=4, num_workers=workers)
    with _odd_record_loader(root, manifests["train"], config, 5, 6) as loader:
        assert len(loader.next_batch()) == 4
        with pytest.raises(ValueError, match="heterogeneous sample shapes"):
            loader.next_batch()


@pytest.mark.parametrize("workers", [0, 2])
def test_record_of_transposed_shape_fails_its_batch(tiny_dataset, workers):
    # one record of the second batch is 6 x 8 instead of 8 x 6: its extent
    # has the batch's length, so only the header's dimensions tell
    root, manifests = tiny_dataset
    config = _loader_config(batch_size=4, num_workers=workers)
    with _odd_record_loader(root, manifests["train"], config, 6, 8) as loader:
        assert len(loader.next_batch()) == 4
        with pytest.raises(ValueError, match="heterogeneous sample shapes"):
            loader.next_batch()


@pytest.mark.parametrize("workers", [0, 2])
def test_cutout_too_large_names_the_first_sample(tiny_dataset, workers):
    root, manifests = tiny_dataset
    manifest = manifests["train"]  # 8 x 6 images
    config = _loader_config(batch_size=4, num_workers=workers,
                            transform=TransformConfig(seed=3, cutout_side=7))
    first = replica_order(config.sampler, manifest, 0).ids[0]
    before = set(threading.enumerate())
    with DataLoader(config, manifest, LocalBackend(root)) as loader:
        with pytest.raises(WorkerError) as err:
            loader.next_batch()
    _assert_new_workers_exit(before)
    assert err.value.sample_id == first
    assert isinstance(err.value.cause, ValueError)
    assert "exceeds image min dimension 6" in str(err.value.cause)


def test_loader_config_validation():
    with pytest.raises(ValueError):
        LoaderConfig(batch_size=0)
    with pytest.raises(ValueError):
        LoaderConfig(num_workers=-1)
    with pytest.raises(ValueError):
        LoaderConfig(prefetch_depth=0)
