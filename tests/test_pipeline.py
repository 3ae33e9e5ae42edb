import dataclasses
import hashlib
import threading
import time

import numpy as np
import pytest

from loadbench.dataset import (
    DatasetSpec,
    ImageRecord,
    generate_random_dataset,
    pack_record,
)
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
    HTTPBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    RangeError,
    StorageBackend,
    StorageError,
    with_latency,
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
         with_latency(backend, LatencyModel(mean_ms=1.0))),
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
                        manifest, LocalBackend(root))
    try:
        assert _settled_occupancy(loader, 2) == min(4, 2)
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
                        with_latency(backend, LatencyModel(mean_ms=1.0)))
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
        if (t.name.startswith(("loadbench-worker", "loadbench-fetch"))
                and t not in before):
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
    backend = with_latency(LocalBackend(root), LatencyModel(mean_ms=5.0))
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
    # the error names the one that comes first in the batch
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    config = _loader_config(batch_size=4, num_workers=workers)
    second = replica_order(config.sampler, manifest, 0).ids[4:8].tolist()
    locators = list(manifest.locators)
    for victim in (second[1], second[3]):
        loc = locators[victim]
        past_end = LocalBackend(root).size(loc.shard) - loc.length + 1
        locators[victim] = dataclasses.replace(loc, offset=past_end)
    broken = dataclasses.replace(manifest, locators=locators)
    before = set(threading.enumerate())
    with serve(root) as server:
        backend = HTTPBackend(server.endpoint)
        loader = DataLoader(config, broken, backend)
        with pytest.raises(WorkerError) as err:
            for _ in loader:
                pass
        loader.shutdown()
        backend.close()
        _assert_new_workers_exit(before)
    assert err.value.sample_id == second[1]
    assert isinstance(err.value.cause, RangeError)


@pytest.mark.parametrize("workers", [0, 2])
def test_record_of_another_shape_fails_its_batch(tiny_dataset, workers):
    # one record of the second batch is 5 pixels wide instead of 8
    root, manifests = tiny_dataset
    manifest = manifests["train"]
    config = _loader_config(batch_size=4, num_workers=workers)
    victim = replica_order(config.sampler, manifest, 0).ids[6]
    backend = MemoryBackend.load(LocalBackend(root))
    label = manifest.locators[victim].label
    blob = pack_record(ImageRecord(label=label, width=5, height=6, channels=3,
                                   pixels=bytes(90)))
    backend.put("train/odd.bin", blob)
    locators = list(manifest.locators)
    locators[victim] = dataclasses.replace(
        locators[victim], shard="train/odd.bin", offset=0, length=len(blob))
    odd = dataclasses.replace(manifest, locators=locators)
    with DataLoader(config, odd, backend) as loader:
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
