"""Per-epoch sample ordering: sequential, shuffled, filtered, and sharded.

The order of one epoch is a pure function of (sampler config, manifest,
epoch index), so any number of workers or replicas can reconstruct it.
Filtering comes in two flavours with identical results but very different
costs: ``filter_indexed`` walks the manifest's class index, ``filter_naive``
scans every label (optionally through the storage backend, record by record,
to make the scan's I/O cost measurable).  Filtered orders are shuffled with
the same per-epoch rule as plain shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetManifest, read_record
from .prng import derive_seed, fisher_yates
from .storage import StorageBackend

KINDS = ("sequential", "shuffle", "filter_indexed", "filter_naive")
FILTER_KINDS = ("filter_indexed", "filter_naive")


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "shuffle"
    seed: int = 0
    classes: frozenset[int] | None = None
    rank: int = 0
    world_size: int = 1
    drop_last_partial: bool = False
    scan_storage: bool = False  # naive filter reads labels through the backend

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.world_size < 1 or not 0 <= self.rank < self.world_size:
            raise ValueError("require 0 <= rank < world_size")
        is_filter = self.kind in FILTER_KINDS
        if is_filter and not self.classes:
            raise ValueError(f"kind {self.kind!r} requires a class set")
        if not is_filter and self.classes:
            raise ValueError(f"kind {self.kind!r} does not take classes")
        if self.classes is not None:
            object.__setattr__(self, "classes", frozenset(int(c) for c in self.classes))


@dataclass(frozen=True)
class SampleOrder:
    """An epoch's sequence of sample ids (no duplicates)."""

    ids: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        self.ids.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())


def _epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return derive_seed(seed, "epoch", epoch)


def _check_classes(classes: frozenset[int], n_classes: int) -> None:
    bad = [c for c in classes if c < 0 or c >= n_classes]
    if bad:
        raise ValueError(f"class ids {sorted(bad)} outside [0, {n_classes})")


def _shuffled(ids: np.ndarray, seed: int, epoch: int) -> np.ndarray:
    perm = fisher_yates(len(ids), _epoch_shuffle_seed(seed, epoch))
    return ids[perm]


def epoch_order(config: SamplerConfig, manifest: DatasetManifest, epoch: int,
                backend: StorageBackend | None = None) -> SampleOrder:
    """Build the full (pre-sharding) order for one epoch."""
    n = len(manifest)
    if config.kind == "sequential":
        return SampleOrder(np.arange(n, dtype=np.int64))
    if config.kind == "shuffle":
        return SampleOrder(_shuffled(np.arange(n, dtype=np.int64),
                                     config.seed, epoch))

    assert config.classes is not None
    _check_classes(config.classes, manifest.spec.n_classes)
    if config.kind == "filter_indexed":
        kept: list[int] = []
        for cls in config.classes:
            kept.extend(manifest.class_index.get(cls, []))
        ids = np.array(sorted(kept), dtype=np.int64)
    else:  # filter_naive: scan every label
        if config.scan_storage:
            if backend is None:
                raise ValueError("scan_storage naive filter needs a backend")
            labels = np.array([read_record(manifest, i, backend).label
                               for i in range(n)], dtype=np.int64)
        else:
            labels = manifest.labels()
        ids = np.flatnonzero(np.isin(labels, list(config.classes)))
    return SampleOrder(_shuffled(ids, config.seed, epoch))


def shard_for_replica(order: SampleOrder, rank: int, world_size: int,
                      drop_last_partial: bool = False) -> SampleOrder:
    """This replica's slice: positions congruent to rank mod world_size."""
    if world_size < 1 or not 0 <= rank < world_size:
        raise ValueError("require 0 <= rank < world_size")
    ids = order.ids[rank::world_size]
    if drop_last_partial:
        ids = ids[: len(order.ids) // world_size]
    return SampleOrder(ids)


def replica_order(config: SamplerConfig, manifest: DatasetManifest, epoch: int,
                  backend: StorageBackend | None = None) -> SampleOrder:
    """epoch_order followed by this config's replica shard (filter -> shuffle -> shard)."""
    order = epoch_order(config, manifest, epoch, backend=backend)
    if config.world_size == 1:
        return order
    return shard_for_replica(order, config.rank, config.world_size,
                             config.drop_last_partial)
