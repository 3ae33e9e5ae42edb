"""The dataloader: (manifest, backend, sampler, transforms) -> batches.

Each epoch cuts the sampler's order into batches.  With workers, batches
are built on a thread pool: the loader keeps a deque of futures in batch
order and, after each delivery, tops it up to ``prefetch_depth``.  Delivery
pops the leftmost future, so batches arrive strictly in order and their
bytes depend only on the seeds, never on worker count, prefetch depth, or
backend latency.  No more than ``prefetch_depth`` batches of an epoch are
queued, being built, or finished but undelivered.  With zero workers each
batch is built in the caller when it is asked for.

``start_epoch`` also draws the epoch's augmentation: ``sample_seeds`` and
``draw_stack`` run once over the whole order, and each planned batch
carries its ids and its rows of the draws.  That is O(N) array work per
epoch, the order of the shuffle it already runs.

A build works on the whole batch at every stage.  Its record extents
(shard key, offset, length) come from indexing the manifest's locator
columns with the batch's ids, and one ``backend.read_into`` call reads them
into one buffer sized from the length column (over HTTP, with one
multi-range GET per shard); a failed read raises ``WorkerError`` for its
sample.  ``decode_records``
views the buffer as one array, checks every header with array operations
and gives the pixels as one (B, H, W, C) uint8 view.  When a check fails,
``read_record`` runs on the batch's records in order, so the error names
the first bad record with that record's own ``DatasetError``.
``apply_draws`` then casts, flips, normalizes and cuts out the whole batch
with its draws, and the labels come from the manifest's label column.

One consumer owns the loader.  Iterating it yields one epoch; iterating
again starts the next epoch with a fresh per-epoch shuffle and abandons what
was left of the previous one: its queued builds are cancelled and its
finished batches are never delivered.

``shutdown()`` cancels queued builds without waiting for builds in
progress.  The pool's threads are not daemons, so at interpreter exit
Python waits for a build still in progress (and, for a loader never shut
down, for the builds still queued).  A build's storage requests run in the
thread that builds it, over HTTP in the backend's selector loop, not on
threads of their own; the wait is bounded by the backend's stall timeout
(30 s for HTTP).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import (DatasetManifest, ImageRecord, decode_records,
                      read_record, record_extents)
from .sampling import SamplerConfig, replica_order
from .storage import ReadError, StorageBackend
from .transforms import TransformConfig, apply_draws, draw_stack, sample_seeds
# perfbench/spans.py traces a run by rebinding names on this module: these
# two, ``read_record``, ``collate`` and ``replica_order``.  The batch build
# calls neither of these two; they stay bound so that the tracer installs.
from .transforms import apply_stack, sample_seed  # noqa: F401


class WorkerError(Exception):
    """A worker failed while building a batch; carries the failing sample id."""

    def __init__(self, sample_id: int, cause: BaseException) -> None:
        super().__init__(f"worker failed on sample {sample_id}: {cause!r}")
        self.sample_id = sample_id
        self.cause = cause


@dataclass(frozen=True)
class LoaderConfig:
    batch_size: int = 64
    num_workers: int = 0
    prefetch_depth: int | None = None  # None -> max(1, 2 * num_workers)
    drop_last: bool = False
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    transform: TransformConfig = field(default_factory=TransformConfig)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.prefetch_depth is not None and self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")

    @property
    def resolved_prefetch_depth(self) -> int:
        if self.prefetch_depth is not None:
            return self.prefetch_depth
        return max(1, 2 * self.num_workers)


@dataclass
class Batch:
    X: np.ndarray  # (B, C, H, W) float32
    y: np.ndarray  # (B,) int64
    batch_index: int
    ids: np.ndarray | None = None  # (B,) sample ids; the loader sets them

    def __len__(self) -> int:
        return len(self.y)


def collate(samples: list[tuple[np.ndarray, int]], batch_index: int = 0) -> Batch:
    """Stack transformed samples along a new leading axis."""
    if not samples:
        raise ValueError("cannot collate an empty sample list")
    images = [img for img, _ in samples]
    first = images[0].shape
    if any(img.shape != first for img in images):
        raise ValueError("heterogeneous sample shapes")
    X = np.stack(images).astype(np.float32, copy=False)
    y = np.array([label for _, label in samples], dtype=np.int64)
    return Batch(X=X, y=y, batch_index=batch_index)


class DataLoader:
    """Iterator of collated batches with worker-based prefetching."""

    def __init__(self, config: LoaderConfig, manifest: DatasetManifest,
                 backend: StorageBackend) -> None:
        self.config = config
        self.manifest = manifest
        self.backend = backend
        self._pool = (ThreadPoolExecutor(config.num_workers,
                                         thread_name_prefix="loadbench-worker")
                      if config.num_workers else None)
        self._epoch = -1
        # the epoch's batches: each one's ids and its rows of the epoch's draws
        self._plan: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._delivered = 0
        self._pending: deque[Future[Batch]] = deque()  # next batches, in order
        self._closed = False

    @property
    def buffered_batches(self) -> int:
        """Batches finished but not yet delivered."""
        return sum(f.done() for f in self._pending)

    # -- epoch lifecycle -------------------------------------------------

    def start_epoch(self, epoch: int | None = None) -> None:
        """Begin a new epoch (next in sequence by default); starts prefetching."""
        if self._closed:
            raise RuntimeError("loader is shut down")
        self._abandon_epoch()
        self._epoch = self._epoch + 1 if epoch is None else epoch
        order = replica_order(self.config.sampler, self.manifest, self._epoch,
                              backend=self.backend)
        ids, tcfg = order.ids, self.config.transform
        draws = draw_stack(tcfg, sample_seeds(tcfg.seed, self._epoch, ids))
        batch_size = self.config.batch_size
        stop = len(ids) - (len(ids) % batch_size if self.config.drop_last else 0)
        self._plan = [(ids[i:i + batch_size], draws[i:i + batch_size])
                      for i in range(0, stop, batch_size)]
        self._delivered = 0
        self._prefetch()

    def _prefetch(self) -> None:
        if self._pool is None:
            return
        plan = self._plan
        while len(self._pending) < self.config.resolved_prefetch_depth:
            b = self._delivered + len(self._pending)
            if b >= len(plan):
                return
            self._pending.append(
                self._pool.submit(self._build_batch, b, *plan[b]))

    def _abandon_epoch(self) -> None:
        for future in self._pending:
            future.cancel()
        self._pending.clear()
        self._plan = None

    def shutdown(self) -> None:
        """Cancel queued builds and refuse further epochs; idempotent."""
        self._abandon_epoch()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._closed = True

    def __enter__(self) -> "DataLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- batch production --------------------------------------------------

    def _build_batch(self, batch_index: int, ids: np.ndarray,
                     draws: np.ndarray) -> Batch:
        manifest = self.manifest
        extents = record_extents(manifest, ids)
        # one backend call reads every record of the batch into one buffer
        buf = np.empty(int(manifest.length[ids].sum()), dtype=np.uint8)
        try:
            self.backend.read_into(extents, buf)
        except ReadError as exc:
            # a bad record read before the failed one fails first
            self._read_each(ids[:exc.index], buf)
            raise WorkerError(int(ids[exc.index]), exc.cause) from exc.cause
        pixels = decode_records(manifest, ids, buf)
        if pixels is None:
            # a header check failed: name the first bad record and its error
            first = self._read_each(ids, buf)[0]
            height, width = first.height, first.width
        else:
            height, width = pixels.shape[1:3]
        # A stack that does not fit the images fails on the batch's first
        # sample, the one a per-sample build would have failed on.
        tcfg = self.config.transform
        try:
            tcfg.resolved_cutout_side(height, width)
        except ValueError as exc:
            raise WorkerError(int(ids[0]), exc) from exc
        if pixels is None:  # every record is sound, so their shapes differ
            raise ValueError("heterogeneous sample shapes")
        return Batch(X=apply_draws(pixels, tcfg, draws), y=manifest.label[ids],
                     batch_index=batch_index, ids=ids)

    def _read_each(self, ids: np.ndarray, buf: np.ndarray) -> list[ImageRecord]:
        """``read_record`` over the records in ``buf``, in order; the first
        failure raises ``WorkerError`` for its sample."""
        ends = np.cumsum(self.manifest.length[ids]).tolist()
        records = []
        for sid, start, end in zip(ids.tolist(), [0] + ends, ends):
            try:
                records.append(read_record(self.manifest, sid, self.backend,
                                           buf[start:end].tobytes()))
            except Exception as exc:
                raise WorkerError(sid, exc) from exc
        return records

    def next_batch(self) -> Batch | None:
        """The next batch in order, or None at end of epoch (and after shutdown)."""
        if self._closed:
            return None
        if self._plan is None:
            self.start_epoch()
        b = self._delivered
        if b >= len(self._plan):
            self._abandon_epoch()
            return None
        try:
            if self._pool is None:
                batch = self._build_batch(b, *self._plan[b])
            else:
                batch = self._pending.popleft().result()
        except BaseException:
            self._abandon_epoch()
            raise
        self._delivered += 1
        self._prefetch()
        return batch

    def __iter__(self):
        self._abandon_epoch()  # restarting iteration abandons any unfinished epoch
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch
