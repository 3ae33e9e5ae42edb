"""The dataloader: (manifest, backend, sampler, transforms) -> batches.

Each epoch cuts the sampler's order into batches.  With workers, batches
are built on a thread pool: the loader keeps a deque of futures in batch
order and, after each delivery, tops it up to ``prefetch_depth``.  Delivery
pops the leftmost future, so batches arrive strictly in order and their
bytes depend only on the seeds, never on worker count, prefetch depth, or
backend latency.  No more than ``prefetch_depth`` batches of an epoch are
queued, being built, or finished but undelivered.  With zero workers each
batch is built in the caller when it is asked for.  A build reads its
batch's records with one ``backend.get_many`` call (concurrent over HTTP),
decodes each as it arrives, in id order, and then builds the whole batch
at once with ``apply_stack_batch``: the per-sample seeds and draws, the
uint8 gather and the float32 normalize run as array operations over the
batch, not per sample.

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
from contextlib import closing
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetManifest, read_record, record_extent
from .sampling import SamplerConfig, replica_order
from .storage import StorageBackend
from .transforms import TransformConfig, apply_stack_batch, sample_seeds
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
        self._plan: list[np.ndarray] | None = None  # the epoch's batches
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
        batch_size = self.config.batch_size
        ids = order.ids
        n_full = len(ids) // batch_size
        cuts = [ids[i * batch_size:(i + 1) * batch_size] for i in range(n_full)]
        if not self.config.drop_last and len(ids) % batch_size:
            cuts.append(ids[n_full * batch_size:])
        self._plan = cuts
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
                self._pool.submit(self._build_batch, self._epoch, b, plan[b]))

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

    def _build_batch(self, epoch: int, batch_index: int,
                     ids: np.ndarray) -> Batch:
        sids = ids.tolist()
        tcfg = self.config.transform
        records = []
        # one backend call reads every record of the batch, in id order
        with closing(self.backend.get_many(
                [record_extent(self.manifest, sid) for sid in sids])) as bufs:
            for sid in sids:
                try:
                    records.append(read_record(self.manifest, sid,
                                               self.backend, next(bufs)))
                except Exception as exc:
                    raise WorkerError(sid, exc) from exc
        # A stack that does not fit the images fails on the batch's first
        # sample, the one a per-sample build would have failed on.
        first = records[0]
        try:
            tcfg.resolved_cutout_side(first.height, first.width)
        except ValueError as exc:
            raise WorkerError(sids[0], exc) from exc
        X = apply_stack_batch(records, tcfg,
                              sample_seeds(tcfg.seed, epoch, ids))
        y = np.array([r.label for r in records], dtype=np.int64)
        return Batch(X=X, y=y, batch_index=batch_index, ids=ids)

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
                batch = self._build_batch(self._epoch, b, self._plan[b])
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
