"""The dataloader: (manifest, backend, sampler, transforms) -> batches.

Each epoch cuts the sampler's order into batches.  With workers, batches
are built on a thread pool: the loader keeps a deque of futures in batch
order and, after each delivery, tops it up to ``prefetch_depth``.  A batch
enters that window with its read started: the consumer thread calls
``backend.start_read`` on the batch's record extents as it submits the
build, so the window, not the worker count, sets how many batch reads are
in flight (over HTTP, wrapped in a cache or latency or not, their GETs go
out then, and a latency wrapper's wait counts from then; other backends
read when the build finishes the read).  Delivery
pops the leftmost future, so batches arrive strictly in order and their
bytes depend only on the seeds, never on worker count, prefetch depth, or
backend latency.  With zero workers each batch is built in the caller when
it is asked for.

The window slides across epoch boundaries.  Once every batch of epoch e is
submitted and the window has room, the loader plans epoch e + 1 and submits
its first batches behind e's last, so they are built, or being built, when
the consumer starts that epoch.  It looks one epoch ahead at most, and the
bound holds across the boundary: no more than ``prefetch_depth`` batches,
of e and e + 1 together, are queued, being built, or finished but
undelivered.  ``DataLoader(..., epochs=n)`` says that the caller iterates
epochs 0 to n - 1, and no batch of epoch n is ever planned or built; with
``epochs=None`` the lookahead runs on until ``shutdown()`` drops it.

Planning an epoch (``_plan_epoch``) is one path for ``start_epoch`` and the
lookahead alike.  It runs on the consumer thread: the sampler's order, and
the epoch's augmentation, where ``sample_seeds`` and ``draw_stack`` run
once over the whole order and each planned batch carries its ids and its
rows of the draws.  That is O(N) array work per epoch, the order of the
shuffle it already runs; the lookahead moves it into the previous epoch's
last deliveries.

A build works on the whole batch at every stage.  Its record extents
(shard key, offset, length) come from indexing the manifest's locator
columns with the batch's ids, and one read, started as the batch entered
the window (over HTTP, with one multi-range GET per shard), is finished
into one buffer sized from the length column; a failed read raises
``WorkerError`` for its sample when its batch is delivered, never earlier.
Starting a read raises nothing, and an id out of range fails its own
batch's build too.  ``decode_records``
views the buffer as one array, checks every header with array operations
and gives the pixels as one (B, H, W, C) uint8 view.  When a check fails,
``read_record`` runs on the batch's records in order, so the error names
the first bad record with that record's own ``DatasetError``.
``apply_draws`` then casts, flips, normalizes and cuts out the whole batch
with its draws, and the labels come from the manifest's label column.

One consumer owns the loader.  Iterating it yields one epoch; iterating
again starts the next epoch with a fresh per-epoch shuffle.  An epoch that
``start_epoch(k)`` began and that has delivered nothing is the one the next
``iter()`` yields.  After an epoch
whose batches were all delivered, the next ``iter()``, ``next_batch()`` or
``start_epoch()`` takes over the batches already built ahead for it.  Four
things cancel every queued build, the lookahead's too, and leave the
finished batches undelivered: iterating again in the middle of an epoch,
``start_epoch(k)`` for any k but e + 1, a build that raises, and
``shutdown()``.  A cancelled build's read is closed then, which gives its
connections back; a build that runs closes its own.  A lookahead
build that fails raises its ``WorkerError`` when its batch is delivered in
epoch e + 1, never during epoch e.

``shutdown()`` cancels queued builds without waiting for builds in
progress.  The pool's threads are not daemons, so at interpreter exit
Python waits for a build still in progress (and, for a loader never shut
down, for the builds still queued).  No storage request runs on a thread
of its own: a batch read's first sends run on the consumer thread as the
batch enters the window, and the rest of the read, over HTTP the
blocking reads of the responses in request order, runs in the thread that
builds the batch.  The wait is bounded by the backend's stall timeout (30 s
for HTTP), which counts from the build's ``finish``.

The pool's threads run off the consumer's CPU.  The loader reads the CPU
its constructing thread, the consumer, runs on (libc's ``sched_getcpu``),
and each pool thread pins itself to every other CPU that thread may use
(``os.sched_setaffinity`` acts on the calling thread on Linux); the
consumer stays unpinned.  Left to the kernel, a worker the consumer had
just woken ran on the consumer's CPU while the other CPU of a 2-CPU host
idled (for 96 of 96 batches), and its build preempted the training step.
The interpreter lock was not the cause: a shorter switch interval changed
nothing.  Nothing is pinned with one allowed CPU, no workers, or no
``sched_setaffinity`` or ``sched_getcpu``, and a thread whose pin fails
stays unpinned.  ``worker_cpus`` records the placement asked for.  It
touches no data path, so batch bytes do not depend on it.
"""

from __future__ import annotations

import ctypes
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import (DatasetManifest, ImageRecord, decode_records,
                      read_record, record_extents)
from .sampling import SamplerConfig, replica_order
from .storage import PendingRead, ReadError, StorageBackend
from .transforms import TransformConfig, apply_draws, draw_stack, sample_seeds
# perfbench/spans.py traces a run by rebinding names on this module: these
# two, ``read_record``, ``collate`` and ``replica_order``.  The batch build
# calls neither of these two; they stay bound so that the tracer installs.
from .transforms import apply_stack, sample_seed  # noqa: F401


class _Refused(PendingRead):
    """The read of a batch whose ids ``record_extents`` rejects: ``finish``
    raises that error, so the batch fails where it is built."""

    def __init__(self, error: Exception) -> None:
        self._error = error

    def finish(self, out) -> None:
        raise self._error


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


def _current_cpu() -> int:
    """The CPU the calling thread runs on (libc ``sched_getcpu``), or -1."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):  # no libc, or no sched_getcpu in it
        return -1
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu()


def _worker_cpus() -> tuple[int, ...] | None:
    """Every CPU the calling thread may use but the one it runs on, sorted;
    None when that leaves none or threads cannot be placed."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    cpu = _current_cpu()
    if len(allowed) < 2 or cpu not in allowed:
        return None
    return tuple(sorted(allowed - {cpu}))


def _pin(cpus: tuple[int, ...]) -> None:
    """Pin the calling thread to ``cpus``; a pool thread's initializer.

    It must not raise: a pool whose initializer raises is broken and fails
    every build.  It holds no reference to the loader, so a loader dropped
    without ``shutdown()`` still lets its pool's threads exit.
    """
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # the thread stays unpinned


class DataLoader:
    """Iterator of collated batches with worker-based prefetching."""

    def __init__(self, config: LoaderConfig, manifest: DatasetManifest,
                 backend: StorageBackend, epochs: int | None = None) -> None:
        self.config = config
        self.manifest = manifest
        self.backend = backend
        self.epochs = epochs  # epochs 0 .. epochs - 1 are iterated; None: no end
        # the CPUs the pool's threads pin themselves to; None: unpinned
        self.worker_cpus: tuple[int, ...] | None = None
        self._pool: ThreadPoolExecutor | None = None
        if config.num_workers:
            self.worker_cpus = _worker_cpus()
            self._pool = ThreadPoolExecutor(
                config.num_workers, thread_name_prefix="loadbench-worker",
                initializer=_pin if self.worker_cpus else None,
                initargs=(self.worker_cpus,))
        self._epoch = -1
        # the epoch's batches: each one's ids and its rows of the epoch's draws
        self._plan: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._ahead: list[tuple[np.ndarray, np.ndarray]] | None = None  # epoch + 1's
        self._delivered = 0
        # the next batches, in order: this epoch's, then the lookahead's
        # first; each one's build and its started read
        self._pending: deque[tuple[Future[Batch], PendingRead]] = deque()
        self._closed = False

    @property
    def buffered_batches(self) -> int:
        """Batches finished but not yet delivered, the next epoch's first
        batches included; never more than ``prefetch_depth``."""
        return sum(f.done() for f, _ in self._pending)

    # -- epoch lifecycle -------------------------------------------------

    def start_epoch(self, epoch: int | None = None) -> None:
        """Begin a new epoch (next in sequence by default); starts prefetching.

        The epoch after one whose batches were all delivered takes over the
        batches already built ahead for it; any other start abandons them.
        """
        if self._closed:
            raise RuntimeError("loader is shut down")
        epoch = self._epoch + 1 if epoch is None else epoch
        if (self._ahead is not None and epoch == self._epoch + 1
                and (self._plan is None or self._delivered == len(self._plan))):
            plan, self._ahead = self._ahead, None  # its batches lead _pending
        else:
            self._abandon_epoch()
            plan = self._plan_epoch(epoch)
        self._epoch, self._plan, self._delivered = epoch, plan, 0
        self._prefetch()

    def _plan_epoch(self, epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The epoch's batches: each one's ids and its rows of the draws."""
        order = replica_order(self.config.sampler, self.manifest, epoch,
                              backend=self.backend)
        ids, tcfg = order.ids, self.config.transform
        draws = draw_stack(tcfg, sample_seeds(tcfg.seed, epoch, ids))
        batch_size = self.config.batch_size
        stop = len(ids) - (len(ids) % batch_size if self.config.drop_last else 0)
        return [(ids[i:i + batch_size], draws[i:i + batch_size])
                for i in range(0, stop, batch_size)]

    def _prefetch(self) -> None:
        """Top the window up to ``prefetch_depth``: this epoch's next
        batches, then, once all of them are submitted, the next epoch's.
        Each batch's read starts as it enters the window."""
        if self._pool is None:
            return
        while len(self._pending) < self.config.resolved_prefetch_depth:
            plan, b = self._plan, self._delivered + len(self._pending)
            if b >= len(plan):
                if self._ahead is None:
                    if self.epochs is not None and self._epoch + 1 >= self.epochs:
                        return
                    self._ahead = self._plan_epoch(self._epoch + 1)
                plan, b = self._ahead, b - len(plan)
                if b >= len(plan):
                    return
            ids, draws = plan[b]
            read = self._start_read(ids)
            self._pending.append(
                (self._pool.submit(self._build_batch, b, ids, draws, read), read))

    def _start_read(self, ids: np.ndarray) -> PendingRead:
        """The batch's read, started; it raises nothing."""
        try:
            return self.backend.start_read(record_extents(self.manifest, ids))
        except IndexError as exc:  # an id out of range
            return _Refused(exc)

    def _abandon_epoch(self) -> None:
        """Cancel every queued build, the lookahead's too, and close its
        read; a build that runs closes its own."""
        for future, read in self._pending:
            if future.cancel():
                read.close()
        self._pending.clear()
        self._plan = self._ahead = None

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
                     draws: np.ndarray, read: PendingRead) -> Batch:
        manifest = self.manifest
        try:
            # one read puts every record of the batch into one buffer
            buf = np.empty(int(manifest.length[ids].sum()), dtype=np.uint8)
            read.finish(buf)
        except ReadError as exc:
            # a bad record read before the failed one fails first
            self._read_each(ids[:exc.index], buf)
            raise WorkerError(int(ids[exc.index]), exc.cause) from exc.cause
        finally:
            read.close()
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
            self._plan = None  # the epoch is over; its lookahead stays queued
            return None
        try:
            if self._pool is None:
                ids, draws = self._plan[b]
                batch = self._build_batch(b, ids, draws, self._start_read(ids))
            else:
                batch = self._pending.popleft()[0].result()
        except BaseException:
            self._abandon_epoch()
            raise
        self._delivered += 1
        self._prefetch()
        return batch

    def __iter__(self):
        # an epoch that has delivered nothing yet, as after start_epoch(k),
        # is iterated; restarting iteration abandons one in progress; after a
        # finished one, the next epoch takes over the batches built ahead
        if self._plan is not None and self._delivered:
            if self._delivered < len(self._plan):
                self._abandon_epoch()
            self._plan = None
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch
