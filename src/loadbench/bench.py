"""Measurement harness: the timed training loop and everything around it.

One run times dataloader initialization for each split, then iterates the
chosen split, per batch: copy into a staging buffer (the device-transfer
analog, always), then optionally a real forward/backward/SGD step and/or a
fixed-delay consumer.  The first ``warmup_batches`` batches are excluded
from the speed metric because lazy initialization makes them atypical; the
reported speed m is samples per second over the first ``speed_window``
counted batches (all of them when the window is None), so
m * (counted elapsed) == N exactly.

A cutoff stops the run early: ``cutoff_batches`` counts processed batches
(warm-up included), ``cutoff_seconds`` is checked against the epoch clock
when a batch arrives, before it is processed.

``run_loop`` is one such run.  ``run`` is what the CLI's bench, sweep and
tune all call: the config's repetitions, each as its replicas running
concurrently.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import encode, override
from .dataset import SPLITS, load_manifest
from .model import LinearModel, flatten_batch, synthetic_consumer
from .pipeline import DataLoader, LoaderConfig
from .prng import fisher_yates
from .sampling import FILTER_KINDS
from .storage import (
    CachedBackend,
    HTTPBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    NotFoundError,
    StorageBackend,
    with_latency,
)

ENDPOINT_ENV = "LOADBENCH_ENDPOINT"

RESULT_COLUMNS = [
    "split", "batch_size", "num_workers", "prefetch_depth", "backend",
    "latency_mean_ms", "run_model", "filter_classes", "replicas", "seed",
    "repetition", "m", "N", "t_f", "init_train_s", "init_val_s",
    "init_test_s", "first_batch_s", "error",
]


class BenchError(Exception):
    """Invalid benchmark configuration or an unrunnable benchmark."""


@dataclass
class BackendConfig:
    """Where the dataset bytes come from and how slowly they arrive."""

    kind: str = "local"  # local | memory | remote
    root: str | None = None
    endpoint: str | None = None
    latency: LatencyModel | None = None
    cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("local", "memory", "remote"):
            raise ValueError(f"unknown backend kind {self.kind!r}")

    def resolve_endpoint(self) -> str:
        endpoint = self.endpoint or os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise BenchError(
                f"remote backend needs an endpoint (flag or ${ENDPOINT_ENV})")
        return endpoint

    def build(self) -> StorageBackend:
        if self.kind == "remote":
            backend: StorageBackend = HTTPBackend(self.resolve_endpoint())
        else:
            if not self.root:
                raise BenchError(f"backend kind {self.kind!r} needs a dataset root")
            backend = LocalBackend(self.root)
            if self.kind == "memory":
                backend = MemoryBackend.load(backend)
        if self.latency is not None:
            backend = with_latency(backend, self.latency)
        if self.cache_bytes > 0:
            backend = CachedBackend(backend, self.cache_bytes)
        return backend


@dataclass
class BenchConfig:
    loader: LoaderConfig = field(default_factory=LoaderConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    split: str = "train"
    epochs: int = 1
    cutoff_batches: int | None = None
    cutoff_seconds: float | None = None
    run_model: bool = False
    warmup_batches: int = 1
    speed_window: int | None = 10
    repetitions: int = 1
    replicas: int = 1
    consumer_delay_s: float = 0.0
    model_learning_rate: float = 0.01
    model_seed: int = 0
    capture_digests: bool = False

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.cutoff_batches is not None and self.cutoff_batches <= 0:
            raise ValueError("cutoff_batches must be positive when set")
        if self.cutoff_seconds is not None and self.cutoff_seconds <= 0:
            raise ValueError("cutoff_seconds must be positive when set")
        if self.warmup_batches < 0:
            raise ValueError("warmup_batches must be >= 0")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.consumer_delay_s < 0:
            raise ValueError("consumer_delay_s must be >= 0")

    def fingerprint(self) -> dict:
        """The whole config as plain JSON; ``decode(BenchConfig, fp)``
        rebuilds it, so any result row can be run again."""
        return encode(self)


@dataclass
class RunResult:
    """One run's outputs: the speed metric plus everything timed on the way."""

    m: float
    N: int
    t_f: float
    init_times: dict[str, float]
    per_batch_seconds: list[float]
    epoch_times: list[float]
    counted_batches: int
    fingerprint: dict
    repetition: int = 0
    processed_ids: list[int] = field(default_factory=list)
    batch_digests: list[str] = field(default_factory=list)

    @property
    def first_batch_s(self) -> float:
        return self.per_batch_seconds[0] if self.per_batch_seconds else 0.0


def result_row(config: BenchConfig, result: RunResult | None = None,
               error: str = "", repetition: int = 0) -> dict:
    """One result row of ``config``: the ``results.csv`` columns, with the
    run's metrics (left empty for a failed run), then ``fingerprint``.

    The fingerprint is the config that ``result`` itself ran (a replica's
    carries its sampler rank), or ``config``'s for a failed run; either
    runs again through ``decode`` and ``run_loop`` or ``run``.
    """
    loader, latency = config.loader, config.backend.latency
    row = dict.fromkeys(RESULT_COLUMNS, "")
    row.update(
        split=config.split, batch_size=loader.batch_size,
        num_workers=loader.num_workers,
        prefetch_depth=loader.resolved_prefetch_depth,
        backend=config.backend.kind,
        latency_mean_ms=latency.mean_ms if latency else 0.0,
        run_model=config.run_model,
        filter_classes=";".join(map(str, sorted(loader.sampler.classes or ()))),
        replicas=config.replicas, seed=loader.sampler.seed,
        repetition=repetition, error=error)
    if result is not None:
        row.update(m=result.m, N=result.N, t_f=result.t_f,
                   first_batch_s=result.first_batch_s,
                   repetition=result.repetition,
                   **{f"init_{s}_s": result.init_times.get(s, 0.0) for s in SPLITS})
    row["fingerprint"] = result.fingerprint if result else config.fingerprint()
    return row


def _batch_digest(batch) -> str:
    h = hashlib.md5()  # hashes the arrays' buffers, without a bytes copy
    h.update(np.ascontiguousarray(batch.X).data)
    h.update(np.ascontiguousarray(batch.y).data)
    return h.hexdigest()


def run_loop(config: BenchConfig, repetition: int = 0) -> RunResult:
    """Execute one measured run and return its result."""
    backend = config.backend.build()
    try:
        return _measure(config, backend, repetition)
    finally:
        backend.close()


def _measure(config: BenchConfig, backend: StorageBackend,
             repetition: int) -> RunResult:
    t0 = time.perf_counter()

    init_times: dict[str, float] = {}
    loaders: dict[str, DataLoader] = {}
    for split in SPLITS:
        s0 = time.perf_counter()
        try:
            manifest = load_manifest(backend, split)
        except NotFoundError:
            continue
        loader = DataLoader(config.loader, manifest, backend)
        init_times[split] = time.perf_counter() - s0
        loaders[split] = loader

    if config.split not in loaders:
        raise BenchError(f"dataset unreachable: no manifest for {config.split!r}")
    loader = loaders[config.split]
    spec = loader.manifest.spec

    model = None
    if config.run_model:
        model = LinearModel.create(spec.sample_nbytes, spec.n_classes,
                                   learning_rate=config.model_learning_rate,
                                   seed=config.model_seed)
    consume = (synthetic_consumer(config.consumer_delay_s)
               if config.consumer_delay_s > 0 else None)
    staging = np.empty(
        (config.loader.batch_size, spec.channels, spec.height, spec.width),
        dtype=np.float32)

    per_batch: list[float] = []
    epoch_times: list[float] = []
    digests: list[str] = []
    processed_ids: list[int] = []
    counted_sizes: list[int] = []
    counted_durs: list[float] = []
    warm_left = config.warmup_batches
    processed = 0
    stopped = False

    try:
        for _epoch in range(config.epochs):
            te0 = time.perf_counter()
            t_prev = te0
            for batch in loader:
                arrived = time.perf_counter()
                if (config.cutoff_seconds is not None
                        and arrived - te0 >= config.cutoff_seconds):
                    stopped = True
                    break

                staging[: len(batch)] = batch.X  # device-transfer analog
                if model is not None:
                    model.train_step(flatten_batch(batch.X), batch.y)
                if consume is not None:
                    consume(batch)

                t_now = time.perf_counter()
                per_batch.append(t_now - t_prev)
                t_prev = t_now
                processed += 1
                processed_ids.extend(batch.ids.tolist())
                if config.capture_digests:
                    digests.append(_batch_digest(batch))

                if warm_left > 0:
                    warm_left -= 1
                elif (config.speed_window is None
                        or len(counted_sizes) < config.speed_window):
                    counted_sizes.append(len(batch))
                    counted_durs.append(per_batch[-1])

                if (config.cutoff_batches is not None
                        and processed >= config.cutoff_batches):
                    stopped = True
                    break
            epoch_times.append(time.perf_counter() - te0)
            if stopped:
                break
    finally:
        for l in loaders.values():
            l.shutdown()

    t_f = time.perf_counter() - t0
    if processed == 0:
        raise BenchError("no batches")

    N = int(sum(counted_sizes))
    t_e = float(sum(counted_durs))
    m = N / t_e if t_e > 0 else 0.0
    return RunResult(
        m=m, N=N, t_f=t_f,
        init_times=init_times,
        per_batch_seconds=per_batch,
        epoch_times=epoch_times,
        counted_batches=len(counted_sizes),
        fingerprint=config.fingerprint(),
        repetition=repetition,
        processed_ids=processed_ids,
        batch_digests=digests,
    )


class ReplicaError(BenchError):
    def __init__(self, rank: int, cause: BaseException,
                 repetition: int) -> None:
        super().__init__(
            f"replica {rank} of repetition {repetition} failed: {cause!r}")
        self.rank = rank
        self.cause = cause
        self.repetition = repetition


def run(config: BenchConfig) -> list[RunResult]:
    """``config.repetitions`` repetitions of ``config.replicas`` concurrent
    consumers; the results come in repetition order, then rank order.

    Replica ``rank`` of a repetition runs ``run_loop`` with the sampler's
    ``rank`` and ``world_size`` set to (rank, replicas), so the replicas read
    disjoint shards of each epoch, each with its own loader, backend and
    model.  They start together behind a barrier.  The aggregate speed of a
    repetition is the sum of its replicas' ``m`` (``aggregate_speeds``).
    A failure raises ``ReplicaError`` with the rank and repetition, once
    every replica of that repetition has stopped.
    """
    return [result for repetition in range(config.repetitions)
            for result in _run_replicas(config, repetition)]


def _run_replicas(config: BenchConfig, repetition: int) -> list[RunResult]:
    world_size = config.replicas
    results: list[RunResult | None] = [None] * world_size
    failures: list[ReplicaError] = []
    barrier = threading.Barrier(world_size)

    def run_one(rank: int) -> None:
        try:
            sampler = replace(config.loader.sampler, rank=rank,
                              world_size=world_size)
            cfg = replace(config, loader=replace(config.loader, sampler=sampler))
            barrier.wait()
            results[rank] = run_loop(cfg, repetition)
        except Exception as exc:  # surface with the replica id
            failures.append(ReplicaError(rank, exc, repetition))
            # replicas at the barrier fail too, after this one, with
            # BrokenBarrierError, instead of waiting forever
            barrier.abort()

    threads = [threading.Thread(target=run_one, args=(rank,),
                                name=f"loadbench-replica-{rank}")
               for rank in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return results


def aggregate_speeds(results: list[RunResult]) -> list[float]:
    """Per repetition, in order, the sum of its replicas' ``m``."""
    speeds: dict[int, float] = {}
    for result in results:
        speeds[result.repetition] = speeds.get(result.repetition, 0.0) + result.m
    return list(speeds.values())


# -- sweeps and tuning ----------------------------------------------------

# sweep axes are dotted config paths; these short names stay as aliases
AXIS_ALIASES = {"batch_size": "loader.batch_size",
                "num_workers": "loader.num_workers",
                "prefetch_depth": "loader.prefetch_depth"}


def with_filter(config: BenchConfig, classes,
                kind: str | None = None) -> BenchConfig:
    """``config`` filtered to ``classes``; None or empty removes the filter.

    A filtering sampler keeps its kind unless ``kind`` names one, any other
    sampler becomes ``filter_indexed``.  Without a filter, a filtering
    sampler becomes ``shuffle``.
    """
    current = config.loader.sampler.kind
    if classes:
        kind = kind or (current if current in FILTER_KINDS else "filter_indexed")
    else:
        kind = "shuffle" if current in FILTER_KINDS else current
    return override(config, "loader.sampler",
                    {"kind": kind, "classes": classes or None})


def expand(grid: dict, base: BenchConfig) -> list[BenchConfig]:
    """``base`` under each combination of the grid's axis values.

    Axes are dotted config paths, the ``AXIS_ALIASES`` or
    ``filter_classes`` (see ``with_filter``); combinations come in
    ``itertools.product`` order over the sorted axis names.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("sweep grid is empty")
    names = sorted(grid)
    configs = []
    for values in itertools.product(*(grid[n] for n in names)):
        config = base
        for name, value in zip(names, values):
            config = (with_filter(config, value) if name == "filter_classes"
                      else override(config, AXIS_ALIASES.get(name, name), value))
        configs.append(config)
    return configs


def sweep(grid: dict, base: BenchConfig,
          out_dir: str | Path | None = None) -> list[dict]:
    """``run`` every grid combination; one row per replica run.

    A combination whose run fails gives one row instead, for the failed
    repetition, with the exception type and message in ``error``, and the
    sweep continues.  When ``out_dir`` is given, results land in
    ``results.csv`` (fixed columns) and ``results.json`` underneath it.
    """
    rows: list[dict] = []
    for config in expand(grid, base):
        try:
            rows.extend(result_row(config, result) for result in run(config))
        except ReplicaError as exc:
            rows.append(result_row(
                config, error=f"{type(exc.cause).__name__}: {exc.cause}",
                repetition=exc.repetition))
    if out_dir is not None:
        write_rows(rows, out_dir)
    return rows


def write_rows(rows: list[dict], out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    json_path = out / "results.json"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    json_path.write_text(json.dumps(rows, indent=2, default=str))
    return csv_path, json_path


@dataclass
class TuneResult:
    best: LoaderConfig
    best_m: float
    trials: list[tuple[LoaderConfig, float | None, str | None]]  # (config, m, error)


def tune_for_speed(space: list[LoaderConfig], base: BenchConfig,
                   budget: int, seed: int = 0) -> TuneResult:
    """Random search without replacement over loader configs, maximizing m.

    Each candidate is ``run`` under ``base`` (which should carry a short
    cutoff) and scored by its best repetition's aggregate speed; a budget
    at least the size of the space makes the search exhaustive.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not space:
        raise ValueError("empty search space")

    order = fisher_yates(len(space), seed)
    trials: list[tuple[LoaderConfig, float | None, str | None]] = []
    best: tuple[float, LoaderConfig] | None = None
    for idx in order[:budget]:
        candidate = space[idx]
        try:
            m = max(aggregate_speeds(run(replace(base, loader=candidate))))
        except ReplicaError as exc:
            trials.append((candidate, None, str(exc)))
            continue
        trials.append((candidate, m, None))
        if best is None or m > best[0]:
            best = (m, candidate)
    if best is None:
        raise BenchError("all tuning candidates failed")
    return TuneResult(best=best[1], best_m=best[0], trials=trials)
