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
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import SPLITS, load_manifest
from .model import LinearModel, flatten_batch, synthetic_consumer
from .pipeline import DataLoader, LoaderConfig
from .prng import SplitMix64
from .storage import (
    CacheConfig,
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
            backend = CachedBackend(backend, CacheConfig(self.cache_bytes))
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
        sampler = self.loader.sampler
        latency = self.backend.latency
        return {
            "split": self.split,
            "batch_size": self.loader.batch_size,
            "num_workers": self.loader.num_workers,
            "prefetch_depth": self.loader.resolved_prefetch_depth,
            "drop_last": self.loader.drop_last,
            "sampler_kind": sampler.kind,
            "filter_classes": (sorted(sampler.classes) if sampler.classes else None),
            "rank": sampler.rank,
            "world_size": sampler.world_size,
            "seed": sampler.seed,
            "transform_seed": self.loader.transform.seed,
            "backend": self.backend.kind,
            "endpoint": self.backend.endpoint,
            "latency_mean_ms": latency.mean_ms if latency else 0.0,
            "latency_std_ms": latency.std_ms if latency else 0.0,
            "latency_min_ms": latency.min_ms if latency else 0.0,
            "latency_distribution": latency.distribution if latency else None,
            "cache_bytes": self.backend.cache_bytes,
            "run_model": self.run_model,
            "consumer_delay_s": self.consumer_delay_s,
            "epochs": self.epochs,
            "cutoff_batches": self.cutoff_batches,
            "cutoff_seconds": self.cutoff_seconds,
            "warmup_batches": self.warmup_batches,
            "speed_window": self.speed_window,
            "replicas": self.replicas,
        }


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

    def to_row(self) -> dict:
        fp = self.fingerprint
        classes = fp.get("filter_classes")
        return {
            "split": fp.get("split"),
            "batch_size": fp.get("batch_size"),
            "num_workers": fp.get("num_workers"),
            "prefetch_depth": fp.get("prefetch_depth"),
            "backend": fp.get("backend"),
            "latency_mean_ms": fp.get("latency_mean_ms"),
            "run_model": fp.get("run_model"),
            "filter_classes": ";".join(str(c) for c in classes) if classes else "",
            "replicas": fp.get("replicas"),
            "seed": fp.get("seed"),
            "repetition": self.repetition,
            "m": self.m,
            "N": self.N,
            "t_f": self.t_f,
            "init_train_s": self.init_times.get("train", 0.0),
            "init_val_s": self.init_times.get("val", 0.0),
            "init_test_s": self.init_times.get("test", 0.0),
            "first_batch_s": self.first_batch_s,
            "error": "",
        }


def _batch_digest(batch) -> str:
    h = hashlib.md5()
    h.update(np.ascontiguousarray(batch.X).tobytes())
    h.update(np.ascontiguousarray(batch.y).tobytes())
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
        processed_ids=list(loader.stats.delivered_ids),
        batch_digests=digests,
    )


def run_repetitions(config: BenchConfig) -> list[RunResult]:
    return [run_loop(config, repetition=r) for r in range(config.repetitions)]


@dataclass
class ReplicatedResult:
    replicas: list[RunResult]
    aggregate_speed: float


class ReplicaError(BenchError):
    def __init__(self, rank: int, cause: BaseException) -> None:
        super().__init__(f"replica {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


def run_replicated(config: BenchConfig, world_size: int,
                   repetition: int = 0) -> ReplicatedResult:
    """Run ``world_size`` independent consumers on disjoint shards, concurrently.

    Each replica gets its own loader, backend, and model copy; the aggregate
    speed is the sum of per-replica speeds over the same wall-clock window.
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")

    def replica_config(rank: int) -> BenchConfig:
        sampler = replace(config.loader.sampler, rank=rank, world_size=world_size)
        return replace(config,
                       loader=replace(config.loader, sampler=sampler),
                       replicas=world_size)

    if world_size == 1:
        result = run_loop(replica_config(0), repetition)
        return ReplicatedResult(replicas=[result], aggregate_speed=result.m)

    results: list[RunResult | None] = [None] * world_size
    failures: list[ReplicaError] = []
    barrier = threading.Barrier(world_size)

    def run_one(rank: int) -> None:
        try:
            cfg = replica_config(rank)
            barrier.wait()
            results[rank] = run_loop(cfg, repetition)
        except Exception as exc:  # surface with the replica id
            failures.append(ReplicaError(rank, exc))
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
    replicas = [r for r in results if r is not None]
    return ReplicatedResult(replicas=replicas,
                            aggregate_speed=sum(r.m for r in replicas))


# -- sweeps and tuning ----------------------------------------------------

SWEEP_AXES = ("batch_size", "num_workers", "backend", "run_model", "filter_classes")


def _sweep_variant(base: BenchConfig, combo: dict) -> BenchConfig:
    loader = base.loader
    sampler = loader.sampler
    if combo.get("filter_classes"):
        sampler = replace(sampler, kind="filter_indexed",
                          classes=frozenset(combo["filter_classes"]))
    elif "filter_classes" in combo:
        sampler = replace(sampler, kind=sampler.kind
                          if sampler.kind not in ("filter_indexed", "filter_naive")
                          else "shuffle", classes=None)
    loader = replace(loader,
                     batch_size=combo.get("batch_size", loader.batch_size),
                     num_workers=combo.get("num_workers", loader.num_workers),
                     sampler=sampler)
    backend = base.backend
    if "backend" in combo:
        value = combo["backend"]
        if isinstance(value, str):
            backend = replace(backend, kind=value)
        else:
            backend = BackendConfig(
                kind=value.get("kind", backend.kind),
                root=value.get("root", backend.root),
                endpoint=value.get("endpoint", backend.endpoint),
                latency=(LatencyModel(**value["latency"])
                         if value.get("latency") else backend.latency),
                cache_bytes=value.get("cache_bytes", backend.cache_bytes))
    run_model = combo.get("run_model", base.run_model)
    return replace(base, loader=loader, backend=backend, run_model=run_model)


def sweep(grid: dict, base: BenchConfig,
          out_dir: str | Path | None = None) -> list[dict]:
    """Run every grid combination x repetitions; one row per run.

    Rows from failed runs carry the error message and the sweep continues.
    When ``out_dir`` is given, results land in ``results.csv`` and
    ``results.json`` underneath it.
    """
    axes = {name: values for name, values in grid.items() if name in SWEEP_AXES}
    unknown = set(grid) - set(axes)
    if unknown:
        raise ValueError(f"unknown sweep axes: {sorted(unknown)}")
    if not axes or any(len(v) == 0 for v in axes.values()):
        raise ValueError("sweep grid is empty")

    names = sorted(axes)
    rows: list[dict] = []
    for values in itertools.product(*(axes[n] for n in names)):
        combo = dict(zip(names, values))
        config = _sweep_variant(base, combo)
        for rep in range(base.repetitions):
            try:
                result = run_loop(config, repetition=rep)
                # CSV keeps the fixed columns; JSON rows keep the whole fingerprint
                rows.append({**result.to_row(), "fingerprint": result.fingerprint})
            except Exception as exc:
                row = {col: "" for col in RESULT_COLUMNS}
                row.update({
                    "split": config.split,
                    "batch_size": config.loader.batch_size,
                    "num_workers": config.loader.num_workers,
                    "prefetch_depth": config.loader.resolved_prefetch_depth,
                    "backend": config.backend.kind,
                    "run_model": config.run_model,
                    "repetition": rep,
                    "error": str(exc),
                })
                rows.append(row)
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
    best_result: RunResult
    trials: list[tuple[LoaderConfig, RunResult | None, str | None]]


def tune_for_speed(space: list[LoaderConfig], base: BenchConfig,
                   budget: int, seed: int = 0) -> TuneResult:
    """Random search without replacement over loader configs, maximizing m.

    Each candidate is evaluated by ``run_loop`` under ``base`` (which should
    carry a short cutoff); a budget at least the size of the space makes the
    search exhaustive.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not space:
        raise ValueError("empty search space")

    order = list(range(len(space)))
    rng = SplitMix64(seed)
    for i in range(len(order) - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]

    trials: list[tuple[LoaderConfig, RunResult | None, str | None]] = []
    best: tuple[float, LoaderConfig, RunResult] | None = None
    for idx in order[:budget]:
        candidate = space[idx]
        try:
            result = run_loop(replace(base, loader=candidate))
        except Exception as exc:
            trials.append((candidate, None, str(exc)))
            continue
        trials.append((candidate, result, None))
        if best is None or result.m > best[0]:
            best = (result.m, candidate, result)
    if best is None:
        raise BenchError("all tuning candidates failed")
    return TuneResult(best=best[1], best_result=best[2], trials=trials)


# -- analysis -------------------------------------------------------------

@dataclass
class AnalysisResult:
    pearson_r: float
    t_statistic: float
    n: int


def pearson(xs, ys) -> AnalysisResult:
    """Product-moment correlation and its t statistic."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d and equally long")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance")
    r = float((dx * dy).sum() / math.sqrt(sxx * syy))
    r = max(-1.0, min(1.0, r))
    if abs(r) < 1.0:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
    else:
        t = math.copysign(math.inf, r)
    return AnalysisResult(pearson_r=r, t_statistic=t, n=n)


def _total_time(result) -> float:
    return result.t_f if isinstance(result, RunResult) else float(result)


def slowdown_pct(baseline, other) -> float:
    """Percent increase in total running time over the baseline."""
    t_base = _total_time(baseline)
    t_other = _total_time(other)
    if t_base <= 0:
        raise ValueError("baseline time must be positive")
    return (t_other - t_base) / t_base * 100.0


def max_speed(results, group_key) -> dict:
    """Per-group maximum of m; ``group_key`` is a fingerprint field or callable."""
    if callable(group_key):
        key_fn = group_key
    else:
        key_fn = lambda res: res.fingerprint.get(group_key)  # noqa: E731
    table: dict = {}
    for res in results:
        key = key_fn(res)
        if key not in table or res.m > table[key]:
            table[key] = res.m
    return table


@dataclass
class TimingBands:
    """Per-phase durations behind a stacked-bar view of one run."""

    init_s: float
    batch_bands: list[float]
    wrapup_s: float
    total_s: float

    @property
    def first_batch_s(self) -> float:
        return self.batch_bands[0] if self.batch_bands else 0.0


def timing_bands(result: RunResult) -> TimingBands:
    init_s = float(sum(result.init_times.values()))
    bands = list(result.per_batch_seconds)
    wrapup = result.t_f - init_s - float(sum(bands))
    return TimingBands(init_s=init_s, batch_bands=bands,
                       wrapup_s=wrapup, total_s=result.t_f)
