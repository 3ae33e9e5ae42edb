"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All criteria run on the desk-scale dataset (2000/200/100 samples of
64x64x3, 20 classes, seed 7) provided by the session fixture.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import closing, contextmanager

import numpy as np
import pytest

from loadbench.bench import (
    BackendConfig,
    BenchConfig,
    aggregate_speeds,
    run,
    run_loop,
    tune_for_speed,
)
from loadbench.model import LinearModel
from loadbench.pipeline import DataLoader, LoaderConfig
from loadbench.prng import SplitMix64
from loadbench.report import slowdown_pct
from loadbench.sampling import SamplerConfig, epoch_order
from loadbench.server import serve
from loadbench.storage import (
    HTTPBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
)
from loadbench.transforms import TransformConfig

SEED = 7


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {name}")
        raise
    print(f"[criterion {num:02d}] PASS  {name}")


def _loader_config(batch_size=64, num_workers=0, prefetch_depth=None, **kwargs):
    sampler = kwargs.pop("sampler", SamplerConfig(kind="shuffle", seed=SEED))
    return LoaderConfig(batch_size=batch_size, num_workers=num_workers,
                        prefetch_depth=prefetch_depth, sampler=sampler,
                        transform=TransformConfig(seed=SEED), **kwargs)


def _bench_config(root, latency=None, **kwargs):
    loader = kwargs.pop("loader", None) or _loader_config(
        batch_size=kwargs.pop("batch_size", 64),
        num_workers=kwargs.pop("num_workers", 0),
        prefetch_depth=kwargs.pop("prefetch_depth", None))
    backend = kwargs.pop("backend", None) or BackendConfig(
        kind="local", root=str(root), latency=latency)
    return BenchConfig(loader=loader, backend=backend, **kwargs)


def _digest(batch) -> str:
    h = hashlib.md5()
    h.update(np.ascontiguousarray(batch.X).tobytes())
    h.update(batch.y.tobytes())
    return h.hexdigest()


def _epoch_digests(config, manifest, backend):
    loader = DataLoader(config, manifest, backend)
    try:
        return [_digest(b) for b in loader]
    finally:
        loader.shutdown()


def test_criterion_01_determinism(random_small):
    root, manifests = random_small
    manifest = manifests["train"]
    local = LocalBackend(root)
    memory = MemoryBackend.load(local)
    with criterion(1, "batches byte-identical over workers x backends (9 combos)"):
        with serve(root) as server, \
                closing(HTTPBackend(server.endpoint)) as http:
            backends = {"local": local, "memory": memory, "http": http}
            reference = None
            for workers in (0, 1, 2):
                for name, backend in backends.items():
                    digests = _epoch_digests(_loader_config(num_workers=workers),
                                             manifest, backend)
                    assert len(digests) == math.ceil(2000 / 64)
                    if reference is None:
                        reference = digests
                    else:
                        assert digests == reference, (workers, name)


def test_criterion_02_gradient_check():
    with criterion(2, "gradients match finite differences; loss(0) = ln K"):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            D = int(rng.integers(1, 9))
            K = int(rng.integers(2, 5))
            B = int(rng.integers(1, 6))
            model = LinearModel(W=rng.normal(size=(K, D)),
                                b=rng.normal(size=K))
            X = rng.normal(size=(B, D))
            y = rng.integers(0, K, size=B)
            _, dW, db = model.loss_and_grads(X, y)
            eps = 1e-6
            fd_W = np.zeros_like(model.W)
            for idx in np.ndindex(model.W.shape):
                saved = model.W[idx]
                model.W[idx] = saved + eps
                up, _, _ = model.loss_and_grads(X, y)
                model.W[idx] = saved - eps
                down, _, _ = model.loss_and_grads(X, y)
                model.W[idx] = saved
                fd_W[idx] = (up - down) / (2 * eps)
            fd_b = np.zeros_like(model.b)
            for k in range(K):
                saved = model.b[k]
                model.b[k] = saved + eps
                up, _, _ = model.loss_and_grads(X, y)
                model.b[k] = saved - eps
                down, _, _ = model.loss_and_grads(X, y)
                model.b[k] = saved
                fd_b[k] = (up - down) / (2 * eps)
            scale = max(np.abs(fd_W).max(), np.abs(fd_b).max(), 1e-8)
            assert np.abs(dW - fd_W).max() / scale < 1e-4
            assert np.abs(db - fd_b).max() / scale < 1e-4

            zero = LinearModel(W=np.zeros((K, D)), b=np.zeros(K))
            loss, _, _ = zero.loss_and_grads(X, y)
            assert abs(loss - math.log(K)) < 1e-9


def test_criterion_03_pipelining(random_small):
    root, _ = random_small
    latency = LatencyModel(mean_ms=10.0)
    with criterion(3, "2 workers >= 1.5x zero workers under 10 ms read latency"):
        slow = run_loop(_bench_config(root, latency=latency, batch_size=16,
                                      num_workers=0, cutoff_batches=11))
        fast = run_loop(_bench_config(root, latency=latency, batch_size=16,
                                      num_workers=2, prefetch_depth=4,
                                      cutoff_batches=11))
        assert fast.m >= 1.5 * slow.m, (fast.m, slow.m)


def test_criterion_04_batch_size_effect(random_small):
    root, _ = random_small
    with criterion(4, "speed(batch 128) > speed(batch 16) with 5 ms consumer"):
        small = run_loop(_bench_config(root, batch_size=16, cutoff_batches=11,
                                       consumer_delay_s=0.005))
        large = run_loop(_bench_config(root, batch_size=128, cutoff_batches=11,
                                       consumer_delay_s=0.005))
        assert large.m > small.m, (large.m, small.m)


def test_criterion_05_warmup_effect(random_small):
    root, _ = random_small
    latency = LatencyModel(mean_ms=10.0)
    with criterion(5, "first batch > 1.5x median of 1..9; m excludes batch 0"):
        result = run_loop(_bench_config(root, latency=latency, batch_size=16,
                                        num_workers=2, prefetch_depth=4,
                                        cutoff_batches=10))
        durs = result.per_batch_seconds
        assert len(durs) == 10
        assert durs[0] > 1.5 * float(np.median(durs[1:10])), durs
        assert result.N == 9 * 16
        assert math.isclose(result.m, result.N / sum(durs[1:10]), rel_tol=1e-12)


def test_criterion_06_speed_time_correlation(random_small):
    root, _ = random_small
    from loadbench.report import pearson
    # a 1 ms constant latency on each batch read keeps loading cost
    # non-trivial; with pure in-cache reads the 10-batch window measures
    # thread noise, not loading.  That window lasts a few ms, so one run's
    # speed is at the mercy of the host: each config gives its median run of
    # three, as test_run_model_never_faster compares
    latency = LatencyModel(mean_ms=1.0)
    with criterion(6, "pearson(10-batch speed, full-epoch time) < -0.8 over 12 configs"):
        speeds, times = [], []
        for batch_size in (16, 64):
            for workers in (0, 1, 2):
                for run_model in (False, True):
                    runs = sorted((run_loop(_bench_config(
                        root, latency=latency, batch_size=batch_size,
                        num_workers=workers, run_model=run_model))
                        for _ in range(3)), key=lambda r: r.m)
                    speeds.append(runs[1].m)
                    times.append(runs[1].t_f)
        answer = pearson(speeds, times)
        assert answer.n == 12
        assert answer.pearson_r < -0.8, (answer.pearson_r, speeds, times)


def test_criterion_07_remote_ordering(random_small):
    root, _ = random_small
    aws = LatencyModel(mean_ms=17.3, std_ms=1.3, min_ms=14.8)
    minio = LatencyModel(mean_ms=59.2, std_ms=58.5, min_ms=8.8,
                         distribution="lognormal", seed=1)

    def epoch_time(backend_config):
        result = run_loop(BenchConfig(
            loader=_loader_config(batch_size=16, num_workers=2,
                                  prefetch_depth=4),
            backend=backend_config, split="val"))
        return result.t_f

    with criterion(7, "local < AWS-like (17.3 ms) < MinIO-like (lognormal 59.2)"):
        for rep in range(3):
            t_local = epoch_time(BackendConfig(kind="local", root=str(root)))
            with serve(root, latency=aws) as server:
                t_aws = epoch_time(BackendConfig(kind="remote",
                                                 endpoint=server.endpoint))
            with serve(root, latency=minio) as server:
                t_minio = epoch_time(BackendConfig(kind="remote",
                                                   endpoint=server.endpoint))
            aws_slowdown = slowdown_pct(t_local, t_aws)
            minio_slowdown = slowdown_pct(t_local, t_minio)
            print(f"  rep {rep}: local={t_local:.2f}s "
                  f"aws={t_aws:.2f}s (+{aws_slowdown:.0f}%) "
                  f"minio={t_minio:.2f}s (+{minio_slowdown:.0f}%)")
            assert t_local < t_aws < t_minio


def test_criterion_08_filtering(random_small):
    root, manifests = random_small
    manifest = manifests["train"]
    backend = LocalBackend(root)
    classes = frozenset({0, 13})
    with criterion(8, "indexed filter = naive filter id set; index is faster"):
        t0 = time.perf_counter()
        indexed_order = epoch_order(
            SamplerConfig(kind="filter_indexed", seed=SEED, classes=classes),
            manifest, 0)
        indexed_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        naive_order = epoch_order(
            SamplerConfig(kind="filter_naive", seed=SEED, classes=classes,
                          scan_storage=True),
            manifest, 0, backend=backend)
        naive_s = time.perf_counter() - t0

        assert set(indexed_order) == set(naive_order)
        assert len(indexed_order) > 0
        assert indexed_s < naive_s, (indexed_s, naive_s)

        # processed-id sets after a full pass through the loader agree too
        ids = {}
        for kind, scan in (("filter_indexed", False), ("filter_naive", False)):
            sampler = SamplerConfig(kind=kind, seed=SEED, classes=classes,
                                    scan_storage=scan)
            loader = DataLoader(_loader_config(batch_size=16, sampler=sampler),
                                manifest, backend)
            ids[kind] = {i for batch in loader for i in batch.ids.tolist()}
        assert ids["filter_indexed"] == ids["filter_naive"]
        print(f"  index: {indexed_s * 1000:.1f}ms, naive scan: {naive_s * 1000:.1f}ms, "
              f"{len(indexed_order)} samples kept")


def test_criterion_09_replication(random_small):
    root, _ = random_small
    latency = LatencyModel(mean_ms=10.0)

    def config(replicas):
        return BenchConfig(loader=_loader_config(batch_size=8, num_workers=0),
                           backend=BackendConfig(kind="local", root=str(root),
                                                 latency=latency),
                           split="val", replicas=replicas)

    with criterion(9, "world 2 aggregate >= 1.3x world 1; disjoint full coverage"):
        [single] = aggregate_speeds(run(config(1)))
        replicas = run(config(2))
        [double] = aggregate_speeds(replicas)
        assert double >= 1.3 * single, (double, single)
        ids0 = set(replicas[0].processed_ids)
        ids1 = set(replicas[1].processed_ids)
        assert ids0.isdisjoint(ids1)
        assert ids0 | ids1 == set(range(200))
        print(f"  world1={single:.0f} samples/s, world2={double:.0f} samples/s")


def test_criterion_10_protocol_conformance(random_small):
    root, _ = random_small
    local = LocalBackend(root)
    keys = local.list("")
    rng = SplitMix64(1234)
    with criterion(10, "50 randomized ranged GETs, 404, and full GET conform"):
        with serve(root) as server:
            import urllib.error
            import urllib.request

            for _ in range(50):
                key = keys[rng.next_below(len(keys))]
                blob = local.get(key)
                start = rng.next_below(len(blob))
                end = start + rng.next_below(len(blob) - start)
                req = urllib.request.Request(
                    f"{server.endpoint}/{key}",
                    headers={"Range": f"bytes={start}-{end}"})
                with urllib.request.urlopen(req, timeout=10) as resp:
                    assert resp.status == 206
                    body = resp.read()
                    assert body == blob[start:end + 1]
                    assert (resp.headers["Content-Range"]
                            == f"bytes {start}-{end}/{len(blob)}")

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.endpoint}/no/such/key", timeout=10)
            err.value.close()  # the error holds the response, and so the socket
            assert err.value.code == 404

            key = keys[0]
            with urllib.request.urlopen(f"{server.endpoint}/{key}", timeout=10) as resp:
                assert resp.status == 200
                assert int(resp.headers["Content-Length"]) == local.size(key)
                assert resp.read() == local.get(key)


def test_criterion_11_tuning(random_small):
    root, _ = random_small
    latency = LatencyModel(mean_ms=20.0)
    with criterion(11, "tuning under 20 ms latency picks workers >= 1"):
        space = [_loader_config(batch_size=8, num_workers=w,
                                prefetch_depth=max(1, 2 * w))
                 for w in (0, 1, 2)]
        base = _bench_config(root, latency=latency, cutoff_batches=6)
        tuned = tune_for_speed(space, base, budget=3)
        # budget covers the space: this is the exhaustive evaluation
        assert len(tuned.trials) == 3
        assert all(r is not None for _, r, _ in tuned.trials)
        by_speed = max(tuned.trials, key=lambda t: t[1])
        assert tuned.best == by_speed[0]
        assert tuned.best.num_workers >= 1, tuned.best
        print("  " + ", ".join(f"workers={c.num_workers}: {m:.0f}/s"
                               for c, m, _ in tuned.trials))
