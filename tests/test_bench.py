import csv
import dataclasses
import json
import math
import os
import threading

import numpy as np
import pytest

from loadbench.bench import (
    RESULT_COLUMNS,
    BackendConfig,
    BenchConfig,
    BenchError,
    ReplicaError,
    aggregate_speeds,
    expand,
    result_row,
    run,
    run_loop,
    sweep,
    tune_for_speed,
)
from loadbench.config import decode
from loadbench.dataset import DatasetSpec, generate_random_dataset
from loadbench.pipeline import LoaderConfig
from loadbench.report import pearson, rows_max_speed, slowdown_pct
from loadbench.sampling import SamplerConfig
from loadbench.storage import LatencyModel, StorageBackend
from loadbench.transforms import TransformConfig


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-data")
    spec = DatasetSpec(n_train=800, n_val=16, n_test=8, width=2, height=2,
                      channels=1, n_classes=20, seed=13)
    generate_random_dataset(spec, root, shard_capacity=200)
    return root


def _config(root, batch_size=64, num_workers=0, seed=3, **kwargs):
    loader = kwargs.pop("loader", None) or LoaderConfig(
        batch_size=batch_size, num_workers=num_workers,
        sampler=SamplerConfig(kind="shuffle", seed=seed),
        transform=TransformConfig(seed=seed))
    backend = kwargs.pop("backend", None) or BackendConfig(kind="local",
                                                           root=str(root))
    return BenchConfig(loader=loader, backend=backend, **kwargs)


def test_cutoff_batches_warmup_arithmetic(bench_dataset):
    config = _config(bench_dataset, cutoff_batches=10, warmup_batches=1)
    result = run_loop(config)
    assert len(result.per_batch_seconds) == 10
    assert result.counted_batches == 9
    assert result.N == 9 * 64 == 576
    t_e = result.N / result.m
    assert result.m > 0 and t_e > 0


def test_metric_conservation(bench_dataset):
    config = _config(bench_dataset, cutoff_batches=12, warmup_batches=2)
    result = run_loop(config)
    assert result.N == 10 * 64
    # m * elapsed-after-warm-up must reproduce N exactly as computed
    counted_durs = result.per_batch_seconds[2:12]
    assert math.isclose(result.m * sum(counted_durs), result.N, rel_tol=1e-9)


def test_speed_window_defaults_to_ten(bench_dataset):
    config = _config(bench_dataset, batch_size=16)  # 50 batches, full epoch
    result = run_loop(config)
    assert result.counted_batches == 10
    assert result.N == 160
    assert len(result.per_batch_seconds) == 50
    assert len(result.epoch_times) == 1


def test_run_model_changes_time_not_contents(bench_dataset):
    base = _config(bench_dataset, cutoff_batches=8, capture_digests=True)
    off = run_loop(base)
    on = run_loop(_config(bench_dataset, cutoff_batches=8,
                          capture_digests=True, run_model=True))
    assert off.batch_digests == on.batch_digests
    assert off.t_f != on.t_f


def test_run_model_never_faster(random_small):
    # model work is strictly added on top of loading.  An untimed run warms
    # the page cache and the init path; off and on then alternate, so a slow
    # spell of the host hits both, and the median run of each is compared.
    root, _ = random_small
    run_loop(_config(root, cutoff_batches=12, batch_size=64))
    runs: dict[bool, list] = {False: [], True: []}
    for _ in range(3):
        for run_model in (False, True):
            runs[run_model].append(run_loop(_config(
                root, cutoff_batches=12, batch_size=64, run_model=run_model)))
    off, on = (sorted(runs[flag], key=lambda r: r.m)[1] for flag in (False, True))
    assert off.m >= on.m, (off.m, on.m)


def test_empty_dataset_is_an_error(tmp_path):
    spec = DatasetSpec(n_train=0, n_val=0, n_test=0, width=2, height=2,
                       channels=1, n_classes=2, seed=1)
    generate_random_dataset(spec, tmp_path)
    with pytest.raises(BenchError, match="no batches"):
        run_loop(_config(tmp_path))


def test_cutoff_seconds_stops_early(bench_dataset):
    config = _config(bench_dataset, batch_size=8, cutoff_seconds=0.05,
                     consumer_delay_s=0.01)
    result = run_loop(config)
    assert 1 <= len(result.per_batch_seconds) < 100
    # the batch that arrived after the cutoff was not processed: no ids
    assert len(result.processed_ids) == 8 * len(result.per_batch_seconds)


def test_init_times_cover_all_splits(bench_dataset):
    result = run_loop(_config(bench_dataset, cutoff_batches=2))
    assert set(result.init_times) == {"train", "val", "test"}
    assert all(t >= 0 for t in result.init_times.values())


def test_run_repetitions(bench_dataset):
    config = _config(bench_dataset, cutoff_batches=3, repetitions=3)
    results = run(config)
    assert [r.repetition for r in results] == [0, 1, 2]
    assert len({r.N for r in results}) == 1


def test_replicated_world_one_matches_run_loop(bench_dataset):
    config = _config(bench_dataset, cutoff_batches=5)
    single = run_loop(config)
    results = run(config)
    assert len(results) == 1
    assert results[0].N == single.N
    assert aggregate_speeds(results) == [results[0].m]


def test_replicated_world_two_disjoint_cover(bench_dataset):
    config = _config(bench_dataset, batch_size=16, replicas=2, repetitions=2)
    results = run(config)
    assert [(r.repetition, r.fingerprint["loader"]["sampler"]["rank"])
            for r in results] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for rep in (results[:2], results[2:]):
        ids0 = set(rep[0].processed_ids)
        ids1 = set(rep[1].processed_ids)
        assert ids0.isdisjoint(ids1)
        assert ids0 | ids1 == set(range(800))
    assert aggregate_speeds(results) == [
        pytest.approx(sum(r.m for r in rep)) for rep in (results[:2], results[2:])]


def test_run_loop_closes_its_backend(bench_dataset, tmp_path, monkeypatch):
    closed = []
    monkeypatch.setattr(StorageBackend, "close",
                        lambda backend: closed.append(backend))
    run_loop(_config(bench_dataset, cutoff_batches=2))
    assert len(closed) == 1
    with pytest.raises(BenchError):  # no manifests: fails before any batch
        run_loop(_config(bench_dataset, backend=BackendConfig(
            kind="local", root=str(tmp_path))))
    assert len(closed) == 2


def test_run_loop_builds_no_batch_past_its_epochs(bench_dataset, monkeypatch):
    # run_loop tells its loader how many epochs it iterates, so the loader
    # builds nothing ahead of the epoch after the last
    calls = []
    read_into = StorageBackend.read_into

    def counted(backend, requests, out):
        calls.append(len(requests))
        return read_into(backend, requests, out)

    monkeypatch.setattr(StorageBackend, "read_into", counted)
    result = run_loop(_config(bench_dataset, num_workers=2, epochs=2))
    assert len(result.per_batch_seconds) == 2 * 13  # 800 samples, batch 64
    assert len(calls) == 2 * 13


def test_replicated_failure_before_barrier_returns(bench_dataset, monkeypatch):
    import loadbench.bench as bench_module

    def replace(obj, **changes):  # rank 1's config cannot be built
        if changes.get("rank") == 1:
            raise RuntimeError("injected config failure")
        return dataclasses.replace(obj, **changes)
    monkeypatch.setattr(bench_module, "replace", replace)
    outcome = []

    def call():
        try:
            run(_config(bench_dataset, batch_size=16, replicas=3))
        except ReplicaError as exc:
            outcome.append(exc)
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(10)
    assert not caller.is_alive()
    assert [(e.rank, type(e.cause)) for e in outcome] == [(1, RuntimeError)]


# -- sweep ----------------------------------------------------------------------

def test_sweep_grid_size(bench_dataset, tmp_path):
    grid = {"batch_size": [16, 64, 128], "num_workers": [0, 1, 2]}
    base = _config(bench_dataset, cutoff_batches=3)
    rows = sweep(grid, base, out_dir=tmp_path)
    assert len(rows) == 9
    assert all(row["error"] == "" for row in rows)
    assert all("fingerprint" in row for row in rows)
    with (tmp_path / "results.csv").open() as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == RESULT_COLUMNS
        assert len(list(reader)) == 9
    assert len(json.loads((tmp_path / "results.json").read_text())) == 9


def test_sweep_rejects_bad_grid(bench_dataset):
    base = _config(bench_dataset)
    with pytest.raises(ValueError):
        sweep({}, base)
    with pytest.raises(ValueError):
        sweep({"batch_size": []}, base)
    with pytest.raises(ValueError):
        sweep({"bogus_axis": [1]}, base)


def test_sweep_reruns_agree_on_counts(bench_dataset):
    grid = {"batch_size": [16, 32], "run_model": [False, True]}
    base = _config(bench_dataset, cutoff_batches=4)
    first = sweep(grid, base)
    second = sweep(grid, base)
    assert [r["N"] for r in first] == [r["N"] for r in second]
    assert [r["batch_size"] for r in first] == [r["batch_size"] for r in second]


def test_sweep_records_partial_failures(bench_dataset):
    grid = {"backend": [
        {"kind": "local"},
        {"kind": "local", "root": "/nonexistent/loadbench-nowhere"},
    ]}
    rows = sweep(grid, _config(bench_dataset, cutoff_batches=2))
    assert len(rows) == 2
    errors = [row["error"] for row in rows]
    assert errors.count("") == 1
    failed = next(row for row in rows if row["error"])
    assert failed["fingerprint"]["backend"]["root"] == "/nonexistent/loadbench-nowhere"
    assert failed["error"].startswith("StorageError: ")
    assert failed["batch_size"] == 64 and failed["m"] == ""


def test_sweep_runs_replicas(bench_dataset):
    base = _config(bench_dataset, batch_size=16, repetitions=2)
    rows = sweep({"replicas": [2]}, base)
    assert [(r["repetition"], r["replicas"]) for r in rows] == [
        (0, 2), (0, 2), (1, 2), (1, 2)]
    for rep in (rows[:2], rows[2:]):
        # each row's fingerprint re-runs its own replica's shard
        ids0, ids1 = (set(run_loop(decode(BenchConfig, r["fingerprint"]))
                          .processed_ids) for r in rep)
        assert ids0.isdisjoint(ids1)
        assert ids0 | ids1 == set(range(800))


def test_sweep_filter_axis(bench_dataset):
    grid = {"filter_classes": [None, [0, 13]]}
    rows = sweep(grid, _config(bench_dataset, cutoff_batches=2, batch_size=8))
    assert len(rows) == 2
    assert {row["filter_classes"] for row in rows} == {"", "0;13"}


def test_sweep_filter_axis_keeps_the_filter_kind(bench_dataset):
    naive = _config(bench_dataset, loader=LoaderConfig(sampler=SamplerConfig(
        kind="filter_naive", classes=frozenset({1}))))
    samplers = [c.loader.sampler for c in
                expand({"filter_classes": [None, [0, 13]]}, naive)]
    assert [(s.kind, s.classes) for s in samplers] == [
        ("shuffle", None), ("filter_naive", frozenset({0, 13}))]
    plain = expand({"filter_classes": [[2]]}, _config(bench_dataset))
    assert plain[0].loader.sampler.kind == "filter_indexed"


def test_sweep_axes_are_dotted_paths(bench_dataset):
    base = _config(bench_dataset)
    configs = expand({"loader.transform.cutout_side": [0, 1],
                      "model_seed": [5]}, base)
    assert [c.loader.transform.cutout_side for c in configs] == [0, 1]
    assert all(c.model_seed == 5 for c in configs)
    with pytest.raises(ValueError, match="loader.sampler.sed"):
        expand({"loader.sampler.sed": [1]}, base)


def test_sweep_fingerprints_rerun_their_rows(bench_dataset):
    base = _config(bench_dataset, cutoff_batches=3, capture_digests=True,
                   loader=LoaderConfig(
                       batch_size=16,
                       sampler=SamplerConfig(kind="shuffle", seed=4),
                       transform=TransformConfig(seed=4, cutout_side=0,
                                                 flip_probability=1.0)))
    grid = {"num_workers": [0, 2]}
    rows = sweep(grid, base)
    for config, row in zip(expand(grid, base), rows):
        rerun = decode(BenchConfig, json.loads(json.dumps(row["fingerprint"])))
        assert rerun == config
        again = run_loop(rerun)
        assert again.N == row["N"]
        assert again.batch_digests == run_loop(config).batch_digests


def test_fingerprint_keeps_every_field():
    a = BenchConfig()
    b = BenchConfig(loader=LoaderConfig(transform=TransformConfig(
        cutout_side=0, flip_probability=0.0, mean=0.1)), model_seed=5)
    assert a.fingerprint() != b.fingerprint()
    assert decode(BenchConfig, b.fingerprint()) == b


# -- tuning ---------------------------------------------------------------------

def test_tune_single_candidate(bench_dataset):
    only = LoaderConfig(batch_size=32,
                        sampler=SamplerConfig(kind="shuffle", seed=1),
                        transform=TransformConfig(seed=1))
    base = _config(bench_dataset, cutoff_batches=3)
    tuned = tune_for_speed([only], base, budget=5)
    assert tuned.best == only
    assert tuned.best_m > 0


def test_tune_budget_covers_space_is_exhaustive(bench_dataset):
    space = [LoaderConfig(batch_size=b,
                          sampler=SamplerConfig(kind="shuffle", seed=1),
                          transform=TransformConfig(seed=1))
             for b in (8, 32, 128)]
    base = _config(bench_dataset, cutoff_batches=4, consumer_delay_s=0.005)
    tuned = tune_for_speed(space, base, budget=3)
    assert len(tuned.trials) == 3
    evaluated = {cfg.batch_size for cfg, _, _ in tuned.trials}
    assert evaluated == {8, 32, 128}
    best_trial = max((t for t in tuned.trials if t[1] is not None),
                     key=lambda t: t[1])
    assert tuned.best == best_trial[0]
    assert tuned.best_m == best_trial[1]


def test_tune_runs_repetitions_and_replicas(bench_dataset, monkeypatch):
    import loadbench.bench as bench_module

    speeds = iter([10.0, 30.0, 20.0, 1.0, 2.0, 4.0])
    calls = []

    def fake_run_loop(config, repetition=0):
        sampler = config.loader.sampler
        calls.append((repetition, sampler.rank, sampler.world_size))
        return dataclasses.replace(run_loop(config, repetition),
                                   m=next(speeds))
    monkeypatch.setattr(bench_module, "run_loop", fake_run_loop)
    only = _config(bench_dataset).loader
    base = _config(bench_dataset, cutoff_batches=2, repetitions=3, replicas=2)
    tuned = tune_for_speed([only], base, budget=1)
    assert sorted(calls) == [(r, k, 2) for r in range(3) for k in range(2)]
    # scored by the best repetition's aggregate: 10+30, 20+1, 2+4
    assert tuned.best_m == 40.0
    assert tuned.trials == [(only, 40.0, None)]


def test_tune_validation(bench_dataset):
    base = _config(bench_dataset)
    with pytest.raises(ValueError):
        tune_for_speed([], base, budget=1)
    with pytest.raises(ValueError):
        tune_for_speed([base.loader], base, budget=0)


# -- analysis -------------------------------------------------------------------

def test_pearson_perfect_anticorrelation():
    xs = np.arange(10.0)
    result = pearson(xs, -xs)
    assert result.pearson_r == -1.0
    assert result.t_statistic == -math.inf
    assert result.n == 10


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1, 2, 3], [5, 5, 5])
    with pytest.raises(ValueError):
        pearson([1, 2], [3, 4])


def test_pearson_matches_numpy_oracle():
    rng = np.random.default_rng(8)
    xs = rng.normal(size=20)
    ys = 0.3 * xs + rng.normal(size=20)
    result = pearson(xs, ys)
    expected = float(np.corrcoef(xs, ys)[0, 1])
    assert abs(result.pearson_r - expected) < 1e-12
    expected_t = expected * math.sqrt((20 - 2) / (1 - expected ** 2))
    assert abs(result.t_statistic - expected_t) < 1e-9


def test_slowdown_percentages():
    assert slowdown_pct(10.0, 10.0) == 0.0
    assert slowdown_pct(10.0, 11.3) == pytest.approx(13.0)
    with pytest.raises(ValueError):
        slowdown_pct(0.0, 5.0)


def test_max_speed_matches_sorting_oracle(bench_dataset):
    configs = [_config(bench_dataset, cutoff_batches=3, batch_size=b)
               for b in (16, 16, 64)]
    results = [run_loop(c) for c in configs]
    table = rows_max_speed([result_row(c, r) for c, r in zip(configs, results)],
                           ("batch_size",))
    for b in (16, 64):
        group = sorted(r.m for c, r in zip(configs, results)
                       if c.loader.batch_size == b)
        assert table[(b,)] == group[-1]


def test_run_result_time_conservation(bench_dataset):
    result = run_loop(_config(bench_dataset, cutoff_batches=6))
    assert sum(result.init_times.values()) + sum(result.per_batch_seconds) <= result.t_f
    assert result.first_batch_s == result.per_batch_seconds[0]


def test_batch_times_uniform_without_prefetch(bench_dataset):
    # deterministic per-request latency, synchronous loading: stable batch times
    backend = BackendConfig(kind="memory", root=str(bench_dataset),
                            latency=LatencyModel(mean_ms=2.0))
    config = _config(bench_dataset, batch_size=4, cutoff_batches=10,
                     backend=backend)
    result = run_loop(config)
    warm = np.array(result.per_batch_seconds[1:10])
    assert warm.std() / warm.mean() < 0.5


# -- configuration plumbing -------------------------------------------------------

def test_backend_config_env_endpoint(monkeypatch):
    monkeypatch.setenv("LOADBENCH_ENDPOINT", "http://example:9000")
    assert BackendConfig(kind="remote").resolve_endpoint() == "http://example:9000"
    monkeypatch.delenv("LOADBENCH_ENDPOINT")
    with pytest.raises(BenchError):
        BackendConfig(kind="remote").resolve_endpoint()


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="ftp")
    with pytest.raises(BenchError):
        BackendConfig(kind="local").build()


def test_bench_config_validation(bench_dataset):
    with pytest.raises(ValueError):
        _config(bench_dataset, cutoff_batches=0)
    with pytest.raises(ValueError):
        _config(bench_dataset, cutoff_seconds=0.0)
    with pytest.raises(ValueError):
        _config(bench_dataset, epochs=0)
    with pytest.raises(ValueError):
        _config(bench_dataset, split="proof")


def test_result_row_covers_columns(bench_dataset):
    config = _config(bench_dataset, cutoff_batches=2)
    row = result_row(config, run_loop(config))
    assert list(row) == [*RESULT_COLUMNS, "worker_cpus", "fingerprint"]
    assert list(result_row(config, error="E: x")) == list(row)


@pytest.mark.parametrize("workers", [0, 2])
def test_result_row_records_worker_cpus(bench_dataset, workers):
    config = _config(bench_dataset, num_workers=workers, cutoff_batches=2)
    result = run_loop(config)
    allowed = os.sched_getaffinity(0)
    if workers and len(allowed) > 1:  # every allowed CPU but the consumer's
        assert set(result.worker_cpus) < allowed
        assert len(result.worker_cpus) == len(allowed) - 1
    else:
        assert result.worker_cpus is None
    row = json.loads(json.dumps(result_row(config, result)))
    assert row["worker_cpus"] == (list(result.worker_cpus)
                                  if result.worker_cpus else None)
    assert result_row(config, error="E: x")["worker_cpus"] is None
