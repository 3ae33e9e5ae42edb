import functools
import json
import re
import types
from pathlib import Path

import pytest

import loadbench.cli as cli
from loadbench.bench import BenchConfig, expand, run_loop
from loadbench.cli import _bench_config_from_args, build_parser, load_bench_config, main
from loadbench.config import decode
from loadbench.dataset import DatasetSpec, generate_random_dataset
from loadbench.pipeline import LoaderConfig
from loadbench.report import render_bar_chart_svg, render_markdown, rows_slowdown


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    spec = DatasetSpec(n_train=96, n_val=8, n_test=8, width=4, height=4,
                       channels=3, n_classes=20, seed=21)
    generate_random_dataset(spec, root, shard_capacity=32)
    return root


def test_generate_command(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "n_train": 10, "n_val": 2, "n_test": 2, "width": 4, "height": 4,
        "channels": 1, "n_classes": 3, "seed": 5}))
    out_dir = tmp_path / "data"
    assert main(["generate", "--spec", str(spec_file), "--out", str(out_dir),
                 "--shard-capacity", "4"]) == 0
    captured = capsys.readouterr().out
    assert "train: 10 samples" in captured
    assert (out_dir / "train" / "manifest.json").exists()
    assert (out_dir / "train" / "shard-00002.dlbs").exists()  # 10 / 4 -> 3 shards


def test_bench_command(cli_dataset, tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["bench", "--data", str(cli_dataset), "--batch-size", "8",
                 "--workers", "0", "--cutoff-batches", "6", "--seed", "3",
                 "--repetitions", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "samples/s" in stdout
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["N"] == 5 * 8  # warm-up excludes the first batch


def test_bench_command_repetition_summary(cli_dataset, capsys):
    code = main(["bench", "--data", str(cli_dataset), "--batch-size", "8",
                 "--cutoff-batches", "4", "--repetitions", "3"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "min=" in stdout and "median=" in stdout and "max=" in stdout


def test_bench_command_filter_and_replicas(cli_dataset, capsys):
    code = main(["bench", "--data", str(cli_dataset), "--batch-size", "4",
                 "--filter-classes", "0,13", "--replicas", "2",
                 "--repetitions", "1"])
    assert code == 0
    assert "aggregate speed" in capsys.readouterr().out


def test_bench_command_runs_repetitions_times_replicas(cli_dataset, tmp_path,
                                                       capsys):
    out = tmp_path / "run.json"
    assert main(["bench", "--data", str(cli_dataset), "--batch-size", "8",
                 "--replicas", "2", "--repetitions", "2",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [(r["repetition"], r["replicas"]) for r in rows] == [
        (0, 2), (0, 2), (1, 2), (1, 2)]
    assert [(r["fingerprint"]["loader"]["sampler"]["rank"],
             r["fingerprint"]["loader"]["sampler"]["world_size"])
            for r in rows] == [(0, 2), (1, 2)] * 2
    assert "rep 1 rank 1:" in capsys.readouterr().out


def test_bench_out_rows_rerun_from_their_fingerprints(cli_dataset, tmp_path):
    out = tmp_path / "run.json"
    assert main(["bench", "--data", str(cli_dataset), "--batch-size", "8",
                 "--cutoff-batches", "3", "--seed", "4", "--repetitions", "2",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    for row in rows:
        config = decode(BenchConfig, row["fingerprint"])
        assert (config.loader.batch_size, config.cutoff_batches,
                config.loader.sampler.seed, config.repetitions) == (8, 3, 4, 2)
        assert run_loop(config).N == row["N"]


def test_bench_command_config_file(cli_dataset, tmp_path, capsys):
    config = {
        "data": str(cli_dataset),
        "split": "train",
        "backend": {"kind": "memory",
                    "latency": {"mean_ms": 1.0, "distribution": "constant"}},
        "loader": {"batch_size": 8, "num_workers": 1,
                   "sampler": {"kind": "shuffle", "seed": 9},
                   "transform": {"seed": 9}},
        "cutoff_batches": 4,
        "repetitions": 1,
    }
    config_file = tmp_path / "bench.json"
    config_file.write_text(json.dumps(config))
    assert main(["bench", "--config", str(config_file)]) == 0
    assert "rep 0" in capsys.readouterr().out


def test_sweep_and_analyze_and_report(cli_dataset, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({
        "batch_size": [4, 8], "num_workers": [0, 1]}))
    out_dir = tmp_path / "sweep-out"
    code = main(["sweep", "--data", str(cli_dataset), "--grid", str(grid_file),
                 "--out", str(out_dir), "--cutoff-batches", "4",
                 "--repetitions", "1", "--seed", "2"])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    capsys.readouterr()

    analysis_out = tmp_path / "analysis.json"
    code = main(["analyze", "--results", str(out_dir / "results.json"),
                 "--out", str(analysis_out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "max speed per group" in stdout
    payload = json.loads(analysis_out.read_text())
    assert "max_speed" in payload

    report_out = tmp_path / "report.md"
    code = main(["report", "--results", str(out_dir / "results.csv"),
                 "--out", str(report_out), "--svg"])
    assert code == 0
    text = report_out.read_text()
    assert text.startswith("# loadbench results")
    assert "Max speed per configuration" in text
    assert report_out.with_suffix(".svg").read_text().startswith("<svg")


def test_tune_command(cli_dataset, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"num_workers": [0, 1]}))
    out = tmp_path / "tuned.json"
    code = main(["tune", "--data", str(cli_dataset), "--space", str(space_file),
                 "--budget", "2", "--cutoff-batches", "4", "--batch-size", "8",
                 "--out", str(out)])
    assert code == 0
    assert "best:" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["best"]["num_workers"] in (0, 1)
    assert len(payload["trials"]) == 2


def _write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_dict_roundtrip(tmp_path):
    payload = {
        "data": "/tmp/x",
        "backend": "memory",
        "loader": {"batch_size": 32, "num_workers": 2, "prefetch_depth": 5,
                   "sampler": {"kind": "filter_indexed", "classes": [0, 13],
                               "seed": 4},
                   "transform": {"mean": [0.5, 0.5, 0.5], "std": [0.5, 0.5, 0.5],
                                 "seed": 4}},
        "cutoff_seconds": 2.5,
        "run_model": True,
        "model_seed": 3, "model_learning_rate": 0.5, "capture_digests": True,
    }
    config = load_bench_config(_write_json(tmp_path / "c.json", payload))
    assert config.backend.kind == "memory"
    assert config.backend.root == "/tmp/x"
    assert config.loader.batch_size == 32
    assert config.loader.sampler.classes == frozenset({0, 13})
    assert config.loader.transform.mean == (0.5, 0.5, 0.5)
    assert config.cutoff_seconds == 2.5
    assert config.run_model is True
    assert (config.model_seed, config.model_learning_rate,
            config.capture_digests) == (3, 0.5, True)

    loader = decode(LoaderConfig, {})
    assert loader.batch_size == 64 and loader.num_workers == 0


def test_config_file_rejects_unknown_keys(tmp_path):
    for payload, path in (({"loader": {"batchsize": 8}}, "loader.batchsize"),
                          ({"backend": {"latency": {"mean": 1.0}}},
                           "backend.latency.mean"),
                          ({"cutof_batches": 3}, "cutof_batches")):
        with pytest.raises(ValueError, match=re.escape(repr(path))):
            load_bench_config(_write_json(tmp_path / "c.json", payload))


def _readme_json_blocks() -> list:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [json.loads(block) for block in
            re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)]


def test_readme_config_and_grid_are_accepted(tmp_path):
    config_block, grid_block = _readme_json_blocks()
    config = load_bench_config(_write_json(tmp_path / "c.json", config_block))
    assert config.backend.root == "data/"
    assert config.backend.latency.mean_ms == 17.3
    assert config.loader.sampler.seed == config.loader.transform.seed == 7
    configs = expand(grid_block, config)
    assert len(configs) == 9
    assert {(c.loader.batch_size, c.loader.num_workers, c.run_model)
            for c in configs} == {(b, w, True) for b in (16, 64, 128)
                                  for w in (0, 1, 2)}


@pytest.mark.parametrize("flags, path, expected", [
    (["--data", "d/"], "backend.root", "d/"),
    (["--backend", "memory"], "backend.kind", "memory"),
    (["--endpoint", "http://h:1"], "backend.endpoint", "http://h:1"),
    (["--split", "val"], "split", "val"),
    (["--batch-size", "8"], "loader.batch_size", 8),
    (["--workers", "3"], "loader.num_workers", 3),
    (["--prefetch-depth", "5"], "loader.prefetch_depth", 5),
    (["--epochs", "2"], "epochs", 2),
    (["--cutoff-batches", "7"], "cutoff_batches", 7),
    (["--cutoff-seconds", "1.5"], "cutoff_seconds", 1.5),
    (["--run-model"], "run_model", True),
    (["--warmup", "2"], "warmup_batches", 2),
    (["--seed", "9"], "loader.sampler.seed", 9),
    (["--seed", "9"], "loader.transform.seed", 9),
    (["--filter-classes", "0,13"], "loader.sampler.classes", frozenset({0, 13})),
    (["--filter-classes", "0,13"], "loader.sampler.kind", "filter_indexed"),
    (["--filter-classes", "1", "--filter-kind", "naive"],
     "loader.sampler.kind", "filter_naive"),
    (["--replicas", "2"], "replicas", 2),
    (["--repetitions", "4"], "repetitions", 4),
    (["--consumer-delay-ms", "5"], "consumer_delay_s", 0.005),
    (["--latency-mean-ms", "3"], "backend.latency.mean_ms", 3.0),
    (["--latency-std-ms", "2"], "backend.latency.std_ms", 2.0),
    (["--latency-min-ms", "1"], "backend.latency.min_ms", 1.0),
    (["--latency-distribution", "lognormal"], "backend.latency.distribution",
     "lognormal"),
])
def test_bench_flag_sets_its_field(flags, path, expected):
    config = _bench_config_from_args(build_parser().parse_args(["bench", *flags]))
    assert functools.reduce(getattr, path.split("."), config) == expected


def test_latency_flags_merge_onto_the_config_file(tmp_path):
    config_file = _write_json(tmp_path / "c.json", {"backend": {"latency": {
        "mean_ms": 4.0, "std_ms": 1.0, "distribution": "lognormal", "seed": 2}}})
    config = _bench_config_from_args(build_parser().parse_args(
        ["bench", "--config", config_file, "--latency-std-ms", "3"]))
    latency = config.backend.latency
    assert (latency.mean_ms, latency.std_ms, latency.distribution,
            latency.seed) == (4.0, 3.0, "lognormal", 2)


@pytest.mark.parametrize("flags", [
    [],
    ["--latency-mean-ms", "5"],
    ["--latency-std-ms", "5"],
    ["--latency-mean-ms", "0", "--latency-distribution", "lognormal"],
    ["--latency-mean-ms", "59.2", "--latency-std-ms", "58.5",
     "--latency-min-ms", "8.8", "--latency-distribution", "lognormal"],
])
def test_serve_latency_flags_mean_what_bench_flags_mean(flags, monkeypatch,
                                                        capsys):
    served = []

    def fake_serve(directory, port, latency):
        served.append(latency)
        return types.SimpleNamespace(endpoint="http://127.0.0.1:1",
                                     stop=lambda: None)

    def interrupt(_seconds):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "serve_store", fake_serve)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(sleep=interrupt))
    assert main(["serve", "--dir", "d/", *flags]) == 0
    bench = _bench_config_from_args(build_parser().parse_args(["bench", *flags]))
    assert served == [bench.backend.latency]


def test_tune_grid_rejects_unknown_and_non_loader_axes(cli_dataset, tmp_path):
    base = ["tune", "--data", str(cli_dataset), "--budget", "1",
            "--cutoff-batches", "2"]
    space = _write_json(tmp_path / "s.json", {"num_workers": [0], "bogus": [1]})
    with pytest.raises(ValueError, match="'bogus'"):
        main([*base, "--space", space])
    space = _write_json(tmp_path / "s.json", {"num_workers": [0], "run_model": [True]})
    with pytest.raises(ValueError, match="loader fields"):
        main([*base, "--space", space])


def test_report_rendering_handles_failures():
    rows = [
        {"split": "train", "batch_size": 16, "num_workers": 0, "backend": "local",
         "run_model": False, "filter_classes": "", "repetition": 0,
         "m": 100.0, "N": 160, "t_f": 2.0, "first_batch_s": 0.1,
         "latency_mean_ms": 0.0, "error": ""},
        {"split": "train", "batch_size": 16, "num_workers": 0, "backend": "remote",
         "run_model": False, "filter_classes": "", "repetition": 0,
         "m": 50.0, "N": 160, "t_f": 4.0, "first_batch_s": 0.3,
         "latency_mean_ms": 17.3, "error": ""},
        {"split": "train", "batch_size": 64, "num_workers": 2, "backend": "local",
         "error": "boom"},
    ]
    text = render_markdown(rows)
    assert "Failures" in text and "boom" in text
    assert "Slowdown vs local baseline" in text
    slow = rows_slowdown(rows)
    assert len(slow) == 1
    assert slow[0]["slowdown_pct"] == pytest.approx(100.0)


def test_svg_chart_shape():
    svg = render_bar_chart_svg([("a", 10.0), ("b", 5.0)], title="t")
    assert svg.count("<rect") == 2
    assert 'width="640"' in svg
