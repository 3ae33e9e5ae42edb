"""Command-line interface.

Subcommands mirror the workflow: ``generate`` a dataset, ``serve`` it over
HTTP, ``bench`` one configuration, ``sweep`` a grid, ``tune`` for speed,
``analyze`` result files, and ``report`` them as Markdown.  Config files are
JSON; every flag overrides its config-file counterpart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from .bench import (
    BackendConfig,
    BenchConfig,
    aggregate_speeds,
    expand,
    result_row,
    run,
    sweep,
    tune_for_speed,
    with_filter,
)
from .config import decode, encode, override
from .dataset import DatasetSpec, generate_random_dataset
from .pipeline import LoaderConfig
from .report import (
    load_rows,
    rows_correlation,
    rows_max_speed,
    rows_slowdown,
    write_report,
)
from .server import serve as serve_store


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def load_bench_config(path: str | None) -> BenchConfig:
    """The bench config in the JSON file at ``path``; defaults when None.

    A top-level ``"data"`` key is shorthand for ``backend.root``; a root set
    under ``backend`` wins over it.
    """
    payload = _load_json(path) if path else {}
    root = payload.pop("data", None)
    config = decode(BenchConfig, payload)
    if root is not None and config.backend.root is None:
        config = override(config, "backend.root", root)
    return config


def _add_bench_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON benchmark config file")
    parser.add_argument("--data", help="dataset root directory")
    parser.add_argument("--split", choices=("train", "val", "test"))
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--prefetch-depth", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--cutoff-batches", type=int)
    parser.add_argument("--cutoff-seconds", type=float)
    parser.add_argument("--run-model", action="store_true", default=None)
    parser.add_argument("--warmup", type=int, help="batches excluded from the speed metric")
    parser.add_argument("--seed", type=int, help="sampler and transform seed")
    parser.add_argument("--backend", choices=("local", "memory", "remote"))
    parser.add_argument("--endpoint", help="remote endpoint URL (or $LOADBENCH_ENDPOINT)")
    parser.add_argument("--filter-classes",
                        help="comma-separated class ids, e.g. 0,13")
    parser.add_argument("--filter-kind", choices=("indexed", "naive"),
                        default="indexed")
    parser.add_argument("--replicas", type=int)
    parser.add_argument("--repetitions", type=int)
    parser.add_argument("--consumer-delay-ms", type=float)
    _add_latency_flags(parser)


def _add_latency_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--latency-mean-ms", type=float)
    parser.add_argument("--latency-std-ms", type=float)
    parser.add_argument("--latency-min-ms", type=float)
    parser.add_argument("--latency-distribution", choices=("constant", "lognormal"))


def _with_latency_flags(backend: BackendConfig,
                        args: argparse.Namespace) -> BackendConfig:
    """``backend`` with the latency fields that the ``--latency-*`` flags name
    set; a backend without latency gets one, with ``mean_ms`` 0 unless set."""
    latency = {key: getattr(args, f"latency_{key}")
               for key in ("mean_ms", "std_ms", "min_ms", "distribution")
               if getattr(args, f"latency_{key}") is not None}
    if not latency:
        return backend
    if backend.latency is None:
        latency = {"mean_ms": 0.0, **latency}
    return override(backend, "latency", latency)


# bench flags that each set one config field: argparse dest -> dotted path
_FLAG_PATHS = {
    "data": "backend.root", "backend": "backend.kind",
    "endpoint": "backend.endpoint", "split": "split",
    "batch_size": "loader.batch_size", "workers": "loader.num_workers",
    "prefetch_depth": "loader.prefetch_depth", "epochs": "epochs",
    "cutoff_batches": "cutoff_batches", "cutoff_seconds": "cutoff_seconds",
    "run_model": "run_model", "warmup": "warmup_batches",
    "replicas": "replicas", "repetitions": "repetitions",
}


def _bench_config_from_args(args: argparse.Namespace) -> BenchConfig:
    config = load_bench_config(args.config)
    for dest, path in _FLAG_PATHS.items():
        if getattr(args, dest) is not None:
            config = override(config, path, getattr(args, dest))
    if args.seed is not None:
        config = override(config, "loader", {"sampler": {"seed": args.seed},
                                             "transform": {"seed": args.seed}})
    if args.filter_classes is not None:
        classes = [int(c) for c in args.filter_classes.split(",") if c]
        config = with_filter(config, classes, kind=f"filter_{args.filter_kind}")
    if args.consumer_delay_ms is not None:
        config = override(config, "consumer_delay_s", args.consumer_delay_ms / 1000.0)
    return replace(config, backend=_with_latency_flags(config.backend, args))


# -- subcommands ----------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    spec = decode(DatasetSpec, _load_json(args.spec))
    manifests = generate_random_dataset(spec, args.out,
                                        shard_capacity=args.shard_capacity)
    for split, manifest in manifests.items():
        print(f"{split}: {len(manifest)} samples, "
              f"{len(manifest.class_index)} classes populated")
    print(f"dataset written under {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    latency = _with_latency_flags(BackendConfig(), args).latency
    server = serve_store(args.dir, port=args.port, latency=latency)
    print(f"serving {args.dir} at {server.endpoint}")
    if latency:
        print(f"latency: {latency.distribution} mean={latency.mean_ms}ms "
              f"std={latency.std_ms}ms min={latency.min_ms}ms")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _bench_config_from_args(args)
    if args.repetitions is None and not args.config:
        config = override(config, "repetitions", 3)  # harness default: 3 reps
    results = run(config)
    for i, r in enumerate(results):
        init = "/".join(f"{r.init_times.get(s, 0.0) * 1000:.1f}ms"
                        for s in ("train", "val", "test"))
        print(f"rep {r.repetition} rank {i % config.replicas}: m={r.m:.1f} "
              f"samples/s N={r.N} t_f={r.t_f:.3f}s init({init}) "
              f"first_batch={r.first_batch_s * 1000:.1f}ms")
    speeds = aggregate_speeds(results)
    print(f"aggregate speed over {config.replicas} replicas, "
          f"{len(speeds)} repetitions: min={min(speeds):.1f} "
          f"median={statistics.median(speeds):.1f} max={max(speeds):.1f} samples/s")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        rows = [result_row(config, r) for r in results]
        out.write_text(json.dumps(rows, indent=2, default=str))
        print(f"wrote {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _load_json(args.grid)
    base = _bench_config_from_args(args)
    rows = sweep(grid, base, out_dir=args.out)
    failed = sum(1 for r in rows if r.get("error"))
    print(f"{len(rows)} runs ({failed} failed) -> {args.out}/results.csv")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    base = _bench_config_from_args(args)
    payload = _load_json(args.space)
    if isinstance(payload, list):
        space = [decode(LoaderConfig, p) for p in payload]
    else:
        configs = expand(payload, base)
        if any(replace(c, loader=base.loader) != base for c in configs):
            raise ValueError(f"tune axes must set loader fields: {sorted(payload)}")
        space = [c.loader for c in configs]
    tuned = tune_for_speed(space, base, budget=args.budget, seed=args.tune_seed)
    print(f"evaluated {len(tuned.trials)} candidates")
    best = tuned.best
    print(f"best: batch_size={best.batch_size} num_workers={best.num_workers} "
          f"prefetch_depth={best.resolved_prefetch_depth} "
          f"-> {tuned.best_m:.1f} samples/s")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "best": encode(best),
            "speed": tuned.best_m,
            "trials": [{**encode(c), "m": m, "error": e}
                       for c, m, e in tuned.trials],
        }, indent=2))
        print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows = load_rows(args.results)
    print(f"{len(rows)} result rows")
    payload: dict = {}

    table = rows_max_speed(rows, tuple(args.group_by.split(",")))
    print("\nmax speed per group:")
    for key, value in sorted(table.items(), key=lambda kv: str(kv[0])):
        print(f"  {key}: {value:.1f} samples/s")
    payload["max_speed"] = [{"group": list(k), "m": v} for k, v in table.items()]

    slowdowns = rows_slowdown(rows)
    if slowdowns:
        print("\nslowdown vs local baseline:")
        for s in slowdowns:
            print(f"  {s['backend']} (batch={s['batch_size']}, "
                  f"workers={s['num_workers']}): {s['slowdown_pct']:.1f}%")
        payload["slowdown"] = slowdowns

    try:
        corr = rows_correlation(rows)
        print(f"\nspeed vs total time: r={corr.pearson_r:.3f} "
              f"t={corr.t_statistic:.2f} n={corr.n}")
        payload["correlation"] = {"pearson_r": corr.pearson_r,
                                  "t_statistic": corr.t_statistic, "n": corr.n}
    except ValueError as exc:
        print(f"\ncorrelation unavailable: {exc}")

    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = load_rows(args.results)
    written = write_report(rows, args.out, svg=args.svg, title=args.title)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadbench",
        description="data-loading engine benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON dataset spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--shard-capacity", type=int, default=1000)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("serve", help="serve a directory as an object store")
    p.add_argument("--dir", required=True)
    p.add_argument("--port", type=int, default=0)
    _add_latency_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="run one benchmark configuration")
    _add_bench_flags(p)
    p.add_argument("--out", help="write result rows as JSON")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="run a configuration grid")
    _add_bench_flags(p)
    p.add_argument("--grid", required=True, help="JSON grid file")
    p.add_argument("--out", required=True, help="output directory for CSV/JSON")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tune", help="search loader configs for speed")
    _add_bench_flags(p)
    p.add_argument("--space", required=True,
                   help="JSON loader-config list or axis grid")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--tune-seed", type=int, default=0)
    p.add_argument("--out", help="write tuning outcome as JSON")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("analyze", help="tables from result files")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--group-by", default="batch_size,num_workers,backend")
    p.add_argument("--out", help="write analysis as JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="Markdown report from result files")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--out", required=True, help="report .md path")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--title", default="loadbench results")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
