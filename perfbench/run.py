"""Loader benchmark: one workload, measured as a training loop receives it.

Usage::

    python3 perfbench/run.py --workload mem-augment --seed 0 --seconds 50 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One run:

1. generates the workload's dataset from ``--seed`` (untimed);
2. builds per-batch digests in two untimed passes, a 0-worker
   ``MemoryBackend`` reference and the workload's own pipeline, and compares
   them batch by batch (and, for the default seed, with ``digests.json``);
3. repeats the timed ``run_loop`` in a fresh child process for about
   ``--seconds`` (at least three times), checking that every
   repetition delivered the reference's sample ids batch by batch;
4. prints the environment, then one JSON line: ``correct``, ``attempted``
   and ``failed`` batches, and the metrics.  ``--trace 0`` reports the
   end-to-end metrics of ``BENCHMARK.json`` as medians over repetitions,
   at a reference host speed on ``host_scaled`` workloads (see ``child.py``);
   ``--trace 1`` alternates untraced and traced repetitions and reports the
   per-layer metrics as medians over the traced ones, writing the first
   traced repetition's spans to ``.perfbench_out/<workload>.trace.json``.

``--toy`` shrinks every workload to a few batches, for the smoke test.
``--record-digests`` stores the reference digests of this seed in
``digests.json`` instead of checking them; run it for the default seed
when the dataset format or the transform stack changes on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from store import Store
from workloads import (
    DEFAULT_SEED, ROOT, WORKLOADS, batch_sizes, bench_config, dataset_spec,
    get_workload, use_checkout_source,
)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
MIN_REPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


class Deadline:
    def __init__(self, seconds: float) -> None:
        self._end = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self._end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran past its deadline")
        return left


def environment() -> dict:
    import numpy

    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": commit,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def split_batches(ids: list[int], sizes: list[int]) -> list[list[int]]:
    out, start = [], 0
    for size in sizes:
        out.append(ids[start:start + size])
        start += size
    return out


def digest_passes(workload, args, data_dir: Path, deadline: Deadline):
    """Untimed reference and pipeline passes.

    Returns the reference's ids per batch and the number of batches the
    pipeline pass failed to deliver or delivered with other bytes.
    """
    from loadbench.bench import BackendConfig, run_loop

    memory = BackendConfig(kind="memory", root=str(data_dir))
    reference = run_loop(bench_config(workload, args.seed, memory,
                                      num_workers=0, capture_digests=True))
    expected = reference.batch_digests
    if args.record_digests:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[workload.name] = {"seed": args.seed, "digests": expected}
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    if workload.remote:
        store = Store(data_dir, workload.rtt_ms, timeout=deadline.remaining())
        with store as endpoint:
            backend = BackendConfig(kind="remote", endpoint=endpoint)
            piped = run_loop(bench_config(workload, args.seed, backend,
                                          capture_digests=True))
    else:
        piped = run_loop(bench_config(workload, args.seed, memory,
                                      capture_digests=True))

    committed = None
    if args.seed == DEFAULT_SEED and not args.toy and not args.record_digests:
        committed = json.loads(DIGESTS.read_text())[workload.name]["digests"]
    sizes = batch_sizes(workload)
    failed = 0
    for i in range(len(sizes)):
        got = piped.batch_digests[i] if i < len(piped.batch_digests) else None
        want = expected[i] if i < len(expected) else None
        if got is None or got != want or (
                committed is not None and committed[i:i + 1] != [got]):
            failed += 1
    return split_batches(reference.processed_ids, sizes), failed


def run_child(job: dict, deadline: Deadline) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                          capture_output=True, text=True,
                          timeout=deadline.remaining())
    if proc.returncode != 0:
        raise RuntimeError(f"repetition failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(workload, job: dict, data_dir: Path, deadline: Deadline) -> dict:
    counts = {"size": 0, "get": 0}  # no server, no server calls
    if workload.remote:
        store = Store(data_dir, workload.rtt_ms, timeout=deadline.remaining())
        with store as endpoint:
            rep = run_child(dict(job, endpoint=endpoint), deadline)
        counts = store.counts
    else:
        rep = run_child(dict(job, data_dir=str(data_dir)), deadline)
    if "layers" in rep:
        rep["layers"]["server.backend.size.calls"] = counts["size"]
        rep["layers"]["server.backend.get.calls"] = counts["get"]
    return rep


def failed_batches(rep: dict, expected: list[list[int]]) -> int:
    """Planned batches not delivered, or delivered with other sample ids."""
    sizes = [len(batch) for batch in expected]
    got = split_batches(rep["ids"][:sum(sizes)], sizes)
    wrong = sum(g != e for g, e in zip(got[:rep["delivered"]], expected))
    return len(expected) - rep["delivered"] + wrong


def measure(workload, args, data_dir: Path, deadline: Deadline):
    """Timed repetitions: untraced only, or untraced and traced in turn."""
    job = {"workload": workload.name, "seed": args.seed, "toy": args.toy}
    kinds = (False, True) if args.trace else (False,)
    reps: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    start = time.monotonic()
    while True:
        # Stop once the next round would end more than half a round past
        # --seconds, so a run lasts about --seconds whatever a round takes.
        elapsed, rounds = time.monotonic() - start, len(reps[kinds[-1]])
        if rounds >= MIN_REPS and elapsed + 0.5 * elapsed / rounds > args.seconds:
            break
        for traced in kinds:
            trace_out = None
            if traced and not reps[True]:
                OUT.mkdir(exist_ok=True)
                trace_out = str(OUT / f"{workload.name}.trace.json")
            reps[traced].append(run_rep(
                workload, dict(job, trace=traced, trace_out=trace_out),
                data_dir, deadline))
    return reps


def metrics(reps: dict[bool, list[dict]], traced: bool) -> dict[str, float]:
    plain = reps[False]
    m = statistics.median(r["m"] for r in plain)
    if not traced:
        return {
            "m": m,
            "first_batch_s": statistics.median(
                t for r in plain for t in r["first_batch_s"]),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    layers = [r["layers"] for r in reps[True]]
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    out["trace.overhead_frac"] = 1.0 - statistics.median(
        r["m"] for r in reps[True]) / m
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    from loadbench.dataset import generate_random_dataset

    deadline = Deadline(DEADLINE_S)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = get_workload(args.workload, args.toy)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        data_dir = work / "data"
        generate_random_dataset(dataset_spec(workload, args.seed), data_dir)
        expected, failed = digest_passes(workload, args, data_dir, deadline)
        reps = measure(workload, args, data_dir, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [r for kind in reps.values() for r in kind]
    attempted = len(expected) * (1 + len(every))
    failed += sum(failed_batches(r, expected) for r in every)
    values = metrics(reps, bool(args.trace))
    key = "per_layer" if args.trace else "end_to_end"
    print("env", json.dumps(environment()))
    print("reps", json.dumps({
        ("traced" if kind else "untraced"): [
            {k: v for k, v in r.items() if k not in ("ids", "layers")} for r in rs]
        for kind, rs in reps.items()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[key]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
