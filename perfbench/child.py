"""One timed repetition of a workload, in a fresh process.

Usage: ``python3 perfbench/child.py JOB_JSON``, where the job names the
workload, seed, dataset directory or server endpoint, whether to trace, and
where to write the trace.  Prints one JSON line with what the run measured.
A fresh process per repetition keeps ``peak_rss_mb`` clean.

On a workload with ``host_scaled`` set, the speed and times are given at a
reference host speed: the child times a fixed stretch of work that runs no
``loadbench`` code (``host_seconds``) just before and just after the
repetition, and scales ``m`` by ``host_s / HOST_REF_S`` and each time by its
inverse.  On a shared host the speed of such CPU-bound work drifts by a third
for minutes at a time, and the fixed work drifts with it (their logarithms
correlate at about 0.85 across repetitions), so scaling removes most of that
drift while any change to the package still moves the figures in full.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

from workloads import bench_config, epoch_starts, get_workload, use_checkout_source


# About the fastest host_seconds() ran on a 2-vCPU VM (Python 3.11,
# numpy 2.4); it fixes the unit of scaled figures and nothing else.
HOST_REF_S = 0.05


def host_seconds() -> float:
    """Time a fixed mix of small-array numpy and interpreter work.

    The mix is that of the transform stack and the sample-seed hashing,
    written out here so that no change to the package can speed it up.
    """
    img = np.arange(64 * 64 * 3, dtype=np.uint32).reshape(64, 64, 3).astype(np.uint8)
    x = 0x9E3779B97F4A7C15
    t0 = time.perf_counter()
    for i in range(2000):
        a = np.ascontiguousarray(img.transpose(2, 0, 1)).astype(np.float32) / 255.0
        a = (np.ascontiguousarray(a[:, :, ::-1]) - 0.5) / 0.5
        a[:, i % 48:i % 48 + 16, 8:24] = 0.0
        for _ in range(8):
            x = (x * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - t0


def main(job: dict) -> dict:
    use_checkout_source()
    from loadbench.bench import BackendConfig, run_loop

    workload = get_workload(job["workload"], job["toy"])
    backend = (BackendConfig(kind="remote", endpoint=job["endpoint"])
               if workload.remote
               else BackendConfig(kind="memory", root=job["data_dir"]))
    config = bench_config(workload, job["seed"], backend)

    host_s = host_seconds() / 2
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        result = run_loop(config)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    host_s += host_seconds() / 2

    # Times are multiplied by `to_ref`, speeds divided by it.
    to_ref = HOST_REF_S / host_s if workload.host_scaled else 1.0
    firsts = epoch_starts(workload, len(result.per_batch_seconds))
    out = {
        "m": result.m / to_ref,
        "setup_s": (wall - sum(result.epoch_times)) * to_ref,
        "first_batch_s": [result.per_batch_seconds[i] * to_ref for i in firsts],
        "host_s": host_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "delivered": len(result.per_batch_seconds),
        "ids": result.processed_ids,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(result)
        if job.get("trace_out"):
            tracer.write_chrome(job["trace_out"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
