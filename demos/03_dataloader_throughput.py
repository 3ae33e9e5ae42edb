"""The dataloader and the speed metric: workers, prefetching, warm-up.

Under a 10 ms per-read latency, two prefetching workers roughly double
throughput, and the first batch is visibly slower than the rest (which is
why the speed metric skips it).  Contents never depend on the worker count.
"""

import hashlib
import tempfile
from pathlib import Path

from loadbench import (
    BackendConfig,
    BenchConfig,
    DatasetSpec,
    LatencyModel,
    LoaderConfig,
    SamplerConfig,
    TransformConfig,
    generate_random_dataset,
    run_loop,
)

root = Path(tempfile.mkdtemp(prefix="loadbench-demo-"))
spec = DatasetSpec(n_train=400, n_val=0, n_test=0, width=32, height=32,
                   channels=3, n_classes=10, seed=9)
generate_random_dataset(spec, root)


def bench(num_workers: int) -> None:
    config = BenchConfig(
        loader=LoaderConfig(batch_size=16, num_workers=num_workers,
                            prefetch_depth=max(1, 2 * num_workers),
                            sampler=SamplerConfig(kind="shuffle", seed=1),
                            transform=TransformConfig(seed=1)),
        backend=BackendConfig(kind="local", root=str(root),
                              latency=LatencyModel(mean_ms=10.0)),
        cutoff_batches=12,
        capture_digests=True,
    )
    result = run_loop(config)
    warm = result.per_batch_seconds[1:]
    digest = hashlib.md5("".join(result.batch_digests).encode()).hexdigest()[:8]
    print(f"workers={num_workers}: m={result.m:6.1f} samples/s  "
          f"first batch={result.first_batch_s * 1000:5.0f}ms  "
          f"mean batch={sum(warm) / len(warm) * 1000:5.0f}ms  "
          f"contents={digest}")


print("12 batches of 16 under 10 ms per-read latency:\n")
for workers in (0, 1, 2):
    bench(workers)

print("\nSame contents digest for every worker count: the pipeline is")
print("deterministic, only the timing changes.")
