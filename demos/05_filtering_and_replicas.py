"""Class filtering (with and without the index) and data-parallel replicas.

Keeping only two classes can go through the manifest's class index or
through a naive scan that loads every record just to look at its label; the
results are identical, the costs are not.  The replica run splits one epoch
across two consumers on disjoint shards.
"""

import tempfile
import time
from dataclasses import replace
from pathlib import Path

from loadbench import (
    BackendConfig,
    BenchConfig,
    DatasetSpec,
    LatencyModel,
    LoaderConfig,
    LocalBackend,
    SamplerConfig,
    TransformConfig,
    epoch_order,
    generate_random_dataset,
    run,
)

root = Path(tempfile.mkdtemp(prefix="loadbench-demo-"))
spec = DatasetSpec(n_train=1000, n_val=0, n_test=0, width=16, height=16,
                   channels=3, n_classes=20, seed=6)
manifests = generate_random_dataset(spec, root)
manifest = manifests["train"]
backend = LocalBackend(root)
classes = frozenset({0, 13})

t0 = time.perf_counter()
indexed = epoch_order(SamplerConfig(kind="filter_indexed", seed=1,
                                    classes=classes), manifest, 0)
t_indexed = time.perf_counter() - t0

t0 = time.perf_counter()
naive = epoch_order(SamplerConfig(kind="filter_naive", seed=1, classes=classes,
                                  scan_storage=True), manifest, 0,
                    backend=backend)
t_naive = time.perf_counter() - t0

print(f"filter classes {set(classes)} out of 1000 samples:")
print(f"  via class index: {len(indexed):4d} ids in {t_indexed * 1000:7.2f}ms")
print(f"  via full scan:   {len(naive):4d} ids in {t_naive * 1000:7.2f}ms")
print(f"  same id set: {set(indexed) == set(naive)}\n")

config = BenchConfig(
    loader=LoaderConfig(batch_size=8, num_workers=0,
                        sampler=SamplerConfig(kind="shuffle", seed=3),
                        transform=TransformConfig(seed=3)),
    backend=BackendConfig(kind="local", root=str(root),
                          latency=LatencyModel(mean_ms=5.0)))

for world in (1, 2):
    # one result per replica; they ran concurrently, so their speeds add up
    results = run(replace(config, replicas=world))
    ids = [set(r.processed_ids) for r in results]
    covered = len(set().union(*ids))
    print(f"world={world}: aggregate {sum(r.m for r in results):6.1f} samples/s, "
          f"{covered} distinct samples processed")

print("\nTwo replicas read disjoint halves concurrently, so the aggregate")
print("speed roughly doubles while every sample is still seen exactly once.")
