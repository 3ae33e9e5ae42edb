"""Byte stores: ranged reads, injected latency, and the LRU cache.

Every backend honors the same contract, so the loader can read one record
out of the middle of a shard no matter where the shard lives.  Wrapping a
backend with a latency model recreates remote round trips; wrapping it with
the cache makes repeated reads free.
"""

import tempfile
import time
from pathlib import Path

from loadbench import (
    ByteRange,
    CachedBackend,
    DatasetSpec,
    LatencyBackend,
    LatencyModel,
    LocalBackend,
    generate_random_dataset,
)

root = Path(tempfile.mkdtemp(prefix="loadbench-demo-"))
spec = DatasetSpec(n_train=200, n_val=0, n_test=0, width=16, height=16,
                   channels=3, n_classes=5, seed=3)
manifests = generate_random_dataset(spec, root)
manifest = manifests["train"]
backend = LocalBackend(root)

locators = manifest.locators  # derived from the manifest's columns
loc = locators[17]
whole = backend.get(loc.shard)
ranged = backend.get(loc.shard, ByteRange(loc.offset, loc.offset + loc.length - 1))
print(f"shard {loc.shard}: {len(whole)} bytes total, "
      f"sample 17 occupies [{loc.offset}, {loc.offset + loc.length})")
print(f"ranged read returns {len(ranged)} bytes, "
      f"matches slice: {ranged == whole[loc.offset:loc.offset + loc.length]}\n")

# simulated round trips: every request pays one latency sample
slow = LatencyBackend(backend, LatencyModel(mean_ms=20.0))
t0 = time.perf_counter()
for sid in range(10):
    lo = locators[sid]
    slow.get(lo.shard, ByteRange(lo.offset, lo.offset + lo.length - 1))
print(f"10 reads at 20 ms constant latency: {time.perf_counter() - t0:.2f}s")

jittery = LatencyModel(mean_ms=59.2, std_ms=58.5, min_ms=8.8,
                       distribution="lognormal", seed=1)
samples = [jittery.sample_ms() for _ in range(1000)]
print(f"lognormal RTT: mean={sum(samples) / len(samples):.1f}ms "
      f"min={min(samples):.1f}ms (floor 8.8ms)\n")

# the cache turns repeated remote reads into hits
cache = CachedBackend(slow, capacity_bytes=512 * 1024)
t0 = time.perf_counter()
for _ in range(3):
    for sid in range(10):
        lo = locators[sid]
        cache.get(lo.shard, ByteRange(lo.offset, lo.offset + lo.length - 1))
elapsed = time.perf_counter() - t0
s = cache.stats
print(f"30 cached reads: {elapsed:.2f}s "
      f"(hits={s.hits}, misses={s.misses}, bytes fetched={s.bytes_read})")
