"""Generate a synthetic dataset and poke around in what lands on disk.

The dataset is fully determined by its spec (seed included): shard files of
raw records plus one JSON manifest per split with byte-range locators and a
class index.  Run me twice and the bytes will not change.
"""

import hashlib
import tempfile
from pathlib import Path

from loadbench import DatasetSpec, LocalBackend, generate_random_dataset, read_record

root = Path(tempfile.mkdtemp(prefix="loadbench-demo-"))
spec = DatasetSpec(n_train=500, n_val=50, n_test=20, width=32, height=32,
                   channels=3, n_classes=10, seed=42)

manifests = generate_random_dataset(spec, root, shard_capacity=200)
backend = LocalBackend(root)

print(f"dataset written under {root}\n")
for split, manifest in manifests.items():
    print(f"{split:>5}: {len(manifest):4d} samples in "
          f"{len(manifest.shard_keys)} shard(s), "
          f"{len(manifest.class_index)} classes populated")

print("\nobjects on disk:")
for key in backend.list(""):
    print(f"  {key}  ({backend.size(key)} bytes)")

train = manifests["train"]
record = read_record(train, 123, backend)
print(f"\nsample 123: label={record.label}, "
      f"{record.width}x{record.height}x{record.channels}, "
      f"{len(record.pixels)} pixel bytes")
print(f"first pixels: {record.pixels[:12].hex()}")

ids_for_label = train.class_index[record.label][:8]
print(f"class index for label {record.label} starts with: {ids_for_label}")

# determinism: regenerating produces byte-identical shards
second = Path(tempfile.mkdtemp(prefix="loadbench-demo-"))
generate_random_dataset(spec, second, shard_capacity=200)
key = train.shard_keys[train.shard[123]]
a = hashlib.sha256(backend.get(key)).hexdigest()
b = hashlib.sha256(LocalBackend(second).get(key)).hexdigest()
print(f"\nregenerated shard hash matches: {a == b}")
