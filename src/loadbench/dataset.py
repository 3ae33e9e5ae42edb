"""Synthetic image dataset: shard format, manifests, and seeded generation.

A dataset lives in a storage location as one directory per split
(``train/``, ``val/``, ``test/``), each holding binary ``.dlbs`` shard files
plus a ``manifest.json`` that maps every sample id to a (shard, offset,
length, label) locator and carries a class index for label-based filtering.

Shard file layout (all integers little-endian):

    magic   4 bytes  b"DLBS"
    version u16      currently 1
    count   u32      number of records in the shard
    records          repeated, each:
        label       u16
        width       u16
        height      u16
        channels    u8
        payload_len u32
        payload     payload_len bytes, (H, W, C) row-major uint8

Locators point at whole records (header included), so any backend that can
do ranged reads can fetch one sample without touching the rest of the shard.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import decode, encode
from .prng import derive_seed, stream_bytes, stream_u64
from .storage import StorageBackend, LocalBackend, ByteRange

SHARD_MAGIC = b"DLBS"
SHARD_VERSION = 1
SHARD_HEADER = struct.Struct("<4sHI")   # magic, version, record_count
RECORD_HEADER = struct.Struct("<HHHBI")  # label, width, height, channels, payload_len

SPLITS = ("train", "val", "test")
DEFAULT_SHARD_CAPACITY = 1000


class DatasetError(Exception):
    """Malformed shard, record, or manifest."""


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters that fully determine a synthetic dataset, seed included."""

    n_train: int
    n_val: int
    n_test: int
    width: int
    height: int
    channels: int
    n_classes: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("n_train", "n_val", "n_test"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def sample_nbytes(self) -> int:
        return self.width * self.height * self.channels

    def split_size(self, split: str) -> int:
        return {"train": self.n_train, "val": self.n_val, "test": self.n_test}[split]


@dataclass(frozen=True)
class ImageRecord:
    """One (image, label) sample; pixels are (H, W, C) row-major uint8 bytes."""

    label: int
    width: int
    height: int
    channels: int
    pixels: bytes

    def __post_init__(self) -> None:
        expected = self.width * self.height * self.channels
        if len(self.pixels) != expected:
            raise DatasetError(
                f"pixel payload is {len(self.pixels)} bytes, expected {expected}")

    def to_array(self) -> np.ndarray:
        """Pixels as an (H, W, C) uint8 array."""
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(
            self.height, self.width, self.channels)


@dataclass(frozen=True)
class Locator:
    """Where one sample's record lives: object key, byte extent, label."""

    shard: str
    offset: int
    length: int
    label: int


@dataclass
class DatasetManifest:
    """Per-split catalog: locators for ids 0..n-1 plus the class index."""

    split: str
    spec: DatasetSpec
    locators: list[Locator]
    class_index: dict[int, list[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.locators)

    def labels(self) -> np.ndarray:
        return np.array([loc.label for loc in self.locators], dtype=np.int64)

    def to_json(self) -> str:
        payload = {
            "split": self.split,
            "spec": encode(self.spec),
            "locators": [[l.shard, l.offset, l.length, l.label] for l in self.locators],
            "class_index": {str(c): ids for c, ids in sorted(self.class_index.items())},
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "DatasetManifest":
        payload = json.loads(text)
        try:
            spec = decode(DatasetSpec, payload["spec"])
            locators = [Locator(s, int(o), int(n), int(lb))
                        for s, o, n, lb in payload["locators"]]
            class_index = {int(c): [int(i) for i in ids]
                           for c, ids in payload["class_index"].items()}
            return cls(split=payload["split"], spec=spec,
                       locators=locators, class_index=class_index)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed manifest: {exc}") from exc


# full-scale synthetic dataset: 256x256 colour images, 20 classes,
# 45000/5000/500 samples per split
RANDOM_SPEC = DatasetSpec(n_train=45000, n_val=5000, n_test=500, width=256,
                          height=256, channels=3, n_classes=20, seed=1)

# desk-scale variant small enough to benchmark on a laptop
RANDOM_SMALL_SPEC = DatasetSpec(n_train=2000, n_val=200, n_test=100, width=64,
                                height=64, channels=3, n_classes=20, seed=7)


def manifest_key(split: str) -> str:
    return f"{split}/manifest.json"


def shard_key(split: str, index: int) -> str:
    return f"{split}/shard-{index:05d}.dlbs"


def build_class_index(labels) -> dict[int, list[int]]:
    """Map each observed class id to the ascending list of sample ids."""
    index: dict[int, list[int]] = {}
    for sample_id, label in enumerate(labels):
        index.setdefault(int(label), []).append(sample_id)
    return index


def pack_record(record: ImageRecord) -> bytes:
    header = RECORD_HEADER.pack(record.label, record.width, record.height,
                                record.channels, len(record.pixels))
    return header + record.pixels


def unpack_record(buf: bytes) -> ImageRecord:
    """Parse one record from its exact byte extent."""
    if len(buf) < RECORD_HEADER.size:
        raise DatasetError("record truncated before header")
    label, width, height, channels, payload_len = RECORD_HEADER.unpack_from(buf)
    if payload_len != width * height * channels:
        raise DatasetError("payload_len inconsistent with record dimensions")
    if len(buf) != RECORD_HEADER.size + payload_len:
        raise DatasetError(
            f"record extent is {len(buf)} bytes, expected {RECORD_HEADER.size + payload_len}")
    return ImageRecord(label=label, width=width, height=height,
                       channels=channels, pixels=buf[RECORD_HEADER.size:])


def validate_shard_header(buf: bytes) -> int:
    """Check magic and version; return the record count."""
    if len(buf) < SHARD_HEADER.size:
        raise DatasetError("shard truncated before header")
    magic, version, count = SHARD_HEADER.unpack_from(buf)
    if magic != SHARD_MAGIC:
        raise DatasetError(f"bad shard magic {magic!r}")
    if version != SHARD_VERSION:
        raise DatasetError(f"unsupported shard version {version}")
    return count


def _split_labels(split_seed: int, n: int, n_classes: int) -> np.ndarray:
    """Uniform labels in [0, n_classes); one 64-bit draw per sample."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    draws = stream_u64(derive_seed(split_seed, "labels"), n)
    return (draws % np.uint64(n_classes)).astype(np.int64)


def _record_pixels(split_seed: int, sample_id: int, nbytes: int) -> bytes:
    return stream_bytes(derive_seed(split_seed, "pixels", sample_id), nbytes)


def generate_random_dataset(
    spec: DatasetSpec,
    out: StorageBackend | str | Path,
    shard_capacity: int = DEFAULT_SHARD_CAPACITY,
) -> dict[str, DatasetManifest]:
    """Write the synthetic dataset for all three splits; return the manifests.

    Generation is deterministic: the same spec (seed included) produces
    byte-identical shards and manifests.  Each split draws from its own
    sub-stream so splits are independent of one another's sizes.
    """
    if shard_capacity < 1:
        raise ValueError("shard_capacity must be >= 1")
    backend = LocalBackend(out, create=True) if isinstance(out, (str, Path)) else out

    manifests: dict[str, DatasetManifest] = {}
    for split in SPLITS:
        n = spec.split_size(split)
        split_seed = derive_seed(spec.seed, split)
        labels = _split_labels(split_seed, n, spec.n_classes)

        locators: list[Locator] = []
        shard_index = 0
        cursor = 0
        while cursor < n:
            count = min(shard_capacity, n - cursor)
            chunks = [SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, count)]
            offset = SHARD_HEADER.size
            key = shard_key(split, shard_index)
            for sample_id in range(cursor, cursor + count):
                record = ImageRecord(
                    label=int(labels[sample_id]),
                    width=spec.width,
                    height=spec.height,
                    channels=spec.channels,
                    pixels=_record_pixels(split_seed, sample_id, spec.sample_nbytes),
                )
                blob = pack_record(record)
                chunks.append(blob)
                locators.append(Locator(shard=key, offset=offset,
                                        length=len(blob), label=record.label))
                offset += len(blob)
            backend.put(key, b"".join(chunks))
            shard_index += 1
            cursor += count

        manifest = DatasetManifest(
            split=split, spec=spec, locators=locators,
            class_index=build_class_index(labels))
        backend.put(manifest_key(split), manifest.to_json().encode("utf-8"))
        manifests[split] = manifest
    return manifests


def load_manifest(backend: StorageBackend, split: str) -> DatasetManifest:
    return DatasetManifest.from_json(backend.get(manifest_key(split)))


def record_extent(manifest: DatasetManifest,
                  sample_id: int) -> tuple[str, ByteRange]:
    """The shard key and exact byte range of one sample's record."""
    if not 0 <= sample_id < len(manifest.locators):
        raise IndexError(
            f"sample id {sample_id} out of range [0, {len(manifest.locators)})")
    loc = manifest.locators[sample_id]
    return loc.shard, ByteRange(loc.offset, loc.offset + loc.length - 1)


def read_record(manifest: DatasetManifest, sample_id: int,
                backend: StorageBackend, buf: bytes | None = None) -> ImageRecord:
    """Decode one sample by id and check its label against the manifest.

    The record's bytes are ``buf`` when the caller fetched its
    ``record_extent`` already, otherwise one ranged read from ``backend``.
    """
    if buf is None:
        buf = backend.get(*record_extent(manifest, sample_id))
    record = unpack_record(buf)
    expected = manifest.locators[sample_id].label
    if record.label != expected:
        raise DatasetError(
            f"label mismatch for sample {sample_id}: "
            f"record says {record.label}, locator says {expected}")
    return record
