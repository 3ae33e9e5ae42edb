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
# the same header as numpy structured-dtype fields, for whole-batch checks
RECORD_FIELDS = [("label", "<u2"), ("width", "<u2"), ("height", "<u2"),
                 ("channels", "u1"), ("payload_len", "<u4")]

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


_COLUMNS = ("shard", "offset", "length", "label")


@dataclass
class DatasetManifest:
    """Per-split catalog: the locators of ids 0..n-1 as columns, plus the class index.

    Sample ``i``'s record is ``length[i]`` bytes at ``offset[i]`` of the
    object ``shard_keys[shard[i]]``, and its label is ``label[i]``.  The
    four columns are read-only int64 arrays of one length, so a batch's
    extents and labels come from indexing them with its ids.
    """

    split: str
    spec: DatasetSpec
    shard_keys: tuple[str, ...]
    shard: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    label: np.ndarray
    class_index: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.shard_keys = tuple(self.shard_keys)
        for name in _COLUMNS:
            column = np.array(getattr(self, name), dtype=np.int64)
            column.setflags(write=False)
            setattr(self, name, column)
        if any(getattr(self, name).shape != (len(self.label),) for name in _COLUMNS):
            raise DatasetError("locator columns must be 1-D and of one length")
        if len(self.label) and (
                self.shard.min() < 0 or self.shard.max() >= len(self.shard_keys)
                or self.offset.min() < 0 or self.length.min() < 1):
            raise DatasetError("locator column outside its range")

    def __len__(self) -> int:
        return len(self.label)

    def labels(self) -> np.ndarray:
        return self.label

    def _rows(self):
        """Each sample's (shard key, offset, length, label), as Python values."""
        keys = self.shard_keys
        for s, o, n, lb in zip(*(getattr(self, name).tolist() for name in _COLUMNS)):
            yield keys[s], o, n, lb

    @property
    def locators(self) -> list[Locator]:
        """The locators as objects, derived from the columns on each access."""
        return [Locator(*row) for row in self._rows()]

    def to_json(self) -> str:
        payload = {
            "split": self.split,
            "spec": encode(self.spec),
            "locators": [list(row) for row in self._rows()],
            "class_index": {str(c): ids for c, ids in sorted(self.class_index.items())},
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "DatasetManifest":
        payload = json.loads(text)
        try:
            spec = decode(DatasetSpec, payload["spec"])
            rows = payload["locators"]
            if any(len(row) != 4 for row in rows):
                raise ValueError("a locator is not [shard, offset, length, label]")
            keys, offset, length, label = ([row[i] for row in rows] for i in range(4))
            # each shard key's index, in first-use order
            index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
            if not all(isinstance(key, str) for key in index):
                raise TypeError("a locator's shard is not a string")
            shard = [index[key] for key in keys]
            class_index = {int(c): list(map(int, ids))
                           for c, ids in payload["class_index"].items()}
            return cls(split=payload["split"], spec=spec, shard_keys=index,
                       shard=shard, offset=offset, length=length, label=label,
                       class_index=class_index)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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

        nbytes = RECORD_HEADER.size + spec.sample_nbytes
        ids = np.arange(n, dtype=np.int64)
        shard_keys = []
        for cursor in range(0, n, shard_capacity):
            count = min(shard_capacity, n - cursor)
            chunks = [SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, count)]
            for sample_id in range(cursor, cursor + count):
                record = ImageRecord(
                    label=int(labels[sample_id]),
                    width=spec.width,
                    height=spec.height,
                    channels=spec.channels,
                    pixels=_record_pixels(split_seed, sample_id, spec.sample_nbytes),
                )
                chunks.append(pack_record(record))
            shard_keys.append(shard_key(split, len(shard_keys)))
            backend.put(shard_keys[-1], b"".join(chunks))

        # every record of a split has one size, so its locators are arithmetic
        manifest = DatasetManifest(
            split=split, spec=spec, shard_keys=shard_keys,
            shard=ids // shard_capacity,
            offset=SHARD_HEADER.size + ids % shard_capacity * nbytes,
            length=np.full(n, nbytes), label=labels,
            class_index=build_class_index(labels))
        backend.put(manifest_key(split), manifest.to_json().encode("utf-8"))
        manifests[split] = manifest
    return manifests


def load_manifest(backend: StorageBackend, split: str) -> DatasetManifest:
    return DatasetManifest.from_json(backend.get(manifest_key(split)))


def record_extents(manifest: DatasetManifest,
                   ids) -> list[tuple[str, int, int]]:
    """The shard key, offset and length of each sample's record, in order:
    the requests of a ``StorageBackend.read_into`` of the records."""
    ids = np.asarray(ids, dtype=np.int64)
    outside = (ids < 0) | (ids >= len(manifest))
    if outside.any():
        raise IndexError(f"sample id {ids[outside][0]} out of range "
                         f"[0, {len(manifest)})")
    keys = map(manifest.shard_keys.__getitem__, manifest.shard[ids].tolist())
    return list(zip(keys, manifest.offset[ids].tolist(),
                    manifest.length[ids].tolist()))


def record_extent(manifest: DatasetManifest,
                  sample_id: int) -> tuple[str, ByteRange]:
    """The shard key and exact byte range of one sample's record."""
    key, offset, length = record_extents(manifest, [sample_id])[0]
    return key, ByteRange(offset, offset + length - 1)


def read_record(manifest: DatasetManifest, sample_id: int,
                backend: StorageBackend, buf: bytes | None = None) -> ImageRecord:
    """Decode one sample by id and check its label against the manifest.

    The record's bytes are ``buf`` when the caller fetched its
    ``record_extent`` already, otherwise one ranged read from ``backend``.
    """
    if buf is None:
        buf = backend.get(*record_extent(manifest, sample_id))
    record = unpack_record(buf)
    expected = int(manifest.label[sample_id])
    if record.label != expected:
        raise DatasetError(
            f"label mismatch for sample {sample_id}: "
            f"record says {record.label}, locator says {expected}")
    return record


def decode_records(manifest: DatasetManifest, ids: np.ndarray,
                   buf: np.ndarray) -> np.ndarray | None:
    """The records of samples ``ids`` as one (B, H, W, C) uint8 array.

    ``buf`` holds the records back to back, as ``read_into`` leaves them.
    Every header is checked at once, by ``read_record``'s rules:
    ``payload_len`` agrees with the dimensions, the extent is exactly header
    plus payload, and the label is the manifest's.  The records must also
    share one length and one shape.  Returns None when any record breaks a
    rule; ``read_record`` on each in turn then names the first bad one.
    The array is a view of ``buf``.
    """
    lengths = manifest.length[ids]
    size = int(lengths[0])
    if size < RECORD_HEADER.size or (lengths != size).any():
        return None
    records = np.frombuffer(buf, dtype=np.dtype(
        RECORD_FIELDS + [("payload", "u1", (size - RECORD_HEADER.size,))]))
    width, height, channels, payload_len = (
        records[name].astype(np.int64)
        for name in ("width", "height", "channels", "payload_len"))
    valid = ((payload_len == width * height * channels)
             & (payload_len == size - RECORD_HEADER.size)
             & (records["label"] == manifest.label[ids])
             & (width == width[0]) & (height == height[0])
             & (channels == channels[0]))
    if not valid.all():
        return None
    return records["payload"].reshape(
        len(ids), int(height[0]), int(width[0]), int(channels[0]))
