import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from loadbench.dataset import (
    RANDOM_SPEC,
    SHARD_HEADER,
    DatasetError,
    DatasetManifest,
    DatasetSpec,
    ImageRecord,
    build_class_index,
    generate_random_dataset,
    load_manifest,
    manifest_key,
    pack_record,
    read_record,
    unpack_record,
    validate_shard_header,
)
from loadbench.prng import derive_seed, stream_bytes
from loadbench.storage import LocalBackend, MemoryBackend

from conftest import TINY_SPEC


def test_full_scale_spec_constants():
    assert (RANDOM_SPEC.n_train, RANDOM_SPEC.n_val, RANDOM_SPEC.n_test) == (45000, 5000, 500)
    assert (RANDOM_SPEC.width, RANDOM_SPEC.height, RANDOM_SPEC.channels) == (256, 256, 3)
    assert RANDOM_SPEC.n_classes == 20


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(-1, 0, 0, 8, 8, 3, 2, 0)
    with pytest.raises(ValueError):
        DatasetSpec(1, 0, 0, 8, 8, 2, 2, 0)  # channels must be 1 or 3
    with pytest.raises(ValueError):
        DatasetSpec(1, 0, 0, 8, 8, 3, 0, 0)
    with pytest.raises(ValueError):
        DatasetSpec(1, 0, 0, 8, 8, 3, 2, 2**64)


def test_generate_counts_and_index_keys():
    # paper-scale sample counts, shrunk to 2x2 grayscale so the test stays fast
    spec = DatasetSpec(n_train=45000, n_val=5000, n_test=500, width=2, height=2,
                       channels=1, n_classes=20, seed=1)
    backend = MemoryBackend()
    manifests = generate_random_dataset(spec, backend, shard_capacity=10000)
    assert len(manifests["train"].locators) == 45000
    assert len(manifests["val"].locators) == 5000
    assert len(manifests["test"].locators) == 500
    assert len(manifests["train"].class_index) == 20


def test_generate_empty_split():
    spec = DatasetSpec(n_train=0, n_val=3, n_test=0, width=4, height=4,
                       channels=1, n_classes=2, seed=5)
    manifests = generate_random_dataset(spec, MemoryBackend())
    assert manifests["train"].locators == []
    assert manifests["train"].class_index == {}
    assert len(manifests["val"].locators) == 3


def test_generation_is_byte_identical(tmp_path):
    # oracle: regenerate with the same spec and hash every object
    spec = TINY_SPEC
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_random_dataset(spec, a, shard_capacity=16)
    generate_random_dataset(spec, b, shard_capacity=16)
    backend_a, backend_b = LocalBackend(a), LocalBackend(b)
    keys_a, keys_b = backend_a.list(), backend_b.list()
    assert keys_a == keys_b and len(keys_a) > 3
    for key in keys_a:
        ha = hashlib.sha256(backend_a.get(key)).hexdigest()
        hb = hashlib.sha256(backend_b.get(key)).hexdigest()
        assert ha == hb, key


def test_different_seed_changes_content(tmp_path):
    spec2 = dataclasses.replace(TINY_SPEC, seed=12)
    a = generate_random_dataset(TINY_SPEC, MemoryBackend())
    b = generate_random_dataset(spec2, MemoryBackend())
    labels_a = [l.label for l in a["train"].locators]
    labels_b = [l.label for l in b["train"].locators]
    assert labels_a != labels_b


def test_record_pack_roundtrip():
    record = ImageRecord(label=3, width=4, height=2, channels=3,
                         pixels=bytes(range(24)))
    assert unpack_record(pack_record(record)) == record


def test_record_payload_length_enforced():
    with pytest.raises(DatasetError):
        ImageRecord(label=0, width=4, height=2, channels=3, pixels=b"short")


def test_unpack_rejects_bad_extent():
    record = ImageRecord(label=1, width=2, height=2, channels=1, pixels=bytes(4))
    blob = pack_record(record)
    with pytest.raises(DatasetError):
        unpack_record(blob + b"x")
    with pytest.raises(DatasetError):
        unpack_record(blob[:-1])


def test_shard_header_validation():
    assert validate_shard_header(SHARD_HEADER.pack(b"DLBS", 1, 7)) == 7
    with pytest.raises(DatasetError):
        validate_shard_header(SHARD_HEADER.pack(b"NOPE", 1, 7))
    with pytest.raises(DatasetError):
        validate_shard_header(SHARD_HEADER.pack(b"DLBS", 2, 7))
    with pytest.raises(DatasetError):
        validate_shard_header(b"DL")


def test_shard_extents_cover_file(tiny_dataset):
    # invariant: the record extents tile each shard exactly, header to EOF
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    for manifest in manifests.values():
        by_shard: dict[str, list] = {}
        for loc in manifest.locators:
            by_shard.setdefault(loc.shard, []).append(loc)
        for shard, locs in by_shard.items():
            blob = backend.get(shard)
            count = validate_shard_header(blob)
            assert count == len(locs)
            locs.sort(key=lambda l: l.offset)
            cursor = SHARD_HEADER.size
            for loc in locs:
                assert loc.offset == cursor
                cursor += loc.length
            assert cursor == len(blob)


def test_read_record_roundtrip_one_sample():
    # oracle: a 1-sample dataset read back equals the generated stream
    spec = DatasetSpec(n_train=1, n_val=0, n_test=0, width=4, height=4,
                       channels=3, n_classes=2, seed=9)
    backend = MemoryBackend()
    manifests = generate_random_dataset(spec, backend)
    record = read_record(manifests["train"], 0, backend)
    split_seed = derive_seed(spec.seed, "train")
    assert record.pixels == stream_bytes(derive_seed(split_seed, "pixels", 0), 48)
    assert record.label == manifests["train"].locators[0].label


def test_read_record_all_ids_match_generation(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    spec = TINY_SPEC
    for split, manifest in manifests.items():
        split_seed = derive_seed(spec.seed, split)
        for sid in range(len(manifest)):
            record = read_record(manifest, sid, backend)
            assert record.label == manifest.locators[sid].label
            expected = stream_bytes(derive_seed(split_seed, "pixels", sid),
                                    spec.sample_nbytes)
            assert record.pixels == expected


def test_read_record_out_of_range(tiny_dataset):
    root, manifests = tiny_dataset
    backend = LocalBackend(root)
    with pytest.raises(IndexError):
        read_record(manifests["train"], len(manifests["train"]), backend)
    with pytest.raises(IndexError):
        read_record(manifests["train"], -1, backend)


def test_build_class_index_examples():
    assert build_class_index([0, 1, 0]) == {0: [0, 2], 1: [1]}
    assert build_class_index([2] * 5) == {2: [0, 1, 2, 3, 4]}
    assert build_class_index([]) == {}


def test_class_index_matches_full_scan(tiny_dataset):
    # oracle: count labels by scanning every locator
    _, manifests = tiny_dataset
    for manifest in manifests.values():
        scan = Counter(loc.label for loc in manifest.locators)
        assert {c: len(ids) for c, ids in manifest.class_index.items()} == dict(scan)
        seen = sorted(i for ids in manifest.class_index.values() for i in ids)
        assert seen == list(range(len(manifest)))
        for cls, ids in manifest.class_index.items():
            assert ids == sorted(ids)
            assert all(manifest.locators[i].label == cls for i in ids)


def test_manifest_json_roundtrip(tiny_dataset):
    _, manifests = tiny_dataset
    manifest = manifests["train"]
    restored = DatasetManifest.from_json(manifest.to_json())
    assert restored.split == manifest.split
    assert restored.spec == manifest.spec
    assert restored.locators == manifest.locators
    assert restored.class_index == manifest.class_index


def test_manifest_wire_format(tiny_dataset):
    # the documented JSON field layout
    root, _ = tiny_dataset
    payload = json.loads(LocalBackend(root).get(manifest_key("val")))
    assert set(payload) == {"split", "spec", "locators", "class_index"}
    assert payload["split"] == "val"
    first = payload["locators"][0]
    assert isinstance(first, list) and len(first) == 4
    shard, offset, length, label = first
    assert isinstance(shard, str) and shard.startswith("val/")


@pytest.mark.parametrize("at_n", [False, True], ids=["below-0", "at-n"])
def test_a_class_index_id_outside_the_manifest_is_refused(tiny_dataset, at_n):
    _, manifests = tiny_dataset
    manifest = manifests["train"]
    bad = len(manifest) if at_n else -1
    class_index = {**manifest.class_index, 0: manifest.class_index[0] + [bad]}
    with pytest.raises(DatasetError, match="class index"):
        dataclasses.replace(manifest, class_index=class_index)
    payload = json.loads(manifest.to_json())
    payload["class_index"]["0"].append(bad)
    with pytest.raises(DatasetError, match="class index"):
        DatasetManifest.from_json(json.dumps(payload))


def test_load_manifest(tiny_dataset):
    root, manifests = tiny_dataset
    loaded = load_manifest(LocalBackend(root), "test")
    assert loaded.locators == manifests["test"].locators


def test_label_mismatch_detected():
    spec = DatasetSpec(n_train=2, n_val=0, n_test=0, width=2, height=2,
                       channels=1, n_classes=4, seed=2)
    backend = MemoryBackend()
    manifests = generate_random_dataset(spec, backend)
    label = manifests["train"].label.copy()
    label[0] = (label[0] + 1) % spec.n_classes
    manifest = dataclasses.replace(manifests["train"], label=label)
    with pytest.raises(DatasetError):
        read_record(manifest, 0, backend)


def test_generate_rejects_bad_capacity():
    with pytest.raises(ValueError):
        generate_random_dataset(TINY_SPEC, MemoryBackend(), shard_capacity=0)
