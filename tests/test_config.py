import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadbench.bench import BackendConfig, BenchConfig
from loadbench.config import decode, encode, override
from loadbench.dataset import DatasetSpec
from loadbench.pipeline import LoaderConfig
from loadbench.sampling import FILTER_KINDS, SamplerConfig
from loadbench.storage import LatencyModel
from loadbench.transforms import TransformConfig

_u64 = st.integers(0, 2**64 - 1)
_ms = st.floats(0.0, 500.0, allow_nan=False)
_optional_int = st.none() | st.integers(1, 1000)


@st.composite
def _samplers(draw):
    world_size = draw(st.integers(1, 8))
    filtered = draw(st.booleans())
    return SamplerConfig(
        kind=draw(st.sampled_from(FILTER_KINDS if filtered
                                  else ("sequential", "shuffle"))),
        seed=draw(_u64),
        classes=(draw(st.frozensets(st.integers(0, 99), min_size=1))
                 if filtered else None),
        rank=draw(st.integers(0, world_size - 1)),
        world_size=world_size,
        drop_last_partial=draw(st.booleans()),
        scan_storage=draw(st.booleans()))


def _channel_values(low):
    value = st.floats(low, 10.0, allow_nan=False)
    return value | st.tuples(value, value, value)


_transforms = st.builds(
    TransformConfig,
    flip_probability=st.floats(0.0, 1.0),
    mean=_channel_values(-10.0),
    std=_channel_values(0.01),
    cutout_side=st.none() | st.integers(0, 64),
    seed=_u64)

_latencies = st.none() | st.builds(
    LatencyModel, mean_ms=_ms, std_ms=_ms, min_ms=_ms,
    distribution=st.sampled_from(("constant", "lognormal")),
    seed=st.none() | _u64)

_configs = st.builds(
    BenchConfig,
    loader=st.builds(LoaderConfig, batch_size=st.integers(1, 512),
                     num_workers=st.integers(0, 8),
                     prefetch_depth=_optional_int, drop_last=st.booleans(),
                     sampler=_samplers(), transform=_transforms),
    backend=st.builds(BackendConfig,
                      kind=st.sampled_from(("local", "memory", "remote")),
                      root=st.none() | st.text(max_size=12),
                      endpoint=st.none() | st.text(max_size=12),
                      latency=_latencies, cache_bytes=st.integers(0, 2**40)),
    split=st.sampled_from(("train", "val", "test")),
    epochs=st.integers(1, 10),
    cutoff_batches=_optional_int,
    cutoff_seconds=st.none() | st.floats(0.001, 100.0),
    run_model=st.booleans(),
    warmup_batches=st.integers(0, 10),
    speed_window=_optional_int,
    repetitions=st.integers(1, 5),
    replicas=st.integers(1, 4),
    consumer_delay_s=st.floats(0.0, 1.0),
    model_learning_rate=st.floats(1e-6, 1.0),
    model_seed=_u64,
    capture_digests=st.booleans())


@settings(deadline=None)
@given(_configs)
def test_json_roundtrip_is_exact(config):
    assert decode(BenchConfig, json.loads(json.dumps(encode(config)))) == config


def test_encode_plain_json():
    config = BenchConfig(loader=LoaderConfig(
        sampler=SamplerConfig(kind="filter_indexed", classes=frozenset({13, 0})),
        transform=TransformConfig(mean=(0.1, 0.2, 0.3))))
    payload = encode(config)
    assert payload["loader"]["sampler"]["classes"] == [0, 13]
    assert payload["loader"]["transform"]["mean"] == [0.1, 0.2, 0.3]
    assert payload["backend"]["latency"] is None
    assert encode(DatasetSpec(n_train=1, n_val=2, n_test=3, width=4, height=5,
                              channels=3, n_classes=6, seed=7)) == {
        "n_train": 1, "n_val": 2, "n_test": 3, "width": 4, "height": 5,
        "channels": 3, "n_classes": 6, "seed": 7}


def test_decode_names_the_dotted_path_of_a_bad_value():
    with pytest.raises(ValueError, match="'loader.sampler.kinds'"):
        decode(BenchConfig, {"loader": {"sampler": {"kinds": "shuffle"}}})
    with pytest.raises(ValueError, match=r"loader\.batch_size: expected int"):
        decode(BenchConfig, {"loader": {"batch_size": "64"}})
    with pytest.raises(ValueError, match=r"loader\.sampler\.classes\[1\]"):
        decode(BenchConfig, {"loader": {"sampler": {
            "kind": "filter_indexed", "classes": [0, "13"]}}})
    with pytest.raises(ValueError, match="run_model: expected bool"):
        decode(BenchConfig, {"run_model": 1})


def test_bare_string_is_the_kind():
    assert decode(BenchConfig, {"backend": "memory"}).backend == BackendConfig(
        kind="memory")


def test_override_merges_dicts_onto_the_current_value():
    base = BenchConfig(backend=BackendConfig(
        root="r", latency=LatencyModel(mean_ms=4.0, seed=2)))
    config = override(base, "backend", {"latency": {"std_ms": 1.0}})
    assert config.backend.root == "r"
    assert config.backend.latency == LatencyModel(mean_ms=4.0, std_ms=1.0, seed=2)
    assert override(base, "backend.latency", None).backend.latency is None
    assert override(BenchConfig(), "backend.latency.mean_ms",
                    3).backend.latency == LatencyModel(mean_ms=3.0)
    assert override(base, "backend", "remote").backend.root == "r"
    assert base.backend.kind == "local"  # configs are never changed in place
