import numpy as np

from loadbench.prng import (
    SplitMix64,
    derive_seed,
    fisher_yates,
    mix64,
    mix64_array,
    stream_bytes,
    stream_u64,
)


def test_stream_matches_scalar_generator():
    for seed in (0, 1, 7, 2**64 - 1, 0xDEADBEEF):
        rng = SplitMix64(seed)
        scalar = [rng.next_u64() for _ in range(32)]
        vector = stream_u64(seed, 32).tolist()
        assert scalar == vector


def test_mix64_is_deterministic_and_64bit():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(12345) < 2**64
    assert mix64(1) != mix64(2)


def test_derive_seed_separates_streams():
    seeds = {
        derive_seed(7, "train"),
        derive_seed(7, "val"),
        derive_seed(7, "test"),
        derive_seed(7, "train", 0),
        derive_seed(7, "train", 1),
        derive_seed(8, "train"),
    }
    assert len(seeds) == 6
    assert derive_seed(7, "train") == derive_seed(7, "train")


def test_stream_bytes_length_and_determinism():
    data = stream_bytes(42, 1000)
    assert len(data) == 1000
    assert data == stream_bytes(42, 1000)
    assert data != stream_bytes(43, 1000)
    # odd lengths truncate the word stream, sharing the prefix
    assert stream_bytes(42, 13) == data[:13]


def test_next_float_in_unit_interval():
    rng = SplitMix64(3)
    draws = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < float(np.mean(draws)) < 0.6


def test_next_below_bounds():
    rng = SplitMix64(5)
    draws = [rng.next_below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_fisher_yates_is_permutation_and_seeded():
    for n in (1, 2, 17, 500):
        perm = fisher_yates(n, 123)
        assert sorted(perm.tolist()) == list(range(n))
    assert fisher_yates(100, 1).tolist() == fisher_yates(100, 1).tolist()
    assert fisher_yates(100, 1).tolist() != fisher_yates(100, 2).tolist()


def _fisher_yates_reference(n, seed):
    # one scalar draw per swap, interleaved with the swaps
    order = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def test_fisher_yates_matches_scalar_reference():
    for n in (0, 1, 2, 3, 100, 1000, 2000, 20_000):
        for seed in (0, 9, 2**64 - 1):
            perm = fisher_yates(n, seed)
            assert perm.dtype == np.int64
            assert perm.tolist() == _fisher_yates_reference(n, seed), (n, seed)


def test_mix64_array_matches_scalar():
    values = [0, 1, 255, 2**32 + 7, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    mixed = mix64_array(np.array(values, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix64(v) for v in values]
