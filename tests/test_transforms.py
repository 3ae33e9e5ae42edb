import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadbench.dataset import ImageRecord
from loadbench.prng import SplitMix64, derive_seed, stream_bytes
from loadbench.transforms import (
    TransformConfig,
    apply_stack,
    apply_stack_batch,
    cutout,
    horizontal_flip,
    normalize,
    sample_seed,
    sample_seeds,
    to_tensor,
)


def _record(width, height, channels, pixels=None, label=0):
    if pixels is None:
        pixels = stream_bytes(7, width * height * channels)
    return ImageRecord(label=label, width=width, height=height,
                       channels=channels, pixels=pixels)


def test_to_tensor_zeros_and_full_scale():
    zero = _record(4, 4, 3, bytes(48))
    assert np.all(to_tensor(zero) == 0.0)
    full = _record(2, 2, 1, bytes([255] * 4))
    assert np.all(to_tensor(full) == 1.0)


def test_to_tensor_layout():
    # oracle: index arithmetic on the raw byte buffer
    record = _record(4, 4, 3)
    tensor = to_tensor(record)
    assert tensor.shape == (3, 4, 4)
    assert tensor.dtype == np.float32
    raw = record.pixels
    for c in range(3):
        for y in range(4):
            for x in range(4):
                expected = raw[(y * 4 + x) * 3 + c] / 255.0
                assert tensor[c, y, x] == np.float32(expected)


def test_flip_involution_and_width_one():
    img = to_tensor(_record(5, 3, 3))
    assert np.array_equal(horizontal_flip(horizontal_flip(img, True), True), img)
    skinny = to_tensor(_record(1, 4, 1))
    assert np.array_equal(horizontal_flip(skinny, True), skinny)


def test_flip_known_matrix():
    # 2 rows x 3 cols, one channel, hand-enumerated
    data = np.array([[[1., 2., 3.], [4., 5., 6.]]], dtype=np.float32)
    flipped = horizontal_flip(data, True)
    expected = np.array([[[3., 2., 1.], [6., 5., 4.]]], dtype=np.float32)
    assert np.array_equal(flipped, expected)
    assert np.array_equal(horizontal_flip(data, False), data)


def test_normalize_identity_and_centering():
    img = to_tensor(_record(4, 2, 3))
    assert np.array_equal(normalize(img, 0.0, 1.0), img)
    constant = np.full((3, 2, 2), 0.25, dtype=np.float32)
    assert np.all(normalize(constant, 0.25, 1.0) == 0.0)
    ones = np.ones((1, 2, 2), dtype=np.float32)
    assert np.all(normalize(ones, 0.5, 0.5) == 1.0)


def test_normalize_rejects_bad_std():
    img = np.ones((1, 2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        normalize(img, 0.0, 0.0)
    with pytest.raises(ValueError):
        TransformConfig(std=-1.0)


def test_cutout_side_zero_identity():
    img = to_tensor(_record(6, 6, 1))
    assert np.array_equal(cutout(img, 0, (3, 3)), img)


def test_cutout_interior_square():
    img = np.ones((1, 8, 8), dtype=np.float32)
    out = cutout(img, 4, (4, 4))
    assert out.sum() == 64 - 16
    assert np.all(out[:, 2:6, 2:6] == 0.0)


def test_cutout_clipped_at_corner():
    # oracle: rectangle intersection computed independently
    channels, height, width = 3, 8, 10
    img = np.ones((channels, height, width), dtype=np.float32)
    for center in [(0, 0), (0, 9), (7, 0), (7, 9), (1, 8), (6, 1)]:
        side = 4
        cy, cx = center
        y0, x0 = max(cy - side // 2, 0), max(cx - side // 2, 0)
        y1 = min(cy - side // 2 + side, height)
        x1 = min(cx - side // 2 + side, width)
        area = (y1 - y0) * (x1 - x0)
        out = cutout(img, side, center)
        zeroed = int((out == 0.0).sum())
        assert zeroed == area * channels, center


def test_apply_stack_collapses_to_identity():
    record = _record(8, 8, 3)
    config = TransformConfig(flip_probability=0.0, mean=0.0, std=1.0,
                             cutout_side=0, seed=1)
    out = apply_stack(record, config, sample_seed(1, 0, 0))
    assert np.array_equal(out, to_tensor(record))


def test_apply_stack_deterministic():
    record = _record(16, 16, 3)
    config = TransformConfig(seed=5)
    seed = sample_seed(config.seed, epoch=2, sample_id=9)
    a = apply_stack(record, config, seed)
    b = apply_stack(record, config, seed)
    assert np.array_equal(a, b)
    c = apply_stack(record, config, sample_seed(config.seed, 2, 10))
    assert not np.array_equal(a, c)


def test_apply_stack_shape_preserved():
    for w, h, c in [(8, 8, 3), (5, 9, 1), (16, 4, 3)]:
        record = _record(w, h, c)
        out = apply_stack(record, TransformConfig(seed=2), sample_seed(2, 0, 0))
        assert out.shape == (c, h, w)
        assert np.all(np.isfinite(out))


def test_value_ranges():
    record = _record(8, 8, 3)
    tensor = to_tensor(record)
    assert tensor.min() >= 0.0 and tensor.max() <= 1.0
    normed = normalize(tensor, 0.5, 0.5)
    assert normed.min() >= -1.0 and normed.max() <= 1.0


def test_default_cutout_side_is_quarter():
    config = TransformConfig()
    assert config.resolved_cutout_side(64, 64) == 16
    assert config.resolved_cutout_side(6, 9) == 1
    with pytest.raises(ValueError):
        TransformConfig(cutout_side=10).resolved_cutout_side(8, 8)


def test_flip_probability_validation():
    with pytest.raises(ValueError):
        TransformConfig(flip_probability=1.5)
    with pytest.raises(ValueError):
        TransformConfig(cutout_side=-1)


# -- the batch stack against a per-sample oracle --------------------------------

def _oracle_stack(record, config, seed):
    # the stack one sample at a time, from the single-image steps
    rng = SplitMix64(seed)
    img = to_tensor(record)
    img = horizontal_flip(img, rng.next_float() < config.flip_probability)
    img = normalize(img, config.mean, config.std)
    side = config.resolved_cutout_side(record.height, record.width)
    if side > 0:
        cy = rng.next_below(record.height)
        cx = rng.next_below(record.width)
        img = cutout(img, side, (cy, cx))
    return img


@st.composite
def _batches(draw):
    channels = draw(st.sampled_from([1, 3]))
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    size = draw(st.integers(1, 6))
    pixel_seed = draw(st.integers(0, 2**64 - 1))
    records = [_record(width, height, channels,
                       stream_bytes(derive_seed(pixel_seed, i),
                                    width * height * channels))
               for i in range(size)]
    side = draw(st.sampled_from([0, None, min(height, width)]))
    moments = st.floats(0.05, 1.0)
    if draw(st.booleans()):
        mean, std = draw(moments), draw(moments)
    else:
        mean = tuple(draw(st.lists(moments, min_size=channels,
                                   max_size=channels)))
        std = tuple(draw(st.lists(moments, min_size=channels,
                                  max_size=channels)))
    config = TransformConfig(
        flip_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mean=mean, std=std, cutout_side=side,
        seed=draw(st.integers(0, 2**64 - 1)))
    epoch = draw(st.integers(0, 1000))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=size,
                        max_size=size))
    return records, config, [sample_seed(config.seed, epoch, i) for i in ids]


@settings(deadline=None, max_examples=200)
@given(_batches())
def test_batch_stack_matches_per_sample_oracle(case):
    records, config, seeds = case
    out = apply_stack_batch(records, config, np.array(seeds, dtype=np.uint64))
    expected = np.stack([_oracle_stack(r, config, s)
                         for r, s in zip(records, seeds)])
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()  # bit for bit, signed zeros too
    for record, seed, img in zip(records, seeds, expected):
        assert apply_stack(record, config, seed).tobytes() == img.tobytes()


def test_batch_stack_rejects_mixed_shapes():
    records = [_record(8, 8, 3), _record(8, 8, 1)]
    with pytest.raises(ValueError, match="heterogeneous sample shapes"):
        apply_stack_batch(records, TransformConfig(), sample_seeds(0, 0, [0, 1]))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**64 - 1), epoch=st.integers(0, 2**40),
       ids=st.lists(st.integers(0, 2**63 - 1), max_size=8))
def test_sample_seeds_match_scalar(seed, epoch, ids):
    seeds = sample_seeds(seed, epoch, np.array(ids, dtype=np.int64))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [sample_seed(seed, epoch, i) for i in ids]


def test_sample_seeds_wide_ids_and_late_epochs():
    ids = [0, 1, 255, 256, 2**56 - 1, 2**56, 2**56 + 3, 2**62 + 12345]
    for epoch in (0, 1, 255, 256, 70_000):
        assert (sample_seeds(5, epoch, np.array(ids)).tolist()
                == [sample_seed(5, epoch, i) for i in ids])
