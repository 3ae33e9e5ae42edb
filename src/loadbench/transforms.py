"""Classification transform stack: flip, normalize, cutout, tensor layout.

Images enter as raw (H, W, C) uint8 pixels and leave as float32 (C, H, W)
arrays.  The random steps (flip decision, cutout center) are driven by a
per-sample seed, so the augmented output is a pure function of (pixels,
config, seed) no matter which worker computes it or which batch it is in.

The stack has one implementation, ``apply_stack_batch``, which takes a
whole batch as one (B, H, W, C) uint8 array, such as the view the loader
decodes a batch's records into.  It is ``draw_stack`` then ``apply_draws``:
the first draws the seeds' random numbers for every sample at once, and a
sample's draws depend only on its seed, so the loader draws them once for a
whole epoch and hands each batch its rows.  In ``apply_draws`` one
``np.copyto`` per sample casts the image to float32 in the transposed
(C, H, W) layout, reading the flipped images mirrored; the float32 output
is then scaled and normalized in place, and cutout is a slice assignment.
``apply_stack`` is the one-record case.  Every element goes through the
same float32 operations in the same order as the single-image steps below
(``to_tensor``, ``horizontal_flip``, ``normalize``, ``cutout``), so the two
give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ImageRecord
from .prng import GAMMA, MASK64, derive_seed, mix64_array

# a transformed image: float32 array in (C, H, W) layout
TensorImage = np.ndarray


@dataclass(frozen=True)
class TransformConfig:
    """Stack parameters; cutout_side=None means floor(min(H, W) / 4)."""

    flip_probability: float = 0.5
    mean: float | tuple[float, ...] = 0.5
    std: float | tuple[float, ...] = 0.5
    cutout_side: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in [0, 1]")
        if self.cutout_side is not None and self.cutout_side < 0:
            raise ValueError("cutout_side must be >= 0")
        if np.any(np.asarray(self.std, dtype=np.float64) <= 0):
            raise ValueError("std must be strictly positive")

    def resolved_cutout_side(self, height: int, width: int) -> int:
        side = (min(height, width) // 4 if self.cutout_side is None
                else self.cutout_side)
        if side > min(height, width):
            raise ValueError(
                f"cutout side {side} exceeds image min dimension {min(height, width)}")
        return side


def to_tensor(record: ImageRecord) -> TensorImage:
    """(H, W, C) uint8 bytes -> (C, H, W) float32 scaled into [0, 1]."""
    arr = record.to_array()
    return np.ascontiguousarray(arr.transpose(2, 0, 1)).astype(np.float32) / 255.0


def horizontal_flip(img: TensorImage, flipped: bool) -> TensorImage:
    """Mirror columns (x -> W-1-x) when ``flipped``; identity otherwise."""
    if not flipped:
        return img.copy()
    return np.ascontiguousarray(img[:, :, ::-1])


def normalize(img: TensorImage, mean, std) -> TensorImage:
    """Per-channel (x - mean) / std."""
    mean = np.asarray(mean, dtype=np.float32).reshape(-1, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(-1, 1, 1)
    if np.any(std <= 0):
        raise ValueError("std must be strictly positive")
    return (img - mean) / std


def cutout(img: TensorImage, side: int, center: tuple[int, int]) -> TensorImage:
    """Zero a side x side square centered at (row, col), clipped to bounds."""
    if side == 0:
        return img.copy()
    _, height, width = img.shape
    cy, cx = center
    y0 = max(cy - side // 2, 0)
    x0 = max(cx - side // 2, 0)
    y1 = min(cy - side // 2 + side, height)
    x1 = min(cx - side // 2 + side, width)
    out = img.copy()
    out[:, y0:y1, x0:x1] = 0.0
    return out


def sample_seed(transform_seed: int, epoch: int, sample_id: int) -> int:
    """Per-sample augmentation seed; worker count can never change it."""
    return derive_seed(transform_seed, "sample", epoch, sample_id)


def sample_seeds(transform_seed: int, epoch: int, sample_ids) -> np.ndarray:
    """``sample_seed`` of each id, as a uint64 array.

    ``derive_seed`` folds the id last, one little-endian byte per ``mix64``
    round, so every id shares the per-epoch prefix and the 8 rounds run
    over the whole array at once.
    """
    ids = np.asarray(sample_ids).astype(np.uint64)
    h = np.full(ids.shape, derive_seed(transform_seed, "sample", epoch),
                dtype=np.uint64)
    for shift in range(0, 64, 8):
        h = mix64_array(h ^ ((ids >> np.uint64(shift)) & np.uint64(0xFF)))
    return h


def _draws(seeds: np.ndarray, k: int) -> np.ndarray:
    """The k-th output (from 1) of ``SplitMix64(seed)`` for every seed."""
    return mix64_array(seeds + np.uint64((k * GAMMA) & MASK64))


def draw_stack(config: TransformConfig, seeds) -> np.ndarray:
    """The stack's random draws for each seed, as a (B, 3) uint64 array.

    Each sample draws from ``SplitMix64(seed)`` in a fixed order: one
    uniform for the flip decision, then the cutout center row and column.
    Row b holds sample b's flip decision (1 to flip) and its row and column
    draws, which ``apply_draws`` reduces modulo the image's height and
    width.  A sample's row depends only on its seed, so slices of one
    call's draws serve any batch of its samples.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    unit = (_draws(seeds, 1) >> np.uint64(11)) * (1.0 / (1 << 53))
    return np.stack([unit < config.flip_probability, _draws(seeds, 2),
                     _draws(seeds, 3)], axis=1).astype(np.uint64, copy=False)


def apply_draws(pixels: np.ndarray, config: TransformConfig,
                draws: np.ndarray) -> np.ndarray:
    """to_tensor -> flip -> normalize -> cutout over a batch of images.

    ``pixels`` is a (B, H, W, C) uint8 array, any strides, and ``draws``
    holds ``draw_stack``'s row for each image; the cutout draws are used
    only when the cutout square is non-empty.  Returns a float32
    (B, C, H, W) array.
    """
    count, height, width, channels = pixels.shape
    side = config.resolved_cutout_side(height, width)

    # the cast to float32 transposes each image and mirrors the flipped ones
    out = np.empty((count, channels, height, width), dtype=np.float32)
    for dst, img, flip in zip(out, pixels.transpose(0, 3, 1, 2),
                              draws[:, 0].tolist()):
        np.copyto(dst, img[:, :, ::-1] if flip else img)
    out /= np.float32(255.0)
    out -= np.asarray(config.mean, dtype=np.float32).reshape(-1, 1, 1)
    out /= np.asarray(config.std, dtype=np.float32).reshape(-1, 1, 1)

    if side > 0:
        rows = (draws[:, 1] % np.uint64(height)).tolist()
        cols = (draws[:, 2] % np.uint64(width)).tolist()
        for img, cy, cx in zip(out, rows, cols):
            y0, x0 = cy - side // 2, cx - side // 2
            img[:, max(y0, 0):y0 + side, max(x0, 0):x0 + side] = 0.0
    return out


def apply_stack_batch(pixels: np.ndarray, config: TransformConfig,
                      seeds) -> np.ndarray:
    """The stack over a (B, H, W, C) uint8 batch, one seed per image:
    ``apply_draws`` of the seeds' ``draw_stack``."""
    return apply_draws(pixels, config, draw_stack(config, seeds))


def apply_stack(record: ImageRecord, config: TransformConfig,
                seed: int) -> TensorImage:
    """The stack applied to one record: ``apply_stack_batch``'s B = 1 case."""
    return apply_stack_batch(record.to_array()[None], config, [seed])[0]
