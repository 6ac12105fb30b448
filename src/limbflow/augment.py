"""Multi-stride frame-pair sampling and paired geometric augmentation.

Training pairs are drawn with a time interval of 1..max_stride instead
of only consecutive frames, so maps of both small and large movements
exist. Geometric augmentation applies one similarity transform (scale
about the image center, rotate, crop-translate) identically to both
frames of a pair; transform parameters are decided on the first frame
and reused on the second.

All randomness is a pure function of (seed, draw_index); there is no
global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .pose import FramePoses, JointCandidate, Pose


@dataclass(frozen=True)
class StrideConfig:
    """Pair-sampling options, checked when built: a built config is valid."""

    max_stride: int = 4
    rng_seed: int = 0
    scale_range: tuple[float, float] = (0.85, 1.15)
    rotation_range: float = 30.0  # degrees, symmetric
    crop_size: tuple[int, int] = (96, 96)

    def __post_init__(self) -> None:
        if self.max_stride < 1:
            raise ValueError("max_stride must be >= 1")
        if not all(math.isfinite(s) for s in self.scale_range):
            raise ValueError("scale_range must be finite")
        if self.scale_range[0] > self.scale_range[1]:
            raise ValueError("scale_range min must be <= max")
        if self.scale_range[0] <= 0:
            raise ValueError("scale must be positive")
        if not (0 <= self.rotation_range < math.inf):
            raise ValueError("rotation_range must be finite and >= 0")
        if self.crop_size[0] < 1 or self.crop_size[1] < 1:
            raise ValueError("crop_size must be positive")


def _draw_rng(seed: int, stream: int, draw_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream, draw_index)))
    )


def sample_frame_pair(seq_len: int, cfg: StrideConfig, draw_index: int) -> tuple[int, int]:
    """Draw (t1, t2) with t1 < t2 and 1 <= t2 - t1 <= min(max_stride, seq_len - 1).

    The stride is uniform over feasible strides and the start uniform
    over feasible starts; a deterministic function of (seed, draw_index).
    """
    if seq_len < 2:
        raise ValueError("no pair available: sequence has fewer than 2 frames")
    rng = _draw_rng(cfg.rng_seed, 0, draw_index)
    max_stride = min(cfg.max_stride, seq_len - 1)
    stride = int(rng.integers(1, max_stride + 1))
    t1 = int(rng.integers(0, seq_len - stride))
    return (t1, t1 + stride)


def similarity_transform(
    x: float, y: float, scale: float, rotation_deg: float, center: tuple[float, float]
) -> tuple[float, float]:
    """Scale about ``center``, then rotate about it (positive = ccw in
    standard axes; y grows downward in image coordinates)."""
    theta = math.radians(rotation_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    dx = (x - center[0]) * scale
    dy = (y - center[1]) * scale
    return (
        center[0] + dx * cos_t - dy * sin_t,
        center[1] + dx * sin_t + dy * cos_t,
    )


def _transform_frame(
    frame: FramePoses,
    scale: float,
    rotation_deg: float,
    crop_origin: tuple[float, float],
    crop_size: tuple[int, int],
) -> FramePoses:
    w, h = frame.image_size
    center = (w / 2.0, h / 2.0)
    cw, ch = crop_size
    poses = []
    for pose in frame.poses:
        joints: list[Optional[JointCandidate]] = []
        for c in pose.joints:
            if c is None:
                joints.append(None)
                continue
            tx, ty = similarity_transform(c.x, c.y, scale, rotation_deg, center)
            tx -= crop_origin[0]
            ty -= crop_origin[1]
            inside = 0 <= tx < cw and 0 <= ty < ch
            joints.append(JointCandidate(tx, ty, c.confidence, c.visible and inside))
        poses.append(Pose(joints=tuple(joints), track_id=pose.track_id))
    return FramePoses(frame_index=frame.frame_index, poses=tuple(poses), image_size=crop_size)


def paired_transform(
    pose_pair: tuple[FramePoses, FramePoses],
    scale: float,
    rotation_deg: float,
    crop_origin: tuple[float, float],
    crop_size: Optional[tuple[int, int]] = None,
) -> tuple[FramePoses, FramePoses]:
    """Apply one similarity transform identically to both frames.

    Keypoints landing outside the crop window keep their coordinates but
    lose visibility.
    """
    first, second = pose_pair
    size = crop_size or first.image_size
    return (
        _transform_frame(first, scale, rotation_deg, crop_origin, size),
        _transform_frame(second, scale, rotation_deg, crop_origin, size),
    )


@dataclass(frozen=True)
class CropInfo:
    person_index: int
    origin: tuple[float, float]
    clamped: bool


def random_person_crop(
    frame_pair: tuple[FramePoses, FramePoses],
    cfg: StrideConfig,
    draw_index: int,
) -> tuple[tuple[FramePoses, FramePoses], CropInfo]:
    """Crop both frames around one person picked from the first frame.

    The crop window is centered on the person's joint centroid and, when
    it would leave the image, shifted back inside (the centroid offset is
    reported, not padded away). The same window is applied to the second
    frame.
    """
    first, second = frame_pair
    if not first.poses:
        raise ValueError("first frame has no poses to crop around")
    rng = _draw_rng(cfg.rng_seed, 1, draw_index)
    person = int(rng.integers(0, len(first.poses)))
    centroid = first.poses[person].centroid()
    if centroid is None:
        raise ValueError(f"pose {person} has no visible joints")
    cw, ch = cfg.crop_size
    w, h = first.image_size
    ox = centroid[0] - cw / 2.0
    oy = centroid[1] - ch / 2.0
    cx = min(max(ox, 0.0), max(0.0, w - cw))
    cy = min(max(oy, 0.0), max(0.0, h - ch))
    clamped = (cx != ox) or (cy != oy)
    pair = paired_transform(frame_pair, 1.0, 0.0, (cx, cy), cfg.crop_size)
    return pair, CropInfo(person_index=person, origin=(cx, cy), clamped=clamped)


@dataclass(frozen=True)
class AugmentedSample:
    t1: int
    t2: int
    scale: float
    rotation_deg: float
    crop: CropInfo
    frames: tuple[FramePoses, FramePoses]


def draw_augmented_pair(
    frames: list[FramePoses], cfg: StrideConfig, draw_index: int
) -> AugmentedSample:
    """One full augmentation draw: stride-sampled pair, scale/rotation
    decided on the first frame, person-centered crop applied to both."""
    t1, t2 = sample_frame_pair(len(frames), cfg, draw_index)
    rng = _draw_rng(cfg.rng_seed, 2, draw_index)
    scale = float(rng.uniform(cfg.scale_range[0], cfg.scale_range[1]))
    rotation = float(rng.uniform(-cfg.rotation_range, cfg.rotation_range))
    pair = (frames[t1], frames[t2])
    pair = paired_transform(pair, scale, rotation, (0.0, 0.0), pair[0].image_size)
    pair, crop = random_person_crop(pair, cfg, draw_index)
    # Re-index so each emitted sample is a standalone two-frame document.
    pair = (replace(pair[0], frame_index=t1), replace(pair[1], frame_index=t2))
    return AugmentedSample(t1=t1, t2=t2, scale=scale, rotation_deg=rotation, crop=crop, frames=pair)
