"""Core pose, frame, and sequence value types.

All types are immutable; tracker stages produce new values via
``dataclasses.replace`` instead of mutating shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .skeleton import SkeletonTopology


@dataclass(frozen=True)
class JointCandidate:
    """A single detected joint: pixel position, confidence, visibility."""

    x: float
    y: float
    confidence: float = 1.0
    visible: bool = True


@dataclass(frozen=True)
class Pose:
    """Fixed-length joint list (one slot per topology joint) plus track id.

    Missing joints are ``None`` slots, never sentinel coordinates: (0, 0)
    is a valid pixel.
    """

    joints: tuple[Optional[JointCandidate], ...]
    track_id: Optional[int] = None

    @cached_property
    def visible_joints(self) -> tuple[Optional[JointCandidate], ...]:
        """Each slot's joint if present and visible, else None: the one rule by
        which NMS, scoring, strokes and metrics count a joint. ``joints``
        keeps the raw slots for file I/O, augmentation and synthesis; a pose
        with no invisible joint returns ``joints`` itself, held once."""
        visible = tuple(c if c is not None and c.visible else None for c in self.joints)
        return self.joints if visible == self.joints else visible

    def joint(self, j: int) -> Optional[JointCandidate]:
        """Joint ``j`` if it is present and visible, else None."""
        return self.visible_joints[j]

    def present_joints(self) -> list[int]:
        """Indices of joints that are present and visible."""
        return [j for j, c in enumerate(self.visible_joints) if c is not None]

    def with_track_id(self, track_id: Optional[int]) -> "Pose":
        return replace(self, track_id=track_id)

    def centroid(self) -> Optional[tuple[float, float]]:
        """Mean position of present, visible joints; None if empty."""
        pts = [c for c in self.visible_joints if c is not None]
        if not pts:
            return None
        return (
            sum(p.x for p in pts) / len(pts),
            sum(p.y for p in pts) / len(pts),
        )


def common_joints(a: Pose, b: Pose) -> list[int]:
    """Ascending indices where both poses have present, visible joints."""
    if len(a.joints) != len(b.joints):
        raise ValueError("poses have different joint counts")
    pairs = enumerate(zip(a.visible_joints, b.visible_joints))
    return [j for j, (ca, cb) in pairs if ca is not None and cb is not None]


def pose_arrays(
    poses: "list[Pose] | tuple[Pose, ...]", joint_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(P, J) array view of poses: joint positions and presence.

    Returns ``xy`` of shape (P, J, 2), float64, and ``present`` of shape
    (P, J), true where the joint is present and visible. Absent joints
    read (0, 0) in ``xy``; consult ``present`` before using them.
    """
    xy = np.zeros((len(poses), joint_count, 2), dtype=np.float64)
    present = np.zeros((len(poses), joint_count), dtype=bool)
    for p, pose in enumerate(poses):
        if len(pose.joints) != joint_count:
            raise ValueError("poses have different joint counts")
        for j, c in enumerate(pose.visible_joints):
            if c is not None:
                xy[p, j] = (c.x, c.y)
                present[p, j] = True
    return xy, present


@dataclass(frozen=True)
class FramePoses:
    """All poses detected in one frame."""

    frame_index: int
    poses: tuple[Pose, ...]
    image_size: tuple[int, int]  # (width, height) px

    def out_of_bounds_joints(self) -> list[tuple[int, int]]:
        """(pose_index, joint_index) pairs of visible joints outside the image."""
        w, h = self.image_size
        bad = []
        for pi, pose in enumerate(self.poses):
            for j in pose.present_joints():
                c = pose.joint(j)
                if not (0 <= c.x < w and 0 <= c.y < h) or not (
                    math.isfinite(c.x) and math.isfinite(c.y)
                ):
                    bad.append((pi, j))
        return bad


@dataclass(frozen=True)
class Sequence:
    """Ordered frames plus the topology they are expressed in."""

    frames: tuple[FramePoses, ...]
    topology: SkeletonTopology

    def __post_init__(self) -> None:
        indices = [f.frame_index for f in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("frame indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[FramePoses]:
        return iter(self.frames)

    def frame_by_index(self, frame_index: int) -> FramePoses:
        for f in self.frames:
            if f.frame_index == frame_index:
                return f
        raise KeyError(f"no frame with index {frame_index}")
