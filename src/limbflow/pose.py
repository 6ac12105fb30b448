"""Core pose, frame, and sequence value types.

All types are immutable; tracker stages produce new values via
``dataclasses.replace`` instead of mutating shared state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .skeleton import SkeletonTopology

_setattr = object.__setattr__  # builds no instance dict: 104 traced bytes a joint, not 240


@dataclass(frozen=True)
class JointCandidate:
    """A single detected joint: pixel position, confidence, visibility.

    Checked when built, visible or not: x and y must be finite and the
    confidence in [0, 1], or ``ValueError`` is raised. A built joint is
    valid, so no stage checks a joint it is given.
    """

    x: float
    y: float
    confidence: float = 1.0
    visible: bool = True

    def __init__(self, x: float, y: float, confidence: float = 1.0, visible: bool = True) -> None:
        # Compared exactly: an int too large for a float fails, as NaN does.
        if not (abs(x) <= sys.float_info.max and abs(y) <= sys.float_info.max):
            raise ValueError(f"joint x and y must be finite, got ({x}, {y})")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"joint confidence must be in [0, 1], got {confidence}")
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "confidence", confidence)
        _setattr(self, "visible", visible)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, J) array view of poses: joint positions, confidences and presence.

    Returns ``xy`` of shape (P, J, 2) and ``confidence`` of shape (P, J),
    both float64, and ``present`` of shape (P, J), true where the joint is
    present and visible. Absent joints read 0 in ``xy`` and
    ``confidence``; consult ``present`` before using them.
    """
    rows = [pose.visible_joints for pose in poses]
    if any(len(row) != joint_count for row in rows):
        raise ValueError("poses have different joint counts")
    flat = [c for row in rows for c in row]
    present = np.array([c is not None for c in flat], dtype=bool).reshape(len(rows), joint_count)
    absent = (0.0, 0.0, 0.0)
    values = np.array(
        [v for c in flat for v in ((c.x, c.y, c.confidence) if c is not None else absent)],
        dtype=np.float64,
    ).reshape(len(rows), joint_count, 3)
    return values[..., :2], values[..., 2], present


def joint_pairs_within(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...], radius: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Every pair of present same-type joints, one from each of two
    ``pose_arrays``, whose x and y each differ by at most ``radius[pb]``.

    That box holds every pair within distance ``radius[pb]``, so a caller
    measures only these pairs. Returns ``(pa, pb, j, adx, ady)``: the
    two pose positions, the joint type and the absolute coordinate
    differences, in ascending (pa, pb, j) order.
    """
    (xy_a, _, ok_a), (xy_b, _, ok_b) = a, b
    # Absent joints read NaN, which no box holds.
    xa, ya = (np.where(ok_a, xy_a[..., i], np.nan) for i in (0, 1))
    xb, yb = (np.where(ok_b, xy_b[..., i], np.nan) for i in (0, 1))
    r = radius[:, None]
    diff = np.subtract(xa[:, None], xb[None])  # (Pa, Pb, J), one buffer for x then y
    inside = np.abs(diff, out=diff) <= r
    np.subtract(ya[:, None], yb[None], out=diff)
    inside &= np.abs(diff, out=diff) <= r
    pa, pb, j = np.nonzero(inside)
    return pa, pb, j, np.abs(xa[pa, j] - xb[pb, j]), diff[inside]


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
                if not (0 <= c.x < w and 0 <= c.y < h):
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
