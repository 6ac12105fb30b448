"""Synthetic articulated 2D motion scenes with known ground truth.

Figures are rigid stick models of the topology: per person a fixed set
of joint offsets around the neck, moved along a preset trajectory. All
generated coordinates are quantized to a 1/8-pixel lattice so that joint
positions are exact dyadic sums; limb lengths are then bitwise constant
across frames and linear trajectories average exactly. No physics; only
the association geometry matters.

``apply_corruption`` turns a ground-truth sequence into detector-style
candidates: coordinate jitter, pose dropout, the occlusion-middle
removal, shuffled per-frame order, stripped track ids, and confidences
that decay monotonically with the injected noise so ranking-based
consumers (NMS, mAP) have meaningful input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pose import FramePoses, JointCandidate, Pose, Sequence
from .skeleton import SkeletonTopology, default_topology

PRESETS = ("static", "crossing", "wander", "occlusion-middle")

_LATTICE = 8.0  # coordinates live on a 1/8 px grid


def _q(x: float) -> float:
    return round(x * _LATTICE) / _LATTICE


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene options, checked when built: a built config is valid."""

    people: int = 2
    frames: int = 10
    image_size: tuple[int, int] = (160, 120)
    motion: str = "crossing"
    speed: float = 10.0
    jitter_sigma: float = 0.0
    dropout_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.people < 1:
            raise ValueError("people must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.image_size[0] < 8 or self.image_size[1] < 8:
            raise ValueError("image_size too small")
        if self.motion not in PRESETS:
            raise ValueError(f"unknown motion preset {self.motion!r}")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ValueError("dropout_prob must be in [0, 1]")
        if not (0 <= self.jitter_sigma < math.inf):
            raise ValueError("jitter_sigma must be finite and >= 0")
        if not (0 <= self.speed < math.inf):
            raise ValueError("speed must be finite and >= 0")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _polar(length: float, angle: float) -> tuple[float, float]:
    return (_q(length * math.cos(angle)), _q(length * math.sin(angle)))


def _figure_offsets(rng: np.random.Generator, height: float) -> list[tuple[float, float]]:
    """Joint offsets around the neck for one rigid figure (default15 order).

    Angles are in image coordinates (y grows downward), so pi/2 points
    from a joint toward the ground.
    """
    down = math.pi / 2.0

    def wiggle(scale: float = 0.25) -> float:
        return float(rng.uniform(-scale, scale))

    neck = (0.0, 0.0)
    head_top = (_q(height * 0.02 * wiggle()), _q(-height * 0.24))
    nose = (_q(height * 0.02 * wiggle()), _q(-height * 0.12))
    r_sho = (_q(-height * 0.15), _q(height * 0.02))
    l_sho = (_q(height * 0.15), _q(height * 0.02))

    def chain(base: tuple[float, float], l1: float, l2: float, a1: float, a2: float):
        mid = (_q(base[0] + _polar(l1, a1)[0]), _q(base[1] + _polar(l1, a1)[1]))
        end = (_q(mid[0] + _polar(l2, a2)[0]), _q(mid[1] + _polar(l2, a2)[1]))
        return mid, end

    r_elb, r_wri = chain(r_sho, height * 0.17, height * 0.16, down + wiggle(0.5), down + wiggle(0.6))
    l_elb, l_wri = chain(l_sho, height * 0.17, height * 0.16, down + wiggle(0.5), down + wiggle(0.6))
    r_hip = (_q(-height * 0.09), _q(height * 0.40))
    l_hip = (_q(height * 0.09), _q(height * 0.40))
    r_knee, r_ank = chain(r_hip, height * 0.21, height * 0.21, down + wiggle(0.3), down + wiggle(0.3))
    l_knee, l_ank = chain(l_hip, height * 0.21, height * 0.21, down + wiggle(0.3), down + wiggle(0.3))

    return [
        head_top, nose, neck,
        r_sho, r_elb, r_wri,
        l_sho, l_elb, l_wri,
        r_hip, r_knee, r_ank,
        l_hip, l_knee, l_ank,
    ]


def _extent(offsets: list[tuple[float, float]]) -> tuple[float, float, float, float]:
    xs = [o[0] for o in offsets]
    ys = [o[1] for o in offsets]
    return (min(xs), max(xs), min(ys), max(ys))


def _trajectories(cfg: SceneConfig, extents: list[tuple[float, float, float, float]]) -> list[list[tuple[float, float]]]:
    """Per-person neck positions for every frame, preset-dependent."""
    w, h = cfg.image_size
    T = cfg.frames
    margin = 2.0
    rng = _rng(cfg.seed, 1)
    tracks: list[list[tuple[float, float]]] = []

    def lane_bounds(ext):
        return (margin - ext[0], w - margin - ext[1], margin - ext[2], h - margin - ext[3])

    if cfg.motion == "static":
        for p, ext in enumerate(extents):
            x_lo, x_hi, y_lo, y_hi = lane_bounds(ext)
            if x_lo > x_hi or y_lo > y_hi:
                raise ValueError("infeasible layout: figure does not fit the image")
            x = _q(float(rng.uniform(x_lo, x_hi)))
            y = _q(float(rng.uniform(y_lo, y_hi)))
            tracks.append([(x, y)] * T)
        return tracks

    if cfg.motion == "crossing":
        # Lane pairs move toward each other and pass through: the second
        # person of a pair starts s*(2k+1) px ahead (k = mid frame), so at
        # the pass each lands exactly where the other just was, which is
        # the hardest case for distance-only association.
        k = (T - 1) // 2
        pair_speed = 0.0
        for p, ext in enumerate(extents):
            x_lo, x_hi, y_lo, y_hi = lane_bounds(ext)
            if p % 2 == 0:
                pair_speed = _q(max(cfg.speed * float(rng.uniform(0.9, 1.1)), 0.5))
            speed = pair_speed
            span = speed * (2 * k + 1)
            if x_hi - x_lo < span or y_lo > y_hi:
                raise ValueError(
                    "infeasible layout: crossing needs "
                    f"{span:.0f} px of horizontal room"
                )
            if p % 2 == 1:
                base = tracks[p - 1]
                dy = _q(max(5.5, float(rng.uniform(0.55, 0.8)) * speed))
                x0 = _q(base[0][0] + speed * (2 * k + 1))
                y = _q(min(max(base[0][1] + dy, y_lo), y_hi))
                tracks.append([(_q(x0 - speed * t), y) for t in range(T)])
            else:
                lane_span = max(1, cfg.people)
                frac = (p + 1) / (lane_span + 1)
                y = _q(y_lo + frac * (y_hi - y_lo))
                x0 = _q((x_lo + x_hi) / 2.0 - span / 2.0)
                tracks.append([(_q(x0 + speed * t), y) for t in range(T)])
        return tracks

    if cfg.motion == "occlusion-middle":
        # Parallel lanes, constant speed; linear motion makes the neighbor
        # average of any skipped frame exact.
        for p, ext in enumerate(extents):
            x_lo, x_hi, y_lo, y_hi = lane_bounds(ext)
            speed = _q(cfg.speed * float(rng.uniform(0.9, 1.1)))
            travel = speed * (T - 1)
            if x_hi - x_lo < travel or y_lo > y_hi:
                raise ValueError(
                    "infeasible layout: trajectory needs "
                    f"{travel:.0f} px of horizontal room"
                )
            frac = (p + 1) / (cfg.people + 1)
            y = _q(y_lo + frac * (y_hi - y_lo))
            x0 = _q((x_lo + x_hi) / 2.0 - travel / 2.0)
            tracks.append([(_q(x0 + speed * t), y) for t in range(T)])
        return tracks

    # wander: seeded random walk with wall reflection
    for p, ext in enumerate(extents):
        x_lo, x_hi, y_lo, y_hi = lane_bounds(ext)
        if x_lo > x_hi or y_lo > y_hi:
            raise ValueError("infeasible layout: figure does not fit the image")
        x = float(rng.uniform(x_lo, x_hi))
        y = float(rng.uniform(y_lo, y_hi))
        theta = float(rng.uniform(0, 2 * math.pi))
        pts = [(_q(x), _q(y))]
        for _ in range(T - 1):
            theta += float(rng.normal(0.0, 0.25))
            nx = x + cfg.speed * math.cos(theta)
            ny = y + cfg.speed * math.sin(theta)
            if nx < x_lo or nx > x_hi:
                theta = math.pi - theta
                nx = min(max(nx, x_lo), x_hi)
            if ny < y_lo or ny > y_hi:
                theta = -theta
                ny = min(max(ny, y_lo), y_hi)
            x, y = nx, ny
            pts.append((_q(x), _q(y)))
        tracks.append(pts)
    return tracks


def generate_sequence(cfg: SceneConfig, topo: SkeletonTopology | None = None) -> Sequence:
    """Generate a ground-truth sequence; deterministic in the seed.

    Every pose carries its person index as track id; all joints are
    visible, in bounds, confidence 1.
    """
    topo = topo or default_topology()
    w, h = cfg.image_size
    size_rng = _rng(cfg.seed, 0)
    heights = [
        _q(min(h, w) * float(size_rng.uniform(0.38, 0.5))) for _ in range(cfg.people)
    ]
    offsets = [_figure_offsets(_rng(cfg.seed, 0, p), heights[p]) for p in range(cfg.people)]
    if cfg.motion == "crossing":
        # Crossing partners share one figure: identical-looking people are
        # the adversarial case the flow term is meant to resolve.
        for p in range(1, cfg.people, 2):
            offsets[p] = offsets[p - 1]
    extents = [_extent(o) for o in offsets]
    tracks = _trajectories(cfg, extents)

    frames = []
    for t in range(cfg.frames):
        poses = []
        for p in range(cfg.people):
            rx, ry = tracks[p][t]
            joints = tuple(
                JointCandidate(x=rx + ox, y=ry + oy, confidence=1.0, visible=True)
                for ox, oy in offsets[p]
            )
            poses.append(Pose(joints=joints, track_id=p))
        frames.append(FramePoses(frame_index=t, poses=tuple(poses), image_size=cfg.image_size))
    seq = Sequence(frames=tuple(frames), topology=topo)

    bad = [b for f in seq.frames for b in f.out_of_bounds_joints()]
    if bad:
        raise ValueError(f"infeasible layout: {len(bad)} joints out of bounds")
    return seq


def occlusion_target(cfg: SceneConfig) -> tuple[int, int]:
    """(frame_index, track_id) removed by the occlusion-middle preset."""
    return (cfg.frames // 2, 0)


def _detections(
    joints: tuple[JointCandidate | None, ...],
    rng: np.random.Generator,
    sigma: float,
    size: tuple[int, int],
) -> tuple[JointCandidate | None, ...]:
    """One pose's joints as detector output: one (present joints, 2) normal
    draw of jitter, each axis clipped to the frame, confidence
    exp(-|noise| / 2 sigma); every joint is exact at confidence 1 when
    ``sigma`` is 0, with no draw."""
    if sigma == 0:
        return tuple(None if c is None else JointCandidate(c.x, c.y, 1.0, c.visible) for c in joints)
    present = [c for c in joints if c is not None]
    noise = rng.normal(0.0, sigma, size=(len(present), 2))
    xs = np.clip(np.array([c.x for c in present]) + noise[:, 0], 0.0, size[0] - 1e-3).tolist()
    ys = np.clip(np.array([c.y for c in present]) + noise[:, 1], 0.0, size[1] - 1e-3).tolist()
    detected = iter(
        JointCandidate(x, y, math.exp(-math.hypot(nx, ny) / (2.0 * sigma)), c.visible)
        for c, x, y, (nx, ny) in zip(present, xs, ys, noise.tolist())
    )
    return tuple(None if c is None else next(detected) for c in joints)


def apply_corruption(seq: Sequence, cfg: SceneConfig) -> Sequence:
    """Degrade ground truth into detector-style candidates.

    Adds isotropic jitter, clipped to each frame's own image size, drops
    poses at ``dropout_prob``, removes the occlusion-middle target at its
    frame, shuffles per-frame pose order, strips track ids, and assigns
    confidences decaying with the injected noise.

    Deterministic in the seed, because the generator is drawn in a fixed
    order. Per frame: for each pose not removed as the occlusion target,
    one uniform dropout draw (only when ``dropout_prob > 0``), then, if the
    pose is kept, one normal draw of shape (present joints, 2) (only when
    ``jitter_sigma > 0``); then one permutation of the kept poses (only
    when more than one is kept).
    """
    rng = _rng(cfg.seed, 101)
    occ_frame, occ_track = occlusion_target(cfg)

    frames = []
    for frame in seq.frames:
        kept: list[Pose] = []
        for pose in frame.poses:
            if (
                cfg.motion == "occlusion-middle"
                and frame.frame_index == occ_frame
                and pose.track_id == occ_track
            ):
                continue
            if cfg.dropout_prob > 0 and float(rng.random()) < cfg.dropout_prob:
                continue
            joints = _detections(pose.joints, rng, cfg.jitter_sigma, frame.image_size)
            kept.append(Pose(joints=joints, track_id=None))
        order = rng.permutation(len(kept)) if len(kept) > 1 else range(len(kept))
        frames.append(
            FramePoses(
                frame_index=frame.frame_index,
                poses=tuple(kept[i] for i in order),
                image_size=frame.image_size,
            )
        )
    return Sequence(frames=tuple(frames), topology=seq.topology)
