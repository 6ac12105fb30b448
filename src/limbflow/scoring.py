"""Association scoring between candidate poses in two frames.

The combined score mixes a flow term and a distance term:

    score = alpha * flow + (1 - alpha) * exp(-mean_joint_distance / scale)

The flow term is the line integral of the flow map along each common
joint's displacement segment, dotted with the normalized displacement
direction; it lives in [-1, 1]. The raw distance term is a pixel
quantity, so it is mapped through ``exp(-d / distance_scale)`` to a
similarity in (0, 1] before mixing; without that the two terms would not
share a scale. The distance term is what keeps zero-motion association
working, where the flow term is identically zero.

Pose pairs with no common joints cannot be scored and receive
``assignment.FORBIDDEN`` (-inf), which downstream assignment treats as
a forbidden link. So do pairs whose mean common-joint distance exceeds
the motion gate, ``GATE_SCALES * distance_scale`` px, as DeepSORT gates
before its assignment; ``build_association_matrix`` reads no flow for them.

``flow_score`` and ``distance_score`` score one pair and are the
reference; ``build_association_matrix`` scores all pairs of two frames
together and must equal them bit for bit. The order of its contractions
and sums is therefore part of the scorer's contract, set out in its
docstring. It walks the integral samples once, in chunks of joints taken
in stored-channel order, and reads each distinct cell of a chunk once.
Each sample reads its nearest cell. A flow map has one read interface,
``values_at(keys)``, which takes the sorted distinct flat keys
``channel * height * width + iy * width + ix`` that ``_lookup_cells``
makes: a ``FlowMapGrid`` answers by binary search in its covered-cell
table and ``LimbStrokes`` by computing only those cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN
from .encoder import MOTION_EPSILON, FlowMap
from .pose import FramePoses, Pose, common_joints, pose_arrays
from .skeleton import SkeletonTopology

# Integral samples per chunk of build_association_matrix. A distinct cell
# is read once per chunk, not once per call; the chunk bounds the memory of
# a call and the bits of its sort keys.
_CHUNK_SAMPLES = 1 << 16

# The motion gate in units of ScoreConfig.distance_scale (association_score).
GATE_SCALES = 2.0


@dataclass(frozen=True)
class ScoreConfig:
    """Association scoring options, checked when built: a built config is valid."""

    alpha: float = 0.5
    integral_samples: int = 20
    distance_scale: float = 32.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if self.integral_samples < 1:
            raise ValueError("integral_samples must be >= 1")
        if not (0 < self.distance_scale < math.inf):
            raise ValueError("distance_scale must be finite and > 0")


def _lookup_cells(
    flow: FlowMap, channel: "int | np.ndarray", pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The nearest cell of each of an (n, 2) array of pixel points: flat
    (channel, cell) keys, clipped to the grid, and whether each point lies
    inside the grid."""
    s = float(flow.grid_stride)
    w, h = flow.width, flow.height
    px, py = pts[:, 0], pts[:, 1]
    ix = np.clip(np.rint(px / s).astype(np.int64), 0, w - 1)
    iy = np.clip(np.rint(py / s).astype(np.int64), 0, h - 1)
    channel = np.asarray(channel, dtype=np.int64)
    valid = (px >= 0) & (px < w * s) & (py >= 0) & (py < h * s)
    return (channel * h + iy) * w + ix, valid


def _unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of non-negative int64 keys,
    by one plain sort in place of an argsort: each key is packed above the
    bits of its flat position, ``key << b | position``, so the sorted packs
    carry both. The caller makes sure the largest key fits in ``63 - b``
    bits, b being the bit length of ``keys.size - 1``."""
    bits = max(keys.size - 1, 0).bit_length()
    packed = (keys.ravel() << bits) | np.arange(keys.size, dtype=np.int64)
    packed.sort()
    ordered = packed >> bits
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[packed & ((1 << bits) - 1)] = np.cumsum(first) - 1
    return ordered[first], inverse.reshape(keys.shape)


def sample_grid(flow: FlowMap, channel: "int | np.ndarray", pts: np.ndarray) -> np.ndarray:
    """Flow vectors at an (n, 2) array of pixel points.

    ``channel`` is one stored channel, or one per point. Each point reads
    its nearest cell, with no interpolation, for reproducibility; cells
    outside the grid read as zero vectors. Each distinct (channel, cell)
    is read once, by one ``values_at`` call, so ``LimbStrokes`` pays only
    for the read cells that fall inside its strokes' own boxes.
    """
    keys, valid = _lookup_cells(flow, channel, pts)
    cells, inverse = np.unique(keys, return_inverse=True)
    vals = flow.values_at(cells)[inverse]
    vals[~valid] = 0.0
    return vals


def flow_score(
    pose_later: Pose,
    pose_earlier: Pose,
    grid: FlowMap,
    topo: SkeletonTopology,
    cfg: ScoreConfig,
) -> float:
    """Line-integral flow score for a candidate pose pair.

    For each common joint the displacement segment is sampled at the
    midpoints of ``integral_samples`` equal sub-intervals; each sampled
    grid vector (from the joint's assigned limb channel) is dotted with
    the normalized displacement direction. Per-joint means are averaged
    over the common joints. Joints that move at most ``MOTION_EPSILON``
    contribute 0 but still count toward the average, as the encoder draws
    nothing for such parts. The grid must have been encoded with the same
    (later, earlier) frame roles as the pose arguments; swapping the roles
    negates the score.
    """
    common = common_joints(pose_later, pose_earlier)
    if not common:
        return FORBIDDEN
    u = (np.arange(cfg.integral_samples, dtype=np.float64) + 0.5) / cfg.integral_samples
    total = 0.0
    for j in common:
        a = pose_later.joint(j)
        b = pose_earlier.joint(j)
        dx, dy = a.x - b.x, a.y - b.y
        norm = float(np.hypot(dx, dy))
        if norm <= MOTION_EPSILON:
            continue
        direction = np.array([dx / norm, dy / norm])
        pts = np.empty((cfg.integral_samples, 2))
        pts[:, 0] = (1.0 - u) * a.x + u * b.x
        pts[:, 1] = (1.0 - u) * a.y + u * b.y
        channel = grid.channel_for(topo.joint_channel[j])
        vecs = sample_grid(grid, channel, pts)
        total += float(np.sum(vecs @ direction)) / cfg.integral_samples
    return total / len(common)


def distance_score(pose_a: Pose, pose_b: Pose) -> float:
    """Mean Euclidean joint distance (pixels) over common joints, if any."""
    common = common_joints(pose_a, pose_b)
    if not common:
        return FORBIDDEN
    total = 0.0
    for j in common:
        ca, cb = pose_a.joint(j), pose_b.joint(j)
        total += float(np.hypot(ca.x - cb.x, ca.y - cb.y))
    return total / len(common)


def association_score(s_flow: float, s_dist: float, cfg: ScoreConfig) -> float:
    """Linear combination of the flow similarity and distance similarity;
    ``FORBIDDEN`` if a term is not finite or the mean joint distance
    ``s_dist`` exceeds the motion gate (a pair at the gate is scored)."""
    if not (math.isfinite(s_flow) and math.isfinite(s_dist)):
        return FORBIDDEN
    if s_dist > GATE_SCALES * cfg.distance_scale:
        return FORBIDDEN
    return cfg.alpha * s_flow + (1.0 - cfg.alpha) * math.exp(-s_dist / cfg.distance_scale)


@dataclass
class AssociationMatrix:
    """Pairwise association scores for one frame pair.

    Row i, column j holds the score of linking later-frame pose i to
    earlier-frame pose j, or the forbid sentinel where the pair shares no
    joints or lies beyond the motion gate.
    """

    scores: np.ndarray  # (n_later, n_earlier) float64
    sentinel: float = FORBIDDEN

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape  # type: ignore[return-value]


def _poses_of(frame: "FramePoses | list[Pose] | tuple[Pose, ...]") -> list[Pose]:
    if isinstance(frame, FramePoses):
        return list(frame.poses)
    return list(frame)


def _joint_geometry(
    poses_a: list[Pose], poses_b: list[Pose]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint displacements of every (a, b) pose pair.

    Returns ``common`` (P, Q, J), the joints both poses have; ``d``
    (P, Q, J, 2), a minus b; ``norm`` (P, Q, J), its length on common
    joints and 0 elsewhere; and the two (P, J, 2) position arrays.
    """
    joint_count = len(poses_a[0].joints)
    xy_a, _, ok_a = pose_arrays(poses_a, joint_count)
    xy_b, _, ok_b = pose_arrays(poses_b, joint_count)
    common = ok_a[:, None, :] & ok_b[None, :, :]
    d = xy_a[:, None] - xy_b[None, :]
    norm = np.zeros(common.shape, dtype=np.float64)
    norm[common] = np.hypot(d[..., 0], d[..., 1])[common]
    return common, d, norm, xy_a, xy_b


def _mean_over_common(terms: np.ndarray, common: np.ndarray) -> np.ndarray:
    """Per pair, the mean of (P, Q, J) joint terms over common joints,
    summed in ascending joint order; ``FORBIDDEN`` where none are common.
    Terms off the common joints must be 0."""
    total = np.zeros(common.shape[:2], dtype=np.float64)
    for j in range(common.shape[2]):
        total = total + terms[:, :, j]
    n_common = common.sum(axis=2)
    return np.where(n_common > 0, total / np.maximum(n_common, 1), FORBIDDEN)


def distance_matrix(poses_a: list[Pose], poses_b: list[Pose]) -> np.ndarray:
    """``distance_score`` of every (a, b) pair, bit for bit, as a matrix."""
    if not poses_a or not poses_b:
        return np.full((len(poses_a), len(poses_b)), FORBIDDEN, dtype=np.float64)
    common, _, norm, _, _ = _joint_geometry(poses_a, poses_b)
    return _mean_over_common(norm, common)


def build_association_matrix(
    frame_later: "FramePoses | list[Pose]",
    frame_earlier: "FramePoses | list[Pose]",
    grid: FlowMap,
    topo: SkeletonTopology,
    cfg: ScoreConfig,
) -> AssociationMatrix:
    """Score every (later pose, earlier pose) pair against one flow map.

    Equal bit for bit to ``association_score(flow_score(...),
    distance_score(...))`` per pair; ``flow_score`` and ``distance_score``
    are kept as that reference. All pairs are scored together, in one
    pass over the moving common joints of every pair within the motion
    gate; a gated pair's joints are never sampled. The joints are
    taken in stored-channel order, in chunks of ``_CHUNK_SAMPLES``
    integral samples; each distinct cell of a chunk is read from the flow
    map once, by one ``values_at`` call, and the chunk's joint terms are
    reduced before the next chunk is sampled. Raises
    ``ValueError`` if the flow map has too many cells for a chunk's keys
    to pack into 63 bits. Equality depends on the order of that
    arithmetic, which is part of this function's contract: each sample
    is dotted with its direction by a batched ``@``, the samples of a
    joint are summed along one contiguous axis as ``np.sum`` does, the
    joint terms are added in ascending joint order, lengths are
    ``np.hypot``, as the encoder's are, and exponentials are ``math.exp``.
    """
    later = _poses_of(frame_later)
    earlier = _poses_of(frame_earlier)
    scores = np.full((len(later), len(earlier)), FORBIDDEN, dtype=np.float64)
    if not later or not earlier:
        return AssociationMatrix(scores=scores)

    common, d, norm, xy_l, xy_e = _joint_geometry(later, earlier)
    s_dist = _mean_over_common(norm, common)
    kept = common.any(axis=2) & (s_dist <= GATE_SCALES * cfg.distance_scale)
    moving = common & (norm > MOTION_EPSILON) & kept[:, :, None]
    pi, qi, ji = np.nonzero(moving)
    a, b = xy_l[pi, ji], xy_e[qi, ji]
    joint_channel = np.array(
        [grid.channel_for(topo.joint_channel[j]) for j in range(common.shape[2])], dtype=np.int64
    )
    channels = joint_channel[ji]
    n_samples = cfg.integral_samples
    u = (np.arange(n_samples, dtype=np.float64) + 0.5) / n_samples
    directions = d[moving] / norm[moving][:, None]
    per_joint = np.empty(len(ji), dtype=np.float64)
    order = np.argsort(channels, kind="stable")  # a chunk then spans one or two channels
    step = max(1, _CHUNK_SAMPLES // n_samples)
    # _unique_inverse packs each key above the bits of its place in a chunk.
    key_space = (int(channels.max(initial=0)) + 1) * grid.width * grid.height
    positions = min(step, len(ji)) * n_samples
    if len(ji) and key_space > 1 << (63 - (positions - 1).bit_length()):
        raise ValueError(f"{key_space} flow-map cells are too many to pack with {positions} lookups")
    for lo in range(0, len(ji), step):
        c = order[lo : lo + step]
        px = (1.0 - u) * a[c, 0, None] + u * b[c, 0, None]
        py = (1.0 - u) * a[c, 1, None] + u * b[c, 1, None]
        pts = np.stack([px.ravel(), py.ravel()], axis=1)
        keys, valid = _lookup_cells(grid, np.repeat(channels[c], n_samples), pts)
        cells, inverse = _unique_inverse(keys)
        del px, py, pts, keys  # not held while the flow map computes the cells
        vecs = np.take(grid.values_at(cells), inverse, axis=0)
        vecs[~valid] = 0.0
        vecs = vecs.reshape(-1, n_samples, 2)
        projections = (vecs @ directions[c, :, None]).reshape(-1, n_samples)
        per_joint[c] = projections.sum(axis=1) / n_samples
    flow_terms = np.zeros(common.shape, dtype=np.float64)
    flow_terms[moving] = per_joint

    s_flow = _mean_over_common(flow_terms, common)
    for i, j in zip(*np.nonzero(kept)):
        scores[i, j] = association_score(float(s_flow[i, j]), float(s_dist[i, j]), cfg)
    return AssociationMatrix(scores=scores)
