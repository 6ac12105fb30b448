"""Shared test fixtures and independent oracles.

Oracles here deliberately re-derive results through a different path
than the library (full-grid scans, exhaustive enumeration, hand
arithmetic) so tests compare two implementations, not one with itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from limbflow.assignment import FORBIDDEN, hungarian
from limbflow.encoder import (
    LAYOUT_ACCUMULATED,
    LAYOUT_INDIVIDUAL,
    MOTION_EPSILON,
    EncoderConfig,
    FlowMapGrid,
    LimbStrokes,
    grid_shape_for,
)
from limbflow.fileio import _HEADER_V1, _STRIDE, TMLF_MAGIC, FlowmapFormatError
from limbflow.metrics import (
    GROUP_ORDER,
    EvalReport,
    GroupCounts,
    _average_precision,
    joint_group,
)
from limbflow.pose import FramePoses, JointCandidate, Pose, Sequence
from limbflow.scoring import build_association_matrix
from limbflow.skeleton import SkeletonTopology, default_topology
from limbflow.synth import SceneConfig, apply_corruption, generate_sequence
from limbflow.tracker import RefinementEntry, _average_pose, _refinable_ids

TOPO = default_topology()


# ---------------------------------------------------------------- poses

STICK_OFFSETS = [
    (0.0, -0.24), (0.0, -0.12), (0.0, 0.0),
    (-0.15, 0.02), (-0.16, 0.19), (-0.17, 0.35),
    (0.15, 0.02), (0.16, 0.19), (0.17, 0.35),
    (-0.09, 0.40), (-0.10, 0.61), (-0.11, 0.82),
    (0.09, 0.40), (0.10, 0.61), (0.11, 0.82),
]


def stick_pose(cx: float, cy: float, h: float = 50.0, track_id=None, confidence=1.0) -> Pose:
    joints = tuple(
        JointCandidate(cx + ox * h, cy + oy * h, confidence=confidence)
        for ox, oy in STICK_OFFSETS
    )
    return Pose(joints=joints, track_id=track_id)


def translate_pose(pose: Pose, dx: float, dy: float) -> Pose:
    joints = tuple(
        None if c is None else replace(c, x=c.x + dx, y=c.y + dy) for c in pose.joints
    )
    return replace(pose, joints=joints)


def partial_pose(pose: Pose, keep: set[int]) -> Pose:
    joints = tuple(c if j in keep else None for j, c in enumerate(pose.joints))
    return replace(pose, joints=joints)


def frame(poses, index=0, size=(200, 160)) -> FramePoses:
    return FramePoses(frame_index=index, poses=tuple(poses), image_size=size)


def raw_strokes_grid(
    width: int, height: int, channels: int, strokes=(), half_width: float = 1.0
) -> FlowMapGrid:
    """The rasterized individual-layout grid of raw strokes at stride 1.

    ``strokes`` lists (channel, later, earlier, vector) tuples, drawn in
    list order.
    """
    def rows(k: int) -> np.ndarray:
        return np.array([s[k] for s in strokes], dtype=np.float64).reshape(-1, 2)

    return LimbStrokes(
        layout=LAYOUT_INDIVIDUAL,
        limb_count=channels,
        width=width,
        height=height,
        grid_stride=1,
        half_width=half_width,
        channels=np.array([s[0] for s in strokes], dtype=np.int64),
        later=rows(1),
        earlier=rows(2),
        vectors=rows(3),
    ).rasterize()


def random_strokes(rng, size, stride: int, half_width: float, layout: str) -> LimbStrokes:
    """Random strokes over an image of ``size`` pixels, drawn in runs that
    share a channel: runs in any channel order, repeated channels,
    zero-length segments and segments partly or wholly off the grid."""
    width, height = grid_shape_for(size, stride)
    limb_count = int(rng.integers(1, 5))
    n_groups = int(rng.integers(0, 7))
    sizes = rng.integers(1, 7, n_groups)
    n = int(sizes.sum())
    span = np.array([size[0], size[1]], dtype=np.float64)
    later = rng.uniform(-0.5, 1.5, (n, 2)) * span
    earlier = later + rng.normal(0, 3, (n, 2))
    zero_length = rng.random(n) < 0.2
    earlier[zero_length] = later[zero_length]
    off_grid = rng.random(n) < 0.1
    later[off_grid] += 4 * span
    earlier[off_grid] += 4 * span
    angle = rng.uniform(0, 2 * math.pi, n)
    return LimbStrokes(
        layout=layout,
        limb_count=limb_count,
        width=width,
        height=height,
        grid_stride=stride,
        half_width=half_width,
        channels=np.repeat(rng.integers(0, limb_count, n_groups), sizes).astype(np.int64),
        later=later,
        earlier=earlier,
        vectors=np.stack([np.cos(angle), np.sin(angle)], axis=1),
    )


# ------------------------------------------------- brute-force encoder

def brute_encode(frame_later, frame_earlier, pairing, topo, cfg: EncoderConfig):
    """Full-grid recomputation of the limb flow map.

    Scans every cell against every part stroke (no bounding boxes, no
    batching) and averages contributions; returns (vectors f64, counts).
    """
    width, height = grid_shape_for(frame_later.image_size, cfg.grid_stride)
    s = float(cfg.grid_stride)
    ys, xs = np.mgrid[0:height, 0:width]
    px = xs * s
    py = ys * s
    sums = np.zeros((topo.limb_count, height, width, 2))
    counts = np.zeros((topo.limb_count, height, width), dtype=np.int64)
    hw2 = cfg.stroke_half_width**2
    n = cfg.parts_per_limb
    for li, ei in pairing:
        pl = frame_later.poses[li]
        pe = frame_earlier.poses[ei]
        for l, (ja, jb) in enumerate(topo.limbs):
            quad = (pl.joint(ja), pl.joint(jb), pe.joint(ja), pe.joint(jb))
            if any(c is None or not c.visible for c in quad):
                continue
            for k in range(n):
                f = (k + 0.5) / n
                ax = quad[0].x + f * (quad[1].x - quad[0].x)
                ay = quad[0].y + f * (quad[1].y - quad[0].y)
                bx = quad[2].x + f * (quad[3].x - quad[2].x)
                by = quad[2].y + f * (quad[3].y - quad[2].y)
                dx, dy = ax - bx, ay - by
                norm = np.hypot(dx, dy)  # the encoder's length rule
                if norm <= MOTION_EPSILON:
                    continue
                seg_dx, seg_dy = bx - ax, by - ay
                len2 = seg_dx * seg_dx + seg_dy * seg_dy
                rel_x = px - ax
                rel_y = py - ay
                if len2 > 0:
                    t = np.clip((rel_x * seg_dx + rel_y * seg_dy) / len2, 0.0, 1.0)
                else:
                    t = np.zeros_like(rel_x)
                qx = rel_x - t * seg_dx
                qy = rel_y - t * seg_dy
                mask = qx * qx + qy * qy < hw2
                sums[l][mask] += np.array([dx / norm, dy / norm])
                counts[l][mask] += 1
    vectors = np.zeros_like(sums)
    nz = counts > 0
    vectors[nz] = sums[nz] / counts[nz][:, None]
    return vectors, counts


# ------------------------------------------ former dense flow-map path

# The library's former ``LimbStrokes.rasterize``: a kernel runs on every
# cell of a stroke group's bounding box into full-grid sum and count
# buffers, which a full-grid ``finalize`` divides; ``group_box_rasterize``
# hands it one stroke at a time, the library's summation order. And the
# former TMLF writer and reader, which copy the payload several times.
# Kept as slow oracles for the per-stroke rasterizer and the one-pass TMLF
# I/O.

def _stroke_box(
    a: np.ndarray, b: np.ndarray, half_width: float, stride: float, width: int, height: int
) -> Optional[tuple[int, int, int, int]]:
    """Inclusive cell range (ix0, ix1, iy0, iy1) a stroke group can cover,
    clipped to the grid; None when it misses the grid."""
    lo = np.minimum(a, b).min(axis=0) - half_width
    hi = np.maximum(a, b).max(axis=0) + half_width
    ix0 = max(0, int(math.floor(lo[0] / stride)))
    ix1 = min(width - 1, int(math.ceil(hi[0] / stride)))
    iy0 = max(0, int(math.floor(lo[1] / stride)))
    iy1 = min(height - 1, int(math.ceil(hi[1] / stride)))
    if ix0 > ix1 or iy0 > iy1:
        return None
    return ix0, ix1, iy0, iy1


def _stroke_contributions(
    a: np.ndarray,
    b: np.ndarray,
    vectors: np.ndarray,
    half_width: float,
    cx: np.ndarray,
    cy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sums (m, 2) and counts (m,) that n strokes add at m cell centers.

    Stroke k covers a center strictly closer than ``half_width`` to
    segment (a[k], b[k]). The sum over strokes runs in stroke order.
    """
    d = b - a  # (n, 2)
    seg_len2 = (d * d).sum(axis=1)  # (n,)
    safe_len2 = np.where(seg_len2 > 0.0, seg_len2, 1.0)
    rel_x = cx[None, :] - a[:, 0, None]
    rel_y = cy[None, :] - a[:, 1, None]
    t = (rel_x * d[:, 0, None] + rel_y * d[:, 1, None]) / safe_len2[:, None]
    np.clip(t, 0.0, 1.0, out=t)
    t[seg_len2 == 0.0] = 0.0
    qx = rel_x - t * d[:, 0, None]
    qy = rel_y - t * d[:, 1, None]
    mask = qx * qx + qy * qy < half_width * half_width  # (n, m)
    return np.einsum("nm,nc->mc", mask, vectors), mask.sum(axis=0)


class GroupBoxAccumulator:
    """Mutable sum/count buffers a grid is rasterized into.

    Not safe for concurrent writers; encode each frame pair into its own
    accumulator.
    """

    def __init__(self, channels: int, width: int, height: int, grid_stride: int = 1):
        self.width = width
        self.height = height
        self.grid_stride = grid_stride
        self.sums = np.zeros((channels, height, width, 2), dtype=np.float64)
        self.counts = np.zeros((channels, height, width), dtype=np.int32)

    def add_strokes(
        self,
        channel: int,
        a: np.ndarray,
        b: np.ndarray,
        vectors: np.ndarray,
        half_width: float,
    ) -> None:
        """Add n segments sharing one channel, over their common box.

        Each segment adds one contribution of its vector to every cell
        whose center is strictly within ``half_width`` of it; cells
        covered by several segments receive several contributions.
        """
        if len(a) == 0:
            return
        s = float(self.grid_stride)
        box = _stroke_box(a, b, half_width, s, self.width, self.height)
        if box is None:
            return
        ix0, ix1, iy0, iy1 = box
        iy, ix = np.mgrid[iy0 : iy1 + 1, ix0 : ix1 + 1]
        sums, counts = _stroke_contributions(
            a, b, vectors, half_width, ix.ravel() * s, iy.ravel() * s
        )
        rows, cols = slice(iy0, iy1 + 1), slice(ix0, ix1 + 1)
        self.sums[channel, rows, cols] += sums.reshape(iy.shape + (2,))
        self.counts[channel, rows, cols] += counts.reshape(iy.shape).astype(np.int32)

    def finalize(self, layout: str, limb_count: int) -> FlowMapGrid:
        """The grid of per-cell means, built in place from the buffers.

        The sums become the means (equal bit for bit to ``_means``) and the
        counts are handed over, so the accumulator must not be used after.
        """
        nz = self.counts > 0
        self.sums[nz] /= self.counts[nz][:, None]
        return FlowMapGrid(
            layout=layout,
            limb_count=limb_count,
            width=self.width,
            height=self.height,
            vectors=self.sums,
            counts=self.counts,
            grid_stride=self.grid_stride,
        )


def group_box_rasterize(strokes: LimbStrokes) -> FlowMapGrid:
    """The dense grid: every cell of each stroke's bounding box, one stroke
    at a time, so each cell adds its strokes in stroke order."""
    acc = GroupBoxAccumulator(strokes.limb_count, strokes.width, strokes.height, strokes.grid_stride)
    for k, channel in enumerate(strokes.channels):
        rows = slice(k, k + 1)
        a, b, vectors = strokes.later[rows], strokes.earlier[rows], strokes.vectors[rows]
        acc.add_strokes(int(channel), a, b, vectors, strokes.half_width)
    grid = acc.finalize(LAYOUT_INDIVIDUAL, strokes.limb_count)
    if strokes.layout == LAYOUT_ACCUMULATED:
        return dense_accumulate_channels(grid)
    return grid


# --------------------------------------- dense channel accumulation

def _mean_over_channels(
    vectors: np.ndarray, contributing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the mean over the leading (channel) axis of the
    contributing channels, summed in channel order from +0.0; and their
    count. Where two NaNs meet, the sum keeps the first one met: numpy's
    add loops differ in which operand's NaN they keep (a contiguous add of
    30 slots keeps the first in slots 0-23 and the second in 24-29)."""
    n_chan = contributing.sum(axis=0)
    sums = np.zeros(vectors.shape[1:], dtype=np.float64)
    for plane, mask in zip(vectors, contributing):
        added = np.where(np.isnan(sums), sums, sums + plane)
        sums = np.where(mask[..., None], added, sums)
    means = sums / np.maximum(n_chan, 1)[..., None]
    means[n_chan == 0] = 0.0
    return means, n_chan


def dense_accumulate_channels(grid: FlowMapGrid) -> FlowMapGrid:
    """``accumulate_channels`` on the dense planes, over every cell of the grid.

    Per cell, the mean over channels with a nonzero contributor count.
    Opposing motion of different limbs at the same cell averages out,
    which is exactly the information loss the individual layout avoids.
    """
    if grid.layout != LAYOUT_INDIVIDUAL:
        raise ValueError("accumulate_channels expects an individual-layout grid")
    if grid.counts is not None:
        contributing = grid.counts > 0
    else:
        # Grids read from TMLF version 1 or 2 have no counts; fall back to
        # nonzero vectors.
        contributing = np.any(grid.vectors != 0, axis=-1)
    means, n_chan = _mean_over_channels(grid.vectors.astype(np.float64), contributing)
    return FlowMapGrid(
        layout=LAYOUT_ACCUMULATED,
        limb_count=grid.limb_count,
        width=grid.width,
        height=grid.height,
        vectors=means[None, ...],
        counts=n_chan[None, ...].astype(np.int32),
        grid_stride=grid.grid_stride,
    )


# ------------------------------------------- dense TMLF (version 2)

def oracle_flowmap_to_bytes(grid: FlowMapGrid) -> bytes:
    """The version 2 dump: dense float32 planes of every slot, no counts."""
    if grid.layout == LAYOUT_INDIVIDUAL:
        layout_byte = 0
        expected = grid.limb_count
    elif grid.layout == LAYOUT_ACCUMULATED:
        layout_byte = 1
        expected = 1
    else:
        raise FlowmapFormatError(f"unknown layout {grid.layout!r}")
    if grid.vectors.shape != (expected, grid.height, grid.width, 2):
        raise FlowmapFormatError(
            f"vectors shape {grid.vectors.shape} does not match "
            f"{(expected, grid.height, grid.width, 2)}"
        )
    header = _HEADER_V1.pack(
        TMLF_MAGIC, 2, layout_byte, grid.limb_count, grid.width, grid.height
    ) + _STRIDE.pack(grid.grid_stride)
    planes = np.ascontiguousarray(
        grid.vectors.astype("<f4", copy=False).transpose(0, 3, 1, 2)
    )
    return header + planes.tobytes()


def oracle_flowmap_from_bytes(data: bytes) -> FlowMapGrid:
    if len(data) < _HEADER_V1.size:
        raise FlowmapFormatError("truncated header")
    magic, version, layout_byte, limb_count, width, height = _HEADER_V1.unpack_from(data)
    if magic != TMLF_MAGIC:
        raise FlowmapFormatError("not a TMLF file")
    if version == 1:
        header_size, grid_stride = _HEADER_V1.size, 1
    elif version == 2:
        header_size = _HEADER_V1.size + _STRIDE.size
        if len(data) < header_size:
            raise FlowmapFormatError("truncated header")
        (grid_stride,) = _STRIDE.unpack_from(data, _HEADER_V1.size)
        if grid_stride < 1:
            raise FlowmapFormatError(f"grid stride {grid_stride} must be >= 1")
    else:
        raise FlowmapFormatError(f"unsupported format version {version}")
    if layout_byte == 0:
        layout = LAYOUT_INDIVIDUAL
        pairs = limb_count
    elif layout_byte == 1:
        layout = LAYOUT_ACCUMULATED
        pairs = 1
    else:
        raise FlowmapFormatError(f"unknown layout byte {layout_byte}")
    expected = header_size + pairs * 2 * width * height * 4
    if len(data) != expected:
        raise FlowmapFormatError(
            f"payload is {len(data) - header_size} bytes, expected {expected - header_size}"
        )
    planes = np.frombuffer(data, dtype="<f4", offset=header_size)
    planes = planes.reshape(pairs, 2, height, width)
    vectors = np.ascontiguousarray(planes.transpose(0, 2, 3, 1)).astype(np.float64)
    return FlowMapGrid(
        layout=layout,
        limb_count=limb_count,
        width=width,
        height=height,
        vectors=vectors,
        counts=None,
        grid_stride=grid_stride,
    )


# ------------------------------------------ brute-force assignment

def brute_force_assignment(scores: np.ndarray, forbidden=float("-inf")):
    """Exhaustive best assignment: max cardinality, then max total.

    Returns (pairs, total). Rows <= 8 expected.
    """
    scores = np.asarray(scores, dtype=float)
    n_rows, n_cols = scores.shape
    feasible = np.isfinite(scores) & (scores != forbidden)
    best = ([], 0, -math.inf)  # pairs, cardinality, total

    rows = list(range(n_rows))

    def recurse(idx, used_cols, pairs, total):
        nonlocal best
        if idx == n_rows:
            card = len(pairs)
            if card > best[1] or (card == best[1] and total > best[2] + 1e-15):
                best = (list(pairs), card, total)
            return
        i = rows[idx]
        recurse(idx + 1, used_cols, pairs, total)  # leave row unmatched
        for j in range(n_cols):
            if j not in used_cols and feasible[i, j]:
                pairs.append((i, j))
                recurse(idx + 1, used_cols | {j}, pairs, total + scores[i, j])
                pairs.pop()

    recurse(0, frozenset(), [], 0.0)
    return sorted(best[0]), best[2]


# The library's former solver: the padded-square Hungarian, O((r + c)^3)
# in pure Python. Kept verbatim as a slow oracle for the rectangular one.

def _solve_square_min_cost(cost: np.ndarray) -> list[int]:
    """Return col assigned to each row for a square min-cost matrix."""
    n = cost.shape[0]
    INF = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # 1-based: row matched to column j
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    row_to_col = [-1] * n
    for j in range(1, n + 1):
        if match_col[j] != 0:
            row_to_col[match_col[j] - 1] = j - 1
    return row_to_col


def padded_hungarian(scores: np.ndarray, forbidden: float = float("-inf")) -> list[tuple[int, int]]:
    """Maximum-score assignment of rows to columns (``hungarian``'s contract).

    Entries equal to ``forbidden`` (or NaN/inf) are never assigned. Among
    all feasible partial assignments the result has maximum cardinality,
    and maximum total score among those. Returns (row, col) pairs sorted
    by row; an empty matrix or an all-forbidden matrix yields [].
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    n_rows, n_cols = scores.shape
    if n_rows == 0 or n_cols == 0:
        return []

    feasible = np.isfinite(scores) & (scores != forbidden)
    if not feasible.any():
        return []

    s_max = float(np.abs(scores[feasible]).max())
    # Per-match bonus large enough that cardinality dominates any possible
    # redistribution of real scores.
    bonus = (2.0 * s_max + 1.0) * (min(n_rows, n_cols) + 1)

    n = n_rows + n_cols
    value = np.zeros((n, n), dtype=np.float64)
    block = np.where(feasible, bonus + scores, 0.0)
    value[:n_rows, :n_cols] = block

    assignment = _solve_square_min_cost(-value)
    pairs = [
        (i, j)
        for i, j in enumerate(assignment[:n_rows])
        if 0 <= j < n_cols and feasible[i, j]
    ]
    pairs.sort()
    return pairs


def brute_best_permutation(scores: np.ndarray):
    """Best total over full permutations of a square matrix."""
    n = scores.shape[0]
    best, best_perm = -math.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(scores[i, perm[i]] for i in range(n))
        if total > best:
            best, best_perm = total, perm
    return best_perm, best


# ------------------------------------------------- scene constructions

def association_scene(seed: int):
    """3-6 separated stick people with displacement directions >= 30 deg apart.

    Returns (frame_earlier, frame_later, n_people); person i in the later
    frame is person i translated along its own direction.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    spacing = 360.0 / n
    jit = (spacing - 30.0) / 2.0
    angles = [
        math.radians(i * spacing + float(rng.uniform(-jit, jit))) for i in range(n)
    ]
    size = (420, 300)
    cols = math.ceil(math.sqrt(n))
    poses1, poses2 = [], []
    for i in range(n):
        gx, gy = i % cols, i // cols
        cx = 80.0 + gx * 120 + float(rng.uniform(-10, 10))
        cy = 70.0 + gy * 110 + float(rng.uniform(-10, 10))
        h = float(rng.uniform(45, 60))
        r = float(rng.uniform(8, 16))
        pose = stick_pose(cx, cy, h)
        poses1.append(pose)
        poses2.append(translate_pose(pose, r * math.cos(angles[i]), r * math.sin(angles[i])))
    return frame(poses1, 0, size), frame(poses2, 1, size), n


def crossing_benchmark_config(seed: int) -> SceneConfig:
    """Scene config of the distance-vs-flow ablation benchmark."""
    return SceneConfig(
        people=2,
        frames=9,
        image_size=(224, 128),
        motion="crossing",
        speed=14.0,
        jitter_sigma=2.0,
        seed=seed,
    )


BENCH_ENCODER = EncoderConfig(stroke_half_width=2.5)


def limb_aliasing_scene(seed: int):
    """Two crossing people with one shifted so different limbs of the two
    overlap with opposing motion (the accumulated layout's failure mode).

    Person 1 is lowered until its hip band rides halfway down person 0's
    thigh, so thigh/shin/arm bands of the two interleave while
    same-channel strips stay apart. Returns (gt, candidates).
    """
    cfg = SceneConfig(
        people=2,
        frames=9,
        image_size=(256, 160),
        motion="crossing",
        speed=20.0,
        jitter_sigma=2.5,
        seed=seed,
    )
    gt = generate_sequence(cfg)
    topo = gt.topology
    rk = topo.joint_index("right_knee")
    rh = topo.joint_index("right_hip")
    p0 = gt.frames[0].poses[0]
    p1 = gt.frames[0].poses[1]
    dy = (p0.joints[rh].y - p1.joints[rh].y) + 0.5 * (p0.joints[rk].y - p0.joints[rh].y)
    frames = []
    for f in gt.frames:
        poses = []
        for p in f.poses:
            if p.track_id == 1:
                joints = tuple(
                    None if c is None else replace(c, y=c.y + dy) for c in p.joints
                )
                poses.append(replace(p, joints=joints))
            else:
                poses.append(p)
        frames.append(replace(f, poses=tuple(poses)))
    shifted = Sequence(frames=tuple(frames), topology=topo)
    assert not any(f.out_of_bounds_joints() for f in shifted.frames)
    return shifted, apply_corruption(shifted, cfg)


# ------------------------------------------------- misc oracles

def connected_components(n_nodes: int, edges) -> int:
    """BFS component count, independent of the library's union-find."""
    adj = {i: [] for i in range(n_nodes)}
    for a, b in edges:
        if 0 <= a < n_nodes and 0 <= b < n_nodes:
            adj[a].append(b)
            adj[b].append(a)
    seen = set()
    comps = 0
    for start in range(n_nodes):
        if start in seen:
            continue
        comps += 1
        queue = [start]
        seen.add(start)
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return comps


def scan_average_precision(flags: list[bool], n_gt: int) -> float:
    """All-point interpolated AP (percent) from rank-ordered TP flags, the
    precision envelope taken by a full scan at every recall step."""
    if n_gt == 0:
        return 0.0
    tp = 0
    points = []
    for k, is_tp in enumerate(flags, start=1):
        if is_tp:
            tp += 1
        points.append((tp / n_gt, tp / k))
    if not points:
        return 0.0
    ap = 0.0
    prev_recall = 0.0
    for recall, _ in points:
        if recall <= prev_recall:
            continue
        peak = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * peak
        prev_recall = recall
    return 100.0 * ap


def _length(dx: float, dy: float) -> float:
    """The metrics' one length rule, on scalars."""
    return float(np.hypot(dx, dy))


def oracle_head_lengths(gt_frames, topo: SkeletonTopology) -> dict[tuple[int, int], float]:
    """Head segment length per (frame_index, gt pose position), pose by
    pose; poses without both head joints visible get the sequence median."""
    ha, hb = topo.head_segment
    lengths: dict[tuple[int, int], Optional[float]] = {}
    known: list[float] = []
    for frame in gt_frames:
        for pi, pose in enumerate(frame.poses):
            ca, cb = pose.joint(ha), pose.joint(hb)
            if ca is not None and cb is not None:
                lengths[(frame.frame_index, pi)] = _length(ca.x - cb.x, ca.y - cb.y)
                known.append(lengths[(frame.frame_index, pi)])
            else:
                lengths[(frame.frame_index, pi)] = None
    if any(v is None for v in lengths.values()):
        if not known:
            raise ValueError("no ground-truth pose has a head segment; cannot scale matches")
        median = sorted(known)[len(known) // 2]
        lengths = {k: median if v is None else v for k, v in lengths.items()}
    return lengths


def greedy_match(gts, preds, thresholds) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching of one frame's joints of one type, one
    prediction and one gt at a time: the oracle for the metrics' matcher.

    ``gts`` and ``preds`` are (pose position, joint) pairs. Predictions
    are taken in (confidence desc, x, y, pose position) order; each takes
    the first nearest still-unmatched gt joint within that gt's radius.
    Returns (gt pose position, pred pose position, distance) triples.
    """
    taken: set[int] = set()
    matches = []
    for ppos, pc in sorted(preds, key=lambda e: (-e[1].confidence, e[1].x, e[1].y, e[0])):
        best = None
        for gpos, gc in gts:
            if gpos in taken:
                continue
            d = _length(pc.x - gc.x, pc.y - gc.y)
            if d <= thresholds[gpos] and (best is None or d < best[1]):
                best = (gpos, d)
        if best is not None:
            taken.add(best[0])
            matches.append((best[0], ppos, best[1]))
    return matches


def _visible(poses, j: int) -> list[tuple[int, JointCandidate]]:
    return [(pi, c) for pi, p in enumerate(poses) if (c := p.joint(j)) is not None]


def oracle_match_joints_pckh(gt: FramePoses, pred: FramePoses, thresholds) -> dict:
    """``match_joints_pckh`` through ``greedy_match``, one joint type at a time."""
    joint_count = len(gt.poses[0].joints) if gt.poses else (
        len(pred.poses[0].joints) if pred.poses else 0
    )
    return {
        j: greedy_match(_visible(gt.poses, j), _visible(pred.poses, j), thresholds)
        for j in range(joint_count)
    }


def greedy_nms(frame: FramePoses, radius: float, joint_count: int) -> FramePoses:
    """Per-joint-type NMS one candidate at a time: the oracle for
    ``tracker.suppress_duplicate_joints``.

    Per joint type, candidates are taken in (confidence desc, x, y, pose
    position) order, and one is kept when ``dx ** 2 + dy ** 2 > radius *
    radius`` holds for every kept one. Suppressed joints become None;
    poses left with no joints are dropped.
    """
    dropped: dict[int, set[int]] = {pi: set() for pi in range(len(frame.poses))}
    for j in range(joint_count):
        entries = [(c, pi) for pi, pose in enumerate(frame.poses) if (c := pose.joint(j)) is not None]
        entries.sort(key=lambda e: (-e[0].confidence, e[0].x, e[0].y, e[1]))
        kept: list[JointCandidate] = []
        for cand, pi in entries:
            if all(
                (cand.x - k.x) ** 2 + (cand.y - k.y) ** 2 > radius * radius for k in kept
            ):
                kept.append(cand)
            else:
                dropped[pi].add(j)
    new_poses = []
    for pi, pose in enumerate(frame.poses):
        joints = tuple(None if j in dropped[pi] else c for j, c in enumerate(pose.joints))
        if any(c is not None for c in joints):
            new_poses.append(replace(pose, joints=joints))
    return replace(frame, poses=tuple(new_poses))


@dataclass(frozen=True)
class _GtJoint:
    pose_pos: int
    track_id: Optional[int]
    x: float
    y: float
    threshold: float


def two_pass_evaluate(gt_seq, pred_seq, thresh_factor: float = 0.5) -> EvalReport:
    """``evaluate`` in two matching passes: the oracle for the one-pass one.

    MOTA and MOTP come from ``oracle_match_joints_pckh``; AP ranks every
    prediction of the sequence and runs its own nearest-within-radius
    search against per-frame gt pools, so a true positive here does not
    depend on the library's per-frame match.

    ``gt_seq`` and ``pred_seq`` are sequences (tracked or plain) sharing
    one topology; frames are aligned by ``frame_index``. Ground truth
    with no frames at all, or with a pose lacking a track id (MOTA's
    ID-switch term needs ground-truth identities), is rejected.
    """
    topo: SkeletonTopology = gt_seq.topology
    gt_frames = list(gt_seq.frames)
    if not gt_frames:
        raise ValueError("ground truth has no frames")
    for frame in gt_frames:
        for pi, pose in enumerate(frame.poses):
            if pose.track_id is None:
                raise ValueError(
                    f"ground truth frame {frame.frame_index} pose {pi} has no track id"
                )
    pred_by_index = {f.frame_index: f for f in pred_seq.frames}
    head = oracle_head_lengths(gt_frames, topo)

    names = topo.joint_names
    per_type = {j: GroupCounts() for j in range(topo.joint_count)}
    motp_terms: list[float] = []
    last_assoc: dict[tuple[Optional[int], int], Optional[int]] = {}
    # For AP: per joint type, every prediction of the sequence plus the
    # per-frame gt pool it may consume.
    ap_preds: dict[int, list[tuple[float, int, float, float, int]]] = {
        j: [] for j in range(topo.joint_count)
    }

    empty = FramePoses(frame_index=-1, poses=(), image_size=(1, 1))
    for frame in gt_frames:
        pred = pred_by_index.get(frame.frame_index, empty)
        thresholds = {
            pi: max(thresh_factor * head[(frame.frame_index, pi)], 1e-9)
            for pi in range(len(frame.poses))
        }
        matches = oracle_match_joints_pckh(frame, pred, thresholds)
        for j in range(topo.joint_count):
            gt_join = [
                (pi, c) for pi, c in (
                    (pi, p.joint(j)) for pi, p in enumerate(frame.poses)
                ) if c is not None
            ]
            pred_join = [
                (pi, c) for pi, c in (
                    (pi, p.joint(j)) for pi, p in enumerate(pred.poses)
                ) if c is not None
            ]
            counts = per_type[j]
            counts.gt += len(gt_join)
            frame_matches = matches.get(j, [])
            matched_gt = {m[0] for m in frame_matches}
            matched_pred = {m[1] for m in frame_matches}
            counts.tp += len(frame_matches)
            counts.fn += len(gt_join) - len(frame_matches)
            counts.fp += len(pred_join) - len(matched_pred)
            for gpos, ppos, dist in frame_matches:
                gt_track = frame.poses[gpos].track_id
                pred_track = pred.poses[ppos].track_id
                key = (gt_track, j)
                prev = last_assoc.get(key)
                if prev is not None and pred_track != prev:
                    counts.idsw += 1
                last_assoc[key] = pred_track
                motp_terms.append(1.0 - dist / thresholds[gpos])
            for ppos, c in pred_join:
                ap_preds[j].append((c.confidence, frame.frame_index, c.x, c.y, ppos))

    # AP pass: rank across the sequence, greedy against per-frame gt pools.
    per_joint_ap: dict[str, Optional[float]] = {}
    ap_values = []
    for j in range(topo.joint_count):
        n_gt = per_type[j].gt
        if n_gt == 0:
            per_joint_ap[names[j]] = None
            continue
        available: dict[int, list[_GtJoint]] = {}
        for frame in gt_frames:
            pool = []
            for pi, pose in enumerate(frame.poses):
                c = pose.joint(j)
                if c is not None:
                    pool.append(
                        _GtJoint(
                            pi,
                            pose.track_id,
                            c.x,
                            c.y,
                            max(thresh_factor * head[(frame.frame_index, pi)], 1e-9),
                        )
                    )
            available[frame.frame_index] = pool
        ranked = sorted(ap_preds[j], key=lambda e: (-e[0], e[1], e[2], e[3], e[4]))
        flags = []
        for conf, fidx, x, y, _ in ranked:
            pool = available.get(fidx, [])
            best = None
            for k, g in enumerate(pool):
                d = _length(x - g.x, y - g.y)
                if d <= g.threshold and (best is None or d < best[1]):
                    best = (k, d)
            if best is not None:
                pool.pop(best[0])
                flags.append(True)
            else:
                flags.append(False)
        ap = _average_precision(flags, n_gt)
        per_joint_ap[names[j]] = ap
        ap_values.append(ap)

    group_counts = {g: GroupCounts() for g in GROUP_ORDER}
    total = GroupCounts()
    for j in range(topo.joint_count):
        g = joint_group(names[j])
        group_counts.setdefault(g, GroupCounts()).add(per_type[j])
        total.add(per_type[j])

    motp = (
        100.0 * sum(motp_terms) / len(motp_terms) if motp_terms else None
    )
    mean_ap_val = sum(ap_values) / len(ap_values) if ap_values else None
    return EvalReport(
        group_counts=group_counts,
        total_counts=total,
        motp=motp,
        per_joint_ap=per_joint_ap,
        mean_ap=mean_ap_val,
    )


# ---------------------------------------------------------------- tracker


def _forbid_below(scores: np.ndarray, threshold: float) -> np.ndarray:
    """A copy of ``scores`` with each entry below ``threshold`` forbidden,
    one entry at a time: the links a threshold-first solve may take."""
    out = scores.copy()
    for i, j in itertools.product(range(out.shape[0]), range(out.shape[1])):
        if out[i, j] < threshold:
            out[i, j] = FORBIDDEN
    return out


def two_step_match_frames(frame, tracks, grid, topo, cfg):
    """Oracle for ``tracker.match_frames``: the matching step written out
    on its own, without the shared association step. Links below the
    threshold are forbidden first; every link of the solve is kept."""
    accepted: dict[int, int] = {}
    if tracks and frame.poses and grid is not None:
        matrix = build_association_matrix(
            list(frame.poses), [t.last_pose for t in tracks], grid, topo, cfg.score
        )
        for i, j in hungarian(_forbid_below(matrix.scores, cfg.score_threshold)):
            accepted[i] = tracks[j].track_id
    labeled = [pose.with_track_id(accepted.get(i)) for i, pose in enumerate(frame.poses)]
    return replace(frame, poses=tuple(labeled))


def two_step_refine_middle_frame(frame_prev, frame_mid, frame_next, grid_stride2, topo, cfg):
    """Oracle for ``tracker.refine_middle_frame``: links below the
    threshold forbidden first, then the id rules written into the score
    matrix row by row, then one solve whose every link is kept."""
    missing = _refinable_ids(frame_prev, frame_mid, frame_next)
    if not missing:
        return frame_mid, frame_next, []
    prev_by_id = {p.track_id: p for p in frame_prev.poses if p.track_id is not None}

    matrix = build_association_matrix(
        list(frame_next.poses), [prev_by_id[tid] for tid in missing], grid_stride2, topo, cfg.score
    )
    scores = _forbid_below(matrix.scores, cfg.score_threshold)
    held = {p.track_id for p in frame_next.poses if p.track_id is not None}
    for i, pose in enumerate(frame_next.poses):
        if pose.track_id is not None:  # a labelled pose may take only its own id
            scores[i, [tid != pose.track_id for tid in missing]] = FORBIDDEN
        else:  # an unlabelled one only an id that no pose at t+1 holds
            scores[i, [tid in held for tid in missing]] = FORBIDDEN

    inserts: list[Pose] = []
    entries: list[RefinementEntry] = []
    next_poses = list(frame_next.poses)
    for i, c in hungarian(scores):
        tid = missing[c]
        next_poses[i] = next_poses[i].with_track_id(tid)
        inserts.append(_average_pose(prev_by_id[tid], next_poses[i], tid, topo.joint_count))
        entries.append(RefinementEntry(frame_mid.frame_index, tid))

    new_mid = replace(frame_mid, poses=tuple(list(frame_mid.poses) + inserts))
    new_next = replace(frame_next, poses=tuple(next_poses))
    return new_mid, new_next, entries
