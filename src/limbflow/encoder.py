"""Limb-motion flow-map encoding.

A flow map is a grid of 2D vectors describing the direction limbs moved
between two frames. Each limb is subdivided into short parts at regular
intervals; every part contributes its unit motion vector to all grid
cells swept by the thick stroke between the part's two anchor positions.
Overlapping contributions, whether from one person or several, are
averaged with a single contributor count per cell, which keeps every
stored vector inside the unit disc.

A frame pair's strokes are enumerated once, as a ``LimbStrokes`` value.
One kernel decides which cell centers a group of strokes covers; the
flow map is that kernel evaluated at some cells. ``values_at`` runs it
on the cells a caller asks for, and the dense ``FlowMapGrid`` of
``rasterize`` is the same kernel run on every cell of each stroke's
bounding box, so the two agree bit for bit wherever both exist.

Conventions, fixed here and relied on by the scorer:

* Vectors point from the earlier frame toward the later one (along
  motion). Callers pass the chronologically later frame first.
* Grid cell (ix, iy) has its center at pixel (ix * stride, iy * stride).
* A cell belongs to a stroke iff its center is strictly closer than
  ``stroke_half_width`` to the anchor segment. Plain distance test, no
  anti-aliasing, for bit-reproducibility across platforms.
* Displacements of at most ``epsilon_motion`` have no defined direction
  and contribute nothing.
* A cell's sum accumulates stroke groups (one per paired person and
  limb) in enumeration order, and strokes within a group in part order.
  Both paths keep this order, since it fixes the last bit of each mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .pose import FramePoses, pose_arrays
from .skeleton import SkeletonTopology

LAYOUT_INDIVIDUAL = "individual"
LAYOUT_ACCUMULATED = "accumulated"


@dataclass(frozen=True)
class EncoderConfig:
    parts_per_limb: int = 20
    stroke_half_width: float = 1.0
    epsilon_motion: float = 1e-6
    layout: str = LAYOUT_INDIVIDUAL
    grid_stride: int = 1

    def validate(self) -> None:
        if self.parts_per_limb < 1:
            raise ValueError("parts_per_limb must be >= 1")
        if not self.stroke_half_width > 0:
            raise ValueError("stroke_half_width must be > 0")
        if self.epsilon_motion < 0:
            raise ValueError("epsilon_motion must be >= 0")
        if self.layout not in (LAYOUT_INDIVIDUAL, LAYOUT_ACCUMULATED):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.grid_stride < 1:
            raise ValueError("grid_stride must be >= 1")


@dataclass(frozen=True)
class LimbPart:
    """One subdivision of a limb, anchored in both frames."""

    anchor_later: tuple[float, float]
    anchor_earlier: tuple[float, float]
    part_index: int
    limb_index: int
    person_index: int

    def stroke_length(self) -> float:
        ax, ay = self.anchor_later
        bx, by = self.anchor_earlier
        return math.hypot(ax - bx, ay - by)


def _stored_channel(layout: str, limb_channel: int) -> int:
    return 0 if layout == LAYOUT_ACCUMULATED else limb_channel


@dataclass
class FlowMapGrid:
    """A finalized flow-map grid.

    ``vectors`` has shape (channel_pairs, height, width, 2), float64 in
    memory (the dump format stores float32); channel_pairs equals
    ``limb_count`` for the individual layout and 1 for the accumulated
    layout. ``counts`` records how many contributions each cell received
    (per channel); it is kept for auditability and is not serialized, so
    grids loaded from disk carry ``counts=None``. ``limb_count`` always
    records the source channel count, even after accumulation, so the
    dump format round-trips bit-exactly.
    """

    layout: str
    limb_count: int
    width: int
    height: int
    vectors: np.ndarray
    counts: Optional[np.ndarray]
    grid_stride: int = 1

    @property
    def channel_pairs(self) -> int:
        return int(self.vectors.shape[0])

    def channel_for(self, limb_channel: int) -> int:
        """Map a topology limb channel to a stored channel index."""
        return _stored_channel(self.layout, limb_channel)

    def values_at(self, channel: int, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """(m, 2) float64 vectors of one stored channel at in-grid cells."""
        return self.vectors[channel, iy, ix].astype(np.float64)

    def max_norm(self) -> float:
        if self.vectors.size == 0:
            return 0.0
        return float(np.sqrt((self.vectors.astype(np.float64) ** 2).sum(axis=-1)).max())


def grid_shape_for(image_size: tuple[int, int], grid_stride: int) -> tuple[int, int]:
    """(width_cells, height_cells) covering an image at the given stride."""
    w, h = image_size
    return (max(1, math.ceil(w / grid_stride)), max(1, math.ceil(h / grid_stride)))


def subdivide_limb(
    joint_a: tuple[float, float], joint_b: tuple[float, float], n: int
) -> np.ndarray:
    """Anchor points of n equal limb parts, at the midpoint of each part.

    Anchor i sits at ``joint_a + ((i + 0.5) / n) * (joint_b - joint_a)``;
    n anchors for n parts, no double-counted endpoints.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = np.asarray(joint_a, dtype=np.float64)
    b = np.asarray(joint_b, dtype=np.float64)
    return _subdivide(a, b, n)


def _subdivide(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``subdivide_limb`` over the leading axes of (..., 2) endpoint arrays."""
    frac = (np.arange(n, dtype=np.float64) + 0.5) / n
    return a[..., None, :] + frac[:, None] * (b - a)[..., None, :]


def part_unit_vector(
    s_later: tuple[float, float], s_earlier: tuple[float, float], eps: float
) -> np.ndarray:
    """Unit vector from the earlier anchor to the later one.

    Displacements of norm <= eps have no direction and yield the zero
    vector.
    """
    d = np.asarray(s_later, dtype=np.float64) - np.asarray(s_earlier, dtype=np.float64)
    norm = float(np.hypot(d[0], d[1]))
    if norm <= eps:
        return np.zeros(2, dtype=np.float64)
    return d / norm


# ------------------------------------------------------------ the kernel

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


def _means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    means = np.zeros(sums.shape, dtype=np.float64)
    nz = counts > 0
    if nz.any():
        means[nz] = sums[nz] / counts[nz][:, None]
    return means


def _mean_over_channels(
    vectors: np.ndarray, contributing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the mean over the leading (channel) axis of the
    contributing channels, summed in channel order; and their count."""
    n_chan = contributing.sum(axis=0)
    sums = np.where(contributing[..., None], vectors, 0.0).sum(axis=0)
    means = sums / np.maximum(n_chan, 1)[..., None]
    means[n_chan == 0] = 0.0
    return means, n_chan


class FlowMapAccumulator:
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

    def add_stroke(
        self,
        channel: int,
        a: tuple[float, float],
        b: tuple[float, float],
        vector: np.ndarray,
        half_width: float,
    ) -> None:
        """Add one contribution of ``vector`` to every cell whose center is
        strictly within ``half_width`` of segment (a, b).

        Strokes reaching outside the grid are clipped, never an error.
        """
        v = np.asarray(vector, dtype=np.float64)
        self.add_strokes(
            channel,
            np.array([a], dtype=np.float64),
            np.array([b], dtype=np.float64),
            v[None, :],
            half_width,
        )

    def add_strokes(
        self,
        channel: int,
        a: np.ndarray,
        b: np.ndarray,
        vectors: np.ndarray,
        half_width: float,
    ) -> None:
        """Vectorized ``add_stroke`` for n segments sharing one channel.

        Each segment contributes independently; cells covered by several
        segments receive several contributions, exactly as repeated
        ``add_stroke`` calls would produce.
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


def rasterize_part(
    acc: FlowMapAccumulator, part: LimbPart, vector: np.ndarray, half_width: float
) -> None:
    """Rasterize one limb part's stroke into its limb channel."""
    acc.add_stroke(part.limb_index, part.anchor_later, part.anchor_earlier, vector, half_width)


# ------------------------------------------------------------ strokes

@dataclass(frozen=True)
class LimbStrokes:
    """The moving part strokes of one frame pair: a flow map on demand.

    Stroke group k (one paired person's limb, in enumeration order) draws
    into channel ``channels[k]`` and owns rows ``bounds[k]:bounds[k + 1]``
    of ``later``, ``earlier`` (anchors, (N, 2)) and ``vectors`` (unit
    motion, (N, 2)). Groups whose parts all stand still are left out.
    The arrays hold people x limbs x parts rows, a few kilobytes per
    frame pair, where the dense grid holds channels x height x width.
    """

    layout: str
    limb_count: int
    width: int
    height: int
    grid_stride: int
    half_width: float
    channels: np.ndarray  # (K,) int64
    bounds: np.ndarray  # (K + 1,) int64
    later: np.ndarray
    earlier: np.ndarray
    vectors: np.ndarray

    def channel_for(self, limb_channel: int) -> int:
        """Map a topology limb channel to a stored channel index."""
        return _stored_channel(self.layout, limb_channel)

    def _group(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = slice(self.bounds[k], self.bounds[k + 1])
        return self.later[rows], self.earlier[rows], self.vectors[rows]

    def rasterize(self) -> FlowMapGrid:
        """The dense grid: every cell of every group's bounding box."""
        acc = FlowMapAccumulator(self.limb_count, self.width, self.height, self.grid_stride)
        for k, channel in enumerate(self.channels):
            acc.add_strokes(int(channel), *self._group(k), self.half_width)
        grid = acc.finalize(LAYOUT_INDIVIDUAL, self.limb_count)
        if self.layout == LAYOUT_ACCUMULATED:
            return accumulate_channels(grid)
        return grid

    def values_at(self, channel: int, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """(m, 2) vectors of one stored channel at in-grid cells.

        Equal bit for bit to ``rasterize().values_at(channel, iy, ix)``,
        at the cost of only the requested cells.
        """
        iy = np.asarray(iy, dtype=np.int64)
        ix = np.asarray(ix, dtype=np.int64)
        if self.layout == LAYOUT_ACCUMULATED:
            per_channel = [self._channel_sums(c, iy, ix) for c in range(self.limb_count)]
            means = np.stack([_means(sums, counts) for sums, counts in per_channel])
            contributing = np.stack([counts > 0 for _, counts in per_channel])
            return _mean_over_channels(means, contributing)[0]
        return _means(*self._channel_sums(channel, iy, ix))

    def _channel_sums(
        self, channel: int, iy: np.ndarray, ix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        s = float(self.grid_stride)
        sums = np.zeros((len(ix), 2), dtype=np.float64)
        counts = np.zeros(len(ix), dtype=np.int64)
        for k in np.flatnonzero(self.channels == channel):
            a, b, vectors = self._group(k)
            box = _stroke_box(a, b, self.half_width, s, self.width, self.height)
            if box is None:
                continue
            ix0, ix1, iy0, iy1 = box
            inside = np.flatnonzero((ix >= ix0) & (ix <= ix1) & (iy >= iy0) & (iy <= iy1))
            if inside.size == 0:
                continue
            group_sums, group_counts = _stroke_contributions(
                a, b, vectors, self.half_width, ix[inside] * s, iy[inside] * s
            )
            sums[inside] += group_sums
            counts[inside] += group_counts
        return sums, counts


FlowMap = Union[FlowMapGrid, LimbStrokes]


def _limb_anchors(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Part anchors of every paired person's encodable limbs.

    A limb is encodable when both endpoint joints are present and visible
    in both frames. Returns the later-frame person index and limb index
    of each encodable (pair, limb), pairing-major in limb order, and its
    anchors in the later and the earlier frame, each (M, n, 2).
    """
    xy_l, ok_l = pose_arrays([frame_later.poses[li] for li, _ in pairing], topo.joint_count)
    xy_e, ok_e = pose_arrays([frame_earlier.poses[ei] for _, ei in pairing], topo.joint_count)
    ja = np.array([limb[0] for limb in topo.limbs], dtype=np.int64)
    jb = np.array([limb[1] for limb in topo.limbs], dtype=np.int64)
    encodable = ok_l[:, ja] & ok_l[:, jb] & ok_e[:, ja] & ok_e[:, jb]
    row, limb = np.nonzero(encodable)
    anchors_later = _subdivide(xy_l[row, ja[limb]], xy_l[row, jb[limb]], n)
    anchors_earlier = _subdivide(xy_e[row, ja[limb]], xy_e[row, jb[limb]], n)
    person = np.array([li for li, _ in pairing], dtype=np.int64)[row]
    return person, limb, anchors_later, anchors_earlier


def limb_parts(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    cfg: EncoderConfig,
) -> list[LimbPart]:
    """Enumerate part strokes for every paired person and encodable limb.

    A limb is encodable when both endpoint joints are present and visible
    in both frames.
    """
    person, limb, later, earlier = _limb_anchors(
        frame_later, frame_earlier, pairing, topo, cfg.parts_per_limb
    )
    return [
        LimbPart(
            anchor_later=(later[m, k, 0], later[m, k, 1]),
            anchor_earlier=(earlier[m, k, 0], earlier[m, k, 1]),
            part_index=k,
            limb_index=int(limb[m]),
            person_index=int(person[m]),
        )
        for m in range(len(limb))
        for k in range(cfg.parts_per_limb)
    ]


def _check_encode_inputs(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
) -> None:
    if frame_later.image_size != frame_earlier.image_size:
        raise ValueError("frames must share image_size")
    for li, ei in pairing:
        if not (0 <= li < len(frame_later.poses)):
            raise ValueError(f"pairing index {li} out of range in later frame")
        if not (0 <= ei < len(frame_earlier.poses)):
            raise ValueError(f"pairing index {ei} out of range in earlier frame")


def limb_strokes(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    cfg: EncoderConfig,
) -> LimbStrokes:
    """The flow map of one frame pair, as the strokes that draw it.

    ``pairing`` lists (person_in_later_frame, person_in_earlier_frame)
    correspondences whose motion is drawn; an empty pairing draws
    nothing. Zero-motion parts are dropped (the epsilon rule), which
    also keeps static limbs from diluting moving ones at shared cells.
    """
    cfg.validate()
    _check_encode_inputs(frame_later, frame_earlier, pairing)
    _, limb, later, earlier = _limb_anchors(
        frame_later, frame_earlier, pairing, topo, cfg.parts_per_limb
    )
    disp = later - earlier
    norms = np.hypot(disp[..., 0], disp[..., 1])
    moving = norms > cfg.epsilon_motion  # (M, n)
    drawn = moving.any(axis=1)
    moving = moving[drawn]
    later, earlier, disp, norms = later[drawn], earlier[drawn], disp[drawn], norms[drawn]
    width, height = grid_shape_for(frame_later.image_size, cfg.grid_stride)
    return LimbStrokes(
        layout=cfg.layout,
        limb_count=topo.limb_count,
        width=width,
        height=height,
        grid_stride=cfg.grid_stride,
        half_width=cfg.stroke_half_width,
        channels=limb[drawn],
        bounds=np.concatenate([[0], np.cumsum(moving.sum(axis=1))]).astype(np.int64),
        later=later[moving],
        earlier=earlier[moving],
        vectors=disp[moving] / norms[moving][:, None],
    )


def encode_limb_flow(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    cfg: EncoderConfig,
) -> FlowMapGrid:
    """Encode the dense flow-map grid for one frame pair.

    The rasterized ``limb_strokes``: an empty pairing encodes an all-zero
    grid, and identical frames encode exactly zero everywhere.
    """
    return limb_strokes(frame_later, frame_earlier, pairing, topo, cfg).rasterize()


def accumulate_channels(grid: FlowMapGrid) -> FlowMapGrid:
    """Collapse an individual-layout grid to a single accumulated channel.

    Per cell, the mean over channels with a nonzero contributor count.
    Opposing motion of different limbs at the same cell averages out,
    which is exactly the information loss the individual layout avoids.
    """
    if grid.layout != LAYOUT_INDIVIDUAL:
        raise ValueError("accumulate_channels expects an individual-layout grid")
    if grid.counts is not None:
        contributing = grid.counts > 0
    else:
        # Loaded grids have no counts; fall back to nonzero vectors.
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


def encode_joint_flow(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    cfg: EncoderConfig,
) -> FlowMapGrid:
    """Joint-location baseline: one stroke per joint instead of per limb part.

    Channels are keyed by joint index, so the grid carries
    ``topo.joint_count`` channel pairs. Encoded as exactly the degenerate
    topology whose limbs are zero-length at each joint, one part per limb.
    """
    joints = tuple(range(topo.joint_count))
    degenerate = replace(topo, limbs=tuple((j, j) for j in joints), joint_channel=joints)
    return encode_limb_flow(
        frame_later, frame_earlier, pairing, degenerate, replace(cfg, parts_per_limb=1)
    )
