"""Limb-motion flow-map encoding.

A flow map is a grid of 2D vectors describing the direction limbs moved
between two frames. Each limb is subdivided into short parts at regular
intervals; every part contributes its unit motion vector to all grid
cells swept by the thick stroke between the part's two anchor positions.
Overlapping contributions, whether from one person or several, are
averaged with a single contributor count per cell, which keeps every
stored vector inside the unit disc.

A frame pair's strokes are enumerated once, as a ``LimbStrokes`` value.
One kernel decides which cell centers a stroke covers, and one reduction
turns the covered (stroke, cell) pairs into means; the two paths differ
only in the cells they hand the kernel. A stroke's box holds the cells
whose centers lie inside the stroke's bounding box widened by the half
width, clipped to the grid; no other cell can be covered. ``rasterize``
takes every cell of each stroke's box, and the ``FlowMapGrid`` it
returns stores the covered-cell table: the keys, means and counts of the
covered (channel, cell) slots. Its dense planes are built from that
table only when a caller first reads them, so encoding costs the cells
the strokes cover, not the grid size. ``values_at`` takes only the
requested cells that fall inside each stroke's box, so its cost follows
those (stroke, requested cell) candidates, neither the cells the strokes
cover nor the stroke groups. The two agree bit for bit wherever both
exist.

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
  limb) in enumeration order, and strokes within a group in part order:
  each group's strokes are summed first, then the group sums are added
  in turn. Both paths keep this order, since it fixes the last bit of
  each mean. A mean is computed only at a cell some stroke covers.
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


class FlowmapFormatError(ValueError):
    """A flow map that is malformed, or whose declared grid cannot be built."""


Cells = tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


@dataclass
class FlowMapGrid:
    """A finalized flow-map grid.

    A grid made by ``from_cells`` (the encoder's and the TMLF version 3
    reader's) stores its covered-cell table, ``cells``: strictly ascending
    int64 keys ``channel * height * width + iy * width + ix``, their (n, 2)
    vectors, and their int32 contributor counts or ``None``. Every slot not
    listed is the zero vector with count 0. The dense planes are built from
    the table the first time ``vectors`` or ``counts`` is read, and kept:
    every later read returns the same arrays, so in-place edits stick.
    From then on the planes are the grid and ``cells`` is ``None``. If the
    planes cannot be allocated, the read raises ``FlowmapFormatError`` and
    the grid keeps its table. A grid constructed with its planes,
    ``FlowMapGrid(layout, limb_count, width, height, vectors, counts[,
    grid_stride])``, has them from the start.

    ``vectors`` has shape (channel_pairs, height, width, 2), float64 in
    memory (the dump format stores float32); channel_pairs equals
    ``limb_count`` for the individual layout and 1 for the accumulated
    layout. ``counts`` records how many contributions each cell received
    (per channel); TMLF version 3 stores it, so a read-back carries the
    encoder's counts, while grids read from version 1 or 2 files carry
    ``counts=None``. ``limb_count`` always
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

    _cells = None  # unannotated, so not a field: the table, set by from_cells

    @classmethod
    def from_cells(
        cls,
        layout: str,
        limb_count: int,
        width: int,
        height: int,
        cells: Cells,
        grid_stride: int = 1,
    ) -> "FlowMapGrid":
        """A grid that stores the covered-cell table ``cells`` (see above)."""
        grid = cls.__new__(cls)
        grid.layout, grid.limb_count, grid.width, grid.height = layout, limb_count, width, height
        grid.grid_stride = grid_stride
        grid._cells = cells
        return grid

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: the planes of a
        # grid made by from_cells, until the first read of either builds both.
        if name not in ("vectors", "counts") or self._cells is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.vectors, self.counts = self._planes(*self._cells)
        self._cells = None
        return self.__dict__[name]

    def _planes(
        self, keys: np.ndarray, vectors: np.ndarray, counts: Optional[np.ndarray]
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        shape = (self.channel_pairs, self.height, self.width)
        try:
            planes = np.zeros(shape + (2,), dtype=np.float64)
            plane_counts = None if counts is None else np.zeros(shape, dtype=np.int32)
        except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
            raise FlowmapFormatError(
                f"cannot allocate the declared grid of {' x '.join(map(str, shape))} cells"
            ) from exc
        planes.reshape(-1, 2)[keys] = vectors
        if plane_counts is not None:
            plane_counts.reshape(-1)[keys] = counts
        return planes, plane_counts

    def __repr__(self) -> str:  # the dataclass repr would build the planes
        return (
            f"FlowMapGrid({self.layout!r}, limb_count={self.limb_count}, "
            f"{self.width}x{self.height} cells, grid_stride={self.grid_stride})"
        )

    @property
    def cells(self) -> Optional[Cells]:
        """The covered-cell table, or ``None`` once the grid has planes."""
        return self._cells

    @property
    def channel_pairs(self) -> int:
        return 1 if self.layout == LAYOUT_ACCUMULATED else self.limb_count

    def channel_for(self, limb_channel: int) -> int:
        """Map a topology limb channel to a stored channel index."""
        return _stored_channel(self.layout, limb_channel)

    def values_at(self, channel: int, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """(m, 2) float64 vectors of one stored channel at in-grid cells."""
        return self.vectors[channel, iy, ix].astype(np.float64)

    def max_norm(self) -> float:
        vectors = self.vectors if self._cells is None else self._cells[1]
        return float(np.sqrt((vectors.astype(np.float64) ** 2).sum(axis=-1)).max(initial=0.0))


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

# Cells whose centers lie within this many cells outside a stroke's box
# stay candidates, so that rounding in the box bounds never drops a cell
# ``_covers`` would hit; the cells it keeps are rejected there.
_BOX_MARGIN = 1e-6


def _box_rows(
    a: np.ndarray, b: np.ndarray, half_width: float, stride: float, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the cell boxes that strokes (a[k], b[k]) can cover,
    clipped to the grid: per row its stroke k and the flat keys
    (iy * width + ix) of its first and last cell, stroke-major in
    ascending rows. A box that misses the grid sideways has last < first.

    A box holds the cells whose centers lie inside the stroke's bounding
    box widened by ``half_width`` (up to ``_BOX_MARGIN`` cells beyond its
    edges); no cell center outside it is strictly closer than
    ``half_width`` to the segment."""
    lo = np.ceil((np.minimum(a, b) - half_width) / stride - _BOX_MARGIN)
    hi = np.floor((np.maximum(a, b) + half_width) / stride + _BOX_MARGIN)
    last = np.array([width - 1, height - 1], dtype=np.float64)
    ix0, iy0 = np.minimum(np.maximum(lo, 0), last + 1).astype(np.int64).T
    ix1, iy1 = np.minimum(np.maximum(hi, -1), last).astype(np.int64).T
    stroke, row = _expand(iy0, iy1 - iy0 + 1)
    return stroke, row * width + ix0[stroke], row * width + ix1[stroke]


def _covers(
    a: np.ndarray, b: np.ndarray, half_width: float, cx: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """Whether segment (a, b) passes strictly closer than ``half_width`` to
    cell center (cx, cy); elementwise, with a and b (..., 2) broadcasting
    against cx and cy. A zero-length segment projects to t = 0 by itself."""
    d = b - a
    seg_len2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    safe_len2 = np.where(seg_len2 > 0.0, seg_len2, 1.0)
    rel_x = cx - a[..., 0]
    rel_y = cy - a[..., 1]
    t = (rel_x * d[..., 0] + rel_y * d[..., 1]) / safe_len2
    np.clip(t, 0.0, 1.0, out=t)
    qx = rel_x - t * d[..., 0]
    qy = rel_y - t * d[..., 1]
    return qx * qx + qy * qy < half_width * half_width


def _expand(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (owner, value) pairs: owner k takes values starts[k] up to
    starts[k] + sizes[k] - 1 in turn (none when sizes[k] <= 0)."""
    sizes = np.maximum(sizes, 0)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def _ordered_sums(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size, 2) sums of the rows of ``values`` per ``index``, each added in
    array order (``np.bincount`` adds its weights in turn)."""
    sums = np.empty((size, 2), dtype=np.float64)
    for c in range(2):
        sums[:, c] = np.bincount(index, values[:, c], size)
    return sums


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

    Reading cells with ``values_at`` costs only the requested cells that
    fall inside each of the channel's strokes' own boxes.
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

    def _covered(
        self, strokes: np.ndarray, cells: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stroke-major (stroke, cell) pairs where one of ``strokes`` covers
        a cell of its own box. The kernel runs on every cell of each box,
        or, given sorted distinct flat keys ``cells``, on those that fall
        inside each box, found per box row by binary search; the pairs
        then hold positions into ``cells``."""
        s = float(self.grid_stride)
        later = np.take(self.later, strokes, axis=0)
        earlier = np.take(self.earlier, strokes, axis=0)
        box, first, last = _box_rows(later, earlier, self.half_width, s, self.width, self.height)
        if cells is None:
            row, at = _expand(first, last - first + 1)
            cell = at
        else:
            lo = np.searchsorted(cells, first)
            row, at = _expand(lo, np.searchsorted(cells, last, side="right") - lo)
            cell = cells[at]
        box = box[row]
        a, b = np.take(later, box, axis=0), np.take(earlier, box, axis=0)
        hit = _covers(a, b, self.half_width, (cell % self.width) * s, (cell // self.width) * s)
        return strokes[box[hit]], at[hit]

    def _cell_means(
        self, stroke: np.ndarray, cell: np.ndarray, cells: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored (channel, cell) keys ``channel * cells + cell``, ascending,
        with their means and contributor counts, from the stroke-major
        (stroke, cell) pairs where a stroke covers a cell, cell < cells.

        A channel cell's sum adds each group's covering strokes in part
        order, then those groups in enumeration order, and is divided by
        its count. The accumulated layout then takes, per cell, the mean
        over the contributing channels, as ``accumulate_channels`` does.
        """
        group = np.searchsorted(self.bounds, stroke, side="right") - 1
        key = self.channels[group] * cells + cell
        # The pairs come group-major, so a stable sort by key lines up each
        # channel cell's pairs by group, then by part.
        order = np.argsort(key, kind="stable")
        key, group = key[order], group[order]
        key_starts = np.ones(len(key), dtype=bool)
        key_starts[1:] = key[1:] != key[:-1]
        group_starts = key_starts.copy()
        group_starts[1:] |= group[1:] != group[:-1]
        group_sums = _ordered_sums(
            np.cumsum(group_starts) - 1,
            np.take(self.vectors, stroke[order], axis=0),
            int(group_starts.sum()),
        )
        per_key = np.cumsum(key_starts) - 1
        key = key[key_starts]
        counts = np.bincount(per_key, minlength=len(key))
        means = _ordered_sums(per_key[group_starts], group_sums, len(key)) / counts[:, None]
        if self.layout == LAYOUT_ACCUMULATED:
            channel = key // cells
            key, column = np.unique(key % cells, return_inverse=True)
            per_channel = np.zeros((self.limb_count, len(key), 2), dtype=np.float64)
            per_channel[channel, column] = means
            contributing = np.zeros((self.limb_count, len(key)), dtype=bool)
            contributing[channel, column] = True
            means, counts = _mean_over_channels(per_channel, contributing)
        return key, means, counts

    def rasterize(self) -> FlowMapGrid:
        """The grid, at the cost of the cells the strokes cover.

        The kernel runs on every cell of each stroke's box: the cells
        whose centers lie inside its bounding box widened by the half
        width (``_box_rows``). The grid stores the covered cells' keys,
        means and counts from ``_cell_means``; its planes, where every
        other cell holds a zero vector and a zero count, are built only
        when read.
        """
        stroke, cell = self._covered(np.arange(len(self.later)))
        key, means, counts = self._cell_means(stroke, cell, self.width * self.height)
        return FlowMapGrid.from_cells(
            self.layout,
            self.limb_count,
            self.width,
            self.height,
            (key, means, counts.astype(np.int32)),
            self.grid_stride,
        )

    def values_at(self, channel: int, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """(m, 2) vectors of one stored channel at in-grid cells.

        Equal bit for bit to ``rasterize().values_at(channel, iy, ix)``.
        Cells may come in any order and repeat. The distinct requested
        cells are sorted once (sorted distinct input, as the scorer passes,
        is taken as is), and each row of each box of the channel's strokes
        finds its requested cells by binary search. The kernel runs once on
        those flat (stroke, cell) candidates, so the cost follows the
        requested cells inside each stroke's own box, not the cells of a
        group's hull box, nor the number of stroke groups.
        """
        wanted = np.asarray(iy, dtype=np.int64) * self.width + np.asarray(ix, dtype=np.int64)
        inverse = None
        if not np.all(wanted[1:] > wanted[:-1]):  # the scorer asks for sorted distinct cells
            wanted, inverse = np.unique(wanted, return_inverse=True)
        values = np.zeros((len(wanted), 2), dtype=np.float64)
        if self.layout == LAYOUT_ACCUMULATED:
            strokes = np.arange(len(self.later))
        else:
            strokes = np.flatnonzero(np.repeat(self.channels == channel, np.diff(self.bounds)))
        key, means, _ = self._cell_means(*self._covered(strokes, wanted), len(wanted))
        values[key % len(wanted)] = means
        return values if inverse is None else values[inverse]


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
    """Encode the flow-map grid for one frame pair.

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
