"""Limb-motion flow-map encoding.

A flow map is a grid of 2D vectors describing the direction limbs moved
between two frames. Each limb is subdivided into short parts at regular
intervals; every part contributes its unit motion vector to all grid
cells swept by the thick stroke between the part's two anchor positions.
Overlapping contributions, whether from one person or several, are
averaged with a single contributor count per cell, which keeps every
stored vector inside the unit disc.

A frame pair's strokes are enumerated once, as a ``LimbStrokes`` value.
One kernel, ``_covers``, decides which cell centers a stroke covers: it
takes each stroke's segment terms once, gathers them per candidate cell
and tests the candidates in place. One reduction, ``_means_into``, turns
the covered (stroke, cell) pairs into means, through ``_group_means``
where the pairs must first be grouped by key; the two paths differ only
in the cells they hand the kernel. The same reduction takes the
accumulated layout's mean over channels, in ``rasterize`` and in
``accumulate_channels``. A stroke's box holds the
cells whose centers lie inside the stroke's bounding box widened by the
half width, clipped to the grid; no other cell can be covered. ``rasterize``
takes every cell of each stroke's box, and the ``FlowMapGrid`` it
returns is the covered-cell table: the keys, means and counts of the
covered (channel, cell) slots, its only storage. A dense plane is built
from it only for a caller that reads one, so encoding costs the cells the
strokes cover, not the grid size. ``values_at(keys)`` is the one read
interface of both flow maps: it takes strictly ascending flat keys
``channel * height * width + iy * width + ix`` of stored channels and
raises ``ValueError`` for keys out of order, repeated or outside the
grid. ``LimbStrokes`` reads the keys in runs of consecutive stored
channels, a few thousand keys each, with one kernel call per run, and
takes only the requested cells that fall inside each stroke's box, so its
cost follows those (stroke, requested cell) candidates, not the cells the
strokes cover. A request reaches only the strokes whose box holds one of
its cells, so a read may drop any stroke whose box holds none of them
(``LimbStrokes.values_at`` says when it does). The two agree bit for bit
wherever both exist.

Conventions, fixed here and relied on by the scorer:

* Vectors point from the earlier frame toward the later one (along
  motion). Callers pass the chronologically later frame first.
* Grid cell (ix, iy) has its center at pixel (ix * stride, iy * stride).
* A cell belongs to a stroke iff its center is strictly closer than
  ``stroke_half_width`` to the anchor segment. Plain distance test, no
  anti-aliasing, for bit-reproducibility across platforms.
* A displacement's length is ``np.hypot``, in the encoder and the
  scorer alike (``math.hypot`` differs from it in the last bit).
  Displacements of at most ``MOTION_EPSILON`` (1e-6 px) have no defined
  direction and contribute nothing: the encoder draws no such part and
  the scorer adds 0 for such a joint.
* A cell adds its strokes in enumeration order (paired person, then
  limb, then part), on both paths, since the order fixes the last bit of
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
# The flow-map layouts; a layout's index here is its TMLF layout byte.
LAYOUTS = (LAYOUT_INDIVIDUAL, LAYOUT_ACCUMULATED)

# Displacements (pixels) of at most this length count as no motion.
MOTION_EPSILON = 1e-6


@dataclass(frozen=True)
class EncoderConfig:
    """Flow-map encoding options, checked when built: a built config is valid."""

    parts_per_limb: int = 20
    stroke_half_width: float = 1.0
    layout: str = LAYOUT_INDIVIDUAL
    grid_stride: int = 1

    def __post_init__(self) -> None:
        if self.parts_per_limb < 1:
            raise ValueError("parts_per_limb must be >= 1")
        if not (0 < self.stroke_half_width < math.inf):
            raise ValueError("stroke_half_width must be finite and > 0")
        if self.layout not in LAYOUTS:
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
        return float(np.hypot(ax - bx, ay - by))


def _channel_pairs(layout: str, limb_count: int) -> int:
    """Stored channels of a flow map: one per limb channel, or one accumulated."""
    return 1 if layout == LAYOUT_ACCUMULATED else limb_count


def _check_keys(keys: np.ndarray, size: int, error: type = ValueError) -> None:
    """Raise ``error`` unless ``keys`` ascend strictly within [0, size)."""
    if len(keys) and not (keys[0] >= 0 and int(keys[-1]) < size and np.all(keys[1:] > keys[:-1])):
        raise error(f"flow-map keys must ascend strictly within [0, {size})")


class FlowmapFormatError(ValueError):
    """A flow map that is malformed, or whose declared grid cannot be built."""


Cells = tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]

_COUNT_MAX = np.iinfo(np.int32).max


class FlowMapGrid:
    """A finalized flow-map grid, stored as its covered-cell table.

    ``cells`` holds strictly ascending int64 keys
    ``channel * height * width + iy * width + ix``, their (n, 2) vectors,
    and their int32 contributor counts or ``None``. Every slot not listed
    is the zero vector with count 0. ``from_cells`` (the encoder's and the
    TMLF version 3 reader's) takes a table as it is. The dense constructor,
    ``FlowMapGrid(layout, limb_count, width, height, vectors, counts[,
    grid_stride])``, scans its planes into a table once: the cells with a
    positive count, including those whose strokes cancelled to (0, 0), or,
    without counts, every cell whose vector has a bit set. The table keeps
    the planes' float32 or float64 dtype, so every bit of them survives. A
    shape mismatch, a count outside [0, 2**31 - 1] or a set bit outside the
    counted cells raises ``FlowmapFormatError``.

    ``vectors``, (channel_pairs, height, width, 2) float64, and ``counts``,
    (channel_pairs, height, width) int32 or ``None``, are read-only: each
    read builds a new plane from the table, or raises
    ``FlowmapFormatError`` if it cannot be allocated. channel_pairs equals
    ``limb_count`` for the individual layout and 1 for the accumulated
    layout. TMLF version 3 stores the counts, so a read-back carries the
    encoder's counts, while grids read from version 1 or 2 carry none.
    ``limb_count`` always records the source channel count, even after
    accumulation, so the dump format round-trips bit-exactly.
    """

    def __init__(
        self,
        layout: str,
        limb_count: int,
        width: int,
        height: int,
        vectors: np.ndarray,
        counts: Optional[np.ndarray],
        grid_stride: int = 1,
    ):
        self.layout, self.limb_count, self.width, self.height = layout, limb_count, width, height
        self.grid_stride = grid_stride
        self.cells = self._scan(np.asarray(vectors), counts)

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
        grid.cells = cells
        return grid

    def _scan(self, vectors: np.ndarray, counts: Optional[np.ndarray]) -> Cells:
        shape = (self.channel_pairs, self.height, self.width)
        if vectors.shape != shape + (2,):
            raise FlowmapFormatError(f"vectors shape {vectors.shape} does not match {shape + (2,)}")
        if vectors.dtype not in (np.float32, np.float64):
            vectors = vectors.astype(np.float64)
        # One component at a time: a strided view (TMLF v1/v2) is not copied.
        bits = vectors.view(np.uint32 if vectors.dtype == np.float32 else np.uint64)
        set_bits = bits[..., 0] != 0
        set_bits |= bits[..., 1] != 0
        if counts is None:
            keys = np.flatnonzero(set_bits)
            return keys, vectors[np.unravel_index(keys, shape)], None
        counts = np.asarray(counts)
        if counts.shape != shape:
            raise FlowmapFormatError(f"counts shape {counts.shape} does not match {shape}")
        if counts.size and not (counts.min() >= 0 and counts.max() <= _COUNT_MAX):
            raise FlowmapFormatError(f"contributor counts must lie in [0, {_COUNT_MAX}]")
        keys = np.flatnonzero(counts)
        # A set bit outside the counted cells would be lost, so it is an error.
        if np.count_nonzero(set_bits) != np.count_nonzero(set_bits.reshape(-1)[keys]):
            raise FlowmapFormatError("a vector lies outside the counted cells")
        return keys, vectors[np.unravel_index(keys, shape)], counts.reshape(-1)[keys].astype(np.int32)

    @property
    def vectors(self) -> np.ndarray:
        keys, vectors, _ = self.cells
        planes = self._zeros((2,), np.float64)
        planes.reshape(-1, 2)[keys] = vectors
        return planes

    @property
    def counts(self) -> Optional[np.ndarray]:
        keys, _, counts = self.cells
        if counts is None:
            return None
        plane = self._zeros((), np.int32)
        plane.reshape(-1)[keys] = counts
        return plane

    def _zeros(self, tail: tuple[int, ...], dtype) -> np.ndarray:
        shape = (self.channel_pairs, self.height, self.width)
        try:
            return np.zeros(shape + tail, dtype=dtype)
        except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
            raise FlowmapFormatError(
                f"cannot allocate the declared grid of {' x '.join(map(str, shape))} cells"
            ) from exc

    def __repr__(self) -> str:
        return (
            f"FlowMapGrid({self.layout!r}, limb_count={self.limb_count}, "
            f"{self.width}x{self.height} cells, grid_stride={self.grid_stride})"
        )

    @property
    def channel_pairs(self) -> int:
        return _channel_pairs(self.layout, self.limb_count)

    def channel_for(self, limb_channel):
        """Map a topology limb channel, or an array of them, to its stored
        channel index."""
        return limb_channel * (self.layout != LAYOUT_ACCUMULATED)

    def values_at(self, keys: np.ndarray) -> np.ndarray:
        """(m, 2) float64 vectors at flat keys (see the module docstring),
        found by binary search in the table's keys."""
        _check_keys(keys, self.channel_pairs * self.height * self.width)
        table, vectors, _ = self.cells
        values = np.zeros((len(keys), 2), dtype=np.float64)
        if len(table):
            at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
            hit = table[at] == keys
            values[hit] = vectors[at[hit]]
        return values


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


# ------------------------------------------------------------ the kernel

# Cells whose centers lie within this many cells outside a stroke's box
# stay candidates, so that rounding in the box bounds never drops a cell
# ``_covers`` would hit; the cells it keeps are rejected there.
_BOX_MARGIN = 1e-6


def _boxes(
    a: np.ndarray, b: np.ndarray, half_width: float, stride: float, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cell boxes (ix0, iy0, ix1, iy1), inclusive and clipped to the
    grid, that strokes (a[k], b[k]) can cover. A box that misses the grid
    has ix1 < ix0 or iy1 < iy0.

    A box holds the cells whose centers lie inside the stroke's bounding
    box widened by ``half_width`` (up to ``_BOX_MARGIN`` cells beyond its
    edges); no cell center outside it is strictly closer than
    ``half_width`` to the segment."""
    lo = np.ceil((np.minimum(a, b) - half_width) / stride - _BOX_MARGIN)
    hi = np.floor((np.maximum(a, b) + half_width) / stride + _BOX_MARGIN)
    last = np.array([width - 1, height - 1], dtype=np.float64)
    ix0, iy0 = np.minimum(np.maximum(lo, 0), last + 1).astype(np.int64).T
    ix1, iy1 = np.minimum(np.maximum(hi, -1), last).astype(np.int64).T
    return ix0, iy0, ix1, iy1


def _box_rows(
    a: np.ndarray, b: np.ndarray, half_width: float, stride: float, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the ``_boxes`` of strokes (a[k], b[k]): per row its
    stroke k and the flat keys (iy * width + ix) of its first and last
    cell, stroke-major in ascending rows. A box that misses the grid
    sideways has last < first."""
    ix0, iy0, ix1, iy1 = _boxes(a, b, half_width, stride, width, height)
    stroke, row = _expand(iy0, iy1 - iy0 + 1)
    return stroke, row * width + ix0[stroke], row * width + ix1[stroke]


def _covers(
    a: np.ndarray,
    b: np.ndarray,
    half_width: float,
    stroke: np.ndarray,
    cell: np.ndarray,
    width: int,
    stride: float,
) -> np.ndarray:
    """Per candidate i, whether segment (a[stroke[i]], b[stroke[i]])
    passes strictly closer than ``half_width`` to the center of flat cell
    ``cell[i]`` (iy * width + ix, centered at (ix * stride, iy * stride)).

    The segment terms, d = b - a, its squared length and that length with
    0 replaced by 1 (so a zero-length segment projects to t = 0 by
    itself), are taken once per stroke and gathered per candidate. The
    projection, clip and distance then run in place on the gathered
    buffers; each candidate takes the same float operations, in the same
    order, as the elementwise rule t = clip(rel . d / |d|^2, 0, 1),
    |rel - t d|^2 < half_width^2."""
    d = b - a
    seg_len2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    safe_len2 = np.where(seg_len2 > 0.0, seg_len2, 1.0)
    iy, ix = np.divmod(cell, width)
    rel_x, rel_y = ix * stride, iy * stride
    del ix, iy
    gathered = np.empty(len(cell), dtype=np.float64)
    rel_x -= np.take(a[:, 0], stroke, out=gathered)
    rel_y -= np.take(a[:, 1], stroke, out=gathered)
    dx, dy = np.take(d[:, 0], stroke), np.take(d[:, 1], stroke)
    t = rel_x * dx
    t += np.multiply(rel_y, dy, out=gathered)
    t /= np.take(safe_len2, stroke, out=gathered)
    np.clip(t, 0.0, 1.0, out=t)
    rel_x -= np.multiply(t, dx, out=dx)
    rel_y -= np.multiply(t, dy, out=dy)
    rel_x *= rel_x
    rel_y *= rel_y
    rel_x += rel_y
    return rel_x < half_width * half_width


def _expand(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (owner, value) pairs: owner k takes values starts[k] up to
    starts[k] + sizes[k] - 1 in turn (none when sizes[k] <= 0)."""
    sizes = np.maximum(sizes, 0)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def _means_into(out: np.ndarray, at: np.ndarray, vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write into each row i of the (m, 2) float64 ``out`` the mean of
    ``vectors[rows[k]]`` over the k with ``at[k] == i``, and return each
    row's count; a row with none reads 0.

    The encoder's one summation rule: row i's sum starts at +0.0 and adds
    its vectors in ascending k, since ``np.bincount`` adds its weights in
    array order."""
    counts = np.bincount(at, minlength=len(out))
    for c in range(2):
        out[:, c] = np.bincount(at, vectors[rows, c], len(out))
    out /= np.maximum(counts, 1)[:, None]
    return counts


def _group_means(key: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending distinct values of ``key``, with the mean of each one's
    rows of the (n, 2) float64 ``vectors`` and its int32 row count.

    A key's sum adds its rows in array order (``_means_into``): a stable
    sort keeps each key's rows in turn. The sort also runs fast on keys
    that come in sorted runs, as the (stroke, cell) pairs of the
    rasterizer do."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.ones(len(key), dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    per_key = np.cumsum(starts) - 1
    key = key[starts]
    means = np.empty((len(key), 2), dtype=np.float64)
    counts = _means_into(means, per_key, vectors, order)
    return key, means, counts.astype(np.int32)


# ------------------------------------------------------------ strokes

# Requested keys per kernel run of ``LimbStrokes.values_at``: channels share
# a run while they hold at most this many keys together, which saves a pass
# of numpy calls per channel; a larger channel keeps a run of its own, so
# its memory does not grow. Measured on one CPU: reading a 4-person 256x192
# sequence of 30 frames took 73 ms with a run per channel, 37 ms at 4096
# and 35 ms at 8192 or 16384; 16384 raised the traced peak of a 20-person
# 960x720 scoring call from 7.9 to 10.0 MiB, 8192 left it as it was.
_RUN_KEYS = 8192

# Cells per side of the tiles ``LimbStrokes._reachable`` bins a run's keys into.
_TILE = 16

@dataclass(frozen=True)
class LimbStrokes:
    """The moving part strokes of one frame pair: a flow map on demand.

    Stroke k, in enumeration order, draws its unit motion ``vectors[k]``
    into limb channel ``channels[k]`` between anchors ``later[k]`` and
    ``earlier[k]``; parts that stand still are left out. The arrays hold
    at most people x limbs x parts rows, a few kilobytes per frame pair,
    where the dense grid holds channels x height x width.
    """

    layout: str
    limb_count: int
    width: int
    height: int
    grid_stride: int
    half_width: float
    channels: np.ndarray  # (N,) int64
    later: np.ndarray  # (N, 2)
    earlier: np.ndarray  # (N, 2)
    vectors: np.ndarray  # (N, 2)

    # The stored channels are those of a grid with the same layout.
    channel_pairs = FlowMapGrid.channel_pairs
    channel_for = FlowMapGrid.channel_for

    def _covered(
        self,
        strokes: np.ndarray,
        keys: Optional[np.ndarray] = None,
        offsets: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(stroke, cell) pairs, in stroke order, where one of the ascending
        ``strokes`` covers a cell of its own box. The kernel runs on every
        cell of each box, or, given sorted distinct flat keys ``keys`` and
        each stroke's key offset ``offsets`` (its stored channel times the
        cells per channel), on those that fall inside each box of the
        stroke's stored channel, found per box row by binary search; the
        pairs then hold positions into ``keys``. Each candidate is a box
        index and a flat cell: ``_covers`` takes the segment terms of each
        of ``strokes`` once and tests every candidate in place, so no
        per-candidate copy of the anchors is made."""
        s = float(self.grid_stride)
        later = np.take(self.later, strokes, axis=0)
        earlier = np.take(self.earlier, strokes, axis=0)
        box, first, last = _box_rows(later, earlier, self.half_width, s, self.width, self.height)
        if keys is None:
            row, at = _expand(first, last - first + 1)
            cell = at
        else:
            offset = offsets[box]
            lo = np.searchsorted(keys, first + offset)
            row, at = _expand(lo, np.searchsorted(keys, last + offset, side="right") - lo)
            cell = keys[at] % (self.width * self.height)
        box = box[row]
        hit = _covers(later, earlier, self.half_width, box, cell, self.width, s)
        return strokes[box[hit]], at[hit]

    def _cell_means(
        self, stroke: np.ndarray, cell: np.ndarray, cells: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored (channel, cell) keys ``channel * cells + cell``, ascending,
        with their means and contributor counts, from the (stroke, cell)
        pairs in stroke order where a stroke covers a cell, cell < cells.

        A channel cell's mean adds its covering strokes in stroke order.
        The accumulated layout then takes, per cell, the mean over the
        contributing channels, added in channel order since the channel
        cell keys ascend, as ``accumulate_channels`` does.
        """
        vectors = np.take(self.vectors, stroke, axis=0)
        table = _group_means(self.channels[stroke] * cells + cell, vectors)
        if self.layout == LAYOUT_ACCUMULATED:
            return _group_means(table[0] % cells, table[1])
        return table

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
        table = self._cell_means(stroke, cell, self.width * self.height)
        geometry = (self.limb_count, self.width, self.height)
        return FlowMapGrid.from_cells(self.layout, *geometry, table, self.grid_stride)

    def _reachable(self, strokes: np.ndarray, keys: np.ndarray, channel: np.ndarray) -> np.ndarray:
        """The ascending ``strokes`` whose box (``_boxes``) touches a tile
        of ``_TILE`` x ``_TILE`` cells, in its stroke's stored channel
        ``channel[k]``, that holds one of the sorted flat ``keys``.

        The keys' tiles are their sorted distinct ids ``(channel * th +
        iy // _TILE) * tw + ix // _TILE``; each tile row of a box finds its
        tiles by binary search, so the memory follows the keys and the
        strokes, not the grid. A stroke left out has no key in its box."""
        tile = _TILE
        tw, th = -(-self.width // tile), -(-self.height // tile)
        c, cell = np.divmod(keys, self.width * self.height)
        iy, ix = np.divmod(cell, self.width)
        tiles = np.unique((c * th + iy // tile) * tw + ix // tile)
        later = np.take(self.later, strokes, axis=0)
        earlier = np.take(self.earlier, strokes, axis=0)
        s = float(self.grid_stride)
        ix0, iy0, ix1, iy1 = _boxes(later, earlier, self.half_width, s, self.width, self.height)
        rows = np.where((ix0 <= ix1) & (iy0 <= iy1), iy1 // tile - iy0 // tile + 1, 0)
        box, ty = _expand(iy0 // tile, rows)
        row = (channel[box] * th + ty) * tw
        lo = np.searchsorted(tiles, row + ix0[box] // tile)
        hit = np.searchsorted(tiles, row + ix1[box] // tile, side="right") > lo
        keep = np.zeros(len(strokes), dtype=bool)
        keep[box[hit]] = True
        return strokes[keep]

    def values_at(self, keys: np.ndarray) -> np.ndarray:
        """(m, 2) vectors at flat keys (see the module docstring), equal bit
        for bit to ``rasterize().values_at(keys)``.

        The keys are read in runs of consecutive requested stored channels:
        a run takes channels in turn while they hold at most ``_RUN_KEYS``
        keys together, so a channel with more is a run of its own. The
        kernel runs once per run, on the strokes of the run's channels:
        each row of each box, offset to its stroke's channel, finds its
        requested cells by binary search among the run's keys, so the cost
        follows the requested cells inside each stroke's own box.

        A request reaches only the strokes whose box holds one of its
        cells. Where a run holds fewer than half as many keys as strokes
        (2 * keys < strokes), ``_reachable`` first drops the strokes whose
        box touches no 16 x 16-cell tile of the run's keys. Such a stroke's
        box holds no requested cell, so it adds to no mean: that invariant
        keeps the means bit-equal, whichever side of the rule a run falls
        on. Keys per stroke of a run measured 5.2-10.4 on 20-person
        960x720 crowds, 0.57-4.1 on a 4-person sequence, 0.89-1.34 on a
        50-person association step and 2.2-4.6 on 50-person matching, but
        0.03-0.39 on 50-person refinement, where the cull pays; run on
        every read, it cost about 7 ms a pass on the first two.

        Within a run, each (channel, cell) still adds its strokes in stroke
        order, so the means do not depend on the runs or the cull. In the
        individual layout a run's covered pairs are (stroke, position of
        the key in the run), in stroke order, so ``_means_into`` sums each
        position's strokes straight into its row of the output; the
        accumulated layout takes its means over channels by
        ``_cell_means``."""
        cells = self.width * self.height
        _check_keys(keys, self.channel_pairs * cells)
        values = np.zeros((len(keys), 2), dtype=np.float64)
        if not len(keys):
            return values
        channel = keys // cells
        starts = (np.flatnonzero(channel[1:] != channel[:-1]) + 1).tolist()
        runs = [0]
        for start, end in zip(starts, starts[1:] + [len(keys)]):
            if end - runs[-1] > _RUN_KEYS:
                runs.append(start)
        runs.append(len(keys))
        stroke_channel = self.channel_for(self.channels)
        for lo, hi in zip(runs, runs[1:]):
            run = keys[lo:hi]
            wanted = np.zeros(self.channel_pairs, dtype=bool)
            wanted[channel[lo:hi]] = True
            strokes = np.flatnonzero(wanted[stroke_channel])
            if 2 * len(run) < len(strokes):
                strokes = self._reachable(strokes, run, stroke_channel[strokes])
            stroke, at = self._covered(strokes, run, stroke_channel[strokes] * cells)
            if self.layout == LAYOUT_ACCUMULATED:
                at, means, _ = self._cell_means(stroke, at, len(run))
                values[lo + at] = means
            else:
                _means_into(values[lo:hi], at, self.vectors, stroke)
        return values


FlowMap = Union[FlowMapGrid, LimbStrokes]


def _limb_anchors(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    cfg: EncoderConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Part anchors of every paired person's encodable limbs.

    Raises ``ValueError``, before any anchor is built, for frames of two
    image sizes or a pairing index outside its frame. A limb is encodable
    when both endpoint joints are present and visible in both frames.
    Returns the later-frame person index and limb index of each encodable
    (pair, limb), pairing-major in limb order, and its anchors in the later
    and the earlier frame, each (M, parts, 2).
    """
    if frame_later.image_size != frame_earlier.image_size:
        raise ValueError("frames must share image_size")
    for li, ei in pairing:
        if not (0 <= li < len(frame_later.poses)):
            raise ValueError(f"pairing index {li} out of range in later frame")
        if not (0 <= ei < len(frame_earlier.poses)):
            raise ValueError(f"pairing index {ei} out of range in earlier frame")
    xy_l, _, ok_l = pose_arrays([frame_later.poses[li] for li, _ in pairing], topo.joint_count)
    xy_e, _, ok_e = pose_arrays([frame_earlier.poses[ei] for _, ei in pairing], topo.joint_count)
    ja = np.array([limb[0] for limb in topo.limbs], dtype=np.int64)
    jb = np.array([limb[1] for limb in topo.limbs], dtype=np.int64)
    encodable = ok_l[:, ja] & ok_l[:, jb] & ok_e[:, ja] & ok_e[:, jb]
    row, limb = np.nonzero(encodable)
    anchors_later = _subdivide(xy_l[row, ja[limb]], xy_l[row, jb[limb]], cfg.parts_per_limb)
    anchors_earlier = _subdivide(xy_e[row, ja[limb]], xy_e[row, jb[limb]], cfg.parts_per_limb)
    person = np.array([li for li, _ in pairing], dtype=np.int64)[row]
    return person, limb, anchors_later, anchors_earlier


def limb_parts(
    frame_later: FramePoses,
    frame_earlier: FramePoses,
    pairing: list[tuple[int, int]],
    topo: SkeletonTopology,
    cfg: EncoderConfig,
) -> list[LimbPart]:
    """Enumerate part strokes for every paired person and encodable limb,
    with the input checks of ``limb_strokes``."""
    person, limb, later, earlier = _limb_anchors(frame_later, frame_earlier, pairing, topo, cfg)
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
    nothing. Parts that move at most ``MOTION_EPSILON`` are dropped, which
    also keeps static limbs from diluting moving ones at shared cells.
    Raises ``ValueError`` for the frames and pairing ``_limb_anchors``
    rejects, and for a grid whose (channel, cell) keys would overflow int64.
    """
    _, limb, later, earlier = _limb_anchors(frame_later, frame_earlier, pairing, topo, cfg)
    disp = later - earlier
    norms = np.hypot(disp[..., 0], disp[..., 1])
    moving = norms > MOTION_EPSILON  # (M, n)
    width, height = grid_shape_for(frame_later.image_size, cfg.grid_stride)
    slots = _channel_pairs(cfg.layout, topo.limb_count) * width * height
    if slots > np.iinfo(np.int64).max:
        raise ValueError(f"a flow map of {width} x {height} cells has {slots} slots, too many for int64 keys")
    return LimbStrokes(
        layout=cfg.layout,
        limb_count=topo.limb_count,
        width=width,
        height=height,
        grid_stride=cfg.grid_stride,
        half_width=cfg.stroke_half_width,
        channels=np.repeat(limb, moving.sum(axis=1)),
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
    keys, vectors, counts = grid.cells
    if counts is None:
        # Grids read from TMLF version 1 or 2 have no counts; fall back to
        # nonzero vectors.
        contributing = np.any(vectors != 0, axis=-1)
        keys, vectors = keys[contributing], vectors[contributing]
    table = _group_means(keys % (grid.width * grid.height), vectors.astype(np.float64))
    geometry = (grid.limb_count, grid.width, grid.height)
    return FlowMapGrid.from_cells(LAYOUT_ACCUMULATED, *geometry, table, grid.grid_stride)


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
