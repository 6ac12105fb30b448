"""Bit-specified file formats: annotations, flow-map dumps, run configs.

Annotations are canonical JSON: keys sorted, floats in shortest
round-trip decimal form, compact separators, newline-terminated. Parsing
then serializing any valid document reproduces its canonical form
byte-for-byte.

Flow-map dumps ("TMLF") are little-endian binary. A flow map is almost
empty (unit vectors only along moving limbs), so version 3 stores only
the covered (channel, cell) slots:

    magic  "TMLF"          4 bytes
    version                u16  (3)
    layout                 u8   (index into encoder.LAYOUTS:
                                 0 = individual, 1 = accumulated)
    limb_count             u16  (source channel count)
    width, height          u32, u32  (cells)
    grid_stride            u32  (pixels per cell side, >= 1)
    has_counts             u8   (0 or 1)
    n                      u64  (stored cells)
    keys                   u64[n], strictly ascending:
                           channel * height * width + iy * width + ix
    vectors                float32[n][2], (x, y) per key
    counts                 u32[n], each in [1, 2**31 - 1]; only if
                           has_counts is 1

Individual grids have limb_count channels, accumulated grids 1. Every
slot not listed is the zero vector with count 0.

These listed slots are the covered-cell table a ``FlowMapGrid`` stores.
The writer packs a grid's table: a grid with counts stores every cell of
it, including those whose strokes cancelled to (0, 0); a grid without
counts stores every cell whose float32 vector has a bit set, so -0.0 and
NaN payloads survive. The version 3 reader returns a grid that stores
the file's table, and builds no plane: it allocates only what the file
holds, whatever grid the header declares. A declared grid too large to
allocate fails when one of its planes is read.

Versions 1 and 2 stored dense float32 planes after the header,
channel-major, x-plane then y-plane per channel, and no counts. Both
are still read, with ``counts=None``; version 1 lacks the
``grid_stride`` field (a 17-byte header) and reads as stride 1.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from typing import Optional

import numpy as np

from .encoder import _COUNT_MAX, LAYOUTS, Cells, FlowmapFormatError, FlowMapGrid, _channel_pairs, _check_keys
from .pose import FramePoses, JointCandidate, Pose, Sequence
from .skeleton import SkeletonTopology, resolve_topology

FORMAT_VERSION = 1
TMLF_MAGIC = b"TMLF"
TMLF_VERSION = 3
_HEADER_V1 = struct.Struct("<4sHBHII")
_STRIDE = struct.Struct("<I")  # follows the version 1 header from version 2 on
_SPARSE = struct.Struct("<BQ")  # has_counts, n: follows the stride from version 3 on


class AnnotationError(ValueError):
    """Structured parse error naming the offending field."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def sequence_to_document(seq) -> dict:
    """Plain-data document for a Sequence or TrackedSequence."""
    frames = []
    for frame in seq.frames:
        poses = []
        for pose in frame.poses:
            joints = []
            for j, c in enumerate(pose.joints):
                if c is None:
                    continue
                joints.append(
                    {
                        "joint_index": j,
                        "x": float(c.x),
                        "y": float(c.y),
                        "confidence": float(c.confidence),
                        "visible": bool(c.visible),
                    }
                )
            entry: dict = {"joints": joints}
            if pose.track_id is not None:
                entry["track_id"] = int(pose.track_id)
            poses.append(entry)
        frames.append(
            {
                "frame_index": int(frame.frame_index),
                "image_size": [int(frame.image_size[0]), int(frame.image_size[1])],
                "poses": poses,
            }
        )
    return {
        "version": FORMAT_VERSION,
        "topology": seq.topology.name,
        "frames": frames,
    }


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def serialize_annotations(seq) -> str:
    return canonical_json(sequence_to_document(seq))


def write_annotations(seq, path: str) -> None:
    text = serialize_annotations(seq)  # before the file exists: a failure leaves none
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _expect(cond: bool, message: str, where: str) -> None:
    if not cond:
        raise AnnotationError(message, where)


class _Rejected(Exception):
    """A pose or joint entry failed a check: args are (message, the joint
    entry's position or None for the pose). The caller builds the path, so
    nothing is formatted while every check passes."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_joint(obj, joint_count: int, entry: int) -> tuple[int, JointCandidate]:
    if not isinstance(obj, dict):
        raise _Rejected("joint entry must be an object", entry)
    try:
        j = obj["joint_index"]
        x = obj["x"]
        y = obj["y"]
    except KeyError as exc:
        raise _Rejected(f"missing field {exc}", entry) from exc
    if not (isinstance(j, int) and not isinstance(j, bool)):
        raise _Rejected("joint_index must be an integer", entry)
    if not 0 <= j < joint_count:
        raise _Rejected(f"joint index out of range: {j}", entry)
    for name, value in (("x", x), ("y", y)):
        if not _is_number(value):
            raise _Rejected(f"malformed number for {name!r}", entry)
        # Compared exactly: an int too large for a float fails, as NaN does.
        if not abs(value) <= sys.float_info.max:
            raise _Rejected(f"{name!r} must be finite", entry)
    confidence = obj.get("confidence", 1.0)
    if not _is_number(confidence):
        raise _Rejected("malformed number for 'confidence'", entry)
    if not 0.0 <= confidence <= 1.0:
        raise _Rejected("confidence must be in [0, 1]", entry)
    visible = obj.get("visible", True)
    if not isinstance(visible, bool):
        raise _Rejected("visible must be a boolean", entry)
    return j, JointCandidate(float(x), float(y), float(confidence), visible)


def _parse_pose(pdoc, joint_count: int) -> Pose:
    if not isinstance(pdoc, dict):
        raise _Rejected("pose must be an object", None)
    track_id = pdoc.get("track_id")
    if track_id is not None and not (
        isinstance(track_id, int) and not isinstance(track_id, bool) and track_id >= 0
    ):
        raise _Rejected("track_id must be a non-negative integer", None)
    joints_doc = pdoc.get("joints", [])
    if not isinstance(joints_doc, list):
        raise _Rejected("joints must be a list", None)
    joints: list[Optional[JointCandidate]] = [None] * joint_count
    for entry, jdoc in enumerate(joints_doc):
        j, cand = _parse_joint(jdoc, joint_count, entry)
        if joints[j] is not None:
            raise _Rejected(f"duplicate joint_index {j}", entry)
        joints[j] = cand
    return Pose(joints=tuple(joints), track_id=track_id)


def document_to_sequence(document: dict, topology: Optional[SkeletonTopology] = None) -> Sequence:
    _expect(isinstance(document, dict), "document must be an object", "$")
    version = document.get("version")
    _expect(type(version) is int and version == FORMAT_VERSION, f"unsupported version {version!r}", "$.version")
    topo_name = document.get("topology")
    if topology is None:
        _expect(isinstance(topo_name, str), "topology must be a string", "$.topology")
        try:
            topology = resolve_topology(topo_name)
        except KeyError as exc:
            raise AnnotationError(str(exc), "$.topology") from exc
    frames_doc = document.get("frames")
    _expect(isinstance(frames_doc, list), "frames must be a list", "$.frames")

    frames = []
    prev_index = None
    for fi, fdoc in enumerate(frames_doc):
        where = f"$.frames[{fi}]"
        _expect(isinstance(fdoc, dict), "frame must be an object", where)
        idx = fdoc.get("frame_index")
        _expect(isinstance(idx, int) and not isinstance(idx, bool), "frame_index must be an integer", where)
        _expect(idx >= 0, "frame_index must be non-negative", where)
        if prev_index is not None:
            _expect(idx > prev_index, "frame indices must be strictly increasing", where)
        prev_index = idx
        size = fdoc.get("image_size")
        _expect(
            isinstance(size, list) and len(size) == 2 and all(type(v) is int and v > 0 for v in size),
            "image_size must be [width, height] of positive integers",
            where,
        )
        poses_doc = fdoc.get("poses", [])
        _expect(isinstance(poses_doc, list), "poses must be a list", where)
        poses = []
        for pi, pdoc in enumerate(poses_doc):
            try:
                poses.append(_parse_pose(pdoc, topology.joint_count))
            except _Rejected as exc:
                message, entry = exc.args
                path = f"{where}.poses[{pi}]" + ("" if entry is None else f".joints[{entry}]")
                raise AnnotationError(message, path) from exc.__cause__
        frames.append(
            FramePoses(frame_index=idx, poses=tuple(poses), image_size=(size[0], size[1]))
        )
    return Sequence(frames=tuple(frames), topology=topology)


def parse_annotations(text: str, topology: Optional[SkeletonTopology] = None) -> Sequence:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return document_to_sequence(document, topology)


def read_annotations(path: str, topology: Optional[SkeletonTopology] = None) -> Sequence:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_annotations(fh.read(), topology)


def flowmap_to_bytes(grid: FlowMapGrid) -> bytes:
    if grid.layout not in LAYOUTS:
        raise FlowmapFormatError(f"unknown layout {grid.layout!r}")
    for name, lo, hi in (("limb_count", 0, 2**16 - 1), ("width", 0, 2**32 - 1),
                         ("height", 0, 2**32 - 1), ("grid_stride", 1, 2**32 - 1)):
        value = getattr(grid, name)
        if not lo <= value <= hi:
            raise FlowmapFormatError(f"{name} {value} is outside the header field's range [{lo}, {hi}]")
    header = _HEADER_V1.pack(
        TMLF_MAGIC, TMLF_VERSION, LAYOUTS.index(grid.layout), grid.limb_count, grid.width, grid.height
    ) + _STRIDE.pack(grid.grid_stride)
    keys, vectors, counts = grid.cells
    tail = ()
    if counts is None:
        # Without counts, a cell whose float32 vector has no bit set is not
        # stored (a float64 one that underflows, say).
        vectors = np.ascontiguousarray(vectors, dtype="<f4")
        stored = vectors.view("<u8").reshape(-1) != 0
        keys, vectors = keys[stored], vectors[stored]
    else:
        if counts.size and not (counts.min() >= 1 and counts.max() <= _COUNT_MAX):
            raise FlowmapFormatError(f"contributor counts must lie in [1, {_COUNT_MAX}]")
        tail = (counts.astype("<i4", copy=False),)
    # Keys and counts are non-negative, so their signed bytes are the
    # unsigned fields' bytes, without a copy on little-endian machines.
    return b"".join((
        header,
        _SPARSE.pack(counts is not None, len(keys)),
        keys.astype("<i8", copy=False),
        vectors.astype("<f4", copy=False),
        *tail,
    ))


def flowmap_from_bytes(data: bytes) -> FlowMapGrid:
    if len(data) < _HEADER_V1.size:
        raise FlowmapFormatError("truncated header")
    magic, version, layout_byte, limb_count, width, height = _HEADER_V1.unpack_from(data)
    if magic != TMLF_MAGIC:
        raise FlowmapFormatError("not a TMLF file")
    if version not in (1, 2, 3):
        raise FlowmapFormatError(f"unsupported format version {version}")
    grid_stride, header_size = 1, _HEADER_V1.size
    if version >= 2:
        header_size += _STRIDE.size
        if len(data) < header_size:
            raise FlowmapFormatError("truncated header")
        (grid_stride,) = _STRIDE.unpack_from(data, _HEADER_V1.size)
        if grid_stride < 1:
            raise FlowmapFormatError(f"grid stride {grid_stride} must be >= 1")
    if layout_byte >= len(LAYOUTS):
        raise FlowmapFormatError(f"unknown layout byte {layout_byte}")
    layout = LAYOUTS[layout_byte]
    shape = (_channel_pairs(layout, limb_count), height, width)
    if version == 3:
        cells = _sparse_cells(data, header_size, shape)
        return FlowMapGrid.from_cells(layout, limb_count, width, height, cells, grid_stride)
    vectors = _dense_planes(data, header_size, shape)
    return FlowMapGrid(layout, limb_count, width, height, vectors, None, grid_stride)


def _check_length(data: bytes, header_size: int, payload: int) -> None:
    if len(data) != header_size + payload:
        raise FlowmapFormatError(
            f"payload is {len(data) - header_size} bytes, expected {payload}"
        )


def _dense_planes(data: bytes, header_size: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Versions 1 and 2: the float32 planes of every slot, no counts, as a
    read-only (pairs, height, width, 2) view into ``data`` for the grid to
    scan into its table."""
    pairs, height, width = shape
    _check_length(data, header_size, pairs * 2 * height * width * 4)
    planes = np.frombuffer(data, dtype="<f4", offset=header_size)
    return np.moveaxis(planes.reshape(pairs, 2, height, width), 1, -1)


def _sparse_cells(data: bytes, header_size: int, shape: tuple[int, int, int]) -> Cells:
    """Version 3: the listed slots, as the grid's covered-cell table of
    read-only views into ``data``.

    The table is checked to be the one the writer gives for its grid, so
    it rewrites to the same bytes. Nothing the size of the declared grid is
    allocated: the file's length bounds the table, not the grid, and a grid
    too large to allocate fails only when one of its planes is read."""
    if len(data) < header_size + _SPARSE.size:
        raise FlowmapFormatError("truncated header")
    has_counts, n = _SPARSE.unpack_from(data, header_size)
    if has_counts not in (0, 1):
        raise FlowmapFormatError(f"has_counts byte {has_counts} must be 0 or 1")
    header_size += _SPARSE.size
    _check_length(data, header_size, n * (8 + 8 + 4 * has_counts))
    # Read as signed: a u64 key of 2**63 or more turns negative, and a u32
    # count above the int32 range does too, so each fails its check below.
    keys = np.frombuffer(data, dtype="<i8", count=n, offset=header_size)
    _check_keys(keys, math.prod(shape), FlowmapFormatError)
    vectors = np.frombuffer(data, dtype="<f4", count=2 * n, offset=header_size + 8 * n)
    if not has_counts:
        if not np.all(vectors.view("<u8")):
            raise FlowmapFormatError("a cell listed without counts must have a vector bit set")
        return keys, vectors.reshape(n, 2), None
    counts = np.frombuffer(data, dtype="<i4", count=n, offset=header_size + 16 * n)
    if counts.size and counts.min() < 1:
        raise FlowmapFormatError(f"contributor counts must lie in [1, {_COUNT_MAX}]")
    return keys, vectors.reshape(n, 2), counts


def write_flowmap(grid: FlowMapGrid, path: str) -> None:
    data = flowmap_to_bytes(grid)  # before the file exists: a failure leaves none
    with open(path, "wb") as fh:
        fh.write(data)


def read_flowmap(path: str) -> FlowMapGrid:
    with open(path, "rb") as fh:
        return flowmap_from_bytes(fh.read())
