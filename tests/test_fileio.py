import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbflow.encoder import EncoderConfig, FlowMapGrid, accumulate_channels, encode_limb_flow
from limbflow.fileio import (
    AnnotationError,
    FlowmapFormatError,
    flowmap_from_bytes,
    flowmap_to_bytes,
    parse_annotations,
    read_annotations,
    read_flowmap,
    serialize_annotations,
    write_annotations,
    write_flowmap,
)
from limbflow.pose import FramePoses, JointCandidate, Pose, Sequence

from helpers import (
    TOPO,
    dense_accumulate_channels,
    frame,
    group_box_rasterize,
    oracle_flowmap_from_bytes,
    oracle_flowmap_to_bytes,
    random_strokes,
    raw_strokes_grid,
    stick_pose,
    traced_peak,
    translate_pose,
)

# ------------------------------------------------------------ annotations


def _sequence(n_frames=2, n_people=2):
    frames = []
    for t in range(n_frames):
        poses = [
            stick_pose(60 + 30 * p + t, 60, track_id=p if t % 2 == 0 else None)
            for p in range(n_people)
        ]
        frames.append(frame(poses, t))
    return Sequence(frames=tuple(frames), topology=TOPO)


def test_single_frame_round_trip():
    seq = _sequence(1, 1)
    text = serialize_annotations(seq)
    back = parse_annotations(text)
    assert len(back.frames) == 1
    assert back.frames[0].poses == seq.frames[0].poses
    assert back.topology is TOPO


def test_round_trip_is_canonical_identity():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        frames = []
        for t in range(int(rng.integers(1, 4))):
            poses = []
            for p in range(int(rng.integers(0, 3))):
                joints = tuple(
                    None
                    if rng.random() < 0.3
                    else JointCandidate(
                        float(np.round(rng.uniform(0, 199), 6)),
                        float(np.round(rng.uniform(0, 159), 6)),
                        float(np.round(rng.uniform(0, 1), 6)),
                        bool(rng.random() < 0.9),
                    )
                    for _ in range(15)
                )
                poses.append(Pose(joints=joints, track_id=int(rng.integers(0, 9)) if rng.random() < 0.5 else None))
            frames.append(FramePoses(t, tuple(poses), (200, 160)))
        seq = Sequence(frames=tuple(frames), topology=TOPO)
        text = serialize_annotations(seq)
        assert serialize_annotations(parse_annotations(text)) == text
        assert text.endswith("\n")


def test_canonical_form_sorted_compact():
    text = serialize_annotations(_sequence(1, 1))
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_float_shortest_round_trip_repr():
    p = Pose(joints=(JointCandidate(0.1, 1 / 3, 0.7, True),) + (None,) * 14)
    seq = Sequence(frames=(frame([p], 0),), topology=TOPO)
    text = serialize_annotations(seq)
    assert "0.3333333333333333" in text
    back = parse_annotations(text)
    assert back.frames[0].poses[0].joints[0].y == 1 / 3  # exact


def test_joint_index_out_of_range():
    text = serialize_annotations(_sequence(1, 1)).replace('"joint_index":14', '"joint_index":99')
    with pytest.raises(AnnotationError, match="out of range"):
        parse_annotations(text)


def test_unknown_topology():
    text = serialize_annotations(_sequence(1, 1)).replace("default15", "mystery")
    with pytest.raises(AnnotationError, match="unknown topology"):
        parse_annotations(text)


def test_malformed_number():
    text = serialize_annotations(_sequence(1, 1))
    doc = json.loads(text)
    doc["frames"][0]["poses"][0]["joints"][0]["x"] = "oops"
    with pytest.raises(AnnotationError, match="malformed number"):
        parse_annotations(json.dumps(doc))


def test_invalid_json_names_position():
    with pytest.raises(AnnotationError, match="line"):
        parse_annotations("{not json")


def test_non_increasing_frames_rejected():
    doc = json.loads(serialize_annotations(_sequence(2, 1)))
    doc["frames"][1]["frame_index"] = 0
    with pytest.raises(AnnotationError, match="strictly increasing"):
        parse_annotations(json.dumps(doc))


def test_duplicate_joint_index_rejected():
    doc = json.loads(serialize_annotations(_sequence(1, 1)))
    joints = doc["frames"][0]["poses"][0]["joints"]
    joints[1]["joint_index"] = joints[0]["joint_index"]
    with pytest.raises(AnnotationError, match="duplicate"):
        parse_annotations(json.dumps(doc))


@pytest.mark.parametrize("path, value, message", [
    (("poses",), 5, r"\$\.frames\[0\]: poses must be a list"),
    (("poses", 0, "joints"), 7, r"\$\.frames\[0\]\.poses\[0\]: joints must be a list"),
    (("poses", 0, "joints", 0, "x"), 10**400, r"\$\.frames\[0\]\.poses\[0\]\.joints\[0\]: 'x' must be finite"),
    (("poses", 0, "joints", 0, "y"), -(10**400), r"\.joints\[0\]: 'y' must be finite"),
], ids=["poses", "joints", "x", "y"])
def test_parser_rejects_a_value_of_the_wrong_kind(path, value, message):
    # Each raised TypeError before, from iterating an int or from np.isfinite
    # on an int too large for a float.
    doc = json.loads(serialize_annotations(_sequence(1, 1)))
    node = doc["frames"][0]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(AnnotationError, match=message):
        parse_annotations(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 1.0])
def test_parser_rejects_a_version_that_is_not_an_int(version):
    # Both compare equal to 1, so they used to parse.
    doc = json.loads(serialize_annotations(_sequence(1, 1)))
    doc["version"] = version
    with pytest.raises(AnnotationError, match=r"\$\.version: unsupported version"):
        parse_annotations(json.dumps(doc))


@pytest.mark.parametrize("size", [[True, True], [200.0, 160], [200, True]])
def test_parser_rejects_an_image_size_that_is_not_ints(size):
    # [true, true] used to parse as the frame size (True, True).
    doc = json.loads(serialize_annotations(_sequence(1, 1)))
    doc["frames"][0]["image_size"] = size
    with pytest.raises(AnnotationError, match="image_size must be"):
        parse_annotations(json.dumps(doc))


def test_an_unserializable_sequence_leaves_no_file(tmp_path):
    bad = _sequence(1, 1)
    bad = replace(bad, frames=(replace(bad.frames[0], frame_index="first"),))
    path = tmp_path / "ann.json"
    with pytest.raises(ValueError):
        write_annotations(bad, str(path))
    assert not path.exists()


def test_file_round_trip(tmp_path):
    seq = _sequence(3, 2)
    path = tmp_path / "ann.json"
    write_annotations(seq, str(path))
    back = read_annotations(str(path))
    assert serialize_annotations(back) == serialize_annotations(seq)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_confidence_bounds_enforced(conf_milli):
    conf = conf_milli / 10_000
    p = Pose(joints=(JointCandidate(1.0, 2.0, conf),) + (None,) * 14)
    seq = Sequence(frames=(frame([p], 0),), topology=TOPO)
    assert parse_annotations(serialize_annotations(seq)).frames[0].poses[0].joints[0].confidence == conf


def test_confidence_out_of_range_rejected():
    doc = json.loads(serialize_annotations(_sequence(1, 1)))
    doc["frames"][0]["poses"][0]["joints"][0]["confidence"] = 1.5
    with pytest.raises(AnnotationError, match="confidence"):
        parse_annotations(json.dumps(doc))


_POSE = "$.frames[1].poses[1]"
_JOINT = "$.frames[1].poses[1].joints[3]"
_DELETE = object()
_NAN = float("nan")

# (id, field of pose 1 of frame 1 or of its joint entry 3 ("" for the
# entry itself), entry (None for the pose), new value, the error's full text)
_REJECTIONS = [
    ("pose-not-object", "", None, [], f"{_POSE}: pose must be an object"),
    ("track-id-negative", "track_id", None, -1, f"{_POSE}: track_id must be a non-negative integer"),
    ("track-id-bool", "track_id", None, True, f"{_POSE}: track_id must be a non-negative integer"),
    ("track-id-float", "track_id", None, 1.0, f"{_POSE}: track_id must be a non-negative integer"),
    ("track-id-string", "track_id", None, "7", f"{_POSE}: track_id must be a non-negative integer"),
    ("joints-not-list", "joints", None, {}, f"{_POSE}: joints must be a list"),
    ("joint-not-object", "", 3, 5, f"{_JOINT}: joint entry must be an object"),
    ("joint-null", "", 3, None, f"{_JOINT}: joint entry must be an object"),
    ("no-joint-index", "joint_index", 3, _DELETE, f"{_JOINT}: missing field 'joint_index'"),
    ("no-x", "x", 3, _DELETE, f"{_JOINT}: missing field 'x'"),
    ("no-y", "y", 3, _DELETE, f"{_JOINT}: missing field 'y'"),
    ("joint-index-bool", "joint_index", 3, True, f"{_JOINT}: joint_index must be an integer"),
    ("joint-index-float", "joint_index", 3, 3.0, f"{_JOINT}: joint_index must be an integer"),
    ("joint-index-string", "joint_index", 3, "3", f"{_JOINT}: joint_index must be an integer"),
    ("joint-index-negative", "joint_index", 3, -1, f"{_JOINT}: joint index out of range: -1"),
    ("joint-index-too-large", "joint_index", 3, 15, f"{_JOINT}: joint index out of range: 15"),
    ("x-string", "x", 3, "oops", f"{_JOINT}: malformed number for 'x'"),
    ("x-bool", "x", 3, True, f"{_JOINT}: malformed number for 'x'"),
    ("y-null", "y", 3, None, f"{_JOINT}: malformed number for 'y'"),
    ("y-list", "y", 3, [1.0], f"{_JOINT}: malformed number for 'y'"),
    ("x-nan", "x", 3, _NAN, f"{_JOINT}: 'x' must be finite"),
    ("x-inf", "x", 3, float("inf"), f"{_JOINT}: 'x' must be finite"),
    ("y-minus-inf", "y", 3, float("-inf"), f"{_JOINT}: 'y' must be finite"),
    ("x-huge-int", "x", 3, 10**400, f"{_JOINT}: 'x' must be finite"),
    ("confidence-string", "confidence", 3, "high", f"{_JOINT}: malformed number for 'confidence'"),
    ("confidence-bool", "confidence", 3, False, f"{_JOINT}: malformed number for 'confidence'"),
    ("confidence-above-one", "confidence", 3, 1.5, f"{_JOINT}: confidence must be in [0, 1]"),
    ("confidence-negative", "confidence", 3, -0.1, f"{_JOINT}: confidence must be in [0, 1]"),
    ("confidence-nan", "confidence", 3, _NAN, f"{_JOINT}: confidence must be in [0, 1]"),
    ("visible-int", "visible", 3, 1, f"{_JOINT}: visible must be a boolean"),
    ("visible-null", "visible", 3, None, f"{_JOINT}: visible must be a boolean"),
    ("duplicate", "joint_index", 3, 2, f"{_JOINT}: duplicate joint_index 2"),
    # Several faults in one entry: the first check in order names it.
    ("index-before-x", "", 3, {"joint_index": 99, "x": "a", "y": 1.0},
     f"{_JOINT}: joint index out of range: 99"),
    ("x-before-y", "", 3, {"joint_index": 3, "x": _NAN, "y": "b"}, f"{_JOINT}: 'x' must be finite"),
    ("confidence-before-visible", "", 3,
     {"joint_index": 3, "x": 1.0, "y": 1.0, "confidence": 2, "visible": 1},
     f"{_JOINT}: confidence must be in [0, 1]"),
]


@pytest.mark.parametrize(
    "field, entry, value, text", [case[1:] for case in _REJECTIONS], ids=[case[0] for case in _REJECTIONS]
)
def test_pose_and_joint_rejections_keep_their_full_text(field, entry, value, text):
    doc = json.loads(serialize_annotations(_sequence(2, 2)))
    poses = doc["frames"][1]["poses"]
    node, key = (poses, 1) if entry is None else (poses[1]["joints"], entry)
    if field:
        node, key = node[key], field
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(AnnotationError) as info:
        parse_annotations(json.dumps(doc))
    assert str(info.value) == text
    assert info.value.where == text.split(": ")[0]
    assert isinstance(info.value.__cause__, KeyError) == ("missing field" in text)


# ------------------------------------------------------------ flow maps


def _random_grid(rng, layout="individual"):
    limb_count = int(rng.integers(0, 6))
    w, h = int(rng.integers(0, 12)), int(rng.integers(0, 12))
    pairs = limb_count if layout == "individual" else 1
    vectors = rng.uniform(-1, 1, size=(pairs, h, w, 2)).astype(np.float32).astype(np.float64)
    return FlowMapGrid(
        layout=layout,
        limb_count=limb_count,
        width=w,
        height=h,
        vectors=vectors,
        counts=None,
    )


def test_flowmap_bytes_round_trip_bit_identity():
    rng = np.random.default_rng(0)
    for i in range(100):
        layout = "individual" if i % 2 == 0 else "accumulated"
        grid = _random_grid(rng, layout)
        blob = flowmap_to_bytes(grid)
        back = flowmap_from_bytes(blob)
        assert flowmap_to_bytes(back) == blob  # write . read == identity on bytes
        assert back.layout == grid.layout
        assert back.limb_count == grid.limb_count
        assert (back.width, back.height) == (grid.width, grid.height)
        assert np.array_equal(back.vectors, grid.vectors)


def test_empty_grid_header_only():
    grid = FlowMapGrid(
        layout="individual",
        limb_count=14,
        width=0,
        height=0,
        vectors=np.zeros((14, 0, 0, 2)),
        counts=None,
    )
    blob = flowmap_to_bytes(grid)
    assert len(blob) == 30
    assert blob[:4] == b"TMLF"
    assert struct.unpack_from("<BQ", blob, 21) == (0, 0)
    back = flowmap_from_bytes(blob)
    assert back.limb_count == 14


def test_header_layout_byte():
    rng = np.random.default_rng(1)
    acc = _random_grid(rng, "accumulated")
    blob = flowmap_to_bytes(acc)
    magic, version, layout_byte, limb_count, w, h, stride, has_counts, n = struct.unpack_from(
        "<4sHBHIIIBQ", blob
    )
    assert magic == b"TMLF"
    assert version == 3
    assert layout_byte == 1
    assert stride == 1
    assert has_counts == 0
    assert n == w * h  # every uniform random cell is nonzero
    assert len(blob) == 30 + 16 * n


def test_bad_magic():
    with pytest.raises(FlowmapFormatError, match="not a TMLF file"):
        flowmap_from_bytes(b"NOPE" + b"\x00" * 13)


def test_truncated_and_oversized_payloads():
    rng = np.random.default_rng(2)
    grid = _random_grid(rng)
    blob = flowmap_to_bytes(grid)
    if len(blob) > 17:
        with pytest.raises(FlowmapFormatError):
            flowmap_from_bytes(blob[:-1])
    with pytest.raises(FlowmapFormatError):
        flowmap_from_bytes(blob + b"\x00")
    with pytest.raises(FlowmapFormatError, match="truncated"):
        flowmap_from_bytes(b"TML")


def test_bad_version_and_layout():
    grid = FlowMapGrid("individual", 1, 1, 1, np.zeros((1, 1, 1, 2)), None)
    blob = bytearray(flowmap_to_bytes(grid))
    blob[4] = 99  # version
    with pytest.raises(FlowmapFormatError, match="version"):
        flowmap_from_bytes(bytes(blob))
    blob = bytearray(flowmap_to_bytes(grid))
    blob[6] = 7  # layout byte
    with pytest.raises(FlowmapFormatError, match="layout"):
        flowmap_from_bytes(bytes(blob))


def test_flowmap_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = _random_grid(rng)
    path = tmp_path / "map.tmlf"
    write_flowmap(grid, str(path))
    back = read_flowmap(str(path))
    assert np.array_equal(back.vectors, grid.vectors)


@pytest.mark.parametrize("field, value", [
    ("limb_count", 2**16),
    ("limb_count", -1),
    ("width", 2**32),
    ("height", 2**32),
    ("grid_stride", 2**32),
    ("grid_stride", 0),
])
def test_write_rejects_a_header_field_out_of_range(tmp_path, field, value):
    # A 2**33-cell-wide map raised struct.error after write_flowmap had
    # created an empty file.
    geometry = dict(layout="individual", limb_count=2, width=4, height=3, grid_stride=1)
    geometry[field] = value
    empty = (np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0, np.int32))
    grid = FlowMapGrid.from_cells(cells=empty, **geometry)
    with pytest.raises(FlowmapFormatError, match=f"{field} {value} is outside"):
        flowmap_to_bytes(grid)
    path = tmp_path / "map.tmlf"
    with pytest.raises(FlowmapFormatError):
        write_flowmap(grid, str(path))
    assert not path.exists()


def test_write_takes_the_largest_header_fields():
    empty = (np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0, np.int32))
    grid = FlowMapGrid.from_cells("accumulated", 2**16 - 1, 2**32 - 1, 2**32 - 1, empty, 2**32 - 1)
    back = flowmap_from_bytes(flowmap_to_bytes(grid))
    assert (back.limb_count, back.width, back.height, back.grid_stride) == (
        2**16 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1,
    )


def test_write_rejects_shape_mismatch():
    with pytest.raises(FlowmapFormatError, match="shape"):
        FlowMapGrid("individual", 3, 4, 4, np.zeros((2, 4, 4, 2)), None)


def test_stride_round_trips():
    rng = np.random.default_rng(4)
    g = _random_grid(rng)
    grid = FlowMapGrid(g.layout, g.limb_count, g.width, g.height, g.vectors, None, grid_stride=2)
    back = flowmap_from_bytes(flowmap_to_bytes(grid))
    assert back.grid_stride == 2
    assert np.array_equal(back.vectors, grid.vectors)


def test_version_1_bytes_read_as_stride_1():
    rng = np.random.default_rng(5)
    vectors = rng.uniform(-1, 1, size=(3, 4, 5, 2)).astype(np.float32)
    blob = struct.pack("<4sHBHII", b"TMLF", 1, 0, 3, 5, 4) + np.ascontiguousarray(
        vectors.transpose(0, 3, 1, 2)
    ).tobytes()
    back = flowmap_from_bytes(blob)
    assert (back.layout, back.limb_count, back.width, back.height) == ("individual", 3, 5, 4)
    assert back.grid_stride == 1
    assert np.array_equal(back.vectors, vectors.astype(np.float64))


def test_zero_stride_and_cut_stride_field_rejected():
    rng = np.random.default_rng(6)
    blob = bytearray(flowmap_to_bytes(_random_grid(rng)))
    with pytest.raises(FlowmapFormatError, match="truncated"):
        flowmap_from_bytes(bytes(blob[:19]))
    blob[17:21] = bytes(4)
    with pytest.raises(FlowmapFormatError, match="stride"):
        flowmap_from_bytes(bytes(blob))


# ------------------------------------ sparse TMLF vs the dense oracle

# float64 values that stress the float32 cast: signed zeros, NaNs with
# payloads, infinities, float32 and float64 subnormals, overflow to inf.
NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FFC000020000000))[0]
SPECIAL_VALUES = [
    0.0, -0.0, float("nan"), -float("nan"), NAN_WITH_PAYLOAD, float("inf"), -float("inf"),
    1e-40, -1e-45, 1.4e-45, 5e-324, -5e-324, 3.5e38, -1e39, 1.0, -1.0, 1 / 3, 0.1,
]


def _assert_same_read_back(grid: FlowMapGrid) -> bytes:
    """The v3 dump of ``grid`` reads back as the dense v2 oracle does, with
    the grid's counts, and rewrites to the same bytes."""
    with np.errstate(over="ignore"):  # values beyond float32 range cast to inf
        blob = flowmap_to_bytes(grid)
        want = oracle_flowmap_from_bytes(oracle_flowmap_to_bytes(grid))
    got = flowmap_from_bytes(blob)
    assert (got.layout, got.limb_count, got.width, got.height, got.grid_stride) == (
        want.layout, want.limb_count, want.width, want.height, want.grid_stride
    )
    assert (got.vectors.shape, got.vectors.dtype) == (want.vectors.shape, want.vectors.dtype)
    assert got.vectors.flags.c_contiguous
    assert got.vectors.tobytes() == want.vectors.tobytes()
    if grid.counts is None:
        assert got.counts is None
    else:
        assert got.counts.dtype == np.int32
        assert np.array_equal(got.counts, grid.counts)
    assert flowmap_to_bytes(got) == blob
    return blob


@given(
    layout=st.sampled_from(["individual", "accumulated"]),
    limb_count=st.integers(0, 4),
    width=st.integers(0, 5),
    height=st.integers(0, 5),
    stride=st.integers(1, 4),
    dtype=st.sampled_from([np.float64, np.float32]),
    with_counts=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_tmlf_bytes_and_read_back_equal_the_oracle(
    layout, limb_count, width, height, stride, dtype, with_counts, data
):
    pairs = limb_count if layout == "individual" else 1
    n = pairs * height * width * 2
    values = data.draw(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(width=64)), min_size=n, max_size=n
        )
    )
    with np.errstate(over="ignore"):
        vectors = np.array(values, dtype=np.float64).astype(dtype).reshape(pairs, height, width, 2)
    counts = None
    if with_counts:
        # Counted cells keep whatever they hold, (0, 0) included; the rest
        # are +0.0, as the encoder leaves them.
        counts = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=n // 2, max_size=n // 2)), dtype=np.int32
        ).reshape(pairs, height, width)
        vectors[counts == 0] = 0.0
    _assert_same_read_back(FlowMapGrid(layout, limb_count, width, height, vectors, counts, stride))


def test_tmlf_special_values_one_cell_and_accumulated_layout():
    special = np.array(SPECIAL_VALUES[: len(SPECIAL_VALUES) // 2 * 2]).reshape(-1, 1, 1, 2)
    grids = [
        FlowMapGrid("individual", len(special), 1, 1, special, None),
        FlowMapGrid("individual", 1, 1, 1, np.array([[[[-0.0, float("nan")]]]]), None, 3),
        FlowMapGrid("accumulated", 14, 3, 2, np.resize(special, (1, 2, 3, 2)), None, 2),
        FlowMapGrid("individual", 1, 1, 2, np.array([[[[0.0, 0.0]], [[-0.0, 1e-50]]]]), None),
    ]
    for grid in grids:
        _assert_same_read_back(grid)
    back = flowmap_from_bytes(flowmap_to_bytes(grids[1]))
    assert np.signbit(back.vectors[0, 0, 0, 0]) and np.isnan(back.vectors[0, 0, 0, 1])
    # Without counts, a cell is stored iff its float32 vector has a bit set:
    # (-0.0, 1e-50) casts to (-0.0, 0.0) and is kept, (0.0, 0.0) is not.
    blob = flowmap_to_bytes(grids[3])
    assert struct.unpack_from("<BQQ", blob, 21) == (0, 1, 1)


@pytest.mark.parametrize("layout", ["individual", "accumulated"])
@pytest.mark.parametrize("stride", [1, 3])
def test_tmlf_encoded_grid_round_trips_with_its_counts(layout, stride):
    people = [stick_pose(40 + 50 * k, 60 + 10 * k, h=60.0) for k in range(3)]
    fe = frame(people, 0)
    fl = frame([translate_pose(p, 7.0, -4.0 + 3 * k) for k, p in enumerate(people)], 1)
    cfg = EncoderConfig(layout=layout, grid_stride=stride)
    grid = encode_limb_flow(fl, fe, [(0, 0), (1, 1), (2, 2), (0, 1)], TOPO, cfg)
    assert grid.counts.sum() > 0
    blob = _assert_same_read_back(grid)
    n = struct.unpack_from("<BQ", blob, 21)[1]
    assert n == np.count_nonzero(grid.counts)
    assert len(blob) == 30 + 20 * n


@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([(1, 1), (9, 6), (30, 20)]),
    stride=st.integers(1, 4),
    half_width=st.floats(0.5, 3.0),
    layout=st.sampled_from(["individual", "accumulated"]),
)
@settings(max_examples=150, deadline=None)
def test_tmlf_of_encoded_strokes_equals_the_plane_scan_and_the_oracle(
    seed, size, stride, half_width, layout
):
    strokes = random_strokes(np.random.default_rng(seed), size, stride, half_width, layout)
    grid = strokes.rasterize()
    blob = flowmap_to_bytes(grid)
    geometry = (grid.layout, grid.limb_count, grid.width, grid.height)
    dense = FlowMapGrid(*geometry, grid.vectors.copy(), grid.counts.copy(), stride)
    assert flowmap_to_bytes(dense) == blob
    assert flowmap_to_bytes(grid) == blob  # reading its planes left the grid as it was

    oracle = group_box_rasterize(strokes)
    back = flowmap_from_bytes(blob)
    assert back.vectors.tobytes() == oracle.vectors.astype(np.float32).astype(np.float64).tobytes()
    assert back.counts.tobytes() == oracle.counts.tobytes()

    # A grid built from the read-back's planes, edited, holds the edit.
    uncounted = np.argwhere(back.counts == 0)
    if len(uncounted):
        vectors = back.vectors
        vectors[tuple(uncounted[0])] = (0.0, 1.0)
        with pytest.raises(FlowmapFormatError, match="outside the counted cells"):
            FlowMapGrid(*geometry, vectors, back.counts, stride)


@given(
    version=st.sampled_from([1, 2]),
    layout=st.sampled_from(["individual", "accumulated"]),
    limb_count=st.integers(0, 4),
    width=st.integers(0, 5),
    height=st.integers(0, 5),
    stride=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_dense_version_1_and_2_bytes_still_read_unchanged(
    version, layout, limb_count, width, height, stride, data
):
    pairs = limb_count if layout == "individual" else 1
    n = pairs * height * width * 2
    values = data.draw(
        st.lists(st.floats(width=32, allow_nan=False), min_size=n, max_size=n)
    )
    vectors = np.array(values, dtype=np.float64).reshape(pairs, height, width, 2)
    blob = oracle_flowmap_to_bytes(FlowMapGrid(layout, limb_count, width, height, vectors, None, stride))
    if version == 1:  # no stride field
        blob = blob[:4] + struct.pack("<H", 1) + blob[6:17] + blob[21:]
        stride = 1
    got, want = flowmap_from_bytes(blob), oracle_flowmap_from_bytes(blob)
    assert (got.layout, got.limb_count, got.width, got.height, got.grid_stride, got.counts) == (
        want.layout, want.limb_count, want.width, want.height, stride, None
    )
    assert got.vectors.tobytes() == want.vectors.tobytes()


def test_write_rejects_a_vector_outside_the_counted_cells():
    grid = raw_strokes_grid(8, 8, 2, [(0, (1, 4), (6, 4), (1.0, 0.0))])
    flowmap_to_bytes(grid)
    geometry = (grid.layout, grid.limb_count, grid.width, grid.height)
    for value in (1e-300, -0.0, float("nan")):
        vectors = grid.vectors
        vectors[1, 0, 0, 1] = value
        with pytest.raises(FlowmapFormatError, match="outside the counted cells"):
            FlowMapGrid(*geometry, vectors, grid.counts)


def test_write_rejects_bad_counts():
    grid = raw_strokes_grid(8, 8, 2, [(0, (1, 4), (6, 4), (1.0, 0.0))])
    geometry = (grid.layout, grid.limb_count, grid.width, grid.height)
    with pytest.raises(FlowmapFormatError, match="counts shape"):
        FlowMapGrid(*geometry, grid.vectors, grid.counts[:1])
    for value in (-1, 2**31):
        counts = grid.counts.astype(np.int64)
        counts[0, 4, 3] = value
        with pytest.raises(FlowmapFormatError, match="contributor counts"):
            FlowMapGrid(*geometry, grid.vectors, counts)


def test_counts_survive_the_dump_so_accumulation_agrees():
    # Channel 0's two strokes cancel to (0, 0) with count 2; channel 1 holds
    # (0, 1). The mean over both contributing channels is (0, 0.5).
    grid = raw_strokes_grid(
        8, 8, 2,
        [
            (0, (1, 4), (6, 4), (1.0, 0.0)),
            (0, (1, 4), (6, 4), (-1.0, 0.0)),
            (1, (1, 4), (6, 4), (0.0, 1.0)),
        ],
    )
    encoded = accumulate_channels(grid)
    loaded = accumulate_channels(flowmap_from_bytes(flowmap_to_bytes(grid)))
    assert encoded.vectors[0, 4, 3].tolist() == [0.0, 0.5]
    assert encoded.counts[0, 4, 3] == 2
    assert np.array_equal(loaded.vectors, encoded.vectors)
    assert np.array_equal(loaded.counts, encoded.counts)


# ------------------------------------- one storage: the covered-cell table


def _assert_one_grid(grid: FlowMapGrid) -> None:
    """``grid`` and the grid rebuilt from its own planes agree in every view,
    and their accumulation equals the dense oracle's bit for bit."""
    geometry = (grid.layout, grid.limb_count, grid.width, grid.height)
    vectors, counts = grid.vectors, grid.counts
    rebuilt = FlowMapGrid(*geometry, vectors, counts, grid.grid_stride)
    (keys, table, table_counts), (keys_again, table_again, counts_again) = grid.cells, rebuilt.cells
    assert keys.tolist() == keys_again.tolist()
    assert table.astype(np.float64).tobytes() == table_again.tobytes()
    if counts is None:
        assert table_counts is None and counts_again is None
    else:
        assert table_counts.tolist() == counts_again.tolist() == counts.reshape(-1)[keys].tolist()
        assert rebuilt.counts.tobytes() == counts.tobytes()
    assert rebuilt.vectors.tobytes() == vectors.tobytes()
    assert flowmap_to_bytes(rebuilt) == flowmap_to_bytes(grid)
    every_cell = np.arange(vectors.size // 2)
    assert grid.values_at(every_cell).tobytes() == rebuilt.values_at(every_cell).tobytes() == vectors.tobytes()
    if grid.layout == "individual":
        oracle = dense_accumulate_channels(grid)
        for acc in (accumulate_channels(grid), accumulate_channels(rebuilt)):
            assert acc.vectors.tobytes() == oracle.vectors.tobytes()
            assert acc.counts.tobytes() == oracle.counts.tobytes()
            assert flowmap_to_bytes(acc) == flowmap_to_bytes(oracle)


@given(
    strokes=st.booleans(),
    layout=st.sampled_from(["individual", "accumulated"]),
    stride=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    limb_count=st.integers(0, 6),
    width=st.integers(0, 5),
    height=st.integers(0, 5),
    dtype=st.sampled_from([np.float64, np.float32]),
    with_counts=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_a_grid_is_its_table_in_every_view_and_accumulates_as_the_dense_oracle(
    strokes, layout, stride, seed, limb_count, width, height, dtype, with_counts, data
):
    if strokes:
        drawn = random_strokes(np.random.default_rng(seed), (30, 20), stride, 1.5, layout)
        grid = drawn.rasterize()
        if layout == "accumulated":  # the encoder's accumulation is the oracle's too
            oracle = dense_accumulate_channels(replace(drawn, layout="individual").rasterize())
            assert grid.vectors.tobytes() == oracle.vectors.tobytes()
            assert grid.counts.tobytes() == oracle.counts.tobytes()
    else:
        # Signed zeros, NaN payloads, float32 subnormals and values that
        # underflow or overflow in float32, with and without counts.
        pairs = limb_count if layout == "individual" else 1
        n = pairs * height * width
        value = st.one_of(st.sampled_from(SPECIAL_VALUES + [0.0] * 6), st.floats(width=64))
        values = data.draw(st.lists(value, min_size=2 * n, max_size=2 * n))
        with np.errstate(over="ignore"):
            vectors = np.array(values).astype(dtype).reshape(pairs, height, width, 2)
        counts = None
        if with_counts:
            counts = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            counts = np.array(counts, dtype=np.int32).reshape(pairs, height, width)
            vectors[counts == 0] = 0.0
        grid = FlowMapGrid(layout, limb_count, width, height, vectors, counts, stride)
        assert grid.vectors.tobytes() == vectors.astype(np.float64).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_one_grid(grid)


def test_a_float32_grid_keeps_every_bit_of_its_planes():
    # A signalling NaN would turn quiet in a float64 plane; the table keeps
    # the float32 planes as they are, and so does the dump.
    snan = np.array([0x7F800001, 0xFFA00000], dtype=np.uint32).view(np.float32)
    grid = FlowMapGrid("individual", 1, 2, 1, np.array([[[snan, [0.0, 0.0]]]], dtype=np.float32), None)
    keys, table, _ = grid.cells
    assert keys.tolist() == [0] and table.dtype == np.float32
    back = flowmap_from_bytes(flowmap_to_bytes(grid))
    for stored in (table, back.cells[1]):
        assert stored.view(np.uint32).tolist() == [[0x7F800001, 0xFFA00000]]


# ----------------------------------------------- malformed version 3 input


def _v3_blob(keys, vectors, counts=None, pairs=2, height=3, width=4, flag=None) -> bytes:
    """Version 3 bytes of an individual grid, built field by field."""
    n = len(keys)
    flag = int(counts is not None) if flag is None else flag
    blob = struct.pack("<4sHBHIIIBQ", b"TMLF", 3, 0, pairs, width, height, 1, flag, n)
    blob += np.asarray(keys, dtype="<u8").tobytes()
    blob += np.asarray(vectors, dtype="<f4").reshape(n, 2).tobytes()
    if counts is not None:
        blob += np.asarray(counts, dtype="<u4").tobytes()
    return blob


def test_v3_well_formed_blob_reads():
    back = flowmap_from_bytes(_v3_blob([0, 5, 23], [[1, 0], [0, 0], [0, -1]], [1, 2, 3]))
    assert back.vectors[0, 1, 1].tolist() == [0.0, 0.0]
    assert back.counts[0, 1, 1] == 2
    assert back.vectors[1, 2, 3].tolist() == [0.0, -1.0]
    assert back.counts.sum() == 6


def test_v3_unsorted_keys_rejected():
    with pytest.raises(FlowmapFormatError, match="ascend strictly"):
        flowmap_from_bytes(_v3_blob([5, 0], [[1, 0], [0, 1]], [1, 1]))


def test_v3_repeated_keys_rejected():
    with pytest.raises(FlowmapFormatError, match="ascend strictly"):
        flowmap_from_bytes(_v3_blob([5, 5], [[1, 0], [0, 1]], [1, 1]))


def test_v3_key_outside_the_grid_rejected():
    flowmap_from_bytes(_v3_blob([23], [[1, 0]], [1]))  # the last slot of 2 * 3 * 4
    with pytest.raises(FlowmapFormatError, match=r"ascend strictly within \[0, 24\)"):
        flowmap_from_bytes(_v3_blob([24], [[1, 0]], [1]))


def test_v3_zero_count_rejected():
    with pytest.raises(FlowmapFormatError, match="contributor counts"):
        flowmap_from_bytes(_v3_blob([1, 2], [[1, 0], [0, 1]], [1, 0]))


def test_v3_count_above_int32_rejected():
    flowmap_from_bytes(_v3_blob([1], [[1, 0]], [2**31 - 1]))
    with pytest.raises(FlowmapFormatError, match="contributor counts"):
        flowmap_from_bytes(_v3_blob([1], [[1, 0]], [2**31]))


def test_v3_bad_counts_flag_rejected():
    with pytest.raises(FlowmapFormatError, match="has_counts"):
        flowmap_from_bytes(_v3_blob([1], [[1, 0]], [1], flag=2))


def test_v3_length_must_match_the_cell_count():
    blob = _v3_blob([1, 2], [[1, 0], [0, 1]], [1, 1])
    for bad in (blob[:-1], blob + b"\x00", blob[:-4]):
        with pytest.raises(FlowmapFormatError, match="payload"):
            flowmap_from_bytes(bad)
    huge = blob[:22] + struct.pack("<Q", 2**63) + blob[30:]
    with pytest.raises(FlowmapFormatError, match="payload"):
        flowmap_from_bytes(huge)


def test_v3_cut_header_rejected():
    blob = _v3_blob([], [])
    assert not flowmap_from_bytes(blob).vectors.any()
    for cut in range(len(blob)):
        with pytest.raises(FlowmapFormatError, match="truncated"):
            flowmap_from_bytes(blob[:cut])


def test_v3_listed_cell_without_counts_needs_a_set_bit():
    # The writer lists such a cell only if its float32 vector has a bit set,
    # so a file listing (0, 0) would rewrite to other bytes once read.
    flowmap_from_bytes(_v3_blob([1], [[-0.0, 0.0]]))
    with pytest.raises(FlowmapFormatError, match="bit set"):
        flowmap_from_bytes(_v3_blob([1, 2], [[1, 0], [0, 0]]))


@pytest.mark.parametrize("pairs, side", [(14, 2**20), (65535, 2**32 - 1)])
def test_v3_declared_grid_reads_without_allocating_it(pairs, side):
    # 30 bytes that list no cell but declare a grid beyond any address space
    # (224 TiB of vectors), or beyond what numpy can index. The read-back
    # allocates only what the file holds; only its planes cannot be built.
    blob = _v3_blob([], [], pairs=pairs, height=side, width=side)
    assert len(blob) == 30
    assert traced_peak(flowmap_from_bytes, blob) < 2**20
    back = flowmap_from_bytes(blob)
    assert (back.layout, back.limb_count, back.width, back.height, back.grid_stride) == (
        "individual", pairs, side, side, 1
    )
    assert (back.channel_pairs, len(back.cells[0]), back.counts) == (pairs, 0, None)
    declared = f"cannot allocate the declared grid of {pairs} x {side} x {side} cells"
    with pytest.raises(FlowmapFormatError, match=declared):
        back.vectors
    assert flowmap_to_bytes(back) == blob


# ------------------------------------------------------------ memory


def _payload_grid() -> FlowMapGrid:
    rng = np.random.default_rng(12)
    return FlowMapGrid("individual", 14, 128, 96, rng.uniform(-1, 1, (14, 96, 128, 2)), None)


def test_tmlf_write_peak_stays_near_the_payload():
    # An encoded 640x480 grid: the writer allocates per covered cell, never
    # per grid slot (the grid here is ~400 times the payload).
    people = [stick_pose(80 + 110 * k, 150 + 40 * (k % 2), h=120.0) for k in range(5)]
    fe = frame(people, 0, (640, 480))
    fl = frame([translate_pose(p, 9.0, -6.0) for p in people], 1, (640, 480))
    grid = encode_limb_flow(fl, fe, [(k, k) for k in range(5)], TOPO, EncoderConfig())
    payload = len(flowmap_to_bytes(grid)) - 30
    assert payload == 20 * np.count_nonzero(grid.counts)
    assert traced_peak(flowmap_to_bytes, grid) < 3 * payload


def _encoded_640x480_grid() -> FlowMapGrid:
    people = [stick_pose(80 + 110 * k, 150 + 40 * (k % 2), h=120.0) for k in range(5)]
    fe = frame(people, 0, (640, 480))
    fl = frame([translate_pose(p, 9.0, -6.0) for p in people], 1, (640, 480))
    return encode_limb_flow(fl, fe, [(k, k) for k in range(5)], TOPO, EncoderConfig())


def test_accumulate_channels_builds_no_grid_sized_plane():
    grid = _encoded_640x480_grid()
    one_plane = grid.width * grid.height * 16  # one channel's float64 vectors
    assert len(grid.cells[0]) > 10_000
    assert traced_peak(accumulate_channels, grid) < one_plane / 2


def test_values_at_on_a_read_back_builds_no_grid_sized_plane():
    back = flowmap_from_bytes(flowmap_to_bytes(_encoded_640x480_grid()))
    one_plane = back.width * back.height * 16
    plane = back.width * back.height
    for c in range(back.channel_pairs):
        assert traced_peak(back.values_at, np.arange(c * plane, (c + 1) * plane, 97)) < one_plane / 8


def test_dense_version_2_read_peak_stays_near_the_file_size():
    # The version 2 reader scans the file's float32 planes in place into
    # the table, one component at a time; a copy of the planes would take
    # the file's size again.
    data = oracle_flowmap_to_bytes(_encoded_640x480_grid())
    back = flowmap_from_bytes(data)
    assert back.vectors.tobytes() == oracle_flowmap_from_bytes(data).vectors.tobytes()
    assert traced_peak(flowmap_from_bytes, data) < 0.5 * len(data)


def test_tmlf_read_peak_stays_near_the_payload():
    # Even when every cell is stored, reading stays within 1.1 times the
    # grid, the bound of the dense version 2 (the read-back's table is a
    # view into the bytes).
    grid = _payload_grid()
    data = flowmap_to_bytes(grid)
    assert len(data) == 30 + 16 * grid.vectors.size // 2
    assert traced_peak(flowmap_from_bytes, data) < 1.1 * grid.vectors.nbytes
