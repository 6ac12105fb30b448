import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbflow.encoder import FlowMapGrid
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

from helpers import TOPO, frame, oracle_flowmap_from_bytes, oracle_flowmap_to_bytes, stick_pose

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
    assert len(blob) == 21
    assert blob[:4] == b"TMLF"
    back = flowmap_from_bytes(blob)
    assert back.limb_count == 14


def test_header_layout_byte():
    rng = np.random.default_rng(1)
    acc = _random_grid(rng, "accumulated")
    blob = flowmap_to_bytes(acc)
    magic, version, layout_byte, limb_count, w, h, stride = struct.unpack_from("<4sHBHIII", blob)
    assert magic == b"TMLF"
    assert version == 2
    assert layout_byte == 1
    assert stride == 1


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


def test_write_rejects_shape_mismatch():
    grid = FlowMapGrid("individual", 3, 4, 4, np.zeros((2, 4, 4, 2)), None)
    with pytest.raises(FlowmapFormatError, match="shape"):
        flowmap_to_bytes(grid)


def test_stride_round_trips():
    rng = np.random.default_rng(4)
    grid = replace(_random_grid(rng), grid_stride=2)
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


# ------------------------------------------- one-pass TMLF vs the oracle

# float64 values that stress the float32 cast: signed zeros, NaNs with
# payloads, infinities, float32 and float64 subnormals, overflow to inf.
NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FFC000020000000))[0]
SPECIAL_VALUES = [
    0.0, -0.0, float("nan"), -float("nan"), NAN_WITH_PAYLOAD, float("inf"), -float("inf"),
    1e-40, -1e-45, 1.4e-45, 5e-324, -5e-324, 3.5e38, -1e39, 1.0, -1.0, 1 / 3, 0.1,
]


def _assert_same_read_back(data: bytes) -> None:
    got, want = flowmap_from_bytes(data), oracle_flowmap_from_bytes(data)
    assert (got.layout, got.limb_count, got.width, got.height, got.grid_stride, got.counts) == (
        want.layout, want.limb_count, want.width, want.height, want.grid_stride, want.counts
    )
    assert (got.vectors.shape, got.vectors.dtype) == (want.vectors.shape, want.vectors.dtype)
    assert got.vectors.flags.c_contiguous
    assert got.vectors.tobytes() == want.vectors.tobytes()


@given(
    layout=st.sampled_from(["individual", "accumulated"]),
    limb_count=st.integers(0, 4),
    width=st.integers(0, 5),
    height=st.integers(0, 5),
    stride=st.integers(1, 4),
    dtype=st.sampled_from([np.float64, np.float32]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_tmlf_bytes_and_read_back_equal_the_oracle(layout, limb_count, width, height, stride, dtype, data):
    pairs = limb_count if layout == "individual" else 1
    n = pairs * height * width * 2
    values = data.draw(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(width=64)), min_size=n, max_size=n
        )
    )
    with np.errstate(over="ignore"):  # values beyond float32 range cast to inf
        vectors = np.array(values, dtype=np.float64).astype(dtype).reshape(pairs, height, width, 2)
        grid = FlowMapGrid(layout, limb_count, width, height, vectors, None, stride)
        blob = flowmap_to_bytes(grid)
        assert blob == oracle_flowmap_to_bytes(grid)
    _assert_same_read_back(blob)


def test_tmlf_special_values_one_cell_and_accumulated_layout():
    special = np.array(SPECIAL_VALUES[: len(SPECIAL_VALUES) // 2 * 2]).reshape(-1, 1, 1, 2)
    grids = [
        FlowMapGrid("individual", len(special), 1, 1, special, None),
        FlowMapGrid("individual", 1, 1, 1, np.array([[[[-0.0, float("nan")]]]]), None, 3),
        FlowMapGrid("accumulated", 14, 3, 2, np.resize(special, (1, 2, 3, 2)), None, 2),
    ]
    for grid in grids:
        with np.errstate(over="ignore"):
            blob = flowmap_to_bytes(grid)
            assert blob == oracle_flowmap_to_bytes(grid)
        _assert_same_read_back(blob)
    back = flowmap_from_bytes(flowmap_to_bytes(grids[1]))
    assert np.signbit(back.vectors[0, 0, 0, 0]) and np.isnan(back.vectors[0, 0, 0, 1])


def _payload_grid() -> FlowMapGrid:
    rng = np.random.default_rng(12)
    return FlowMapGrid("individual", 14, 128, 96, rng.uniform(-1, 1, (14, 96, 128, 2)), None)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tmlf_write_peak_stays_near_the_payload():
    # One float32 plane array plus the result; no further copies.
    grid = _payload_grid()
    payload = grid.vectors.size * 4
    assert _traced_peak(flowmap_to_bytes, grid) < 2.2 * payload


def test_tmlf_read_peak_stays_near_the_payload():
    # The float64 grid (twice the payload) filled straight from the bytes.
    data = flowmap_to_bytes(_payload_grid())
    payload = len(data) - 21
    assert _traced_peak(flowmap_from_bytes, data) < 2.2 * payload
