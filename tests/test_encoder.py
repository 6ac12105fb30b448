import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limbflow import encoder
from limbflow.encoder import (
    EncoderConfig,
    FlowMapGrid,
    LimbStrokes,
    accumulate_channels,
    encode_joint_flow,
    encode_limb_flow,
    grid_shape_for,
    limb_parts,
    limb_strokes,
    subdivide_limb,
)
from limbflow.pose import FramePoses, JointCandidate, Pose
from limbflow.skeleton import SkeletonTopology
from limbflow.synth import SceneConfig, apply_corruption, generate_sequence
from limbflow.tracker import _reference_pairing

from helpers import (
    TOPO,
    brute_encode,
    elementwise_covers,
    frame,
    group_box_rasterize,
    random_strokes,
    raw_strokes_grid,
    stick_pose,
    traced_peak,
    translate_pose,
)
from test_acceptance import _random_pose_pair

CFG = EncoderConfig()


# ------------------------------------------------------------ subdivide

def test_subdivide_two_parts():
    pts = subdivide_limb((0, 0), (0, 4), 2)
    assert pts.tolist() == [[0, 1], [0, 3]]


def test_subdivide_single_part_is_midpoint():
    assert subdivide_limb((0, 0), (6, 0), 1).tolist() == [[3, 0]]


def test_subdivide_twenty_parts_closed_form():
    pts = subdivide_limb((0, 0), (0, 20), 20)
    expected = [0.5 + i for i in range(20)]
    assert pts[:, 1].tolist() == expected
    assert np.all(pts[:, 0] == 0)


def test_subdivide_rejects_zero_parts():
    with pytest.raises(ValueError):
        subdivide_limb((0, 0), (1, 1), 0)


# ------------------------------------------------------------ motion epsilon

def _column_pair(dx, dy):
    """One person whose joints stand 8 px apart on column x = 0, then move
    (dx, dy). With 4 parts per limb every anchor offset is a whole number,
    so each part moves by exactly (dx, dy)."""
    earlier = Pose(tuple(JointCandidate(0.0, 8.0 * j) for j in range(TOPO.joint_count)))
    later = translate_pose(earlier, dx, dy)
    return frame([later], 1, (20, 130)), frame([earlier], 0, (20, 130))


@pytest.mark.parametrize("move", [1e-7, encoder.MOTION_EPSILON])
def test_a_part_within_the_motion_epsilon_draws_nothing(move):
    fl, fe = _column_pair(move, 0.0)
    cfg = EncoderConfig(parts_per_limb=4)
    assert len(limb_strokes(fl, fe, [(0, 0)], TOPO, cfg).later) == 0
    assert len(encode_limb_flow(fl, fe, [(0, 0)], TOPO, cfg).cells[0]) == 0
    # Just past the constant, every part draws.
    fl, fe = _column_pair(float(np.nextafter(encoder.MOTION_EPSILON, 1.0)), 0.0)
    assert len(limb_strokes(fl, fe, [(0, 0)], TOPO, cfg).later) == TOPO.limb_count * 4


def test_a_3_4_move_draws_0_6_0_8():
    fl, fe = _column_pair(3.0, 4.0)
    cfg = EncoderConfig(parts_per_limb=4)
    strokes = limb_strokes(fl, fe, [(0, 0)], TOPO, cfg)
    assert len(strokes.vectors) == TOPO.limb_count * 4
    assert np.all(strokes.vectors == [0.6, 0.8])
    _, means, _ = encode_limb_flow(fl, fe, [(0, 0)], TOPO, cfg).cells
    assert len(means) and np.allclose(means, [0.6, 0.8], rtol=0, atol=1e-12)


# ------------------------------------------------------------ rasterize

def _one_stroke(later, earlier, vector, half_width):
    return raw_strokes_grid(20, 12, 1, [(0, later, earlier, vector)], half_width)


def test_rasterize_horizontal_segment():
    # cells strictly closer than 1 px to the segment (1,5)-(8,5): exactly
    # (x, 5) for 1 <= x <= 8; verified against the full-grid oracle below.
    grid = _one_stroke((8, 5), (1, 5), (1.0, 0.0), 1.0)
    hit = set(zip(*np.nonzero(grid.counts[0])))
    assert hit == {(5, x) for x in range(1, 9)}
    assert np.all(grid.vectors[0, 5, 1:9] == [1.0, 0.0])


def test_rasterize_zero_length_segment():
    grid = _one_stroke((6, 6), (6, 6), (0.0, 1.0), 1.5)
    hit = set(zip(*np.nonzero(grid.counts[0])))
    for (y, x) in hit:
        assert math.hypot(x - 6, y - 6) < 1.5
    assert (6, 6) in hit


def test_rasterize_outside_grid_is_noop():
    grid = _one_stroke((100, 100), (120, 100), (1.0, 0.0), 2.0)
    assert grid.counts.sum() == 0
    assert np.all(grid.vectors == 0)


def test_rasterize_clips_partially_outside():
    grid = _one_stroke((30, 5), (-5, 5), (1.0, 0.0), 1.0)
    assert grid.counts[0, 5, 0] == 1
    assert grid.counts[0, 5, 19] == 1


# ------------------------------------------------------------ encode

def _pair_frames(dx=6.0, dy=0.0, size=(200, 160)):
    earlier = stick_pose(90, 70)
    later = translate_pose(earlier, dx, dy)
    return frame([later], 1, size), frame([earlier], 0, size)


def test_encode_matches_brute_force():
    fl, fe = _pair_frames(7.0, -3.0)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
    vectors, counts = brute_encode(fl, fe, [(0, 0)], TOPO, CFG)
    assert np.array_equal(grid.counts, counts)
    assert np.abs(grid.vectors.astype(np.float64) - vectors).max() < 1e-6


def test_encode_opposite_motion_cancels():
    # person A sweeps base -> base+5 while person B sweeps base+5 -> base:
    # identical stroke cells, opposite unit vectors, so every painted cell
    # averages to exactly zero
    base = stick_pose(90, 70)
    ahead = translate_pose(base, 5, 0)
    fl = frame([ahead, base], 1)
    fe = frame([base, ahead], 0)
    grid = encode_limb_flow(fl, fe, [(0, 0), (1, 1)], TOPO, CFG)
    assert grid.counts.sum() > 0
    assert np.all(grid.vectors == 0)


def test_encode_identical_frames_all_zero():
    fl, fe = _pair_frames(0.0, 0.0)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
    assert np.all(grid.vectors == 0)
    assert grid.counts.sum() == 0


def test_encode_empty_pairing_zero_grid():
    fl, fe = _pair_frames()
    grid = encode_limb_flow(fl, fe, [], TOPO, CFG)
    assert np.all(grid.vectors == 0)


def test_encode_rejects_bad_pairing():
    fl, fe = _pair_frames()
    with pytest.raises(ValueError):
        encode_limb_flow(fl, fe, [(0, 5)], TOPO, CFG)


@pytest.mark.parametrize("layout, size", [
    ("individual", (2**31, 2**31)),  # 14 * 2**62 slots: the int64 keys wrapped
    ("individual", (2**40, 2**30)),
    ("accumulated", (2**32, 2**32)),  # one channel of 2**64 slots
])
def test_strokes_reject_a_flow_map_beyond_int64_keys(layout, size):
    fl, fe = _pair_frames(size=size)
    with pytest.raises(ValueError, match="int64 keys"):
        limb_strokes(fl, fe, [(0, 0)], TOPO, EncoderConfig(layout=layout))


def test_strokes_take_a_flow_map_of_2_to_the_63_minus_1_slots():
    accumulated = EncoderConfig(layout="accumulated")
    width, height = 153092023, 60247241209  # width * height == 2**63 - 1
    fl, fe = _pair_frames(size=(width, height))
    assert len(limb_strokes(fl, fe, [(0, 0)], TOPO, accumulated).later) > 0
    fl, fe = _pair_frames(size=(width, height + 1))
    with pytest.raises(ValueError, match="int64 keys"):
        limb_strokes(fl, fe, [(0, 0)], TOPO, accumulated)


def test_encode_norm_bound_and_count_one_exact():
    rng = np.random.default_rng(7)
    for _ in range(10):
        base = stick_pose(float(rng.uniform(60, 140)), float(rng.uniform(50, 100)))
        moved = translate_pose(base, float(rng.uniform(-9, 9)), float(rng.uniform(-9, 9)))
        fl, fe = frame([moved], 1), frame([base], 0)
        grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
        norms = np.sqrt((grid.vectors.astype(np.float64) ** 2).sum(-1))
        assert norms.max() <= 1 + 1e-9
        single = grid.counts == 1
        if single.any():
            assert norms[single].min() > 1 - 1e-6  # unit vectors, stored exactly


def test_encode_flip_antisymmetry():
    fl, fe = _pair_frames(6.0, 2.0)
    fwd = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
    bwd = encode_limb_flow(fe, fl, [(0, 0)], TOPO, CFG)
    assert np.array_equal(fwd.vectors, -bwd.vectors)
    assert np.array_equal(fwd.counts, bwd.counts)


def test_encode_translation_equivariance():
    fl, fe = _pair_frames(6.0, 2.0)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
    dx, dy = 13, 9
    fl2 = frame([translate_pose(fl.poses[0], dx, dy)], 1)
    fe2 = frame([translate_pose(fe.poses[0], dx, dy)], 0)
    grid2 = encode_limb_flow(fl2, fe2, [(0, 0)], TOPO, CFG)
    h, w = grid.vectors.shape[1:3]
    # support translates exactly; values only to fp precision because the
    # displacement is re-derived from translated endpoints
    assert np.array_equal(
        grid.counts[:, : h - dy, : w - dx], grid2.counts[:, dy:, dx:]
    )
    assert np.abs(
        grid.vectors[:, : h - dy, : w - dx] - grid2.vectors[:, dy:, dx:]
    ).max() < 1e-12


def test_encode_stride_consistency():
    # depends only on the two frames passed, regardless of their context
    fl, fe = _pair_frames(5.0, 1.0)
    a = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
    fl_copy = frame(list(fl.poses), 7, fl.image_size)
    fe_copy = frame(list(fe.poses), 3, fe.image_size)
    b = encode_limb_flow(fl_copy, fe_copy, [(0, 0)], TOPO, CFG)
    assert np.array_equal(a.vectors, b.vectors)


def test_encode_support_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        base = stick_pose(float(rng.uniform(60, 130)), float(rng.uniform(50, 100)))
        moved = translate_pose(base, float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        fl, fe = frame([moved], 1), frame([base], 0)
        grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
        _, counts = brute_encode(fl, fe, [(0, 0)], TOPO, CFG)
        assert np.array_equal(grid.counts > 0, counts > 0)


def test_grid_stride_downsamples():
    fl, fe = _pair_frames(6.0, 0.0, size=(200, 160))
    cfg = EncoderConfig(grid_stride=4)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, cfg)
    assert (grid.width, grid.height) == (50, 40)
    assert grid_shape_for((201, 160), 4) == (51, 40)


def _limb_0_pose(a, b) -> Pose:
    """A pose with only limb 0's joints (head top and nose), at a and b."""
    joints = [None] * TOPO.joint_count
    joints[0], joints[1] = JointCandidate(*a), JointCandidate(*b)
    return Pose(tuple(joints))


def test_a_cell_adds_its_strokes_in_stroke_order():
    # Cell (0, 15) of channel 0 is covered first by person 0's part 0,
    # moving (1, 0), then by both parts of person 1, each moving
    # (1e-15, 10) from x = 0: hypot is exactly 10, so each adds an x of
    # about 1e-16. In stroke order 1 + 1e-16 + 1e-16 rounds to 1; adding
    # person 1's strokes first would give 1 + 2e-16, one ulp above 1.
    earlier = [_limb_0_pose((-10.0, 15.0), (30.0, 15.0)), _limb_0_pose((0.0, 10.0), (0.0, 14.0))]
    later = [
        _limb_0_pose((-9.0, 15.0), (31.0, 15.0)),
        _limb_0_pose((1e-15, 20.0), (1e-15, 24.0)),
    ]
    fl, fe = frame(later, 1, (40, 40)), frame(earlier, 0, (40, 40))
    cfg = EncoderConfig(parts_per_limb=2)
    grid = encode_limb_flow(fl, fe, [(0, 0), (1, 1)], TOPO, cfg)
    vectors, counts = brute_encode(fl, fe, [(0, 0), (1, 1)], TOPO, cfg)
    assert grid.counts[0, 15, 0] == 3
    assert grid.vectors[0, 15, 0, 0] == 1.0 / 3.0
    assert np.array_equal(grid.counts, counts)
    assert grid.vectors.tobytes() == vectors.tobytes()


def test_encode_equals_brute_force_bit_for_bit_on_criterion_1_pairs():
    # Criterion 1's 200 seeded pairs and configs. The encoder and the oracle
    # share one length rule, np.hypot; with math.hypot in the oracle, 8 of
    # the 200 grids differed in low bits.
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        fl, fe, pairing = _random_pose_pair(rng)
        cfg = EncoderConfig(stroke_half_width=float(rng.uniform(0.8, 2.5)))
        grid = encode_limb_flow(fl, fe, pairing, TOPO, cfg)
        vectors, counts = brute_encode(fl, fe, pairing, TOPO, cfg)
        assert np.array_equal(grid.counts, counts), seed
        assert np.array_equal(grid.vectors, vectors), seed


def _loop_group_means(key, vectors):
    """``_group_means`` by a Python loop over the rows in array order."""
    sums, counts = {}, {}
    for k, (x, y) in zip(key.tolist(), vectors.tolist()):
        sx, sy = sums.get(k, (0.0, 0.0))
        sums[k] = (sx + x, sy + y)
        counts[k] = counts.get(k, 0) + 1
    keys = sorted(sums)
    means = [(sums[k][0] / counts[k], sums[k][1] / counts[k]) for k in keys]
    return keys, np.array(means, dtype=np.float64).reshape(-1, 2), [counts[k] for k in keys]


_component = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


@given(rows=st.lists(st.tuples(st.integers(0, 6), _component, _component), max_size=40))
@example(rows=[])
@example(rows=[(3, 1.0, 2.0), (3, 1e-16, -0.5), (3, 1e-16, 0.25)])  # all keys equal
@example(rows=[(0, -0.0, -0.0), (1, -0.0, 0.0), (1, -0.0, -0.0), (0, 0.0, -0.0)])
@settings(max_examples=200, deadline=None)
def test_group_means_equal_a_per_key_loop_bit_for_bit(rows):
    key = np.array([r[0] for r in rows], dtype=np.int64)
    vectors = np.array([r[1:] for r in rows], dtype=np.float64).reshape(-1, 2)
    got_keys, got_means, got_counts = encoder._group_means(key, vectors)
    keys, means, counts = _loop_group_means(key, vectors)
    assert got_keys.dtype == np.int64 and got_keys.tolist() == keys
    assert got_means.tobytes() == means.tobytes()  # -0.0 and +0.0 differ here
    assert got_counts.dtype == np.int32 and got_counts.tolist() == counts


# ----------------------------------------- dense path vs group-box oracle


def _same_grid(grid: FlowMapGrid, oracle: FlowMapGrid) -> None:
    """Equal layout, shape, dtype and bytes of vectors and counts."""
    assert (grid.layout, grid.limb_count, grid.width, grid.height, grid.grid_stride) == (
        oracle.layout, oracle.limb_count, oracle.width, oracle.height, oracle.grid_stride
    )
    for got, want in ((grid.vectors, oracle.vectors), (grid.counts, oracle.counts)):
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def _scattered_pose(rng, size) -> Pose:
    """Joints over, across and well beyond the image, so limbs lie inside,
    partly off or wholly off the grid; some missing or invisible."""
    w, h = size
    joints = []
    for _ in range(TOPO.joint_count):
        r = rng.random()
        if r < 0.1:
            joints.append(None)
            continue
        spread = 3.0 if r < 0.25 else 0.6
        x = rng.uniform(-spread * w, (1 + spread) * w) if r < 0.25 else rng.uniform(-4, w + 4)
        y = rng.uniform(-spread * h, (1 + spread) * h) if r < 0.25 else rng.uniform(-4, h + 4)
        if r < 0.5:
            x, y = round(x * 4) / 4, round(y * 4) / 4
        joints.append(JointCandidate(float(x), float(y), visible=bool(rng.random() > 0.05)))
    return Pose(joints=tuple(joints))


def _moved_pose(rng, pose: Pose, static_share: float) -> Pose:
    joints = []
    for c in pose.joints:
        if c is None or rng.random() < static_share:
            joints.append(c)
        else:
            joints.append(replace(c, x=c.x + float(rng.normal(0, 4)), y=c.y + float(rng.normal(0, 4))))
    return Pose(joints=tuple(joints))


@given(
    seed=st.integers(0, 10_000),
    enc=st.builds(
        EncoderConfig,
        parts_per_limb=st.integers(1, 6),
        stroke_half_width=st.floats(0.5, 3.0),
        layout=st.sampled_from(["individual", "accumulated"]),
        grid_stride=st.integers(1, 4),
    ),
    static_share=st.sampled_from([0.0, 0.5, 1.0]),
    size=st.sampled_from([(1, 1), (7, 5), (40, 30), (64, 48)]),
)
@settings(max_examples=150, deadline=None)
def test_encode_equals_group_box_oracle_and_brute_force(seed, enc, static_share, size):
    rng = np.random.default_rng(seed)
    earlier = [_scattered_pose(rng, size) for _ in range(int(rng.integers(0, 6)))]
    later = [_moved_pose(rng, p, static_share) for p in earlier]
    fl, fe = frame(later, 1, size), frame(earlier, 0, size)
    # Any subset of the people, the empty pairing included, in any order.
    pairing = [(i, i) for i in rng.permutation(len(earlier)) if rng.random() < 0.8]

    grid = encode_limb_flow(fl, fe, pairing, TOPO, enc)
    _same_grid(grid, group_box_rasterize(limb_strokes(fl, fe, pairing, TOPO, enc)))

    vectors, counts = brute_encode(fl, fe, pairing, TOPO, enc)
    brute = FlowMapGrid("individual", TOPO.limb_count, grid.width, grid.height, vectors, counts)
    if enc.layout == "accumulated":
        brute = accumulate_channels(brute)
    assert np.array_equal(grid.counts, brute.counts)
    assert np.abs(grid.vectors - brute.vectors).max(initial=0.0) < 1e-6


@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([(1, 1), (9, 6), (30, 20)]),
    stride=st.integers(1, 4),
    half_width=st.floats(0.5, 3.0),
    layout=st.sampled_from(["individual", "accumulated"]),
)
@settings(max_examples=150, deadline=None)
def test_rasterize_equals_group_box_oracle_on_raw_strokes(seed, size, stride, half_width, layout):
    strokes = random_strokes(np.random.default_rng(seed), size, stride, half_width, layout)
    _same_grid(strokes.rasterize(), group_box_rasterize(strokes))


@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([(1, 1), (9, 6), (30, 20)]),
    stride=st.integers(1, 4),
    half_width=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    layout=st.sampled_from(["individual", "accumulated"]),
)
@settings(max_examples=150, deadline=None)
def test_stroke_boxes_keep_cells_on_the_capsule_edge(seed, size, stride, half_width, layout):
    # Endpoints on cell centers and half widths of whole or half cells, so
    # capsule edges pass exactly through cell centers: each stroke's box
    # must still hold every cell it covers. Horizontal, vertical, diagonal
    # and zero-length strokes, some partly or wholly off the grid.
    rng = np.random.default_rng(seed)
    width, height = grid_shape_for(size, stride)
    limb_count = int(rng.integers(1, 4))
    sizes = rng.integers(1, 5, int(rng.integers(1, 6)))
    n = int(sizes.sum())
    later = rng.integers(-3, [width + 3, height + 3], (n, 2))
    direction = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (0, 0)])[rng.integers(0, 5, n)]
    earlier = later + direction * rng.integers(-3, 4, (n, 1))
    off_grid = rng.random(n) < 0.1
    later[off_grid] += width + height + 6
    earlier[off_grid] += width + height + 6
    angle = rng.uniform(0, 2 * math.pi, n)
    strokes = LimbStrokes(
        layout=layout,
        limb_count=limb_count,
        width=width,
        height=height,
        grid_stride=stride,
        half_width=half_width * stride,
        channels=np.repeat(rng.integers(0, limb_count, len(sizes)), sizes).astype(np.int64),
        later=later.astype(np.float64) * stride,
        earlier=earlier.astype(np.float64) * stride,
        vectors=np.stack([np.cos(angle), np.sin(angle)], axis=1),
    )
    grid = strokes.rasterize()
    _same_grid(grid, group_box_rasterize(strokes))
    every_cell = np.arange(grid.channel_pairs * height * width)
    assert np.array_equal(strokes.values_at(every_cell), grid.vectors.reshape(-1, 2))


def test_encode_candidates_stay_near_the_covered_cells():
    # The flowmap-dump benchmark scene at default settings. Each stroke's
    # box holds only cells whose centers lie inside its bounding box widened
    # by the half width: 185,948 kernel candidates for 176,969 covered
    # (stroke, cell) pairs. Boxes rounded outward to whole cells gave
    # 430,368 candidates.
    scene = SceneConfig(people=4, motion="crossing", image_size=(640, 480), frames=8, seed=0)
    frames = apply_corruption(generate_sequence(scene), scene).frames
    seen = {"candidates": 0, "covered": 0}
    kernel = encoder._covers

    def counting(*args):
        hit = kernel(*args)
        seen["candidates"] += hit.size
        seen["covered"] += int(hit.sum())
        return hit

    with mock.patch.object(encoder, "_covers", counting):
        for later, earlier in zip(frames[1:], frames[:-1]):
            encode_limb_flow(later, earlier, _reference_pairing(later, earlier), TOPO, CFG)
    assert seen["covered"] == 176_969
    assert seen["candidates"] <= 190_000


@given(
    seed=st.integers(0, 2**32 - 1),
    stride=st.sampled_from([1, 2, 3, 8]),
    half_width=st.sampled_from([0.5, 1.0, 1.5, 2.0]) | st.floats(0.01, 10.0),
    large=st.booleans(),
)
@example(seed=0, stride=1, half_width=1.0, large=False)
@example(seed=1, stride=3, half_width=1.5, large=True)
@settings(max_examples=200, deadline=None)
def test_covers_decides_every_candidate_as_the_elementwise_rule(seed, stride, half_width, large):
    # Endpoints on cell centers, axis-aligned or diagonal, and half widths
    # of whole or half cells put candidate centers at exactly the half
    # width; some strokes have zero length and some leave the lattice. A
    # large grid puts the centers up to 2**31 cells from the origin.
    rng = np.random.default_rng(seed)
    size = [2**31 - 1, 2**31 - 1] if large else rng.integers(1, 30, 2)
    width, height = int(size[0]), int(size[1])
    n, m = int(rng.integers(1, 10)), int(rng.integers(0, 400))
    base = rng.integers(0, [width, height], (n, 2))
    later = (base + rng.integers(-3, 4, (n, 2))).astype(np.float64)
    direction = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (0, 0)])[rng.integers(0, 5, n)]
    earlier = later + direction * rng.integers(-4, 5, (n, 1))
    loose = rng.random(n) < 0.25
    later[loose] += rng.normal(0, 1, (int(loose.sum()), 2))
    later *= stride
    earlier *= stride
    stroke = rng.integers(0, n, m)
    ix = np.clip(base[stroke, 0] + rng.integers(-6, 7, m), 0, width - 1)
    iy = np.clip(base[stroke, 1] + rng.integers(-6, 7, m), 0, height - 1)
    s, hw = float(stride), half_width * stride
    got = encoder._covers(later, earlier, hw, stroke, iy * width + ix, width, s)
    want = elementwise_covers(later[stroke], earlier[stroke], hw, ix * s, iy * s)
    assert got.dtype == bool and np.array_equal(got, want)


def test_rasterize_peak_stays_small_on_the_flowmap_dump_scenes():
    # Every frame pair of the flowmap-dump benchmark scenes, seeds 0-2, in
    # both layouts; the strokes are built before tracing starts. With the
    # segment terms taken once per candidate the largest peak was 4.59 MiB.
    peaks = []
    for seed in range(3):
        scene = SceneConfig(people=4, motion="crossing", image_size=(640, 480), frames=8, seed=seed)
        frames = apply_corruption(generate_sequence(scene), scene).frames
        for later, earlier in zip(frames[1:], frames[:-1]):
            pairing = _reference_pairing(later, earlier)
            for layout in ("individual", "accumulated"):
                strokes = limb_strokes(later, earlier, pairing, TOPO, EncoderConfig(layout=layout))
                peaks.append(traced_peak(strokes.rasterize))
    assert max(peaks) < 3.5 * 2**20, max(peaks) / 2**20


def test_encode_equals_group_box_oracle_on_a_benchmark_sized_pair():
    # Five tall people in 640x480 at default settings: thousands of strokes
    # whose cells overlap within and across groups.
    people = [stick_pose(80 + 110 * k, 150 + 40 * (k % 2), h=120.0) for k in range(5)]
    fe = frame(people, 0, (640, 480))
    fl = frame([translate_pose(p, 9.0, -6.0 + k) for k, p in enumerate(people)], 1, (640, 480))
    pairing = [(k, k) for k in range(5)] + [(0, 1)]
    for layout in ("individual", "accumulated"):
        strokes = limb_strokes(fl, fe, pairing, TOPO, EncoderConfig(layout=layout))
        _same_grid(strokes.rasterize(), group_box_rasterize(strokes))


# ------------------------------------------------------------ accumulate

def test_accumulate_single_channel_passthrough():
    fl, fe = _pair_frames(6.0, 0.0)
    # keep only the two right-lower-arm joints so a single limb channel fires
    keep = {TOPO.joint_index("right_elbow"), TOPO.joint_index("right_wrist")}
    fl = frame([_keep(fl.poses[0], keep)], 1)
    fe = frame([_keep(fe.poses[0], keep)], 0)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, CFG)
    fired = np.unique(np.nonzero(grid.counts)[0])
    assert len(fired) == 1
    acc = accumulate_channels(grid)
    assert acc.layout == "accumulated"
    assert acc.limb_count == TOPO.limb_count
    assert np.array_equal(acc.vectors[0], grid.vectors[fired[0]])


def _keep(pose, keep):
    return Pose(
        joints=tuple(c if j in keep else None for j, c in enumerate(pose.joints)),
        track_id=pose.track_id,
    )


def test_accumulate_opposing_channels_cancel():
    grid = raw_strokes_grid(
        8, 8, 2, [(0, (1, 4), (6, 4), (1.0, 0.0)), (1, (1, 4), (6, 4), (-1.0, 0.0))]
    )
    out = accumulate_channels(grid)
    assert out.counts[0, 4, 3] == 2
    assert np.all(out.vectors[0, 4, 1:7] == 0)


def test_dense_encode_peak_stays_near_the_result_size():
    # The grid stores only its covered-cell table, so encoding allocates per
    # covered cell: the dense float64 vector planes (69 MB here) break the bound.
    people = [stick_pose(80 + 110 * k, 150 + 40 * (k % 2), h=120.0) for k in range(5)]
    fe = frame(people, 0, (640, 480))
    fl = frame([translate_pose(p, 9.0, -6.0) for p in people], 1, (640, 480))
    pairing = [(k, k) for k in range(5)]
    peak = traced_peak(encode_limb_flow, fl, fe, pairing, TOPO, CFG)
    grid = encode_limb_flow(fl, fe, pairing, TOPO, CFG)
    dense_vectors = grid.channel_pairs * grid.height * grid.width * 2 * 8
    assert grid.counts.sum() > 0
    assert peak < dense_vectors / 2


def test_accumulate_empty_grid():
    grid = raw_strokes_grid(5, 5, 3)
    out = accumulate_channels(grid)
    assert out.vectors.shape == (1, 5, 5, 2)
    assert np.all(out.vectors == 0)
    assert out.counts.sum() == 0


def test_accumulate_requires_individual():
    grid = raw_strokes_grid(5, 5, 2)
    with pytest.raises(ValueError):
        accumulate_channels(accumulate_channels(grid))


# ------------------------------------------------------------ joint flow

def test_joint_flow_single_moving_joint():
    joints = [None] * 15
    joints[0] = JointCandidate(0, 8)
    earlier = Pose(joints=tuple(joints))
    later = translate_pose(earlier, 4, 0)
    fl, fe = frame([later], 1, (32, 24)), frame([earlier], 0, (32, 24))
    grid = encode_joint_flow(fl, fe, [(0, 0)], TOPO, CFG)
    assert grid.vectors.shape[0] == TOPO.joint_count
    hits = np.nonzero(grid.counts[0])
    assert set(zip(*hits)) == {(8, x) for x in range(0, 5)}
    assert np.all(grid.vectors[0, 8, 0:5] == [1.0, 0.0])
    assert grid.counts[1:].sum() == 0


def test_joint_flow_static_is_zero():
    p = stick_pose(50, 40)
    fl, fe = frame([p], 1, (128, 96)), frame([p], 0, (128, 96))
    grid = encode_joint_flow(fl, fe, [(0, 0)], TOPO, CFG)
    assert np.all(grid.vectors == 0)


def test_joint_flow_equals_degenerate_limb_topology():
    # a topology whose "limbs" are zero-length self-loops at each joint,
    # encoded with one part per limb, reproduces the joint-flow map
    degenerate = SkeletonTopology(
        name="selfloops",
        joint_names=TOPO.joint_names,
        limbs=tuple((j, j) for j in range(15)),
        joint_channel=tuple(range(15)),
        head_segment=(0, 2),
    )
    earlier = stick_pose(80, 60)
    later = translate_pose(earlier, 5, -4)
    fl, fe = frame([later], 1), frame([earlier], 0)
    jf = encode_joint_flow(fl, fe, [(0, 0)], TOPO, CFG)
    cfg1 = EncoderConfig(parts_per_limb=1)
    lf = encode_limb_flow(fl, fe, [(0, 0)], degenerate, cfg1)
    assert np.array_equal(jf.vectors, lf.vectors)
    assert np.array_equal(jf.counts, lf.counts)


# ------------------------------------------------------------ parts

def test_limb_parts_enumeration():
    fl, fe = _pair_frames(6.0, 0.0)
    parts = limb_parts(fl, fe, [(0, 0)], TOPO, CFG)
    assert len(parts) == TOPO.limb_count * CFG.parts_per_limb
    assert {p.limb_index for p in parts} == set(range(TOPO.limb_count))
    for p in parts:
        assert p.stroke_length() == pytest.approx(6.0)


def test_limb_parts_check_the_inputs_limb_strokes_checks():
    # A pairing index of -1 gave parts of person -1, where limb_strokes raised.
    fl, fe = _pair_frames(6.0, 0.0)
    for pairing in [[(-1, 0)], [(0, -1)]]:
        with pytest.raises(ValueError):
            limb_strokes(fl, fe, pairing, TOPO, CFG)
        with pytest.raises(ValueError):
            limb_parts(fl, fe, pairing, TOPO, CFG)


def test_limb_parts_skip_missing_joints():
    fl, fe = _pair_frames(6.0, 0.0)
    incomplete = _keep(fl.poses[0], set(range(14)))  # drop left_ankle
    parts = limb_parts(frame([incomplete], 1), fe, [(0, 0)], TOPO, CFG)
    # left shin (13, 14) cannot be encoded
    assert {p.limb_index for p in parts} == set(range(TOPO.limb_count)) - {13}
