"""Flow maps evaluated only where they are read.

The tracker scores against ``LimbStrokes``, which compute a cell only
when asked; the dense ``FlowMapGrid`` is the same kernel at every cell.
These properties require the two, and the batched association matrix
and its per-pair oracle, to agree bit for bit (``np.array_equal``).
"""

import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limbflow import encoder
from limbflow.encoder import EncoderConfig, limb_strokes
from limbflow.fileio import serialize_annotations
from limbflow import scoring
from limbflow.pose import JointCandidate, Pose
from limbflow.scoring import (
    FORBIDDEN,
    ScoreConfig,
    association_score,
    build_association_matrix,
    distance_matrix,
    distance_score,
    flow_score,
    sample_grid,
)
from limbflow.synth import SceneConfig, apply_corruption, generate_sequence
from limbflow.tracker import SequenceFlowSource, TrackerConfig, _reference_pairing, track_sequence

from helpers import (
    TOPO,
    frame,
    oracle_lookup_cells,
    oracle_unique_inverse,
    random_strokes,
    stick_pose,
    traced_peak,
    translate_pose,
)

SIZE = (40, 30)


def _random_pose(rng, size=SIZE) -> Pose:
    """Joints scattered over and just beyond the image; some missing or
    invisible; some on the 1/8 px lattice the synthetic scenes use."""
    w, h = size
    joints = []
    for _ in range(TOPO.joint_count):
        r = rng.random()
        if r < 0.15:
            joints.append(None)
            continue
        x, y = rng.uniform(-4, w + 4), rng.uniform(-4, h + 4)
        if r < 0.4:
            x, y = round(x * 8) / 8, round(y * 8) / 8
        joints.append(JointCandidate(float(x), float(y), visible=bool(rng.random() > 0.05)))
    return Pose(joints=tuple(joints))


def _moved(rng, pose: Pose, static_share: float) -> Pose:
    """The pose a frame later; a share of its joints does not move."""
    joints = []
    for c in pose.joints:
        if c is None or rng.random() < static_share:
            joints.append(c)
        else:
            joints.append(replace(c, x=c.x + float(rng.normal(0, 3)), y=c.y + float(rng.normal(0, 3))))
    return Pose(joints=tuple(joints))


def _scene(seed: int, static_share: float, size=SIZE):
    rng = np.random.default_rng(seed)
    # Up to 6 people in a small image, so strokes of one channel overlap.
    earlier = [_random_pose(rng, size) for _ in range(int(rng.integers(0, 7)))]
    later = [_moved(rng, p, static_share) for p in earlier]
    if rng.random() < 0.5:
        later.append(_random_pose(rng, size))  # someone who just arrived
    return rng, frame(later, 1, size), frame(earlier, 0, size)


encoder_configs = st.builds(
    EncoderConfig,
    parts_per_limb=st.integers(1, 6),
    stroke_half_width=st.sampled_from([0.5, 1.0, 1.7, 3.0]),
    layout=st.sampled_from(["individual", "accumulated"]),
    grid_stride=st.integers(1, 4),
)


@given(
    seed=st.integers(0, 10_000),
    enc=encoder_configs,
    static_share=st.sampled_from([0.0, 0.5, 1.0]),
    empty_pairing=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_strokes_values_equal_the_dense_grid(seed, enc, static_share, empty_pairing):
    rng, fl, fe = _scene(seed, static_share)
    pairing = [] if empty_pairing else [(i, i) for i in range(len(fe.poses))]
    strokes = limb_strokes(fl, fe, pairing, TOPO, enc)
    grid = strokes.rasterize()

    # Every cell of every stored channel, in one request.
    every_cell = np.arange(grid.channel_pairs * grid.height * grid.width)
    assert np.array_equal(strokes.values_at(every_cell), grid.vectors.reshape(-1, 2))

    # Lookups at points in, on the edge of and outside the image.
    w, h = SIZE
    pts = np.stack([rng.uniform(-6, w + 6, 50), rng.uniform(-6, h + 6, 50)], axis=1)
    pts[:10] = np.round(pts[:10])
    channels = np.array([grid.channel_for(c) for c in rng.integers(0, TOPO.limb_count, 50)])
    assert np.array_equal(sample_grid(strokes, channels, pts), sample_grid(grid, channels, pts))


@given(
    seed=st.integers(0, 10_000),
    enc=encoder_configs,
    static_share=st.sampled_from([0.0, 0.5, 1.0]),
    requests=st.integers(0, 120),
)
@settings(max_examples=120, deadline=None)
def test_values_at_equals_rasterize_at_any_requested_cells(seed, enc, static_share, requests):
    rng, fl, fe = _scene(seed, static_share)
    strokes = limb_strokes(fl, fe, [(i, i) for i in range(len(fe.poses))], TOPO, enc)
    grid = strokes.rasterize()

    # Half the requests at covered cells, half anywhere in the grid.
    covered = np.argwhere(grid.counts.sum(axis=0) > 0)
    anywhere = np.stack([rng.integers(0, grid.height, requests), rng.integers(0, grid.width, requests)], 1)
    if len(covered):
        anywhere[: requests // 2] = covered[rng.integers(0, len(covered), requests // 2)]
    cell = np.unique(anywhere[:, 0] * grid.width + anywhere[:, 1])
    iy, ix = cell // grid.width, cell % grid.width
    plane = grid.width * grid.height

    for c in range(grid.channel_pairs):
        assert np.array_equal(strokes.values_at(c * plane + cell), grid.values_at(c * plane + cell))
    # A channel no stroke draws into reads as zero.
    drawn = {strokes.channel_for(int(c)) for c in strokes.channels}
    for c in sorted(set(range(grid.channel_pairs)) - drawn):
        assert not strokes.values_at(c * plane + cell).any()
    # The same cells of every channel, in one request.
    keys = (np.arange(grid.channel_pairs)[:, None] * plane + cell).ravel()
    assert np.array_equal(strokes.values_at(keys), grid.values_at(keys))

    # Keys out of order, repeated or outside the grid raise on both maps.
    size = grid.channel_pairs * plane
    bad = [np.append(keys, size), np.insert(keys, 0, -1)]
    if len(keys):
        bad.append(np.sort(np.append(keys, keys[-1])))  # one key twice
    if len(keys) > 1:
        bad.append(np.roll(keys, 1))  # ascending but for one step
    for flow in (strokes, grid):
        for wrong in bad:
            with pytest.raises(ValueError, match="ascend strictly"):
                flow.values_at(wrong)

    # One channel per requested cell, at the cell centers.
    channels = rng.integers(0, grid.channel_pairs, len(cell))
    pts = np.stack([ix, iy], axis=1).astype(np.float64) * enc.grid_stride
    assert np.array_equal(sample_grid(strokes, channels, pts), sample_grid(grid, channels, pts))


def test_association_matrix_memory_stays_per_channel():
    # The crowd-hd scene: 20 people crossing in 960x720, at seeds 0-3. One
    # scoring call peaks at 2.3-3.3 MiB with chunks read one at a time and
    # their keys built in place. Earlier chunk loops measured 8.7-9.6 MiB
    # with one read of every distinct cell of the call, and 23.5 MiB on seed
    # 0 running the kernel on every channel's cells at once.
    for seed in range(4):
        scene = SceneConfig(
            people=20, frames=2, image_size=(960, 720), motion="crossing",
            jitter_sigma=2.0, dropout_prob=0.05, seed=seed,
        )
        cand = apply_corruption(generate_sequence(scene), scene)
        earlier, later = cand.frames
        flow = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig())
        peak = traced_peak(build_association_matrix, later, earlier, flow, TOPO, ScoreConfig())
        assert peak < 12 << 20, f"seed {seed}: traced peak {peak / 2**20:.2f} MiB"


def test_association_matrix_memory_stays_bounded_at_fifty_people():
    # The crowd-assoc scene: 50 people crossing in 1280x720 at grid stride 4,
    # seeds 0-3, with the strokes the tracker's default flow source builds.
    # Its 220,000-230,000 samples fill three chunks and part of a fourth. One
    # call peaks at 3.4 MiB with each chunk's keys built in place of its
    # coordinate buffers, and at 9.2 MiB with the former lookup's stacked
    # points, repeated channels and key temporaries.
    for seed in range(4):
        scene = SceneConfig(people=50, frames=2, image_size=(1280, 720), motion="crossing", seed=seed)
        earlier, later = apply_corruption(generate_sequence(scene), scene).frames
        pairing = _reference_pairing(later, earlier)
        flow = limb_strokes(later, earlier, pairing, TOPO, EncoderConfig(grid_stride=4))
        peak = traced_peak(build_association_matrix, later, earlier, flow, TOPO, ScoreConfig())
        assert peak < 6 << 20, f"seed {seed}: traced peak {peak / 2**20:.2f} MiB"


@given(
    seed=st.integers(0, 10_000),
    enc=encoder_configs,
    # Requested keys per channel: none (an unrequested channel between
    # requested ones), a few, or just below, at or just above the run size.
    levels=st.lists(
        st.sampled_from(["none", "one", "few", "below", "at", "above"]), min_size=14, max_size=14
    ),
)
# Runs 0 | 2 | 3 4 | 5 | 6 7 9 | 10 | 11 12 13: channels 3 and 4 hold the
# run size exactly, and the last run holds three channels.
@example(
    seed=7,
    enc=EncoderConfig(parts_per_limb=3, grid_stride=4),
    levels=["above", "none", "few", "below", "one", "at", "few",
            "few", "none", "one", "above", "few", "one", "few"],
)
@settings(max_examples=40, deadline=None)
def test_values_at_equals_rasterize_across_run_boundaries(seed, enc, levels):
    run = encoder._RUN_KEYS
    counts = {"none": 0, "one": 1, "few": 37, "below": run - 1, "at": run, "above": run + 1}
    # Enough cells at stride 4 that a channel can hold more keys than a run.
    side = 4 * math.isqrt(run) + 8
    rng, fl, fe = _scene(seed, 0.0, size=(side, side))
    strokes = limb_strokes(fl, fe, [(i, i) for i in range(len(fe.poses))], TOPO, enc)
    grid = strokes.rasterize()
    plane = grid.width * grid.height
    table = grid.cells[0]
    keys = []
    for c, level in enumerate(levels[: grid.channel_pairs]):
        count = counts[level]
        # The channel's covered cells first, then any others.
        covered = table[table // plane == c] % plane
        pool = np.concatenate([rng.permutation(covered), rng.permutation(plane)])
        _, first = np.unique(pool, return_index=True)
        keys.append(c * plane + np.sort(pool[np.sort(first)][:count]))
    keys = np.concatenate(keys)
    assert strokes.values_at(keys).tobytes() == grid.values_at(keys).tobytes()


def _covers_calls(later, earlier, flow):
    """``_covers`` calls of one scoring call, and the requested keys per
    channel of each of its ``_covered`` calls."""
    calls = []
    covered = encoder.LimbStrokes._covered

    def record(self, strokes, keys=None, offsets=None):
        calls.append(np.bincount(keys // (self.width * self.height)))
        return covered(self, strokes, keys, offsets)

    with mock.patch.object(encoder.LimbStrokes, "_covered", record), mock.patch.object(
        encoder, "_covers", wraps=encoder._covers
    ) as kernel:
        build_association_matrix(later, earlier, flow, TOPO, ScoreConfig())
    return kernel.call_count, calls


def test_small_channels_share_one_kernel_call_and_large_ones_keep_their_own():
    # The long-seq scene: 4 people wandering in 256x192. Its 10 requested
    # channels hold about 4,200 keys together and are read by one kernel call.
    scene = SceneConfig(people=4, frames=2, image_size=(256, 192), motion="wander", seed=0)
    earlier, later = generate_sequence(scene).frames
    flow = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig())
    kernel_calls, calls = _covers_calls(later, earlier, flow)
    assert kernel_calls == len(calls) == 1
    assert np.count_nonzero(calls[0]) == 10

    # The crowd-hd scene of the memory test: channels share a kernel call
    # only while they hold a run's worth of keys or fewer together, so a
    # larger channel is read by a call of its own.
    for seed in range(4):
        scene = SceneConfig(
            people=20, frames=2, image_size=(960, 720), motion="crossing",
            jitter_sigma=2.0, dropout_prob=0.05, seed=seed,
        )
        earlier, later = apply_corruption(generate_sequence(scene), scene).frames
        flow = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig())
        kernel_calls, calls = _covers_calls(later, earlier, flow)
        assert kernel_calls == len(calls)
        for per_channel in calls:
            shared = np.count_nonzero(per_channel) > 1
            assert not shared or per_channel.sum() <= encoder._RUN_KEYS, f"seed {seed}: {per_channel}"


@given(
    taps=st.sampled_from([1, 4]),
    n=st.integers(0, 300),
    spread=st.sampled_from(["equal", "few", "wide", "largest"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_unique_inverse_equals_np_unique(taps, n, spread, seed):
    rng = np.random.default_rng(seed)
    # Keys below this bound leave room for the bits of a position.
    bound = 1 << (63 - max(taps * n - 1, 0).bit_length())
    shape = (taps, n)
    if spread == "equal":
        keys = np.full(shape, rng.integers(0, bound), dtype=np.int64)
    elif spread == "few":
        keys = rng.integers(0, 5, shape)
    elif spread == "wide":
        keys = rng.integers(0, bound, shape)
    else:
        keys = bound - 1 - rng.integers(0, 3, shape)
    want_values, want_inverse = np.unique(keys, return_inverse=True)
    values, inverse = scoring._unique_inverse(keys)  # packs the keys in place
    assert values.dtype == want_values.dtype and np.array_equal(values, want_values)
    assert inverse.dtype == want_inverse.dtype and inverse.shape == want_inverse.shape
    assert np.array_equal(inverse, want_inverse)


def _coordinates(stride: int, cells: int):
    """Pixel coordinates along a grid side of ``cells`` cells: any float near
    the grid, cell centers and exact half-cell ties, both sides of the far
    edge, signed zeros and huge finite values."""
    edge = float(cells * stride)
    return st.one_of(
        st.floats(-3.0 * stride, edge + 3.0 * stride),
        st.integers(-4, 2 * cells + 4).map(lambda k: k * stride / 2),
        st.sampled_from([-0.0, 0.0, edge, math.nextafter(edge, 0.0), -1e300, 1e300, sys.float_info.max]),
    )


@given(
    data=st.data(),
    stride=st.sampled_from([1, 4]),
    joints=st.integers(0, 6),
    samples=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_in_place_lookup_equals_the_frozen_lookup(data, stride, joints, samples, seed):
    rng = np.random.default_rng(seed)
    size = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
    flow = random_strokes(rng, size, stride, 1.5, "individual")
    n = joints * samples
    xs = data.draw(st.lists(_coordinates(stride, flow.width), min_size=n, max_size=n))
    ys = data.draw(st.lists(_coordinates(stride, flow.height), min_size=n, max_size=n))
    pts = np.array([xs, ys], dtype=np.float64).T.reshape(n, 2)
    channels = rng.integers(0, flow.channel_pairs, joints)
    per_point = np.repeat(channels, samples)

    # Huge coordinates overflow the int64 cast, then clip, as they always did.
    with np.errstate(invalid="ignore"):
        want_keys, want_valid = oracle_lookup_cells(flow, per_point, pts)
        # The chunk loop's form: (joints, samples) buffers, a channel per row.
        px, py = (pts[:, k].reshape(joints, samples).copy() for k in (0, 1))
        keys, valid = scoring._lookup_cells(flow, channels[:, None], px, py)
    assert keys.dtype == want_keys.dtype and keys.shape == valid.shape == (joints, samples)
    assert np.array_equal(keys.ravel(), want_keys) and np.array_equal(valid.ravel(), want_valid)

    want_cells, want_inverse = oracle_unique_inverse(want_keys)
    cells, inverse = scoring._unique_inverse(keys)
    assert cells.dtype == want_cells.dtype and np.array_equal(cells, want_cells)
    assert inverse.dtype == want_inverse.dtype and np.array_equal(inverse.ravel(), want_inverse)

    # sample_grid reads the same cells, one channel per point or one for all,
    # and leaves the caller's points as they were, signed zeros included.
    for channel in (per_point, int(channels[0]) if joints else 0):
        before = pts.tobytes()
        with np.errstate(invalid="ignore"):
            want_keys, want_valid = oracle_lookup_cells(flow, channel, pts)
            got = sample_grid(flow, channel, pts)
        assert pts.tobytes() == before
        want_cells, want_inverse = np.unique(want_keys, return_inverse=True)
        want = flow.values_at(want_cells)[want_inverse]
        want[~want_valid] = 0.0
        assert np.array_equal(got, want)


def test_association_matrix_rejects_a_key_space_too_large_to_pack():
    # One pose pair, all 15 joints moving: 300 samples, 9 position bits, so
    # keys must stay below 2**54. In the accumulated layout (one channel) a
    # 2**27 x 2**27 image holds exactly 2**54 cells; one column more does not
    # fit, and neither do the 14 channels of the individual layout.
    earlier = stick_pose(1e6, 1e6)
    later = translate_pose(earlier, 6.0, 2.0)
    cfg = ScoreConfig()

    def flow(width, layout):
        size = (width, 1 << 27)
        fl, fe = frame([later], 1, size), frame([earlier], 0, size)
        return limb_strokes(fl, fe, [(0, 0)], TOPO, EncoderConfig(layout=layout))

    fits = flow(1 << 27, "accumulated")
    got = build_association_matrix([later], [earlier], fits, TOPO, cfg).scores
    assert np.array_equal(got, _oracle_matrix([later], [earlier], fits, cfg))
    assert got[0, 0] > 0.5  # the flow term was read, not zero
    for too_large in (flow((1 << 27) + 1, "accumulated"), flow(1 << 27, "individual")):
        with pytest.raises(ValueError, match="too many to pack"):
            build_association_matrix([later], [earlier], too_large, TOPO, cfg)


def _oracle_matrix(later, earlier, flow, cfg):
    scores = np.full((len(later), len(earlier)), FORBIDDEN)
    for i, pl in enumerate(later):
        for j, pe in enumerate(earlier):
            scores[i, j] = association_score(
                flow_score(pl, pe, flow, TOPO, cfg), distance_score(pl, pe), cfg
            )
    return scores


def test_alpha_zero_reads_no_flow():
    # At alpha 0 the flow term has no weight, so the scorer samples nothing;
    # within the gate the distance term is at least e**-2, so the scores are
    # the same floats as with the flow read. Both layouts, and a static pose.
    scene = SceneConfig(people=4, frames=2, image_size=(256, 192), motion="wander", seed=0)
    earlier, later = generate_sequence(scene).frames
    poses_l = list(later.poses) + [earlier.poses[0]]
    for layout in ("individual", "accumulated"):
        flow = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig(layout=layout))
        for alpha, reads in ((0.0, False), (0.5, True)):
            cfg = ScoreConfig(alpha=alpha)
            values_at = encoder.LimbStrokes.values_at
            with mock.patch.object(
                encoder.LimbStrokes, "values_at", autospec=True, side_effect=values_at
            ) as spy:
                got = build_association_matrix(poses_l, earlier.poses, flow, TOPO, cfg).scores
            assert spy.called == reads, (layout, alpha)
            want = _oracle_matrix(poses_l, earlier.poses, flow, cfg)
            assert got.tobytes() == want.tobytes()
            assert np.isfinite(got).sum() >= 5


@given(
    seed=st.integers(0, 10_000),
    enc=encoder_configs,
    static_share=st.sampled_from([0.0, 0.3, 1.0]),
    dense=st.booleans(),
    chunk_samples=st.sampled_from([1, 7, 1 << 16]),
    score=st.builds(
        ScoreConfig,
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        integral_samples=st.integers(1, 25),
        # A 4 px scale gates most pairs of the small scenes at 8 px.
        distance_scale=st.sampled_from([4.0, 32.0]),
    ),
)
@settings(max_examples=60, deadline=None)
def test_batched_matrix_equals_per_pair_oracle(seed, enc, static_share, dense, chunk_samples, score):
    _, fl, fe = _scene(seed, static_share)
    later, earlier = list(fl.poses), list(fe.poses)
    flow = limb_strokes(fl, fe, [(i, i) for i in range(len(earlier))], TOPO, enc)
    if dense:
        flow = flow.rasterize()
    with mock.patch.object(scoring, "_CHUNK_SAMPLES", chunk_samples):
        got = build_association_matrix(later, earlier, flow, TOPO, score).scores
    assert np.array_equal(got, _oracle_matrix(later, earlier, flow, score))

    distances = [[distance_score(a, b) for b in earlier] for a in later]
    assert np.array_equal(distance_matrix(later, earlier), np.array(distances).reshape(got.shape))


def test_batched_matrix_keeps_forbidden_pairs_and_static_joints():
    rng = np.random.default_rng(7)
    only = lambda pose, keep: Pose(tuple(c if j in keep else None for j, c in enumerate(pose.joints)))  # noqa: E731
    joint_0 = lambda x, y: only(Pose((JointCandidate(x, y),) * TOPO.joint_count), {0})  # noqa: E731
    earlier = [_random_pose(rng) for _ in range(3)] + [joint_0(0.0, 0.0)]
    later = [
        only(earlier[0], set(range(0, 7))),  # static: every common joint stands still
        only(_moved(rng, earlier[1], 0.5), set(range(7, 15))),
        Pose((None,) * TOPO.joint_count),  # shares no joint with anyone
        # A move whose math.hypot and np.hypot differ in the last bit: the
        # batched and the per-pair scores must both take np.hypot.
        joint_0(2.568, 4.156),
    ]
    assert math.hypot(2.568, 4.156) != np.hypot(2.568, 4.156)
    fl, fe = frame(later, 1), frame(earlier, 0)
    flow = limb_strokes(fl, fe, [(0, 0), (1, 1)], TOPO, EncoderConfig())
    cfg = ScoreConfig()
    got = build_association_matrix(later, earlier, flow, TOPO, cfg).scores
    assert np.array_equal(got, _oracle_matrix(later, earlier, flow, cfg))
    distances = [[distance_score(a, b) for b in earlier] for a in later]
    assert np.array_equal(distance_matrix(later, earlier), np.array(distances))
    assert np.all(got[2] == FORBIDDEN)
    assert np.isfinite(got[0, 0])


def _lattice_pose(cx: float, cy: float) -> Pose:
    """A stick pose on the 1/8 px lattice, so a translation by a lattice
    step moves every joint by exactly that step."""
    return Pose(tuple(JointCandidate(round(c.x * 8) / 8, round(c.y * 8) / 8) for c in stick_pose(cx, cy).joints))


class _KeySpy:
    """A flow map that records the keys of every ``values_at`` call."""

    def __init__(self, flow):
        self.flow, self.keys = flow, []

    def __getattr__(self, name):
        return getattr(self.flow, name)

    def values_at(self, keys):
        self.keys.append(np.array(keys))
        return self.flow.values_at(keys)


def test_batched_matrix_gates_as_the_per_pair_oracle():
    cfg = ScoreConfig()
    gate = scoring.GATE_SCALES * cfg.distance_scale
    earlier = [_lattice_pose(60, 60)]
    later = [translate_pose(earlier[0], gate, 0.0), translate_pose(earlier[0], gate + 0.125, 0.0)]
    assert [distance_score(p, earlier[0]) for p in later] == [gate, gate + 0.125]
    size = (240, 160)
    fl, fe = frame(later, 1, size), frame(earlier, 0, size)
    for flow in (limb_strokes(fl, fe, [(0, 0)], TOPO, EncoderConfig()),
                 limb_strokes(fl, fe, [(1, 0)], TOPO, EncoderConfig())):
        got = build_association_matrix(later, earlier, flow, TOPO, cfg).scores
        assert np.array_equal(got, _oracle_matrix(later, earlier, flow, cfg))
        assert got[0, 0] > 0.5 and got[1, 0] == FORBIDDEN  # the kept pair's flow term was read


def test_a_gated_pair_reads_no_flow():
    earlier = [stick_pose(40, 60), stick_pose(200, 60)]
    far = [translate_pose(earlier[0], 80.0, 0.0), translate_pose(earlier[1], -80.0, 40.0)]
    size = (240, 160)
    flow = limb_strokes(frame(far, 1, size), frame(earlier, 0, size), [(0, 0), (1, 1)], TOPO, EncoderConfig())
    spy = _KeySpy(flow)
    got = build_association_matrix(far, earlier, spy, TOPO, ScoreConfig()).scores
    assert np.all(got == FORBIDDEN)
    assert sum(k.size for k in spy.keys) == 0
    near = [translate_pose(earlier[0], 8.0, 0.0)]  # the spy sees the keys of a pair inside the gate
    build_association_matrix(near, earlier, spy, TOPO, ScoreConfig())
    assert sum(k.size for k in spy.keys) > 0


class _DenseFlowSource(SequenceFlowSource):
    def grid(self, later, earlier):
        return super().grid(later, earlier).rasterize()


@given(
    seed=st.integers(0, 10_000),
    people=st.integers(1, 3),
    motion=st.sampled_from(["crossing", "wander", "occlusion-middle", "static"]),
    enc=encoder_configs,
)
@settings(max_examples=25, deadline=None)
def test_tracking_is_identical_on_strokes_and_rasterized_grids(seed, people, motion, enc):
    scene = SceneConfig(
        people=people, frames=5, image_size=(96, 72), motion=motion, speed=6.0,
        jitter_sigma=1.0, dropout_prob=0.1, seed=seed,
    )
    gt = generate_sequence(scene)
    cand = apply_corruption(gt, scene)
    cfg = TrackerConfig(encoder=enc)
    sparse = track_sequence(cand, cfg, SequenceFlowSource(gt, enc))
    dense = track_sequence(cand, cfg, _DenseFlowSource(gt, enc))
    assert serialize_annotations(sparse) == serialize_annotations(dense)
    assert sparse.refinement_log == dense.refinement_log
