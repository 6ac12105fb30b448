from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limbflow import tracker as tracker_module
from limbflow.encoder import EncoderConfig, encode_limb_flow
from limbflow.fileio import serialize_annotations
from limbflow.metrics import evaluate
from limbflow.pose import FramePoses, JointCandidate, Pose, Sequence
from limbflow.scoring import FORBIDDEN, GATE_SCALES, ScoreConfig, build_association_matrix
from limbflow.skeleton import validate_topology
from limbflow.synth import PRESETS, SceneConfig, apply_corruption, generate_sequence, occlusion_target
from limbflow.tracker import (
    SequenceFlowSource,
    _associate,
    Tracker,
    TrackerConfig,
    refine_middle_frame,
    suppress_duplicate_joints,
    track_sequence,
)

from helpers import (
    TOPO,
    crossing_benchmark_config,
    frame,
    greedy_nms,
    partial_pose,
    stick_pose,
    translate_pose,
    two_step_match_frames,
    two_step_refine_middle_frame,
)

CFG = TrackerConfig()


# ------------------------------------------------------------ NMS

def _nms(cands, radius):
    """The joints that frame NMS keeps of one-joint poses, in pose order."""
    out = suppress_duplicate_joints(frame([Pose(joints=(c,)) for c in cands]), radius, 1)
    return [p.joints[0] for p in out.poses]


def test_nms_close_pair_keeps_stronger():
    cands = [JointCandidate(10, 10, 0.9), JointCandidate(12, 10, 0.8)]
    kept = _nms(cands, 5.0)
    assert kept == [cands[0]]


def test_nms_far_pair_keeps_both():
    cands = [JointCandidate(10, 10, 0.9), JointCandidate(20, 10, 0.8)]
    assert len(_nms(cands, 5.0)) == 2


def test_nms_chain_greedy():
    cands = [
        JointCandidate(0, 0, 0.9),
        JointCandidate(4, 0, 0.8),
        JointCandidate(8, 0, 0.7),
    ]
    kept = _nms(cands, 5.0)
    assert [(c.x, c.confidence) for c in kept] == [(0, 0.9), (8, 0.7)]


def test_nms_radius_zero_drops_exact_duplicates_only():
    cands = [JointCandidate(3, 3, 0.9), JointCandidate(3, 3, 0.5), JointCandidate(3.1, 3, 0.4)]
    kept = _nms(cands, 0.0)
    assert len(kept) == 2


def test_nms_deterministic_tiebreak():
    cands = [JointCandidate(5, 0, 0.8), JointCandidate(0, 0, 0.8)]
    kept = _nms(cands, 10.0)
    assert (kept[0].x, kept[0].y) == (0, 0)  # same conf: lower x wins


def test_nms_rejects_negative_radius():
    with pytest.raises(ValueError):
        suppress_duplicate_joints(frame([stick_pose(60, 60)], 0), -1.0, 15)


def test_nms_rejects_nan_radius():
    # Every distance test against NaN fails, so each joint type would keep
    # only its first candidate of the frame.
    with pytest.raises(ValueError):
        suppress_duplicate_joints(frame([stick_pose(60, 60)], 0), float("nan"), 15)


def test_nms_returns_a_pose_that_loses_nothing_as_it_came():
    a, b = stick_pose(60, 60, confidence=0.9), stick_pose(60.5, 60, confidence=0.5)
    far = stick_pose(160, 60)
    out = suppress_duplicate_joints(frame([a, b, far], 0), 5.0, 15)
    assert out.poses[0] is a and out.poses[1] is far


# Three joint types on a unit grid, so that 3-4-5 pairs sit exactly at a
# radius of 5 and exact duplicates at every radius; three confidence
# levels make confidence and position ties common. One slot in four is
# missing and one in four of the rest invisible. Each listed copy repeats
# a pose's joints at another confidence, so whole poses can be suppressed.
_NMS_JOINTS = 3
_nms_joint = st.one_of(
    st.none(),
    st.builds(
        JointCandidate,
        x=st.integers(0, 6).map(float),
        y=st.integers(0, 6).map(float),
        confidence=st.sampled_from([0.25, 0.5, 1.0]),
        visible=st.integers(0, 3).map(bool),
    ),
    st.builds(JointCandidate, x=st.integers(0, 6).map(float), y=st.integers(0, 6).map(float)),
)


@st.composite
def _nms_frames(draw):
    pose = st.builds(
        Pose, joints=st.lists(_nms_joint, min_size=_NMS_JOINTS, max_size=_NMS_JOINTS).map(tuple)
    )
    poses = draw(st.lists(pose, max_size=7))
    copies = draw(st.lists(st.integers(0, len(poses) - 1), max_size=3)) if poses else []
    for i in copies:
        conf = draw(st.sampled_from([0.25, 0.5, 1.0]))
        poses.append(Pose(tuple(c and replace(c, confidence=conf) for c in poses[i].joints)))
    return FramePoses(0, tuple(poses), (8, 8))


@given(
    f=_nms_frames(),
    radius=st.sampled_from([0.0, 1.0, 2.0 ** 0.5, 3.0, 4.0, 5.0]) | st.floats(0.0, 9.0),
)
@settings(max_examples=400, deadline=None)
def test_nms_equals_the_greedy_oracle(f, radius):
    assert suppress_duplicate_joints(f, radius, _NMS_JOINTS) == greedy_nms(f, radius, _NMS_JOINTS)


@pytest.mark.parametrize(
    "joint",
    [
        JointCandidate(float("nan"), 5.0),
        JointCandidate(5.0, float("inf")),
        JointCandidate(5.0, 5.0, confidence=float("nan")),
        JointCandidate(5.0, 5.0, confidence=1.5),
        JointCandidate(5.0, 5.0, confidence=-0.1),
    ],
)
def test_push_rejects_a_visible_joint_with_a_bad_value(joint):
    # Before, each of these was tracked like any other joint.
    bad = Pose(joints=(joint,) + stick_pose(60, 60).joints[1:])
    with pytest.raises(ValueError, match="frame 1 pose 1 joint 0"):
        frames = (frame([stick_pose(20, 20)], 0), frame([stick_pose(20, 20), bad], 1))
        track_sequence(Sequence(frames=frames, topology=TOPO), CFG)


def test_frame_nms_drops_emptied_poses():
    a = stick_pose(60, 60, confidence=0.9)
    b = stick_pose(60.5, 60, h=50, confidence=0.5)  # duplicate of a, weaker
    f = frame([a, b], 0)
    out = suppress_duplicate_joints(f, 5.0, 15)
    assert len(out.poses) == 1
    assert len(out.poses[0].present_joints()) == 15


# ------------------------------------------------------------ matching

def _grid_for(fl, fe, pairing):
    return encode_limb_flow(fl, fe, pairing, TOPO, CFG.encoder)


def _push_all(frames, cfg=CFG, flow_source=None):
    """Push ``frames`` into a fresh tracker; the tracker and its output."""
    tracker = Tracker(TOPO, cfg, flow_source)
    out = [final for f in frames for final in tracker.push(f)]
    return tracker, out + tracker.finish()


def _ids(f):
    return [p.track_id for p in f.poses]


def test_static_person_keeps_id():
    p = stick_pose(70, 60)
    _, (out0, out1) = _push_all([frame([p], 0), frame([p], 1)])
    assert _ids(out0) == [0]
    assert _ids(out1) == [0]


def test_new_pose_gets_fresh_id():
    p = stick_pose(70, 60)
    q = translate_pose(p, 60, 0)
    _, (_, out) = _push_all([frame([p], 0), frame([p, q], 1)])
    assert set(_ids(out)) == {0, 1}


def test_absent_person_track_retained_then_retired():
    p = stick_pose(70, 60)
    tracker = Tracker(TOPO, CFG)
    tracker.push(frame([p], 0))
    tracker.push(frame([], 1))
    assert [t.misses for t in tracker.tracks.values()] == [1]  # still active, one miss
    tracker.push(frame([], 2))
    assert tracker.tracks == {}  # second miss retires
    *_, back = _push_all([frame([p], 0), frame([], 1), frame([], 2), frame([p], 3)])[1]
    assert _ids(back) == [1]  # a retired id never returns


def test_crossing_with_true_flow_keeps_identities():
    cfg = crossing_benchmark_config(seed=2)
    cfg = SceneConfig(**{**cfg.__dict__, "jitter_sigma": 0.0})
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    tcfg = TrackerConfig(encoder=EncoderConfig(stroke_half_width=2.5))
    out = track_sequence(cand, tcfg, SequenceFlowSource(gt, tcfg.encoder))
    report = evaluate(gt, out)
    assert report.total_counts.idsw == 0
    assert report.total_mota() == pytest.approx(100.0)


def test_match_threshold_blocks_weak_links():
    p = stick_pose(70, 60)
    far = translate_pose(p, 120, 40)  # distance term ~ exp(-126/32) ~ 0.02
    # The ground truth pairs nobody, so the flow map is empty, as before.
    gt = Sequence((frame([p.with_track_id(0)], 0), frame([far.with_track_id(1)], 1)), TOPO)
    _, (_, out) = _push_all([frame([p], 0), frame([far], 1)], flow_source=SequenceFlowSource(gt, CFG.encoder))
    assert _ids(out) == [1]  # fresh id, no link


def test_associate_never_returns_a_forbidden_link():
    # q stands inside the motion gate of p, so only the mask forbids links.
    p, q = stick_pose(60, 60), stick_pose(100, 60)
    later, earlier = [translate_pose(p, 3, 0), translate_pose(q, 3, 0)], [p, q]
    flow = _grid_for(frame(later, 1), frame(earlier, 0), [(0, 0), (1, 1)])
    cfg = replace(CFG, score_threshold=-1.0)
    scores = build_association_matrix(later, earlier, flow, TOPO, cfg.score).scores
    assert scores[0, 0] == scores.max()
    assert _associate(later, earlier, flow, TOPO, cfg) == [(0, 0), (1, 1)]
    allowed = np.array([[False, True], [True, True]])
    assert _associate(later, earlier, flow, TOPO, cfg, allowed) == [(0, 1), (1, 0)]
    assert _associate(later[:1], earlier[:1], flow, TOPO, cfg, allowed[:1, :1]) == []


def test_associate_never_links_a_pair_beyond_the_motion_gate():
    p = stick_pose(60, 60)
    gate = GATE_SCALES * CFG.score.distance_scale
    later, earlier = [translate_pose(p, gate + 1, 0)], [p]
    flow = _grid_for(frame(later, 1, (240, 160)), frame(earlier, 0, (240, 160)), [(0, 0)])
    assert build_association_matrix(later, earlier, flow, TOPO, CFG.score).scores[0, 0] == FORBIDDEN
    assert _associate(later, earlier, flow, TOPO, replace(CFG, score_threshold=-1.0)) == []
    near = [translate_pose(p, gate - 1, 0)]
    flow = _grid_for(frame(near, 1, (240, 160)), frame(earlier, 0, (240, 160)), [(0, 0)])
    assert _associate(near, earlier, flow, TOPO, replace(CFG, score_threshold=-1.0)) == [(0, 0)]


def test_associate_forbids_links_below_the_threshold_before_the_solve():
    # Zero flow, so each score is (1 - alpha) * exp(-d / distance_scale) at
    # d px. Later pose 0 stands on earlier pose 0 (0.5) and 40 px from
    # earlier pose 1 (0.14); later pose 1 stands 60 px from earlier pose 0
    # (0.077, below the 0.1 threshold) and shares no joint with earlier
    # pose 1. Solving for cardinality first would pair 0-1 and 1-0, then
    # drop 1-0 at the threshold, moving pose 0 off its best link.
    upper, lower = set(range(8)), set(range(8, TOPO.joint_count))
    earlier = [stick_pose(100, 60), partial_pose(stick_pose(140, 60), lower)]
    later = [stick_pose(100, 60), partial_pose(stick_pose(40, 60), upper)]
    flow = _grid_for(frame(later, 1), frame(earlier, 0), [])
    scores = build_association_matrix(later, earlier, flow, TOPO, CFG.score).scores
    assert scores[1, 1] == FORBIDDEN
    assert scores[1, 0] < CFG.score_threshold <= scores[0, 1] < scores[0, 0]
    assert _associate(later, earlier, flow, TOPO, CFG) == [(0, 0)]


def test_associate_keeps_a_link_at_the_threshold_and_drops_one_below():
    p = stick_pose(60, 60)
    later, earlier = [translate_pose(p, 3, 0)], [p]
    flow = _grid_for(frame(later, 1), frame(earlier, 0), [(0, 0)])
    score = float(build_association_matrix(later, earlier, flow, TOPO, CFG.score).scores[0, 0])
    assert _associate(later, earlier, flow, TOPO, replace(CFG, score_threshold=score)) == [(0, 0)]
    above = replace(CFG, score_threshold=float(np.nextafter(score, np.inf)))
    assert _associate(later, earlier, flow, TOPO, above) == []


# ------------------------------------------------------------ refinement

def _three_frame_setup(missing_middle=True, present_next=True):
    p0 = stick_pose(60, 60)
    p1 = translate_pose(p0, 4, 0)
    p2 = translate_pose(p0, 8, 0)
    fprev = frame([p0.with_track_id(0)], 0)
    fmid = frame([] if missing_middle else [p1.with_track_id(0)], 1)
    fnext = frame([p2.with_track_id(0)] if present_next else [], 2)
    grid2 = _grid_for(frame([p2], 2), frame([p0], 0), [(0, 0)] if present_next else [])
    return fprev, fmid, fnext, grid2


def test_refine_inserts_neighbor_average():
    fprev, fmid, fnext, grid2 = _three_frame_setup()
    mid, nxt, entries = refine_middle_frame(fprev, fmid, fnext, grid2, TOPO, CFG)
    assert len(entries) == 1
    assert entries[0].frame_index == 1
    assert entries[0].track_id == 0
    assert entries[0].source == "stride2-average"
    inserted = mid.poses[-1]
    assert inserted.track_id == 0
    for j in range(15):
        assert inserted.joints[j].x == pytest.approx(
            (fprev.poses[0].joints[j].x + fnext.poses[0].joints[j].x) / 2
        )
        assert inserted.joints[j].y == pytest.approx(
            (fprev.poses[0].joints[j].y + fnext.poses[0].joints[j].y) / 2
        )


def test_refine_no_insert_when_absent_at_next():
    fprev, fmid, fnext, grid2 = _three_frame_setup(present_next=False)
    mid, nxt, entries = refine_middle_frame(fprev, fmid, fnext, grid2, TOPO, CFG)
    assert entries == []
    assert mid.poses == fmid.poses


def test_refine_untouched_when_all_present():
    fprev, fmid, fnext, grid2 = _three_frame_setup(missing_middle=False)
    mid, nxt, entries = refine_middle_frame(fprev, fmid, fnext, grid2, TOPO, CFG)
    assert entries == []
    assert mid.poses == fmid.poses
    assert nxt.poses == fnext.poses


def test_refine_never_relabels_existing():
    fprev, fmid, fnext, grid2 = _three_frame_setup()
    other = stick_pose(160, 100).with_track_id(7)
    fmid2 = frame([other], 1)
    mid, nxt, entries = refine_middle_frame(fprev, fmid2, fnext, grid2, TOPO, CFG)
    assert mid.poses[0] == other  # pre-existing pose untouched
    assert nxt.poses == fnext.poses or all(
        p.track_id == q.track_id for p, q in zip(fnext.poses, nxt.poses)
    )


def test_refine_receives_unlabeled_next_pose():
    fprev, fmid, fnext, _ = _three_frame_setup()
    frames = [replace(f, poses=tuple(p.with_track_id(None) for p in f.poses)) for f in (fprev, fmid, fnext)]
    # At this threshold the stride-1 match of the t+1 pose (no flow: nobody
    # is at t) fails and the stride-2 link (flow plus distance) clears it.
    cfg = replace(CFG, score_threshold=0.5)
    unrefined = _push_all(frames, replace(cfg, refine=False))[1]
    assert _ids(unrefined[2]) == [1]
    tracker, out = _push_all(frames, cfg)
    assert len(tracker.refinement_log) == 1
    assert _ids(out[2]) == [0]  # received the old id
    assert tracker.tracks[0].last_pose == out[2].poses[0]
    assert tracker.tracks[0].misses == 0


def test_refine_gives_no_unlabelled_pose_an_id_held_at_the_next_frame():
    # Track 2 skips frame 4 and the match at frame 5 gives it back to one
    # pose; refinement also handed it to an unlabelled pose: [1, 2, 0, 2].
    scene = SceneConfig(
        people=4, frames=6, image_size=(192, 144), motion="occlusion-middle",
        speed=12.0, dropout_prob=0.5, seed=1090,
    )
    _, out = _track(scene, oracle=False)
    assert (4, 2) in [(e.frame_index, e.track_id) for e in out.refinement_log]
    for f in out.frames:
        assert len(_ids(f)) == len(set(_ids(f))), f.frame_index


# ------------------------------------------------------------ sequences

def test_single_frame_sequence():
    seq = Sequence(frames=(frame([stick_pose(60, 60), stick_pose(140, 60)], 0),), topology=TOPO)
    out = track_sequence(seq, CFG)
    assert [p.track_id for p in out.frames[0].poses] == [0, 1]
    assert out.refinement_log == ()


def test_empty_sequence():
    out = track_sequence(Sequence(frames=(), topology=TOPO), CFG)
    assert out.frames == ()


def test_occlusion_middle_restored():
    cfg = SceneConfig(people=2, frames=9, image_size=(192, 120), motion="occlusion-middle", speed=8, seed=5)
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    occ_frame, _ = occlusion_target(cfg)
    assert len(cand.frames[occ_frame].poses) == 1
    out = track_sequence(cand, CFG, SequenceFlowSource(gt, CFG.encoder))
    assert len(out.refinement_log) == 1
    assert out.refinement_log[0].frame_index == occ_frame
    assert len(out.frames[occ_frame].poses) == 2
    report = evaluate(gt, out)
    assert report.total_mota() == pytest.approx(100.0)


class _CountingFlowSource(SequenceFlowSource):
    """A ground-truth flow source that records each map's frame indices."""

    def __init__(self, seq, encoder_cfg):
        super().__init__(seq, encoder_cfg)
        self.drawn = []

    def grid(self, later, earlier):
        self.drawn.append((later.frame_index, earlier.frame_index))
        return super().grid(later, earlier)


def test_stride_2_map_drawn_only_when_refinement_reads_it():
    # Only the occluded frame misses a track seen the frame before, and
    # refinement reads no stride-2 map at any other step.
    cfg = SceneConfig(people=2, frames=9, image_size=(192, 120), motion="occlusion-middle", speed=8, seed=5)
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    occ_frame, _ = occlusion_target(cfg)
    source = _CountingFlowSource(gt, CFG.encoder)
    out = track_sequence(cand, CFG, source)
    stride_1 = [(t, t - 1) for t in range(1, 9)]
    assert [pair for pair in source.drawn if pair not in stride_1] == [(occ_frame + 1, occ_frame - 1)]
    assert [e.frame_index for e in out.refinement_log] == [occ_frame]


def test_track_ids_unique_per_frame_and_never_reused():
    cfg = SceneConfig(people=3, frames=8, image_size=(224, 160), motion="wander", speed=6, seed=9, dropout_prob=0.15)
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    # The scene as drawn never retires a track; with frames 3 and 4 emptied
    # every track misses twice and retires, so frame 5 needs fresh ids.
    gap = replace(cand, frames=tuple(replace(f, poses=()) if f.frame_index in (3, 4) else f for f in cand.frames))
    for seq in (cand, gap):
        out = track_sequence(seq, CFG, SequenceFlowSource(gt, CFG.encoder))
        last_seen: dict[int, int] = {}
        for t, f in enumerate(out.frames):
            ids = [p.track_id for p in f.poses]
            assert len(ids) == len(set(ids))
            newest = max(last_seen, default=-1)
            for tid in ids:
                if tid in last_seen:
                    # A track missed in two frames running retires; its id never returns.
                    assert t - last_seen[tid] <= 2
                else:
                    assert tid > newest  # a new id is larger than every id seen before
            last_seen.update((tid, t) for tid in ids)


def test_tracking_deterministic():
    cfg = crossing_benchmark_config(seed=3)
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    tcfg = TrackerConfig(encoder=EncoderConfig(stroke_half_width=2.5))
    a = track_sequence(cand, tcfg, SequenceFlowSource(gt, tcfg.encoder))
    b = track_sequence(cand, tcfg, SequenceFlowSource(gt, tcfg.encoder))
    assert serialize_annotations(a) == serialize_annotations(b)
    assert a.refinement_log == b.refinement_log


def test_crossing_alpha_ablation():
    # with true flow maps the crossing resolves; distance-only swaps when
    # the trajectories pass through each other
    cfg = SceneConfig(**{**crossing_benchmark_config(4).__dict__, "jitter_sigma": 0.0})
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    enc = EncoderConfig(stroke_half_width=2.5)
    flow = SequenceFlowSource(gt, enc)
    out_flow = track_sequence(cand, TrackerConfig(encoder=enc), flow)
    out_dist = track_sequence(cand, TrackerConfig(score=ScoreConfig(alpha=0.0), encoder=enc), flow)
    r_flow = evaluate(gt, out_flow)
    r_dist = evaluate(gt, out_dist)
    assert r_flow.total_counts.idsw == 0
    assert r_dist.total_counts.idsw >= 1
    assert r_flow.total_mota() > r_dist.total_mota()


def test_input_ids_are_ignored_for_labeling():
    p = stick_pose(70, 60)
    seq = Sequence(
        frames=(frame([p.with_track_id(99)], 0), frame([p.with_track_id(42)], 1)),
        topology=TOPO,
    )
    out = track_sequence(seq, CFG)
    assert [f.poses[0].track_id for f in out.frames] == [0, 0]


# ------------------------------------------------------------ properties

synth_scenes = st.builds(
    SceneConfig,
    people=st.integers(1, 4),
    frames=st.integers(1, 7),
    image_size=st.just((192, 144)),
    motion=st.sampled_from(PRESETS),
    speed=st.sampled_from([0.0, 4.0, 12.0]),
    jitter_sigma=st.sampled_from([0.0, 1.5]),
    dropout_prob=st.sampled_from([0.0, 0.2, 0.5]),
    seed=st.integers(0, 10_000),
)


def _track(scene: SceneConfig, oracle: bool, poses_order=None):
    """Track the scene's corrupted candidates, with the ground-truth flow
    source or the default one; ``poses_order`` reorders each frame."""
    gt = generate_sequence(scene)
    cand = apply_corruption(gt, scene)
    if poses_order is not None:
        cand = Sequence(
            frames=tuple(
                replace(f, poses=tuple(f.poses[i] for i in poses_order(len(f.poses))))
                for f in cand.frames
            ),
            topology=cand.topology,
        )
    return gt, track_sequence(cand, CFG, SequenceFlowSource(gt, CFG.encoder) if oracle else None)


@given(scene=synth_scenes, oracle=st.booleans())
@settings(max_examples=40, deadline=None)
def test_ids_unique_per_frame_fresh_and_never_revived(scene, oracle):
    _, out = _track(scene, oracle)
    last_seen: dict[int, int] = {}
    newest = -1
    for t, f in enumerate(out.frames):
        ids = [p.track_id for p in f.poses]
        assert None not in ids
        assert len(ids) == len(set(ids))
        fresh = [tid for tid in ids if tid not in last_seen]
        if fresh:
            assert min(fresh) > newest  # new ids only ever grow
            newest = max(fresh)
        for tid in ids:
            # A track missed in two frames running retires; its id never returns.
            assert tid in fresh or t - last_seen[tid] <= 2
            last_seen[tid] = t


@given(scene=synth_scenes, oracle=st.booleans())
@settings(max_examples=25, deadline=None)
def test_track_sequence_is_deterministic(scene, oracle):
    _, a = _track(scene, oracle)
    _, b = _track(scene, oracle)
    assert serialize_annotations(a) == serialize_annotations(b)
    assert a.refinement_log == b.refinement_log


@given(scene=synth_scenes, oracle=st.booleans(), order_seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_evaluate_ignores_the_order_of_input_poses(scene, oracle, order_seed):
    rng = np.random.default_rng(order_seed)
    gt, out = _track(scene, oracle)
    _, permuted = _track(scene, oracle, poses_order=rng.permutation)
    assert repr(evaluate(gt, permuted)) == repr(evaluate(gt, out))


@given(scene=synth_scenes, oracle=st.booleans(), refine=st.booleans())
@settings(max_examples=40, deadline=None)
def test_push_returns_each_frame_once_in_order_and_equals_track_sequence(scene, oracle, refine):
    gt = generate_sequence(scene)
    cand = apply_corruption(gt, scene)
    cfg = replace(CFG, refine=refine)

    def source():
        return SequenceFlowSource(gt, cfg.encoder) if oracle else None

    tracker = Tracker(cand.topology, cfg, source())
    out: list = []
    for t, f in enumerate(cand.frames):
        out += tracker.push(f)
        # Frames come out in input order, each no later than one push
        # after it went in.
        assert [g.frame_index for g in out] == [g.frame_index for g in cand.frames[: len(out)]]
        assert t <= len(out) <= t + 1
        # Flat memory in sequence length: two frames each way at most.
        assert len(tracker._inputs) <= 2 and len(tracker._outputs) <= 2
    out += tracker.finish()
    assert [f.frame_index for f in out] == [f.frame_index for f in cand.frames]
    whole = track_sequence(cand, cfg, source())
    assert serialize_annotations(Sequence(tuple(out), cand.topology)) == serialize_annotations(whole)
    assert tuple(tracker.refinement_log) == whole.refinement_log


def test_push_rejects_a_frame_index_that_does_not_increase():
    tracker = Tracker(TOPO, CFG)
    tracker.push(frame([stick_pose(60, 60)], 3))
    for index in (3, 2):
        with pytest.raises(ValueError, match=f"frame index {index} pushed after 3; indices must increase"):
            tracker.push(frame([stick_pose(60, 60)], index))


def test_push_after_finish_raises():
    # finish ends the sequence: a later frame, even with index 0, must not
    # link to the finished sequence's tracks.
    tracker = Tracker(TOPO, CFG)
    for t in (10, 11, 12):
        tracker.push(frame([stick_pose(60, 60)], t))
    tracker.finish()
    for index in (0, 13):
        with pytest.raises(ValueError, match=f"frame index {index} pushed after finish"):
            tracker.push(frame([stick_pose(60, 60)], index))


def test_a_flow_source_in_another_topology_is_rejected():
    # TOPO's skeleton with its limbs in reverse order, so channel c is
    # another limb: scoring used to read the channels of other limbs.
    last = TOPO.limb_count - 1
    other = replace(
        TOPO, name="reordered", limbs=TOPO.limbs[::-1], joint_channel=tuple(last - c for c in TOPO.joint_channel)
    )
    assert validate_topology(other) == []
    gt = Sequence(tuple(frame([stick_pose(60, 60)], t) for t in range(3)), other)
    with pytest.raises(ValueError, match="different topologies"):
        Tracker(TOPO, CFG, SequenceFlowSource(gt, CFG.encoder))
    cand = Sequence(tuple(frame([stick_pose(60, 60)], t) for t in range(3)), TOPO)
    with pytest.raises(ValueError, match="different topologies"):
        track_sequence(cand, CFG, SequenceFlowSource(gt, CFG.encoder))


@given(
    scene=st.builds(
        SceneConfig,
        people=st.integers(1, 4),
        frames=st.integers(2, 7),
        image_size=st.just((192, 144)),
        motion=st.sampled_from(["wander", "crossing", "occlusion-middle"]),
        speed=st.sampled_from([4.0, 12.0]),
        jitter_sigma=st.sampled_from([0.0, 1.5]),
        dropout_prob=st.sampled_from([0.2, 0.5]),
        seed=st.integers(0, 10_000),
    ),
    oracle=st.booleans(),
    refine=st.booleans(),
)
# A scene where a missed id is back at t+1 and an unlabelled pose there
# could take it.
@example(
    scene=SceneConfig(
        people=4, frames=6, image_size=(192, 144), motion="occlusion-middle",
        speed=12.0, dropout_prob=0.5, seed=1090,
    ),
    oracle=False,
    refine=True,
)
# A scene where solving for cardinality before the threshold links and
# refines otherwise than forbidding the links below it first.
@example(
    scene=SceneConfig(
        people=3, frames=7, image_size=(192, 144), motion="wander",
        speed=12.0, jitter_sigma=1.5, dropout_prob=0.2, seed=4,
    ),
    oracle=False,
    refine=True,
)
@settings(max_examples=40, deadline=None)
def test_association_step_tracks_as_the_two_step_oracle(scene, oracle, refine):
    gt = generate_sequence(scene)
    cand = apply_corruption(gt, scene)
    cfg = replace(CFG, refine=refine)

    def run():
        return track_sequence(cand, cfg, SequenceFlowSource(gt, cfg.encoder) if oracle else None)

    out = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracker_module, "match_frames", two_step_match_frames)
        mp.setattr(tracker_module, "refine_middle_frame", two_step_refine_middle_frame)
        want = run()
    assert serialize_annotations(out) == serialize_annotations(want)
    assert out.refinement_log == want.refinement_log


# MOTA of 50 wandering people over 20 frames at 960x720, seeds 0-2, when
# far links were scored and the solve put cardinality before the threshold.
# Their ID switches then summed to 2239.
_CROWD_MOTA_UNGATED = (90.31, 90.26, 90.85)


def test_crowd_scale_gate_cuts_id_switches_by_a_third():
    id_switches = 0
    for seed, floor in enumerate(_CROWD_MOTA_UNGATED):
        scene = SceneConfig(
            people=50, frames=20, image_size=(960, 720), motion="wander",
            jitter_sigma=2.0, dropout_prob=0.05, seed=seed,
        )
        gt = generate_sequence(scene)
        report = evaluate(gt, track_sequence(apply_corruption(gt, scene), CFG))
        assert round(report.total_mota(), 2) >= floor, seed
        id_switches += report.total_counts.idsw
    assert id_switches <= 2239 * 2 // 3


def _scene_and_truth():
    scene = SceneConfig(people=2, frames=4, image_size=(192, 144), motion="crossing", speed=6, seed=2)
    gt = generate_sequence(scene)
    return apply_corruption(gt, scene), gt


@pytest.mark.parametrize(
    "edit, message",
    [
        # shifted indices: frame 0 is missing from the reference
        (lambda f: replace(f, frame_index=f.frame_index + 1), "lacks frame 0"),
        # a reference one frame short
        (lambda f: None if f.frame_index == 3 else f, "lacks frame 3"),
        (lambda f: replace(f, image_size=(96, 72)), r"frame 1 has image_size \(96, 72\), not \(192, 144\)"),
    ],
    ids=["shifted", "shorter", "resized"],
)
def test_mismatched_flow_reference_rejected(edit, message):
    cand, gt = _scene_and_truth()
    ref = Sequence(tuple(g for g in map(edit, gt.frames) if g is not None), gt.topology)
    with pytest.raises(ValueError, match=message):
        track_sequence(cand, CFG, SequenceFlowSource(ref, CFG.encoder))


def test_flow_reference_is_read_by_frame_index():
    # A reference holding more frames than the input is read at the
    # input's frame indices, not at its positions.
    scene = SceneConfig(people=3, frames=6, image_size=(192, 144), motion="crossing", speed=12, seed=0)
    gt = generate_sequence(scene)
    cand = apply_corruption(gt, scene)

    def without_frame_2(seq):
        return replace(seq, frames=tuple(f for f in seq.frames if f.frame_index != 2))

    full = track_sequence(without_frame_2(cand), CFG, SequenceFlowSource(gt, CFG.encoder))
    exact = track_sequence(without_frame_2(cand), CFG, SequenceFlowSource(without_frame_2(gt), CFG.encoder))
    assert serialize_annotations(full) == serialize_annotations(exact)
