import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limbflow
from limbflow.metrics import (
    _average_precision,
    evaluate,
    format_report_table,
    joint_group,
    match_joints_pckh,
    report_to_dict,
)
from limbflow.pose import FramePoses, JointCandidate, Pose, Sequence
from limbflow.tracker import TrackedSequence

from helpers import (
    TOPO,
    frame,
    oracle_match_joints_pckh,
    partial_pose,
    scan_average_precision,
    stick_pose,
    translate_pose,
    two_pass_evaluate,
)

HEAD_LEN = 0.24 * 50  # stick_pose head_top to neck at h=50
THRESH = 0.5 * HEAD_LEN


def seq_of(frames):
    return Sequence(frames=tuple(frames), topology=TOPO)


def gt_person(cx, cy, track_id, h=50.0):
    return stick_pose(cx, cy, h=h, track_id=track_id)


def test_joint_groups():
    assert joint_group("head_top") == "Head"
    assert joint_group("nose") == "Head"
    assert joint_group("neck") == "Head"
    assert joint_group("left_shoulder") == "Shou"
    assert joint_group("right_elbow") == "Elb"
    assert joint_group("left_wrist") == "Wri"
    assert joint_group("right_hip") == "Hip"
    assert joint_group("left_knee") == "Knee"
    assert joint_group("right_ankle") == "Ankl"


# ------------------------------------------------------------ matching

def test_pckh_exact_predictions_all_match():
    gt = frame([gt_person(80, 60, 0)], 0)
    pred = frame([gt_person(80, 60, 5)], 0)
    matches = match_joints_pckh(gt, pred, {0: THRESH})
    assert sum(len(m) for m in matches.values()) == 15


def test_pckh_offset_beyond_threshold_no_match():
    gt = frame([gt_person(80, 60, 0)], 0)
    pred = frame([translate_pose(gt_person(80, 60, 0), 2 * HEAD_LEN, 0)], 0)
    matches = match_joints_pckh(gt, pred, {0: THRESH})
    assert sum(len(m) for m in matches.values()) == 0


def test_pckh_greedy_prefers_confident():
    gt = frame([partial_pose(gt_person(80, 60, 0), {0})], 0)
    strong = partial_pose(stick_pose(81, 60, confidence=0.9), {0})
    weak = partial_pose(stick_pose(80, 60, confidence=0.5), {0})
    pred = frame([weak, strong], 0)
    matches = match_joints_pckh(gt, pred, {0: THRESH})
    assert matches[0] == [(0, 1, pytest.approx(1.0))]  # higher conf wins


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pckh_takes_a_gt_at_an_infinite_distance_within_an_infinite_radius():
    # Finite coordinates 2e308 apart are an infinite length apart; the gt
    # in range must win over a lower gt out of range, as the scalar rule does.
    gt = frame([Pose(joints=(JointCandidate(0.0, 0.0),)), Pose(joints=(JointCandidate(-1e308, 0.0),))])
    pred = frame([Pose(joints=(JointCandidate(1e308, 0.0),))])
    thresholds = {0: 1.0, 1: math.inf}
    expected = {0: [(1, 0, math.inf)]}
    assert oracle_match_joints_pckh(gt, pred, thresholds) == expected
    assert match_joints_pckh(gt, pred, thresholds) == expected


# ------------------------------------------------------------ MOTA

def test_mota_perfect_is_100():
    frames = [frame([gt_person(80, 60, 0), gt_person(150, 60, 1)], t) for t in range(5)]
    gt = seq_of(frames)
    report = evaluate(gt, gt)
    assert report.total_mota() == pytest.approx(100.0)
    assert all(v == pytest.approx(100.0) for v in report.group_mota().values())


def test_mota_one_missed_frame_of_ten():
    gt_frames = [frame([gt_person(80, 60, 0)], t) for t in range(10)]
    pred_frames = [
        frame([] if t == 3 else [gt_person(80, 60, 7)], t) for t in range(10)
    ]
    total = evaluate(seq_of(gt_frames), seq_of(pred_frames)).total_mota()
    # FN = 15 joints, GT = 150 joints -> 100 * (1 - 15/150) = 90
    assert total == pytest.approx(90.0)


def test_mota_identity_swap_charged_once():
    # two people, ids swapped for the last 5 of 10 frames: one IDSW event
    # per (track, joint) at the swap frame = 2 * 15 = 30; GT = 300
    gt_frames = [frame([gt_person(60, 60, 0), gt_person(160, 60, 1)], t) for t in range(10)]
    pred_frames = []
    for t in range(10):
        a, b = (0, 1) if t < 5 else (1, 0)
        pred_frames.append(frame([gt_person(60, 60, a), gt_person(160, 60, b)], t))
    report = evaluate(seq_of(gt_frames), seq_of(pred_frames))
    assert report.total_counts.idsw == 30
    assert report.total_counts.fn == 0
    assert report.total_counts.fp == 0
    assert report.total_mota() == pytest.approx(100 * (1 - 30 / 300))


def test_mota_fp_penalized():
    gt_frames = [frame([gt_person(80, 60, 0)], t) for t in range(10)]
    pred_frames = [frame([gt_person(80, 60, 0)], t) for t in range(10)]
    pred_frames[4] = frame([gt_person(80, 60, 0), gt_person(170, 100, 9)], 4)
    report = evaluate(seq_of(gt_frames), seq_of(pred_frames))
    assert report.total_counts.fp == 15
    assert report.total_mota() == pytest.approx(90.0)


def test_mota_empty_group_absent():
    gt_frames = [frame([partial_pose(gt_person(80, 60, 0), {0, 1, 2})], t) for t in range(3)]
    report = evaluate(seq_of(gt_frames), seq_of(gt_frames))
    assert report.group_mota()["Head"] == pytest.approx(100.0)
    assert report.group_mota()["Wri"] is None


def test_mota_monotone_in_false_positives():
    gt_frames = [frame([gt_person(80, 60, 0)], t) for t in range(4)]
    base = [frame([gt_person(80, 60, 0)], t) for t in range(4)]
    worse = [
        frame([gt_person(80, 60, 0), gt_person(170, 110, 3)], t) for t in range(4)
    ]
    total_base = evaluate(seq_of(gt_frames), seq_of(base)).total_mota()
    total_worse = evaluate(seq_of(gt_frames), seq_of(worse)).total_mota()
    assert total_worse < total_base


# ------------------------------------------------------------ MOTP

def test_motp_exact_is_100():
    frames = [frame([gt_person(80, 60, 0)], t) for t in range(3)]
    assert evaluate(seq_of(frames), seq_of(frames)).motp == pytest.approx(100.0)


def test_motp_at_threshold_is_0():
    gt_frames = [frame([gt_person(80, 60, 0)], 0)]
    pred_frames = [frame([translate_pose(gt_person(80, 60, 0), THRESH, 0)], 0)]
    assert evaluate(seq_of(gt_frames), seq_of(pred_frames)).motp == pytest.approx(0.0, abs=1e-9)


def test_motp_half_and_half():
    gt_frames = [frame([gt_person(80, 60, 0)], 0), frame([gt_person(80, 60, 0)], 1)]
    pred_frames = [
        frame([gt_person(80, 60, 0)], 0),
        frame([translate_pose(gt_person(80, 60, 0), THRESH, 0)], 1),
    ]
    assert evaluate(seq_of(gt_frames), seq_of(pred_frames)).motp == pytest.approx(50.0, abs=1e-9)


def test_motp_absent_without_matches():
    gt_frames = [frame([gt_person(80, 60, 0)], 0)]
    assert evaluate(seq_of(gt_frames), seq_of([frame([], 0)])).motp is None


# ------------------------------------------------------------ AP

def test_map_perfect_predictions():
    frames = [frame([gt_person(80, 60, 0), gt_person(150, 90, 1)], t) for t in range(3)]
    report = evaluate(seq_of(frames), seq_of(frames))
    assert report.mean_ap == pytest.approx(100.0)
    assert all(v == pytest.approx(100.0) for v in report.per_joint_ap.values())


def test_map_zero_without_predictions():
    gt_frames = [frame([gt_person(80, 60, 0)], 0)]
    assert evaluate(seq_of(gt_frames), seq_of([frame([], 0)])).mean_ap == pytest.approx(0.0)


def test_ap_tp_before_fp_scores_100():
    # one GT joint; a correct confident prediction plus a weaker stray:
    # the PR sweep reaches recall 1 at precision 1 before the FP arrives
    gt_frames = [frame([partial_pose(gt_person(80, 60, 0), {0, 2})], 0)]
    tp = partial_pose(stick_pose(80, 60, confidence=0.9), {0})
    fp = partial_pose(stick_pose(140, 120, confidence=0.8), {0})
    pred = [frame([tp, fp], 0)]
    per_joint = evaluate(seq_of(gt_frames), seq_of(pred)).per_joint_ap
    assert per_joint["head_top"] == pytest.approx(100.0)


def test_ap_fp_first_halves_precision():
    gt_frames = [frame([partial_pose(gt_person(80, 60, 0), {0, 2})], 0)]
    tp = partial_pose(stick_pose(80, 60, confidence=0.7), {0})
    fp = partial_pose(stick_pose(140, 120, confidence=0.9), {0})
    pred = [frame([tp, fp], 0)]
    per_joint = evaluate(seq_of(gt_frames), seq_of(pred)).per_joint_ap
    # ranked FP, TP: precision at recall 1 is 1/2
    assert per_joint["head_top"] == pytest.approx(50.0)


def test_ap_invariant_under_monotone_confidence_rescale():
    rng = np.random.default_rng(8)
    gt_frames = [frame([gt_person(80, 60, 0), gt_person(150, 90, 1)], t) for t in range(4)]
    pred_frames = []
    for t in range(4):
        poses = []
        for pose in gt_frames[t].poses:
            joints = tuple(
                None
                if rng.random() < 0.2
                else replace(c, x=c.x + rng.uniform(-3, 3), confidence=float(rng.uniform(0.2, 1)))
                for c in pose.joints
            )
            poses.append(Pose(joints=joints, track_id=pose.track_id))
        pred_frames.append(frame(poses, t))
    mean_a = evaluate(seq_of(gt_frames), seq_of(pred_frames)).mean_ap

    def rescale(f):
        poses = []
        for pose in f.poses:
            joints = tuple(
                None if c is None else replace(c, confidence=c.confidence**3 * 0.5 + 0.1)
                for c in pose.joints
            )
            poses.append(Pose(joints=joints, track_id=pose.track_id))
        return replace(f, poses=tuple(poses))

    mean_b = evaluate(seq_of(gt_frames), seq_of([rescale(f) for f in pred_frames])).mean_ap
    assert mean_b == pytest.approx(mean_a, abs=1e-9)


@given(flags=st.lists(st.booleans(), max_size=80), missed=st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_ap_envelope_equals_the_full_scan(flags, missed):
    n_gt = sum(flags) + missed
    assert _average_precision(flags, n_gt) == scan_average_precision(flags, n_gt)


def test_ap_envelope_equals_the_full_scan_on_thousands_of_flags():
    # A pass over one joint type of a crowd ranks 1-2k predictions.
    rng = np.random.default_rng(2019)
    for size, hit_rate in [(3000, 0.9), (2500, 0.3)]:
        flags = (rng.random(size) < hit_rate).tolist()
        n_gt = sum(flags) + 40
        assert _average_precision(flags, n_gt) == scan_average_precision(flags, n_gt)


# ------------------------------------------------------------ misc

def test_self_consistency_any_tracked_sequence():
    rng = np.random.default_rng(3)
    frames = []
    for t in range(4):
        poses = [
            gt_person(60 + 10 * t + float(rng.uniform(-2, 2)), 60, 0),
            gt_person(160, 60 + 6 * t, 1),
        ]
        frames.append(frame(poses, t))
    seq = seq_of(frames)
    assert evaluate(seq, seq).total_mota() == pytest.approx(100.0)


def test_head_segment_fallback_uses_median(caplog):
    import logging

    full = gt_person(80, 60, 0)
    headless = partial_pose(gt_person(150, 90, 1), set(range(3, 15)))
    gt_frames = [frame([full, headless], 0)]
    with caplog.at_level(logging.WARNING):
        report = evaluate(seq_of(gt_frames), seq_of(gt_frames))
    assert report.total_mota() == pytest.approx(100.0)
    assert any("head segment" in r.message for r in caplog.records)


def test_importing_limbflow_does_not_load_logging():
    # metrics imports logging only in the two places where it logs.
    src = str(Path(limbflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, limbflow; print(sorted(m for m in sys.modules if m.split('.')[0] == 'logging'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_head_segment_needs_visible_head_joints(caplog):
    # An invisible head joint is not there, as in matching: the pose takes
    # the median head length (12 px), not the length of a segment to
    # wherever the invisible joint was put (112 px).
    import logging

    ha = TOPO.head_segment[0]
    hidden = gt_person(200, 150, 1)
    joints = list(hidden.joints)
    joints[ha] = replace(joints[ha], y=joints[ha].y - 100.0, visible=False)
    hidden = replace(hidden, joints=tuple(joints))
    gt = seq_of([frame([gt_person(80, 150, 0), hidden], 0, size=(300, 260))])
    # Person 1 predicted 20 px off: beyond 0.5 x 12 px, within 0.5 x 112 px.
    pred = seq_of([frame([gt_person(80, 150, 0), translate_pose(hidden, 20.0, 0.0)], 0, size=(300, 260))])
    with caplog.at_level(logging.WARNING):
        report = evaluate(gt, pred)
    assert report.total_counts.fn == TOPO.joint_count - 1
    assert any("head segment" in r.message for r in caplog.records)


def test_missing_pred_frame_counts_as_fn():
    gt_frames = [frame([gt_person(80, 60, 0)], t) for t in range(2)]
    pred_frames = [frame([gt_person(80, 60, 0)], 0)]
    report = evaluate(seq_of(gt_frames), seq_of(pred_frames))
    assert report.total_counts.fn == 15
    assert report.total_mota() == pytest.approx(50.0)


def test_report_table_and_dict():
    frames = [frame([gt_person(80, 60, 0)], t) for t in range(2)]
    report = evaluate(seq_of(frames), seq_of(frames))
    table = format_report_table(report)
    assert "Head" in table and "Total" in table and "mAP" in table
    data = report_to_dict(report)
    assert data["mota"]["total"] == pytest.approx(100.0)
    assert data["counts"]["total"]["gt"] == 30


def test_empty_gt_rejected():
    with pytest.raises(ValueError):
        evaluate(seq_of([]), seq_of([]))


@pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -0.5])
def test_thresh_factor_not_finite_and_positive_rejected(factor):
    # A NaN factor matched nothing: every gt joint a miss, MOTA -100.
    frames = [frame([gt_person(80, 60, 0)], t) for t in range(2)]
    with pytest.raises(ValueError, match="thresh_factor must be finite and > 0"):
        evaluate(seq_of(frames), seq_of(frames), thresh_factor=factor)


def test_gt_without_track_ids_rejected():
    # A perfect prediction must not be scored against identity-less ground
    # truth: every gt pose would key to None and charge false ID switches.
    gt_frames = [
        frame([gt_person(80, 60, 0), stick_pose(150, 90)], t) for t in range(3)
    ]
    pred_frames = [
        frame([gt_person(80, 60, 0), gt_person(150, 90, 1)], t) for t in range(3)
    ]
    with pytest.raises(ValueError, match="frame 0 pose 1 has no track id"):
        evaluate(seq_of(gt_frames), seq_of(pred_frames))


def test_prediction_in_another_topology_rejected():
    # Identical poses under reversed joint names scored MOTA 100.
    frames = [frame([gt_person(80, 60, 0)], t) for t in range(2)]
    reversed_names = replace(TOPO, joint_names=TOPO.joint_names[::-1])
    with pytest.raises(ValueError, match="different topologies"):
        evaluate(seq_of(frames), Sequence(frames=tuple(frames), topology=reversed_names))


def test_repeated_frame_index_rejected():
    # Unless rejected, the one pred frame is scored once per gt frame of
    # index 0: a plausible-looking report of gt 30, tp 15, fp 15, mAP 0.
    twice = (frame([gt_person(80, 60, 0)], 0), frame([gt_person(150, 60, 1)], 0))
    once = seq_of([frame([gt_person(80, 60, 0)], 0)])
    with pytest.raises(ValueError, match="ground truth repeats frame index 0"):
        evaluate(TrackedSequence(twice, (), TOPO), once)
    with pytest.raises(ValueError, match="prediction repeats frame index 0"):
        evaluate(once, TrackedSequence(twice, (), TOPO))


def test_gt_repeating_a_track_id_in_a_frame_rejected():
    # Unless rejected, two people of one identity are scored: a 3-person
    # wander with one frame's pose 1 relabelled 0 scored MOTA 88.9.
    frames = [frame([gt_person(80, 60, 0), gt_person(150, 90, 1)], t) for t in range(3)]
    twice = frames[:1] + [frame([gt_person(80, 60, 0), gt_person(150, 90, 0)], 1)] + frames[2:]
    with pytest.raises(ValueError, match="ground truth frame 1 repeats a track id"):
        evaluate(seq_of(twice), seq_of(frames))


# Joints on a coarse grid with three confidence levels, so coincident
# joints and confidence ties are common; one in five is missing and one
# in five of the rest is invisible.
_coord = st.integers(0, 4).map(lambda v: 3.0 * v)
_joint = st.tuples(
    st.integers(0, 4),
    st.builds(
        JointCandidate,
        x=_coord,
        y=_coord,
        confidence=st.sampled_from([0.25, 0.5, 1.0]),
        visible=st.integers(0, 4).map(bool),
    ),
).map(lambda e: e[1] if e[0] else None)


@st.composite
def _eval_inputs(draw, factors=st.floats(0.05, 2.0)):
    gt_indices = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    # Pred frames: most of the gt frames, plus frames the gt lacks.
    pred_indices = [i for i in gt_indices if draw(st.integers(0, 3))]
    pred_indices += draw(st.lists(st.integers(7, 9), max_size=2, unique=True))

    def seq(indices, track_ids, unique_by=None):
        pose = st.builds(
            Pose,
            joints=st.lists(_joint, min_size=TOPO.joint_count, max_size=TOPO.joint_count).map(tuple),
            track_id=track_ids,
        )
        return seq_of(
            FramePoses(i, tuple(draw(st.lists(pose, max_size=4, unique_by=unique_by))), (20, 20))
            for i in sorted(indices)
        )

    # Ground truth holds each id at most once a frame, or evaluate rejects it.
    gt = seq(gt_indices, st.integers(0, 3), unique_by=lambda p: p.track_id)
    pred = seq(pred_indices, st.none() | st.integers(0, 3))
    return gt, pred, draw(factors)


@given(inputs=_eval_inputs())
@settings(max_examples=300, deadline=None)
def test_evaluate_equals_the_two_pass_oracle(inputs):
    gt, pred, thresh_factor = inputs
    try:
        expected = two_pass_evaluate(gt, pred, thresh_factor)
    except ValueError:
        with pytest.raises(ValueError, match="no ground-truth pose has a head segment"):
            evaluate(gt, pred, thresh_factor)
        return
    assert repr(evaluate(gt, pred, thresh_factor)) == repr(expected)


# Factors that put a threshold exactly on the 3 px grid of ``_joint``:
# head segments there are multiples of 3 px, so a gt joint's threshold
# often equals the distance to a pred joint.
@given(inputs=_eval_inputs(st.sampled_from([0.5, 1.0, 4.0 / 3.0, 2.0])))
@settings(max_examples=100, deadline=None)
def test_evaluate_equals_the_two_pass_oracle_at_exact_thresholds(inputs):
    gt, pred, thresh_factor = inputs
    try:
        expected = two_pass_evaluate(gt, pred, thresh_factor)
    except ValueError:
        return
    assert report_to_dict(evaluate(gt, pred, thresh_factor)) == report_to_dict(expected)


# One frame on a unit grid, so 3-4-5 pairs sit exactly at a threshold of 5.
_grid_joint = st.one_of(
    st.none(),
    st.builds(
        JointCandidate,
        x=st.integers(0, 8).map(float),
        y=st.integers(0, 8).map(float),
        confidence=st.sampled_from([0.25, 0.5, 1.0]),
        visible=st.integers(0, 3).map(bool),
    ),
)
_grid_frame = st.lists(
    st.builds(Pose, joints=st.lists(_grid_joint, min_size=3, max_size=3).map(tuple)), max_size=6
).map(lambda poses: FramePoses(0, tuple(poses), (10, 10)))


@given(
    gt=_grid_frame,
    pred=_grid_frame,
    radii=st.lists(
        st.sampled_from([1e-9, 1.0, 2.0, 3.0, 5.0]) | st.floats(0.0, 12.0), min_size=6, max_size=6
    ),
)
@settings(max_examples=400, deadline=None)
def test_match_joints_pckh_equals_the_greedy_oracle(gt, pred, radii):
    thresholds = dict(enumerate(radii))
    assert match_joints_pckh(gt, pred, thresholds) == oracle_match_joints_pckh(gt, pred, thresholds)


@pytest.mark.parametrize(
    "side, joint",
    [
        ("ground truth", {"x": float("nan"), "y": 60.0}),
        ("ground truth", {"x": 80.0, "y": float("inf")}),
        ("prediction", {"x": float("-inf"), "y": 60.0}),
        ("prediction", {"x": 80.0, "y": 60.0, "confidence": float("nan")}),
        ("prediction", {"x": 80.0, "y": 60.0, "confidence": 1.5}),
    ],
)
def test_a_visible_joint_with_a_bad_value_is_rejected(side, joint):
    # Before, a NaN gt joint scored MOTA 83.33 and an inf one MOTP nan. Now
    # such a joint cannot be built, so it never reaches evaluate.
    good = gt_person(80, 60, 0)
    with pytest.raises(ValueError, match=r"^joint (x and y must be finite|confidence must be in \[0, 1\])"):
        bad = replace(good, joints=(good.joints[0], JointCandidate(**joint)) + good.joints[2:])
        gt = seq_of([frame([bad if side == "ground truth" else good], 0)])
        pred = seq_of([frame([bad if side == "prediction" else good], 0)])
        evaluate(gt, pred)
