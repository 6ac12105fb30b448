"""One joint-visibility rule: an invisible joint is not there.

Making a random set of joints invisible must give what deleting them
gives, in scoring (with the flow map drawn from the same frames), in
evaluation and in NMS.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from limbflow.encoder import EncoderConfig, limb_strokes
from limbflow.metrics import evaluate
from limbflow.pose import JointCandidate, Pose, Sequence
from limbflow.scoring import ScoreConfig, build_association_matrix
from limbflow.synth import SceneConfig, apply_corruption, generate_sequence
from limbflow.tracker import _reference_pairing, suppress_duplicate_joints

from helpers import TOPO, frame


def _hidden(frames, rng, p):
    """Two copies of ``frames``: the same random joints made invisible in
    the first and deleted in the second."""
    invisible, deleted = [], []
    for f in frames:
        poses_inv, poses_del = [], []
        for pose in f.poses:
            hide = rng.random(len(pose.joints)) < p
            joints = list(zip(pose.joints, hide))
            inv = tuple(replace(c, visible=False) if h and c is not None else c for c, h in joints)
            poses_inv.append(replace(pose, joints=inv))
            poses_del.append(replace(pose, joints=tuple(None if h else c for c, h in joints)))
        invisible.append(replace(f, poses=tuple(poses_inv)))
        deleted.append(replace(f, poses=tuple(poses_del)))
    return invisible, deleted


def _scene(seed, people=3, frames=3):
    cfg = SceneConfig(people=people, frames=frames, motion="wander", jitter_sigma=1.5, seed=seed)
    gt = generate_sequence(cfg)
    return gt, apply_corruption(gt, cfg)


def _report_or_error(gt, pred):
    try:
        return evaluate(gt, pred)
    except ValueError as exc:  # no gt pose left with a head segment
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.6]))
def test_scores_are_those_of_deleted_joints(scene_seed, mask_seed, p):
    gt, _ = _scene(scene_seed)
    matrices = []
    for earlier, later in _hidden(gt.frames[:2], np.random.default_rng(mask_seed), p):
        strokes = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig())
        matrices.append(build_association_matrix(later, earlier, strokes, TOPO, ScoreConfig()).scores)
    np.testing.assert_array_equal(matrices[0], matrices[1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.6]))
def test_evaluation_is_that_of_deleted_joints(scene_seed, mask_seed, p):
    gt, pred = _scene(scene_seed)
    rng = np.random.default_rng(mask_seed)
    gt_inv, gt_del = _hidden(gt.frames, rng, p)
    pred_inv, pred_del = _hidden(pred.frames, rng, p)
    with_invisible = _report_or_error(Sequence(tuple(gt_inv), TOPO), Sequence(tuple(pred_inv), TOPO))
    with_deleted = _report_or_error(Sequence(tuple(gt_del), TOPO), Sequence(tuple(pred_del), TOPO))
    assert with_invisible == with_deleted


def _visible_kept(f):
    """The visible joints of each pose that keeps one, in pose order."""
    shown = [tuple(c if c is not None and c.visible else None for c in p.joints) for p in f.poses]
    return [joints for joints in shown if any(c is not None for c in joints)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.6]))
def test_nms_keeps_the_visible_joints_of_deleted_joints(scene_seed, mask_seed, p):
    gt, _ = _scene(scene_seed)
    rng = np.random.default_rng(mask_seed)
    # Near duplicates of every pose, with random confidences, for NMS to suppress.
    poses = []
    for pose in gt.frames[0].poses * 2:
        shift = rng.normal(0.0, 3.0, size=(len(pose.joints), 2))
        poses.append(replace(pose, joints=tuple(
            JointCandidate(c.x + dx, c.y + dy, float(rng.uniform(0.1, 1.0)))
            for c, (dx, dy) in zip(pose.joints, shift)
        )))
    (inv,), (dele,) = _hidden([frame(poses, size=gt.frames[0].image_size)], rng, p)
    kept_inv = suppress_duplicate_joints(inv, 5.0, TOPO.joint_count)
    kept_del = suppress_duplicate_joints(dele, 5.0, TOPO.joint_count)
    assert _visible_kept(kept_inv) == _visible_kept(kept_del)
    # An invisible joint is neither suppressed nor suppresses: it stays where it was.
    hidden_in = [(j, c) for p in inv.poses for j, c in enumerate(p.joints) if c is not None and not c.visible]
    hidden_out = [(j, c) for p in kept_inv.poses for j, c in enumerate(p.joints) if c is not None and not c.visible]
    assert sorted(hidden_out, key=repr) == sorted(hidden_in, key=repr)


def test_an_invisible_joint_does_not_suppress_a_visible_one():
    hidden = Pose(joints=(JointCandidate(10, 10, 0.9, visible=False),))
    shown = Pose(joints=(JointCandidate(12, 10, 0.5),))
    out = suppress_duplicate_joints(frame([hidden, shown]), 5.0, 1)
    assert out.poses == (hidden, shown)


def test_joint_reads_only_present_visible_joints():
    shown, hidden = JointCandidate(1, 2), JointCandidate(3, 4, visible=False)
    pose = Pose(joints=(shown, hidden, None))
    assert [pose.joint(j) for j in range(3)] == [shown, None, None]
    assert pose.visible_joints == (shown, None, None)
    assert pose.joints == (shown, hidden, None)  # the raw slots stay
