from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbflow.pose import FramePoses, JointCandidate, Pose, Sequence, common_joints

from helpers import TOPO, partial_pose, stick_pose


def test_common_joints_identical_full_poses():
    p = stick_pose(100, 80)
    assert common_joints(p, p) == list(range(15))


def test_common_joints_disjoint():
    p = stick_pose(100, 80)
    a = partial_pose(p, {0, 1, 2})
    b = partial_pose(p, {5, 6})
    assert common_joints(a, b) == []


def test_common_joints_intersection():
    p = stick_pose(100, 80)
    a = partial_pose(p, {0, 1, 2})
    b = partial_pose(p, {1, 2, 3})
    assert common_joints(a, b) == [1, 2]


def test_common_joints_respects_visibility():
    p = stick_pose(100, 80)
    joints = list(p.joints)
    joints[3] = JointCandidate(joints[3].x, joints[3].y, visible=False)
    q = Pose(joints=tuple(joints))
    assert 3 not in common_joints(p, q)
    assert 3 not in common_joints(q, p)


@given(
    a=st.sets(st.integers(min_value=0, max_value=14)),
    b=st.sets(st.integers(min_value=0, max_value=14)),
)
@settings(max_examples=60, deadline=None)
def test_common_joints_symmetric_and_bounded(a, b):
    base = stick_pose(60, 60)
    pa, pb = partial_pose(base, a), partial_pose(base, b)
    fwd = common_joints(pa, pb)
    assert fwd == common_joints(pb, pa)
    assert len(fwd) <= min(len(pa.present_joints()), len(pb.present_joints()))
    assert fwd == sorted(a & b)


def test_pose_length_mismatch_rejected():
    p = stick_pose(10, 10)
    q = Pose(joints=p.joints[:10])
    with pytest.raises(ValueError):
        common_joints(p, q)


def test_a_joint_checks_its_own_values():
    # Every stage relies on this rule; none checks a joint it is given.
    nan, inf = float("nan"), float("inf")
    bad = [{"x": v} for v in (nan, inf, -inf, 10**400)]
    bad += [{"y": v} for v in (nan, inf, -inf, 10**400)]
    bad += [{"confidence": v} for v in (nan, -0.1, 1.5)]
    good = [{"x": 1e300}, {"y": -1e300}, {"x": -0.0}, {"confidence": 0.0}, {"confidence": 1.0}]
    for visible in (True, False):
        base = JointCandidate(5.0, 5.0, 0.5, visible)
        for change in bad:
            with pytest.raises(ValueError):
                JointCandidate(**{"x": 5.0, "y": 5.0, "confidence": 0.5, "visible": visible, **change})
            with pytest.raises(ValueError):
                replace(base, **change)
        for change in good:
            joint = JointCandidate(**{"x": 5.0, "y": 5.0, "confidence": 0.5, "visible": visible, **change})
            assert replace(base, **change) == joint


def test_a_joint_is_a_frozen_value():
    # Built by a hand-written __init__; the dataclass methods are unchanged.
    joint = JointCandidate(1.5, -2.0, visible=False)
    assert repr(joint) == "JointCandidate(x=1.5, y=-2.0, confidence=1.0, visible=False)"
    assert joint == JointCandidate(x=1.5, y=-2.0, confidence=1.0, visible=False)
    assert hash(joint) == hash(JointCandidate(1.5, -2.0, 1.0, False))
    assert joint != JointCandidate(1.5, -2.0)
    assert replace(joint, visible=True) == JointCandidate(1.5, -2.0)
    with pytest.raises(FrozenInstanceError):
        joint.x = 0.0
    with pytest.raises(ValueError, match=r"joint x and y must be finite, got \(nan, 1\.0\)"):
        JointCandidate(float("nan"), 1.0)
    with pytest.raises(ValueError, match=r"joint confidence must be in \[0, 1\], got 1\.5"):
        replace(joint, confidence=1.5)


def test_centroid():
    p = stick_pose(100, 80, h=50)
    cx, cy = p.centroid()
    xs = [c.x for c in p.joints]
    ys = [c.y for c in p.joints]
    assert cx == pytest.approx(np.mean(xs))
    assert cy == pytest.approx(np.mean(ys))
    assert Pose(joints=(None,) * 15).centroid() is None


def test_sequence_requires_increasing_indices():
    f0 = FramePoses(0, (), (64, 64))
    f1 = FramePoses(1, (), (64, 64))
    Sequence(frames=(f0, f1), topology=TOPO)
    with pytest.raises(ValueError):
        Sequence(frames=(f1, f0), topology=TOPO)
    with pytest.raises(ValueError):
        Sequence(frames=(f0, f0), topology=TOPO)


def test_out_of_bounds_flags():
    inside = stick_pose(100, 80)
    outside = stick_pose(-50, 80)
    f = FramePoses(0, (inside, outside), (200, 160))
    bad = f.out_of_bounds_joints()
    assert all(pi == 1 for pi, _ in bad)
    assert bad


def test_frame_by_index():
    f0 = FramePoses(0, (), (64, 64))
    f2 = FramePoses(2, (), (64, 64))
    seq = Sequence(frames=(f0, f2), topology=TOPO)
    assert seq.frame_by_index(2) is f2
    with pytest.raises(KeyError):
        seq.frame_by_index(1)
