import math

import numpy as np
import pytest

from limbflow.encoder import MOTION_EPSILON, EncoderConfig, FlowMapGrid, encode_limb_flow
from limbflow.pose import JointCandidate, Pose
from limbflow.scoring import (
    FORBIDDEN,
    GATE_SCALES,
    ScoreConfig,
    association_score,
    build_association_matrix,
    distance_score,
    flow_score,
    sample_grid,
)

from helpers import TOPO, frame, partial_pose, raw_strokes_grid, stick_pose, translate_pose

SC = ScoreConfig()
ENC = EncoderConfig(stroke_half_width=2.0)


def _encoded_pair(dx=8.0, dy=0.0, size=(200, 160)):
    earlier = stick_pose(90, 70)
    later = translate_pose(earlier, dx, dy)
    fl, fe = frame([later], 1, size), frame([earlier], 0, size)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, ENC)
    return later, earlier, grid


# ------------------------------------------------------------ flow score

def test_flow_score_true_pair_near_one():
    later, earlier, grid = _encoded_pair()
    s = flow_score(later, earlier, grid, TOPO, SC)
    assert s >= 0.9
    # brute-force the same integral: per joint, per midpoint sample,
    # nearest-cell dot products
    expected = 0.0
    for j in range(15):
        a, b = later.joints[j], earlier.joints[j]
        d = np.array([a.x - b.x, a.y - b.y])
        d = d / np.hypot(*d)
        acc = 0.0
        for i in range(SC.integral_samples):
            u = (i + 0.5) / SC.integral_samples
            x = (1 - u) * a.x + u * b.x
            y = (1 - u) * a.y + u * b.y
            ix, iy = int(round(x)), int(round(y))
            acc += float(grid.vectors[TOPO.joint_channel[j], iy, ix] @ d)
        expected += acc / SC.integral_samples
    assert s == pytest.approx(expected / 15, abs=1e-12)


def test_flow_score_zero_grid():
    later, earlier, _ = _encoded_pair()
    empty = raw_strokes_grid(200, 160, TOPO.limb_count)
    assert flow_score(later, earlier, empty, TOPO, SC) == 0.0


def test_flow_score_swapped_roles_negates():
    later, earlier, grid = _encoded_pair()
    fwd = flow_score(later, earlier, grid, TOPO, SC)
    bwd = flow_score(earlier, later, grid, TOPO, SC)
    assert bwd == pytest.approx(-fwd, abs=1e-12)


def test_flow_score_no_common_joints_sentinel():
    later, earlier, grid = _encoded_pair()
    a = partial_pose(later, {0, 1})
    b = partial_pose(earlier, {5, 6})
    assert flow_score(a, b, grid, TOPO, SC) == FORBIDDEN


def test_flow_score_static_joint_contributes_zero():
    later, earlier, grid = _encoded_pair()
    # a pose whose joints coincide with the earlier frame: zero displacement
    s = flow_score(earlier, earlier, grid, TOPO, SC)
    assert s == 0.0


def test_flow_score_corrupted_directions_never_beat_truth():
    later, earlier, grid = _encoded_pair(9.0, 3.0)
    truth = flow_score(later, earlier, grid, TOPO, SC)
    for deg in (90, 135, 180, -90, -135):
        th = math.radians(deg)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        joints = []
        for j in range(15):
            a, b = later.joints[j], earlier.joints[j]
            d = rot @ np.array([a.x - b.x, a.y - b.y])
            joints.append(JointCandidate(a.x - d[0], a.y - d[1]))
        corrupted = Pose(joints=tuple(joints))
        assert flow_score(later, corrupted, grid, TOPO, SC) <= truth


def test_flow_score_convergence_in_samples():
    later, earlier, grid = _encoded_pair(9.0, 4.0)
    vals = {
        u: flow_score(later, earlier, grid, TOPO, ScoreConfig(integral_samples=u))
        for u in (10, 20, 40, 80)
    }
    d1 = abs(vals[10] - vals[20])
    d2 = abs(vals[20] - vals[40])
    d3 = abs(vals[40] - vals[80])
    assert d1 >= d2 >= d3


def test_sample_grid_outside_reads_zero():
    _, _, grid = _encoded_pair()
    pts = np.array([[-5.0, 10.0], [1e5, 10.0], [10.0, -0.01]])
    assert np.all(sample_grid(grid, 0, pts) == 0)


@pytest.mark.parametrize(
    "move, expected",
    [(1e-7, 0.5), (MOTION_EPSILON, 0.5), (float(np.nextafter(MOTION_EPSILON, 1.0)), 1.0)],
)
def test_a_joint_within_the_motion_epsilon_adds_0_but_counts(move, expected):
    # Two common joints on a flow map of (1, 0) everywhere: joint 1 moves
    # (5, 0) and reads 1; joint 0 moves ``move`` px from x = 0, so its
    # displacement is exactly ``move``, and it reads 1 only past the constant.
    pad = (None,) * (TOPO.joint_count - 2)
    earlier = Pose((JointCandidate(0.0, 10.0), JointCandidate(20.0, 10.0)) + pad)
    later = Pose((JointCandidate(move, 10.0), JointCandidate(25.0, 10.0)) + pad)
    vectors = np.zeros((TOPO.limb_count, 20, 40, 2))
    vectors[..., 0] = 1.0
    grid = FlowMapGrid("individual", TOPO.limb_count, 40, 20, vectors, None)
    cfg = ScoreConfig(alpha=1.0)
    assert flow_score(later, earlier, grid, TOPO, cfg) == expected
    assert build_association_matrix([later], [earlier], grid, TOPO, cfg).scores[0, 0] == expected


# ------------------------------------------------------------ distance

def test_distance_identical_poses():
    p = stick_pose(50, 50)
    assert distance_score(p, p) == 0.0


def test_distance_uniform_offset_345():
    p = stick_pose(50, 50)
    q = translate_pose(p, 3, 4)
    assert distance_score(p, q) == pytest.approx(5.0)


def test_distance_two_common_joints_hand_mean():
    p = stick_pose(50, 50)
    a = partial_pose(p, {0, 1})
    b_joints = list(p.joints)
    b_joints[0] = JointCandidate(p.joints[0].x + 1, p.joints[0].y)
    b_joints[1] = JointCandidate(p.joints[1].x, p.joints[1].y + 2)
    b = partial_pose(Pose(joints=tuple(b_joints)), {0, 1})
    assert distance_score(a, b) == pytest.approx(1.5)  # (1 + 2) / 2


def test_distance_no_common_sentinel():
    p = stick_pose(50, 50)
    assert distance_score(partial_pose(p, {0}), partial_pose(p, {1})) == FORBIDDEN


# ------------------------------------------------------------ association

def test_association_alpha_one_is_flow():
    cfg = ScoreConfig(alpha=1.0)
    assert association_score(0.73, 12.0, cfg) == pytest.approx(0.73)


def test_association_alpha_zero_distance_zero():
    cfg = ScoreConfig(alpha=0.0)
    assert association_score(0.73, 0.0, cfg) == pytest.approx(1.0)


def test_association_mixed_hand_value():
    cfg = ScoreConfig(alpha=0.5, distance_scale=32.0)
    got = association_score(0.8, 32.0, cfg)
    assert got == pytest.approx(0.5 * 0.8 + 0.5 * math.exp(-1.0))
    assert got == pytest.approx(0.5839397205857212, abs=1e-12)


def test_association_sentinel_propagates():
    assert association_score(FORBIDDEN, 3.0, SC) == FORBIDDEN
    assert association_score(0.5, FORBIDDEN, SC) == FORBIDDEN


def test_association_monotone_in_flow():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s1, s2 = sorted(rng.uniform(-1, 1, size=2))
        d = float(rng.uniform(0, 100))
        assert association_score(s1, d, SC) <= association_score(s2, d, SC)


def test_association_bounds():
    rng = np.random.default_rng(4)
    for _ in range(100):
        cfg = ScoreConfig(alpha=float(rng.uniform(0, 1)))
        d = float(rng.uniform(0, 500))
        s = association_score(float(rng.uniform(-1, 1)), d, cfg)
        if d > GATE_SCALES * cfg.distance_scale:
            assert s == FORBIDDEN  # beyond the motion gate
        else:
            assert -cfg.alpha - 1e-12 <= s <= 1.0 + 1e-12


# ------------------------------------------------------------ matrix

def test_matrix_single_static_pose():
    p = stick_pose(60, 60)
    fl, fe = frame([p], 1), frame([p], 0)
    grid = encode_limb_flow(fl, fe, [(0, 0)], TOPO, ENC)
    m = build_association_matrix(fl, fe, grid, TOPO, SC)
    assert m.shape == (1, 1)
    # zero motion: flow term 0, distance term exp(0) = 1
    assert m.scores[0, 0] == pytest.approx(SC.alpha * 0 + (1 - SC.alpha) * 1.0)


def test_matrix_crossing_diagonal_dominates():
    a_e = stick_pose(80, 70)
    b_e = translate_pose(stick_pose(80, 70, h=52), 14, 6)
    a_l = translate_pose(a_e, 10, 0)
    b_l = translate_pose(b_e, -10, 0)
    fl, fe = frame([a_l, b_l], 1), frame([a_e, b_e], 0)
    grid = encode_limb_flow(fl, fe, [(0, 0), (1, 1)], TOPO, ENC)
    m = build_association_matrix(fl, fe, grid, TOPO, SC).scores
    assert m[0, 0] > m[0, 1]
    assert m[1, 1] > m[1, 0]
    assert m[0, 0] + m[1, 1] > m[0, 1] + m[1, 0]


def test_matrix_empty_earlier_frame():
    p = stick_pose(60, 60)
    fl, fe = frame([p], 1), frame([], 0)
    grid = encode_limb_flow(fl, fe, [], TOPO, ENC)
    m = build_association_matrix(fl, fe, grid, TOPO, SC)
    assert m.shape == (1, 0)
