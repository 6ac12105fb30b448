import math

import numpy as np
import pytest

from limbflow.metrics import evaluate
from limbflow.synth import PRESETS, SceneConfig, apply_corruption, generate_sequence, occlusion_target
from limbflow.tracker import TrackerConfig, track_sequence


def test_static_preset_identical_frames():
    cfg = SceneConfig(people=2, frames=6, motion="static", seed=4)
    seq = generate_sequence(cfg)
    first = seq.frames[0]
    for f in seq.frames[1:]:
        for p, q in zip(first.poses, f.poses):
            assert p.joints == q.joints


def test_crossing_min_centroid_distance_interior():
    cfg = SceneConfig(people=2, frames=9, motion="crossing", speed=10, image_size=(192, 120), seed=8)
    seq = generate_sequence(cfg)
    dists = []
    for f in seq.frames:
        (ax, ay), (bx, by) = f.poses[0].centroid(), f.poses[1].centroid()
        dists.append(math.hypot(ax - bx, ay - by))
    k = int(np.argmin(dists))
    assert 0 < k < len(dists) - 1


def test_same_seed_identical():
    cfg = SceneConfig(people=3, frames=7, motion="wander", seed=123)
    a, b = generate_sequence(cfg), generate_sequence(cfg)
    assert a == b
    ca, cb = apply_corruption(a, cfg), apply_corruption(b, cfg)
    assert ca == cb


def test_different_seeds_differ():
    a = generate_sequence(SceneConfig(motion="wander", seed=1))
    b = generate_sequence(SceneConfig(motion="wander", seed=2))
    assert a != b


def test_all_joints_in_bounds():
    for preset in PRESETS:
        cfg = SceneConfig(people=3, frames=8, motion=preset, speed=7, image_size=(224, 160), seed=6)
        seq = generate_sequence(cfg)
        for f in seq.frames:
            assert f.out_of_bounds_joints() == []


def test_ground_truth_track_ids():
    seq = generate_sequence(SceneConfig(people=3, frames=4, motion="static", image_size=(224, 160), seed=0))
    for f in seq.frames:
        assert [p.track_id for p in f.poses] == [0, 1, 2]


def test_limb_length_conservation_exact():
    cfg = SceneConfig(people=2, frames=10, motion="wander", speed=9, seed=31)
    seq = generate_sequence(cfg)
    topo = seq.topology
    for p in range(cfg.people):
        ref = None
        for f in seq.frames:
            pose = next(q for q in f.poses if q.track_id == p)
            lengths = tuple(
                math.hypot(
                    pose.joints[a].x - pose.joints[b].x,
                    pose.joints[a].y - pose.joints[b].y,
                )
                for a, b in topo.limbs
            )
            if ref is None:
                ref = lengths
            else:
                assert lengths == ref  # bitwise equal, not approx


def test_infeasible_layout_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        generate_sequence(SceneConfig(people=2, frames=30, motion="crossing", speed=50, image_size=(64, 64)))


def test_corruption_noiseless_identity_except_ids():
    cfg = SceneConfig(people=2, frames=5, motion="wander", speed=5, seed=2)
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    for f_gt, f_c in zip(gt.frames, cand.frames):
        assert len(f_c.poses) == len(f_gt.poses)
        gt_xy = sorted((c.x, c.y) for p in f_gt.poses for c in p.joints)
        c_xy = sorted((c.x, c.y) for p in f_c.poses for c in p.joints)
        assert gt_xy == c_xy
        assert all(p.track_id is None for p in f_c.poses)
        assert all(c.confidence == 1.0 for p in f_c.poses for c in p.joints)


def test_corruption_dropout_one_empties_frames():
    cfg = SceneConfig(people=2, frames=4, motion="static", dropout_prob=1.0, seed=3)
    cand = apply_corruption(generate_sequence(SceneConfig(people=2, frames=4, motion="static", seed=3)), cfg)
    assert all(len(f.poses) == 0 for f in cand.frames)


def test_occlusion_removes_exactly_one_pose_at_middle():
    cfg = SceneConfig(people=3, frames=9, motion="occlusion-middle", speed=6, image_size=(224, 160), seed=12)
    gt = generate_sequence(cfg)
    cand = apply_corruption(gt, cfg)
    occ_frame, _ = occlusion_target(cfg)
    for f in cand.frames:
        expected = 2 if f.frame_index == occ_frame else 3
        assert len(f.poses) == expected


def test_corruption_jitter_confidence_decays():
    cfg = SceneConfig(people=1, frames=3, motion="static", jitter_sigma=3.0, seed=5)
    gt = generate_sequence(SceneConfig(people=1, frames=3, motion="static", seed=5))
    cand = apply_corruption(gt, cfg)
    gt_pose = gt.frames[0].poses[0]
    c_pose = cand.frames[0].poses[0]
    for j in range(15):
        noise = math.hypot(
            c_pose.joints[j].x - gt_pose.joints[j].x,
            c_pose.joints[j].y - gt_pose.joints[j].y,
        )
        expected = math.exp(-noise / (2 * cfg.jitter_sigma))
        # clamping at image borders may shrink the observable noise; the
        # stored confidence then underestimates, never overestimates
        assert c_pose.joints[j].confidence <= expected + 1e-9
        assert 0 < c_pose.joints[j].confidence <= 1


def test_pipeline_closure_mota_100():
    # noiseless candidates track back to a perfect bijection with GT ids
    for preset in ("wander", "static"):
        cfg = SceneConfig(people=3, frames=7, motion=preset, speed=6, image_size=(224, 160), seed=17)
        gt = generate_sequence(cfg)
        out = track_sequence(apply_corruption(gt, cfg), TrackerConfig())
        report = evaluate(gt, out)
        assert report.total_mota() == pytest.approx(100.0)
        assert report.motp == pytest.approx(100.0)
        assert report.mean_ap == pytest.approx(100.0)
