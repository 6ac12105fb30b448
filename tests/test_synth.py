import importlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbflow.fileio import serialize_annotations
from limbflow.metrics import evaluate
from limbflow.pose import JointCandidate, Pose, Sequence
from limbflow.synth import PRESETS, SceneConfig, apply_corruption, generate_sequence, occlusion_target
from limbflow.tracker import TrackerConfig, track_sequence

from helpers import TOPO, frame, per_joint_corruption, stick_pose


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


def test_each_frame_is_clipped_to_its_own_size():
    # Frame 1 is twice as wide as frame 0; its joints lie beyond frame 0's
    # width, so a clip to frame 0's size would pin them all at x = 159.999.
    gt = Sequence(
        frames=(
            frame([stick_pose(60.0, 40.0, h=40.0)], 0, size=(160, 120)),
            frame([stick_pose(225.0, 100.0, h=40.0)], 1, size=(320, 240)),
        ),
        topology=TOPO,
    )
    cand = apply_corruption(gt, SceneConfig(jitter_sigma=1.0, seed=3))
    for f_gt, f_c in zip(gt.frames, cand.frames):
        w, h = f_gt.image_size
        for c_gt, c in zip(f_gt.poses[0].joints, f_c.poses[0].joints):
            assert 0.0 <= c.x < w and 0.0 <= c.y < h
            assert math.hypot(c.x - c_gt.x, c.y - c_gt.y) < 8.0


def _degrade(seq: Sequence, seed: int, shrink: bool) -> Sequence:
    """Drop and hide some joints, drop every joint of some poses, and with
    ``shrink`` halve every odd frame's image size so that clipping binds
    there."""
    rng = np.random.default_rng(seed)
    frames = []
    for f in seq.frames:
        poses = []
        for pose in f.poses:
            kind = rng.integers(0, 4, len(pose.joints))  # 0 missing, 1 invisible
            if rng.random() < 0.2:
                kind[:] = 0
            joints = tuple(
                None if k == 0 else JointCandidate(c.x, c.y, c.confidence, bool(k != 1))
                for c, k in zip(pose.joints, kind)
            )
            poses.append(Pose(joints=joints, track_id=pose.track_id))
        size = (f.image_size[0] // 2, f.image_size[1] // 2) if shrink and f.frame_index % 2 else f.image_size
        frames.append(replace(f, poses=tuple(poses), image_size=size))
    return Sequence(frames=tuple(frames), topology=seq.topology)


@given(
    preset=st.sampled_from(PRESETS),
    people=st.integers(1, 4),
    frames=st.integers(1, 6),
    jitter_sigma=st.sampled_from([0.0, 0.5, 2.0, 7.5]),
    dropout_prob=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    degrade=st.none() | st.tuples(st.integers(0, 2**32 - 1), st.booleans()),
)
@settings(max_examples=60, deadline=None)
def test_corruption_matches_the_per_joint_oracle(preset, people, frames, jitter_sigma, dropout_prob, seed, degrade):
    gt = generate_sequence(
        SceneConfig(people=people, frames=frames, motion=preset, speed=6, image_size=(224, 160), seed=seed)
    )
    if degrade is not None:
        gt = _degrade(gt, *degrade)
    cfg = SceneConfig(
        people=people, frames=frames, motion=preset, speed=6, image_size=(224, 160),
        jitter_sigma=jitter_sigma, dropout_prob=dropout_prob, seed=seed,
    )
    assert serialize_annotations(apply_corruption(gt, cfg)) == serialize_annotations(per_joint_corruption(gt, cfg))


def test_benchmark_scenes_match_the_per_joint_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS.values():
        for seed in range(10):
            inputs = workloads.build_inputs(workload, seed)
            for i, scene in enumerate(inputs.scenes):
                cfg = SceneConfig(seed=seed * workload.scenes + i, **workload.scene)
                assert scene.candidates_text == serialize_annotations(per_joint_corruption(scene.gt, cfg)), (
                    workload.name, seed, i
                )
