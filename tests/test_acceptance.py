"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here; scene constructions live in helpers.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from limbflow.assignment import assignment_total, hungarian
from limbflow.augment import StrideConfig, sample_frame_pair
from limbflow.encoder import EncoderConfig, encode_limb_flow, limb_parts
from limbflow.fileio import (
    flowmap_from_bytes,
    flowmap_to_bytes,
    parse_annotations,
    serialize_annotations,
)
from limbflow.metrics import evaluate
from limbflow.pose import FramePoses, JointCandidate, Pose, Sequence
from limbflow.scoring import ScoreConfig, flow_score
from limbflow.synth import SceneConfig, apply_corruption, generate_sequence, occlusion_target
from limbflow.tracker import SequenceFlowSource, TrackerConfig, track_sequence

from helpers import (
    BENCH_ENCODER,
    TOPO,
    association_scene,
    brute_encode,
    brute_force_assignment,
    crossing_benchmark_config,
    frame,
    limb_aliasing_scene,
    partial_pose,
    stick_pose,
    translate_pose,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    print(f"\n[PASS] criterion {num}: {label}")


def _random_pose_pair(rng):
    """1-2 people, random heights, random displacement, random joint drops."""
    size = (96, 72)
    n_people = int(rng.integers(1, 3))
    later, earlier = [], []
    for p in range(n_people):
        h = float(rng.uniform(24, 38))
        cx = float(rng.uniform(25, 70))
        cy = float(rng.uniform(18, 40))
        pose = stick_pose(cx, cy, h)
        if rng.random() < 0.4:
            keep = set(int(j) for j in rng.choice(15, size=int(rng.integers(6, 15)), replace=False))
            pose = partial_pose(pose, keep)
        moved = translate_pose(pose, float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        earlier.append(pose)
        later.append(moved)
    pairing = [(i, i) for i in range(n_people)]
    return frame(later, 1, size), frame(earlier, 0, size), pairing


def test_criterion_1_and_2_encoder_oracle_norms():
    with criterion(1, "encoder matches brute-force recomputation on 200 seeded pairs"):
        t0 = time.time()
        max_err = 0.0
        max_norm = 0.0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            fl, fe, pairing = _random_pose_pair(rng)
            cfg = EncoderConfig(stroke_half_width=float(rng.uniform(0.8, 2.5)))
            grid = encode_limb_flow(fl, fe, pairing, TOPO, cfg)
            vectors, counts = brute_encode(fl, fe, pairing, TOPO, cfg)
            assert np.array_equal(grid.counts, counts)
            err = float(np.abs(grid.vectors - vectors).max()) if counts.any() else 0.0
            max_err = max(max_err, err)
            norms = np.sqrt((grid.vectors**2).sum(-1))
            max_norm = max(max_norm, float(norms.max()))
            assert err < 1e-6
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
        print(f"  max cell error {max_err:.2e}, max norm {max_norm:.9f}, {elapsed:.1f}s")

    with criterion(2, "norm bound and identical-frame zero grids"):
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            fl, fe, pairing = _random_pose_pair(rng)
            grid = encode_limb_flow(fl, fe, pairing, TOPO, EncoderConfig())
            norms = np.sqrt((grid.vectors**2).sum(-1))
            assert float(norms.max()) <= 1 + 1e-9
            same = encode_limb_flow(fl, fl, pairing, TOPO, EncoderConfig())
            assert np.all(same.vectors == 0.0)
            assert same.counts.sum() == 0


def test_criterion_3_association_correctness():
    with criterion(3, "ground-truth pairing wins; hungarian equals brute force"):
        enc = EncoderConfig(stroke_half_width=2.0)
        sc = ScoreConfig()
        identity_best = 0
        hungarian_exact = 0
        total = 100
        for seed in range(total):
            fe, fl, n = association_scene(seed)
            grid = encode_limb_flow(fl, fe, [(i, i) for i in range(n)], TOPO, enc)
            scores = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    scores[i, j] = flow_score(fl.poses[i], fe.poses[j], grid, TOPO, sc)
            ident = float(np.trace(scores))
            strictly_best = all(
                sum(scores[i, p[i]] for i in range(n)) < ident - 1e-12
                for p in itertools.permutations(range(n))
                if p != tuple(range(n))
            )
            identity_best += strictly_best
            pairs = hungarian(scores)
            brute_pairs, brute_total = brute_force_assignment(scores)
            hungarian_exact += (
                len(pairs) == len(brute_pairs)
                and abs(assignment_total(scores, pairs) - brute_total) < 1e-9
            )
        print(f"  identity strictly best {identity_best}/100, hungarian exact {hungarian_exact}/100")
        assert identity_best >= 95
        assert hungarian_exact == 100


def test_criterion_4_distance_vs_flow_ablation():
    with criterion(4, "crossing benchmark: alpha=0.5 beats alpha=0 by >= 10 MOTA"):
        gaps = []
        noiseless_switches = 0
        for seed in range(50):
            cfg = crossing_benchmark_config(seed)
            gt = generate_sequence(cfg)
            flow = SequenceFlowSource(gt, BENCH_ENCODER)
            cand = apply_corruption(gt, cfg)
            out_flow = track_sequence(cand, TrackerConfig(encoder=BENCH_ENCODER), flow)
            out_dist = track_sequence(
                cand, TrackerConfig(score=ScoreConfig(alpha=0.0), encoder=BENCH_ENCODER), flow
            )
            gaps.append(
                evaluate(gt, out_flow).total_mota() - evaluate(gt, out_dist).total_mota()
            )
            clean = apply_corruption(gt, replace(cfg, jitter_sigma=0.0))
            out_clean = track_sequence(clean, TrackerConfig(encoder=BENCH_ENCODER), flow)
            noiseless_switches += evaluate(gt, out_clean).total_counts.idsw
        mean_gap = float(np.mean(gaps))
        print(f"  mean MOTA gap {mean_gap:.2f}, noiseless id switches {noiseless_switches}")
        assert mean_gap >= 10.0
        assert noiseless_switches == 0


def test_criterion_5_individual_vs_accumulated():
    with criterion(5, "individual channels >= accumulated on >= 80% of aliasing scenes"):
        at_least = 0
        strict = 0
        total = 50
        for seed in range(total):
            gt, cand = limb_aliasing_scene(seed)
            results = {}
            for layout in ("individual", "accumulated"):
                enc = EncoderConfig(stroke_half_width=2.0, layout=layout)
                out = track_sequence(cand, TrackerConfig(encoder=enc), SequenceFlowSource(gt, enc))
                results[layout] = evaluate(gt, out).total_mota()
            at_least += results["individual"] >= results["accumulated"]
            strict += results["individual"] > results["accumulated"]
        print(f"  individual >= accumulated on {at_least}/{total} seeds ({strict} strictly)")
        assert at_least >= 0.8 * total
        assert strict >= 1  # the suite actually exercises the failure mode


def test_criterion_6_refinement():
    with criterion(6, "occlusion-middle pose restored with original id"):
        restored = 0
        total = 50
        for seed in range(total):
            cfg = SceneConfig(
                people=2, frames=9, image_size=(192, 120),
                motion="occlusion-middle", speed=8.0, seed=seed,
            )
            gt = generate_sequence(cfg)
            cand = apply_corruption(gt, cfg)
            occ_frame, _ = occlusion_target(cfg)
            tcfg = TrackerConfig()
            out = track_sequence(cand, tcfg, SequenceFlowSource(gt, tcfg.encoder))
            if len(out.refinement_log) != 1:
                continue
            entry = out.refinement_log[0]
            if entry.frame_index != occ_frame:
                continue
            prev = {p.track_id: p for p in out.frames[occ_frame - 1].poses}
            nxt = {p.track_id: p for p in out.frames[occ_frame + 1].poses}
            mid = [p for p in out.frames[occ_frame].poses if p.track_id == entry.track_id]
            if entry.track_id not in prev or entry.track_id not in nxt or len(mid) != 1:
                continue
            pa, pb, pm = prev[entry.track_id], nxt[entry.track_id], mid[0]
            exact = all(
                abs(pm.joints[j].x - (pa.joints[j].x + pb.joints[j].x) / 2) < 1e-6
                and abs(pm.joints[j].y - (pa.joints[j].y + pb.joints[j].y) / 2) < 1e-6
                for j in range(15)
                if pm.joints[j] is not None
            )
            restored += exact
        print(f"  restored {restored}/{total}")
        assert restored >= 0.95 * total

        # pink-line case: the person never comes back, nothing to average
        zero_insert = True
        for seed in range(10):
            cfg = SceneConfig(
                people=2, frames=9, image_size=(192, 120),
                motion="occlusion-middle", speed=8.0, seed=seed,
            )
            gt = generate_sequence(cfg)
            cand = apply_corruption(gt, cfg)
            occ_frame, occ_track = occlusion_target(cfg)
            frames = []
            for f in cand.frames:
                if f.frame_index >= occ_frame:
                    ref = gt.frames[f.frame_index].poses[occ_track].centroid()
                    keep = [
                        p
                        for p in f.poses
                        if p.centroid() is None
                        or math.hypot(p.centroid()[0] - ref[0], p.centroid()[1] - ref[1]) > 1.0
                    ]
                    frames.append(replace(f, poses=tuple(keep)))
                else:
                    frames.append(f)
            gone = Sequence(frames=tuple(frames), topology=cand.topology)
            tcfg = TrackerConfig()
            out = track_sequence(gone, tcfg, SequenceFlowSource(gt, tcfg.encoder))
            zero_insert &= len(out.refinement_log) == 0
        assert zero_insert


def _person(cx, cy, tid, h=50.0, conf=1.0):
    return stick_pose(cx, cy, h=h, track_id=tid, confidence=conf)


def _seq(frames):
    return Sequence(frames=tuple(frames), topology=TOPO)


def test_criterion_7_metric_ledger():
    with criterion(7, "metric self-consistency and hand-computed ledger"):
        head_len = 0.24 * 50
        thresh = 0.5 * head_len
        cases = []

        # 1: perfect two-person scene
        gt = _seq([frame([_person(80, 60, 0), _person(150, 60, 1)], t) for t in range(5)])
        cases.append(("perfect", gt, gt, 100.0, 100.0, 100.0))

        # 2: one fully missed frame of ten
        gt2 = _seq([frame([_person(80, 60, 0)], t) for t in range(10)])
        pred2 = _seq([frame([] if t == 3 else [_person(80, 60, 0)], t) for t in range(10)])
        cases.append(("missed frame", gt2, pred2, 90.0, 100.0, 90.0))

        # 3: one spurious pose in one of ten frames; AP by hand: the FP ranks
        # 6th of 11 per joint, envelope 1.0 to recall .5 then 10/11
        pred3_frames = [frame([_person(80, 60, 0)], t) for t in range(10)]
        pred3_frames[4] = frame([_person(80, 60, 0), _person(170, 100, 9)], 4)
        ap3 = 100 * (0.5 * 1.0 + 0.5 * (10 / 11))
        cases.append(("spurious pose", gt2, _seq(pred3_frames), 90.0, 100.0, ap3))

        # 4: identity swap at half time: 2 tracks x 15 joints charged once
        gt4 = _seq([frame([_person(60, 60, 0), _person(160, 60, 1)], t) for t in range(10)])
        pred4 = _seq(
            [
                frame(
                    [_person(60, 60, 0 if t < 5 else 1), _person(160, 60, 1 if t < 5 else 0)], t
                )
                for t in range(10)
            ]
        )
        cases.append(("id swap", gt4, pred4, 100 * (1 - 30 / 300), 100.0, 100.0))

        # 5: half of the matches exact, half at the PCKh threshold
        gt5 = _seq([frame([_person(80, 60, 0)], t) for t in range(2)])
        pred5 = _seq(
            [
                frame([_person(80, 60, 0)], 0),
                frame([translate_pose(_person(80, 60, 0), thresh, 0)], 1),
            ]
        )
        cases.append(("half at threshold", gt5, pred5, 100.0, 50.0, 100.0))

        # 6: every match exactly at the threshold
        pred6 = _seq(
            [frame([translate_pose(_person(80, 60, 0), thresh, 0)], t) for t in range(2)]
        )
        cases.append(("all at threshold", gt5, pred6, 100.0, 0.0, 100.0))

        # 7: one of two frames entirely missing from the prediction
        pred7 = _seq([frame([_person(80, 60, 0)], 0)])
        cases.append(("missing frame", gt5, pred7, 50.0, 100.0, 50.0))

        # 8: ground truth restricted to head joints
        gt8 = _seq([frame([partial_pose(_person(80, 60, 0), {0, 1, 2})], t) for t in range(3)])
        cases.append(("head only", gt8, gt8, 100.0, 100.0, 100.0))

        # 9: every joint predicted twice (strong exact + weak stray in range):
        # the stray is an unmatched FP at every joint: MOTA 0
        strong = _person(80, 60, 0, conf=0.9)
        weak = translate_pose(_person(80, 60, 0, conf=0.8), thresh / 2, 0)
        pred9 = _seq([frame([strong, weak], t) for t in range(2)])
        cases.append(("doubled joints", gt5, pred9, 0.0, 100.0, 100.0))

        # 10: all matches at half the threshold
        pred10 = _seq(
            [frame([translate_pose(_person(80, 60, 0), thresh / 2, 0)], t) for t in range(2)]
        )
        cases.append(("half threshold", gt5, pred10, 100.0, 50.0, 100.0))

        for name, gt_seq, pred_seq, want_mota, want_motp, want_map in cases:
            report = evaluate(gt_seq, pred_seq)
            assert report.total_mota() == pytest.approx(want_mota, abs=0.01), name
            assert report.motp == pytest.approx(want_motp, abs=0.01), name
            assert report.mean_ap == pytest.approx(want_map, abs=0.01), name

        # self-consistency is exact, not approximate
        assert evaluate(gt, gt).total_mota() == 100.0
        print(f"  {len(cases)} ledger cases verified")


def test_criterion_8_stride_sampler_law():
    with criterion(8, "stride law uniform; stride-4 strokes >= 3x stride-1"):
        from scipy import stats

        cfg = StrideConfig(max_stride=4, rng_seed=7)
        counts = np.zeros(4)
        n = 10_000
        for i in range(n):
            t1, t2 = sample_frame_pair(100, cfg, i)
            counts[t2 - t1 - 1] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 0.25) <= 0.02)
        p_value = stats.chisquare(counts).pvalue
        print(f"  stride freqs {freqs.tolist()}, chi-square p {p_value:.3f}")
        assert p_value > 0.01

        scene = SceneConfig(
            people=2, frames=9, image_size=(192, 120),
            motion="occlusion-middle", speed=3.0, seed=1,
        )
        gt = generate_sequence(scene)
        enc = EncoderConfig()
        pairing = [(0, 0), (1, 1)]

        def mean_stroke(later, earlier):
            parts = limb_parts(gt.frames[later], gt.frames[earlier], pairing, TOPO, enc)
            return float(np.mean([p.stroke_length() for p in parts]))

        ratio = mean_stroke(4, 0) / mean_stroke(1, 0)
        print(f"  stride-4 / stride-1 mean stroke length = {ratio:.2f}")
        assert ratio >= 3.0


def test_criterion_9_round_trips():
    with criterion(9, "flow-map byte identity and annotation canonical identity"):
        rng = np.random.default_rng(99)
        from limbflow.encoder import FlowMapGrid

        for i in range(100):
            layout = "individual" if i % 2 == 0 else "accumulated"
            limb_count = int(rng.integers(0, 6))
            w, h = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            pairs = limb_count if layout == "individual" else 1
            vectors = (
                rng.uniform(-1, 1, size=(pairs, h, w, 2)).astype(np.float32).astype(np.float64)
            )
            grid = FlowMapGrid(layout, limb_count, w, h, vectors, None)
            blob = flowmap_to_bytes(grid)
            assert flowmap_to_bytes(flowmap_from_bytes(blob)) == blob

        for i in range(100):
            rng_doc = np.random.default_rng(3000 + i)
            frames = []
            for t in range(int(rng_doc.integers(1, 4))):
                poses = []
                for _ in range(int(rng_doc.integers(0, 3))):
                    joints = tuple(
                        None
                        if rng_doc.random() < 0.3
                        else JointCandidate(
                            float(rng_doc.uniform(0, 199)),
                            float(rng_doc.uniform(0, 159)),
                            float(np.round(rng_doc.uniform(0, 1), 9)),
                            bool(rng_doc.random() < 0.9),
                        )
                        for _ in range(15)
                    )
                    poses.append(
                        Pose(
                            joints=joints,
                            track_id=int(rng_doc.integers(0, 9)) if rng_doc.random() < 0.5 else None,
                        )
                    )
                frames.append(FramePoses(t, tuple(poses), (200, 160)))
            seq = Sequence(frames=tuple(frames), topology=TOPO)
            text = serialize_annotations(seq)
            assert serialize_annotations(parse_annotations(text)) == text
        print("  100 flow-map and 100 annotation round trips bit-stable")


def test_criterion_10_line_integral_convergence():
    with criterion(10, "line-integral refinement differences decrease monotonically"):
        enc = EncoderConfig(stroke_half_width=2.0)
        worst = []
        for seed in range(20):
            fe, fl, n = association_scene(seed + 500)
            grid = encode_limb_flow(fl, fe, [(i, i) for i in range(n)], TOPO, enc)
            person = seed % n
            vals = {
                u: flow_score(
                    fl.poses[person], fe.poses[person], grid, TOPO, ScoreConfig(integral_samples=u)
                )
                for u in (10, 20, 40, 80)
            }
            d1 = abs(vals[10] - vals[20])
            d2 = abs(vals[20] - vals[40])
            d3 = abs(vals[40] - vals[80])
            # monotone up to fp noise: values converged to machine epsilon
            # count as converged
            assert d1 + 1e-12 >= d2, f"seed {seed}: {d1} {d2} {d3}"
            assert d2 + 1e-12 >= d3, f"seed {seed}: {d1} {d2} {d3}"
            worst.append((d1, d2, d3))
        print(f"  max diffs per level: {np.max(worst, axis=0).round(6).tolist()}")
