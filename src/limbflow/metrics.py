"""Tracking and estimation metrics: PCKh matching, MOTA, MOTP, mAP.

Matching is per joint type with a per-person threshold: a prediction may
match a ground-truth joint when their distance is at most
``thresh_factor`` times that person's head segment length (0.5 by
default). Higher-confidence predictions match first; a person without a
head segment falls back to the sequence-median head size.

MOTA per joint group is ``100 * (1 - (FN + FP + IDSW) / GT)``; an
identity switch is charged at the frame where a ground-truth track's
associated prediction id changes, once per joint occurrence. MOTP is
``100 * mean(1 - distance / threshold)`` over matched joints. AP per
joint type ranks all predictions of a sequence by confidence and sweeps
an interpolated precision-recall curve; mAP averages over joint types
that have ground truth.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional, Sequence as TySequence

from .pose import FramePoses, Pose
from .skeleton import SkeletonTopology

logger = logging.getLogger(__name__)

GROUP_ORDER = ("Head", "Shou", "Elb", "Wri", "Hip", "Knee", "Ankl")

_GROUP_BY_WORD = {
    "shoulder": "Shou",
    "elbow": "Elb",
    "wrist": "Wri",
    "hip": "Hip",
    "knee": "Knee",
    "ankle": "Ankl",
}


def joint_group(joint_name: str) -> str:
    """Joint-type group used for reporting; head-ish joints pool as Head."""
    word = joint_name.rsplit("_", 1)[-1]
    return _GROUP_BY_WORD.get(word, "Head")


@dataclass
class GroupCounts:
    gt: int = 0
    tp: int = 0
    fn: int = 0
    fp: int = 0
    idsw: int = 0

    def add(self, other: "GroupCounts") -> None:
        self.gt += other.gt
        self.tp += other.tp
        self.fn += other.fn
        self.fp += other.fp
        self.idsw += other.idsw

    def mota(self) -> Optional[float]:
        if self.gt == 0:
            return None
        return 100.0 * (1.0 - (self.fn + self.fp + self.idsw) / self.gt)


@dataclass
class EvalReport:
    group_counts: dict[str, GroupCounts]
    total_counts: GroupCounts
    motp: Optional[float]
    per_joint_ap: dict[str, Optional[float]]
    mean_ap: Optional[float]

    def group_mota(self) -> dict[str, Optional[float]]:
        return {g: c.mota() for g, c in self.group_counts.items()}

    def total_mota(self) -> Optional[float]:
        return self.total_counts.mota()


def _frames_of(seq) -> TySequence[FramePoses]:
    return seq.frames


def _head_lengths(gt_frames: Iterable[FramePoses], topo: SkeletonTopology) -> dict[tuple[int, int], float]:
    """Head segment length per (frame_index, gt pose position).

    Poses missing either head joint, or with one not visible, get the
    sequence median (as for matching, an invisible joint is not there); a
    warning is logged once per evaluation when that fallback triggers.
    """
    ha, hb = topo.head_segment
    lengths: dict[tuple[int, int], Optional[float]] = {}
    known: list[float] = []
    for frame in gt_frames:
        for pi, pose in enumerate(frame.poses):
            ca, cb = _joint_items(pose, ha), _joint_items(pose, hb)
            if ca is not None and cb is not None:
                val = math.hypot(ca.x - cb.x, ca.y - cb.y)
                lengths[(frame.frame_index, pi)] = val
                known.append(val)
            else:
                lengths[(frame.frame_index, pi)] = None
    missing = [k for k, v in lengths.items() if v is None]
    if missing:
        if not known:
            raise ValueError("no ground-truth pose has a head segment; cannot scale matches")
        median = sorted(known)[len(known) // 2]
        logger.warning(
            "%d ground-truth poses lack a head segment; using sequence median %.2f px",
            len(missing),
            median,
        )
        for k in missing:
            lengths[k] = median
    return {k: float(v) for k, v in lengths.items()}


@dataclass(frozen=True)
class _GtJoint:
    pose_pos: int
    track_id: Optional[int]
    x: float
    y: float
    threshold: float


def _joint_items(pose: Pose, j: int):
    c = pose.joint(j)
    if c is None or not c.visible:
        return None
    return c


def match_joints_pckh(
    gt: FramePoses,
    pred: FramePoses,
    thresholds: dict[int, float],
) -> dict[int, list[tuple[int, int, float]]]:
    """Greedy one-to-one matching per joint type within one frame.

    ``thresholds`` maps gt pose position to its match radius. Predictions
    are taken in (confidence desc, x, y) order; each takes the nearest
    still-unmatched gt joint within that gt's radius. Returns, per joint
    type, (gt pose position, pred pose position, distance) triples.
    """
    joint_count = len(gt.poses[0].joints) if gt.poses else (
        len(pred.poses[0].joints) if pred.poses else 0
    )
    out: dict[int, list[tuple[int, int, float]]] = {}
    for j in range(joint_count):
        gts = []
        for pi, pose in enumerate(gt.poses):
            c = _joint_items(pose, j)
            if c is not None:
                gts.append((pi, c))
        preds = []
        for pi, pose in enumerate(pred.poses):
            c = _joint_items(pose, j)
            if c is not None:
                preds.append((pi, c))
        preds.sort(key=lambda e: (-e[1].confidence, e[1].x, e[1].y, e[0]))
        taken: set[int] = set()
        matches = []
        for ppos, pc in preds:
            best = None
            for gpos, gc in gts:
                if gpos in taken:
                    continue
                d = math.hypot(pc.x - gc.x, pc.y - gc.y)
                if d <= thresholds[gpos] and (best is None or d < best[1]):
                    best = (gpos, d)
            if best is not None:
                taken.add(best[0])
                matches.append((best[0], ppos, best[1]))
        out[j] = matches
    return out


def _average_precision(flags: list[bool], n_gt: int) -> float:
    """All-point interpolated AP (percent) from rank-ordered TP flags."""
    if n_gt == 0:
        return 0.0
    tp = 0
    points = []
    for k, is_tp in enumerate(flags, start=1):
        if is_tp:
            tp += 1
        points.append((tp / n_gt, tp / k))
    if not points:
        return 0.0
    # precision envelope, then area under the recall steps. Recall never
    # falls with rank, so the envelope at a rank is the maximum precision
    # from that rank on.
    envelope = list(accumulate(reversed([p for _, p in points]), max))[::-1]
    ap = 0.0
    prev_recall = 0.0
    for (recall, _), peak in zip(points, envelope):
        if recall <= prev_recall:
            continue
        ap += (recall - prev_recall) * peak
        prev_recall = recall
    return 100.0 * ap


def evaluate(gt_seq, pred_seq, thresh_factor: float = 0.5) -> EvalReport:
    """Full report: MOTA per group and total, MOTP, AP per joint, mAP.

    ``gt_seq`` and ``pred_seq`` are sequences (tracked or plain) sharing
    one topology; frames are aligned by ``frame_index``. Ground truth
    with no frames at all, or with a pose lacking a track id (MOTA's
    ID-switch term needs ground-truth identities), is rejected.
    """
    topo: SkeletonTopology = gt_seq.topology
    gt_frames = list(_frames_of(gt_seq))
    if not gt_frames:
        raise ValueError("ground truth has no frames")
    for frame in gt_frames:
        for pi, pose in enumerate(frame.poses):
            if pose.track_id is None:
                raise ValueError(
                    f"ground truth frame {frame.frame_index} pose {pi} has no track id"
                )
    pred_by_index = {f.frame_index: f for f in _frames_of(pred_seq)}
    head = _head_lengths(gt_frames, topo)

    names = topo.joint_names
    per_type = {j: GroupCounts() for j in range(topo.joint_count)}
    motp_terms: list[float] = []
    last_assoc: dict[tuple[Optional[int], int], Optional[int]] = {}
    # For AP: per joint type, every prediction of the sequence plus the
    # per-frame gt pool it may consume.
    ap_preds: dict[int, list[tuple[float, int, float, float, int]]] = {
        j: [] for j in range(topo.joint_count)
    }

    empty = FramePoses(frame_index=-1, poses=(), image_size=(1, 1))
    for frame in gt_frames:
        pred = pred_by_index.get(frame.frame_index, empty)
        thresholds = {
            pi: max(thresh_factor * head[(frame.frame_index, pi)], 1e-9)
            for pi in range(len(frame.poses))
        }
        matches = match_joints_pckh(frame, pred, thresholds)
        for j in range(topo.joint_count):
            gt_join = [
                (pi, c) for pi, c in (
                    (pi, _joint_items(p, j)) for pi, p in enumerate(frame.poses)
                ) if c is not None
            ]
            pred_join = [
                (pi, c) for pi, c in (
                    (pi, _joint_items(p, j)) for pi, p in enumerate(pred.poses)
                ) if c is not None
            ]
            counts = per_type[j]
            counts.gt += len(gt_join)
            frame_matches = matches.get(j, [])
            matched_gt = {m[0] for m in frame_matches}
            matched_pred = {m[1] for m in frame_matches}
            counts.tp += len(frame_matches)
            counts.fn += len(gt_join) - len(frame_matches)
            counts.fp += len(pred_join) - len(matched_pred)
            for gpos, ppos, dist in frame_matches:
                gt_track = frame.poses[gpos].track_id
                pred_track = pred.poses[ppos].track_id
                key = (gt_track, j)
                prev = last_assoc.get(key)
                if prev is not None and pred_track != prev:
                    counts.idsw += 1
                last_assoc[key] = pred_track
                motp_terms.append(1.0 - dist / thresholds[gpos])
            for ppos, c in pred_join:
                ap_preds[j].append((c.confidence, frame.frame_index, c.x, c.y, ppos))

    # AP pass: rank across the sequence, greedy against per-frame gt pools.
    per_joint_ap: dict[str, Optional[float]] = {}
    ap_values = []
    for j in range(topo.joint_count):
        n_gt = per_type[j].gt
        if n_gt == 0:
            per_joint_ap[names[j]] = None
            logger.info("joint type %s has no ground truth; excluded from mAP", names[j])
            continue
        available: dict[int, list[_GtJoint]] = {}
        for frame in gt_frames:
            pool = []
            for pi, pose in enumerate(frame.poses):
                c = _joint_items(pose, j)
                if c is not None:
                    pool.append(
                        _GtJoint(
                            pi,
                            pose.track_id,
                            c.x,
                            c.y,
                            max(thresh_factor * head[(frame.frame_index, pi)], 1e-9),
                        )
                    )
            available[frame.frame_index] = pool
        ranked = sorted(ap_preds[j], key=lambda e: (-e[0], e[1], e[2], e[3], e[4]))
        flags = []
        for conf, fidx, x, y, _ in ranked:
            pool = available.get(fidx, [])
            best = None
            for k, g in enumerate(pool):
                d = math.hypot(x - g.x, y - g.y)
                if d <= g.threshold and (best is None or d < best[1]):
                    best = (k, d)
            if best is not None:
                pool.pop(best[0])
                flags.append(True)
            else:
                flags.append(False)
        ap = _average_precision(flags, n_gt)
        per_joint_ap[names[j]] = ap
        ap_values.append(ap)

    group_counts = {g: GroupCounts() for g in GROUP_ORDER}
    total = GroupCounts()
    for j in range(topo.joint_count):
        g = joint_group(names[j])
        group_counts.setdefault(g, GroupCounts()).add(per_type[j])
        total.add(per_type[j])

    motp = (
        100.0 * sum(motp_terms) / len(motp_terms) if motp_terms else None
    )
    mean_ap_val = sum(ap_values) / len(ap_values) if ap_values else None
    return EvalReport(
        group_counts=group_counts,
        total_counts=total,
        motp=motp,
        per_joint_ap=per_joint_ap,
        mean_ap=mean_ap_val,
    )


def mota(gt_seq, pred_seq, thresh_factor: float = 0.5) -> tuple[dict[str, Optional[float]], Optional[float]]:
    """(per-group MOTA, total MOTA), percent."""
    report = evaluate(gt_seq, pred_seq, thresh_factor)
    return report.group_mota(), report.total_mota()


def motp(gt_seq, pred_seq, thresh_factor: float = 0.5) -> Optional[float]:
    """Percent; None when nothing matched."""
    return evaluate(gt_seq, pred_seq, thresh_factor).motp


def mean_ap(gt_seq, pred_seq, thresh_factor: float = 0.5) -> tuple[dict[str, Optional[float]], Optional[float]]:
    """(per-joint AP, mAP), percent."""
    report = evaluate(gt_seq, pred_seq, thresh_factor)
    return report.per_joint_ap, report.mean_ap


def format_report_table(report: EvalReport) -> str:
    """Fixed-width summary table: MOTA per group, total, mAP, MOTP."""

    def fmt(v: Optional[float]) -> str:
        return "  -  " if v is None else f"{v:5.1f}"

    per_group = report.group_mota()
    header = "        " + "  ".join(f"{g:>5}" for g in GROUP_ORDER) + "  Total    mAP   MOTP"
    row = (
        "MOTA    "
        + "  ".join(fmt(per_group.get(g)) for g in GROUP_ORDER)
        + f"  {fmt(report.total_mota())}  {fmt(report.mean_ap)}  {fmt(report.motp)}"
    )
    return header + "\n" + row


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready structure mirroring the printed table plus raw counts."""
    return {
        "mota": {
            "per_group": report.group_mota(),
            "total": report.total_mota(),
        },
        "motp": report.motp,
        "ap": {"per_joint": report.per_joint_ap, "mean": report.mean_ap},
        "counts": {
            "total": {
                "gt": report.total_counts.gt,
                "tp": report.total_counts.tp,
                "fn": report.total_counts.fn,
                "fp": report.total_counts.fp,
                "idsw": report.total_counts.idsw,
            },
            "per_group": {
                g: {"gt": c.gt, "tp": c.tp, "fn": c.fn, "fp": c.fp, "idsw": c.idsw}
                for g, c in report.group_counts.items()
            },
        },
    }
