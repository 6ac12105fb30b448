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
an interpolated precision-recall curve, in which a prediction is a true
positive exactly when its own frame's PCKh match took it; mAP averages
over joint types that have ground truth.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence as TySequence

from .pose import FramePoses, JointCandidate, Pose
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
            ca, cb = pose.joint(ha), pose.joint(hb)
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


def _visible(poses: TySequence[Pose], j: int) -> list[tuple[int, JointCandidate]]:
    """(pose position, joint) for every pose whose joint ``j`` is visible."""
    return [(pi, c) for pi, p in enumerate(poses) if (c := p.joint(j)) is not None]


def _match(
    gts: list[tuple[int, JointCandidate]],
    preds: list[tuple[int, JointCandidate]],
    thresholds: dict[int, float],
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching of one frame's joints of one type.

    Predictions are taken in (confidence desc, x, y, pose position) order;
    each takes the first nearest still-unmatched gt joint within that gt's
    radius. Returns (gt pose position, pred pose position, distance) triples.
    """
    taken: set[int] = set()
    matches = []
    for ppos, pc in sorted(preds, key=lambda e: (-e[1].confidence, e[1].x, e[1].y, e[0])):
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
    return matches


def match_joints_pckh(
    gt: FramePoses,
    pred: FramePoses,
    thresholds: dict[int, float],
) -> dict[int, list[tuple[int, int, float]]]:
    """Greedy one-to-one matching per joint type within one frame.

    ``thresholds`` maps gt pose position to its match radius; each joint
    type is matched as ``_match`` describes. Returns, per joint type,
    (gt pose position, pred pose position, distance) triples.
    """
    joint_count = len(gt.poses[0].joints) if gt.poses else (
        len(pred.poses[0].joints) if pred.poses else 0
    )
    return {
        j: _match(_visible(gt.poses, j), _visible(pred.poses, j), thresholds)
        for j in range(joint_count)
    }


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
    one topology; frames are aligned by ``frame_index``. A prediction in
    another topology is rejected, as is ground truth with no frames at
    all, or with a pose lacking a track id (MOTA's ID-switch term needs
    ground-truth identities), a frame index that repeats in either
    sequence, or a ``thresh_factor`` that is not finite and positive.
    """
    if not (math.isfinite(thresh_factor) and thresh_factor > 0):
        raise ValueError(f"thresh_factor must be finite and > 0, got {thresh_factor}")
    topo: SkeletonTopology = gt_seq.topology
    if pred_seq.topology != topo:
        raise ValueError("prediction and ground truth have different topologies")
    gt_frames = list(gt_seq.frames)
    if not gt_frames:
        raise ValueError("ground truth has no frames")
    for frame in gt_frames:
        for pi, pose in enumerate(frame.poses):
            if pose.track_id is None:
                raise ValueError(
                    f"ground truth frame {frame.frame_index} pose {pi} has no track id"
                )
    for name, frames in (("ground truth", gt_frames), ("prediction", pred_seq.frames)):
        repeated = sorted(i for i, n in Counter(f.frame_index for f in frames).items() if n > 1)
        if repeated:
            raise ValueError(f"{name} repeats frame index {repeated[0]}")
    pred_poses_at = {f.frame_index: f.poses for f in pred_seq.frames}
    head = _head_lengths(gt_frames, topo)

    names = topo.joint_names
    per_type = {j: GroupCounts() for j in range(topo.joint_count)}
    motp_terms: list[float] = []
    last_assoc: dict[tuple[Optional[int], int], Optional[int]] = {}
    # For AP: per joint type, every prediction of the sequence as its rank
    # key (unique) followed by whether its own frame's match took it.
    ranked: dict[int, list[tuple]] = {j: [] for j in range(topo.joint_count)}

    for frame in gt_frames:
        pred_poses = pred_poses_at.get(frame.frame_index, ())
        thresholds = {
            pi: max(thresh_factor * head[(frame.frame_index, pi)], 1e-9)
            for pi in range(len(frame.poses))
        }
        for j in range(topo.joint_count):
            gts, preds = _visible(frame.poses, j), _visible(pred_poses, j)
            matches = _match(gts, preds, thresholds)
            counts = per_type[j]
            counts.gt += len(gts)
            counts.tp += len(matches)
            counts.fn += len(gts) - len(matches)
            counts.fp += len(preds) - len(matches)
            for gpos, ppos, dist in matches:
                key = (frame.poses[gpos].track_id, j)
                pred_track = pred_poses[ppos].track_id
                prev = last_assoc.get(key)
                if prev is not None and pred_track != prev:
                    counts.idsw += 1
                last_assoc[key] = pred_track
                motp_terms.append(1.0 - dist / thresholds[gpos])
            taken = {ppos for _, ppos, _ in matches}
            ranked[j] += [
                (-c.confidence, frame.frame_index, c.x, c.y, ppos, ppos in taken)
                for ppos, c in preds
            ]

    per_joint_ap: dict[str, Optional[float]] = {}
    ap_values = []
    for j in range(topo.joint_count):
        n_gt = per_type[j].gt
        if n_gt == 0:
            per_joint_ap[names[j]] = None
            logger.info("joint type %s has no ground truth; excluded from mAP", names[j])
            continue
        ap = _average_precision([e[-1] for e in sorted(ranked[j])], n_gt)
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
            "total": asdict(report.total_counts),
            "per_group": {g: asdict(c) for g, c in report.group_counts.items()},
        },
    }
