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

Matching runs on arrays: each frame's poses become one ``pose_arrays``
triple. One matcher, ``_match_frame``, serves ``evaluate`` and
``match_joints_pckh``: one ``lexsort`` ranks a frame's predictions, the
pairs in range are sorted by (distance, gt position), and only the
predictions that compete for a gt walk in rank order. The AP ranking is
one ``lexsort`` over the whole sequence. Every length here, head
segments included, is ``np.hypot``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .pose import FramePoses, joint_pairs_within, pose_arrays
from .skeleton import SkeletonTopology

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


def _head_lengths(
    gt_arrays: list[tuple[np.ndarray, ...]], topo: SkeletonTopology
) -> list[np.ndarray]:
    """Head segment length of each gt pose, one (G,) array per frame.

    Poses missing either head joint, or with one not visible, get the
    sequence median (as for matching, an invisible joint is not there); a
    warning is logged once per evaluation when that fallback triggers.
    """
    ha, hb = topo.head_segment
    lengths, known = [], []
    for xy, _, present in gt_arrays:
        d = xy[:, ha] - xy[:, hb]
        lengths.append(np.hypot(d[:, 0], d[:, 1]))
        known.append(present[:, ha] & present[:, hb])
    known_all = np.concatenate(known)
    n_missing = int((~known_all).sum())
    if n_missing:
        values = np.concatenate(lengths)[known_all]
        if not len(values):
            raise ValueError("no ground-truth pose has a head segment; cannot scale matches")
        median = np.sort(values)[len(values) // 2]
        # logging is imported only where metrics logs, so that importing
        # limbflow does not load it (a few ms of a fresh import).
        import logging

        logging.getLogger(__name__).warning(
            "%d ground-truth poses lack a head segment; using sequence median %.2f px",
            n_missing,
            median,
        )
        lengths = [np.where(k, v, median) for v, k in zip(lengths, known)]
    return lengths


def _match_frame(
    gt: tuple[np.ndarray, ...], pred: tuple[np.ndarray, ...], thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy one-to-one PCKh matching of one frame, every joint type.

    ``gt`` and ``pred`` are the frame's ``pose_arrays``; ``thresholds``
    holds each gt pose's match radius. Per joint type, predictions are
    taken in (confidence desc, x, y, pose position) order, and each takes
    the first nearest still-unmatched gt joint within that gt's radius.
    Returns ``(q, j, g, dist)`` over the present predictions in that
    order, joint type first: the pred pose position, its joint type, the
    gt pose position it took or -1, and the ``np.hypot`` distance to it.

    Lengths are taken only for the pairs ``joint_pairs_within`` finds in
    each gt's box of half side its radius. A masked ``argmin`` gives each
    prediction its first nearest gt. In a joint type where no two
    predictions share one, each takes its own; the predictions of the
    other types are walked in rank order, and one whose first nearest is
    taken looks at the rest.
    """
    pxy, p_conf, p_ok = pred
    q, j = np.nonzero(p_ok)
    x, y = pxy[q, j, 0], pxy[q, j, 1]
    order = np.lexsort((q, y, x, -p_conf[q, j], j))
    q, j = q[order], j[order]
    g = np.full(len(q), -1, dtype=np.int64)
    n_gt = len(thresholds)
    if not len(q) or not n_gt:
        return q, j, g, np.zeros(len(q))
    rank = np.empty(p_ok.shape, dtype=np.int64)
    rank[q, j] = rows = np.arange(len(q))

    # (pred rank, gt) tables of the pairs in range and their lengths.
    bq, bg, bj, adx, ady = joint_pairs_within(pred, gt, thresholds)
    d = np.hypot(adx, ady)
    within = d <= thresholds[bg]
    k, cand = rank[bq, bj][within], bg[within]
    lengths = np.full((len(q), n_gt), np.inf)
    lengths[k, cand] = d[within]
    in_range = np.zeros(lengths.shape, dtype=bool)
    in_range[k, cand] = True
    first = lengths.argmin(axis=1)
    # Where every length in range is inf, the lowest gt in range is first.
    first = np.where(in_range[rows, first], first, in_range.argmax(axis=1))
    reaches = in_range.any(axis=1)
    # In a joint type where no two preds share a first nearest, each takes
    # it; the preds of the other types are walked in rank order.
    key = j * n_gt + first
    shared = np.bincount(key[reaches], minlength=p_ok.shape[1] * n_gt) > 1
    outright = reaches & ~shared.reshape(-1, n_gt).any(axis=1)[j]
    g[outright] = first[outright]

    taken: set[tuple[int, int]] = set()
    walk = np.flatnonzero(reaches & ~outright)
    for r, t, c in zip(walk.tolist(), j[walk].tolist(), first[walk].tolist()):
        if (t, c) in taken:  # the first nearest still free, in gt order
            c, best = -1, math.inf
            for gpos, (length, ok) in enumerate(zip(lengths[r].tolist(), in_range[r].tolist())):
                if ok and (t, gpos) not in taken and (c < 0 or length < best):
                    c, best = gpos, length
            if c < 0:
                continue
        taken.add((t, c))
        g[r] = c
    return q, j, g, np.where(g >= 0, lengths[rows, np.maximum(g, 0)], 0.0)


def match_joints_pckh(
    gt: FramePoses,
    pred: FramePoses,
    thresholds: dict[int, float],
) -> dict[int, list[tuple[int, int, float]]]:
    """Greedy one-to-one matching per joint type within one frame.

    ``thresholds`` maps gt pose position to its match radius; each joint
    type is matched as ``_match_frame`` describes. Returns, per joint type,
    (gt pose position, pred pose position, distance) triples.
    """
    joint_count = len(gt.poses[0].joints) if gt.poses else (
        len(pred.poses[0].joints) if pred.poses else 0
    )
    q, j, g, dist = _match_frame(
        pose_arrays(gt.poses, joint_count),
        pose_arrays(pred.poses, joint_count),
        np.array([thresholds[i] for i in range(len(gt.poses))], dtype=np.float64),
    )
    matches: dict[int, list[tuple[int, int, float]]] = {t: [] for t in range(joint_count)}
    m = g >= 0
    for t, gpos, ppos, d in zip(j[m].tolist(), g[m].tolist(), q[m].tolist(), dist[m].tolist()):
        matches[t].append((gpos, ppos, d))
    return matches


def _average_precision(flags: np.ndarray | list[bool], n_gt: int) -> float:
    """All-point interpolated AP (percent) from rank-ordered TP flags."""
    flags = np.asarray(flags, dtype=bool)
    if n_gt == 0 or not flags.any():
        return 0.0
    # Precision envelope, then area under the recall steps. Recall never
    # falls with rank, so the envelope at a rank is the maximum precision
    # from that rank on; recall rises, by one true positive, exactly at
    # the true positives' ranks.
    tp = np.cumsum(flags)
    envelope = np.maximum.accumulate((tp / np.arange(1, flags.size + 1))[::-1])[::-1]
    recall = np.arange(tp[-1] + 1) / n_gt
    # Added in rank order by a running sum; np.sum would add pairwise.
    return 100.0 * float(np.cumsum(np.diff(recall) * envelope[flags])[-1])


def evaluate(gt_seq, pred_seq, thresh_factor: float = 0.5) -> EvalReport:
    """Full report: MOTA per group and total, MOTP, AP per joint, mAP.

    ``gt_seq`` and ``pred_seq`` are sequences (tracked or plain) sharing
    one topology; frames are aligned by ``frame_index``. A prediction in
    another topology is rejected, as is ground truth with no frames at
    all, or with a pose lacking a track id or a track id that repeats in
    one frame (MOTA's ID-switch term needs ground-truth identities), a
    frame index that repeats in either sequence, or a ``thresh_factor``
    that is not finite and positive.
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
        ids = [pose.track_id for pose in frame.poses]
        if None in ids:
            raise ValueError(f"ground truth frame {frame.frame_index} pose {ids.index(None)} has no track id")
        if len(set(ids)) < len(ids):
            raise ValueError(f"ground truth frame {frame.frame_index} repeats a track id")
    for name, frames in (("ground truth", gt_frames), ("prediction", pred_seq.frames)):
        repeated = sorted(i for i, n in Counter(f.frame_index for f in frames).items() if n > 1)
        if repeated:
            raise ValueError(f"{name} repeats frame index {repeated[0]}")
    pred_poses_at = {f.frame_index: f.poses for f in pred_seq.frames}
    names, joint_count = topo.joint_names, topo.joint_count
    pred_poses = [pred_poses_at.get(f.frame_index, ()) for f in gt_frames]
    gt_arrays = [pose_arrays(f.poses, joint_count) for f in gt_frames]
    pred_arrays = [pose_arrays(poses, joint_count) for poses in pred_poses]
    thresholds = np.maximum(thresh_factor * np.concatenate(_head_lengths(gt_arrays, topo)), 1e-9)
    gt_start = np.cumsum([0] + [len(f.poses) for f in gt_frames])
    matched = [
        _match_frame(gt, pred, thresholds[lo:hi])
        for gt, pred, lo, hi in zip(gt_arrays, pred_arrays, gt_start, gt_start[1:])
    ]
    # Every prediction of the sequence in match order (frame, joint type,
    # rank), with its pose and its match as positions in the whole sequence.
    q, j, g, dist = (np.concatenate(column) for column in zip(*matched))
    frame_pos = np.repeat(np.arange(len(gt_frames)), [len(m[0]) for m in matched])
    pose = np.cumsum([0] + [len(poses) for poses in pred_poses])[frame_pos] + q
    took = g >= 0
    gt_pose = gt_start[frame_pos[took]] + g[took]

    gt_ids = [p.track_id for f in gt_frames for p in f.poses]
    pred_ids = [p.track_id for poses in pred_poses for p in poses]
    idsw = [0] * joint_count
    last_assoc: dict[tuple[Optional[int], int], Optional[int]] = {}
    for t, gpos, ppos in zip(j[took].tolist(), gt_pose.tolist(), pose[took].tolist()):
        key = (gt_ids[gpos], t)
        prev = last_assoc.get(key)
        if prev is not None and pred_ids[ppos] != prev:
            idsw[t] += 1
        last_assoc[key] = pred_ids[ppos]
    motp_terms = (1.0 - dist[took] / thresholds[gt_pose]).tolist()

    n_gt = np.concatenate([present for _, _, present in gt_arrays]).sum(axis=0)
    n_pred = np.bincount(j, minlength=joint_count)
    n_tp = np.bincount(j[took], minlength=joint_count)
    per_type = {
        t: GroupCounts(
            gt=int(n_gt[t]),
            tp=int(n_tp[t]),
            fn=int(n_gt[t] - n_tp[t]),
            fp=int(n_pred[t] - n_tp[t]),
            idsw=idsw[t],
        )
        for t in range(joint_count)
    }
    # AP: every prediction ranked by (joint type, -confidence, frame index,
    # x, y, pose position), flagged by whether its frame's match took it.
    xy = np.concatenate([a[0] for a in pred_arrays])
    confidence = np.concatenate([a[1] for a in pred_arrays])
    frame_index = np.array([f.frame_index for f in gt_frames])[frame_pos]
    order = np.lexsort(
        (q, xy[pose, j, 1], xy[pose, j, 0], frame_index, -confidence[pose, j], j)
    )
    flags = np.split(took[order], np.cumsum(n_pred)[:-1])
    per_joint_ap: dict[str, Optional[float]] = {}
    ap_values = []
    for t in range(joint_count):
        if n_gt[t] == 0:
            per_joint_ap[names[t]] = None
            import logging

            logging.getLogger(__name__).info("joint type %s has no ground truth; excluded from mAP", names[t])
            continue
        ap = _average_precision(flags[t], int(n_gt[t]))
        per_joint_ap[names[t]] = ap
        ap_values.append(ap)

    group_counts = {g: GroupCounts() for g in GROUP_ORDER}
    total = GroupCounts()
    for t in range(joint_count):
        g = joint_group(names[t])
        group_counts.setdefault(g, GroupCounts()).add(per_type[t])
        total.add(per_type[t])

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
