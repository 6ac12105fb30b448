"""Track assignment across a sequence: NMS, bipartite matching, refinement.

Frames are processed as sliding sets (F[t-1], F[t], F[t+1]) at one-frame
interval. Each new frame is matched against the active tracks with a
stride-1 flow map; once both pairs of a set are matched, the middle
frame is refined with a stride-2 flow map: a track seen at t-1 but
missed at t that can be associated straight to a frame t+1 pose gets
the average of its two neighbor poses inserted at t.

Unmatched tracks stay active for one extra frame set, exactly long
enough for the stride-2 refinement to catch them, then retire for good;
re-identification beyond that window is out of scope.

Flow maps come from a flow source. By default they are drawn from the
input sequence itself, pairing people across frames by track id when
the input carries ids and by a minimum-total-distance assignment
otherwise. Pass an explicit ``SequenceFlowSource`` built from ground
truth to emulate an upstream motion estimator that has learned the true
limb flow. The source hands out ``LimbStrokes``, which the scorer reads
only at the cells it samples; ``match_frames`` and
``refine_middle_frame`` accept those or a dense ``FlowMapGrid`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .assignment import FORBIDDEN, hungarian
from .encoder import EncoderConfig, FlowMap, LimbStrokes, limb_strokes

# Tracking never builds a FlowMapGrid, whose dense planes exist only once
# a caller reads them. encode_limb_flow stays importable from this module
# because the benchmark's checks (perfbench) encode a pair's grid through
# it, next to _reference_pairing.
from .encoder import encode_limb_flow  # noqa: F401
from .pose import FramePoses, JointCandidate, Pose, Sequence
from .scoring import ScoreConfig, build_association_matrix, distance_matrix
from .skeleton import SkeletonTopology


@dataclass(frozen=True)
class TrackerConfig:
    score_threshold: float = 0.1
    nms_radius: float = 5.0
    refine: bool = True
    score: ScoreConfig = field(default_factory=ScoreConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def validate(self) -> None:
        if not self.nms_radius >= 0:
            raise ValueError("nms_radius must be >= 0")
        if not np.isfinite(self.score_threshold):
            raise ValueError("score_threshold must be finite")
        self.score.validate()
        self.encoder.validate()


@dataclass
class Track:
    track_id: int
    last_pose: Pose
    misses: int = 0


@dataclass
class TrackState:
    next_id: int = 0
    active: list[Track] = field(default_factory=list)

    def new_track(self, pose: Pose) -> Pose:
        labeled = pose.with_track_id(self.next_id)
        self.active.append(Track(self.next_id, labeled))
        self.next_id += 1
        return labeled

    def cull(self, max_misses: int = 2) -> None:
        # Retired ids are never reused or revived.
        self.active = [t for t in self.active if t.misses < max_misses]


@dataclass(frozen=True)
class RefinementEntry:
    frame_index: int
    track_id: int
    source: str = "stride2-average"


@dataclass(frozen=True)
class TrackedSequence:
    frames: tuple[FramePoses, ...]
    refinement_log: tuple[RefinementEntry, ...]
    topology: SkeletonTopology

    def __len__(self) -> int:
        return len(self.frames)


def suppress_duplicate_joints(frame: FramePoses, radius: float, joint_count: int) -> FramePoses:
    """Greedy per-joint-type NMS across all poses of a frame.

    For each joint type, keep the highest-confidence candidate, drop all
    others within ``radius`` of it, repeat. Ties break by (confidence
    desc, x asc, y asc, pose position) so the result is deterministic.
    Suppressed joints are removed from their poses; poses left with no
    joints are dropped.
    """
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    keep: dict[int, set[int]] = {pi: set() for pi in range(len(frame.poses))}
    for j in range(joint_count):
        entries = [
            (pose.joint(j), pi)
            for pi, pose in enumerate(frame.poses)
            if pose.joint(j) is not None
        ]
        entries.sort(key=lambda e: (-e[0].confidence, e[0].x, e[0].y, e[1]))
        kept: list[JointCandidate] = []
        for cand, pi in entries:
            if all(
                (cand.x - k.x) ** 2 + (cand.y - k.y) ** 2 > radius * radius for k in kept
            ):
                kept.append(cand)
                keep[pi].add(j)
    new_poses = []
    for pi, pose in enumerate(frame.poses):
        joints = tuple(
            c if (c is not None and j in keep[pi]) else None
            for j, c in enumerate(pose.joints)
        )
        if any(c is not None for c in joints):
            new_poses.append(replace(pose, joints=joints))
    return replace(frame, poses=tuple(new_poses))


def _reference_pairing(frame_a: FramePoses, frame_b: FramePoses) -> list[tuple[int, int]]:
    """Person correspondence used when drawing flow maps from a sequence.

    Pairs by track id when every pose in both frames carries one;
    otherwise falls back to a minimum-total-distance assignment
    (bootstrap pairing for unlabeled detections).
    """
    ids_a = [p.track_id for p in frame_a.poses]
    ids_b = [p.track_id for p in frame_b.poses]
    if all(i is not None for i in ids_a) and all(i is not None for i in ids_b):
        by_id_b = {tid: j for j, tid in enumerate(ids_b)}
        return [(i, by_id_b[tid]) for i, tid in enumerate(ids_a) if tid in by_id_b]
    d = distance_matrix(list(frame_a.poses), list(frame_b.poses))
    return hungarian(np.where(np.isfinite(d), -d, -np.inf))


class SequenceFlowSource:
    """Flow-map provider backed by a reference sequence.

    ``grid(later, earlier)`` returns the strokes of the flow map between
    two frame positions of the reference sequence. The cache keeps only
    the pairs ending at the latest ``later`` position asked for, which is
    the window ``track_sequence`` reads at each step ((t, t-1) and
    (t, t-2)); each entry is sized by people x limbs x parts, so memory
    stays flat in sequence length.
    """

    def __init__(self, seq: Sequence, encoder_cfg: EncoderConfig):
        self.seq = seq
        self.cfg = encoder_cfg
        self._cache: dict[tuple[int, int], LimbStrokes] = {}

    def grid(self, later: int, earlier: int) -> LimbStrokes:
        key = (later, earlier)
        if key not in self._cache:
            self._cache = {k: v for k, v in self._cache.items() if k[0] == later}
            fl = self.seq.frames[later]
            fe = self.seq.frames[earlier]
            pairing = _reference_pairing(fl, fe)
            self._cache[key] = limb_strokes(fl, fe, pairing, self.seq.topology, self.cfg)
        return self._cache[key]


def match_frames(
    state: TrackState,
    frame: FramePoses,
    grid: Optional[FlowMap],
    topo: SkeletonTopology,
    cfg: TrackerConfig,
    defer_new: bool = False,
) -> FramePoses:
    """Match one frame's poses against the active tracks.

    The flow map must be drawn over (this frame, previous frame). Links at
    or above ``score_threshold`` inherit the track id; unmatched poses
    start fresh tracks (or stay unlabeled when ``defer_new`` is set, so a
    later refinement step may claim them); unmatched tracks accumulate a
    miss. With ``defer_new`` the caller owns miss-based retirement,
    otherwise tracks retire here after their second miss.
    """
    cfg.validate()
    tracks = list(state.active)
    accepted: dict[int, Track] = {}
    if tracks and frame.poses and grid is not None:
        matrix = build_association_matrix(
            list(frame.poses), [t.last_pose for t in tracks], grid, topo, cfg.score
        )
        for i, j in hungarian(matrix.scores):
            if matrix.scores[i, j] >= cfg.score_threshold:
                accepted[i] = tracks[j]

    matched_ids = set()
    labeled: list[Pose] = []
    for i, pose in enumerate(frame.poses):
        if i in accepted:
            track = accepted[i]
            new_pose = pose.with_track_id(track.track_id)
            track.last_pose = new_pose
            track.misses = 0
            matched_ids.add(track.track_id)
            labeled.append(new_pose)
        elif defer_new:
            labeled.append(pose.with_track_id(None))
        else:
            labeled.append(state.new_track(pose.with_track_id(None)))

    for track in tracks:  # only tracks that were candidates can miss
        if track.track_id not in matched_ids:
            track.misses += 1
    if not defer_new:
        state.cull()
    return replace(frame, poses=tuple(labeled))


def _average_pose(a: Pose, b: Pose, track_id: int, joint_count: int) -> Pose:
    joints: list[Optional[JointCandidate]] = []
    for j in range(joint_count):
        ca, cb = a.joint(j), b.joint(j)
        if ca is not None and cb is not None and ca.visible and cb.visible:
            joints.append(
                JointCandidate(
                    x=(ca.x + cb.x) / 2.0,
                    y=(ca.y + cb.y) / 2.0,
                    confidence=(ca.confidence + cb.confidence) / 2.0,
                    visible=True,
                )
            )
        else:
            joints.append(None)
    return Pose(joints=tuple(joints), track_id=track_id)


def refine_middle_frame(
    frame_prev: FramePoses,
    frame_mid: FramePoses,
    frame_next: FramePoses,
    grid_stride2: FlowMap,
    topo: SkeletonTopology,
    cfg: TrackerConfig,
    state: Optional[TrackState] = None,
) -> tuple[FramePoses, FramePoses, list[RefinementEntry]]:
    """Restore tracks that skipped the middle frame of a three-frame set.

    For every track id present at t-1 and absent at t, its t-1 pose is
    associated against the t+1 poses via the stride-2 flow map (drawn
    over (t+1, t-1)). A link clearing the score threshold is honored when
    the t+1 pose already carries the same id, or is still unlabeled, in
    which case it receives the id. The joint-wise average of the two
    neighbor poses is then inserted at t. Existing poses are never deleted
    or relabeled, only inserted; a person absent at t+1 as well simply
    cannot be refined.

    Returns the updated (middle frame, next frame) plus log entries.
    """
    prev_by_id = {p.track_id: p for p in frame_prev.poses if p.track_id is not None}
    mid_ids = {p.track_id for p in frame_mid.poses if p.track_id is not None}
    missing = sorted(tid for tid in prev_by_id if tid not in mid_ids)
    if not missing or not frame_next.poses:
        return frame_mid, frame_next, []

    matrix = build_association_matrix(
        list(frame_next.poses), [prev_by_id[tid] for tid in missing], grid_stride2, topo, cfg.score
    )
    scores = matrix.scores.copy()
    for i, pose in enumerate(frame_next.poses):
        for c, tid in enumerate(missing):
            if pose.track_id is not None and pose.track_id != tid:
                scores[i, c] = FORBIDDEN

    inserts: list[Pose] = []
    entries: list[RefinementEntry] = []
    next_poses = list(frame_next.poses)
    for i, c in hungarian(scores):
        if scores[i, c] < cfg.score_threshold:
            continue
        tid = missing[c]
        next_pose = next_poses[i]
        if next_pose.track_id is None:
            next_pose = next_pose.with_track_id(tid)
            next_poses[i] = next_pose
            if state is not None:
                for track in state.active:
                    if track.track_id == tid:
                        track.last_pose = next_pose
                        track.misses = 0
                        break
        inserts.append(_average_pose(prev_by_id[tid], next_pose, tid, topo.joint_count))
        entries.append(RefinementEntry(frame_mid.frame_index, tid))

    new_mid = replace(frame_mid, poses=tuple(list(frame_mid.poses) + inserts))
    new_next = replace(frame_next, poses=tuple(next_poses))
    return new_mid, new_next, entries


def _finalize_pending(state: TrackState, frame: FramePoses) -> FramePoses:
    poses = [
        p if p.track_id is not None else state.new_track(p)
        for p in frame.poses
    ]
    return replace(frame, poses=tuple(poses))


def track_sequence(
    seq: Sequence,
    cfg: TrackerConfig,
    flow_source: Optional[SequenceFlowSource] = None,
) -> TrackedSequence:
    """Assign persistent track ids to every pose of a candidate sequence.

    Input track ids, if any, are ignored for labeling (they do feed the
    default flow source). Deterministic: identical inputs and config give
    an identical result.
    """
    cfg.validate()
    topo = seq.topology
    frames = [
        suppress_duplicate_joints(f, cfg.nms_radius, topo.joint_count) for f in seq.frames
    ]
    if not frames:
        return TrackedSequence(frames=(), refinement_log=(), topology=topo)
    if flow_source is None:
        flow_source = SequenceFlowSource(Sequence(tuple(frames), topo), cfg.encoder)

    state = TrackState()
    results: list[FramePoses] = []
    log: list[RefinementEntry] = []
    for t, frame in enumerate(frames):
        grid = flow_source.grid(t, t - 1) if t > 0 else None
        results.append(match_frames(state, frame, grid, topo, cfg, defer_new=True))
        if cfg.refine and t >= 2:
            grid2 = flow_source.grid(t, t - 2)
            mid, nxt, entries = refine_middle_frame(
                results[t - 2], results[t - 1], results[t], grid2, topo, cfg, state
            )
            results[t - 1] = mid
            results[t] = nxt
            log.extend(entries)
        results[t] = _finalize_pending(state, results[t])
        state.cull()
    return TrackedSequence(frames=tuple(results), refinement_log=tuple(log), topology=topo)
