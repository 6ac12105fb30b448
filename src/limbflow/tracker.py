"""Online track assignment: one ``Tracker.push`` step per frame.

A step on frame t runs NMS, then ``match_frames``: poses link to the live
tracks through a stride-1 flow map over (t, t-1). With refinement on,
``refine_middle_frame`` then repairs frame t-1 through a stride-2 map
over (t, t-2): a track seen at t-2, missed at t-1 and linked straight to
a pose at t gets the average of those two poses inserted at t-1. Both
link through the one association step, ``_associate``: score every pair,
forbid the pairs the caller rules out and those scoring below
``score_threshold``, then solve: the threshold decides which links are
feasible before the solve, as in DeepSORT. Both only label poses; each
pose still unlabelled then starts a fresh id.

The live tracks are the tracker's output window, its last two labelled
frames: a track lives while one of them holds its id, and its latest pose
is the one in the later frame. A track missed in two frames running
therefore drops out for good: it lives just long enough for refinement
to catch it. Tracks are read in ascending id, which is the order they
started in (ids only grow), and the solve breaks ties in that order.

``push`` returns the frames no later step can change: frame t at once
with refinement off, frame t-1 with it on; ``finish`` returns the rest
and ends the sequence. A tracker holds at most two input and two output
frames.

Flow maps come from a flow source's ``grid(later, earlier)`` over two
pushed frames. The default draws them from the pushed (NMS'd) frames,
pairing people by input track id, or else by minimum total distance. A
``SequenceFlowSource`` built from ground truth is an oracle for a motion
estimator that has learned the true limb flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .assignment import FORBIDDEN, hungarian
from .encoder import EncoderConfig, FlowMap, LimbStrokes, limb_strokes

# Tracking never builds a FlowMapGrid, whose dense planes exist only once
# a caller reads them. encode_limb_flow stays importable from this module
# only because the benchmark traces it here by name (perfbench/layers.py)
# and its tests encode through it; its checks encode through
# cli.encode_limb_flow.
from .encoder import encode_limb_flow  # noqa: F401
from .pose import (
    FramePoses,
    JointCandidate,
    Pose,
    Sequence,
    joint_pairs_within,
    pose_arrays,
)
from .scoring import ScoreConfig, build_association_matrix, distance_matrix
from .skeleton import SkeletonTopology


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking options, checked when built: a built config is valid."""

    score_threshold: float = 0.1
    nms_radius: float = 5.0
    refine: bool = True
    score: ScoreConfig = field(default_factory=ScoreConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self) -> None:
        if not (0 <= self.nms_radius < math.inf):
            raise ValueError("nms_radius must be finite and >= 0")
        if not math.isfinite(self.score_threshold):
            raise ValueError("score_threshold must be finite")


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

    For each joint type, keep the highest-confidence visible candidate,
    drop all others within ``radius`` of it, repeat. Ties break by
    (confidence desc, x asc, y asc, pose position) so the result is
    deterministic. Suppressed joints are removed from their poses; poses
    left with no joints are dropped, and a pose that loses no joint is
    returned as it came. Invisible joints are not there (``Pose.joint``):
    they neither suppress a joint nor are suppressed.

    The pass runs over the frame's ``pose_arrays``. Two candidates are
    near unless ``dx ** 2 + dy ** 2 > radius * radius``, squared by
    ``np.float_power``, the C ``pow`` that Python's ``**`` calls, so each
    decision is the scalar rule's bit for bit. Only the pairs that
    ``joint_pairs_within`` finds in a box slightly wider than ``radius``
    (for ``pow``'s rounding and underflow) are squared. A candidate with
    no near candidate is kept outright; only the others walk the greedy
    order. Raises ``ValueError`` for a radius that is not >= 0.
    """
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    arrays = xy, confidence, present = pose_arrays(frame.poses, joint_count)
    box = np.full(len(xy), radius * (1.0 + 1e-9) + 1e-150)
    a, b, j, adx, ady = joint_pairs_within(arrays, arrays, box)
    near = (a != b) & ~(np.float_power(adx, 2) + np.float_power(ady, 2) > radius * radius)
    a, b, j = a[near], b[near], j[near]
    kept = present.copy()
    if len(a):
        neighbours: dict[tuple[int, int], list[int]] = {}
        for p, q, t in zip(a.tolist(), b.tolist(), j.tolist()):
            neighbours.setdefault((p, t), []).append(q)
        cp, cj = np.array(list(neighbours)).T
        order = np.lexsort((cp, xy[cp, cj, 1], xy[cp, cj, 0], -confidence[cp, cj], cj))
        kept[cp, cj] = False
        for p, t in zip(cp[order].tolist(), cj[order].tolist()):
            kept[p, t] = not any(kept[q, t] for q in neighbours[p, t])
    new_poses = []
    for pose, lost in zip(frame.poses, (present & ~kept).tolist()):
        if any(lost):
            joints = tuple(None if gone else c for c, gone in zip(pose.joints, lost))
            pose = replace(pose, joints=joints)
        if any(c is not None for c in pose.joints):
            new_poses.append(pose)
    return replace(frame, poses=tuple(new_poses))


def _reference_pairing(frame_a: FramePoses, frame_b: FramePoses) -> list[tuple[int, int]]:
    """Person correspondence used when drawing flow maps from a sequence.

    Pairs by track id when every pose in both frames carries one, and
    then raises ``ValueError`` for a frame that holds an id twice;
    otherwise falls back to a minimum-total-distance assignment
    (bootstrap pairing for unlabeled detections).
    """
    ids_a = [p.track_id for p in frame_a.poses]
    ids_b = [p.track_id for p in frame_b.poses]
    if all(i is not None for i in ids_a) and all(i is not None for i in ids_b):
        for f, ids in ((frame_a, ids_a), (frame_b, ids_b)):
            if len(set(ids)) < len(ids):
                raise ValueError(f"frame {f.frame_index} repeats a track id")
        by_id_b = {tid: j for j, tid in enumerate(ids_b)}
        return [(i, by_id_b[tid]) for i, tid in enumerate(ids_a) if tid in by_id_b]
    return hungarian(-distance_matrix(list(frame_a.poses), list(frame_b.poses)))


class SequenceFlowSource:
    """Flow-map provider backed by a reference sequence.

    ``grid(later, earlier)`` returns the strokes of the flow map between
    the reference frames that share the two given frames' indices. It
    raises ``ValueError`` when the reference lacks one of them or holds
    it at another image size.
    """

    def __init__(self, seq: Sequence, encoder_cfg: EncoderConfig):
        self.topology = seq.topology
        self.cfg = encoder_cfg
        self._by_index = {f.frame_index: f for f in seq.frames}

    def _reference(self, frame: FramePoses) -> FramePoses:
        i = frame.frame_index
        ref = self._by_index.get(i)
        if ref is None:
            raise ValueError(
                f"flow reference lacks frame {i}: its frame indices must include the input's"
            )
        if ref.image_size != frame.image_size:
            raise ValueError(
                f"flow reference frame {i} has image_size {ref.image_size}, not {frame.image_size}"
            )
        return ref

    def grid(self, later: FramePoses, earlier: FramePoses) -> LimbStrokes:
        fl, fe = self._reference(later), self._reference(earlier)
        return limb_strokes(fl, fe, _reference_pairing(fl, fe), self.topology, self.cfg)


class _PushedFrames(SequenceFlowSource):
    """The default flow source: every pushed frame is its own reference."""

    def _reference(self, frame: FramePoses) -> FramePoses:
        return frame


def _associate(
    later: list[Pose],
    earlier: list[Pose],
    flow: FlowMap,
    topo: SkeletonTopology,
    cfg: TrackerConfig,
    allowed: Optional[np.ndarray] = None,
) -> list[tuple[int, int]]:
    """The (later, earlier) links kept over a flow map drawn over (later, earlier).

    A pair whose ``allowed`` entry is False, or that scores below
    ``score_threshold``, is forbidden before the solve, so no link below
    the threshold displaces one above it. The links are the maximum
    cardinality, then maximum score assignment of the rest, by later pose.
    """
    scores = build_association_matrix(later, earlier, flow, topo, cfg.score).scores
    scores[scores < cfg.score_threshold] = FORBIDDEN
    if allowed is not None:
        scores[~allowed] = FORBIDDEN
    return hungarian(scores)


def match_frames(
    frame: FramePoses,
    tracks: list[Pose],
    grid: Optional[FlowMap],
    topo: SkeletonTopology,
    cfg: TrackerConfig,
) -> FramePoses:
    """Label one frame's poses with the ids of the tracks they link to.

    ``tracks`` holds the live tracks' latest poses, each labelled with its
    track's id. The flow map must be drawn over (this frame, previous
    frame). A pose the association step links to a track's pose takes
    that pose's id; every other pose comes back unlabelled.
    """
    accepted: dict[int, int] = {}
    if grid is not None:
        links = _associate(list(frame.poses), tracks, grid, topo, cfg)
        accepted = {i: tracks[j].track_id for i, j in links}
    labeled = [pose.with_track_id(accepted.get(i)) for i, pose in enumerate(frame.poses)]
    return replace(frame, poses=tuple(labeled))


def _average_pose(a: Pose, b: Pose, track_id: int, joint_count: int) -> Pose:
    joints: list[Optional[JointCandidate]] = []
    for j in range(joint_count):
        ca, cb = a.joint(j), b.joint(j)
        if ca is not None and cb is not None:
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


def _refinable_ids(frame_prev: FramePoses, frame_mid: FramePoses, frame_next: FramePoses) -> list[int]:
    """The ids seen at t-1 and missed at t, ascending; none if t+1 has no pose."""
    if not frame_next.poses:
        return []
    return sorted({p.track_id for p in frame_prev.poses} - {p.track_id for p in frame_mid.poses} - {None})


def refine_middle_frame(
    frame_prev: FramePoses,
    frame_mid: FramePoses,
    frame_next: FramePoses,
    grid_stride2: FlowMap,
    topo: SkeletonTopology,
    cfg: TrackerConfig,
) -> tuple[FramePoses, FramePoses, list[RefinementEntry]]:
    """Restore tracks that skipped the middle frame of a three-frame set.

    The ids seen at t-1 and missed at t go through the association step
    against the t+1 poses, on the stride-2 flow map drawn over (t+1,
    t-1). Two id rules keep ids unique within a frame: a labelled t+1
    pose may take only its own id, and an unlabelled one only an id that
    no t+1 pose holds, which it then receives. Each link inserts the
    joint-wise average of its t-1 and t+1 poses at t. Existing poses are
    never deleted or relabeled, only inserted; a person absent at t+1 as
    well simply cannot be refined.

    Returns the updated (middle frame, next frame) plus log entries.
    """
    missing = _refinable_ids(frame_prev, frame_mid, frame_next)
    if not missing:
        return frame_mid, frame_next, []
    prev_by_id = {p.track_id: p for p in frame_prev.poses if p.track_id is not None}
    next_poses = list(frame_next.poses)
    held = {p.track_id for p in next_poses}
    allowed = np.array(
        [[tid == p.track_id if p.track_id is not None else tid not in held for tid in missing]
         for p in next_poses]
    )
    links = _associate(next_poses, [prev_by_id[tid] for tid in missing], grid_stride2, topo, cfg, allowed)

    inserts: list[Pose] = []
    entries: list[RefinementEntry] = []
    for i, c in links:
        tid = missing[c]
        next_poses[i] = next_poses[i].with_track_id(tid)  # it had none or this one
        inserts.append(_average_pose(prev_by_id[tid], next_poses[i], tid, topo.joint_count))
        entries.append(RefinementEntry(frame_mid.frame_index, tid))

    new_mid = replace(frame_mid, poses=tuple(list(frame_mid.poses) + inserts))
    new_next = replace(frame_next, poses=tuple(next_poses))
    return new_mid, new_next, entries


class Tracker:
    """Online tracker: ``push`` frames in order, then ``finish``.

    ``tracks`` maps each live track's id to its latest pose, in ascending
    id, also after ``finish``; ``refinement_log`` lists every insertion so
    far. A flow source in another topology than ``topology`` raises
    ``ValueError``.
    """

    def __init__(
        self,
        topology: SkeletonTopology,
        cfg: TrackerConfig,
        flow_source: Optional[SequenceFlowSource] = None,
    ):
        self.topology = topology
        self.cfg = cfg
        if flow_source is None:
            flow_source = _PushedFrames(Sequence((), topology), cfg.encoder)
        if flow_source.topology != topology:
            raise ValueError("the flow source and the tracked frames have different topologies")
        self.flow_source = flow_source
        self.refinement_log: list[RefinementEntry] = []
        self._next_id = 0
        self._inputs: list[FramePoses] = []  # the last two NMS'd input frames
        self._outputs: list[FramePoses] = []  # the last two labelled frames
        self._finished = False

    @property
    def tracks(self) -> dict[int, Pose]:
        """Each live track's id and latest pose, in ascending id."""
        latest = {p.track_id: p for frame in self._outputs for p in frame.poses}
        return dict(sorted(latest.items()))

    def push(self, frame: FramePoses) -> list[FramePoses]:
        """Run one step on ``frame``; return the frames that became final."""
        if self._finished:
            raise ValueError(f"frame index {frame.frame_index} pushed after finish")
        if self._inputs and frame.frame_index <= self._inputs[-1].frame_index:
            raise ValueError(
                f"frame index {frame.frame_index} pushed after {self._inputs[-1].frame_index}; "
                "indices must increase"
            )
        topo, cfg = self.topology, self.cfg
        frame = suppress_duplicate_joints(frame, cfg.nms_radius, topo.joint_count)
        earlier = self._inputs
        grid = self.flow_source.grid(frame, earlier[-1]) if earlier else None
        labeled = match_frames(frame, list(self.tracks.values()), grid, topo, cfg)
        # A stride-2 map costs a pairing and its strokes: draw it only
        # when refinement has a missed track to link through it.
        if cfg.refine and len(earlier) == 2 and _refinable_ids(*self._outputs, labeled):
            grid2 = self.flow_source.grid(frame, earlier[0])
            prev, mid = self._outputs
            mid, labeled, entries = refine_middle_frame(prev, mid, labeled, grid2, topo, cfg)
            self._outputs[1] = mid
            self.refinement_log.extend(entries)
        self._inputs = (earlier + [frame])[-2:]
        self._outputs = (self._outputs + [self._start_tracks(labeled)])[-2:]
        # With refinement on, the next step may still insert poses at t.
        return self._outputs[-2:-1] if cfg.refine else self._outputs[-1:]

    def finish(self) -> list[FramePoses]:
        """Return the frames that no ``push`` has returned yet; no ``push`` may follow."""
        self._inputs = []
        self._finished = True
        return self._outputs[-1:] if self.cfg.refine else []

    def _start_tracks(self, frame: FramePoses) -> FramePoses:
        """``frame`` with each unlabelled pose starting a track of a fresh id."""
        poses = []
        for pose in frame.poses:
            if pose.track_id is None:
                pose = pose.with_track_id(self._next_id)
                self._next_id += 1
            poses.append(pose)
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
    tracker = Tracker(seq.topology, cfg, flow_source)
    frames = [final for frame in seq.frames for final in tracker.push(frame)]
    frames += tracker.finish()
    return TrackedSequence(tuple(frames), tuple(tracker.refinement_log), seq.topology)
