"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload puts most of a pass into a different layer of limbflow, so
every planned optimisation has one workload where its layer dominates and
one where it barely runs (shares measured on a 2-CPU x86-64 container):

* ``crowd-hd``: two 20-person crossing crowds in 960x720 with detector
  noise. About 75% dense encoding and 20% scoring; peak memory comes
  from the grid cache.
* ``crowd-assoc``: one association step between two frames of 50
  people in 1280x720, encoded at grid stride 4 so grids are small.
  About 70% scoring and 20% assignment.
* ``long-seq``: 4 people wandering for 30 frames in 256x192. Encoding
  dominates, and peak memory grows with the frame count because the
  tracker's flow source never evicts a grid.
* ``flowmap-dump``: the ``limbflow encode`` path at default settings for
  every adjacent frame pair of a 4-person scene of 8 frames in 640x480,
  with each TMLF dump written and read back in memory. Encodes every
  cell, unlike the tracker, and is the only workload where TMLF I/O runs.

A tracking pass is what ``limbflow track`` plus ``limbflow eval`` do,
without the disk: parse the candidate annotations, track, serialize the
result, evaluate it against ground truth. The program sees only the
generated inputs; the seed stays with the benchmark.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from limbflow import cli, fileio, metrics, synth, tracker
from limbflow.encoder import EncoderConfig
from limbflow.metrics import GROUP_ORDER, EvalReport
from limbflow.pose import FramePoses, Sequence


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "track" or "dump"
    scene: dict  # SceneConfig fields other than the seed
    # Weight of the reference loop's memory part when correcting this
    # workload's passes. It follows the share of large-array work (dense
    # grids, TMLF I/O) in a traced pass; among nearby values, the one that
    # left the least pass-to-pass variation within a run was kept.
    memory_share: float
    grid_stride: int = 1
    # Scenes per input set, tracked one after another. crowd-hd uses two:
    # the encoder work of one of its scenes varies by 8% between seeds.
    scenes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crowd-hd",
            "track",
            dict(people=20, motion="crossing", image_size=(960, 720), frames=3,
                 jitter_sigma=2.0, dropout_prob=0.05),
            memory_share=0.75,
            scenes=2,
        ),
        Workload(
            "crowd-assoc",
            "track",
            dict(people=50, motion="crossing", image_size=(1280, 720), frames=2),
            memory_share=0.1,
            grid_stride=4,
        ),
        Workload(
            "long-seq",
            "track",
            dict(people=4, motion="wander", image_size=(256, 192), frames=30),
            memory_share=0.5,
        ),
        Workload(
            "flowmap-dump",
            "dump",
            dict(people=4, motion="crossing", image_size=(640, 480), frames=8),
            memory_share=0.75,
        ),
    )
}


@dataclass(frozen=True)
class Scene:
    candidates: Sequence  # detector-style input, ids stripped
    candidates_text: str  # the same, as an annotations document
    gt: Sequence


@dataclass(frozen=True)
class Inputs:
    scenes: tuple[Scene, ...]
    tracker_config: tracker.TrackerConfig


@dataclass
class PassResult:
    """One pass: its time, its checked operations and its outputs' summary."""

    elapsed_s: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    digest: Optional[str] = None  # SHA-256 of the tracked annotations
    mota: Optional[float] = None  # mean total MOTA over the scenes
    id_switches: Optional[int] = None  # total over the scenes


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's fixed input set; deterministic in the seed."""
    scenes = []
    for i in range(workload.scenes):
        config = synth.SceneConfig(seed=seed * workload.scenes + i, **workload.scene)
        gt = synth.generate_sequence(config)
        candidates = synth.apply_corruption(gt, config)
        scenes.append(Scene(candidates, fileio.serialize_annotations(candidates), gt))
    config = tracker.TrackerConfig(encoder=EncoderConfig(grid_stride=workload.grid_stride))
    return Inputs(tuple(scenes), config)


def run_pass(workload: Workload, inputs: Inputs) -> PassResult:
    if workload.kind == "track":
        return _track_pass(inputs)
    return _dump_pass(inputs)


def _track_pass(inputs: Inputs) -> PassResult:
    """Track and evaluate every scene; only the calls into limbflow are timed."""
    elapsed = 0.0
    attempted = 0
    failures: list[str] = []
    digest = hashlib.sha256()
    motas, id_switches = [], 0
    for scene in inputs.scenes:
        t0 = time.perf_counter()
        seq = fileio.parse_annotations(scene.candidates_text)
        tracked = tracker.track_sequence(seq, inputs.tracker_config)
        text = fileio.serialize_annotations(tracked)
        report = metrics.evaluate(scene.gt, tracked)
        elapsed += time.perf_counter() - t0

        expected = [f.frame_index for f in scene.candidates.frames]
        attempted += len(expected) + 2  # each frame, the frame list, the report
        failures += check_tracked(expected, tracked.frames) + check_report(report)
        digest.update(text.encode("utf-8"))
        motas.append(report.total_mota())
        id_switches += report.total_counts.idsw
    return PassResult(
        elapsed_s=elapsed,
        attempted=attempted,
        failures=failures,
        digest=digest.hexdigest(),
        mota=None if None in motas else sum(motas) / len(motas),
        id_switches=id_switches,
    )


def _dump_pass(inputs: Inputs) -> PassResult:
    """Encode, dump and read back every adjacent frame pair of every scene.

    Only the calls into limbflow are timed. Each pair is checked and
    dropped before the next, so at most one grid and its read-back are
    alive, as in a loop over ``limbflow encode`` invocations.
    """
    config = EncoderConfig()
    elapsed = 0.0
    attempted = 0
    failures: list[str] = []
    for scene in inputs.scenes:
        frames = scene.candidates.frames
        topo = scene.candidates.topology
        for later, earlier in zip(frames[1:], frames[:-1]):
            t0 = time.perf_counter()
            pairing = cli._reference_pairing(later, earlier)
            grid = cli.encode_limb_flow(later, earlier, pairing, topo, config)
            data = fileio.flowmap_to_bytes(grid)
            back = fileio.flowmap_from_bytes(data)
            elapsed += time.perf_counter() - t0
            attempted += 1
            failures += check_roundtrip(grid, back, f"pair {later.frame_index}-{earlier.frame_index}")
            del grid, back, data
    return PassResult(elapsed_s=elapsed, attempted=attempted, failures=failures)


def check_tracked(expected_indices: list[int], frames: tuple[FramePoses, ...]) -> list[str]:
    """One failure per bad frame, plus one if the frame list differs.

    Every input frame index is kept in order, every pose has a track id
    and no id repeats within a frame.
    """
    failures = []
    got = [f.frame_index for f in frames]
    if got != expected_indices:
        failures.append(f"frame indices {got} differ from input {expected_indices}")
    by_index = {f.frame_index: f for f in frames}
    for idx in expected_indices:
        frame = by_index.get(idx)
        if frame is None:
            failures.append(f"frame {idx}: missing from output")
            continue
        ids = [p.track_id for p in frame.poses]
        if any(i is None for i in ids):
            failures.append(f"frame {idx}: pose without a track id")
        elif len(set(ids)) != len(ids):
            failures.append(f"frame {idx}: duplicate track id")
    return failures


def check_report(report: EvalReport) -> list[str]:
    """The report carries every summary figure as a finite number."""
    figures = {f"mota.{g}": report.group_mota().get(g) for g in GROUP_ORDER}
    figures.update(
        {"mota.total": report.total_mota(), "motp": report.motp, "map": report.mean_ap}
    )
    figures.update({f"ap.{k}": v for k, v in report.per_joint_ap.items()})
    bad = sorted(k for k, v in figures.items() if v is None or not math.isfinite(v))
    return [f"report lacks {', '.join(bad)}"] if bad else []


def check_roundtrip(grid, back, where: str) -> list[str]:
    """The TMLF read-back equals the float32 cast of the encoded grid."""
    same_header = (
        (back.layout, back.limb_count, back.width, back.height, back.grid_stride)
        == (grid.layout, grid.limb_count, grid.width, grid.height, grid.grid_stride)
    )
    expected = grid.vectors.astype(np.float32).astype(np.float64)
    if not same_header or not np.array_equal(back.vectors, expected):
        return [f"{where}: TMLF read-back differs from the float32 grid"]
    return []
