"""Output checks of the benchmark, counts that must repeat, and the spec."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import layers
import spans
import workloads
from limbflow import tracker
from limbflow.pose import FramePoses

ROOT = Path(__file__).resolve().parents[2]

# Small stand-ins for the real workloads, one of each kind.
TINY = {
    "track": workloads.Workload(
        "tiny-track", "track",
        dict(people=3, motion="crossing", image_size=(160, 120), frames=5,
             jitter_sigma=1.0, dropout_prob=0.1),
        memory_share=0.5,
    ),
    "dump": workloads.Workload(
        "tiny-dump", "dump", dict(people=2, motion="crossing", image_size=(96, 72), frames=3),
        memory_share=1.0,
    ),
}


def _with_duplicate_id(tracked):
    frames = list(tracked.frames)
    f = frames[1]
    first = f.poses[0].track_id
    frames[1] = dataclasses.replace(
        f, poses=(f.poses[0], f.poses[1].with_track_id(first)) + f.poses[2:]
    )
    return dataclasses.replace(tracked, frames=tuple(frames))


def test_clean_passes_have_no_failures():
    for workload in TINY.values():
        result = workloads.run_pass(workload, workloads.build_inputs(workload, seed=1))
        assert result.failures == []
        assert result.attempted >= 2
        assert result.elapsed_s > 0


def test_duplicate_id_in_one_frame_counts_as_one_failed_operation(monkeypatch):
    workload = TINY["track"]
    inputs = workloads.build_inputs(workload, seed=1)
    clean = workloads.run_pass(workload, inputs)
    real = tracker.track_sequence
    monkeypatch.setattr(tracker, "track_sequence", lambda *a, **k: _with_duplicate_id(real(*a, **k)))
    bad = workloads.run_pass(workload, inputs)
    assert bad.failures == ["frame 1: duplicate track id"]
    assert bad.digest != clean.digest

    checks = child._Checks()
    checks.add(clean)
    checks.add(bad)
    summary = checks.summary()
    assert summary["attempted"] == 2 * (clean.attempted + 1)
    # The duplicate, and the output no longer repeating across passes.
    assert summary["failed"] == 2


def test_frame_checks():
    f = lambda i, ids: FramePoses(i, tuple(_pose(t) for t in ids), (10, 10))  # noqa: E731
    assert workloads.check_tracked([0, 1], (f(0, [0, 1]), f(1, [1, 0]))) == []
    assert workloads.check_tracked([0, 1], (f(0, [0, None]), f(1, [0]))) == [
        "frame 0: pose without a track id"
    ]
    assert len(workloads.check_tracked([0, 1, 2], (f(0, [0]), f(2, [0])))) == 2


def _pose(track_id):
    from limbflow.pose import Pose

    return Pose(joints=(None,), track_id=track_id)


def test_report_check_names_missing_figures():
    workload = TINY["track"]
    scene = workloads.build_inputs(workload, seed=2).scenes[0]
    from limbflow import metrics

    report = metrics.evaluate(scene.gt, scene.gt)
    assert workloads.check_report(report) == []
    report.motp = None
    report.mean_ap = float("nan")
    assert workloads.check_report(report) == ["report lacks map, motp"]


def test_roundtrip_check_catches_a_changed_cell():
    from limbflow import fileio

    workload = TINY["dump"]
    candidates = workloads.build_inputs(workload, seed=0).scenes[0].candidates
    later, earlier = candidates.frames[1], candidates.frames[0]
    grid = tracker.encode_limb_flow(
        later, earlier, tracker._reference_pairing(later, earlier),
        candidates.topology, workloads.EncoderConfig(),
    )
    back = fileio.flowmap_from_bytes(fileio.flowmap_to_bytes(grid))
    assert workloads.check_roundtrip(grid, back, "p") == []
    back.vectors[0, 0, 0, 0] += 1e-3
    assert workloads.check_roundtrip(grid, back, "p") == ["p: TMLF read-back differs from the float32 grid"]


@pytest.mark.parametrize("kind", ["track", "dump"])
def test_counts_repeat_exactly_between_runs(kind):
    workload = TINY[kind]
    inputs = workloads.build_inputs(workload, seed=3)
    seen = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed(layers.SITES) as missing:
            result = workloads.run_pass(workload, inputs)
        assert missing == []
        m = layers.pass_metrics(tracer.spans, result.elapsed_s)
        seen.append({k: m[k] for k in layers.EXACT_METRICS if k in m})
    assert seen[0] == seen[1]
    assert seen[0]["encoder.encode.calls"] > 0


def test_workloads_inputs_are_deterministic_in_the_seed():
    w = TINY["track"]
    w = dataclasses.replace(w, scenes=2)

    def texts(seed):
        return [s.candidates_text for s in workloads.build_inputs(w, seed).scenes]

    assert texts(4) == texts(4)
    assert len(set(texts(4))) == 2
    assert not set(texts(4)) & set(texts(5))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd-hd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
