import json
import struct
import tracemalloc
from pathlib import Path

import pytest

from limbflow.augment import StrideConfig
from limbflow.cli import RunConfig, main
from limbflow.fileio import read_annotations
from limbflow.synth import SceneConfig
from limbflow.tracker import TrackerConfig


def run(args):
    return main([str(a) for a in args])


def test_synth_deterministic(tmp_path, capsys):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    common = ["--preset", "crossing", "--seed", "7", "--people", "2", "--frames", "8"]
    assert run(["synth", "--out", a1, *common]) == 0
    assert run(["synth", "--out", a2, *common]) == 0
    assert a1.read_bytes() == a2.read_bytes()
    assert (tmp_path / "a1.json.gt.json").read_bytes() == (tmp_path / "a2.json.gt.json").read_bytes()


def test_track_on_ground_truth_then_eval_mota_100(tmp_path, capsys):
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "wander", "--seed", "3",
        "--people", "2", "--frames", "6", "--speed", "5",
    ]) == 0
    gt = tmp_path / "cand.json.gt.json"
    tracked = tmp_path / "tracked.json"
    log = tmp_path / "refine.json"
    # track the uncorrupted ground truth itself
    assert run(["track", "--in", gt, "--out", tracked, "--log-out", log]) == 0
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", "--gt", gt, "--pred", tracked, "--report-out", report]) == 0
    out = capsys.readouterr().out
    assert "Total MOTA 100.0" in out
    data = json.loads(report.read_text())
    assert data["mota"]["total"] == pytest.approx(100.0)
    assert json.loads(log.read_text()) == []


def test_track_with_flow_from_sidecar(tmp_path):
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "occlusion-middle", "--seed", "4",
        "--people", "2", "--frames", "9", "--speed", "8",
        "--image-width", "192", "--image-height", "120",
    ]) == 0
    tracked = tmp_path / "tracked.json"
    log = tmp_path / "log.json"
    assert run([
        "track", "--in", ann, "--flow-from", tmp_path / "cand.json.gt.json",
        "--out", tracked, "--log-out", log,
    ]) == 0
    entries = json.loads(log.read_text())
    assert len(entries) == 1
    assert entries[0]["source"] == "stride2-average"


def _flow_from_variant(tmp_path, edit):
    """Track the synth candidates against their ground truth after
    ``edit`` rewrote each frame of the ground truth; the exit code."""
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "crossing", "--seed", "2",
        "--people", "2", "--frames", "4",
    ]) == 0
    doc = json.loads((tmp_path / "cand.json.gt.json").read_text())
    for f in doc["frames"]:
        edit(f)
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(doc))
    return run(["track", "--in", ann, "--flow-from", ref, "--out", tmp_path / "tracked.json"])


def test_flow_from_with_another_image_size_exits_3(tmp_path, capsys):
    def halve(f):
        f["image_size"] = [f["image_size"][0] // 2, f["image_size"][1] // 2]

    assert _flow_from_variant(tmp_path, halve) == 3
    assert "image_size" in capsys.readouterr().err


def test_flow_from_with_other_frame_indices_exits_3(tmp_path, capsys):
    def shift(f):
        f["frame_index"] += 1

    assert _flow_from_variant(tmp_path, shift) == 3
    assert "frame indices" in capsys.readouterr().err


def test_flow_from_with_the_input_geometry_tracks(tmp_path):
    assert _flow_from_variant(tmp_path, lambda f: None) == 0


def test_encode_layout_byte(tmp_path):
    ann = tmp_path / "cand.json"
    assert run(["synth", "--out", ann, "--preset", "wander", "--seed", "1", "--frames", "4"]) == 0
    out = tmp_path / "map.tmlf"
    assert run([
        "encode", "--in", tmp_path / "cand.json.gt.json", "--t1", "0", "--t2", "1",
        "--layout", "accumulated", "--out", out,
    ]) == 0
    blob = out.read_bytes()
    header = struct.unpack_from("<4sHBHIIIBQ", blob)
    magic, version, layout_byte, limb_count, w, h, stride, has_counts, n = header
    assert (magic, version, layout_byte, limb_count, stride, has_counts) == (b"TMLF", 3, 1, 14, 1, 1)
    assert 0 < n < w * h
    assert len(blob) == 30 + 20 * n

    out2 = tmp_path / "map_ind.tmlf"
    assert run([
        "encode", "--in", tmp_path / "cand.json.gt.json", "--t1", "1", "--t2", "0",
        "--out", out2,
    ]) == 0
    blob2 = out2.read_bytes()
    assert blob2[6] == 0
    n2 = struct.unpack_from("<Q", blob2, 22)[0]
    assert 0 < n2 < 14 * w * h
    assert len(blob2) == 30 + 20 * n2


def test_encode_builds_no_dense_grid(tmp_path, capsys):
    # One 1280x720 grid in planes is 14 x 720 x 1280 slots of float64
    # vectors and int32 counts, about 258 MB; encoding and writing it need
    # only the covered cells and the kernel's per-candidate temporaries
    # (about 15 MB here).
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "wander", "--seed", "2", "--people", "6",
        "--frames", "2", "--image-width", "1280", "--image-height", "720",
    ]) == 0
    out = tmp_path / "map.tmlf"
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run([
            "encode", "--in", tmp_path / "cand.json.gt.json", "--t1", "0", "--t2", "1", "--out", out,
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "individual layout, 14 channels, 1280x720 cells" in capsys.readouterr().out
    n = struct.unpack_from("<Q", out.read_bytes(), 22)[0]
    assert n > 0
    assert peak < 64 * 2**20


def test_exit_codes(tmp_path, capsys):
    assert run(["nonsense"]) == 1  # usage
    assert run(["track", "--in", tmp_path / "missing.json", "--out", tmp_path / "o.json"]) == 2  # I/O
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["track", "--in", bad, "--out", tmp_path / "o.json"]) == 3  # validation
    assert run(["synth", "--out", tmp_path / "x.json", "--preset", "sprint"]) == 3
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = wander\nseed = 5\nframes = 4\npeople = 1\nspeed = 3.0\n")
    out1 = tmp_path / "c1.json"
    assert run(["synth", "--config", cfg, "--out", out1]) == 0
    seq = read_annotations(str(out1))
    assert len(seq.frames) == 4
    out2 = tmp_path / "c2.json"
    assert run(["synth", "--config", cfg, "--out", out2, "--frames", "6"]) == 0
    assert len(read_annotations(str(out2)).frames) == 6


def test_config_file_epsilon_motion_reaches_the_scorer(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epsilon_motion = 0.5\n")
    cfg = RunConfig()
    cfg.load_file(str(path))
    tracker = cfg.tracker()
    assert tracker.encoder.epsilon_motion == 0.5
    assert tracker.score.epsilon_motion == tracker.encoder.epsilon_motion


def test_run_config_defaults_are_the_config_defaults():
    cfg = RunConfig()
    assert cfg.tracker() == TrackerConfig()
    assert cfg.stride() == StrideConfig()
    assert cfg.scene() == SceneConfig()


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fame = 4\n")
    assert run(["synth", "--config", cfg, "--out", tmp_path / "x.json"]) == 3


def test_eval_rejects_unknown_config_key(tmp_path, capsys):
    ann = tmp_path / "cand.json"
    assert run(["synth", "--out", ann, "--people", "1", "--frames", "2"]) == 0
    gt = tmp_path / "cand.json.gt.json"
    assert run(["eval", "--gt", gt, "--pred", gt]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fame = 4\n")
    capsys.readouterr()
    assert run(["eval", "--config", cfg, "--gt", gt, "--pred", gt]) == 3
    assert "unknown config key" in capsys.readouterr().err


def test_augment_outputs_and_jobs_stability(tmp_path):
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "wander", "--seed", "2",
        "--frames", "10", "--people", "2", "--speed", "4",
        "--image-width", "224", "--image-height", "160",
    ]) == 0
    gt = tmp_path / "cand.json.gt.json"
    out_a = tmp_path / "aug_a"
    out_b = tmp_path / "aug_b"
    base = ["augment", "--in", gt, "--samples", "6", "--seed", "11",
            "--crop-width", "96", "--crop-height", "96"]
    assert run([*base, "--out-dir", out_a]) == 0
    assert run([*base, "--out-dir", out_b]) == 0
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_a == man_b
    assert len(man_a) == 6
    for entry in man_a:
        assert 1 <= entry["t2"] - entry["t1"] <= 4
        sample = read_annotations(str(out_a / entry["file"]))
        assert len(sample.frames) == 2
        assert sample.frames[0].image_size == (96, 96)
        assert (out_a / entry["file"]).read_bytes() == (out_b / entry["file"]).read_bytes()


def test_topology_flag(tmp_path):
    topo_cfg = tmp_path / "topo.cfg"
    topo_cfg.write_text(
        'name = "default15clone"\n'
        "joints = " + repr(list(map(str, range(15)))) + "\n"
        "limbs = [[0,1],[1,2],[2,3],[3,4],[4,5],[2,6],[6,7],[7,8],[2,9],[9,10],[10,11],[2,12],[12,13],[13,14]]\n"
        "head_segment = [0, 2]\n"
    )
    ann = tmp_path / "c.json"
    assert run(["synth", "--out", ann, "--preset", "static", "--frames", "2"]) == 0
    # reading with an explicit topology bypasses the name registry
    text = (tmp_path / "c.json.gt.json").read_text().replace("default15", "default15clone")
    renamed = tmp_path / "renamed.json"
    renamed.write_text(text)
    tracked = tmp_path / "t.json"
    assert run(["track", "--in", renamed, "--topology", topo_cfg, "--out", tracked]) == 0


def test_eval_rejects_gt_without_track_ids(tmp_path, capsys):
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "wander", "--seed", "3",
        "--people", "2", "--frames", "4",
    ]) == 0
    tracked = tmp_path / "tracked.json"
    assert run(["track", "--in", ann, "--out", tracked]) == 0
    capsys.readouterr()
    # the candidate file carries no track ids, so it cannot serve as ground truth
    assert run(["eval", "--gt", ann, "--pred", tracked]) == 3
    assert "has no track id" in capsys.readouterr().err
