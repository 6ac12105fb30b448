import json
import struct
from pathlib import Path

import pytest

from limbflow.augment import StrideConfig
from limbflow.cli import RunConfig, build_parser, main
from limbflow.fileio import read_annotations
from limbflow.skeleton import default_topology
from limbflow.synth import SceneConfig
from limbflow.tracker import TrackerConfig

from helpers import traced_peak


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


def test_encode_of_one_frame_with_itself_exits_3(tmp_path, capsys):
    # --t1 1 --t2 1 wrote an all-zero 14-channel map and exited 0.
    ann = _synth_scene(tmp_path)
    out = tmp_path / "map.tmlf"
    capsys.readouterr()
    assert run(["encode", "--in", ann, "--t1", "1", "--t2", "1", "--out", out]) == 3
    assert not out.exists()
    assert "same frame 1" in capsys.readouterr().err


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

    def encode():
        assert run([
            "encode", "--in", tmp_path / "cand.json.gt.json", "--t1", "0", "--t2", "1", "--out", out,
        ]) == 0

    peak = traced_peak(encode)
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


def test_augment_with_a_negative_sample_count_exits_3(tmp_path, capsys):
    # --samples -3 printed "wrote -3 samples", wrote an empty manifest and exited 0.
    ann = _synth_scene(tmp_path)
    out_dir = tmp_path / "aug"
    capsys.readouterr()
    assert run(["augment", "--in", ann, "--out-dir", out_dir, "--samples", "-3"]) == 3
    assert not out_dir.exists()
    assert "--samples must be >= 0" in capsys.readouterr().err


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


def test_synth_has_no_topology_flag(tmp_path):
    # synth draws default15 only; the flag it accepted was never read.
    assert run(["synth", "--out", tmp_path / "c.json", "--topology", "x"]) == 1
    assert not (tmp_path / "c.json").exists()


def test_a_boolean_version_or_a_float_limb_index_exits_3(tmp_path):
    ann = tmp_path / "c.json"
    assert run(["synth", "--out", ann, "--preset", "static", "--frames", "2"]) == 0
    doc = json.loads(ann.read_text())
    doc["version"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["track", "--in", bad, "--out", tmp_path / "t.json"]) == 3
    # default15 but for one limb index written as a float: it used to load
    # as default15 and evaluate.
    topo = default_topology()
    limbs = [list(limb) for limb in topo.limbs]
    limbs[0][1] = 1.0
    topo_cfg = tmp_path / "topo.cfg"
    topo_cfg.write_text(f"joints = {list(topo.joint_names)}\nlimbs = {limbs}\nhead_segment = [0, 2]\n")
    gt = tmp_path / "c.json.gt.json"
    assert run(["eval", "--gt", gt, "--pred", gt, "--topology", topo_cfg]) == 3


@pytest.mark.parametrize("command", ["eval", "track --flow-from", "encode", "eval --topology"])
def test_a_frame_repeating_a_track_id_or_a_one_joint_head_exits_3(tmp_path, capsys, command):
    # Each of these ran and exited 0 with a plausible result: the eval of
    # a gt frame holding id 0 twice, the strokes of both poses of id 0 from
    # the one earlier pose of id 0, and a head length of 0 everywhere.
    ann = tmp_path / "c.json"
    assert run(["synth", "--out", ann, "--preset", "wander", "--people", "3", "--frames", "3"]) == 0
    gt = tmp_path / "c.json.gt.json"
    doc = json.loads(gt.read_text())
    doc["frames"][1]["poses"][1]["track_id"] = doc["frames"][1]["poses"][0]["track_id"]
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(doc))
    topo = default_topology()
    topo_cfg = tmp_path / "topo.cfg"
    limbs = [list(limb) for limb in topo.limbs]
    topo_cfg.write_text(f"joints = {list(topo.joint_names)}\nlimbs = {limbs}\nhead_segment = [2, 2]\n")
    args, message = {
        "eval": (["eval", "--gt", twice, "--pred", gt], "ground truth frame 1 repeats a track id"),
        "track --flow-from": (
            ["track", "--in", ann, "--flow-from", twice, "--out", tmp_path / "t.json"],
            "frame 1 repeats a track id",
        ),
        "encode": (
            ["encode", "--in", twice, "--t1", "0", "--t2", "1", "--out", tmp_path / "m.tmlf"],
            "frame 1 repeats a track id",
        ),
        "eval --topology": (
            ["eval", "--gt", gt, "--pred", gt, "--topology", topo_cfg],
            "head_segment joins joint 2 to itself",
        ),
    }[command]
    capsys.readouterr()
    assert run(args) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--topology"])
def test_a_repeated_config_key_exits_3(tmp_path, capsys, flag):
    # Keeping the last of a repeated key let a duplicated line change a run silently.
    ann = tmp_path / "c.json"
    assert run(["synth", "--out", ann, "--preset", "static", "--frames", "2"]) == 0
    lines = {
        "--config": ["nms_radius = 4.0", "refine = True"],
        "--topology": [
            "joints = " + repr(list(map(str, range(15)))),
            "limbs = [[0,1],[1,2],[2,3],[3,4],[4,5],[2,6],[6,7],[7,8],[2,9],[9,10],[10,11],[2,12],[12,13],[13,14]]",
            "head_segment = [0, 2]",
        ],
    }[flag]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.json"
    assert run(["track", "--in", ann, "--out", out, flag, cfg]) == 0
    cfg.write_text("\n".join(lines + [lines[0]]) + "\n")
    capsys.readouterr()
    assert run(["track", "--in", ann, "--out", out, flag, cfg]) == 3
    key = lines[0].partition(" =")[0]
    assert f"line {len(lines) + 1}: key {key!r} repeats line 1" in capsys.readouterr().err


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


def _synth_scene(tmp_path):
    ann = tmp_path / "cand.json"
    assert run(["synth", "--out", ann, "--preset", "wander", "--people", "4", "--frames", "6"]) == 0
    return ann


def test_track_rejects_a_nan_nms_radius(tmp_path, capsys):
    # NaN fails every NMS distance test: each frame kept one joint per type.
    ann = _synth_scene(tmp_path)
    out = tmp_path / "tracked.json"
    assert run(["track", "--in", ann, "--out", out, "--nms-radius", "nan"]) == 3
    assert not out.exists()
    assert "nms_radius" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        # The scorer reads the nearest cell only, and one constant is the
        # motion threshold: neither is a run option.
        ("track", "bilinear = True"),
        ("track", "epsilon_motion = 0.5"),
        ("encode", "epsilon_motion = 0.5"),
    ],
)
def test_config_file_removed_key_exits_3(tmp_path, capsys, command, line):
    ann = _synth_scene(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    args = {
        "track": ["track", "--in", ann, "--out", out],
        "encode": ["encode", "--in", ann, "--t1", "0", "--t2", "1", "--out", out],
    }[command]
    capsys.readouterr()
    assert run([*args, "--config", cfg]) == 3
    assert not out.exists()
    assert f"unknown config key {line.split(' = ')[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["nan", "inf", "0", "-1"])
def test_eval_rejects_a_bad_pckh_factor(tmp_path, capsys, factor):
    # A NaN factor matched no joint: "Total MOTA -100.0".
    gt = tmp_path / "cand.json.gt.json"
    _synth_scene(tmp_path)
    capsys.readouterr()
    assert run(["eval", "--gt", gt, "--pred", gt, "--pckh-factor", factor]) == 3
    captured = capsys.readouterr()
    assert "MOTA" not in captured.out
    assert "thresh_factor" in captured.err


# Every subcommand's options, in parser order: (option strings, dest, type,
# default). The run options' types come from the component configs' field
# defaults; this table pins what the parser makes of them.
PARSER_OPTIONS = {
    "synth": [
        ("--config", "config", None, None),
        ("--out", "out", None, None),
        ("--gt-out", "gt_out", None, None),
        ("--people", "people", int, None),
        ("--frames", "frames", int, None),
        ("--image-width", "image_width", int, None),
        ("--image-height", "image_height", int, None),
        ("--preset", "preset", str, None),
        ("--speed", "speed", float, None),
        ("--jitter-sigma", "jitter_sigma", float, None),
        ("--dropout-prob", "dropout_prob", float, None),
        ("--seed", "seed", int, None),
    ],
    "encode": [
        ("--config", "config", None, None),
        ("--topology", "topology", None, None),
        ("--in", "in_path", None, None),
        ("--t1", "t1", int, None),
        ("--t2", "t2", int, None),
        ("--out", "out", None, None),
        ("--parts-per-limb", "parts_per_limb", int, None),
        ("--stroke-half-width", "stroke_half_width", float, None),
        ("--layout", "layout", str, None),
        ("--grid-stride", "grid_stride", int, None),
    ],
    "track": [
        ("--config", "config", None, None),
        ("--topology", "topology", None, None),
        ("--in", "in_path", None, None),
        ("--out", "out", None, None),
        ("--log-out", "log_out", None, None),
        ("--flow-from", "flow_from", None, None),
        ("--alpha", "alpha", float, None),
        ("--integral-samples", "integral_samples", int, None),
        ("--distance-scale", "distance_scale", float, None),
        ("--score-threshold", "score_threshold", float, None),
        ("--nms-radius", "nms_radius", float, None),
        ("--parts-per-limb", "parts_per_limb", int, None),
        ("--stroke-half-width", "stroke_half_width", float, None),
        ("--layout", "layout", str, None),
        ("--grid-stride", "grid_stride", int, None),
        ("--refine", "refine", None, None),
        ("--no-refine", "refine", None, True),
    ],
    "eval": [
        ("--config", "config", None, None),
        ("--topology", "topology", None, None),
        ("--gt", "gt", None, None),
        ("--pred", "pred", None, None),
        ("--report-out", "report_out", None, None),
        ("--pckh-factor", "pckh_factor", float, 0.5),
    ],
    "augment": [
        ("--config", "config", None, None),
        ("--topology", "topology", None, None),
        ("--in", "in_path", None, None),
        ("--out-dir", "out_dir", None, None),
        ("--samples", "samples", int, 16),
        ("--max-stride", "max_stride", int, None),
        ("--scale-min", "scale_min", float, None),
        ("--scale-max", "scale_max", float, None),
        ("--rotation-range", "rotation_range", float, None),
        ("--crop-width", "crop_width", int, None),
        ("--crop-height", "crop_height", int, None),
        ("--seed", "seed", int, None),
    ],
}


def test_every_subcommand_keeps_its_options():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        name: [("/".join(a.option_strings), a.dest, a.type, a.default) for a in p._actions if a.dest != "help"]
        for name, p in sub.choices.items()
    }
    assert options == PARSER_OPTIONS


@pytest.mark.parametrize(
    "command, line",
    [
        ("track", "refine = false"),  # a bare string: it used to turn refinement on
        ("track", "layout = 1"),
        ("synth", "people = 2.7"),  # an int key used to truncate a float
        ("synth", "frames = True"),
        ("track", "grid_stride = 2.9"),
        # float() of an int this large raised OverflowError: a traceback and exit 1
        pytest.param("track", "distance_scale = 1" + "0" * 400, id="track-distance_scale-10**400"),
    ],
)
def test_config_file_value_of_the_wrong_type_exits_3(tmp_path, capsys, command, line):
    ann = _synth_scene(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.json"
    args = {"track": ["track", "--in", ann], "synth": ["synth"]}[command]
    capsys.readouterr()
    assert run([*args, "--config", cfg, "--out", out]) == 3
    assert not out.exists()
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err


def test_config_file_refine_false_disables_refinement(tmp_path):
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "occlusion-middle", "--seed", "4",
        "--people", "2", "--frames", "9", "--speed", "8",
        "--image-width", "192", "--image-height", "120",
    ]) == 0
    base = ["track", "--in", ann, "--flow-from", tmp_path / "cand.json.gt.json", "--out", tmp_path / "t.json"]
    log = tmp_path / "log.json"
    assert run([*base, "--log-out", log]) == 0
    assert len(json.loads(log.read_text())) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("refine = False\n")
    assert run([*base, "--log-out", log, "--config", cfg]) == 0
    assert json.loads(log.read_text()) == []


def test_config_file_keys_take_their_field_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("speed = 3\nseed = 7\nscale_max = 2\n")
    cfg = RunConfig()
    cfg.load_file(str(path))
    scene, stride = cfg.scene(), cfg.stride()
    assert type(scene.speed) is float and scene.speed == 3.0  # a float key takes an int
    assert type(stride.scale_range[1]) is float
    assert scene.seed == stride.rng_seed == 7  # a shared key sets both configs


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("synth", "--jitter-sigma", "nan", "jitter_sigma"),  # wrote the bytes of sigma 0
        ("synth", "--jitter-sigma", "inf", "jitter_sigma"),  # wrote "confidence":NaN
        ("synth", "--speed", "nan", "speed"),
        ("synth", "--speed", "inf", "speed"),  # crashed with an OverflowError
        ("augment", "--rotation-range", "nan", "rotation_range"),
        ("augment", "--rotation-range", "inf", "rotation_range"),
        ("augment", "--scale-min", "nan", "scale_range"),
        ("augment", "--scale-max", "inf", "scale_range"),
    ],
)
def test_non_finite_scene_and_stride_values_exit_3(tmp_path, capsys, command, flag, value, field):
    out = tmp_path / "out"
    args = {
        "synth": ["synth", "--out", out],
        "augment": ["augment", "--in", _synth_scene(tmp_path), "--out-dir", out],
    }[command]
    capsys.readouterr()
    assert run([*args, flag, value]) == 3
    assert not out.exists()
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("track", "stroke_half_width"),  # every stroke covered every cell
        ("encode", "stroke_half_width"),
        ("track", "distance_scale"),  # the distance term read 1 for every pair
        ("track", "nms_radius"),
    ],
)
def test_an_infinite_size_exits_3(tmp_path, capsys, source, command, key):
    # A 24x24 scene, so that a run which accepts the value stays small.
    ann = tmp_path / "cand.json"
    assert run([
        "synth", "--out", ann, "--preset", "wander", "--people", "2", "--frames", "3",
        "--image-width", "24", "--image-height", "24",
    ]) == 0
    out = tmp_path / "out"
    args = {
        "track": ["track", "--in", ann, "--out", out],
        "encode": ["encode", "--in", ann, "--t1", "0", "--t2", "1", "--out", out],
    }[command]
    if source == "flag":
        args += ["--" + key.replace("_", "-"), "inf"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1e999\n")  # a literal that reads as inf
        args += ["--config", cfg]
    capsys.readouterr()
    assert run(args) == 3
    assert not out.exists()
    assert f"{key} must be finite" in capsys.readouterr().err


def _resized_scene(tmp_path, size):
    """A synthesized 2-frame scene whose frames claim ``size`` pixels."""
    ann = tmp_path / "cand.json"
    assert run(["synth", "--out", ann, "--preset", "wander", "--people", "2", "--frames", "2"]) == 0
    doc = json.loads((tmp_path / "cand.json.gt.json").read_text())
    for f in doc["frames"]:
        f["image_size"] = list(size)
    ann.write_text(json.dumps(doc))
    return ann


@pytest.mark.parametrize("size, message", [
    ((2**31, 2**31), "too many for int64 keys"),  # exited 0 with a map its reader rejects
    ((2**40, 2**30), "too many for int64 keys"),  # exited 1 (OverflowError)
    ((2**33, 4), "width 8589934592 is outside"),  # exited 1 (struct.error), empty file left
], ids=["2^31x2^31", "2^40x2^30", "2^33x4"])
def test_encode_of_an_unwritable_map_exits_3_and_writes_nothing(tmp_path, capsys, size, message):
    ann = _resized_scene(tmp_path, size)
    out = tmp_path / "map.tmlf"
    capsys.readouterr()
    assert run(["encode", "--in", ann, "--t1", "0", "--t2", "1", "--out", out]) == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path, value, where", [
    (("poses",), 5, "$.frames[0]: poses must be a list"),
    (("poses", 0, "joints"), 7, "$.frames[0].poses[0]: joints must be a list"),
    (("poses", 0, "joints", 0, "x"), 10**400, "$.frames[0].poses[0].joints[0]: 'x' must be finite"),
], ids=["poses", "joints", "x"])
def test_track_on_a_value_of_the_wrong_kind_exits_3(tmp_path, capsys, path, value, where):
    ann = _synth_scene(tmp_path)
    doc = json.loads(ann.read_text())
    node = doc["frames"][0]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    ann.write_text(json.dumps(doc))
    out = tmp_path / "tracked.json"
    capsys.readouterr()
    assert run(["track", "--in", ann, "--out", out]) == 3
    assert not out.exists()
    assert where in capsys.readouterr().err
