"""Batch command-line front-end: generate -> corrupt -> encode -> track -> evaluate.

One binary with subcommands. Options can come from a ``key = value``
config file (``--config``); explicit flags win over the file, which wins
over built-in defaults. Exit codes: 0 ok, 1 usage, 2 I/O, 3 validation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from . import augment as augment_mod
from . import fileio, metrics, synth
from .encoder import EncoderConfig, encode_limb_flow
from .pose import Sequence
from .scoring import ScoreConfig
from .skeleton import load_topology, parse_keyvalue
from .tracker import SequenceFlowSource, TrackerConfig, _reference_pairing, track_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


@dataclass
class RunConfig:
    """Flat bag of every pipeline option, file-loadable."""

    # scoring
    alpha: float = ScoreConfig.alpha
    integral_samples: int = ScoreConfig.integral_samples
    distance_scale: float = ScoreConfig.distance_scale
    bilinear: bool = ScoreConfig.bilinear
    # encoder
    parts_per_limb: int = EncoderConfig.parts_per_limb
    stroke_half_width: float = EncoderConfig.stroke_half_width
    epsilon_motion: float = EncoderConfig.epsilon_motion
    layout: str = EncoderConfig.layout
    grid_stride: int = EncoderConfig.grid_stride
    # tracker
    score_threshold: float = TrackerConfig.score_threshold
    nms_radius: float = TrackerConfig.nms_radius
    refine: bool = TrackerConfig.refine
    # stride sampling / augmentation
    max_stride: int = augment_mod.StrideConfig.max_stride
    scale_min: float = augment_mod.StrideConfig.scale_range[0]
    scale_max: float = augment_mod.StrideConfig.scale_range[1]
    rotation_range: float = augment_mod.StrideConfig.rotation_range
    crop_width: int = augment_mod.StrideConfig.crop_size[0]
    crop_height: int = augment_mod.StrideConfig.crop_size[1]
    # synthetic scenes
    people: int = synth.SceneConfig.people
    frames: int = synth.SceneConfig.frames
    image_width: int = synth.SceneConfig.image_size[0]
    image_height: int = synth.SceneConfig.image_size[1]
    preset: str = synth.SceneConfig.motion
    speed: float = synth.SceneConfig.speed
    jitter_sigma: float = synth.SceneConfig.jitter_sigma
    dropout_prob: float = synth.SceneConfig.dropout_prob
    seed: int = synth.SceneConfig.seed

    def load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            data = parse_keyvalue(fh.read())
        known = {f.name: f.type for f in fields(self)}
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(self, key, value)

    def apply_args(self, args: argparse.Namespace) -> None:
        for f in fields(self):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(self, f.name, value)

    def encoder(self) -> EncoderConfig:
        return EncoderConfig(
            parts_per_limb=int(self.parts_per_limb),
            stroke_half_width=float(self.stroke_half_width),
            epsilon_motion=float(self.epsilon_motion),
            layout=str(self.layout),
            grid_stride=int(self.grid_stride),
        )

    def score(self) -> ScoreConfig:
        return ScoreConfig(
            alpha=float(self.alpha),
            integral_samples=int(self.integral_samples),
            distance_scale=float(self.distance_scale),
            bilinear=bool(self.bilinear),
            epsilon_motion=float(self.epsilon_motion),
        )

    def tracker(self) -> TrackerConfig:
        return TrackerConfig(
            score_threshold=float(self.score_threshold),
            nms_radius=float(self.nms_radius),
            refine=bool(self.refine),
            score=self.score(),
            encoder=self.encoder(),
        )

    def stride(self) -> augment_mod.StrideConfig:
        return augment_mod.StrideConfig(
            max_stride=int(self.max_stride),
            rng_seed=int(self.seed),
            scale_range=(float(self.scale_min), float(self.scale_max)),
            rotation_range=float(self.rotation_range),
            crop_size=(int(self.crop_width), int(self.crop_height)),
        )

    def scene(self) -> synth.SceneConfig:
        return synth.SceneConfig(
            people=int(self.people),
            frames=int(self.frames),
            image_size=(int(self.image_width), int(self.image_height)),
            motion=str(self.preset),
            speed=float(self.speed),
            jitter_sigma=float(self.jitter_sigma),
            dropout_prob=float(self.dropout_prob),
            seed=int(self.seed),
        )

    def validate(self) -> None:
        self.tracker().validate()
        self.stride().validate()
        self.scene().validate()


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg.load_file(args.config)
    cfg.apply_args(args)
    cfg.validate()
    return cfg


def _read_sequence(path: str, topology_path: str | None):
    topo = load_topology(topology_path) if topology_path else None
    return fileio.read_annotations(path, topo)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    gt = synth.generate_sequence(cfg.scene())
    candidates = synth.apply_corruption(gt, cfg.scene())
    fileio.write_annotations(candidates, args.out)
    gt_out = args.gt_out or (args.out + ".gt.json")
    fileio.write_annotations(gt, gt_out)
    print(f"wrote {args.out} ({len(candidates.frames)} frames) and {gt_out}")
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    seq = _read_sequence(args.in_path, args.topology)
    later_idx = max(args.t1, args.t2)
    earlier_idx = min(args.t1, args.t2)
    frame_later = seq.frame_by_index(later_idx)
    frame_earlier = seq.frame_by_index(earlier_idx)
    pairing = _reference_pairing(frame_later, frame_earlier)
    grid = encode_limb_flow(frame_later, frame_earlier, pairing, seq.topology, cfg.encoder())
    fileio.write_flowmap(grid, args.out)
    print(
        f"wrote {args.out}: {grid.layout} layout, {grid.channel_pairs} channels, "
        f"{grid.width}x{grid.height} cells"
    )
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    seq = _read_sequence(args.in_path, args.topology)
    flow_source = None
    if args.flow_from:
        ref = _read_sequence(args.flow_from, args.topology)
        if [f.frame_index for f in ref.frames] != [f.frame_index for f in seq.frames]:
            raise ValueError("--flow-from sequence must have the input's frame indices")
        if any(r.image_size != f.image_size for r, f in zip(ref.frames, seq.frames)):
            raise ValueError("--flow-from sequence must have the input's image_size")
        flow_source = SequenceFlowSource(ref, cfg.encoder())
    result = track_sequence(seq, cfg.tracker(), flow_source)
    fileio.write_annotations(result, args.out)
    if args.log_out:
        log = [
            {"frame_index": e.frame_index, "track_id": e.track_id, "source": e.source}
            for e in result.refinement_log
        ]
        with open(args.log_out, "w", encoding="utf-8") as fh:
            json.dump(log, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {args.out}; {len(result.refinement_log)} refinement insertions")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    _load_config(args)  # validated like every subcommand's; eval reads no key of it
    gt = _read_sequence(args.gt, args.topology)
    pred = _read_sequence(args.pred, args.topology)
    report = metrics.evaluate(gt, pred, thresh_factor=args.pckh_factor)
    print(metrics.format_report_table(report))
    total = report.total_mota()
    if total is not None:
        print(f"Total MOTA {total:.1f}")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(metrics.report_to_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    seq = _read_sequence(args.in_path, args.topology)
    if len(seq.frames) < 2:
        raise ValueError("augmentation needs at least 2 frames")
    os.makedirs(args.out_dir, exist_ok=True)
    frames = list(seq.frames)
    stride_cfg = cfg.stride()
    manifest = []
    for i in range(args.samples):
        sample = augment_mod.draw_augmented_pair(frames, stride_cfg, i)
        out_path = os.path.join(args.out_dir, f"sample_{i:04d}.json")
        pair_frames = sample.frames
        if pair_frames[0].frame_index == pair_frames[1].frame_index:  # pragma: no cover
            raise ValueError("sample frames must differ")
        fileio.write_annotations(
            Sequence(frames=pair_frames, topology=seq.topology), out_path
        )
        manifest.append(
            {
                "sample": i,
                "file": os.path.basename(out_path),
                "t1": sample.t1,
                "t2": sample.t2,
                "scale": sample.scale,
                "rotation_deg": sample.rotation_deg,
                "crop_origin": list(sample.crop.origin),
                "crop_person": sample.crop.person_index,
                "crop_clamped": sample.crop.clamped,
            }
        )
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.samples} samples and {manifest_path}")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser, names: list[str]) -> None:
    spec = {
        "alpha": (float, "flow/distance mixing weight in [0,1]; 0 = distance only"),
        "integral_samples": (int, "line-integral sample count"),
        "distance_scale": (float, "pixels; distance-to-similarity scale"),
        "parts_per_limb": (int, "limb subdivisions per stroke"),
        "stroke_half_width": (float, "stroke half width in pixels"),
        "layout": (str, "flow-map layout: individual | accumulated"),
        "grid_stride": (int, "pixels per grid cell"),
        "score_threshold": (float, "minimum association score for a link"),
        "nms_radius": (float, "joint NMS radius in pixels"),
        "max_stride": (int, "largest sampled frame interval"),
        "scale_min": (float, "augmentation scale lower bound"),
        "scale_max": (float, "augmentation scale upper bound"),
        "rotation_range": (float, "augmentation rotation range, degrees"),
        "crop_width": (int, "augmentation crop width"),
        "crop_height": (int, "augmentation crop height"),
        "people": (int, "people per synthetic scene"),
        "frames": (int, "frames per synthetic scene"),
        "image_width": (int, "scene width, pixels"),
        "image_height": (int, "scene height, pixels"),
        "preset": (str, "motion preset: static | crossing | wander | occlusion-middle"),
        "speed": (float, "pixels per frame"),
        "jitter_sigma": (float, "candidate coordinate noise, pixels"),
        "dropout_prob": (float, "per-pose dropout probability"),
        "seed": (int, "RNG seed"),
    }
    for name in names:
        typ, help_text = spec[name]
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, default=None, help=help_text)


def build_parser() -> _Parser:
    parser = _Parser(prog="limbflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--topology", help="topology config file (default: built-in default15)")

    p = sub.add_parser("synth", help="generate a synthetic scene and its ground truth")
    common(p)
    p.add_argument("--out", required=True, help="candidate annotations output path")
    p.add_argument("--gt-out", help="ground-truth sidecar path (default: OUT.gt.json)")
    _add_config_flags(p, ["people", "frames", "image_width", "image_height", "preset", "speed", "jitter_sigma", "dropout_prob", "seed"])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("encode", help="encode the flow map of one frame pair")
    common(p)
    p.add_argument("--in", dest="in_path", required=True, help="annotations input path")
    p.add_argument("--t1", type=int, required=True, help="first frame_index")
    p.add_argument("--t2", type=int, required=True, help="second frame_index")
    p.add_argument("--out", required=True, help="flow-map dump output path")
    _add_config_flags(p, ["parts_per_limb", "stroke_half_width", "layout", "grid_stride"])
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("track", help="assign track ids to candidate annotations")
    common(p)
    p.add_argument("--in", dest="in_path", required=True, help="candidate annotations input path")
    p.add_argument("--out", required=True, help="tracked annotations output path")
    p.add_argument("--log-out", help="refinement log output path (JSON)")
    p.add_argument(
        "--flow-from",
        help="annotations whose poses/ids define the flow maps (e.g. the GT sidecar); "
        "default: encode from the input itself",
    )
    _add_config_flags(p, ["alpha", "integral_samples", "distance_scale", "score_threshold", "nms_radius", "parts_per_limb", "stroke_half_width", "layout", "grid_stride"])
    p.add_argument("--refine", dest="refine", action="store_true", default=None, help="enable middle-frame refinement (default)")
    p.add_argument("--no-refine", dest="refine", action="store_false", help="disable middle-frame refinement")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score tracked output against ground truth")
    common(p)
    p.add_argument("--gt", required=True, help="ground-truth annotations path")
    p.add_argument("--pred", required=True, help="tracked annotations path")
    p.add_argument("--report-out", help="machine-readable report path (JSON)")
    p.add_argument("--pckh-factor", type=float, default=0.5, help="match radius as a fraction of head length")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("augment", help="emit stride-sampled, transformed annotation pairs")
    common(p)
    p.add_argument("--in", dest="in_path", required=True, help="annotations input path")
    p.add_argument("--out-dir", required=True, help="output directory for samples + manifest")
    p.add_argument("--samples", type=int, default=16, help="number of samples to draw")
    _add_config_flags(p, ["max_stride", "scale_min", "scale_max", "rotation_range", "crop_width", "crop_height", "seed"])
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (fileio.AnnotationError, fileio.FlowmapFormatError, ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
