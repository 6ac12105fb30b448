"""Batch command-line front-end: generate -> corrupt -> encode -> track -> evaluate.

One binary with subcommands. Options can come from a ``key = value``
config file (``--config``); explicit flags win over the file, which wins
over built-in defaults. The keys are the fields of the component configs
(``ScoreConfig``, ``EncoderConfig``, ``TrackerConfig``, ``StrideConfig``,
``SceneConfig``), a pair field split into one key per element, and each
value must have its field's type: ``refine = False``, not ``false``; an
int field takes no float or bool, a float field takes an int. Exit codes:
0 ok, 1 usage, 2 I/O, 3 validation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, Field, asdict, fields

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


# The component configs; their scalar fields are the run options, in this order.
_COMPONENTS = (ScoreConfig, EncoderConfig, TrackerConfig, augment_mod.StrideConfig, synth.SceneConfig)
# The fields whose keys differ from their names; a pair field has a key per element.
_RENAMED = {
    "rng_seed": ("seed",),
    "scale_range": ("scale_min", "scale_max"),
    "crop_size": ("crop_width", "crop_height"),
    "image_size": ("image_width", "image_height"),
    "motion": ("preset",),
}


def _scalar_fields(component) -> list[tuple[Field, tuple[str, ...]]]:
    """The component's fields other than its nested configs, each with its keys."""
    return [(f, _RENAMED.get(f.name, (f.name,))) for f in fields(component) if f.default is not MISSING]


_DEFAULTS: dict[str, object] = {
    key: value
    for component in _COMPONENTS
    for f, keys in _scalar_fields(component)
    for key, value in zip(keys, f.default if len(keys) > 1 else (f.default,))
}


class RunConfig:
    """Every pipeline option under its flat key, file-loadable.

    A key that two components share sets both: ``seed`` sets
    ``StrideConfig.rng_seed`` and ``SceneConfig.seed``.
    """

    def __init__(self) -> None:
        self.values = dict(_DEFAULTS)

    def set(self, key: str, value: object) -> None:
        """Set ``key``; its value must have the type of the key's default."""
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        kind = type(_DEFAULTS[key])
        if kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"config key {key!r} must be a float, got an int too large for one") from None
        if type(value) is not kind:  # so a bool is no int, and "false" no bool
            raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
        self.values[key] = value

    def load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            data = parse_keyvalue(fh.read())
        for key, value in data.items():
            self.set(key, value)

    def apply_args(self, args: argparse.Namespace) -> None:
        for key in _DEFAULTS:
            value = getattr(args, key, None)
            if value is not None:
                self.set(key, value)

    def _build(self, component, **nested):
        kwargs = {}
        for f, keys in _scalar_fields(component):
            values = tuple(self.values[key] for key in keys)
            kwargs[f.name] = values if len(keys) > 1 else values[0]
        return component(**kwargs, **nested)

    def tracker(self) -> TrackerConfig:
        return self._build(TrackerConfig, score=self._build(ScoreConfig), encoder=self._build(EncoderConfig))

    def stride(self) -> augment_mod.StrideConfig:
        return self._build(augment_mod.StrideConfig)

    def scene(self) -> synth.SceneConfig:
        return self._build(synth.SceneConfig)

    def validate(self) -> None:
        self.tracker()
        self.stride()
        self.scene()


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
    if args.t1 == args.t2:
        raise ValueError(f"--t1 and --t2 name the same frame {args.t1}; a flow map needs two")
    seq = _read_sequence(args.in_path, args.topology)
    later_idx = max(args.t1, args.t2)
    earlier_idx = min(args.t1, args.t2)
    frame_later = seq.frame_by_index(later_idx)
    frame_earlier = seq.frame_by_index(earlier_idx)
    pairing = _reference_pairing(frame_later, frame_earlier)
    grid = encode_limb_flow(frame_later, frame_earlier, pairing, seq.topology, cfg.tracker().encoder)
    fileio.write_flowmap(grid, args.out)
    print(
        f"wrote {args.out}: {grid.layout} layout, {grid.channel_pairs} channels, "
        f"{grid.width}x{grid.height} cells"
    )
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _load_config(args).tracker()
    seq = _read_sequence(args.in_path, args.topology)
    flow_source = None
    if args.flow_from:
        ref = _read_sequence(args.flow_from, args.topology)
        flow_source = SequenceFlowSource(ref, cfg.encoder)
    result = track_sequence(seq, cfg, flow_source)
    fileio.write_annotations(result, args.out)
    if args.log_out:
        log = [asdict(e) for e in result.refinement_log]
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
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
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
        fileio.write_annotations(Sequence(frames=sample.frames, topology=seq.topology), out_path)
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
    spec = {  # help texts; each flag has the type of its key's default
        "alpha": "flow/distance mixing weight in [0,1]; 0 = distance only",
        "integral_samples": "line-integral sample count",
        "distance_scale": "pixels; distance-to-similarity scale",
        "parts_per_limb": "limb subdivisions per stroke",
        "stroke_half_width": "stroke half width in pixels",
        "layout": "flow-map layout: individual | accumulated",
        "grid_stride": "pixels per grid cell",
        "score_threshold": "minimum association score for a link",
        "nms_radius": "joint NMS radius in pixels",
        "max_stride": "largest sampled frame interval",
        "scale_min": "augmentation scale lower bound",
        "scale_max": "augmentation scale upper bound",
        "rotation_range": "augmentation rotation range, degrees",
        "crop_width": "augmentation crop width",
        "crop_height": "augmentation crop height",
        "people": "people per synthetic scene",
        "frames": "frames per synthetic scene",
        "image_width": "scene width, pixels",
        "image_height": "scene height, pixels",
        "preset": "motion preset: static | crossing | wander | occlusion-middle",
        "speed": "pixels per frame",
        "jitter_sigma": "candidate coordinate noise, pixels",
        "dropout_prob": "per-pose dropout probability",
        "seed": "RNG seed",
    }
    for name in names:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(_DEFAULTS[name]), default=None, help=spec[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="limbflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reads_annotations=True):
        p.add_argument("--config", help="key = value config file; flags override it")
        if reads_annotations:
            p.add_argument("--topology", help="topology config file (default: built-in default15)")

    p = sub.add_parser("synth", help="generate a synthetic scene and its ground truth")
    common(p, reads_annotations=False)  # synth draws the default15 skeleton only
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
        help="ground-truth oracle: annotations (e.g. the GT sidecar) whose poses and ids "
        "define the flow maps, standing in for a learned motion estimator; it must hold "
        "every input frame index at the input's image size; default: encode from the input itself",
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
