"""Where each layer is entered, what it counts, and its per-pass metrics.

Sites are the module attributes the callers use, so wrapping them times
exactly the calls the pipeline makes: the tracker looks up
``encode_limb_flow``, ``hungarian`` and friends in its own module
globals, the benchmark's passes call ``fileio`` and ``metrics`` through
their modules, and the encode path goes through ``limbflow.cli`` as the
command does.
"""

from __future__ import annotations

import numpy as np

from spans import COUNT_SPAN, Site, Span, covered_time, self_times

MB = float(1 << 20)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_grid(args, kwargs, grid) -> dict:
    attrs = {"grid_bytes": grid.vectors.size * grid.vectors.itemsize}
    if grid.counts is not None:
        attrs["grid_bytes"] += grid.counts.size * grid.counts.itemsize
        attrs["cells"] = grid.counts.size
        attrs["touched"] = int(np.count_nonzero(grid.counts))
    return attrs


def _count_matrix(args, kwargs, matrix) -> dict:
    scores = matrix.scores
    forbidden = ~np.isfinite(scores) | (scores == matrix.sentinel)
    return {"pairs": scores.size, "forbidden": int(forbidden.sum())}


def _count_assignment(args, kwargs, pairs) -> dict:
    rows, cols = np.shape(_arg(args, kwargs, 0, "scores"))
    return {"padded_n": rows + cols}


def _count_match(args, kwargs, frame) -> dict:
    return {
        "poses": len(frame.poses),
        "accepted": sum(p.track_id is not None for p in frame.poses),
    }


def _count_refine(args, kwargs, result) -> dict:
    return {"refinements": len(result[2])}


def _count_text_in(args, kwargs, seq) -> dict:
    return {"bytes": len(_arg(args, kwargs, 0, "text"))}


def _count_result_len(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _count_bytes_in(args, kwargs, grid) -> dict:
    return {"bytes": len(_arg(args, kwargs, 0, "data"))}


SITES = [
    Site("encoder.encode", "limbflow.tracker", "encode_limb_flow", _count_grid),
    Site("encoder.encode", "limbflow.cli", "encode_limb_flow", _count_grid),
    Site("tracker.flow_source", "limbflow.tracker", "SequenceFlowSource.grid"),
    Site("scoring.build_matrix", "limbflow.tracker", "build_association_matrix", _count_matrix),
    Site("assignment.hungarian", "limbflow.tracker", "hungarian", _count_assignment),
    Site("tracker.match", "limbflow.tracker", "match_frames", _count_match),
    Site("tracker.refine", "limbflow.tracker", "refine_middle_frame", _count_refine),
    Site("tracker.nms", "limbflow.tracker", "suppress_duplicate_joints"),
    Site("metrics.evaluate", "limbflow.metrics", "evaluate"),
    Site("fileio.parse", "limbflow.fileio", "parse_annotations", _count_text_in),
    Site("fileio.serialize", "limbflow.fileio", "serialize_annotations", _count_result_len),
    Site("fileio.tmlf_write", "limbflow.fileio", "flowmap_to_bytes", _count_result_len),
    Site("fileio.tmlf_read", "limbflow.fileio", "flowmap_from_bytes", _count_bytes_in),
]

LAYERS = list(dict.fromkeys(site.layer for site in SITES))

# Hungarian calls under these parents link poses to tracks; all others
# pair people while encoding grids.
LINK_PARENTS = ("tracker.match", "tracker.refine")

# (metric name, unit, better), in the order BENCHMARK.json lists them.
METRICS = [(f"{layer}.{kind}", unit, "lower") for layer in LAYERS
           for kind, unit in (("calls", "count"), ("self_s", "s"))] + [
    ("encoder.encode.grid_mb", "MB", "lower"),
    ("encoder.encode.cells_touched_ratio", "ratio", "higher"),
    ("tracker.flow_source.hit_ratio", "ratio", "higher"),
    ("scoring.build_matrix.pairs", "count", "lower"),
    ("scoring.build_matrix.forbidden_ratio", "ratio", "lower"),
    ("assignment.hungarian.padded_n_max", "count", "lower"),
    ("assignment.hungarian.ops_n3", "count", "lower"),
    ("assignment.hungarian.pairing_calls", "count", "lower"),
    ("assignment.hungarian.pairing_self_s", "s", "lower"),
    ("tracker.match.accepted_ratio", "ratio", "higher"),
    ("tracker.refine.refinements", "count", "higher"),
    ("fileio.parse.mb", "MB", "lower"),
    ("fileio.serialize.mb", "MB", "lower"),
    ("fileio.tmlf_write.mb", "MB", "lower"),
    ("fileio.tmlf_read.mb", "MB", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("trace.missing_sites", "count", "lower"),
]

# Everything but times must repeat exactly between runs on one seed.
EXACT_METRICS = [name for name, unit, _ in METRICS if unit != "s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``trace_overhead_s`` and ``trace.missing_sites`` are not known from
    one pass and are left to the caller.
    """
    selfs = self_times(spans)
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for i, span in enumerate(spans):
        if span.name != COUNT_SPAN:
            by_layer[span.name].append(i)

    def total(layer: str, attr: str) -> float:
        return sum(spans[i].attrs.get(attr, 0) for i in by_layer[layer])

    out: dict[str, float] = {}
    for layer, idx in by_layer.items():
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.self_s"] = sum(selfs[i] for i in idx)

    out["encoder.encode.grid_mb"] = total("encoder.encode", "grid_bytes") / MB
    out["encoder.encode.cells_touched_ratio"] = _ratio(
        total("encoder.encode", "touched"), total("encoder.encode", "cells")
    )
    encoding_parents = {spans[i].parent for i in by_layer["encoder.encode"]}
    sources = by_layer["tracker.flow_source"]
    out["tracker.flow_source.hit_ratio"] = _ratio(
        sum(i not in encoding_parents for i in sources), len(sources)
    )
    pairs = total("scoring.build_matrix", "pairs")
    out["scoring.build_matrix.pairs"] = int(pairs)
    out["scoring.build_matrix.forbidden_ratio"] = _ratio(
        total("scoring.build_matrix", "forbidden"), pairs
    )
    solves = by_layer["assignment.hungarian"]
    sizes = [int(spans[i].attrs.get("padded_n", 0)) for i in solves]
    out["assignment.hungarian.padded_n_max"] = max(sizes, default=0)
    out["assignment.hungarian.ops_n3"] = sum(n**3 for n in sizes)
    pairing = [
        i for i in solves
        if spans[i].parent is None or spans[spans[i].parent].name not in LINK_PARENTS
    ]
    out["assignment.hungarian.pairing_calls"] = len(pairing)
    out["assignment.hungarian.pairing_self_s"] = sum(selfs[i] for i in pairing)
    out["tracker.match.accepted_ratio"] = _ratio(
        total("tracker.match", "accepted"), total("tracker.match", "poses")
    )
    out["tracker.refine.refinements"] = int(total("tracker.refine", "refinements"))
    for layer in ("fileio.parse", "fileio.serialize", "fileio.tmlf_write", "fileio.tmlf_read"):
        out[f"{layer}.mb"] = total(layer, "bytes") / MB
    # Root-level counting spans are covered too: tracer work is not
    # program work.
    out["unattributed_s"] = pass_s - covered_time(spans)
    return out
