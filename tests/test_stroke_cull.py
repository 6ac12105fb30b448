"""Reads that skip the strokes no requested key can reach.

``LimbStrokes.values_at`` drops, before the kernel, the strokes whose box
touches no tile of ``encoder._TILE`` x ``encoder._TILE`` cells holding a
requested key, on runs with fewer than half as many keys as strokes.
These tests require the culled reads to equal the rasterized grid bit for
bit, the cull to run on reads shaped as refinement's and not on the dense
reads of matching, and a refinement read's memory to stay small.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from limbflow import encoder, tracker
from limbflow.encoder import EncoderConfig, LimbStrokes, limb_strokes
from limbflow.scoring import ScoreConfig, build_association_matrix
from limbflow.synth import SceneConfig, apply_corruption, generate_sequence
from limbflow.tracker import TrackerConfig, _reference_pairing, track_sequence

from helpers import TOPO, traced_peak

TILE = encoder._TILE


def _strokes_at_tile_edges(rng, stride: int, half_width: float, layout: str) -> LimbStrokes:
    """Short strokes over a grid of a few tiles a side. Each is moved so
    that one edge of its box falls on the last or first cell of a tile or
    one cell beyond; some have zero length and some lie off the grid."""
    width = 3 * TILE + int(rng.integers(0, TILE))
    height = 2 * TILE + int(rng.integers(1, TILE))
    n = int(rng.integers(40, 160))
    later = rng.uniform(0, 1, (n, 2)) * (width * stride, height * stride)
    earlier = later + rng.normal(0, 2 * stride, (n, 2))
    still = rng.random(n) < 0.2
    earlier[still] = later[still]
    for k in range(n):
        axis = int(rng.integers(0, 2))
        cell = TILE * int(rng.integers(1, (width, height)[axis] // TILE + 1)) + int(rng.integers(-2, 2))
        ends = (later[k, axis], earlier[k, axis])
        edge = max(ends) + half_width if rng.random() < 0.5 else min(ends) - half_width
        later[k, axis] += cell * stride - edge
        earlier[k, axis] += cell * stride - edge
    off_grid = rng.random(n) < 0.1
    later[off_grid] += 4 * width * stride
    earlier[off_grid] += 4 * width * stride
    angle = rng.uniform(0, 2 * np.pi, n)
    limb_count = int(rng.integers(1, 4))
    return LimbStrokes(
        layout=layout,
        limb_count=limb_count,
        width=width,
        height=height,
        grid_stride=stride,
        half_width=half_width,
        channels=rng.integers(0, limb_count, n),
        later=later,
        earlier=earlier,
        vectors=np.stack([np.cos(angle), np.sin(angle)], axis=1),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    stride=st.integers(1, 4),
    half_width=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
    layout=st.sampled_from(["individual", "accumulated"]),
)
@settings(max_examples=200, deadline=None)
def test_culled_reads_equal_the_rasterized_grid(seed, stride, half_width, layout):
    rng = np.random.default_rng(seed)
    strokes = _strokes_at_tile_edges(rng, stride, half_width, layout)
    grid = strokes.rasterize()
    width, height, plane = strokes.width, strokes.height, strokes.width * strokes.height
    stored = strokes.channel_for(strokes.channels)
    ix0, iy0, ix1, iy1 = encoder._boxes(
        strokes.later, strokes.earlier, half_width, float(stride), width, height
    )

    # Candidate cells (channel, ix, iy): on and one cell beyond each edge of
    # some boxes, at tile corners and along tile edges, and covered cells
    # that lie on a tile's first or last row or column.
    pick = rng.integers(0, len(stored), 12)
    across = [rng.integers(np.minimum(lo, hi), np.maximum(lo, hi) + 1) for lo, hi in ((iy0, iy1), (ix0, ix1))]
    cells = []
    for x in (ix0 - 1, ix0, ix1, ix1 + 1):
        cells.append((stored[pick], x[pick], across[0][pick]))
    for y in (iy0 - 1, iy0, iy1, iy1 + 1):
        cells.append((stored[pick], across[1][pick], y[pick]))
    edge_x = (TILE * np.arange(1, width // TILE + 1)[:, None] + [-1, 0]).ravel()
    edge_y = (TILE * np.arange(1, height // TILE + 1)[:, None] + [-1, 0]).ravel()
    corners = np.stack(np.meshgrid(edge_x, edge_y), -1).reshape(-1, 2)[rng.integers(0, len(edge_x) * len(edge_y), 6)]
    cells.append((rng.choice(stored, 6), corners[:, 0], corners[:, 1]))
    cells.append((rng.choice(stored, 6), rng.choice(edge_x, 6), rng.integers(0, height, 6)))
    covered = grid.cells[0]
    iy, ix = np.divmod(covered % plane, width)
    on_edge = (ix % TILE == 0) | (ix % TILE == TILE - 1) | (iy % TILE == 0) | (iy % TILE == TILE - 1)
    cells.append((covered[on_edge] // plane, ix[on_edge], iy[on_edge]))
    c, x, y = (np.concatenate(column) for column in zip(*cells))
    inside = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    pool = np.unique(c[inside] * plane + y[inside] * width + x[inside])
    # A sparse request: at most one key per eight strokes.
    keys = np.sort(rng.permutation(pool)[: int(rng.integers(0, len(stored) // 8 + 1))])

    wanted = np.zeros(strokes.channel_pairs, dtype=bool)
    wanted[keys // plane] = True
    culls = 2 * len(keys) < np.count_nonzero(wanted[stored])
    reachable = LimbStrokes._reachable
    with mock.patch.object(LimbStrokes, "_reachable", autospec=True, side_effect=reachable) as cull:
        got = strokes.values_at(keys)
    assert cull.called == culls
    assert got.tobytes() == grid.values_at(keys).tobytes()


def _handed_to_kernel(flow, read, *args):
    """Per ``_covered`` call of ``read(*args)``: the strokes it was handed
    and the strokes of its run's channels."""
    calls = []
    covered = LimbStrokes._covered

    def record(self, strokes, keys=None, offsets=None):
        wanted = np.zeros(self.channel_pairs, dtype=bool)
        wanted[keys // (self.width * self.height)] = True
        calls.append((len(strokes), np.count_nonzero(wanted[self.channel_for(self.channels)])))
        return covered(self, strokes, keys, offsets)

    with mock.patch.object(LimbStrokes, "_covered", record):
        read(*args)
    return calls


def test_refinement_reads_cull_and_matching_reads_build_no_tiles():
    # Refinement scores the t+1 poses against a track missed at t on the
    # stride-2 map, which holds every person's strokes: 50 people wandering
    # in 960x720, read for one earlier pose.
    scene = SceneConfig(people=50, frames=3, image_size=(960, 720), motion="wander", seed=0)
    earlier, _, later = generate_sequence(scene).frames
    flow = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig())
    calls = _handed_to_kernel(flow, build_association_matrix, later, earlier.poses[:1], flow, TOPO, ScoreConfig())
    assert calls and all(handed < run for handed, run in calls), calls

    # The crowd-hd scene: 20 people crossing in 960x720. Its matching reads
    # hold several keys per stroke, so none of them bins keys into tiles.
    for seed in range(4):
        scene = SceneConfig(
            people=20, frames=2, image_size=(960, 720), motion="crossing",
            jitter_sigma=2.0, dropout_prob=0.05, seed=seed,
        )
        earlier, later = apply_corruption(generate_sequence(scene), scene).frames
        flow = limb_strokes(later, earlier, _reference_pairing(later, earlier), TOPO, EncoderConfig())
        with mock.patch.object(LimbStrokes, "_reachable") as cull:
            build_association_matrix(later, earlier, flow, TOPO, ScoreConfig())
        assert not cull.called, f"seed {seed}"


def test_refinement_read_memory_stays_bounded():
    # 50 people wandering over 20 frames in 960x720 with detector noise,
    # seed 0: 17 refinement reads of 276-3,448 keys, each against
    # 12,200-13,600 strokes. With every stroke of the requested channels
    # expanded into box rows they peaked at 8.0-15.0 MiB, the most at 3,399
    # keys against 12,280 strokes; with the strokes no key can reach
    # dropped first, at 1.7-3.0 MiB.
    scene = SceneConfig(
        people=50, frames=20, image_size=(960, 720), motion="wander",
        jitter_sigma=2.0, dropout_prob=0.05, seed=0,
    )
    cand = apply_corruption(generate_sequence(scene), scene)
    reads, refining = [], []
    values_at, refine = LimbStrokes.values_at, tracker.refine_middle_frame

    def record(self, keys):
        if refining:
            reads.append((self, keys.copy()))
        return values_at(self, keys)

    def flagged(*args):
        refining.append(True)
        try:
            return refine(*args)
        finally:
            refining.pop()

    with mock.patch.object(LimbStrokes, "values_at", record), mock.patch.object(
        tracker, "refine_middle_frame", flagged
    ):
        track_sequence(cand, TrackerConfig())
    assert reads
    for flow, keys in reads:
        peak = traced_peak(flow.values_at, keys)
        assert peak < 8 << 20, f"{len(keys)} keys, {len(flow.later)} strokes: traced peak {peak / 2**20:.2f} MiB"
