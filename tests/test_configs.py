"""Every range check of the five component configs, at construction and
through ``dataclasses.replace``: an out-of-range config cannot be built."""

import math
import re
from dataclasses import replace

import pytest

from limbflow.augment import StrideConfig
from limbflow.encoder import EncoderConfig
from limbflow.scoring import ScoreConfig
from limbflow.synth import SceneConfig
from limbflow.tracker import TrackerConfig

NAN, INF = math.nan, math.inf

# (config class, field, bad value, message); each check has a row per side
# it bounds, and a NaN row where NaN would pass a plain comparison.
BAD = [
    (ScoreConfig, "alpha", -0.1, "alpha must be in [0, 1]"),
    (ScoreConfig, "alpha", 1.5, "alpha must be in [0, 1]"),
    (ScoreConfig, "alpha", NAN, "alpha must be in [0, 1]"),
    (ScoreConfig, "integral_samples", 0, "integral_samples must be >= 1"),
    (ScoreConfig, "distance_scale", 0.0, "distance_scale must be finite and > 0"),
    (ScoreConfig, "distance_scale", -1.0, "distance_scale must be finite and > 0"),
    (ScoreConfig, "distance_scale", INF, "distance_scale must be finite and > 0"),
    (ScoreConfig, "distance_scale", NAN, "distance_scale must be finite and > 0"),
    (EncoderConfig, "parts_per_limb", 0, "parts_per_limb must be >= 1"),
    (EncoderConfig, "stroke_half_width", 0.0, "stroke_half_width must be finite and > 0"),
    (EncoderConfig, "stroke_half_width", INF, "stroke_half_width must be finite and > 0"),
    (EncoderConfig, "stroke_half_width", NAN, "stroke_half_width must be finite and > 0"),
    (EncoderConfig, "layout", "dense", "unknown layout 'dense'"),
    (EncoderConfig, "grid_stride", 0, "grid_stride must be >= 1"),
    (TrackerConfig, "nms_radius", -1.0, "nms_radius must be finite and >= 0"),
    (TrackerConfig, "nms_radius", INF, "nms_radius must be finite and >= 0"),
    (TrackerConfig, "nms_radius", NAN, "nms_radius must be finite and >= 0"),
    (TrackerConfig, "score_threshold", INF, "score_threshold must be finite"),
    (TrackerConfig, "score_threshold", -INF, "score_threshold must be finite"),
    (TrackerConfig, "score_threshold", NAN, "score_threshold must be finite"),
    (StrideConfig, "max_stride", 0, "max_stride must be >= 1"),
    (StrideConfig, "scale_range", (NAN, 1.0), "scale_range must be finite"),
    (StrideConfig, "scale_range", (1.0, INF), "scale_range must be finite"),
    (StrideConfig, "scale_range", (1.2, 1.1), "scale_range min must be <= max"),
    (StrideConfig, "scale_range", (0.0, 1.0), "scale must be positive"),
    (StrideConfig, "rotation_range", -1.0, "rotation_range must be finite and >= 0"),
    (StrideConfig, "rotation_range", INF, "rotation_range must be finite and >= 0"),
    (StrideConfig, "rotation_range", NAN, "rotation_range must be finite and >= 0"),
    (StrideConfig, "crop_size", (0, 96), "crop_size must be positive"),
    (StrideConfig, "crop_size", (96, 0), "crop_size must be positive"),
    (SceneConfig, "people", 0, "people must be >= 1"),
    (SceneConfig, "frames", 0, "frames must be >= 1"),
    (SceneConfig, "image_size", (7, 120), "image_size too small"),
    (SceneConfig, "image_size", (160, 7), "image_size too small"),
    (SceneConfig, "motion", "sprint", "unknown motion preset 'sprint'"),
    (SceneConfig, "dropout_prob", -0.1, "dropout_prob must be in [0, 1]"),
    (SceneConfig, "dropout_prob", 1.5, "dropout_prob must be in [0, 1]"),
    (SceneConfig, "dropout_prob", NAN, "dropout_prob must be in [0, 1]"),
    (SceneConfig, "jitter_sigma", -1.0, "jitter_sigma must be finite and >= 0"),
    (SceneConfig, "jitter_sigma", INF, "jitter_sigma must be finite and >= 0"),
    (SceneConfig, "jitter_sigma", NAN, "jitter_sigma must be finite and >= 0"),
    (SceneConfig, "speed", -1.0, "speed must be finite and >= 0"),
    (SceneConfig, "speed", INF, "speed must be finite and >= 0"),
    (SceneConfig, "speed", NAN, "speed must be finite and >= 0"),
]

# The closed ends of the same ranges, which must still build.
EDGES = [
    (ScoreConfig, {"alpha": 0.0, "integral_samples": 1}),
    (ScoreConfig, {"alpha": 1.0}),
    (EncoderConfig, {"parts_per_limb": 1, "grid_stride": 1, "layout": "accumulated"}),
    (TrackerConfig, {"nms_radius": 0.0, "score_threshold": -1e300}),
    (StrideConfig, {"max_stride": 1, "scale_range": (1.0, 1.0), "rotation_range": 0.0, "crop_size": (1, 1)}),
    (SceneConfig, {"image_size": (8, 8), "dropout_prob": 0.0, "jitter_sigma": 0.0, "speed": 0.0}),
    (SceneConfig, {"dropout_prob": 1.0, "motion": "occlusion-middle"}),
]


@pytest.mark.parametrize(
    "cls, name, value, message", BAD, ids=[f"{c.__name__}-{n}={v!r}" for c, n, v, _ in BAD]
)
def test_an_out_of_range_field_cannot_be_built(cls, name, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{name: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(cls(), **{name: value})


@pytest.mark.parametrize("cls, values", EDGES, ids=[f"{c.__name__}-{i}" for i, (c, _) in enumerate(EDGES)])
def test_the_ends_of_each_range_build(cls, values):
    assert replace(cls(), **values) == cls(**values)
