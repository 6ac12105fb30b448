"""limbflow: limb-motion flow maps for multi-person 2D pose tracking.

Encodes per-limb unit-vector flow grids from pose pairs, scores person
associations across frames (line-integral flow term plus joint-distance
term), resolves them with optimal bipartite assignment, refines middle
frames over three-frame sets, and evaluates tracking with MOTA, MOTP and
mAP. A seeded synthetic articulated-motion generator stands in for a
trained detector so the whole pipeline runs at desk scale.
"""

from .assignment import FORBIDDEN, hungarian
from .augment import StrideConfig, paired_transform, random_person_crop, sample_frame_pair
from .encoder import (
    EncoderConfig,
    FlowMapGrid,
    LimbPart,
    LimbStrokes,
    accumulate_channels,
    encode_joint_flow,
    encode_limb_flow,
    limb_strokes,
    subdivide_limb,
)
from .fileio import (
    AnnotationError,
    FlowmapFormatError,
    read_annotations,
    read_flowmap,
    write_annotations,
    write_flowmap,
)
from .metrics import EvalReport, evaluate
from .pose import FramePoses, JointCandidate, Pose, Sequence, common_joints
from .scoring import (
    AssociationMatrix,
    ScoreConfig,
    association_score,
    build_association_matrix,
    distance_score,
    flow_score,
)
from .skeleton import (
    SkeletonTopology,
    default_topology,
    load_topology,
    topology_from_config,
    validate_topology,
)
from .synth import SceneConfig, apply_corruption, generate_sequence
from .tracker import (
    SequenceFlowSource,
    TrackedSequence,
    Tracker,
    TrackerConfig,
    match_frames,
    refine_middle_frame,
    track_sequence,
)

__version__ = "0.1.0"
