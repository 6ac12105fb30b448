"""Articulated skeleton topology: named joints plus the limb graph over them.

The topology is plain data, not code, so alternative skeletons can be
loaded from a key-value config file. Every other module receives a
``SkeletonTopology`` and never hard-codes joint indices.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SkeletonTopology:
    """Joints, limbs (joint-index pairs), and per-joint scoring channel.

    ``joint_channel[j]`` is the index of the limb channel a joint is scored
    against when flow maps are sampled; it must be a limb incident to joint
    ``j``. ``head_segment`` is the joint pair whose length normalizes
    keypoint match thresholds during evaluation.
    """

    name: str
    joint_names: tuple[str, ...]
    limbs: tuple[tuple[int, int], ...]
    joint_channel: tuple[int, ...]
    head_segment: tuple[int, int]

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)

    @property
    def limb_count(self) -> int:
        return len(self.limbs)

    def joint_index(self, name: str) -> int:
        return self.joint_names.index(name)


_DEFAULT_JOINTS = (
    "head_top",
    "nose",
    "neck",
    "right_shoulder",
    "right_elbow",
    "right_wrist",
    "left_shoulder",
    "left_elbow",
    "left_wrist",
    "right_hip",
    "right_knee",
    "right_ankle",
    "left_hip",
    "left_knee",
    "left_ankle",
)

# Tree rooted at the neck; 15 joints, 14 limbs.
_DEFAULT_LIMBS = (
    (0, 1),    # 0  head_top - nose
    (1, 2),    # 1  nose - neck
    (2, 3),    # 2  neck - right_shoulder
    (3, 4),    # 3  right upper arm
    (4, 5),    # 4  right lower arm
    (2, 6),    # 5  neck - left_shoulder
    (6, 7),    # 6  left upper arm
    (7, 8),    # 7  left lower arm
    (2, 9),    # 8  neck - right_hip
    (9, 10),   # 9  right thigh
    (10, 11),  # 10 right shin
    (2, 12),   # 11 neck - left_hip
    (12, 13),  # 12 left thigh
    (13, 14),  # 13 left shin
)

# Each joint is scored against exactly one incident limb channel: head
# joints against the head segments, wrists/elbows against the lower arm,
# shoulders against the upper arm, hips against the thigh, knees/ankles
# against the shin.
_DEFAULT_JOINT_CHANNEL = (0, 1, 1, 3, 4, 4, 6, 7, 7, 9, 10, 10, 12, 13, 13)

_DEFAULT = SkeletonTopology(
    name="default15",
    joint_names=_DEFAULT_JOINTS,
    limbs=_DEFAULT_LIMBS,
    joint_channel=_DEFAULT_JOINT_CHANNEL,
    head_segment=(0, 2),
)


def default_topology() -> SkeletonTopology:
    """The built-in 15-joint, 14-limb topology."""
    return _DEFAULT


def validate_topology(topo: SkeletonTopology) -> list[str]:
    """Check every topology invariant; returns a list of violations.

    An empty list means the topology is valid. This function is total: it
    never raises on arbitrary index values, it reports them instead.
    """
    issues: list[str] = []
    n = topo.joint_count
    if n == 0:
        issues.append("no joints")

    seen: set[tuple[int, int]] = set()
    for i, limb in enumerate(topo.limbs):
        a, b = limb
        if not (0 <= a < n) or not (0 <= b < n):
            issues.append(f"limb {i} endpoint out of range: {limb}")
            continue
        if a == b:
            issues.append(f"limb {i} is a self-loop at joint {a}")
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            issues.append(f"limb {i} duplicates pair {key}")
        seen.add(key)

    # Connected + acyclic over all joints (union-find).
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycle = False
    for a, b in topo.limbs:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            continue
        ra, rb = find(a), find(b)
        if ra == rb:
            cycle = True
        else:
            parent[ra] = rb
    roots = {find(j) for j in range(n)}
    if len(roots) > 1:
        issues.append(f"disconnected: {len(roots)} components")
    if cycle:
        issues.append("limb graph contains a cycle")

    if len(topo.joint_channel) != n:
        issues.append(
            f"joint_channel has {len(topo.joint_channel)} entries for {n} joints"
        )
    else:
        for j, l in enumerate(topo.joint_channel):
            if not (0 <= l < topo.limb_count):
                issues.append(f"joint_channel[{j}] = {l} is not a limb index")
            elif j not in topo.limbs[l]:
                issues.append(f"joint_channel[{j}] = {l} is not incident to joint {j}")

    for j in topo.head_segment:
        if not (0 <= j < n):
            issues.append(f"head_segment joint {j} out of range")
    if len(set(topo.head_segment)) == 1:
        issues.append(f"head_segment joins joint {topo.head_segment[0]} to itself")

    return issues


def parse_keyvalue(text: str) -> dict[str, object]:
    """Parse a minimal ``key = value`` config; values are Python literals.

    Lines starting with ``#`` and blank lines are skipped. Values that do
    not parse as a literal are kept as bare strings. A key given twice
    raises ``ValueError``.
    """
    out: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            out[key] = value
    return out


def _listed(value: object, accept, what: str, size: Optional[int] = None) -> tuple:
    """``value`` as a tuple if it is a list (of ``size`` entries, if given)
    whose every entry ``accept`` takes, else ``ValueError`` saying ``what``."""
    if not (isinstance(value, (list, tuple)) and len(value) == (size or len(value)) and all(map(accept, value))):
        raise ValueError(f"invalid topology config: {what}, got {value!r}")
    return tuple(value)


def _is_index(value: object) -> bool:
    return type(value) is int  # not a bool, nor a float such as 1.7 that int() truncates


def topology_from_config(text: str, name: str = "custom") -> SkeletonTopology:
    """Build a topology from key-value text.

    Required keys: ``joints`` (list of names), ``limbs`` (list of [a, b]
    index pairs), ``head_segment`` ([a, b]). Optional: ``joint_channel``
    (defaults to the first limb incident to each joint) and ``name`` (a
    string). Every index must be an int, not a bool or a float.
    """
    data = parse_keyvalue(text)
    try:
        joints = _listed(data["joints"], lambda j: isinstance(j, str), "joints must be a list of names")
        pairs = "limbs must be a list of [a, b] int pairs"
        limbs = tuple(_listed(limb, _is_index, pairs, 2) for limb in _listed(data["limbs"], lambda _: True, pairs))
        head_segment = _listed(data["head_segment"], _is_index, "head_segment must be [a, b] ints", 2)
    except KeyError as exc:
        raise ValueError(f"invalid topology config: missing key {exc}") from exc

    if "joint_channel" in data:
        joint_channel = _listed(data["joint_channel"], _is_index, "joint_channel must be a list of ints")
    else:
        channel = []
        for j in range(len(joints)):
            incident = [i for i, limb in enumerate(limbs) if j in limb]
            if not incident:
                raise ValueError(f"joint {j} has no incident limb")
            channel.append(incident[0])
        joint_channel = tuple(channel)

    name = data.get("name", name)
    if not isinstance(name, str):
        raise ValueError(f"invalid topology config: name must be a string, got {name!r}")
    topo = SkeletonTopology(
        name=name,
        joint_names=joints,
        limbs=limbs,
        joint_channel=joint_channel,
        head_segment=head_segment,
    )
    issues = validate_topology(topo)
    if issues:
        raise ValueError("invalid topology: " + "; ".join(issues))
    return topo


def load_topology(path: str) -> SkeletonTopology:
    with open(path, "r", encoding="utf-8") as fh:
        return topology_from_config(fh.read())


def resolve_topology(name: str) -> SkeletonTopology:
    """Look up a registered topology by name."""
    if name == _DEFAULT.name:
        return _DEFAULT
    raise KeyError(f"unknown topology name: {name!r}")
