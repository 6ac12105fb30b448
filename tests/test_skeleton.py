from dataclasses import replace

import pytest

from limbflow.skeleton import (
    SkeletonTopology,
    default_topology,
    resolve_topology,
    topology_from_config,
    validate_topology,
)

from helpers import connected_components


def test_default_counts():
    topo = default_topology()
    assert topo.joint_count == 15
    assert topo.limb_count == 14


def test_default_is_valid():
    assert validate_topology(default_topology()) == []


def test_default_referentially_transparent():
    assert default_topology() == default_topology()
    assert default_topology() is default_topology()


def test_wrist_channel_is_lower_arm():
    topo = default_topology()
    for wrist in ("right_wrist", "left_wrist"):
        w = topo.joint_index(wrist)
        limb = topo.limbs[topo.joint_channel[w]]
        side = wrist.split("_")[0]
        elbow = topo.joint_index(f"{side}_elbow")
        assert set(limb) == {elbow, w}


def test_joint_channels_incident():
    topo = default_topology()
    for j, l in enumerate(topo.joint_channel):
        assert j in topo.limbs[l]


def test_self_loop_limb_reported():
    topo = default_topology()
    bad = SkeletonTopology(
        name="bad",
        joint_names=topo.joint_names,
        limbs=((0, 0),) + topo.limbs[1:],
        joint_channel=topo.joint_channel,
        head_segment=topo.head_segment,
    )
    issues = validate_topology(bad)
    assert any("self-loop" in v for v in issues)


def test_disconnected_reported():
    # drop the torso links: legs separate from the upper body
    topo = default_topology()
    limbs = tuple(l for l in topo.limbs if l not in ((2, 9), (2, 12)))
    bad = SkeletonTopology(
        name="bad",
        joint_names=topo.joint_names,
        limbs=limbs,
        joint_channel=topo.joint_channel,
        head_segment=topo.head_segment,
    )
    issues = validate_topology(bad)
    assert any("disconnected" in v for v in issues)
    # oracle agreement: BFS sees the same component structure
    assert connected_components(15, limbs) > 1
    assert connected_components(15, topo.limbs) == 1


def test_duplicate_limb_reported():
    topo = default_topology()
    bad = SkeletonTopology(
        name="bad",
        joint_names=topo.joint_names,
        limbs=topo.limbs[:-1] + ((1, 0),),  # (0, 1) again, reversed
        joint_channel=topo.joint_channel,
        head_segment=topo.head_segment,
    )
    issues = validate_topology(bad)
    assert any("duplicates" in v for v in issues)


def test_validate_is_total_on_garbage():
    bad = SkeletonTopology(
        name="garbage",
        joint_names=("a", "b"),
        limbs=((0, 99), (-5, 1), (1, 0)),
        joint_channel=(7, -1),
        head_segment=(42, -1),
    )
    issues = validate_topology(bad)  # must not raise
    assert issues


def test_a_one_joint_head_segment_reported():
    # Every head length is then 0 and every match threshold 1e-9: eval
    # scored MOTA -100.0 and mAP 0.0, against 100.0 with default15.
    assert validate_topology(replace(default_topology(), head_segment=(2, 2))) == [
        "head_segment joins joint 2 to itself"
    ]


def test_bad_channel_incidence_reported():
    topo = default_topology()
    chan = list(topo.joint_channel)
    chan[0] = 13  # left shin is not incident to head_top
    bad = SkeletonTopology(
        name="bad",
        joint_names=topo.joint_names,
        limbs=topo.limbs,
        joint_channel=tuple(chan),
        head_segment=topo.head_segment,
    )
    assert any("not incident" in v for v in validate_topology(bad))


CONFIG_TEXT = """
# toy 3-joint chain
name = "tiny"
joints = ["a", "b", "c"]
limbs = [[0, 1], [1, 2]]
head_segment = [0, 1]
"""


def test_topology_from_config():
    topo = topology_from_config(CONFIG_TEXT)
    assert topo.name == "tiny"
    assert topo.joint_count == 3
    assert topo.limbs == ((0, 1), (1, 2))
    assert topo.head_segment == (0, 1)
    # derived channels are incident
    for j, l in enumerate(topo.joint_channel):
        assert j in topo.limbs[l]
    assert validate_topology(topo) == []


def test_config_rejects_invalid():
    with pytest.raises(ValueError):
        topology_from_config('joints = ["a"]\nlimbs = []\nhead_segment = [0, 0]')
    with pytest.raises(ValueError):
        topology_from_config("limbs = [[0, 1]]\nhead_segment = [0, 1]")


@pytest.mark.parametrize("old, new", [
    ("limbs = [[0, 1], [1, 2]]", "limbs = [[0, 1.7], [1, 2]]"),  # loaded as (0, 1)
    ("limbs = [[0, 1], [1, 2]]", "limbs = [[0, True], [1, 2]]"),  # loaded as (0, 1)
    ("limbs = [[0, 1], [1, 2]]", "limbs = [[0, 1, 2], [1, 2]]"),
    ("limbs = [[0, 1], [1, 2]]", "limbs = 5"),
    ("head_segment = [0, 1]", "head_segment = [0.0, 1]"),
    ("head_segment = [0, 1]", "head_segment = [False, 1]"),
    ("head_segment = [0, 1]", "head_segment = [0, 1, 2]"),
    ("head_segment = [0, 1]", "head_segment = [0, 1]\njoint_channel = [0, 1.0, 1]"),
    ("head_segment = [0, 1]", "head_segment = [0, 1]\njoint_channel = [0, True, 1]"),
    ('joints = ["a", "b", "c"]', "joints = 'abc'"),  # loaded as three joints
    ('joints = ["a", "b", "c"]', 'joints = ["a", "b", 3]'),
    ('name = "tiny"', "name = 5"),  # loaded as topology '5'
    ('name = "tiny"', "name = [1, 2]"),  # loaded as topology '[1, 2]'
])
def test_config_rejects_indices_and_joints_of_the_wrong_type(old, new):
    text = CONFIG_TEXT.replace(old, new)
    assert text != CONFIG_TEXT
    with pytest.raises(ValueError, match="invalid topology config"):
        topology_from_config(text)


def test_config_names_a_missing_key():
    with pytest.raises(ValueError, match="missing key 'head_segment'"):
        topology_from_config(CONFIG_TEXT.replace("head_segment = [0, 1]", ""))


def test_resolve_topology():
    assert resolve_topology("default15") is default_topology()
    with pytest.raises(KeyError):
        resolve_topology("nope")
