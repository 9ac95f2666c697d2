"""The stacked kinematics at the edges of its shapes, and the lifetime of the
poses it hands out.

Forward kinematics and the loop rows take one stacked path for every model:
the joint transforms by joint type, the poses by tree level (the bodies
kept in level order, whatever the numbering) and the (loop, moving joint)
pairs by the joint's DoF.  The models here are built in
code so that some of those stacks come out empty, or a loop's K_l has no
columns, and each is checked bit for bit against the verbatim oracle of
`tests/test_kinematic_plan.py`.
"""

import dataclasses

import numpy as np
import pytest

from conftest import load_pipeline
from test_kinematic_plan import (
    _axes,
    _origin,
    assert_same_value,
    check_against_oracle,
    oracle_forward_kinematics,
)
from urdfplus.constraints import (
    all_loop_jacobians,
    forward_kinematics,
    implicit_loop_jacobian,
    loop_residual,
)
from urdfplus.graphs import build_pipeline
from urdfplus.model import (
    Link,
    LoopJoint,
    NumberedModel,
    RobotModel,
    TreeJoint,
    regular_numbering,
)
from urdfplus.spatial import JointType

CONFIGURATIONS = 6


def built(seed, tree, loops=()):
    """Bodies b0 (the root) .. bN with tree[i - 1] = (type, parent) for the
    joint of body i, and loop joints (type, predecessor, successor); random
    origins and axes.  Returns (numbered, graph, lacg, rng)."""
    rng = np.random.default_rng(seed)
    joints = tuple(
        TreeJoint(f"j{i}", jtype, f"b{parent}", f"b{i}", _origin(rng), *_axes(rng, jtype))
        for i, (jtype, parent) in enumerate(tree, start=1))
    loop_joints = tuple(
        LoopJoint(f"loop{k}", jtype, f"b{p}", f"b{s}", _origin(rng), _origin(rng),
                  *_axes(rng, jtype))
        for k, (jtype, p, s) in enumerate(loops))
    links = tuple(Link(f"b{i}") for i in range(len(tree) + 1))
    numbered = regular_numbering(RobotModel("built", links, joints, loop_joints))
    graph, _, _, lacg = build_pipeline(numbered)
    return numbered, graph, lacg, rng


def check(numbered, graph, lacg, rng):
    n = numbered.total_dof
    qs = [np.zeros(n)] + [rng.uniform(-1.0, 1.0, n) for _ in range(CONFIGURATIONS)]
    for k, q in enumerate(qs):
        check_against_oracle(numbered, graph, lacg, q, per_entry=k < 2)


@pytest.mark.parametrize("jtype", list(JointType), ids=lambda t: t.value)
def test_tree_of_one_joint_type(jtype):
    """Every other joint type's stack is empty; with fixed joints only, the
    loops' K_l have no columns."""
    numbered, graph, lacg, rng = built(
        sum(map(ord, jtype.value)), [(jtype, 0), (jtype, 1), (jtype, 1), (jtype, 2)],
        [(JointType.REVOLUTE, 4, 0), (JointType.FIXED, 3, 4)])
    assert {joint.joint_type for joint in numbered.tree_joint_of[1:]} == {jtype}
    check(numbered, graph, lacg, rng)
    widths = {jac.matrix.shape[1]
              for jac in all_loop_jacobians(numbered, graph, np.zeros(numbered.total_dof))}
    if jtype is JointType.FIXED:
        assert widths == {0}


def test_root_only_model():
    numbered, graph, lacg, rng = built(1, [])
    [pose] = forward_kinematics(numbered, np.zeros(0))
    assert (pose.rot == np.eye(3)).all() and not pose.trans.any()
    check(numbered, graph, lacg, rng)


def test_one_body_model():
    numbered, graph, lacg, rng = built(2, [(JointType.REVOLUTE, 0)],
                                       [(JointType.FIXED, 0, 1)])
    check(numbered, graph, lacg, rng)


def test_loop_over_fixed_joints_only():
    """One loop's subchains hold only fixed joints (a K_l 0 columns wide),
    the other's a revolute joint as well."""
    numbered, graph, lacg, rng = built(
        3, [(JointType.FIXED, 0), (JointType.FIXED, 1), (JointType.REVOLUTE, 0)],
        [(JointType.FIXED, 2, 0), (JointType.REVOLUTE, 2, 3)])
    jacobians = all_loop_jacobians(numbered, graph, np.zeros(numbered.total_dof))
    assert [jac.matrix.shape for jac in jacobians] == [(6, 0), (5, 1)]
    check(numbered, graph, lacg, rng)


@pytest.mark.parametrize("seed", range(3))
def test_floating_and_universal_joints_on_loop_paths(seed):
    """A 6-DoF and a 2-DoF joint move loop columns, beside 1-DoF ones: every
    DoF's stack of (loop, moving joint) pairs is in use at once."""
    numbered, graph, lacg, rng = built(
        10 + seed,
        [(JointType.FLOATING, 0), (JointType.UNIVERSAL, 1), (JointType.REVOLUTE, 0),
         (JointType.PRISMATIC, 3)],
        [(JointType.REVOLUTE, 2, 4), (JointType.UNIVERSAL, 1, 3),
         (JointType.PRISMATIC, 2, 0)])
    jacobians = all_loop_jacobians(numbered, graph, np.zeros(numbered.total_dof))
    assert {stop - start for jac in jacobians for start, stop in jac.joint_columns} == {1, 2, 6}
    check(numbered, graph, lacg, rng)


@pytest.mark.parametrize("part", ["rot", "trans"])
def test_returned_poses_are_read_only(part):
    """The poses are views of the arrays the plan assembles rows from: a
    write into one raises, and the rows and residuals at that q stay."""
    pipe = load_pipeline("wrist.urdf")
    numbered, graph = pipe.numbered, pipe.graph
    q = np.random.default_rng(4).uniform(-1.0, 1.0, numbered.total_dof)
    first, second = (number for number, _ in numbered.loop_entries)
    want = [implicit_loop_jacobian(numbered, graph, number, q).matrix.copy()
            for number in (first, second)]
    residual = loop_residual(numbered, graph, first, q).copy()
    for pose in forward_kinematics(numbered, q):
        with pytest.raises(ValueError, match="read-only"):
            getattr(pose, part)[0] = 7.0
    got = [implicit_loop_jacobian(numbered, graph, number, q).matrix
           for number in (first, second)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(loop_residual(numbered, graph, first, q), residual)


# -- tree-level order -----------------------------------------------------------


def depth_first(numbered):
    """The same model numbered depth-first, children in body order: every
    body still numbered above its parent, but the depths interleave."""
    children = {}
    for body in range(1, numbered.n_bodies + 1):
        children.setdefault(numbered.parent[body], []).append(body)
    order, stack = [], [0]
    while stack:
        body = stack.pop()
        order.append(body)
        stack.extend(reversed(children.get(body, [])))
    new = {old: k for k, old in enumerate(order)}
    return NumberedModel(numbered.model, tuple(numbered.body_names[b] for b in order),
                         tuple(-1 if b == 0 else new[numbered.parent[b]] for b in order),
                         tuple(numbered.tree_joint_of[b] for b in order),
                         numbered.loop_entries)


def assert_poses_match_oracle(numbered, qs):
    for q in qs:
        assert_same_value(forward_kinematics(numbered, q),
                          oracle_forward_kinematics(numbered, q))


@pytest.mark.parametrize("seed", range(3))
def test_numbering_that_interleaves_depths(seed):
    """A hand-numbered model whose depths go 1 2 3 2 1 2 3 ...: the plan
    stacks its joints in level order and gathers the poses back into body
    order, bit for bit as the per-body oracle composes them."""
    regular, *_ = built(
        20 + seed,
        [(JointType.REVOLUTE, 0), (JointType.FLOATING, 0), (JointType.PRISMATIC, 1),
         (JointType.UNIVERSAL, 1), (JointType.CONTINUOUS, 2), (JointType.REVOLUTE, 3),
         (JointType.FIXED, 4), (JointType.REVOLUTE, 6)],
        [(JointType.REVOLUTE, 8, 5), (JointType.UNIVERSAL, 7, 2),
         (JointType.PRISMATIC, 6, 0)])
    numbered = depth_first(regular)
    depth = [0]
    for body in range(1, numbered.n_bodies + 1):
        depth.append(depth[numbered.parent[body]] + 1)
    assert depth != sorted(depth)
    graph, _, _, lacg = build_pipeline(numbered)
    tree = numbered._kinematics.tree
    assert tree.slot.tolist() != list(range(numbered.n_bodies + 1))
    rng = np.random.default_rng(seed)
    check(numbered, graph, lacg, rng)
    qs = [rng.uniform(-1.0, 1.0, numbered.total_dof) for _ in range(CONFIGURATIONS)]
    assert_poses_match_oracle(numbered, qs)
    # the regular numbering of the same model gives each body the same pose
    for q_regular in qs[:2]:
        q_dfs = np.zeros(numbered.total_dof)
        dfs_slices = numbered.coordinate_slices()
        regular_slices = regular.coordinate_slices()
        for body, name in enumerate(numbered.body_names[1:], start=1):
            q_dfs[dfs_slices[body]] = q_regular[regular_slices[regular.body_index(name)]]
        by_name = dict(zip(regular.body_names, forward_kinematics(regular, q_regular)))
        for name, pose in zip(numbered.body_names, forward_kinematics(numbered, q_dfs)):
            assert_same_value(pose, by_name[name])


def test_snake_levels():
    """plain/snake.urdf: a chain of 6 tree levels below the root, one body
    each."""
    pipe = load_pipeline("plain/snake.urdf")
    numbered = pipe.numbered
    tree = numbered._kinematics.tree
    assert [high - low for low, high, _ in tree.levels] == [1] * 6
    rng = np.random.default_rng(7)
    assert_poses_match_oracle(numbered, [np.zeros(numbered.total_dof)] + [
        rng.uniform(-3.0, 3.0, numbered.total_dof) for _ in range(CONFIGURATIONS)])


def test_g_where_the_groups_are_not_complete():
    """A dependent coordinate outside every loop group (joint j4, unflagged,
    on no loop path): G raises for it the error that the oracle, which
    ranks the stacked K, gives too."""
    regular, *_ = built(
        30, [(JointType.REVOLUTE, 0), (JointType.REVOLUTE, 1), (JointType.REVOLUTE, 0),
             (JointType.REVOLUTE, 3)],
        [(JointType.REVOLUTE, 2, 0)])
    flags = {"j1": True, "j3": True}
    joints = tuple(dataclasses.replace(joint, independent=flags.get(joint.name))
                   for joint in regular.model.tree_joints)
    numbered = regular_numbering(dataclasses.replace(regular.model, tree_joints=joints))
    graph, _, _, lacg = build_pipeline(numbered)
    groups = numbered._kinematics.check(graph).groups
    assert groups.count == 1 and not groups.complete
    rng = np.random.default_rng(30)
    check(numbered, graph, lacg, rng)
