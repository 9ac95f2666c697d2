"""Shared test utilities: brute-force graph oracles, random model
generation, finite-difference Jacobians, and the benchmark's workloads.

Everything here is deliberately independent of the library's own graph and
Jacobian code paths so it can serve as an oracle.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from urdfplus.constraints import implicit_loop_jacobian, loop_residual
from urdfplus.graphs import Digraph
from urdfplus.model import Link, LoopJoint, RobotModel, TreeJoint
from urdfplus.spatial import JointType


PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, imported afresh with its directory on
    sys.path for the test's duration."""
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    monkeypatch.delitem(sys.modules, "generator", raising=False)
    import workloads

    return workloads


def reachability_matrix(digraph: Digraph) -> np.ndarray:
    """Transitive closure by Floyd-Warshall; reach[i, j] includes i == j."""
    n = digraph.n_nodes
    reach = np.eye(n, dtype=bool)
    for u, v in digraph.edges:
        reach[u, v] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


def brute_force_sccs(digraph: Digraph) -> list[list[int]]:
    """SCC partition straight from pairwise mutual reachability."""
    reach = reachability_matrix(digraph)
    mutual = reach & reach.T
    assigned = [False] * digraph.n_nodes
    components = []
    for node in range(digraph.n_nodes):
        if assigned[node]:
            continue
        members = [m for m in range(digraph.n_nodes) if mutual[node, m]]
        for m in members:
            assigned[m] = True
        components.append(sorted(members))
    components.sort(key=lambda members: members[0])
    return components


def random_digraph(rng: np.random.Generator, max_nodes: int, p: float) -> Digraph:
    n = int(rng.integers(1, max_nodes + 1))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n_nodes=n, edges=tuple(edges))


_TREE_TYPES = (
    JointType.REVOLUTE,
    JointType.PRISMATIC,
    JointType.CONTINUOUS,
    JointType.FIXED,
    JointType.UNIVERSAL,
    JointType.FLOATING,
)


def _random_axis(rng: np.random.Generator):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return tuple(v)


def random_tree_model(
    rng: np.random.Generator, max_bodies: int = 20, max_loops: int = 5
) -> RobotModel:
    """Random valid model: a random parent-before-child tree plus up to
    `max_loops` revolute loop joints over random distinct body pairs."""
    n_bodies = int(rng.integers(1, max_bodies + 1))
    links = [Link(name="link0")] + [
        Link(name=f"link{i}") for i in range(1, n_bodies + 1)
    ]
    joints = []
    for i in range(1, n_bodies + 1):
        parent = int(rng.integers(0, i))
        jtype = _TREE_TYPES[int(rng.integers(0, len(_TREE_TYPES)))]
        axis = _random_axis(rng) if jtype.requires_axis else None
        joints.append(
            TreeJoint(
                name=f"joint{i}",
                joint_type=jtype,
                parent=f"link{parent}",
                child=f"link{i}",
                axis=axis,
            )
        )
    loops = []
    n_loops = int(rng.integers(0, max_loops + 1))
    for k in range(n_loops):
        pred = int(rng.integers(0, n_bodies + 1))
        succ = int(rng.integers(0, n_bodies + 1))
        if pred == succ:
            continue
        loops.append(
            LoopJoint(
                name=f"loop{k}",
                joint_type=JointType.REVOLUTE,
                predecessor=f"link{pred}",
                successor=f"link{succ}",
                axis=(0.0, 0.0, 1.0),
            )
        )
    return RobotModel(
        name="random",
        links=tuple(links),
        tree_joints=tuple(joints),
        loop_joints=tuple(loops),
    )


def fd_loop_jacobian(numbered, graph, number, q, step=1e-7) -> np.ndarray:
    """Central finite difference of the loop residual over the involved
    joint coordinates (same column layout as the assembled Jacobian)."""
    jac = implicit_loop_jacobian(numbered, graph, number, q)
    slices = numbered.coordinate_slices()
    columns = []
    for joint_number in jac.joint_numbers:
        segment = slices[joint_number]
        for k in range(segment.stop - segment.start):
            q_plus = np.array(q, dtype=float)
            q_minus = np.array(q, dtype=float)
            q_plus[segment.start + k] += step
            q_minus[segment.start + k] -= step
            r_plus = loop_residual(numbered, graph, number, q_plus)
            r_minus = loop_residual(numbered, graph, number, q_minus)
            columns.append((r_plus - r_minus) / (2.0 * step))
    if not columns:
        return np.zeros_like(jac.matrix)
    return np.array(columns).T


# belt.urdf with the motor hung from a fixed bracket on the thigh
BRACKET_BELT = """<robot name="bracket_belt">
  <link name="thigh"/><link name="shank"/><link name="bracket"/>
  <link name="motor"/><link name="foot"/>
  <joint name="knee" type="revolute" independent="true">
    <parent link="thigh"/><child link="shank"/><axis xyz="0 0 1"/></joint>
  <joint name="mount" type="fixed">
    <origin xyz="0 -0.05 0"/><parent link="thigh"/><child link="bracket"/></joint>
  <joint name="ankle" type="revolute" independent="true">
    <origin xyz="0 0 -0.25"/><parent link="shank"/><child link="foot"/>
    <axis xyz="0 0 1"/></joint>
  <joint name="motor_rotor" type="revolute" independent="false">
    <parent link="bracket"/><child link="motor"/><axis xyz="0 0 1"/></joint>
  <coupling name="belt_drive"><predecessor name="foot"/>
    <successor name="motor"/><ratio value="2.0"/></coupling>
</robot>
"""
