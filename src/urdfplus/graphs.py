"""Connectivity graph, constraint dependency digraph, SCC extraction, and
loop aggregation.

The pipeline turns a numbered model into the tree of aggregate links that
constraint-embedding dynamics algorithms consume:

    connectivity graph -> constraint dependency digraph -> SCCs -> LACG

Bodies whose motions can only be computed jointly end up in one strongly
connected component of the dependency digraph, which is exactly the minimal
aggregation criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateLoopError, InternalInconsistencyError
from .model import Coupling, NumberedModel, walk_subchains


@dataclass(frozen=True)
class LoopEdge:
    number: int  # regular number in N_B+1..N_J
    name: str
    kind: str  # "loop" | "coupling"
    predecessor: int
    successor: int


@dataclass(frozen=True)
class ConnectivityGraph:
    body_names: tuple[str, ...]
    parent: tuple[int, ...]  # parent[0] == -1, parent[i] < i
    tree_joint_names: tuple[str, ...]  # entry 0 unused ("")
    loop_edges: tuple[LoopEdge, ...]

    @property
    def n_bodies(self) -> int:
        return len(self.body_names) - 1

    @property
    def n_loop_edges(self) -> int:
        return len(self.loop_edges)

    @property
    def n_joints(self) -> int:
        return self.n_bodies + self.n_loop_edges

    @cached_property
    def subchains(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """(nca, predecessor subchain, successor subchain) of every loop
        edge, in loop_edges order; computed once per graph and shared."""
        shared = []
        for edge in self.loop_edges:
            nca, nu_p, nu_s = loop_subchains(self, edge)
            shared.append((nca, tuple(nu_p), tuple(nu_s)))
        return tuple(shared)


@dataclass(frozen=True)
class Digraph:
    n_nodes: int
    edges: tuple[tuple[int, int], ...]  # multiset; parallel edges kept
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise InternalInconsistencyError(
                    f"edge ({u}, {v}) outside node range 0..{self.n_nodes - 1}"
                )


@dataclass(frozen=True)
class Aggregate:
    index: int
    bodies: tuple[int, ...]  # ascending
    loop_numbers: tuple[int, ...]  # embedded loop joints / couplings
    parent: int | None  # parent aggregate index; None for the root aggregate


@dataclass(frozen=True)
class LoopAggregatedGraph:
    graph: ConnectivityGraph
    aggregates: tuple[Aggregate, ...]  # root aggregate {0} first
    body_to_aggregate: tuple[int, ...]

    @property
    def n_aggregates(self) -> int:
        return len(self.aggregates)


def connectivity_graph_from_model(numbered: NumberedModel) -> ConnectivityGraph:
    """One node per link, a tree edge per tree joint, and a loop edge per
    loop joint and per coupling."""
    names = ["" if j is None else j.name for j in numbered.tree_joint_of]
    loop_edges = []
    for number, entry in numbered.loop_entries:
        kind = "coupling" if isinstance(entry, Coupling) else "loop"
        loop_edges.append(
            LoopEdge(
                number=number,
                name=entry.name,
                kind=kind,
                predecessor=numbered.body_index(entry.predecessor),
                successor=numbered.body_index(entry.successor),
            )
        )
    return ConnectivityGraph(
        body_names=numbered.body_names,
        parent=numbered.parent,
        tree_joint_names=tuple(names),
        loop_edges=tuple(loop_edges),
    )


def loop_subchains(
    graph: ConnectivityGraph, edge: LoopEdge
) -> tuple[int, list[int], list[int]]:
    """(nca, predecessor subchain, successor subchain) for a loop edge."""
    nca, nu_p, nu_s = walk_subchains(graph.parent, edge.predecessor, edge.successor)
    if nca < 0:
        raise InternalInconsistencyError(
            f"bodies {edge.predecessor} and {edge.successor} share no ancestor; "
            "parent map is broken"
        )
    if not nu_p and not nu_s:
        raise DegenerateLoopError(
            f"loop {edge.name!r}: predecessor and successor both coincide "
            "with their nearest common ancestor"
        )
    return nca, nu_p, nu_s


def constraint_dependency_digraph(graph: ConnectivityGraph) -> Digraph:
    """Directed graph whose SCCs are the minimal aggregate links.

    Tree joints contribute a parent-to-child edge.  Each loop edge
    contributes two edges: predecessor to the lowest-numbered body of the
    successor subchain and successor to the lowest-numbered body of the
    predecessor subchain.  When one subchain is empty (the loop endpoint is
    itself the NCA) the target falls back to the other subchain, which keeps
    the joint-motion dependency cycle intact and the edge count at two per
    loop; parallel edges are kept.
    """
    edges: list[tuple[int, int]] = []
    for body in range(1, graph.n_bodies + 1):
        edges.append((graph.parent[body], body))
    for edge, (_, nu_p, nu_s) in zip(graph.loop_edges, graph.subchains):
        edges.append((edge.predecessor, min(nu_s) if nu_s else min(nu_p)))
        edges.append((edge.successor, min(nu_p) if nu_p else min(nu_s)))
    return Digraph(
        n_nodes=graph.n_bodies + 1,
        edges=tuple(edges),
        labels=graph.body_names,
    )


def strongly_connected_components(digraph: Digraph) -> list[list[int]]:
    """Two-pass depth-first SCC extraction (forward finish order, then DFS
    on the reverse digraph).  Components are sorted by their smallest node;
    nodes within a component ascend."""
    n = digraph.n_nodes
    forward: list[list[int]] = [[] for _ in range(n)]
    reverse: list[list[int]] = [[] for _ in range(n)]
    for u, v in digraph.edges:
        forward[u].append(v)
        reverse[v].append(u)

    visited = [False] * n
    finish_order: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        stack = [(start, iter(forward[start]))]
        while stack:
            node, neighbors = stack[-1]
            for nxt in neighbors:
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, iter(forward[nxt])))
                    break
            else:
                finish_order.append(node)
                stack.pop()

    assignment = [-1] * n
    components: list[list[int]] = []
    for start in reversed(finish_order):
        if assignment[start] != -1:
            continue
        index = len(components)
        members = [start]
        assignment[start] = index
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in reverse[node]:
                if assignment[nxt] == -1:
                    assignment[nxt] = index
                    members.append(nxt)
                    stack.append(nxt)
        components.append(sorted(members))
    components.sort(key=lambda members: members[0])
    return components


def loop_aggregated_graph(
    graph: ConnectivityGraph, sccs: list[list[int]]
) -> LoopAggregatedGraph:
    """Contract each SCC of the dependency digraph into an aggregate link.

    The root body always forms its own aggregate (nothing can reach it), and
    the aggregate-level graph is a topological tree; both facts are asserted
    rather than assumed.
    """
    body_to_aggregate = [-1] * (graph.n_bodies + 1)
    for index, members in enumerate(sccs):
        for body in members:
            body_to_aggregate[body] = index
    if any(a == -1 for a in body_to_aggregate):
        raise InternalInconsistencyError("SCC partition does not cover all bodies")
    if sccs[0] != [0]:
        raise InternalInconsistencyError(
            f"root body is not a singleton aggregate: {sccs[0]}"
        )

    loops_of: dict[int, list[int]] = {i: [] for i in range(len(sccs))}
    for edge, (_, nu_p, nu_s) in zip(graph.loop_edges, graph.subchains):
        owners = {body_to_aggregate[body] for body in nu_p + nu_s}
        if len(owners) != 1:
            raise InternalInconsistencyError(
                f"loop {edge.name!r} straddles aggregates {sorted(owners)}"
            )
        loops_of[owners.pop()].append(edge.number)

    aggregates = []
    for index, members in enumerate(sccs):
        parents = {
            body_to_aggregate[graph.parent[body]]
            for body in members
            if body != 0 and body_to_aggregate[graph.parent[body]] != index
        }
        if index == 0:
            parent = None
        elif len(parents) == 1:
            parent = parents.pop()
        else:
            raise InternalInconsistencyError(
                f"aggregate {members} has parent aggregates {sorted(parents)}"
            )
        aggregates.append(
            Aggregate(
                index=index,
                bodies=tuple(members),
                loop_numbers=tuple(sorted(loops_of[index])),
                parent=parent,
            )
        )
    return LoopAggregatedGraph(
        graph=graph,
        aggregates=tuple(aggregates),
        body_to_aggregate=tuple(body_to_aggregate),
    )


def build_pipeline(numbered: NumberedModel):
    """Convenience: (CG, CDD, SCCs, LACG) for a numbered model."""
    graph = connectivity_graph_from_model(numbered)
    digraph = constraint_dependency_digraph(graph)
    sccs = strongly_connected_components(digraph)
    lacg = loop_aggregated_graph(graph, sccs)
    return graph, digraph, sccs, lacg


# -- DOT rendering ------------------------------------------------------------


def _dot_string(text: str) -> str:
    """A DOT quoted string: backslashes first, then double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_node(index: int, label: str) -> str:
    return f"  n{index} [label={_dot_string(f'{label} ({index})')}];"


def _dot_edges(graph: ConnectivityGraph) -> list[str]:
    """Tree edges, then dashed loop edges labelled with their names."""
    lines = [f"  n{parent} -- n{body};" for body, parent in enumerate(graph.parent) if body]
    for edge in graph.loop_edges:
        lines.append(f"  n{edge.predecessor} -- n{edge.successor} "
                     f"[style=dashed, label={_dot_string(edge.name)}];")
    return lines


def export_dot(obj) -> str:
    """Render a ConnectivityGraph, Digraph, or LoopAggregatedGraph as DOT.

    Connectivity-graph loop edges are dashed; aggregates become clusters.
    Output ordering is deterministic.
    """
    if isinstance(obj, ConnectivityGraph):
        lines = ["graph connectivity {"]
        for i, name in enumerate(obj.body_names):
            lines.append(_dot_node(i, name))
        lines += _dot_edges(obj)
    elif isinstance(obj, Digraph):
        lines = ["digraph dependencies {"]
        for i in range(obj.n_nodes):
            label = obj.labels[i] if obj.labels else str(i)
            lines.append(_dot_node(i, label))
        for u, v in obj.edges:
            lines.append(f"  n{u} -> n{v};")
    elif isinstance(obj, LoopAggregatedGraph):
        graph = obj.graph
        lines = ["graph aggregated {"]
        for aggregate in obj.aggregates:
            lines.append(f"  subgraph cluster_{aggregate.index} {{")
            label = "root" if aggregate.parent is None else f"aggregate {aggregate.index}"
            lines.append(f'    label="{label}";')
            for body in aggregate.bodies:
                lines.append("  " + _dot_node(body, graph.body_names[body]))
            lines.append("  }")
        lines += _dot_edges(graph)
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
