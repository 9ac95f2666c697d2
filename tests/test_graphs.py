import re

import numpy as np
import pytest

from helpers import (
    brute_force_sccs,
    random_digraph,
    random_tree_model,
    reachability_matrix,
)
from urdfplus.cli import main
from urdfplus.errors import DegenerateLoopError
from urdfplus.graphs import (
    ConnectivityGraph,
    Digraph,
    LoopEdge,
    build_pipeline,
    connectivity_graph_from_model,
    constraint_dependency_digraph,
    export_dot,
    loop_aggregated_graph,
    loop_subchains,
    strongly_connected_components,
)
from urdfplus.model import regular_numbering, walk_subchains
from urdfplus.xmlio import parse_urdf_plus


def simple_chain_graph(n=4):
    return ConnectivityGraph(
        body_names=tuple(f"b{i}" for i in range(n)),
        parent=(-1,) + tuple(range(n - 1)),
        tree_joint_names=("",) + tuple(f"j{i}" for i in range(1, n)),
        loop_edges=(),
    )


def names(graph, bodies):
    return {graph.body_names[b] for b in bodies}


class TestConnectivityGraph:
    def test_wrist_counts(self, wrist):
        g = wrist.graph
        assert g.n_bodies + 1 == 5
        assert g.n_joints - g.n_loop_edges == 4
        assert g.n_loop_edges == 2

    def test_belt_counts(self, belt):
        g = belt.graph
        assert (g.n_bodies + 1, g.n_bodies, g.n_loop_edges) == (4, 3, 1)
        assert g.loop_edges[0].kind == "coupling"

    def test_loop_free_chain(self):
        model = parse_urdf_plus(
            '<robot name="c"><link name="a"/><link name="b"/><link name="c"/>'
            '<joint name="j1" type="revolute"><parent link="a"/>'
            '<child link="b"/><axis xyz="0 0 1"/></joint>'
            '<joint name="j2" type="revolute"><parent link="b"/>'
            '<child link="c"/><axis xyz="0 0 1"/></joint></robot>'
        ).model
        g = connectivity_graph_from_model(regular_numbering(model))
        assert g.loop_edges == ()
        assert g.n_joints == g.n_bodies


class TestAncestry:
    def test_chain_ancestor_case(self):
        g = simple_chain_graph(4)
        assert walk_subchains(g.parent, 2, 3)[0] == 2

    def test_wrist_nca(self, wrist):
        g = wrist.graph
        link2 = wrist.numbered.body_index("Link2")
        output = wrist.numbered.body_index("Output")
        assert g.body_names[walk_subchains(g.parent, link2, output)[0]] == "Base"

    def test_belt_nca(self, belt):
        g = belt.graph
        foot = belt.numbered.body_index("foot")
        motor = belt.numbered.body_index("motor")
        assert g.body_names[walk_subchains(g.parent, foot, motor)[0]] == "thigh"

    def test_belt_subchains(self, belt):
        g = belt.graph
        nca, nu_p, nu_s = loop_subchains(g, g.loop_edges[0])
        assert g.body_names[nca] == "thigh"
        assert names(g, nu_p) == {"foot", "shank"}
        assert names(g, nu_s) == {"motor"}

    def test_empty_subchain_walk(self):
        g = simple_chain_graph(4)
        assert walk_subchains(g.parent, 2, 2) == (2, [], [])


class TestDependencyDigraph:
    def test_belt_exact_edges(self, belt):
        d = belt.digraph
        idx = belt.numbered.body_index
        tree = {(0, idx("shank")), (0, idx("motor")), (idx("shank"), idx("foot"))}
        loop_induced = {(idx("foot"), idx("motor")), (idx("motor"), idx("shank"))}
        assert sorted(d.edges) == sorted(tree | loop_induced)
        assert d.n_nodes == belt.graph.n_bodies + 1
        assert len(d.edges) == belt.graph.n_joints + belt.graph.n_loop_edges

    def test_wrist_exact_edges(self, wrist):
        d = wrist.digraph
        idx = wrist.numbered.body_index
        expected = {
            (0, idx("Link1")), (0, idx("Link2")), (0, idx("Link3")),
            (idx("Link1"), idx("Output")),
            (idx("Link2"), idx("Link1")), (idx("Output"), idx("Link2")),
            (idx("Link3"), idx("Link1")), (idx("Output"), idx("Link3")),
        }
        assert set(d.edges) == expected
        assert len(d.edges) == 8

    def test_loop_free_chain_is_the_tree(self):
        g = simple_chain_graph(5)
        d = constraint_dependency_digraph(g)
        assert sorted(d.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_node_and_edge_counts_across_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            numbered = regular_numbering(random_tree_model(rng))
            g = connectivity_graph_from_model(numbered)
            d = constraint_dependency_digraph(g)
            assert d.n_nodes == g.n_bodies + 1
            assert len(d.edges) == g.n_joints + g.n_loop_edges

    def test_loop_onto_ancestor_falls_back_to_other_subchain(self):
        # closing a chain back onto the root: the successor subchain is
        # empty, so both edges target the predecessor subchain
        g = ConnectivityGraph(
            body_names=("base", "a", "b"),
            parent=(-1, 0, 1),
            tree_joint_names=("", "j1", "j2"),
            loop_edges=(
                LoopEdge(number=3, name="back", kind="loop",
                         predecessor=2, successor=0),
            ),
        )
        d = constraint_dependency_digraph(g)
        assert sorted(d.edges) == [(0, 1), (0, 1), (1, 2), (2, 1)]
        sccs = strongly_connected_components(d)
        assert sccs == [[0], [1, 2]]

    def test_degenerate_loop_rejected(self):
        g = ConnectivityGraph(
            body_names=("base", "a"),
            parent=(-1, 0),
            tree_joint_names=("", "j1"),
            loop_edges=(
                LoopEdge(number=2, name="dg", kind="loop",
                         predecessor=1, successor=1),
            ),
        )
        with pytest.raises(DegenerateLoopError):
            constraint_dependency_digraph(g)


class TestSCC:
    def test_acyclic_gives_singletons(self):
        d = Digraph(n_nodes=4, edges=((0, 1), (1, 2), (0, 3)))
        assert strongly_connected_components(d) == [[0], [1], [2], [3]]

    def test_three_cycle(self):
        d = Digraph(n_nodes=3, edges=((0, 1), (1, 2), (2, 0)))
        assert strongly_connected_components(d) == [[0, 1, 2]]

    def test_wrist_single_component(self, wrist):
        assert wrist.sccs == [[0], [1, 2, 3, 4]]

    def test_matches_brute_force_on_random_digraphs(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            d = random_digraph(rng, 12, float(rng.choice([0.1, 0.2, 0.4])))
            assert strongly_connected_components(d) == brute_force_sccs(d)

    def test_parallel_edges_are_harmless(self):
        d = Digraph(n_nodes=2, edges=((0, 1), (0, 1), (1, 0)))
        assert strongly_connected_components(d) == [[0, 1]]


class TestAggregation:
    def test_belt_aggregates(self, belt):
        lacg = belt.lacg
        assert lacg.n_aggregates == 2
        root, agg = lacg.aggregates
        assert names(belt.graph, root.bodies) == {"thigh"}
        assert root.parent is None
        assert names(belt.graph, agg.bodies) == {"shank", "foot", "motor"}
        assert agg.parent == 0
        assert agg.loop_numbers == (4,)

    def test_wrist_aggregates(self, wrist):
        lacg = wrist.lacg
        assert lacg.n_aggregates == 2
        agg = lacg.aggregates[1]
        assert names(wrist.graph, agg.bodies) == {
            "Link1", "Link2", "Link3", "Output"
        }
        assert agg.loop_numbers == (5, 6)

    def test_loop_free_all_singletons(self):
        g = simple_chain_graph(6)
        d = constraint_dependency_digraph(g)
        lacg = loop_aggregated_graph(g, strongly_connected_components(d))
        assert lacg.n_aggregates == 6
        assert all(len(a.bodies) == 1 for a in lacg.aggregates)

    def test_nested_single_aggregate(self, nested):
        assert nested.sccs == [[0], [1, 2, 3, 4, 5]]
        assert len(nested.lacg.aggregates[1].loop_numbers) == 2

    def test_overlapping_single_aggregate(self, overlapping):
        assert overlapping.sccs == [[0], [1, 2, 3, 4]]

    def test_aggregates_partition_bodies(self, wrist, belt, nested, overlapping):
        for bundle in (wrist, belt, nested, overlapping):
            seen = []
            for a in bundle.lacg.aggregates:
                seen.extend(a.bodies)
            assert sorted(seen) == list(range(bundle.graph.n_bodies + 1))

    def test_minimal_aggregation_is_mutual_reachability(self, wrist, nested,
                                                        overlapping):
        for bundle in (wrist, nested, overlapping):
            reach = reachability_matrix(bundle.digraph)
            agg_of = bundle.lacg.body_to_aggregate
            n = bundle.digraph.n_nodes
            for i in range(n):
                for j in range(i + 1, n):
                    mutual = reach[i, j] and reach[j, i]
                    assert mutual == (agg_of[i] == agg_of[j])

    def test_single_parent_per_aggregate_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            numbered = regular_numbering(random_tree_model(rng))
            _, _, _, lacg = build_pipeline(numbered)
            for aggregate in lacg.aggregates[1:]:
                assert aggregate.parent is not None
                assert aggregate.parent != aggregate.index

    def test_pipeline_idempotent(self, belt):
        a = build_pipeline(belt.numbered)
        b = build_pipeline(belt.numbered)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]
        assert a[3].aggregates == b[3].aggregates


class TestDotExport:
    def test_single_body_graph(self):
        g = ConnectivityGraph(
            body_names=("solo",), parent=(-1,), tree_joint_names=("",),
            loop_edges=(),
        )
        dot = export_dot(g)
        assert dot.startswith("graph")
        assert 'label="solo (0)"' in dot
        assert "--" not in dot

    def test_unsupported_object(self):
        with pytest.raises(TypeError, match="^cannot render dict as DOT$"):
            export_dot({})

    def test_belt_cdd_edge_count(self, belt):
        dot = export_dot(belt.digraph)
        assert dot.startswith("digraph")
        assert dot.count("->") == 5  # 3 tree + 2 loop-induced

    def test_cg_loop_edges_dashed(self, wrist):
        dot = export_dot(wrist.graph)
        assert dot.count("style=dashed") == 2

    def test_wrist_lacg_two_clusters(self, wrist):
        dot = export_dot(wrist.lacg)
        assert dot.count("subgraph cluster_") == 2

    def test_belt_lacg_cluster_contents(self, belt):
        dot = export_dot(belt.lacg)
        cluster = dot.split("subgraph cluster_1")[1].split("}")[0]
        for name in ("shank", "foot", "motor"):
            assert name in cluster

    def test_deterministic_output(self, wrist):
        assert export_dot(wrist.graph) == export_dot(wrist.graph)
        assert export_dot(wrist.digraph) == export_dot(wrist.digraph)


_DOT_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(rf"^ *n(\d+) \[label={_DOT_QUOTED}\];$")
_DOT_LOOP_EDGE = re.compile(rf"^  n\d+ -- n\d+ \[style=dashed, label={_DOT_QUOTED}\];$")


def _dot_unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def _fourbar_named(crank: str, rocker: str, loop: str) -> str:
    """The four-bar with the given link and loop names (neither ' nor &), in
    single-quoted attributes so that a double quote is legal XML."""
    return f"""<robot name="named">
  <link name="ground"/><link name='{crank}'/><link name='{rocker}'/>
  <link name="coupler"/>
  <joint name="j1" type="revolute"><parent link="ground"/>
    <child link='{crank}'/><axis xyz="0 0 1"/></joint>
  <joint name="j2" type="revolute"><origin xyz="1 0 0"/><parent link="ground"/>
    <child link='{rocker}'/><axis xyz="0 0 1"/></joint>
  <joint name="j3" type="revolute"><origin xyz="0 1 0"/>
    <parent link='{crank}'/><child link="coupler"/><axis xyz="0 0 1"/></joint>
  <loop name='{loop}' type="revolute">
    <predecessor name="coupler"><origin xyz="1 0 0"/></predecessor>
    <successor name='{rocker}'><origin xyz="0 1 0"/></successor>
    <axis xyz="0 0 1"/></loop>
</robot>
"""


class TestDotEscaping:
    """Every node and edge label is a valid DOT quoted string that reads
    back as its name, whatever quotes and backslashes the name holds."""

    @pytest.mark.parametrize("kind", ["cg", "cdd", "lacg"])
    @pytest.mark.parametrize("loop", ["x\\", 'y"z', '\\"'])
    def test_labels_parse_back(self, capsys, tmp_path, kind, loop):
        crank, rocker = 'a"b', "c\\"
        path = tmp_path / "named.urdf"
        path.write_text(_fourbar_named(crank, rocker, loop), encoding="utf-8")
        assert main(["graph", str(path), "--kind", kind]) == 0
        out = capsys.readouterr().out
        expected = {0: "ground", 1: crank, 2: rocker, 3: "coupler"}
        nodes, loops = {}, []
        for line in out.splitlines():
            if match := _DOT_NODE.match(line):
                nodes[int(match[1])] = _dot_unquote(match[2])
            elif match := _DOT_LOOP_EDGE.match(line):
                loops.append(_dot_unquote(match[1]))
            else:
                assert "label=" not in line or line.strip() in (
                    'label="root";', 'label="aggregate 1";'), line
        assert nodes == {i: f"{name} ({i})" for i, name in expected.items()}
        assert loops == ([] if kind == "cdd" else [loop])

