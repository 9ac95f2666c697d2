"""Loop groups: the count check subtracts the rank of each group's stacked
rows, so loops that repeat each other's constraints are counted once, and
the check and G at one (q, tol) share one lock-step elimination."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import urdfplus.constraints
from conftest import load_pipeline
from helpers import twin_far_fourbars
from test_elimination_kernel import oracle_explicit_from_implicit, oracle_solve_with_pivoting
from test_kinematic_plan import (
    MODEL_FILES,
    configurations,
    generated_pipelines,
    loadable,
    outcome,
)
from urdfplus.cli import main
from urdfplus.constraints import (
    RANK_TOL,
    ExplicitJacobian,
    RedundantAggregate,
    _eliminated,
    all_loop_jacobians,
    explicit_jacobian_for_model,
    independent_coordinate_check,
    independent_coordinate_indices,
    parse_configuration,
    stack_jacobians,
)
from urdfplus.errors import ConfigurationError
from urdfplus.graphs import build_pipeline
from urdfplus.model import regular_numbering
from urdfplus.spatial import _solve_batch
from urdfplus.xmlio import parse_urdf_plus

DOUBLE_PARALLELOGRAM = (Path(__file__).resolve().parent / "models"
                        / "double_parallelogram.urdf")
TWO_FOURBARS = Path(__file__).resolve().parent / "models" / "two_fourbars.urdf"


def _revolute(name, parent, child, xyz, independent):
    return (f'<joint name="{name}" type="revolute" independent="{independent}">'
            f'<origin xyz="{xyz}"/><parent link="{parent}"/><child link="{child}"/>'
            '<axis xyz="0 0 1"/></joint>')


def parallelograms(bars):
    """Side-by-side planar parallelograms on one ground, each driven by its
    crank; parallelogram k has bars[k] parallel rockers (2 or more makes it
    overconstrained), so each is one loop group and one aggregate."""
    links, joints, loops = ['<link name="ground"/>'], [], []
    for k, count in enumerate(bars):
        x = 3 * k
        links += [f'<link name="crank{k}"/>', f'<link name="coupler{k}"/>']
        joints.append(_revolute(f"crank{k}_pivot", "ground", f"crank{k}",
                                f"{x} 0 0", "true"))
        joints.append(_revolute(f"coupler{k}_pivot", f"crank{k}", f"coupler{k}",
                                "0 1 0", "false"))
        for r in range(1, count + 1):
            rocker = f"rocker{k}_{r}"
            links.append(f'<link name="{rocker}"/>')
            joints.append(_revolute(f"{rocker}_pivot", "ground", rocker,
                                    f"{x + r} 0 0", "false"))
            loops.append(
                f'<loop name="closure{k}_{r}" type="revolute">'
                f'<predecessor name="coupler{k}"><origin xyz="{r} 0 0"/></predecessor>'
                f'<successor name="{rocker}"><origin xyz="0 1 0"/></successor>'
                '<axis xyz="0 0 1"/></loop>')
    text = f'<robot name="bars">{"".join(links + joints + loops)}</robot>'
    numbered = regular_numbering(parse_urdf_plus(text).model)
    graph, _, _, lacg = build_pipeline(numbered)
    return numbered, graph, lacg


def assert_null_space(numbered, graph, q, explicit):
    k = stack_jacobians(numbered, all_loop_jacobians(numbered, graph, q))
    assert np.abs(k @ explicit.in_coordinate_order()).max() < 1e-12


class TestRedundantLoops:
    def test_double_parallelogram_has_one_dof(self):
        pipe = load_pipeline(DOUBLE_PARALLELOGRAM)
        numbered, graph, lacg = pipe.numbered, pipe.graph, pipe.lacg
        report = independent_coordinate_check(numbered, graph, lacg)
        assert [info.rank for info in report.loops] == [2, 2]
        assert report.sum_ranks == 4
        assert (report.n, report.n_i, report.passed) == (4, 1, True)
        assert report.redundant == (RedundantAggregate(1, 4, 3),)
        k = stack_jacobians(numbered, report.jacobians)
        assert np.linalg.matrix_rank(k) == 3
        explicit = explicit_jacobian_for_model(numbered, graph)
        assert explicit.matrix.shape == (4, 1)
        assert_null_space(numbered, graph, np.zeros(4), explicit)

    def test_double_parallelogram_cli(self, capsys):
        assert main(["constraints", str(DOUBLE_PARALLELOGRAM), "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert (payload["n_i"], payload["sum_rank"]) == (1, 4)
        assert payload["independent"]["pass"] is True
        assert payload["redundant_aggregates"] == [
            {"index": 1, "sum_rank": 4, "rank": 3}]
        assert captured.err == (
            "warning: aggregate 1 has redundant loop constraints: loop ranks "
            "sum to 4, their stacked rows have rank 3\n")

    def test_no_redundancy_no_field(self, capsys, models_dir):
        assert main(["constraints", str(models_dir / "wrist.urdf"), "--json"]) == 0
        captured = capsys.readouterr()
        assert "redundant_aggregates" not in json.loads(captured.out)
        assert captured.err == ""

    def test_redundant_aggregate_among_others(self):
        """Aggregates 1 and 3 hold one loop each, aggregate 2 three rockers
        (three loops of rank 2 over 5 columns), aggregate 4 two rockers
        (rank 3 where closed, 4 at a generic open configuration)."""
        numbered, graph, lacg = parallelograms([1, 3, 1, 2])
        rng = np.random.default_rng(3)
        qs = [np.zeros(numbered.total_dof), *rng.uniform(-1, 1, (5, numbered.total_dof))]
        for k, q in enumerate(qs):
            report = independent_coordinate_check(numbered, graph, lacg, q)
            jacobians = all_loop_jacobians(numbered, graph, q)
            want = {}
            for aggregate in lacg.aggregates[1:]:
                mine = [jac for jac, info in zip(jacobians, report.loops)
                        if info.aggregate == aggregate.index]
                sum_rank = sum(info.rank for info in report.loops
                               if info.aggregate == aggregate.index)
                rank = np.linalg.matrix_rank(stack_jacobians(numbered, mine))
                if sum_rank > rank:
                    want[aggregate.index] = RedundantAggregate(aggregate.index,
                                                               sum_rank, rank)
            assert report.redundant == tuple(want.values())
            assert sorted(want) == ([2, 4] if k == 0 else [2])
            # closed at zero; open elsewhere, where aggregate 2 locks
            assert report.passed is (k == 0)
            k_full = stack_jacobians(numbered, jacobians)
            assert report.n_i == numbered.total_dof - np.linalg.matrix_rank(k_full)
            if report.passed:
                explicit = explicit_jacobian_for_model(numbered, graph, q)
                assert_null_space(numbered, graph, q, explicit)
                want_g = oracle_explicit_from_implicit(
                    k_full, independent_coordinate_indices(numbered))
                assert explicit.row_coordinates == want_g.row_coordinates
                assert np.array_equal(explicit.matrix, want_g.matrix)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_bad_tolerance_raises_on_a_loop_free_model(tol):
    """With no loop there is no rank call; the tolerance is checked anyway."""
    pipe = load_pipeline("plain/pendulum.urdf")
    assert independent_coordinate_check(pipe.numbered, pipe.graph, pipe.lacg).n_i == 2
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        independent_coordinate_check(pipe.numbered, pipe.graph, pipe.lacg, tol=tol)
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        explicit_jacobian_for_model(pipe.numbered, pipe.graph, tol=tol)


@pytest.fixture
def eliminations(monkeypatch):
    """Members of each lock-step elimination made through `constraints`."""
    calls = []
    original = urdfplus.constraints._row_reduce_batch

    def counted(batch, tol, *schedule):
        calls.append(batch.shape[0])
        return original(batch, tol, *schedule)

    monkeypatch.setattr(urdfplus.constraints, "_row_reduce_batch", counted)
    return calls


def test_each_group_eliminated_once_per_q_and_tol(eliminations):
    numbered, graph, lacg = parallelograms([1, 2, 1])
    # three groups, and the two loops of the middle one on their own
    members = 3 + 2
    q = np.zeros(numbered.total_dof)
    report = independent_coordinate_check(numbered, graph, lacg, q)
    explicit_jacobian_for_model(numbered, graph, q)
    explicit_jacobian_for_model(numbered, graph, q.copy())
    assert report.passed and eliminations == [members]
    explicit_jacobian_for_model(numbered, graph, q + 0.1)
    assert eliminations == [members] * 2
    independent_coordinate_check(numbered, graph, lacg, q + 0.1, tol=1e-8)
    explicit_jacobian_for_model(numbered, graph, q + 0.1, tol=1e-8)
    assert eliminations == [members] * 3


# -- G from each group's own solve, against the oracles -------------------


def full_width_explicit(groups, reduced, tol):
    """G as `_LoopGroups.explicit` gave it before the elimination carried
    only each group's own independent columns, copied verbatim (with the
    lines of `_LoopGroups.__init__` it read): every member's right-hand
    side as wide as G, zero outside the group."""
    chosen = set(groups.independent)
    position = {c: k for k, c in enumerate(groups.independent)}
    blocks = []  # per group: local dependent, local and global independent
    for columns in groups.columns:
        dep = [k for k, c in enumerate(columns.tolist()) if c not in chosen]
        ind = [k for k, c in enumerate(columns.tolist()) if c in chosen]
        blocks.append((dep, ind, [position[columns[k]] for k in ind]))
    width = np.array([len(dep) for dep, _, _ in blocks], dtype=np.intp)
    size = int(width.max(initial=0))
    rows = {int(columns[local]): member * size + size - len(dep) + k
            for member, ((dep, _, _), columns) in enumerate(zip(blocks, groups.columns))
            for k, local in enumerate(dep)}
    rows = [rows.get(c, 0) for c in groups.dependent]

    count, n_i = groups.count, len(groups.independent)
    a = np.zeros((count, size, size))
    b = np.zeros((count, size, n_i))
    for member, (dep, ind, position) in enumerate(blocks):
        basis = reduced[member, : len(dep)]
        start = size - len(dep)
        a[member, start:, start:] = basis[:, dep]
        b[member][start:, position] = basis[:, ind]
    x = _solve_batch(a, b, size - width, tol)
    return ExplicitJacobian(
        matrix=np.vstack([np.eye(n_i), -x.reshape(count * size, n_i)[rows]]),
        row_coordinates=groups.independent + groups.dependent,
        independent=groups.independent,
    )


def per_group_explicit(groups, reduced, tol):
    """G from each group's own solve by the verbatim one-matrix oracle: its
    basis's dependent block against its independent columns, zero-padded
    to the widest group's count of them (the bits of a row's product in the
    back substitution depend on how many columns it spans), and -x's own
    columns placed in G's rows of the group's dependent coordinates and
    G's columns of its independent ones; every other entry below the
    identity block is +0.0."""
    chosen, n_i = set(groups.independent), len(groups.independent)
    column_of = {c: k for k, c in enumerate(groups.independent)}
    row_of = {c: n_i + k for k, c in enumerate(groups.dependent)}
    splits = [([k for k, c in enumerate(columns.tolist()) if c not in chosen],
               [k for k, c in enumerate(columns.tolist()) if c in chosen])
              for columns in groups.columns]
    widest = max((len(ind) for _, ind in splits), default=0)
    matrix = np.zeros((n_i + len(groups.dependent), n_i))
    matrix[:n_i] = np.eye(n_i)
    for member, (columns, (dep, ind)) in enumerate(zip(groups.columns, splits)):
        basis = reduced[member, : len(dep)]
        rhs = np.zeros((len(dep), widest))
        rhs[:, : len(ind)] = basis[:, ind]
        x = oracle_solve_with_pivoting(basis[:, dep].copy(), rhs, tol)
        for r, k in enumerate(dep):
            for j, local in enumerate(ind):
                matrix[row_of[int(columns[k])], column_of[int(columns[local])]] = -x[r, j]
    return matrix


def among_all_dependent(groups, reduced, tol, error):
    """The full-width solve's error, which names a refused pivot's column by
    its place in its group, with that column named by its place among all
    dependent coordinates, as `_LoopGroups.explicit` names it.  The lock
    step stops at the first padded column that some member refuses, and
    names the first such member: each group's own solve, by the verbatim
    one-matrix oracle, gives its refused column, and `groups.solved_by` its
    place among all."""
    kind, message = error
    size = int(groups.width.max(initial=0))
    first = None  # (padded column, member, column in the group)
    for member, columns in enumerate(groups.columns):
        dep = [k for k, c in enumerate(columns.tolist()) if c not in groups.independent]
        ind = [k for k, c in enumerate(columns.tolist()) if c in groups.independent]
        basis = reduced[member, : len(dep)]
        refused = outcome(lambda: oracle_solve_with_pivoting(basis[:, dep], basis[:, ind], tol))
        if refused[0] == "error":
            column = int(refused[1][1].rsplit(" ", 1)[1])
            first = min(first or (size + 1,), (size - len(dep) + column, member, column))
    _, member, column = first
    head, named = message.rsplit(" ", 1)
    assert int(named) == column
    return kind, f"{head} {groups.solved_by.index((member, column))}"


def check_g_bytes(numbered, graph, q):
    """G's bytes, signed zeros included, equal the per-group oracle's at q
    when G reaches the groups' solve (every dependent coordinate in a group
    whose rank equals its width), stay within 1e-14 max(|G|, 1) of the
    full-width oracle's, leave no -0.0 outside a row's group and give
    K G = 0 to 1e-12 max|K|; returns G's matrix then, else None.  A
    refused pivot gives the full-width oracle's error, its column named as
    `among_all_dependent` translates it."""
    _, reduced, ranks = _eliminated(numbered, graph, q, RANK_TOL)
    groups = numbered._kinematics.check(graph).groups
    if not (groups.complete and np.array_equal(ranks[: groups.count], groups.width)):
        return None
    want = outcome(lambda: full_width_explicit(groups, reduced, RANK_TOL))
    got = outcome(lambda: groups.explicit(reduced, RANK_TOL))
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == among_all_dependent(groups, reduced, RANK_TOL, want[1])
        return None
    matrix = got[1].matrix
    assert got[1].row_coordinates == want[1].row_coordinates
    assert matrix.tobytes() == per_group_explicit(groups, reduced, RANK_TOL).tobytes()
    full = want[1].matrix
    bound = 1e-14 * max(np.abs(full).max(initial=0.0), 1.0)
    assert np.abs(matrix - full).max(initial=0.0) <= bound
    n_i = len(groups.independent)
    inside = np.zeros(matrix.shape, dtype=bool)  # each dependent row's group's columns
    inside[:n_i] = True
    group_columns = [np.isin(groups.independent, columns) for columns in groups.columns]
    for k, (member, _) in enumerate(groups.solved_by):
        inside[n_i + k] = group_columns[member]
    assert not (np.signbit(matrix) & (matrix == 0.0) & ~inside).any()
    k_stack = stack_jacobians(numbered, all_loop_jacobians(numbered, graph, q))
    explicit = explicit_jacobian_for_model(numbered, graph, q)
    assert explicit.matrix.tobytes() == matrix.tobytes()
    residue = np.abs(k_stack @ explicit.in_coordinate_order()).max(initial=0.0)
    assert residue <= 1e-12 * np.abs(k_stack).max(initial=0.0)
    return matrix


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_g_is_the_per_group_solve_on_the_sweep_model(seed, monkeypatch):
    """The benchmark's 100-body sweep model at its 16 configurations.  The
    full-width solve's G had -0.0 outside a row's group, -(+0.0 / pivot),
    and its products spanned all of G's columns; the per-group solve's G
    differs from it in the last bits here, within the bound."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    monkeypatch.delitem(sys.modules, "generator", raising=False)
    import workloads

    _, numbered, graph, _, qs = workloads.sweep_model(seed, workloads.SWEEP_BODIES,
                                                      workloads.SWEEP_LOOPS)
    assert numbered._kinematics.check(graph).groups.count > 1
    moved = 0
    for q in qs:
        g = check_g_bytes(numbered, graph, q)
        _, reduced, _ = _eliminated(numbered, graph, q, RANK_TOL)
        full = full_width_explicit(numbered._kinematics.check(graph).groups, reduced, RANK_TOL)
        moved += int(np.count_nonzero(g.view(np.int64) != full.matrix.view(np.int64)))
    assert moved > 0  # the old -0.0s at least


def test_a_second_group_refusing_at_rank_tol_is_named_among_all():
    """Twin four-bars, copy B 1e-13 from its toggle: at RANK_TOL its group
    keeps rank 2 but refuses its coupler's pivot, place 1 in the group and
    place 3 among all dependent coordinates (rocker_a, rocker_b, coupler_a,
    coupler_b), which the full-width oracle names as 1."""
    crank = ("true", "false", "false")
    numbered = regular_numbering(parse_urdf_plus(twin_far_fourbars(1.0, 1.0, crank, crank)).model)
    graph, _, _, lacg = build_pipeline(numbered)
    q = np.array([0.3, -0.2, 0.0, 0.0, 0.25, 1e-13])
    groups = numbered._kinematics.check(graph).groups
    assert groups.count == 2
    assert independent_coordinate_check(numbered, graph, lacg, q).passed
    _, reduced, _ = _eliminated(numbered, graph, q, RANK_TOL)
    want = outcome(lambda: full_width_explicit(groups, reduced, RANK_TOL))
    assert want[0] == "error" and want[1][1].endswith(" in column 1")
    assert check_g_bytes(numbered, graph, q) is None
    got = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q))
    assert got == ("error", (want[1][0], want[1][1].replace(" column 1", " column 3")))


def test_g_is_the_per_group_solve_on_multi_group_models():
    """Every `models/` file and generated model of the kinematic-plan oracle
    with more than one loop group, at the oracle's configurations."""
    cases = [(pipe.numbered, pipe.graph, [np.zeros(pipe.numbered.total_dof),
                                          *configurations(np.random.default_rng(7),
                                                          pipe.numbered)])
             for pipe in map(loadable, MODEL_FILES) if pipe is not None]
    cases += [(numbered, graph, qs) for numbered, graph, _, qs in generated_pipelines()]
    checked = 0
    for numbered, graph, qs in cases:
        if numbered._kinematics.check(graph).groups.count > 1:
            checked += sum(check_g_bytes(numbered, graph, q) is not None for q in qs)
    assert checked >= 50  # 60 (model, q) pairs with two groups or more


# every joint off zero: the full-width solve left -0.0 in G's rows of one
# four-bar, in the other's crank column, at this configuration
TWO_FOURBARS_CONFIG = ("crank_a_pivot: 0.39\nrocker_a_pivot: -0.41\ncoupler_a_pivot: -0.37\n"
                       "crank_b_pivot: -1.0\nrocker_b_pivot: 0.95\ncoupler_b_pivot: -0.4\n")


@pytest.mark.parametrize("config", [None, TWO_FOURBARS_CONFIG], ids=["zero", "config"])
def test_two_fourbars_cli_g_is_zero_outside_each_group(config, capsys, tmp_path):
    """`constraints --json` on two four-bars on one ground, two loop groups
    with a crank each: exit 0, G as the library gives it, every entry of a
    row's other group +0.0, and K G = 0."""
    args = ["constraints", str(TWO_FOURBARS), "--json"]
    pipe = load_pipeline(TWO_FOURBARS)
    q = np.zeros(pipe.numbered.total_dof)
    if config is not None:
        (tmp_path / "q.txt").write_text(config)
        args += ["--config", str(tmp_path / "q.txt")]
        q = parse_configuration(config, pipe.numbered)
    assert main(args) == 0
    g = json.loads(capsys.readouterr().out)["G"]
    assert g["columns"] == ["crank_a_pivot[0]", "crank_b_pivot[0]"]
    explicit = explicit_jacobian_for_model(pipe.numbered, pipe.graph, q)
    values = np.array([row["values"] for row in g["rows"]])
    assert values.tobytes() == explicit.matrix.tobytes()
    for row in g["rows"]:
        group = row["coordinate"].split("_")[1]  # "a" or "b"
        for column, value in zip(g["columns"], row["values"]):
            if column.split("_")[1] != group:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, row
    assert_null_space(pipe.numbered, pipe.graph, q, explicit)
