"""G from the loop groups alone: `explicit_jacobian_for_model` never ranks
the stacked K, raises its errors from the numbers of the count check and of
the groups' own solve, and ties no coordinate to an independent coordinate
of another loop aggregate."""

import re

import numpy as np
import pytest

import urdfplus.constraints
import urdfplus.spatial
from helpers import far_fourbar, perfbench_workloads, twin_far_fourbars
from test_elimination_kernel import oracle_explicit_from_implicit
from test_kinematic_plan import (
    MODEL_FILES,
    configurations,
    generated_pipelines,
    loadable,
    outcome,
)
from urdfplus.constraints import (
    all_loop_jacobians,
    explicit_jacobian_for_model,
    independent_coordinate_check,
    independent_coordinate_indices,
    stack_jacobians,
)
from urdfplus.errors import CountMismatchError, SingularDependentBlockError
from urdfplus.graphs import build_pipeline
from urdfplus.model import regular_numbering
from urdfplus.xmlio import parse_urdf_plus

ONE_DOF = ("true", "false", "false")  # the crank only
ALL = ("true", "true", "true")


def pipeline(text):
    numbered = regular_numbering(parse_urdf_plus(text).model)
    graph, _, _, lacg = build_pipeline(numbered)
    return numbered, graph, lacg


def twin(length_b, flags_b, length_a=1.0, flags_a=ONE_DOF):
    return pipeline(twin_far_fourbars(length_a, length_b, flags_a, flags_b))


# crank_a, rocker_a, crank_b, rocker_b, coupler_a, coupler_b
TWIN_Q = np.array([0.3, -0.2, 0.25, 0.3, -0.2, 0.25])


def g_outcomes(cases):
    """G's outcome, its matrix as bytes, at every (numbered, graph, q)."""
    out = []
    for numbered, graph, q in cases:
        got = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q))
        if got[0] == "value":
            got = "value", (got[1].row_coordinates, got[1].matrix.tobytes())
        out.append(got)
    return out


def test_g_never_ranks_the_stacked_k(monkeypatch):
    """With stack_jacobians and numerical_rank made to raise inside
    `constraints`, and row_reduce_basis and solve_with_pivoting inside
    `spatial`, G gives the same values and the same errors on every loadable
    `models/` file, the generated models of the kinematic-plan oracle and
    the two-scale twin four-bars."""
    cases = []
    for pipe in filter(None, map(loadable, MODEL_FILES)):
        qs = configurations(np.random.default_rng(11), pipe.numbered)[:5]
        cases += [(pipe.numbered, pipe.graph, q)
                  for q in [np.zeros(pipe.numbered.total_dof), *qs]]
    cases += [(numbered, graph, q) for numbered, graph, _, qs in generated_pipelines()
              for q in qs[:5]]
    for flags in (ONE_DOF, ALL):
        numbered, graph, _ = twin(1e-11, flags)
        cases.append((numbered, graph, TWIN_Q))
    want = g_outcomes(cases)
    kinds = {kind for kind, _ in want}
    errors = {value[0] for kind, value in want if kind == "error"}
    assert kinds == {"value", "error"}
    assert {CountMismatchError, SingularDependentBlockError} <= errors

    def refuse(*args, **kwargs):
        raise AssertionError("G ranked the stacked K")

    for name in ("stack_jacobians", "numerical_rank"):
        monkeypatch.setattr(urdfplus.constraints, name, refuse)
    for name in ("row_reduce_basis", "solve_with_pivoting"):
        monkeypatch.setattr(urdfplus.spatial, name, refuse)
    assert g_outcomes(cases) == want


def test_two_scales_raise_the_count_checks_numbers():
    """Bars 1 and 1e-11 long: tol * max|K| lies above every entry of loop
    B, so ranking the stacked K saw no constraint there and gave a G that
    does not satisfy loop B.  The groups rank each loop on its own."""
    numbered, graph, lacg = twin(1e-11, ALL)
    report = independent_coordinate_check(numbered, graph, lacg, TWIN_Q)
    assert (report.n_i, report.declared_dof, report.passed) == (2, 4, False)
    with pytest.raises(CountMismatchError, match="expected 2, declared 4$"):
        explicit_jacobian_for_model(numbered, graph, TWIN_Q)


def test_two_scales_give_g_when_only_the_cranks_are_flagged():
    numbered, graph, lacg = twin(1e-11, ONE_DOF)
    assert independent_coordinate_check(numbered, graph, lacg, TWIN_Q).passed
    g = explicit_jacobian_for_model(numbered, graph, TWIN_Q).in_coordinate_order()
    slices, n = numbered.coordinate_slices(), numbered.total_dof
    for jac in all_loop_jacobians(numbered, graph, TWIN_Q):
        k = jac.scatter(slices, n)
        assert np.abs(k @ g).max() <= 1e-12 * np.abs(k).max()


@pytest.mark.parametrize("toggled,column", [("a", 2), ("b", 3)])
def test_a_refused_pivot_is_named_among_all_dependent_coordinates(toggled, column):
    """Two groups, one of them 1e-9 from its toggle, where coupler and
    rocker align.  Its rank stays 2, but its dependent block is singular
    at tol 1e-6.  The refused column is its coupler: place 1 in the group,
    and place 2 (coupler_a) or 3 (coupler_b) among rocker_a, rocker_b,
    coupler_a and coupler_b."""
    numbered, graph, lacg = twin(1.0, ONE_DOF)
    q = TWIN_Q.copy()
    crank, rocker, coupler = (0, 1, 4) if toggled == "a" else (2, 3, 5)
    q[[crank, rocker, coupler]] = 0.0, 0.0, 1e-9
    assert numbered._kinematics.check(graph).groups.count == 2
    assert independent_coordinate_check(numbered, graph, lacg, q, tol=1e-6).passed
    message = f"pivot 2.000e-09 below tolerance in column {column}"
    with pytest.raises(SingularDependentBlockError, match=f"^{re.escape(message)}$"):
        explicit_jacobian_for_model(numbered, graph, q, tol=1e-6)
    assert explicit_jacobian_for_model(numbered, graph, q).matrix.shape == (6, 2)


def test_a_rank_short_group_names_its_first_dependent_past_the_rank():
    """Nothing flagged in copy A (rank 2, three dependent coordinates) and
    two of copy B's three joints (rank 2, one dependent): the counts agree,
    2 = 6 - 4, but no group determines coupler_a, place 2 among crank_a,
    rocker_a, coupler_a and coupler_b."""
    numbered, graph, lacg = twin(1.0, ("true", "true", "false"),
                                 flags_a=("false", "false", "false"))
    assert independent_coordinate_check(numbered, graph, lacg, TWIN_Q).passed
    with pytest.raises(SingularDependentBlockError,
                       match=r"^pivot 0\.000e\+00 below tolerance in column 2$"):
        explicit_jacobian_for_model(numbered, graph, TWIN_Q)


def test_a_coordinate_in_no_group_is_named():
    """An unflagged joint on no loop path (the idler) with the four-bar's
    crank and rocker flagged: the counts agree, 2 = 4 - 2, and the idler,
    place 0 among the dependent idler and coupler, lies in no group.  The
    one-matrix definition on the stacked K gives the same error."""
    text = far_fourbar(1.0).replace(
        "</robot>",
        '<link name="idler"/><joint name="idler_pivot" type="revolute" '
        'independent="false"><parent link="ground"/><child link="idler"/>'
        '<axis xyz="0 0 1"/></joint></robot>').replace(
        'name="rocker_pivot" type="revolute" independent="false"',
        'name="rocker_pivot" type="revolute" independent="true"')
    numbered, graph, lacg = pipeline(text)
    q = np.array([0.3, -0.2, 0.1, 0.25])
    assert not numbered._kinematics.check(graph).groups.complete
    assert independent_coordinate_check(numbered, graph, lacg, q).passed
    got = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q))
    assert got == ("error", (SingularDependentBlockError,
                             "pivot 0.000e+00 below tolerance in column 0"))
    k = stack_jacobians(numbered, all_loop_jacobians(numbered, graph, q))
    assert outcome(lambda: oracle_explicit_from_implicit(
        k, independent_coordinate_indices(numbered))) == got


def cross_aggregate_entries(numbered, lacg, explicit):
    """How many entries of G tie a coordinate to an independent coordinate
    of another loop aggregate, and how many of those are nonzero."""
    widths = [s.stop - s.start for s in numbered.coordinate_slices()]
    aggregate = np.repeat(lacg.body_to_aggregate, widths)
    rows = aggregate[list(explicit.row_coordinates)]
    columns = aggregate[list(explicit.independent)]
    cross = explicit.matrix[rows[:, None] != columns]
    return cross.size, int(np.count_nonzero(cross))


def test_g_is_block_diagonal_by_aggregate_on_the_sweep_model(monkeypatch):
    """The benchmark's seed-1 sweep model (45 aggregates, G 129 x 76) at
    each of its configurations: the loops are decoupled, so no dependent
    coordinate depends on another aggregate's independent coordinates."""
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, lacg, qs = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                         workloads.SWEEP_LOOPS)
    for q in qs:
        explicit = explicit_jacobian_for_model(numbered, graph, q)
        assert explicit.matrix.shape == (129, 76)
        cross, nonzero = cross_aggregate_entries(numbered, lacg, explicit)
        assert (nonzero, cross > 0) == (0, True)


def test_g_is_block_diagonal_by_aggregate_wherever_the_check_passes():
    """Every loadable `models/` file and every generated model of the
    kinematic-plan oracle, at q = 0 and their seeded configurations,
    wherever the count check passes and G is given: 190 cases, 21 of them
    with independent coordinates in more than one aggregate."""
    pipes = [(name, pipe.numbered, pipe.graph, pipe.lacg,
              configurations(np.random.default_rng(11), pipe.numbered))
             for name, pipe in zip(MODEL_FILES, map(loadable, MODEL_FILES)) if pipe]
    pipes += [("generated", *pipe) for pipe in generated_pipelines()]
    at_zero, checked, crossing = set(), 0, 0
    for name, numbered, graph, lacg, qs in pipes:
        for k, q in enumerate([np.zeros(numbered.total_dof), *qs]):
            if not independent_coordinate_check(numbered, graph, lacg, q).passed:
                continue
            got = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q))
            if got[0] == "error":
                continue
            cross, nonzero = cross_aggregate_entries(numbered, lacg, got[1])
            assert nonzero == 0
            checked += 1
            crossing += cross > 0
            if k == 0:
                at_zero.add(name)
    assert (checked, crossing) == (190, 21)
    assert {"belt.urdf", "fourbar.urdf", "wrist.urdf"} <= at_zero
