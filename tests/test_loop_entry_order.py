"""The loop-entry order the kinematic plan relies on.

`NumberedModel` numbers the loop joints first and the couplings after
them, and the kinematic plan reads loop joint l as loop entry l.  A
hand-built numbering that puts a coupling before a loop joint is refused
with an `InvalidModelError` naming that coupling, by every function that
builds the plan, where it would otherwise have to reorder the entries.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from helpers import perfbench_workloads
from urdfplus.constraints import (
    explicit_jacobian_for_model,
    forward_kinematics,
    implicit_loop_jacobian,
    independent_coordinate_check,
)
from urdfplus.errors import InvalidModelError
from urdfplus.graphs import build_pipeline
from urdfplus.model import Coupling, NumberedModel


def couplings_first(numbered: NumberedModel) -> NumberedModel:
    """`numbered` with its couplings numbered before its loop joints."""
    entries = [entry for _, entry in numbered.loop_entries]
    entries.sort(key=lambda entry: not isinstance(entry, Coupling))  # stable
    return replace(numbered, loop_entries=tuple(
        enumerate(entries, start=numbered.n_bodies + 1)))


@pytest.fixture
def sweep(monkeypatch):
    """The benchmark's seed-1 sweep model (10 loop joints, 3 couplings) in
    both numberings, each with its pipeline, and one of its configurations."""
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, lacg, qs = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                        workloads.SWEEP_LOOPS)
    reordered = couplings_first(numbered)
    graph_r, _, _, lacg_r = build_pipeline(reordered)
    return (numbered, graph, lacg), (reordered, graph_r, lacg_r), qs[0]


def test_the_sweep_model_has_both_kinds(sweep):
    (numbered, *_), (reordered, *_), _ = sweep
    kinds = [isinstance(entry, Coupling) for _, entry in numbered.loop_entries]
    assert kinds == [False] * 10 + [True] * 3
    first = reordered.loop_entries[0]
    assert first == (numbered.n_bodies + 1, numbered.loop_entries[10][1])


@pytest.mark.parametrize("function", ["independent_coordinate_check",
                                      "explicit_jacobian_for_model",
                                      "implicit_loop_jacobian", "forward_kinematics"])
def test_a_coupling_before_a_loop_joint_is_refused(sweep, function):
    _, (reordered, graph, lacg), q = sweep
    name = reordered.loop_entries[0][1].name
    calls = {
        "independent_coordinate_check":
            lambda: independent_coordinate_check(reordered, graph, lacg, q),
        "explicit_jacobian_for_model": lambda: explicit_jacobian_for_model(reordered, graph, q),
        "implicit_loop_jacobian":
            lambda: implicit_loop_jacobian(reordered, graph, reordered.n_bodies + 5, q),
        "forward_kinematics": lambda: forward_kinematics(reordered, q),
    }
    with pytest.raises(InvalidModelError, match=f"^coupling {name!r} is numbered before "
                                                "a loop joint$"):
        calls[function]()
    # the regular numbering of the same model still gives its results
    regular, graph, lacg = sweep[0]
    assert independent_coordinate_check(regular, graph, lacg, q).n_i == 76
    assert np.isfinite(explicit_jacobian_for_model(regular, graph, q).matrix).all()


def test_the_error_names_the_first_coupling_out_of_place(sweep):
    """Loop joints, the second coupling, the other loop joints, then the
    first and the third coupling: the second coupling is named."""
    (numbered, *_), _, q = sweep
    entries = [entry for _, entry in numbered.loop_entries]
    entries.insert(4, entries.pop(11))
    interleaved = replace(numbered, loop_entries=tuple(
        enumerate(entries, start=numbered.n_bodies + 1)))
    with pytest.raises(InvalidModelError, match=f"^coupling {entries[4].name!r} is"):
        forward_kinematics(interleaved, q)


def test_a_numbering_with_only_one_kind_is_accepted(sweep):
    """Loop joints alone, or couplings alone, are in order."""
    (numbered, *_), _, q = sweep
    for kind in (False, True):
        entries = [entry for _, entry in numbered.loop_entries
                   if isinstance(entry, Coupling) == kind]
        model = replace(numbered.model, loop_joints=() if kind else tuple(entries),
                        couplings=tuple(entries) if kind else ())
        one_kind = replace(numbered, model=model, loop_entries=tuple(
            enumerate(entries, start=numbered.n_bodies + 1)))
        graph, _, _, lacg = build_pipeline(one_kind)
        report = independent_coordinate_check(one_kind, graph, lacg, q)
        assert len(report.loops) == len(entries)
