"""Smoke test for the benchmark harness under perfbench/: its tracer still
finds every function it wraps, and one full-size constraint_sweep op and one
ladder_build op still pass their workload's own output check."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("tracing", "workloads", "generator"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_installs_and_uninstalls(perfbench):
    tracing, _ = perfbench
    homes = {layer: importlib.import_module(f"urdfplus.{layer}")
             for layer in tracing.WRAPPED}
    originals = {(layer, name): getattr(homes[layer], name)
                 for layer, names in tracing.WRAPPED.items() for name in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert homes["model"].validate_model is not originals["model", "validate_model"]
        assert (homes["constraints"].numerical_rank
                is not originals["spatial", "numerical_rank"])
    finally:
        tracer.uninstall()
    for (layer, name), original in originals.items():
        assert getattr(homes[layer], name) is original


def test_constraint_sweep_op_passes_its_check(perfbench):
    _, workloads = perfbench
    sweep = workloads.ConstraintSweep(ROOT, seed=1)
    i = workloads.SWEEP_VERIFIED_IN_SETUP
    assert sweep.check(i, sweep.op(i)) is None


def test_ladder_build_op_passes_its_check(perfbench):
    pytest.importorskip("networkx")
    _, workloads = perfbench
    ladder = workloads.LadderBuild(ROOT, seed=1)
    assert ladder.check(0, ladder.op(0)) is None
