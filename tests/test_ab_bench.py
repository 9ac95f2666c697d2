"""The A/B runner's summary and exit status, on canned run records: no
benchmark process is started."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

BENCHMARK = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


@pytest.fixture
def ab_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.delitem(sys.modules, "ab_bench", raising=False)
    import ab_bench

    return ab_bench


def run(pair, side, ops, setup, workload="w", correct=True, failed=0):
    return {"pair": pair, "workload": workload, "side": side, "correct": correct,
            "failed": failed, "metrics": {"ops_per_s": ops, "setup_s": setup}}


def canned():
    parent = [(100.0, 0.2), (110.0, 0.4), (90.0, 0.3)]
    change = [(120.0, 0.4), (100.0, 0.45), (95.0, 0.35)]
    return ([run(k + 1, "parent", *p) for k, p in enumerate(parent)]
            + [run(k + 1, "change", *c) for k, c in enumerate(change)])


def test_medians_quartiles_and_pairs_won(ab_bench):
    ops = ab_bench.summarize(canned(), BENCHMARK)["w"]["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (100.0, 100.0)
    assert (ops["parent_q1"], ops["parent_q3"], ops["parent_iqr"]) == (95.0, 105.0, 10.0)
    assert ops["pairs"] == 3 and ops["pairs_won_by_change"] == 2  # pairs 1 and 3
    assert ops["parent_spread"] == pytest.approx(0.1) and ops["resolved"]
    assert not ops["worse_beyond_bound"]


def test_worse_beyond_bound_and_unresolved(ab_bench):
    setup = ab_bench.summarize(canned(), BENCHMARK)["w"]["setup_s"]
    # lower is better: 0.3 -> 0.4 is 33% worse, beyond the 25% bound
    assert (setup["parent_median"], setup["change_median"]) == (0.3, 0.4)
    assert setup["worse_beyond_bound"] and setup["pairs_won_by_change"] == 0
    # quartiles 0.25 and 0.35: a spread of 33% of the median cannot tell 25%
    assert setup["parent_spread"] == pytest.approx(1 / 3) and not setup["resolved"]
    assert "| w | setup_s |" in ab_bench.table({"w": {"setup_s": setup}})
    assert "worse beyond bound, unresolved |" in ab_bench.table({"w": {"setup_s": setup}})


def test_failed_runs_count_in_no_figure(ab_bench):
    runs = canned() + [run(4, "parent", 1.0, 9.0, failed=2),
                       run(4, "change", 1.0, 9.0, correct=False)]
    ops = ab_bench.summarize(runs, BENCHMARK)["w"]["ops_per_s"]
    assert ops["parent_runs"] == ops["change_runs"] == 3 and ops["pairs"] == 3
    only_failed = ab_bench.summarize(runs[-2:], BENCHMARK)["w"]["ops_per_s"]
    assert only_failed == {"parent_runs": 0, "change_runs": 0}
    assert "no runs to compare" in ab_bench.table({"w": {"ops_per_s": only_failed}})


def test_pairs_alternate_which_side_goes_first(ab_bench, monkeypatch):
    calls = []
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, workload, seconds: (
        calls.append((tree, workload)) or {"correct": True, "failed": 0, "metrics": {}}))
    runs = ab_bench.run_pairs({"parent": "P", "change": "C"}, ["a", "b"], 2, 1.0,
                              log=lambda line: None)
    assert calls == [("P", "a"), ("C", "a"), ("P", "b"), ("C", "b"),
                     ("C", "a"), ("P", "a"), ("C", "b"), ("P", "b")]
    assert [(r["pair"], r["side"]) for r in runs][:2] == [(1, "parent"), (1, "change")]


@pytest.mark.parametrize("failed, status", [(0, 0), (1, 1), (None, 1)])
def test_exit_status_and_ledger(ab_bench, monkeypatch, tmp_path, capsys, failed, status):
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {**BENCHMARK, "workloads": [{"name": "w"}]}))
    records = iter(canned())
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: None)

    def run_once(tree, workload, seconds):
        record = {key: next(records)[key] for key in ("correct", "failed", "metrics")}
        if tree.name == "change" and failed != 0:
            record["failed"] = failed
        return record

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert ab_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--out", str(out), "--pairs", "1", "--seconds", "1"]) == status
    ledger = json.loads(out.read_text())
    assert len(ledger["runs"]) == 2 and ledger["failed_runs"] == status
    assert set(ledger["summary"]["w"]) == {"ops_per_s", "setup_s"}
    if not status:  # one pair cannot resolve a metric, whatever its runs read
        assert ledger["summary"]["w"]["ops_per_s"]["resolved"] is False
    assert capsys.readouterr().out.startswith("| workload | metric |")
