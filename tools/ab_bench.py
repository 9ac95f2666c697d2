#!/usr/bin/env python3
"""A/B benchmark runner: alternate pairs of runs of two source trees and
write a ledger.

    python tools/ab_bench.py PARENT_TREE CHANGE_TREE --out BENCH_<pr>.json \\
        [--pairs 3] [--seconds 30]

Each tree is a full urdfplus checkout with its own `perfbench/run.py`.  Both
get `python -m compileall -q src` first, so that neither pays for stale or
missing bytecode when the interpreter is told not to write it.  Then, for
each pair and each workload of BENCHMARK.json, the tool runs each tree's
`perfbench/run.py --workload W --seed 1 --seconds S --trace 0`, one process
at a time: the parent first in odd pairs, the change first in even ones.

The ledger holds every run's end-to-end metrics, `correct` and `failed`;
per workload and metric the median of each side, the parent's quartiles
and interquartile range, the pairs the change won, and whether the change's
median is worse than the parent's by more than the BENCHMARK.json bound.
A metric is marked unresolved when the parent has fewer than three runs
or its spread (interquartile range over median) exceeds the bound: such
runs cannot tell a change of that size.
The table printed is Markdown.  The exit status is 1 when a run fails (it
reads `correct` false, `failed` > 0, or gives no result), else 0: a slower
change is reported, not refused.  BENCHMARK.json is read from CHANGE_TREE;
nothing under either tree is changed but its bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 1
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One run of the tree's own harness: its verdict and end-to-end metrics,
    or the reason it gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=2 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}, no result: {tail}"}
    return {"correct": result["correct"] is True and proc.returncode == 0,
            "failed": result["failed"], "attempted": result.get("attempted"),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_pairs(trees: dict, workloads, pairs: int, seconds: float, log=print) -> list:
    """Every run, in the order made: pair by pair, each workload in turn, the
    parent first in odd pairs."""
    runs = []
    for pair in range(1, pairs + 1):
        for workload in workloads:
            for side in SIDES if pair % 2 else SIDES[::-1]:
                record = run_once(trees[side], workload, seconds)
                runs.append({"pair": pair, "workload": workload, "side": side, **record})
                log(f"pair {pair} {workload:<16} {side:<6} "
                    + (record.get("error") or " ".join(
                        f"{k}={v:.4g}" for k, v in record["metrics"].items())))
    return runs


def run_failed(run: dict) -> bool:
    return run["correct"] is not True or run["failed"] != 0


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list, benchmark: dict) -> dict:
    """Per workload and end-to-end metric: the medians, the parent's
    quartiles, pairs won by the change and the verdict against the bound.
    Runs that failed count in no figure."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        good = [run for run in runs if run["workload"] == workload and not run_failed(run)]
        summary[workload] = {}
        for metric in benchmark["end_to_end"]:
            name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
            by_pair = {side: {run["pair"]: run["metrics"][name] for run in good
                              if run["side"] == side and name in run["metrics"]}
                       for side in SIDES}
            parent, change = (sorted(by_pair[side].values()) for side in SIDES)
            if not parent or not change:
                summary[workload][name] = {"parent_runs": len(parent),
                                           "change_runs": len(change)}
                continue
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            worse = (p_med - c_med if higher else c_med - p_med) / p_med if p_med else 0.0
            both = by_pair["parent"].keys() & by_pair["change"].keys()
            won = sum((by_pair["change"][k] > by_pair["parent"][k]) if higher
                      else (by_pair["change"][k] < by_pair["parent"][k]) for k in both)
            spread = (q3 - q1) / p_med if p_med else 0.0
            summary[workload][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": bound,
                "parent_runs": len(parent), "change_runs": len(change),
                "parent_median": p_med, "change_median": c_med,
                "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
                "parent_spread": spread, "change_vs_parent": c_med / p_med - 1 if p_med else 0.0,
                "pairs": len(both), "pairs_won_by_change": won,
                "worse_beyond_bound": worse > bound,
                "resolved": len(parent) >= 3 and spread <= bound,
            }
    return summary


def table(summary: dict) -> str:
    """The summary as a Markdown table."""
    rows = ["| workload | metric | parent median | parent IQR | change median | change "
            "| won | bound | verdict |", "|---|---|---|---|---|---|---|---|---|"]
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            if "parent_median" not in s:
                rows.append(f"| {workload} | {name} | | | | | | | no runs to compare |")
                continue
            verdict = ("worse beyond bound" if s["worse_beyond_bound"]
                       else "within bound") + ("" if s["resolved"] else ", unresolved")
            rows.append(
                f"| {workload} | {name} | {s['parent_median']:.4g} "
                f"| {s['parent_iqr']:.3g} ({s['parent_spread']:.0%}) "
                f"| {s['change_median']:.4g} | {s['change_vs_parent']:+.1%} "
                f"| {s['pairs_won_by_change']}/{s['pairs']} | {s['bound']:.0%} | {verdict} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--out", type=Path, required=True, help="the ledger to write")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    runs = run_pairs(trees, workloads, args.pairs, args.seconds,
                     log=lambda line: print(line, file=sys.stderr, flush=True))
    summary = summarize(runs, benchmark)
    ledger = {
        "seed": SEED, "seconds": args.seconds, "pairs": args.pairs, "workloads": workloads,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "runs": runs, "summary": summary,
        "failed_runs": sum(run_failed(run) for run in runs),
    }
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(table(summary))
    return 1 if ledger["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
