#!/usr/bin/env python3
"""urdfplus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/urdfplus` and
`models/`).  Workloads: golden_cli, ladder_build, constraint_sweep; see
perfbench/NOTES.md for what each measures and why.

Each workload runs in worker processes of its own, as one client in a
closed loop.  This process starts SETUP_PROCESSES workers one after
another; each builds its inputs and warms up, then reports ready, and the
time from its start to that report is one set-up sample.  The last worker
goes on to run ops for S seconds of op time, checking every output outside
the timed region.  Its peak resident memory is read when it exits.

Timings are scaled to a reference host speed (see hostspeed.py): the
shared host this was built on drifts by up to 2x over minutes, which no
run length averages out.  The text lines also give the figures as measured.

With --trace 0 the last line is the end-to-end result; with --trace 1 the
worker instead times an untraced and a traced pass, traces the other
workloads, runs the scaling and import probes, and reports the
per-layer metrics.  Human-readable lines come before the JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("golden_cli", "ladder_build", "constraint_sweep")
SETUP_PROCESSES = 5
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0

# Per-layer metric, unit, and the workloads whose ops it is measured on:
# the traced workload if listed, otherwise the first one listed.
_LADDER = ("ladder_build",)
_SWEEP = ("constraint_sweep",)
PER_LAYER = (
    ("xmlio.parse_urdf_plus.ms_per_op", "ms", ("ladder_build", "golden_cli")),
    ("xmlio.parse_urdf_plus.mb_per_s", "MB/s", ("ladder_build", "golden_cli")),
    ("xmlio.serialize_urdf_plus.ms_per_op", "ms", _LADDER),
    ("model.validate_model.ms_per_op", "ms", _LADDER),
    ("model.validate_model.calls_per_op", "count", _LADDER),
    ("model.regular_numbering.self_ms_per_op", "ms", _LADDER),
    ("model.n_bodies", "count", _LADDER),
    ("graphs.connectivity_graph_from_model.ms_per_op", "ms", _LADDER),
    ("graphs.constraint_dependency_digraph.ms_per_op", "ms", _LADDER),
    ("graphs.strongly_connected_components.ms_per_op", "ms", _LADDER),
    ("graphs.loop_aggregated_graph.ms_per_op", "ms", _LADDER),
    ("graphs.export_dot.ms_per_op", "ms", _LADDER),
    ("graphs.loop_subchains.calls_per_op", "count", ("ladder_build", "constraint_sweep")),
    ("graphs.cdd_edges", "count", _LADDER),
    ("graphs.n_aggregates", "count", _LADDER),
    ("graphs.max_aggregate_bodies", "count", _LADDER),
    ("constraints.independent_coordinate_check.self_ms_per_op", "ms", _SWEEP),
    ("constraints.explicit_jacobian_for_model.self_ms_per_op", "ms", _SWEEP),
    ("constraints.forward_kinematics.calls_per_op", "count", _SWEEP),
    ("constraints.forward_kinematics.ms_per_op", "ms", _SWEEP),
    ("constraints.implicit_loop_jacobian.ms_per_op", "ms", _SWEEP),
    ("constraints.loop_residual.ms_per_op", "ms", _SWEEP),
    ("constraints.rows", "count", _SWEEP),
    ("constraints.sum_rank", "count", _SWEEP),
    ("constraints.rank_ambiguous", "count", _SWEEP),
    ("spatial.numerical_rank.ms_per_op", "ms", _SWEEP),
    ("spatial.row_reduce_basis.ms_per_op", "ms", _SWEEP),
    ("spatial.solve_with_pivoting.ms_per_op", "ms", _SWEEP),
    ("cli.main.self_ms_per_op", "ms", ("golden_cli",)),
    ("cli.import_urdfplus_ms", "ms", ()),
    ("constraints.check_scaling_exponent", "1", ()),
    ("model.build_scaling_exponent", "1", ()),
    ("trace.overhead_pct", "%", ()),
)

# Shares of --seconds in a traced run: the traced workload untraced, then
# traced, then the other workloads traced, splitting the rest.
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- worker ----------------------------------------------------------------------


def _latency_stats(latencies: list[float], completed: int) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] \
        if len(latencies) > 1 else latencies[0]
    return {
        "ops_per_s": completed / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: run ops until `seconds` of op time have passed, each
    checked after it returns and before the next starts.  The host-speed
    kernel runs between ops every SAMPLE_EVERY_S of op time; the top-level
    timings are normalized by it, the "raw" ones are as measured."""
    latencies: list[float] = []
    failures: list[str] = []
    counters: dict[str, float] = {}
    samples: list[tuple[int, float]] = []
    since_sample = math.inf
    busy = 0.0
    wall_limit = time.perf_counter() + 2 * seconds + 10
    i = 0
    while busy < seconds and time.perf_counter() < wall_limit:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
            error = None
        except Exception as exc:  # any exception is a failed op
            if not failures:
                traceback.print_exc()
            out, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        busy += elapsed
        latencies.append(elapsed)
        if error is None:
            try:
                problem = workload.check(i, out)
            except Exception as exc:
                problem = f"check {i}: {type(exc).__name__}: {exc}"
            error = None if problem is None else f"op {i}: {problem}"
        if error is not None:
            failures.append(error)
        elif tracer is not None:
            for key, value in workload.counters(out).items():
                counters[key] = counters.get(key, 0.0) + value
        since_sample += elapsed
        if since_sample >= hostspeed.SAMPLE_EVERY_S:
            samples.append((i, hostspeed.sample_ms()))
            since_sample = 0.0
        i += 1
    completed = len(latencies) - len(failures)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "busy_s": busy,
        **_latency_stats(hostspeed.normalize(latencies, samples), completed),
        "raw": _latency_stats(latencies, completed),
        "reference_ms": statistics.median(ms for _, ms in samples),
        "counters": {k: v / max(completed, 1) for k, v in counters.items()},
    }


def _layer_values(stats: dict, parsed_bytes: int, ops: int) -> dict[str, float]:
    values = {}
    for name, entry in stats.items():
        values[f"{name}.ms_per_op"] = entry["total_s"] * 1e3 / ops
        values[f"{name}.self_ms_per_op"] = entry["self_s"] * 1e3 / ops
        values[f"{name}.calls_per_op"] = entry["calls"] / ops
    parse = stats.get("xmlio.parse_urdf_plus")
    if parse and parse["total_s"] > 0:
        values["xmlio.parse_urdf_plus.mb_per_s"] = parsed_bytes / 1e6 / parse["total_s"]
    return values


def traced_run(name: str, workload, make, seed: int, seconds: float) -> dict:
    import tracing

    passes = {}
    untraced = measure(workload, seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    results = [untraced]
    others = [w for w in WORKLOAD_NAMES if w != name]
    try:
        for pass_name, pass_workload, share in (
            [(name, workload, TRACED_SHARE)]
            + [(w, None, (1 - UNTRACED_SHARE - TRACED_SHARE) / len(others))
               for w in others]
        ):
            if pass_workload is None:
                pass_workload = make(pass_name)
            result = measure(pass_workload, seconds * share, tracer)
            spans, parsed = tracer.take()
            completed = max(result["attempted"] - result["failed"], 1)
            values = _layer_values(tracing.function_stats(spans), parsed, completed)
            values.update(result["counters"])
            if pass_name == "constraint_sweep":
                values["constraints.rank_ambiguous"] = pass_workload.ambiguous
            passes[pass_name] = {"values": values, "spans": spans, "result": result}
            results.append(result)
    finally:
        tracer.uninstall()

    metrics = {}
    for metric, unit, homes in PER_LAYER:
        if homes:
            home = name if name in homes else homes[0]
            metrics[metric] = {"value": passes[home]["values"].get(metric, 0.0),
                               "unit": unit}
    traced_p50 = passes[name]["result"]["op_ms_p50"]
    metrics["trace.overhead_pct"] = {
        "value": (traced_p50 - untraced["op_ms_p50"]) / untraced["op_ms_p50"] * 100,
        "unit": "%"}
    metrics["cli.import_urdfplus_ms"] = {"value": tracing.import_ms(ROOT), "unit": "ms"}
    metrics["constraints.check_scaling_exponent"] = {
        "value": tracing.check_scaling_exponent(seed), "unit": "1"}
    metrics["model.build_scaling_exponent"] = {
        "value": tracing.build_scaling_exponent(seed), "unit": "1"}
    spans_path = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json"
    tracing.write_spans(spans_path, {k: v["spans"] for k, v in passes.items()})
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]][:10],
        "untraced": untraced,
        "traced": passes[name]["result"],
        "metrics": metrics,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def worker(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    def make(name):
        return WORKLOADS[name](ROOT, args.seed)

    workload = make(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(args.workload, workload, make, args.seed, args.seconds)
    else:
        result = measure(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


# -- orchestrator ----------------------------------------------------------------


class WorkerFailed(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool):
    """Start one worker; returns (seconds until ready, result or None,
    peak RSS of the worker in MB)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREADED)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True, env=env)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode} "
                           f"({'after' if first.strip() == 'ready' else 'before'} set-up)")
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return ready_s, result, usage.ru_maxrss / 1024.0


def orchestrate(args) -> int:
    deadline = time.perf_counter() + TIME_LIMIT_S
    hostspeed.sample_ms()  # warm-up
    setups, raw_setups = [], []
    for k in range(SETUP_PROCESSES if not args.trace else 1):
        reference = statistics.median(hostspeed.sample_ms() for _ in range(9))
        last = k == SETUP_PROCESSES - 1 or args.trace
        ready_s, result, rss_mb = spawn(args, deadline, setup_only=not last)
        raw_setups.append(ready_s)
        setups.append(ready_s * hostspeed.REFERENCE_MS / reference)

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")
    if args.trace:
        metrics = result["metrics"]
        print(f"untraced op_ms_p50 {result['untraced']['op_ms_p50']:.4f} ms, "
              f"traced {result['traced']['op_ms_p50']:.4f} ms; "
              f"spans in {result['spans_file']}")
    else:
        raw = result["raw"]
        print(f"host-speed kernel median {result['reference_ms']:.4f} ms; timings below "
              f"are scaled to {hostspeed.REFERENCE_MS} ms")
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": result["op_ms_p50"], "unit": "ms"},
            "op_ms_p90": {"value": result["op_ms_p90"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        notes = {
            "ops_per_s": f"{attempted - failed} ops in {result['busy_s']:.2f} s of op "
                         f"time; as measured {raw['ops_per_s']:.6g}",
            "op_ms_p50": f"n={attempted}; as measured {raw['op_ms_p50']:.6g}",
            "op_ms_p90": f"n={attempted}, {result['beyond_p90']} samples beyond; "
                         f"as measured {raw['op_ms_p90']:.6g}",
            "setup_s": f"median of {len(setups)} processes; as measured: "
                       + ", ".join(f"{s:.3f}" for s in raw_setups),
            "peak_rss_mb": "workload process",
        }
    for key, metric in metrics.items():
        note = notes.get(key, "") if not args.trace else ""
        print(f"  {key:<58} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    missing = [p for p in ("src/urdfplus/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a urdfplus checkout, missing {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    try:
        return orchestrate(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
