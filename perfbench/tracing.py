"""Traced run: spans around the public functions of each urdfplus module,
recorded from the outside, plus the one-off scaling and import probes.

A function is wrapped at every name its callers look it up by, so
`urdfplus.model.validate_model` is seen both when the benchmark calls it
and when `regular_numbering` does.  The spatial kernels are wrapped only
where `urdfplus.constraints` looks them up.  Spans are recorded only inside
an op; each is [name, start, end, parent span, op id], kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WRAPPED = {
    "xmlio": ("parse_urdf_plus", "serialize_urdf_plus"),
    "model": ("validate_model", "regular_numbering"),
    "graphs": ("connectivity_graph_from_model", "constraint_dependency_digraph",
               "strongly_connected_components", "loop_aggregated_graph",
               "export_dot", "loop_subchains"),
    "constraints": ("independent_coordinate_check", "explicit_jacobian_for_model",
                    "forward_kinematics", "implicit_loop_jacobian", "loop_residual"),
    "spatial": ("numerical_rank", "row_reduce_basis", "solve_with_pivoting"),
    "cli": ("main",),
}
MODULES = ("urdfplus", "urdfplus.xmlio", "urdfplus.model", "urdfplus.graphs",
           "urdfplus.constraints", "urdfplus.spatial", "urdfplus.cli")
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.parsed_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack = [len(self.spans)]
        self.spans.append([OP, time.perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.stack = []
        self.op_id = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            if name == "xmlio.parse_urdf_plus":
                self.parsed_bytes += len(args[0])
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1],
                               self.op_id])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()

        return traced

    # -- installing the wrappers -----------------------------------------------

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        constraints = sys.modules["urdfplus.constraints"]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"urdfplus.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                where = [constraints] if layer == "spatial" else modules
                for module in where:
                    if getattr(module, fname, None) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, traced)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    # -- reading the spans -----------------------------------------------------

    def take(self) -> tuple[list[list], int]:
        """Spans and parsed bytes recorded since the last call."""
        spans, parsed = self.spans, self.parsed_bytes
        self.spans, self.parsed_bytes = [], 0
        return spans, parsed


def function_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (duration
    minus the part covered by its direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return stats


def write_spans(path: Path, passes: dict[str, list[list]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                   "passes": passes}, handle)


# -- probes --------------------------------------------------------------------


def loglog_slope(sizes, times) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


CHECK_SIZES = (100, 200, 400)
BUILD_SIZES = (400, 800, 1600)


def check_scaling_exponent(seed: int, repeats: int = 2) -> float:
    """Log-log slope of `independent_coordinate_check` time against N_B,
    with 10% loop joints."""
    from urdfplus import constraints
    from workloads import sweep_model

    times = []
    for n_bodies in CHECK_SIZES:
        _, numbered, graph, lacg, qs = sweep_model(seed, n_bodies, n_bodies // 10)
        times.append(_median_time(
            lambda: constraints.independent_coordinate_check(
                numbered, graph, lacg, qs[0]), repeats))
    return loglog_slope(CHECK_SIZES, times)


def build_scaling_exponent(seed: int, repeats: int = 3) -> float:
    """Log-log slope of one ladder_build op against N_B, 10% loop joints."""
    from generator import generate
    from workloads import build_ladder

    times = []
    for n_bodies in BUILD_SIZES:
        text = generate(seed, n_bodies, n_bodies // 10).text
        build_ladder(text)  # warm-up
        times.append(_median_time(lambda: build_ladder(text), repeats))
    return loglog_slope(BUILD_SIZES, times)


def import_ms(root: Path, repeats: int = 5) -> float:
    """Fresh `import urdfplus` minus bare interpreter start, in ms."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                       check=True, timeout=60)
        return time.perf_counter() - t0

    start("import urdfplus")  # warm-up: byte-compile on a fresh checkout
    with_import = statistics.median(start("import urdfplus") for _ in range(repeats))
    bare = statistics.median(start("pass") for _ in range(repeats))
    return (with_import - bare) * 1e3
