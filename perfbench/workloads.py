"""The benchmark workloads and the oracles that check their outputs.

Each workload builds its inputs from the seed in its constructor (that is
its set-up), runs one operation per `op(i)` call (the timed part) and
checks each result in `check(i, out)` outside the timed region.  Oracles
never trust the code under test: exit codes come from a hand-written
table, counts from `xml.etree` or from the generator's own bookkeeping,
ranks from an SVD, SCCs from networkx.

Every call into urdfplus goes through a module attribute looked up at call
time (`xmlio.parse_urdf_plus`, not a local alias), so the traced run sees
it once `tracing` has replaced that attribute.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from generator import DOF, generate

COMMANDS = (
    ("validate",),
    ("info",),
    ("graph", "--kind", "cg"),
    ("graph", "--kind", "cdd"),
    ("graph", "--kind", "lacg"),
    ("constraints",),
    ("constraints", "--json"),
)

# Exit codes by README meaning: 2 parse error, 1 validation or count failure.
PARSE_ERRORS = {"malformed", "mimic_offset", "planar_joint"}
INVALID_MODELS = {"joint_cycle", "two_roots", "mixed_coupling"}  # info warns, exits 0
COUNT_MISMATCH = {"wrist_bad_independent"}  # fails validate and constraints only


def expected_exit(path: Path, command: tuple[str, ...]) -> int:
    stem = path.stem
    if stem in PARSE_ERRORS:
        return 2
    if stem in INVALID_MODELS:
        return 0 if command[0] == "info" else 1
    if stem in COUNT_MISMATCH:
        return 1 if command[0] in ("validate", "constraints") else 0
    return 0


def etree_counts(path: Path) -> tuple[int, int] | None:
    """(n, n_c) read straight from the XML, or None when it does not parse."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError:
        return None
    n = sum(DOF.get(j.get("type"), 0) for j in root.findall("joint"))
    n_c = sum(6 - DOF.get(loop.get("type"), 0) for loop in root.findall("loop"))
    n_c += len(root.findall("coupling")) + len(root.findall("joint/mimic"))
    return n, n_c


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


class GoldenCli:
    """In-process `urdfplus.cli.main(argv)` with stdout and stderr captured,
    over every file under models/ crossed with every command, in seeded
    order."""

    name = "golden_cli"

    def __init__(self, root: Path, seed: int):
        import urdfplus.cli

        files = sorted((root / "models").rglob("*.urdf"))
        unknown = [p.name for p in files if p.parent.name == "errors"
                   and p.stem not in PARSE_ERRORS | INVALID_MODELS]
        if unknown:
            raise RuntimeError(f"no expected exit code for {unknown}")
        self.pairs = [(path, command) for path in files for command in COMMANDS]
        self.counts = {path: etree_counts(path) for path in files}
        self.rng = random.Random(seed)
        self.order: list[int] = []
        self.first_output: dict[int, str] = {}
        self.cli = urdfplus.cli
        for i in range(len(self.pairs)):  # warm-up: one full cycle
            self.op(i)

    def pair(self, i: int) -> int:
        while len(self.order) <= i:
            cycle = list(range(len(self.pairs)))
            self.rng.shuffle(cycle)
            self.order.extend(cycle)
        return self.order[i]

    def op(self, i: int):
        path, command = self.pairs[self.pair(i)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main([*command, str(path)])
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, out) -> str | None:
        index = self.pair(i)
        path, command = self.pairs[index]
        code, stdout, _ = out
        want = expected_exit(path, command)
        if code != want:
            return f"{path.name} {' '.join(command)}: exit {code}, expected {want}"
        if command[-1] == "--json" and stdout:
            payload = json.loads(stdout)
            if (payload["n"], payload["n_c"]) != self.counts[path]:
                return (f"{path.name}: (n, n_c) = ({payload['n']}, {payload['n_c']}),"
                        f" file says {self.counts[path]}")
        if self.first_output.setdefault(index, stdout) != stdout:
            return f"{path.name} {' '.join(command)}: output changed between calls"
        return None

    def counters(self, out) -> dict:
        return {}


LADDER_BODIES = 800
LADDER_LOOPS = 80
LADDER_MODELS = 3


def build_ladder(text: bytes):
    """One ladder_build op: text -> model -> graphs -> DOT and text again."""
    from urdfplus import graphs, model, xmlio

    parsed = xmlio.parse_urdf_plus(text).model
    report = model.validate_model(parsed)
    if not report.ok:
        raise ValueError(f"generated model invalid: {report}")
    numbered = model.regular_numbering(parsed)
    graph, digraph, sccs, lacg = graphs.build_pipeline(numbered)
    dots = [graphs.export_dot(stage) for stage in (graph, digraph, lacg)]
    serialized = xmlio.serialize_urdf_plus(parsed)
    return numbered, digraph, sccs, lacg, dots, serialized


class LadderBuild:
    """Generated URDF+ text through parse, validate, numbering, the graph
    pipeline, three DOT exports and serialization; never enters
    `constraints`."""

    name = "ladder_build"

    def __init__(self, root: Path, seed: int):
        self.models = [generate(seed * 1000 + k, LADDER_BODIES, LADDER_LOOPS,
                                name=f"ladder{k}") for k in range(LADDER_MODELS)]
        self.order = list(range(LADDER_MODELS))
        random.Random(seed).shuffle(self.order)
        # Warm-up outputs become the per-model references.  The oracles
        # verify them at the first check, after set-up and outside the
        # timed region; every op must then reproduce its reference exactly.
        self.reference = [build_ladder(m.text) for m in self.models]
        self.digests = [self._digest(out) for out in self.reference]
        self.problems: dict[int, str] | None = None

    def model_of(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def op(self, i: int):
        return build_ladder(self.models[self.model_of(i)].text)

    @staticmethod
    def _digest(out) -> str:
        numbered, digraph, sccs, _, dots, serialized = out
        return _digest(*dots, serialized, repr(sccs), repr(digraph.edges),
                       repr(numbered.body_names))

    def check(self, i: int, out) -> str | None:
        if self.problems is None:
            self.problems = self.verify_references()
        k = self.model_of(i)
        if k in self.problems:
            return f"ladder model {k}: {self.problems[k]}"
        if self._digest(out) != self.digests[k]:
            return f"ladder model {k}: output differs from the verified reference"
        return None

    def verify_references(self) -> dict[int, str]:
        import networkx as nx
        from urdfplus import xmlio

        problems = {}
        for k, out in enumerate(self.reference):
            gen = self.models[k]
            numbered, digraph, sccs, lacg, _, serialized = out
            g = nx.MultiDiGraph()
            g.add_nodes_from(range(digraph.n_nodes))
            g.add_edges_from(digraph.edges)
            want_sccs = {frozenset(c) for c in nx.strongly_connected_components(g)}
            again = xmlio.parse_urdf_plus(serialized).model
            counts = (len(again.links), len(again.tree_joints),
                      len(again.loop_joints), len(again.couplings))
            expected = (gen.n_links, gen.n_tree_joints, gen.n_loops, gen.n_couplings)
            if numbered.n_bodies != gen.n_bodies:
                problems[k] = f"N_B {numbered.n_bodies}, generated {gen.n_bodies}"
            elif len(digraph.edges) != gen.cdd_edges:
                problems[k] = (f"CDD has {len(digraph.edges)} edges, expected "
                               f"N_B + 2 N_L = {gen.cdd_edges}")
            elif {frozenset(c) for c in sccs} != want_sccs:
                problems[k] = "SCC partition differs from networkx"
            elif counts != expected:
                problems[k] = f"re-parsed counts {counts}, generated {expected}"
        return problems

    def counters(self, out) -> dict:
        numbered, digraph, _, lacg, _, _ = out
        return {
            "model.n_bodies": numbered.n_bodies,
            "graphs.cdd_edges": len(digraph.edges),
            "graphs.n_aggregates": lacg.n_aggregates,
            "graphs.max_aggregate_bodies": max(len(a.bodies) for a in lacg.aggregates),
        }


SWEEP_BODIES = 100
SWEEP_LOOPS = 10
SWEEP_CONFIGURATIONS = 16
SWEEP_VERIFIED_IN_SETUP = 2
# Relative singular values above SV_CLEAR count toward the SVD rank, below
# SV_NULL they are zero; anything between is too close to the elimination
# threshold (1e-10) to call and is counted as ambiguous.
SV_CLEAR = 1e-6
SV_NULL = 1e-13


def sweep_model(seed: int, n_bodies: int, n_loops: int):
    """Generated model, parsed, numbered and piped, with its seeded stream
    of configurations."""
    from urdfplus import graphs, model, xmlio

    gen = generate(seed, n_bodies, n_loops, name="sweep")
    numbered = model.regular_numbering(xmlio.parse_urdf_plus(gen.text).model)
    graph, _, _, lacg = graphs.build_pipeline(numbered)
    rng = np.random.default_rng(seed)
    qs = rng.uniform(-0.5, 0.5, (SWEEP_CONFIGURATIONS, numbered.total_dof))
    return gen, numbered, graph, lacg, qs


def sweep_op(numbered, graph, lacg, q):
    from urdfplus import constraints

    report = constraints.independent_coordinate_check(numbered, graph, lacg, q)
    if report.passed is not True:
        raise ValueError(f"count check did not pass: n_i={report.n_i}, "
                         f"declared {report.declared_dof}")
    explicit = constraints.explicit_jacobian_for_model(numbered, graph, q)
    return report, explicit


class ConstraintSweep:
    """Count check plus explicit G at the next configuration of a seeded
    stream, on one model parsed, numbered and piped in set-up."""

    name = "constraint_sweep"

    def __init__(self, root: Path, seed: int):
        self.gen, self.numbered, self.graph, self.lacg, self.qs = sweep_model(
            seed, SWEEP_BODIES, SWEEP_LOOPS)
        self.reference: dict[int, tuple] = {}
        self.ambiguous = 0
        for i in range(SWEEP_VERIFIED_IN_SETUP):
            problem = self.check(i, self.op(i))
            if problem:
                raise ValueError(f"generated sweep model fails: {problem}")

    def op(self, i: int):
        return sweep_op(self.numbered, self.graph, self.lacg,
                        self.qs[i % len(self.qs)])

    def check(self, i: int, out) -> str | None:
        k = i % len(self.qs)
        report, explicit = out
        ranks = tuple(info.rank for info in report.loops)
        if k in self.reference:
            want_ranks, want_g = self.reference[k]
            if ranks != want_ranks or not np.array_equal(explicit.matrix, want_g):
                return f"configuration {k}: output differs from the verified reference"
            return None
        problem = self._verify(k, report, explicit)
        if problem is None:
            self.reference[k] = (ranks, explicit.matrix.copy())
        return problem

    def _verify(self, k, report, explicit) -> str | None:
        from urdfplus import constraints

        gen, numbered, q = self.gen, self.numbered, self.qs[k]
        if (report.n, report.n_c, report.n_i) != (gen.n, gen.n_c, gen.n_i):
            return (f"configuration {k}: (n, n_c, n_i) = "
                    f"{(report.n, report.n_c, report.n_i)}, generator says "
                    f"{(gen.n, gen.n_c, gen.n_i)}")
        if report.n_i != report.n - report.sum_ranks:
            return f"configuration {k}: n_i != n - sum(rank)"
        jacobians = constraints.all_loop_jacobians(numbered, self.graph, q)
        slices = numbered.coordinate_slices()
        k_full = np.zeros((0, report.n))
        for jac, info in zip(jacobians, report.loops):
            s = np.linalg.svd(jac.matrix, compute_uv=False)
            rel = s / s[0] if s.size and s[0] > 0 else s
            if np.any((rel >= SV_NULL) & (rel <= SV_CLEAR)):
                self.ambiguous += 1
            elif int(np.sum(rel > SV_CLEAR)) != info.rank:
                return (f"configuration {k}: {jac.name} rank {info.rank}, "
                        f"SVD rank {int(np.sum(rel > SV_CLEAR))}")
            rows = np.zeros((jac.rows, report.n))
            for joint, (start, stop) in zip(jac.joint_numbers, jac.joint_columns):
                rows[:, slices[joint]] = jac.matrix[:, start:stop]
            k_full = np.vstack([k_full, rows])
        g = explicit.in_coordinate_order()
        if g.shape != (report.n, report.n_i):
            return f"configuration {k}: G has shape {g.shape}"
        residual = np.abs(k_full @ g).max() if g.size else 0.0
        scale = max(1.0, np.abs(k_full).max() * np.abs(g).max())
        if residual > 1e-9 * scale:
            return f"configuration {k}: |K G| = {residual:.3e}"
        return None

    def counters(self, out) -> dict:
        report, _ = out
        return {"constraints.rows": report.n_c, "constraints.sum_rank": report.sum_ranks}


WORKLOADS = {w.name: w for w in (GoldenCli, LadderBuild, ConstraintSweep)}
