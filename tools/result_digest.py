"""Print one SHA-256 per input over everything the reader, the writer, the
graph pipeline and the constraint engine return.

Two kinds of input are digested:

* A text: every file under `models/` (`errors/` included) and the
  benchmark's seed-1 ladder models, built as its ladder_build workload
  builds them.  A digest covers the outcome of the parse (the model's repr
  and warnings, or the error's type, message, line, column and path), the
  text `serialize_urdf_plus` writes, and the DOT of the connectivity
  graph, the dependency digraph and the loop-aggregated graph, or the
  type and message of the error a step raised.
* A model at one configuration: every loadable file under `models/` at
  q = 0 and at 5 seeded configurations, and the benchmark's sweep model at
  seeds 1-3, each at its 16 configurations.  A digest covers every field
  of the count-check report, every K_l, every residual and G, as bytes, or
  the type and message of the error a step raised.

Two trees that print the same lines return the same bits on every input.

    PYTHONPATH=src python tools/result_digest.py > digests.txt

Run it in two checkouts, or with this file against another checkout's
`src`, and compare the outputs with `diff`.  It imports
`perfbench/workloads.py` for the ladder and sweep models and changes
nothing there.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from urdfplus import (  # noqa: E402
    all_loop_jacobians,
    build_pipeline,
    explicit_jacobian_for_model,
    export_dot,
    independent_coordinate_check,
    loop_residual,
    parse_file,
    parse_urdf_plus,
    regular_numbering,
    serialize_urdf_plus,
)
from urdfplus.errors import UrdfPlusError  # noqa: E402

SEEDED_CONFIGURATIONS = 5
SWEEP_SEEDS = (1, 2, 3)


def _outcome(step) -> bytes:
    """The bytes of what `step()` returns, or of the error it raises."""
    try:
        parts = step()
    except UrdfPlusError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return b"\0".join(part if isinstance(part, bytes) else repr(part).encode()
                      for part in parts)


def text_digest(data: bytes) -> str:
    """The SHA-256 of what reading `data` gives: the parse's outcome, the
    text written and the three graphs' DOT."""
    try:
        result = parse_urdf_plus(data)
    except UrdfPlusError as exc:
        outcome = [type(exc).__name__, getattr(exc, "message", str(exc)),
                   *(getattr(exc, key, None) for key in ("line", "column", "path"))]
        return hashlib.sha256(repr(outcome).encode()).hexdigest()

    def dots():
        graph, digraph, _, lacg = build_pipeline(regular_numbering(result.model))
        return [export_dot(stage) for stage in (graph, digraph, lacg)]

    sha = hashlib.sha256(repr([result.model, result.warnings]).encode() + b"\n")
    for step in (lambda: [serialize_urdf_plus(result.model)], dots):
        sha.update(_outcome(step) + b"\n")
    return sha.hexdigest()


def text_inputs():
    import workloads

    for path in sorted((ROOT / "models").rglob("*.urdf")):
        yield str(path.relative_to(ROOT)), path.read_bytes()
    for k in range(workloads.LADDER_MODELS):
        yield f"ladder seed 1 model {k}", workloads.generate(
            1000 + k, workloads.LADDER_BODIES, workloads.LADDER_LOOPS, name=f"ladder{k}").text


def digest(numbered, graph, lacg, q) -> str:
    """The SHA-256 of the report, K_l, residuals and G at q."""

    def report():
        report = independent_coordinate_check(numbered, graph, lacg, q)
        return [report, *(jac.matrix.tobytes() for jac in report.jacobians)]

    def jacobians():
        return [part for jac in all_loop_jacobians(numbered, graph, q)
                for part in (jac.number, jac.kind, jac.joint_columns, jac.matrix.tobytes())]

    def residuals():
        return [loop_residual(numbered, graph, number, q).tobytes()
                for number, _ in numbered.loop_entries]

    def explicit():
        g = explicit_jacobian_for_model(numbered, graph, q)
        return [g.row_coordinates, g.independent, g.matrix.shape, g.matrix.tobytes()]

    sha = hashlib.sha256()
    for step in (report, jacobians, residuals, explicit):
        sha.update(_outcome(step) + b"\n")
    return sha.hexdigest()


def model_inputs():
    for path in sorted((ROOT / "models").rglob("*.urdf")):
        name = str(path.relative_to(ROOT))
        try:
            numbered = regular_numbering(parse_file(path).model)
            graph, _, _, lacg = build_pipeline(numbered)
        except UrdfPlusError:
            continue
        rng = np.random.default_rng(sum(map(ord, name)))
        qs = [np.zeros(numbered.total_dof),
              *rng.uniform(-1.0, 1.0, (SEEDED_CONFIGURATIONS, numbered.total_dof))]
        for k, q in enumerate(qs):
            yield f"{name} q{k}", numbered, graph, lacg, q


def sweep_inputs():
    import workloads

    for seed in SWEEP_SEEDS:
        _, numbered, graph, lacg, qs = workloads.sweep_model(
            seed, workloads.SWEEP_BODIES, workloads.SWEEP_LOOPS)
        for k, q in enumerate(qs):
            yield f"sweep seed {seed} q{k}", numbered, graph, lacg, q


def main() -> None:
    for name, data in text_inputs():
        print(f"{text_digest(data)}  {name} read")
    for name, numbered, graph, lacg, q in (*model_inputs(), *sweep_inputs()):
        print(f"{digest(numbered, graph, lacg, q)}  {name}")


if __name__ == "__main__":
    main()
