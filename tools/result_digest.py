"""Print one SHA-256 per input over everything the constraint engine returns.

An input is a model at one configuration: every loadable file under
`models/` at q = 0 and at 5 seeded configurations, and the benchmark's
sweep model at seeds 1-3, each at its 16 configurations.  A digest covers
every field of the count-check report, every K_l, every residual and G, as
bytes, or the type and message of the error a step raised.  Two trees that
print the same lines return the same bits on every input.

    PYTHONPATH=src python tools/result_digest.py > digests.txt

Run it in two checkouts and compare the outputs with `diff`.  It imports
`perfbench/workloads.py` for the sweep model and changes nothing there.
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
    independent_coordinate_check,
    loop_residual,
    parse_file,
    regular_numbering,
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
    for name, numbered, graph, lacg, q in (*model_inputs(), *sweep_inputs()):
        print(f"{digest(numbered, graph, lacg, q)}  {name}")


if __name__ == "__main__":
    main()
