"""Command-line front end: validate, graph, constraints, info.

Exit codes: 0 success, 1 validation or constraint failure (also when
standard output is closed before the results are written), 2 parse error,
3 usage error.  Results go to standard output, diagnostics to standard
error, so the tool composes in pipelines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import FORMAT_VERSION, __version__
from .constraints import (
    RANK_TOL,
    explicit_jacobian_for_model,
    independent_coordinate_check,
    parse_configuration,
    zero_configuration,
)
from .errors import ConfigurationError, InvalidModelError, UrdfPlusError, UrdfXmlError
from .graphs import build_pipeline, export_dot
from .model import Coupling, count_degrees_of_freedom, regular_numbering
from .xmlio import parse_urdf_plus

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

RESIDUAL_LIMIT = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="urdfplus",
        description="Validate and inspect URDF+ robot descriptions with "
        "kinematic loops.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"urdfplus {__version__} (format URDF+ {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="URDF+ file to read")
        p.add_argument(
            "--config",
            help="joint configuration file (one 'name: v1 v2 ...' per line); "
            "default is the zero configuration",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help=f"fail when a closure residual exceeds {RESIDUAL_LIMIT:g}",
        )
        p.add_argument(
            "--tolerance",
            type=_tolerance,
            default=RANK_TOL,
            help="relative pivot tolerance for numerical rank "
            f"(default {RANK_TOL:g})",
        )

    p_validate = sub.add_parser(
        "validate", help="run the full parse/validate/aggregate pipeline"
    )
    add_common(p_validate)

    p_graph = sub.add_parser("graph", help="export a pipeline stage as DOT")
    p_graph.add_argument("file", help="URDF+ file to read")
    p_graph.add_argument(
        "--kind",
        choices=("cg", "cdd", "lacg"),
        default="cg",
        help="connectivity graph, constraint dependency digraph, or "
        "loop-aggregated graph",
    )
    p_graph.add_argument("--out", help="write DOT here instead of standard output")

    p_constraints = sub.add_parser(
        "constraints", help="report constraint Jacobian ranks and coordinates"
    )
    add_common(p_constraints)
    p_constraints.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )

    p_info = sub.add_parser("info", help="summarize a model")
    p_info.add_argument("file", help="URDF+ file to read")
    return parser


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise _UsageError(str(exc)) from exc


def _load(path: str, severity: str = "error"):
    """The one load path of every command: parse, then number, which
    validates.  Returns the model and its numbering; on an invalid model the
    violations are printed as `severity:` lines and the numbering is None."""
    result = parse_urdf_plus(_read_file(path))
    for diagnostic in result.warnings:
        print(str(diagnostic), file=sys.stderr)
    model = result.model
    try:
        numbered = regular_numbering(model)
    except InvalidModelError as exc:
        # an empty model has no violations, only nothing to number, which
        # the commands that go on to number it report as an error
        problems = exc.violations or ((exc,) if severity == "error" else ())
        for problem in problems:
            print(f"{severity}: {problem}", file=sys.stderr)
        return model, None
    return model, numbered


def _configuration(args, numbered):
    if args.config:
        data = _read_file(args.config)
        try:
            text = data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"{args.config}: not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        return parse_configuration(text, numbered)
    return zero_configuration(numbered)


def cmd_check(args) -> int:
    """`validate` and `constraints`: load, pipeline, configuration and count
    check.  `constraints` prints its report; both print the failures on
    standard error (`validate` also names the declared joints and warns of
    an open loop without --strict); `validate` ends with its OK line."""
    model, numbered = _load(args.file)
    if numbered is None:
        return EXIT_FAILURE
    graph, _, _, lacg = build_pipeline(numbered)
    q = _configuration(args, numbered)
    report = independent_coordinate_check(numbered, graph, lacg, q, tol=args.tolerance)
    validating = args.command == "validate"
    if not validating:
        explicit = None
        if report.passed:
            explicit = explicit_jacobian_for_model(numbered, graph, q, args.tolerance)
        payload = _report_payload(numbered, lacg, report, explicit)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            _print_text_report(payload)
    for aggregate in report.redundant:
        print(
            f"warning: aggregate {aggregate.index} has redundant loop "
            f"constraints: loop ranks sum to {aggregate.sum_rank}, their "
            f"stacked rows have rank {aggregate.rank}",
            file=sys.stderr,
        )
    status = EXIT_OK
    if report.passed is False:
        joints = ", ".join(report.declared_joints) or "none"
        print(
            "error: independent coordinate count mismatch: expected "
            f"{report.n_i}, declared {report.declared_dof}"
            + (f" (joints: {joints})" if validating else ""),
            file=sys.stderr,
        )
        status = EXIT_FAILURE
    if report.max_residual > RESIDUAL_LIMIT and (validating or args.strict):
        print(
            f"{'error' if args.strict else 'warning'}: closure residual "
            f"{report.max_residual:.3e} exceeds {RESIDUAL_LIMIT:g}"
            + (" at the evaluation configuration" if validating else ""),
            file=sys.stderr,
        )
        if args.strict:
            status = EXIT_FAILURE
    if validating and status == EXIT_OK:
        print(
            f"OK: {model.name} ({len(model.links)} links, "
            f"{len(model.tree_joints)} tree joints, {len(model.loop_joints)} "
            f"loops, {len(model.couplings)} couplings)"
        )
    return status


def cmd_graph(args) -> int:
    _, numbered = _load(args.file)
    if numbered is None:
        return EXIT_FAILURE
    graph, digraph, _, lacg = build_pipeline(numbered)
    dot = export_dot({"cg": graph, "cdd": digraph, "lacg": lacg}[args.kind])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            raise _UsageError(str(exc)) from exc
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def _coordinate_labels(numbered) -> list[str]:
    labels = []
    for body in range(1, numbered.n_bodies + 1):
        joint = numbered.tree_joint_of[body]
        for k in range(joint.joint_type.dof):
            labels.append(f"{joint.name}[{k}]")
    return labels


def _report_payload(numbered, lacg, report, explicit):
    labels = _coordinate_labels(numbered)
    payload = {
        "n": report.n,
        "n_c": report.n_c,
        "n_i": report.n_i,
        "sum_rank": report.sum_ranks,
        "mode": report.mode,
        "max_residual": report.max_residual,
        "loops": [
            {
                "number": info.number,
                "name": info.name,
                "kind": info.kind,
                "rows": info.rows,
                "cols": info.columns,
                "rank": info.rank,
                "aggregate": info.aggregate,
                "joints": list(info.joint_numbers),
                "residual": info.residual_norm,
            }
            for info in report.loops
        ],
        "aggregates": [
            {
                "index": aggregate.index,
                "bodies": [lacg.graph.body_names[b] for b in aggregate.bodies],
                "parent": aggregate.parent,
                "loops": list(aggregate.loop_numbers),
            }
            for aggregate in lacg.aggregates
        ],
    }
    if report.redundant:
        payload["redundant_aggregates"] = [
            {"index": a.index, "sum_rank": a.sum_rank, "rank": a.rank}
            for a in report.redundant
        ]
    if report.mode == "independent":
        payload["independent"] = {
            "declared": list(report.declared_joints),
            "declared_dof": report.declared_dof,
            "expected_dof": report.n_i,
            "pass": report.passed,
        }
    if explicit is not None:
        payload["G"] = {
            "columns": [labels[c] for c in explicit.independent],
            "rows": [
                {"coordinate": labels[coord], "values": row.tolist()}
                for coord, row in zip(explicit.row_coordinates, explicit.matrix)
            ],
        }
    return payload


def _print_text_report(payload) -> None:
    for key in ("n", "n_c", "n_i", "sum_rank", "mode", "max_residual"):
        print(f"{key}: {payload[key]}")
    for info in payload["loops"]:
        print(
            f"loop {info['number']} ({info['name']}, {info['kind']}): "
            f"rows={info['rows']} cols={info['cols']} rank={info['rank']} "
            f"aggregate={info['aggregate']} joints={info['joints']} "
            f"residual={info['residual']:.3e}"
        )
    if not payload["loops"]:
        print("no loop constraints: model is a kinematic tree")
    for aggregate in payload["aggregates"]:
        tag = " (root)" if aggregate["parent"] is None else ""
        print(
            f"aggregate {aggregate['index']}{tag}: "
            + ", ".join(aggregate["bodies"])
        )
    if "independent" in payload:
        block = payload["independent"]
        print(
            "independent: declared=["
            + ", ".join(block["declared"])
            + f"] dof={block['declared_dof']} expected={block['expected_dof']} "
            + f"pass={'yes' if block['pass'] else 'no'}"
        )
    if "G" in payload:
        print("G columns: " + ", ".join(payload["G"]["columns"]))
        for row in payload["G"]["rows"]:
            values = " ".join(repr(v) for v in row["values"])
            print(f"  {row['coordinate']}: {values}")


def cmd_info(args) -> int:
    model, numbered = _load(args.file, "warning")
    print(f"robot: {model.name}")
    print(f"links: {len(model.links)}")
    print(f"tree joints: {len(model.tree_joints)}")
    print(f"loops: {len(model.loop_joints)}")
    print(f"couplings: {len(model.couplings)}")
    if numbered is None:
        return EXIT_OK
    n, n_c = count_degrees_of_freedom(numbered)
    print(f"root: {numbered.body_names[0]}")
    print(f"n: {n}")
    print(f"n_c: {n_c}")
    print("numbering:")
    for body in range(len(numbered.body_names)):
        if body == 0:
            print(f"  0: {numbered.body_names[0]} (root)")
        else:
            joint = numbered.tree_joint_of[body]
            print(
                f"  {body}: {numbered.body_names[body]} "
                f"(joint {joint.name}, {joint.joint_type.value}, "
                f"parent {numbered.body_names[numbered.parent[body]]})"
            )
    for number, entry in numbered.loop_entries:
        kind = "coupling" if isinstance(entry, Coupling) else "loop"
        print(f"  {number}: {entry.name} ({kind}: "
              f"{entry.predecessor} -> {entry.successor})")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_check,
    "graph": cmd_graph,
    "constraints": cmd_check,
    "info": cmd_info,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone: later flushes, at exit too, go to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
        return EXIT_FAILURE
    except _UsageError:
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UrdfXmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UrdfPlusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
