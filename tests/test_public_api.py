"""The package's public names, pinned: adding or removing one is a
deliberate one-line edit here."""

import types

import urdfplus

PUBLIC_NAMES = [
    "ConnectivityGraph", "ConstraintReport", "Coupling", "Digraph", "ExplicitJacobian",
    "FORMAT_VERSION", "Inertial", "JointType", "Link", "LoopAggregatedGraph",
    "LoopJacobian", "LoopJoint", "NumberedModel", "ParseDiagnostic", "ParseResult",
    "RobotModel", "SpatialTransform", "TreeJoint", "ValidationReport",
    "all_loop_jacobians", "build_pipeline", "connectivity_graph_from_model",
    "constraint_dependency_digraph", "constraint_force_subspace",
    "count_degrees_of_freedom", "coupling_row", "explicit_jacobian_for_model",
    "export_dot", "forward_kinematics", "implicit_loop_jacobian",
    "independent_coordinate_check", "loop_aggregated_graph", "loop_residual",
    "motion_subspace", "numerical_rank", "parse_configuration", "parse_file",
    "parse_urdf_plus", "regular_numbering", "rot_from_rpy", "serialize_urdf_plus",
    "stack_jacobians", "strongly_connected_components", "structurally_equal",
    "validate_model", "zero_configuration",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(urdfplus).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
