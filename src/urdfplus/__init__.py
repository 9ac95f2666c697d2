"""urdfplus: parser, validator, and constraint-graph engine for URDF+ robot
descriptions with kinematic loops."""

from .constraints import (
    ConstraintReport,
    ExplicitJacobian,
    LoopJacobian,
    all_loop_jacobians,
    coupling_row,
    explicit_jacobian_for_model,
    forward_kinematics,
    implicit_loop_jacobian,
    independent_coordinate_check,
    loop_residual,
    parse_configuration,
    stack_jacobians,
    zero_configuration,
)
from .graphs import (
    ConnectivityGraph,
    Digraph,
    LoopAggregatedGraph,
    build_pipeline,
    connectivity_graph_from_model,
    constraint_dependency_digraph,
    export_dot,
    loop_aggregated_graph,
    strongly_connected_components,
)
from .model import (
    Coupling,
    Inertial,
    Link,
    LoopJoint,
    NumberedModel,
    RobotModel,
    TreeJoint,
    ValidationReport,
    count_degrees_of_freedom,
    regular_numbering,
    structurally_equal,
    validate_model,
)
from .spatial import (
    JointType,
    SpatialTransform,
    compose,
    constraint_force_subspace,
    invert,
    joint_transform,
    motion_map,
    motion_subspace,
    numerical_rank,
    rot_from_rpy,
)
from .xmlio import ParseDiagnostic, ParseResult, parse_file, parse_urdf_plus, serialize_urdf_plus

__version__ = "0.1.0"
FORMAT_VERSION = "1.0"
