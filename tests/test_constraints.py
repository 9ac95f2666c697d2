import math
import re
import traceback
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import load_pipeline
from helpers import (
    BRACKET_BELT,
    far_fourbar,
    fd_loop_jacobian,
    perfbench_workloads,
    twin_far_fourbars,
)
from test_elimination_kernel import oracle_explicit_from_implicit
from test_kinematic_plan import check_against_oracle
from urdfplus.constraints import (
    RANK_TOL,
    ExplicitJacobian,
    _eliminated,
    RedundantAggregate,
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
from urdfplus.errors import (
    AntipodalRotationError,
    ConfigurationError,
    CountMismatchError,
    DimensionMismatchError,
    IncompatibleCouplingError,
    InvalidModelError,
    NonUnitAxisError,
    SingularDependentBlockError,
)
from urdfplus.graphs import LoopAggregatedGraph, build_pipeline
from urdfplus.model import (
    Link,
    LoopJoint,
    RobotModel,
    TreeJoint,
    regular_numbering,
)
from urdfplus.spatial import (
    JointType,
    SpatialTransform,
    numerical_rank,
    row_reduce_basis,
    solve_with_pivoting,
)
from urdfplus.xmlio import parse_urdf_plus


def compose(a: SpatialTransform, b: SpatialTransform) -> SpatialTransform:
    """Pose composition: the result maps coordinates through b, then a."""
    return SpatialTransform(a.rot @ b.rot, a.rot @ b.trans + a.trans)


def pipeline(model):
    numbered = regular_numbering(model)
    graph, digraph, sccs, lacg = build_pipeline(numbered)
    return numbered, graph, lacg


class TestForwardKinematics:
    def test_zero_configuration_composes_fixed_offsets(self, wrist):
        poses = forward_kinematics(wrist.numbered, zero_configuration(wrist.numbered))
        assert np.allclose(poses[0].trans, [0, 0, 0])
        idx = wrist.numbered.body_index
        assert np.allclose(poses[idx("Link1")].trans, [0, 0, 0.5])
        assert np.allclose(poses[idx("Output")].trans, [0, 0, 1.0])
        assert np.allclose(poses[idx("Link2")].trans, [0.2, 0, 0])

    def test_single_revolute_quarter_turn(self):
        model = parse_urdf_plus(
            '<robot name="r"><link name="a"/><link name="b"/>'
            '<joint name="j" type="revolute"><parent link="a"/>'
            '<child link="b"/><axis xyz="0 0 1"/></joint></robot>'
        ).model
        numbered = regular_numbering(model)
        poses = forward_kinematics(numbered, np.array([math.pi / 2]))
        assert np.abs(poses[1].rot @ [1, 0, 0] - np.array([0, 1, 0])).max() < 1e-12

    def test_fourbar_loop_frames_coincide_at_assembly(self, fourbar):
        poses = forward_kinematics(fourbar.numbered,
                                   zero_configuration(fourbar.numbered))
        loop = fourbar.model.loop_joints[0]
        idx = fourbar.numbered.body_index
        frame_p = compose(poses[idx(loop.predecessor)], loop.predecessor_origin)
        frame_s = compose(poses[idx(loop.successor)], loop.successor_origin)
        assert np.abs(frame_p.trans - frame_s.trans).max() < 1e-15
        assert np.abs(frame_p.rot - frame_s.rot).max() < 1e-15
        assert np.allclose(frame_p.trans, [1, 1, 0])

    def test_nan_axis_is_rejected_not_propagated(self, fourbar):
        joints = tuple(replace(j, axis=(math.nan, 0.0, 0.0)) if j.name == "crank_pivot"
                       else j for j in fourbar.model.tree_joints)
        numbered, graph, lacg = pipeline(replace(fourbar.model, tree_joints=joints))
        with pytest.raises(NonUnitAxisError):
            independent_coordinate_check(numbered, graph, lacg)

    def test_dimension_mismatch(self, fourbar):
        with pytest.raises(DimensionMismatchError):
            forward_kinematics(fourbar.numbered, np.zeros(5))


class TestConfigurationFile:
    def test_parse_and_defaults(self, fourbar):
        q = parse_configuration(
            "# crank angle\ncrank_pivot: 0.25\n\nrocker_pivot: 0.25\n",
            fourbar.numbered,
        )
        assert np.allclose(q, [0.25, 0.25, 0.0])

    def test_multi_dof_segments(self, wrist):
        q = parse_configuration("Joint4: 0.1 -0.2\n", wrist.numbered)
        assert np.allclose(q, [0, 0, 0, 0, 0, 0, 0.1, -0.2])

    def test_unknown_joint(self, fourbar):
        with pytest.raises(ConfigurationError):
            parse_configuration("ghost: 1.0\n", fourbar.numbered)

    def test_wrong_arity(self, wrist):
        with pytest.raises(ConfigurationError):
            parse_configuration("Joint4: 0.1\n", wrist.numbered)

    def test_bad_number(self, fourbar):
        with pytest.raises(ConfigurationError):
            parse_configuration("crank_pivot: abc\n", fourbar.numbered)

    def test_line_without_colon(self, fourbar):
        with pytest.raises(ConfigurationError, match="^line 2: expected 'name: values'$"):
            parse_configuration("crank_pivot: 1\ncrank_pivot 2\n", fourbar.numbered)

    def test_repeated_joint(self, fourbar):
        with pytest.raises(ConfigurationError,
                           match="^line 3: joint 'crank_pivot' already set on line 1$"):
            parse_configuration("crank_pivot: 1\n\ncrank_pivot: 2\n", fourbar.numbered)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number(self, wrist, bad):
        with pytest.raises(ConfigurationError, match="line 2: non-finite number"):
            parse_configuration(f"Joint4: 0.1 0.2\nJoint1: {bad}\n", wrist.numbered)


# the characters str.splitlines() also ends a line at, where a configuration
# line goes on: a comment may hold any character
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestConfigurationLines:
    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_comment_may_hold_it(self, fourbar, char):
        q = parse_configuration(f"crank_pivot: 0.5 # caf\u00e9{char}note\nrocker_pivot: 0.25\n",
                                fourbar.numbered)
        assert q.tolist() == parse_configuration("crank_pivot: 0.5\nrocker_pivot: 0.25\n",
                                                 fourbar.numbered).tolist()

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_error_after_it_names_the_right_line(self, fourbar, char):
        with pytest.raises(ConfigurationError, match="^line 2: invalid number in 'x'$"):
            parse_configuration(f"# a{char}b\nrocker_pivot: x\n", fourbar.numbered)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_in_a_value_it_is_on_the_values_line(self, fourbar, char):
        with pytest.raises(ConfigurationError, match="^line 1: "):
            parse_configuration(f"crank_pivot: 1{char}2\nrocker_pivot: 0.25\n",
                                fourbar.numbered)

    def test_form_feed_before_a_value_is_white_space(self, fourbar):
        assert parse_configuration("crank_pivot:\x0c1", fourbar.numbered).tolist() == [
            1.0, 0.0, 0.0]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_lines_end_at_newline_and_return(self, fourbar, end):
        text = f"# x{end}crank_pivot: 0.5{end}{end}rocker_pivot 2{end}"
        with pytest.raises(ConfigurationError, match="^line 4: expected 'name: values'$"):
            parse_configuration(text, fourbar.numbered)


class TestColonInJointName:
    """A joint name may hold ':' and '#'; values never do."""

    @pytest.fixture
    def numbered(self):
        names = ("arm:shoulder", "a", "a:b", "j#1", "k")
        links = tuple(Link(name=f"l{i}") for i in range(len(names) + 1))
        joints = tuple(
            TreeJoint(name=name, joint_type=JointType.REVOLUTE, parent=f"l{i}",
                      child=f"l{i + 1}", axis=(0.0, 0.0, 1.0))
            for i, name in enumerate(names)
        )
        return regular_numbering(RobotModel(name="colons", links=links,
                                            tree_joints=joints))

    def test_sets_the_named_joint(self, numbered):
        q = parse_configuration("arm:shoulder: 0.5\na:b: -1\na :2.5\n", numbered)
        assert q.tolist() == [0.5, 2.5, -1.0, 0.0, 0.0]

    @pytest.mark.parametrize("text, want", [
        ("j#1: 0.5\n", [0.0, 0.0, 0.0, 0.5, 0.0]),
        ("k: 0.5 # note: x\n", [0.0, 0.0, 0.0, 0.0, 0.5]),
        ("k: 0.5#x\n", [0.0, 0.0, 0.0, 0.0, 0.5]),
        ("# k: 1\nj#1: -1 # j#1: 2\n", [0.0, 0.0, 0.0, -1.0, 0.0]),
    ])
    def test_comment_starts_after_the_name(self, numbered, text, want):
        """A '#' in a joint's name is part of it; a comment starts at the
        first '#' after the ':' that follows the name."""
        assert parse_configuration(text, numbered).tolist() == want

    @pytest.mark.parametrize("text, message", [
        ("arm: 0.5\n", "line 1: unknown joint 'arm'"),
        ("ghost:a: 1\n", "line 1: unknown joint 'ghost'"),
        ("a: 1:2\n", "line 1: invalid number in '1:2'"),
        ("a:b: 1 2\n", "line 1: joint 'a:b' takes 1 values, got 2"),
    ])
    def test_errors_keep_their_messages(self, numbered, text, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_configuration(text, numbered)


def wrist_oracle_block(r_joint, r_loop):
    """Independent construction of Psi^T S for a universal joint pair at the
    zero configuration: plain cross products in world coordinates."""
    block = np.zeros((4, 2))
    for col, axis in enumerate((np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))):
        linear = np.cross(np.asarray(r_joint, dtype=float) - r_loop, axis)
        block[0, col] = axis[2]  # blocked z rotation
        block[1:, col] = linear
    return block


class TestWristJacobianStructure:
    def test_block_pattern_and_signs(self, wrist):
        numbered, graph = wrist.numbered, wrist.graph
        q = zero_configuration(numbered)
        jac1 = implicit_loop_jacobian(numbered, graph, 5, q)
        jac2 = implicit_loop_jacobian(numbered, graph, 6, q)
        idx = numbered.body_index
        assert jac1.joint_numbers == (idx("Link1"), idx("Link2"), idx("Output"))
        assert jac2.joint_numbers == (idx("Link1"), idx("Link3"), idx("Output"))

        positions = {
            "Joint1": [0, 0, 0.5], "Joint2": [0.2, 0, 0],
            "Joint3": [0, 0.2, 0], "Joint4": [0, 0, 1.0],
        }
        loop1 = np.array([0.2, 0, 1.0])
        loop2 = np.array([0, 0.2, 1.0])
        # loop 1: successor subchain {Joint1, Joint4} enters +, predecessor
        # subchain {Joint2} enters -
        expected1 = np.hstack([
            +wrist_oracle_block(positions["Joint1"], loop1),
            -wrist_oracle_block(positions["Joint2"], loop1),
            +wrist_oracle_block(positions["Joint4"], loop1),
        ])
        assert np.abs(jac1.matrix - expected1).max() < 1e-12
        expected2 = np.hstack([
            +wrist_oracle_block(positions["Joint1"], loop2),
            -wrist_oracle_block(positions["Joint3"], loop2),
            +wrist_oracle_block(positions["Joint4"], loop2),
        ])
        assert np.abs(jac2.matrix - expected2).max() < 1e-12

    def test_stacked_zero_blocks_exact(self, wrist):
        q = zero_configuration(wrist.numbered)
        k = stack_jacobians(
            wrist.numbered, all_loop_jacobians(wrist.numbered, wrist.graph, q)
        )
        assert k.shape == (8, 8)
        slices = wrist.numbered.coordinate_slices()
        joint3 = slices[wrist.numbered.body_index("Link3")]
        joint2 = slices[wrist.numbered.body_index("Link2")]
        assert np.all(k[0:4, joint3] == 0.0)  # loop 1 never sees joint 3
        assert np.all(k[4:8, joint2] == 0.0)  # loop 2 never sees joint 2
        assert np.abs(k[0:4, joint2]).max() > 0
        assert np.abs(k[4:8, joint3]).max() > 0


class TestLoopJacobians:
    def test_fourbar_annihilates_mechanism_motion(self, fourbar):
        q = zero_configuration(fourbar.numbered)
        k = stack_jacobians(
            fourbar.numbered, all_loop_jacobians(fourbar.numbered, fourbar.graph, q)
        )
        # parallelogram mobility: crank = rocker = -coupler
        assert np.abs(k @ np.array([1.0, 1.0, -1.0])).max() < 1e-12

    def test_fourbar_finite_difference_match(self, fourbar):
        q = zero_configuration(fourbar.numbered)
        jac = implicit_loop_jacobian(fourbar.numbered, fourbar.graph, 4, q)
        fd = fd_loop_jacobian(fourbar.numbered, fourbar.graph, 4, q, step=1e-7)
        assert np.abs(jac.matrix - fd).max() < 1e-6

    def test_wrist_finite_difference_match(self, wrist):
        q = zero_configuration(wrist.numbered)
        for number in (5, 6):
            jac = implicit_loop_jacobian(wrist.numbered, wrist.graph, number, q)
            fd = fd_loop_jacobian(wrist.numbered, wrist.graph, number, q)
            assert np.abs(jac.matrix - fd).max() < 1e-6

    def test_fixed_subchains_give_zero_columns(self):
        model = parse_urdf_plus(
            '<robot name="f"><link name="base"/><link name="a"/><link name="b"/>'
            '<joint name="ja" type="fixed"><parent link="base"/>'
            '<child link="a"/></joint>'
            '<joint name="jb" type="fixed"><parent link="base"/>'
            '<child link="b"/></joint>'
            '<loop name="l" type="revolute"><predecessor name="a"/>'
            '<successor name="b"/><axis xyz="0 0 1"/></loop></robot>'
        ).model
        numbered, graph, _ = pipeline(model)
        jac = implicit_loop_jacobian(numbered, graph, 3, zero_configuration(numbered))
        assert jac.matrix.shape == (5, 0)
        assert jac.rank() == 0

    def test_swapping_roles_negates_rows_at_closure(self, fourbar):
        loop = fourbar.model.loop_joints[0]
        swapped_model = RobotModel(
            name=fourbar.model.name,
            links=fourbar.model.links,
            tree_joints=fourbar.model.tree_joints,
            loop_joints=(
                LoopJoint(
                    name=loop.name,
                    joint_type=loop.joint_type,
                    predecessor=loop.successor,
                    successor=loop.predecessor,
                    predecessor_origin=loop.successor_origin,
                    successor_origin=loop.predecessor_origin,
                    axis=loop.axis,
                    axis2=loop.axis2,
                ),
            ),
        )
        numbered, graph, _ = pipeline(swapped_model)
        q = zero_configuration(numbered)
        original = implicit_loop_jacobian(
            fourbar.numbered, fourbar.graph, 4, q
        )
        swapped = implicit_loop_jacobian(numbered, graph, 4, q)
        assert swapped.joint_numbers == original.joint_numbers
        assert np.abs(swapped.matrix + original.matrix).max() < 1e-12
        assert swapped.rank() == original.rank()

    def test_fourbar_rank_along_mechanism_motion(self, fourbar):
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = rng.uniform(-0.6, 0.6)
            q = np.array([theta, theta, -theta])
            jac = implicit_loop_jacobian(fourbar.numbered, fourbar.graph, 4, q)
            assert jac.rank() == 2
            assert np.abs(loop_residual(fourbar.numbered, fourbar.graph, 4, q)
                          ).max() < 1e-12


class TestResiduals:
    def test_fourbar_closed_at_assembly(self, fourbar):
        r = loop_residual(fourbar.numbered, fourbar.graph, 4,
                          zero_configuration(fourbar.numbered))
        assert np.abs(r).max() < 1e-10

    def test_perturbation_breaks_closure(self, fourbar):
        q = np.array([0.1, 0.0, 0.0])
        r = loop_residual(fourbar.numbered, fourbar.graph, 4, q)
        assert np.abs(r).max() > 1e-3

    def test_floating_loop_joint_has_empty_residual(self):
        model = parse_urdf_plus(
            '<robot name="f"><link name="base"/><link name="a"/><link name="b"/>'
            '<joint name="ja" type="revolute"><parent link="base"/>'
            '<child link="a"/><axis xyz="0 0 1"/></joint>'
            '<joint name="jb" type="revolute"><parent link="base"/>'
            '<child link="b"/><axis xyz="0 0 1"/></joint>'
            '<loop name="free" type="floating"><predecessor name="a"/>'
            '<successor name="b"/></loop></robot>'
        ).model
        numbered, graph, _ = pipeline(model)
        r = loop_residual(numbered, graph, 3, zero_configuration(numbered))
        assert r.shape == (0,)
        jac = implicit_loop_jacobian(numbered, graph, 3,
                                     zero_configuration(numbered))
        assert jac.matrix.shape[0] == 0


class TestCouplings:
    def test_belt_row(self, belt):
        jac = coupling_row(belt.numbered, belt.graph, 4)
        idx = belt.numbered.body_index
        assert jac.joint_numbers == (idx("shank"), idx("motor"), idx("foot"))
        # +1 on the predecessor subchain (shank, foot), -ratio on the motor
        assert np.allclose(jac.matrix, [[1.0, -2.0, 1.0]])
        assert jac.rank() == 1

    def test_coupling_row_of_a_loop_joint(self, fourbar):
        [(number, _)] = fourbar.numbered.loop_entries
        with pytest.raises(IncompatibleCouplingError, match=f"^joint {number} is not a coupling$"):
            coupling_row(fourbar.numbered, fourbar.graph, number)

    def test_unity_mimic_row(self, models_dir):
        from urdfplus.xmlio import parse_file

        model = parse_file(models_dir / "mimic_gripper.urdf").model
        numbered, graph, _ = pipeline(model)
        follower = next(
            num for num, entry in numbered.loop_entries
            if entry.name == "follower_mimic"
        )
        jac = coupling_row(numbered, graph, follower)
        assert np.allclose(sorted(jac.matrix[0]), [-1.0, 1.0])

    def test_rows_are_configuration_independent(self, belt):
        a = coupling_row(belt.numbered, belt.graph, 4).matrix
        b = coupling_row(belt.numbered, belt.graph, 4).matrix
        assert np.array_equal(a, b)
        # residual tracks the position relation
        q = parse_configuration("knee: 0.3\nankle: 0.5\nmotor_rotor: 0.4\n",
                                belt.numbered)
        r = loop_residual(belt.numbered, belt.graph, 4, q)
        assert r.shape == (1,)
        assert r[0] == pytest.approx(0.3 + 0.5 - 2.0 * 0.4)

    def test_coupling_rows_need_no_kinematics(self, belt, monkeypatch):
        import urdfplus.constraints

        def no_kinematics(*args):
            raise AssertionError("forward kinematics run for couplings only")

        monkeypatch.setattr(urdfplus.constraints._Tree, "poses", no_kinematics)
        q = zero_configuration(belt.numbered)
        coupling_row(belt.numbered, belt.graph, 4)
        loop_residual(belt.numbered, belt.graph, 4, q)
        assert len(all_loop_jacobians(belt.numbered, belt.graph, q)) == 1
        report = independent_coordinate_check(belt.numbered, belt.graph,
                                              belt.lacg, q)
        assert report.n_c == 1

    def test_fixed_joint_on_coupled_path_adds_nothing(self):
        model = parse_urdf_plus(BRACKET_BELT).model
        numbered, graph, _ = pipeline(model)
        idx = numbered.body_index
        jac = coupling_row(numbered, graph, 5)
        assert jac.joint_numbers == tuple(sorted(
            idx(link) for link in ("shank", "bracket", "foot", "motor")))
        # the 0-DoF mount has a 0-width column and no entry
        assert np.array_equal(jac.matrix, [[1.0, 1.0, -2.0]])
        q = parse_configuration("knee: 0.3\nankle: 0.5\nmotor_rotor: 0.4\n",
                                numbered)
        r = loop_residual(numbered, graph, 5, q)
        assert r[0] == pytest.approx(0.3 + 0.5 - 2.0 * 0.4)


class TestLoopEntryNumbers:
    """implicit_loop_jacobian, loop_residual and coupling_row take an
    integer, a numpy one included, that names a loop joint or coupling."""

    @staticmethod
    def calls(belt):
        q = zero_configuration(belt.numbered)
        return (lambda n: implicit_loop_jacobian(belt.numbered, belt.graph, n, q).matrix,
                lambda n: loop_residual(belt.numbered, belt.graph, n, q),
                lambda n: coupling_row(belt.numbered, belt.graph, n).matrix)

    @pytest.mark.parametrize("number", [99, 1, 4.0, "4"])  # 1: a tree joint
    def test_a_number_naming_no_entry_is_a_configuration_error(self, belt, number):
        for call in self.calls(belt):
            with pytest.raises(ConfigurationError) as err:
                call(number)
            assert type(err.value) is ConfigurationError
            assert str(err.value) == f"no loop joint or coupling numbered {number!r}"

    def test_a_numpy_integer_names_its_entry(self, belt):
        for call in self.calls(belt):
            assert np.array_equal(call(np.int64(4)), call(4))


class TestExplicitJacobian:
    def test_belt_reference_matrix(self, belt):
        explicit = explicit_jacobian_for_model(belt.numbered, belt.graph)
        assert np.abs(
            explicit.matrix - np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        ).max() < 1e-12
        # rows: shank, foot (independent), then motor
        idx = belt.numbered.body_index
        slices = belt.numbered.coordinate_slices()
        assert explicit.row_coordinates == (
            slices[idx("shank")].start,
            slices[idx("foot")].start,
            slices[idx("motor")].start,
        )

    def test_belt_with_motor_independent(self, belt):
        flags = {"knee": True, "motor_rotor": True, "ankle": False}
        joints = tuple(replace(j, independent=flags[j.name])
                       for j in belt.model.tree_joints)
        model = replace(belt.model, tree_joints=joints)
        numbered, graph, _ = pipeline(model)
        explicit = explicit_jacobian_for_model(numbered, graph)
        # q_foot = -q_shank + 2 q_motor solves the belt relation by hand
        assert np.abs(
            explicit.matrix - np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 2.0]])
        ).max() < 1e-12

    def test_no_constraints_gives_identity(self):
        g = oracle_explicit_from_implicit(np.zeros((0, 4)), [0, 1, 2, 3])
        assert np.array_equal(g.matrix, np.eye(4))

    def test_count_mismatch(self, belt):
        k = stack_jacobians(
            belt.numbered,
            all_loop_jacobians(belt.numbered, belt.graph,
                               zero_configuration(belt.numbered)),
        )
        with pytest.raises(CountMismatchError) as err:
            oracle_explicit_from_implicit(k, [0])
        assert err.value.expected == 2
        assert err.value.declared == 1

    def test_singular_dependent_block(self):
        # column 0 is constrained and column 2 is free; declaring column 0
        # independent leaves a singular dependent block
        k = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(SingularDependentBlockError):
            oracle_explicit_from_implicit(k, [0])

    def test_null_space_property(self, wrist, belt, fourbar):
        for bundle in (wrist, belt, fourbar):
            q = zero_configuration(bundle.numbered)
            k = stack_jacobians(
                bundle.numbered,
                all_loop_jacobians(bundle.numbered, bundle.graph, q),
            )
            explicit = explicit_jacobian_for_model(bundle.numbered, bundle.graph, q)
            assert np.abs(k @ explicit.in_coordinate_order()).max() < 1e-10

    def test_independent_rows_form_identity(self, wrist):
        explicit = explicit_jacobian_for_model(wrist.numbered, wrist.graph)
        n_i = explicit.matrix.shape[1]
        assert np.array_equal(explicit.matrix[:n_i], np.eye(n_i))

    @pytest.mark.parametrize("shape", [(5, 2), (4, 0), (0, 0), (1, 1)])
    def test_coordinate_order_moves_each_row(self, shape):
        rng = np.random.default_rng(sum(shape))
        matrix = rng.normal(size=shape)
        matrix[matrix < -1.0] = -0.0
        coordinates = tuple(rng.permutation(shape[0]).tolist())
        explicit = ExplicitJacobian(matrix, coordinates, coordinates[: shape[1]])
        want = np.zeros(shape)
        for row, coordinate in enumerate(coordinates):
            want[coordinate] = matrix[row]
        assert explicit.in_coordinate_order().tobytes() == want.tobytes()


class TestIndependentCheck:
    def test_wrist_passes(self, wrist):
        report = independent_coordinate_check(
            wrist.numbered, wrist.graph, wrist.lacg
        )
        assert report.n == 8
        assert report.n_c == 8
        assert report.sum_ranks == 6
        assert report.n_i == 2
        assert report.mode == "independent"
        assert report.passed is True
        assert report.declared_dof == 2

    def test_wrist_overdeclared_fails(self, models_dir):
        from conftest import load_pipeline

        bundle = load_pipeline("wrist_bad_independent.urdf")
        report = independent_coordinate_check(
            bundle.numbered, bundle.graph, bundle.lacg
        )
        assert report.passed is False
        assert report.n_i == 2
        assert report.declared_dof == 4

    def test_loop_free_all_flagged(self):
        model = parse_urdf_plus(
            '<robot name="c"><link name="a"/><link name="b"/><link name="c"/>'
            '<joint name="j1" type="revolute" independent="true">'
            '<parent link="a"/><child link="b"/><axis xyz="0 0 1"/></joint>'
            '<joint name="j2" type="revolute" independent="true">'
            '<parent link="b"/><child link="c"/><axis xyz="0 0 1"/></joint>'
            '</robot>'
        ).model
        numbered, graph, lacg = pipeline(model)
        report = independent_coordinate_check(numbered, graph, lacg)
        assert report.passed is True
        assert report.n_i == report.n == 2

    def test_no_attributes_means_spanning_mode(self, nested):
        report = independent_coordinate_check(
            nested.numbered, nested.graph, nested.lacg
        )
        assert report.mode == "spanning"
        assert report.passed is None

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tolerance_raises(self, fourbar, tol):
        """Rank 2 and n_i 1 at the default tolerance; a tolerance that is not
        finite and > 0 used to report rank 3 or 0 instead of raising."""
        report = independent_coordinate_check(fourbar.numbered, fourbar.graph,
                                              fourbar.lacg)
        assert (report.sum_ranks, report.n_i) == (2, 1)
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            independent_coordinate_check(fourbar.numbered, fourbar.graph,
                                         fourbar.lacg, tol=tol)
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            explicit_jacobian_for_model(fourbar.numbered, fourbar.graph, tol=tol)

    @pytest.mark.parametrize("tol", ["1e-10", np.array("1e-10"), b"1e-10", None, 1e-10 + 0j,
                                     [1e-10], np.array([1e-10])])
    def test_tolerance_that_is_not_a_number_raises(self, fourbar, tol):
        """Every function that takes tol refuses what is not one real
        number, where it used to raise TypeError or read text as a float."""
        message = f"^{re.escape(f'tolerance must be a finite number > 0, got {tol!r}')}$"
        for call in (
            lambda: independent_coordinate_check(fourbar.numbered, fourbar.graph,
                                                 fourbar.lacg, tol=tol),
            lambda: explicit_jacobian_for_model(fourbar.numbered, fourbar.graph, tol=tol),
            lambda: numerical_rank(np.eye(2), tol),
            lambda: row_reduce_basis(np.eye(2), tol),
            lambda: solve_with_pivoting(np.eye(2), np.ones(2), tol),
        ):
            with pytest.raises(ConfigurationError, match=message):
                call()

    @pytest.mark.parametrize("tol", [np.array(1e-10), np.float32(1e-3), np.float64(1e-10)])
    def test_tolerance_of_numpy_type_reads_as_its_float(self, fourbar, tol):
        """A 0-d array (once `unhashable type`) or a numpy scalar gives what
        its float gives, to the bit, and keys the record's eliminations by
        that float."""
        numbered, graph = fourbar.numbered, fourbar.graph
        want = (independent_coordinate_check(numbered, graph, fourbar.lacg, tol=float(tol)),
                explicit_jacobian_for_model(numbered, graph, tol=float(tol)).matrix.tobytes())
        got = (independent_coordinate_check(numbered, graph, fourbar.lacg, tol=tol),
               explicit_jacobian_for_model(numbered, graph, tol=tol).matrix.tobytes())
        assert got == want
        assert {type(key) for key in numbered._kinematics.record(np.zeros(3))._bases} == {float}

    def test_aggregate_membership_reported(self, wrist):
        report = independent_coordinate_check(
            wrist.numbered, wrist.graph, wrist.lacg
        )
        assert {info.aggregate for info in report.loops} == {1}


# Every public function that takes a configuration, called on a loaded model.
Q_FUNCTIONS = {
    "forward_kinematics": lambda p, q: forward_kinematics(p.numbered, q),
    "implicit_loop_jacobian": lambda p, q: implicit_loop_jacobian(
        p.numbered, p.graph, p.numbered.n_bodies + 1, q),
    "loop_residual": lambda p, q: loop_residual(
        p.numbered, p.graph, p.numbered.n_bodies + 1, q),
    "all_loop_jacobians": lambda p, q: all_loop_jacobians(p.numbered, p.graph, q),
    "independent_coordinate_check": lambda p, q: independent_coordinate_check(
        p.numbered, p.graph, p.lacg, q),
    "explicit_jacobian_for_model": lambda p, q: explicit_jacobian_for_model(
        p.numbered, p.graph, q),
}


@pytest.mark.parametrize("function", sorted(Q_FUNCTIONS))
class TestBadConfiguration:
    """One shape-and-finiteness check on q, where the kinematic plan is
    entered; a coupling-only model (belt, n = 3) runs no kinematics at all."""

    @pytest.mark.parametrize("shape", [(4,), (2,), (3, 1), (1, 3), ()])
    def test_wrong_shape(self, belt, function, shape):
        with pytest.raises(DimensionMismatchError, match=r"model takes \(3,\)"):
            Q_FUNCTIONS[function](belt, np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, wrist, belt, function, bad):
        for bundle in (wrist, belt):
            q = zero_configuration(bundle.numbered)
            q[0] = bad
            with pytest.raises(ConfigurationError, match="non-finite"):
                Q_FUNCTIONS[function](bundle, q)

    def test_not_numbers(self, wrist, function):
        with pytest.raises(ConfigurationError, match="not a vector of numbers"):
            Q_FUNCTIONS[function](wrist, ["a"] * wrist.numbered.total_dof)

    def test_list_of_numbers_accepted(self, belt, function):
        Q_FUNCTIONS[function](belt, [0.0, 0.1, 0.2])

    @pytest.mark.parametrize("bad", [["1_0", "0", "0"], np.array(["1", "0", "0"]),
                                     [b"1", b"0", b"0"], [None, 0, 0], np.array([1j, 0, 0])])
    def test_entries_that_are_not_real_numbers(self, fourbar, belt, function, bad):
        """Text, which float() read ("1_0" as 10.0), bytes, None (once
        "non-finite entries") and complex entries (once a ComplexWarning)
        are refused, with loop joints and on a coupling-only model."""
        for bundle in (fourbar, belt):
            with pytest.raises(ConfigurationError,
                               match="^configuration is not a vector of numbers$"):
                Q_FUNCTIONS[function](bundle, bad)

    @pytest.mark.parametrize("good", [[0, 1, 0], [False, True, False],
                                      np.array([0, 1, 0], np.int8),
                                      np.array([0, 1, 0], np.uint64),
                                      np.array([0.0, 1.0, 0.0], np.float32)])
    def test_real_numbers_accepted(self, belt, function, good):
        Q_FUNCTIONS[function](belt, good)
        assert belt.numbered._kinematics.record(good).q.tolist() == [0.0, 1.0, 0.0]


OVERFLOWING_GRIPPER = "drive: 1e308\nfollower: -1e308\ngear: 1e308\n"
LOOP_FUNCTIONS = sorted(set(Q_FUNCTIONS) - {"forward_kinematics"})


HALF_TURN = """<robot name="flip">
  <link name="base"/><link name="a"/><link name="b"/>
  <joint name="ja" type="revolute"><parent link="base"/><child link="a"/>
    <axis xyz="0 0 1"/></joint>
  <joint name="jb" type="revolute"><parent link="base"/><child link="b"/>
    <axis xyz="0 0 1"/></joint>
  <loop name="flip" type="revolute"><predecessor name="base"/><successor name="a"/>
    <axis xyz="0 0 1"/></loop>
  <loop name="calm" type="revolute"><predecessor name="base"/><successor name="b"/>
    <axis xyz="0 0 1"/></loop>
</robot>"""


class TestHalfTurnClosure:
    """At q = (pi, 0.3) loop `flip` closes at a half-turn, where so3_log
    refuses.  Every entry is evaluated at once, but only a call that asks
    for `flip` raises its AntipodalRotationError, as when each entry was
    evaluated on its own; `calm` keeps its rows and residual."""

    def test_only_the_half_turn_raises(self):
        numbered, graph, lacg = pipeline(parse_urdf_plus(HALF_TURN).model)
        q = np.array([math.pi, 0.3])
        check_against_oracle(numbered, graph, lacg, q)
        flip, calm = (number for number, _ in numbered.loop_entries)
        assert loop_residual(numbered, graph, calm, q).shape == (5,)
        assert implicit_loop_jacobian(numbered, graph, calm, q).matrix.shape == (5, 1)
        calls = [lambda: loop_residual(numbered, graph, flip, q),
                 lambda: implicit_loop_jacobian(numbered, graph, flip, q),
                 lambda: all_loop_jacobians(numbered, graph, q),
                 lambda: independent_coordinate_check(numbered, graph, lacg, q),
                 lambda: explicit_jacobian_for_model(numbered, graph, q)]
        for call in calls:
            depths = set()
            for _ in range(3):
                with pytest.raises(AntipodalRotationError, match="^rotation angle ") as err:
                    call()
                depths.add(len(traceback.extract_tb(err.value.__traceback__)))
            assert len(depths) == 1  # raised afresh: the traceback does not grow


# far four-bars' bar lengths, (crank, rocker, coupler) configurations whose
# finite rows and residuals overflow in an elimination, and the part named
ELIMINATION_OVERFLOWS = [
    (5e307, [2.1, -2.0, -2.0], "entry in the rank elimination"),
    (5e307, [2.0, -2.0, -2.5], "entry in the solve for G"),
    (1e300, [0.0, 0.0, 1e-9], "entry in the solve for G"),
]
GENERIC_TRIPLE = [0.5, -0.4, -0.3]  # a far four-bar with bars 1 long, away from alignment


class TestOverflowingConfiguration:
    """A finite q whose rows or residuals overflow: one check per q over
    both raises ConfigurationError naming the first entry with a value that
    is not finite, and no numpy warning escapes (pytest makes a warning an
    error here).  The plan is left fit for the next q."""

    @pytest.mark.parametrize("function", LOOP_FUNCTIONS)
    def test_mimic_gripper(self, function):
        pipe = load_pipeline("mimic_gripper.urdf")
        q = parse_configuration(OVERFLOWING_GRIPPER, pipe.numbered)
        assert np.isfinite(q).all()
        message = ("configuration overflows: coupling 'follower_mimic' (joint 4) "
                   "has a non-finite residual entry")
        for _ in range(2):
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                Q_FUNCTIONS[function](pipe, q)
        report = independent_coordinate_check(pipe.numbered, pipe.graph, pipe.lacg)
        assert report.max_residual == 0.0

    def test_rows_overflow_where_the_residual_does_not(self):
        """Two prismatic joints put the revolute joint's frame at (1.5e308,
        1.5e308, 0), a finite lever arm, but its cross product with the
        joint's axis is not finite, so the loop's rows overflow while its
        residual, that position, stays finite."""
        text = """<robot name="far">
          <link name="base"/><link name="a"/><link name="b"/><link name="c"/>
          <joint name="x" type="prismatic"><parent link="base"/><child link="a"/>
            <axis xyz="1 0 0"/></joint>
          <joint name="y" type="prismatic"><parent link="a"/><child link="b"/>
            <axis xyz="0 1 0"/></joint>
          <joint name="spin" type="revolute"><parent link="b"/><child link="c"/>
            <axis xyz="-0.7071067811865476 0.7071067811865476 0"/></joint>
          <loop name="closure" type="revolute"><predecessor name="base"/>
            <successor name="c"/><axis xyz="0 0 1"/></loop>
        </robot>"""
        numbered, graph, lacg = pipeline(parse_urdf_plus(text).model)
        q = np.array([1.5e308, 1.5e308, 0.0])
        poses = forward_kinematics(numbered, q)
        assert all(np.isfinite(pose.trans).all() for pose in poses)
        message = ("configuration overflows: loop 'closure' (joint 4) has a "
                   "non-finite row entry")
        bundle = SimpleNamespace(numbered=numbered, graph=graph, lacg=lacg)
        for function in LOOP_FUNCTIONS:
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                Q_FUNCTIONS[function](bundle, q)

    def test_sweep_model_at_1e308(self, monkeypatch):
        """Every coordinate of the benchmark's seed-1 sweep model at 1e308:
        the prismatic lever arms overflow, and the first loop's rows hold
        inf.  Before the check every rank came out 0."""
        workloads = perfbench_workloads(monkeypatch)
        _, numbered, graph, lacg, qs = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                             workloads.SWEEP_LOOPS)
        bundle = SimpleNamespace(numbered=numbered, graph=graph, lacg=lacg)
        q = np.full(numbered.total_dof, 1e308)
        message = ("configuration overflows: loop 'loop0' (joint 101) has a "
                   "non-finite row entry")
        for function in LOOP_FUNCTIONS:
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                Q_FUNCTIONS[function](bundle, q)
        assert independent_coordinate_check(numbered, graph, lacg, qs[0]).passed

    @pytest.mark.parametrize("value", [1e200, 1e300])
    def test_sweep_model_far_out(self, monkeypatch, value):
        """Every coordinate of the sweep model at 1e200 or 1e300: the rows
        and residuals are finite, and the lock-step elimination makes no
        product for a row it leaves as it was, so nothing overflows and the
        reduced batch is finite.  The ranks are
        still wrong, since each group's pivot threshold scales with its
        lever arms, so G, whose elimination is made first here, raises the
        count check's CountMismatchError."""
        workloads = perfbench_workloads(monkeypatch)
        _, numbered, graph, lacg, qs = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                             workloads.SWEEP_LOOPS)
        q = np.full(numbered.total_dof, value)
        with pytest.raises(CountMismatchError):
            explicit_jacobian_for_model(numbered, graph, q)
        assert independent_coordinate_check(numbered, graph, lacg, q).passed is False
        assert np.isfinite(_eliminated(numbered, graph, q, RANK_TOL)[1]).all()
        assert independent_coordinate_check(numbered, graph, lacg, qs[0]).passed

    @pytest.mark.parametrize("length,q,part", ELIMINATION_OVERFLOWS)
    def test_elimination_overflows(self, length, q, part):
        """Finite rows and residuals whose elimination overflows: in the
        rank pass, or in G's solve, where the coupler 1e-9 from alignment
        with the rocker gives G entries near 1e9, whose products with the
        1e300 dependent block overflow in the back substitution.  The
        error names the loop of the group, and asking again raises again."""
        numbered, graph, lacg = pipeline(parse_urdf_plus(far_fourbar(length)).model)
        q = np.array(q)
        [jac] = all_loop_jacobians(numbered, graph, q)
        assert np.isfinite(jac.matrix).all()
        assert np.isfinite(loop_residual(numbered, graph, jac.number, q)).all()
        check_overflow(numbered, graph, lacg, q,
                       f"loop 'closure' (joint 4) has a non-finite {part}")

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("length,q,part", ELIMINATION_OVERFLOWS)
    def test_the_overflowing_group_is_named(self, length, q, part, swapped):
        """Two far four-bars, each its own loop group: one with bars 1 long
        at a generic configuration, the other at an overflowing one of
        test_elimination_overflows.  The error names the overflowing loop,
        whether its group is the second or the first."""
        lengths, triples = (1.0, length), (GENERIC_TRIPLE, q)
        loop = "'closure_b' (joint 8)"
        if swapped:
            lengths, triples, loop = lengths[::-1], triples[::-1], "'closure_a' (joint 7)"
        flags = ("true", "false", "false")
        numbered, graph, lacg = pipeline(
            parse_urdf_plus(twin_far_fourbars(*lengths, flags, flags)).model)
        (crank_a, rocker_a, coupler_a), (crank_b, rocker_b, coupler_b) = triples
        q = np.array([crank_a, rocker_a, crank_b, rocker_b, coupler_a, coupler_b])
        check_overflow(numbered, graph, lacg, q, f"loop {loop} has a non-finite {part}")


def check_overflow(numbered, graph, lacg, q, named):
    """G raises the overflow error that ends in `named`, twice; so does the
    count check if the rank pass overflows, else it passes."""
    calls = [lambda: explicit_jacobian_for_model(numbered, graph, q)]
    if "rank" in named:
        calls.append(lambda: independent_coordinate_check(numbered, graph, lacg, q))
    else:
        assert independent_coordinate_check(numbered, graph, lacg, q).passed
    for call in calls * 2:
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"configuration overflows: {named}")):
            call()


def svd_rank_gap(matrix):
    """(largest singular value, relative size of the smallest one)."""
    s = np.linalg.svd(matrix, compute_uv=False)
    return s[0], s[-1] / s[0]


class TestSingularConfigurations:
    """At a singular configuration the rank of K_l drops and the count check
    reports the larger n_i; the SVD confirms the drop is not a tolerance
    artefact of the elimination."""

    def test_folded_fourbar(self, fourbar):
        numbered, graph, lacg = fourbar.numbered, fourbar.graph, fourbar.lacg
        # the parallelogram stays closed along crank = rocker = -coupler
        regular = independent_coordinate_check(
            numbered, graph, lacg, np.array([0.3, 0.3, -0.3]))
        assert [info.rank for info in regular.loops] == [2]
        assert (regular.n_i, regular.passed) == (1, True)
        # folded flat: the crank lies on the ground line, so every pivot and
        # the loop joint sit on the x axis and all rows point along y
        folded_q = np.array([-math.pi / 2, -math.pi / 2, math.pi / 2])
        folded = independent_coordinate_check(numbered, graph, lacg, folded_q)
        assert folded.max_residual < 1e-12  # still closed
        assert [info.rank for info in folded.loops] == [1]
        assert (folded.n_i, folded.passed) == (2, False)
        jac = folded.jacobians[0].matrix
        assert svd_rank_gap(jac[np.abs(jac).max(axis=1) > 0])[1] < 1e-12

    def test_wrist_axes_through_the_loop_centres(self, wrist):
        numbered, graph, lacg = wrist.numbered, wrist.graph, wrist.lacg
        # at zero every joint axis is perpendicular to both rods, so no
        # column reaches the blocked rotation about the rod, and Joint4's
        # axes pass through the loop centres (Joint4 columns x and y vanish
        # in loop 1 and loop 2)
        aligned = independent_coordinate_check(numbered, graph, lacg,
                                               zero_configuration(numbered))
        assert [info.rank for info in aligned.loops] == [3, 3]
        assert (aligned.n_i, aligned.passed) == (2, True)
        for jac in aligned.jacobians:
            assert np.abs(jac.matrix[0]).max() == 0.0  # the rod-axis row
            assert svd_rank_gap(jac.matrix[1:])[1] > 1e-3  # the rest: rank 3
        # turning Joint4 tilts its second axis out of the plane perpendicular
        # to the rods, so it reaches the blocked rotation: rank 4 in each loop
        q = zero_configuration(numbered)
        q[numbered.coordinate_slices()[numbered.body_index("Output")]] = 0.3
        generic = independent_coordinate_check(numbered, graph, lacg, q)
        assert [info.rank for info in generic.loops] == [4, 4]
        for jac in generic.jacobians:
            assert svd_rank_gap(jac.matrix)[1] > 1e-6
        # the two loops share Joint1 and Joint4: their stacked rows have
        # rank 7, not 8, so n_i = 8 - 7 and the aggregate is redundant
        assert svd_rank_gap(stack_jacobians(numbered, generic.jacobians))[1] < 1e-15
        assert (generic.n_i, generic.passed) == (1, False)
        assert generic.redundant == (RedundantAggregate(1, 8, 7),)
        assert aligned.redundant == ()


def graph_calls(numbered, graph, lacg):
    """Every public function that takes a connectivity graph, at q = 0."""
    q = zero_configuration(numbered)
    number = numbered.loop_entries[0][0]
    couplings = [n for n, entry in numbered.loop_entries if not isinstance(entry, LoopJoint)]
    calls = [lambda: all_loop_jacobians(numbered, graph, q),
             lambda: implicit_loop_jacobian(numbered, graph, number, q),
             lambda: loop_residual(numbered, graph, number, q),
             lambda: independent_coordinate_check(numbered, graph, lacg, q),
             lambda: explicit_jacobian_for_model(numbered, graph, q)]
    return calls + [lambda: coupling_row(numbered, graph, n) for n in couplings[:1]]


class TestGraphOfAnotherModel:
    """A graph is checked against the model on every public call: the
    plan's subchains come from the first graph it is given, so a graph of
    another model gave an IndexError, or the loops of that other model."""

    PARENT = "^connectivity graph is not of this model: its parent map differs"

    @pytest.mark.parametrize("mine,theirs", [("fourbar.urdf", "nested.urdf"),
                                             ("nested.urdf", "overlapping.urdf"),
                                             ("belt.urdf", "nested.urdf")])
    def test_first_call(self, mine, theirs):
        numbered, other = load_pipeline(mine).numbered, load_pipeline(theirs)
        for call in graph_calls(numbered, other.graph, other.lacg):
            with pytest.raises(InvalidModelError, match=self.PARENT):
                call()

    def test_later_call(self):
        pipe, other = load_pipeline("nested.urdf"), load_pipeline("overlapping.urdf")
        numbered = pipe.numbered
        report = independent_coordinate_check(numbered, pipe.graph, pipe.lacg)
        assert [info.joint_numbers for info in report.loops] == [(1, 2, 3, 5), (3, 4)]
        for call in graph_calls(numbered, other.graph, other.lacg):
            with pytest.raises(InvalidModelError, match=self.PARENT):
                call()
        assert independent_coordinate_check(numbered, pipe.graph, pipe.lacg) == report

    def test_loop_edge_of_another_body(self):
        pipe = load_pipeline("fourbar.urdf")
        [edge] = pipe.graph.loop_edges
        moved = replace(pipe.graph, loop_edges=(replace(edge, successor=edge.predecessor),))
        message = (f"^connectivity graph is not of this model: its loop edge 'closure' is "
                   f"joint 4 from body {edge.predecessor} to body {edge.predecessor}, the "
                   f"model's 'closure' is joint 4 from body {edge.predecessor} to body "
                   f"{edge.successor}$")
        fewer = replace(pipe.graph, loop_edges=())
        lacg = replace(pipe.lacg, graph=moved)
        for call in graph_calls(pipe.numbered, moved, lacg):
            with pytest.raises(InvalidModelError, match=message):
                call()
        with pytest.raises(InvalidModelError, match="it has 0 loop edges, the model 1 "):
            all_loop_jacobians(pipe.numbered, fewer, np.zeros(3))

    def test_aggregated_graph_of_another_graph(self, nested):
        pipe = load_pipeline("fourbar.urdf")
        with pytest.raises(InvalidModelError,
                           match="^loop-aggregated graph is not of this connectivity graph$"):
            independent_coordinate_check(pipe.numbered, pipe.graph, nested.lacg)

    def test_rebuilt_graph_is_accepted(self):
        pipe = load_pipeline("wrist.urdf")
        q = zero_configuration(pipe.numbered)
        report = independent_coordinate_check(pipe.numbered, pipe.graph, pipe.lacg, q)
        g = explicit_jacobian_for_model(pipe.numbered, pipe.graph, q)
        graph, _, _, lacg = build_pipeline(pipe.numbered)
        assert graph is not pipe.graph and graph == pipe.graph
        assert isinstance(lacg, LoopAggregatedGraph)
        assert independent_coordinate_check(pipe.numbered, graph, lacg, q) == report
        assert independent_coordinate_check(pipe.numbered, pipe.graph, lacg, q) == report
        assert np.array_equal(explicit_jacobian_for_model(pipe.numbered, graph, q).matrix,
                              g.matrix)
