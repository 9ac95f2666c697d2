import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import BRACKET_BELT, far_fourbar, perfbench_workloads, twin_far_fourbars

import urdfplus
from urdfplus.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_belt(self, capsys, models_dir):
        code, out, err = run(capsys, "validate", str(models_dir / "belt.urdf"))
        assert code == 0
        assert "OK" in out

    def test_wrong_independent_count(self, capsys, models_dir):
        code, out, err = run(
            capsys, "validate", str(models_dir / "wrist_bad_independent.urdf")
        )
        assert code == 1
        assert "expected 2" in err
        assert "declared 4" in err

    def test_malformed_xml(self, capsys, models_dir):
        code, out, err = run(
            capsys, "validate", str(models_dir / "errors" / "malformed.urdf")
        )
        assert code == 2
        assert "line" in err

    def test_missing_file(self, capsys, models_dir):
        code, out, err = run(capsys, "validate", str(models_dir / "nope.urdf"))
        assert code == 3
        assert err

    def test_no_arguments_is_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 3

    def test_strict_closure(self, capsys, tmp_path, models_dir):
        config = tmp_path / "open.cfg"
        config.write_text("crank_pivot: 0.3\n")
        path = str(models_dir / "fourbar.urdf")
        code, out, err = run(capsys, "validate", path, "--config", str(config))
        assert code == 0
        assert "closure residual" in err  # warning without --strict
        code, out, err = run(
            capsys, "validate", path, "--config", str(config), "--strict"
        )
        assert code == 1

    def test_version(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0


class TestErrorPaths:
    cases = [
        ("errors/planar_joint.urdf", 2, "planar"),
        ("errors/mimic_offset.urdf", 2, "offset"),
        ("errors/two_roots.urdf", 1, "multiple-roots"),
        ("errors/joint_cycle.urdf", 1, "tree-cycle"),
        ("errors/mixed_coupling.urdf", 1, "share motion type"),
    ]

    @pytest.mark.parametrize("relpath,expected,needle", cases)
    def test_designated_diagnostics(self, capsys, models_dir, relpath,
                                    expected, needle):
        code, out, err = run(capsys, "validate", str(models_dir / relpath))
        assert code == expected
        assert needle in err


class TestGraph:
    def test_belt_lacg_cluster(self, capsys, models_dir):
        code, out, err = run(
            capsys, "graph", str(models_dir / "belt.urdf"), "--kind", "lacg"
        )
        assert code == 0
        cluster = out.split("subgraph cluster_1")[1].split("}")[0]
        for name in ("shank", "foot", "motor"):
            assert name in cluster

    def test_wrist_cdd_edge_count(self, capsys, models_dir):
        code, out, err = run(
            capsys, "graph", str(models_dir / "wrist.urdf"), "--kind", "cdd"
        )
        assert code == 0
        assert out.count("->") == 8

    def test_chain_cg_is_path(self, capsys, models_dir):
        code, out, err = run(
            capsys, "graph", str(models_dir / "plain" / "pendulum.urdf"),
            "--kind", "cg",
        )
        assert code == 0
        assert out.count("--") == 2
        assert "style=dashed" not in out

    def test_out_file(self, capsys, tmp_path, models_dir):
        target = tmp_path / "belt.dot"
        code, out, err = run(
            capsys, "graph", str(models_dir / "belt.urdf"),
            "--kind", "cdd", "--out", str(target),
        )
        assert code == 0
        assert target.read_text().startswith("digraph")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, models_dir):
        target = tmp_path / "missing" / "x.dot"
        code, out, err = run(
            capsys, "graph", str(models_dir / "belt.urdf"), "--out", str(target)
        )
        assert code == 3
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_bad_kind_is_usage_error(self, capsys, models_dir):
        code, out, err = run(
            capsys, "graph", str(models_dir / "belt.urdf"), "--kind", "bogus"
        )
        assert code == 3

    @pytest.mark.parametrize("bodies", [None, 400])
    def test_closed_stdout(self, tmp_path, models_dir, monkeypatch, bodies):
        """Standard output is a pipe whose read end was closed before the
        process started: exit 1, with nothing on standard error (no
        traceback, no "Exception ignored" line), whether the DOT waits in
        the output buffer until the flush (wrist.urdf) or overflows it and
        fails in the write (a generated 400-body model)."""
        path = models_dir / "wrist.urdf"
        if bodies:
            path = tmp_path / "generated.urdf"
            path.write_bytes(perfbench_workloads(monkeypatch).generate(1, bodies, 40).text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "urdfplus.cli", "graph", str(path), "--kind", "cdd"],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, "")

    def test_closed_stdout_in_process(self, capsys, tmp_path, models_dir, monkeypatch):
        """main's closed-pipe branch: the flush after the command raises
        BrokenPipeError, standard output's descriptor is pointed at the null
        device, and main returns 1 with nothing raised or written.  Five
        such calls leave no descriptor open behind them."""

        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        fds = Path("/proc/self/fd")
        with open(tmp_path / "stdout", "wb") as target_file:
            open_before = len(os.listdir(fds)) if fds.is_dir() else None
            monkeypatch.setattr(sys, "stdout", ClosedPipe(target_file.fileno()))
            codes = [main(["graph", str(models_dir / "wrist.urdf"), "--kind", "cdd"])
                     for _ in range(5)]
            monkeypatch.undo()
            open_after = len(os.listdir(fds)) if fds.is_dir() else None
            null, target = os.stat(os.devnull), os.fstat(target_file.fileno())
        assert codes == [1] * 5
        assert open_after == open_before
        assert capsys.readouterr() == ("", "")
        assert (target.st_dev, target.st_ino) == (null.st_dev, null.st_ino)
        assert (tmp_path / "stdout").read_bytes() == b""


class TestConstraints:
    def test_wrist_text_report(self, capsys, models_dir):
        code, out, err = run(capsys, "constraints", str(models_dir / "wrist.urdf"))
        assert code == 0
        assert "n: 8" in out
        assert "n_c: 8" in out
        assert "n_i: 2" in out
        assert "sum_rank: 6" in out
        assert "rank=3" in out

    def test_wrist_json_report(self, capsys, models_dir):
        code, out, err = run(
            capsys, "constraints", str(models_dir / "wrist.urdf"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8
        assert payload["n_i"] == 2
        assert payload["sum_rank"] == 6
        assert len(payload["loops"]) == 2
        assert payload["independent"]["pass"] is True
        assert len(payload["G"]["rows"]) == 8

    def test_json_carries_every_text_field(self, capsys, models_dir):
        code, text, _ = run(capsys, "constraints", str(models_dir / "belt.urdf"))
        code, raw, _ = run(
            capsys, "constraints", str(models_dir / "belt.urdf"), "--json"
        )
        payload = json.loads(raw)
        for key in ("n", "n_c", "n_i", "sum_rank", "mode", "max_residual",
                    "loops", "aggregates", "independent", "G"):
            assert key in payload
        for key in ("n", "n_c", "n_i", "sum_rank", "mode"):
            assert f"{key}: {payload[key]}" in text

    def test_belt_g_rows(self, capsys, models_dir):
        code, out, err = run(
            capsys, "constraints", str(models_dir / "belt.urdf"), "--json"
        )
        payload = json.loads(out)
        rows = {r["coordinate"]: r["values"] for r in payload["G"]["rows"]}
        assert rows["knee[0]"] == [1.0, 0.0]
        assert rows["ankle[0]"] == [0.0, 1.0]
        assert rows["motor_rotor[0]"] == [0.5, 0.5]

    def test_loop_free_notes_kinematic_tree(self, capsys, models_dir):
        code, out, err = run(
            capsys, "constraints", str(models_dir / "plain" / "snake.urdf")
        )
        assert code == 0
        assert "kinematic tree" in out

    def test_failing_check_exits_one(self, capsys, models_dir):
        code, out, err = run(
            capsys, "constraints",
            str(models_dir / "wrist_bad_independent.urdf"),
        )
        assert code == 1
        assert "expected 2" in err

    def test_deterministic_stdout(self, capsys, models_dir):
        _, first, _ = run(capsys, "constraints", str(models_dir / "wrist.urdf"))
        _, second, _ = run(capsys, "constraints", str(models_dir / "wrist.urdf"))
        assert first == second

    def test_tolerance_flag_drives_rank(self, capsys, models_dir):
        # an absurd tolerance rejects every pivot, so all ranks drop to zero
        # and the declared independent set no longer matches
        code, out, err = run(
            capsys, "constraints", str(models_dir / "wrist.urdf"),
            "--tolerance", "1.0",
        )
        assert code == 1
        assert "n_i: 8" in out

    # the last three are numbers float() reads but the number rule refuses:
    # a '_' between digits, an Arabic-Indic digit, a no-break space
    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "abc", "1_0e-11",
                                     "\u0661e-10", "1e-10\u00a0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, models_dir, bad):
        code, out, err = run(
            capsys, "constraints", str(models_dir / "fourbar.urdf"),
            "--tolerance", bad,
        )
        assert code == 3
        assert out == ""
        assert f"argument --tolerance: must be a finite number > 0, got {bad!r}" in err


class TestConfigurationInput:
    @pytest.mark.parametrize("command, model, line", [
        ("validate", "belt.urdf", "knee: nan"),
        ("constraints", "wrist.urdf", "Joint1: nan 0.1"),
    ])
    def test_non_finite_value_is_usage_error(self, capsys, tmp_path, models_dir,
                                             command, model, line):
        config = tmp_path / "q.cfg"
        config.write_text(line + "\n")
        code, out, err = run(
            capsys, command, str(models_dir / model), "--config", str(config)
        )
        assert code == 3
        assert out == ""
        values = line.partition(":")[2].strip()
        assert err == f"error: line 1: non-finite number in {values!r}\n"

    def test_repeated_joint_is_usage_error(self, capsys, tmp_path, models_dir):
        config = tmp_path / "q.cfg"
        config.write_text("crank_pivot: 1\ncrank_pivot: 2\n")
        code, out, err = run(
            capsys, "constraints", str(models_dir / "fourbar.urdf"), "--config", str(config)
        )
        assert code == 3
        assert out == ""
        assert err == "error: line 2: joint 'crank_pivot' already set on line 1\n"

    def test_non_utf8_config_is_usage_error(self, capsys, tmp_path, models_dir):
        config = tmp_path / "q.cfg"
        config.write_bytes(b"\xff\xfe")
        code, out, err = run(
            capsys, "validate", str(models_dir / "belt.urdf"), "--config", str(config)
        )
        assert code == 3
        assert err.startswith(f"error: {config}: not UTF-8")

    @pytest.mark.parametrize("command", ["constraints", "validate"])
    def test_config_with_byte_order_mark(self, capsys, tmp_path, models_dir, command):
        """A leading UTF-8 BOM is not part of the first joint's name; the
        run gives the bytes of the same file without it, and reads its q."""
        outcomes = []
        for bom in (b"\xef\xbb\xbf", b""):
            config = tmp_path / "q.cfg"
            config.write_bytes(bom + b"crank_pivot: 0.1\n")
            outcomes.append(run(capsys, command, str(models_dir / "fourbar.urdf"),
                                "--config", str(config)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0
        assert "1.048e-01" in outcomes[0][1] + outcomes[0][2]  # the closure residual

    def test_non_utf8_offset_counts_the_byte_order_mark(self, capsys, tmp_path, models_dir):
        config = tmp_path / "q.cfg"
        config.write_bytes(b"\xef\xbb\xbfcrank_pivot: \xff\n")
        code, out, err = run(
            capsys, "constraints", str(models_dir / "fourbar.urdf"), "--config", str(config)
        )
        assert (code, out) == (3, "")
        assert err == f"error: {config}: not UTF-8 (invalid start byte at byte 16)\n"


class TestInfo:
    def test_wrist_summary(self, capsys, models_dir):
        code, out, err = run(capsys, "info", str(models_dir / "wrist.urdf"))
        assert code == 0
        assert "links: 5" in out
        assert "tree joints: 4" in out
        assert "loops: 2" in out
        assert "couplings: 0" in out
        assert "root: Base" in out
        assert "5: Loop1" in out

    def test_belt_summary(self, capsys, models_dir):
        code, out, err = run(capsys, "info", str(models_dir / "belt.urdf"))
        assert code == 0
        assert "links: 4" in out
        assert "couplings: 1" in out

    def test_non_utf8_payload_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin.urdf"
        path.write_bytes(
            b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<robot name="r">'
            b'<link name="a"><visual><material name="caf\xe9"/></visual></link>'
            b"</robot>\n"
        )
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert err == "error: preserved <visual> is not UTF-8 [line 2, column 32]\n"

    @pytest.mark.parametrize("codec", ["utf-16-le", "utf-16-be"])
    def test_utf16_payload_is_a_parse_error(self, capsys, tmp_path, codec):
        path = tmp_path / "wide.urdf"
        path.write_bytes(
            '\ufeff<?xml version="1.0" encoding="UTF-16"?>\n<robot name="r">'
            '<link name="a"><visual><box/></visual></link></robot>\n'.encode(codec)
        )
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: preserved <visual> is not UTF-8 [line 2, column 32]\n"

    def test_empty_robot_warns(self, capsys, tmp_path):
        path = tmp_path / "empty.urdf"
        path.write_text('<robot name="void"/>')
        code, out, err = run(capsys, "info", str(path))
        assert code == 0
        assert "links: 0" in out
        assert "no links" in err


class TestDiagnostics:
    def test_violation_order_ignores_hash_seed(self, models_dir):
        def stderr(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
            return subprocess.run(
                [sys.executable, "-m", "urdfplus.cli", "validate",
                 str(models_dir / "errors" / "joint_cycle.urdf")],
                env=env, capture_output=True, text=True, timeout=60,
            ).stderr

        first = stderr("1")
        assert first == stderr("2")
        # tree joints are walked in declaration order: j1, j2, j3
        assert re.findall(r"cycle \((\w+)\)", first) == ["b", "c", "a"]

    def test_non_orthogonal_universal_axes_are_located(
        self, capsys, tmp_path, models_dir
    ):
        text = (models_dir / "wrist.urdf").read_text()
        text = re.sub(r'(name="(Joint2|Loop1)".*?<axis2 xyz=)"0 1 0"',
                      r'\1"1 1 0"', text, flags=re.S)
        path = tmp_path / "oblique.urdf"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.splitlines() == [
            f"error: axis-not-orthogonal: universal joint axes must be "
            f"orthogonal ({name})" for name in ("Joint2", "Loop1")
        ]
        code, out, err = run(capsys, "info", str(path))
        assert code == 0
        assert "warning: axis-not-orthogonal" in err
        assert "(Joint2)" in err


class TestFixedJointOnCoupledPath:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "bracket_belt.urdf"
        path.write_text(BRACKET_BELT)
        return path

    def test_validates(self, capsys, path):
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("OK: bracket_belt")

    def test_constraints_report(self, capsys, path):
        code, out, err = run(capsys, "constraints", str(path), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["n_c"] == 1
        assert [loop["rank"] for loop in payload["loops"]] == [1]
        assert payload["independent"]["pass"] is True
        # K over (knee, motor_rotor, ankle) in coordinate order; the fixed
        # mount has no coordinate
        k = np.array([[1.0, -2.0, 1.0]])
        by_label = {row["coordinate"]: row["values"] for row in payload["G"]["rows"]}
        g = np.array([by_label[c] for c in
                      ("knee[0]", "motor_rotor[0]", "ankle[0]")])
        assert np.abs(k @ g).max() < 1e-12


class TestOverflowingConfiguration:
    """A finite configuration whose constraint values overflow is a usage
    error (exit 3) with one line on standard error: no report, no numpy
    warning and no `Infinity` in the JSON."""

    @pytest.mark.parametrize("args", [("constraints", "--json"), ("constraints",),
                                      ("validate",)])
    def test_mimic_gripper(self, capsys, tmp_path, models_dir, args):
        config = tmp_path / "q.cfg"
        config.write_text("drive: 1e308\nfollower: -1e308\ngear: 1e308\n")
        code, out, err = run(capsys, args[0], str(models_dir / "mimic_gripper.urdf"),
                             *args[1:], "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("error: configuration overflows: coupling 'follower_mimic' "
                       "(joint 4) has a non-finite residual entry\n")

    def test_sweep_model_at_1e308(self, capsys, tmp_path, monkeypatch):
        workloads = perfbench_workloads(monkeypatch)
        gen, numbered, *_ = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                  workloads.SWEEP_LOOPS)
        model = tmp_path / "sweep.urdf"
        model.write_bytes(gen.text)
        config = tmp_path / "q.cfg"
        config.write_text("".join(
            f"{joint.name}: {' '.join(['1e308'] * joint.joint_type.dof)}\n"
            for joint in numbered.tree_joint_of[1:] if joint.joint_type.dof))
        for args in (("constraints", "--json"), ("validate",)):
            code, out, err = run(capsys, args[0], str(model), *args[1:],
                                 "--config", str(config))
            assert (code, out) == (3, "")
            assert err == ("error: configuration overflows: loop 'loop0' (joint 101) "
                           "has a non-finite row entry\n")

    @pytest.mark.parametrize("value", ["1e200", "1e300"])
    def test_sweep_model_far_out(self, capsys, tmp_path, monkeypatch, value):
        """At these values the lock-step elimination overflows only in
        products that its masked subtract discards: standard error holds
        the count check's one line and no numpy warning (pytest makes a
        warning an error here)."""
        workloads = perfbench_workloads(monkeypatch)
        gen, numbered, *_ = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                  workloads.SWEEP_LOOPS)
        model = tmp_path / "sweep.urdf"
        model.write_bytes(gen.text)
        config = tmp_path / "q.cfg"
        config.write_text("".join(
            f"{joint.name}: {' '.join([value] * joint.joint_type.dof)}\n"
            for joint in numbered.tree_joint_of[1:] if joint.joint_type.dof))
        code, out, err = run(capsys, "constraints", str(model), "--json",
                             "--config", str(config))
        assert code == 1
        assert json.loads(out)["independent"]["pass"] is False
        assert err.startswith("error: independent coordinate count mismatch: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("length,q,part,commands", [
        ("5e307", "2.1 -2.0 -2.0", "entry in the rank elimination",
         ("validate", "constraints")),
        ("1e300", "0.0 0.0 1e-9", "entry in the solve for G", ("constraints",)),
    ])
    def test_far_fourbar(self, capsys, tmp_path, length, q, part, commands):
        """Finite rows and residuals whose elimination overflows: a usage
        error with one line, naming the loop, and an empty standard output."""
        model = tmp_path / "far.urdf"
        model.write_text(far_fourbar(float(length)))
        config = tmp_path / "q.cfg"
        config.write_text("".join(
            f"{name}: {value}\n"
            for name, value in zip(("crank_pivot", "rocker_pivot", "coupler_pivot"),
                                   q.split())))
        for command in commands:
            code, out, err = run(capsys, command, str(model), "--config", str(config))
            assert (code, out) == (3, "")
            assert err == ("error: configuration overflows: loop 'closure' (joint 4) "
                           f"has a non-finite {part}\n")

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("length,q,part,commands", [
        ("5e307", "2.1 -2.0 -2.0", "entry in the rank elimination",
         ("validate", "constraints")),
        ("1e300", "0.0 0.0 1e-9", "entry in the solve for G", ("constraints",)),
    ])
    def test_twin_far_fourbars(self, capsys, tmp_path, length, q, part, commands, swapped):
        """The far four-bar's overflow beside a four-bar with bars 1 long at a
        generic configuration, each its own loop group: the one line names
        the overflowing loop, in the second group or the first."""
        lengths, triples = (1.0, float(length)), ("0.5 -0.4 -0.3", q)
        loop = "'closure_b' (joint 8)"
        if swapped:
            lengths, triples, loop = lengths[::-1], triples[::-1], "'closure_a' (joint 7)"
        flags = ("true", "false", "false")
        model = tmp_path / "twin.urdf"
        model.write_text(twin_far_fourbars(*lengths, flags, flags))
        config = tmp_path / "q.cfg"
        config.write_text("".join(
            f"{joint}{suffix}_pivot: {value}\n"
            for suffix, triple in zip(("_a", "_b"), triples)
            for joint, value in zip(("crank", "rocker", "coupler"), triple.split())))
        for command in commands:
            code, out, err = run(capsys, command, str(model), "--config", str(config))
            assert (code, out) == (3, "")
            assert err == (f"error: configuration overflows: loop {loop} "
                           f"has a non-finite {part}\n")


class TestStageCounts:
    def test_each_stage_once_per_call(self, capsys, models_dir, monkeypatch):
        """One `constraints` call validates once, walks each loop edge's
        subchains once and makes one pose pass."""
        calls = {}
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("urdfplus.")]
        for home, name in ((urdfplus.model, "validate_model"),
                           (urdfplus.graphs, "loop_subchains"),
                           (urdfplus.constraints._Tree, "poses")):
            original = getattr(home, name)
            calls[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for target in {home, *modules}:
                if getattr(target, name, None) is original:
                    monkeypatch.setattr(target, name, counted)

        code, _, _ = run(capsys, "constraints", str(models_dir / "wrist.urdf"))
        assert code == 0
        assert calls == {"validate_model": 1, "loop_subchains": 2, "poses": 1}
