"""Serialization round trips and command-line behavior."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylnet import cluster, io, symmetry
from weylnet.cat import cat_state
from weylnet.cli import main
from weylnet.cluster import NetworkState
from weylnet.errors import InputError


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bell_file(tmp_path):
    st = NetworkState.from_pure(cat_state(2, (0, 0)), (2, 2))
    path = tmp_path / "bell.json"
    path.write_text(io.state_to_json(st))
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    st = NetworkState.from_pure(cat_state(2, (0, 0, 0)), (2, 2, 2))
    path = tmp_path / "ghz.json"
    path.write_text(io.state_to_json(st))
    return str(path)


class TestSerialization:
    def test_operator_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        again = io.operator_from_json(io.operator_to_json(m))
        assert np.array_equal(m, again)

    def test_state_round_trip(self):
        st = NetworkState.from_pure(cat_state(2, (0, 0)), (2, 2))
        again = io.state_from_json(io.state_to_json(st))
        assert again.dims == (2, 2)
        assert np.array_equal(again.rho, st.rho)

    def test_schema_fields(self):
        data = json.loads(io.operator_to_json(np.eye(2)))
        assert data["dim"] == 2
        assert data["entries"][0][0] == {"re": 1.0, "im": 0.0}

    def test_malformed_inputs(self):
        with pytest.raises(InputError):
            io.operator_from_json("not json")
        with pytest.raises(InputError):
            io.operator_from_json('{"dim": 2, "entries": [[{"re": 1}]]}')
        with pytest.raises(InputError):
            io.state_from_json(io.operator_to_json(np.eye(2)))  # no dims

    @pytest.mark.parametrize("cell", ['{"re": "nan", "im": 0}', '{"re": 0.5, "im": Infinity}',
                                      '{"re": "x", "im": 0}'])
    def test_non_finite_or_non_numeric_entry_rejected(self, cell):
        text = '{"dim": 1, "entries": [[%s]]}' % cell
        with pytest.raises(InputError):
            io.operator_from_json(text)

    @pytest.mark.parametrize("text", ['{"dim": 2, "entries": 5, "dims": [2]}',
                                      '{"dim": "two", "entries": [], "dims": [2]}'])
    def test_malformed_grid_rejected(self, text):
        with pytest.raises(InputError):
            io.state_from_json(text)

    def test_malformed_dims_rejected(self):
        data = json.loads(io.operator_to_json(np.eye(2) / 2))
        data["dims"] = ["x"]
        with pytest.raises(InputError):
            io.state_from_json(json.dumps(data))


class TestCliCommands:
    def test_basis_matches_tabulated_n3(self, runner):
        result = runner.invoke(main, ["basis", "3"])
        assert result.exit_code == 0
        out = result.output
        assert "U_01 =" in out
        assert "[   1,    0,    0]" in out
        # phase-gradient member shows symbolic powers of w
        assert "w^2" in out

    def test_basis_range_error(self, runner):
        assert runner.invoke(main, ["basis", "20"]).exit_code == 2

    def test_gray(self, runner):
        result = runner.invoke(main, ["gray", "--nodes", "3"])
        assert result.exit_code == 0
        assert result.output.split() == [
            "000", "001", "011", "010", "110", "111", "101", "100"]

    def test_fig_purity_values(self, runner):
        result = runner.invoke(main, ["fig-purity", "--n-range", "2:2", "--m-range", "1:2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "n,m,p_m"
        assert lines[1] == "2,1,0.0"
        assert lines[2].startswith("2,2,0.333333333")

    def test_fig_purity_bad_range(self, runner):
        assert runner.invoke(main, ["fig-purity", "--n-range", "5:2"]).exit_code == 2

    @pytest.mark.parametrize("args, message", [
        (["--n-range", "2:2", "--m-range", "1:1000000000"], "1 x 1000000000 rows exceed 2^16"),
        (["--m-range", "1000000000:1000000000"], "2^1000000000 leaves the float range"),
    ], ids=["many-rows", "huge-m"])
    def test_fig_purity_beyond_its_caps_exits_3_at_once(self, runner, args, message):
        start = time.perf_counter()
        result = runner.invoke(main, ["fig-purity", *args])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3, result.output
        assert result.output.splitlines()[-1].startswith("error: ") and message in result.output

    def test_cat_profile(self, runner):
        result = runner.invoke(main, ["cat", "--dim", "2", "--nodes", "3", "--verify"])
        assert result.exit_code == 0
        assert result.output.strip().split("\n")[-1].startswith("3,4.0,1.0")

    def test_table_csum_small(self, runner):
        result = runner.invoke(main, ["table-csum", "--n", "2", "--n-max", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "n,N,A,B,C,C_tag,D,Cat"
        assert lines[1] == "2,1,1,1,1,exact,1,1"
        assert lines[2] == "2,2,1,3,3,exact,3,3"
        assert lines[3] == "2,3,1,3,4,exact,7,4"

    def test_table_csum_row_2_6_is_exact(self, runner):
        result = runner.invoke(main, ["table-csum", "--n", "2", "--budget", "50000"])
        assert result.exit_code == 0, result.output
        assert "2,6,1,27,33,exact,63,33" in result.output.split("\n")

    def test_echo_random_diagonal(self, runner):
        result = runner.invoke(main, ["echo", "--dim", "4", "--dt", "2.2"])
        assert result.exit_code == 0

    def test_echo_dim_256(self, runner):
        # the period comes from the spectrum: no O(n^4) dense period product
        result = runner.invoke(main, ["echo", "--dim", "256", "--cycles", "8"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1].startswith("256,1.0,8,")

    def test_echo_from_file(self, runner, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(io.operator_to_json(np.diag([2.0, -1.0, -1.0])))
        result = runner.invoke(main, ["echo", "--hamiltonian", str(path), "--dt", "1.7"])
        assert result.exit_code == 0

    def test_echo_boolean_dimension_exits_2(self, runner, tmp_path):
        # operator.index(True) == 1, so a boolean must be refused by type
        path = tmp_path / "h.json"
        path.write_text('{"dim": true, "entries": [[{"re": 0, "im": 0}]]}')
        result = runner.invoke(main, ["echo", "--hamiltonian", str(path)])
        assert result.exit_code == 2, result.output
        assert "True" in result.output

    def test_echo_rejects_traceful(self, runner, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(io.operator_to_json(np.diag([1.0, 0.0])))
        result = runner.invoke(main, ["echo", "--hamiltonian", str(path)])
        assert result.exit_code == 2

    def test_control_cat_creation(self, runner):
        result = runner.invoke(main, ["control", "--nodes", "4", "--m", "2", "--alpha-t", "pi/4"])
        assert result.exit_code == 0
        assert "1.0" in result.output.split("\n")[1]

    def test_invariants_all_models(self, runner):
        for model in ("foerster", "renormalization", "stimulation"):
            result = runner.invoke(main, ["invariants", "--model", model])
            assert result.exit_code == 0, result.output

    def test_invariants_bad_params(self, runner):
        result = runner.invoke(main, ["invariants", "--model", "foerster", "--params", "1.0"])
        assert result.exit_code == 2

    def test_symmetry_counts(self, runner):
        result = runner.invoke(main, ["symmetry", "--nodes", "4"])
        assert result.exit_code == 0
        assert result.output.strip().split("\n")[-1] == "total,16,,35"

    def test_symmetry_builds_the_spin_basis_once(self, runner):
        with mock.patch.object(symmetry, "spin_basis", wraps=symmetry.spin_basis) as built:
            result = runner.invoke(main, ["symmetry", "--nodes", "4"])
        assert result.exit_code == 0
        assert built.call_count == 1

    def test_symmetry_golden_dump(self, runner):
        result = runner.invoke(main, ["symmetry", "--nodes", "4", "--golden-json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert len(data) == 16
        assert data[0]["config"] == "1111"

    def test_collective_decompose(self, runner, bell_file):
        result = runner.invoke(main, ["collective-decompose", bell_file])
        assert result.exit_code == 0
        rows = {tuple(line.split(",")[:4]): line for line in result.output.strip().split("\n")[1:]}
        assert rows[("2", "0", "0", "0")].split(",")[4].startswith("0.99999")

    def test_analyze_bell(self, runner, bell_file):
        result = runner.invoke(main, ["analyze", bell_file])
        assert result.exit_code == 0
        report = json.loads(result.output)
        table = {tuple(r["subset"]): r["Y"] for r in report["cluster_sums"]}
        assert abs(table[()] - 1.0) < 1e-10
        assert abs(table[(1,)]) < 1e-10
        assert abs(table[(2,)]) < 1e-10
        assert abs(table[(1, 2)] - 3.0) < 1e-10
        # the aligned pair state lives entirely in the symmetric class
        assert abs(report["symmetry_weights"]["1.0"] - 1.0) < 1e-10
        assert abs(report["symmetry_weights"]["0.0"]) < 1e-10

    def test_analyze_ghz_purity_profile(self, runner, ghz_file):
        result = runner.invoke(main, ["analyze", ghz_file, "--format", "csv"])
        assert result.exit_code == 0
        values = {}
        for line in result.output.strip().split("\n")[1:]:
            kind, subset, value = line.split(",")
            values[(kind, subset)] = float(value)
        assert abs(values[("p", "1")]) < 1e-10
        assert abs(values[("p", "1|2")] - 1 / 3) < 1e-10
        assert abs(values[("p", "1|2|3")] - 1.0) < 1e-10

    def test_analyze_malformed_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert runner.invoke(main, ["analyze", str(path)]).exit_code == 2

    def test_analyze_nan_state_exits_2(self, runner, tmp_path):
        data = json.loads(io.operator_to_json(np.eye(4) / 4))
        data["dims"] = [2, 2]
        data["entries"][1][1]["re"] = "nan"
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2
        assert "finite" in result.output

    HUGE = "1" * 401  # an integer literal beyond float range

    @pytest.mark.parametrize("command", [["analyze"], ["collective-decompose"],
                                         ["echo", "--hamiltonian"]])
    def test_cell_integer_beyond_float_range_exits_2(self, runner, tmp_path, command):
        if command[0] == "echo":
            text, first = io.operator_to_json(np.diag([1.0, -1.0])), "1.0"
        else:
            text, first = io.state_to_json(NetworkState.from_rho(np.eye(4) / 4, (2, 2))), "0.25"
        path = tmp_path / "huge.json"
        path.write_text(text.replace('"re": ' + first, '"re": ' + self.HUGE, 1))
        result = runner.invoke(main, command + [str(path)])
        assert result.exit_code == 2, result.output
        assert result.output == "error: malformed entry at (0,0): int too large to convert to float\n"

    @pytest.mark.parametrize("command", [["analyze"], ["echo", "--schedule"]])
    def test_integer_literal_over_digit_limit_exits_2(self, runner, tmp_path, command):
        path = tmp_path / "digits.json"
        text = '{"dim": %s, "entries": [], "dims": [2]}' if command[0] == "analyze" else '[%s]'
        path.write_text(text % ("9" * 4400))
        result = runner.invoke(main, command + [str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: invalid JSON: Exceeds the limit")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("dt", ['"x"', "null", "[0.5]"])
    def test_schedule_malformed_dt_exits_2(self, runner, tmp_path, dt):
        from weylnet.protocols import echo_schedule

        schedule, _ = echo_schedule(np.diag([1.0, -1.0]), 1.0)
        path = tmp_path / "schedule.json"
        path.write_text(io.schedule_to_json(schedule).replace('"dt": 0.5', '"dt": ' + dt, 1))
        result = runner.invoke(main, ["echo", "--schedule", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: segment 0 has a malformed dt: ")
        assert result.output.count("\n") == 1

    def test_cap_exit_code(self, runner, tmp_path):
        st = NetworkState.from_pure(cat_state(2, (0,) * 8), (2,) * 8)
        path = tmp_path / "big.json"
        path.write_text(io.state_to_json(st))
        result = runner.invoke(main, ["table-csum", "--n", "3", "--n-max", "4",
                                      "--vertex-cap", "100", "--budget", "10"])
        # cap exhaustion inside a table row downgrades, never aborts
        assert result.exit_code == 0
        rows = result.output.strip().split("\n")
        assert rows[-1].split(",")[5] == "heuristic"

    @pytest.mark.parametrize("dims, key, value", [((2, 2), "dims", "22"),
                                                  ((2, 2), "dims", [2.7, 2]),
                                                  ((2, 2), "dims", [2, 2.0]),
                                                  ((2,), "dim", 2.9)])
    def test_non_integer_dimension_exits_2(self, runner, tmp_path, dims, key, value):
        d = int(np.prod(dims))
        data = json.loads(io.state_to_json(NetworkState.from_rho(np.eye(d) / d, dims)))
        data[key] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2, result.output

    def test_analyze_reduces_each_subset_once(self, runner, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(128, 3)) + 1j * rng.normal(size=(128, 3))
        rho = a @ a.conj().T
        path = tmp_path / "q7.json"
        path.write_text(io.state_to_json(NetworkState.from_rho(rho / np.trace(rho), (2,) * 7)))
        with mock.patch.object(cluster, "partial_trace", wraps=cluster.partial_trace) as traced, \
                mock.patch.object(cluster, "cluster_sums", wraps=cluster.cluster_sums) as summed:
            result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0, result.output
        assert traced.call_count == 7 + 2 ** 7 - 1
        assert summed.call_count == 0

    def test_analyze_purity_input_error_exits_2(self, runner, bell_file):
        def refuse(state):
            raise InputError("refused here")

        with mock.patch.object(cluster, "purity_factors", refuse):
            result = runner.invoke(main, ["analyze", bell_file])
        assert result.exit_code == 2, result.output
        assert result.output == "error: refused here\n"

    def test_analyze_ground_state_class_weight(self, runner, tmp_path):
        v = np.zeros(16, dtype=complex)
        v[0] = 1.0
        st = NetworkState.from_pure(v, (2, 2, 2, 2))
        path = tmp_path / "ground.json"
        path.write_text(io.state_to_json(st))
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0
        weights = json.loads(result.output)["symmetry_weights"]
        assert abs(weights["2.0"] - 1.0) < 1e-10

    def test_echo_schedule_and_trajectory_files(self, runner, tmp_path):
        sched_path = tmp_path / "schedule.json"
        traj_path = tmp_path / "trajectory.csv"
        result = runner.invoke(main, [
            "echo", "--dim", "3", "--dt", "1.5",
            "--schedule-out", str(sched_path),
            "--trajectory-out", str(traj_path), "--initial-basis", "1"])
        assert result.exit_code == 0
        # the emitted schedule replays to the identity
        replay = runner.invoke(main, ["echo", "--schedule", str(sched_path)])
        assert replay.exit_code == 0
        assert float(replay.output.strip().split("\n")[1].split(",")[-1]) < 1e-10
        lines = traj_path.read_text().strip().split("\n")
        assert lines[0] == "t," + ",".join(f"re_{k},im_{k}" for k in range(3))
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[0] == 0.0 and abs(last[0] - 1.5) < 1e-12
        # initial basis state |1> returns to itself after the full echo
        assert abs(first[3] - 1.0) < 1e-12
        assert abs(last[3] - 1.0) < 1e-10

    def test_schedule_json_round_trip(self, tmp_path):
        from weylnet.protocols import PulseSchedule, Segment

        h = np.diag([1.0, -1.0]).astype(complex)
        sched = PulseSchedule([Segment("hamiltonian", h, 0.5),
                               Segment("gate", np.array([[0, 1], [1, 0]], dtype=complex))])
        again = io.schedule_from_json(io.schedule_to_json(sched))
        assert len(again.segments) == 2
        assert again.segments[0].kind == "hamiltonian"
        assert again.segments[0].duration == 0.5
        assert np.array_equal(again.segments[1].operator, sched.segments[1].operator)

    def test_control_trajectory(self, runner, tmp_path):
        traj_path = tmp_path / "pulse.csv"
        result = runner.invoke(main, [
            "control", "--nodes", "2", "--m", "2", "--alpha-t", "pi/4",
            "--trajectory-out", str(traj_path), "--steps", "8"])
        assert result.exit_code == 0
        lines = traj_path.read_text().strip().split("\n")
        assert len(lines) == 10  # header + 9 samples
        final = [float(x) for x in lines[-1].split(",")]
        # ends in the two-branch superposition: |amp|^2 = 1/2 on |00> and |11>
        assert abs(final[1] ** 2 + final[2] ** 2 - 0.5) < 1e-10
        assert abs(final[7] ** 2 + final[8] ** 2 - 0.5) < 1e-10

    @pytest.mark.parametrize("area", ["pi/0", "inf", "nan", "-inf", "pi/x", "abc"])
    def test_control_bad_area_exits_2(self, runner, area):
        result = runner.invoke(main, ["control", "--nodes", "2", "--alpha-t", area])
        assert result.exit_code == 2, result.output
        assert "pulse area" in result.output

    def test_control_negative_steps_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["control", "--nodes", "2", "--steps", "-1",
                                      "--trajectory-out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2, result.output

    def test_control_too_large_exits_3(self, runner):
        assert runner.invoke(main, ["control", "--nodes", "40"]).exit_code == 3

    @pytest.mark.parametrize("args, message", [
        (["echo", "--dim", "100000000"], "dimension 100000000 exceeds cap 4096"),  # was a MemoryError
        (["echo", "--dim", "3", "--cycles", str(10 ** 30)], "cycles <= 349525, got 1"),  # was exit 1
        (["control", "--nodes", "3", "--steps", "131072", "--trajectory-out", "{traj}"],
         "131073 x 8 amplitudes exceeds 2^20"),
    ], ids=["echo-dim", "echo-cycles", "control-steps"])
    def test_size_beyond_its_cap_exits_3(self, runner, tmp_path, args, message):
        result = runner.invoke(main, [a.format(traj=tmp_path / "t.csv") for a in args])
        assert result.exit_code == 3, result.output
        assert result.output.splitlines()[-1].startswith("error: ") and message in result.output
        assert not (tmp_path / "t.csv").exists()

    def test_cat_profile_beyond_float_range_exits_3(self, runner):
        result = runner.invoke(main, ["cat", "--dim", "3", "--nodes", "700"])
        assert result.exit_code == 3, result.output
        assert "float range" in result.output
        assert runner.invoke(main, ["cat", "--dim", "3", "--nodes", "600"]).exit_code == 0

    @pytest.mark.parametrize("cycles", ["-1", "0"])
    def test_echo_nonpositive_cycles_exits_2(self, runner, cycles):
        result = runner.invoke(main, ["echo", "--dim", "4", "--cycles", cycles])
        assert result.exit_code == 2, result.output
        assert "--cycles" in result.output

    def test_table_csum_bad_dimension_list_exits_2(self, runner):
        result = runner.invoke(main, ["table-csum", "--n", "abc"])
        assert result.exit_code == 2, result.output
        assert "--n" in result.output

    @pytest.mark.parametrize("option,value", [("--budget", "0"), ("--budget", "-5"),
                                              ("--vertex-cap", "-1"), ("--n-max", "0")])
    def test_table_csum_nonpositive_option_exits_2(self, runner, option, value):
        result = runner.invoke(main, ["table-csum", "--n", "2", option, value])
        assert result.exit_code == 2, result.output
        assert option in result.output

    @pytest.mark.parametrize("params", ["1,abc", "1,nan", "inf,1"])
    def test_invariants_bad_params_exit_2(self, runner, params):
        result = runner.invoke(main, ["invariants", "--model", "foerster", "--params", params])
        assert result.exit_code == 2, result.output
        assert "--params" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_invariants_non_finite_time_exits_2(self, runner, value):
        result = runner.invoke(main, ["invariants", "--model", "foerster", "--time", value])
        assert result.exit_code == 2, result.output
        assert "total_time" in result.output

    @pytest.mark.parametrize("nodes", ["0", "-2"])
    def test_symmetry_nonpositive_nodes_exits_2(self, runner, nodes):
        result = runner.invoke(main, ["symmetry", "--nodes", nodes])
        assert result.exit_code == 2, result.output

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["1", "2"]), st.floats(-4.0, 4.0, allow_nan=False),
           st.integers(0, 63), st.integers(1, 8))
    def test_control_trajectory_matches_dense_oracle(self, m, area, basis_index, steps):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "traj.csv")
            result = CliRunner().invoke(main, [
                "control", "--nodes", "6", "--m", m, "--alpha-t", repr(area),
                "--trajectory-out", path, "--steps", str(steps),
                "--initial-basis", str(basis_index)])
            assert result.exit_code == 0, result.output
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        times = np.linspace(0.0, area, steps + 1)
        assert np.array_equal(rows[:, 0], times)
        got = rows[:, 1::2] + 1j * rows[:, 2::2]
        for t, state in zip(times, got):
            expected = oracles.collective_control(int(m), t, 6)[:, basis_index]
            assert np.max(np.abs(state - expected)) < 1e-12

    def test_deterministic_output(self, runner):
        a = runner.invoke(main, ["--seed", "0", "echo", "--dim", "5", "--dt", "1.0"]).output
        b = runner.invoke(main, ["--seed", "0", "echo", "--dim", "5", "--dt", "1.0"]).output
        assert a == b

    def test_config_file_defaults(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max=2\n")
        result = runner.invoke(main, ["--config", str(cfg), "table-csum", "--n", "2"])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 3  # header + N=1,2

    @pytest.mark.parametrize("line", ["vertex_cap=0", "n_max=0", "budget=0", "budget=abc",
                                      "seed=abc", "seed=1.5", "n_max=-2", "no equals sign"])
    def test_bad_config_value_exits_2(self, runner, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, ["--config", str(cfg), "table-csum", "--n", "2"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")

    # config values: non-positive and positive ints, floats and short text
    CONFIG_VALUES = st.one_of(st.integers(-3, 3).map(str), st.floats().map(repr),
                              st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(st.sampled_from(["n_max", "budget", "vertex_cap", "seed"]),
                           CONFIG_VALUES, max_size=4))
    def test_table_csum_config_fuzz(self, values):
        with tempfile.TemporaryDirectory() as work:
            cfg = os.path.join(work, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.writelines(f"{key}={value}\n" for key, value in values.items())
            result = CliRunner().invoke(main, ["--config", cfg, "table-csum", "--n", "2", "--n-max", "2"])
        assert result.exit_code in (0, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("line", ["dt=abc", "budjet=5"])
    def test_unknown_config_key_exits_2(self, runner, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, ["--config", str(cfg), "echo", "--dim", "3"])
        assert result.exit_code == 2, result.output
        key = line.split("=")[0]
        assert f"unknown config key {key!r}" in result.output
        assert "seed, n_max, budget, vertex_cap" in result.output

    def test_flags_beat_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max=2\n")
        result = runner.invoke(main, ["--config", str(cfg), "table-csum", "--n", "2", "--n-max", "3"])
        assert len(result.output.strip().split("\n")) == 4

    # {dir} is a directory, {missing} a path under a missing directory, {bin} a non-UTF-8 file
    BAD_ARGS = [
        (["analyze", "{dir}"], "{dir}"),
        (["collective-decompose", "{dir}"], "{dir}"),
        (["echo", "--hamiltonian", "{dir}"], "{dir}"),
        (["echo", "--schedule", "{dir}"], "{dir}"),
        (["--config", "{dir}", "gray", "--nodes", "2"], "{dir}"),
        (["gray", "--nodes", "3", "--output", "{missing}"], "{missing}"),
        (["echo", "--dim", "3", "--schedule-out", "{missing}"], "{missing}"),
        (["echo", "--dim", "3", "--trajectory-out", "{missing}"], "{missing}"),
        (["analyze", "{bin}"], "{bin}: not UTF-8 text"),
        (["collective-decompose", "{bin}"], "{bin}: not UTF-8 text"),
        (["echo", "--hamiltonian", "{bin}"], "{bin}: not UTF-8 text"),
        (["echo", "--schedule", "{bin}"], "{bin}: not UTF-8 text"),
        (["--config", "{bin}", "gray", "--nodes", "2"], "{bin}: not UTF-8 text"),
        (["echo", "--dim", "0"], "dimension must be >= 2, got 0"),
        (["echo", "--dim", "-1"], "dimension must be >= 2, got -1"),
        (["gray", "--nodes", "0"], "gray sequences need N >= 1, got 0"),
        (["gray", "--nodes", "-3"], "gray sequences need N >= 1, got -3"),
    ]

    @pytest.mark.parametrize("args, message", BAD_ARGS, ids=[" ".join(a) for a, _ in BAD_ARGS])
    def test_bad_path_dim_or_nodes_exits_2(self, runner, tmp_path, args, message):
        binary = tmp_path / "bin.dat"
        binary.write_bytes(b"\xff\xfe\x00 not text \x80")
        paths = {"dir": str(tmp_path), "missing": str(tmp_path / "missing" / "out"),
                 "bin": str(binary)}
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        lines = result.output.splitlines()
        assert lines[-1].startswith("error: ") and message.format(**paths) in lines[-1]


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# runs ``weylnet ARGS`` in-process, then prints the weylnet modules it loaded
FOOTPRINT = """
import sys
from weylnet.cli import main
if sys.argv[1:]:
    main(sys.argv[1:], standalone_mode=False)
print(" ".join(m for m in sys.modules if m.startswith("weylnet")), file=sys.stderr)
"""


def loaded_modules(args) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", FOOTPRINT, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


# refused counts and numbers and junk text, drawn for every option next to its cheap admitted values
JUNK = ["0", "-1", "-7", str(10 ** 8), str(2 ** 63), str(10 ** 30), str(-10 ** 30), "nan", "inf", "-inf",
        "1e308", "2.5", "x", ""]


def option_values(cheap):
    return st.one_of(st.sampled_from(JUNK), cheap.map(str))


# cheap ranges, and ranges whose rows or powers are refused
RANGES = st.one_of(st.tuples(st.integers(-1, 12), st.integers(-1, 12)),
                   st.sampled_from([(1, 10 ** 9), (10 ** 9, 10 ** 9), (2, 2 ** 16 + 2), (1, 2000), (1, 1025)]),
                   ).map(lambda r: f"{r[0]}:{r[1]}")
COUNT_LISTS = st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2).map(lambda ns: ",".join(map(str, ns)))
OUTPUT, FLAG = "an output file", "a flag"
POSITIONAL = ""  # basis takes N as its one argument
ARGUMENT_COMMANDS = {
    "echo": {"--dim": option_values(st.integers(2, 12)), "--dt": option_values(st.floats(-1.0, 5.0)),
             "--cycles": option_values(st.integers(1, 3)), "--trajectory-out": OUTPUT},
    "gray": {"--nodes": option_values(st.integers(1, 8))},
    "control": {"--nodes": option_values(st.integers(1, 6)), "--m": option_values(st.integers(1, 2)),
                "--alpha-t": option_values(st.sampled_from(["pi/4", "pi/2", "pi", "0.3", "pi/0", "pi/x"])),
                "--steps": option_values(st.integers(1, 8)), "--trajectory-out": OUTPUT},
    "symmetry": {"--nodes": option_values(st.integers(1, 6))},
    "cat": {"--dim": option_values(st.integers(2, 4)), "--nodes": option_values(st.integers(1, 3)),
            "--verify": FLAG},
    "fig-purity": {"--n-range": option_values(RANGES), "--m-range": option_values(RANGES)},
    "table-csum": {"--n": option_values(COUNT_LISTS), "--n-max": option_values(st.integers(1, 3))},
    "invariants": {"--model": st.sampled_from(["foerster", "renormalization", "stimulation"]),
                   "--params": option_values(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).map(
                       lambda xs: ",".join(map(repr, xs)))),
                   "--time": option_values(st.floats(0.0, 20.0))},
    "basis": {POSITIONAL: option_values(st.integers(2, 8))},
}
ALWAYS = {POSITIONAL, "--model"}


class TestArgumentExitCodes:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_arguments_never_exit_1(self, data):
        command = data.draw(st.sampled_from(sorted(ARGUMENT_COMMANDS)))
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as work:
            args = [command]
            for name, strategy in ARGUMENT_COMMANDS[command].items():
                if name not in ALWAYS and not data.draw(st.booleans(), label=f"{command} {name}"):
                    continue
                if strategy == OUTPUT:
                    args += [name, os.path.join(work, "out.csv")]
                elif strategy == FLAG:
                    args.append(name)
                else:  # "--" lets a negative N through as the argument
                    args += [name or "--", data.draw(strategy)]
            result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 2, 3, 4), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "Traceback" not in result.output, args
        if command == "fig-purity":
            assert time.perf_counter() - start < 1.0, args


class TestFreshInterpreter:
    def test_cli_import_loads_only_its_front_door(self):
        assert loaded_modules([]) == {"weylnet", "weylnet.cli", "weylnet.io", "weylnet.errors"}

    @pytest.mark.parametrize("args, absent", [
        (["gray", "--nodes", "3"], ["cluster", "collective", "commuting", "symmetry", "cat"]),
        (["fig-purity"], ["collective", "commuting", "protocols", "symmetry"]),
        (["control", "--nodes", "3", "--m", "1", "--alpha-t", "pi/2"],
         ["collective", "cluster", "commuting", "symmetry", "cat"]),
    ], ids=["gray", "fig-purity", "control"])
    def test_command_loads_only_what_it_runs(self, args, absent):
        loaded = loaded_modules(args)
        assert "weylnet.cli" in loaded
        assert loaded.isdisjoint(f"weylnet.{name}" for name in absent), sorted(loaded)

    def test_analyze_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a seeded rank-3 seven-qubit state, analyzed with one and with two BLAS threads
        rng = np.random.default_rng(0)
        v = rng.normal(size=(128, 3)) + 1j * rng.normal(size=(128, 3))
        v /= np.linalg.norm(v, axis=0)
        rho = (v * rng.dirichlet(np.ones(3))) @ v.conj().T
        path = tmp_path / "q7.json"
        path.write_text(io.state_to_json(NetworkState.from_rho((rho + rho.conj().T) / 2, [2] * 7)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-m", "weylnet.cli", "analyze", str(path)],
                                    env=env, capture_output=True, timeout=300)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_echo_schedule_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the schedule file of a 64-level echo over 3 cycles, and its replay's stdout
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            path = tmp_path / f"schedule-{threads}.json"
            for args in (["echo", "--dim", "64", "--cycles", "3", "--schedule-out", str(path)],
                         ["echo", "--schedule", str(path)]):
                result = subprocess.run([sys.executable, "-m", "weylnet.cli", *args],
                                        env=env, capture_output=True, timeout=300)
                assert result.returncode == 0, result.stderr
            outputs.append((path.read_bytes(), result.stdout))
        assert outputs[0] == outputs[1]

    def test_closed_stdout_keeps_clicks_silent_exit(self):
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "weylnet.cli", "gray", "--nodes", "12"],
                                    stdout=write, stderr=subprocess.PIPE,
                                    env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        finally:
            os.close(write)
        assert result.returncode == 1
        assert result.stderr == b""
