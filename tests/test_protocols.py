"""Schedules, echoes, pi-pulse factorization, Gray cycles, collective control."""

import math
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from weylnet import io, protocols
from weylnet.basis import WeylIndex, weyl_matrix
from weylnet.collective import CollectiveLabel, collective_operator
from weylnet.errors import CapExceeded, DimensionMismatch, InputError
from weylnet.protocols import (
    PulseSchedule,
    Segment,
    cat_creation_fidelity,
    collective_control,
    collective_control_phase_distance,
    collective_control_states,
    cyclic_to_pi_pulses,
    echo_schedule,
    evolve,
    gray_sequence,
    hermitian_expm,
    phase_distance,
    selective_network_echo,
)


# derandomized so every run checks the same examples; no example database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def random_traceless(n, rng, diagonal=False):
    if diagonal:
        vals = rng.normal(size=n)
        vals -= vals.mean()
        return np.diag(vals).astype(complex)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) / n * np.eye(n)


class TestSegmentsAndEvolve:
    def test_empty_schedule_leaves_state(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert evolve(PulseSchedule([]), psi) == []

    def test_phase_accumulation_oracle(self):
        # 2x2 exponential oracle for the splitting Hamiltonian diag(-1,1)/2:
        # a quarter-period flips the relative sign, a half-period only the
        # global one
        h = np.diag([-0.5, 0.5]).astype(complex)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        states = evolve(PulseSchedule([Segment("hamiltonian", h, math.pi)]), plus)
        minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
        assert abs(abs(np.vdot(minus, states[0])) - 1) < 1e-12
        u_full = hermitian_expm(2 * h, math.pi)  # diag(-1,1) for a full period
        assert phase_distance(u_full) < 1e-12  # -identity up to global phase

    def test_exact_inverse_pair(self):
        rng = np.random.default_rng(0)
        h = random_traceless(3, rng)
        sched = PulseSchedule([Segment("hamiltonian", h, 0.8),
                               Segment("hamiltonian", -h, 0.8)])
        assert np.max(np.abs(sched.unitary() - np.eye(3))) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        h = random_traceless(4, rng)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        states = evolve(PulseSchedule([Segment("hamiltonian", h, 2.0)] * 3), psi)
        for s in states:
            assert abs(np.linalg.norm(s) - 1) < 1e-12

    def test_validation(self):
        with pytest.raises(InputError):
            Segment("hamiltonian", np.array([[0, 1], [0, 0]]), 1.0)  # not hermitian
        with pytest.raises(InputError):
            Segment("gate", np.diag([1.0, 0.5]), 0.0)  # not unitary
        with pytest.raises(InputError):
            Segment("gate", np.eye(2), 1.0)  # gates are instantaneous
        with pytest.raises(DimensionMismatch):
            PulseSchedule([Segment("gate", np.eye(2)), Segment("gate", np.eye(3))])

    @pytest.mark.parametrize("kind", ["hamiltonian", "gate"])
    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, 1), (1, 0)]], ids=["diagonal", "mirrored"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_operator_rejected(self, kind, cells, value):
        op = np.eye(2, dtype=complex)
        for cell in cells:
            op[cell] = value
        with pytest.raises(InputError):
            Segment(kind, op, 1.0 if kind == "hamiltonian" else 0.0)

    def test_one_exponential_per_distinct_segment(self):
        rng = np.random.default_rng(4)
        h = random_traceless(5, rng)
        psi = np.zeros(5, dtype=complex)
        psi[2] = 1.0
        with mock.patch.object(protocols, "hermitian_expm", wraps=hermitian_expm) as expm:
            schedule, _ = echo_schedule(h, 1.1, cycles=3)  # residuals from the eigenbasis: none
            assert expm.call_count == 0
            u = schedule.unitary()
            states = evolve(schedule, psi)
            # a replayed file holds equal copies, not one shared array
            replayed = io.schedule_from_json(io.schedule_to_json(schedule))
            u_replayed = replayed.unitary()
        assert expm.call_count == 3
        # per-segment exponentials, as before the cache: the same bits
        u_each, psi_each, states_each = np.eye(5, dtype=complex), psi, []
        for seg in schedule.segments:
            step = hermitian_expm(seg.operator, seg.duration) if seg.kind == "hamiltonian" else seg.operator
            u_each = step @ u_each
            psi_each = step @ psi_each
            states_each.append(psi_each)
        assert np.array_equal(u, u_each) and np.array_equal(u_replayed, u_each)
        times = np.concatenate([[0.0], np.cumsum([s.duration for s in schedule.segments])])
        assert io.trajectory_csv(times, [psi] + states) == io.trajectory_csv(times, [psi] + states_each)

    def test_distinct_durations_and_operators_not_shared(self):
        rng = np.random.default_rng(5)
        h = random_traceless(3, rng)
        sched = PulseSchedule([Segment("hamiltonian", h, 0.5), Segment("hamiltonian", h, 0.25),
                               Segment("hamiltonian", 2 * h, 0.5), Segment("hamiltonian", h, 0.5)])
        with mock.patch.object(protocols, "hermitian_expm", wraps=hermitian_expm) as expm:
            u = sched.unitary()
        assert expm.call_count == 3
        expected = np.eye(3, dtype=complex)
        for seg in sched.segments:
            expected = hermitian_expm(seg.operator, seg.duration) @ expected
        assert np.array_equal(u, expected)

    def test_unitary_dropped_after_last_use(self):
        rng = np.random.default_rng(6)
        h = random_traceless(3, rng)
        steps = protocols._segment_unitaries([Segment("hamiltonian", h, 0.5),
                                              Segment("hamiltonian", h, 0.25)])
        first = weakref.ref(next(steps))
        next(steps)
        assert first() is None  # an all-distinct schedule holds one unitary at a time

    def test_expm_stack_of_times(self):
        rng = np.random.default_rng(3)
        h = random_traceless(4, rng)
        times = np.array([0.0, 0.4, -1.3, 7.0])
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            stack = hermitian_expm(h, times)
        assert eigh.call_count == 1 and stack.shape == (4, 4, 4)
        for t, u in zip(times, stack):
            assert np.max(np.abs(u - hermitian_expm(h, t))) < 1e-15

    def test_expm_engines_agree(self):
        rng = np.random.default_rng(2)
        h = random_traceless(5, rng)
        a = hermitian_expm(h, 1.3)
        b = scipy.linalg.expm(-1.3j * h)
        assert np.max(np.abs(a - b)) < 1e-13 * np.linalg.norm(a)


class TestEcho:
    def test_qubit_echo_any_dt(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        for dt in (0.3, 1.0, 7.7):
            _, rep = echo_schedule(h, dt)
            assert rep.residual < 1e-10

    def test_three_level_example(self):
        h = np.diag([2.0, -1.0, -1.0]).astype(complex)
        _, rep = echo_schedule(h, 1.7)
        assert rep.residual < 1e-10

    def test_zero_hamiltonian(self):
        _, rep = echo_schedule(np.zeros((3, 3)), 1.0)
        assert rep.residual < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_traceless(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(12):
            h = random_traceless(n, rng, diagonal=bool(rng.integers(0, 2)))
            dt = float(rng.uniform(0.1, 10.0))
            _, rep = echo_schedule(h, dt, cycles=2)
            assert rep.residual < 1e-10
            assert rep.stroboscopic_residual < 1e-10
            assert rep.pulse_count == n * (n - 1) * 2

    @pytest.mark.parametrize("cycles", [0, -1])
    def test_nonpositive_cycles_rejected(self, cycles):
        with pytest.raises(InputError, match="cycle"):
            echo_schedule(np.diag([1.0, -1.0]), 1.0, cycles=cycles)

    @pytest.mark.parametrize("cycles", [1.5, "2", True])
    def test_fractional_cycles_rejected(self, cycles):
        with pytest.raises(InputError, match="whole number"):
            echo_schedule(np.diag([1.0, -1.0]), 1.0, cycles=cycles)

    @pytest.mark.parametrize("dt", ["1", np.nan, 1j, None])
    def test_non_real_dt_rejected(self, dt):
        with pytest.raises(InputError, match="echo dt must be a finite real"):
            echo_schedule(np.diag([1.0, -1.0]), dt)

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "dense"])
    def test_at_most_one_eigh(self, diagonal):
        h = random_traceless(6, np.random.default_rng(7), diagonal=diagonal)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            echo_schedule(h, 0.9, cycles=2)
        assert eigh.call_count == (0 if diagonal else 1)

    def test_residual_reads_the_eigenbasis(self):
        # eigenvectors that are not H's leave the gate cycling the wrong states
        h = random_traceless(5, np.random.default_rng(4))
        with mock.patch.object(np.linalg, "eigh", lambda a: (np.linalg.eigvalsh(a), np.eye(len(a)))):
            schedule, rep = echo_schedule(h, 1.3)
        assert phase_distance(schedule.unitary()) > 0.1 and rep.residual > 0.1

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "dense"])
    def test_residual_reads_the_gate(self, diagonal):
        # a gate that swaps two levels instead of cycling all five
        h = random_traceless(5, np.random.default_rng(4), diagonal=diagonal)
        swap = np.eye(5, dtype=complex)[[1, 0, 2, 3, 4]]
        with mock.patch.object(protocols, "weyl_matrix", lambda index: swap):
            schedule, rep = echo_schedule(h, 1.3, cycles=2)
        actual = phase_distance(schedule.unitary())
        assert actual > 0.1 and rep.stroboscopic_residual > actual - 1e-12

    @pytest.mark.parametrize("h", [np.zeros((2, 3)), np.diag([np.nan, 0.0]), np.diag([np.inf, -np.inf])],
                             ids=["non-square", "nan", "inf"])
    def test_malformed_hamiltonian_rejected(self, h):
        with pytest.raises(InputError):
            echo_schedule(h, 1.0)

    def test_non_traceless_rejected_with_shift(self):
        h = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InputError, match="shift by"):
            echo_schedule(h, 1.0)

    def test_schedule_structure(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        sched, _ = echo_schedule(h, 1.0, cycles=2)
        kinds = [s.kind for s in sched.segments]
        assert kinds == ["hamiltonian", "gate"] * 4
        assert abs(sched.total_time - 2.0) < 1e-12

    def test_schedule_repeats_one_segment_pair(self):
        sched, _ = echo_schedule(np.diag([1.0, 0.0, -1.0]), 1.0, cycles=4)
        assert len(sched.segments) == 24
        assert len({id(s) for s in sched.segments}) == 2


class TestPiPulses:
    def test_three_level_factors(self):
        got = cyclic_to_pi_pulses(3)
        swap01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        swap12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.array_equal(got[0], swap01)
        assert np.array_equal(got[1], swap12)
        assert np.array_equal(swap12 @ swap01, weyl_matrix(WeylIndex(2, 0, 3)))

    def test_single_swap_for_qubits(self):
        got = cyclic_to_pi_pulses(2)
        assert len(got) == 1
        assert np.array_equal(got[0], weyl_matrix(WeylIndex(1, 0, 2)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_product_matches_shift(self, n):
        pulses = cyclic_to_pi_pulses(n)
        assert len(pulses) == n - 1
        prod = np.eye(n, dtype=complex)
        for p in pulses:
            prod = p @ prod
        assert np.max(np.abs(prod - weyl_matrix(WeylIndex(n - 1, 0, n)))) < 1e-12

    @pytest.mark.parametrize("n", [1, 0, 2.5, True, "3"])
    def test_bad_level_count_rejected(self, n):
        with pytest.raises(InputError, match=f"got {n!r}"):
            cyclic_to_pi_pulses(n)


class TestGray:
    def test_small_sequences(self):
        assert gray_sequence(1).strings() == ["0", "1"]
        assert gray_sequence(2).strings() == ["00", "01", "11", "10"]
        assert gray_sequence(3).strings() == [
            "000", "001", "011", "010", "110", "111", "101", "100"]

    def test_four_bit_prefix(self):
        assert gray_sequence(4).strings()[:9] == [
            "0000", "0001", "0011", "0010", "0110", "0111", "0101", "0100", "1100"]

    @pytest.mark.parametrize("n_bits", list(range(1, 21)))
    def test_properties_and_closed_form(self, n_bits):
        seq = gray_sequence(n_bits)
        assert seq.hamming_check()
        assert seq.covers_all()
        assert seq.codes.dtype == np.uint64
        assert np.array_equal(seq.codes, oracles.reflected_gray_codes(n_bits))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            gray_sequence(21)

    @pytest.mark.parametrize("n_bits", [0, -3, 2.0, True, "3"])
    def test_nonpositive_length_is_bad_input(self, n_bits):
        with pytest.raises(InputError, match=rf"gray sequences need N >= 1, got {n_bits!r} \("):
            gray_sequence(n_bits)


class TestCollectiveControl:
    def test_zero_area_is_identity(self):
        u = collective_control(1, 0.0, 3)
        assert np.max(np.abs(u - np.eye(8))) < 1e-12

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_single_drive_quarter_identity(self, n_nodes):
        u = collective_control(1, math.pi / 2, n_nodes)
        target = (-1j) ** n_nodes * collective_operator(
            CollectiveLabel(n_nodes, 0, 0, 0), n_nodes)
        assert np.max(np.abs(u - target)) < 1e-10

    def test_single_drive_eighth_expansion(self):
        n_nodes = 3
        u = collective_control(1, math.pi / 4, n_nodes)
        acc = sum((-1j) ** mu * collective_operator(CollectiveLabel(mu, 0, 0, 0), n_nodes)
                  for mu in range(n_nodes + 1))
        assert phase_distance(u, acc / math.sqrt(2) ** n_nodes) < 1e-10

    def test_pair_drive_odd_identity(self):
        for n_nodes in (3, 5):
            u = collective_control(2, math.pi / 2, n_nodes)
            assert phase_distance(u) < 1e-10

    @pytest.mark.parametrize("n_nodes", [2, 4, 6])
    def test_pair_drive_parity_cases(self, n_nodes):
        u = collective_control(2, math.pi / 4, n_nodes)
        sign = 1 if (n_nodes // 2) % 2 == 0 else -1
        target = (np.eye(2 ** n_nodes)
                  + sign * 1j * collective_operator(CollectiveLabel(n_nodes, 0, 0, 0), n_nodes))
        assert phase_distance(u, target / math.sqrt(2)) < 1e-10

    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_matches_product_expansion(self, n_nodes):
        for area in (0.37, math.pi / 4):
            a = collective_control(2, area, n_nodes)
            b = oracles.collective_control_expansion(2, area, n_nodes)
            assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("n_nodes", [2, 4, 6])
    def test_cat_creation(self, n_nodes):
        assert 1 - cat_creation_fidelity(n_nodes) < 1e-10

    def test_unitary_output(self):
        u = collective_control(2, 0.9, 4)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12

    def test_m_range(self):
        with pytest.raises(InputError):
            collective_control(3, 0.1, 2)
        with pytest.raises(InputError):
            collective_control(2, 0.1, 1)  # no pair of nodes
        with pytest.raises(CapExceeded):
            collective_control_states(2, [0.1], 40, np.zeros(1))  # refused before allocating

    def test_states_validation(self):
        with pytest.raises(InputError):
            collective_control_states(1, [float("nan")], 2, np.ones(4))
        with pytest.raises(DimensionMismatch):
            collective_control_states(1, [0.1], 3, np.ones(4))


drive_orders = st.sampled_from([1, 2])
pulse_times = st.floats(-10.0, 10.0, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


class TestCollectiveControlProperties:
    @PROPERTY
    @given(drive_orders, st.integers(2, 7), st.lists(pulse_times, min_size=1, max_size=4), seeds)
    def test_states_match_dense_oracle(self, m, n_nodes, times, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=2 ** n_nodes) + 1j * rng.normal(size=2 ** n_nodes)
        psi /= np.linalg.norm(psi)
        got = collective_control_states(m, times, n_nodes, psi)
        assert got.shape == (len(times), 2 ** n_nodes)
        for t, state in zip(times, got):
            assert np.max(np.abs(state - oracles.collective_control(m, t, n_nodes) @ psi)) < 1e-12

    @PROPERTY
    @given(drive_orders, st.integers(2, 12), st.lists(pulse_times, min_size=1, max_size=40),
           st.sampled_from([None, 1, 3]), seeds)
    def test_states_bit_equal_to_one_transform_per_time(self, m, n_nodes, times, columns, seed):
        rng = np.random.default_rng(seed)
        shape = (2 ** n_nodes,) if columns is None else (2 ** n_nodes, columns)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = collective_control_states(m, times, n_nodes, psi)
        want = oracles.collective_control_states(m, times, n_nodes, psi)
        assert got.shape == want.shape and np.array_equal(got, want)

    @PROPERTY
    @given(drive_orders, st.integers(2, 7), pulse_times)
    def test_unitary_matches_dense_oracle(self, m, n_nodes, t):
        got = collective_control(m, t, n_nodes)
        assert np.max(np.abs(got - oracles.collective_control(m, t, n_nodes))) < 1e-12

    @PROPERTY
    @given(drive_orders, st.sampled_from([1, 3, 5, 7]), pulse_times)
    def test_phase_distance_matches_dense_oracle(self, m, n_nodes, t):
        assume(n_nodes >= m)
        u = oracles.collective_control(m, t, n_nodes)
        # the optimal phase is arg tr(U), which rounding decides where the trace nearly vanishes
        assume(abs(np.trace(u)) > 1e-3 * 2 ** n_nodes)
        got = collective_control_phase_distance(m, t, n_nodes)
        assert abs(got - phase_distance(u)) < 1e-10

    @pytest.mark.parametrize("n_nodes", [3, 5, 7])
    def test_pair_drive_odd_identity_from_spectrum(self, n_nodes):
        got = collective_control_phase_distance(2, math.pi / 2, n_nodes)
        want = phase_distance(oracles.collective_control(2, math.pi / 2, n_nodes))
        assert got < 1e-12 and abs(got - want) < 1e-12


class TestNetworkEcho:
    def test_uncoupled_reduces_to_independent_echoes(self):
        rep = selective_network_echo(2, {}, dt=1.3, frequencies=[1.0, -0.4])
        assert rep.residual < 1e-9
        assert rep.cycle_length == 4

    def test_coupled_eigenstates_stay_product(self):
        rep = selective_network_echo(2, {(0, 1): 0.7}, dt=0.9, frequencies=[1.0, 0.3])
        assert rep.eigenstates_product
        assert rep.residual < 1e-9

    def test_three_nodes_cycle_length(self):
        rep = selective_network_echo(
            3, {(0, 1): 0.3, (1, 2): 0.2, (0, 2): 0.15}, dt=1.1,
            frequencies=[1.0, 0.7, 0.3])
        assert rep.cycle_length == 8
        assert gray_sequence(3).hamming_check()
        assert rep.residual < 1e-9

    def test_bad_pair_rejected(self):
        with pytest.raises(InputError):
            selective_network_echo(2, {(1, 0): 0.2}, dt=1.0)

    def test_residual_reads_the_sequence(self):
        # sequences that visit a code twice and another never are no cycle: the
        # first maps the codes to a 3-cycle and a fixed point, the second to no
        # permutation
        for codes in ([0, 1, 1, 2], [0, 2, 0, 1]):
            broken = protocols.GraySequence(2, np.array(codes, dtype=np.uint64))
            with mock.patch.object(protocols, "gray_sequence", lambda n_bits: broken):
                rep = selective_network_echo(2, {(0, 1): 0.3}, 1.0, [0.2, 0.5])
            assert rep.residual > 1, codes

    def test_large_networks_capped_by_the_gray_sequence(self):
        rng = np.random.default_rng(16)
        couplings = {(mu, nu): rng.normal() for mu in range(16) for nu in range(mu + 1, 16)}
        rep = selective_network_echo(16, couplings, 1.3, rng.normal(size=16).tolist())
        assert rep.cycle_length == 2 ** 16 and gray_sequence(16).hamming_check() and rep.residual < 1e-10
        with pytest.raises(CapExceeded, match="N <= 20, got 21"):
            selective_network_echo(21, {}, 1.0)

    @pytest.mark.parametrize("n_nodes, couplings, dt, frequencies, match", [
        (3, {(0, 1): np.nan}, 1.0, None, r"coupling \(0, 1\) must be a finite"),
        (3, {(0, 1): 0.2}, 1.0, [1.0, np.inf], "frequency of node 1 must be a finite"),
        (3, {(0, 1): 0.2}, np.nan, None, "echo dt must be a finite"),
        (3, {(0, 1): 1j}, 1.0, None, r"coupling \(0, 1\) must be a finite real"),
        (3, {(0.5, 1): 1.0}, 1.0, None, "node pairs"),
        (3, {(0, 1, 2): 1.0}, 1.0, None, "node pairs"),
        (-3, {}, 1.0, None, r"need N >= 1, got -3 \(int\)"),
        (0, {}, 1.0, None, r"need N >= 1, got 0 \(int\)"),
        (2.5, {}, 1.0, None, r"need N >= 1, got 2.5 \(float\)"),
        (True, {}, 1.0, None, r"need N >= 1, got True \(bool\)"),
        (3, {}, "1", None, "echo dt must be a finite real"),
    ], ids=["nan-coupling", "inf-frequency", "nan-dt", "complex-coupling", "fractional-node",
            "node-triple", "negative-nodes", "no-nodes", "fractional-nodes", "boolean-nodes", "string-dt"])
    def test_bad_inputs_named(self, n_nodes, couplings, dt, frequencies, match):
        with pytest.raises(InputError, match=match):
            selective_network_echo(n_nodes, couplings, dt, frequencies)


def cycle_lengths(perm):
    lengths, seen = [], set()
    for start in range(len(perm)):
        if start in seen:
            continue
        k, length = start, 0
        while k not in seen:
            seen.add(k)
            k, length = perm[k], length + 1
        lengths.append(length)
    return lengths


class TestCycleKernel:
    @PROPERTY
    @given(st.integers(1, 12), st.integers(1, 40), st.booleans(), seeds)
    def test_matches_the_walk(self, n, steps, returning, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        lengths = cycle_lengths(perm)
        if returning:  # a power that returns every state, which may also scale it
            steps *= math.lcm(*lengths)
        log_factors = 1j * rng.uniform(-np.pi, np.pi, n) + (rng.normal(0.0, 0.1, n) if returning else 0.0)
        got = protocols._monomial_power_distance(perm, log_factors, steps)
        walk = oracles.monomial_power_distance(perm, np.exp(log_factors), steps)
        if all(steps % length == 0 for length in lengths):  # relative for scaled factors
            assert abs(got - walk) < 1e-12 * max(1.0, walk)
        else:
            assert got >= math.sqrt(2) - 1e-12 and walk >= math.sqrt(2) - 1e-12

    def test_cost_does_not_depend_on_steps(self):
        # 2^50 steps round one 1024-cycle: far beyond any walk, and the cycle returns
        perm = np.roll(np.arange(1024), 1)
        log_factors = 1j * np.random.default_rng(3).uniform(-np.pi, np.pi, 1024)
        assert protocols._monomial_power_distance(perm, log_factors, 2 ** 50) < 1e-12
        assert protocols._monomial_power_distance(perm, log_factors, 2 ** 50 + 1) >= math.sqrt(2) - 1e-12

    def test_no_permutation_is_the_largest_distance(self):
        got = protocols._monomial_power_distance(np.array([1, 0, 0]), np.zeros(3, dtype=complex), 3)
        assert got == 2.0


class TestEchoProperties:
    @PROPERTY
    @given(st.integers(2, 8), st.booleans(), st.floats(0.05, 10.0), st.integers(1, 3), seeds)
    def test_residuals_match_dense_oracle(self, n, diagonal, dt, cycles, seed):
        h = random_traceless(n, np.random.default_rng(seed), diagonal=diagonal)
        schedule, rep = echo_schedule(h, dt, cycles=cycles)
        want = oracles.echo_residuals(h, dt, cycles)
        for got, dense in zip((rep.residual, rep.stroboscopic_residual), want):
            assert got < 1e-10 and abs(got - dense) < 1e-12
        # the stroboscopic residual bounds the returned schedule's own distance
        assert phase_distance(schedule.unitary()) <= rep.stroboscopic_residual + 1e-13

    @PROPERTY
    @given(st.integers(1, 5), st.floats(0.05, 10.0), st.booleans(), seeds)
    def test_network_residual_matches_dense_oracle(self, n_nodes, dt, with_frequencies, seed):
        rng = np.random.default_rng(seed)
        couplings = {(mu, nu): rng.normal() for mu in range(n_nodes) for nu in range(mu + 1, n_nodes)
                     if rng.integers(0, 2)}
        freqs = rng.normal(size=n_nodes).tolist() if with_frequencies else None
        rep = selective_network_echo(n_nodes, couplings, dt, freqs)
        dense = oracles.network_echo_residual(n_nodes, couplings, dt, freqs)
        assert rep.residual < 1e-10 and abs(rep.residual - dense) < 1e-12
