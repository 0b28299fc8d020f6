"""Collective operator families, decompositions, model invariants."""

import itertools
import math

import numpy as np
import pytest

import oracles
from weylnet import collective
from weylnet.cluster import NetworkState, kron_all
from weylnet.collective import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CollectiveLabel,
    collective_labels,
    collective_operator,
    decompose_collective,
    placements,
    reconstruct_collective,
)
from weylnet.errors import DimensionMismatch, InputError
from weylnet.protocols import hermitian_expm
from weylnet.symmetry import permutation_operator


def random_rho(n_nodes, rng):
    d = 2 ** n_nodes
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestPlacements:
    def test_lexicographic(self):
        assert placements(1, 2, 0, 3) == ("XYY", "YXY", "YYX")
        assert placements(0, 0, 2, 3) == ("IZZ", "ZIZ", "ZZI")

    def test_multiplicities(self):
        for n_nodes in range(1, 7):
            for a in range(n_nodes + 1):
                for b in range(n_nodes + 1 - a):
                    for g in range(n_nodes + 1 - a - b):
                        assert len(placements(a, b, g, n_nodes)) == collective.multiplicity(a, b, g, n_nodes)

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 6])
    def test_matches_permutation_oracle(self, n_nodes):
        for a in range(n_nodes + 1):
            for b in range(n_nodes + 1 - a):
                for g in range(n_nodes + 1 - a - b):
                    chars = "I" * (n_nodes - a - b - g) + "X" * a + "Y" * b + "Z" * g
                    assert placements(a, b, g, n_nodes) == oracles.arrangements(chars)

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5])
    def test_f_and_g_match_permutation_oracle(self, n_nodes):
        for z, gamma in oracles.f_labels(n_nodes):
            expected = []
            for plus in range(n_nodes + 1):
                minus, rest = plus - z, n_nodes - 2 * plus + z - gamma
                if minus >= 0 and rest >= 0:
                    expected += oracles.arrangements("I" * rest + "M" * minus + "P" * plus + "Z" * gamma)
            assert collective.f_placements(z, gamma, n_nodes) == tuple(sorted(expected))
        for m in oracles.g_labels(n_nodes):
            expected = []
            for a in range(m + 1):
                for b in range(m + 1 - a):
                    expected += oracles.arrangements("I" * (n_nodes - m) + "X" * a + "Y" * b + "Z" * (m - a - b))
            assert collective.g_placements(m, n_nodes) == tuple(sorted(expected))

    @pytest.mark.parametrize("build,match", [
        (lambda: placements(-1, 0, 0, 3), "counts"),
        (lambda: placements(2, 1, 1, 3), "counts"),
        (lambda: collective.multiplicity(-1, 0, 0, 3), "counts"),
        (lambda: collective.selective_to_collective(0, -1, 0, 0, 3), "counts"),
        (lambda: collective.f_placements(9, 0, 3), "counts"),
        (lambda: collective.f_placements(-2, 2, 3), "counts"),
        (lambda: collective.g_placements(5, 3), "counts"),
        (lambda: collective.g_placements(-1, 3), "counts"),
        (lambda: collective_operator(CollectiveLabel(0, 0, 0, 0), 0), "N=0"),
        (lambda: list(collective.family_operators("E", 0)), "N=0"),
        (lambda: collective.placement_operator([], []), r"lengths \[\]"),
        (lambda: collective.placement_operator([""], [1.0]), r"lengths \[0\]"),
        (lambda: collective.count_parameters("E0", -2), "N=-2"),
        (lambda: collective.enumerate_parameters("E0", -2), "N=-2"),
        (lambda: collective.count_parameters("E", 3), "'E'"),
        (lambda: collective.enumerate_parameters("H0", 3), "'H0'"),
    ], ids=["placements-negative", "placements-over-N", "multiplicity", "selective-to-collective",
            "f-net-flip", "f-flip-and-gamma", "g-over-N", "g-negative", "operator-no-nodes",
            "family-no-nodes", "placement-operator-empty", "placement-operator-no-nodes",
            "count-negative-N", "enumerate-negative-N", "count-unknown-name", "enumerate-unknown-name"])
    def test_out_of_range_counts_rejected(self, build, match):
        with pytest.raises(InputError, match=match):
            build()

    def test_large_classes_without_factorial_work(self):
        # deduplicating 12! permutations would take minutes
        assert placements(12, 0, 0, 12) == ("X" * 12,)
        assert placements(1, 0, 0, 12) == tuple("I" * (11 - k) + "X" + "I" * k for k in range(12))

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 6])
    def test_total_is_four_to_n(self, n_nodes):
        total = sum(collective.multiplicity(a, b, g, n_nodes)
                    for a in range(n_nodes + 1)
                    for b in range(n_nodes + 1 - a)
                    for g in range(n_nodes + 1 - a - b))
        assert total == 4 ** n_nodes


class TestOperators:
    def test_symmetric_z_pair(self):
        got = collective_operator(CollectiveLabel(0, 0, 1, 0), 2)
        oracle = np.kron(SIGMA_Z, ID2) + np.kron(ID2, SIGMA_Z)
        assert np.max(np.abs(got - oracle)) < 1e-14

    def test_antisymmetric_z_pair(self):
        got = collective_operator(CollectiveLabel(0, 0, 1, 1), 2)
        oracle = np.kron(ID2, SIGMA_Z) - np.kron(SIGMA_Z, ID2)
        # placement order is ("IZ", "ZI"); the phased member is their difference
        assert np.max(np.abs(got - oracle)) < 1e-14

    @pytest.mark.parametrize("build", [lambda: collective.selective_operator("XQ"),
                                       lambda: collective.placement_operator(["XQ"], [1.0])])
    def test_unknown_letter_rejected(self, build):
        with pytest.raises(InputError, match="'Q'"):
            build()

    def test_unequal_placement_lengths_rejected(self):
        with pytest.raises(InputError, match=r"lengths \[1, 2\]"):
            collective.placement_operator(["X", "XX"], [1, 1])

    def test_single_permutation_class(self):
        got = collective_operator(CollectiveLabel(2, 0, 0, 0), 2)
        assert np.max(np.abs(got - np.kron(SIGMA_X, SIGMA_X))) < 1e-14

    def test_count_b0_n4(self):
        assert sum(1 for _ in collective_labels(4, b_zero_only=True)) == 35

    @pytest.mark.parametrize("n_nodes", [2, 3])
    def test_orthonormality(self, n_nodes):
        labels = list(collective_labels(n_nodes))
        mats = {lab: collective_operator(lab, n_nodes) for lab in labels}
        for x in labels:
            om_x = collective.multiplicity(x.alpha, x.beta, x.gamma, n_nodes)
            for y in labels:
                inner = np.trace(mats[x] @ mats[y].conj().T)
                target = om_x * 2 ** n_nodes if x == y else 0.0
                assert abs(inner - target) < 1e-10, (x, y)

    def test_orthonormality_all_pairs_n4(self):
        labels = list(collective_labels(4))
        stack = np.array([collective_operator(lab, 4).ravel() for lab in labels])
        gram = stack @ stack.conj().T  # tr{E E'^dag} for every pair at once
        norms = np.array([collective.multiplicity(l.alpha, l.beta, l.gamma, 4) * 16
                          for l in labels])
        assert np.max(np.abs(gram - np.diag(norms))) < 1e-10

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_permutation_invariance_b0(self, n_nodes):
        perms = list(itertools.permutations(range(n_nodes)))
        for lab in collective_labels(n_nodes, b_zero_only=True):
            op = collective_operator(lab, n_nodes)
            for perm in perms:
                p = permutation_operator(perm)
                assert np.max(np.abs(p.conj().T @ op @ p - op)) < 1e-12


class TestDecomposition:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4])
    def test_round_trip_random(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        rho = random_rho(n_nodes, rng)
        coeffs = decompose_collective(rho, n_nodes)
        assert len(coeffs) == 4 ** n_nodes
        recon = reconstruct_collective(coeffs, n_nodes)
        assert np.max(np.abs(recon - rho)) < 1e-12

    @pytest.mark.parametrize("n_nodes", range(1, 8))
    def test_labels_come_in_label_order(self, n_nodes):
        dim = 2 ** n_nodes
        labels = list(decompose_collective(np.eye(dim) / dim, n_nodes))
        assert labels == sorted(labels) == list(collective_labels(n_nodes))

    def test_symmetric_state_has_b0_only(self):
        v = np.zeros(4, dtype=complex)
        v[1] = v[2] = 1 / np.sqrt(2)  # symmetric pair state
        coeffs = decompose_collective(np.outer(v, v.conj()), 2)
        for lab, value in coeffs.items():
            if lab.b != 0:
                assert abs(value) < 1e-12

    def test_asymmetric_state_has_phased_terms(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0  # |01><01|
        coeffs = decompose_collective(rho, 2)
        assert abs(coeffs[CollectiveLabel(0, 0, 1, 1)]) > 0.5

    def test_dimension_must_match_node_count(self):
        with pytest.raises(DimensionMismatch, match=r"dimension 4 is not 2\^3 = 8"):
            decompose_collective(np.eye(4) / 4, 3)
        with pytest.raises(InputError, match="dimension 3 is not a power of two"):
            decompose_collective(np.eye(3) / 3)
        with pytest.raises(DimensionMismatch, match=r"dimension 4 is not 2\^3 = 8"):
            decompose_collective(NetworkState.from_rho(np.eye(4) / 4, (2, 2)), 3)

    def test_maximally_mixed(self):
        coeffs = decompose_collective(np.eye(4) / 4, 2)
        for lab, value in coeffs.items():
            expect = 1.0 if lab == CollectiveLabel(0, 0, 0, 0) else 0.0
            assert abs(value - expect) < 1e-12


class TestSelectiveCollectiveTransform:
    def test_first_node_x(self):
        # the node-1 x factor is the phase-averaged collective pair
        oracle = np.kron(SIGMA_X, ID2)
        got = collective.selective_from_collective(1, 1, 0, 0, 2)
        # placements ("IX", "XI"): p=1 is "XI", acting on node 1
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_omega_one_identity_transform(self):
        got = collective.selective_from_collective(0, 0, 0, 2, 2)
        assert np.max(np.abs(got - np.kron(SIGMA_Z, SIGMA_Z))) < 1e-12

    def test_three_node_recovery(self):
        # placements of one y among three nodes: ("IIY", "IYI", "YII")
        oracle = kron_all([SIGMA_Y, ID2, ID2])
        got = collective.selective_from_collective(2, 0, 1, 0, 3)
        assert np.max(np.abs(got - oracle)) < 1e-12

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_full_round_trip(self, n_nodes):
        for a in range(n_nodes + 1):
            for b in range(n_nodes + 1 - a):
                for g in range(n_nodes + 1 - a - b):
                    strings = placements(a, b, g, n_nodes)
                    for p0, s in enumerate(strings):
                        got = collective.selective_from_collective(p0, a, b, g, n_nodes)
                        assert np.max(np.abs(got - collective.selective_operator(s))) < 1e-12


class TestFamilies:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 6])
    def test_parameter_counts(self, n_nodes):
        for family, closed in (("E0", (n_nodes + 1) * (n_nodes + 2) * (n_nodes + 3) // 6),
                               ("F0", (n_nodes + 1) ** 2),
                               ("G0", n_nodes + 1)):
            assert collective.count_parameters(family, n_nodes) == closed
            assert collective.enumerate_parameters(family, n_nodes) == closed

    def test_specific_counts(self):
        assert collective.count_parameters("E0", 4) == 35
        assert collective.count_parameters("F0", 4) == 25
        assert collective.count_parameters("G0", 7) == 8

    @pytest.mark.parametrize("family", ["E", "F", "G"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_completeness(self, family, n_nodes):
        labels = [lab for lab, _ in collective.family_operators(family, n_nodes)]
        assert len(labels) == 4 ** n_nodes
        rng = np.random.default_rng(hash(family) % 1000 + n_nodes)
        d = 2 ** n_nodes
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        coeffs, residual = collective.decompose_in_family(op, family, n_nodes)
        assert residual < 1e-10
        rebuilt = np.zeros((d, d), dtype=complex)
        for (lab, mat) in collective.family_operators(family, n_nodes):
            rebuilt += coeffs[lab] * mat
        assert np.max(np.abs(rebuilt - op)) < 1e-10

    def test_g_group_sizes(self):
        for n_nodes in (2, 3, 4):
            for m in range(n_nodes + 1):
                assert len(collective.g_placements(m, n_nodes)) == math.comb(n_nodes, m) * 3 ** m


class TestModelInvariants:
    def test_foerster_eigensystem(self):
        omega, c_f = 0.9, 0.45
        inv = collective.hamiltonian_invariants("foerster", omega=omega, c_f=c_f)
        for energy, vec in collective.foerster_eigensystem(omega, c_f):
            assert np.linalg.norm(inv.hamiltonian @ vec - energy * vec) < 1e-12

    def test_foerster_eigenprojector_expansions(self):
        # |00><00| = (1 + E_002 - E_001)/4 and |11><11| = (1 + E_002 + E_001)/4
        e001 = collective_operator(CollectiveLabel(0, 0, 1, 0), 2)
        e002 = collective_operator(CollectiveLabel(0, 0, 2, 0), 2)
        e200 = collective_operator(CollectiveLabel(2, 0, 0, 0), 2)
        e020 = collective_operator(CollectiveLabel(0, 2, 0, 0), 2)
        eye = np.eye(4)
        p00 = np.zeros((4, 4), dtype=complex); p00[0, 0] = 1
        p11 = np.zeros((4, 4), dtype=complex); p11[3, 3] = 1
        plus = np.zeros(4, dtype=complex); plus[1] = plus[2] = 1 / np.sqrt(2)
        minus = np.zeros(4, dtype=complex); minus[1] = 1 / np.sqrt(2); minus[2] = -1 / np.sqrt(2)
        assert np.max(np.abs(p00 - (eye + e002 - e001) / 4)) < 1e-12
        assert np.max(np.abs(p11 - (eye + e002 + e001) / 4)) < 1e-12
        assert np.max(np.abs(np.outer(plus, plus.conj())
                             - (eye - e002 + e200 + e020) / 4)) < 1e-12
        assert np.max(np.abs(np.outer(minus, minus.conj())
                             - (eye - e002 - e200 - e020) / 4)) < 1e-12

    @pytest.mark.parametrize("model,params", [
        ("foerster", {"omega": 1.0, "c_f": 0.5}),
        ("renormalization", {"omega_1": 1.1, "omega_2": 0.4, "c_r": 0.3}),
        ("stimulation", {"g": 1.0, "delta": 0.5}),
    ])
    def test_invariants_constant(self, model, params):
        inv = collective.hamiltonian_invariants(model, **params)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[1, 1] = 1.0  # asymmetric initial state
        report = collective.verify_invariants(inv, rho0, total_time=20.0)
        assert report.failed() == []

    def test_zero_hamiltonian_conserves_everything(self):
        rng = np.random.default_rng(5)
        rho0 = random_rho(2, rng)
        coeffs0 = decompose_collective(rho0, 2)
        # all expectation values static under H = 0
        u = hermitian_expm(np.zeros((4, 4)), 3.0)
        coeffs1 = decompose_collective(u @ rho0 @ u.conj().T, 2)
        for lab in coeffs0:
            assert abs(coeffs0[lab] - coeffs1[lab]) < 1e-12

    def test_cubic_invariant_needs_broken_symmetry(self):
        g, delta = 1.0, 0.5
        inv = collective.hamiltonian_invariants("stimulation", g=g, delta=delta)
        cubic = inv.expressions[2]
        # asymmetric state: nonzero antisymmetric coefficient, constant in time
        rho_asym = np.zeros((4, 4), dtype=complex)
        rho_asym[1, 1] = 1.0
        coeffs = decompose_collective(rho_asym, 2)
        assert abs(coeffs[CollectiveLabel(0, 0, 1, 1)]) > 0.5
        report = collective.verify_invariants(inv, rho_asym, total_time=20.0)
        assert report.max_drift["cubic"] < 1e-8 * (1 + abs(report.values_at_zero["cubic"]))
        # permutation-symmetric state: every phased coefficient vanishes
        v = np.zeros(4, dtype=complex)
        v[1] = v[2] = 1 / np.sqrt(2)
        coeffs_sym = decompose_collective(np.outer(v, v.conj()), 2)
        assert abs(coeffs_sym[CollectiveLabel(0, 0, 1, 1)]) < 1e-12
        assert abs(coeffs_sym[CollectiveLabel(1, 0, 0, 1)]) < 1e-12

    def test_invariant_drift_detection(self):
        # a deliberately non-conserved expression must be flagged
        inv = collective.hamiltonian_invariants("stimulation", g=1.0, delta=0.5)
        bogus = collective.InvariantSet(
            model="stimulation",
            hamiltonian=inv.hamiltonian,
            n_nodes=2,
            expressions=(collective.InvariantExpression(
                "not_conserved", ((1.0, CollectiveLabel(0, 0, 1, 0)),
                                  (1.0, CollectiveLabel(1, 0, 0, 0)))),),
        )
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        report = collective.verify_invariants(bogus, rho0, total_time=20.0)
        assert report.failed() == ["not_conserved"]

    def test_unknown_model_rejected(self):
        with pytest.raises(InputError):
            collective.hamiltonian_invariants("unknown")

    @pytest.mark.parametrize("params,named", [
        ({"omega": 1.0}, "c_f"),
        ({"omega": 1.0, "c_f": 0.5, "gamma": 2.0}, "gamma"),
    ], ids=["missing", "unknown"])
    def test_model_parameters_checked(self, params, named):
        with pytest.raises(InputError, match=named):
            collective.hamiltonian_invariants("foerster", **params)

    @pytest.mark.parametrize("model, params, named", [
        ("foerster", {"omega": np.nan, "c_f": 0.5}, "omega"),
        ("renormalization", {"omega_1": 1.1, "omega_2": 0.4, "c_r": np.inf}, "c_r"),
        ("stimulation", {"g": 1.0, "delta": 1j}, "delta"),
    ], ids=["nan", "inf", "complex"])
    def test_non_finite_parameters_rejected(self, model, params, named):
        with pytest.raises(InputError, match=f"parameter {named} must be a finite real"):
            collective.hamiltonian_invariants(model, **params)

    @pytest.mark.parametrize("total_time", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, total_time):
        inv = collective.hamiltonian_invariants("stimulation", g=1.0, delta=0.5)
        with pytest.raises(InputError, match="total_time"):
            collective.verify_invariants(inv, np.eye(4) / 4, total_time)
