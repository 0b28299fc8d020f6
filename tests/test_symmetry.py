"""Permutation symmetry classes, superselection, symmetry breaking."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylnet import symmetry
from weylnet.collective import collective_labels, collective_operator
from weylnet.errors import CapExceeded, InputError
from weylnet.symmetry import (
    FOUR_NODE_CLASS_TABLE,
    class_weights,
    permutation_operator,
    spin_basis,
    superselection_check,
    symmetry_breaking_scenario,
    young_basis_n4,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestPermutationOperators:
    def test_unitary_and_homomorphism(self):
        perms = list(itertools.permutations(range(3)))
        mats = {p: permutation_operator(p) for p in perms}
        for p in perms:
            m = mats[p]
            assert np.max(np.abs(m.conj().T @ m - np.eye(8))) < 1e-14
        for p in perms:
            for q in perms:
                compose = tuple(p[q[i]] for i in range(3))
                assert np.max(np.abs(mats[p] @ mats[q] - mats[compose])) < 1e-14

    def test_swap_action(self):
        swap = permutation_operator((1, 0))
        v = np.zeros(4); v[0b01] = 1.0  # |01>
        assert np.argmax(np.abs(swap @ v)) == 0b10

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            permutation_operator((0, 0, 1))

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_commutes_with_symmetric_collective(self, n_nodes):
        for lab in collective_labels(n_nodes, b_zero_only=True):
            op = collective_operator(lab, n_nodes)
            for perm in itertools.permutations(range(n_nodes)):
                p = permutation_operator(perm)
                assert np.max(np.abs(op @ p - p @ op)) < 1e-12


class TestSpinBasis:
    def test_two_nodes(self):
        classes = spin_basis(2)
        listing = sorted((c.j, c.multiplicity) for c in classes)
        assert listing == [(0.0, 1), (1.0, 1)]

    def test_four_nodes(self):
        classes = spin_basis(4)
        listing = sorted((c.j, c.multiplicity) for c in classes)
        assert listing == [(0.0, 2), (1.0, 3), (2.0, 1)]

    @pytest.mark.parametrize("n_nodes", list(range(1, 9)))
    def test_dimension_bookkeeping(self, n_nodes):
        total_dim, param, xi0 = symmetry.parameter_count_identity(n_nodes)
        assert total_dim == 2 ** n_nodes
        assert param == xi0

    def test_six_nodes_parameter_count(self):
        _, param, _ = symmetry.parameter_count_identity(6)
        assert param == 84  # 7*8*9/6

    @pytest.mark.parametrize("n_nodes", range(1, 11))
    def test_matches_dense_oracle(self, n_nodes):
        # the oracle spans each class by another orthonormal basis, so compare
        # projectors, then check S_z and the lowering that aligns the copies
        got, want = spin_basis(n_nodes), oracles.spin_basis(n_nodes)
        assert [(c.j, c.multiplicity) for c in got] == [(c.j, c.multiplicity) for c in want]
        sx, sy, sz = oracles.collective_spin(n_nodes)
        s_minus = sx - 1j * sy
        for g, w in zip(got, want):
            rows, oracle_rows = (c.vectors.reshape(-1, 2 ** n_nodes) for c in (g, w))
            assert np.max(np.abs(rows.T @ rows.conj() - oracle_rows.T @ oracle_rows.conj())) < 1e-12
            m = g.j - np.arange(g.degeneracy)
            assert np.max(np.abs(g.vectors @ sz.T - m[:, None] * g.vectors)) < 1e-12
            step = np.sqrt(g.j * (g.j + 1) - m[:-1] * (m[:-1] - 1))[:, None]
            lowered = g.vectors[:, :-1] @ s_minus.T - step * g.vectors[:, 1:]
            assert np.max(np.abs(lowered), initial=0.0) < 1e-12

    def test_vector_bytes_do_not_depend_on_blas_threads(self):
        # spin_basis(9) and spin_basis(10) built with one and with two BLAS threads
        script = ("import hashlib; from weylnet.symmetry import spin_basis; "
                  "print([hashlib.sha256(c.vectors.tobytes()).hexdigest() "
                  "for n in (9, 10) for c in spin_basis(n)])")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout)
        assert digests[0] == digests[1]

    def test_builds_no_dense_spin_operators(self, monkeypatch):
        def refuse(n_nodes):
            raise AssertionError("dense collective spin built")

        monkeypatch.setattr(symmetry, "collective_spin", refuse)
        classes = spin_basis(9)
        assert sum(c.multiplicity * c.degeneracy for c in classes) == 2 ** 9

    def test_orthonormal_eigenvectors(self):
        sx, sy, sz = symmetry.collective_spin(3)
        s2 = sx @ sx + sy @ sy + sz @ sz
        for cls in spin_basis(3):
            for r in range(cls.multiplicity):
                for k, vec in enumerate(cls.vectors[r]):
                    m = cls.j - k
                    assert np.linalg.norm(s2 @ vec - cls.j * (cls.j + 1) * vec) < 1e-10
                    assert np.linalg.norm(sz @ vec - m * vec) < 1e-10
                    assert abs(np.linalg.norm(vec) - 1) < 1e-10

    def test_cap(self):
        with pytest.raises(CapExceeded):
            spin_basis(11)

    @pytest.mark.parametrize("n_nodes", [0, -2, 2.5, True, "3"])
    def test_nonpositive_nodes_rejected(self, n_nodes):
        with pytest.raises(InputError, match=f"got {n_nodes!r}"):
            spin_basis(n_nodes)


class TestGoldenTable:
    def test_sixteen_unit_vectors(self):
        table = young_basis_n4()
        assert len(table) == 16
        for cv in table:
            assert abs(np.linalg.norm(cv.vector()) - 1) < 1e-12

    def test_class_sizes(self):
        by_j = {}
        for cv in FOUR_NODE_CLASS_TABLE:
            by_j[cv.j] = by_j.get(cv.j, 0) + 1
        assert by_j == {2: 5, 1: 9, 0: 2}

    def test_specific_rows(self):
        by_key = {(cv.config, cv.j, cv.tableau): cv.vector() for cv in FOUR_NODE_CLASS_TABLE}
        v = by_key[("0011", 0, "12|34")]
        expect = np.zeros(16, dtype=complex)
        for ket, amp in [("0011", .5), ("0110", -.5), ("1001", -.5), ("1100", .5)]:
            expect[int(ket, 2)] = amp
        assert np.max(np.abs(v - expect)) < 1e-14
        v = by_key[("1111", 2, "1234")]
        assert abs(v[0b1111] - 1) < 1e-14
        v = by_key[("0111", 1, "134|2")]
        assert abs(v[int("0111", 2)] - 1 / np.sqrt(2)) < 1e-14
        assert abs(v[int("1011", 2)] + 1 / np.sqrt(2)) < 1e-14

    def test_orthogonality_except_paired_singlets(self):
        table = young_basis_n4()
        vecs = [cv.vector() for cv in table]
        for i in range(16):
            for j in range(i + 1, 16):
                overlap = abs(np.vdot(vecs[i], vecs[j]))
                if table[i].j == 0 and table[j].j == 0:
                    # different singlet pairings overlap by exactly 1/2
                    assert abs(overlap - 0.5) < 1e-12
                else:
                    assert overlap < 1e-12

    def test_projector_consistency(self):
        # every tabulated vector lies inside its (j, m) eigenspace
        sx, sy, sz = symmetry.collective_spin(4)
        s2 = sx @ sx + sy @ sy + sz @ sz
        for cv in FOUR_NODE_CLASS_TABLE:
            v = cv.vector()
            assert np.linalg.norm(s2 @ v - cv.j * (cv.j + 1) * v) < 1e-10
            assert np.linalg.norm(sz @ v - cv.m * v) < 1e-10


class TestClassWeights:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_projectors(self, n_nodes, rank, seed):
        # rank 1 draws a pure state; the trace is left free
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(2 ** n_nodes, rank)) + 1j * rng.normal(size=(2 ** n_nodes, rank))
        rho = v @ v.conj().T
        got = class_weights(rho)
        want = {j: np.vdot(p, rho).real for j, p in oracles.spin_projectors(n_nodes).items()}
        assert list(got) == list(want)
        assert all(type(w) is float and abs(w - want[j]) < 1e-12 * np.trace(rho).real
                   for j, w in got.items())
        assert abs(sum(got.values()) - np.trace(rho).real) < 1e-12 * np.trace(rho).real

    def test_stack_gives_each_members_weights(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        stack = psi[:, :, None] * psi[:, None, :].conj()
        got = class_weights(stack)
        for k, rho in enumerate(stack):
            assert {j: w[k] for j, w in got.items()} == pytest.approx(class_weights(rho), abs=1e-14)

    @pytest.mark.parametrize("rho, error", [
        (np.zeros((4, 2)), InputError),
        (np.zeros(4), InputError),
        (np.zeros((0, 0)), InputError),
        (np.eye(1), InputError),
        (np.eye(3), InputError),
        (np.zeros((2, 3, 3)), InputError),
        (np.broadcast_to(0.0, (2 ** 11, 2 ** 11)), CapExceeded),
    ], ids=["non-square", "vector", "empty", "no-nodes", "dim-3", "stack-dim-3", "dim-2^11"])
    def test_bad_shapes_refused(self, rho, error):
        with pytest.raises(error):
            class_weights(rho)


class TestSuperselection:
    def test_four_nodes(self):
        rep = superselection_check(4)
        assert rep.max_cross_j_element < 1e-10
        assert rep.max_cross_copy_element < 1e-10
        assert rep.max_copy_mismatch < 1e-10
        assert rep.operator_count == 35
        assert rep.parameter_count == 35
        assert rep.independent_rank == 35

    def test_three_nodes(self):
        rep = superselection_check(3)
        assert rep.max_cross_j_element < 1e-10
        assert rep.operator_count == rep.parameter_count == rep.independent_rank == 20

    @pytest.mark.parametrize("n_nodes", range(1, 7))
    def test_matches_pairwise_blocks(self, n_nodes):
        got, want = superselection_check(n_nodes), oracles.superselection_check(n_nodes)
        for field in ("max_cross_j_element", "max_cross_copy_element", "max_copy_mismatch"):
            assert abs(getattr(got, field) - getattr(want, field)) < 1e-12
        assert (got.n_nodes, got.operator_count, got.parameter_count, got.independent_rank) == (
            want.n_nodes, want.operator_count, want.parameter_count, want.independent_rank)

    def test_seven_nodes_and_cap(self):
        rep = superselection_check(7)
        assert rep.operator_count == rep.parameter_count == rep.independent_rank == 120
        assert max(rep.max_cross_j_element, rep.max_cross_copy_element, rep.max_copy_mismatch) < 1e-10
        with pytest.raises(CapExceeded, match="N <= 7, got 8"):
            superselection_check(8)

    def test_cross_class_elements_of_golden_vectors(self):
        vecs = {cv.j: [] for cv in FOUR_NODE_CLASS_TABLE}
        for cv in FOUR_NODE_CLASS_TABLE:
            vecs[cv.j].append(cv.vector())
        worst = 0.0
        for lab in collective_labels(4, b_zero_only=True):
            op = collective_operator(lab, 4)
            for ji, jk in itertools.combinations(sorted(vecs), 2):
                for a in vecs[ji]:
                    for b in vecs[jk]:
                        worst = max(worst, abs(a.conj() @ op @ b))
        assert worst < 1e-10

    def test_ground_state_stays_in_top_class(self):
        p = oracles.spin_projectors(4)
        ground = np.zeros(16, dtype=complex)
        ground[0] = 1.0
        for lab in collective_labels(4, b_zero_only=True):
            image = collective_operator(lab, 4) @ ground
            outside = image - p[2.0] @ image
            assert np.linalg.norm(outside) < 1e-10

    def test_singlet_block_is_one_dimensional(self):
        # two-node antisymmetric state: eigenvector of every symmetric member
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        for lab in collective_labels(2, b_zero_only=True):
            op = collective_operator(lab, 2)
            image = op @ singlet
            expect = np.vdot(singlet, image) * singlet
            assert np.linalg.norm(image - expect) < 1e-12


class TestScenario:
    def test_full_sequence(self):
        rep = symmetry_breaking_scenario()
        assert abs(rep.initial_weights[2.0] - 1.0) < 1e-10
        assert abs(rep.prepared_weights[1.0] - 1.0) < 1e-10
        assert rep.max_leakage < 1e-10
        assert abs(rep.pair_singlet_weights[0.0] - 1.0) < 1e-10
        assert rep.pair_singlet_scalar_residual < 1e-10

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"total_time": float("nan")}, InputError, "total_time must be a finite real number, got nan"),
        ({"total_time": float("inf")}, InputError, "got inf"),
        ({"steps": -3}, InputError, "steps >= 1, got -3"),
        ({"steps": 2.5}, InputError, "got 2.5"),
        ({"steps": 10 ** 9}, CapExceeded, "got 1000000000"),
    ], ids=["nan-time", "inf-time", "negative-steps", "fractional-steps", "huge-steps"])
    def test_bad_inputs_named(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            symmetry_breaking_scenario(**kwargs)
