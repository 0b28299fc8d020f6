"""The monomial product kernel and every builder routed through it, against Kronecker oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylnet import basis, cat, collective, commuting, protocols, symmetry
from weylnet.cluster import ProductLabel, cluster_operator, kron_all
from weylnet.errors import DimensionMismatch, InputError

# derandomized so every run checks the same examples; no example database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
TOL = 1e-12

seeds = st.integers(0, 2 ** 32 - 1)
mixed_dims = st.lists(st.integers(2, 5), min_size=1, max_size=4).map(tuple)


def random_labels(dims, count, rng):
    """(a, b) index arrays of shape (count, N) with entries below each node's dimension."""
    a = np.stack([rng.integers(n, size=count) for n in dims], axis=1)
    b = np.stack([rng.integers(n, size=count) for n in dims], axis=1)
    return a, b


def random_monomial(n, rng):
    """A random n x n matrix with one entry per column on a random permutation, some zero."""
    m = np.zeros((n, n), dtype=complex)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    values[rng.random(n) < 0.3] = 0
    m[rng.permutation(n), np.arange(n)] = values
    return m


def oracle_member(family, label, n_nodes):
    """Dense oracle of the family member with the given label."""
    if family == "E":
        return oracles.collective_operator(label, n_nodes)
    return (oracles.f_operator if family == "F" else oracles.g_operator)(*label, n_nodes)


class TestKernel:
    @PROPERTY
    @given(mixed_dims, seeds)
    def test_weyl_labels_match_kronecker(self, dims, seed):
        rng = np.random.default_rng(seed)
        a, b = random_labels(dims, 3, rng)
        for ak, bk in zip(a, b):
            label = ProductLabel(tuple(zip(ak.tolist(), bk.tolist())), dims)
            assert np.max(np.abs(cluster_operator(label) - oracles.cluster_operator(label))) < TOL
        weights = rng.normal(size=3) + 1j * rng.normal(size=3)
        want = sum(w * oracles.product_unitary(list(zip(ak, bk)), dims)
                   for w, ak, bk in zip(weights, a, b))
        got = basis.product_operator(basis.weyl_factors(a, b, dims), weights)
        assert np.max(np.abs(got - want)) < TOL

    @PROPERTY
    @given(mixed_dims, seeds, st.integers(0, 2))
    def test_vector_form_matches_dense(self, dims, seed, extra):
        rng = np.random.default_rng(seed)
        a, b = random_labels(dims, 4, rng)
        d = math.prod(dims)
        psi = rng.normal(size=(d,) + (3,) * extra) + 1j * rng.normal(size=(d,) + (3,) * extra)
        images = basis.apply_products(basis.weyl_factors(a, b, dims), psi)
        assert images.shape == (4,) + psi.shape
        for ak, bk, image in zip(a, b, images):
            want = np.tensordot(oracles.product_unitary(list(zip(ak, bk)), dims), psi, axes=1)
            assert np.max(np.abs(image - want)) < TOL

    @PROPERTY
    @given(mixed_dims, seeds)
    def test_general_monomial_factors(self, dims, seed):
        # digit maps that are not shifts, and values with zeros (as sigma_+- have)
        rng = np.random.default_rng(seed)
        mats = [[random_monomial(n, rng) for n in dims] for _ in range(3)]
        factors = []
        for node in range(len(dims)):
            maps, values = zip(*(basis.monomial_factor(m[node]) for m in mats))
            factors.append((np.array(maps), np.array(values)))
        weights = rng.normal(size=3)
        dense = [kron_all(m) for m in mats]
        got = basis.product_operator(factors, weights)
        assert np.max(np.abs(got - sum(w * m for w, m in zip(weights, dense)))) < TOL
        psi = rng.normal(size=math.prod(dims)) + 0j
        for image, m in zip(basis.apply_products(factors, psi), dense):
            assert np.max(np.abs(image - m @ psi)) < TOL

    def test_weyl_matrix_matches_entrywise_loop(self):
        for n in range(2, 9):
            for a in range(n):
                for b in range(n):
                    got = basis.weyl_matrix(basis.WeylIndex(a, b, n))
                    assert np.array_equal(got, oracles.weyl_matrix(a, b, n))

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            basis.monomial_factor(np.ones((2, 2)))
        with pytest.raises(InputError):
            basis.monomial_factor(np.ones((2, 3)))
        with pytest.raises(InputError):
            basis.weyl_factors([2], [0], (2,))
        with pytest.raises(InputError):
            basis.weyl_factors([0, -1], [0, 0], (2, 3))
        with pytest.raises(DimensionMismatch):
            basis.apply_products(basis.weyl_factors([1], [1], (3,)), np.ones(4))


class TestBuilders:
    @PROPERTY
    @given(st.sampled_from("EFG"), st.integers(1, 5), st.data())
    def test_family_members_match_kronecker(self, family, n_nodes, data):
        ranks = set(data.draw(st.lists(st.integers(0, 4 ** n_nodes - 1), min_size=1, max_size=3)))
        for rank, (label, got) in enumerate(collective.family_operators(family, n_nodes)):
            if rank in ranks:
                assert np.max(np.abs(got - oracle_member(family, label, n_nodes))) < TOL, label
                if family == "E":
                    assert np.array_equal(collective.collective_operator(label, n_nodes), got)
            if rank == max(ranks):
                break

    @PROPERTY
    @given(st.integers(1, 5), st.data())
    def test_selective_from_collective(self, n_nodes, data):
        alpha = data.draw(st.integers(0, n_nodes))
        beta = data.draw(st.integers(0, n_nodes - alpha))
        gamma = data.draw(st.integers(0, n_nodes - alpha - beta))
        strings = collective.placements(alpha, beta, gamma, n_nodes)
        p0 = data.draw(st.integers(0, len(strings) - 1))
        got = collective.selective_from_collective(p0, alpha, beta, gamma, n_nodes)
        assert np.max(np.abs(got - oracles.selective_operator(strings[p0]))) < TOL

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 6])
    def test_collective_spin(self, n_nodes):
        for got, want in zip(symmetry.collective_spin(n_nodes), oracles.collective_spin(n_nodes)):
            assert np.max(np.abs(got - want)) < TOL

    @PROPERTY
    @given(st.integers(2, 6), seeds, st.booleans())
    def test_network_zz_hamiltonian(self, n_nodes, seed, with_frequencies):
        rng = np.random.default_rng(seed)
        pairs = [(mu, nu) for mu in range(n_nodes) for nu in range(mu + 1, n_nodes)]
        chosen = rng.permutation(len(pairs))[:rng.integers(len(pairs) + 1)]
        couplings = {pairs[i]: rng.normal() for i in chosen}
        freqs = rng.normal(size=rng.integers(1, n_nodes + 1)).tolist() if with_frequencies else None
        got = protocols.network_zz_hamiltonian(n_nodes, couplings, freqs)
        assert np.max(np.abs(got - oracles.network_zz_hamiltonian(n_nodes, couplings, freqs))) < TOL

    def test_network_zz_bad_inputs(self):
        with pytest.raises(InputError):
            protocols.network_zz_hamiltonian(2, {(1, 0): 0.2})
        with pytest.raises(InputError):
            protocols.network_zz_hamiltonian(2, {}, [1.0, 2.0, 3.0])
        with pytest.raises(InputError, match="node pairs"):
            protocols.network_zz_hamiltonian(3, {(0.5, 1): 1.0})  # was Z on node 1 alone
        with pytest.raises(InputError, match="node pairs"):
            protocols.network_zz_hamiltonian(3, {(0, 1, 2): 1.0})
        with pytest.raises(InputError, match="node pairs"):
            protocols.network_zz_hamiltonian(3, {1: 1.0})
        with pytest.raises(InputError, match=r"coupling \(0, 2\)"):
            protocols.network_zz_hamiltonian(3, {(0, 2): float("nan")})
        with pytest.raises(InputError, match="frequency of node 0"):
            protocols.network_zz_hamiltonian(3, {}, [float("-inf")])

    @pytest.mark.parametrize("n, label", [(2, (1, 0, 1)), (3, (2, 1)), (4, (3, 2, 1))])
    def test_cat_from_base(self, n, label):
        ops = [basis.weyl_matrix(basis.WeylIndex(0, label[0], n))]
        ops += [basis.weyl_matrix(basis.WeylIndex(c, 0, n)) for c in label[1:]]
        want = kron_all(ops) @ cat.cat_state(n, (0,) * len(label))
        assert np.max(np.abs(cat.cat_from_base(n, label) - want)) < TOL
        with pytest.raises(InputError):
            cat.cat_from_base(n, (n,) + label[1:])


class TestSymplecticForm:
    @PROPERTY
    @given(st.integers(2, 20), st.integers(1, 4), seeds)
    def test_matches_loop(self, n, n_nodes, seed):
        # n spans the int8/int16 boundary of the accumulator dtype
        rng = np.random.default_rng(seed)
        x = rng.integers(n, size=(5, 2 * n_nodes))
        y = rng.integers(n, size=(4, 2 * n_nodes))
        got = commuting.symplectic_form(x, y, n)
        want = [[oracles.symplectic(v.tolist(), w.tolist(), n) for w in y] for v in x]
        assert np.array_equal(got, want)

    def test_commute_matrix_memory(self):
        # the search's commutation matrix over the 4096 pure (3, 4) label rows
        rows = commuting._pure_rows(3, 4)
        tracemalloc.start()
        try:
            commute = commuting.symplectic_form(rows, rows, 3) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert commute.shape == (4096, 4096)
        assert peak < 4 * commute.nbytes

    def test_completion_scan_memory(self):
        # one member, so the scan adjoins nine vectors; all of Z_2^20 as int64 would be 8.4 MB
        members = commuting.construct_method_a(2, 10).members
        tracemalloc.start()
        try:
            group, generators = commuting._complete_group(members, 2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(group) == 2 ** 10 and len(generators) == 10
        assert peak < 4e6

    @pytest.mark.parametrize("n, n_nodes", [
        (2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (2, 8), (3, 4), (4, 3)])
    def test_completion_matches_scan(self, n, n_nodes):
        # subsets of commuting sets, so the scan has vectors to adjoin, and
        # the full sets, whose closure alone completes the group
        rng = np.random.default_rng(n * 10 + n_nodes)
        sets = [commuting.construct_method_a(n, n_nodes), commuting.construct_method_b(n, n_nodes)]
        for cset in sets:
            for size in (0, 1, 2, cset.size):
                pick = rng.permutation(cset.size)[:size]
                members = [cset.members[i] for i in sorted(pick)]
                group, generators = commuting._complete_group(members, n, n_nodes)
                want_group, want_generators = oracles.complete_group(members, n, n_nodes)
                assert list(map(tuple, group.tolist())) == sorted(want_group)
                assert generators == want_generators


class TestIndexArithmetic:
    @pytest.mark.parametrize("n, n_nodes", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (4, 3), (5, 2)])
    def test_cat_seed_clique_matches_phase_sums(self, n, n_nodes):
        rows = commuting._pure_rows(n, n_nodes)
        assert commuting.cat_seed_clique(rows, n) == oracles.cat_seed_clique(n, n_nodes)

    @pytest.mark.parametrize("perm", [(0,), (1, 0), (2, 0, 1), (1, 2, 0), (3, 1, 0, 2), (4, 2, 0, 1, 3)])
    def test_permutation_operator_matches_bitwise_loop(self, perm):
        assert np.array_equal(symmetry.permutation_operator(perm), oracles.permutation_operator(perm))
