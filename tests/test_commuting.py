"""Commuting cluster-operator sets: criterion, constructions, search, eigenstates."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylnet import basis, cluster, commuting
from weylnet.cluster import NetworkState, cluster_operator, label_from_entries
from weylnet.errors import CapExceeded, InputError

# expected table values: (n, N) -> (A, B, D)
SIZE_TABLE = {
    (2, 1): (1, 1, 1), (2, 2): (1, 3, 3), (2, 3): (1, 3, 7),
    (2, 4): (1, 9, 15), (2, 5): (1, 9, 31), (2, 6): (1, 27, 63),
    (3, 1): (2, 2, 2), (3, 2): (4, 8, 8), (3, 3): (8, 16, 26),
    (3, 4): (16, 64, 80), (3, 5): (32, 128, 242), (3, 6): (64, 512, 728),
    (4, 1): (3, 3, 3), (4, 2): (9, 15, 15), (4, 3): (27, 45, 63),
    # the mirrored-pair sizes follow (n^2-1)^(N/2), times (n-1) for odd N;
    # the symplectic cancellation is exact for every n, composite included,
    # so the n=4 cells are 225 and 675 (matrix-verified below)
    (4, 4): (81, 225, 255), (4, 5): (243, 675, 1023),
}

# exact maximum-commuting-set sizes where exhaustive search is feasible
EXACT_C = {(2, 1): 1, (2, 2): 3, (2, 3): 4, (2, 4): 9, (2, 5): 16, (2, 6): 33,
           (3, 1): 2, (3, 2): 8, (3, 3): 20, (4, 1): 3, (4, 2): 15}

# the six maximal two-qubit families, indices as tabulated
SIX_SETS_N2 = [
    [((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1))],
    [((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))],
    [((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1))],
    [((0, 1), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1))],
    [((0, 1), (1, 1)), ((1, 0), (0, 1)), ((1, 1), (1, 0))],
    [((0, 1), (1, 1)), ((1, 0), (1, 0)), ((1, 1), (0, 1))],
]


def make_set(entries_list, n):
    dims = (n,) * len(entries_list[0])
    members = tuple(label_from_entries(e, dims) for e in entries_list)
    return commuting.CommutingSet(n=n, n_nodes=len(dims), members=members, method="C-exact")


def row_labels(rows, n):
    """One label per index row (a_1, b_1, ..., a_N, b_N)."""
    dims = (n,) * (rows.shape[1] // 2)
    return [label_from_entries(zip(v[0::2], v[1::2]), dims) for v in rows.tolist()]


class TestCommuteCheck:
    def test_self(self):
        x = label_from_entries([(1, 1), (0, 1)], (3, 3))
        assert commuting.commute_check(x, x)

    def test_tabulated_pair(self):
        x = label_from_entries([(1, 0), (1, 0)], (2, 2))
        y = label_from_entries([(0, 1), (0, 1)], (2, 2))
        assert commuting.commute_check(x, y)

    def test_single_node_anticommuting(self):
        x = label_from_entries([(1, 0)], (2,))
        y = label_from_entries([(0, 1)], (2,))
        assert not commuting.commute_check(x, y)
        mx, my = cluster_operator(x), cluster_operator(y)
        assert np.max(np.abs(mx @ my + my @ mx)) < 1e-12  # they anticommute

    @pytest.mark.parametrize("n,n_nodes", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
    def test_matches_matrix_commutator(self, n, n_nodes):
        rng = np.random.default_rng(97 * n + n_nodes)
        dims = (n,) * n_nodes
        for _ in range(1200):
            ex = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(n_nodes)]
            ey = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(n_nodes)]
            x, y = label_from_entries(ex, dims), label_from_entries(ey, dims)
            mx, my = cluster_operator(x), cluster_operator(y)
            matrix_commute = np.max(np.abs(mx @ my - my @ mx)) < 1e-12
            assert commuting.commute_check(x, y) == matrix_commute


class TestConstructions:
    @pytest.mark.parametrize("n,n_nodes", list(SIZE_TABLE))
    def test_sizes(self, n, n_nodes):
        a_size, b_size, d = SIZE_TABLE[(n, n_nodes)]
        assert commuting.method_a_size(n, n_nodes) == a_size
        assert commuting.method_b_size(n, n_nodes) == b_size
        assert commuting.bound_d(n, n_nodes) == d
        if a_size <= 1000:
            assert commuting.construct_method_a(n, n_nodes).size == a_size
        if b_size <= 1000:
            assert commuting.construct_method_b(n, n_nodes).size == b_size

    @pytest.mark.parametrize("n,n_nodes", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_pairwise_matrix_level(self, n, n_nodes):
        for cs in (commuting.construct_method_a(n, n_nodes),
                   commuting.construct_method_b(n, n_nodes)):
            assert cs.verify_pairwise() and oracles.commutes_pairwise(cs.members)
            assert all(m.cluster_size == n_nodes for m in cs.members)

    @pytest.mark.parametrize("n,n_nodes", [(2, 5), (3, 4), (4, 3), (4, 4)])
    def test_pairwise_index_level(self, n, n_nodes):
        for cs in (commuting.construct_method_a(n, n_nodes),
                   commuting.construct_method_b(n, n_nodes)):
            assert cs.verify_pairwise()

    def test_method_b_sampled_matrix_level_n4(self):
        cs = commuting.construct_method_b(4, 4)
        rng = np.random.default_rng(0)
        picks = rng.choice(cs.size, size=12, replace=False)
        for i in picks[:6]:
            for j in picks[6:]:
                mx = cluster_operator(cs.members[int(i)])
                my = cluster_operator(cs.members[int(j)])
                assert np.max(np.abs(mx @ my - my @ mx)) < 1e-12

    def test_six_tabulated_sets_commute(self):
        for entries in SIX_SETS_N2:
            cs = make_set(entries, 2)
            assert cs.verify_pairwise() and oracles.commutes_pairwise(cs.members)


class TestSearch:
    @pytest.mark.parametrize("n,n_nodes", list(EXACT_C))
    def test_exact_values(self, n, n_nodes):
        result = commuting.search_max_commuting(n, n_nodes, budget=10 ** 8)
        assert result.exact
        assert result.commuting_set.size == EXACT_C[(n, n_nodes)]
        assert result.commuting_set.verify_pairwise()

    def test_result_never_below_constructions(self):
        for n, n_nodes in [(2, 3), (3, 2)]:
            result = commuting.search_max_commuting(n, n_nodes, budget=10)
            floor = max(commuting.method_a_size(n, n_nodes), commuting.method_b_size(n, n_nodes))
            assert result.commuting_set.size >= floor

    def test_budget_exhaustion_tags_heuristic(self):
        result = commuting.search_max_commuting(3, 3, budget=3)
        assert not result.exact
        assert result.commuting_set.method == "C-heuristic"
        assert result.commuting_set.size >= 16  # still seeded

    def test_vertex_cap(self):
        with pytest.raises(CapExceeded):
            commuting.search_max_commuting(3, 4, vertex_cap=1000)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(InputError):
            commuting.search_max_commuting(2, 2, budget=budget)

    @pytest.mark.parametrize("n,n_nodes", [(1, 2), (0, 1), (2, 0)])
    def test_degenerate_network_rejected(self, n, n_nodes):
        with pytest.raises(InputError):
            commuting.search_max_commuting(n, n_nodes)

    @pytest.mark.parametrize("build", [commuting.construct_method_a, commuting.construct_method_b,
                                       commuting.method_a_size, commuting.method_b_size])
    @pytest.mark.parametrize("n, n_nodes, match", [
        (1, 3, "need n >= 2, got 1"), (2, 0, "need N >= 1, got 0"), (2, -1, "need N >= 1, got -1"),
        (2.5, 2, "got 2.5"), (2, True, "got True")])
    def test_constructions_refuse_degenerate_networks(self, build, n, n_nodes, match):
        with pytest.raises(InputError, match=match):
            build(n, n_nodes)

    def test_cat_seed_is_clique(self):
        for n, n_nodes in [(2, 3), (2, 4), (3, 3)]:
            labels = oracles.pure_cluster_labels(n, n_nodes)
            seed = commuting.cat_seed_clique(commuting._pure_rows(n, n_nodes), n)
            for i, j in itertools.combinations(seed, 2):
                assert commuting.commute_check(labels[i], labels[j])


class TestCompletionAndEigenstates:
    def test_completion_reaches_full_group(self):
        for n, n_nodes in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for cs in (commuting.construct_method_a(n, n_nodes),
                       commuting.construct_method_b(n, n_nodes)):
                group = commuting.complete_commuting_group(cs.members, n, n_nodes)
                assert len(group) == n ** n_nodes

    def test_bell_basis_from_first_set(self):
        cs = make_set(SIX_SETS_N2[0], 2)
        eig = commuting.common_eigenstate(cs)
        assert eig.complete
        assert eig.max_residual < 1e-10
        bells = [np.array([1, 0, 0, s], dtype=complex) / np.sqrt(2) for s in (1, -1)]
        bells += [np.array([0, 1, s, 0], dtype=complex) / np.sqrt(2) for s in (1, -1)]
        assert any(abs(abs(np.vdot(b, eig.vector)) - 1) < 1e-8 for b in bells)
        table = cluster.cluster_sums(NetworkState.from_pure(eig.vector, (2, 2)))
        assert abs(table.values[(0, 1)] - 3.0) < 1e-8

    def test_third_set_eigenstates(self):
        cs = make_set(SIX_SETS_N2[2], 2)
        eig = commuting.common_eigenstate(cs)
        signs = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, 1)]
        candidates = [np.array(s, dtype=complex) / 2 for s in signs]
        assert any(abs(abs(np.vdot(c, eig.vector)) - 1) < 1e-8 for c in candidates)
        table = cluster.cluster_sums(NetworkState.from_pure(eig.vector, (2, 2)))
        assert abs(table.values[(0, 1)] - 3.0) < 1e-8

    def test_method_b_three_qubits(self):
        cs = commuting.construct_method_b(2, 3)
        eig = commuting.common_eigenstate(cs)
        assert eig.complete and eig.max_residual < 1e-10
        table = cluster.cluster_sums(NetworkState.from_pure(eig.vector, (2, 2, 2)))
        assert abs(table.values[(0, 1, 2)] - 3.0) < 1e-8

    @pytest.mark.parametrize("n,n_nodes", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_top_cluster_sum_equals_set_size(self, n, n_nodes):
        for cs in (commuting.construct_method_a(n, n_nodes),
                   commuting.construct_method_b(n, n_nodes)):
            eig = commuting.common_eigenstate(cs)
            assert eig.complete
            assert eig.pure_cluster_count == cs.size
            st = NetworkState.from_pure(eig.vector, (n,) * n_nodes)
            top = cluster.cluster_sums(st).values[tuple(range(n_nodes))]
            assert abs(top - cs.size) < 1e-8

    @pytest.mark.parametrize("n,n_nodes", [(2, 9), (3, 6), (4, 5), (5, 4)])
    def test_method_b_completes_beyond_small_networks(self, n, n_nodes):
        # Z_n^(2N) holds 2.6e5 to 1.7e7 vectors here; the members' closure completes the group
        cs = commuting.construct_method_b(n, n_nodes)
        eig = commuting.common_eigenstate(cs)
        assert eig.complete and eig.max_residual <= 1e-12
        assert eig.pure_cluster_count == cs.size

    def test_group_order_capped_before_completion(self):
        with mock.patch.object(np, "unique", side_effect=AssertionError), \
                mock.patch.object(commuting, "symplectic_form", side_effect=AssertionError):
            with pytest.raises(CapExceeded, match="6561"):
                commuting.complete_commuting_group([], 3, 8)
            with pytest.raises(CapExceeded, match="8192"):
                commuting.common_eigenstate(commuting.construct_method_a(2, 13))

    def test_non_commuting_members_rejected(self):
        members = [label_from_entries(e, (2, 2)) for e in [[(1, 0), (0, 0)], [(0, 1), (0, 0)]]]
        with pytest.raises(InputError):
            commuting.complete_commuting_group(members, 2, 2)

    @pytest.mark.parametrize("n,n_nodes,method", [(2, 6, "A"), (3, 4, "B"), (4, 3, "A"), (5, 2, "B")])
    def test_blocked_residual_matches_all_at_once(self, n, n_nodes, method):
        build = commuting.construct_method_a if method == "A" else commuting.construct_method_b
        dim = n ** n_nodes
        with mock.patch.object(commuting, "_RESIDUAL_BLOCK_BYTES", 16 * dim * 5):  # five rows a block
            eig = commuting.common_eigenstate(build(n, n_nodes), seed=3)
        group, psi = eig.completion, eig.vector
        images = basis.apply_products(basis.weyl_factors(group[:, 0::2], group[:, 1::2], (n,) * n_nodes), psi)
        whole = float(np.max(np.linalg.norm(images - (images @ psi.conj())[:, None] * psi, axis=1)))
        assert eig.max_residual == whole

    def test_residual_memory_at_the_largest_group(self):
        # all group images at once would be 4096 x 4096 complex, 268 MB, plus a difference as large
        cs = commuting.construct_method_b(4, 6)
        tracemalloc.start()
        try:
            eig = commuting.common_eigenstate(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eig.complete and eig.max_residual <= 1e-12
        assert peak < 100e6

    def test_eigenvalues_unit_modulus(self):
        cs = make_set(SIX_SETS_N2[1], 2)
        eig = commuting.common_eigenstate(cs)
        for label in row_labels(eig.completion, 2):
            op = cluster_operator(label)
            lam = np.vdot(eig.vector, op @ eig.vector)
            assert abs(abs(lam) - 1.0) < 1e-10


# derandomized so every run checks the same examples; no example database
PROPERTY = settings(max_examples=3, deadline=None, derandomize=True, database=None)

# every table row whose commutation graph has at most 729 vertices
SEARCH_ROWS = [(n, n_nodes) for n in (2, 3, 4) for n_nodes in range(1, 7)
               if (n * n - 1) ** n_nodes <= 729]


def dense_residual(members, psi):
    """max over members of ||U psi - <U> psi|| with dense member matrices."""
    worst = 0.0
    for label in members:
        up = cluster_operator(label) @ psi
        worst = max(worst, float(np.linalg.norm(up - np.vdot(psi, up) * psi)))
    return worst


class TestProperties:
    @pytest.mark.parametrize("n,n_nodes", SEARCH_ROWS)
    @PROPERTY
    @given(budget=st.integers(1, 5000))
    def test_search_matches_oracle(self, n, n_nodes, budget):
        got = commuting.search_max_commuting(n, n_nodes, budget=budget)
        with mock.patch.object(commuting, "max_clique", oracles.clique_search):
            want = commuting.search_max_commuting(n, n_nodes, budget=budget)
        assert got.commuting_set.members == want.commuting_set.members
        assert (got.expansions, got.exact) == (want.expansions, want.exact)

    @pytest.mark.parametrize("n,n_nodes,method", [
        (n, n_nodes, method) for n in (2, 3, 4) for n_nodes in range(1, 5)
        for method in ("A", "B", "search")
        if method != "search" or (n * n - 1) ** n_nodes <= commuting.DEFAULT_VERTEX_CAP])
    @PROPERTY
    @given(budget=st.integers(1, 2000), seed=st.integers(0, 2 ** 31 - 1))
    def test_eigenstate_residual(self, n, n_nodes, method, budget, seed):
        if method == "A":
            cs = commuting.construct_method_a(n, n_nodes)
        elif method == "B":
            cs = commuting.construct_method_b(n, n_nodes)
        else:
            result = commuting.search_max_commuting(n, n_nodes, budget=budget)
            cs = result.commuting_set
        eig = commuting.common_eigenstate(cs, seed=seed)
        assert abs(np.linalg.norm(eig.vector) - 1) < 1e-12
        assert eig.max_residual <= 1e-12
        assert dense_residual(cs.members, eig.vector) <= 1e-12
        if method != "search" or result.exact:
            # a maximum set is all the pure clusters of its completed group
            assert eig.pure_cluster_count == cs.size
        else:
            assert eig.pure_cluster_count >= cs.size

    # U^k = -1 for U_11 on a qubit and on a ququart, so these need the right k-th root
    @pytest.mark.parametrize("n,entries", [(2, e) for e in SIX_SETS_N2] + [
        (2, [((1, 1),)]), (4, [((1, 1),)]), (4, [((1, 1), (1, 0)), ((2, 0), (0, 2))])])
    @PROPERTY
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_eigenstate_residual_given_sets(self, n, entries, seed):
        cs = make_set(entries, n)
        eig = commuting.common_eigenstate(cs, seed=seed)
        assert eig.complete and eig.max_residual <= 1e-12
        assert dense_residual(row_labels(eig.completion, n), eig.vector) <= 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]), st.sampled_from(["A", "B"]),
           st.integers(0, 2 ** 31 - 1))
    def test_cluster_sums_match_dense_oracle(self, row, method, seed):
        # the joint eigenvectors of a complete group are Weyl images of each
        # other, so they share every cluster sum
        n, n_nodes = row
        build = commuting.construct_method_a if method == "A" else commuting.construct_method_b
        cs = build(n, n_nodes)
        eig = commuting.common_eigenstate(cs, seed=seed)
        psi, residual = oracles.common_eigenstate(cs, seed=seed)
        assert eig.complete and residual < 1e-10
        dims = (n,) * n_nodes
        got = cluster.cluster_sums(NetworkState.from_pure(eig.vector, dims)).values
        want = cluster.cluster_sums(NetworkState.from_pure(psi, dims)).values
        assert all(abs(got[s] - want[s]) < 1e-9 for s in want)

    @pytest.mark.parametrize("n,n_nodes", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(method=st.sampled_from(["A", "B"]), seed=st.integers(0, 2 ** 31 - 1))
    def test_completion_generators_are_independent(self, n, n_nodes, method, seed):
        # a random subset of a constructed set, in random order
        build = commuting.construct_method_a if method == "A" else commuting.construct_method_b
        cset = build(n, n_nodes)
        rng = np.random.default_rng(seed)
        members = tuple(cset.members[i] for i in rng.permutation(cset.size)[:rng.integers(cset.size + 1)])
        group, generators = commuting._complete_group(members, n, n_nodes)
        for i, g in enumerate(generators):
            assert g not in oracles.group_closure(generators[:i], n)
        closure = oracles.group_closure(generators, n)
        assert closure == set(map(tuple, group.tolist())) == oracles.complete_group(members, n, n_nodes)[0]
        eig = commuting.common_eigenstate(commuting.CommutingSet(n, n_nodes, members, method), seed=seed)
        assert dense_residual(row_labels(group, n), eig.vector) <= 1e-12


# the full-graph search on (2, 6) runs past 150 000 expansions without finishing
FULL_SEARCH_ROWS = [row for row in SEARCH_ROWS if row != (2, 6)]


def node_map(label, node, image):
    """``label`` with the pair on ``node`` replaced by ``image(pair)``."""
    entries = list(label.entries)
    entries[node] = image(*entries[node])
    return label_from_entries(entries, label.dims)


class TestOrbitReduction:
    @pytest.mark.parametrize("n,n_nodes", SEARCH_ROWS)
    def test_local_maps_and_transpositions_are_automorphisms(self, n, n_nodes):
        labels = oracles.pure_cluster_labels(n, n_nodes)
        index_of = {lab: i for i, lab in enumerate(labels)}
        commute = oracles.commute_matrix(labels)

        def s_map(a, b):  # S = [[0,-1],[1,0]]
            return -b % n, a

        def t_map(a, b):  # T = [[1,1],[0,1]]
            return (a + b) % n, b

        maps = [[index_of[node_map(lab, node, g)] for lab in labels]
                for node in range(n_nodes) for g in (s_map, t_map)]
        for i, j in itertools.combinations(range(n_nodes), 2):
            order = list(range(n_nodes))
            order[i], order[j] = j, i
            maps.append([index_of[label_from_entries([lab.entries[k] for k in order], lab.dims)]
                         for lab in labels])
        for perm in maps:
            assert sorted(perm) == list(range(len(labels)))
            assert np.array_equal(commute[np.ix_(perm, perm)], commute)

    @pytest.mark.parametrize("n,n_nodes", [(2, 3), (3, 3), (4, 2), (2, 6), (5, 2)])
    def test_pure_rows_are_the_lexicographic_labels(self, n, n_nodes):
        labels = oracles.pure_cluster_labels(n, n_nodes)
        index_of = {lab: i for i, lab in enumerate(labels)}
        rows = commuting._pure_rows(n, n_nodes)
        assert rows.tolist() == [[x for e in lab.entries for x in e] for lab in labels]
        assert commuting._vertices(rows, n) == list(range(len(labels)))
        for cs in (commuting.construct_method_a(n, n_nodes), commuting.construct_method_b(n, n_nodes)):
            assert commuting._vertices(commuting._vectors(cs.members), n) == [index_of[m] for m in cs.members]
        commute = commuting.symplectic_form(rows, rows, n) == 0
        np.fill_diagonal(commute, False)
        assert np.array_equal(commute, oracles.commute_matrix(labels))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_node_orbits_are_gcd_classes(self, n):
        orbit = oracles.node_orbits(n)  # the closure under S and T, which the package's gcd classes must match
        pairs = [(a, b) for a in range(n) for b in range(n) if (a, b) != (0, 0)]
        assert sorted(orbit) == pairs
        by_orbit = {frozenset(p for p in pairs if orbit[p] == k) for k in set(orbit.values())}
        by_gcd = {frozenset(p for p in pairs if math.gcd(*p, n) == g) for g in range(1, n)}
        assert by_orbit == by_gcd - {frozenset()}

    @pytest.mark.parametrize("n", range(2, 25))
    def test_node_orbits_match_the_closure(self, n):
        assert commuting.node_orbits(n) == oracles.node_orbits(n)

    def test_label_orbits_match_the_closure(self):
        sizes = [(n, n_nodes) for n in range(2, 71) for n_nodes in range(1, 8) if (n * n - 1) ** n_nodes <= 5000]
        assert len(sizes) == 84
        for n, n_nodes in sizes:
            rows = commuting._pure_rows(n, n_nodes)
            assert np.array_equal(commuting.label_orbits(rows, n), oracles.label_orbits(rows, n)), (n, n_nodes)

    def test_label_orbits_group_by_sorted_node_classes(self):
        rows = commuting._pure_rows(4, 2)
        orbit = commuting.label_orbits(rows, 4)
        key = [tuple(sorted(math.gcd(a, b, 4) for a, b in zip(v[0::2], v[1::2]))) for v in rows.tolist()]
        assert len(set(orbit)) == 3
        for i, j in itertools.combinations(range(len(rows)), 2):
            assert (orbit[i] == orbit[j]) == (key[i] == key[j])

    @pytest.mark.parametrize("n,n_nodes", FULL_SEARCH_ROWS)
    def test_reduced_search_matches_full_graph(self, n, n_nodes):
        labels = oracles.pure_cluster_labels(n, n_nodes)
        adj = oracles.commutation_graph(labels)
        full, _, full_exhausted = commuting.max_clique(adj, [], commuting.DEFAULT_NODE_BUDGET)
        result = commuting.search_max_commuting(n, n_nodes)
        assert (result.commuting_set.size, result.exact) == (len(full), not full_exhausted)
        assert result.exact
        index_of = {lab: i for i, lab in enumerate(labels)}
        members = [index_of[m] for m in result.commuting_set.members]
        for i, j in itertools.combinations(members, 2):
            assert adj[i] >> j & 1

    def test_budget_is_shared_by_the_subsearches(self):
        # n = 4 has three label orbits at N = 2, so the search runs several subsearches
        whole = commuting.search_max_commuting(4, 2)
        assert whole.exact and whole.expansions > 1
        for budget in range(1, whole.expansions):
            cut = commuting.search_max_commuting(4, 2, budget=budget)
            assert not cut.exact and cut.expansions == budget + 1
            assert cut.commuting_set.verify_pairwise()
            assert cut.commuting_set.size >= commuting.method_b_size(4, 2)
        assert commuting.search_max_commuting(4, 2, budget=whole.expansions).exact
