"""Cluster operators, correlation tensors, cluster sums, purity factors."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylnet import cluster
from weylnet.basis import WeylIndex, weyl_matrix
from weylnet.cluster import NetworkState, label_from_entries
from weylnet.errors import CapExceeded, DimensionMismatch, InputError


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return NetworkState.from_pure(v, (2, 2))


def product_01():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    return NetworkState.from_pure(v, (2, 2))


def random_state(dims, rng, pure=False):
    d = int(np.prod(dims))
    if pure:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return NetworkState.from_pure(v / np.linalg.norm(v), dims)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return NetworkState.from_rho(rho / np.trace(rho), dims)


def random_local_unitaries(dims, rng):
    out = []
    for n in dims:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(a)
        out.append(q)
    return out


def apply_local(state, unitaries):
    u = cluster.kron_all(unitaries)
    return NetworkState.from_rho(u @ state.rho @ u.conj().T, state.dims)


class TestClusterOperator:
    def test_all_identity(self):
        label = label_from_entries([(0, 0), (0, 0)], (2, 3))
        assert np.array_equal(cluster.cluster_operator(label), np.eye(6))

    def test_single_node_kron_oracle(self):
        label = label_from_entries([(1, 0), (0, 0)], (2, 2))
        oracle = np.kron(weyl_matrix(WeylIndex(1, 0, 2)), np.eye(2))
        assert np.array_equal(cluster.cluster_operator(label), oracle)

    def test_orthonormality_random_pairs(self):
        rng = np.random.default_rng(0)
        dims = (2, 3)
        labels = []
        for _ in range(20):
            entries = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for n in dims]
            labels.append(label_from_entries(entries, dims))
        total = float(np.prod(dims))
        for x in labels:
            for y in labels:
                inner = np.trace(cluster.cluster_operator(x) @ cluster.cluster_operator(y).conj().T)
                assert abs(inner - (total if x == y else 0.0)) < 1e-12

    def test_support_and_size(self):
        label = label_from_entries([(0, 0), (2, 1), (0, 0), (1, 1)], (2, 3, 2, 2))
        assert label.support == (1, 3)
        assert label.cluster_size == 2


class TestPartialTrace:
    def test_against_einsum_oracle(self):
        rng = np.random.default_rng(1)
        dims = (2, 3, 2)
        st = random_state(dims, rng)
        oracle = np.einsum("abcadc->bd", st.rho.reshape(dims + dims))
        got = cluster.partial_trace(st.rho, dims, keep=(1,))
        assert np.max(np.abs(got - oracle)) < 1e-12
        oracle2 = np.einsum("abcabf->cf", st.rho.reshape(dims + dims))
        got2 = cluster.partial_trace(st.rho, dims, keep=(2,))
        assert np.max(np.abs(got2 - oracle2)) < 1e-12
        oracle3 = np.einsum("abcadf->bcdf", st.rho.reshape(dims + dims)).reshape(6, 6)
        got3 = cluster.partial_trace(st.rho, dims, keep=(1, 2))
        assert np.max(np.abs(got3 - oracle3)) < 1e-12

    def test_pure_path_matches_dense(self):
        rng = np.random.default_rng(2)
        dims = (2, 2, 3)
        st = random_state(dims, rng, pure=True)
        dense = NetworkState.from_rho(st.rho, dims)
        for size in (1, 2, 3):
            for keep in itertools.combinations(range(3), size):
                a = cluster.reduced_state(st, keep)
                b = cluster.reduced_state(dense, keep)
                assert np.max(np.abs(a - b)) < 1e-12
                assert abs(cluster.reduced_purity(st, keep) - np.trace(a @ a).real) < 1e-12


class TestCorrelationTensors:
    def test_product_state_factors(self):
        st = product_01()
        tensors = cluster.correlation_tensors(st, 2)
        singles = {}
        for label, value in tensors.items():
            if label.cluster_size == 1:
                singles[(label.support[0], label.entries[label.support[0]])] = value
        for label, value in tensors.items():
            if label.cluster_size == 2:
                prod = singles[(0, label.entries[0])] * singles[(1, label.entries[1])]
                assert abs(value - prod) < 1e-10

    def test_bell_first_order_vanishes(self):
        tensors = cluster.correlation_tensors(bell_state(), 1)
        for label, value in tensors.items():
            if label.cluster_size == 1:
                assert abs(value) < 1e-12

    def test_bell_second_order_weight(self):
        total = cluster.cluster_sum_direct(bell_state(), (0, 1))
        assert abs(total - 3.0) < 1e-12

    def test_identity_entry(self):
        tensors = cluster.correlation_tensors(bell_state(), 0)
        label = label_from_entries([(0, 0), (0, 0)], (2, 2))
        assert abs(tensors[label] - 1.0) < 1e-14

    def test_factoring_random_product_states(self):
        rng = np.random.default_rng(3)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            vs = []
            for n in dims:
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                vs.append(v / np.linalg.norm(v))
            psi = vs[0]
            for v in vs[1:]:
                psi = np.kron(psi, v)
            st = NetworkState.from_pure(psi, dims)
            tensors = cluster.correlation_tensors(st, len(dims))
            singles = {}
            for label, value in tensors.items():
                if label.cluster_size == 1:
                    node = label.support[0]
                    singles[(node, label.entries[node])] = value
            for label, value in tensors.items():
                if label.cluster_size >= 2:
                    prod = 1.0
                    for node in label.support:
                        prod *= singles[(node, label.entries[node])]
                    assert abs(value - prod) < 1e-10


class TestClusterSums:
    def test_bell_values(self):
        table = cluster.cluster_sums(bell_state())
        assert abs(table.values[()] - 1.0) < 1e-12
        assert abs(table.values[(0,)]) < 1e-12
        assert abs(table.values[(1,)]) < 1e-12
        assert abs(table.values[(0, 1)] - 3.0) < 1e-12
        assert abs(table.total - 4.0) < 1e-12
        assert table.sum_rule_residual < 1e-12

    def test_maximally_mixed(self):
        st = NetworkState.from_rho(np.eye(4) / 4, (2, 2))
        table = cluster.cluster_sums(st)
        for subset, y in table.values.items():
            if subset:
                assert abs(y) < 1e-12
        assert abs(table.total - 1.0) < 1e-12

    def test_two_bell_pairs_n3(self):
        # two maximally entangled 3-level pairs: top cluster sum 64
        bell3 = np.zeros(9, dtype=complex)
        for k in range(3):
            bell3[k * 3 + k] = 1 / np.sqrt(3)
        psi = np.kron(bell3, bell3)
        st = NetworkState.from_pure(psi, (3, 3, 3, 3))
        table = cluster.cluster_sums(st)
        assert abs(table.values[(0, 1, 2, 3)] - 64.0) < 1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2)])
    def test_moebius_matches_direct(self, dims):
        rng = np.random.default_rng(sum(dims))
        for pure in (False, True):
            st = random_state(dims, rng, pure=pure)
            table = cluster.cluster_sums(st)
            for size in range(1, len(dims) + 1):
                for subset in itertools.combinations(range(len(dims)), size):
                    direct = cluster.cluster_sum_direct(st, subset)
                    assert abs(table.values[subset] - direct) < 1e-9

    def test_sum_rule_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_nodes = int(rng.integers(2, 5))
            dims = tuple(int(rng.integers(2, 4)) for _ in range(n_nodes))
            st = random_state(dims, rng, pure=bool(rng.integers(0, 2)))
            table = cluster.cluster_sums(st)
            assert table.sum_rule_residual < 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for dims in [(2, 2), (2, 3, 2)]:
            st = random_state(dims, rng)
            before = cluster.cluster_sums(st)
            rotated = apply_local(st, random_local_unitaries(dims, rng))
            after = cluster.cluster_sums(rotated)
            for subset in before.values:
                assert abs(before.values[subset] - after.values[subset]) < 1e-9


class TestPurityFactors:
    def test_bell(self):
        report = cluster.purity_factors(bell_state())
        assert abs(report.rows[(0,)].p) < 1e-10
        assert abs(report.rows[(1,)].p) < 1e-10
        assert abs(report.rows[(0, 1)].p - 1.0) < 1e-10

    def test_pure_global_state(self):
        rng = np.random.default_rng(13)
        st = random_state((2, 2, 2), rng, pure=True)
        report = cluster.purity_factors(st)
        assert abs(report.rows[(0, 1, 2)].p - 1.0) < 1e-10

    def test_ghz_middle_value(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        report = cluster.purity_factors(NetworkState.from_pure(v, (2, 2, 2)))
        for subset in itertools.combinations(range(3), 2):
            assert abs(report.rows[subset].p - 1 / 3) < 1e-10

    def test_maximally_mixed_is_zero(self):
        st = NetworkState.from_rho(np.eye(4) / 4, (2, 2))
        report = cluster.purity_factors(st)
        for subset, row in report.rows.items():
            if len(subset) < 2:
                pass
            assert row.p >= -1e-12
        assert abs(report.rows[(0,)].p) < 1e-12

    def test_range_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            st = random_state((2, 2), rng, pure=bool(rng.integers(0, 2)))
            report = cluster.purity_factors(st)
            for row in report.rows.values():
                assert -1e-10 <= row.p <= 1 + 1e-10

    def test_requires_uniform_dims(self):
        rng = np.random.default_rng(15)
        st = random_state((2, 3), rng)
        with pytest.raises(InputError):
            cluster.purity_factors(st)

    def test_entropy_of_singlet_half(self):
        report = cluster.purity_factors(bell_state())
        assert abs(report.rows[(0,)].entropy - 1.0) < 1e-10  # one bit
        assert abs(report.rows[(0, 1)].entropy) < 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(lambda d: np.prod(d) <= 128),
           st.integers(0, 2 ** 32 - 1))
    def test_pure_entropy_matches_full_reduced_state(self, dims, seed):
        state = random_state(tuple(dims), np.random.default_rng(seed), pure=True)
        for size in range(len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), size):
                vals = np.linalg.eigvalsh(cluster.reduced_state(state, keep))
                vals = vals[vals > 1e-14]
                want = float(-np.sum(vals * np.log2(vals)))
                assert abs(cluster.reduced_entropy(state, keep) - want) < 1e-10

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_one_walk_matches_separate_routes_bit_for_bit(self, n, n_nodes, pure, seed):
        state = random_state((n,) * n_nodes, np.random.default_rng(seed), pure=pure)
        report = cluster.purity_factors(state)
        table = cluster.cluster_sums(state)

        def bits(values):
            return np.array(values, dtype=float).view(np.uint64).tolist()

        assert list(report.table.values) == list(table.values)
        assert bits(list(report.table.values.values())) == bits(list(table.values.values()))
        assert bits(report.table.purity) == bits(table.purity)
        for subset, row in report.rows.items():
            size = len(subset)
            p = (n ** size * cluster.reduced_purity(state, subset) - 1.0) / (n ** size - 1)
            assert bits([row.p, row.entropy]) == bits([p, cluster.reduced_entropy(state, subset)])


@pytest.mark.parametrize("n_nodes", range(1, 9))
def test_sums_over_subsets_match_the_nested_sum(n_nodes):
    """The zeta-transform cross-check of purity_factors against the sum over every subset."""
    state = random_state((2,) * n_nodes, np.random.default_rng(n_nodes), pure=n_nodes > 4)
    report = cluster.purity_factors(state)
    for subset, row in report.rows.items():
        nested = sum(report.table.values[t] for m in range(1, len(subset) + 1)
                     for t in itertools.combinations(subset, m))
        assert abs(row.p_from_sums - nested / (2 ** len(subset) - 1)) < 1e-10


class TestProductStateTest:
    def test_product_state_no_witness(self):
        assert cluster.find_non_product_witness(product_01()) is None

    def test_bell_witness(self):
        result = cluster.product_state_test(bell_state(), [(0,), (1,)])
        assert result.non_product
        assert result.partition_product < 1e-12
        assert abs(result.joint_y - 3.0) < 1e-10

    def test_ghz_bipartition_witness(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        st = NetworkState.from_pure(v, (2, 2, 2))
        result = cluster.product_state_test(st, [(0,), (1, 2)])
        assert result.non_product
        assert result.partition_product < 1e-10

    def test_witness_search_sums_once(self, monkeypatch):
        calls = []
        real = cluster.cluster_sums
        monkeypatch.setattr(cluster, "cluster_sums", lambda st: calls.append(1) or real(st))
        v = np.zeros(16, dtype=complex)
        v[5] = 1.0  # |0101>, product: all 14 partitions are scanned
        assert cluster.find_non_product_witness(NetworkState.from_pure(v, (2,) * 4)) is None
        assert len(calls) == 1

    def test_overlapping_partition_rejected(self):
        with pytest.raises(InputError):
            cluster.product_state_test(bell_state(), [(0,), (0, 1)])

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    @pytest.mark.parametrize("call", [
        lambda st: cluster.product_state_test(st, [(0,), (5,)]),
        lambda st: cluster.reduced_state(st, (3,)),
        lambda st: cluster.reduced_state(st, (-1,)),
        lambda st: cluster.reduced_state(st, (1, 1)),
        lambda st: cluster.reduced_purity(st, (0, 2)),
        lambda st: cluster.reduced_purity(st, (0, 0)),
        lambda st: cluster.reduced_entropy(st, (2,)),
        lambda st: cluster.cluster_sum_direct(st, (1, 1)),
        lambda st: cluster.partial_trace(st.rho, st.dims, (3,)),
        lambda st: cluster.partial_trace(st.rho, st.dims, (0, 0)),
    ], ids=["partition", "state", "state-negative", "state-repeated", "purity",
            "purity-repeated", "entropy", "direct-repeated", "trace", "trace-repeated"])
    def test_bad_nodes_rejected(self, call, pure):
        st = bell_state() if pure else NetworkState.from_rho(bell_state().rho, (2, 2))
        with pytest.raises(InputError, match="distinct and in range"):
            call(st)


class TestValidationAndCaps:
    def test_dim_cap(self):
        with pytest.raises(CapExceeded):
            NetworkState.from_rho(np.eye(2 ** 13) / 2 ** 13, (2,) * 13)

    def test_numpy_integer_dims_accepted(self):
        state = NetworkState.from_rho(np.eye(4) / 4, np.array([2, 2]))
        assert state.dims == (2, 2) and all(type(n) is int for n in state.dims)

    @pytest.mark.parametrize("dims", ["22", [2.7, 2], [2, 2.0]])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(InputError):
            NetworkState.from_rho(np.eye(4) / 4, dims)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatch):
            NetworkState.from_rho(np.eye(4) / 4, (2, 3))

    def test_bad_vector_norm(self):
        with pytest.raises(InputError):
            NetworkState.from_pure(np.array([1.0, 1.0, 0, 0]), (2, 2))

    def test_dim_cap_does_not_overflow(self):
        # 10^40 wraps around in int64; the cap must see the true product
        with pytest.raises(CapExceeded):
            NetworkState.from_pure(np.ones(1), (10 ** 5,) * 8)
        st = bell_state()
        assert st.total_dim == 4 and isinstance(st.total_dim, int)

    def test_non_finite_states_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 0] = np.nan
        with pytest.raises(InputError):
            NetworkState.from_rho(rho, (2, 2))
        with pytest.raises(InputError):
            NetworkState.from_pure(np.array([np.nan, 0, 0, 0]), (2, 2))
        with pytest.raises(InputError):
            NetworkState.from_pure(np.array([np.inf, 0, 0, 0]), (2, 2))

    def test_correlation_order_cap(self):
        with pytest.raises(InputError):
            cluster.correlation_tensors(bell_state(), 3)

    def test_negative_correlation_order_rejected(self):
        with pytest.raises(InputError):
            cluster.correlation_tensors(bell_state(), -1)
