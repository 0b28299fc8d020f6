"""The Weyl transform and every expansion routed through it, against dense oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylnet import basis, cluster, coherence, collective
from weylnet.basis import inverse_weyl_transform, weyl_transform
from weylnet.cluster import NetworkState
from weylnet.errors import DimensionMismatch, InputError

# derandomized so every run checks the same examples; no example database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def node_dims(draw, max_nodes=4, max_total=32):
    """1..max_nodes nodes of 2..5 levels with prod(dims) <= max_total."""
    count = draw(st.integers(1, max_nodes))
    dims = []
    for k in range(count):
        room = max_total // (math.prod(dims) * 2 ** (count - k - 1))
        dims.append(draw(st.integers(2, min(5, room))))
    return tuple(dims)


seeds = st.integers(0, 2 ** 32 - 1)


def random_operator(d, rng):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_state(dims, rng, pure):
    d = math.prod(dims)
    if pure:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return NetworkState.from_pure(v / np.linalg.norm(v), dims)
    a = random_operator(d, rng)
    rho = a @ a.conj().T
    return NetworkState.from_rho(rho / np.trace(rho), dims)


class TestTransformProperties:
    @PROPERTY
    @given(node_dims(), seeds)
    def test_matches_dense_oracle(self, dims, seed):
        op = random_operator(math.prod(dims), np.random.default_rng(seed))
        got = weyl_transform(op, dims)
        assert np.max(np.abs(got - oracles.weyl_coefficients(op, dims))) < 1e-10

    @PROPERTY
    @given(node_dims(max_total=120), seeds)
    def test_round_trip(self, dims, seed):
        op = random_operator(math.prod(dims), np.random.default_rng(seed))
        assert np.max(np.abs(inverse_weyl_transform(weyl_transform(op, dims), dims) - op)) < 1e-12

    @PROPERTY
    @given(node_dims(max_nodes=3, max_total=24), seeds)
    def test_inverse_matches_dense_oracle(self, dims, seed):
        d = math.prod(dims)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(d * d,)) + 1j * rng.normal(size=(d * d,))
        u = u.reshape(tuple(n for n in dims for _ in range(2)))
        assert np.max(np.abs(inverse_weyl_transform(u, dims) - oracles.weyl_operator(u, dims))) < 1e-12

    @PROPERTY
    @given(st.integers(2, 8), seeds)
    def test_expand_assemble_round_trip(self, n, seed):
        op = random_operator(n, np.random.default_rng(seed))
        coeffs = basis.expand(op, "weyl")
        assert np.max(np.abs(basis.assemble(n, "weyl", coeffs) - op)) < 1e-12

    @PROPERTY
    @given(st.integers(2, 9), seeds)
    def test_coherence_round_trip(self, n, seed):
        rho = random_state((n,), np.random.default_rng(seed), pure=False).rho
        cv = coherence.expand_state(rho)
        oracle = oracles.weyl_coefficients(rho, (n,)).ravel()[1:]
        assert np.max(np.abs(cv.u - oracle)) < 1e-12
        assert np.max(np.abs(coherence.reconstruct_state(cv) - rho)) < 1e-12

    @PROPERTY
    @given(node_dims(max_total=96), seeds, st.booleans())
    def test_support_bins_match_moebius_and_sum_rule(self, dims, seed, pure):
        state = random_state(dims, np.random.default_rng(seed), pure)
        table = cluster.cluster_sums(state)
        binned = {s: cluster.cluster_sum_direct(state, s) for s in table.values}
        for subset, y in table.values.items():
            assert abs(binned[subset] - y) < 1e-9 * max(1.0, y)
        assert abs(sum(binned.values()) - table.sum_rule_target) < 1e-9 * table.sum_rule_target

    @PROPERTY
    @given(st.integers(1, 4), seeds)
    def test_collective_matches_dense_oracle(self, n_nodes, seed):
        rho = random_state((2,) * n_nodes, np.random.default_rng(seed), pure=False).rho
        got = collective.decompose_collective(rho, n_nodes)
        want = oracles.decompose_collective(rho, n_nodes)
        assert list(got) == list(want)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-12

    @PROPERTY
    @given(st.sampled_from("EFG"), st.integers(1, 3), seeds)
    def test_family_matches_dense_oracle(self, family, n_nodes, seed):
        op = random_operator(2 ** n_nodes, np.random.default_rng(seed))
        got, residual = collective.decompose_in_family(op, family, n_nodes)
        want = oracles.decompose_in_family(op, family, n_nodes)
        assert residual <= 1e-9
        assert list(got) == list(want)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-9

    @settings(PROPERTY, max_examples=6)
    @given(st.sampled_from("EFG"), st.integers(4, 6), seeds)
    def test_family_residual_beyond_the_oracle(self, family, n_nodes, seed):
        op = random_operator(2 ** n_nodes, np.random.default_rng(seed))
        coeffs, residual = collective.decompose_in_family(op, family, n_nodes)
        assert len(coeffs) == 4 ** n_nodes
        assert residual <= 1e-9


class TestTransformContract:
    def test_label_layout(self):
        # U_{1,2} x U_{0,1} on dims (3, 2) has coefficient D at its own label only
        op = np.kron(basis.weyl_matrix(basis.WeylIndex(1, 2, 3)),
                     basis.weyl_matrix(basis.WeylIndex(0, 1, 2)))
        u = weyl_transform(op, (3, 2))
        assert u.shape == (3, 3, 2, 2)
        want = np.zeros(u.shape)
        want[1, 2, 0, 1] = 6.0
        assert np.max(np.abs(u - want)) < 1e-12

    def test_stacked_operators(self):
        rng = np.random.default_rng(0)
        ops = np.stack([random_operator(6, rng) for _ in range(3)])
        got = weyl_transform(ops, (2, 3))
        for k in range(3):
            assert np.max(np.abs(got[k] - weyl_transform(ops[k], (2, 3)))) < 1e-14
        assert np.max(np.abs(inverse_weyl_transform(got, (2, 3)) - ops)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        op = np.eye(4, dtype=complex)
        op[1, 2] = bad
        with pytest.raises(InputError):
            weyl_transform(op, (2, 2))
        with pytest.raises(InputError):
            inverse_weyl_transform(op.reshape(2, 2, 2, 2), (2, 2))

    def test_shape_and_dims_checked(self):
        with pytest.raises(DimensionMismatch):
            weyl_transform(np.eye(4), (2, 3))
        with pytest.raises(InputError):
            weyl_transform(np.eye(4), (4, 1))
        with pytest.raises(InputError):
            weyl_transform(np.eye(4), (2.0, 2))


class TestRoutedExpansions:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2)])
    def test_correlation_tensors_match_dense(self, dims):
        state = random_state(dims, np.random.default_rng(sum(dims)), pure=False)
        tensors = cluster.correlation_tensors(state, len(dims))
        want = oracles.weyl_coefficients(state.rho, dims)
        assert len(tensors) == math.prod(dims) ** 2
        for label, value in tensors.items():
            assert abs(value - want[tuple(x for ab in label.entries for x in ab)]) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_cluster_sum_direct_matches_dense(self, dims):
        state = random_state(dims, np.random.default_rng(7), pure=True)
        for size in range(len(dims) + 1):
            for subset in itertools.combinations(range(len(dims)), size):
                want = oracles.cluster_sum(state, subset)
                assert abs(cluster.cluster_sum_direct(state, subset) - want) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_generator_matrix_matches_dense(self, n):
        rng = np.random.default_rng(80 + n)
        a = random_operator(n, rng)
        h = (a + a.conj().T) / 2
        assert np.max(np.abs(coherence.generator_matrix(h) - oracles.generator_matrix(h))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rotation_matrix_matches_dense(self, n):
        q, _ = np.linalg.qr(random_operator(n, np.random.default_rng(90 + n)))
        assert np.max(np.abs(coherence.rotation_matrix(q) - oracles.rotation_matrix(q))) < 1e-12

    def test_reconstruct_collective_rejects_unknown_label(self):
        with pytest.raises(InputError):
            collective.reconstruct_collective({collective.CollectiveLabel(0, 0, 1, 2): 1.0}, 2)

    def test_decompose_in_family_rejects_unknown_family(self):
        with pytest.raises(InputError):
            collective.decompose_in_family(np.eye(4), "H", 2)
