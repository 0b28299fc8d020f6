"""Generalized cat basis: golden vectors, closed-form profiles, numerics."""

import itertools

import numpy as np
import pytest

from weylnet import cat, cluster, collective
from weylnet.cluster import NetworkState
from weylnet.collective import CollectiveLabel
from weylnet.errors import CapExceeded, InputError

from goldens import GOLDEN_N2_THREE, GOLDEN_N2_TWO, GOLDEN_N3_TWO
from oracles import kron_all

W3 = np.exp(2j * np.pi / 3)
S2, S3 = np.sqrt(2), np.sqrt(3)

# cat column of the commuting-set table: (n, N) -> Y_N
TOP_SUMS = {
    (2, 2): 3, (2, 3): 4, (2, 4): 9, (2, 5): 16, (2, 6): 33,
    (3, 2): 8, (3, 3): 20, (3, 4): 60, (3, 5): 172, (3, 6): 508,
    (4, 2): 15, (4, 3): 54, (4, 4): 213, (4, 5): 828,
}


class TestGoldenVectors:
    @pytest.mark.parametrize("golden,n", [(GOLDEN_N2_TWO, 2), (GOLDEN_N3_TWO, 3), (GOLDEN_N2_THREE, 2)])
    def test_tabulated_members(self, golden, n):
        for label, expect in golden.items():
            got = cat.cat_state(n, label)
            assert np.max(np.abs(got - expect)) < 1e-12, label

    def test_aligned_member_is_ghz(self):
        v = cat.cat_state(2, (0, 0, 0))
        assert abs(v[0] - 1 / S2) < 1e-12 and abs(v[7] - 1 / S2) < 1e-12

    def test_amplitude_structure(self):
        for n, n_nodes in [(2, 3), (3, 2), (4, 2)]:
            for label in itertools.islice(cat.cat_labels(n, n_nodes), 5):
                v = cat.cat_state(n, label)
                nz = np.abs(v[np.abs(v) > 1e-14])
                assert len(nz) == n
                assert np.max(np.abs(nz - 1 / np.sqrt(n))) < 1e-12
                assert abs(np.linalg.norm(v) - 1) < 1e-12


class TestOrthonormalityCompleteness:
    @pytest.mark.parametrize("n,n_nodes", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
    def test_pairwise_and_complete(self, n, n_nodes):
        labels = list(cat.cat_labels(n, n_nodes))
        vecs = [cat.cat_state(n, lab) for lab in labels]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-12
        assert cat.completeness_residual(n, n_nodes) < 1e-12


class TestProfile:
    @pytest.mark.parametrize("n,n_nodes", list(TOP_SUMS))
    def test_top_cluster_sum_table(self, n, n_nodes):
        profile = cat.cat_profile(n, n_nodes)
        assert round(profile.y(n_nodes)) == TOP_SUMS[(n, n_nodes)]
        assert abs(profile.y(1)) < 1e-12

    def test_sum_rule_consistency(self):
        for n, n_nodes in TOP_SUMS:
            profile = cat.cat_profile(n, n_nodes)
            assert abs(profile.y_total - n ** n_nodes) < 1e-9

    def test_purity_values(self):
        profile = cat.cat_profile(2, 3)
        assert profile.p(1) == 0.0
        assert abs(profile.p(2) - 1 / 3) < 1e-12
        assert profile.p(3) == 1.0
        assert abs(cat.purity_profile_value(10, 5) - 9999 / 99999) < 1e-15

    @pytest.mark.parametrize("n, m", [(2, 0), (1, 3), (0, 1), (2, -4)])
    def test_profile_value_bad_input(self, n, m):
        with pytest.raises(InputError, match=f"got n={n}, m={m}"):
            cat.purity_profile_value(n, m)

    @pytest.mark.parametrize("n, m", [(2, 1024), (3, 700), (2, 10 ** 9)])
    def test_profile_value_beyond_float_range(self, n, m):
        with pytest.raises(CapExceeded, match=f"{n}\\^{m} leaves the float range"):
            cat.purity_profile_value(n, m)
        assert cat.purity_profile_value(2, 1023) == 0.5

    def test_top_ratio_limit(self):
        # ratio approaches (n-1)/n; the deviation is exactly
        # ((n-1)^N + (-1)^N (n-1)) / n^(N+1), a decaying geometric tail
        for n, n_nodes in [(2, 6), (3, 5), (4, 4), (2, 12), (3, 7)]:
            profile = cat.cat_profile(n, n_nodes)
            deviation = abs(profile.top_ratio - (n - 1) / n)
            exact = ((n - 1) ** n_nodes + (-1) ** n_nodes * (n - 1)) / n ** (n_nodes + 1)
            assert abs(deviation - exact) < 1e-12
            assert deviation <= ((n - 1) / n) ** n_nodes + 1e-12


class TestNumericalVerification:
    @pytest.mark.parametrize("n,n_nodes", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                           (3, 4), (4, 2), (4, 3), (4, 4)])
    def test_profile_matches_numerics(self, n, n_nodes):
        report = cat.cat_verify(n, n_nodes)
        assert report.max_orthonormality_error < 1e-12
        assert report.max_cluster_sum_error < 1e-9
        assert report.max_purity_error < 1e-9
        assert report.max_entropy_error < 1e-9

    def test_every_cluster_entropy_log2n(self):
        report = cat.cat_verify(3, 2)
        assert report.max_entropy_error < 1e-9  # log2(3) per proper cluster

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(0)
        for n, n_nodes in [(2, 3), (3, 2)]:
            psi = cat.cat_state(n, (1,) * n_nodes)
            locals_ = []
            for _ in range(n_nodes):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                q, _ = np.linalg.qr(a)
                locals_.append(q)
            u = kron_all(locals_)
            before = cluster.cluster_sums(NetworkState.from_pure(psi, (n,) * n_nodes))
            after = cluster.cluster_sums(NetworkState.from_pure(u @ psi, (n,) * n_nodes))
            for subset in before.values:
                assert abs(before.values[subset] - after.values[subset]) < 1e-9


class TestLocalGeneration:
    @pytest.mark.parametrize("n,n_nodes", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_every_member_from_base(self, n, n_nodes):
        for label in cat.cat_labels(n, n_nodes):
            direct = cat.cat_state(n, label)
            generated = cat.cat_from_base(n, label)
            assert np.max(np.abs(direct - generated)) < 1e-12


class TestCollectiveDecomposition:
    def e(self, a, b, g, ph=0):
        return CollectiveLabel(a, b, g, ph)

    def nonzero(self, coeffs):
        return {lab: v for lab, v in coeffs.items() if abs(v) > 1e-10}

    def test_two_node_members(self):
        # tabulated coefficient patterns on (1, E_200, E_020, E_002)
        patterns = {
            (0, 0): (1, -1, 1),
            (0, 1): (1, 1, -1),
            (1, 0): (-1, 1, 1),
            (1, 1): (-1, -1, -1),
        }
        for label, (x, y, z) in patterns.items():
            coeffs = cat.cat_collective_decomposition(label)
            nz = self.nonzero(coeffs)
            assert set(nz) == {self.e(0, 0, 0), self.e(2, 0, 0), self.e(0, 2, 0), self.e(0, 0, 2)}
            assert abs(coeffs[self.e(0, 0, 0)] - 1) < 1e-12
            assert abs(coeffs[self.e(2, 0, 0)] - x) < 1e-12
            assert abs(coeffs[self.e(0, 2, 0)] - y) < 1e-12
            assert abs(coeffs[self.e(0, 0, 2)] - z) < 1e-12

    def test_aligned_three_node_member(self):
        coeffs = cat.cat_collective_decomposition((0, 0, 0))
        nz = self.nonzero(coeffs)
        assert set(nz) == {self.e(0, 0, 0), self.e(3, 0, 0), self.e(1, 2, 0), self.e(0, 0, 2)}
        assert abs(coeffs[self.e(3, 0, 0)] - 1) < 1e-12
        assert abs(coeffs[self.e(1, 2, 0)] + 1) < 1e-12
        assert abs(coeffs[self.e(0, 0, 2)] - 1) < 1e-12

    def test_shifted_three_node_member(self):
        # not permutation symmetric: phased members appear; validated by
        # reconstruction plus the magnitude/phase content of each group
        label = (0, 0, 1)
        coeffs = cat.cat_collective_decomposition(label)
        psi = cat.cat_state(2, label)
        recon = collective.reconstruct_collective(coeffs, 3)
        assert np.max(np.abs(recon - np.outer(psi, psi.conj()))) < 1e-12
        assert abs(coeffs[self.e(0, 0, 2)] + 1 / 3) < 1e-12
        assert abs(coeffs[self.e(1, 2, 0)] - 1 / 3) < 1e-12
        assert abs(coeffs[self.e(3, 0, 0)] - 1) < 1e-12
        for b in (1, 2):
            assert abs(abs(coeffs[self.e(0, 0, 2, b)]) - 2 / 3) < 1e-12
            assert abs(abs(coeffs[self.e(1, 2, 0, b)]) - 2 / 3) < 1e-12
        # the phased shift-group coefficients form a conjugate pair with
        # argument pi/3
        args = sorted(np.angle(coeffs[self.e(1, 2, 0, b)]) for b in (1, 2))
        assert abs(args[0] + np.pi / 3) < 1e-10
        assert abs(args[1] - np.pi / 3) < 1e-10

    def test_reconstruction_all_two_node_members(self):
        for label in cat.cat_labels(2, 2):
            coeffs = cat.cat_collective_decomposition(label)
            psi = cat.cat_state(2, label)
            recon = collective.reconstruct_collective(coeffs, 2)
            assert np.max(np.abs(recon - np.outer(psi, psi.conj()))) < 1e-12
