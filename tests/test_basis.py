"""Single-node operator basis: golden matrices, algebra, conversions."""

import math

import numpy as np
import pytest

from weylnet import basis
from weylnet.basis import WeylIndex, weyl_matrix
from weylnet.errors import DimensionMismatch, InputError

W3 = np.exp(2j * np.pi / 3)

# the nine n=3 basis matrices, entry-exact
N3_GOLDEN = {
    (0, 0): np.eye(3),
    (0, 1): np.diag([1, W3, W3.conjugate()]),
    (0, 2): np.diag([1, W3.conjugate(), W3]),
    (1, 0): np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    (1, 1): np.array([[0, 0, W3.conjugate()], [1, 0, 0], [0, W3, 0]]),
    (1, 2): np.array([[0, 0, W3], [1, 0, 0], [0, W3.conjugate(), 0]]),
    (2, 0): np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    (2, 1): np.array([[0, W3, 0], [0, 0, W3.conjugate()], [1, 0, 0]]),
    (2, 2): np.array([[0, W3.conjugate(), 0], [0, 0, W3], [1, 0, 0]]),
}


def all_indices(n):
    return [WeylIndex(a, b, n) for a in range(n) for b in range(n)]


class TestGoldenMatrices:
    def test_n3_entry_exact(self):
        for (a, b), golden in N3_GOLDEN.items():
            got = weyl_matrix(WeylIndex(a, b, 3))
            assert np.max(np.abs(got - golden)) < 1e-14, (a, b)

    def test_shift_action(self):
        m = weyl_matrix(WeylIndex(1, 0, 3))
        assert np.array_equal(m.real, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))

    def test_identity(self):
        assert np.array_equal(weyl_matrix(WeylIndex(0, 0, 2)), np.eye(2))

    def test_n3_21_entries(self):
        m = weyl_matrix(WeylIndex(2, 1, 3))
        assert abs(m[0, 1] - W3) < 1e-14
        assert abs(m[1, 2] - W3.conjugate()) < 1e-14
        assert abs(m[2, 0] - 1) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_unitary(self, n):
        for idx in all_indices(n):
            m = weyl_matrix(idx)
            assert np.max(np.abs(m.conj().T @ m - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormality(self, n):
        mats = [weyl_matrix(idx) for idx in all_indices(n)]
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                target = n if i == j else 0.0
                assert abs(np.trace(mi @ mj.conj().T) - target) < 1e-12

    def test_index_validation(self):
        with pytest.raises(InputError):
            WeylIndex(2, 0, 2)
        with pytest.raises(InputError):
            WeylIndex(0, 0, 1)

    @pytest.mark.parametrize("args", [(0.5, 0, 2), (0, 1.0, 2), (1, 0, 3.0), ("1", 0, 2)])
    def test_non_integral_indices_rejected(self, args):
        with pytest.raises(InputError):
            WeylIndex(*args)

    def test_numpy_integers_accepted(self):
        assert WeylIndex(np.int64(1), np.int32(2), np.int64(3)).single_index == 5


class TestProducts:
    def test_product_example_n3(self):
        # oracle: multiply the golden matrices directly
        lhs = N3_GOLDEN[(1, 1)] @ N3_GOLDEN[(1, 2)]
        phase, res = basis.weyl_product(WeylIndex(1, 1, 3), WeylIndex(1, 2, 3))
        assert (res.a, res.b) == (2, 0)
        assert np.max(np.abs(lhs - phase * N3_GOLDEN[(2, 0)])) < 1e-12
        assert abs(phase - W3) < 1e-12

    def test_identity_factor(self):
        for n in (2, 3, 5):
            for c, d in [(0, 0), (1, 0), (n - 1, n - 1)]:
                phase, res = basis.weyl_product(WeylIndex(0, 0, n), WeylIndex(c, d, n))
                assert phase == 1 and (res.a, res.b) == (c, d)

    def test_self_product_n2(self):
        # sigma-like self-product: brute-force 2x2 oracle
        m = weyl_matrix(WeylIndex(1, 1, 2))
        assert np.max(np.abs(m @ m - (-1) * np.eye(2))) < 1e-12
        phase, res = basis.weyl_product(WeylIndex(1, 1, 2), WeylIndex(1, 1, 2))
        assert abs(phase - (-1)) < 1e-12 and (res.a, res.b) == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_product_matrix_level(self, n):
        rng = np.random.default_rng(n)
        for _ in range(30):
            a, b, c, d = rng.integers(0, n, size=4)
            x, y = WeylIndex(int(a), int(b), n), WeylIndex(int(c), int(d), n)
            phase, res = basis.weyl_product(x, y)
            lhs = weyl_matrix(x) @ weyl_matrix(y)
            assert np.max(np.abs(lhs - phase * weyl_matrix(res))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_triple_product(self, n):
        rng = np.random.default_rng(100 + n)
        w = np.exp(2j * np.pi / n)
        for _ in range(20):
            a, b, c, d, e, f = (int(x) for x in rng.integers(0, n, size=6))
            lhs = (weyl_matrix(WeylIndex(a, b, n)) @ weyl_matrix(WeylIndex(c, d, n))
                   @ weyl_matrix(WeylIndex(e, f, n)))
            phase = w ** (b * c) * w ** ((b + d) * e)
            rhs = phase * weyl_matrix(WeylIndex((a + c + e) % n, (b + d + f) % n, n))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            basis.weyl_product(WeylIndex(0, 1, 2), WeylIndex(0, 1, 3))


class TestAdjoint:
    def test_example_n3(self):
        phase, res = basis.weyl_adjoint(WeylIndex(1, 1, 3))
        assert abs(phase - W3) < 1e-12 and (res.a, res.b) == (2, 2)

    def test_identity(self):
        phase, res = basis.weyl_adjoint(WeylIndex(0, 0, 4))
        assert phase == 1 and (res.a, res.b) == (0, 0)

    def test_n2_self_adjoint_up_to_sign(self):
        # conjugate-transpose oracle
        m = weyl_matrix(WeylIndex(1, 1, 2))
        phase, res = basis.weyl_adjoint(WeylIndex(1, 1, 2))
        assert (res.a, res.b) == (1, 1)
        assert np.max(np.abs(m.conj().T - phase * m)) < 1e-12
        assert abs(phase - (-1)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matrix_level(self, n):
        for idx in all_indices(n):
            phase, res = basis.weyl_adjoint(idx)
            lhs = weyl_matrix(idx).conj().T
            assert np.max(np.abs(lhs - phase * weyl_matrix(res))) < 1e-12


class TestConjugationPhases:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phase_and_shift_conjugations(self, n):
        w = np.exp(2j * np.pi / n)
        for d in range(n):
            phase_op = weyl_matrix(WeylIndex(0, d, n))
            shift_op = weyl_matrix(WeylIndex(d, 0, n))
            for idx in all_indices(n):
                m = weyl_matrix(idx)
                lhs1 = phase_op.conj().T @ m @ phase_op
                assert np.max(np.abs(lhs1 - w ** (-d * idx.a) * m)) < 1e-12
                lhs2 = shift_op.conj().T @ m @ shift_op
                assert np.max(np.abs(lhs2 - w ** (idx.b * d) * m)) < 1e-12


class TestCommutators:
    def test_pauli_oracle(self):
        # explicit 2x2 oracle: U_10 = sigma_x, U_01 = diag(1,-1)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        oracle = sx @ sz - sz @ sx
        terms = basis.weyl_commutator(WeylIndex(1, 0, 2), WeylIndex(0, 1, 2), sign=-1)
        assert len(terms) == 1
        coeff, res = terms[0]
        assert (res.a, res.b) == (1, 1)
        assert np.max(np.abs(oracle - coeff * weyl_matrix(res))) < 1e-12
        assert abs(coeff - 2) < 1e-12

    def test_self_commutator_vanishes(self):
        for n in (2, 3, 4):
            idx = WeylIndex(1, n - 1, n)
            assert basis.weyl_commutator(idx, idx, sign=-1) == []

    def test_same_family_commutes(self):
        assert basis.weyl_commutator(WeylIndex(1, 0, 3), WeylIndex(2, 0, 3), sign=-1) == []

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matrix_level(self, n, sign):
        rng = np.random.default_rng(17 * n + sign)
        for _ in range(25):
            a, b, c, d = (int(x) for x in rng.integers(0, n, size=4))
            x, y = WeylIndex(a, b, n), WeylIndex(c, d, n)
            mx, my = weyl_matrix(x), weyl_matrix(y)
            oracle = mx @ my + sign * my @ mx
            terms = basis.weyl_commutator(x, y, sign=sign)
            rebuilt = sum((c0 * weyl_matrix(i0) for c0, i0 in terms),
                          np.zeros((n, n), dtype=complex))
            assert np.max(np.abs(oracle - rebuilt)) < 1e-12


class TestStructureConstants:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_expansion_identity(self, n):
        # [U_ab^dag, U_cd]_- must equal sum_ef f_{ab,cd,ef} U_ef at matrix level
        for ab in all_indices(n):
            for cd in all_indices(n):
                lhs = (weyl_matrix(ab).conj().T @ weyl_matrix(cd)
                       - weyl_matrix(cd) @ weyl_matrix(ab).conj().T)
                rhs = np.zeros((n, n), dtype=complex)
                for ef in all_indices(n):
                    rhs += basis.structure_constant(ab, cd, ef) * weyl_matrix(ef)
                assert np.max(np.abs(lhs - rhs)) < 1e-12, (ab, cd)

    def test_single_target(self):
        n = 3
        ab, cd = WeylIndex(1, 0, n), WeylIndex(0, 1, n)
        nonzero = [ef for ef in all_indices(n)
                   if abs(basis.structure_constant(ab, cd, ef)) > 0]
        assert nonzero == [WeylIndex((0 - 1) % 3, (1 - 0) % 3, 3)]

    def test_value_formula(self):
        n = 3
        w = np.exp(2j * np.pi / n)
        ab, cd = WeylIndex(1, 2, n), WeylIndex(2, 1, n)
        ef = WeylIndex((2 - 1) % n, (1 - 2) % n, n)
        expect = w ** (1 * 2) * (w ** (-2 * 2) - w ** (-1 * 1))
        assert abs(basis.structure_constant(ab, cd, ef) - expect) < 1e-12


class TestDetEigs:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_det_closed_form(self, n):
        for idx in all_indices(n):
            numeric = np.linalg.det(weyl_matrix(idx))
            assert abs(basis.weyl_det(idx) - numeric) < 1e-10

    def test_n3_always_plus_one(self):
        assert all(basis.weyl_det(idx) == 1 for idx in all_indices(3))

    def test_n2_shift(self):
        assert basis.weyl_det(WeylIndex(1, 0, 2)) == -1

    def test_identity_spectrum(self):
        det, eigs = basis.weyl_det(WeylIndex(0, 0, 4)), basis.weyl_eigenvalues(WeylIndex(0, 0, 4))
        assert det == 1 and np.max(np.abs(eigs - 1)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectrum_properties(self, n):
        for idx in all_indices(n):
            det, eigs = basis.weyl_det(idx), basis.weyl_eigenvalues(idx)
            assert np.max(np.abs(np.abs(eigs) - 1)) < 1e-12
            assert abs(np.prod(eigs) - det) < 1e-10
            target = basis.eigenvalue_power_target(idx)
            assert np.max(np.abs(eigs ** n - target)) < 1e-10
            args = np.angle(eigs)
            args = np.where(args <= -np.pi + 1e-12, args + 2 * np.pi, args)
            assert np.all(np.diff(args) > -1e-12)  # ascending principal argument


class TestPartnerCounts:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gcd_formula_exhaustive(self, n):
        # brute-force oracle: count index pairs with a*d - b*c = 0 mod n
        for idx in all_indices(n):
            brute = sum(
                1
                for other in all_indices(n)
                if (idx.a * other.b - idx.b * other.a) % n == 0
            )
            assert brute == basis.commuting_partner_count(idx), idx

    def test_identity_commutes_with_all(self):
        assert basis.commuting_partner_count(WeylIndex(0, 0, 5)) == 25


class TestTwoGeneratorSpan:
    def test_n3_generator_words(self):
        # product oracles for the n=3 two-generator factorizations
        u20, u02 = N3_GOLDEN[(2, 0)], N3_GOLDEN[(0, 2)]
        assert np.max(np.abs(np.linalg.matrix_power(u20, 3) - N3_GOLDEN[(0, 0)])) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(u20, 2) - N3_GOLDEN[(1, 0)])) < 1e-12
        assert np.max(np.abs(u20 @ u02 - N3_GOLDEN[(2, 2)])) < 1e-12
        assert np.max(np.abs(u02 @ u02 - N3_GOLDEN[(0, 1)])) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(u20, 2) @ u02 - N3_GOLDEN[(1, 2)])) < 1e-12

    def test_n2_product(self):
        m = weyl_matrix(WeylIndex(1, 0, 2)) @ weyl_matrix(WeylIndex(0, 1, 2))
        assert np.max(np.abs(m - weyl_matrix(WeylIndex(1, 1, 2)))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_span_reaches_all(self, n):
        rep = basis.two_generator_span(n)
        assert rep.all_reached
        assert rep.max_error < 1e-12

    @pytest.mark.parametrize("n", [0, 1, -2, 2.5, True])
    def test_span_needs_two_levels(self, n):
        with pytest.raises(InputError, match=f"got {n!r}"):
            basis.two_generator_span(n)

    def test_n4_word_closure(self):
        assert basis.word_closure_reaches_all(4)


class TestConversions:
    @pytest.mark.parametrize("basis_name,coeffs", [
        ("weyl", {(3, 0): 1}), ("transition", {(-1, 0): 1}), ("transition", {(0, 3): 1}),
        ("sun", {("bogus",): 1}), ("sun", {("u", 0, 3): 1})])
    def test_assemble_rejects_keys_outside_the_basis(self, basis_name, coeffs):
        with pytest.raises(InputError):
            basis.assemble(3, basis_name, coeffs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trips(self, n):
        rng = np.random.default_rng(5 * n)
        op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for frm in basis.BASES:
            coeffs = basis.expand(op, frm)
            assert np.max(np.abs(basis.assemble(n, frm, coeffs) - op)) < 1e-12
            for to in basis.BASES:
                converted = basis.convert_coefficients(coeffs, n, frm, to)
                back = basis.assemble(n, to, converted)
                assert np.max(np.abs(back - op)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hermitian_round_trip(self, n):
        rng = np.random.default_rng(50 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        op = (a + a.conj().T) / 2
        coeffs = basis.expand(op, "weyl")
        assert np.max(np.abs(basis.assemble(n, "weyl", coeffs) - op)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transition_in_shift_phase_basis(self, n):
        # closed form: P_jk expands with weight w^(-bk)/n on U_{j-k,b}
        w = np.exp(2j * np.pi / n)
        for j in range(n):
            for k in range(n):
                coeffs = basis.expand(basis.transition(j, k, n), "weyl")
                for (a, b), c in coeffs.items():
                    expect = w ** (-b * k) if a == (j - k) % n else 0.0
                    assert abs(c - expect) < 1e-12

    def test_identity_single_coefficient(self):
        for n in (2, 3):
            for name, key in [("weyl", (0, 0)), ("transition", None), ("sun", ("id",))]:
                coeffs = basis.expand(np.eye(n), name)
                if name == "transition":
                    for (i, j), c in coeffs.items():
                        assert abs(c - (1.0 if i == j else 0.0)) < 1e-12
                else:
                    for label, c in coeffs.items():
                        expect = n if name == "weyl" and label == key else \
                            n if name == "sun" and label == key else 0.0
                        # expansion convention divides by n, so identity weight is n
                        assert abs(c - expect) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hermitian_generator_relations(self, n):
        # U_ab as a combination of the hermitian generators: the mixing
        # coefficients carry sqrt(n/2) relative to the trace-2 convention
        w = np.exp(2j * np.pi / n)
        scale = math.sqrt(2 / n)
        for a in range(n):
            for b in range(n):
                target = weyl_matrix(WeylIndex(a, b, n))
                acc = np.zeros((n, n), dtype=complex)
                for j in range(n):
                    for k in range(j + 1, n):
                        cu = 0.5 * (w ** (b * j) * ((j + a) % n == k) + w ** (b * k) * ((k + a) % n == j))
                        cv = 0.5j * (w ** (b * j) * ((j + a) % n == k) - w ** (b * k) * ((k + a) % n == j))
                        acc += cu * scale * basis.SuNGenerator("u", n, i=j, k=k).matrix()
                        acc += cv * scale * basis.SuNGenerator("v", n, i=j, k=k).matrix()
                for l in range(n - 1):
                    if a == 0:
                        cw = -(1 / math.sqrt(2 * (l + 1) * (l + 2))) * (
                            -(l + 1) * w ** (b * (l + 1)) + sum(w ** (b * (q - 1)) for q in range(1, l + 2))
                        )
                        acc += cw * scale * basis.SuNGenerator("w", n, l=l).matrix()
                if a == 0:
                    acc += (1.0 if b == 0 else sum(w ** (b * k) for k in range(n)) / n) * np.eye(n)
                assert np.max(np.abs(acc - target)) < 1e-12, (a, b)


class TestSuNGenerators:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trace_normalization(self, n):
        gens = basis.sun_basis(n)
        assert len(gens) == n * n
        mats = [g.matrix() for g in gens]
        for i, mi in enumerate(mats):
            assert np.max(np.abs(mi - mi.conj().T)) < 1e-14  # hermitian
            for j, mj in enumerate(mats):
                target = n if i == j else 0.0
                assert abs(np.trace(mi @ mj) - target) < 1e-12

    def test_n2_pauli_forms(self):
        u = basis.SuNGenerator("u", 2, i=0, k=1).matrix()
        v = basis.SuNGenerator("v", 2, i=0, k=1).matrix()
        w = basis.SuNGenerator("w", 2, l=0).matrix()
        assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.max(np.abs(v - np.array([[0, 1j], [-1j, 0]]))) < 1e-15
        assert np.array_equal(w, np.diag([-1.0 + 0j, 1.0 + 0j]))

    def test_invalid_indices(self):
        with pytest.raises(InputError):
            basis.SuNGenerator("u", 3, i=2, k=1)
        with pytest.raises(InputError):
            basis.SuNGenerator("w", 3, l=2)


class TestPowers:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_power_phase_closed_form(self, n):
        for a in range(n):
            for b in range(n):
                idx = WeylIndex(a, b, n)
                m = weyl_matrix(idx)
                acc = np.eye(n, dtype=complex)
                for k in range(2 * n):
                    exp, res = basis.weyl_power(idx, k)
                    target = basis.root_of_unity(n, exp) * weyl_matrix(res)
                    assert np.max(np.abs(acc - target)) < 1e-11
                    acc = acc @ m

    def test_nth_power_is_scalar(self):
        # (U_ab)^n = w^(ab n(n-1)/2) * identity
        for n in (2, 3, 4, 5):
            for a in range(n):
                for b in range(n):
                    exp, res = basis.weyl_power(WeylIndex(a, b, n), n)
                    assert (res.a, res.b) == (0, 0)
                    assert abs(basis.root_of_unity(n, exp)
                               - basis.eigenvalue_power_target(WeylIndex(a, b, n))) < 1e-12
