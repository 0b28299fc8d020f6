"""Coherence vector: expansion, purity criterion, rotations, generator."""

import numpy as np
import pytest

import oracles
from weylnet import coherence
from weylnet.basis import WeylIndex, weyl_matrix
from weylnet.errors import CapExceeded, InputError
from weylnet.protocols import hermitian_expm


def random_density(n, rng, pure=False):
    if pure:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return q


class TestExpansion:
    def test_pure_qubit_length(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        cv = coherence.expand_state(rho)
        assert abs(cv.length_sq - 1.0) < 1e-12  # n - 1 for a pure state

    def test_maximally_mixed(self):
        for n in (2, 3, 4):
            cv = coherence.expand_state(np.eye(n) / n)
            assert np.max(np.abs(cv.u)) < 1e-12

    def test_random_pure_n3(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cv = coherence.expand_state(random_density(3, rng, pure=True))
            assert abs(cv.length_sq - 2.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_purity_identity(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            rho = random_density(n, rng)
            cv = coherence.expand_state(rho)
            assert abs(cv.length_sq - (n * np.trace(rho @ rho).real - 1)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetry_relation(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(5):
            cv = coherence.expand_state(random_density(n, rng))
            assert cv.symmetry_residual() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(20 + n)
        rho = random_density(n, rng)
        cv = coherence.expand_state(rho)
        assert np.max(np.abs(coherence.reconstruct_state(cv) - rho)) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            coherence.expand_state(np.eye(2))  # trace 2
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InputError):
            coherence.expand_state(bad)  # not hermitian
        neg = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InputError):
            coherence.expand_state(neg)  # not PSD
        nan = np.diag([np.nan, 0.5]).astype(complex)
        with pytest.raises(InputError):
            coherence.validate_state(nan)  # every NaN comparison is False

    @pytest.mark.parametrize("a, b", [(-1, 1), (5, 0), (0, 2), (1, -1)])
    def test_entry_out_of_range(self, a, b):
        # a negative index must not wrap round to another component
        cv = coherence.expand_state(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        with pytest.raises(InputError):
            cv.entry(a, b)


def state_with_least_eigenvalue(dim, rank, least, seed):
    """A hermitian unit-trace matrix: ``rank`` positive eigenvalues (``dim - 1``
    when ``rank == dim``) and one eigenvalue ``least``, in random directions."""
    rng = np.random.default_rng(seed)
    k = min(rank + 1, dim)
    v, _ = np.linalg.qr(rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k)))
    positive = rng.uniform(0.5, 1.5, size=k - 1)
    w = np.append(positive * (1 - least) / positive.sum(), least)
    rho = (v * w) @ v.conj().T
    return (rho + rho.conj().T) / 2  # exactly hermitian


class TestPositivity:
    @pytest.mark.parametrize("dim", [8, 64, 729])
    @pytest.mark.parametrize("rank", [1, 3, "dim"])
    @pytest.mark.parametrize("least, accepted", [(-0.99e-10, True), (-1.01e-10, False)])
    def test_boundary_matches_eigenvalue_oracle(self, dim, rank, least, accepted):
        rho = state_with_least_eigenvalue(dim, dim if rank == "dim" else rank, least, seed=dim)
        for validate in (coherence.validate_state, oracles.validate_state):
            if accepted:
                assert validate(rho) is rho
            else:
                with pytest.raises(InputError, match="not positive semidefinite"):
                    validate(rho)

    def test_input_is_left_as_it_was(self):
        rho = random_density(5, np.random.default_rng(3))
        before = rho.copy()
        assert coherence.validate_state(rho) is rho
        assert np.array_equal(rho, before)


class TestRotationMatrix:
    def test_identity_evolution(self):
        for n in (2, 3):
            t = coherence.rotation_matrix(np.eye(n))
            assert np.max(np.abs(t - np.eye(n * n - 1))) < 1e-12

    def test_shift_conjugation_phases(self):
        # U = U_10 conjugates each U_ab to w^b U_ab, so T is diagonal
        # with phases w^(-b) on the coherence components
        n = 2
        w = np.exp(2j * np.pi / n)
        t = coherence.rotation_matrix(weyl_matrix(WeylIndex(1, 0, n)))
        expect = np.diag([w ** (-b) for (a, b) in [(0, 1), (1, 0), (1, 1)]])
        assert np.max(np.abs(t - expect)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_map_matches_conjugation(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(10):
            rho = random_density(n, rng)
            u = random_unitary(n, rng)
            cv = coherence.expand_state(rho)
            t = coherence.rotation_matrix(u)
            direct = coherence.expand_state(u @ rho @ u.conj().T)
            assert np.max(np.abs(t @ cv.u - direct.u)) < 1e-10

    def test_length_preserved_100_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            rho = random_density(n, rng)
            u = random_unitary(n, rng)
            cv = coherence.expand_state(rho)
            rotated = coherence.rotation_matrix(u) @ cv.u
            assert abs(np.linalg.norm(rotated) - np.linalg.norm(cv.u)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitarity_on_coherence_space(self, n):
        rng = np.random.default_rng(40 + n)
        t = coherence.rotation_matrix(random_unitary(n, rng))
        d = n * n - 1
        assert np.max(np.abs(t.conj().T @ t - np.eye(d))) < 1e-10

    def test_group_property(self):
        # T(t1) T(t2) = T(t1 + t2) for a fixed Hamiltonian
        rng = np.random.default_rng(50)
        n = 3
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        t1, t2 = 0.6, 1.1
        m1 = coherence.rotation_matrix(hermitian_expm(h, t1))
        m2 = coherence.rotation_matrix(hermitian_expm(h, t2))
        m12 = coherence.rotation_matrix(hermitian_expm(h, t1 + t2))
        assert np.max(np.abs(m1 @ m2 - m12)) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(InputError):
            coherence.rotation_matrix(np.diag([1.0, 0.5]))


class TestGenerator:
    def test_zero_hamiltonian(self):
        for n in (2, 3):
            om = coherence.generator_matrix(np.zeros((n, n)))
            assert np.max(np.abs(om)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_antisymmetry_and_trace(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(50 if n == 2 else 10):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (a + a.conj().T) / 2
            om = coherence.generator_matrix(h)
            assert np.max(np.abs(om + om.conj().T)) < 1e-12
            assert abs(np.trace(om)) < 1e-12

    def test_level_splitting_oracle(self):
        # H = (w0/2) * diag(-1, 1): populations static, coherences rotate
        # at the level splitting; closed-form 2x2 exponential oracle
        omega0 = 1.3
        h = omega0 / 2 * np.diag([-1.0, 1.0]).astype(complex)
        om = coherence.generator_matrix(h)
        # component order: (0,1), (1,0), (1,1)
        assert abs(om[0, 0]) < 1e-12 and np.max(np.abs(om[0, 1:])) < 1e-12
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        cv = coherence.expand_state(rho)
        t = 0.9
        u = np.diag(np.exp(-1j * np.diag(h) * t))
        direct = coherence.expand_state(u @ rho @ u.conj().T)
        mapped = coherence.rotation_matrix(u) @ cv.u
        assert np.max(np.abs(mapped - direct.u)) < 1e-12
        # population component static
        assert abs(direct.u[0] - cv.u[0]) < 1e-12
        # the off-diagonal density entries (u_10 -+ u_11)/2 rotate at the
        # level splitting omega0
        upper0 = (cv.u[1] - cv.u[2]) / 2
        lower0 = (cv.u[1] + cv.u[2]) / 2
        upper_t = (direct.u[1] - direct.u[2]) / 2
        lower_t = (direct.u[1] + direct.u[2]) / 2
        assert abs(upper_t - np.exp(1j * omega0 * t) * upper0) < 1e-12
        assert abs(lower_t - np.exp(-1j * omega0 * t) * lower0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_ode_matches_map(self, n):
        rng = np.random.default_rng(70 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        h /= np.linalg.norm(h, 2)  # t * ||H|| = 10 at t = 10
        rho = random_density(n, rng)
        cv = coherence.expand_state(rho)
        om = coherence.generator_matrix(h)
        t = 10.0
        integrated = coherence.evolve_coherence(om, cv.u, t)
        mapped = coherence.rotation_matrix(hermitian_expm(h, t)) @ cv.u
        assert np.max(np.abs(integrated - mapped)) < 1e-8

    @pytest.mark.parametrize("t, error, match", [
        (float("nan"), InputError, "got nan"), (float("inf"), InputError, "got inf"),
        (-float("inf"), InputError, "got -inf"), (1e308, CapExceeded, "more than 10"),
        (1e9, CapExceeded, "5e\\+11 RK4 steps")])
    def test_bad_time_refused_before_the_loop(self, t, error, match):
        omega = coherence.generator_matrix(np.diag([0.5, -0.5]).astype(complex))
        assert abs(np.linalg.norm(omega, 2) - 1.0) < 1e-12
        with pytest.raises(error, match=match):
            coherence.evolve_coherence(omega, np.zeros(3, dtype=complex), t)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            coherence.generator_matrix(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("build", [coherence.rotation_matrix, coherence.generator_matrix])
@pytest.mark.parametrize("op", [np.zeros((2, 3)), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])],
                         ids=["non-square", "nan", "inf"])
def test_malformed_operator_rejected(build, op):
    with pytest.raises(InputError):
        build(op)


class TestCsv:
    def test_rows_and_header(self):
        cv = coherence.expand_state(np.diag([1.0, 0.0]).astype(complex))
        text = coherence.coherence_csv(cv)
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,re_u,im_u"
        assert len(lines) == 4  # header + 3 components
        assert lines[1].startswith("0,1,")
