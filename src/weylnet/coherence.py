"""Complex coherence vector of a density operator and its unitary motion.

A state rho on an n-level system expands as rho = (1/n) sum_i u_i U_i
over the shift/phase unitaries with u_i = tr{U_i^dag rho}.  The i = 0
component is always 1 and is dropped; the remaining n^2 - 1 complex
components form the coherence vector u.  Unitary evolution rotates u:
u(t) = T(t) u(0), infinitesimally du/dt = Omega u.

hbar = 1 throughout; Hamiltonians are in angular-frequency units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import WeylIndex, _check_real, as_operator, from_single_index, inverse_weyl_transform, weyl_transform
from .errors import CapExceeded, InputError
from .io import csv_lines

#: tolerance for state validation (hermiticity, trace, positivity)
STATE_ATOL = 1e-10


@dataclass(frozen=True)
class CoherenceVector:
    """Coherence vector: u[i-1] holds u_i for i = n*a + b, i = 1..n^2-1."""

    n: int
    u: np.ndarray

    def __post_init__(self):
        if self.u.shape != (self.n * self.n - 1,):
            raise InputError(f"coherence vector must have length {self.n**2 - 1}")

    def entry(self, a: int, b: int) -> complex:
        """u_ab; indices outside 0 <= a, b < n raise InputError."""
        i = WeylIndex(a, b, self.n).single_index
        if i == 0:
            return 1.0 + 0j
        return complex(self.u[i - 1])

    @property
    def length_sq(self) -> float:
        """|u|^2 = n tr{rho^2} - 1; equals n-1 exactly on pure states."""
        return float(np.sum(np.abs(self.u) ** 2))

    def symmetry_residual(self) -> float:
        """Max violation of u_ab = conj(u_{-a,-b}) * w^(ab)."""
        n = self.n
        w = np.exp(2j * np.pi / n)
        worst = 0.0
        for i in range(1, n * n):
            idx = from_single_index(i, n)
            other = self.entry((-idx.a) % n, (-idx.b) % n)
            worst = max(worst, abs(self.u[i - 1] - np.conj(other) * w ** ((idx.a * idx.b) % n)))
        return worst

    def csv_rows(self) -> list[tuple[int, int, float, float]]:
        """(a, b, Re u, Im u) rows for every i != 0, in index order."""
        rows = []
        for i in range(1, self.n * self.n):
            idx = from_single_index(i, self.n)
            rows.append((idx.a, idx.b, float(self.u[i - 1].real), float(self.u[i - 1].imag)))
        return rows


def validate_state(rho) -> np.ndarray:
    """Check hermiticity, unit trace and positivity to STATE_ATOL; return the array.

    Positivity is one Cholesky factorization: the hermitian part plus
    STATE_ATOL times the identity has one exactly when its least
    eigenvalue is above -STATE_ATOL.
    """
    m = as_operator(rho)
    if np.max(np.abs(m - m.conj().T)) > STATE_ATOL:
        raise InputError("density operator is not hermitian")
    if abs(np.trace(m) - 1.0) > STATE_ATOL:
        raise InputError(f"density operator trace {np.trace(m):.3g} != 1")
    h = m.conj().T
    h += m
    h *= 0.5
    h[np.diag_indices_from(h)] += STATE_ATOL
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise InputError("density operator is not positive semidefinite") from None
    return m


def expand_state(rho) -> CoherenceVector:
    """Coherence vector of a valid density operator."""
    m = validate_state(rho)
    n = m.shape[0]
    u = weyl_transform(m, (n,)).ravel()
    return CoherenceVector(n=n, u=u[1:])


def reconstruct_state(cv: CoherenceVector) -> np.ndarray:
    """rho = (1/n) (1 + sum_{i != 0} u_i U_i)."""
    n = cv.n
    return inverse_weyl_transform(np.concatenate(([1.0], cv.u)).reshape(n, n), (n,))


def rotation_matrix(u_t) -> np.ndarray:
    """Coherence-space rotation T with T_ij = (1/n) tr{U_j U(t)^dag U_i^dag U(t)}.

    T is unitary on the (n^2-1)-dimensional coherence space and satisfies
    expand_state(U rho U^dag).u == T @ expand_state(rho).u; U must be
    unitary to 1e-8.
    """
    U = as_operator(u_t)
    n = U.shape[0]
    if np.max(np.abs(U.conj().T @ U - np.eye(n))) > 1e-8:
        raise InputError("evolution operator is not unitary")
    d = n * n
    units = inverse_weyl_transform(n * np.eye(d).reshape(d, n, n), (n,))  # U_j, j = n*a + b
    # column j holds the coefficients of U U_j U^dag
    t_full = weyl_transform(U @ units @ U.conj().T, (n,)).reshape(d, d).T / n
    return t_full[1:, 1:]


def generator_matrix(h) -> np.ndarray:
    """Rotation generator Omega_ij = -(1/(n i)) tr{H [U_i^dag, U_j]_-}.

    Omega is anti-hermitian in the sense Omega_ij = -conj(Omega_ji), has
    zero trace, and du/dt = Omega u reproduces the conjugated state.
    [U_i^dag, U_j]_- is the single term f_ij U_{j-i} (see
    :func:`weylnet.basis.structure_constant`), and tr{H U_k} is the
    conjugate of H's Weyl coefficient h_k, so
    Omega_ij = (i/n) f_ij conj(h_{j-i}).
    """
    H = as_operator(h)
    n = H.shape[0]
    if np.max(np.abs(H - H.conj().T)) > STATE_ATOL:
        raise InputError("Hamiltonian must be hermitian")
    h = weyl_transform(H, (n,)).ravel()
    a, b = np.divmod(np.arange(n * n), n)
    ai, bi, aj, bj = a[:, None], b[:, None], a[None, :], b[None, :]
    w = np.exp(2j * np.pi * np.arange(n) / n)
    f = w[(ai * bi - bi * aj) % n] - w[(ai * bi - ai * bj) % n]
    omega = 1j / n * f * np.conj(h[((aj - ai) % n) * n + (bj - bi) % n])
    return omega[1:, 1:]


def evolve_coherence(omega: np.ndarray, u0: np.ndarray, t: float) -> np.ndarray:
    """Integrate du/dt = Omega u with classical fixed-step RK4.

    The step is at most 0.002 / max(1, ||Omega||_2), which keeps the
    global error safely below 1e-8 for t*||H|| <= 10.
    """
    _check_real(t, "evolution time")
    scale = max(1.0, float(np.linalg.norm(omega, 2)))
    steps = abs(t) * scale / 0.002
    if steps > 10 ** 6:
        raise CapExceeded(f"t = {t!r} needs {steps:.3g} RK4 steps, more than 10^6")
    nsteps = max(1, math.ceil(steps))
    h = t / nsteps
    u = np.asarray(u0, dtype=complex).copy()
    for _ in range(nsteps):
        k1 = omega @ u
        k2 = omega @ (u + h / 2 * k1)
        k3 = omega @ (u + h / 2 * k2)
        k4 = omega @ (u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def coherence_csv(cv: CoherenceVector) -> str:
    """CSV export with rows (a, b, Re u, Im u)."""
    return csv_lines("a,b,re_u,im_u", cv.csv_rows())
