"""Permutation symmetry classes of two-level networks.

The symmetric group acts on (C^2)^(x N) by permuting nodes; operators
built only from permutation-symmetric collective members are blocked by
total angular momentum j.  Matrix elements between different-j states
vanish (a superselection rule), and within one j the action is
independent of the multiplicity copy, so (2j+1)^2 parameters describe
each class and sum_j (2j+1)^2 = (N+1)(N+2)(N+3)/6 in total.

Spin convention: |1> is spin up (sigma_z = diag(-1, +1)), so the
magnetic number of a product state is (number of 1s - number of 0s)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _check_count, _check_real
from .collective import collective_labels, collective_operator, placement_operator, placements
from .errors import InputError


def permutation_operator(perm) -> np.ndarray:
    """Unitary P with P (|x_1> ... |x_N>) = |x_{perm^-1(1)}> ... ; a
    composition homomorphism: P(s) P(t) = P(s o t).

    ``perm`` maps source node -> destination node, 0-based.
    """
    perm = tuple(perm)
    n_nodes = len(perm)
    if sorted(perm) != list(range(n_nodes)):
        raise InputError(f"not a permutation of 0..{n_nodes - 1}: {perm}")
    dim = 2 ** n_nodes
    # digit i of the source is digit perm[i] of the destination
    source = np.arange(dim).reshape((2,) * n_nodes).transpose(np.argsort(perm)).ravel()
    p = np.zeros((dim, dim), dtype=complex)
    p[np.arange(dim), source] = 1.0
    return p


def collective_spin(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total spin components S_x, S_y, S_z (spin-1/2 per node): E_{100,0}/2, E_{010,0}/2, E_{001,0}/2."""
    return tuple(placement_operator(placements(*counts, n_nodes), [0.5] * n_nodes)
                 for counts in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@dataclass
class SpinClass:
    """One total-j symmetry class with its aligned multiplicity copies.

    ``vectors[r][k]`` is the basis vector of copy r at magnetic number
    m = j - k.  Each copy is one coupling path (the sequence of j values
    met while the nodes are coupled one at a time), so S_- lowers every
    copy alike and permutation-symmetric operators act identically in
    every copy.
    """

    j: float
    multiplicity: int
    vectors: np.ndarray  # shape (multiplicity, 2j+1, dim)

    @property
    def degeneracy(self) -> int:
        return int(round(2 * self.j)) + 1


def spin_basis(n_nodes: int) -> list[SpinClass]:
    """Simultaneous (S^2, S_z) eigenbasis organized by symmetry class.

    Couples one spin-1/2 node at a time, appended as the new least
    significant bit (index 2i + bit), with Condon-Shortley
    Clebsch-Gordan coefficients: class j of the smaller network feeds
    J = j + 1/2 and, for j > 0, J = j - 1/2 (Bacon, Chuang & Harrow,
    PRL 97, 170502).  Closed form: no eigensolver and no 2^N x 2^N
    operator.  Copies of J come from j = J - 1/2 first.
    """
    _check_count(n_nodes, "spin basis needs N", 10)
    # 2j -> (copies, m = j .. -j, 2^n); one node: m = +1/2 is |1>, m = -1/2 is |0>
    classes = {1: np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)}
    for n in range(2, n_nodes + 1):
        grown = {}
        for j2 in range(n, -1, -2):  # 2J
            up, down = classes.get(j2 - 1), classes.get(j2 + 1)  # j = J - 1/2 and j = J + 1/2
            n_up = 0 if up is None else len(up)
            n_down = 0 if down is None else len(down)
            out = np.zeros((n_up + n_down, j2 + 1, 2 ** (n - 1), 2), dtype=complex)
            m2 = j2 - 2 * np.arange(j2 + 1)  # 2M
            if up is not None:  # |J,M> = sqrt((J+M)/2J) |j,M-1/2>|1> + sqrt((J-M)/2J) |j,M+1/2>|0>
                np.multiply(np.sqrt((j2 + m2[:-1]) / (2 * j2))[:, None], up, out=out[:n_up, :-1, :, 1])
                np.multiply(np.sqrt((j2 - m2[1:]) / (2 * j2))[:, None], up, out=out[:n_up, 1:, :, 0])
            if down is not None:  # -sqrt((J-M+1)/(2J+2)) |j,M-1/2>|1> + sqrt((J+M+1)/(2J+2)) |j,M+1/2>|0>
                np.multiply(-np.sqrt((j2 - m2 + 2) / (2 * j2 + 4))[:, None], down[:, 1:],
                            out=out[n_up:, :, :, 1])
                np.multiply(np.sqrt((j2 + m2 + 2) / (2 * j2 + 4))[:, None], down[:, :-1],
                            out=out[n_up:, :, :, 0])
            grown[j2] = out.reshape(n_up + n_down, j2 + 1, 2 ** n)
        classes = grown
    return [SpinClass(j=j2 / 2, multiplicity=len(v), vectors=v) for j2, v in classes.items()]


def parameter_count_identity(
    n_nodes: int, classes: list[SpinClass] | None = None
) -> tuple[int, int, int]:
    """(sum mult*(2j+1), sum (2j+1)^2, (N+1)(N+2)(N+3)/6).

    ``classes`` is ``spin_basis(n_nodes)``, built here when not given.
    """
    if classes is None:
        classes = spin_basis(n_nodes)
    total_dim = sum(c.multiplicity * c.degeneracy for c in classes)
    param = sum(c.degeneracy ** 2 for c in classes)
    xi0 = (n_nodes + 1) * (n_nodes + 2) * (n_nodes + 3) // 6
    return total_dim, param, xi0


def _frame(classes: list[SpinClass]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, class index, copy index): the rows of the unitary V are every
    class vector, class by class, copy by copy, m = j down to -j."""
    frame = np.concatenate([c.vectors.reshape(-1, c.vectors.shape[-1]) for c in classes])
    sizes = [c.multiplicity * c.degeneracy for c in classes]
    copies = [np.repeat(np.arange(c.multiplicity), c.degeneracy) for c in classes]
    return frame, np.repeat(np.arange(len(classes)), sizes), np.concatenate(copies)


def class_weights(rho) -> dict:
    """j -> tr(P_j rho) for a 2^N x 2^N operator, or a stack of them.

    The weights are the diagonal of V* rho V^T in the class frame,
    summed per class; no projector is formed.  A stack gives one array
    of weights per class.
    """
    rho = np.asarray(rho)
    dim = rho.shape[-1] if rho.ndim >= 2 else 0
    if rho.shape[-2:] != (dim, dim) or dim < 1 or dim & (dim - 1):
        raise InputError(f"class weights need 2^N x 2^N operators, got shape {rho.shape}")
    classes = spin_basis(dim.bit_length() - 1)
    frame, cls, _ = _frame(classes)
    diagonal = np.sum((frame.conj() @ rho) * frame, axis=-1).real
    weights = {c.j: np.sum(diagonal[..., cls == k], axis=-1) for k, c in enumerate(classes)}
    return weights if rho.ndim > 2 else {j: float(w) for j, w in weights.items()}


# ---------------------------------------------------------------------------
# golden four-node class table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassVector:
    """One labeled basis vector of the four-node symmetry classes."""

    config: str
    m: int  # 2*m is stored as-is here since N=4 gives integer m
    j: int
    tableau: str
    amplitudes: tuple[tuple[str, float], ...]

    def vector(self) -> np.ndarray:
        v = np.zeros(16, dtype=complex)
        for ket, amp in self.amplitudes:
            v[int(ket, 2)] = amp
        return v


_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)

#: the sixteen four-node class vectors, signs exactly as tabulated
FOUR_NODE_CLASS_TABLE: tuple[ClassVector, ...] = (
    ClassVector("1111", 2, 2, "1234", (("1111", 1.0),)),
    ClassVector("0111", 1, 2, "1234",
                (("1110", .5), ("1101", .5), ("1011", .5), ("0111", .5))),
    ClassVector("0111", 1, 1, "123|4",
                (("1110", 3 / (2 * _S3)), ("1101", -1 / (2 * _S3)),
                 ("1011", -1 / (2 * _S3)), ("0111", -1 / (2 * _S3)))),
    ClassVector("0111", 1, 1, "124|3",
                (("1101", 2 / _S6), ("1011", -1 / _S6), ("0111", -1 / _S6))),
    ClassVector("0111", 1, 1, "134|2",
                (("0111", 1 / _S2), ("1011", -1 / _S2))),
    ClassVector("0011", 0, 2, "1234",
                (("0011", 1 / _S6), ("0101", 1 / _S6), ("0110", 1 / _S6),
                 ("1001", 1 / _S6), ("1010", 1 / _S6), ("1100", 1 / _S6))),
    ClassVector("0011", 0, 1, "123|4",
                (("0011", 1 / _S6), ("0101", 1 / _S6), ("0110", -1 / _S6),
                 ("1001", 1 / _S6), ("1010", -1 / _S6), ("1100", -1 / _S6))),
    ClassVector("0011", 0, 1, "124|3",
                (("0011", 2 / (2 * _S3)), ("0101", -1 / (2 * _S3)), ("0110", 1 / (2 * _S3)),
                 ("1001", -1 / (2 * _S3)), ("1010", 1 / (2 * _S3)), ("1100", -2 / (2 * _S3)))),
    ClassVector("0011", 0, 1, "134|2",
                (("0101", .5), ("0110", .5), ("1001", -.5), ("1010", -.5))),
    ClassVector("0011", 0, 0, "12|34",
                (("0011", .5), ("0110", -.5), ("1001", -.5), ("1100", .5))),
    ClassVector("0011", 0, 0, "13|24",
                (("0101", .5), ("0110", -.5), ("1001", -.5), ("1010", .5))),
    ClassVector("0001", -1, 2, "1234",
                (("0001", .5), ("0010", .5), ("0100", .5), ("1000", .5))),
    ClassVector("0001", -1, 1, "123|4",
                (("0001", 3 / (2 * _S3)), ("0010", -1 / (2 * _S3)),
                 ("0100", -1 / (2 * _S3)), ("1000", -1 / (2 * _S3)))),
    ClassVector("0001", -1, 1, "124|3",
                (("0010", 2 / _S6), ("0100", -1 / _S6), ("1000", -1 / _S6))),
    ClassVector("0001", -1, 1, "134|2",
                (("1000", 1 / _S2), ("0100", -1 / _S2))),
    ClassVector("0000", -2, 2, "1234", (("0000", 1.0),)),
)


def young_basis_n4() -> tuple[ClassVector, ...]:
    """The tabulated four-node class vectors (16 of them).

    All are unit vectors; every pair is orthogonal except the two j = 0
    vectors, whose different singlet pairings overlap by exactly 1/2 as
    tabulated.  Cross-class (different-j) orthogonality is exact.
    """
    return FOUR_NODE_CLASS_TABLE


# ---------------------------------------------------------------------------
# superselection verification
# ---------------------------------------------------------------------------

@dataclass
class SuperselectionReport:
    n_nodes: int
    max_cross_j_element: float
    max_cross_copy_element: float
    max_copy_mismatch: float
    operator_count: int
    parameter_count: int
    independent_rank: int


def superselection_check(n_nodes: int) -> SuperselectionReport:
    """Verify the j-block structure of all permutation-symmetric members.

    Every b = 0 collective operator E is taken into the class frame once,
    B = V* E V^T.  Elements between different-j rows vanish; within one
    j, elements between different copies vanish and every copy's block
    equals copy 0's (Schur structure).  The copy-0 blocks of all
    operators, stacked as vectors, have full rank equal to the operator
    count, matching sum_j (2j+1)^2.
    """
    _check_count(n_nodes, "superselection check needs N", 7)
    classes = spin_basis(n_nodes)
    frame, cls, copy = _frame(classes)
    ops = np.array([collective_operator(lab, n_nodes)
                    for lab in collective_labels(n_nodes, b_zero_only=True)])
    b = frame.conj() @ ops @ frame.T
    same_class = cls[:, None] == cls
    same_copy = same_class & (copy[:, None] == copy)
    # each row's partner: the same m in copy 0 of its class
    partner = np.arange(len(cls)) - copy * np.array([c.degeneracy for c in classes])[cls]
    mismatch = np.abs(b - b[:, partner][:, :, partner])
    rank = int(np.linalg.matrix_rank(b[:, same_copy & (copy[:, None] == 0)], tol=1e-8))
    return SuperselectionReport(
        n_nodes=n_nodes,
        max_cross_j_element=float(np.abs(b[:, ~same_class]).max(initial=0.0)),
        max_cross_copy_element=float(np.abs(b[:, same_class & ~same_copy]).max(initial=0.0)),
        max_copy_mismatch=float(mismatch[:, same_copy].max(initial=0.0)),
        operator_count=len(ops),
        parameter_count=sum(c.degeneracy ** 2 for c in classes),
        independent_rank=rank,
    )


# ---------------------------------------------------------------------------
# symmetry breaking scenario
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    initial_weights: dict
    prepared_weights: dict
    max_leakage: float
    pair_singlet_weights: dict
    pair_singlet_scalar_residual: float


def symmetry_breaking_scenario(total_time: float = 50.0, steps: int = 60) -> ScenarioReport:
    """Selective preparation moves |0000> into the j = 1 class and stays.

    A selective two-node unitary turns nodes 1-2 into the antisymmetric
    pair state; the four-node state then has all its weight at j = 1,
    and any permutation-symmetric evolution keeps it there.  The fully
    paired state (both node pairs antisymmetric) sits at j = 0 and is an
    eigenvector of every b = 0 collective operator.  The symmetric
    Hamiltonian has normal random weights from seed 0.
    """
    from .protocols import hermitian_expm

    _check_real(total_time, "scenario total_time")
    _check_count(steps, "scenario needs steps", 10 ** 4)
    n_nodes = 4
    dim = 16
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0

    singlet = np.zeros(4, dtype=complex)
    singlet[0b01] = 1 / _S2
    singlet[0b10] = -1 / _S2
    ket = np.eye(4, dtype=complex)  # |00>, |01>, |10>, |11>
    # sends |00> to the singlet and |01>, |10>, |11> to the triplet |00>, (|01>+|10>)/sqrt(2), |11>
    v = np.stack([singlet, ket[0b00], (ket[0b01] + ket[0b10]) / _S2, ket[0b11]], axis=1)
    u_prep = np.kron(v, np.eye(4, dtype=complex))
    psi1 = u_prep @ psi0
    paired = np.kron(singlet, singlet)

    rng = np.random.default_rng(0)
    ops = np.array([collective_operator(lab, n_nodes)
                    for lab in collective_labels(n_nodes, b_zero_only=True)])
    h = sum(rng.normal() * op for op in ops)
    times = np.linspace(0.0, total_time, steps + 1)
    # rows: the ground, prepared and paired states, then the prepared state at every time
    states = np.vstack([psi0, psi1, paired, hermitian_expm(h, times) @ psi1])
    weights = class_weights(states[:, :, None] * states[:, None, :].conj())
    initial, prepared, pair_weights = ({j: float(w[k]) for j, w in weights.items()} for k in range(3))
    leakage = float(np.max(np.abs(1.0 - weights[1.0][3:])))
    images = ops @ paired  # an eigenvector of each member: images minus expectations times it vanish
    residuals = np.linalg.norm(images - np.outer(images @ paired.conj(), paired), axis=1)

    return ScenarioReport(
        initial_weights=initial,
        prepared_weights=prepared,
        max_leakage=leakage,
        pair_singlet_weights=pair_weights,
        pair_singlet_scalar_residual=float(np.max(residuals)),
    )
