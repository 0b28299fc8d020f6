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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .collective import collective_labels, collective_operator, placement_operator, placements
from .errors import CapExceeded, InputError


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
    m = j - k; copies are generated by lowering from a deterministic
    orthonormal basis of the highest-weight space, which aligns them so
    permutation-symmetric operators act identically in every copy.
    """

    j: float
    multiplicity: int
    vectors: np.ndarray  # shape (multiplicity, 2j+1, dim)

    @property
    def degeneracy(self) -> int:
        return int(round(2 * self.j)) + 1


def spin_basis(n_nodes: int) -> list[SpinClass]:
    """Simultaneous (S^2, S_z) eigenbasis organized by symmetry class.

    Each class is built in the S_z block of its highest weight m = j,
    where S^2 = N(4 - N)/4 + sum_{i<j} P_ij swaps bit pairs; S_- lowers
    every copy at once as an index map, so no 2^N x 2^N operator is
    formed (Bacon, Chuang & Harrow, PRL 97, 170502).
    """
    if n_nodes < 1:
        raise InputError(f"spin basis needs N >= 1 nodes, got {n_nodes}")
    if n_nodes > 10:
        raise CapExceeded(f"spin basis supported for 1 <= N <= 10, got {n_nodes}")
    dim = 2 ** n_nodes
    bits = 1 << np.arange(n_nodes)
    ones = np.sum(np.arange(dim)[:, None] & bits > 0, axis=1)
    blocks = [np.flatnonzero(ones == k) for k in range(n_nodes + 1)]  # 2m = 2k - N
    rank = np.empty(dim, dtype=int)  # position of each string inside its block
    for block in blocks:
        rank[block] = np.arange(len(block))

    classes = []
    for j2 in range(n_nodes, -1, -2):
        j = j2 / 2
        top = (n_nodes + j2) // 2  # ones at m = j
        block = blocks[top]
        s2 = np.diag(np.full(len(block), n_nodes * (4 - n_nodes) / 4))
        for p, q in itertools.combinations(range(n_nodes), 2):
            swap = ((block >> p ^ block >> q) & 1) * (1 << p | 1 << q)
            s2[rank[block ^ swap], np.arange(len(block))] += 1.0
        vals, vecs = np.linalg.eigh(s2)
        sel = np.abs(vals - j * (j + 1)) < 1e-8
        mult = int(np.sum(sel))  # >= 1: every j = N/2, N/2 - 1, ..., >= 0 occurs
        chain = _deterministic_span(vecs[:, sel])  # block x mult, orthonormal
        vectors = np.zeros((mult, j2 + 1, dim), dtype=complex)
        vectors[:, 0, block] = chain.T
        for k in range(1, j2 + 1):  # S_- from m = j - k + 1: sum the strings with one more 1
            lower = blocks[top - k]
            raised = lower[:, None] | bits
            sources = rank[raised[raised != lower[:, None]].reshape(len(lower), -1)]
            chain = chain[sources].sum(axis=1) / math.sqrt(j * (j + 1) - (j - k + 1) * (j - k))
            vectors[:, k, lower] = chain.T
        classes.append(SpinClass(j=j, multiplicity=mult, vectors=vectors))
    return classes


def _deterministic_span(space: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a column span, seeded by computational order.

    Projects the computational basis vectors in index order onto the
    span and Gram-Schmidt-filters them, so the result is reproducible
    and independent of eigensolver phase conventions.
    """
    dim, mult = space.shape
    proj = space @ space.conj().T
    chosen: list[np.ndarray] = []
    for idx in range(dim):
        v = proj[:, idx].copy()
        for c in chosen:
            v -= c * np.vdot(c, v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            chosen.append(v / norm)
            if len(chosen) == mult:
                break
    return np.stack(chosen, axis=1)


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


def spin_projectors(n_nodes: int) -> dict:
    """j -> projector onto the full j eigenspace."""
    out = {}
    for cls in spin_basis(n_nodes):
        vecs = cls.vectors.reshape(-1, 2 ** n_nodes)
        out[cls.j] = vecs.T @ vecs.conj()
    return out


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

    For every b = 0 collective operator: elements between different-j
    vectors vanish; within one j, elements between different copies
    vanish and the per-copy blocks coincide (Schur structure).  The
    blocks of all operators, stacked as vectors, have full rank equal to
    the operator count, matching sum_j (2j+1)^2.
    """
    if n_nodes > 6:
        raise CapExceeded("superselection check supported for N <= 6")
    classes = spin_basis(n_nodes)
    ops = [collective_operator(lab, n_nodes) for lab in collective_labels(n_nodes, b_zero_only=True)]

    cross_j = 0.0
    cross_copy = 0.0
    copy_mismatch = 0.0
    compressed = []
    for op in ops:
        blocks = []
        for ci, cls_i in enumerate(classes):
            for ri in range(cls_i.multiplicity):
                vi = cls_i.vectors[ri]
                for cj, cls_j in enumerate(classes):
                    for rj in range(cls_j.multiplicity):
                        block = vi.conj() @ op @ cls_j.vectors[rj].T
                        if ci != cj:
                            cross_j = max(cross_j, float(np.max(np.abs(block))))
                        elif ri != rj:
                            cross_copy = max(cross_copy, float(np.max(np.abs(block))))
                        elif ri == 0:
                            blocks.append(block)
                        else:
                            ref = cls_i.vectors[0].conj() @ op @ cls_i.vectors[0].T
                            copy_mismatch = max(copy_mismatch, float(np.max(np.abs(block - ref))))
        compressed.append(np.concatenate([b.ravel() for b in blocks]))
    stack = np.array(compressed)
    rank = int(np.linalg.matrix_rank(stack, tol=1e-8))
    return SuperselectionReport(
        n_nodes=n_nodes,
        max_cross_j_element=cross_j,
        max_cross_copy_element=cross_copy,
        max_copy_mismatch=copy_mismatch,
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
    times: np.ndarray
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

    n_nodes = 4
    dim = 16
    projectors = spin_projectors(n_nodes)

    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    initial = {j: float(np.real(psi0.conj() @ p @ psi0)) for j, p in projectors.items()}

    singlet = np.zeros(4, dtype=complex)
    singlet[0b01] = 1 / _S2
    singlet[0b10] = -1 / _S2
    ket = np.eye(4, dtype=complex)  # |00>, |01>, |10>, |11>
    # sends |00> to the singlet and |01>, |10>, |11> to the triplet |00>, (|01>+|10>)/sqrt(2), |11>
    v = np.stack([singlet, ket[0b00], (ket[0b01] + ket[0b10]) / _S2, ket[0b11]], axis=1)
    u_prep = np.kron(v, np.eye(4, dtype=complex))
    psi1 = u_prep @ psi0
    prepared = {j: float(np.real(psi1.conj() @ p @ psi1)) for j, p in projectors.items()}

    rng = np.random.default_rng(0)
    h = np.zeros((dim, dim), dtype=complex)
    for lab in collective_labels(n_nodes, b_zero_only=True):
        h += rng.normal() * collective_operator(lab, n_nodes)
    p1 = projectors[1.0]
    times = np.linspace(0.0, total_time, steps + 1)
    leakage = 0.0
    for u in hermitian_expm(h, times):
        psi_t = u @ psi1
        leakage = max(leakage, abs(1.0 - float(np.real(psi_t.conj() @ p1 @ psi_t))))

    paired = np.kron(singlet, singlet)
    pair_weights = {j: float(np.real(paired.conj() @ p @ paired)) for j, p in projectors.items()}
    scalar_residual = 0.0
    for lab in collective_labels(n_nodes, b_zero_only=True):
        op = collective_operator(lab, n_nodes)
        image = op @ paired
        expect = np.vdot(paired, image)
        scalar_residual = max(scalar_residual, float(np.linalg.norm(image - expect * paired)))

    return ScenarioReport(
        initial_weights=initial,
        prepared_weights=prepared,
        max_leakage=leakage,
        times=times,
        pair_singlet_weights=pair_weights,
        pair_singlet_scalar_residual=scalar_residual,
    )
