"""Generalized cat basis for N nodes of n levels each.

The basis member with label c = (c_1, ..., c_N) is

    |cat>_c = (1/sqrt(n)) sum_j w^(j c_1) |j> (x) |j+c_2> (x) ... (x) |j+c_N>,

so c_1 selects a phase gradient on node 1 and every later c_k shifts its
node.  The n^N labels enumerate an orthonormal basis; every proper
cluster of a cat state is maximally mixed up to the closed-form profile
below, and every proper-cluster entropy equals log2(n) bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import apply_products, weyl_factors
from .cluster import DEFAULT_DIM_CAP, NetworkState, purity_factors
from .errors import CapExceeded, InputError


def cat_labels(n: int, n_nodes: int):
    """All n^N labels, lexicographic."""
    return itertools.product(range(n), repeat=n_nodes)


def cat_state(n: int, label) -> np.ndarray:
    """State vector of |cat>_c in the computational product basis.

    Node 1 is the most significant digit of the basis index, matching
    the Kronecker order used for cluster operators.
    """
    label = tuple(int(c) for c in label)
    n_nodes = len(label)
    if n_nodes < 1 or any(not 0 <= c < n for c in label):
        raise InputError(f"invalid cat label {label} for n={n}")
    dim = n ** n_nodes
    psi = np.zeros(dim, dtype=complex)
    for j in range(n):
        digits = [j] + [(j + c) % n for c in label[1:]]
        index = 0
        for d in digits:
            index = index * n + d
        psi[index] = np.exp(2j * np.pi * ((j * label[0]) % n) / n)
    return psi / np.sqrt(n)


def cat_from_base(n: int, label) -> np.ndarray:
    """|cat>_c as local basis unitaries applied to |cat>_0.

    U_{0,c_1} on node 1 and U_{c_k,0} on nodes k >= 2 reproduce the
    direct construction exactly; used to exercise the claim that the
    whole basis is locally generated from one member.
    """
    label = tuple(int(c) for c in label)
    shifts = (0,) + label[1:]
    phases = label[:1] + (0,) * (len(label) - 1)
    base = cat_state(n, (0,) * len(label))
    return apply_products(weyl_factors(shifts, phases, (n,) * len(label)), base)[0]


@dataclass(frozen=True)
class CatProfile:
    """Closed-form cluster-sum and purity profile of any cat state."""

    n: int
    n_nodes: int

    def y(self, m: int) -> float:
        """Cluster sum of any individual m-node cluster (1 <= m <= N)."""
        n, N = self.n, self.n_nodes
        if not 1 <= m <= N:
            raise InputError(f"cluster size {m} out of range")
        tail = ((n - 1) ** m + (-1) ** m * (n - 1)) / n
        if m < N:
            return float(tail)
        return float((n - 1) * n ** (N - 1) + tail)

    def p(self, m: int) -> float:
        """Purity factor of any individual m-node cluster."""
        n, N = self.n, self.n_nodes
        if not 1 <= m <= N:
            raise InputError(f"cluster size {m} out of range")
        if m == N:
            return 1.0
        return purity_profile_value(n, m)

    @property
    def y_total(self) -> float:
        """Subset-weighted total; equals n^N by the sum rule (pure state)."""
        N = self.n_nodes
        return 1.0 + sum(math.comb(N, m) * self.y(m) for m in range(1, N + 1))

    @property
    def top_ratio(self) -> float:
        """Y_N / n^N, which approaches (n-1)/n for large networks."""
        return self.y(self.n_nodes) / self.n ** self.n_nodes


def cat_profile(n: int, n_nodes: int) -> CatProfile:
    if n < 2 or n_nodes < 2:
        raise InputError("profile requires n >= 2 and N >= 2")
    _check_float_range(n, n_nodes)  # Y_N is close to n^N
    return CatProfile(n=n, n_nodes=n_nodes)


def _check_float_range(n: int, m: int) -> None:
    """Refuse n^m >= 2^1024, which leaves the float range (and costs an m-digit integer)."""
    if m * math.log2(n) >= 1024:
        raise CapExceeded(f"n^m = {n}^{m} leaves the float range of the profile")


def purity_profile_value(n: int, m: int) -> float:
    """p_m = (n^(m-1) - 1)/(n^m - 1) for proper clusters (0 at m = 1)."""
    if n < 2 or m < 1:
        raise InputError(f"purity profile needs n >= 2 and m >= 1, got n={n}, m={m}")
    _check_float_range(n, m)
    return float((n ** (m - 1) - 1) / (n ** m - 1))


@dataclass
class CatReport:
    """Numerical verification of a sample of cat-basis members."""

    n: int
    n_nodes: int
    checked_labels: list
    max_orthonormality_error: float
    max_cluster_sum_error: float
    max_purity_error: float
    max_entropy_error: float
    top_ratio: float


def cat_verify(n: int, n_nodes: int) -> CatReport:
    """Verify orthonormality and the closed-form profile numerically.

    Checks the full basis when n^N <= 128 and a small deterministic
    sample otherwise.  Cluster sums, purity factors and proper-cluster
    entropies of each checked member are compared to the closed forms.
    """
    dim = n ** n_nodes
    if dim > DEFAULT_DIM_CAP:
        raise CapExceeded(f"n^N = {dim} exceeds cap {DEFAULT_DIM_CAP}")
    if dim <= 128:
        labels = list(cat_labels(n, n_nodes))
    else:
        sample = [(0,) * n_nodes, (1,) * n_nodes, (1,) + (0,) * (n_nodes - 1),
                  tuple(k % n for k in range(n_nodes))]
        labels = sorted(set(sample))
    vectors = np.array([cat_state(n, lab) for lab in labels])
    ortho_err = np.max(np.abs(vectors.conj() @ vectors.T - np.eye(len(labels))))  # the Gram matrix

    profile = cat_profile(n, n_nodes)
    y_err = p_err = s_err = 0.0
    for lab, psi in zip(labels, vectors):
        state = NetworkState.from_pure(psi, (n,) * n_nodes)
        report = purity_factors(state)
        for subset, y in report.table.values.items():
            if subset:
                y_err = max(y_err, abs(y - profile.y(len(subset))))
        for subset, row in report.rows.items():
            p_err = max(p_err, abs(row.p - profile.p(len(subset))))
            if len(subset) < n_nodes:
                s_err = max(s_err, abs(row.entropy - np.log2(n)))
    return CatReport(
        n=n,
        n_nodes=n_nodes,
        checked_labels=labels,
        max_orthonormality_error=float(ortho_err),
        max_cluster_sum_error=float(y_err),
        max_purity_error=float(p_err),
        max_entropy_error=float(s_err),
        top_ratio=profile.top_ratio,
    )


def completeness_residual(n: int, n_nodes: int) -> float:
    """|| sum_c |cat_c><cat_c| - identity ||_max over the full basis."""
    vectors = np.array([cat_state(n, lab) for lab in cat_labels(n, n_nodes)])
    return float(np.max(np.abs(vectors.T @ vectors.conj() - np.eye(len(vectors)))))


def cat_collective_decomposition(label) -> dict:
    """Two-level cat projector expanded over the collective operator basis.

    Only defined for n = 2 networks; returns the coefficient map from
    :func:`weylnet.collective.decompose_collective`, whose reconstruction
    is exact by construction.
    """
    from .collective import decompose_collective

    psi = cat_state(2, label)
    return decompose_collective(np.outer(psi, psi.conj()), len(tuple(label)))
