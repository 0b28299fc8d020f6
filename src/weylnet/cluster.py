"""Selective cluster operators, correlation tensors and cluster sums.

A network of N nodes with per-node dimensions n_mu carries the product
operator basis built from single-node shift/phase unitaries; a cluster
operator acts non-trivially on the m nodes whose index differs from
(0,0).  Expectation values of these operators (correlation tensors)
aggregate into one cluster sum Y per node subset; the 2^N sums are
invariant under local unitaries and obey the global sum rule

    sum_{subsets} Y = tr{rho^2} * prod_mu n_mu .

Cluster sums are computed from reduced-state purities by subset Moebius
inversion, which keeps large pure states (state vectors up to the
dimension cap) cheap.  Correlation tensors come from the Weyl transform
of the whole state (:func:`weylnet.basis.weyl_transform`); binning its
squared moduli by support is the independent cross-check of the sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import WeylIndex, _node_dims, product_operator, weyl_factors, weyl_transform
from .coherence import validate_state
from .errors import CapExceeded, DimensionMismatch, InputError

#: Global-matrix size cap: prod(dims) above this is refused, not degraded.
DEFAULT_DIM_CAP = 4096


@dataclass(frozen=True, order=True)
class ProductLabel:
    """Per-node (a, b) indices of one product operator."""

    entries: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.dims):
            raise InputError("one (a, b) pair per node required")
        for (a, b), n in zip(self.entries, self.dims):
            WeylIndex(a, b, n)  # range validation

    @property
    def support(self) -> tuple[int, ...]:
        """Nodes (0-based) where the label is not the identity."""
        return tuple(i for i, e in enumerate(self.entries) if e != (0, 0))

    @property
    def cluster_size(self) -> int:
        return len(self.support)


def label_from_entries(entries, dims) -> ProductLabel:
    return ProductLabel(tuple((int(a), int(b)) for a, b in entries), tuple(int(n) for n in dims))


def cluster_operator(label: ProductLabel) -> np.ndarray:
    """Kronecker product of the per-node basis unitaries, node order 1..N."""
    a, b = zip(*label.entries)
    return product_operator(weyl_factors(a, b, label.dims), [1.0])


@dataclass
class NetworkState:
    """Density operator over N nodes with explicit per-node dimensions.

    Construct via :meth:`from_rho` or :meth:`from_pure`.  Pure states
    keep the state vector, so reduced purities stay cheap for large
    networks; ``rho`` materializes the full matrix on demand.
    """

    dims: tuple[int, ...]
    _rho: np.ndarray | None = None
    _psi: np.ndarray | None = None

    @classmethod
    def from_rho(cls, rho, dims) -> "NetworkState":
        dims = cls._check_dims(dims)
        m = validate_state(rho)
        if m.shape[0] != math.prod(dims):
            raise DimensionMismatch(
                f"state dimension {m.shape[0]} != prod(dims) = {math.prod(dims)}")
        return cls(dims=dims, _rho=m)

    @classmethod
    def from_pure(cls, psi, dims) -> "NetworkState":
        dims = cls._check_dims(dims)
        v = np.asarray(psi, dtype=complex).ravel()
        if v.shape[0] != math.prod(dims):
            raise DimensionMismatch(
                f"vector length {v.shape[0]} != prod(dims) = {math.prod(dims)}")
        if not np.all(np.isfinite(v)):
            raise InputError("state vector entries must be finite")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-10:
            raise InputError(f"state vector norm {norm:.6g} != 1")
        return cls(dims=dims, _psi=v)

    @staticmethod
    def _check_dims(dims) -> tuple[int, ...]:
        """Validated per-node dimensions as Python ints (no fixed-width overflow)."""
        dims = _node_dims(dims)
        total = math.prod(dims)
        if total > DEFAULT_DIM_CAP:
            raise CapExceeded(f"total dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
        return dims

    @property
    def n_nodes(self) -> int:
        return len(self.dims)

    @property
    def is_pure_vector(self) -> bool:
        return self._psi is not None

    @property
    def psi(self) -> np.ndarray:
        if self._psi is None:
            raise InputError("state was not constructed from a vector")
        return self._psi

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            return np.outer(self._psi, self._psi.conj())
        return self._rho

    def uniform_dim(self) -> int:
        if len(set(self.dims)) != 1:
            raise InputError(f"operation requires uniform node dimensions, got {self.dims}")
        return self.dims[0]


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Reduced density matrix on the (sorted) node subset ``keep``."""
    dims = tuple(dims)
    n = len(dims)
    keep = _nodes(keep, n)
    m = np.asarray(rho, dtype=complex).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for off, axis in enumerate(traced):
        # axes shift left by one pair each time a node is traced out
        m = np.trace(m, axis1=axis - off, axis2=axis - off + n - off)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return m.reshape(d, d)


def _nodes(keep, n_nodes: int) -> tuple[int, ...]:
    """``keep`` as a sorted tuple of distinct nodes in range(n_nodes); else InputError."""
    keep = tuple(sorted(keep))
    if len(set(keep)) < len(keep) or keep and not (0 <= keep[0] and keep[-1] < n_nodes):
        raise InputError(f"nodes {keep} must be distinct and in range for {n_nodes} nodes")
    return keep


def reduced_state(state: NetworkState, keep) -> np.ndarray:
    """Reduced density matrix of a network state (pure fast path included)."""
    keep = _nodes(keep, state.n_nodes)
    if not keep:
        return np.array([[1.0 + 0j]])
    if state.is_pure_vector:
        m = _schmidt_matrix(state, keep)
        return m @ m.conj().T
    return partial_trace(state.rho, state.dims, keep)


def _schmidt_matrix(state: NetworkState, keep: tuple[int, ...]) -> np.ndarray:
    """The state vector as a (kept nodes) x (other nodes) matrix."""
    rest = tuple(i for i in range(state.n_nodes) if i not in keep)
    v = state.psi.reshape(state.dims).transpose(keep + rest)
    return v.reshape(math.prod(state.dims[i] for i in keep), -1)


def _spectral_side(state: NetworkState, keep) -> np.ndarray:
    """A matrix with the nonzero spectrum of the reduced state on ``keep``.

    On pure-vector states this is the smaller of the two Gram matrices of
    the Schmidt matrix (complementary reductions share their nonzero
    spectrum); otherwise the reduced state itself.
    """
    keep = _nodes(keep, state.n_nodes)
    if not keep:
        return np.array([[1.0 + 0j]])
    if state.is_pure_vector:
        m = _schmidt_matrix(state, keep)
        if m.shape[0] > m.shape[1]:
            m = m.T
        return m @ m.conj().T
    return partial_trace(state.rho, state.dims, keep)


def reduced_purity(state: NetworkState, keep) -> float:
    """tr{rho_S^2} for the subset S, via the cheaper Gram side on pure states."""
    return float(np.sum(np.abs(_spectral_side(state, keep)) ** 2))


def reduced_entropy(state: NetworkState, keep) -> float:
    """Von Neumann entropy of rho_S in bits, via the cheaper Gram side on pure states."""
    return entropy_bits(_spectral_side(state, keep))


# ---------------------------------------------------------------------------
# correlation tensors
# ---------------------------------------------------------------------------

def correlation_tensors(state: NetworkState, max_order: int) -> dict:
    """All correlation tensor entries up to the given cluster size.

    Keys are :class:`ProductLabel` in index order; values are
    tr{rho Q^dag}, read off one Weyl transform of the state.  The
    all-identity label is included with value 1.
    """
    if not 0 <= max_order <= state.n_nodes:
        raise InputError(f"max_order {max_order} must be between 0 and the node count {state.n_nodes}")
    u = weyl_transform(state.rho, state.dims).reshape(tuple(n * n for n in state.dims))
    support = sum(k != 0 for k in np.indices(u.shape, sparse=True))  # per node, k = a n + b
    kept = np.nonzero(support <= max_order)
    return {label_from_entries(map(divmod, ks, state.dims), state.dims): value
            for *ks, value in zip(*(k.tolist() for k in kept), u[kept].tolist())}


# ---------------------------------------------------------------------------
# cluster sums
# ---------------------------------------------------------------------------

@dataclass
class ClusterSumTable:
    """Cluster sum Y for every node subset, keyed by sorted node tuples."""

    dims: tuple[int, ...]
    values: dict = field(default_factory=dict)
    purity: float = 0.0

    @property
    def total(self) -> float:
        return float(sum(self.values.values()))

    @property
    def sum_rule_target(self) -> float:
        """tr{rho^2} * prod(dims), which the table must total to."""
        return self.purity * float(np.prod(self.dims))

    @property
    def sum_rule_residual(self) -> float:
        """|total - target|: rounding only, since the Moebius sums telescope to the target.

        The per-subset check of the table is :func:`cluster_sum_direct`.
        """
        return abs(self.total - self.sum_rule_target)

    def json_rows(self) -> list[dict]:
        return [{"subset": [i + 1 for i in s], "Y": y}
                for s, y in sorted(self.values.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def cluster_sums(state: NetworkState) -> ClusterSumTable:
    """All 2^N cluster sums by Moebius inversion of reduced purities.

    For each subset S, Z(S) = tr{rho_S^2} * prod_{mu in S} n_mu equals
    the sum of Y over subsets of S; inverting on the subset lattice
    gives Y(S).
    """
    return _moebius_table(state, [reduced_purity(state, s) for s in _subsets(state.n_nodes)])


def _subsets(n: int) -> list[tuple[int, ...]]:
    """All subsets of range(n), listed by bit mask."""
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def _moebius_table(state: NetworkState, purities) -> ClusterSumTable:
    """The cluster-sum table from tr{rho_S^2} of every subset S, listed by bit mask."""
    subsets = _subsets(state.n_nodes)
    y = np.array([p * math.prod(state.dims[i] for i in s) for p, s in zip(purities, subsets)])
    purity = float(y[-1] / np.prod(state.dims))
    for bit in range(state.n_nodes):  # in-place subset Moebius transform
        pairs = y.reshape(-1, 2, 1 << bit)
        pairs[:, 1] -= pairs[:, 0]
    return ClusterSumTable(dims=state.dims, values=dict(zip(subsets, y.tolist())), purity=purity)


def cluster_sum_direct(state: NetworkState, subset) -> float:
    """Y(subset) as the sum of |tr{rho Q^dag}|^2 over labels with exactly that support.

    One Weyl transform of the whole state; per node, the squared moduli
    split into the identity label and the sum over the rest.  This is the
    cross-check of the Moebius route in :func:`cluster_sums`.
    """
    subset = _nodes(subset, state.n_nodes)
    w = np.abs(weyl_transform(state.rho, state.dims)) ** 2
    w = w.reshape(tuple(n * n for n in state.dims))
    for axis in range(state.n_nodes):
        w = np.add.reduceat(w, [0, 1], axis=axis)  # [identity, sum of the rest]
    return float(w[tuple(int(i in subset) for i in range(state.n_nodes))])


# ---------------------------------------------------------------------------
# purity factors
# ---------------------------------------------------------------------------

def entropy_bits(rho) -> float:
    """Von Neumann entropy in bits (base-2 logarithm)."""
    vals = np.linalg.eigvalsh(np.asarray(rho))
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log2(vals)))


@dataclass
class PurityRow:
    p: float
    entropy: float


@dataclass
class PurityReport:
    n: int
    rows: dict  # subset tuple -> PurityRow
    table: ClusterSumTable  # the cluster sums of the same reduced purities


def purity_factors(state: NetworkState) -> PurityReport:
    """Normalized purity factor and entropy of every non-empty cluster.

    p = (n^m tr{rho_S^2} - 1)/(n^m - 1) for the m-node subset S.  One
    walk over the subset lattice reduces each subset once and takes its
    purity and entropy from that matrix; the cluster sums of those
    purities are returned as ``table``.  Requires uniform node dimension.
    """
    n = state.uniform_dim()
    purity, entropy = {}, {}
    for subset in _subsets(state.n_nodes):
        side = _spectral_side(state, subset)
        purity[subset] = float(np.sum(np.abs(side) ** 2))
        entropy[subset] = entropy_bits(side)
    rows = {subset: PurityRow((n ** size * purity[subset] - 1.0) / (n ** size - 1), entropy[subset])
            for size in range(1, state.n_nodes + 1)
            for subset in itertools.combinations(range(state.n_nodes), size)}
    return PurityReport(n=n, rows=rows, table=_moebius_table(state, list(purity.values())))


# ---------------------------------------------------------------------------
# product-state witness
# ---------------------------------------------------------------------------

@dataclass
class ProductTestResult:
    non_product: bool
    partition: tuple[tuple[int, ...], ...]
    joint_y: float
    partition_product: float


def product_state_test(state: NetworkState, partition) -> ProductTestResult:
    """Check one partition of a cluster for a non-product witness.

    ``partition`` is a sequence of disjoint node tuples; their union is
    the tested cluster.  The cluster is witnessed non-product when the
    product of the parts' cluster sums falls below the joint cluster sum
    by more than 1e-9.
    """
    return _partition_test(cluster_sums(state), partition)


def _partition_test(table: ClusterSumTable, partition) -> ProductTestResult:
    parts = tuple(tuple(sorted(p)) for p in partition)
    cluster = _nodes([i for p in parts for i in p], len(table.dims))  # blocks must be disjoint
    joint = table.values[cluster]
    prod = 1.0
    for p in parts:
        prod *= table.values[p]
    return ProductTestResult(
        non_product=prod < joint - 1e-9,
        partition=parts,
        joint_y=joint,
        partition_product=prod,
    )


def _partitions(items: tuple[int, ...]):
    """All partitions of ``items`` into >= 2 blocks."""
    if len(items) < 2:
        return

    def rec(seq):
        if not seq:
            yield []
            return
        head, tail = seq[0], seq[1:]
        for sub in rec(tail):
            yield [[head]] + sub
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
    for part in rec(list(items)):
        if len(part) >= 2:
            yield tuple(tuple(sorted(b)) for b in part)


def find_non_product_witness(state: NetworkState):
    """Search all partitions of the whole network; return the first witness or None.

    The cluster-sum table is computed once and every partition is tested
    against it.
    """
    table = cluster_sums(state)
    for partition in _partitions(tuple(range(state.n_nodes))):
        result = _partition_test(table, partition)
        if result.non_product:
            return result
    return None
