"""Unitary shift/phase operator basis on a single n-level system.

The basis consists of the n^2 unitaries

    U_ab = sum_k w^(b*k) |k+a mod n><k| ,   w = exp(2*pi*i/n),

where ``a`` shifts the state label and ``b`` applies a phase gradient.
Products, adjoints and commutators close on the set up to powers of w;
those powers are tracked as exact integer exponents so that long
symbolic products accumulate no rounding error.  Dense complex ndarrays
are the numeric carrier for everything else.

The module also provides the transition operators P_ij = |i><j|, the
hermitian su(n) generator set normalized to tr{g g'} = n*delta,
coefficient-map conversions between the three bases, and the Weyl
transform: all coefficients tr{op U^dag} of an operator on a network of
nodes over the product labels U = U_{a_1 b_1} x ... x U_{a_N b_N}, which
every coefficient expansion in the package goes through.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InputError


def root_of_unity(n: int, k: int = 1) -> complex:
    """w_n^k with the exponent reduced mod n first (keeps phases crisp)."""
    return complex(np.exp(2j * np.pi * (k % n) / n))


@dataclass(frozen=True, order=True)
class WeylIndex:
    """Double index (a, b) of one basis unitary on an n-level system."""

    a: int
    b: int
    n: int

    def __post_init__(self):
        if not type(self.a) is type(self.b) is type(self.n) is int:  # fast path for hot loops
            try:
                for v in (self.a, self.b, self.n):
                    operator.index(v)  # numpy integers pass, floats and strings do not
            except TypeError as exc:
                raise InputError(
                    f"index ({self.a!r},{self.b!r}) and n={self.n!r} must be integers") from exc
        if self.n < 2:
            raise InputError(f"dimension must be >= 2, got {self.n}")
        if not (0 <= self.a < self.n and 0 <= self.b < self.n):
            raise InputError(f"indices ({self.a},{self.b}) out of range for n={self.n}")

    @property
    def single_index(self) -> int:
        """Collapsed index i = n*a + b (identity maps to 0)."""
        return self.n * self.a + self.b


def from_single_index(i: int, n: int) -> WeylIndex:
    """Inverse of :attr:`WeylIndex.single_index`."""
    if not 0 <= i < n * n:
        raise InputError(f"single index {i} out of range for n={n}")
    return WeylIndex(i // n, i % n, n)


def _same_dim(x: WeylIndex, y: WeylIndex) -> int:
    if x.n != y.n:
        raise DimensionMismatch(f"mixed dimensions {x.n} and {y.n}")
    return x.n


def weyl_matrix(idx: WeylIndex) -> np.ndarray:
    """Dense matrix of U_ab: entry ((k+a) mod n, k) = w^(b*k)."""
    return product_operator(weyl_factors([idx.a], [idx.b], (idx.n,)), [1.0])


# ---------------------------------------------------------------------------
# monomial product operators
# ---------------------------------------------------------------------------
#
# A single-node factor with at most one nonzero entry per row and column
# (a shift/phase unitary, a Pauli matrix, sigma_+-) is a digit map and a
# value table: column j goes to row map[j] with value values[j].  Products
# of such factors over the nodes are again monomial.

def monomial_factor(mat) -> tuple[np.ndarray, np.ndarray]:
    """(digit map, values) of a square matrix with at most one nonzero per row and column.

    Column j maps to the row of its nonzero entry; columns without one take
    the unused rows in order with value 0, so the digit map is a permutation.
    """
    m = np.asarray(mat, dtype=complex)
    nz = m != 0
    if m.ndim != 2 or m.shape[0] != m.shape[1] or max(nz.sum(axis=0).max(), nz.sum(axis=1).max()) > 1:
        raise InputError("factor must be square with at most one nonzero per row and column")
    rows = np.argmax(nz, axis=0)
    rows[~nz.any(axis=0)] = np.flatnonzero(~nz.any(axis=1))
    return rows, m[rows, np.arange(len(rows))]


def weyl_factors(a, b, dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-node (digit map, values) of K product labels with indices a[k, i], b[k, i].

    U_ab maps digit j to j+a mod n with value w^(bj).  Each node's pair
    has shape (K, n_i).
    """
    dims = _node_dims(dims)
    a = np.asarray(a, dtype=np.int64).reshape(-1, len(dims))
    b = np.asarray(b, dtype=np.int64).reshape(-1, len(dims))
    if a.shape != b.shape or np.any((a < 0) | (b < 0) | (a >= dims) | (b >= dims)):
        raise InputError(f"indices out of range for dims {dims}")
    out = []
    for i, n in enumerate(dims):
        j = np.arange(n)
        roots = np.array([root_of_unity(n, e) for e in range(n)])
        out.append(((j + a[:, i, None]) % n, roots[(b[:, i, None] * j) % n]))
    return out


def _product_table(factors) -> tuple[np.ndarray, np.ndarray]:
    """Target row and value of every (product k, column c): rows[k, c], values[k, c].

    Node 1 is the most significant digit, as in a Kronecker product, and
    values multiply node by node from node 1, in the same order.
    """
    k = len(factors[0][0])
    rows = np.zeros((k, 1), dtype=np.int64)
    values = np.ones((k, 1), dtype=complex)
    for maps, vals in factors:
        n = maps.shape[1]
        rows = (rows[:, :, None] * n + maps[:, None, :]).reshape(k, -1)
        values = (values[:, :, None] * vals[:, None, :]).reshape(k, -1)
    return rows, values


def product_operator(factors, weights) -> np.ndarray:
    """Dense D x D matrix sum_k weights[k] P_k of K monomial products.

    ``factors`` holds, per node, a (digit map, values) pair of shape
    (K, n_i) (see :func:`monomial_factor`, :func:`weyl_factors`); product
    k is the Kronecker product of the nodes' k-th factors.  One index
    scatter in product order: O(K D), where K dense Kronecker products
    cost O(K D^2).
    """
    rows, values = _product_table(factors)
    values = np.asarray(weights)[:, None] * values
    d = rows.shape[1]
    out = np.zeros((d, d), dtype=complex)
    np.add.at(out, (rows, np.broadcast_to(np.arange(d), rows.shape)), values)
    return out


def apply_products(factors, psi) -> np.ndarray:
    """P_k psi for each of the K products in ``factors``, stacked along a new first axis.

    ``psi`` is a state of length D or a stack of them along further axes.
    Every digit map must be a permutation (as those of
    :func:`monomial_factor` and :func:`weyl_factors` are), so each image is
    one phase multiply and one index scatter, O(D) per product and column.
    """
    rows, values = _product_table(factors)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != rows.shape[1]:
        raise DimensionMismatch(f"state of length {psi.shape[0]}, operators of dimension {len(rows[0])}")
    out = np.zeros(rows.shape + psi.shape[1:], dtype=complex)
    out[np.arange(len(rows))[:, None], rows] = values.reshape(values.shape + (1,) * (psi.ndim - 1)) * psi
    return out


def weyl_product_exp(x: WeylIndex, y: WeylIndex) -> tuple[int, WeylIndex]:
    """U_x U_y = w^e U_z with the exponent e returned exactly (mod n)."""
    n = _same_dim(x, y)
    e = (x.b * y.a) % n
    return e, WeylIndex((x.a + y.a) % n, (x.b + y.b) % n, n)


def weyl_product(x: WeylIndex, y: WeylIndex) -> tuple[complex, WeylIndex]:
    """Product of two basis unitaries as (phase, resulting index)."""
    e, z = weyl_product_exp(x, y)
    return root_of_unity(x.n, e), z


def weyl_adjoint_exp(idx: WeylIndex) -> tuple[int, WeylIndex]:
    """U_ab^dag = w^(a*b) U_{-a,-b}; exponent returned exactly."""
    n = idx.n
    return (idx.a * idx.b) % n, WeylIndex((-idx.a) % n, (-idx.b) % n, n)


def weyl_adjoint(idx: WeylIndex) -> tuple[complex, WeylIndex]:
    e, z = weyl_adjoint_exp(idx)
    return root_of_unity(idx.n, e), z


def weyl_power(idx: WeylIndex, k: int) -> tuple[int, WeylIndex]:
    """(U_ab)^k as (exponent of w, index); uses e = a*b*k*(k-1)/2."""
    n = idx.n
    e = (idx.a * idx.b * (k * (k - 1) // 2)) % n
    return e, WeylIndex((k * idx.a) % n, (k * idx.b) % n, n)


def weyl_commutator(
    x: WeylIndex, y: WeylIndex, sign: int = -1
) -> list[tuple[complex, WeylIndex]]:
    """[U_x, U_y]_sign = (w^(bc) + sign*w^(ad)) U_{a+c, b+d}.

    Returns the (at most one-term) formal sum as a list of
    (coefficient, index) pairs; an exactly vanishing coefficient yields
    an empty list.  ``sign`` is -1 for the commutator, +1 for the
    anticommutator.
    """
    if sign not in (-1, 1):
        raise InputError("sign must be +1 or -1")
    n = _same_dim(x, y)
    e1 = (x.b * y.a) % n
    e2 = (x.a * y.b) % n
    if sign == -1 and e1 == e2:
        return []
    if sign == +1 and n % 2 == 0 and (e1 - e2) % n == n // 2:
        return []
    coeff = root_of_unity(n, e1) + sign * root_of_unity(n, e2)
    return [(coeff, WeylIndex((x.a + y.a) % n, (x.b + y.b) % n, n))]


def structure_constant(ab: WeylIndex, cd: WeylIndex, ef: WeylIndex) -> complex:
    """f_{ab,cd,ef} with [U_ab^dag, U_cd]_- = sum_ef f U_ef.

    The only contributing target is (e, f) = (c-a, d-b) mod n, where the
    value is w^(ab) (w^(-bc) - w^(-ad)); all other targets give 0.
    """
    n = _same_dim(ab, cd)
    _same_dim(cd, ef)
    if ef.a != (cd.a - ab.a) % n or ef.b != (cd.b - ab.b) % n:
        return 0j
    if (ab.b * cd.a) % n == (ab.a * cd.b) % n:
        return 0j
    return root_of_unity(n, ab.a * ab.b) * (
        root_of_unity(n, -ab.b * cd.a) - root_of_unity(n, -ab.a * cd.b)
    )


def weyl_det(idx: WeylIndex) -> int:
    """det U_ab = (-1)^((a+b)(n-1)), always +-1."""
    return -1 if ((idx.a + idx.b) * (idx.n - 1)) % 2 else 1


def weyl_eigenvalues(idx: WeylIndex) -> np.ndarray:
    """Eigenvalues of U_ab, ascending by principal argument in (-pi, pi].

    Every eigenvalue lies on the unit circle and satisfies
    lambda^n = w^(a*b*n*(n-1)/2) = (-1)^(a*b*(n-1)), the common n-th
    power of the whole spectrum.
    """
    vals = np.linalg.eigvals(weyl_matrix(idx))
    args = np.angle(vals)
    # fold -pi to +pi so the ordering convention has no boundary ambiguity
    args = np.where(args <= -np.pi + 1e-12, args + 2 * np.pi, args)
    order = np.argsort(args, kind="stable")
    return vals[order]


def eigenvalue_power_target(idx: WeylIndex) -> complex:
    """The common value of lambda^n over the spectrum of U_ab."""
    return root_of_unity(idx.n, idx.a * idx.b * (idx.n * (idx.n - 1) // 2))


def commuting_partner_count(idx: WeylIndex) -> int:
    """Number of basis unitaries commuting with U_ab: n * gcd(a, b, n).

    Count includes the identity and U_ab itself; gcd(0, x) = x, so the
    identity commutes with all n^2 members.
    """
    return idx.n * math.gcd(math.gcd(idx.a, idx.b), idx.n)


# ---------------------------------------------------------------------------
# transition operators and su(n) generators
# ---------------------------------------------------------------------------

def transition(i: int, j: int, n: int) -> np.ndarray:
    """P_ij = |i><j|."""
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"transition indices ({i},{j}) out of range for n={n}")
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


@dataclass(frozen=True)
class SuNGenerator:
    """One hermitian su(n) generator, normalized to tr{g g'} = n delta.

    ``kind`` is one of "identity", "u", "v", "w"; (i, k) index the
    off-diagonal pairs (0 <= i < k < n) and l the diagonal ladder
    (0 <= l <= n-2).
    """

    kind: str
    n: int
    i: int = 0
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InputError("dimension must be >= 2")
        if self.kind in ("u", "v"):
            if not 0 <= self.i < self.k < self.n:
                raise InputError(f"need 0 <= i < k < n, got ({self.i},{self.k})")
        elif self.kind == "w":
            if not 0 <= self.l <= self.n - 2:
                raise InputError(f"w index {self.l} out of range")
        elif self.kind != "identity":
            raise InputError(f"unknown generator kind {self.kind!r}")

    @property
    def label(self) -> tuple:
        if self.kind == "identity":
            return ("id",)
        if self.kind == "w":
            return ("w", self.l)
        return (self.kind, self.i, self.k)

    def matrix(self) -> np.ndarray:
        n = self.n
        if self.kind == "identity":
            return np.eye(n, dtype=complex)
        if self.kind == "u":
            return math.sqrt(n / 2) * (transition(self.i, self.k, n) + transition(self.k, self.i, n))
        if self.kind == "v":
            return math.sqrt(n / 2) * 1j * (transition(self.i, self.k, n) - transition(self.k, self.i, n))
        m = np.zeros((n, n), dtype=complex)
        for j in range(self.l + 1):
            m[j, j] = 1.0
        m[self.l + 1, self.l + 1] = -(self.l + 1)
        return -math.sqrt(n / ((self.l + 1) * (self.l + 2))) * m


@lru_cache(maxsize=None)
def sun_basis(n: int) -> tuple[SuNGenerator, ...]:
    """All n^2 generators, ordered identity, u_ik, v_ik, w_l."""
    gens = [SuNGenerator("identity", n)]
    gens += [SuNGenerator("u", n, i=i, k=k) for i, k in itertools.combinations(range(n), 2)]
    gens += [SuNGenerator("v", n, i=i, k=k) for i, k in itertools.combinations(range(n), 2)]
    gens += [SuNGenerator("w", n, l=l) for l in range(n - 1)]
    return tuple(gens)


# ---------------------------------------------------------------------------
# basis expansions / conversions
# ---------------------------------------------------------------------------

BASES = ("weyl", "transition", "sun")


def as_operator(op, n: int | None = None) -> np.ndarray:
    """Validate and return a square complex matrix."""
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"operator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("operator entries must be finite")
    if n is not None and m.shape[0] != n:
        raise DimensionMismatch(f"expected dimension {n}, got {m.shape[0]}")
    return m


def _node_dims(dims) -> tuple[int, ...]:
    try:
        out = tuple(operator.index(n) for n in dims)
    except TypeError as exc:
        raise InputError(f"per-node dimensions must be integers, got {dims}") from exc
    if not out or min(out) < 2:
        raise InputError(f"per-node dimensions must be integers >= 2, got {dims}")
    return out


def _finite_stack(x, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex array whose trailing axes have ``shape``; entries must be finite."""
    m = np.asarray(x, dtype=complex)
    if m.ndim < len(shape) or m.shape[m.ndim - len(shape):] != shape:
        raise DimensionMismatch(f"{what} must end in shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{what} entries must be finite")
    return m


def _shear(t: np.ndarray, dims: tuple[int, ...], sign: int) -> np.ndarray:
    """Per node, t[..., r, c] -> t[..., (r + sign*c) mod n, c] on its (r, c) axis pair.

    ``t`` has axes (..., r_1..r_N, c_1..c_N).  sign=+1 gathers the shifted
    diagonals D[a, k] = t[(a+k) mod n, k]; sign=-1 scatters them back.
    """
    lead = t.ndim - 2 * len(dims)
    for i, n in enumerate(dims):
        r, c = lead + i, lead + len(dims) + i
        k = np.arange(n)
        rows = (k[:, None] + sign * k[None, :]) % n
        t = np.moveaxis(np.moveaxis(t, (r, c), (-2, -1))[..., rows, k], (-2, -1), (r, c))
    return t


def weyl_transform(op, dims) -> np.ndarray:
    """tr{op U^dag} for every product label U = U_{a_1 b_1} x ... x U_{a_N b_N}.

    ``op`` is a D x D operator, or a stack of them along leading axes, on
    nodes of dimensions ``dims`` (D = prod dims, node 1 most significant).
    The result has axes (..., a_1, b_1, ..., a_N, b_N), so flattening the
    label axes orders labels lexicographically with per-node index n*a + b.

    Per node, u_ab = sum_k op[(k+a) mod n, k] w^(-bk): gather the shifted
    diagonals on that node's (row, column) axis pair, then FFT along k.
    Cost O(D^2 log D) time and O(D^2) memory for all D^2 labels.
    """
    dims = _node_dims(dims)
    d = math.prod(dims)
    m = _finite_stack(op, (d, d), "operator")
    lead = m.shape[:-2]
    t = _shear(m.reshape(lead + dims + dims), dims, +1)
    nn, nl = len(dims), len(lead)
    t = np.fft.fftn(t, axes=tuple(range(nl + nn, nl + 2 * nn)))
    pairs = [ax for i in range(nn) for ax in (nl + i, nl + nn + i)]
    return t.transpose(tuple(range(nl)) + tuple(pairs))


def inverse_weyl_transform(coeffs, dims) -> np.ndarray:
    """Operator (1/D) sum u_label U_label; inverse of :func:`weyl_transform`.

    ``coeffs`` has axes (..., a_1, b_1, ..., a_N, b_N); the result has
    axes (..., D, D).  Inverse FFT along every b, then scatter each node's
    diagonals back to op[(k+a) mod n, k].
    """
    dims = _node_dims(dims)
    nn = len(dims)
    u = _finite_stack(coeffs, tuple(n for n in dims for _ in range(2)), "coefficients")
    nl = u.ndim - 2 * nn
    order = [nl + 2 * i for i in range(nn)] + [nl + 2 * i + 1 for i in range(nn)]
    t = np.fft.ifftn(u.transpose(tuple(range(nl)) + tuple(order)),
                     axes=tuple(range(nl + nn, nl + 2 * nn)))
    d = math.prod(dims)
    return _shear(t, dims, -1).reshape(u.shape[:nl] + (d, d))


def apply_per_node(mat: np.ndarray, t: np.ndarray, n_nodes: int) -> np.ndarray:
    """Apply a d x d matrix on every base-d digit of the leading axis of t (node 1 first).

    The leading axis has length d^N; any further axes are carried along,
    so a stack of columns is transformed column by column.
    """
    d = mat.shape[0]
    shape = t.shape
    for _ in range(n_nodes):
        # transform the leading node, then rotate it behind the other nodes
        t = np.moveaxis((mat @ t.reshape(d, -1)).reshape(d, -1, *shape[1:]), 0, 1)
    return t.reshape(shape)


def expand(op, basis: str) -> dict:
    """Coefficient map of ``op`` in the named basis.

    Conventions: A = (1/n) sum u_ab U_ab with u_ab = tr{U_ab^dag A};
    A = sum A_ij P_ij with A_ij = tr{A P_ij^dag} = <i|A|j>;
    A = (1/n) sum c_s g_s with c_s = tr{g_s A} for the hermitian g_s.
    """
    m = as_operator(op)
    n = m.shape[0]
    if basis == "weyl":
        u = weyl_transform(m, (n,))
        return {(a, b): complex(u[a, b]) for a in range(n) for b in range(n)}
    if basis == "transition":
        return {(i, j): complex(m[i, j]) for i in range(n) for j in range(n)}
    if basis == "sun":
        return {g.label: complex(np.trace(g.matrix() @ m)) for g in sun_basis(n)}
    raise InputError(f"unknown basis {basis!r}; expected one of {BASES}")


def assemble(n: int, basis: str, coeffs: dict) -> np.ndarray:
    """Rebuild the dense operator from a coefficient map (inverse of expand).

    A key outside the basis raises InputError.
    """
    m = np.zeros((n, n), dtype=complex)
    if basis == "weyl":
        for (a, b), c in coeffs.items():
            idx = WeylIndex(a, b, n)
            m[idx.a, idx.b] += c
        return inverse_weyl_transform(m, (n,))
    if basis == "transition":
        for (i, j), c in coeffs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"transition indices ({i},{j}) out of range for n={n}")
            m[i, j] += c
        return m
    if basis == "sun":
        by_label = {g.label: g for g in sun_basis(n)}
        for label, c in coeffs.items():
            if label not in by_label:
                raise InputError(f"{label!r} is not an su({n}) generator label")
            m += c * by_label[label].matrix()
        return m / n
    raise InputError(f"unknown basis {basis!r}; expected one of {BASES}")


def convert_coefficients(coeffs: dict, n: int, frm: str, to: str) -> dict:
    """Coefficient map in basis ``frm`` -> coefficient map in basis ``to``."""
    return expand(assemble(n, frm, coeffs), to)


# ---------------------------------------------------------------------------
# generation from the two operators {U_{0,n-1}, U_{n-1,0}}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanReport:
    """Result of expressing all n^2 basis unitaries as two-generator words.

    ``words`` maps (a, b) to (exponent of w, word) where the word is a
    tuple of "S"/"P" symbols (S = shift generator U_{n-1,0}, P = phase
    generator U_{0,n-1}) multiplied left to right.  ``max_error`` is the
    largest matrix-level residual over all n^2 reconstructions.
    """

    n: int
    words: dict
    max_error: float

    @property
    def all_reached(self) -> bool:
        return len(self.words) == self.n * self.n


def _fold_word(word, n: int) -> tuple[int, WeylIndex]:
    gens = {"S": WeylIndex(n - 1, 0, n), "P": WeylIndex(0, n - 1, n)}
    exp, idx = 0, WeylIndex(0, 0, n)
    for sym in word:
        e, idx = weyl_product_exp(idx, gens[sym])
        exp = (exp + e) % n
    return exp, idx


def two_generator_span(n: int) -> SpanReport:
    """Express every U_ab as a phase times a word in the two generators.

    Solves (n-1)*t = a and (n-1)*s = b mod n (t = -a, s = -b), builds the
    word S^t P^s, folds its exact phase and verifies the matrix product.
    """
    words = {}
    max_err = 0.0
    for a in range(n):
        for b in range(n):
            t, s = (-a) % n, (-b) % n
            word = ("S",) * t + ("P",) * s
            exp, idx = _fold_word(word, n)
            assert (idx.a, idx.b) == (a, b)
            target = weyl_matrix(WeylIndex(a, b, n))
            built = np.eye(n, dtype=complex)
            for sym in word:
                built = built @ weyl_matrix(WeylIndex(n - 1, 0, n) if sym == "S" else WeylIndex(0, n - 1, n))
            err = float(np.max(np.abs(built - root_of_unity(n, exp) * target)))
            max_err = max(max_err, err)
            # phase convention: U_ab = w^(-exp) * word
            words[(a, b)] = ((-exp) % n, word)
    return SpanReport(n=n, words=words, max_error=max_err)


def word_closure_reaches_all(n: int) -> bool:
    """Breadth-first closure over words in the two generators (index level)."""
    gens = [WeylIndex(n - 1, 0, n), WeylIndex(0, n - 1, n)]
    seen = {(0, 0)}
    frontier = [WeylIndex(0, 0, n)]
    while frontier:
        nxt = []
        for idx in frontier:
            for g in gens:
                _, z = weyl_product_exp(idx, g)
                if (z.a, z.b) not in seen:
                    seen.add((z.a, z.b))
                    nxt.append(z)
        frontier = nxt
    return len(seen) == n * n
