"""Completely commuting sets of N-node cluster operators.

Two product operators with per-node indices (a_i, b_i) and (c_i, d_i)
commute exactly when

    sum_i (a_i d_i - b_i c_i) = 0  (mod n),

a symplectic condition on index vectors in Z_n^(2N).  Pure N-cluster
operators (no identity factor on any node) are the vertices of a
commutation graph; completely commuting sets are its cliques.  Besides
the two closed-form constructions (per-node single-particle sets and
mirrored index pairs) this module carries an exact branch-and-bound
maximum-clique search with greedy-coloring bounds, branching on one
root per orbit of the graph's local SL(2, Z_n) and node-permutation
symmetries, and computes common eigenstates after completing a set to
a full commuting group of n^N index vectors, by projecting a basis
vector onto an eigenspace of each generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import apply_products, weyl_factors
from .cluster import DEFAULT_DIM_CAP, ProductLabel, label_from_entries
from .errors import CapExceeded, InputError

#: refuse to build commutation graphs beyond this many vertices
DEFAULT_VERTEX_CAP = 5000
#: default branch-and-bound node budget
DEFAULT_NODE_BUDGET = 10**8
#: complex images per block of the eigenstate's group residual, in bytes
_RESIDUAL_BLOCK_BYTES = 1 << 24


def symplectic_form(x, y, n: int) -> np.ndarray:
    """sum_i (a_i d_i - b_i c_i) mod n for all rows (a_1, b_1, ..., a_N, b_N) of x, (c_1, d_1, ...) of y.

    Entries lie in [0, n).  The (len(x), len(y)) result accumulates node
    by node mod n in the narrowest integer dtype holding n (n - 1), with
    one temporary of its size and no wider one.
    """
    dtype = np.min_scalar_type(-n * (n - 1))
    x, y = np.asarray(x).astype(dtype), np.asarray(y).astype(dtype)
    out = np.zeros((len(x), len(y)), dtype=dtype)
    for i in range(0, x.shape[1], 2):
        out += np.multiply.outer(x[:, i], y[:, i + 1])
        out -= np.multiply.outer(x[:, i + 1], y[:, i])
        out %= n
    return out


def commute_check(x: ProductLabel, y: ProductLabel) -> bool:
    """Index-level commutation test (matches the matrix commutator exactly); uniform dimension."""
    if x.dims != y.dims:
        raise InputError("labels live on different networks")
    n = x.dims[0]
    if any(d != n for d in x.dims):
        raise InputError("commutation test requires uniform node dimension")
    return not symplectic_form([_label_to_vector(x)], [_label_to_vector(y)], n)[0, 0]


@dataclass
class CommutingSet:
    """A pairwise-commuting family of pure N-cluster operators."""

    n: int
    n_nodes: int
    members: tuple[ProductLabel, ...]
    method: str  # "A" | "B" | "C-exact" | "C-heuristic"

    @property
    def size(self) -> int:
        return len(self.members)

    def verify_pairwise(self) -> bool:
        """Every pair of members commutes (index-level test, exact)."""
        if not self.members:
            return True
        vecs = _vectors(self.members)
        return not np.any(symplectic_form(vecs, vecs, self.n))


def _pure_entry_choices(n: int):
    return [(a, b) for a in range(n) for b in range(n) if (a, b) != (0, 0)]


def construct_method_a(n: int, n_nodes: int) -> CommutingSet:
    """All combinations of the single-node shift family {U_a0, a != 0}.

    Size (n-1)^N; all-b-zero index vectors commute trivially.
    """
    dims = (n,) * n_nodes
    members = tuple(
        label_from_entries([(a, 0) for a in combo], dims)
        for combo in itertools.product(range(1, n), repeat=n_nodes)
    )
    return CommutingSet(n=n, n_nodes=n_nodes, members=members, method="A")


def construct_method_b(n: int, n_nodes: int) -> CommutingSet:
    """Mirrored-pair construction U_ab x U_ba x U_cd x U_dc x ...

    Adjacent node pairs carry index-swapped factors whose symplectic
    contributions cancel; an odd final node uses the shift family.
    Size (n^2-1)^(N/2) for even N and (n^2-1)^((N-1)/2) (n-1) for odd N.
    """
    dims = (n,) * n_nodes
    pair_choices = _pure_entry_choices(n)
    n_pairs, odd = divmod(n_nodes, 2)
    blocks = [pair_choices] * n_pairs
    if odd:
        blocks.append([(a, 0) for a in range(1, n)])
    members = []
    for combo in itertools.product(*blocks):
        entries = []
        for i in range(n_pairs):
            a, b = combo[i]
            entries += [(a, b), (b, a)]
        if odd:
            entries.append(combo[-1])
        members.append(label_from_entries(entries, dims))
    return CommutingSet(n=n, n_nodes=n_nodes, members=tuple(members), method="B")


def method_a_size(n: int, n_nodes: int) -> int:
    return (n - 1) ** n_nodes


def method_b_size(n: int, n_nodes: int) -> int:
    if n_nodes % 2 == 0:
        return (n * n - 1) ** (n_nodes // 2)
    return (n * n - 1) ** ((n_nodes - 1) // 2) * (n - 1)


def bound_d(n: int, n_nodes: int) -> int:
    """Upper limit n^N - 1 on the size of any completely commuting set."""
    return n ** n_nodes - 1


# ---------------------------------------------------------------------------
# commutation graph and maximum clique
# ---------------------------------------------------------------------------

def _pure_rows(n: int, n_nodes: int) -> np.ndarray:
    """Index rows (a_1, b_1, ..., a_N, b_N) of the (n^2-1)^N pure N-cluster labels, lexicographic.

    Row v is vertex v: node i's pair is digit a n + b - 1 of v in base
    n^2 - 1, node 1 the most significant (:func:`_vertices` inverts it).
    """
    m = n * n - 1
    digits = np.arange(m ** n_nodes)[:, None] // m ** np.arange(n_nodes - 1, -1, -1) % m + 1
    return np.stack([digits // n, digits % n], axis=2).reshape(len(digits), 2 * n_nodes)


def _vertices(vecs: np.ndarray, n: int) -> list[int]:
    """Vertex index of each pure label row, by rank arithmetic in base n^2 - 1."""
    place = (n * n - 1) ** np.arange(vecs.shape[1] // 2 - 1, -1, -1)
    return ((vecs[:, 0::2] * n + vecs[:, 1::2] - 1) @ place).tolist()


def _vectors(labels: list[ProductLabel]) -> np.ndarray:
    """Index vectors (a_1, b_1, ..., a_N, b_N) of the labels, one row per label."""
    return np.array([_label_to_vector(lab) for lab in labels], dtype=np.int64)


def _bitmasks(commute: np.ndarray) -> list[int]:
    rows = np.packbits(commute, axis=1, bitorder="little")  # bit j of row i is column j
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def node_orbits(n: int) -> dict[tuple[int, int], int]:
    """Orbit id of every nonzero (a, b) in Z_n^2 under SL(2, Z_n).

    Closes each pair under the generators S = [[0,-1],[1,0]] and
    T = [[1,1],[0,1]]; ids count orbits in the order of their first
    pair.  A map of determinant 1 keeps a d - b c, so it keeps which
    labels commute.
    """
    orbit: dict[tuple[int, int], int] = {}
    count = 0
    for start in _pure_entry_choices(n):
        if start in orbit:
            continue
        orbit[start] = count
        stack = [start]
        while stack:
            a, b = stack.pop()
            for image in ((-b % n, a), ((a + b) % n, b)):
                if image not in orbit:
                    orbit[image] = count
                    stack.append(image)
        count += 1
    return orbit


def label_orbits(rows: np.ndarray, n: int) -> np.ndarray:
    """Orbit index of every pure label row under local SL(2, Z_n) maps and node permutations.

    A label's orbit is fixed by the sorted tuple of its per-node orbit
    ids; orbits are numbered in the order of those tuples.
    """
    table = np.full((n, n), -1, dtype=np.int64)
    for (a, b), oid in node_orbits(n).items():
        table[a, b] = oid
    keys = np.sort(table[rows[:, 0::2], rows[:, 1::2]], axis=1)
    return np.unique(keys, axis=0, return_inverse=True)[1].ravel()


class _OutOfBudget(Exception):
    pass


def max_clique(adj: list[int], initial: list[int], budget: int) -> tuple[list[int], int, bool]:
    """Branch-and-bound maximum clique with greedy coloring bounds.

    Each node colors its candidate set greedily, class by class in
    ascending vertex order, and branches on the vertices from the highest
    color down until the color bound can no longer beat the incumbent.
    Vertices whose color is already too low to branch on are colored but
    not recorded, and each colored vertex costs one AND with its
    precomputed non-neighbourhood (the bit-parallel coloring of San
    Segundo et al., 2011).  Returns (best clique, expansions, exhausted):
    ``exhausted`` is True when more than ``budget`` nodes were needed,
    and the best clique is then the best found so far.
    """
    nadj = [~(mask | 1 << v) for v, mask in enumerate(adj)]
    best = list(initial)
    expansions = 0

    def expand(clique: list[int], cand: int):
        nonlocal best, expansions
        expansions += 1
        if expansions > budget:
            raise _OutOfBudget
        kmin = len(best) - len(clique)
        branch = []  # (vertex, color) for colors above kmin, ascending color
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            if color > kmin:
                while avail:
                    low = avail & -avail
                    v = low.bit_length() - 1
                    branch.append((v, color))
                    rest ^= low
                    avail &= nadj[v]
            else:
                while avail:
                    low = avail & -avail
                    rest ^= low
                    avail &= nadj[low.bit_length() - 1]
        for v, color in reversed(branch):
            if len(clique) + color <= len(best):
                return
            clique.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(clique, nxt)
            elif len(clique) > len(best):
                best = clique.copy()
            clique.pop()
            cand ^= 1 << v

    try:
        expand([], (1 << len(adj)) - 1)
    except _OutOfBudget:
        return best, expansions, True
    return best, expansions, False


def cat_seed_clique(rows: np.ndarray, n: int) -> list[int]:
    """Indices of the pure label rows whose operators stabilize the aligned cat state.

    The equal-weight superposition of the n aligned product states is a
    joint eigenstate of a large pure-cluster family; membership is read
    off structurally, giving a strong clique seed.  U_v |j...j> =
    w^(j sum b) |(j+a_1)...(j+a_N)> keeps the cat span when all shifts are
    equal, and the expectation (1/n) sum_j w^(j sum b) then has modulus 1
    exactly when sum b = 0 mod n.
    """
    a, b = rows[:, 0::2], rows[:, 1::2]
    return np.flatnonzero(np.all(a == a[:, :1], axis=1) & (b.sum(axis=1) % n == 0)).tolist()


@dataclass
class SearchResult:
    commuting_set: CommutingSet
    exact: bool
    expansions: int
    n_vertices: int


def search_max_commuting(
    n: int,
    n_nodes: int,
    budget: int = DEFAULT_NODE_BUDGET,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> SearchResult:
    """Maximum completely commuting pure-N-cluster set via clique search.

    Seeds the incumbent with the best of the two constructions and the
    cat-state family, so the result is never below either.  Local
    SL(2, Z_n) maps and node permutations are automorphisms of the
    commutation graph, and the group they generate is transitive on
    each label orbit, so a maximum clique that meets an orbit has an
    image through any chosen root of it.  The search therefore takes the orbits in turn and
    solves, for one root each, the clique problem on the root's
    neighbours outside the orbits already searched.  ``budget`` counts
    expansions summed over these subsearches; running out returns the
    best clique so far tagged heuristic instead of aborting.
    """
    if budget < 1:
        raise InputError(f"search budget must be >= 1, got {budget}")
    if n < 2 or n_nodes < 1:
        raise InputError(f"search needs n >= 2 levels and N >= 1 nodes, got n={n}, N={n_nodes}")
    n_vertices = (n * n - 1) ** n_nodes
    if n_vertices > vertex_cap:
        raise CapExceeded(
            f"{n_vertices} vertices exceed the cap {vertex_cap}; "
            "use the constructive methods or raise the cap")
    rows = _pure_rows(n, n_nodes)
    commute = symplectic_form(rows, rows, n) == 0
    np.fill_diagonal(commute, False)
    orbit = label_orbits(rows, n)

    seeds = [_vertices(_vectors(build(n, n_nodes).members), n)
             for build in (construct_method_a, construct_method_b)] + [cat_seed_clique(rows, n)]
    incumbent = max(seeds, key=len)
    expansions, exhausted = 0, False
    searched = np.zeros(n_vertices, dtype=bool)
    for k in range(int(orbit.max()) + 1):
        in_orbit = np.flatnonzero(orbit == k)
        root = next((v for v in incumbent if orbit[v] == k), int(in_orbit[0]))
        cand = np.flatnonzero(commute[root] & ~searched)
        searched[in_orbit] = True
        if len(cand) + 1 <= len(incumbent):
            continue  # even the whole neighbourhood cannot beat the incumbent
        initial = np.flatnonzero(np.isin(cand, incumbent)).tolist()
        best, used, exhausted = max_clique(
            _bitmasks(commute[np.ix_(cand, cand)]), initial, budget - expansions)
        expansions += used
        if len(best) + 1 > len(incumbent):
            incumbent = [root] + [int(cand[i]) for i in best]
        if exhausted:
            break
    dims = (n,) * n_nodes
    members = tuple(_vector_to_label(rows[v].tolist(), dims) for v in sorted(incumbent))
    method = "C-heuristic" if exhausted else "C-exact"
    return SearchResult(
        commuting_set=CommutingSet(n=n, n_nodes=n_nodes, members=members, method=method),
        exact=not exhausted,
        expansions=expansions,
        n_vertices=n_vertices,
    )


# ---------------------------------------------------------------------------
# completion to a full commuting group and common eigenstates
# ---------------------------------------------------------------------------

def _label_to_vector(label: ProductLabel) -> tuple[int, ...]:
    return tuple(x for e in label.entries for x in e)


def _vector_to_label(vec, dims) -> ProductLabel:
    return label_from_entries(zip(vec[0::2], vec[1::2]), dims)


def complete_commuting_group(members, n: int, n_nodes: int) -> np.ndarray:
    """Extend a commuting family to a maximal commuting index group.

    Takes the additive closure of the members' index vectors in
    Z_n^(2N) (closed under the symplectic form by bilinearity), then
    greedily adjoins lexicographically smallest commuting vectors until
    the group reaches order n^N or no candidate remains.  Returns the
    group's vectors as rows in lexicographic order; the achieved size is
    reported by the caller, never assumed.  n^N is capped at
    ``cluster.DEFAULT_DIM_CAP``.
    """
    return _complete_group(members, n, n_nodes)[0]


def _complete_group(members, n: int, n_nodes: int):
    """(group, generators): the group's sorted rows and the vectors adjoined to build it.

    Those are each member not yet in the group, then the scan's vectors.
    The group is the sorted array of its vectors' lexicographic ranks.
    Adjoining g adds j g, for every j below g's additive order, to every
    element and keeps the distinct ranks.
    """
    target = n ** n_nodes
    if target > DEFAULT_DIM_CAP:
        raise CapExceeded(f"group order n^N = {target} exceeds cap {DEFAULT_DIM_CAP}")
    width = 2 * n_nodes
    place = n ** np.arange(width - 1, -1, -1)  # a vector's rank is its dot product with place
    group = np.zeros(1, dtype=np.int64)

    def adjoin(g):
        nonlocal group
        steps = np.multiply.outer(np.arange(n // math.gcd(n, *g)), g)
        group = np.unique((group[:, None] // place % n + steps[:, None]) % n @ place)

    generators = []
    for g in map(_label_to_vector, members):
        if np.dot(g, place) in group:
            continue  # the group's operators commute with each other, g among them
        if np.any(symplectic_form([g], np.reshape(generators, (-1, width)), n)):
            raise InputError("completion needs pairwise commuting members")
        generators.append(g)
        adjoin(g)
    start = 0
    while len(group) < target and start < n ** width:
        # the next block of vectors in lexicographic order; ok marks those commuting with every generator
        ranks = np.arange(start, min(start + 4096, n ** width))
        cands = ranks[:, None] // place % n
        start += len(ranks)
        ok = ~np.any(symplectic_form(cands, np.reshape(generators, (-1, width)), n), axis=1)
        for i in np.flatnonzero(ok):
            if not ok[i] or ranks[i] in group:
                continue
            cand = tuple(cands[i].tolist())
            generators.append(cand)
            adjoin(cand)
            if len(group) >= target:
                break
            ok &= symplectic_form(cands, [cand], n)[:, 0] == 0
    return group[:, None] // place % n, generators


def _eigen_component(g: tuple[int, ...], psi: np.ndarray, n: int, n_nodes: int) -> np.ndarray:
    """Largest eigen-component of psi under U_g, normalized.

    With k the additive order of g, U_g^k = c 1, and the eigenvalues of
    U_g are the k-th roots of c.  The component on the root lambda is
    (1/k) sum_j (U_g/lambda)^j psi; one FFT over j gives all k of them.
    """
    k = n // math.gcd(n, *g)
    factors = weyl_factors(g[0::2], g[1::2], (n,) * n_nodes)
    powers = [psi]
    for _ in range(k):
        powers.append(apply_products(factors, powers[-1])[0])
    root = np.exp(1j * np.angle(np.vdot(psi, powers[k])) / k)
    parts = np.fft.fft(root ** -np.arange(k)[:, None] * np.array(powers[:k]), axis=0) / k
    best = parts[np.argmax(np.linalg.norm(parts, axis=1))]
    return best / np.linalg.norm(best)


@dataclass
class CommonEigenstate:
    """Simultaneous eigenvector of a completed commuting operator group."""

    vector: np.ndarray
    completion: np.ndarray  # (n^N, 2N) index rows of the full commuting group, lexicographic
    completion_size: int
    target_size: int
    pure_cluster_count: int
    max_residual: float

    @property
    def complete(self) -> bool:
        return self.completion_size == self.target_size


def common_eigenstate(cset: CommutingSet, seed: int = 0) -> CommonEigenstate:
    """Common eigenstate of a commuting set after group completion.

    Starts from the basis vector |seed mod n^N> and applies, for every
    generator g the completion adjoined (members already in the group
    add nothing), the projector onto the eigenspace of U_g that keeps the
    largest component.  The projectors commute, so the result is an
    eigenvector of every group element, unique up to phase when the
    group is complete; a component never vanishes, so there is no retry.
    Every U_g acts on vectors through the monomial product kernel
    (:func:`weylnet.basis.apply_products`), a phase multiply and an index
    scatter.  The returned residual is max over the group of
    ||U psi - <U> psi||, from the same action on blocks of group rows.
    """
    n, n_nodes = cset.n, cset.n_nodes
    dims = (n,) * n_nodes
    group, generators = _complete_group(cset.members, n, n_nodes)
    dim = n ** n_nodes
    psi = np.zeros(dim, dtype=complex)
    psi[seed % dim] = 1.0
    for g in generators:
        psi = _eigen_component(g, psi, n, n_nodes)
    residual = 0.0
    step = max(1, _RESIDUAL_BLOCK_BYTES // (16 * dim))
    for block in (group[i:i + step] for i in range(0, len(group), step)):
        images = apply_products(weyl_factors(block[:, 0::2], block[:, 1::2], dims), psi)
        expectations = images @ psi.conj()
        residual = max(residual, float(np.max(np.linalg.norm(images - expectations[:, None] * psi, axis=1))))
    return CommonEigenstate(
        vector=psi,
        completion=group,
        completion_size=len(group),
        target_size=dim,
        pure_cluster_count=int(np.count_nonzero(np.all(group[:, 0::2] | group[:, 1::2], axis=1))),
        max_residual=residual,
    )
