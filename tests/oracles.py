"""Dense reference routes for the transforms the package uses.

Each coefficient expansion here builds one dense matrix per label
(Kronecker products of single-node matrices) and takes traces, which is
how the package computed these coefficients before every expansion went
through the Weyl transform.  Product operators (cluster operators,
collective family members, total spin, the zz network Hamiltonian) are
sums of dense Kronecker products, as the package built them before the
monomial product kernel; no oracle here goes through that kernel.  The
collective control pulse is the dense drive exponentiated by
diagonalization, placements are deduplicated permutations, the clique
search builds its full coloring as lists on every node, and the common
eigenstate diagonalizes a random combination of dense group matrices.
The spin basis takes S^2 and S_- as dense 2^N x 2^N products of the
dense total spin, as the package did before it coupled one node at a
time, and orthonormalizes each highest-weight space by Gram-Schmidt;
class weights come from one dense projector per class, and the
superselection check walks every pair of classes and copies.
State validation takes the least eigenvalue of the hermitian part, as
the package did before it checked positivity by one Cholesky factor.
The operator JSON codec builds one dict per matrix entry and lets
``json`` format it, and reads the parsed dicts back cell by cell.
Commuting sets are checked by dense commutators of their members, the
pure cluster labels are one label object each, the commutation graph
comes from one int64 product of their index vectors, a node's label
orbits from closing each pair under the SL(2, Z_n) generators S and T,
and the Gray sequence from the doubling recursion.  Echo periods are products
of dense segment unitaries: 2n n x n matrices and a matrix power for
the single-system echo, a dense Gray permutation matrix times the step
2^N times for the network echo, whose zz Hamiltonian is a sum of dense
Kronecker products; a monomial map's power follows every state step by
step.
They are slow and exist only as test oracles.
"""

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from weylnet import symmetry
from weylnet.basis import apply_per_node, as_operator
from weylnet.cluster import label_from_entries
from weylnet.coherence import STATE_ATOL
from weylnet.collective import (
    ID2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CollectiveLabel,
    collective_labels,
    f_placements,
    g_placements,
    multiplicity,
    placements,
)
from weylnet.errors import InputError
from weylnet.io import csv_lines
from weylnet.protocols import HADAMARD, _drive_eigenvalues, hermitian_expm, phase_distance
from weylnet.symmetry import SpinClass, SuperselectionReport

LETTERS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z, "P": SIGMA_PLUS, "M": SIGMA_MINUS}


def kron_all(mats):
    """Kronecker product of the matrices in order, node 1 most significant."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def node_labels(dims):
    """All product labels as per-node (a, b) tuples, lexicographic."""
    return itertools.product(*[list(itertools.product(range(n), range(n))) for n in dims])


@lru_cache(maxsize=None)
def _node_unitary(a, b, n):
    return weyl_matrix(a, b, n)


def weyl_matrix(a, b, n):
    """U_ab entry by entry: ((k+a) mod n, k) = w^(b*k)."""
    m = np.zeros((n, n), dtype=complex)
    for k in range(n):
        m[(k + a) % n, k] = np.exp(2j * np.pi * ((b * k) % n) / n)
    return m


def product_unitary(entries, dims):
    return kron_all(_node_unitary(a, b, n) for (a, b), n in zip(entries, dims))


def cluster_operator(label):
    """Kronecker product of the per-node basis unitaries of a ProductLabel."""
    return product_unitary(label.entries, label.dims)


def selective_operator(placement):
    """Kronecker product of the single-node letter matrices of one placement string."""
    return kron_all(LETTERS[ch] for ch in placement)


def phased_member(strings, b):
    """sum_p w_Omega^(p b) C_p, one dense Kronecker product per placement."""
    omega = len(strings)
    if not 0 <= b < omega:
        raise InputError(f"phase index {b} out of range for Omega={omega}")
    d = 2 ** len(strings[0])
    acc = np.zeros((d, d), dtype=complex)
    for p, s in enumerate(strings):
        acc += np.exp(2j * np.pi * ((p * b) % omega) / omega) * selective_operator(s)
    return acc


def collective_operator(label, n_nodes):
    return phased_member(placements(label.alpha, label.beta, label.gamma, n_nodes), label.b)


def f_operator(z, gamma, b, n_nodes):
    return phased_member(f_placements(z, gamma, n_nodes), b)


def g_operator(m, b, n_nodes):
    return phased_member(g_placements(m, n_nodes), b)


def f_labels(n_nodes):
    """(z, gamma) groups of the F family: z in [-(N-gamma), N-gamma]; (N+1)^2 groups."""
    for gamma in range(n_nodes + 1):
        for z in range(-(n_nodes - gamma), n_nodes - gamma + 1):
            yield z, gamma


def g_labels(n_nodes):
    """Operator counts m of the G family."""
    return range(n_nodes + 1)


def family_operators(family, n_nodes):
    """(label, matrix) pairs of the E, F or G family from the dense members above."""
    if family == "E":
        for label in collective_labels(n_nodes):
            yield label, collective_operator(label, n_nodes)
    elif family == "F":
        for z, gamma in f_labels(n_nodes):
            for b in range(len(f_placements(z, gamma, n_nodes))):
                yield (z, gamma, b), f_operator(z, gamma, b, n_nodes)
    else:
        for m in g_labels(n_nodes):
            for b in range(len(g_placements(m, n_nodes))):
                yield (m, b), g_operator(m, b, n_nodes)


def collective_spin(n_nodes):
    """S_x, S_y, S_z as sums over nodes of Kronecker products with one sigma/2 factor."""
    dim = 2 ** n_nodes
    out = []
    for s in (SIGMA_X / 2, SIGMA_Y / 2, SIGMA_Z / 2):
        acc = np.zeros((dim, dim), dtype=complex)
        for node in range(n_nodes):
            mats = [np.eye(2, dtype=complex)] * n_nodes
            mats[node] = s
            acc += kron_all(mats)
        out.append(acc)
    return tuple(out)


def spin_basis(n_nodes):
    """Spin classes from the dense S^2 and S_- = S_x - i S_y on all 2^N strings."""
    dim = 2 ** n_nodes
    sx, sy, sz = collective_spin(n_nodes)
    s2 = sx @ sx + sy @ sy + sz @ sz
    s_minus = sx - 1j * sy
    by_m = {}
    for idx in range(dim):
        by_m.setdefault(2 * bin(idx).count("1") - n_nodes, []).append(idx)
    classes = []
    for j2 in range(n_nodes, -1, -2):
        j = j2 / 2
        block = by_m[j2]
        basis = np.zeros((dim, len(block)), dtype=complex)
        for col, idx in enumerate(block):
            basis[idx, col] = 1.0
        vals, vecs = np.linalg.eigh(basis.conj().T @ s2 @ basis)
        sel = np.abs(vals - j * (j + 1)) < 1e-8
        mult = int(np.sum(sel))
        if mult == 0:
            continue
        highest = _deterministic_span(basis @ vecs[:, sel])
        copies = []
        for r in range(mult):
            chain = [highest[:, r]]
            m = j
            while m > -j:
                lowered = s_minus @ chain[-1]
                lowered /= math.sqrt(j * (j + 1) - m * (m - 1))
                chain.append(lowered)
                m -= 1
            copies.append(np.stack(chain))
        classes.append(SpinClass(j=j, multiplicity=mult, vectors=np.stack(copies)))
    return classes


def _deterministic_span(space):
    """Orthonormal basis of a column span, seeded by computational order.

    Projects the computational basis vectors in index order onto the
    span and Gram-Schmidt-filters them, so the result is reproducible
    and independent of eigensolver phase conventions.
    """
    dim, mult = space.shape
    proj = space @ space.conj().T
    chosen = []
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


def network_zz_hamiltonian(n_nodes, couplings, frequencies=None):
    """sum c_{mu nu} Z_mu Z_nu + sum (w_mu / 2) Z_mu, one Kronecker product per term."""
    dim = 2 ** n_nodes
    h = np.zeros((dim, dim), dtype=complex)
    for (mu, nu), c in dict(couplings).items():
        mats = [np.eye(2, dtype=complex)] * n_nodes
        mats[mu] = SIGMA_Z
        mats[nu] = SIGMA_Z
        h += c * kron_all(mats)
    if frequencies is not None:
        for mu, w in enumerate(frequencies):
            mats = [np.eye(2, dtype=complex)] * n_nodes
            mats[mu] = SIGMA_Z
            h += (w / 2) * kron_all(mats)
    return h


def echo_residuals(h, dt, cycles=1):
    """(residual, stroboscopic residual) of the echo from dense period products.

    The gate is the shift, conjugated into the eigenbasis unless h is
    diagonal; the period multiplies n (gate, step) pairs and the
    stroboscopic unitary is its ``cycles``-th matrix power.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    gate = weyl_matrix(n - 1, 0, n)
    if np.max(np.abs(h - np.diag(np.diag(h)))) >= 1e-14:
        _, vecs = np.linalg.eigh(h)
        gate = vecs @ gate @ vecs.conj().T
    step = hermitian_expm(h, dt / n)
    u = np.eye(n, dtype=complex)
    for _ in range(n):
        u = gate @ step @ u
    return phase_distance(u), phase_distance(np.linalg.matrix_power(u, cycles))


def monomial_power_distance(perm, factors, steps):
    """phase_distance(M^steps) of M|k> = factors[k] |perm[k]>, following every state
    for ``steps`` steps; a power that moves a state is measured densely."""
    n = len(perm)
    pos, acc = np.arange(n), np.ones(n, dtype=complex)
    for _ in range(steps):
        acc = acc * factors[pos]
        pos = perm[pos]
    power = np.zeros((n, n), dtype=complex)
    power[pos, np.arange(n)] = acc
    return phase_distance(power)


def network_echo_residual(n_nodes, couplings, dt, frequencies=None):
    """Residual of the Gray-cycle echo: (P exp(-i h dt/2^N))^(2^N) with P the dense cycle."""
    h = network_zz_hamiltonian(n_nodes, couplings, frequencies)
    dim = 2 ** n_nodes
    codes = [int(c) for c in reflected_gray_codes(n_nodes)]
    perm = np.zeros((dim, dim), dtype=complex)
    for i, c in enumerate(codes):
        perm[codes[(i + 1) % dim], c] = 1.0
    step = hermitian_expm(h, dt / dim)
    u = np.eye(dim, dtype=complex)
    for _ in range(dim):
        u = perm @ step @ u
    return phase_distance(u)


def collective_control_expansion(m, alpha_t, n_nodes):
    """prod_p (cos(alpha_t) 1 - i sin(alpha_t) C_p) over the all-x placements.

    All placements of sigma_x factors commute, so the product equals
    exp(-i alpha_t E_{m00,0}).
    """
    dim = 2 ** n_nodes
    u = np.eye(dim, dtype=complex)
    for s in placements(m, 0, 0, n_nodes):
        u = u @ (math.cos(alpha_t) * np.eye(dim) - 1j * math.sin(alpha_t) * selective_operator(s))
    return u


def weyl_coefficients(op, dims):
    """tr{op U^dag} per label, shaped (n_1, n_1, ..., n_N, n_N)."""
    op = np.asarray(op, dtype=complex)
    out = np.empty(tuple(n for n in dims for _ in range(2)), dtype=complex)
    for entries in node_labels(dims):
        u = product_unitary(entries, dims)
        out[tuple(x for ab in entries for x in ab)] = np.sum(op * u.conj())  # tr{op U^dag}
    return out


def weyl_operator(coeffs, dims):
    """(1/D) sum u_label U_label from coefficients shaped as above."""
    d = math.prod(dims)
    acc = np.zeros((d, d), dtype=complex)
    for entries in node_labels(dims):
        acc += coeffs[tuple(x for ab in entries for x in ab)] * product_unitary(entries, dims)
    return acc / d


def cluster_sum(state, subset):
    """Y(subset): sum of |tr{rho Q^dag}|^2 over labels supported exactly on subset."""
    total = 0.0
    for entries in node_labels(state.dims):
        support = tuple(i for i, ab in enumerate(entries) if ab != (0, 0))
        if support == tuple(sorted(subset)):
            q = product_unitary(entries, state.dims)
            total += abs(np.sum(state.rho * q.conj())) ** 2
    return total


def generator_matrix(h):
    """Omega_ij = (i/n) tr{H [U_i^dag, U_j]} by explicit matrix commutators."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    ops = [weyl_matrix(i // n, i % n, n) for i in range(n * n)]
    omega = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n * n):
        di = ops[i].conj().T
        for j in range(n * n):
            omega[i, j] = 1j / n * np.trace(h @ (di @ ops[j] - ops[j] @ di))
    return omega[1:, 1:]


def rotation_matrix(u):
    """T_ij = (1/n) tr{U_j U^dag U_i^dag U} by explicit products."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    ops = [weyl_matrix(i // n, i % n, n) for i in range(n * n)]
    t = np.array([[np.trace(ops[j] @ u.conj().T @ ops[i].conj().T @ u) for j in range(n * n)]
                  for i in range(n * n)]) / n
    return t[1:, 1:]


def decompose_collective(rho, n_nodes):
    """E_{abg,b} = (1/Omega) sum_p w^(-pb) tr{rho C_p^dag}, one Kronecker product per placement."""
    out = {}
    for alpha in range(n_nodes + 1):
        for beta in range(n_nodes + 1 - alpha):
            for gamma in range(n_nodes + 1 - alpha - beta):
                strings = placements(alpha, beta, gamma, n_nodes)
                omega = multiplicity(alpha, beta, gamma, n_nodes)
                c = np.array([np.sum(rho * selective_operator(s).conj()) for s in strings])
                for b in range(omega):
                    phases = np.exp(-2j * np.pi * (np.arange(omega) * b % omega) / omega)
                    out[CollectiveLabel(alpha, beta, gamma, b)] = complex(phases @ c) / omega
    return out


def decompose_in_family(op, family, n_nodes):
    """Least-squares solve over the dense 4^N x 4^N matrix of family members."""
    labels, columns = [], []
    for label, mat in family_operators(family, n_nodes):
        labels.append(label)
        columns.append(mat.ravel())
    basis = np.array(columns).T
    target = np.asarray(op, dtype=complex).ravel()
    coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return dict(zip(labels, coeffs))


def collective_control(m, alpha_t, n_nodes):
    """exp(-i alpha_t E_{m00,0}) from the dense drive and its eigendecomposition."""
    return hermitian_expm(collective_operator(CollectiveLabel(m, 0, 0, 0), n_nodes), alpha_t)


def arrangements(chars):
    """Distinct orderings of ``chars``, sorted, by deduplicating all N! permutations."""
    return tuple(sorted({"".join(p) for p in itertools.permutations(chars)}))


def clique_search(adj, initial, budget):
    """Branch-and-bound maximum clique, coloring every candidate into lists on each node.

    Same search order, bounds and budget accounting as
    :func:`weylnet.commuting.max_clique`; returns (best clique,
    expansions, exhausted).
    """
    state = {"best": list(initial), "expansions": 0}

    def color_sort(cand):
        order, colors = [], []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                colors.append(color)
                avail &= ~adj[v]
                avail &= ~(1 << v)
                rest &= ~(1 << v)
        return order, colors

    def expand(clique, cand):
        state["expansions"] += 1
        if state["expansions"] > budget:
            raise _OutOfBudget
        order, colors = color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if len(clique) + colors[i] <= len(state["best"]):
                return
            v = order[i]
            clique.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(clique, nxt)
            elif len(clique) > len(state["best"]):
                state["best"] = clique.copy()
            clique.pop()
            cand &= ~(1 << v)

    try:
        expand([], (1 << len(adj)) - 1)
    except _OutOfBudget:
        return state["best"], state["expansions"], True
    return state["best"], state["expansions"], False


class _OutOfBudget(Exception):
    pass


def common_eigenstate(cset, seed=0, max_tries=25):
    """Eigenvector of a random hermitian combination of the completed group's dense matrices.

    Fresh coefficients are drawn while the chosen eigenvalue is
    degenerate; returns (vector, max over the group of ||U psi - <U> psi||).
    """
    dims = (cset.n,) * cset.n_nodes
    mats = [product_unitary(list(zip(v[0::2], v[1::2])), dims)
            for v in sorted(complete_group(cset.members, cset.n, cset.n_nodes)[0]) if any(v)]
    dim = math.prod(dims)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max_tries):
        h = np.zeros((dim, dim), dtype=complex)
        for m in mats:
            c, cp = rng.normal(), rng.normal()
            h += c * (m + m.conj().T) / 2 + cp * (m - m.conj().T) / 2j
        vals, vecs = np.linalg.eigh(h)
        gaps = np.full(dim, np.inf)
        if dim > 1:
            d = np.diff(vals)
            gaps[0] = d[0]
            gaps[-1] = d[-1]
            for i in range(1, dim - 1):
                gaps[i] = min(d[i - 1], d[i])
        k = int(np.argmax(gaps))
        if gaps[k] < 1e-8:
            continue
        psi = vecs[:, k]
        residual = 0.0
        for m in mats:
            mp = m @ psi
            residual = max(residual, float(np.linalg.norm(mp - np.vdot(psi, mp) * psi)))
        if residual < 1e-10:
            return psi, residual
        if best is None or residual < best[1]:
            best = (psi, residual)
    return best


def symplectic(v, w, n):
    """sum_i (a_i d_i - b_i c_i) mod n of two index vectors, by a Python loop."""
    total = 0
    for i in range(0, len(v), 2):
        total += v[i] * w[i + 1] - v[i + 1] * w[i]
    return total % n


def group_closure(generators, n):
    """The additive closure of index vectors in Z_n^(2N), by breadth-first search over tuples."""
    gens = list(set(generators))
    if not gens:
        return set()
    zero = tuple([0] * len(gens[0]))
    group = {zero}
    queue = [zero]
    while queue:
        x = queue.pop()
        for g in gens:
            y = tuple((a + b) % n for a, b in zip(x, g))
            if y not in group:
                group.add(y)
                queue.append(y)
    return group


def complete_group(members, n, n_nodes):
    """(group, generators) by scanning every vector in lexicographic order, one test at a time.

    A member joins the generators only when it lies outside the closure
    of those before it, as a scanned vector does.
    """
    group = {tuple([0] * (2 * n_nodes))}
    generators = []
    for vec in (tuple(x for e in m.entries for x in e) for m in members):
        if vec not in group:
            generators.append(vec)
            group = group_closure(set(generators), n)
    if len(group) < n ** n_nodes:
        for cand in itertools.product(range(n), repeat=2 * n_nodes):
            if cand in group:
                continue
            if all(symplectic(cand, g, n) == 0 for g in generators):
                generators.append(cand)
                group = group_closure(set(generators), n)
                if len(group) >= n ** n_nodes:
                    break
    return group, generators


def commutes_pairwise(members, atol=1e-12):
    """Every pair of labels commutes as dense Kronecker matrices, to ``atol``."""
    mats = [cluster_operator(m) for m in members]
    return all(np.max(np.abs(x @ y - y @ x)) <= atol for x, y in itertools.combinations(mats, 2))


def pure_cluster_labels(n, n_nodes):
    """All (n^2-1)^N pure N-cluster labels, lexicographic, one label object each."""
    dims = (n,) * n_nodes
    pairs = [(a, b) for a in range(n) for b in range(n) if (a, b) != (0, 0)]
    return [label_from_entries(combo, dims) for combo in itertools.product(pairs, repeat=n_nodes)]


def commute_matrix(labels):
    """Boolean commutation matrix (no self loops) of uniform-dimension labels, by one int64 product."""
    vecs = np.array([[x for e in lab.entries for x in e] for lab in labels], dtype=np.int64)
    a, b = vecs[:, 0::2], vecs[:, 1::2]
    commute = (a @ b.T - b @ a.T) % labels[0].dims[0] == 0
    np.fill_diagonal(commute, False)
    return commute


def commutation_graph(labels):
    """Per-vertex adjacency bitmasks (no self loops) of uniform-dimension labels."""
    if not labels:
        return []
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in commute_matrix(labels)]


def node_orbits(n):
    """Orbit id of every nonzero (a, b) in Z_n^2, by closure under S = [[0,-1],[1,0]] and T = [[1,1],[0,1]].

    Ids count orbits in the order of their first pair, (a, b) lexicographic.
    """
    orbit = {}
    count = 0
    for start in itertools.product(range(n), repeat=2):
        if start == (0, 0) or start in orbit:
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


def label_orbits(rows, n):
    """Label orbit of every pure label row: the sorted closure orbit ids of its nodes, numbered in order."""
    table = np.full((n, n), -1, dtype=np.int64)
    for (a, b), oid in node_orbits(n).items():
        table[a, b] = oid
    keys = np.sort(table[rows[:, 0::2], rows[:, 1::2]], axis=1)
    return np.unique(keys, axis=0, return_inverse=True)[1].ravel()


def reflected_gray_codes(n_bits):
    """The reflected Gray code by the doubling recursion.

    Each member of the previous sequence is repeated and extended on the
    right by 0,1 for even positions and 1,0 for odd positions.
    """
    codes = np.array([0, 1], dtype=np.uint64)
    for _ in range(n_bits - 1):
        doubled = np.repeat(codes << np.uint64(1), 2)
        tail = np.tile(np.array([0, 1, 1, 0], dtype=np.uint64), len(codes) // 2 or 1)[: len(doubled)]
        codes = doubled + tail
    return codes


def cat_seed_clique(n, n_nodes):
    """Labels with |<cat| U |cat>| = 1 on the aligned cat state, by a phase sum per label."""
    seed = []
    for vi, lab in enumerate(pure_cluster_labels(n, n_nodes)):
        if any(e[0] != lab.entries[0][0] for e in lab.entries):
            continue
        total = sum(np.exp(2j * np.pi * (sum(e[1] for e in lab.entries) * j % n) / n) for j in range(n))
        if abs(abs(total) / n - 1.0) < 1e-9:
            seed.append(vi)
    return seed


def permutation_operator(perm):
    """P (|x_1> ... |x_N>) = |x_{perm^-1(1)}> ..., bit by bit."""
    n_nodes = len(perm)
    dim = 2 ** n_nodes
    p = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        bits = [(src >> (n_nodes - 1 - i)) & 1 for i in range(n_nodes)]
        out = [0] * n_nodes
        for i, bit in enumerate(bits):
            out[perm[i]] = bit
        dst = 0
        for bit in out:
            dst = dst * 2 + bit
        p[dst, src] = 1.0
    return p


def validate_state(rho):
    """Hermiticity, unit trace and positivity to STATE_ATOL, positivity by eigvalsh."""
    m = as_operator(rho)
    if np.max(np.abs(m - m.conj().T)) > STATE_ATOL:
        raise InputError("density operator is not hermitian")
    if abs(np.trace(m) - 1.0) > STATE_ATOL:
        raise InputError(f"density operator trace {np.trace(m):.3g} != 1")
    if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) < -STATE_ATOL:
        raise InputError("density operator is not positive semidefinite")
    return m


def operator_to_dict(op):
    """Operator schema as one {"re", "im"} dict per entry (byte oracle through json.dumps)."""
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("operator must be a square matrix")
    return {
        "dim": int(m.shape[0]),
        "entries": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in m
        ],
    }


def state_to_dict(state):
    data = operator_to_dict(state.rho)
    data["dims"] = [int(n) for n in state.dims]
    return data


def schedule_to_dicts(schedule):
    """Schedule as a JSON-ready list of segment objects, every operator in full."""
    out = []
    for seg in schedule.segments:
        entry = {"kind": seg.kind, "operator": operator_to_dict(seg.operator)}
        if seg.kind == "hamiltonian":
            entry["dt"] = float(seg.duration)
        out.append(entry)
    return out


def operator_from_dict(data):
    """Decode oracle: the operator grid of parsed JSON dicts, cell by cell."""
    try:
        dim = int(data["dim"])
        rows = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed operator object: {exc}") from exc
    if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows):
        raise InputError(f"entries are not a {dim}x{dim} grid")
    m = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                m[i, j] = complex(float(cell["re"]), float(cell["im"]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"malformed entry at ({i},{j}): {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise InputError("operator entries must be finite")
    return m


def operator_from_json(text):
    return operator_from_dict(json.loads(text))


def schedule_operators_from_json(text):
    """(kind, operator, dt) per segment of a schedule file, through the decode oracle."""
    return [(seg["kind"], operator_from_dict(seg["operator"]), float(seg.get("dt", 0.0)))
            for seg in json.loads(text)]


def spin_projectors(n_nodes):
    """j -> dense projector onto the full j eigenspace."""
    out = {}
    for cls in symmetry.spin_basis(n_nodes):
        vecs = cls.vectors.reshape(-1, 2 ** n_nodes)
        out[cls.j] = vecs.T @ vecs.conj()
    return out


def superselection_check(n_nodes):
    """The superselection report from one block per pair of classes and copies."""
    classes = symmetry.spin_basis(n_nodes)
    ops = [collective_operator(lab, n_nodes) for lab in collective_labels(n_nodes, b_zero_only=True)]
    cross_j = cross_copy = copy_mismatch = 0.0
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
    return SuperselectionReport(
        n_nodes=n_nodes,
        max_cross_j_element=cross_j,
        max_cross_copy_element=cross_copy,
        max_copy_mismatch=copy_mismatch,
        operator_count=len(ops),
        parameter_count=sum(c.degeneracy ** 2 for c in classes),
        independent_rank=int(np.linalg.matrix_rank(np.array(compressed), tol=1e-8)),
    )


def collective_control_states(m, times, n_nodes, psi0):
    """The collective drive's states, one Walsh-Hadamard transform per time."""
    dim = 2 ** n_nodes
    psi = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    index = np.arange(dim)
    lam = _drive_eigenvalues(m, n_nodes, sum((index >> node) & 1 for node in range(n_nodes)))
    x = apply_per_node(HADAMARD, psi, n_nodes)
    phases = np.exp(-1j * np.multiply.outer(times, lam))
    phases = phases.reshape(phases.shape + (1,) * (psi.ndim - 1))
    return np.stack([apply_per_node(HADAMARD, p * x, n_nodes) / dim for p in phases])


def trajectory_csv(times, states):
    """Trajectory CSV with one cell per real and imaginary part."""
    dim = len(states[0])
    header = "t," + ",".join(f"re_{k},im_{k}" for k in range(dim))
    rows = []
    for t, psi in zip(times, states):
        row = [float(t)]
        for z in psi:
            row += [float(z.real), float(z.imag)]
        rows.append(row)
    return csv_lines(header, rows)
