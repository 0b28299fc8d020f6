"""Collective operator families for networks of two-level nodes.

A product operator on N qubits is a placement of single-node factors
sigma_x, sigma_y, sigma_z (multiplicities alpha, beta, gamma) on
distinct nodes, identity elsewhere.  Summing one multiplicity class
over all of its Omega = N!/(alpha! beta! gamma! (N-a-b-g)!) placements
with a discrete phase gradient gives the collective operators

    E_{abg,b} = sum_p w_Omega^(p b) C_{abg,p},   w_Omega = exp(2 pi i / Omega).

b = 0 members are permutation symmetric.  Placements are canonically
the length-N strings over {I, X, Y, Z} with the given multiplicities in
lexicographic order; p is the rank in that order (the numbering is a
convention, fixed here so phased members are reproducible).

Single-node matrices follow the hermitian generator set of the
shift/phase basis: sigma_z = diag(-1, +1), so |0> is the lower level,
and sigma_y = i(|0><1| - |1><0|).

The coarser families F (net flip z and sigma_z count gamma, built on
sigma_+/sigma_-/sigma_z) and G (total operator count m) are grouped the
same way; each group's phase transform is an invertible DFT over its
placements, so both families stay complete.

Coefficients in every family come from one Weyl transform of the
operator (:func:`weylnet.basis.weyl_transform`): at n = 2 each letter is
a fixed combination of shift/phase unitaries (X = U_10, Z = -U_01,
Y = -i U_11, sigma_+- = U_10 +- U_11), and each group's members are one
FFT over that group's placement coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import as_operator, inverse_weyl_transform, monomial_factor, product_operator, weyl_transform
from .cluster import NetworkState
from .coherence import validate_state
from .errors import InputError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)
SIGMA_PLUS = SIGMA_X + 1j * SIGMA_Y    # 2 |1><0|
SIGMA_MINUS = SIGMA_X - 1j * SIGMA_Y   # 2 |0><1|
ID2 = np.eye(2, dtype=complex)

_CHAR_MATS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z,
              "P": SIGMA_PLUS, "M": SIGMA_MINUS}
#: per letter (in _CHAR_MATS order), the digit map and values of its single-node matrix
_LETTER_INDEX = {ch: i for i, ch in enumerate(_CHAR_MATS)}
_LETTER_MAPS, _LETTER_VALUES = (np.array(t) for t in zip(*map(monomial_factor, _CHAR_MATS.values())))


@dataclass(frozen=True, order=True)
class CollectiveLabel:
    """(alpha, beta, gamma, b) multiplicities and phase index."""

    alpha: int
    beta: int
    gamma: int
    b: int

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma, self.b) < 0:
            raise InputError("collective label entries must be non-negative")

    @property
    def order(self) -> int:
        return self.alpha + self.beta + self.gamma


def _identity_count(counts: tuple[int, ...], n_nodes: int) -> int:
    """N minus the operator counts, which must be non-negative and sum to at most N."""
    rest = n_nodes - sum(counts)
    if min(counts) < 0 or rest < 0:
        raise InputError(f"counts {counts} must be non-negative with sum <= N={n_nodes}")
    return rest


def multiplicity(alpha: int, beta: int, gamma: int, n_nodes: int) -> int:
    """Omega: number of placements of the multiplicity class on N nodes."""
    rest = _identity_count((alpha, beta, gamma), n_nodes)
    return math.factorial(n_nodes) // (
        math.factorial(alpha) * math.factorial(beta) * math.factorial(gamma) * math.factorial(rest)
    )


def _arrangements(letters: str, counts: tuple[int, ...]) -> list[str]:
    """All distinct strings with counts[i] copies of letters[i], in lexicographic order.

    ``letters`` must be sorted.  Each string is built once, first letter
    first, so the cost is the output size times its length (no N! pass
    over repeated permutations).
    """
    if not any(counts):
        return [""]
    out = []
    for i, c in enumerate(counts):
        if c:
            rest = counts[:i] + (c - 1,) + counts[i + 1:]
            out += [letters[i] + s for s in _arrangements(letters, rest)]
    return out


@lru_cache(maxsize=None)
def placements(alpha: int, beta: int, gamma: int, n_nodes: int) -> tuple[str, ...]:
    """Lexicographically ordered placement strings over {I, X, Y, Z}."""
    rest = _identity_count((alpha, beta, gamma), n_nodes)
    return tuple(_arrangements("IXYZ", (rest, alpha, beta, gamma)))


def placement_operator(strings, weights) -> np.ndarray:
    """Dense sum_p weights[p] C_p over equal-length placement strings.

    Each letter is a monomial single-node matrix, so the sum is one call
    of the product kernel :func:`weylnet.basis.product_operator`.
    """
    lengths = sorted({len(s) for s in strings})
    if len(lengths) > 1:
        raise InputError(f"placement strings must have equal length, got lengths {lengths}")
    try:
        letters = np.array([[_LETTER_INDEX[ch] for ch in s] for s in strings])
    except KeyError as exc:
        raise InputError(f"unknown placement letter {exc.args[0]!r}; "
                         f"letters are {''.join(_CHAR_MATS)}") from exc
    return product_operator([(_LETTER_MAPS[node], _LETTER_VALUES[node]) for node in letters.T], weights)


def selective_operator(placement: str) -> np.ndarray:
    """Dense matrix of one placement string."""
    return placement_operator([placement], [1.0])


def _phased_member(strings: tuple[str, ...], b: int) -> np.ndarray:
    """sum_p w_Omega^(p b) C_p over the placements of one group (Omega = len(strings))."""
    omega = len(strings)
    if not 0 <= b < omega:
        raise InputError(f"phase index {b} out of range for Omega={omega}")
    phases = [np.exp(2j * np.pi * ((p * b) % omega) / omega) for p in range(omega)]
    return placement_operator(strings, phases)


def collective_operator(label: CollectiveLabel, n_nodes: int) -> np.ndarray:
    """E_{abg,b} = sum_p w_Omega^(p b) C_p over the canonical placements."""
    return _phased_member(placements(label.alpha, label.beta, label.gamma, n_nodes), label.b)


def collective_labels(n_nodes: int, b_zero_only: bool = False):
    """All labels; 4^N in total, (N+1)(N+2)(N+3)/6 with b = 0."""
    for alpha in range(n_nodes + 1):
        for beta in range(n_nodes + 1 - alpha):
            for gamma in range(n_nodes + 1 - alpha - beta):
                omega = multiplicity(alpha, beta, gamma, n_nodes)
                for b in ([0] if b_zero_only else range(omega)):
                    yield CollectiveLabel(alpha, beta, gamma, b)


def selective_to_collective(p0: int, alpha: int, beta: int, gamma: int, n_nodes: int) -> dict:
    """Coefficients of the inverse transform sum_b w^(-b p0) E_b = Omega C_p0.

    Returns {b: w_Omega^(-b p0) / Omega}; applying it to the collective
    family reproduces the selective operator C_{abg,p0} exactly.
    """
    omega = multiplicity(alpha, beta, gamma, n_nodes)
    if not 0 <= p0 < omega:
        raise InputError(f"permutation index {p0} out of range for Omega={omega}")
    return {b: np.exp(-2j * np.pi * ((b * p0) % omega) / omega) / omega for b in range(omega)}


def selective_from_collective(p0: int, alpha: int, beta: int, gamma: int, n_nodes: int) -> np.ndarray:
    """Reassemble C_{abg,p0} from the phased collective family.

    sum_b c_b E_b = sum_p (sum_b c_b w^(pb)) C_p, so one inverse DFT of the
    coefficients c_b gives the placement weights of a single placement sum.
    """
    coeffs = selective_to_collective(p0, alpha, beta, gamma, n_nodes)
    weights = len(coeffs) * np.fft.ifft(list(coeffs.values()))  # keys are b = 0 .. Omega-1 in order
    return placement_operator(placements(alpha, beta, gamma, n_nodes), weights)


def _as_rho(state, n_nodes: int | None) -> tuple[np.ndarray, int]:
    if isinstance(state, NetworkState):
        if any(d != 2 for d in state.dims):
            raise InputError("collective operators are defined for two-level nodes")
        return state.rho, state.n_nodes
    rho = validate_state(state)
    nn = int(round(np.log2(rho.shape[0]))) if n_nodes is None else n_nodes
    if 2 ** nn != rho.shape[0]:
        raise InputError("operator dimension is not a power of two")
    return rho, nn


# ---------------------------------------------------------------------------
# the placement-group transform shared by the E, F and G families
# ---------------------------------------------------------------------------
#
# A placement is one letter per node from a four-letter alphabet; ranked
# lexicographically, the 4^N placements of N nodes are the base-4 numbers
# with node 1 most significant.  A family member is a phased sum over one
# group of placements, so a stable sort of the 4^N placements by group
# turns each group into a contiguous run in rank order, and the members'
# coefficients are one DFT over that run.

# family -> (single-node letters in lexicographic order, group sort key,
# member label); key and label read the per-letter counts c of a placement
_FAMILIES = {
    # (alpha, beta, gamma) = counts of X, Y, Z
    "E": ("IXYZ", lambda c, n: (c[1] * (n + 1) + c[2]) * (n + 1) + c[3],
          lambda c, b: CollectiveLabel(c[1], c[2], c[3], b)),
    # gamma = count of Z, then net flip z = #P - #M
    "F": ("IMPZ", lambda c, n: c[3] * (2 * n + 1) + c[2] - c[1] + n,
          lambda c, b: (c[2] - c[1], c[3], b)),
    # m = count of non-identity letters
    "G": ("IXYZ", lambda c, n: n - c[0],
          lambda c, b: (c[1] + c[2] + c[3], b)),
}


@lru_cache(maxsize=None)
def _letter_coefficients(letters: str) -> np.ndarray:
    """T[j, l] = tr{U_j^dag L_l}: shift/phase coefficients (j = 2a + b) of each letter."""
    mats = np.stack([_CHAR_MATS[ch] for ch in letters])
    return weyl_transform(mats, (2,)).reshape(len(letters), 4).T


@lru_cache(maxsize=None)
def _placement_groups(family: str, n_nodes: int) -> tuple[np.ndarray, tuple, tuple]:
    """Stable sort of the 4^N placements into the family's groups.

    Returns (order, runs, labels): ``order[r]`` is the base-4 placement
    index at rank r, ``runs`` the (start, stop) ranks of each group in
    label order, and ``labels[r]`` the family label of rank r, whose phase
    index is b = r - start.
    """
    _, group_key, make = _FAMILIES[family]
    size = 4 ** n_nodes
    index = np.arange(size)
    counts = np.zeros((4, size), dtype=np.int64)
    for node in range(n_nodes):
        counts[(index >> (2 * node)) & 3, index] += 1
    key = group_key(counts, n_nodes)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1)).tolist()
    runs = tuple(zip(starts, starts[1:] + [size]))
    labels = []
    for start, stop in runs:
        c = counts[:, order[start]].tolist()
        labels += [make(c, b) for b in range(stop - start)]
    return order, runs, tuple(labels)


def _per_node(mat: np.ndarray, t: np.ndarray, n_nodes: int) -> np.ndarray:
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


def _family_transform(op, family: str, n_nodes: int) -> tuple[tuple, np.ndarray]:
    """Labels and coefficients x with op = sum x_{g,b} (member g,b of the family).

    Placements are trace-orthogonal, so placement S carries
    q_S = tr{S^dag op} / tr{S S^dag}, read off the Weyl transform letter by
    letter; within a group q_p = sum_b x_b w^(pb), so x is the group's FFT
    of q divided by Omega.
    """
    order, runs, labels = _placement_groups(family, n_nodes)
    t = _letter_coefficients(_FAMILIES[family][0])
    norms = np.sum(np.abs(t) ** 2, axis=0) / 2  # tr{L L^dag}
    u = weyl_transform(op, (2,) * n_nodes).ravel()
    # per node, A = (1/2) sum_j u_j U_j gives tr{L^dag A} = (1/2) sum_j conj(T[j, l]) u_j
    q = _per_node(t.conj().T / (2 * norms[:, None]), u, n_nodes)[order]
    for start, stop in runs:
        q[start:stop] = np.fft.fft(q[start:stop]) / (stop - start)
    return labels, q


def _family_operator(x: np.ndarray, family: str, n_nodes: int) -> np.ndarray:
    """sum x_{g,b} (member g,b) for coefficients x in label order; inverse of the above."""
    order, runs, _ = _placement_groups(family, n_nodes)
    q = np.empty(4 ** n_nodes, dtype=complex)
    for start, stop in runs:
        q[order[start:stop]] = (stop - start) * np.fft.ifft(x[start:stop])
    u = _per_node(_letter_coefficients(_FAMILIES[family][0]), q, n_nodes)
    return inverse_weyl_transform(u.reshape((2,) * (2 * n_nodes)), (2,) * n_nodes)


def decompose_collective(state, n_nodes: int | None = None) -> dict:
    """Expectation map E_{abg,b} = (1/Omega) tr{rho E^dag}.

    The density operator reconstructs as (1/2^N) sum E_{abg,b} E_hat;
    permutation-symmetric states have all b != 0 coefficients zero.
    Keys come in :class:`CollectiveLabel` order: groups by (alpha, beta,
    gamma), b ascending within each group.
    """
    rho, nn = _as_rho(state, n_nodes)
    labels, x = _family_transform(rho, "E", nn)
    return dict(zip(labels, (x * 2 ** nn).tolist()))


def reconstruct_collective(coeffs: dict, n_nodes: int) -> np.ndarray:
    """Inverse of :func:`decompose_collective`; absent labels count as zero."""
    labels = _placement_groups("E", n_nodes)[2]
    rank = dict(zip(labels, range(len(labels))))
    x = np.zeros(len(labels), dtype=complex)
    for label, value in coeffs.items():
        if label not in rank:
            raise InputError(f"{label} is not a collective label on {n_nodes} nodes")
        x[rank[label]] = value
    return _family_operator(x / 2 ** n_nodes, "E", n_nodes)


# ---------------------------------------------------------------------------
# F and G families
# ---------------------------------------------------------------------------

def f_labels(n_nodes: int):
    """(z, gamma) groups: z in [-(N-gamma), N-gamma]; (N+1)^2 groups."""
    for gamma in range(n_nodes + 1):
        for z in range(-(n_nodes - gamma), n_nodes - gamma + 1):
            yield z, gamma


@lru_cache(maxsize=None)
def f_placements(z: int, gamma: int, n_nodes: int) -> tuple[str, ...]:
    """All sigma_+/sigma_-/sigma_z placements with net flip z and gamma z's.

    Every (alpha, beta) pair with alpha - beta = z contributes its
    placements; the joint list is ordered lexicographically and indexed
    by one permutation label, which keeps the phase transform an
    invertible DFT and the family complete.
    """
    _identity_count((abs(z), gamma), n_nodes)
    out = []
    for alpha in range(n_nodes + 1):
        beta = alpha - z
        if beta < 0 or alpha + beta + gamma > n_nodes:
            continue
        out += _arrangements("IMPZ", (n_nodes - alpha - beta - gamma, beta, alpha, gamma))
    return tuple(sorted(out))


def f_operator(z: int, gamma: int, b: int, n_nodes: int) -> np.ndarray:
    return _phased_member(f_placements(z, gamma, n_nodes), b)


def g_labels(n_nodes: int):
    return range(n_nodes + 1)


@lru_cache(maxsize=None)
def g_placements(m: int, n_nodes: int) -> tuple[str, ...]:
    """All placements of m non-identity factors of any type; 3^m C(N,m)."""
    _identity_count((m,), n_nodes)
    out = []
    for alpha in range(m + 1):
        for beta in range(m + 1 - alpha):
            out += _arrangements("IXYZ", (n_nodes - m, alpha, beta, m - alpha - beta))
    return tuple(sorted(out))


def g_operator(m: int, b: int, n_nodes: int) -> np.ndarray:
    return _phased_member(g_placements(m, n_nodes), b)


def family_operators(family: str, n_nodes: int):
    """(label, matrix) pairs of a complete family: "E", "F" or "G"."""
    if family == "E":
        for label in collective_labels(n_nodes):
            yield label, collective_operator(label, n_nodes)
    elif family == "F":
        for z, gamma in f_labels(n_nodes):
            for b in range(len(f_placements(z, gamma, n_nodes))):
                yield (z, gamma, b), f_operator(z, gamma, b, n_nodes)
    elif family == "G":
        for m in g_labels(n_nodes):
            for b in range(len(g_placements(m, n_nodes))):
                yield (m, b), g_operator(m, b, n_nodes)
    else:
        raise InputError(f"unknown family {family!r}")


def decompose_in_family(op, family: str, n_nodes: int) -> tuple[dict, float]:
    """Coefficients of ``op`` over a family; returns (map, residual).

    The F and G families are complete but not trace-orthogonal: sigma_+-
    placements have norm 4 per node where I, X, Y, Z have 2.  Their
    placements are trace-orthogonal, though, so each group is solved on
    its own as an inverse DFT of the normalized placement coefficients.
    The residual is the max-entry error of ``op`` rebuilt from the
    returned coefficients (completeness means ~0).
    """
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}")
    m = as_operator(op, 2 ** n_nodes)
    labels, x = _family_transform(m, family, n_nodes)
    residual = float(np.max(np.abs(_family_operator(x, family, n_nodes) - m)))
    return dict(zip(labels, x.tolist())), residual


def count_parameters(family: str, n_nodes: int) -> int:
    """Closed-form count of b = 0 operators: E, F, G families."""
    if family in ("E0", "E"):
        return (n_nodes + 1) * (n_nodes + 2) * (n_nodes + 3) // 6
    if family in ("F0", "F"):
        return (n_nodes + 1) ** 2
    if family in ("G0", "G"):
        return n_nodes + 1
    raise InputError(f"unknown family {family!r}")


def enumerate_parameters(family: str, n_nodes: int) -> int:
    """The same count by direct enumeration of the b = 0 labels."""
    if family in ("E0", "E"):
        return sum(1 for _ in collective_labels(n_nodes, b_zero_only=True))
    if family in ("F0", "F"):
        return sum(1 for _ in f_labels(n_nodes))
    if family in ("G0", "G"):
        return len(list(g_labels(n_nodes)))
    raise InputError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# two-node Hamiltonian models and their collective invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantExpression:
    """Real-coefficient linear form over collective expectation values."""

    name: str
    terms: tuple[tuple[float, CollectiveLabel], ...]

    def evaluate(self, coeffs: dict) -> complex:
        return sum(c * coeffs[label] for c, label in self.terms)


@dataclass
class InvariantSet:
    model: str
    hamiltonian: np.ndarray
    n_nodes: int
    expressions: tuple[InvariantExpression, ...]


def _e(alpha, beta, gamma, b=0) -> CollectiveLabel:
    return CollectiveLabel(alpha, beta, gamma, b)


def hamiltonian_invariants(model: str, **params) -> InvariantSet:
    """Two-node models with their conserved collective expectation values.

    "foerster" (params omega, c_f): excitation-exchange coupling; the
    conserved forms are E_{001,0}, E_{002,0} and E_{200,0} + E_{020,0}.

    "renormalization" (params omega_1, omega_2, c_r): detuned pair with
    a zz coupling; conserves E_{001,0}, E_{002,0} and the antisymmetric
    E_{001,1}.

    "stimulation" (params g, delta): collectively driven pair in the
    rotating frame; conserves the driven-field projection, its tensor
    square, and a cubic form that can only be nonzero when permutation
    symmetry was broken beforehand.
    """
    if model == "foerster":
        omega, c_f = params["omega"], params["c_f"]
        h = omega / 2 * collective_operator(_e(0, 0, 1), 2) + \
            c_f / 2 * (collective_operator(_e(2, 0, 0), 2) + collective_operator(_e(0, 2, 0), 2))
        exprs = (
            InvariantExpression("E_001_0", ((1.0, _e(0, 0, 1)),)),
            InvariantExpression("E_002_0", ((1.0, _e(0, 0, 2)),)),
            InvariantExpression("E_200_0+E_020_0", ((1.0, _e(2, 0, 0)), (1.0, _e(0, 2, 0)))),
        )
    elif model == "renormalization":
        w1, w2, c_r = params["omega_1"], params["omega_2"], params["c_r"]
        h = (w1 + w2) / 4 * collective_operator(_e(0, 0, 1), 2) + \
            (w1 - w2) / 4 * collective_operator(_e(0, 0, 1, b=1), 2) + \
            c_r / 2 * collective_operator(_e(0, 0, 2), 2)
        exprs = (
            InvariantExpression("E_001_0", ((1.0, _e(0, 0, 1)),)),
            InvariantExpression("E_002_0", ((1.0, _e(0, 0, 2)),)),
            InvariantExpression("E_001_1", ((1.0, _e(0, 0, 1, b=1)),)),
        )
    elif model == "stimulation":
        g, delta = params["g"], params["delta"]
        h = g / 2 * collective_operator(_e(1, 0, 0), 2) + \
            delta / 2 * collective_operator(_e(0, 0, 1), 2)
        g2d2 = g * g + delta * delta
        exprs = (
            InvariantExpression("linear", ((delta, _e(0, 0, 1)), (g, _e(1, 0, 0)))),
            InvariantExpression("quadratic", (
                (delta ** 2, _e(0, 0, 2)),
                (2 * g * delta, _e(1, 0, 1)),
                (g ** 2, _e(2, 0, 0)),
            )),
            InvariantExpression("cubic", (
                (4 * delta ** 2 * g2d2, _e(0, 0, 1, b=1)),
                (-g ** 4, _e(0, 0, 2)),
                (-g ** 2 * g2d2, _e(0, 2, 0)),
                (4 * g * delta * g2d2, _e(1, 0, 0, b=1)),
                (2 * g ** 3 * delta, _e(1, 0, 1)),
                (-g ** 2 * delta ** 2, _e(2, 0, 0)),
            )),
        )
    else:
        raise InputError(f"unknown model {model!r}; expected foerster|renormalization|stimulation")
    return InvariantSet(model=model, hamiltonian=h, n_nodes=2, expressions=exprs)


@dataclass
class DriftReport:
    model: str
    values_at_zero: dict
    max_drift: dict

    @property
    def worst(self) -> float:
        return max(self.max_drift.values())

    def failed(self) -> list[str]:
        return [
            name for name, drift in self.max_drift.items()
            if drift > 1e-8 * (1.0 + abs(self.values_at_zero[name]))
        ]


def verify_invariants(inv: InvariantSet, rho0, total_time: float) -> DriftReport:
    """Propagate rho exactly (spectral 4x4 exponential) and track drift.

    Drift of each expression is max_t |value(t) - value(0)| over 80
    equal steps up to ``total_time``; the propagation is exact up to
    diagonalization roundoff so drift measures formula correctness, not
    integrator error.
    """
    rho = validate_state(rho0)
    vals, vecs = np.linalg.eigh(inv.hamiltonian)
    coeffs0 = decompose_collective(rho, inv.n_nodes)
    at_zero = {e.name: e.evaluate(coeffs0) for e in inv.expressions}
    drift = {e.name: 0.0 for e in inv.expressions}
    for t in np.linspace(0.0, total_time, 81)[1:]:
        u = vecs @ np.diag(np.exp(-1j * vals * t)) @ vecs.conj().T
        coeffs = decompose_collective(u @ rho @ u.conj().T, inv.n_nodes)
        for e in inv.expressions:
            drift[e.name] = max(drift[e.name], abs(e.evaluate(coeffs) - at_zero[e.name]))
    return DriftReport(model=inv.model, values_at_zero=at_zero, max_drift=drift)


def foerster_eigensystem(omega: float, c_f: float) -> list[tuple[float, np.ndarray]]:
    """Closed-form eigensystem of the excitation-exchange model.

    Returns [(energy, vector)] for |00>, (|01> -+ |10>)/sqrt(2), |11>;
    matches the numerical diagonalization of the model Hamiltonian.
    """
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    v11 = np.array([0, 0, 0, 1], dtype=complex)
    vp = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    vm = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return [(-omega, v00), (c_f, vp), (-c_f, vm), (omega, v11)]
