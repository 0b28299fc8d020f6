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

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .basis import (apply_per_node, as_operator, inverse_weyl_transform, monomial_factor, product_operator,
                    weyl_transform)
from .cluster import NetworkState
from .coherence import validate_state
from .errors import DimensionMismatch, InputError

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


def multiplicity(alpha: int, beta: int, gamma: int, n_nodes: int) -> int:
    """Omega: number of placements of the multiplicity class on N nodes."""
    return _group("E", (alpha, beta, gamma), n_nodes)[1]


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


# ---------------------------------------------------------------------------
# the group table shared by the E, F and G families
# ---------------------------------------------------------------------------
#
# A placement is one letter per node from a four-letter alphabet, and its
# count vector c = (#I, #l1, #l2, #l3) says how often each letter occurs.
# A family groups placements by a key of c; member b of group g is the
# phased sum over the group's placements in lexicographic order.


class _Family(NamedTuple):
    letters: str                 # single-node letters in lexicographic order
    group: Callable              # count vector c -> group, a tuple that sorts in label order
    label: Callable              # (group, b) -> member label
    group_count: Callable        # N -> number of groups, in closed form


_FAMILIES = {
    # (alpha, beta, gamma) = counts of X, Y, Z
    "E": _Family("IXYZ", lambda c: c[1:], lambda g, b: CollectiveLabel(*g, b),
                 lambda n: (n + 1) * (n + 2) * (n + 3) // 6),
    # gamma = count of Z, then net flip z = #P - #M; labels (z, gamma, b)
    "F": _Family("IMPZ", lambda c: (c[3], c[2] - c[1]), lambda g, b: (g[1], g[0], b),
                 lambda n: (n + 1) ** 2),
    # m = count of non-identity letters; labels (m, b)
    "G": _Family("IXYZ", lambda c: (c[1] + c[2] + c[3],), lambda g, b: (*g, b),
                 lambda n: n + 1),
}


@lru_cache(maxsize=None)
def _groups(family: str, n_nodes: int) -> dict:
    """group -> (count vectors, Omega) of the family on N nodes, in label order.

    The O(N^3) count vectors with sum N are collected by group; Omega is
    the number of placements of the group.
    """
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; expected one of {', '.join(_FAMILIES)}")
    if n_nodes < 1:
        raise InputError(f"a network has at least one node, got N={n_nodes}")
    table = {}
    for c in itertools.product(range(n_nodes + 1), repeat=3):
        if sum(c) <= n_nodes:
            vector = (n_nodes - sum(c), *c)
            table.setdefault(_FAMILIES[family].group(vector), []).append(vector)
    size = math.factorial(n_nodes)
    return {g: (tuple(vectors), sum(size // math.prod(map(math.factorial, c)) for c in vectors))
            for g, vectors in sorted(table.items())}


def _group(family: str, group: tuple, n_nodes: int) -> tuple:
    """(count vectors, Omega) of one group of the family."""
    groups = _groups(family, n_nodes)
    if group not in groups:
        raise InputError(f"no {family} group {group} on N={n_nodes} nodes: "
                         "letter counts must be non-negative with sum <= N")
    return groups[group]


def _members(family: str, n_nodes: int, b_zero_only: bool = False):
    """(label, group, b) of every family member in label order: groups, then b ascending."""
    groups = _groups(family, n_nodes)
    label = _FAMILIES[family].label
    for g, (_, omega) in groups.items():
        for b in range(1 if b_zero_only else omega):
            yield label(g, b), g, b


@lru_cache(maxsize=None)
def _group_placements(family: str, group: tuple, n_nodes: int) -> tuple[str, ...]:
    """Placements of one group in lexicographic order: the sorted union of the
    arrangements of its count vectors."""
    vectors, _ = _group(family, group, n_nodes)
    letters = _FAMILIES[family].letters
    return tuple(sorted(s for c in vectors for s in _arrangements(letters, c)))


def placements(alpha: int, beta: int, gamma: int, n_nodes: int) -> tuple[str, ...]:
    """Lexicographically ordered placement strings over {I, X, Y, Z}."""
    return _group_placements("E", (alpha, beta, gamma), n_nodes)


def f_placements(z: int, gamma: int, n_nodes: int) -> tuple[str, ...]:
    """All sigma_+/sigma_-/sigma_z placements with net flip z and gamma z's.

    Every (alpha, beta) pair with alpha - beta = z contributes its
    placements; the joint list is ordered lexicographically and indexed
    by one permutation label, which keeps the phase transform an
    invertible DFT and the family complete.
    """
    return _group_placements("F", (gamma, z), n_nodes)


def g_placements(m: int, n_nodes: int) -> tuple[str, ...]:
    """All placements of m non-identity factors of any type; 3^m C(N,m)."""
    return _group_placements("G", (m,), n_nodes)


def placement_operator(strings, weights) -> np.ndarray:
    """Dense sum_p weights[p] C_p over equal-length placement strings.

    Each letter is a monomial single-node matrix, so the sum is one call
    of the product kernel :func:`weylnet.basis.product_operator`.
    """
    lengths = sorted({len(s) for s in strings})
    if len(lengths) != 1 or lengths[0] < 1:
        raise InputError(f"placement strings must have one nonzero length, got lengths {lengths}")
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
    return (label for label, _, _ in _members("E", n_nodes, b_zero_only))


def family_operators(family: str, n_nodes: int):
    """(label, matrix) pairs of a complete family: "E", "F" or "G"."""
    for label, g, b in _members(family, n_nodes):
        yield label, _phased_member(_group_placements(family, g, n_nodes), b)


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
    if isinstance(state, NetworkState) and any(d != 2 for d in state.dims):
        raise InputError("collective operators are defined for two-level nodes")
    rho = state.rho if isinstance(state, NetworkState) else validate_state(state)
    dim = rho.shape[0]
    nn = dim.bit_length() - 1 if n_nodes is None else n_nodes
    if 2 ** nn != dim:
        raise DimensionMismatch(f"operator dimension {dim} is not a power of two" if n_nodes is None
                                else f"operator dimension {dim} is not 2^{nn} = {2 ** nn}")
    return rho, nn


# ---------------------------------------------------------------------------
# the placement-group transform
# ---------------------------------------------------------------------------
#
# Ranked lexicographically, the 4^N placements of N nodes are the base-4
# numbers with node 1 most significant.  A stable sort of the 4^N
# placements by group index turns each group into a contiguous run in
# rank order, and the members' coefficients are one DFT over that run.


@lru_cache(maxsize=None)
def _letter_coefficients(letters: str) -> np.ndarray:
    """T[j, l] = tr{U_j^dag L_l}: shift/phase coefficients (j = 2a + b) of each letter."""
    mats = np.stack([_CHAR_MATS[ch] for ch in letters])
    return weyl_transform(mats, (2,)).reshape(len(letters), 4).T


@lru_cache(maxsize=None)
def _placement_groups(family: str, n_nodes: int) -> tuple[np.ndarray, tuple]:
    """Stable sort of the 4^N placements into the family's groups.

    Returns (order, starts): ``order[r]`` is the base-4 placement index at
    rank r, and group i of :func:`_groups` holds ranks starts[i] to
    starts[i + 1], member b at rank starts[i] + b.
    """
    groups = _groups(family, n_nodes)
    size = 4 ** n_nodes
    index = np.arange(size)
    counts = np.zeros((4, size), dtype=np.int64)
    for node in range(n_nodes):
        counts[(index >> (2 * node)) & 3, index] += 1
    group_index = np.zeros((n_nodes + 1,) * 3, dtype=np.int64)
    for i, (vectors, _) in enumerate(groups.values()):
        group_index[tuple(np.array(vectors)[:, 1:].T)] = i
    order = np.argsort(group_index[counts[1], counts[2], counts[3]], kind="stable")
    return order, tuple(itertools.accumulate((omega for _, omega in groups.values()), initial=0))


def _family_transform(op, family: str, n_nodes: int) -> np.ndarray:
    """Coefficients x in label order with op = sum x_{g,b} (member g,b of the family).

    Placements are trace-orthogonal, so placement S carries
    q_S = tr{S^dag op} / tr{S S^dag}, read off the Weyl transform letter by
    letter; within a group q_p = sum_b x_b w^(pb), so x is the group's FFT
    of q divided by Omega.
    """
    order, starts = _placement_groups(family, n_nodes)
    t = _letter_coefficients(_FAMILIES[family].letters)
    norms = np.sum(np.abs(t) ** 2, axis=0) / 2  # tr{L L^dag}
    u = weyl_transform(op, (2,) * n_nodes).ravel()
    # per node, A = (1/2) sum_j u_j U_j gives tr{L^dag A} = (1/2) sum_j conj(T[j, l]) u_j
    q = apply_per_node(t.conj().T / (2 * norms[:, None]), u, n_nodes)[order]
    for start, stop in zip(starts, starts[1:]):
        q[start:stop] = np.fft.fft(q[start:stop]) / (stop - start)
    return q


def _family_operator(x: np.ndarray, family: str, n_nodes: int) -> np.ndarray:
    """sum x_{g,b} (member g,b) for coefficients x in label order; inverse of the above."""
    order, starts = _placement_groups(family, n_nodes)
    q = np.empty(4 ** n_nodes, dtype=complex)
    for start, stop in zip(starts, starts[1:]):
        q[order[start:stop]] = (stop - start) * np.fft.ifft(x[start:stop])
    u = apply_per_node(_letter_coefficients(_FAMILIES[family].letters), q, n_nodes)
    return inverse_weyl_transform(u.reshape((2,) * (2 * n_nodes)), (2,) * n_nodes)


def decompose_collective(state, n_nodes: int | None = None) -> dict:
    """Expectation map E_{abg,b} = (1/Omega) tr{rho E^dag}.

    The density operator reconstructs as (1/2^N) sum E_{abg,b} E_hat;
    permutation-symmetric states have all b != 0 coefficients zero.
    Keys come in :class:`CollectiveLabel` order: groups by (alpha, beta,
    gamma), b ascending within each group.
    """
    rho, nn = _as_rho(state, n_nodes)
    x = _family_transform(rho, "E", nn)
    return dict(zip(collective_labels(nn), (x * 2 ** nn).tolist()))


def reconstruct_collective(coeffs: dict, n_nodes: int) -> np.ndarray:
    """Inverse of :func:`decompose_collective`; absent labels count as zero."""
    groups = _groups("E", n_nodes)
    start = dict(zip(groups, _placement_groups("E", n_nodes)[1]))
    x = np.zeros(4 ** n_nodes, dtype=complex)
    for label, value in coeffs.items():
        g = (label.alpha, label.beta, label.gamma) if isinstance(label, CollectiveLabel) else None
        if g not in groups or label.b >= groups[g][1]:
            raise InputError(f"{label} is not a collective label on {n_nodes} nodes")
        x[start[g] + label.b] = value
    return _family_operator(x / 2 ** n_nodes, "E", n_nodes)


def decompose_in_family(op, family: str, n_nodes: int) -> tuple[dict, float]:
    """Coefficients of ``op`` over a family; returns (map, residual).

    The F and G families are complete but not trace-orthogonal: sigma_+-
    placements have norm 4 per node where I, X, Y, Z have 2.  Their
    placements are trace-orthogonal, though, so each group is solved on
    its own as an inverse DFT of the normalized placement coefficients.
    The residual is the max-entry error of ``op`` rebuilt from the
    returned coefficients (completeness means ~0).
    """
    m = as_operator(op, 2 ** n_nodes)
    x = _family_transform(m, family, n_nodes)
    residual = float(np.max(np.abs(_family_operator(x, family, n_nodes) - m)))
    return dict(zip((label for label, _, _ in _members(family, n_nodes)), x.tolist())), residual


def _b_zero_family(name: str) -> str:
    """The family of a b = 0 operator count: "E0", "F0" or "G0"."""
    if name[-1:] != "0" or name[:-1] not in _FAMILIES:
        raise InputError(f"unknown family {name!r}; expected one of "
                         f"{', '.join(f + '0' for f in _FAMILIES)}")
    return name[:-1]


def count_parameters(family: str, n_nodes: int) -> int:
    """Closed-form count of b = 0 operators, one per group: "E0", "F0" or "G0"."""
    name = _b_zero_family(family)
    _groups(name, n_nodes)  # refuses N < 1
    return _FAMILIES[name].group_count(n_nodes)


def enumerate_parameters(family: str, n_nodes: int) -> int:
    """The same count by direct enumeration of the groups."""
    return len(_groups(_b_zero_family(family), n_nodes))


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


#: model -> its parameters, with the values the demos and the invariants command use
MODEL_PARAMS = {
    "foerster": {"omega": 1.0, "c_f": 0.5},
    "renormalization": {"omega_1": 1.1, "omega_2": 0.4, "c_r": 0.3},
    "stimulation": {"g": 1.0, "delta": 0.5},
}


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
    if model not in MODEL_PARAMS:
        raise InputError(f"unknown model {model!r}; expected {'|'.join(MODEL_PARAMS)}")
    if set(params) != set(MODEL_PARAMS[model]):
        raise InputError(f"{model} takes parameters {', '.join(MODEL_PARAMS[model])}, "
                         f"got {', '.join(params) or 'none'}")
    for name, value in params.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise InputError(f"{model} parameter {name} must be a finite real number, got {value!r}")
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
    else:
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
    if not math.isfinite(total_time):
        raise InputError(f"total_time must be finite, got {total_time}")
    from .protocols import hermitian_expm

    rho = validate_state(rho0)
    coeffs0 = decompose_collective(rho, inv.n_nodes)
    at_zero = {e.name: e.evaluate(coeffs0) for e in inv.expressions}
    drift = {e.name: 0.0 for e in inv.expressions}
    for u in hermitian_expm(inv.hamiltonian, np.linspace(0.0, total_time, 81)[1:]):
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
