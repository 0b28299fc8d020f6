"""Piecewise-constant evolution, cyclic-permutation echoes and control pulses.

A schedule is a list of segments, each either a hermitian Hamiltonian
acting for a finite duration or an instantaneous gate (duration 0).
The echo protocol interleaves free evolution with the cyclic
permutation of the Hamiltonian's eigenstates: after n rounds every
eigenstate has spent equal time at every energy, so a traceless
spectrum accumulates zero net phase and any initial state returns.
Both echoes measure their period as a monomial map in the eigenbasis.

hbar = 1; a Hamiltonian segment applies exp(-i H dt).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .basis import WeylIndex, _check_count, _check_real, apply_per_node, as_operator, weyl_matrix
from .errors import CapExceeded, DimensionMismatch, InputError


def hermitian_expm(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) through the spectral decomposition (h hermitian); for a
    1-D array of times, the stack of exponentials from one ``eigh``."""
    vals, vecs = np.linalg.eigh(h)
    # |h| t in Python floats, which overflow to inf without numpy's warning; the
    # eigenvalues come sorted, so the extremes bound them
    reach = abs(t) if type(t) is float else float(np.max(np.abs(t)))
    if not math.isfinite(max(-vals.item(0), vals.item(-1)) * reach):
        raise InputError("exp(-i H t) is not finite: |H| t overflows")
    phases = np.exp(-1j * vals * np.asarray(t)[..., None])
    return (vecs * phases[..., None, :]) @ vecs.conj().T


def phase_distance(u: np.ndarray, v: np.ndarray | None = None) -> float:
    """min over global phases of ||u - e^(i phi) v||_2 (v defaults to 1).

    The optimum phase is the argument of tr{v^dag u}; with a vanishing
    trace the plain distance at phi = 0 is an upper bound and returned.
    """
    if v is None:
        v = np.eye(u.shape[0], dtype=complex)
    overlap = np.trace(v.conj().T @ u)
    if abs(overlap) < 1e-300:
        return float(np.linalg.norm(u - v, 2))
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(u - phase * v, 2))


def _spectral_phase_distance(eigenvalues, multiplicities=None) -> float:
    """phase_distance(U) of a normal U from its eigenvalues: the phase of the
    trace (the eigenvalue sum, with ``multiplicities`` if given), then the
    largest eigenvalue deviation from it, which is the 2-norm."""
    overlap = np.sum(eigenvalues) if multiplicities is None else np.dot(multiplicities, eigenvalues)
    phase = overlap / abs(overlap) if abs(overlap) >= 1e-300 else 1.0
    return float(np.max(np.abs(eigenvalues - phase)))


def _monomial_power_distance(perm, log_factors, steps: int) -> float:
    """phase_distance(M^steps) of the monomial map M|k> = exp(log_factors[k]) |perm[k]>.

    An echo period in the eigenbasis is such a map.  On a cycle of length
    L whose log-factors sum to s, M^steps has the L eigenvalues
    exp((steps s + 2 pi i (steps r mod L)) / L), r < L; pointer doubling
    finds the cycles in O(n log n) for any ``steps``.  A map that is no
    permutation gets 2, the most any unitary can have.
    """
    n = len(perm)
    if np.any(np.bincount(perm, minlength=n) != 1):
        return 2.0
    head, jump, reach = np.arange(n), perm, 1
    while reach < n:  # head[k]: the smallest state within ``reach`` steps of k
        head, jump, reach = np.minimum(head, head[jump]), jump[jump], 2 * reach
    length = np.bincount(head, minlength=n)
    total = np.bincount(head, log_factors.real, n) + 1j * np.bincount(head, log_factors.imag, n)
    cycle = np.sort(head)  # each cycle's states together, ranked r = 0 .. L - 1
    size, rank = length[cycle], np.arange(n) - (np.cumsum(length) - length)[cycle]
    return _spectral_phase_distance(
        np.exp((steps * total[cycle] + 2j * np.pi * (steps % size * rank % size)) / size))


@dataclass(frozen=True)
class Segment:
    """One schedule entry: a Hamiltonian for dt > 0 or a gate at dt = 0."""

    kind: str  # "hamiltonian" | "gate"
    operator: np.ndarray
    duration: float = 0.0

    def __post_init__(self):
        # the tolerance checks are written so that NaN fails them, and a
        # non-finite entry makes the residual NaN or infinite (numpy's
        # invalid-value warning on the way is silenced)
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise InputError("segment operator must be square")
        _check_real(self.duration, "segment duration")
        if self.kind == "hamiltonian":
            if self.duration < 0:
                raise InputError("negative duration")
            with np.errstate(invalid="ignore"):
                hermitian = np.max(np.abs(op - op.conj().T)) <= 1e-10
            if not hermitian:
                raise InputError("Hamiltonian segment must be hermitian")
        elif self.kind == "gate":
            if self.duration != 0.0:
                raise InputError("instantaneous gates carry zero duration")
            with np.errstate(invalid="ignore"):
                unitary = np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))) <= 1e-10
            if not unitary:
                raise InputError("gate segment must be unitary")
        else:
            raise InputError(f"unknown segment kind {self.kind!r}")
        object.__setattr__(self, "operator", op)

    def unitary(self) -> np.ndarray:
        if self.kind == "gate":
            return self.operator
        return hermitian_expm(self.operator, self.duration)


@dataclass
class PulseSchedule:
    segments: list = field(default_factory=list)

    def __post_init__(self):
        dims = {s.operator.shape[0] for s in self.segments}
        if len(dims) > 1:
            raise DimensionMismatch(f"segments of mixed dimension {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.segments[0].operator.shape[0] if self.segments else 0

    @property
    def total_time(self) -> float:
        return sum(s.duration for s in self.segments)

    def unitary(self) -> np.ndarray:
        if not self.segments:
            raise InputError("empty schedule has no fixed dimension")
        u = np.eye(self.dim, dtype=complex)
        for step in _segment_unitaries(self.segments):
            u = step @ u
        return u


def _segment_unitaries(segments):
    """Each segment's unitary in order, exponentiating each distinct
    (operator object, duration) once.

    A unitary is kept only until the last segment that uses it, so a
    schedule of all-distinct Hamiltonians holds one at a time.  The
    exponential of equal inputs is bit-equal, so sharing changes no
    result; an echo's 2 n cycles segments are one pair of segment objects repeated.
    """
    keys = [(id(s.operator), float(s.duration).hex()) if s.kind == "hamiltonian" else None
            for s in segments]  # hex keeps -0.0 apart
    last_use = {key: i for i, key in enumerate(keys)}
    cache = {}
    for i, (seg, key) in enumerate(zip(segments, keys)):
        if key is None:
            yield seg.operator
            continue
        u = cache.pop(key, None)
        if u is None:
            u = seg.unitary()
        if last_use[key] > i:
            cache[key] = u
        yield u


def evolve(schedule: PulseSchedule, psi0) -> list[np.ndarray]:
    """States after each segment (norm preserved to machine precision)."""
    psi = np.asarray(psi0, dtype=complex).ravel()
    if schedule.segments and schedule.dim != psi.shape[0]:
        raise DimensionMismatch("segment dimension does not match the state")
    out = []
    for step in _segment_unitaries(schedule.segments):
        psi = step @ psi
        out.append(psi)
    return out


# ---------------------------------------------------------------------------
# cyclic-permutation echo
# ---------------------------------------------------------------------------

@dataclass
class EchoReport:
    n: int
    dt: float
    cycles: int
    residual: float
    stroboscopic_residual: float
    pulse_count: int  # n(n-1) selective two-level pulses per period


def echo_schedule(h, dt: float, cycles: int = 1) -> tuple[PulseSchedule, EchoReport]:
    """Evolution-suppressing schedule (C U_H(dt/n))^n, repeated ``cycles`` times.

    C is the shift, conjugated into the eigenbasis unless H is diagonal.
    Requires a traceless Hamiltonian; a violating input is rejected with
    the trace shift that would fix it.  The schedule repeats one
    Hamiltonian and one gate segment.  Its residuals bound the phase
    distance of its unitary: both segments, read in the eigenbasis (one
    ``eigh``, none for diagonal H), are a monomial map plus a defect per
    step.  The per-period pulse cost is n(n-1) state-selective two-level
    pulses (n applications of the (n-1)-pulse cyclic permutation).
    """
    _check_real(dt, "echo dt")
    h = as_operator(h)
    n = h.shape[0]
    _check_count(cycles, "echo needs a whole number of cycles", 2 ** 20 // n)  # 2 n cycles segments
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise InputError("echo Hamiltonian must be hermitian")
    gate = weyl_matrix(WeylIndex(n - 1, 0, n))
    h_frame, gate_frame = h, gate
    if np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14:
        energies = np.diag(h).real
    else:
        energies, vecs = np.linalg.eigh(h)
        gate = vecs @ gate @ vecs.conj().T
        h_frame, gate_frame = (vecs.conj().T @ op @ vecs for op in (h, gate))
    tr = complex(np.trace(h))
    if abs(tr) > 1e-10 * max(1.0, float(np.max(np.abs(energies)))):
        raise InputError(
            f"echo requires a traceless Hamiltonian; shift by {-tr / n:.6g} * identity first")
    if not math.isfinite(float(np.max(np.abs(energies))) * abs(float(dt)) * n * cycles):  # Python floats: no warning
        raise InputError(f"echo phases are not finite: |H| dt over {n * cycles} steps overflows")
    pair = [Segment("hamiltonian", h, dt / n), Segment("gate", gate, 0.0)]
    perm, columns = np.argmax(np.abs(gate_frame), axis=0), np.arange(n)
    log_factors = np.log(gate_frame[perm, columns]) - 1j * energies * (dt / n)
    off_gate = gate_frame.copy()
    off_gate[perm, columns] = 0.0
    # a step's 2-norm error; a diagonal H leaves exact zeros, whose SVD is skipped
    defect = sum(float(np.linalg.norm(a, 2)) for a in (off_gate, dt / n * (h_frame - np.diag(energies)))
                 if a.any())
    report = EchoReport(
        n=n,
        dt=dt,
        cycles=cycles,
        residual=_monomial_power_distance(perm, log_factors, n) + n * defect,
        stroboscopic_residual=_monomial_power_distance(perm, log_factors, n * cycles) + n * cycles * defect,
        pulse_count=n * (n - 1) * cycles,
    )
    return PulseSchedule(pair * (cycles * n)), report


def cyclic_to_pi_pulses(n: int) -> list[np.ndarray]:
    """n-1 adjacent-level swaps whose product is the cyclic shift.

    Returned in application order: multiplying right-to-left
    (last @ ... @ first) reproduces the shift |k> -> |k-1 mod n>
    entry-exactly.
    """
    _check_count(n, "cyclic shifts need n", low=2)
    pulses = []
    for k in range(n - 1):
        swap = np.eye(n, dtype=complex)
        swap[k, k] = swap[k + 1, k + 1] = 0.0
        swap[k, k + 1] = swap[k + 1, k] = 1.0
        pulses.append(swap)
    return pulses


# ---------------------------------------------------------------------------
# Gray sequences
# ---------------------------------------------------------------------------

@dataclass
class GraySequence:
    """Circular ordering of all 2^N bitstrings at Hamming distance 1."""

    n_bits: int
    codes: np.ndarray  # uint64 codes in visit order

    def strings(self) -> list[str]:
        return [format(int(c), "b").zfill(self.n_bits) for c in self.codes]

    def hamming_check(self) -> bool:
        nxt = np.roll(self.codes, -1)
        diff = np.bitwise_xor(self.codes, nxt)
        # power of two <=> exactly one bit differs
        return bool(np.all(diff != 0) and np.all(np.bitwise_and(diff, diff - 1) == 0))

    def covers_all(self) -> bool:
        return len(np.unique(self.codes)) == 1 << self.n_bits


def gray_sequence(n_bits: int) -> GraySequence:
    """The reflected Gray code: the k-th code is k ^ (k >> 1) (Knuth, TAOCP 4A, 7.2.1.1)."""
    _check_count(n_bits, "gray sequences need N", 20)
    k = np.arange(1 << n_bits, dtype=np.uint64)
    return GraySequence(n_bits=n_bits, codes=k ^ (k >> 1))


# ---------------------------------------------------------------------------
# collective control
# ---------------------------------------------------------------------------

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)


def check_collective_drive(m: int, n_nodes: int) -> None:
    """Refuse a drive order or network size before any 2^N array is allocated."""
    if m not in (1, 2):
        raise InputError("collective control supports m in {1, 2}")
    if n_nodes < m:
        raise InputError(f"the m={m} drive needs N >= {m} nodes, got {n_nodes}")
    if n_nodes > 12:
        raise CapExceeded("collective control supported for N <= 12")


def collective_control_states(m: int, times, n_nodes: int, psi0) -> np.ndarray:
    """exp(-i t E_{m00,0}) psi0 for every t in ``times``, stacked along a new first axis.

    The all-x drive is diagonal in the x basis: with H the 2 x 2
    Hadamard, E_{m00,0} = H^(xN) diag(lambda) H^(xN) / 2^N where lambda
    depends only on the Hamming weight w of the x-basis index,
    N - 2w for m = 1 and ((N - 2w)^2 - N) / 2 for m = 2.  One
    Walsh-Hadamard transform of psi0, one phase multiply and one inverse
    transform that carries every time as a trailing axis: O(N 2^N) per
    column and time, with no dense operator and no diagonalization.
    ``psi0`` is a state of length 2^N or a stack of them as columns;
    the result is a view of that transform.
    """
    check_collective_drive(m, n_nodes)
    dim = 2 ** n_nodes
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape[0] != dim:
        raise DimensionMismatch(f"state of length {psi.shape[0]} on {n_nodes} nodes")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise InputError("pulse times must be finite")
    index = np.arange(dim)
    lam = _drive_eigenvalues(m, n_nodes, sum((index >> node) & 1 for node in range(n_nodes)))
    x = apply_per_node(HADAMARD, psi, n_nodes)
    phases = np.exp(-1j * np.multiply.outer(times, lam))
    phases = phases.reshape(phases.shape + (1,) * (psi.ndim - 1))
    # products formed time-major, as a transform per time formed them, so the bits match
    waves = np.moveaxis(phases * x, 0, -1)
    return np.moveaxis(apply_per_node(HADAMARD, waves, n_nodes) / dim, -1, 0)


def _drive_eigenvalues(m: int, n_nodes: int, weight):
    """Eigenvalue of E_{m00,0} on the x-basis states of Hamming weight ``weight``."""
    spin = n_nodes - 2 * weight
    return spin if m == 1 else (spin ** 2 - n_nodes) // 2


def collective_control_phase_distance(m: int, alpha_t: float, n_nodes: int) -> float:
    """phase_distance(collective_control(m, alpha_t, n_nodes)) from the drive's spectrum.

    The pulse has eigenvalue exp(-i alpha_t lambda_w) on the C(N, w)
    x-basis states of Hamming weight w, so the distance follows from
    these N + 1 eigenvalues and their multiplicities: O(N), with no 2^N
    array.
    """
    check_collective_drive(m, n_nodes)
    _check_real(alpha_t, "pulse area")
    weight = np.arange(n_nodes + 1)
    eigenvalues = np.exp(-1j * alpha_t * _drive_eigenvalues(m, n_nodes, weight))
    return _spectral_phase_distance(eigenvalues, [math.comb(n_nodes, w) for w in weight])


def collective_control(m: int, alpha_t: float, n_nodes: int) -> np.ndarray:
    """U = exp(-i alpha_t E_{m00,0}) for the all-x collective coupling.

    m = 1 is a collective single-node drive; m = 2 the pairwise drive
    whose quarter-period pulse turns the ground state into the
    equal-weight two-branch superposition in a single step.  Built as
    the image of the identity under :func:`collective_control_states`.
    """
    check_collective_drive(m, n_nodes)
    return collective_control_states(m, [alpha_t], n_nodes, np.eye(2 ** n_nodes))[0]


def cat_creation_target(n_nodes: int) -> np.ndarray:
    """(|0...0> + i^s |1...1>)/sqrt(2) with s = +1 for even N/2, else -1."""
    if n_nodes % 2:
        raise InputError("single-step creation needs even N")
    sign = 1j if (n_nodes // 2) % 2 == 0 else -1j
    v = np.zeros(2 ** n_nodes, dtype=complex)
    v[0] = 1 / math.sqrt(2)
    v[-1] = sign / math.sqrt(2)
    return v


def cat_creation_fidelity(n_nodes: int) -> float:
    """|<target| U_{pi/4} |0...0>| for the pairwise collective drive."""
    check_collective_drive(2, n_nodes)
    ground = np.zeros(2 ** n_nodes, dtype=complex)
    ground[0] = 1.0
    psi = collective_control_states(2, [math.pi / 4], n_nodes, ground)[0]
    target = cat_creation_target(n_nodes)
    # 1/sqrt(2) rounds low, so the stored target's norm is 1 - 1e-16; divide
    # it out so the fidelity carries only the propagation's rounding
    return float(abs(np.vdot(target, psi)) / np.linalg.norm(target))


# ---------------------------------------------------------------------------
# selective network echo
# ---------------------------------------------------------------------------

@dataclass
class NetworkEchoReport:
    n_nodes: int
    cycle_length: int
    residual: float
    eigenstates_product = True  # the model places only Z and I; perfbench records it


def network_zz_energies(n_nodes: int, couplings, frequencies=None) -> np.ndarray:
    """Diagonal of the network model: pair couplings on sigma_z (x) sigma_z plus
    optional local sigma_z/2 terms, one energy per product state.

    ``couplings`` maps node pairs (mu, nu) with mu < nu to finite real
    strengths; missing pairs couple with 0.  Each term adds its strength
    times the product of its nodes' values of Z = diag(-1, 1) at each
    state's bits (node 0 the leading bit): O(terms 2^N), with no matrix.
    """
    _check_count(n_nodes, "network models need N", 20)
    terms = list(dict(couplings).items())  # ((mu, nu), c), then ((mu,), w/2)
    for nodes, c in terms:
        if not (isinstance(nodes, tuple) and len(nodes) == 2 and all(isinstance(i, numbers.Integral) for i in nodes)
                and 0 <= nodes[0] < nodes[1] < n_nodes):
            raise InputError(f"coupling keys must be node pairs (mu, nu) with 0 <= mu < nu < {n_nodes}, "
                             f"got {nodes!r}")
        _check_real(c, f"coupling {nodes}")
    if frequencies is not None:
        if len(frequencies) > n_nodes:
            raise InputError(f"{len(frequencies)} frequencies for {n_nodes} nodes")
        for mu, w in enumerate(frequencies):
            _check_real(w, f"frequency of node {mu}")
            terms.append(((mu,), w / 2))
    index, energies = np.arange(2 ** n_nodes), np.zeros(2 ** n_nodes)
    z = [(2 * ((index >> (n_nodes - 1 - mu)) & 1) - 1).astype(np.int8) for mu in range(n_nodes)]
    for nodes, c in terms:
        energies += c * math.prod(z[mu] for mu in nodes)
    return energies


def selective_network_echo(n_nodes: int, couplings, dt: float, frequencies=None) -> NetworkEchoReport:
    """Gray-cycle echo for a diagonal interacting network.

    The interaction shifts the spectrum while the eigenstates stay the
    computational product states; cycling them along the Hamming-1
    sequence with free evolution of dt/2^N per step nulls the total
    phase because the full spectrum is traceless.  The residual is that
    of the monomial map that moves each code to the next one in the
    sequence with its phase (:func:`_monomial_power_distance`).
    """
    _check_real(dt, "echo dt")
    energies = network_zz_energies(n_nodes, couplings, frequencies)
    seq = gray_sequence(n_nodes)
    dim = len(energies)
    perm = np.arange(dim)
    perm[seq.codes] = np.roll(seq.codes, -1)
    return NetworkEchoReport(
        n_nodes=n_nodes,
        cycle_length=dim,
        residual=_monomial_power_distance(perm, -1j * energies * (dt / dim), dim),
    )
