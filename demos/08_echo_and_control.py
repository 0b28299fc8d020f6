"""Cyclic-permutation echoes, Gray-cycle network echoes, collective control.

Interleaving free evolution with the eigenstate cycle nulls the phase
of any traceless Hamiltonian; a network version cycles product states
along the Hamming-distance-1 visiting order; and the pairwise
collective drive turns the ground state into a two-branch
superposition in a single quarter-period pulse.
"""

import math

import numpy as np

from weylnet.protocols import (
    cat_creation_fidelity,
    collective_control,
    cyclic_to_pi_pulses,
    echo_schedule,
    gray_sequence,
    selective_network_echo,
)

print("== single-system echo ==")
rng = np.random.default_rng(8)
for n in (2, 3, 5):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (a + a.conj().T) / 2
    h -= np.trace(h) / n * np.eye(n)
    _, report = echo_schedule(h, dt=1.7, cycles=3)
    print(f"  n={n}: residual {report.residual:.2e}, "
          f"{report.pulse_count} selective pulses over {report.cycles} periods")

print("\n== the cycle decomposes into adjacent-level swaps ==")
pulses = cyclic_to_pi_pulses(4)
print(f"  n=4 cycle = {len(pulses)} two-level swaps, applied in order:")
for k, p in enumerate(pulses):
    levels = sorted(set(np.flatnonzero(np.abs(p - np.eye(4)) > 0.5) % 4))
    print(f"    swap {k + 1}: levels {levels}")

print("\n== visiting order for network echoes ==")
seq = gray_sequence(4)
print(f"  N=4: {' '.join(seq.strings()[:8])} ...")
print(f"  circular single-bit steps: {seq.hamming_check()}, covers all: {seq.covers_all()}")

print("\n== interacting network echo ==")
report = selective_network_echo(
    3, {(0, 1): 0.3, (1, 2): 0.2, (0, 2): 0.15}, dt=1.1,
    frequencies=[1.0, 0.7, 0.3])
print(f"  cycle length {report.cycle_length}, eigenstates stay product states: "
      f"{report.eigenstates_product}")
print(f"  echo residual {report.residual:.2e}, "
      f"{report.cycle_length} selective transitions per period")

print("\n== collective control ==")
for n_nodes in (2, 4, 6):
    fid = cat_creation_fidelity(n_nodes)
    print(f"  N={n_nodes}: quarter-period pairwise drive on |0...0> "
          f"-> two-branch superposition, fidelity {fid:.12f}")
u = collective_control(2, math.pi / 4, 4)
psi = u[:, 0]
big = np.flatnonzero(np.abs(psi) > 1e-8)
print(f"  N=4 image amplitudes: " +
      ", ".join(f"|{k:04b}>: {psi[k]:.4f}" for k in big))
