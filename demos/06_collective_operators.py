"""Collective operators: decomposition, parameter counting, invariants.

Collective members treat all nodes on an equal footing; the b = 0 ones
are permutation symmetric and only (N+1)(N+2)(N+3)/6 of them exist, so
symmetric problems scale polynomially.  Conserved collective
expectation values of three two-node models are tracked along exact
trajectories.
"""

import numpy as np

from weylnet import collective
from weylnet.cat import cat_state
from weylnet.collective import CollectiveLabel, collective_operator, decompose_collective

print("== a permutation-symmetric member and a phased one ==")
print("E_{001,0} =\n", collective_operator(CollectiveLabel(0, 0, 1, 0), 2).real)
print("E_{001,1} =\n", collective_operator(CollectiveLabel(0, 0, 1, 1), 2).real)

print("\n== decomposition of the aligned three-node projector ==")
psi = cat_state(2, (0, 0, 0))
coeffs = decompose_collective(np.outer(psi, psi.conj()), 3)
for lab, value in sorted(coeffs.items()):
    if abs(value) > 1e-10:
        print(f"  E_({lab.alpha}{lab.beta}{lab.gamma}),b={lab.b}: {value:.4f}")

print("\n== symmetric states carry b = 0 terms only ==")
sym = np.zeros(4, dtype=complex)
sym[1] = sym[2] = 1 / np.sqrt(2)
coeffs = decompose_collective(np.outer(sym, sym.conj()), 2)
phased = max(abs(v) for lab, v in coeffs.items() if lab.b != 0)
print(f"  symmetric pair state: max |phased coefficient| = {phased:.2e}")
asym = np.zeros((4, 4), dtype=complex)
asym[1, 1] = 1.0
coeffs = decompose_collective(asym, 2)
print(f"  |01><01|: E_(001),b=1 = {coeffs[CollectiveLabel(0, 0, 1, 1)]:.4f}")

print("\n== parameter counts ==")
print(f"{'N':>3} {'full':>6} {'sym':>5} {'flip/z':>7} {'count':>6}")
for n_nodes in range(1, 7):
    print(f"{n_nodes:>3} {4 ** n_nodes:>6} "
          f"{collective.count_parameters('E0', n_nodes):>5} "
          f"{collective.count_parameters('F0', n_nodes):>7} "
          f"{collective.count_parameters('G0', n_nodes):>6}")

print("\n== conserved collective expectation values, three models ==")
rho0 = np.zeros((4, 4), dtype=complex)
rho0[1, 1] = 1.0  # asymmetric start, so phased coefficients are active
for model, params in collective.MODEL_PARAMS.items():
    inv = collective.hamiltonian_invariants(model, **params)
    report = collective.verify_invariants(inv, rho0, total_time=20.0)
    drifts = ", ".join(f"{name}: {d:.1e}" for name, d in report.max_drift.items())
    print(f"  {model:16s} max drifts: {drifts}")
