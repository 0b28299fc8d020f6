"""Symmetry classes of a four-node network and the superselection rule.

Permutation-symmetric operators cannot connect different total-spin
classes; a selective two-node preparation moves the network into a
chosen class, where symmetric evolution then keeps it.
"""

from weylnet import symmetry


def rounded(weights):
    # + 0.0 prints a weight that rounds to -0.0 as 0.0
    return {f"{j:g}": round(w, 6) + 0.0 for j, w in weights.items()}


print("== class structure by network size ==")
print(f"{'N':>3} {'classes (j: multiplicity)':<40} {'parameters':>10}")
for n_nodes in range(1, 7):
    classes = symmetry.spin_basis(n_nodes)
    desc = ", ".join(f"{c.j:g}: {c.multiplicity}" for c in classes)
    _, params, _ = symmetry.parameter_count_identity(n_nodes)
    print(f"{n_nodes:>3} {desc:<40} {params:>10}")

print("\n== the tabulated four-node basis ==")
for cv in symmetry.young_basis_n4():
    terms = " + ".join(f"({a:+.3f})|{k}>" for k, a in cv.amplitudes[:3])
    more = " + ..." if len(cv.amplitudes) > 3 else ""
    print(f"  config {cv.config}, j={cv.j}, tableau {cv.tableau}: {terms}{more}")

print("\n== superselection structure ==")
rep = symmetry.superselection_check(4)
print(f"  cross-class matrix elements: {rep.max_cross_j_element:.2e}")
print(f"  cross-copy elements:         {rep.max_cross_copy_element:.2e}")
print(f"  copy-to-copy block mismatch: {rep.max_copy_mismatch:.2e}")
print(f"  independent parameters: rank {rep.independent_rank} of {rep.parameter_count}")

print("\n== selective preparation, then symmetric evolution ==")
scen = symmetry.symmetry_breaking_scenario()
print(f"  ground state weights: {rounded(scen.initial_weights)}")
print(f"  after antisymmetrizing nodes 1-2: {rounded(scen.prepared_weights)}")
print(f"  leakage out of j=1 under random symmetric evolution (t <= 50): "
      f"{scen.max_leakage:.2e}")
print(f"  doubly paired state weights: {rounded(scen.pair_singlet_weights)}")
print(f"  j=0 member is an eigenvector of every symmetric operator "
      f"(residual {scen.pair_singlet_scalar_residual:.2e})")
