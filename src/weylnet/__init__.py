"""Selective and collective operator bases for quantum networks.

The package builds the discrete shift/phase unitary basis on n-level
systems and everything layered on it: complex coherence vectors and
their rotations, selective cluster operators with cluster-sum
invariants, completely commuting operator sets and their common
eigenstates, the generalized cat basis, permutation-symmetric
collective operators with superselection bookkeeping, and
cyclic-permutation echo / collective-control pulse protocols.

Import the modules directly, e.g. ``from weylnet import cluster``; the
package root exports only ``__version__``.
"""

__version__ = "0.1.0"
