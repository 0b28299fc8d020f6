"""Selective and collective operator bases for quantum networks.

The package builds the discrete shift/phase unitary basis on n-level
systems and everything layered on it: complex coherence vectors and
their rotations, selective cluster operators with cluster-sum
invariants, completely commuting operator sets and their common
eigenstates, the generalized cat basis, permutation-symmetric
collective operators with superselection bookkeeping, and
cyclic-permutation echo / collective-control pulse protocols.
"""

from .basis import (
    SuNGenerator,
    WeylIndex,
    commuting_partner_count,
    convert_basis,
    inverse_weyl_transform,
    structure_constant,
    sun_basis,
    transition,
    two_generator_span,
    weyl_adjoint,
    weyl_commutator,
    weyl_det_eigs,
    weyl_matrix,
    weyl_product,
    weyl_transform,
)
from .cat import cat_labels, cat_profile, cat_state, cat_verify
from .cluster import (
    NetworkState,
    ProductLabel,
    cluster_operator,
    cluster_sums,
    correlation_tensors,
    partial_trace,
    product_state_test,
    purity_factors,
)
from .coherence import CoherenceVector, expand_state, generator_matrix, rotation_matrix
from .collective import (
    CollectiveLabel,
    collective_operator,
    count_parameters,
    decompose_collective,
    hamiltonian_invariants,
    verify_invariants,
)
from .commuting import (
    CommutingSet,
    bound_d,
    commute_check,
    common_eigenstate,
    construct_method_a,
    construct_method_b,
    search_max_commuting,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    InputError,
    VerificationFailure,
    WeylnetError,
)
from .protocols import (
    GraySequence,
    PulseSchedule,
    Segment,
    collective_control,
    collective_control_states,
    cyclic_to_pi_pulses,
    echo_schedule,
    evolve,
    gray_sequence,
    selective_network_echo,
)
from .symmetry import spin_basis, superselection_check, symmetry_breaking_scenario, young_basis_n4

__version__ = "0.1.0"
