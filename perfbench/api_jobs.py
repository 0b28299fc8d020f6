"""Python-API jobs.  Each reads its inputs from the work directory and
saves what it computed there for the parent's checks; it checks nothing
itself, so its time is the library's."""

from __future__ import annotations

import os

import numpy as np


def _load(workdir: str, name: str) -> dict:
    with np.load(os.path.join(workdir, name)) as data:
        return dict(data)


def cluster_api(workdir: str) -> int:
    """Correlation tensors, a full partition scan and a G-family solve."""
    from weylnet import cluster, collective

    inp = _load(workdir, "cluster_api_in.npz")
    state = cluster.NetworkState.from_rho(inp["rho"], [2] * int(inp["n_nodes"]))
    tensors = cluster.correlation_tensors(state, state.n_nodes)
    product = cluster.NetworkState.from_pure(inp["product_psi"], [2] * int(inp["product_nodes"]))
    witness = cluster.find_non_product_witness(product)
    coeffs, residual = collective.decompose_in_family(inp["family_op"], "G", int(inp["family_nodes"]))
    labels = sorted(tensors)
    np.savez(
        os.path.join(workdir, "cluster_api_out.npz"),
        entries=np.array([[x for ab in lab.entries for x in ab] for lab in labels]),
        values=np.array([tensors[lab] for lab in labels]),
        witness_found=witness is not None,
        family_count=len(coeffs),
        family_residual=residual,
    )
    return 0


def commuting_api(workdir: str) -> int:
    """Common eigenstate of the method-B set."""
    from weylnet import commuting

    inp = _load(workdir, "commuting_api_in.npz")
    cset = commuting.construct_method_b(int(inp["n"]), int(inp["n_nodes"]))
    eig = commuting.common_eigenstate(cset, seed=int(inp["seed"]))
    np.savez(
        os.path.join(workdir, "commuting_api_out.npz"),
        members=np.array([[x for ab in lab.entries for x in ab] for lab in cset.members]),
        vector=eig.vector,
        completion_size=eig.completion_size,
        target_size=eig.target_size,
    )
    return 0


def dynamics_api(workdir: str) -> int:
    """Coherence generator, rotation and RK4 evolution; network echo."""
    from scipy.linalg import expm

    from weylnet import coherence, protocols

    inp = _load(workdir, "dynamics_api_in.npz")
    h, rho0, t = inp["h"], inp["rho0"], float(inp["t"])
    omega = coherence.generator_matrix(h)
    u0 = coherence.expand_state(rho0).u
    rotation = coherence.rotation_matrix(expm(-1j * h * t))
    evolved = coherence.evolve_coherence(omega, u0, t)
    couplings = {(int(mu), int(nu)): float(c) for mu, nu, c in inp["couplings"]}
    echo = protocols.selective_network_echo(int(inp["echo_nodes"]), couplings, float(inp["echo_dt"]))
    np.savez(
        os.path.join(workdir, "dynamics_api_out.npz"),
        omega_u0=omega @ u0,
        rotated=rotation @ u0,
        evolved=evolved,
        echo_residual=echo.residual,
        echo_product=echo.eigenstates_product,
    )
    return 0
