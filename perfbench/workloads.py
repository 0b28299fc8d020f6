"""Workloads: seeded inputs, fixed job lists and the checks on each
job's output.

Every input is made from the benchmark seed into the run's work
directory; nothing here is committed except the expected tables under
``expected/``, which do not depend on the seed.  A check raises
``CheckFailed`` (or any other exception) when the output is wrong.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# Qubit Pauli factors in weylnet's convention (collective.SIGMA_*).
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "Z": np.array([[-1, 0], [0, 1]], dtype=complex),
}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    id: str
    kind: str                      # "cli" or "api"
    args: list[str]                # weylnet arguments, or [api function, work dir]
    limit_s: float                 # a job over its limit is killed and fails
    check: Callable[[int], None] = field(repr=False, default=None)  # gets the exit code
    outputs: list[str] = field(default_factory=list)  # deleted before each run


# The smallest job of each workload comes first; the smoke test runs it alone.
JOB_IDS = {
    "analyze": ["analyze-mixed", "analyze-q7", "analyze-qutrit6", "decompose-q5",
                "api-cluster"],
    "paper-tables": ["fig-purity", "table-csum", "symmetry-9", "cat-2-9", "cat-3-6",
                     "api-commuting"],
    "dynamics": ["invariants-foerster", "invariants-renormalization",
                 "invariants-stimulation", "echo-build", "echo-replay", "control-8",
                 "api-dynamics"],
}


# ---------------------------------------------------------------------------
# reference operators and seeded inputs
# ---------------------------------------------------------------------------

def weyl(a: int, b: int, n: int) -> np.ndarray:
    """U_ab with entry ((k + a) mod n, k) = exp(2 pi i b k / n)."""
    m = np.zeros((n, n), dtype=complex)
    k = np.arange(n)
    m[(k + a) % n, k] = np.exp(2j * np.pi * b * k / n)
    return m


def _kron(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def mixed_state(rng, dim: int, rank: int = 3) -> np.ndarray:
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    v /= np.linalg.norm(v, axis=0)
    rho = (v * rng.dirichlet(np.ones(rank))) @ v.conj().T
    return (rho + rho.conj().T) / 2


def hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2
    return h * (scale / np.linalg.norm(h, 2))


def operator_json(m: np.ndarray, dims=None) -> str:
    """weylnet's operator schema; floats as shortest round-trip repr."""
    rows = []
    for row in m:
        cells = zip(row.real.tolist(), row.imag.tolist())
        rows.append("[" + ", ".join('{"re": %r, "im": %r}' % c for c in cells) + "]")
    text = '{"dim": %d, "entries": [%s]' % (m.shape[0], ", ".join(rows))
    if dims is not None:
        text += ', "dims": %s' % json.dumps([int(d) for d in dims])
    return text + "}"


def write_state(path: str, rho: np.ndarray, dims) -> str:
    with open(path, "w") as fh:
        fh.write(operator_json(rho, dims))
    return path


def read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def reduced(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced state by one contraction over the complement."""
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    ds = math.prod(dims[i] for i in keep)
    dr = math.prod(dims[i] for i in rest)
    t = rho.reshape(tuple(dims) * 2).transpose(
        list(keep) + rest + [n + i for i in keep] + [n + i for i in rest])
    return np.einsum("arbr->ab", t.reshape(ds, dr, ds, dr))


def cluster_sums_reference(rho: np.ndarray, dims) -> dict:
    """Y(S) = sum over T in S of (-1)^|S-T| tr{rho_T^2} prod_{T} n."""
    n = len(dims)
    z = {}
    for mask in range(1 << n):
        keep = [i for i in range(n) if mask >> i & 1]
        r = reduced(rho, dims, keep)
        z[mask] = float(np.sum(np.abs(r) ** 2)) * math.prod(dims[i] for i in keep)
    y = {}
    for mask in range(1 << n):
        sub, total = mask, 0.0
        while True:
            total += (-1) ** bin(mask ^ sub).count("1") * z[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        y[tuple(i for i in range(n) if mask >> i & 1)] = total
    return y


def placement_strings(alpha: int, beta: int, gamma: int, n_nodes: int) -> list[str]:
    chars = "I" * (n_nodes - alpha - beta - gamma) + "X" * alpha + "Y" * beta + "Z" * gamma
    return sorted({"".join(p) for p in itertools.permutations(chars)})


def collective_reference(rho: np.ndarray, n_nodes: int, label) -> complex:
    """(1/Omega) sum_p exp(-2 pi i p b / Omega) tr{rho C_p}."""
    alpha, beta, gamma, b = label
    strings = placement_strings(alpha, beta, gamma, n_nodes)
    omega = len(strings)
    total = 0j
    for p, s in enumerate(strings):
        c = _kron([PAULI[ch] for ch in s])
        total += np.exp(-2j * np.pi * (p * b % omega) / omega) * np.sum(rho * c.T)
    return total / omega


def collective_sample(rng, n_nodes: int, count: int = 6, max_omega: int = 140) -> list:
    groups = [(a, b, g) for a in range(n_nodes + 1) for b in range(n_nodes + 1 - a)
              for g in range(n_nodes + 1 - a - b)]
    labels = []
    for a, b, g in groups:
        rest = n_nodes - a - b - g
        omega = math.factorial(n_nodes) // (math.factorial(a) * math.factorial(b)
                                             * math.factorial(g) * math.factorial(rest))
        if omega <= max_omega:
            labels.append((a, b, g, omega))
    picks = rng.choice(len(labels), size=min(count, len(labels)), replace=False)
    return [(a, b, g, int(rng.integers(omega))) for a, b, g, omega in (labels[i] for i in picks)]


def check_collective(rows: dict, rho: np.ndarray, n_nodes: int, sample, atol: float = 1e-9):
    """``rows`` maps (alpha, beta, gamma, b) to the reported coefficient."""
    for label in sample:
        want = collective_reference(rho, n_nodes, label)
        got = rows.get(label, 0j)
        require(abs(got - want) <= atol, f"collective {label}: {got} vs tr(rho P) {want}")


def check_table(path: str, expected: str):
    with open(path) as fh, open(os.path.join(EXPECTED, expected)) as want:
        require(fh.read() == want.read(), f"{os.path.basename(path)} differs from expected/{expected}")


def trajectory_rows(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1::2] + 1j * data[:, 2::2]


def check_trajectory(path: str, times, states, atol: float = 1e-9):
    got_t, got = trajectory_rows(path)
    require(got.shape == states.shape, f"trajectory shape {got.shape}, expected {states.shape}")
    require(np.max(np.abs(got_t - times)) <= atol, "trajectory times differ")
    err = float(np.max(np.abs(got - states)))
    require(err <= atol, f"trajectory differs from the reference by {err:.3g}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cli(job_id: str, args: list[str], check, limit_s: float = 30.0, outputs=()) -> Job:
    return Job(job_id, "cli", args, limit_s, check, list(outputs))


def analyze(seed: int, work: str) -> list[Job]:
    """State files: dense collective expansion on qubits, parsing on qudits."""
    rng = np.random.default_rng([seed, 1])
    fixtures = {
        "mixed": [2, 3, 4, 5],
        "q7": [2] * 7,
        "qutrit6": [3] * 6,
        "q5": [2] * 5,
    }
    states = {}
    for name, dims in fixtures.items():
        rho = mixed_state(rng, math.prod(dims))
        states[name] = (rho, dims, write_state(os.path.join(work, f"{name}.json"), rho, dims))
    sample = {n: collective_sample(rng, n) for n in (5, 7)}

    def analyze_check(name):
        rho, dims, _ = states[name]
        out = os.path.join(work, f"analyze-{name}.json")

        def check(code):
            require(code == 0, f"exit code {code}")
            with open(out) as fh:
                report = json.load(fh)
            require(report["dims"] == dims, "dims differ")
            require(report["sum_rule_residual"] <= 1e-9,
                    f"sum-rule residual {report['sum_rule_residual']}")
            want = cluster_sums_reference(rho, dims)
            got = {tuple(i - 1 for i in e["subset"]): e["Y"] for e in report["cluster_sums"]}
            require(set(got) == set(want), "cluster-sum subsets differ")
            for subset, y in want.items():
                require(abs(got[subset] - y) <= 1e-9 * max(1.0, abs(y)),
                        f"Y{subset}: {got[subset]} vs {y}")
            for entry in report["local_coherence"]:
                r = reduced(rho, dims, [entry["node"] - 1])
                purity = float(np.sum(np.abs(r) ** 2))
                require(abs(entry["length_sq"] - (len(r) * purity - 1)) <= 1e-9,
                        f"node {entry['node']} coherence length")
            if all(d == 2 for d in dims):
                rows = {tuple(r[:4]): complex(r[4], r[5]) for r in report["collective"]}
                check_collective(rows, rho, len(dims), sample[len(dims)])
                weights = report["symmetry_weights"]
                require(abs(sum(weights.values()) - 1) <= 1e-9, "symmetry weights do not sum to 1")
            else:
                require("collective" not in report, "collective block on a qudit state")
        return out, check

    jobs = []
    for name in ("mixed", "q7", "qutrit6"):
        out, check = analyze_check(name)
        jobs.append(cli(f"analyze-{name}", ["analyze", states[name][2], "--output", out], check,
                        limit_s=60.0 if name == "q7" else 30.0, outputs=[out]))

    decomposed = os.path.join(work, "decompose-q5.csv")

    def decompose_check(code):
        require(code == 0, f"exit code {code}")
        rows = {(int(r["alpha"]), int(r["beta"]), int(r["gamma"]), int(r["b"])):
                complex(float(r["re_E"]), float(r["im_E"])) for r in read_csv(decomposed)}
        require(len(rows) == 4 ** 5, f"{len(rows)} coefficients, expected 4^5")
        check_collective(rows, states["q5"][0], 5, sample[5])

    jobs.append(cli("decompose-q5", ["collective-decompose", states["q5"][2], "--output", decomposed],
                    decompose_check, outputs=[decomposed]))

    # API: all correlation tensors, a full partition scan, a G-family solve
    rho5 = states["q5"][0]
    factors = [mixed_state(rng, 2, rank=1) for _ in range(6)]
    product_psi = _kron([np.linalg.eigh(f)[1][:, -1:] for f in factors]).ravel()
    family_op = mixed_state(rng, 2 ** 3)
    np.savez(os.path.join(work, "cluster_api_in.npz"), rho=rho5, n_nodes=5,
             product_psi=product_psi, product_nodes=6, family_op=family_op, family_nodes=3)
    api_out = os.path.join(work, "cluster_api_out.npz")
    tensor_sample = rng.integers(0, 2, size=(24, 10))

    def cluster_api_check(code):
        require(code == 0, f"exit code {code}")
        with np.load(api_out) as out:
            entries, values = out["entries"], out["values"]
            require(len(values) == 4 ** 5, f"{len(values)} correlation entries, expected 4^5")
            total = float(np.sum(np.abs(values) ** 2))
            want = 2 ** 5 * float(np.sum(np.abs(rho5) ** 2))
            require(abs(total - want) <= 1e-9 * want, f"correlation sum rule {total} vs {want}")
            index = {tuple(e): v for e, v in zip(entries.tolist(), values)}
            for e in tensor_sample.tolist():
                q = _kron([weyl(e[2 * k], e[2 * k + 1], 2) for k in range(5)])
                ref = np.sum(rho5 * q.conj())
                require(abs(index[tuple(e)] - ref) <= 1e-9, f"correlation {e}")
            require(not bool(out["witness_found"]), "witness reported for a product state")
            require(int(out["family_count"]) == 4 ** 3, "G family is not complete")
            require(float(out["family_residual"]) <= 1e-9, "G-family residual")

    jobs.append(Job("api-cluster", "api", ["cluster_api", work], 30.0, cluster_api_check, [api_out]))
    return jobs


def paper_tables(seed: int, work: str) -> list[Job]:
    """The paper's tables: clique search, spin basis, cat basis, purity."""
    outs = {name: os.path.join(work, f"{name}.csv")
            for name in ("fig-purity", "table-csum", "symmetry-9", "cat-2-9", "cat-3-6")}

    def exact(name):
        def check(code):
            require(code == 0, f"exit code {code}")
            check_table(outs[name], f"{name}.csv")
        return check

    def csum_check(code):
        require(code == 0, f"exit code {code}")
        got = read_csv(outs["table-csum"])
        want = read_csv(os.path.join(EXPECTED, "table-csum.csv"))
        require(len(got) == len(want), "table-csum row count differs")
        for g, w in zip(got, want):
            row = f"row ({w['n']},{w['N']})"
            for key in ("n", "N", "A", "B", "D", "Cat"):
                require(g[key] == w[key], f"{row} column {key}: {g[key]} vs {w[key]}")
            c, c0, d = int(g["C"]), int(w["C"]), int(g["D"])
            if w["C_tag"] == "exact":
                require(g["C_tag"] == "exact" and c == c0, f"{row} exact C {c} vs {c0}")
            else:
                require(c0 <= c <= d, f"{row} heuristic C {c} outside [{c0}, {d}]")

    cat_args = [("cat-2-9", "2", "9"), ("cat-3-6", "3", "6")]
    jobs = [
        cli("fig-purity", ["fig-purity", "--output", outs["fig-purity"]], exact("fig-purity"),
            outputs=[outs["fig-purity"]]),
        # --budget 50000 keeps the default table: row (2,6) still runs out
        # of budget and rows over 1000 vertices still fall back.  It is the
        # longest job of the pass, so max_job_s always times the same job.
        cli("table-csum", ["table-csum", "--budget", "50000", "--output", outs["table-csum"]],
            csum_check, outputs=[outs["table-csum"]]),
        cli("symmetry-9", ["symmetry", "--nodes", "9", "--output", outs["symmetry-9"]],
            exact("symmetry-9"), outputs=[outs["symmetry-9"]]),
    ]
    for name, dim, nodes in cat_args:
        jobs.append(cli(name, ["cat", "--dim", dim, "--nodes", nodes, "--verify",
                               "--output", outs[name]], exact(name), outputs=[outs[name]]))

    n, n_nodes = 2, 8
    np.savez(os.path.join(work, "commuting_api_in.npz"), n=n, n_nodes=n_nodes,
             seed=int(np.random.default_rng([seed, 2]).integers(2 ** 31)))
    api_out = os.path.join(work, "commuting_api_out.npz")

    def commuting_check(code):
        require(code == 0, f"exit code {code}")
        with np.load(api_out) as out:
            psi, members = out["vector"], out["members"]
            require(int(out["completion_size"]) == int(out["target_size"]) == n ** n_nodes,
                    "commuting group is not complete")
        require(len(members) == (n * n - 1) ** (n_nodes // 2), "method-B set size")
        require(abs(np.linalg.norm(psi) - 1) <= 1e-9, "eigenstate is not normalized")
        for e in members.tolist():
            u = _kron([weyl(e[2 * k], e[2 * k + 1], n) for k in range(n_nodes)])
            up = u @ psi
            residual = float(np.linalg.norm(up - np.vdot(psi, up) * psi))
            require(residual <= 1e-9, f"member {e} eigen-residual {residual:.3g}")

    jobs.append(Job("api-commuting", "api", ["commuting_api", work], 30.0, commuting_check,
                    [api_out]))
    return jobs


def dynamics(seed: int, work: str) -> list[Job]:
    """Echoes, collective pulses, invariants and coherence dynamics."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for model, defaults in (("foerster", (1.0, 0.5)), ("renormalization", (1.1, 0.4, 0.3)),
                            ("stimulation", (1.0, 0.5))):
        params = [p * (1 + 0.2 * rng.uniform(-1, 1)) for p in defaults]
        out = os.path.join(work, f"invariants-{model}.csv")

        def check(code, out=out):
            require(code == 0, f"exit code {code}")
            rows = read_csv(out)
            require(len(rows) >= 1, "no invariant rows")
            for r in rows:
                require(math.isfinite(float(r["max_drift"])), f"drift of {r['expression']}")

        jobs.append(cli(f"invariants-{model}",
                        ["invariants", "--model", model, "--params", ",".join(map(repr, params)),
                         "--output", out], check, outputs=[out]))

    # echo: a seeded traceless Hamiltonian, its schedule written then replayed
    dim, cycles, dt = 32, 4, float(rng.uniform(0.5, 1.5))
    h = hermitian(rng, dim)
    h -= np.trace(h).real / dim * np.eye(dim)
    h_path = os.path.join(work, "echo_h.json")
    with open(h_path, "w") as fh:
        fh.write(operator_json(h))
    start = int(rng.integers(dim))
    sched, traj, echo_out = (os.path.join(work, f) for f in ("echo.json", "echo.csv", "echo-out.csv"))

    def echo_check(code):
        require(code == 0, f"exit code {code}")
        row = read_csv(echo_out)[0]
        require(float(row["residual"]) <= 1e-10, f"echo residual {row['residual']}")
        require(int(row["pi_pulses"]) == dim * (dim - 1) * cycles, "pi-pulse count")
        with open(sched) as fh:
            segments = json.load(fh)
        require(len(segments) == 2 * dim * cycles, f"{len(segments)} segments")
        psi = np.zeros(dim, dtype=complex)
        psi[start] = 1.0
        vals, vecs = np.linalg.eigh(h)
        states, times, t = [psi], [0.0], 0.0
        for seg in segments:
            op = np.array([[complex(c["re"], c["im"]) for c in r] for r in seg["operator"]["entries"]])
            if seg["kind"] == "hamiltonian":
                require(np.array_equal(op, h), "schedule Hamiltonian differs from the input")
                psi = vecs @ (np.exp(-1j * vals * seg["dt"]) * (vecs.conj().T @ psi))
                t += seg["dt"]
            else:
                psi = op @ psi
            states.append(psi)
            times.append(t)
        check_trajectory(traj, np.array(times), np.array(states))
        overlap = abs(np.vdot(states[0], states[-1]))
        require(abs(overlap - 1) <= 1e-9, f"echo does not return the start state: {overlap}")

    jobs.append(cli("echo-build", ["echo", "--hamiltonian", h_path, "--dt", repr(dt), "--cycles",
                                   str(cycles), "--schedule-out", sched, "--trajectory-out", traj,
                                   "--initial-basis", str(start), "--output", echo_out],
                    echo_check, outputs=[sched, traj, echo_out]))
    replay_out = os.path.join(work, "echo-replay.csv")

    def replay_check(code):
        require(code == 0, f"exit code {code}")
        row = read_csv(replay_out)[0]
        require(int(row["dim"]) == dim and int(row["segments"]) == 2 * dim * cycles,
                "replayed schedule shape")
        require(abs(float(row["total_time"]) - dt * cycles) <= 1e-9, "replayed total time")
        require(float(row["identity_residual"]) <= 1e-10, "replayed identity residual")

    # replays the schedule echo-build wrote earlier in the same pass
    jobs.append(cli("echo-replay", ["echo", "--schedule", sched, "--output", replay_out],
                    replay_check, outputs=[replay_out]))

    # collective pairwise drive from a seeded basis state; 64 steps make it
    # the longest job of the pass, so max_job_s always times the same job
    nodes, steps = 8, 64
    basis_state = int(rng.integers(2 ** nodes))
    ctl_traj, ctl_out = os.path.join(work, "control.csv"), os.path.join(work, "control-out.csv")

    def control_check(code):
        require(code == 0, f"exit code {code}")
        row = read_csv(ctl_out)[0]
        require(abs(float(row["cat_fidelity"]) - 1) <= 1e-10, f"cat fidelity {row['cat_fidelity']}")
        drive = sum(_kron([PAULI["X"] if k in pair else PAULI["I"] for k in range(nodes)])
                    for pair in itertools.combinations(range(nodes), 2))
        vals, vecs = np.linalg.eigh(drive)
        times = np.linspace(0.0, math.pi / 4, steps + 1)
        start_vec = vecs.conj().T[:, basis_state]
        states = np.array([vecs @ (np.exp(-1j * vals * t) * start_vec) for t in times])
        check_trajectory(ctl_traj, times, states)

    jobs.append(cli("control-8", ["control", "--nodes", str(nodes), "--m", "2", "--trajectory-out",
                                  ctl_traj, "--steps", str(steps), "--initial-basis",
                                  str(basis_state), "--output", ctl_out],
                    control_check, outputs=[ctl_traj, ctl_out]))

    # API: coherence generator, rotation and evolution at n = 16, network echo
    n = 16
    h16, rho0, t = hermitian(rng, n), mixed_state(rng, n), 0.5
    couplings = [(mu, nu, rng.uniform(-1, 1)) for mu, nu in itertools.combinations(range(6), 2)
                 if rng.uniform() < 0.5]
    np.savez(os.path.join(work, "dynamics_api_in.npz"), h=h16, rho0=rho0, t=t,
             couplings=np.array(couplings).reshape(-1, 3), echo_nodes=6,
             echo_dt=rng.uniform(0.5, 2.0))
    api_out = os.path.join(work, "dynamics_api_out.npz")
    ops = [weyl(i // n, i % n, n) for i in range(n * n)]

    def coherence_of(rho):
        return np.array([np.trace(u.conj().T @ rho) for u in ops[1:]])

    vals, vecs = np.linalg.eigh(h16)
    u_t = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    want_t = coherence_of(u_t @ rho0 @ u_t.conj().T)
    want_dot = coherence_of(-1j * (h16 @ rho0 - rho0 @ h16))

    def dynamics_check(code):
        require(code == 0, f"exit code {code}")
        with np.load(api_out) as out:
            err_dot = float(np.max(np.abs(out["omega_u0"] - want_dot)))
            err_rot = float(np.max(np.abs(out["rotated"] - want_t)))
            err_rk4 = float(np.max(np.abs(out["evolved"] - want_t)))
            require(err_dot <= 1e-9, f"generator off exact commutator by {err_dot:.3g}")
            require(err_rot <= 1e-9, f"rotation off exact conjugation by {err_rot:.3g}")
            require(err_rk4 <= 1e-7, f"RK4 evolution off exact conjugation by {err_rk4:.3g}")
            require(float(out["echo_residual"]) <= 1e-9, "network echo residual")
            require(bool(out["echo_product"]), "network eigenstates are not product states")

    jobs.append(Job("api-dynamics", "api", ["dynamics_api", work], 30.0, dynamics_check, [api_out]))
    return jobs


WORKLOADS = {"analyze": analyze, "paper-tables": paper_tables, "dynamics": dynamics}


def build(name: str, seed: int, work: str) -> list[Job]:
    jobs = WORKLOADS[name](seed, work)
    if [j.id for j in jobs] != JOB_IDS[name]:
        raise RuntimeError(f"JOB_IDS[{name!r}] does not match the jobs built")
    return jobs
