"""Command-line front end.

Exit codes: 0 success, 2 bad input, 3 cap or budget refusal,
4 internal verification failure.  All randomness flows through --seed
(default 0) and outputs are byte-deterministic under a fixed seed and
configuration.  A config file of key=value lines can pre-set --seed,
--n-max, --budget and --vertex-cap, and no other key; explicit flags win.
A path that cannot be read or written, or a file that is not UTF-8
text, is bad input.  Each command imports the modules it runs.
"""

from __future__ import annotations

import errno
import json
import math
import sys

import click
import numpy as np

from .errors import CapExceeded, InputError, VerificationFailure, WeylnetError
from .io import (csv_lines, operator_from_json, schedule_from_json, schedule_to_json,
                 state_from_json, trajectory_csv)

EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _ExitCodes(click.Group):
    """Maps the exceptions of the group callback and every command onto the exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            _fail(EXIT_BAD_INPUT, str(exc))
        except CapExceeded as exc:
            _fail(EXIT_CAP, str(exc))
        except WeylnetError as exc:
            _fail(EXIT_VERIFY, str(exc))
        except OSError as exc:
            if exc.errno == errno.EPIPE:  # stdout closed by the reader: click's own exit
                raise
            _fail(EXIT_BAD_INPUT, str(exc))


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


CONFIG_KEYS = ("seed", "n_max", "budget", "vertex_cap")


def _read_config(path):
    opts = {}
    if path is None:
        return opts
    for line in _read_text(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise InputError(f"unknown config key {key!r}; accepted: {', '.join(CONFIG_KEYS)}")
        opts[key] = value.strip()
    return opts


#: the range of the table-csum counts, for flags and config values alike
POSITIVE = click.IntRange(min=1)


def _option(explicit, config: dict, key: str, kind: click.ParamType, default):
    """Flags win over the config file, which wins over the default.

    Config values go through the flag's own click type, so they meet the
    same ranges; a value it refuses raises InputError.
    """
    if explicit is not None:
        return explicit
    if key not in config:
        return default
    try:
        return kind.convert(config[key], None, None)
    except click.BadParameter as exc:
        raise InputError(f"config value {key}={config[key]!r}: {exc.message}") from exc


def _emit(text: str, output):
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)


@click.group(cls=_ExitCodes)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="key=value file with defaults for --seed, --n-max, --budget, --vertex-cap")
@click.option("--seed", type=int, default=None, help="random seed (default 0)")
@click.pass_context
def main(ctx, config_path, seed):
    """Operator-basis toolkit for finite-dimensional quantum networks."""
    config = _read_config(config_path)
    ctx.obj = {
        "config": config,
        "seed": _option(seed, config, "seed", click.INT, 0),
    }


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _phase_symbol(n: int, exponent: int) -> str:
    exponent %= n
    if exponent == 0:
        return "1"
    if exponent == 1:
        return "w"
    return f"w^{exponent}"


@main.command("basis")
@click.argument("n", type=int)
def cmd_basis(n):
    """Print all n^2 basis unitaries with exact phase annotations."""
    from . import basis

    if not 2 <= n <= 8:
        raise InputError(f"basis dump supports 2 <= n <= 8, got {n}")
    click.echo(f"# unitary basis, n={n}, w = exp(2*pi*i/{n})")
    for a in range(n):
        for b in range(n):
            idx = basis.WeylIndex(a, b, n)
            m = basis.weyl_matrix(idx)
            if np.max(np.abs(m.conj().T @ m - np.eye(n))) > 1e-12:
                raise VerificationFailure(f"U_{a}{b} failed its unitarity self-check")
            click.echo(f"U_{a}{b} =")
            for r in range(n):
                cells = [
                    _phase_symbol(n, b * c) if (c + a) % n == r else "0"
                    for c in range(n)
                ]
                click.echo("  [" + ", ".join(f"{x:>4}" for x in cells) + "]")


# ---------------------------------------------------------------------------
# commuting-set table
# ---------------------------------------------------------------------------

@main.command("table-csum")
@click.option("--n", "n_list", default="2,3,4", help="comma-separated node dimensions")
@click.option("--n-max", "n_max", type=POSITIVE, default=None,
              help="largest network size N")
@click.option("--budget", type=POSITIVE, default=None,
              help="clique-search node budget")
@click.option("--vertex-cap", type=POSITIVE, default=None,
              help="graph-size cap for exact search")
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def cmd_table_csum(ctx, n_list, n_max, budget, vertex_cap, output):
    """Largest-commuting-set table: methods A, B, search C, bound D, cat."""
    from . import cat, commuting

    config = ctx.obj["config"]
    nmax = _option(n_max, config, "n_max", POSITIVE, 6)
    bud = _option(budget, config, "budget", POSITIVE, 150_000)
    vcap = _option(vertex_cap, config, "vertex_cap", POSITIVE, 1000)
    try:
        dims = [int(x) for x in n_list.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --n list: {exc}") from exc
    rows = []
    for n in dims:
        top = nmax if n < 4 else min(nmax, 5)
        for n_nodes in range(1, top + 1):
            a = commuting.method_a_size(n, n_nodes)
            b = commuting.method_b_size(n, n_nodes)
            d = commuting.bound_d(n, n_nodes)
            # a single node has no entanglement: Y_1 of any basis state is n-1
            cat_y = n - 1 if n_nodes == 1 else round(cat.cat_profile(n, n_nodes).y(n_nodes))
            try:
                result = commuting.search_max_commuting(n, n_nodes, budget=bud, vertex_cap=vcap)
                c_val, c_tag = result.commuting_set.size, ("exact" if result.exact else "heuristic")
            except CapExceeded:
                # graph too large to build: fall back to the best
                # constructive lower bound (the cat family realizes cat_y)
                c_val, c_tag = max(a, b, cat_y), "heuristic"
            rows.append((n, n_nodes, a, b, c_val, c_tag, d, cat_y))
    _emit(csv_lines("n,N,A,B,C,C_tag,D,Cat", rows), output)


# ---------------------------------------------------------------------------
# cat states
# ---------------------------------------------------------------------------

@main.command("cat")
@click.option("--dim", "n", type=int, required=True, help="level count per node")
@click.option("--nodes", "n_nodes", type=int, required=True)
@click.option("--verify/--no-verify", default=False, help="cross-check numerically")
@click.option("--output", type=click.Path(), default=None)
def cmd_cat(n, n_nodes, verify, output):
    """Closed-form cluster-sum and purity profile of the cat basis."""
    from . import cat

    profile = cat.cat_profile(n, n_nodes)
    rows = [(m, profile.y(m), profile.p(m)) for m in range(1, n_nodes + 1)]
    _emit(csv_lines("m,Y_m,p_m", rows), output)
    if verify:
        report = cat.cat_verify(n, n_nodes)
        worst = max(report.max_cluster_sum_error, report.max_purity_error,
                    report.max_orthonormality_error)
        if worst > 1e-9:
            raise VerificationFailure(f"cat profile mismatch: {worst:.3g}")


@main.command("fig-purity")
@click.option("--n-range", default="2:10", help="inclusive dimension range lo:hi")
@click.option("--m-range", default="1:8", help="inclusive cluster-size range lo:hi")
@click.option("--output", type=click.Path(), default=None)
def cmd_fig_purity(n_range, m_range, output):
    """Proper-cluster purity factors p_m = (n^(m-1)-1)/(n^m-1)."""
    from . import cat

    try:
        nlo, nhi = (int(x) for x in n_range.split(":"))
        mlo, mhi = (int(x) for x in m_range.split(":"))
    except ValueError as exc:
        raise InputError(f"bad range: {exc}") from exc
    if nlo < 2 or mlo < 1 or nhi < nlo or mhi < mlo:
        raise InputError("ranges must satisfy 2 <= n and 1 <= m, lo <= hi")
    if (nhi - nlo + 1) * (mhi - mlo + 1) > 2 ** 16:
        raise CapExceeded(f"{nhi - nlo + 1} x {mhi - mlo + 1} rows exceed 2^16")
    rows = [(n, m, cat.purity_profile_value(n, m))
            for n in range(nlo, nhi + 1) for m in range(mlo, mhi + 1)]
    _emit(csv_lines("n,m,p_m", rows), output)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

@main.command("echo")
@click.option("--dim", "n", type=int, default=None, help="dimension for a random Hamiltonian")
@click.option("--dt", type=float, default=1.0)
@click.option("--cycles", type=POSITIVE, default=1)
@click.option("--hamiltonian", "h_path", type=click.Path(exists=True), default=None,
              help="operator JSON; overrides --dim")
@click.option("--schedule", "schedule_path", type=click.Path(exists=True), default=None,
              help="run a segment-list JSON instead of building the echo")
@click.option("--schedule-out", type=click.Path(), default=None,
              help="write the constructed echo schedule as segment-list JSON")
@click.option("--trajectory-out", type=click.Path(), default=None,
              help="CSV trajectory of --initial-basis through the schedule")
@click.option("--initial-basis", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def cmd_echo(ctx, n, dt, cycles, h_path, schedule_path, schedule_out, trajectory_out,
             initial_basis, output):
    """Cyclic-permutation echo; reports the identity residual."""
    from . import protocols

    if schedule_path is not None:
        schedule = schedule_from_json(_read_text(schedule_path))
        residual = protocols.phase_distance(schedule.unitary())
        rows = [(schedule.dim, schedule.total_time, len(schedule.segments), residual)]
        _emit(csv_lines("dim,total_time,segments,identity_residual", rows), output)
    else:
        if h_path is not None:
            h = operator_from_json(_read_text(h_path))
        elif n is not None:
            from .cluster import DEFAULT_DIM_CAP
            if n < 2:  # before numpy sees an empty or negative size
                raise InputError(f"dimension must be >= 2, got {n}")
            if n > DEFAULT_DIM_CAP:  # before numpy allocates n x n
                raise CapExceeded(f"dimension {n} exceeds cap {DEFAULT_DIM_CAP}")
            vals = np.random.default_rng(ctx.obj["seed"]).normal(size=n)
            h = np.diag(vals - vals.mean()).astype(complex)
        else:
            raise InputError("provide --hamiltonian, --schedule or --dim")
        schedule, report = protocols.echo_schedule(h, dt, cycles=cycles)
        rows = [(report.n, report.dt, report.cycles, report.residual,
                 report.stroboscopic_residual, report.pulse_count)]
        _emit(csv_lines("n,dt,cycles,residual,stroboscopic_residual,pi_pulses", rows), output)
        if report.residual > 1e-10:
            raise VerificationFailure(f"echo residual {report.residual:.3g} exceeds 1e-10")
    if schedule_out is not None:
        _emit(schedule_to_json(schedule) + "\n", schedule_out)
    if trajectory_out is not None:
        if not 0 <= initial_basis < schedule.dim:
            raise InputError(f"initial basis index {initial_basis} out of range")
        psi = np.zeros(schedule.dim, dtype=complex)
        psi[initial_basis] = 1.0
        states = [psi] + protocols.evolve(schedule, psi)
        times = np.concatenate([[0.0], np.cumsum([s.duration for s in schedule.segments])])
        _emit(trajectory_csv(times, states), trajectory_out)


@main.command("control")
@click.option("--nodes", "n_nodes", type=int, required=True)
@click.option("--m", type=click.Choice(["1", "2"]), default="2")
@click.option("--alpha-t", "alpha_t", default="pi/4", help="pulse area, e.g. pi/4 or 0.5")
@click.option("--trajectory-out", type=click.Path(), default=None,
              help="CSV trajectory of --initial-basis over the pulse")
@click.option("--initial-basis", type=int, default=0, show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_control(n_nodes, m, alpha_t, trajectory_out, initial_basis, steps, output):
    """Collective-drive pulse; reports special-case residuals and cat fidelity."""
    from . import protocols

    area = _parse_angle(alpha_t)
    mm = int(m)
    protocols.check_collective_drive(mm, n_nodes)
    if trajectory_out is not None:
        dim = 2 ** n_nodes
        if not 0 <= initial_basis < dim:
            raise InputError(f"initial basis index {initial_basis} out of range")
        if (steps + 1) * dim > 2 ** 20:  # before numpy allocates the trajectory
            raise CapExceeded(f"trajectory of {steps + 1} x {dim} amplitudes exceeds 2^20")
        psi = np.zeros(dim, dtype=complex)
        psi[initial_basis] = 1.0
        times = np.linspace(0.0, area, steps + 1)
        states = protocols.collective_control_states(mm, times, n_nodes, psi)
        _emit(trajectory_csv(times, states), trajectory_out)
    ident_residual = float("nan")
    if mm == 1 and abs(area - math.pi / 2) < 1e-12:
        u = protocols.collective_control(mm, area, n_nodes)
        flip = np.arange(2 ** n_nodes)  # the target (-i)^N E_{N00,0} sends |j> to |2^N - 1 - j>
        u[flip[::-1], flip] -= (-1j) ** n_nodes
        ident_residual = float(np.max(np.abs(u)))
    if mm == 2 and n_nodes % 2 == 1 and abs(area - math.pi / 2) < 1e-12:
        ident_residual = protocols.collective_control_phase_distance(mm, area, n_nodes)
    fidelity = protocols.cat_creation_fidelity(n_nodes) if n_nodes % 2 == 0 else float("nan")
    rows = [(n_nodes, mm, area, ident_residual, fidelity)]
    _emit(csv_lines("nodes,m,alpha_t,identity_residual,cat_fidelity", rows), output)
    if n_nodes % 2 == 0 and mm == 2 and abs(area - math.pi / 4) < 1e-12 and 1 - fidelity > 1e-10:
        raise VerificationFailure(f"cat creation fidelity {fidelity} below 1 - 1e-10")


def _parse_angle(text: str) -> float:
    """A finite pulse area: a number, "pi" or "pi/<number>"."""
    text = text.strip()
    try:
        if text in ("pi", "PI"):
            value = math.pi
        elif text.startswith("pi/"):
            value = math.pi / float(text[3:])
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad pulse area {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise InputError(f"pulse area must be finite, got {text!r}")
    return value


@main.command("gray")
@click.option("--nodes", "n_bits", type=int, required=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_gray(n_bits, output):
    """Hamming-distance-1 circular visiting order of all 2^N bitstrings."""
    from . import protocols

    seq = protocols.gray_sequence(n_bits)
    if not (seq.hamming_check() and seq.covers_all()):
        raise VerificationFailure("generated sequence failed its own property check")
    _emit("\n".join(seq.strings()) + "\n", output)


@main.command("invariants")
@click.option("--model", type=click.Choice(["foerster", "renormalization", "stimulation"]),
              required=True)
@click.option("--params", default=None,
              help="comma-separated model parameters (defaults per model)")
@click.option("--time", "total_time", type=float, default=20.0)
@click.option("--output", type=click.Path(), default=None)
def cmd_invariants(model, params, total_time, output):
    """Drift of the conserved collective expectation values of a model."""
    from . import collective

    kwargs = dict(collective.MODEL_PARAMS[model])
    if params:
        try:
            values = [float(x) for x in params.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --params list: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"--params must be finite, got {params!r}")
        if len(values) != len(kwargs):
            raise InputError(f"{model} takes {len(kwargs)} parameters {tuple(kwargs)}")
        kwargs = dict(zip(kwargs, values))
    inv = collective.hamiltonian_invariants(model, **kwargs)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[1, 1] = 1.0  # |01><01|: asymmetric, exercises the b != 0 members
    report = collective.verify_invariants(inv, rho0, total_time)
    rows = [(name, report.values_at_zero[name].real, report.values_at_zero[name].imag, drift)
            for name, drift in report.max_drift.items()]
    _emit(csv_lines("expression,value_re,value_im,max_drift", rows), output)
    if report.failed():
        raise VerificationFailure(f"invariants drifted: {report.failed()}")


@main.command("symmetry")
@click.option("--nodes", "n_nodes", type=int, required=True)
@click.option("--golden-json", is_flag=True, default=False,
              help="dump the four-node class table as JSON")
@click.option("--output", type=click.Path(), default=None)
def cmd_symmetry(n_nodes, golden_json, output):
    """Per-class dimensions, multiplicities and parameter counts."""
    from . import symmetry

    if golden_json:
        if n_nodes != 4:
            raise InputError("the golden class table exists for 4 nodes")
        data = [
            {
                "config": v.config,
                "m": v.m,
                "j": v.j,
                "tableau": v.tableau,
                "amplitudes": [[k, a] for k, a in v.amplitudes],
            }
            for v in symmetry.young_basis_n4()
        ]
        _emit(json.dumps(data, indent=1) + "\n", output)
        return
    classes = symmetry.spin_basis(n_nodes)
    rows = [(c.j, c.multiplicity, c.degeneracy, c.degeneracy ** 2) for c in classes]
    total_dim, param, xi0 = symmetry.parameter_count_identity(n_nodes, classes)
    rows.append(("total", total_dim, "", param))
    _emit(csv_lines("j,multiplicity,dimension,parameters", rows), output)
    if total_dim != 2 ** n_nodes or param != xi0:
        raise VerificationFailure("class bookkeeping failed its dimension identities")


@main.command("collective-decompose")
@click.argument("state_file", type=click.Path(exists=True))
@click.option("--output", type=click.Path(), default=None)
def cmd_collective_decompose(state_file, output):
    """Collective coefficient table of a two-level network state."""
    from . import collective

    state = state_from_json(_read_text(state_file))
    coeffs = collective.decompose_collective(state)
    recon = collective.reconstruct_collective(coeffs, state.n_nodes)
    if np.max(np.abs(recon - state.rho)) > 1e-12:
        raise VerificationFailure("collective reconstruction failed")
    rows = [(lab.alpha, lab.beta, lab.gamma, lab.b, v.real, v.imag)
            for lab, v in coeffs.items()]
    _emit(csv_lines("alpha,beta,gamma,b,re_E,im_E", rows), output)


@main.command("analyze")
@click.argument("state_file", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--output", type=click.Path(), default=None)
def cmd_analyze(state_file, fmt, output):
    """Full report: coherence, cluster sums, purity, collective, symmetry."""
    from . import cluster
    from .coherence import expand_state

    state = state_from_json(_read_text(state_file))
    report: dict = {"dims": list(state.dims)}

    report["local_coherence"] = []
    for node in range(state.n_nodes):
        reduced = cluster.reduced_state(state, (node,))
        cv = expand_state(reduced)
        report["local_coherence"].append({
            "node": node + 1,
            "length_sq": cv.length_sq,
            "components": [[a, b, re, im] for a, b, re, im in cv.csv_rows()],
        })

    if len(set(state.dims)) == 1:  # purity factors need one node dimension
        purity = cluster.purity_factors(state)
        table = purity.table
        report["purity"] = [
            {"subset": [i + 1 for i in s], "p": r.p, "entropy_bits": r.entropy}
            for s, r in sorted(purity.rows.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    else:
        table = cluster.cluster_sums(state)
        report["purity"] = None
    report["cluster_sums"] = table.json_rows()
    report["sum_rule_residual"] = table.sum_rule_residual

    if all(d == 2 for d in state.dims):
        from . import collective, symmetry

        coeffs = collective.decompose_collective(state)
        report["collective"] = [
            [lab.alpha, lab.beta, lab.gamma, lab.b, v.real, v.imag]
            for lab, v in coeffs.items() if abs(v) > 1e-12
        ]
        weights = symmetry.class_weights(state.rho)
        report["symmetry_weights"] = {str(j): w for j, w in weights.items()}

    if fmt == "json":
        _emit(json.dumps(report, indent=1, sort_keys=True) + "\n", output)
    else:
        rows = []
        for entry in report["cluster_sums"]:
            rows.append(("Y", "|".join(map(str, entry["subset"])), entry["Y"]))
        if report["purity"]:
            for entry in report["purity"]:
                rows.append(("p", "|".join(map(str, entry["subset"])), entry["p"]))
        _emit(csv_lines("quantity,subset,value", rows), output)


if __name__ == "__main__":
    main()
