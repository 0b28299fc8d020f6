"""JSON schemas for operators and network states, plus CSV helpers.

Operator schema: {"dim": n, "entries": [[{"re": x, "im": y}, ...], ...]}
with row-major entries.  A network-state file adds "dims": [n_1, ..., n_N].
Floats serialize through Python's shortest round-trip repr, so the
round trip is bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import DEFAULT_DIM_CAP, NetworkState
from .errors import InputError


def operator_to_dict(op) -> dict:
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("operator must be a square matrix")
    return {
        "dim": int(m.shape[0]),
        "entries": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in m
        ],
    }


def operator_from_dict(data: dict) -> np.ndarray:
    try:
        dim = int(data["dim"])
        rows = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed operator object: {exc}") from exc
    if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows):
        raise InputError(f"entries are not a {dim}x{dim} grid")
    m = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                m[i, j] = complex(float(cell["re"]), float(cell["im"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed entry at ({i},{j}): {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise InputError("operator entries must be finite")
    return m


def operator_to_json(op) -> str:
    return json.dumps(operator_to_dict(op))


def operator_from_json(text: str) -> np.ndarray:
    return operator_from_dict(_loads(text))


def state_to_dict(state: NetworkState) -> dict:
    data = operator_to_dict(state.rho)
    data["dims"] = [int(n) for n in state.dims]
    return data


def state_from_dict(data: dict, dim_cap: int = DEFAULT_DIM_CAP) -> NetworkState:
    if "dims" not in data:
        raise InputError('state object must carry "dims"')
    rho = operator_from_dict(data)
    return NetworkState.from_rho(rho, data["dims"], dim_cap=dim_cap)


def state_to_json(state: NetworkState) -> str:
    return json.dumps(state_to_dict(state))


def state_from_json(text: str, dim_cap: int = DEFAULT_DIM_CAP) -> NetworkState:
    return state_from_dict(_loads(text), dim_cap=dim_cap)


def _loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("top-level JSON object expected")
    return data


def schedule_to_dicts(schedule) -> list:
    """Schedule as a JSON-ready list of segment objects."""
    out = []
    for seg in schedule.segments:
        entry = {"kind": seg.kind, "operator": operator_to_dict(seg.operator)}
        if seg.kind == "hamiltonian":
            entry["dt"] = float(seg.duration)
        out.append(entry)
    return out


def schedule_from_dicts(data) -> "PulseSchedule":
    from .protocols import PulseSchedule, Segment

    if not isinstance(data, list):
        raise InputError("schedule JSON must be a list of segments")
    segments = []
    for k, entry in enumerate(data):
        try:
            kind = entry["kind"]
            op = operator_from_dict(entry["operator"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed segment {k}: {exc}") from exc
        if kind == "hamiltonian":
            segments.append(Segment("hamiltonian", op, float(entry.get("dt", 0.0))))
        elif kind == "gate":
            segments.append(Segment("gate", op, 0.0))
        else:
            raise InputError(f"segment {k} has unknown kind {kind!r}")
    return PulseSchedule(segments)


def schedule_to_json(schedule) -> str:
    return json.dumps(schedule_to_dicts(schedule))


def schedule_from_json(text: str) -> "PulseSchedule":
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return schedule_from_dicts(data)


def trajectory_csv(times, states) -> str:
    """CSV of a state-vector trajectory: t, then re/im per component."""
    dim = len(states[0])
    header = "t," + ",".join(f"re_{k},im_{k}" for k in range(dim))
    rows = []
    for t, psi in zip(times, states):
        row = [float(t)]
        for z in psi:
            row += [float(z.real), float(z.imag)]
        rows.append(row)
    return csv_lines(header, rows)


def csv_lines(header: str, rows) -> str:
    """Locale-free CSV: '.' decimal point, repr-exact floats."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (np.floating,)):
        return repr(float(x))
    return str(x)
