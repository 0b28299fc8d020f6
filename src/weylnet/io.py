"""JSON schemas for operators and network states, plus CSV helpers.

Operator schema: {"dim": n, "entries": [[{"re": x, "im": y}, ...], ...]}
with row-major entries.  A network-state file adds "dims": [n_1, ..., n_N].
Floats serialize through Python's shortest round-trip repr, so the
round trip is bit-exact.  Entries must be finite both ways: the writers
refuse NaN and infinities, as the readers do.

The codec keeps no Python object per matrix entry beyond parsing or
formatting it.  The reader turns each {"re", "im"} cell of two real
numbers into a ``complex`` while ``json`` parses (any key order,
int-valued parts, extra keys ignored), so a well-formed grid becomes an
array in one call; any other cell goes through the per-cell
conversion, which names what is wrong with it.  The writers format
each row with one ``%`` operation over its interleaved real and
imaginary parts, byte-identical to ``json.dumps`` of the cell dicts.
"""

from __future__ import annotations

import itertools
import json
import operator

import numpy as np

from .errors import InputError


_REAL = (float, int)  # exact types: bool cells take the per-cell route


def _cell_hook(obj: dict):
    """A {"re": x, "im": y} object with real-number values as a complex; else the object."""
    try:
        re, im = obj["re"], obj["im"]
    except KeyError:
        return obj
    if type(re) in _REAL and type(im) in _REAL:  # extra keys ignored, as the per-cell route does
        try:
            return complex(re, im)
        except OverflowError:  # an integer beyond float range
            pass
    return obj


def _loads(text: str):
    try:
        return json.loads(text, object_hook=_cell_hook)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or a >4300-digit int
        raise InputError(f"invalid JSON: {exc}") from exc


def _loads_object(text: str) -> dict:
    data = _loads(text)
    if not isinstance(data, dict):
        raise InputError("top-level JSON object expected")
    return data


def _entries_text(op) -> tuple[int, str]:
    """(dim, the "entries" grid as JSON text) of a square matrix with finite entries."""
    m = np.ascontiguousarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("operator must be a square matrix")
    if not np.isfinite(m).all():
        raise InputError("operator entries must be finite")
    dim = m.shape[0]
    row = "[" + ", ".join(['{"re": %r, "im": %r}'] * dim) + "]"
    rows = [row % tuple(values) for values in m.view(float).tolist()]  # re_0, im_0, re_1, ...
    return dim, "[" + ", ".join(rows) + "]"


def operator_from_dict(data: dict) -> np.ndarray:
    try:
        dim = operator.index(data["dim"])
        rows = data["entries"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed operator object: {exc}") from exc
    if dim < 1 or type(data["dim"]) is bool:
        raise InputError(f"operator dimension must be a positive integer, got {data['dim']!r}")
    if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows):
        raise InputError(f"entries are not a {dim}x{dim} grid")
    if set(map(type, itertools.chain.from_iterable(rows))) == {complex}:
        m = np.array(rows, dtype=complex)
    else:
        m = np.empty((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if type(cell) is complex:
                    m[i, j] = cell
                    continue
                try:
                    m[i, j] = complex(float(cell["re"]), float(cell["im"]))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise InputError(f"malformed entry at ({i},{j}): {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise InputError("operator entries must be finite")
    return m


def operator_to_json(op) -> str:
    dim, entries = _entries_text(op)
    return '{"dim": %d, "entries": %s}' % (dim, entries)


def operator_from_json(text: str) -> np.ndarray:
    return operator_from_dict(_loads_object(text))


def state_from_dict(data: dict) -> "NetworkState":
    from .cluster import NetworkState

    if "dims" not in data:
        raise InputError('state object must carry "dims"')
    rho = operator_from_dict(data)
    return NetworkState.from_rho(rho, data["dims"])


def state_to_json(state: "NetworkState") -> str:
    dim, entries = _entries_text(state.rho)
    return '{"dim": %d, "entries": %s, "dims": %s}' % (
        dim, entries, json.dumps([int(n) for n in state.dims]))


def state_from_json(text: str) -> "NetworkState":
    return state_from_dict(_loads_object(text))


def schedule_from_dicts(data) -> "PulseSchedule":
    from .protocols import PulseSchedule, Segment

    if not isinstance(data, list):
        raise InputError("schedule JSON must be a list of segments")
    segments = []
    shared = {}  # equal operators become one array, as in the schedule that was written
    for k, entry in enumerate(data):
        try:
            kind = entry["kind"]
            op = operator_from_dict(entry["operator"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed segment {k}: {exc}") from exc
        op = shared.setdefault(op.tobytes(), op)
        if kind == "hamiltonian":
            try:
                dt = float(entry.get("dt", 0.0))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"segment {k} has a malformed dt: {exc}") from exc
            segments.append(Segment("hamiltonian", op, dt))
        elif kind == "gate":
            segments.append(Segment("gate", op, 0.0))
        else:
            raise InputError(f"segment {k} has unknown kind {kind!r}")
    return PulseSchedule(segments)


def schedule_to_json(schedule) -> str:
    """Segment list as JSON; each distinct operator object is formatted once."""
    texts = {}
    parts = []
    for seg in schedule.segments:
        op = texts.get(id(seg.operator))
        if op is None:
            op = texts[id(seg.operator)] = operator_to_json(seg.operator)
        text = '{"kind": %s, "operator": %s' % (json.dumps(seg.kind), op)
        if seg.kind == "hamiltonian":
            text += ', "dt": %r' % float(seg.duration)  # finite: Segment checks it
        parts.append(text + "}")
    return "[" + ", ".join(parts) + "]"


def schedule_from_json(text: str) -> "PulseSchedule":
    return schedule_from_dicts(_loads(text))


def trajectory_csv(times, states) -> str:
    """CSV of a state-vector trajectory: t, then re/im per component.

    One ``%`` operation formats each row, byte-identical to ``csv_lines``.
    """
    values = np.ascontiguousarray(states, dtype=complex)
    dim = values.shape[1]
    header = "t," + ",".join(f"re_{k},im_{k}" for k in range(dim))
    row = "%r" + ",%r" * (2 * dim)
    times = np.asarray(times, dtype=float).tolist()
    rows = (row % (t, *psi.tolist()) for t, psi in zip(times, values.view(float)))  # re_0, im_0, ...
    return "\n".join([header, *rows]) + "\n"


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
