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

Schedule files carry every segment's operator in full, yet decoding,
converting and checking one costs what its distinct operators cost: the
reader decodes and converts a repeated "entries" grid once and checks
each distinct segment that holds it once, so equal segments share one
array and one ``Segment``.  The writer formats each distinct operator
once and can stream the file segment by segment.
"""

from __future__ import annotations

import itertools
import json
import operator
import re

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
    return _schedule_from_dicts(data, ())


def _schedule_from_dicts(data, repeated) -> "PulseSchedule":
    """The schedule of decoded segments.  Each "entries" grid in ``repeated``
    (an object that several segments hold) is converted once, and each
    distinct segment that holds one is checked once and shared."""
    from .protocols import PulseSchedule, Segment

    if not isinstance(data, list):
        raise InputError("schedule JSON must be a list of segments")
    repeated = {id(grid) for grid in repeated}
    converted = {}  # (id of a repeated grid, dim) -> its array
    shared = {}  # equal operators become one array, as in the schedule that was written
    made = {}  # (kind, array of a repeated grid, dt) -> its Segment
    segments = []
    for k, entry in enumerate(data):
        try:
            kind = entry["kind"]
            op, key = _operator_once(entry["operator"], repeated, converted, shared)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed segment {k}: {exc}") from exc
        # the kinds are the constants, not the file's copy of the word in each segment
        if kind == "hamiltonian":
            try:
                kind, dt = "hamiltonian", float(entry.get("dt", 0.0))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"segment {k} has a malformed dt: {exc}") from exc
        elif kind == "gate":
            kind, dt = "gate", 0.0
        else:
            raise InputError(f"segment {k} has unknown kind {kind!r}")
        if key is None:
            segment = Segment(kind, op, dt)
        else:
            key = (kind, id(op), dt.hex())  # hex keeps -0.0 apart
            segment = made.get(key)
            if segment is None:
                segment = made[key] = Segment(kind, op, dt)
        segments.append(segment)
    return PulseSchedule(segments)


def _operator_once(spec, repeated: set, converted: dict, shared: dict):
    """(operator_from_dict(spec), its memo key): a grid whose id is in
    ``repeated`` converts once per int dim; any other key is None."""
    try:
        dim, rows = spec["dim"], spec["entries"]
        key = (id(rows), dim) if id(rows) in repeated and type(dim) is int else None
    except (KeyError, TypeError):
        key = None
    op = converted.get(key)
    if op is None:
        op = operator_from_dict(spec)
        op = shared.setdefault(op.tobytes(), op)
        if key is not None:
            converted[key] = op
    return op, key


def _schedule_pieces(schedule):
    """The schedule's JSON text in pieces; each distinct operator object is
    formatted once, and its text is yielded for every segment that holds it."""
    texts = {}
    yield "["
    for k, seg in enumerate(schedule.segments):
        op = texts.get(id(seg.operator))
        if op is None:
            op = texts[id(seg.operator)] = operator_to_json(seg.operator)
        yield '%s{"kind": %s, "operator": ' % (", " if k else "", json.dumps(seg.kind))
        yield op
        # a Hamiltonian's dt is finite: Segment checks it
        yield ', "dt": %r}' % float(seg.duration) if seg.kind == "hamiltonian" else "}"
    yield "]"


def schedule_to_json(schedule) -> str:
    """Segment list as JSON; each distinct operator object is formatted once."""
    return "".join(_schedule_pieces(schedule))


# an "entries" key and the whitespace around its colon, as JSON allows it
_ENTRIES_KEY = re.compile(r'"entries"[ \t\n\r]*:[ \t\n\r]*')


def _grid_cell(obj: dict) -> complex:
    """The complex of a cell with real "re" and "im" and no other key; else ValueError."""
    value = _cell_hook(obj) if len(obj) == 2 else obj
    if type(value) is not complex:
        raise ValueError("not a cell of two real parts")
    return value


def _repeated_grid_texts(text: str) -> dict:
    """(first start, length) -> later starts of each "entries" grid text that repeats.

    A key's grid text is taken up to the first "]]" after it, and the scan
    resumes there, so each character is scanned once; a key passed over
    lies inside another value.  Equal texts are grouped by length and hash
    and compared in full.
    """
    first = {}  # (length, hash) of a grid text -> where it first starts
    later = {}
    pos = 0
    while (match := _ENTRIES_KEY.search(text, pos)) is not None:
        start = match.end()
        close = text.find("]]", start) + 2
        if close < 2:
            break
        piece = text[start:close]
        at = first.setdefault((close - start, hash(piece)), start)
        if at != start and text.startswith(piece, at):  # else a hash collision
            later.setdefault((at, close - start), []).append(start)
        pos = close
    return later


def _grids_decoded_once(text: str):
    """(segments, repeated grids) of a text without backslashes; each repeated grid decoded once.

    The first text of each repeated grid is decoded on its own, and if
    that proves it one complete grid of plain cells (a list of lists of
    {"re", "im"} objects with real values and no other key, so nothing in
    it nests deeper than in any schedule), every text of the group is
    replaced by a marker: a string with an escaped NUL, which no string
    of a text without backslashes can hold.  The rest, one-off grids
    included, is decoded in place, and the markers are swapped for their
    grid.

    Every marker must end up as the "entries" of a segment's operator,
    three levels deep as in every schedule, so the route accepts what the
    whole-text decode accepts, with the same values.  Otherwise, as on
    invalid JSON, it raises ValueError (or RecursionError), and the caller
    decodes the text whole.
    """
    decoder = json.JSONDecoder(object_hook=_grid_cell)
    grids, spans = [], []
    for (at, size), starts in _repeated_grid_texts(text).items():
        try:
            value, stop = decoder.raw_decode(text, at)
        except (ValueError, RecursionError):  # not a grid of plain cells: decoded in place
            continue
        if stop - at == size and type(value) is list and set(map(type, value)) <= {list} \
                and set(map(type, itertools.chain.from_iterable(value))) <= {complex}:
            spans += [(start, start + size, len(grids)) for start in [at, *starts]]
            grids.append(value)
    if not spans:
        return json.loads(text, object_hook=_cell_hook), grids
    parts, pos = [], 0
    for start, stop, i in sorted(spans):
        parts += (text[pos:start], '"\\u0000%d"' % i)
        pos = stop
    parts.append(text[pos:])
    data = json.loads("".join(parts), object_hook=_cell_hook)
    placed = 0
    for entry in data if isinstance(data, list) else ():
        spec = entry.get("operator") if isinstance(entry, dict) else None
        marker = spec.get("entries") if isinstance(spec, dict) else None
        if type(marker) is str and marker[:1] == "\0":
            spec["entries"] = grids[int(marker[1:])]
            placed += 1
    if placed != len(spans):  # a marker outside an operator, where its grid nests deeper, or repeated
        raise ValueError("a repeated grid outside the segments' operators")
    return data, grids


def schedule_from_json(text: str) -> "PulseSchedule":
    """Schedule from segment-list JSON; decode and checks follow the distinct operators.

    A text with a backslash (an escaped key may spell "entries"), or one
    that the grid route does not take, is decoded whole, so errors name
    the text's own position.
    """
    if "\\" not in text:
        try:
            data, repeated = _grids_decoded_once(text)
        except (ValueError, RecursionError):  # the whole-text decode decides and says where
            pass
        else:
            return _schedule_from_dicts(data, repeated)
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
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)
