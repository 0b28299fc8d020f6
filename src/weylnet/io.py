"""JSON schemas for operators, network states and pulse schedules, plus CSV helpers.

Operator schema: {"dim": n, "entries": [[{"re": x, "im": y}, ...], ...]}
with row-major entries.  A network-state file adds "dims": [n_1, ..., n_N];
a schedule file is a list of {"kind", "operator", "dt"} segments.  Floats
serialize through Python's shortest round-trip repr, so the round trip
is bit-exact.  Entries must be finite both ways: the writers refuse NaN
and infinities, as the readers do.

The codec keeps no Python object per matrix entry beyond parsing or
formatting it.  The reader turns each {"re", "im"} cell of two real
numbers into a ``complex`` while ``json`` parses (any key order,
int-valued parts, extra keys ignored), so a well-formed grid becomes an
array in one call; any other cell goes through the per-cell
conversion, which names what is wrong with it.  The writers format
each row with one ``%`` operation over its interleaved real and
imaginary parts, byte-identical to ``json.dumps`` of the cell dicts; a
schedule's writer formats each distinct operator once and can stream
the file segment by segment.

The path readers ``read_state``, ``read_operator`` and ``read_schedule``
read a file in the layout its writer emits, with any JSON whitespace,
from chunks of text, and decode each grid row by row with the same cell
hook, so reading holds the arrays and a chunk, never the whole text or
its decoded tree.  A schedule's grids are keyed by their text, so it
also holds the text of each distinct grid: each distinct grid is decoded
and converted once and each distinct segment checked once, and equal
segments share one array and one ``Segment``.
Any other file (another key order, an extra or repeated key, a row that
is not n plain cells, invalid JSON) is read whole by
``state_from_json``, ``operator_from_json`` or ``schedule_from_json``,
which raise every error with its own type and message.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
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


def read_text(path) -> str:
    """The whole text of a UTF-8 file; InputError names the first byte that is not."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


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
    _check_finite(m)
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
    _check_finite(m)
    return m


def _check_finite(m):
    if not np.isfinite(m).all():
        raise InputError("operator entries must be finite")


def operator_to_json(op) -> str:
    dim, entries = _entries_text(op)
    return '{"dim": %d, "entries": %s}' % (dim, entries)


def operator_from_json(text: str) -> np.ndarray:
    return operator_from_dict(_loads_object(text))


def _state_parts(data: dict):
    """(rho, dims) of a decoded state object, rho through operator_from_dict."""
    if "dims" not in data:
        raise InputError('state object must carry "dims"')
    return operator_from_dict(data), data["dims"]


def state_to_json(state: "NetworkState") -> str:
    dim, entries = _entries_text(state.rho)
    return '{"dim": %d, "entries": %s, "dims": %s}' % (
        dim, entries, json.dumps([int(n) for n in state.dims]))


def state_from_json(text: str) -> "NetworkState":
    """The state of a JSON text; its decoded tree is freed before the state is validated."""
    from .cluster import NetworkState

    return NetworkState.from_rho(*_state_parts(_loads_object(text)))


def schedule_from_dicts(data) -> "PulseSchedule":
    return _schedule(_segment_parts(data))


def _segment_parts(data):
    """(kind, operator, dt) of each decoded segment, converted in turn; equal operators are one array."""
    if not isinstance(data, list):
        raise InputError("schedule JSON must be a list of segments")
    shared = {}
    for k, entry in enumerate(data):
        try:
            kind = entry["kind"]
            op = operator_from_dict(entry["operator"])
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
        yield kind, shared.setdefault(op.tobytes(), op), dt


def _schedule(parts) -> "PulseSchedule":
    """The schedule of (kind, finite operator, dt) parts; each distinct part is
    checked once, so equal segments share one ``Segment``."""
    from .protocols import PulseSchedule, Segment

    made = {}
    segments = []
    for kind, op, dt in parts:
        key = (kind, id(op), dt.hex())  # hex keeps -0.0 apart
        segment = made.get(key)
        if segment is None:
            segment = made[key] = Segment(kind, op, dt)
        segments.append(segment)
    return PulseSchedule(segments)


def schedule_pieces(schedule):
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
    return "".join(schedule_pieces(schedule))


def schedule_from_json(text: str) -> "PulseSchedule":
    """Schedule from segment-list JSON; equal segments share one array and one ``Segment``."""
    return schedule_from_dicts(_loads(text))


# ---------------------------------------------------------------------------
# path readers: the writers' layouts in chunks of text, anything else whole
# ---------------------------------------------------------------------------

_WS = "[ \t\n\r]*"


def _layout(*tokens) -> re.Pattern:
    """The tokens in turn, with any JSON whitespace around each."""
    return re.compile(_WS.join(["", *tokens, ""]))


# up to the first row of a grid, whose "[" the head takes
_OPERATOR_HEAD = (r"\{", '"dim"', ":", "([1-9][0-9]{0,5})", ",", '"entries"', ":", r"\[")
_HEAD = _layout(*_OPERATOR_HEAD)
_OPEN, _CLOSE, _BLANK = _layout(r"\["), _layout(r"\]"), _layout()
_ROW_END = _layout("([],]?)")
_TAIL = _layout("(?:,", '"dims"', ":", r"(\[[-0-9, \t\n\r]*\])", r")?\}")  # a state's "dims", if any
_SEGMENT_HEAD = _layout(r"\{", '"kind"', ":", '"(hamiltonian|gate)"', ",", '"operator"', ":", *_OPERATOR_HEAD)
_GATE_TAIL = _layout(r"\}", r"\}", "([],])")
# a float token, with a fraction or an exponent, as %r writes a dt
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_HAMILTONIAN_TAIL = _layout(r"\}", ",", '"dt"', ":", _FLOAT, r"\}", "([],])")
_CHUNK = 1 << 16  # characters read at a time; grows to eight rows
_AHEAD = 1 << 10  # characters held past the read position before a pattern is matched


class _Chunks:
    """A text file read in chunks, held from the read position on.

    ``take`` matches a pattern at the read position; ``rows`` finds where a
    grid ends, and ``grid`` decodes it row by row.  A row of cells ends
    at its first "]".  Once that and the separator after it are in the
    buffer, the row is decoded where it lies, with the whole-text route's
    cell hook, and must be ``dim`` converted cells; any other row is no
    row of a writer's layout.  The buffer grows only when a row or a
    pattern runs past its end, by at least its own length, so a long row
    costs linear time.
    """

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.chunk = fh, "", 0, _CHUNK
        self.size = os.fstat(fh.fileno()).st_size
        self.decoder = json.JSONDecoder(object_hook=_cell_hook)

    def more(self) -> bool:
        """Read on, dropping the text before the read position; False at the end of the file."""
        more = self.fh.read(max(self.chunk, len(self.buf) - self.pos))
        self.buf, self.pos = self.buf[self.pos:] + more, 0
        return bool(more)

    def take(self, pattern):
        """The match of ``pattern`` at the read position, which moves past it; else None."""
        while len(self.buf) - self.pos < _AHEAD and self.more():
            pass
        match = pattern.match(self.buf, self.pos)
        if match:
            self.pos = match.end()
        return match

    def rows(self, dim: int, m=None):
        """Where the grid whose "[" was taken last ends, after its ``dim`` rows, which
        are in the buffer then; else None.  With ``m``, row i is decoded into m[i]
        and the read position follows the rows."""
        buf, pos = self.buf, self.pos
        for i in range(dim):
            # read on while the row, or the separator after its first "]", may run on
            while (close := buf.find("]", pos)) < 0 or (end := _ROW_END.match(buf, close + 1)).end() == len(buf):
                pos -= self.pos
                if not self.more():
                    return None
                buf = self.buf
            if end[1] != ("]" if i == dim - 1 else ","):
                return None
            if m is not None:
                row, stop = self.decoder.raw_decode(buf, pos)
                # one "{" per cell: no object nests in a cell, so a row nests no deeper than in the whole text
                if stop != close + 1 or len(row) != dim or set(map(type, row)) != {complex} \
                        or buf.count("{", pos, stop) != dim:
                    return None
                m[i] = row
                self.chunk = max(self.chunk, 8 * (stop - pos))
                self.pos = pos = end.end()
            else:
                pos = end.end()
        self.chunk = max(self.chunk, pos - self.pos)  # a walked grid: the next one in one read
        return pos

    def grid(self, dim: int):
        """The dim x dim array of the grid whose "[" was taken last, not yet checked finite; else None."""
        if 15 * dim * dim > self.size:  # a cell takes 15 characters or more: the array never outgrows the file
            return None
        m = np.empty((dim, dim), dtype=complex)
        return None if self.rows(dim, m) is None else m


def _streamed(path, layout):
    """layout(chunks) of the file at ``path``, which must end there; None where the
    file leaves the layout, is not valid JSON or not UTF-8 (the whole-text route says where)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = _Chunks(fh)
            value = layout(text)
            if value is None or text.take(_BLANK).end() != len(text.buf) or fh.read(1):
                return None
    except (ValueError, RecursionError):
        return None
    return value


def _matrix_layout(text):
    """(matrix, dims or None) of a file in ``state_to_json``'s or ``operator_to_json``'s layout; else None."""
    head = text.take(_HEAD)
    m = head and text.grid(int(head[1]))
    tail = m is not None and np.isfinite(m).all() and text.take(_TAIL)  # the whole-text route refuses NaN
    return (m, tail[1] and json.loads(tail[1])) if tail else None


def _schedule_layout(text):
    """(kind, operator, dt) of each segment of a file in ``schedule_to_json``'s layout; else None.

    A grid is keyed by its dim and its text, so each distinct grid text is
    decoded once and is one array; the dict hashes and compares the texts.
    """
    if not text.take(_OPEN):
        return None
    parts, grids = [], {}
    sep = "]" if text.take(_CLOSE) else ","
    while sep == ",":
        head = text.take(_SEGMENT_HEAD)
        dim = head and int(head[2])
        end = head and text.rows(dim)
        if not end:
            return None
        key = (dim, text.buf[text.pos:end])
        op = grids.get(key)
        if op is None:
            op = grids[key] = text.grid(dim)
            if op is None:
                return None
        else:
            text.pos = end
        gate = head[1] == "gate"
        tail = text.take(_GATE_TAIL if gate else _HAMILTONIAN_TAIL)
        if not tail:
            return None
        parts.append(("gate", op, 0.0) if gate else ("hamiltonian", op, float(tail[1])))
        sep = tail[tail.lastindex]
    # the whole-text route refuses a non-finite grid; one check covers them all
    arrays = [op.ravel() for op in grids.values()]
    return parts if not arrays or np.isfinite(np.concatenate(arrays)).all() else None


def read_state(path) -> "NetworkState":
    """The state of a JSON state file, as ``state_from_json`` reads its text."""
    from .cluster import NetworkState

    parts = _streamed(path, _matrix_layout)
    if parts is None or parts[1] is None:  # the whole-text route decides, and names what is wrong
        parts = _state_parts(_loads_object(read_text(path)))
    return NetworkState.from_rho(*parts)


def read_operator(path) -> np.ndarray:
    """The matrix of a JSON operator file, as ``operator_from_json`` reads its text."""
    parts = _streamed(path, _matrix_layout)
    return operator_from_json(read_text(path)) if parts is None or parts[1] is not None else parts[0]


def read_schedule(path) -> "PulseSchedule":
    """The schedule of a JSON schedule file, as ``schedule_from_json`` reads its text."""
    parts = _streamed(path, _schedule_layout)
    return schedule_from_json(read_text(path)) if parts is None else _schedule(parts)


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
