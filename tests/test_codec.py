"""The operator JSON codec against the per-entry dict oracles, the
row-by-row state reader against the whole-text read, and the exit codes
of every command that reads operator JSON."""

import bisect
import json
import os
import re
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylnet import coherence, io, protocols
from weylnet.cli import main
from weylnet.cluster import NetworkState
from weylnet.errors import InputError
from weylnet.protocols import PulseSchedule, Segment, echo_schedule

# derandomized so every run checks the same examples; no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# signed zeros, the smallest subnormal, the largest float and integral floats
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           1.0, -3.0, 2.0 ** 60, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10 ** 6, 10 ** 6).map(float))


def bits(m):
    """Entries as raw 64-bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


@st.composite
def matrices(draw, max_dim=5, dim=None):
    dim = dim or draw(st.integers(1, max_dim))
    values = draw(st.lists(FLOATS, min_size=2 * dim * dim, max_size=2 * dim * dim))
    return np.array(values).view(complex).reshape(dim, dim)


@st.composite
def hermitian_matrices(draw, dim):
    """Mirrored entries, with no arithmetic, so special values pass the hermiticity check."""
    m = draw(matrices(dim=dim))
    below = np.tril_indices(dim, -1)
    m[below] = m.conj().T[below]
    m[np.diag_indices(dim)] = m.diagonal().real
    return m


def gate(dim, seed):
    """A permutation times unit phases: exactly unitary."""
    rng = np.random.default_rng(seed)
    phases = np.array([1, -1, 1j, -1j])[rng.integers(4, size=dim)]
    return np.eye(dim, dtype=complex)[rng.permutation(dim)] * phases


def random_state(dims, rank, seed):
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = v @ v.conj().T
    return NetworkState.from_rho(rho / np.trace(rho).real, dims)


@st.composite
def schedules(draw):
    """Segments sharing one Hamiltonian array, holding equal copies of it, a second
    Hamiltonian, and gates."""
    dim = draw(st.integers(1, 4))
    h = draw(hermitian_matrices(dim))
    other = draw(hermitian_matrices(dim))
    durations = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 2.0]),
                          st.floats(0.0, 10.0))
    segments = []
    for kind in draw(st.lists(st.sampled_from(["shared", "copy", "other", "gate"]), max_size=8)):
        if kind == "gate":
            segments.append(Segment("gate", gate(dim, draw(st.integers(0, 99)))))
        else:
            op = {"shared": h, "copy": h.copy(), "other": other}[kind]
            segments.append(Segment("hamiltonian", op, draw(durations)))
    return PulseSchedule(segments)


class TestEncoding:
    @PROPERTY
    @given(matrices())
    def test_operator_bytes_match_oracle(self, m):
        assert io.operator_to_json(m) == json.dumps(oracles.operator_to_dict(m))

    @PROPERTY
    @given(matrices(), st.lists(st.integers(2, 5), min_size=1, max_size=4))
    def test_state_bytes_match_oracle(self, m, dims):
        state = SimpleNamespace(rho=m, dims=tuple(dims))  # the writer reads rho and dims only
        assert io.state_to_json(state) == json.dumps(oracles.state_to_dict(state))

    def test_network_state_bytes_match_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        rho = v @ v.conj().T
        state = NetworkState.from_rho(rho / np.trace(rho).real, (2, 3, 2))
        assert io.state_to_json(state) == json.dumps(oracles.state_to_dict(state))

    @PROPERTY
    @given(schedules())
    def test_schedule_bytes_match_oracle(self, schedule):
        assert io.schedule_to_json(schedule) == json.dumps(oracles.schedule_to_dicts(schedule))

    @PROPERTY
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_trajectory_bytes_match_oracle(self, dim, steps, data):
        values = st.one_of(FLOATS, st.just(1e300))
        states = np.array(data.draw(st.lists(values, min_size=2 * dim * steps, max_size=2 * dim * steps)))
        states = states.view(complex).reshape(steps, dim)
        times = data.draw(st.lists(values, min_size=steps, max_size=steps))
        want = oracles.trajectory_csv(times, states)
        assert io.trajectory_csv(times, states) == want
        assert io.trajectory_csv(times, list(states)) == want  # a list of arrays, as echo passes
        assert io.trajectory_csv(np.array(times), np.repeat(states, 2, axis=0)[::2]) == want  # strided
        assert io.trajectory_csv(times, np.asfortranarray(states)) == want

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_refused(self, value):
        # the readers refuse NaN and Infinity tokens, so the writers do not emit them
        m = np.array([[1.0, complex(0.5, value)], [complex(value, -0.0), 2.0]])
        with pytest.raises(InputError, match="finite"):
            io.operator_to_json(m)
        with pytest.raises(InputError, match="finite"):
            io.state_to_json(SimpleNamespace(rho=m, dims=(2,)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            io.operator_to_json(np.zeros((2, 3)))


def assert_schedule_matches(schedule, expected):
    """Segments bit-identical to the oracle's (kind, operator, dt) list."""
    assert len(schedule.segments) == len(expected)
    for seg, (kind, op, dt) in zip(schedule.segments, expected):
        assert seg.kind == kind
        assert_bit_identical(seg.operator, op)
        assert float(seg.duration).hex() == dt.hex()


def reserialize(data, seed):
    """The same JSON value with shuffled key order, int-valued integral cells,
    extra keys on some cells and varying whitespace."""
    rng = np.random.default_rng(seed)

    def value(x):
        if isinstance(x, dict):
            if set(x) == {"re", "im"}:
                cell = {k: int(v) if v.is_integer() and rng.random() < 0.5 else v
                        for k, v in x.items()}
                if rng.random() < 0.2:
                    cell["note"] = "extra"
                x = cell
            keys = list(x)
            rng.shuffle(keys)
            return {k: value(x[k]) for k in keys}
        if isinstance(x, list):
            return [value(v) for v in x]
        return x

    indent = [None, 0, 2][rng.integers(3)]
    separators = [(",", ":"), (", ", ": "), (" ,\n", " :\t")][rng.integers(3)]
    return json.dumps(value(data), indent=indent, separators=separators)


class TestDecoding:
    @PROPERTY
    @given(matrices(), st.integers(0, 2 ** 32 - 1))
    def test_operator_matches_oracle_reader(self, m, seed):
        text = reserialize(oracles.operator_to_dict(m), seed)
        assert_bit_identical(io.operator_from_json(text), oracles.operator_from_json(text))

    @PROPERTY
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
    def test_state_matches_oracle_reader(self, dims, seed):
        state = random_state(dims, 2, seed)
        text = reserialize(oracles.state_to_dict(state), seed)
        again = io.state_from_json(text)
        assert again.dims == tuple(dims)
        assert_bit_identical(again.rho, oracles.operator_from_json(text))

    @PROPERTY
    @given(schedules(), st.integers(0, 2 ** 32 - 1))
    def test_schedule_matches_oracle_reader(self, schedule, seed):
        text = reserialize(oracles.schedule_to_dicts(schedule), seed)
        assert_schedule_matches(io.schedule_from_json(text), oracles.schedule_operators_from_json(text))

    # one cell replaced: accepted values decode as the oracle decodes them,
    # rejected ones raise the oracle's exception class and message
    CELLS = ['{"re": "0.5", "im": 0}', '{"re": "x", "im": 0}', '{"re": "nan", "im": 0}',
             '{"re": 0.5, "im": "inf"}', '{"re": true, "im": false}', '{"re": null, "im": 0}',
             '{"re": [1, 2], "im": 0}', '{"re": 1.0}', '{"im": 1.0}', '{}',
             '{"re": 1.0, "im": 0.5, "x": 1}', '{"im": -2, "re": 3}', '"x"', '5', 'null', '[1, 2]',
             '{"re": %s, "im": 0}' % ("1" * 401), '{"re": 0, "im": -%s}' % ("9" * 400),
             '{"re": 1e400, "im": 0}', '{"re": NaN, "im": 0}']

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell[:24])
    def test_malformed_cell_matches_oracle_reader(self, cell):
        self._compare(cell, same_message=True)

    def test_nested_object_cell_raises_oracle_class(self):
        # the inner object has become a complex by the time the outer cell is
        # converted, so the message names 'complex' where the oracle names 'dict'
        self._compare('{"re": {"re": 1, "im": 2}, "im": 0}', same_message=False)

    @staticmethod
    def _compare(cell, same_message):
        text = '{"dim": 2, "entries": [[{"re": 1.0, "im": 0.0}, %s], [{"re": 0, "im": 2}, ' \
               '{"re": -0.0, "im": 5e-324}]]}' % cell
        try:
            expected = oracles.operator_from_json(text)
        except Exception as exc:  # noqa: BLE001 - the oracle's exception is the expectation
            with pytest.raises(type(exc)) as got:
                io.operator_from_json(text)
            if same_message:
                assert str(got.value) == str(exc)
            return
        assert_bit_identical(io.operator_from_json(text), expected)


# ---------------------------------------------------------------------------
# schedule files: each distinct grid decoded once, the writer streamed
# ---------------------------------------------------------------------------

def traceless_hamiltonian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return h - np.trace(h).real / dim * np.eye(dim)


ECHO, _ = echo_schedule(np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]]), 0.8, cycles=2)
TEXT = io.schedule_to_json(ECHO)  # 8 segments, one Hamiltonian grid and one gate grid
OTHER = json.dumps(oracles.operator_to_dict(np.diag([1.0, -1.0]))["entries"])  # hermitian, unitary


def respaced(text):
    """The same segments, every other one written without spaces."""
    return "[" + ", ".join(json.dumps(seg, separators=[(", ", ": "), (",", ":")][k % 2])
                           for k, seg in enumerate(json.loads(text))) + "]"


EDGE_TEXTS = {
    "escaped key": TEXT.replace('"entries"', '"entr\\u0069es"'),
    "escaped repeated key, first": TEXT.replace('"entries": ', '"entries": %s, "entr\\u0069es": ' % OTHER, 1),
    "escaped repeated key, last": TEXT.replace("]]}", ']], "entr\\u0069es": %s}' % OTHER, 1),
    "repeated key, first": TEXT.replace('"entries": ', '"entries": %s, "entries": ' % OTHER, 1),
    "repeated key, last": TEXT.replace("]]}", ']], "entries": %s}' % OTHER, 1),
    "repeated key in every operator": TEXT.replace("]]}", ']], "entries": %s}' % OTHER),
    "no spaces": json.dumps(json.loads(TEXT), separators=(",", ":")),
    "indented": json.dumps(json.loads(TEXT), indent=2),
    "whitespace around the colon": TEXT.replace('"entries": ', '"entries" \n:\t\r '),
    "]] in an extra cell key": TEXT.replace("[[{", '[[{"x": [[1]], '),
    "]] in one extra cell key": TEXT.replace("[[{", '[[{"x": [[1]], ', 1),
    "extra operator key holding a grid": TEXT.replace('{"dim": ', '{"spare": %s, "dim": ' % OTHER),
    "entries key before each operator": TEXT.replace(
        '{"kind": ', '{"note": {"entries": %s}, "kind": ' % OTHER),
    "entries key nested in a cell": TEXT.replace("[[{", '[[{"entries": [[1]], '),
    "entries key nested in one cell": TEXT.replace("[[{", '[[{"entries": %s, ' % OTHER, 1),
    "the string value entries": TEXT.replace('{"kind": ', '{"note": "entries", "entries": "entries", '
                                                         '"kind": '),
    "equal grids spelled differently": respaced(TEXT),
    "repeated grids out of turn": "[" + ", ".join(json.dumps(json.loads(TEXT)[k])
                                                  for k in (0, 2, 1, 4, 3, 5, 7, 6)) + "]",
    "a digit after the last grid": TEXT[:TEXT.rindex("]]}")] + "]]0}" + TEXT[TEXT.rindex("]]}") + 3:],
    "a grid that ends before the first ]]": TEXT.replace('{"dim": 2, "entries": ', '{"entries": ').replace(
        "]]}", '] ], "dim": 2, "x": [[0]]}'),
    "truncated mid-grid": TEXT[:TEXT.index("]]", TEXT.index("]]") + 2) - 9],
    "truncated in the last grid": TEXT[:TEXT.rindex("]]") - 3],
}

# valid texts that the chunked reader leaves to the whole-text decode: every
# layout but the writer's, however spaced
DEFERRED = {"escaped key", "escaped repeated key, first", "escaped repeated key, last", "repeated key, first",
            "repeated key, last", "repeated key in every operator", "]] in an extra cell key",
            "]] in one extra cell key", "extra operator key holding a grid", "entries key before each operator",
            "entries key nested in a cell", "entries key nested in one cell", "the string value entries",
            "a grid that ends before the first ]]"}


def grid_text(text, k=0):
    """The k-th "entries" grid of a schedule text written by io."""
    start = 0
    for _ in range(k + 1):
        start = text.index('"entries": ', start) + len('"entries": ')
    return text[start:text.index("]]", start) + 2]


def read_outcome(read):
    """The value of a read, or (exception class, message)."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def schedule_outcome(read):
    """[(kind, operator bits, dt as hex)] of a read schedule, or (exception class, message)."""
    return read_outcome(lambda: [(seg.kind, bits(seg.operator).tobytes(), float(seg.duration).hex())
                                 for seg in read().segments])


def schedule_file(tmp_path, text):
    path = tmp_path / "schedule.json"
    path.write_text(text)
    return path


def peak(call):
    """The tracemalloc peak of a call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScheduleReader:
    @pytest.mark.parametrize("name", EDGE_TEXTS)
    def test_edge_case_matches_oracle_reader(self, name, tmp_path):
        text = EDGE_TEXTS[name]
        path = schedule_file(tmp_path, text)
        exit_code = CliRunner().invoke(main, ["echo", "--schedule", str(path)]).exit_code
        parts = io._streamed(path, io._schedule_layout)  # the chunked route itself
        try:
            expected = oracles.schedule_operators_from_json(text)
        except ValueError:  # invalid JSON or a bad operator: the package's InputError
            error = read_outcome(lambda: io.schedule_from_json(text))
            assert error[0] is InputError
            assert read_outcome(lambda: io.read_schedule(path)) == error
            assert exit_code == 2 and parts is None
            return
        assert exit_code == 0
        assert_schedule_matches(io.schedule_from_json(text), expected)
        assert_schedule_matches(io.read_schedule(path), expected)
        # the chunked route gives the oracle's segments, or it defers
        assert (parts is None) == (name in DEFERRED)
        if parts is not None:
            assert_schedule_matches(io._schedule(parts), expected)

    def test_equal_grids_spelled_differently_share_one_array(self):
        segments = io.schedule_from_json(EDGE_TEXTS["equal grids spelled differently"]).segments
        assert len({id(seg.operator) for seg in segments}) == 2

    def test_cost_follows_the_distinct_operators(self, monkeypatch, tmp_path):
        schedule, _ = echo_schedule(traceless_hamiltonian(8, 23), 0.9, cycles=4)
        path = schedule_file(tmp_path, io.schedule_to_json(schedule))
        unitary = schedule.unitary()
        calls = Counter()

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [(io, "_cell_hook"), (io, "operator_from_dict"), (Segment, "__post_init__"),
                            (protocols, "hermitian_expm")]:
            count(owner, name)
        replayed = io.read_schedule(path)
        assert np.array_equal(replayed.unitary(), unitary)
        assert len(replayed.segments) == 64
        assert len({id(seg) for seg in replayed.segments}) == 2
        # the cells of the two 8 x 8 grids, and no segment or operator object
        # through the hook or the per-object conversion; one exponential, as
        # before the grids were shared (a guard: protocols caches it)
        assert calls == {"_cell_hook": 2 * 64, "__post_init__": 2, "hermitian_expm": 1}

    def test_distinct_equal_length_grids_scan_in_linear_time(self, tmp_path):
        # 20 000 distinct 1-dim grids whose texts all have one length; a memo that
        # compared each grid with every earlier one of its length took minutes
        text = io.schedule_to_json(PulseSchedule(
            [Segment("hamiltonian", np.array([[10000.0 + k]]), 0.5) for k in range(20000)]))
        assert len({len(grid_text(text, k)) for k in (0, 9999, 19999)}) == 1
        path = schedule_file(tmp_path, text)

        def best(decode):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                data = decode()
                times.append(time.perf_counter() - start)
            return min(times), data

        loads_s, expected = best(lambda: json.loads(text, object_hook=io._cell_hook))
        grids_s, parts = best(lambda: io._streamed(path, io._schedule_layout))
        assert [(kind, op.shape, complex(op[0, 0]), dt) for kind, op, dt in parts] == [
            (seg["kind"], (1, 1), seg["operator"]["entries"][0][0], seg["dt"]) for seg in expected]
        assert len({id(op) for _, op, _ in parts}) == 20000
        assert grids_s < 10 * loads_s + 0.05, (grids_s, loads_s)

    # texts nested k levels deeper than a schedule: an extra segment key holding an
    # "entries" key with the repeated Hamiltonian grid, an extra key in every cell,
    # and one grid in every operator whose one cell is a list k deep (each nested
    # so that no "]]" ends a grid early)
    NESTED = {
        "entries key in an extra segment key": lambda k: TEXT.replace(
            '{"kind": ', '{"x": %s{"entries": %s}%s, "kind": ' % ("[" * k, grid_text(TEXT), "]" * k), 1),
        "extra cell key": lambda k: TEXT.replace('{"re": ', '{"x": %s0%s, "re": ' % ('{"a": ' * k, "}" * k)),
        "list cell": lambda k: re.sub(r'"entries": \[\[.*?\]\]',
                                      lambda _: '"entries": [[%s0%s, 0]]' % ("[0, " * k, ", 0]" * k), TEXT),
    }

    @pytest.mark.parametrize("name", NESTED)
    def test_routes_agree_at_the_nesting_limit(self, name, tmp_path):
        # from some k on the whole-text decode refuses the depth; the path reader
        # must refuse it at the same k, with the same message
        text_at = self.NESTED[name]

        def message(read, k):
            path = schedule_file(tmp_path, text_at(k))
            try:
                read(path)
            except InputError as exc:
                return str(exc)
            return "read"

        def whole(path):  # the whole-text route, called as deep as read_schedule calls it
            return io.schedule_from_json(io.read_text(path))

        refused = bisect.bisect(range(sys.getrecursionlimit()), False,
                                key=lambda k: message(whole, k).startswith("invalid JSON"))
        assert refused > 100
        for k in range(refused - 6, refused + 6):
            assert message(io.read_schedule, k) == message(whole, k), k

    def test_distinct_grids_add_no_memo_entries(self, tmp_path):
        # 2 000 distinct 2-dim Hamiltonians: the reader's grid and Segment entries
        # keep it near a plain decode that builds one Segment per segment
        rng = np.random.default_rng(5)
        text = io.schedule_to_json(PulseSchedule(
            [Segment("hamiltonian", np.diag(rng.normal(size=2)), 0.5) for _ in range(2000)]))
        path = schedule_file(tmp_path, text)

        def plain():
            return PulseSchedule([Segment(seg["kind"], io.operator_from_dict(seg["operator"]), seg["dt"])
                                  for seg in json.loads(text, object_hook=io._cell_hook)])

        assert peak(lambda: io.read_schedule(path)) < 1.25 * peak(plain)

    def test_distinct_grids_keep_no_second_copy_of_their_text(self, tmp_path):
        # 32 distinct 16-dim grids: the reader holds one text per distinct grid (its
        # key) and the arrays, and reading holds up to four chunks at once (the
        # buffer, the bytes read, their text and the joined buffer); a second copy
        # of every grid's text, or the text with its decoded tree, would add about
        # the file again
        rng = np.random.default_rng(3)
        path = schedule_file(tmp_path, io.schedule_to_json(PulseSchedule(
            [Segment("hamiltonian", np.diag(rng.normal(size=16)), 0.5) for _ in range(32)])))
        arrays = 32 * 16 * 16 * 16
        assert peak(lambda: io.read_schedule(path)) < 1.2 * (os.path.getsize(path) + arrays) + 4 * io._CHUNK


class TestScheduleWriter:
    def test_schedule_out_bytes_match_oracle(self, tmp_path):
        h = traceless_hamiltonian(4, 7)
        h_path, out = tmp_path / "h.json", tmp_path / "schedule.json"
        h_path.write_text(io.operator_to_json(h))
        result = CliRunner().invoke(main, ["echo", "--hamiltonian", str(h_path), "--dt", "0.7",
                                           "--cycles", "3", "--schedule-out", str(out)])
        assert result.exit_code == 0, result.output
        schedule, _ = echo_schedule(h, 0.7, cycles=3)
        written = out.read_bytes().decode()
        assert written == io.schedule_to_json(schedule) + "\n"
        assert written == json.dumps(oracles.schedule_to_dicts(schedule)) + "\n"

    def test_replay_writes_the_file_it_read(self, tmp_path):
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        runner = CliRunner()
        assert runner.invoke(main, ["echo", "--dim", "5", "--cycles", "2",
                                    "--schedule-out", str(first)]).exit_code == 0
        assert runner.invoke(main, ["echo", "--schedule", str(first),
                                    "--schedule-out", str(again)]).exit_code == 0
        assert again.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# exit-code fuzz: mutated state, operator and schedule files
# ---------------------------------------------------------------------------

class Pairs(list):
    """A JSON object as ordered (key, value) pairs; keys may repeat."""


class Raw(str):
    """JSON text written as is (tokens json.dumps will not write)."""


def tree(x):
    if isinstance(x, dict):
        return Pairs((k, tree(v)) for k, v in x.items())
    if isinstance(x, list):
        return [tree(v) for v in x]
    return x


def dump(x) -> str:
    if isinstance(x, Raw):
        return x
    if isinstance(x, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(dump(v) for v in x) + "]"
    return json.dumps(x)


def paths(x, prefix=()):
    """Every position in the tree, each as the child indices leading to it."""
    yield prefix
    children = [v for _, v in x] if isinstance(x, Pairs) else x if isinstance(x, list) else []
    for i, child in enumerate(children):
        yield from paths(child, prefix + (i,))


def mutate(root, path, kind, value):
    """Apply one mutation at ``path``; returns the (possibly new) root."""
    if not path:
        return value if kind == "retype" else root
    parent = root
    for i in path[:-1]:
        parent = parent[i][1] if isinstance(parent, Pairs) else parent[i]
    i = path[-1]
    node = parent[i][1] if isinstance(parent, Pairs) else parent[i]
    if kind == "drop":
        del parent[i]
    elif kind == "duplicate":  # a repeated key, or one more row or cell
        parent.insert(i, (parent[i][0], value) if isinstance(parent, Pairs) else node)
    elif kind == "reorder" and isinstance(node, list):
        node.reverse()
    elif kind == "retype":
        parent[i] = (parent[i][0], value) if isinstance(parent, Pairs) else value
    return root


VALUES = st.sampled_from([
    Raw('"x"'), Raw('"0.5"'), True, False, None, 0, -1, 7, 2.5, Raw("1e400"), Raw("NaN"),
    Raw("-Infinity"), Raw("9" * 401), Raw("9" * 4400), [], [1.0, 2.0], Pairs(),
    Pairs([("re", 1.0), ("im", 0.0)]), Pairs([("re", Pairs([("re", 1), ("im", 2)])), ("im", 0)]),
])


def _base_files():
    state = random_state((2, 2), 2, 5)
    h = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])
    schedule, _ = echo_schedule(h, 0.8)
    return {
        "state": io.state_to_json(state),
        "hamiltonian": io.operator_to_json(h),
        "schedule": io.schedule_to_json(schedule),
    }


def mutated(text, data):
    """The text truncated, or its JSON value with one to three mutations."""
    if data.draw(st.booleans(), label="truncate"):
        return text[:data.draw(st.integers(0, len(text) - 1))]
    root = tree(json.loads(text))
    for _ in range(data.draw(st.integers(1, 3))):
        where = list(paths(root))
        path = where[data.draw(st.integers(0, len(where) - 1))]
        root = mutate(root, path, data.draw(st.sampled_from(
            ["drop", "duplicate", "reorder", "retype"])), data.draw(VALUES))
    return dump(root)


BASE = _base_files()
COMMANDS = {"state": [["analyze"], ["collective-decompose"]],
            "hamiltonian": [["echo", "--dt", "0.7", "--hamiltonian"]],
            "schedule": [["echo", "--schedule"]]}


class TestReaderExitCodes:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_mutated_files_never_exit_1(self, data):
        kind = data.draw(st.sampled_from(sorted(BASE)))
        text = mutated(BASE[kind], data)
        command = data.draw(st.sampled_from(COMMANDS[kind]))
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "input.json")
            with open(path, "w") as fh:
                fh.write(text)
            result = CliRunner().invoke(main, command + [path])
        assert result.exit_code in (0, 2, 3, 4), (text[:300], result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["hamiltonian", "schedule"]), st.data())
    def test_mutated_files_match_whole_text_route(self, kind, data):
        # read_operator and read_schedule give what the whole-text read gives,
        # bit for bit or error for error
        text = mutated(BASE[kind], data)
        with tempfile.TemporaryDirectory() as work:
            path = write(Path(work), text)
            if kind == "hamiltonian":
                assert read_outcome(lambda: bits(io.read_operator(path)).tobytes()) == \
                    read_outcome(lambda: bits(io.operator_from_json(text)).tobytes())
            else:
                assert schedule_outcome(lambda: io.read_schedule(path)) == \
                    schedule_outcome(lambda: io.schedule_from_json(text))


# ---------------------------------------------------------------------------
# state files: read row by row in the written layout, whole otherwise
# ---------------------------------------------------------------------------

def state_outcome(read):
    """("state", rho bits, dims) of a read, or (exception class, message)."""
    try:
        state = read()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return "state", bits(state.rho).tobytes(), state.dims


def state_route(path, kind="state"):
    """"rows" where read_state (or, for kind "operator", read_operator) reads the
    file row by row, "whole" where it leaves the file to the whole-text decode."""
    parts = io._streamed(path, io._matrix_layout)
    return "rows" if parts is not None and (parts[1] is None) == (kind == "operator") else "whole"


def assert_state_routes_agree(path):
    """read_state gives what the whole-text read gives, bit for bit or error for error."""
    expected = state_outcome(lambda: io.state_from_json(io.read_text(path)))
    assert state_outcome(lambda: io.read_state(path)) == expected
    return expected


def write(tmp_path, text):
    path = tmp_path / "state.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        with open(path, "w", newline="") as fh:  # "\r\n" kept as written
            fh.write(text)
    return str(path)


STATE = BASE["state"]  # a 4-dim state on dims (2, 2)
FIRST_CELL = STATE[STATE.index("[[") + 2:STATE.index("}") + 1]
LAST_ROW = STATE.rindex(", [")
STATE_TEXTS = {
    # the written layout, however spaced: read by rows
    "as written": (STATE, "rows"),
    "indented": (json.dumps(json.loads(STATE), indent=2), "rows"),
    "no spaces": (json.dumps(json.loads(STATE), separators=(",", ":")), "rows"),
    "crlf and tabs": (STATE.replace(", ", ",\r\n\t").replace(": ", " :\t"), "rows"),
    "trailing whitespace": (STATE + "\n \r\n\t", "rows"),
    "extra key in a cell": (STATE.replace(FIRST_CELL, FIRST_CELL[:-1] + ', "x": 1}'), "rows"),
    "int-valued cell": (STATE.replace(FIRST_CELL, '{"re": 1, "im": 0}'), "rows"),
    "dims off the dimension": (STATE.replace('"dims": [2, 2]', '"dims": [2, 3]'), "rows"),
    "dims over the cap": (STATE.replace('"dims": [2, 2]', '"dims": [4096, 2]'), "rows"),
    "a negative dims entry": (STATE.replace('"dims": [2, 2]', '"dims": [-2, 2]'), "rows"),
    "empty dims": (STATE.replace('"dims": [2, 2]', '"dims": []'), "rows"),
    "not hermitian": (STATE.replace(FIRST_CELL, '{"re": 0.5, "im": 0.25}'), "rows"),
    # any other layout, and every malformed file (non-finite cells too): read whole
    "NaN cell": (STATE.replace(FIRST_CELL, '{"re": NaN, "im": 0}'), "whole"),
    "out-of-range float cell": (STATE.replace(FIRST_CELL, '{"re": 1e400, "im": 0}'), "whole"),
    "dims first": (json.dumps({"dims": [2, 2], **json.loads(STATE)}), "whole"),
    "entries first": (json.dumps({k: json.loads(STATE)[k] for k in ("entries", "dim", "dims")}), "whole"),
    "extra key": (STATE[:-1] + ', "note": 1}', "whole"),
    "extra key first": ('{"note": 1, ' + STATE[1:], "whole"),
    "duplicate dims": (STATE[:-1] + ', "dims": [4]}', "whole"),
    "duplicate dim": (STATE.replace('{"dim": 4', '{"dim": 3, "dim": 4'), "whole"),
    "escaped key": (STATE.replace('"dim"', '"d\\u0069m"'), "whole"),
    "bool cell": (STATE.replace(FIRST_CELL, '{"re": true, "im": false}'), "whole"),
    "string cell": (STATE.replace(FIRST_CELL, '{"re": "x", "im": 0}'), "whole"),
    "out-of-range int cell": (STATE.replace(FIRST_CELL, '{"re": %s, "im": 0}' % ("9" * 400)), "whole"),
    "too many digits": (STATE.replace(FIRST_CELL, '{"re": %s, "im": 0}' % ("9" * 4400)), "whole"),
    "list cell": (STATE.replace(FIRST_CELL, "[1, 2]"), "whole"),
    "number cell": (STATE.replace(FIRST_CELL, "0.5"), "whole"),
    "one cell short": (STATE.replace(FIRST_CELL + ", ", "", 1), "whole"),
    "one row short": (STATE[:LAST_ROW] + STATE[STATE.index("]]", LAST_ROW) + 1:], "whole"),
    "one-cell row": (STATE.replace(STATE[STATE.index("[["):STATE.index("]") + 1], "[[" + FIRST_CELL + "]", 1),
                     "whole"),
    "rows without a comma": (STATE.replace("}], [{", "}] [{", 1), "whole"),
    "entries left open": (STATE.replace(']], "dims"', '], , "dims"'), "whole"),
    "a ] in an extra cell key": (STATE.replace(FIRST_CELL, FIRST_CELL[:-1] + ', "x": "], "}'), "whole"),
    "one row more": (STATE.replace("[[", "[" + STATE[STATE.index("[["):STATE.index("]") + 1] + ", [", 1),
                     "whole"),
    "nested row": (STATE.replace("[[", "[[[", 1).replace("]", "]]", 1), "whole"),
    "trailing text": (STATE + " 0", "whole"),
    "trailing object": (STATE + "{}", "whole"),
    "trailing text after a chunk": (STATE + " " * 200_000 + "0", "whole"),
    "dim too large": (STATE.replace('"dim": 4', '"dim": 5000'), "whole"),
    "dim near a million": (STATE.replace('"dim": 4', '"dim": 999999'), "whole"),
    "dim a million": (STATE.replace('"dim": 4', '"dim": 1000000'), "whole"),
    "dim zero": (STATE.replace('"dim": 4', '"dim": 0'), "whole"),
    "dim negative": (STATE.replace('"dim": 4', '"dim": -4'), "whole"),
    "dim a float": (STATE.replace('"dim": 4', '"dim": 4.0'), "whole"),
    "dim true": (STATE.replace('"dim": 4', '"dim": true'), "whole"),
    "dims of floats": (STATE.replace('"dims": [2, 2]', '"dims": [2.0, 2]'), "whole"),
    "dims nested": (STATE.replace('"dims": [2, 2]', '"dims": [[2], 2]'), "whole"),
    "dims a number": (STATE.replace('"dims": [2, 2]', '"dims": 4'), "whole"),
    "no dims": (io.operator_to_json(np.diag([0.5, 0.5])), "whole"),
    "byte order mark": ("﻿" + STATE, "whole"),
    "invalid UTF-8": (STATE.encode().replace(b'"im"', b'"i\xffm"', 1), "whole"),
    "invalid UTF-8 after the rows": (STATE.encode()[:-1] + b"\xff}", "whole"),
    "empty": ("", "whole"),
    "truncated in a row": (STATE[:STATE.index("]") - 3], "whole"),
    "truncated after the rows": (STATE[:STATE.index("]]") + 2], "whole"),
    "truncated in dims": (STATE[:-3], "whole"),
}


class TestStateReader:
    @pytest.mark.parametrize("name", STATE_TEXTS)
    def test_routes_agree(self, name, tmp_path):
        text, route = STATE_TEXTS[name]
        path = write(tmp_path, text)
        assert state_route(path) == route
        assert_state_routes_agree(path)

    @PROPERTY
    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3).filter(lambda d: np.prod(d) <= 48),
           st.integers(1, 4), st.sampled_from([None, 0, 2]), st.sampled_from([(", ", ": "), (",", ":")]),
           st.integers(0, 2 ** 32 - 1))
    def test_written_states_are_read_by_rows(self, dims, rank, indent, separators, seed):
        state = random_state(dims, rank, seed)
        with tempfile.TemporaryDirectory() as work:
            for text in (io.state_to_json(state),
                         json.dumps(oracles.state_to_dict(state), indent=indent, separators=separators)):
                path = write(Path(work), text)
                assert state_route(path) == "rows"
                outcome = assert_state_routes_agree(path)
                assert outcome == ("state", bits(state.rho).tobytes(), tuple(dims))

    @PROPERTY
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
    def test_reserialized_states_match_whole_text_route(self, dims, seed):
        text = reserialize(oracles.state_to_dict(random_state(dims, 2, seed)), seed)
        with tempfile.TemporaryDirectory() as work:
            assert_state_routes_agree(write(Path(work), text))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_mutated_states_match_whole_text_route(self, data):
        text = mutated(STATE, data)
        with tempfile.TemporaryDirectory() as work:
            assert_state_routes_agree(write(Path(work), text))

    def test_row_longer_than_a_chunk(self, tmp_path):
        # 3 MB of whitespace inside the first row: the buffer grows until the row ends
        text = STATE.replace(FIRST_CELL + ", ", FIRST_CELL + "," + " " * 3_000_000, 1)
        path = write(tmp_path, text)
        assert state_route(path) == "rows"
        assert assert_state_routes_agree(path)[0] == "state"


# the state texts as operator files: every case but those about "dims", with
# the "dims" member dropped
DIMS_MEMBER = '[ \t\n\r]*,[ \t\n\r]*"dims"[ \t\n\r]*:[ \t\n\r]*\\[[-0-9, \t\n\r]*\\]'


def without_dims(text):
    if isinstance(text, bytes):
        return re.sub(DIMS_MEMBER.encode(), b"", text, count=1)
    return re.sub(DIMS_MEMBER, "", text, count=1)


OPERATOR_TEXTS = {name: (without_dims(text), route) for name, (text, route) in STATE_TEXTS.items()
                  if "dims" not in name}


class TestOperatorReader:
    @pytest.mark.parametrize("name", OPERATOR_TEXTS)
    def test_routes_agree(self, name, tmp_path):
        # read_operator gives what the whole-text read gives, bit for bit or error for error
        text, route = OPERATOR_TEXTS[name]
        path = write(tmp_path, text)
        assert state_route(path, "operator") == route
        expected = read_outcome(lambda: bits(io.operator_from_json(io.read_text(path))).tobytes())
        assert read_outcome(lambda: bits(io.read_operator(path)).tobytes()) == expected


@pytest.fixture(scope="module")
def large_echo_file(tmp_path_factory):
    """The echo schedule of a dense 32-dim Hamiltonian over 4 cycles, as
    ``echo --schedule-out`` writes it: 256 segments, about 13 MB."""
    path = tmp_path_factory.mktemp("large") / "echo.json"
    schedule, _ = echo_schedule(traceless_hamiltonian(32, 29), 0.6, cycles=4)
    path.write_text(io.schedule_to_json(schedule))
    return str(path), schedule


class TestLargeScheduleFile:
    def test_memory_is_the_distinct_operators_and_a_chunk(self, large_echo_file):
        path, schedule = large_echo_file
        assert os.path.getsize(path) > 10e6
        distinct = {id(seg.operator): seg.operator.nbytes for seg in schedule.segments}
        assert len(distinct) == 2
        # the reading holds the two operators, their texts and a chunk or two;
        # the whole-text route holds the text and its decoded tree
        assert peak(lambda: io.read_schedule(path)) < sum(distinct.values()) + 2e6
        assert peak(lambda: io.schedule_from_json(io.read_text(path))) > os.path.getsize(path)
        assert_schedule_matches(io.read_schedule(path), [(seg.kind, seg.operator, float(seg.duration))
                                                         for seg in schedule.segments])


@pytest.fixture(scope="module")
def large_state_file(tmp_path_factory):
    """A 448-dim rank-3 state as state_to_json writes it: about 12 MB."""
    path = tmp_path_factory.mktemp("large") / "state.json"
    state = random_state([448], 3, seed=11)
    path.write_text(io.state_to_json(state))
    return str(path), state


class TestLargeStateFile:
    def test_memory_is_the_matrix_and_a_chunk(self, large_state_file):
        path, state = large_state_file
        assert os.path.getsize(path) > 8e6

        nbytes = state.rho.nbytes
        # the reading holds the matrix and one chunk of text; the whole-text
        # route holds the text and its decoded tree, over twice the matrix here
        assert peak(lambda: io._streamed(path, io._matrix_layout)) < nbytes + 2e6
        # validation's own matrix-sized temporaries come after the text is gone
        validation = peak(lambda: coherence.validate_state(state.rho))
        assert peak(lambda: io.read_state(path)) < nbytes + validation + 2e6
        assert peak(lambda: io.state_from_json(io.read_text(path))) > os.path.getsize(path) + nbytes
        assert assert_state_routes_agree(path) == ("state", bits(state.rho).tobytes(), (448,))

    def test_bad_first_row_ends_the_rows_at_once(self, large_state_file, monkeypatch):
        path, _ = large_state_file
        with open(path) as fh:
            text = fh.read()
        bad = path + ".bad"
        with open(bad, "w") as fh:
            fh.write(text.replace('{"re": ', '{"re": "x", "y": ', 1))
        read = []

        def counted_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            real = fh.read
            fh.read = lambda *n: read.append(len(chunk := real(*n))) or chunk
            return fh

        monkeypatch.setattr(io, "open", counted_open, raising=False)
        assert io._streamed(bad, io._matrix_layout) is None
        assert sum(read) < len(text) / 50  # the first chunk only
        monkeypatch.undo()
        assert assert_state_routes_agree(bad)[0] is InputError
