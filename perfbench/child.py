"""Run one benchmark job in a fresh interpreter, optionally traced.

    python3 perfbench/child.py [--spans FILE] cli <weylnet arguments...>
    python3 perfbench/child.py [--spans FILE] api <job name> <work dir>

With ``--spans`` every public function of every weylnet module is
wrapped before the job starts, at every module binding that refers to
it (``cli`` holds its own ``expand_state``, ``collective`` its own
``kron_all``).  A span is ``[name, start, end, parent, note]``; spans
stay in memory and are written as JSON when the job ends.  The job then
calls ``weylnet.cli.main(args, standalone_mode=False)`` or the API
script, so ``lru_cache``s start cold as they do for users.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("basis", "coherence", "cluster", "commuting", "cat", "collective",
          "symmetry", "protocols", "io", "cli")


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Extra facts a span keeps, by qualified name: bytes returned by the
# dense Kronecker helper, characters parsed, which state was summed,
# and the clique-search outcome.
NOTES = {
    "cluster.kron_all": lambda a, k, r: int(r.nbytes),
    "io.state_from_json": lambda a, k, r: len(_arg(a, k, "text")),
    "cluster.cluster_sums": lambda a, k, r: id(_arg(a, k, "state")),
    "commuting.search_max_commuting": lambda a, k, r: [int(r.expansions), bool(r.exact)],
}


class Tracer:
    """Span recorder; one per traced job."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Replace every module binding of every public weylnet function."""
        import importlib

        modules = [importlib.import_module(f"weylnet.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("weylnet"))
        wrapped = {}  # id of the original -> wrapper, which keeps the original alive
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])


def run_job(argv: list[str], tracer: Tracer | None) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "cli":
        from weylnet.cli import main

        call = (lambda: main(rest, standalone_mode=False))
        root = "cli.main"
    elif kind == "api":
        import api_jobs

        call = (lambda: getattr(api_jobs, rest[0])(rest[1]))
        root = "api.script"
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    if tracer is None:
        code = call()
    else:
        code = tracer.span(root, call)
    return int(code or 0)


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    try:
        return run_job(argv, tracer)
    finally:
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
