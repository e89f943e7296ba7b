"""Span tracing from outside the program.

`Tracer.install()` replaces the public module-level functions of the traced
`infotile` modules with wrappers that record one span per call: name, start,
end and parent span.  Every module namespace that holds a reference to an
original function gets the wrapper, so calls that cross modules through
`from .x import f` are traced too.  The spans stay in memory; `restore()`
puts every original function back.

Self time of a span is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

# Modules whose public functions are wrapped.  `expressions`, `gadgets`,
# `logbounds` and `ci` are left out: the first three run inside
# `compiler.compile_ttori` and are covered by its span, and no workload
# reaches `ci` (see README.md).
TRACED_MODULES = ("tiling", "compiler", "witness", "joint", "systems", "refuter", "cli")

# The bisection in the slack extension calls this leaf about 60,000 times
# per monochrome pass; a span per call would cost more than the call.
UNTRACED = {"joint.binary_entropy"}

ALL_MODULES = ("expressions", "joint", "logbounds", "systems", "gadgets", "tiling",
               "compiler", "ci", "witness", "refuter", "cli")


def _atoms(joint, names) -> int:
    """Size of the seed product `subset_entropy` enumerates for `names`."""
    seeds = set()
    for n in names:
        seeds.update(joint.variables[n].seeds)
    total = 1
    for s in seeds:
        total *= joint.seeds[s].size
    return total


def _subset_entropy_attrs(args, kwargs, result):
    joint, names = args[0], args[1]
    names = frozenset(names)
    return {"subset": names, "atoms": _atoms(joint, names)}


def _build_witness_attrs(args, kwargs, result):
    tables = [v.table for v in result.variables.values()]
    return {
        "seeds": len(result.seeds),
        "table_cells": sum(int(t.size) for t in tables),
        "table_bytes": sum(int(t.nbytes) for t in tables),
    }


def _verify_attrs(args, kwargs, result):
    system = args[1]
    tags = [r.tag for r in getattr(system, "rows", ())]
    return {"rows": len(result.rows), "slack": bool(tags) and tags[0].endswith(":slack")}


def _refute_attrs(args, kwargs, result):
    """LP size as the refuter sets it up: elemental plus kept system rows."""
    sas = args[0]
    variables = kwargs.get("variables", args[1] if len(args) > 1 else None)
    keep = frozenset(variables if variables is not None else sas.var_names)
    n = len(keep)
    kept = sum(1 for r in sas.rows if all(vs <= keep for vs, _ in r.entries))
    elemental = n + n * (n - 1) // 2 * 2 ** max(n - 2, 0)
    return {
        "lp_rows": elemental + kept,
        "lp_cols": 2 ** n - 1,
        "status": result.status,
        "certificate_terms": len(result.certificate or ()),
    }


def _text_bytes_attrs(args, kwargs, result):
    return {"bytes": len(result)}


def _compile_attrs(args, kwargs, result):
    return {"rows": len(result.rows), "vars": len(result.all_vars())}


# Counts recorded at a span's boundary, computed after its end time is taken.
ATTRS = {
    "joint.subset_entropy": _subset_entropy_attrs,
    "witness.build_witness": _build_witness_attrs,
    "witness.verify": _verify_attrs,
    "refuter.refute": _refute_attrs,
    "joint.joint_dumps": _text_bytes_attrs,
    "compiler.compile_ttori": _compile_attrs,
}


class Tracer:
    """Records spans of calls into the `infotile` modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def span(self, name: str):
        """A context manager recording one span around a block."""
        return _Block(self, name)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid)
            if attrs is not None:
                self.spans[sid][4] = attrs(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, func)

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"infotile.{m}") for m in ALL_MODULES}
        modules["__init__"] = importlib.import_module("infotile")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def restore(self) -> None:
        """Put back every function `install` replaced."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

class _Block:
    """One span around a block; `start`, `end` and `seconds` are set on exit."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name
        self.start = self.end = self.seconds = 0.0

    def __enter__(self):
        self.sid = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        _, self.start, self.end, _, _ = self.tracer.spans[self.sid]
        self.seconds = self.end - self.start
        return False


def dump(spans, path) -> None:
    """Write spans as one JSON list of [name, start, end, parent, attrs]."""
    rows = []
    for name, start, end, parent, attrs in spans:
        if attrs and "subset" in attrs:
            attrs = dict(attrs, subset=sorted(attrs["subset"]))
        rows.append([name, start, end, parent, attrs])
    with open(path, "w") as fh:
        json.dump(rows, fh, separators=(",", ":"))


def concat(*span_lists) -> list:
    """One span list from several, each with its parent indices shifted."""
    out = []
    for spans in span_lists:
        off = len(out)
        out += [[n, s, e, p + off if p >= 0 else -1, a] for n, s, e, p, a in spans]
    return out


def summarize(spans) -> dict:
    """Per span name: inclusive seconds (outermost calls only) and self seconds."""
    children = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
    for sid, (name, start, end, parent, _) in enumerate(spans):
        rec = out[name]
        rec["self_s"] += (end - start) - children[sid]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["s"] += end - start
    return dict(out)
