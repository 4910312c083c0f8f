"""Spans around calls into cfkit, installed from outside the package.

The tracer replaces every public function in the namespaces of cfkit's
modules (including names one module imports from another, such as
cfkit.formula.enumerate_symmetries) with a wrapper that records a span:
name, start, end, parent and the op it belongs to.  PartialMap.agrees_with
and the json.dumps that cfkit.cli renders with are wrapped too.  Spans live
in flat arrays while the run lasts and are written out once at the end;
per-layer metrics are derived from them afterwards.  Span times are thread
CPU time, like the op times in run.py.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

MODULES = ("groups", "morphisms", "formula", "dsl", "cli")
# Wire-form functions whose time, with json.dumps, makes up cli.render_ms.
RENDER_SPANS = (
    "morphisms.map_to_json",
    "formula.assignment_to_json",
    "formula.chain_to_json",
    "cli.json.dumps",
)
COLD = "morphisms.enumerate_symmetries[cold]"
WARM = "morphisms.enumerate_symmetries[warm]"


class _JsonProxy:
    """Stands in for the json module inside cfkit.cli, with dumps traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, cfkit_package):
        self.cf = cfkit_package
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("l")
        self.op_col = array("l")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self._op = -1
        self._seen_groups: set = set()
        self.maps_returned = 0
        self.matches = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1])
        self.op_col.append(self._op)
        self.end_col.append(0.0)
        self._stack.append(idx)
        self.start_col.append(time.thread_time())
        return idx

    def _end(self, idx: int) -> None:
        self.end_col[idx] = time.thread_time()
        self._stack.pop()

    def begin_op(self, kind: str) -> None:
        self._op = len(self.start_col)
        self._begin(self._id("op." + kind))
        self.on = True

    def end_op(self) -> None:
        self.on = False
        self._end(self._op)
        self._op = -1

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, span_name, choose=None, after=None):
        nid = self._id(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._begin(choose(args) if choose else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if after:
                after(result)
            return result

        return traced

    def _choose_enumerate(self, args):
        group = args[0]
        if group in self._seen_groups:
            return self._id(WARM)
        self._seen_groups.add(group)
        return self._id(COLD)

    def _count_maps(self, result):
        self.maps_returned += len(result)

    def _count_match(self, result):
        self.matches += bool(result)

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        cf = self.cf
        namespaces = [cf] + [importlib.import_module(f"cfkit.{m}") for m in MODULES]
        # One wrapper per function, however many namespaces hold it.
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                module = getattr(obj, "__module__", None) or ""
                if not module.startswith("cfkit."):
                    continue
                if id(obj) not in wrapped:
                    span = module.split(".")[-1] + "." + obj.__name__
                    if span == "morphisms.enumerate_symmetries":
                        wrapped[id(obj)] = self._wrap(
                            obj, span, self._choose_enumerate, self._count_maps
                        )
                    else:
                        wrapped[id(obj)] = self._wrap(obj, span)
                self._replace(ns, attr, wrapped[id(obj)])
        partial_map = cf.formula.PartialMap
        self._replace(
            partial_map,
            "agrees_with",
            self._wrap(
                partial_map.agrees_with,
                "formula.PartialMap.agrees_with",
                after=self._count_match,
            ),
        )
        cli = importlib.import_module("cfkit.cli")
        self._replace(cli, "json", _JsonProxy(json, self._wrap(json.dumps, "cli.json.dumps")))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        n = len(self.start_col)
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_col[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["ms"] += dur * 1e3
            row["self_ms"] += (dur - child[i]) * 1e3
        return out

    def write(self, path: Path) -> None:
        """Span columns as raw arrays after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start_col),
            "columns": ["name:H", "parent:l", "op:l", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name_col, self.parent_col, self.op_col, self.start_col, self.end_col):
                col.tofile(fh)
