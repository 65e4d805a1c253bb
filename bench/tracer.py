"""Outside-in tracer: wraps the library's public functions and methods from
the benchmark's side, so the library itself carries no tracing code.

Every public function is wrapped in each module namespace that bound it,
so ``ietbwt.induction.cylinders`` and ``ietbwt.coding.cylinders`` both
report as ``coding.cylinders``.  ``Iet`` methods that do work are wrapped
on the class.  Each call becomes a span (name, start, end, parent) kept in
memory and written out by ``dump``.

``FieldValue`` operations are too many to keep as spans.  They are counted,
and the outermost operation of each nest (``__lt__`` calls ``__sub__``,
which calls ``__add__``) is timed; that time counts as a child of the
enclosing span and goes into ``exact.self_s``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("exact", "alphabet", "iet", "words", "coding", "induction",
           "extgraph", "verify", "cli")

# cli's command handlers render their own output; keeping them inside
# cli.main's self time makes that number the whole front-end cost
CLI_PUBLIC = ("main",)

IET_METHODS = ("letter_at", "apply", "apply_inverse", "apply_n",
               "zero_connections", "regions", "invariant_blocks",
               "find_connections", "keane_probe", "translate", "with_origin")

FIELD_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
             "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__",
             "sign", "is_zero", "is_rational", "decimal")


def _count_result(name: str, result) -> dict:
    """Exact work counts read from a call's result."""
    if name == "coding.cylinders":
        return {"coding.cylinders.intervals": sum(len(lv) for lv in result.levels)}
    if name == "induction.induce_to_cylinder":
        return {"induction.steps": len(result.records)}
    if name == "induction.first_return_point":
        return {"induction.walk_steps": result.time}
    if name in ("words.bwt", "words.ebwt"):
        return {name + ".letters": sum(len(w) for w in result.words)}
    return {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        # five doubles per span: name id, start, end, parent index, and the
        # seconds its children (spans and outermost exact ops) took
        self.spans = array("d")
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.exact_depth = 0
        self.exact_ops = 0
        self.exact_values = 0
        self.exact_s = 0.0
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, active = self.spans, self.stack, self.active

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            base = len(spans)
            spans.extend((nid, 0.0, 0.0, parent, 0.0))
            stack.append(base)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = end - start
                spans[base + 1] = start
                spans[base + 2] = end
                self.calls[name] += 1
                if not active[name]:
                    self.incl[name] += dur
                self.self_s[name] += dur - spans[base + 4]
                if parent >= 0:
                    spans[parent + 4] += dur
            for key, n in _count_result(name, result).items():
                self.counts[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def _exact(self, fn):
        def traced(*args, **kwargs):
            if self.exact_depth:
                self.exact_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exact_depth -= 1
            self.exact_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.exact_depth = 0
                self.exact_ops += 1
                self.exact_s += dur
                if self.stack:
                    self.spans[self.stack[-1] + 4] += dur

        traced.__wrapped__ = fn
        return traced

    def _constructed(self, fn):
        def traced(obj):
            self.exact_values += 1
            return fn(obj)

        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        pkg = importlib.import_module("ietbwt")
        mods = {m: importlib.import_module("ietbwt." + m) for m in MODULES}
        namespaces = (pkg, *mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if short == "cli" and attr not in CLI_PUBLIC:
                    continue
                name = "%s.%s" % (short, attr)
                new = self._exact(obj) if short == "exact" else self._span(name, obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._set(ns, attr, new)
        iet_cls = mods["iet"].Iet
        for attr in IET_METHODS:
            self._set(iet_cls, attr, self._span("iet." + attr, vars(iet_cls)[attr]))
        fv = mods["exact"].FieldValue
        for attr in FIELD_OPS:
            self._set(fv, attr, self._exact(vars(fv)[attr]))
        self._set(fv, "__post_init__", self._constructed(vars(fv)["__post_init__"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(module + "."))

    def dump(self, path: str) -> None:
        """Write one gzip'd JSON line per span, in call order:
        [name, start, end, parent line or -1, seconds spent in children]."""
        sp = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(0, len(sp), 5):
                parent = int(sp[i + 3])
                row = [self.names[int(sp[i])], sp[i + 1], sp[i + 2],
                       parent // 5 if parent >= 0 else -1, sp[i + 4]]
                fh.write(json.dumps(row) + "\n")
