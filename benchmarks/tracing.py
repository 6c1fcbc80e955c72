"""Span recorder for the traced run.

Wraps every public function of each fusionring layer module (the names in
its ``__all__`` defined in that module) and ``cli.run``, by replacing the
module attributes from outside; no source file changes. Because the
attribute is replaced in every module that holds a reference to the
function (``fusionring.core.validate_tensor``, ``fusionring.cli.validate_tensor``,
``fusionring.validate_tensor``, ...), a nested call such as construct ->
validate_tensor or detect -> fpdims gets its own span.

A span is [name, layer, start, end, parent index, item id, raised, size].
Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "spectral", "structure", "nearintegral", "premodular", "catalog", "cli")
NAME, LAYER, START, END, PARENT, ITEM, RAISED, SIZE = range(8)

# What the counters need from a call: the rank validate_tensor checked, or
# the number of subrings or forms returned.
SIZE_OF = {
    "validate_tensor": lambda args, result: args[0].shape[0],
    "enumerate_subrings": lambda args, result: len(result),
    "quadratic_forms": lambda args, result: len(result),
}


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, layer: str):
        spans, stack, size_of = self.spans, self._stack, SIZE_OF.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fn.__name__, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.item, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size_of is not None:
                span[SIZE] = size_of(args, result)
            return result
        return traced

    def install(self) -> None:
        import fusionring
        modules = {name: importlib.import_module(f"fusionring.{name}") for name in LAYERS}
        wrappers = {}
        for layer in LAYERS[:-1]:
            mod = modules[layer]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, layer)
        wrappers[modules["cli"].run] = self._wrap(modules["cli"].run, "cli")
        for mod in (fusionring, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)


def layer_metrics(spans, records) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    records are the pass's item records (id, seconds, error, probe). Self
    time is a span's duration less the durations of its direct child spans,
    so the self times of all layers plus trace.bench_self_s, the benchmark's
    own time inside the timed items, add up to trace.wall_s.
    """
    def duration(s):
        return s[END] - s[START]

    child = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration(s)
    out = {}
    for layer in LAYERS:
        mine = [(i, s) for i, s in enumerate(spans) if s[LAYER] == layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.self_s"] = (sum(duration(s) - child[i] for i, s in mine), "s")
        out[f"{layer}.errors"] = (sum(s[RAISED] for _, s in mine), "count")

    def total(name, key):
        return sum(key(s) for s in by_name[name])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    assoc_eqs = total("validate_tensor", lambda s: (s[SIZE] or 0) ** 4)
    subring_closures = sum(1 for s in by_name["closure"] if s[PARENT] >= 0
                           and spans[s[PARENT]][NAME] == "enumerate_subrings")
    wall = sum(r[1] for r in records)
    out.update({
        "core.validate_calls": (len(by_name["validate_tensor"]), "count"),
        "core.assoc_eqs": (assoc_eqs, "count"),
        "core.assoc_eqs_per_s": (rate(assoc_eqs, total("validate_tensor", duration)), "1/s"),
        "spectral.fpdims_calls": (len(by_name["fpdims"]), "count"),
        "spectral.characters_calls": (len(by_name["characters"]), "count"),
        "structure.closure_calls": (len(by_name["closure"]), "count"),
        "structure.closure_yield": (rate(total("enumerate_subrings", lambda s: s[SIZE] or 0),
                                         subring_closures), "ratio"),
        "premodular.quadratic_forms_calls": (len(by_name["quadratic_forms"]), "count"),
        "premodular.forms_per_s": (rate(total("quadratic_forms", lambda s: s[SIZE] or 0),
                                        total("quadratic_forms", duration)), "1/s"),
        "cli.malformed_failed": (sum(1 for r in records if r[3] and r[2] is not None), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.bench_self_s": (wall - sum(duration(s) for s in spans if s[PARENT] < 0), "s"),
    })
    return out
