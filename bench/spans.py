"""In-memory spans around the public functions of every dpchroma module.

Tracing is installed from the benchmark's side: each public function of a
layer module is replaced by a wrapper that records (name, start, end, parent
span, query) in a list.  The modules import each other by name, so the
wrapper is put in every namespace of the package that holds the original
function.  `dpchroma.classify` is the re-exported function, not the module,
so modules are always looked up in `sys.modules`.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from math import factorial
from time import perf_counter

LAYERS = ("cli", "chromatic", "covers", "girth", "graphs", "classify")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, query, note]
        self.stack: list[int] = []
        self.query = -1
        self.streams: list = []
        self.budget_error = None

    def install(self) -> None:
        """Wrap the public functions of each layer module, everywhere."""
        from dpchroma.errors import BudgetExceededError
        self.budget_error = BudgetExceededError
        package = [mod for name, mod in sys.modules.items()
                   if name == "dpchroma" or name.startswith("dpchroma.")]
        for layer in LAYERS:
            mod = sys.modules[f"dpchroma.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.budget_error:
                span[5] = "budget"
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _dp_exact_note(tracer, args, kwargs, result):
    g, m = args[0], args[1]
    return (factorial(m) ** (len(g.edges) - g.n + 1), kwargs.get("jobs", 1))


def _stream_note(tracer, args, kwargs, stream):
    tracer.streams.append(stream)  # lazy: its count is read after the run


def _inconclusive(tracer, args, kwargs, verdicts):
    return sum(1 for v in verdicts if v.status == "inconclusive")


_NOTES = {
    "covers.dp_exact": _dp_exact_note,
    "covers.count_transversals": lambda t, a, k, r: r.value,
    "graphs.enumerate_cycles": lambda t, a, k, r: len(r),
    "graphs.spanning_trees": _stream_note,
    "classify.classify": _inconclusive,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, from its spans.

    Metrics named `*share` are seconds here; the caller divides them by the
    pass's summed query time.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    budget_errors: dict[str, int] = defaultdict(int)
    for k, (name, start, end, parent, _, note) in enumerate(spans):
        layer = layer_of(name)
        calls[name] += 1
        incl[name] += end - start
        own = end - start - child_time[k]
        self_by_name[name] += own
        self_by_layer[layer] += own
        outer = parent < 0 or layer_of(spans[parent][0]) != layer
        if note == "budget" and outer:
            budget_errors[layer] += 1

    sweeps = {k: s[5] for k, s in enumerate(spans)
              if s[0] == "covers.dp_exact" and isinstance(s[5], tuple)}
    covers = sum(space for space, _ in sweeps.values())
    serial = {k for k, (_, jobs) in sweeps.items() if jobs == 1}
    serial_covers = sum(sweeps[k][0] for k in serial)
    serial_counts = sum(1 for s in spans
                        if s[0] == "covers.count_transversals" and s[3] in serial)
    quad = sum(1 for s in spans if s[0] == "girth.edge_set_girth" and s[3] >= 0
               and spans[s[3]][0] == "classify.search_quad_crossing")
    trees = sum(stream.count for stream in tracer.streams)
    verdicts = calls["classify.check_dp_good"]

    def total(name):
        return sum(note for n, *_, note in spans if n == name and isinstance(note, int))

    return {
        "cli.main.calls": calls["cli.main"],
        "cli.self_share": self_by_layer["cli"],
        "chromatic.chromatic_polynomial.calls": calls["chromatic.chromatic_polynomial"],
        "chromatic.chromatic_polynomial.share": incl["chromatic.chromatic_polynomial"],
        "covers.dp_exact.calls": calls["covers.dp_exact"],
        "covers.dp_exact.share": incl["covers.dp_exact"],
        "covers.dp_exact.self_share": self_by_name["covers.dp_exact"],
        "covers.dp_exact.covers": covers,
        "covers.count_transversals.calls": calls["covers.count_transversals"],
        "covers.count_transversals.share": incl["covers.count_transversals"],
        "covers.transversals": total("covers.count_transversals"),
        "covers.counts_per_cover": serial_counts / serial_covers if serial_covers else 0.0,
        "covers.budget_errors": budget_errors["covers"],
        "girth.edge_girth.calls": calls["girth.edge_girth"],
        "girth.edge_set_girth.calls": calls["girth.edge_set_girth"],
        "girth.check_balance.calls": calls["girth.check_balance"],
        "girth.self_share": self_by_layer["girth"],
        "graphs.self_share": self_by_layer["graphs"],
        "graphs.enumerate_cycles.calls": calls["graphs.enumerate_cycles"],
        "graphs.cycles_listed": total("graphs.enumerate_cycles"),
        "graphs.spanning_trees.calls": calls["graphs.spanning_trees"],
        "graphs.trees_streamed": trees,
        "graphs.budget_errors": budget_errors["graphs"],
        "classify.self_share": self_by_layer["classify"],
        "classify.check_dp_good.calls": verdicts,
        "classify.check_dp_good.share": incl["classify.check_dp_good"],
        "classify.trees_per_dp_good": trees / verdicts if verdicts else 0.0,
        "classify.quad.candidates": quad,
        "classify.inconclusive": total("classify.classify"),
    }
