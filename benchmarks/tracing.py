"""Spans and counters around the public functions of each trsys module.

`Tracer.install()` wraps every public module-level function, and every public
method, property and constructor of every public class, of each layer
module.  Every wrapped call is counted.  A call that crosses a layer boundary
(its caller is the benchmark or another layer) also records a span: the
function, start, end and the index of the enclosing span.  Calls inside one
layer record no span, because their time is that layer's time either way
and some of them (such as `TrLattice.leq`) run millions of times; only the
functions behind named span times always record one.

`OrderContext.close_add` runs about a million times per pass, so its wrapper
only counts calls and prunes.  A named function that no longer exists reads
0.  Spans are held in flat arrays while the pass runs and written out by
`write()` at the end.

The wrappers cost time of their own, and it lands in the span of the caller.
`install()` times a no-op through each kind of wrapper, and `metrics()`
subtracts calls times that cost from each layer's self time and from the
named span times, so that they estimate the untraced program.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter

import trsys

LAYERS = (
    "lattice",
    "transfer",
    "characteristic",
    "covers",
    "counting",
    "functorial",
    "serialize",
    "oracles",
    "verify",
    "cli",
)

# functions whose result length is an output count
SIZED = {
    "transfer.enumerate_transfer_systems": "transfer.systems_out",
    "transfer.enumerate_saturated_systems": "transfer.systems_out",
    "transfer.enumerate_subposet_systems": "transfer.systems_out",
    "covers.enumerate_saturated_covers": "covers.covers_out",
    "characteristic.interior_system_masks": "characteristic.interior_masks",
}
CALL_COUNTS = {
    "transfer.find_violation": "transfer.find_violation_calls",
    "covers.find_cover_violation": "covers.find_cover_violation_calls",
    "characteristic.InteriorOperator.__init__": "characteristic.operators_built",
    "lattice.Lattice.__init__": "lattice.lattices_built",
}
SPAN_TIMES = {
    "transfer.TrLattice.covers": "transfer.tr_covers_s",
    "characteristic.fiber_decomposition": "characteristic.fibers_s",
}


def _noop(*args, **kwargs):
    return None


def calibrate(repeats=5, calls=20000):
    """Seconds one wrapped call costs beyond a direct call: through the
    wrapper on the path that records no span, on the path that records one,
    and through the close_add counter.  Medians over `repeats` loops."""
    probe = Tracer()
    wrapped = probe._wrap("probe", "probe.noop", _noop)
    counter = probe._close_add_counter(_noop)

    def per_call(fn, *args, **kwargs):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn(*args, **kwargs)
            times.append(perf_counter() - t0)
        return statistics.median(times) / calls

    # shaped like the hot calls: TrLattice.leq(self, a, b) and
    # close_add(self, closed, k, saturate=..., forbidden=...)
    direct = per_call(_noop, 0, 1, 2)
    span = per_call(wrapped, 0, 1, 2) - direct
    probe._layers.append("probe")  # the caller is in the same layer
    plain = per_call(wrapped, 0, 1, 2) - direct
    kwargs = {"saturate": False, "forbidden": 0}
    counted = per_call(counter, 0, 1, 2, **kwargs) - per_call(_noop, 0, 1, 2, **kwargs)
    return {"plain": plain, "span": span, "close_add": counted}


def _modules():
    # by module name: `trsys.characteristic` is also an exported function
    return [importlib.import_module(f"trsys.{layer}") for layer in LAYERS]


class Tracer:
    def __init__(self):
        self.names = []  # "layer.qualname" per function id
        self.calls = []  # calls per function id
        self.fids = array("i")  # per span: function id, enclosing span, start, end
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []  # open spans
        self._layers = []  # layer of each open span
        self.sized = Counter()
        self.close_add_calls = 0
        self.close_add_pruned = 0
        self._marks = []  # per named span: index, calls and close_add calls at start and end, spans at end
        self.cost = {"plain": 0.0, "span": 0.0, "close_add": 0.0}
        self._restore = []

    # -- installing ------------------------------------------------------------

    def install(self):
        self.cost = calibrate()
        replaced = {}
        for module in _modules():
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # a function imported into another module is the same object there,
        # and verify.ALL_CHECKS holds its checks in a dict
        for module in [trsys, *_modules()]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(vars(module), name, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            self._set(obj, key, replaced[value])

    def _install_class(self, layer, cls):
        wrapped = {}
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            label = f"{layer}.{cls.__qualname__}.{name}"
            if label == "transfer.OrderContext.close_add":
                self._set(cls, name, self._close_add_counter(attr))
            elif inspect.isfunction(attr):
                wrapped[attr] = self._wrap(layer, label, attr)
                self._set(cls, name, wrapped[attr])
            elif isinstance(attr, property):
                self._set(cls, name, property(self._wrap(layer, label, attr.fget), attr.fset, attr.fdel, attr.__doc__))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(layer, label, attr.__func__)))
        # aliases such as `__and__ = meet` share the public method's wrapper
        for name, attr in list(vars(cls).items()):
            if inspect.isfunction(attr) and attr in wrapped:
                self._set(cls, name, wrapped[attr])

    def _set(self, owner, name, value):
        """Replace a dict entry (module globals are a dict) or a class
        attribute, remembering the old value for uninstall()."""
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, fids, parents, starts, ends = self.calls, self.fids, self.parents, self.starts, self.ends
        stack, layers, sized, marks = self._stack, self._layers, self.sized, self._marks
        sized_name = SIZED.get(name)
        always = name in SPAN_TIMES

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if layers and layers[-1] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                idx = len(fids)
                if always:
                    mark = [idx, sum(calls), self.close_add_calls]
                fids.append(fid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                layers.append(layer)
                starts.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()
                    layers.pop()
                    if always:
                        marks.append(mark + [sum(calls), self.close_add_calls, len(fids)])
            if sized_name is not None:
                sized[sized_name] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_add_counter(self, fn):
        def close_add(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.close_add_calls += 1
            if result is None:
                self.close_add_pruned += 1
            return result

        return close_add

    # -- reporting ---------------------------------------------------------------

    def metrics(self, wall):
        """Per-layer calls, self time and share of the traced window `wall`
        less the wrappers' cost, plus the named counters and span times."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        by_name = {name: fid for fid, name in enumerate(self.names)}
        n = len(self.fids)
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        self_s = Counter()
        incl = Counter()
        spans = Counter()
        cost = self.cost
        for i in range(n):
            fid = self.fids[i]
            dur = self.ends[i] - self.starts[i]
            self_s[layer_of[fid]] += dur - child[i]
            incl[fid] += dur
            spans[fid] += 1
            if self.parents[i] >= 0:
                self_s[layer_of[self.fids[self.parents[i]]]] -= cost["span"]
        calls = Counter()
        for fid, count in enumerate(self.calls):
            calls[layer_of[fid]] += count
            self_s[layer_of[fid]] -= (count - spans[fid]) * cost["plain"]
        self_s["transfer"] -= self.close_add_calls * cost["close_add"]
        plain_calls = sum(self.calls) - n
        untraced_wall = wall - n * cost["span"] - plain_calls * cost["plain"] - self.close_add_calls * cost["close_add"]
        for idx, calls_0, close_0, calls_1, close_1, spans_1 in self._marks:
            inner_spans = spans_1 - idx - 1
            incl[self.fids[idx]] -= (
                (calls_1 - calls_0 - inner_spans) * cost["plain"]
                + inner_spans * cost["span"]
                + (close_1 - close_0) * cost["close_add"]
            )
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / untraced_wall
        for name, metric in CALL_COUNTS.items():
            out[metric] = self.calls[by_name[name]] if name in by_name else 0
        for name, metric in SPAN_TIMES.items():
            out[metric] = incl[by_name.get(name)]
        for metric in sorted(set(SIZED.values())):
            out[metric] = self.sized[metric]
        out["transfer.close_add_calls"] = self.close_add_calls
        out["transfer.close_add_pruned"] = self.close_add_pruned
        out["transfer.search_yield"] = (
            self.sized["transfer.systems_out"] / self.close_add_calls if self.close_add_calls else 0.0
        )
        return out

    def write(self, path):
        """Gzipped JSON: function names and call counts, then one
        [function, start, end, enclosing span] row per span, in start order."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"functions": ' + json.dumps(self.names) + ', "calls": ' + json.dumps(self.calls))
            fh.write(', "wrapper_cost_s": ' + json.dumps(self.cost))
            fh.write(', "spans": [\n')
            rows = zip(self.fids, self.starts, self.ends, self.parents)
            fh.write(",\n".join(f"[{f},{s:.9f},{e:.9f},{p}]" for f, s, e, p in rows))
            fh.write("\n]}\n")
