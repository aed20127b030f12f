"""Spans and counters recorded from outside cy3.

`Tracer.install` replaces every public function of the six cy3 layers, in every
cy3 module namespace that holds it by name, with a wrapper that records a span
(function, parent span, start, end). The hot QuadSurd and LatticeMap
constructors get counters only. Spans stay in memory in flat arrays until
`summary`, which computes each span's self time as its duration minus the
durations of its child spans. Time spent in private helpers and in QuadSurd or
Fraction arithmetic is self time of the nearest enclosing public function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("core_arith", "lattice_forms", "element_classify", "cubic_geometry",
          "group_structure", "cli")

# Functions whose results the per-layer metrics need.
RESULT_SIZES = {"group_structure.enumerate_symmetries"}


class Tracer:
    """Records spans of wrapped functions; `error_type` errors leaving a
    layer's public functions are counted per layer."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.raised: Counter = Counter()
        self.result_sizes: Counter = Counter()
        self.surd_new = 0
        self.latticemap_new = 0
        self.max_coeff_bits = 0
        self._undo: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        """A span-recording wrapper of `fn`, counted as part of `layer`."""
        fid = len(self.names)
        qualified = f"{layer}.{name}"
        self.names.append(qualified)
        self.layer_of.append(layer)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        stack, layer_of, raised, error_type = self.stack, self.layer_of, self.raised, self.error_type
        sizes = self.result_sizes if qualified in RESULT_SIZES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            parent = stack[-1] if stack else -1
            fns.append(fid)
            parents.append(parent)
            starts.append(perf_counter())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if parent < 0 or layer_of[fns[parent]] != layer:
                    raised[layer] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if sizes is not None:
                sizes[qualified] += len(result)
            return result

        return traced

    def install(self) -> None:
        from cy3.core_arith import QuadSurd
        from cy3.lattice_forms import LatticeMap

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cy3.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self.wrap(layer, name, fn)
        namespaces = [m for n, m in sys.modules.items() if n == "cy3" or n.startswith("cy3.")]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrappers[value])

        surd_init, map_init = QuadSurd.__init__, LatticeMap.__init__

        def counted_surd_init(obj, *args, **kwargs):
            surd_init(obj, *args, **kwargs)
            self.surd_new += 1
            bits = max(obj.a.numerator.bit_length(), obj.a.denominator.bit_length(),
                       obj.b.numerator.bit_length(), obj.b.denominator.bit_length(),
                       obj.d.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

        def counted_map_init(obj, *args, **kwargs):
            map_init(obj, *args, **kwargs)
            self.latticemap_new += 1

        self._undo += [(QuadSurd, "__init__", surd_init), (LatticeMap, "__init__", map_init)]
        QuadSurd.__init__ = counted_surd_init
        LatticeMap.__init__ = counted_map_init

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, total seconds, self seconds; plus child calls
        of each function keyed "parent>child"."""
        n = len(self.fn)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        table: dict[str, dict] = {}
        nested: Counter = Counter()
        for i in range(n):
            name = self.names[self.fn[i]]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
            p = self.parent[i]
            if p >= 0:
                nested[self.fn[p], self.fn[i]] += 1
        nested_calls = {f"{self.names[a]}>{self.names[b]}": c for (a, b), c in nested.items()}
        return {"functions": table, "nested_calls": nested_calls, "spans": n}

    def spans(self) -> dict:
        """Every span as parallel lists: function name index, parent span
        index (-1 for none), start and end in perf_counter seconds."""
        return {"names": self.names, "fn": self.fn.tolist(), "parent": self.parent.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist()}
