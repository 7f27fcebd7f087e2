"""Spans around the public functions of the `tul` layers, kept in memory.

`Tracer.install` wraps every public function defined in a layer module and
rebinds every module-level name in `tul` that refers to it, so calls made
through `from`-imports (`tul.cli.universality_scan`, `tul.verify.cross_check`)
are traced too.  A generator function's span runs from its first `next` to
its exhaustion, so it is timed while iterated, not when created.  Spans are
written out only after the traced run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

# Layers are the `tul` modules that get spans.  graphs and permutations run
# once per covering inside enumerate_coverings, where a wrapper would cost
# about as much as the work it measures; families only builds inputs.
LAYERS = ("cli", "verify", "asymptotics", "enumeration", "tensors")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    attrs: dict | None = None


# Counts recorded at a span, computed after the call returns; kept cheap,
# because the smallest traced calls take tens of microseconds.

def _sample_attrs(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"distribution": spec.distribution, "entries": result.size}


def _gram_attrs(args, kwargs, result):
    T = args[0] if args else kwargs["T"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return {"shape": T.shape, "m_colors": spec.m_colors}


def _suite_attrs(args, kwargs, result):
    return {"checks": len(result)}


def gram_flops(attrs) -> int:
    """Real flops of the Gram product M M^H on the smaller side of the
    matricization M: one complex multiply-add is 8 flops."""
    rows = math.prod(attrs["shape"][i - 1] for i in attrs["m_colors"])
    small, large = sorted((rows, math.prod(attrs["shape"]) // rows))
    return 8 * small * small * large


ATTRS = {
    "tensors.sample_tensor": _sample_attrs,
    "tensors.trace_invariant_cycle": _gram_attrs,
    "verify.run_verify_suite": _suite_attrs,
}


@dataclass
class Tracer:
    # rows [name, start, end, parent, attrs]; see `spans` for the Span view
    rows: list[list] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in self.rows]

    def _wrap_call(self, name, fn):
        rows, stack, attrs_of = self.rows, self._stack, ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if attrs_of is not None:
                row[4] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        rows, stack = self.rows, self._stack
        clock = time.perf_counter

        def iterate(gen, graph):
            parent = stack[-1] if stack else -1
            count = 0
            start = clock()
            try:
                for item in gen:
                    count += 1
                    yield item
            finally:
                rows.append([name, start, clock(), parent, {"items": count, "graph": graph}])

        def traced(*args, **kwargs):
            return iterate(fn(*args, **kwargs), args[0] if args else kwargs.get("B"))

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> list[str]:
        """Wrap the layers' public functions; return the `layer.function`
        names wrapped."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{prefix}.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_call
                wrapped[id(fn)] = (name, wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return sorted(name for name, _ in wrapped.values())

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def dump(self, path):
        """Write the spans as JSON: one [name, start, end, parent] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": [row[:4] for row in self.rows]}, fh)


def _union(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def busy(spans, names) -> float:
    """Wall time covered by any span whose name is in names."""
    return _union((s.start, s.end) for s in spans if s.name in names)


def self_time(spans, name) -> float:
    """Duration of each span called name minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return sum(s.end - s.start - _union(children.get(i, ()))
               for i, s in enumerate(spans) if s.name == name)
