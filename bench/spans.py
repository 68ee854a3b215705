"""Spans around gaussflip's public functions, recorded from outside the program.

``install`` wraps every public function that ``diagrams``, ``realize``,
``flips``, ``cubic`` and ``cli`` define, and puts the wrapper in every
``gaussflip`` module namespace that binds the function: ``cli`` calls
``is_realizable`` through its own ``from .realize import`` binding, so
patching ``realize`` alone would miss it.

Each call records a span (name, start, end, parent) in memory; a
generator records one span per ``next()``, so only time spent producing
items counts.  ``transverse_rotation_systems`` yields 2^n tiny items per
call; it is counted, not spanned, because a span per item would cost
more than the item.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("diagrams", "realize", "flips", "cubic", "cli")
COUNTED_ONLY = {"realize.transverse_rotation_systems"}
SIZED = {"cubic.hamiltonian_cycles"}  # also sum len(result)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, perf_counter(), parent)

    def wrap(self, name: str, fn):
        self.calls[name] = 0
        if name in COUNTED_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                for item in fn(*args, **kwargs):
                    self.items[name] += 1
                    yield item

            return counted

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open()
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, name, start)
                    self.items[name] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if name in SIZED:
                self.items[name] += len(result)
            return result

        return call

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds, self seconds, items."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {
            name: {"calls": n, "s": 0.0, "self_s": 0.0, "items": self.items[name]}
            for name, n in self.calls.items()
        }
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            out[name]["s"] += end - start
            out[name]["self_s"] += end - start - child[idx]
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions wherever gaussflip binds them."""
    import gaussflip.cli  # noqa: F401  imports every layer

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"gaussflip.{layer}"]
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for name, module in list(sys.modules.items()):
        if name != "gaussflip" and not name.startswith("gaussflip."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
