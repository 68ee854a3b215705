"""The names the benchmark's traced run wraps still exist in the library.

``bench/run.py --trace 1`` wraps every public function of each layer
module and reports the per-layer metrics that ``BENCHMARK.json`` names.
A function deleted or renamed here would silently drop its metrics, so
this test reads the metric names and checks them against the package.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

from gaussflip import realize

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
LAYERS = ("diagrams", "realize", "flips", "cubic", "cli")


def per_layer_functions() -> set[tuple[str, str]]:
    """(layer, function) behind every ``layer.function.field`` metric."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    found = set()
    for name in names:
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in LAYERS:
            found.add((parts[0], parts[1]))
    return found


def test_metric_functions_are_public_callables():
    functions = per_layer_functions()
    assert ("realize", "is_realizable") in functions
    for layer, name in sorted(functions):
        module = importlib.import_module(f"gaussflip.{layer}")
        obj = getattr(module, name, None)
        assert not name.startswith("_"), name
        assert callable(obj) and not isinstance(obj, type), f"{layer}.{name}"
        # the tracer wraps only functions defined in the layer itself
        assert obj.__module__ == module.__name__, f"{layer}.{name}"


def test_rotation_system_counter_reads_a_generator():
    assert inspect.isgeneratorfunction(realize.transverse_rotation_systems)


def test_realizable_class_reports_cache_info():
    assert callable(realize.realizable_class.cache_info)
