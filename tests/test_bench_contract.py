"""The package API that the benchmark in bench/ calls or wraps by name.

bench/spans.py wraps functions and methods named in TRACED_FUNCTIONS and
TRACED_METHODS, and bench/layers.py passes ``threads=`` and
``cache_values=``; removing or renaming any of them breaks the traced
benchmark run (``bench/run.py --trace 1``), so it is caught here first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import radseries

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    # registered before it runs: its dataclasses look their module up there
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in SPANS.TRACED_FUNCTIONS.items() for name in names
])
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"radseries.{module}")
    assert callable(getattr(mod, name, None)), f"radseries.{module}.{name}"


@pytest.mark.parametrize("module, cls_name, name", [
    (module, cls_name, name)
    for (module, cls_name), names in SPANS.TRACED_METHODS.items() for name in names
])
def test_traced_method_exists(module, cls_name, name):
    cls = getattr(importlib.import_module(f"radseries.{module}"), cls_name)
    assert name in cls.__dict__, f"radseries.{module}.{cls_name}.{name}"


@pytest.mark.parametrize("fn, keyword", [
    (importlib.import_module("radseries.numerics").sum_blocks, "threads"),
    (radseries.series_d, "threads"),
    (radseries.FactorSieve.build, "cache_values"),
    (radseries.FactorSieve.load, "cache_values"),
])
def test_benchmark_keywords_accepted(fn, keyword):
    assert keyword in inspect.signature(fn).parameters
