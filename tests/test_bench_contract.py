"""The package API that the benchmark in bench/ calls or wraps by name.

bench/spans.py wraps functions and methods named in TRACED_FUNCTIONS and
TRACED_METHODS, and bench/layers.py passes ``threads=`` and
``cache_values=`` and builds its own MultiplicativeSpec; removing or
renaming any of them, or changing the spec contract under that spec, breaks
the traced benchmark run (``bench/run.py --trace 1``), so it is caught here
first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import radseries
from radseries.stkernel import StKernel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    # registered before it runs: its dataclasses look their module up there
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH))  # bench modules import their siblings by bare name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


SPANS = load_bench("spans")


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


def _parameters(fn):
    try:
        return inspect.signature(fn).parameters
    except ValueError:  # exception classes: no signature of their own
        return {}


def test_only_benchmark_entry_points_take_threads():
    # summation is serial; the keyword stays only where bench/layers.py passes it
    exported = [getattr(radseries, name) for name in radseries.__all__]
    exported.append(importlib.import_module("radseries.numerics").sum_blocks)
    with_threads = sorted(
        fn.__name__ for fn in exported if callable(fn) and "threads" in _parameters(fn)
    )
    assert with_threads == ["series_d", "sum_blocks"]


def test_identity_wrappers_are_distinct_functions(sieve_10k, table_10k):
    # instrument keys its wrappers on id(fn): were either name an alias of
    # identity_pass, every identity_pass call would open that name's span
    fns = (radseries.identity_pass, radseries.identity_residual, radseries.split_identity)
    assert len({id(fn) for fn in fns}) == 3
    # bench/layers.py passes a sieve first, which the pass no longer reads
    args = (table_10k, radseries.Params(4, 1), 2_000, 10_000)
    want = radseries.identity_pass(*args)
    for wrapper in fns[1:]:
        assert wrapper(sieve_10k, *args) == want


def test_benchmark_spec_runs_through_both_spec_kernels(sieve_10k, table_10k):
    # bench/layers.py times range_values on its own sqrt-radical spec and
    # checks the values against sqrt(rad) with this allclose
    spec = load_bench("layers").sqrt_radical_spec()
    n = 10_000
    vals = radseries.range_values(spec, sieve_10k, n)
    assert np.allclose(vals[1:], np.sqrt(sieve_10k.rad[1:n + 1]), rtol=1e-12, atol=0.0)
    s_sum, t_sum = StKernel.for_spec(spec, table_10k, n).sums(radseries.Params(4, 1))
    p = table_10k.upto(n).astype(np.float64)
    want_s, want_t = StKernel(p, np.sqrt(p)).sums(radseries.Params(4, 1))
    assert np.allclose([s_sum.value, t_sum.value], [want_s.value, want_t.value],
                       rtol=1e-12, atol=0.0)
    assert s_sum.tail_bound is not None and t_sum.tail_bound is not None
