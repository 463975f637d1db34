"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter``) and the
span that was open when it started.  ``instrument`` wraps the public
functions of the ``radseries`` modules so that every call through a module
namespace opens a span; the package source is left untouched.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# Public functions given a span in a traced run, by defining module.  Left
# out: the generator ``abcscan.scan``, whose span would close before any
# record is produced, and ``numerics.sum_blocks``, whose time is the
# caller's per-block kernel and belongs to the caller's self time.
TRACED_FUNCTIONS = {
    "primes": ["sieve_primes"],
    "radical": ["radical_range"],
    "multfn": ["range_values"],
    "series": ["series_d", "series_d_log_n", "series_d_log_m"],
    "euler": ["product_d"],
    "stkernel": ["st_ratio", "s_general", "t_general"],
    "identity": ["identity_residual", "split_identity"],
    "abcscan": ["verify_theorem2"],
}
TRACED_METHODS = {("radical", "FactorSieve"): ["build", "load", "dump"]}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sp = Span(next(self._ids), stack[-1].id if stack else None, name,
                  time.perf_counter(), 0.0)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Child intervals are clipped to the parent and merged first, so
    overlapping children (from worker threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children[sp.id]):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self milliseconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sp in spans:
        row = out.setdefault(sp.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * (sp.end - sp.start)
        row["self_ms"] += 1e3 * selfs[sp.id]
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap the traced functions wherever a radseries submodule refers to them.

    Modules import each other's functions by name (``from .stkernel import
    st_ratio``), so every submodule namespace holding the original object
    gets the wrapper, which makes nested calls open nested spans.  The
    package namespace itself (``radseries.st_ratio``) keeps the originals;
    FactorSieve's methods are wrapped on the class, for every caller.
    """
    import radseries  # noqa: F401  (loads every submodule)

    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("radseries.") and mod is not None}
    wrappers = {}
    for short, names in TRACED_FUNCTIONS.items():
        mod = modules[f"radseries.{short}"]
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = tracer.wrap(fn, f"{short}.{name}")
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and callable(value):
                setattr(mod, attr, wrappers[id(value)])
    for (short, cls_name), names in TRACED_METHODS.items():
        cls = getattr(modules[f"radseries.{short}"], cls_name)
        for name in names:
            raw = cls.__dict__[name]
            label = f"{short}.{cls_name}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(raw.__func__, label)))
            else:
                setattr(cls, name, tracer.wrap(raw, label))


def dump_spans(spans: list[Span]) -> list[dict]:
    return [asdict(sp) for sp in spans]


def load_spans(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]
