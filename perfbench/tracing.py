"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` replaces each layer's public entry point (see ``TARGETS``)
with a wrapper that records one span: layer name, start, end, parent span
and thread. Nothing under ``src/`` knows about it, and the untraced runs
never import this module's wrappers, so end-to-end numbers carry no
tracing cost.

Rules the wrappers follow:

- Entry points that recurse (``expand_expr``, ``get_compiled``,
  ``instantiate_module``, ``parse_module_level_form``, ``check_module``)
  record only their outermost call on each thread.
- A span's parent is the innermost open span on the same thread, so spans
  from concurrent server threads never charge time to each other.
- Self time is a span's duration minus the durations of its children.
- ``compile_graph`` forks worker processes. Each worker batch
  (``_compile_batch``) starts a fresh span stack and, when it returns,
  writes its spans and its Runtimes' counters to ``<spill_dir>`` so the
  parent can fold them in; no worker work is dropped.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: counters read from every Runtime created while tracing
STAT_FIELDS = (
    "expansion_steps", "eval_steps", "pyc_codegens", "pyc_links",
    "cache_hits", "cache_misses", "cache_stores",
    "generic_dispatches", "tag_checks", "unsafe_ops", "contract_checks",
)


#: (layer, module, attribute, record only the outermost call per thread)
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("reader.read", "repro.reader.lang_line", "read_module_source", False),
    ("dialects.rewrite", "repro.dialects", "apply_dialects", False),
    ("expander.expand", "repro.expander.expander", "Expander.expand_expr", True),
    ("langs.typecheck", "repro.langs.simple_type.checker", "SimpleChecker.check_module", True),
    ("langs.typecheck", "repro.langs.typed.checker", "FullChecker.check_module", True),
    ("langs.optimize", "repro.langs.simple_type.optimize", "SimpleOptimizer.optimize_module_form", False),
    ("core.parse", "repro.core.parse", "parse_module_level_form", True),
    ("core.lower", "repro.core.lower", "analyze_module", False),
    ("core.pyc_codegen", "repro.core.pyc", "codegen_module", False),
    ("core.pyc_link", "repro.core.pyc", "link_unit", False),
    ("core.closure_compile", "repro.core.compile", "Compiler.compile_module_form", False),
    ("modules.cache_load", "repro.modules.cache", "ModuleCache.load", False),
    ("modules.cache_store", "repro.modules.cache", "ModuleCache.store", False),
    ("modules.cache_writer_wait", "repro.modules.cache", "ModuleCache.claim_writer", False),
    ("modules.graph", "repro.modules.graph", "compile_graph", False),
    ("modules.graph_plan", "repro.modules.graph", "plan_waves", False),
    ("modules.compile", "repro.modules.registry", "ModuleRegistry.get_compiled", True),
    ("modules.instantiate", "repro.modules.instantiate", "instantiate_module", True),
    ("tools.runtime_init", "repro.tools.runner", "Runtime.__init__", False),
)

#: the worker entry point of ``compile_graph``'s process pool
WORKER_TARGET = ("modules.graph_worker", "repro.modules.graph", "_compile_batch")


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid")

    def __init__(self, name: str, start: float, parent: int, tid: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        #: index of the enclosing span on the same thread, -1 for none
        self.parent = parent
        self.tid = tid

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.tid]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[3], row[4])
        span.end = row[2]
        return span


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: (span index at creation, Stats) for every Runtime built
        self.runtimes: list[tuple[int, Any]] = []
        self.spill_dir = spill_dir
        self._local = threading.local()
        self._spills = itertools.count()

    # -- recording ---------------------------------------------------------

    def _state(self) -> tuple[list[int], dict[str, int]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local.stack, local.depth

    def wrap(self, name: str, fn: Callable, outermost: bool) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, depth = self._state()
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            span = Span(name, clock(), stack[-1] if stack else -1,
                        threading.get_ident())
            index = len(spans)
            spans.append(span)
            stack.append(index)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                depth[name] -= 1
            return result

        return wrapper

    def wrap_runtime_init(self, fn: Callable) -> Callable:
        traced = self.wrap("tools.runtime_init", fn, False)

        def init(rt: Any, *args: Any, **kwargs: Any) -> None:
            traced(rt, *args, **kwargs)
            self.runtimes.append((len(self.spans), rt.stats))

        return init

    def wrap_worker(self, fn: Callable) -> Callable:
        """The worker batch: in a forked worker, record from a clean stack
        and spill the batch's spans and counters for the parent."""
        traced = self.wrap(WORKER_TARGET[0], fn, False)

        def batch(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == self.pid or self.spill_dir is None:
                return traced(*args, **kwargs)
            self._local = threading.local()
            del self.spans[:]
            del self.runtimes[:]
            try:
                return traced(*args, **kwargs)
            finally:
                self.spill()

        # the pool pickles the function by module and name, and checks that
        # the name still leads to this very object
        for attr in ("__module__", "__name__", "__qualname__"):
            setattr(batch, attr, getattr(fn, attr))
        return batch

    # -- export ------------------------------------------------------------

    def counters(self, since: int = 0) -> dict[str, int]:
        """Summed counters of the Runtimes created since span ``since``."""
        out = dict.fromkeys(STAT_FIELDS, 0)
        for mark, stats in self.runtimes:
            if mark >= since:
                for key in STAT_FIELDS:
                    out[key] += getattr(stats, key)
        return out

    def spill(self) -> None:
        """Write every span and counter recorded so far to the spill dir."""
        path = os.path.join(
            self.spill_dir, f"spans-{os.getpid()}-{next(self._spills)}.json"
        )
        write_json_atomic(path, {
            "spans": [s.to_json() for s in self.spans],
            "counters": self.counters(),
        })


def write_json_atomic(path: str, payload: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


def read_spills(spill_dir: str) -> list[dict]:
    """Every spilled batch in ``spill_dir`` (removing them)."""
    out = []
    for name in sorted(os.listdir(spill_dir)):
        if name.endswith(".json"):
            path = os.path.join(spill_dir, name)
            with open(path, encoding="utf-8") as f:
                out.append(json.load(f))
            os.remove(path)
    return out


def _resolve(module_name: str, attr: str) -> tuple[Any, str, Any]:
    """(owner, attribute name, current value) for ``module[.Class].attr``."""
    owner: Any = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, owner.__dict__[name]


def _patch(owner: Any, name: str, original: Any, replacement: Any) -> None:
    setattr(owner, name, replacement)
    if isinstance(owner, type):
        return
    # modules that imported the function by name hold their own reference
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("repro") and module is not None:
            if getattr(module, name, None) is original:
                setattr(module, name, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point in ``TARGETS`` for ``recorder``."""
    for layer, module_name, attr, outermost in TARGETS:
        owner, name, original = _resolve(module_name, attr)
        if layer == "tools.runtime_init":
            replacement = recorder.wrap_runtime_init(original)
        else:
            replacement = recorder.wrap(layer, original, outermost)
        _patch(owner, name, original, replacement)
    owner, name, original = _resolve(*WORKER_TARGET[1:])
    _patch(owner, name, original, recorder.wrap_worker(original))


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer: duration minus direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        out[span.name] += (span.end - span.start) - child[i]
    return out


def rebase(spans: list[Span], offset: int) -> list[Span]:
    """Spans whose parent indices are relative to a slice starting at
    ``offset`` of the list they were recorded in."""
    out = []
    for span in spans:
        copy = Span(span.name, span.start, span.parent - offset
                    if span.parent >= offset else -1, span.tid)
        copy.end = span.end
        out.append(copy)
    return out


#: layers reported as ``<layer>_ms`` per-layer metrics (self time)
REPORTED_LAYERS = (
    "reader.read", "dialects.rewrite", "expander.expand", "langs.typecheck",
    "langs.optimize", "core.parse", "core.lower", "core.pyc_codegen",
    "core.pyc_link", "core.closure_compile", "modules.cache_load",
    "modules.cache_store", "modules.cache_writer_wait", "modules.graph",
    "modules.graph_plan", "modules.instantiate", "tools.runtime_init",
)


def layer_ms(selfs: dict[str, float], per: float) -> dict[str, float]:
    """``<layer>_ms`` metrics: self seconds divided by ``per`` units of
    work (rounds, builds, requests), in milliseconds."""
    return {f"{name}_ms": selfs.get(name, 0.0) * 1000 / per
            for name in REPORTED_LAYERS}


def root_seconds(spans: list[Span]) -> float:
    """Total duration of spans with no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
