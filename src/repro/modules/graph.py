"""Module-graph compilation.

``compile_graph`` compiles a set of modules (and their dependencies) in
the calling registry, in dependency order. Each module is compiled once,
against its dependencies' compiled forms (§5's phase-separated
compilation); with an artifact cache, a module whose artifact is already
on disk is loaded rather than recompiled.

Scheduling: a cheap top-level scan of each module's ``require`` forms
produces a dependency graph, and Kahn's algorithm layers it into *waves* of
mutually independent modules, compiled wave by wave. The scan is
best-effort by design (a macro that expands into a ``require`` is invisible
to it): a module the scan missed is simply compiled transitively by the
first module that requires it, so the order is an optimization, never a
correctness mechanism.

Several processes may build graphs against one cache directory at once
(for example N ``repro`` processes); they cooperate through the cache's
per-artifact writer claim (:meth:`repro.modules.cache.ModuleCache.claim_writer`),
so each artifact is compiled and stored by one of them and loaded by the
rest. There is no in-process worker pool: compilation is pure Python, so
threads serialize on the GIL, and worker processes paid more to re-load
every dependency from the cache than they saved.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.modules.registry import ModuleRegistry


class ModuleResult:
    """Outcome of one module's compilation within a graph run."""

    __slots__ = ("path", "status", "seconds", "wave", "error")

    def __init__(
        self,
        path: str,
        status: str,
        seconds: float,
        wave: int,
        error: Optional[str] = None,
    ) -> None:
        self.path = path
        #: "compiled" (compiled from source during this run, by its own
        #: compile or transitively by an earlier module's) | "cache-hit"
        #: (loaded from the artifact cache, or already compiled in the
        #: registry) | "failed"
        self.status = status
        self.seconds = seconds
        self.wave = wave
        self.error = error

    def __repr__(self) -> str:
        return f"#<module-result {self.path} {self.status} {self.seconds:.3f}s>"


class GraphReport:
    """What ``compile_graph`` did: per-module outcomes plus the schedule."""

    def __init__(self) -> None:
        self.waves: list[list[str]] = []
        self.results: dict[str, ModuleResult] = {}
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return all(r.status != "failed" for r in self.results.values())

    @property
    def errors(self) -> dict[str, str]:
        return {
            path: r.error or "compilation failed"
            for path, r in self.results.items()
            if r.status == "failed"
        }

    def counts(self) -> dict[str, int]:
        out = {"compiled": 0, "cache-hit": 0, "failed": 0}
        for r in self.results.values():
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def snapshot(self) -> dict[str, Any]:
        return {
            "seconds": self.seconds,
            "waves": [list(w) for w in self.waves],
            "counts": self.counts(),
            "modules": {
                path: {
                    "status": r.status,
                    "seconds": r.seconds,
                    "wave": r.wave,
                    **({"error": r.error} if r.error else {}),
                }
                for path, r in self.results.items()
            },
        }

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"#<graph-report compiled={c['compiled']} cache-hit={c['cache-hit']} "
            f"failed={c['failed']} {self.seconds:.3f}s>"
        )


# -- dependency scan ---------------------------------------------------------

_WRAPPERS = ("only-in", "rename-in", "only")


def _spec_module_name(spec: Any) -> Optional[str]:
    """The module name of one require spec, or None when it isn't literal."""
    e = spec.e
    if isinstance(e, tuple) and e and e[0].is_identifier() and e[0].e.name in _WRAPPERS:
        if len(e) < 2:
            return None
        e = e[1].e
    if isinstance(e, str):
        return e
    # a symbol spec names a registered module path verbatim
    from repro.runtime.values import Symbol

    if isinstance(e, Symbol):
        return e.name
    return None


def scan_requires(registry: "ModuleRegistry", path: str) -> list[str]:
    """Best-effort top-level ``require`` scan of a registered module.

    Resolves each literal require spec against the registry; specs that
    cannot be resolved (or requires produced by macro expansion) are
    silently skipped — the compile itself discovers and compiles them.
    """
    source = registry.sources.get(path)
    if source is None and os.path.exists(path):
        # an on-disk dependency reached only through the scan: register it
        # so its own requires are visible to the planner
        try:
            registry.register_file(path)
        except (ReproError, OSError):
            return []
        source = registry.sources.get(path)
    if source is None:
        return []
    _lang, forms = source
    deps: list[str] = []
    for form in forms:
        e = form.e
        if not (isinstance(e, tuple) and e and e[0].is_identifier()):
            continue
        if e[0].e.name != "require":
            continue
        for spec in e[1:]:
            name = _spec_module_name(spec)
            if name is None:
                continue
            try:
                dep = registry.resolve_module_path(name, relative_to=path)
            except ReproError:
                continue
            if dep != path and dep not in deps:
                deps.append(dep)
    return deps


def plan_waves(
    registry: "ModuleRegistry", paths: list[str]
) -> tuple[list[list[str]], dict[str, list[str]]]:
    """Layer the (scanned) dependency graph into waves of independent
    modules — Kahn's algorithm, with deterministic ordering inside each
    wave. Returns ``(waves, deps)`` where ``deps`` maps each discovered
    module to its scanned in-graph dependencies. A scan-visible dependency
    cycle puts its members into one final wave (the compile itself then
    reports M003 with the precise chain)."""
    deps: dict[str, list[str]] = {}
    order: list[str] = []
    stack = list(paths)
    while stack:
        path = stack.pop()
        if path in deps:
            continue
        scanned = scan_requires(registry, path)
        deps[path] = scanned
        order.append(path)
        stack.extend(d for d in scanned if d not in deps)

    remaining = {p: set(d for d in ds if d in deps) for p, ds in deps.items()}
    waves: list[list[str]] = []
    while remaining:
        ready = sorted(p for p, blockers in remaining.items() if not blockers)
        if not ready:
            # cycle: flush the rest in one wave; compilation raises M003
            waves.append(sorted(remaining))
            break
        waves.append(ready)
        for p in ready:
            del remaining[p]
        for blockers in remaining.values():
            blockers.difference_update(ready)
    return waves, deps


# -- the build ----------------------------------------------------------------


def _compile_batch(
    registry: "ModuleRegistry",
    paths: list[str],
    wave_no: int,
    report: GraphReport,
) -> None:
    """Compile one wave's modules in order, recording each outcome in
    ``report``. A module counts as ``"compiled"`` when the registry compiled
    it from source at any point of this run (``registry.source_compiles``),
    otherwise as a ``"cache-hit"``."""
    for path in paths:
        t0 = time.perf_counter()
        try:
            registry.get_compiled(path)
        except ReproError as err:
            report.results[path] = ModuleResult(
                path, "failed", time.perf_counter() - t0, wave_no, str(err)
            )
            continue
        status = "compiled" if path in registry.source_compiles else "cache-hit"
        report.results[path] = ModuleResult(
            path, status, time.perf_counter() - t0, wave_no
        )


def compile_graph(registry: "ModuleRegistry", paths: list[str]) -> GraphReport:
    """Compile ``paths`` and their dependencies in the calling registry,
    wave by wave in dependency order; see the module docstring. A module
    that fails is reported (status ``"failed"``) and the build goes on with
    the rest, so one report names every failure."""
    from repro.observe.recorder import current_recorder

    rec = current_recorder()
    t_start = time.perf_counter()

    # canonicalize: on-disk spellings register under their canonical path
    resolved: list[str] = []
    for p in paths:
        canon = registry.register_file(p) if os.path.exists(p) else p
        if canon not in resolved:
            resolved.append(canon)

    with rec.span("graph", f"plan {len(resolved)} roots"):
        waves, _deps = plan_waves(registry, resolved)
    report = GraphReport()
    report.waves = waves

    registry.source_compiles = set()
    try:
        for wave_no, wave in enumerate(waves):
            with rec.span("graph", f"wave {wave_no} ({len(wave)} modules)"):
                _compile_batch(registry, wave, wave_no, report)
    finally:
        registry.source_compiles = None
    report.seconds = time.perf_counter() - t_start
    return report
