"""``build``: cold and warm builds of a generated module graph, and cold
process start.

Set-up writes a seeded module DAG to a scratch directory. Its modules mix
``#lang racket``, ``typed``, ``racket/match-ext`` and ``racket/infix``,
sit on several dependency levels and lean on macros; the generator knows
every module's value, so outputs are checked against Python arithmetic,
never against the compiler under test.

Each cycle of the timed phase does, in order:

1. cold: a fresh cache directory, a fresh ``Runtime(backend="pyc")`` and
   ``rt.compile_graph(roots)`` with default arguments;
2. cold start: one fresh interpreter running ``import repro;
   repro.Runtime(backend="interp")``;
3. warm: a fresh Runtime and the same ``compile_graph`` over the filled
   cache, which must expand nothing and generate no code;
4. another cold start.
"""

from __future__ import annotations

import gc
import os
import random
import time

from perfbench import common, tracing

#: modules per dependency level, bottom first
LEVELS = (5, 4, 3, 2)
LANGS = ("racket", "typed", "racket/match-ext", "racket/infix")
#: macro-using helper definitions per module
HELPERS = 6
#: fixes which modules each module requires (the run's seed does not)
STRUCTURE_SEED = 12


class Module:
    def __init__(self, index: int, lang: str, deps: list["Module"],
                 consts: tuple[int, int, int]) -> None:
        self.index = index
        self.lang = lang
        self.deps = deps
        self.consts = consts
        self.name = f"m{index}"
        self.value = self._value()

    def _f1(self) -> int:
        c0, c1, c2 = self.consts
        if self.lang == "racket/infix":
            return 2 * 1 + c1
        if self.lang == "racket/match-ext":
            return 1 + c1 + c2
        return 2 * (1 + c1 + c2)

    def _value(self) -> int:
        helpers = sum(1 + 36 + k for k in range(HELPERS))
        return (self.consts[0] + sum(d.value for d in self.deps)
                + self._f1() + helpers)

    def source(self, root: bool) -> str:
        i = self.index
        c0, c1, c2 = self.consts
        deps = " ".join(f"v{d.index}" for d in self.deps)
        lines = [f"#lang {self.lang}"]
        typed = self.lang == "typed"
        for d in self.deps:
            if typed and d.lang != "typed":
                lines.append(f'(require/typed "{d.name}.rkt" [v{d.index} Integer])')
            else:
                lines.append(f'(require "{d.name}.rkt")')
        lines.append(
            f"(define-syntax sum{i} (syntax-rules () [(_) 0] "
            f"[(_ e r ...) (+ e (sum{i} r ...))]))"
        )
        for k in range(HELPERS):
            if typed:
                lines.append(f"(: g{i}_{k} (Integer -> Integer))")
            lines.append(
                f"(define (g{i}_{k} x) (sum{i} x 1 2 3 4 5 6 7 8 {k}))"
            )
        helpers = " ".join(f"(g{i}_{k} 1)" for k in range(HELPERS))
        if self.lang == "racket/infix":
            lines += [
                "(define-op ^ 8 right expt)",
                f"(define (f{i} x) {{x * 2 + {c1} * {{1 ^ 3}}}})",
                f"(define v{i} {{{c0} + (sum{i} {deps} 0) + (f{i} 1) + (sum{i} {helpers})}})",
            ]
        elif self.lang == "racket/match-ext":
            lines += [
                f"(define-match-expander pt{i} "
                f"(syntax-rules () [(_ a b) (list 'pt a b)]))",
                f"(define (f{i} x) (match (list 'pt x {c1}) "
                f"[(pt{i} a b) (+ a b {c2})] [_ 0]))",
                f"(define v{i} (match (list {c0} (sum{i} {deps} 0)) "
                f"[(list a b) (+ a b (f{i} 1) (sum{i} {helpers}))] [_ 0]))",
            ]
        else:
            if typed:
                lines.append(f"(: f{i} (Integer -> Integer))")
            lines.append(
                f"(define-syntax twice{i} (syntax-rules () [(_ e) (+ e e)]))"
            )
            lines.append(f"(define (f{i} x) (twice{i} (sum{i} x {c1} {c2})))")
            if typed:
                lines.append(f"(: v{i} Integer)")
            lines.append(
                f"(define v{i} (sum{i} {c0} {deps} (f{i} 1) {helpers}))"
            )
        lines.append(f"(provide v{i} f{i})")
        if root:
            lines.append(f"(displayln v{i})")
        return "\n".join(lines) + "\n"


def generate(seed: int) -> list[list[Module]]:
    """The module DAG. Its structure is fixed (``STRUCTURE_SEED``): the
    language of every module and which modules each one requires, so every
    seed costs the same to build and stores the same number of bytes. The
    run's seed picks every constant, hence every value and output."""
    wiring = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    levels: list[list[Module]] = []
    index = 0
    for width in LEVELS:
        below = [m for level in levels for m in level]
        level = []
        for _ in range(width):
            deps: list[Module] = []
            if levels:
                # one dependency from the level just below keeps the graph
                # layered; two more from anywhere below
                deps.append(wiring.choice(levels[-1]))
                deps += wiring.sample([m for m in below if m not in deps], 2)
            consts = (rng.randrange(100, 1000), rng.randrange(10, 100),
                      rng.randrange(10, 100))
            level.append(Module(index, LANGS[index % len(LANGS)], deps, consts))
            index += 1
        levels.append(level)
    return levels


def write_graph(levels: list[list[Module]], directory: str) -> list[tuple[str, str]]:
    """Write every module; returns ``(root path, expected output)`` for
    each root, a module no other module requires, which prints its value."""
    modules = [m for level in levels for m in level]
    required = {id(d) for m in modules for d in m.deps}
    roots = []
    for module in modules:
        root = id(module) not in required
        path = os.path.join(directory, f"{module.name}.rkt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(module.source(root))
        if root:
            roots.append((path, f"{module.value}\n"))
    return roots


def setup(seed: int, host: common.HostSpeed
          ) -> tuple[str, list[tuple[str, str]], float]:
    """Write the graph and spawn one untimed interpreter (so bytecode
    caches exist before any ``startup_ms`` sample), ``SETUP_REPEATS``
    times; returns the last graph directory, its roots and the median of
    the scaled set-up times."""
    times = []
    directory = ""
    roots: list[tuple[str, str]] = []

    def once() -> tuple[str, list[tuple[str, str]]]:
        directory = common.scratch_dir("build-src-")
        roots = write_graph(generate(seed), directory)
        common.spawn_seconds(common.STARTUP_CODE)
        return directory, roots

    for _ in range(common.SETUP_REPEATS):
        if directory:
            common.remove_dir(directory)
        (directory, roots), _, seconds = common.scaled_run(host, once, every_cpu=True)
        times.append(seconds)
    return directory, roots, common.median(times)


class Builder:
    def __init__(self, roots: list[tuple[str, str]], host: common.HostSpeed) -> None:
        self.roots = roots
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: seconds of each successful cold build, warm build and start,
        #: raw and scaled to the reference host speed
        self.raw: dict[str, list[float]] = {"cold": [], "warm": [], "startup": []}
        self.scaled: dict[str, list[float]] = {"cold": [], "warm": [], "startup": []}
        self.artifact: list[int] = []
        self.reports: list = []
        #: the traced run's collector (see BuildTrace), None untraced
        self.trace: "BuildTrace | None" = None

    def clear(self) -> None:
        for samples in (*self.raw.values(), *self.scaled.values()):
            samples.clear()
        self.reports.clear()

    def build(self, cache_dir: str, warm: bool) -> None:
        """One timed ``Runtime()`` + ``compile_graph``; checks outputs."""
        from repro import Runtime

        self.attempted += 1
        kind = "warm" if warm else "cold"
        try:
            before = self.host.tick(every_cpu=True)
            t0 = time.perf_counter()
            rt = Runtime(backend="pyc", cache_dir=cache_dir)
            report = rt.compile_graph([path for path, _ in self.roots])
            elapsed = time.perf_counter() - t0
            if self.trace is not None:
                self.trace.collect(kind, cache_dir)
            scale = self.host.scale(before, self.host.tick(every_cpu=True))
            try:
                problems = self._check(rt, report, warm)
            finally:
                rt.close()
                if self.trace is not None:
                    self.trace.skip()
        except Exception as err:  # a crash is a failed operation
            self.failed += 1
            self.errors.append(f"{kind} build: {type(err).__name__}: {err}")
            return
        if problems:
            self.failed += 1
            self.errors.extend(f"{kind} build: {p}" for p in problems)
            return
        self.reports.append(report)
        self.raw[kind].append(elapsed)
        self.scaled[kind].append(elapsed * scale)
        if not warm:
            self.artifact.append(sum(common.artifact_sizes(cache_dir)))

    def _check(self, rt, report, warm: bool) -> list[str]:
        problems = []
        if not report.ok:
            problems.append(f"graph report not ok: {report.errors}")
        for path, expected in self.roots:
            output = rt.run(path)
            if output != expected:
                problems.append(f"{path}: expected {expected!r}, got {output!r}")
        if warm:
            stats = rt.stats
            compiled = report.counts().get("compiled", 0)
            if stats.expansion_steps or stats.pyc_codegens or compiled:
                problems.append(
                    "invariant: warm build did work: expansion_steps="
                    f"{stats.expansion_steps} pyc_codegens={stats.pyc_codegens} "
                    f"compiled={compiled}"
                )
        return problems

    def spawn(self) -> None:
        self.attempted += 1
        try:
            elapsed, scaled = common.start_seconds(self.host)
        except Exception as err:  # a crash is a failed operation
            self.failed += 1
            self.errors.append(f"startup: {err}")
            return
        self.raw["startup"].append(elapsed)
        self.scaled["startup"].append(scaled)

    def cycle(self) -> None:
        """cold build, cold start, warm build, cold start."""
        gc.collect()
        cache_dir = common.scratch_dir("build-cache-")
        try:
            self.build(cache_dir, warm=False)
            self.spawn()
            self.build(cache_dir, warm=True)
            self.spawn()
        finally:
            common.remove_dir(cache_dir)

    def cycles(self, deadline: common.Deadline) -> int:
        n = 0
        while n == 0 or not deadline.expired():
            self.cycle()
            n += 1
        return n

    def metrics(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """Median warm build (the fast path), cold build (the slow path)
        and start, in ms."""
        if not all(samples.values()):
            return {}
        return {
            "fast_path_ms": common.median(samples["warm"]) * 1000,
            "slow_path_ms": common.median(samples["cold"]) * 1000,
            "startup_ms": common.median(samples["startup"]) * 1000,
        }

    def result(self, metrics: dict, info: dict) -> dict:
        artifacts = set(self.artifact)
        if len(artifacts) > 1:
            self.errors.append(
                f"invariant: artifact bytes differ between cold builds: {sorted(artifacts)}"
            )
        return {
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "metrics": metrics, "info": info,
        }


def run(seed: int, seconds: float, trace: bool) -> dict:
    host = common.HostSpeed()
    directory, roots, setup_s = setup(seed, host)
    try:
        builder = Builder(roots, host)
        if trace:
            return _traced(builder, seconds)
        cycles = builder.cycles(common.Deadline(seconds))
        metrics = builder.metrics(builder.scaled)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = common.peak_rss_mb()
        return builder.result(metrics, {
            "cycles": cycles, "raw_ms": builder.metrics(builder.raw),
            "artifact_kb": builder.artifact[0] / 1024 if builder.artifact else None,
            "kernel_median_ms": host.kernel_median(),
        })
    finally:
        common.remove_dir(directory)


class BuildTrace:
    """Spans and counters of each traced build, taken the moment its
    timing stops (the output check that follows is not part of it)."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.recorder = tracing.Recorder(spill_dir)
        tracing.install(self.recorder)
        self.mark = 0
        #: self seconds per layer, over this process and every worker
        self.selfs: dict[str, float] = {}
        #: seconds of this process's top-level spans
        self.root_seconds = 0.0
        #: (kind, counters) per build
        self.builds: list[tuple[str, dict]] = []

    def _add(self, spans: list[tracing.Span]) -> None:
        for name, value in tracing.self_times(spans).items():
            self.selfs[name] = self.selfs.get(name, 0.0) + value

    def collect(self, kind: str, cache_dir: str) -> None:
        rec = self.recorder
        own = tracing.rebase(rec.spans[self.mark:], self.mark)
        self._add(own)
        self.root_seconds += tracing.root_seconds(own)
        counters = rec.counters(self.mark)
        for spill in tracing.read_spills(self.spill_dir):
            self._add([tracing.Span.from_json(row) for row in spill["spans"]])
            for key, value in spill["counters"].items():
                counters[key] += value
        counters["artifacts"] = len(common.artifact_sizes(cache_dir))
        self.builds.append((kind, counters))
        self.skip()

    def skip(self) -> None:
        self.mark = len(self.recorder.spans)

    def first_counts(self, errors: list[str]) -> tuple[dict, dict]:
        """Counters of the first cold and warm build; every later build of
        the same kind must repeat them exactly."""
        first: dict[str, dict] = {}
        for kind, counters in self.builds:
            expected = first.setdefault(kind, counters)
            if counters != expected:
                errors.append(
                    f"invariant: {kind} build counts changed between builds: "
                    f"{expected} then {counters}"
                )
        return first["cold"], first["warm"]


def _traced(builder: Builder, seconds: float) -> dict:
    """Untraced cycles for half the time, then traced cycles."""
    builder.cycles(common.Deadline(seconds / 2))
    untraced_cold = common.median(builder.scaled["cold"])
    builder.clear()

    spill_dir = common.scratch_dir("build-spill-")
    try:
        trace = builder.trace = BuildTrace(spill_dir)
        n = builder.cycles(common.Deadline(seconds / 2))
        builder.trace = None
        import_ms, bare_ms = [], []
        for _ in range(3):
            import_ms.append(common.spawn_seconds("import repro") * 1000)
            bare_ms.append(common.spawn_seconds("pass") * 1000)
    finally:
        common.remove_dir(spill_dir)

    cold, warm = trace.first_counts(builder.errors)
    both = {k: cold[k] + warm[k] for k in cold}
    graph_module = sum(
        r.seconds for report in builder.reports for r in report.results.values()
    )
    build_wall = sum(builder.raw["cold"]) + sum(builder.raw["warm"])
    metrics = {
        **tracing.layer_ms(trace.selfs, n),
        "expander.steps": both["expansion_steps"],
        "core.pyc_codegens": both["pyc_codegens"],
        "modules.cache_hits": both["cache_hits"],
        "modules.cache_misses": both["cache_misses"],
        "modules.cache_stores": both["cache_stores"],
        "modules.duplicate_stores": cold["cache_stores"] - cold["artifacts"],
        "modules.graph_module_ms": graph_module * 1000 / n,
        "modules.artifact_kb": builder.artifact[0] / 1024,
        "tools.import_ms": min(import_ms) - min(bare_ms),
        "host.calib_ms": builder.host.kernel_median(),
        "residue_ms": (build_wall - trace.root_seconds) * 1000 / n,
        "trace.overhead_pct": 100 * (common.median(builder.scaled["cold"]) / untraced_cold - 1),
    }
    return builder.result(metrics, {
        "cycles_traced": n, "cold_counts": cold, "warm_counts": warm,
    })
