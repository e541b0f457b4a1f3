"""``exec``: run time of compiled fig. 6-9 programs, plain and governed.

Every program is compiled once per configuration and backend in set-up.
The timed phase instantiates each compiled module in a fresh namespace,
plain (no budget) and governed (a no-limit ``Budget`` attached to the same
Runtime, as serve's pool does), with samples taken round-robin over every
cell, one sample per cell per round, in a seeded order. Each sample is
scaled by the host-speed ticks taken just before and just after it, and
each cell keeps the median of its scaled samples; see README.md for why.
After each complete round, fresh-interpreter starts give ``startup_ms``.
"""

from __future__ import annotations

import gc
import random
import time

from perfbench import common, tracing

#: the fig. 6-9 programs measured; the rest cost too much per sample to
#: fit enough rounds into one run (README.md, "exec")
PROGRAMS = ("ack", "fib", "nqueens", "diviter", "fannkuch", "mandelbrot",
            "raytrace", "fft")
CONFIGS = ("untyped", "typed/opt")
BACKENDS = ("interp", "pyc")
VARIANTS = ("plain", "governed")

#: counters that must agree between the two backends for one cell
PARITY_COUNTERS = ("eval_steps", "generic_dispatches", "tag_checks", "unsafe_ops")
ROUND_COUNTERS = PARITY_COUNTERS + ("contract_checks",)
#: fresh-interpreter starts after each complete round of the untraced run
STARTS_PER_ROUND = 2


def _programs() -> list:
    from benchmarks.programs import ALL_PROGRAMS

    by_name = {p.name: p for p in ALL_PROGRAMS}
    return [by_name[name] for name in PROGRAMS]


class Unit:
    """One program compiled under one configuration on one backend."""

    def __init__(self, program, config: str, backend: str) -> None:
        from repro import Runtime

        self.program = program
        self.config = config
        self.backend = backend
        self.path = f"<{program.name}:{config}:{backend}>"
        if config == "untyped":
            source = "#lang racket\n" + program.untyped
        else:
            source = "#lang typed\n" + program.typed
        self.rt = Runtime(backend=backend, cache=False)
        self.rt.register_module(self.path, source)
        self.rt.compile(self.path)


def setup(host: common.HostSpeed) -> tuple[list[Unit], float]:
    """Compile every unit ``SETUP_REPEATS`` times; returns the last set and
    the median of the scaled set-up times."""
    times = []
    units: list[Unit] = []
    programs = _programs()
    for _ in range(common.SETUP_REPEATS):
        for unit in units:
            unit.rt.close()
        gc.collect()
        units, _, seconds = common.scaled_run(host, lambda: [
            Unit(p, config, backend)
            for p in programs for config in CONFIGS for backend in BACKENDS
        ])
        times.append(seconds)
    return units, common.median(times)


class Samples:
    """Per-cell samples of one sampling phase, raw and scaled."""

    def __init__(self) -> None:
        self.raw: dict[tuple[str, str], list[float]] = {}
        self.scaled: dict[tuple[str, str], list[float]] = {}
        self.rounds = 0

    def add(self, cell: tuple[str, str], seconds: float, scale: float) -> None:
        self.raw.setdefault(cell, []).append(seconds)
        self.scaled.setdefault(cell, []).append(seconds * scale)

    def wall(self) -> float:
        return sum(sum(v) for v in self.raw.values())

    def cell_ms(self, scaled: bool = True) -> dict[tuple[str, str], float]:
        """Each cell's median scaled sample, or its fastest raw one, in ms."""
        if scaled:
            return {k: common.median(v) * 1000 for k, v in self.scaled.items()}
        return {k: min(v) * 1000 for k, v in self.raw.items()}


class Sampler:
    """Round-robin sampling over (unit, variant) cells."""

    def __init__(self, units: list[Unit], seed: int,
                 host: common.HostSpeed) -> None:
        from repro import Budget

        self.budget_type = Budget
        self.units = units
        self.cells = [(u, v) for u in units for v in VARIANTS]
        self.rng = random.Random(seed)
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: (unit path, variant) -> counters of the first sample
        self.counters: dict[tuple[str, str], dict[str, int]] = {}
        #: scaled seconds of each fresh-interpreter start
        self.starts: list[float] = []

    def sample(self, unit: Unit, variant: str) -> float | None:
        """One instantiation; returns its wall seconds, or None when it
        failed."""
        rt = unit.rt
        ns = rt.make_namespace()
        rt.stats.reset()
        rt.budget = self.budget_type() if variant == "governed" else None
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            output = rt.run(unit.path, ns)
            elapsed = time.perf_counter() - t0
        except Exception as err:  # a crash is a failed operation
            self.failed += 1
            self.errors.append(f"{unit.path} [{variant}]: {type(err).__name__}: {err}")
            return None
        finally:
            rt.budget = None
        if output != unit.program.expected:
            self.failed += 1
            self.errors.append(
                f"{unit.path} [{variant}]: expected {unit.program.expected!r}, "
                f"got {output!r}"
            )
            return None
        snap = rt.stats.snapshot()
        counters = {k: snap[k] for k in ROUND_COUNTERS}
        first = self.counters.setdefault((unit.path, variant), counters)
        if counters != first:
            self.errors.append(
                f"invariant: {unit.path} [{variant}] counters changed between "
                f"samples: {first} then {counters}"
            )
        return elapsed

    def start(self) -> None:
        """One fresh-interpreter start, scaled like a build's."""
        self.attempted += 1
        try:
            _, scaled = common.start_seconds(self.host)
        except Exception as err:  # a crash is a failed operation
            self.failed += 1
            self.errors.append(f"startup: {err}")
            return
        self.starts.append(scaled)

    def run(self, deadline: common.Deadline, *, whole_rounds: bool,
            starts_per_round: int = 0) -> Samples:
        """Sample until ``deadline``. The first round always completes;
        with ``whole_rounds`` every round does. After each complete round
        come ``starts_per_round`` fresh-interpreter starts, so the starts
        spread over the run as the samples do."""
        samples = Samples()
        gc.collect()
        before = self.host.tick()
        while samples.rounds == 0 or not deadline.expired():
            order = list(self.cells)
            self.rng.shuffle(order)
            complete = True
            for unit, variant in order:
                if samples.rounds and not whole_rounds and deadline.expired():
                    complete = False
                    break
                elapsed = self.sample(unit, variant)
                after = self.host.tick()
                if elapsed is not None:
                    samples.add((unit.path, variant), elapsed,
                                self.host.scale(before, after))
                before = after
            if complete:
                samples.rounds += 1
                for _ in range(starts_per_round):
                    self.start()
                before = self.host.tick()
            gc.collect()
        return samples

    def check_parity(self) -> None:
        """Each cell's counters must be identical on interp and pyc."""
        by_key = {}
        for unit in self.units:
            for variant in VARIANTS:
                counters = self.counters.get((unit.path, variant))
                if counters is None:
                    continue
                key = (unit.program.name, unit.config, variant)
                other = by_key.setdefault(key, (unit.backend, counters))
                mismatch = {
                    k: (other[1][k], counters[k]) for k in PARITY_COUNTERS
                    if other[1][k] != counters[k]
                }
                if mismatch:
                    self.errors.append(
                        f"invariant: {key} counters differ between "
                        f"{other[0]} and {unit.backend}: {mismatch}"
                    )


def variant_ms(units: list[Unit], cells: dict[tuple[str, str], float]
               ) -> dict[str, float]:
    """Geomean over programs and configurations of the per-cell values,
    per backend and variant."""
    out = {}
    for backend in BACKENDS:
        for variant in VARIANTS:
            values = [
                cells[(u.path, variant)] for u in units
                if u.backend == backend and (u.path, variant) in cells
            ]
            suffix = "_governed" if variant == "governed" else ""
            out[f"run_{backend}{suffix}_ms"] = (
                common.geomean(values) if values else float("nan")
            )
    return out


def path_ms(cells: dict[tuple[str, str], float]) -> dict[str, float]:
    """The fast path is a plain run, the slow path a governed one: geomean
    over every program, configuration and backend of the per-cell values."""
    out = {}
    for name, variant in (("fast_path_ms", "plain"), ("slow_path_ms", "governed")):
        values = [ms for (_, v), ms in cells.items() if v == variant]
        out[name] = common.geomean(values) if values else float("nan")
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    host = common.HostSpeed()
    units, setup_s = setup(host)
    sampler = Sampler(units, seed, host)
    if not trace:
        # an untimed start first, so bytecode caches exist
        common.spawn_seconds(common.STARTUP_CODE)
        samples = sampler.run(common.Deadline(seconds), whole_rounds=False,
                              starts_per_round=STARTS_PER_ROUND)
        sampler.check_parity()
        cells = samples.cell_ms()
        metrics = path_ms(cells)
        if sampler.starts:
            metrics["startup_ms"] = common.median(sampler.starts) * 1000
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = common.peak_rss_mb()
        return _result(sampler, metrics, {
            "rounds": samples.rounds, "starts": len(sampler.starts),
            "variant_ms": variant_ms(units, cells),
            "raw_fastest_ms": variant_ms(units, samples.cell_ms(scaled=False)),
            "kernel_median_ms": host.kernel_median(),
        })

    # traced run: an untraced half, then the same sampling with wrappers on
    plain = sampler.run(common.Deadline(seconds / 2), whole_rounds=False)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    traced = sampler.run(common.Deadline(seconds / 2), whole_rounds=True)
    sampler.check_parity()
    rounds = traced.rounds
    round_counts = {k: 0 for k in ROUND_COUNTERS}
    for counters in sampler.counters.values():
        for k in ROUND_COUNTERS:
            round_counts[k] += counters[k]
    plain_cells, traced_cells = plain.cell_ms(), traced.cell_ms()
    plain_ms = variant_ms(units, plain_cells)
    layers = {
        **tracing.layer_ms(tracing.self_times(recorder.spans), rounds),
        "guard.eval_steps": round_counts["eval_steps"],
        "guard.overhead_interp": plain_ms["run_interp_governed_ms"] / plain_ms["run_interp_ms"],
        "guard.overhead_pyc": plain_ms["run_pyc_governed_ms"] / plain_ms["run_pyc_ms"],
        "runtime.generic_dispatches": round_counts["generic_dispatches"],
        "runtime.tag_checks": round_counts["tag_checks"],
        "runtime.unsafe_ops": round_counts["unsafe_ops"],
        "runtime.contract_checks": round_counts["contract_checks"],
        "host.calib_ms": host.kernel_median(),
        "residue_ms": (traced.wall() - tracing.root_seconds(recorder.spans))
        * 1000 / rounds,
        "trace.overhead_pct": 100 * (common.geomean(
            traced_cells[k] / plain_cells[k] for k in traced_cells) - 1),
    }
    return _result(sampler, layers, {"rounds_traced": rounds})


def _result(sampler: Sampler, metrics: dict, info: dict) -> dict:
    return {
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "errors": sampler.errors,
        "metrics": metrics,
        "info": info,
    }
