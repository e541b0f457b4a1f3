"""Shared helpers for the benchmark workloads: statistics, host speed,
memory, hermetic subprocesses and scratch directories.

Everything here runs from the root of a checkout; scratch files live under
``.perfbench-tmp/`` in that checkout and nowhere else.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Iterable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

#: environment variables that would change what the program under test
#: does (backend choice, cache location); cleared for every process
HERMETIC_UNSET = ("REPRO_BACKEND", "REPRO_CACHE_DIR")

#: how many times each workload repeats its set-up; ``setup_s`` is the median
SETUP_REPEATS = 3

#: what one ``startup_ms`` sample runs in a fresh interpreter
STARTUP_CODE = "import repro; repro.Runtime(backend='interp')"


def hermetic_env() -> dict[str, str]:
    """The environment for this process and every process it spawns."""
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = SCRATCH
    # spawned interpreters must find and write bytecode caches, as a
    # user's would, or every cold start would compile ``repro`` anew
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def make_hermetic() -> None:
    """Apply :func:`hermetic_env` to this process."""
    os.makedirs(SCRATCH, exist_ok=True)
    for key in HERMETIC_UNSET:
        os.environ.pop(key, None)
    os.environ["TMPDIR"] = SCRATCH
    tempfile.tempdir = SCRATCH
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(1, ROOT)


def scratch_dir(prefix: str) -> str:
    """A fresh directory under the checkout's scratch area."""
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def artifact_sizes(cache_dir: str) -> list[int]:
    """Byte sizes of the compiled artifacts (``*.zo``) in a cache dir."""
    return [
        os.path.getsize(os.path.join(cache_dir, name))
        for name in os.listdir(cache_dir) if name.endswith(".zo")
    ]


def host_metadata() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _kfib(n: int) -> int:
    return n if n < 2 else _kfib(n - 1) + _kfib(n - 2)


def kernel_ms() -> float:
    """One run of the host-speed kernel, in ms: calls, integer arithmetic
    and a dict, the operations the program's interpreters spend their time
    on, in code that does not change with the program."""
    t0 = time.perf_counter()
    _kfib(15)
    table: dict[int, int] = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
    return (time.perf_counter() - t0) * 1000


#: the kernel's time on a quiet 2-vCPU host running CPython 3.11; a scaled
#: time reads as milliseconds on that host
REFERENCE_KERNEL_MS = 0.2
#: kernel runs per tick
TICK_RUNS = 5


class HostSpeed:
    """The host's speed, from short kernel runs ("ticks") taken around
    every measurement.

    A 2-vCPU host can run at two speeds about 1.5x apart, each phase
    lasting from seconds to tens of seconds, so phases outlast a run and
    no sampling inside one run averages them out. Each measurement is
    therefore also reported scaled by ``REFERENCE_KERNEL_MS`` over the
    median kernel time of the ticks around it: the program's time in units
    of a fixed piece of Python.
    """

    def __init__(self) -> None:
        #: (perf_counter at the end of the tick, kernel run times in ms)
        self.ticks: list[tuple[float, list[float]]] = []

    def tick(self, runs: int = TICK_RUNS, every_cpu: bool = False) -> list[float]:
        """Run the kernel ``runs`` times on the current CPU, or, with
        ``every_cpu``, ``runs`` times on each CPU this process may use:
        each CPU has its own slow phases, and work spread over processes
        or threads runs on all of them."""
        if not every_cpu:
            times = [kernel_ms() for _ in range(runs)]
        else:
            allowed = os.sched_getaffinity(0)
            times = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    times += [kernel_ms() for _ in range(runs)]
            finally:
                os.sched_setaffinity(0, allowed)
        self.ticks.append((time.perf_counter(), times))
        return times

    def scale(self, *ticks: list[float]) -> float:
        """Factor taking a time measured between ``ticks`` to the
        reference speed."""
        return REFERENCE_KERNEL_MS / median(t for tick in ticks for t in tick)

    def scale_window(self, start: float, end: float, margin: float = 0.25) -> float:
        """The factor for a measurement from ``start`` to ``end``
        (perf_counter), from the ticks taken around it."""
        near = [t for at, t in self.ticks if start - margin <= at <= end + margin]
        if not near:
            at, t = min(self.ticks, key=lambda tick: abs(tick[0] - end))
            near = [t]
        return self.scale(*near)

    def kernel_median(self, since: int = 0) -> float:
        """Median kernel time of the ticks from index ``since`` on."""
        return median(t for _, tick in self.ticks[since:] for t in tick)


def scaled_run(host: HostSpeed, fn: Callable[[], Any], every_cpu: bool = False
               ) -> tuple[Any, float, float]:
    """Run ``fn`` once between two ticks; returns its result, its seconds
    and its seconds scaled to the reference speed."""
    before = host.tick(every_cpu=every_cpu)
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    after = host.tick(every_cpu=every_cpu)
    return result, elapsed, elapsed * host.scale(before, after)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (``VmHWM``) of a live child process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def spawn_seconds(code: str, timeout: float = 60.0) -> float:
    """Wall time of a fresh interpreter running ``code`` to completion."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=hermetic_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"spawned interpreter failed ({proc.returncode}): "
            f"{proc.stderr.decode(errors='replace')[-400:]}"
        )
    return elapsed


def start_seconds(host: HostSpeed) -> tuple[float, float]:
    """One fresh-interpreter start: its seconds, raw and scaled by ticks on
    every CPU around it."""
    _, raw, scaled = scaled_run(
        host, lambda: spawn_seconds(STARTUP_CODE), every_cpu=True)
    return raw, scaled


class Deadline:
    """The measured window of one run."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
