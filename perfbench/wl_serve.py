"""``serve``: a real ``repro serve`` process driven over HTTP.

The server runs in its own process, on one CPU, on the default backend
(interp, pinned explicitly) with a fresh cache directory. A closed loop of ``CLIENTS``
client threads sends a seeded request mix across ``TENANTS`` tenants: mostly
warm repeats of a program pool with skewed popularity, about one in ten a
never-seen source (cold), and a small planned share built to be killed
with G001. Every request carries a step and time budget. The generator
computes every expected output in Python.

Set-up starts a server and sends the pool once, so caches are filled
before timing. Between segments of the loop, fresh-interpreter starts give
``startup_ms``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from perfbench import common, tracing

CLIENTS = 2
TENANTS = ("t1", "t2", "t3")
POOL_SIZE = 12
#: requests per block of the mix, and the never-seen and planned-kill
#: requests in each block
BLOCK = 100
BLOCK_COLD = 10
BLOCK_KILLS = 3
#: the budget every request carries; kill requests carry KILL_BUDGET
BUDGET = {"steps": 50_000_000, "seconds": 60}
KILL_BUDGET = {"steps": 20_000, "seconds": 60}
#: requests of the traced run's sequential pass, whose counts must repeat
DETERMINISTIC_REQUESTS = 60
#: the untraced closed loop runs in SEGMENTS parts with STARTS_PER_SEGMENT
#: fresh-interpreter starts after each, so the starts spread over the run
#: as the requests do
SEGMENTS = 4
STARTS_PER_SEGMENT = 3
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "serve_launcher.py")


# -- programs -------------------------------------------------------------------


def _loop(k: int) -> tuple[str, str]:
    n = 1500
    source = (
        "#lang racket\n"
        "(define (loop i acc) (if (= i 0) acc "
        f"(loop (- i 1) (+ acc (* i {k})))))\n"
        f"(displayln (loop {n} 0))\n"
    )
    return source, f"{k * n * (n + 1) // 2}\n"


def _fib(k: int) -> tuple[str, str]:
    n = 15
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    source = (
        "#lang typed\n"
        "(: fib (Integer -> Integer))\n"
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))\n"
        f"(displayln (+ (fib {n}) {k}))\n"
    )
    return source, f"{a + k}\n"


def _match(k: int) -> tuple[str, str]:
    n = 300
    source = (
        "#lang racket/match-ext\n"
        "(define-match-expander pt (syntax-rules () [(_ x y) (list 'pt x y)]))\n"
        "(define (step v) (match v [(list 'add a b) (+ a b)] "
        "[(pt x y) (* x y)] [_ 0]))\n"
        "(define (loop i acc) (if (= i 0) acc (loop (- i 1) "
        f"(+ acc (step (list 'add i {k})) (step (list 'pt i 2))))))\n"
        f"(displayln (loop {n} 0))\n"
    )
    return source, f"{3 * n * (n + 1) // 2 + k * n}\n"


def _infix(k: int) -> tuple[str, str]:
    n = 300
    source = (
        "#lang racket/infix\n"
        f"(define (poly x) {{3 * x * x + {k} * x + 1}})\n"
        "(define (loop i acc) (if {i = 0} acc (loop {i - 1} {acc + (poly i)})))\n"
        f"(displayln (loop {n} 0))\n"
    )
    return source, f"{sum(3 * i * i + k * i + 1 for i in range(1, n + 1))}\n"


def _macros(k: int) -> tuple[str, str]:
    n = 1000
    d = 7 + k % 40
    source = (
        "#lang racket\n"
        "(define-syntax my-or (syntax-rules () [(_) #f] "
        "[(_ e r ...) (let ([t e]) (if t t (my-or r ...)))]))\n"
        "(define (count-div i c) (if (> i " f"{n}" ") c "
        f"(count-div (+ i 1) (if (my-or (= 0 (modulo i 3)) (= 0 (modulo i {d}))) "
        "(+ c 1) c))))\n"
        f"(displayln (+ (count-div 1 0) {k}))\n"
    )
    count = sum(1 for i in range(1, n + 1) if i % 3 == 0 or i % d == 0)
    return source, f"{count + k}\n"


TEMPLATES = (_loop, _fib, _match, _infix, _macros)


def _spin(k: int) -> str:
    return (
        "#lang racket\n"
        "(define (spin n) (spin (+ n 1)))\n"
        f"(spin {k})\n"
    )


class Request:
    __slots__ = ("kind", "body", "expected")

    def __init__(self, kind: str, body: dict, expected: str | None) -> None:
        self.kind = kind  # "warm" | "cold" | "kill"
        self.body = body
        self.expected = expected


class Mix:
    """The seeded request sequence; request ``i`` depends only on the seed
    and ``i``.

    Requests come in blocks of ``BLOCK``, each with the same make-up: 3
    planned kills, 10 never-seen sources cycling through the templates, and
    87 warm repeats split over the pool by popularity (rank *r* weighs
    1/*r*). The seed shuffles each block and picks every constant, so every
    seed offers the same work."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # the rank of each template is fixed so every seed costs the same
        self.pool = [
            TEMPLATES[i % len(TEMPLATES)](rng.randrange(2, 10_000))
            for i in range(POOL_SIZE)
        ]
        self.kills = [_spin(rng.randrange(1, 100)) for _ in range(2)]
        weights = [1 / (rank + 1) for rank in range(POOL_SIZE)]
        warm = BLOCK - BLOCK_KILLS - BLOCK_COLD
        counts = [round(warm * w / sum(weights)) for w in weights]
        counts[0] += warm - sum(counts)
        self.block = (
            [("kill", k % len(self.kills)) for k in range(BLOCK_KILLS)]
            + [("cold", c % len(TEMPLATES)) for c in range(BLOCK_COLD)]
            + [("warm", rank) for rank, n in enumerate(counts) for _ in range(n)]
        )
        self._blocks: dict[int, list[tuple[str, int]]] = {}

    def pool_requests(self) -> list[Request]:
        return [
            Request("warm", {"source": source, "tenant": TENANTS[i % len(TENANTS)],
                             "budget": BUDGET}, expected)
            for i, (source, expected) in enumerate(self.pool)
        ]

    def request(self, i: int) -> Request:
        number, slot = divmod(i, BLOCK)
        order = self._blocks.get(number)
        if order is None:
            order = list(self.block)
            random.Random(self.seed * 1_000_003 + number).shuffle(order)
            self._blocks[number] = order
        kind, which = order[slot]
        tenant = TENANTS[i % len(TENANTS)]
        if kind == "kill":
            body = {"source": self.kills[which], "tenant": tenant,
                    "budget": KILL_BUDGET}
            return Request("kill", body, None)
        if kind == "cold":
            # a constant no other request uses makes a never-seen source
            source, expected = TEMPLATES[which](10_000 + self.seed % 1000 * 100_000 + i)
        else:
            source, expected = self.pool[which]
        return Request(kind, {"source": source, "tenant": tenant,
                              "budget": BUDGET}, expected)


# -- the server process -----------------------------------------------------------


def split_cpus() -> tuple[set[int], set[int]]:
    """The CPU the server runs on, and the CPUs the clients run on.

    Each CPU of the host has slow phases of its own, so the server is kept
    on one CPU and the host speed is measured on that CPU alone. The
    server's request handling holds the GIL, so one CPU is what it can
    use anyway. With a single CPU the two share it."""
    allowed = os.sched_getaffinity(0)
    server = {max(allowed)}
    return server, (allowed - server) or allowed


class Server:
    """``repro serve`` in a child process, untraced or via the launcher."""

    def __init__(self, traced: bool) -> None:
        self.cache_dir = common.scratch_dir("serve-cache-")
        self.spill_dir = common.scratch_dir("serve-spill-") if traced else None
        self.log_path = os.path.join(self.cache_dir, "server.log")
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--backend", "interp", "--cache-dir", self.cache_dir]
        if traced:
            cmd = [sys.executable, LAUNCHER, self.spill_dir, *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self._log = open(self.log_path, "w", encoding="utf-8")
        server_cpus, _ = split_cpus()

        def child() -> None:
            os.sched_setaffinity(0, server_cpus)
            # a benchmark started in the background inherits SIGINT
            # ignored; the server stops on SIGINT
            signal.signal(signal.SIGINT, signal.SIG_DFL)

        self.proc = subprocess.Popen(
            cmd, env=common.hermetic_env(), cwd=common.ROOT,
            stdout=subprocess.DEVNULL, stderr=self._log, preexec_fn=child,
        )
        self._dumps = 0
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        marker = "listening on http://127.0.0.1:"
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            with open(self.log_path, encoding="utf-8") as f:
                text = f.read()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {text[-400:]}")
            time.sleep(0.02)
        raise RuntimeError("server did not start listening")

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def dump(self, timeout: float = 30.0) -> dict:
        """Ask the traced server for the spans recorded since the last dump."""
        path = os.path.join(self.spill_dir, f"dump-{self._dumps}.json")
        self._dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        end = time.monotonic() + timeout
        while not os.path.exists(path):
            if time.monotonic() > end:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    def peak_rss_mb(self) -> float | None:
        return common.proc_peak_rss_mb(self.proc.pid)

    def artifacts(self) -> int:
        return len(common.artifact_sizes(self.cache_dir))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._log.close()
        common.remove_dir(self.cache_dir)
        if self.spill_dir is not None:
            common.remove_dir(self.spill_dir)


# -- the clients ----------------------------------------------------------------


class Outcome:
    __slots__ = ("kind", "start", "latency", "elapsed_ms", "stats")

    def __init__(self, kind: str, start: float, latency: float,
                 elapsed_ms: float, stats: dict) -> None:
        self.kind = kind
        self.start = start
        self.latency = latency
        self.elapsed_ms = elapsed_ms
        self.stats = stats


class Load:
    """Closed-loop clients over one server; request indices are shared."""

    def __init__(self, server: Server, mix: Mix) -> None:
        self.server = server
        self.mix = mix
        self.next_index = 0
        self.lock = threading.Lock()
        self.outcomes: list[Outcome] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _take(self) -> int:
        with self.lock:
            i = self.next_index
            self.next_index += 1
            return i

    def send(self, req: Request) -> Outcome | None:
        """One request on a fresh connection, the way ``urllib`` and
        ``curl`` send it."""
        data = json.dumps(req.body).encode("utf-8")
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=120)
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/run", data,
                         {"Content-Type": "application/json"})
            raw = conn.getresponse().read()
            latency = time.perf_counter() - t0
            reply = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as err:
            self._fail(f"{req.kind} request lost: {type(err).__name__}: {err}")
            return None
        finally:
            conn.close()
        problem = self._check(req, reply)
        if problem:
            self._fail(problem)
            return None
        outcome = Outcome(req.kind, t0, latency, reply.get("elapsed_ms", 0.0),
                          reply.get("stats", {}))
        with self.lock:
            self.attempted += 1
            self.outcomes.append(outcome)
        return outcome

    def _fail(self, message: str) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    @staticmethod
    def _check(req: Request, reply: dict) -> str | None:
        if req.kind == "kill":
            code = reply.get("error", {}).get("code")
            if reply.get("ok") is not False or code != "G001":
                return f"planned kill answered {reply.get('ok')} / {code}"
            return None
        if reply.get("ok") is not True:
            return f"{req.kind} request failed: {reply.get('error')}"
        if reply.get("output") != req.expected:
            return (f"{req.kind} request: expected {req.expected!r}, "
                    f"got {reply.get('output')!r}")
        return None

    def sequential(self, requests: list[Request]) -> list[Outcome]:
        out = []
        for req in requests:
            outcome = self.send(req)
            if outcome is not None:
                out.append(outcome)
        return out

    def closed_loop(self, seconds: float, host: common.HostSpeed) -> float:
        """``CLIENTS`` threads on the client CPUs send until the deadline
        while a thread runs the host-speed kernel on the server's CPU every
        50 ms; returns the wall seconds until the last reply."""
        deadline = common.Deadline(seconds)
        server_cpus, client_cpus = split_cpus()

        def ticker() -> None:
            os.sched_setaffinity(0, server_cpus)
            while not deadline.expired():
                host.tick(every_cpu=True)
                time.sleep(0.05)

        def client() -> None:
            os.sched_setaffinity(0, client_cpus)
            while not deadline.expired():
                self.send(self.mix.request(self._take()))

        # daemon threads, so a run stopped by a signal does not wait for them
        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(CLIENTS)]
        threads.append(threading.Thread(target=ticker, daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 150)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serve clients did not finish")
        return deadline.elapsed()


def _start(mix: Mix, traced: bool, host: common.HostSpeed) -> tuple[Server, float]:
    """Start a server and send the pool once; returns it and the scaled
    seconds that took."""

    def start() -> Server:
        server = Server(traced)
        try:
            load = Load(server, mix)
            load.sequential(mix.pool_requests())
            if load.failed:
                raise RuntimeError(f"pool requests failed: {load.errors}")
        except BaseException:
            server.stop()
            raise
        return server

    server, _, seconds = common.scaled_run(host, start, every_cpu=True)
    return server, seconds


def _latency_metrics(outcomes: list[Outcome], wall: float,
                     host: common.HostSpeed | None = None) -> dict:
    """Latency percentiles and throughput. With ``host``, each latency is
    scaled by the ticks taken around it, and throughput by the median of
    those factors. The fast path is a warm request, the slow path a
    never-seen source."""
    scales = [
        host.scale_window(o.start, o.start + o.latency) if host else 1.0
        for o in outcomes
    ]
    all_ms = [o.latency * 1000 * f for o, f in zip(outcomes, scales)]

    def p50(kind: str) -> float | None:
        ms = [o.latency * 1000 * f for o, f in zip(outcomes, scales)
              if o.kind == kind]
        return common.percentile(ms, 0.5) if ms else None

    return {
        "fast_path_ms": p50("warm"),
        "slow_path_ms": p50("cold"),
        "p50_ms": common.percentile(all_ms, 0.5),
        "p90_ms": common.percentile(all_ms, 0.9),
        "rps": len(outcomes) / wall / common.median(scales),
    }


def _starts(load: Load, host: common.HostSpeed, n: int) -> list[float]:
    """``n`` scaled fresh-interpreter starts, in seconds, taken while the
    server is idle."""
    out = []
    for _ in range(n):
        try:
            out.append(common.start_seconds(host)[1])
        except Exception as err:  # a crash is a failed operation
            load._fail(f"startup: {err}")
            continue
        load.attempted += 1
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    mix = Mix(seed)
    if trace:
        return _traced(mix, seconds)
    host = common.HostSpeed()
    times = []
    server = None
    try:
        for _ in range(common.SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = _start(mix, False, host)
            times.append(elapsed)
        load = Load(server, mix)
        mark = len(host.ticks)
        # an untimed start first, so bytecode caches exist
        common.spawn_seconds(common.STARTUP_CODE)
        wall = 0.0
        starts: list[float] = []
        for _ in range(SEGMENTS):
            wall += load.closed_loop(seconds / SEGMENTS, host)
            starts += _starts(load, host, STARTS_PER_SEGMENT)
        scaled = _latency_metrics(load.outcomes, wall, host)
        raw = _latency_metrics(load.outcomes, wall)
        metrics = {k: scaled[k] for k in ("fast_path_ms", "slow_path_ms")}
        if starts:
            metrics["startup_ms"] = common.median(starts) * 1000
        metrics["setup_s"] = common.median(times)
        metrics["peak_rss_mb"] = server.peak_rss_mb()
        kinds = {k: sum(1 for o in load.outcomes if o.kind == k)
                 for k in ("warm", "cold", "kill")}
    finally:
        if server is not None:
            server.stop()
    return {"attempted": load.attempted, "failed": load.failed,
            "errors": load.errors, "metrics": metrics,
            "info": {"requests": kinds, "scaled": scaled, "raw": raw,
                     "kernel_median_ms": host.kernel_median(mark)}}


def _traced(mix: Mix, seconds: float) -> dict:
    """Untraced closed loop for half the time; then a traced server: a
    sequential pass whose counts must repeat, and a traced closed loop."""
    host = common.HostSpeed()
    server, _ = _start(mix, False, host)
    try:
        untraced = Load(server, mix)
        wall = untraced.closed_loop(seconds / 2, host)
        untraced_p50 = _latency_metrics(untraced.outcomes, wall, host)["p50_ms"]
    finally:
        server.stop()

    server, _ = _start(mix, True, host)
    try:
        load = Load(server, mix)
        server.dump()  # discard the set-up's spans
        stats0, artifacts0 = server.stats(), server.artifacts()
        det = load.sequential([mix.request(i) for i in range(DETERMINISTIC_REQUESTS)])
        det_dump = server.dump()
        stats1, artifacts1 = server.stats(), server.artifacts()
        load.next_index = DETERMINISTIC_REQUESTS
        timed_from = len(load.outcomes)
        mark = len(host.ticks)
        wall = load.closed_loop(seconds / 2, host)
        loop_dump = server.dump()
    finally:
        server.stop()

    def total(key: str) -> int:
        return sum(o.stats.get(key, 0) for o in det)

    kills = sum(stats1["budget_kills"].values()) - sum(stats0["budget_kills"].values())
    timed = load.outcomes[timed_from:]
    n = len(timed)
    spans = [tracing.Span.from_json(row) for row in loop_dump["spans"]]
    selfs = tracing.self_times(spans)
    handler = [o.elapsed_ms for o in timed]
    queue = [o.latency * 1000 - o.elapsed_ms for o in timed]
    traced_p50 = _latency_metrics(timed, wall, host)["p50_ms"]
    counts = det_dump["counters"]
    metrics = {
        **tracing.layer_ms(selfs, n),
        "expander.steps": total("expansion_steps"),
        "modules.cache_hits": total("cache_hits"),
        "modules.cache_misses": total("cache_misses"),
        "modules.cache_stores": total("cache_stores"),
        "modules.duplicate_stores": total("cache_stores") - (artifacts1 - artifacts0),
        "guard.eval_steps": total("eval_steps"),
        "runtime.generic_dispatches": counts["generic_dispatches"],
        "runtime.tag_checks": counts["tag_checks"],
        "runtime.unsafe_ops": counts["unsafe_ops"],
        "runtime.contract_checks": counts["contract_checks"],
        "serve.handler_ms": common.percentile(handler, 0.5),
        "serve.queue_ms": common.percentile(queue, 0.5),
        "serve.pool_created": stats1["runtimes"]["created"] - stats0["runtimes"]["created"],
        "serve.pool_reused": stats1["runtimes"]["reused"] - stats0["runtimes"]["reused"],
        "serve.kills": kills,
        "host.calib_ms": host.kernel_median(mark),
        "residue_ms": (sum(handler) / 1000 - tracing.root_seconds(spans)) * 1000 / n,
        "trace.overhead_pct": 100 * (traced_p50 / untraced_p50 - 1),
    }
    return {
        "attempted": untraced.attempted + load.attempted,
        "failed": untraced.failed + load.failed,
        "errors": untraced.errors + load.errors,
        "metrics": metrics,
        "info": {"traced_requests": n},
    }
