"""Load-generator benchmark for ``repro serve``.

Boots a real :class:`ReproServer` (HTTP, ephemeral port, shared artifact
cache), drives a mixed cold/warm request stream from concurrent client
threads — including one deliberate G001 budget kill and one injected
cache fault — and writes latency percentiles, throughput, and the
warm-cache hit rate to ``BENCH_serve.json`` at the repo root.
Whole-graph compile time is measured by ``perfbench``'s ``build``
workload.

Usage::

    python benchmarks/bench_serve.py [--requests 60] [--concurrency 4]
                                     [--backend interp] [--out PATH]

The numbers are honest about the machine: ``cpu_count`` is recorded in
the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import urllib.request

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.faults import FaultPlan, FaultRule, use_fault_plan
from repro.serve import ReproServer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- client ------------------------------------------------------------------

def post(url: str, path: str, body: dict) -> dict:
    data = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry JSON
        return json.loads(err.read().decode("utf-8"))


def program(i: int) -> str:
    """A small but non-trivial module, distinct per variant ``i``."""
    defs = "\n".join(f"(define (f{j} x) (+ x {j + i}))" for j in range(20))
    calls = " ".join(f"(f{j} {i})" for j in range(20))
    return f"#lang racket\n{defs}\n(displayln (+ {calls}))\n"


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


# -- the serve load test -----------------------------------------------------

def bench_serve(
    requests: int, concurrency: int, variants: int, backend: str
) -> dict:
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    sources = [program(i) for i in range(variants)]
    records: list[dict] = []
    records_lock = threading.Lock()
    try:
        with ReproServer(cache_dir=cache_dir, backend=backend) as srv:
            url = srv.url

            # deterministic round-robin schedule: the first pass over the
            # variants is cold (every artifact is a miss+store), every
            # later pass is warm
            schedule = [sources[r % variants] for r in range(requests)]

            def worker(worker_id: int) -> None:
                for r in range(worker_id, requests, concurrency):
                    tenant = f"t{r % 3}"  # three tenants sharing the cache
                    t0 = time.perf_counter()
                    reply = post(url, "/run", {
                        "source": schedule[r], "tenant": tenant,
                    })
                    elapsed = time.perf_counter() - t0
                    with records_lock:
                        records.append({"reply": reply, "seconds": elapsed})

            t_start = time.perf_counter()
            threads = [
                threading.Thread(target=worker, args=(w,))
                for w in range(concurrency)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # one budget kill: a fresh source (never cached, so it really
            # expands) under a tiny step budget — must come back as a
            # well-formed ok:false G001 response, not a dropped connection
            t0 = time.perf_counter()
            kill = post(url, "/run", {
                "source": program(10_000), "tenant": "t0",
                "budget": {"steps": 5},
            })
            records.append({"reply": kill, "seconds": time.perf_counter() - t0})
            assert kill["ok"] is False and kill["error"]["code"] == "G001", kill

            # one injected cache fault: garble the next artifact read; the
            # service must degrade (recompile from source) and succeed,
            # reporting the C-coded warning in "diagnostics"
            plan = FaultPlan(rules=[FaultRule("cache.read", "garble", times=1)])
            with use_fault_plan(plan):
                t0 = time.perf_counter()
                faulted = post(url, "/run", {"source": sources[0], "tenant": "t1"})
                records.append(
                    {"reply": faulted, "seconds": time.perf_counter() - t0}
                )
            assert faulted["ok"] is True, faulted
            assert faulted.get("diagnostics"), faulted

            total_seconds = time.perf_counter() - t_start
            service_stats = json.loads(
                urllib.request.urlopen(url + "/stats", timeout=30)
                .read().decode("utf-8")
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    ok_runs = [
        r for r in records if r["reply"].get("ok") and "stats" in r["reply"]
    ]
    warm = [
        r for r in ok_runs
        if r["reply"]["stats"]["cache_hits"] > 0
        and r["reply"]["stats"]["cache_misses"] == 0
    ]
    cold = [r for r in ok_runs if r["reply"]["stats"]["cache_misses"] > 0]
    latencies = sorted(r["seconds"] for r in records)
    warm_latencies = sorted(r["seconds"] for r in warm)
    return {
        "requests": len(records),
        "concurrency": concurrency,
        "variants": variants,
        "seconds": round(total_seconds, 4),
        "req_per_s": round(len(records) / total_seconds, 2),
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1000, 3),
            "p90": round(percentile(latencies, 0.90) * 1000, 3),
            "p99": round(percentile(latencies, 0.99) * 1000, 3),
            "max": round(latencies[-1] * 1000, 3),
        },
        "warm_latency_ms_p50": round(percentile(warm_latencies, 0.50) * 1000, 3),
        "cold_requests": len(cold),
        "warm_requests": len(warm),
        "warm_hit_rate": round(len(warm) / len(ok_runs), 4) if ok_runs else 0.0,
        "budget_kills": service_stats.get("budget_kills", {}),
        "fault_diagnostics": faulted.get("diagnostics", []),
        "runtimes": service_stats.get("runtimes", {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--variants", type=int, default=8)
    parser.add_argument("--backend", default="interp", choices=("interp", "pyc"))
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, "BENCH_serve.json"))
    args = parser.parse_args(argv)

    result = {
        "schema": "repro-bench-serve/1",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "backend": args.backend,
        "serve": bench_serve(
            args.requests, args.concurrency, args.variants, args.backend
        ),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    serve = result["serve"]
    print(
        f"serve: {serve['requests']} requests @ {serve['concurrency']} clients  "
        f"{serve['req_per_s']} req/s  p50 {serve['latency_ms']['p50']}ms  "
        f"p99 {serve['latency_ms']['p99']}ms  "
        f"warm hit rate {serve['warm_hit_rate']:.0%}  "
        f"kills {serve['budget_kills']}"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
