"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exec|build|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host, the seed and workload details. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: end-to-end metrics, with units; every workload reports every one of
#: them, each in its own terms (README.md, "End-to-end metrics")
END_TO_END = {
    "fast_path_ms": "ms",
    "slow_path_ms": "ms",
    "startup_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
WORKLOADS = ("build", "exec", "serve")

COUNT = "count"
#: per-layer metrics, reported by every workload (0 where a layer does no
#: work on that workload); times are self time per unit of work
PER_LAYER = {
    "reader.read_ms": "ms",
    "dialects.rewrite_ms": "ms",
    "expander.expand_ms": "ms",
    "expander.steps": COUNT,
    "langs.typecheck_ms": "ms",
    "langs.optimize_ms": "ms",
    "core.parse_ms": "ms",
    "core.lower_ms": "ms",
    "core.pyc_codegen_ms": "ms",
    "core.pyc_codegens": COUNT,
    "core.pyc_link_ms": "ms",
    "core.closure_compile_ms": "ms",
    "modules.cache_load_ms": "ms",
    "modules.cache_store_ms": "ms",
    "modules.cache_hits": COUNT,
    "modules.cache_misses": COUNT,
    "modules.cache_stores": COUNT,
    "modules.cache_writer_wait_ms": "ms",
    "modules.duplicate_stores": COUNT,
    "modules.graph_ms": "ms",
    "modules.graph_plan_ms": "ms",
    "modules.graph_module_ms": "ms",
    "modules.instantiate_ms": "ms",
    "modules.artifact_kb": "KiB",
    "guard.eval_steps": COUNT,
    "guard.overhead_interp": "ratio",
    "guard.overhead_pyc": "ratio",
    "runtime.generic_dispatches": COUNT,
    "runtime.tag_checks": COUNT,
    "runtime.unsafe_ops": COUNT,
    "runtime.contract_checks": COUNT,
    "tools.import_ms": "ms",
    "tools.runtime_init_ms": "ms",
    "serve.handler_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.pool_created": COUNT,
    "serve.pool_reused": COUNT,
    "serve.kills": COUNT,
    "host.calib_ms": "ms",
    "residue_ms": "ms",
    "trace.overhead_pct": "%",
}


def _select(trace: bool, measured: dict) -> tuple[dict, list[str]]:
    """The metrics to print, and any that are missing, not finite or (end
    to end) not positive."""
    problems = []
    if trace:
        wanted = PER_LAYER
        values = {name: measured.get(name, 0) for name in wanted}
    else:
        wanted = END_TO_END
        values = {name: measured.get(name) for name in wanted}
    out = {}
    for name, unit in wanted.items():
        value = values[name]
        if (not isinstance(value, (int, float)) or not math.isfinite(value)
                or (not trace and value <= 0)):
            problems.append(f"metric {name} is {value!r}")
            continue
        out[name] = {"value": value, "unit": unit}
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import common

    common.make_hermetic()
    # a SIGTERM unwinds like an error, so every workload's clean-up (the
    # serve process, scratch directories) still runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "exec":
        from perfbench import wl_exec as workload
    elif args.workload == "build":
        from perfbench import wl_build as workload
    else:
        from perfbench import wl_serve as workload

    result = workload.run(args.seed, args.seconds, bool(args.trace))
    metrics, problems = _select(bool(args.trace), result["metrics"])
    errors = list(result["errors"]) + problems
    for line in errors:
        common.log(f"perfbench: {line}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": common.host_metadata(), "info": result["info"],
        "errors": errors,
    }))
    print(json.dumps({
        "correct": not errors and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
