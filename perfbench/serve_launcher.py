"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPILL_DIR serve [serve options]``

The traced serve run uses this in place of ``python -m repro serve``. On
``SIGUSR1`` the server writes the spans recorded since the previous
signal, and the change in its Runtimes' counters, to
``SPILL_DIR/dump-<n>.json``; the benchmark sends it between phases, when no
request is in flight.
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import tracing
    from repro.tools.runner import main as repro_main

    spill_dir, args = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    state = {"mark": 0, "dumps": 0, "totals": recorder.counters()}

    def dump(signum, frame) -> None:
        end = len(recorder.spans)
        spans = tracing.rebase(recorder.spans[state["mark"]:end], state["mark"])
        totals = recorder.counters()
        delta = {k: totals[k] - state["totals"][k] for k in totals}
        path = os.path.join(spill_dir, f"dump-{state['dumps']}.json")
        tracing.write_json_atomic(path, {
            "spans": [s.to_json() for s in spans], "counters": delta,
        })
        state.update(mark=end, dumps=state["dumps"] + 1, totals=totals)

    signal.signal(signal.SIGUSR1, dump)
    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main())
