"""Differential property: concurrent builds are invisible.

For seeded random module graphs (random DAG shapes mixing diamond and
chain dependencies, dialect modules, random mixes of values, functions,
and macros), two OS processes running ``compile_graph`` against one cache
directory at the same time must leave **byte-identical** ``.zo`` artifacts
and the same per-module export sets as one build in a fresh directory —
which process compiles a module may change, never *what* it compiles to.
This is the determinism contract the shared artifact cache rests on: a
cache filled by racing builds must be indistinguishable from one filled by
a single build.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime


def make_graph(root: str, seed: int) -> list[str]:
    """Write a random module DAG under ``root``, shaped by ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    os.makedirs(root, exist_ok=True)
    paths = []
    for i in range(n):
        # random dependency shape: chains, diamonds, and fan-ins all occur
        k = rng.randint(0, min(i, 3))
        deps = sorted(rng.sample(range(i), k))
        requires = "\n".join(f'(require "m{j}.rkt")' for j in deps)
        terms = " ".join([str(rng.randint(1, 9))] + [f"v{j}" for j in deps])
        if rng.random() < 0.4:
            # dialect-bearing module: the infix rewrite runs pre-expansion
            # in whichever process compiles it, and must be just as
            # deterministic
            lang = "racket/infix"
            infix_terms = " + ".join(
                [str(rng.randint(1, 9))] + [f"v{j}" for j in deps]
            )
            parts = [
                f"#lang {lang}\n{requires}",
                f"(define v{i} {{{infix_terms}}})",
            ]
        else:
            lang = "racket"
            parts = [f"#lang {lang}\n{requires}",
                     f"(define v{i} (+ {terms}))"]
        if rng.random() < 0.5:
            parts.append(
                f"(define-syntax tw{i} (syntax-rules () [(_ e) (+ e e)]))"
            )
            parts.append(f"(define (f{i} x) (tw{i} (+ x v{i})))")
        else:
            parts.append(f"(define (f{i} x) (* x v{i}))")
        provides = [f"v{i}", f"f{i}"]
        if rng.random() < 0.3:
            parts.append(f"(define hidden{i} {rng.randint(10, 99)})")
        parts.append(f"(provide {' '.join(provides)})")
        path = os.path.join(root, f"m{i}.rkt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(parts) + "\n")
        paths.append(path)
    return paths


def digests(cache_dir: str) -> dict[str, str]:
    out = {}
    for path in glob.glob(os.path.join(cache_dir, "*.zo")):
        with open(path, "rb") as f:
            out[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return out


def observe(rt, paths: list[str]) -> dict[str, list[str]]:
    """Each module's sorted export names, keyed by file name."""
    return {
        os.path.basename(path): sorted(
            rt.registry.compiled[rt.registry.register_file(path)].exports
        )
        for path in paths
    }


#: one racing build: waits for the go file, builds, prints its exports
BUILD = """
import json, os, sys, time
from repro import Runtime
go, cache_dir, paths = sys.argv[1], sys.argv[2], sys.argv[3:]
deadline = time.monotonic() + 60
while not os.path.exists(go) and time.monotonic() < deadline:
    time.sleep(0.005)
with Runtime(cache_dir=cache_dir) as rt:
    report = rt.compile_graph(paths)
    exports = {
        os.path.basename(p): sorted(
            rt.registry.compiled[rt.registry.register_file(p)].exports
        )
        for p in paths
    } if report.ok else {}
print(json.dumps({"errors": report.errors, "exports": exports}))
"""


def race(paths: list[str], cache_dir: str, go: str, processes: int) -> list[dict]:
    """Start ``processes`` builds, release them together, collect them."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", BUILD, go, cache_dir, *paths],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(processes)
    ]
    with open(go, "w"):
        pass
    outcomes = [(proc, *proc.communicate(timeout=300)) for proc in procs]
    for proc, _out, err in outcomes:
        assert proc.returncode == 0, err
    return [json.loads(out) for _proc, out, _err in outcomes]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_compile_is_byte_identical_to_serial(seed, tmp_path_factory):
    base = tmp_path_factory.mktemp(f"prop-parallel-{seed}")
    paths = make_graph(str(base / "src"), seed)

    serial_dir = str(base / "serial")
    with Runtime(cache_dir=serial_dir) as rt:
        report = rt.compile_graph(paths)
        assert report.ok, report.errors
        serial_exports = observe(rt, paths)
    serial_digests = digests(serial_dir)
    assert len(serial_digests) == len(paths)

    shared = str(base / "shared")
    for build in race(paths, shared, str(base / "go"), processes=2):
        assert build["errors"] == {}
        # the same visible surface: every module exports the same names
        assert build["exports"] == serial_exports
    # same modules → same artifact *bytes*, not merely equivalent ones
    assert digests(shared) == serial_digests


def test_dialect_stack_changes_cache_key(tmp_path):
    """Two modules identical in path and source but compiled under different
    dialect stacks must never share a cached artifact."""
    with Runtime(cache_dir=str(tmp_path / "cache")) as rt:
        reg = rt.registry
        # the cache key decorates the spec with every dialect's name@version
        assert reg.cache_lang_key("racket") == "racket"
        assert reg.cache_lang_key("racket+infix") == "racket+infix[infix@1]"
        assert reg.cache_lang_key("racket/infix") == "racket/infix[infix@1]"
        # the decorated key is part of the artifact filename stem, so the
        # stacks land at different files for the same path and source hash
        plain = rt.cache.artifact_path(
            "m.rkt", reg.cache_lang_key("racket"), "h" * 40
        )
        stacked = rt.cache.artifact_path(
            "m.rkt", reg.cache_lang_key("racket+infix"), "h" * 40
        )
        assert plain != stacked
