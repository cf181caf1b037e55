#!/usr/bin/env python3
"""DeepMap end-to-end benchmark: online serving, bulk scoring, CV training.

    python3 perfbench/run.py --workload serve_online --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the workload
once untraced and once with the layer shims installed and prints every
per-layer metric.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every answer checked equals the in-process reference; a
mismatch prints the result with ``"correct": false`` and exits 1.
Spans and a record of each run (environment included) are written under
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, when it exposes the query."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": git_commit(),
    }


def _terminate(signum, frame) -> None:
    # SystemExit unwinds the workload, so the servers it started are stopped.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # A process started in the background may inherit SIGINT ignored, and
    # would pass that on to the servers, whose clean shutdown is SIGINT.
    # A handler (unlike SIG_IGN) is reset to the default in a child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), out_dir=OUT_DIR
    )
    result = WORKLOADS[args.workload](ctx)
    if set(result.metrics) != set(units):
        print(
            "perfbench: metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(result.metrics))}, "
            f"extra {sorted(set(result.metrics) - set(units))}",
            file=sys.stderr,
        )
        return 3
    for line in result.lines:
        print(line)
    for name in units:
        print(f"{name:<28} {result.metrics[name]:>14.6g} {units[name]}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.spans:
        from perfbench.spans import dump_spans

        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json")
        dump_spans(result.spans, spans_path)
        print(f"spans written to {spans_path}")
    final = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump({"env": env, "result": final, "notes": result.lines}, fh, indent=1)
    if not result.correct:
        print(f"perfbench: {result.mismatches} answer mismatches", file=sys.stderr)
    print(json.dumps(final), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
