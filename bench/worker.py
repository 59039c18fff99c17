"""One workload in a fresh interpreter: set up, run timed passes, check.

Started by run.py with the checkout's `src` on PYTHONPATH; prints one JSON
object on stdout.  Set-up time runs from `--t0` (the parent's monotonic
clock just before it started this process) to the first timed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

MAX_PROBLEMS = 5
MIN_PASSES = 3  # each op's latency is its least time over the passes


def run_passes(wl, seconds: float, tracer=None) -> dict:
    """Closed loop, one caller: passes over the fixed op set until another
    pass would take the timed total past `seconds`, at least MIN_PASSES.
    Only `wl.run` is timed.  The first pass checks every output; later
    passes must reproduce its canonical outputs.

    An op's latency is its least time over the passes: load from other
    processes on the machine only ever adds time, and comes in bursts that
    rarely cover the same op in every pass."""
    n = len(wl.ops)
    latencies = [[] for _ in range(n)]
    walls = []  # (op id, wall seconds) for every execution
    first = None
    failed = 0
    bad = set()  # ops whose first-pass output failed its check
    problems = []
    passes = 0
    timed = last = 0.0
    while passes < MIN_PASSES or timed + last <= seconds:
        wl.reset()
        hashes = []
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = (passes, i)
            t = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:
                dt = time.perf_counter() - t
                out = None
                faults = ["raised:\n" + traceback.format_exc()]
            else:
                dt = time.perf_counter() - t
                faults = []
            if tracer is not None:
                tracer.op = None
            if out is not None and passes == 0:
                faults = wl.check(op, out)
            latencies[i].append(dt)
            walls.append(((passes, i), dt))
            digest = "error" if out is None else hashlib.sha256(
                wl.canonical(op, out).encode("utf-8")).hexdigest()
            hashes.append(digest)
            if first is not None and digest != first[i]:
                faults.append("output differs from the first pass")
            if faults or i in bad:  # a repeated bad output fails again
                failed += 1
                if passes == 0:
                    bad.add(i)
                if len(problems) < MAX_PROBLEMS:
                    problems.append("op %d: %s" % (i, "; ".join(faults)))
        if first is None:
            first = hashes
        passes += 1
        last = sum(ls[-1] for ls in latencies)
        timed += last
    return {
        "latencies": [min(ls) for ls in latencies],
        "executions": n * passes,
        "passes": passes,
        "failed": failed,
        "problems": problems,
        "digest": hashlib.sha256("\n".join(first).encode()).hexdigest(),
        "walls": walls,
    }


def make_workload(name: str, seed: int, size: str, workdir: str):
    import workloads

    return workloads.WORKLOADS[name](seed, size, workdir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import lexacq

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(lexacq.__file__).startswith(src + os.sep):
        print("lexacq imported from %s, not from %s" % (lexacq.__file__, src),
              file=sys.stderr)
        return 2

    wl = make_workload(args.workload, args.seed, args.size, args.workdir)
    try:
        wl.load()
        setup_s = time.monotonic() - args.t0
        report = {"setup_s": setup_s}
        if args.mode != "setup":
            tracer = None
            if args.mode == "trace":
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            try:
                report.update(run_passes(wl, args.seconds, tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            del report["walls"]
            report["shares"] = wl.shares()
            report["lexicon_words"] = wl.lexicon_words()
            if tracer is not None:
                report["layers"] = tracer.metrics(report["passes"],
                                                  report["lexicon_words"])
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
