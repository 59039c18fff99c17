"""Seeded benchmark for lexacq: one workload per run, from a checkout root.

    python3 bench/run.py --workload ambiguous --seed 1 --seconds 55 --trace 0

All three workloads, with every end-to-end metric and the error rate
(BENCHMARK.json lists the two whose figures are steady enough to gate a
change on; see workloads.json for why `ambiguous` is left out):

    for w in ambiguous acquire-grow train-classify; do
        python3 bench/run.py --workload $w --seed 1 --seconds 55 --trace 0
    done

Smoke test: python3 -m pytest -q bench/tests.  Paired comparison of two
checkouts: bench/compare.py.

Workloads (see workloads.py; why each was chosen, pinned digests and the
measured input mix are in workloads.json):
  ambiguous       linkage search on a/b/c sentences (parse, acquire)
  acquire-grow    acquisition over a 500-noun lexicon that keeps growing
  train-classify  `train` and `classify` through the CLI on a workspace

Each workload runs in fresh interpreters started from here, as a closed
loop with one caller, over a fixed op set made from the seed (an op is one
sentence or one CLI command).  The measuring process makes passes over the
op set until `--seconds` of timed work, and at least three passes; an op's
latency is its least time over the passes.  The op sets are sized so that
one pass takes 2-4 s on a quiet 2-vCPU VM: on a shared host, other
tenants slow every op for spells of a second to minutes, and an op timed in
more passes more often meets a quiet spell.  Metrics:

  ops_per_s        ops in the op set over the sum of their latencies
  latency_p50_ms   median op latency
  latency_tail_ms  the highest of p99.9/p99/p95/p90/p75/p50 with at least
                   ten ops beyond it (the percentile and count are printed)
  setup_s          interpreter start to the first timed op: imports, input
                   generation, loading; median over the measuring
                   process(es) and SETUPS set-up-only processes, half
                   run before the measurement and half after it
  peak_rss_mb      peak resident memory of the measuring process
  error_rate       failed ops over attempted ops (printed, and carried by
                   the `failed` and `attempted` fields)

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics.  When an output fails its check (an op raised, an
output failed validation or re-parsing, a later pass differs from the
first, or the digest of a pinned seed differs from its pin), the run
prints what it found and exits 1 without that line.  With `--trace 1` it holds the per-layer metrics of
tracing.py from a traced process, per pass over the op set, and the
tracing overhead against an untraced process; each gets half of
`--seconds`.

The program is imported from `src/` under the current directory; the run
fails (exit 2) without printing a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("ambiguous", "acquire-grow", "train-classify")
SETUPS = 8  # set-up-only processes, besides the measuring one(s)
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def load_pins() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(root: str, workdir: str, workload: str, seed: int, size: str,
          mode: str, seconds: float = 0.0) -> dict:
    """Run worker.py in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--mode", mode, "--seconds", repr(seconds), "--t0", repr(t0),
           "--workdir", workdir]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s worker exited %d:\n%s"
                         % (mode, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple:
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND
    samples beyond it, by nearest rank: (value, percentile, samples
    beyond).  Falls back to the maximum for tiny runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= TAIL_BEYOND:
            return ordered[n - 1 - beyond], pct, beyond
    return ordered[-1], 100.0, 0


def ops_per_s(report: dict) -> float:
    """Ops in the fixed op set over the sum of their latencies."""
    return len(report["latencies"]) / sum(report["latencies"])


def end_to_end(report: dict, setups: list) -> dict:
    value, _, _ = tail(report["latencies"])
    return {
        "ops_per_s": ops_per_s(report),
        "latency_p50_ms": 1000.0 * statistics.median(report["latencies"]),
        "latency_tail_ms": 1000.0 * value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def digest_verdict(pins: dict, workload: str, size: str, seed: int,
                   digest: str) -> str:
    digests = pins["workloads"][workload]["digests"]
    pinned = digests.get("%s/%d" % (size, seed))
    if pinned is None:
        return "not pinned"
    return "matches pin" if pinned == digest else "DIFFERS from pin " + pinned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per workload, for the smoke test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lexacq", "__init__.py")):
        print("error: no lexacq package under %s/src; run from the root of a"
              " lexacq checkout" % root, file=sys.stderr)
        return 2
    pins = load_pins()
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run.", dir=scratch)
    try:
        return measure(args, root, workdir, pins)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it


def measure(args, root: str, workdir: str, pins: dict) -> int:
    def run(mode, seconds=0.0):
        return spawn(root, workdir, args.workload, args.seed, args.size,
                     mode, seconds)

    # set-up probes on both sides of the measurement, so that a burst of
    # load from other processes does not cover all of them
    setups = [run("setup")["setup_s"] for _ in range(SETUPS // 2)]
    if args.trace:
        reports = [run("measure", args.seconds / 2),
                   run("trace", args.seconds / 2)]
    else:
        reports = [run("measure", args.seconds)]
    setups += [run("setup")["setup_s"] for _ in range(SETUPS - SETUPS // 2)]
    setups += [r["setup_s"] for r in reports]
    report = reports[-1]
    attempted = sum(r["executions"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    digests = {r["digest"] for r in reports}
    verdict = digest_verdict(pins, args.workload, args.size, args.seed,
                             report["digest"])
    correct = (failed == 0 and len(digests) == 1
               and not verdict.startswith("DIFFERS"))

    print("workload %s seed %d size %s: %d ops x %d pass(es), %s"
          % (args.workload, args.seed, args.size, len(report["latencies"]),
             report["passes"], "correct" if correct else "NOT CORRECT"))
    for r in reports:
        for problem in r["problems"]:
            print("problem: " + problem)
    print("error_rate %.4f ratio (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    notes = {}
    if args.trace:
        untraced, traced = (ops_per_s(r) for r in reports)
        metrics = dict(report["layers"])
        metrics["trace.overhead"] = 1.0 - traced / untraced
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        notes["trace.overhead"] = "ops_per_s %.4f untraced, %.4f traced" % (
            untraced, traced)
    else:
        metrics = end_to_end(report, setups)
        units = END_TO_END_UNITS
        _, pct, beyond = tail(report["latencies"])
        notes["latency_tail_ms"] = "p%g, %d of %d samples beyond" % (
            pct, beyond, len(report["latencies"]))
        notes["setup_s"] = "median of %d set-ups" % len(setups)
    for name, value in metrics.items():
        note = " (%s)" % notes[name] if name in notes else ""
        print("%s %.6g %s%s" % (name, value, units[name], note))
    print("shares %s" % json.dumps(report["shares"], sort_keys=True))
    print("digest %s (%s)" % (report["digest"], verdict))
    if not correct:
        print("error: outputs failed their checks; no result is reported",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
