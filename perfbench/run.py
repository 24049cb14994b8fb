"""Benchmark of `bose_limits`: time to certified results on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter (`perfbench/worker.py`) with the
BLAS and OpenMP thread pools capped at the number of usable cores.  The
last stdout line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it name every metric with its
unit and sample count, plus the environment.

End-to-end metrics (`--trace 0`), all measured with tracing off:

    setup_s          median over 2 * SETUP_SAMPLES_EACH_SIDE + 1 fresh
                     interpreters, half started before the measuring one and
                     half after it, of the time to start, import bose_limits
                     and generate the seed's inputs
    wall_s           median wall time of one pass over the workload's
                     operation list, i.e. the time to certified results
    peak_rss_mb      peak resident memory of the workload process, or of its
                     largest pool worker if that is larger
    certified_ratio  operations with a checked, certified result / attempted

`op_p50_s` (median operation latency), `op_tail_s` (the highest percentile
with at least 10 operations beyond it) and `fail_ratio` are printed too,
for information only; perfbench/README.md says why they are not gated.
`--trace 1` prints the per-layer metrics instead (see
`tracer.LAYER_METRICS`).

The JSON `failed` count holds operations that raised unexpectedly or whose
output failed its check.  Refusals at the seed's known size caps (the
`series` strata V=1e8 and |beta*mu| <= 1e-7) are not failures of the
benchmark; they lower `certified_ratio`.

Exit status 0 means a result was printed; 2 means there was nothing to
measure (no `src/bose_limits` in the working directory) or a workload
process failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import stats
import tracer

WORKLOADS = ("ladder", "sweep", "series", "fock")
# The VM's speed drifts over tens of seconds; set-up samples taken on both
# sides of the measuring interpreter average over the whole run.
SETUP_SAMPLES_EACH_SIDE = 4
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _worker_env():
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for key in THREAD_VARIABLES:
        current = env.get(key, "")
        cap = min(cores, int(current)) if current.isdigit() and int(current) > 0 else cores
        env[key] = str(cap)
    return env


def _spawn(root, args, deadline):
    """Run worker.py with `args`; return the JSON object of its last line."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(spawned_at)]
    # A new session lets a timeout stop the worker and its pool together.
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"worker {' '.join(args)} ran past the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(root, workload, seed, seconds, trace, deadline, say):
    """Measure one workload and print its metric lines; returns the result object."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup_only = common + ["--setup-only"]
    samples = 0 if trace else SETUP_SAMPLES_EACH_SIDE
    setups = [_spawn(root, setup_only, deadline)["setup_s"] for _ in range(samples)]
    res = _spawn(root, common + ["--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    setups += [_spawn(root, setup_only, deadline)["setup_s"] for _ in range(samples)]
    counts = res["counts"]
    latencies = res["latencies"]
    env = res["environment"]

    say(f"# {workload}: seed={seed} seconds={seconds} trace={trace}")
    say("# environment: " + json.dumps(env, sort_keys=True))
    say(f"# {workload}: attempted={counts['attempted']} certified={counts['certified']} "
        f"refused={counts['refused']} failed={counts['failed']}")
    for detail in res["refusals"]:
        say(f"# {workload}: refused (known cap): {detail}")
    for detail in res["failures"]:
        say(f"# {workload}: FAILED: {detail}")

    if trace:
        metrics = {name: _metric(res["layers"][name], unit)
                   for name, unit, _ in tracer.LAYER_METRICS}
        say(f"# {workload}: per-layer metrics are medians over {res['pairs']} "
            "traced passes (sizes and counts per pass)")
    else:
        walls = res["pass_walls"]
        metrics = {
            "setup_s": _metric(stats.median(setups), "s"),
            "wall_s": _metric(stats.median(walls), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "certified_ratio": _metric(counts["certified_ratio"], "1"),
        }
        samples = {"setup_s": f"median of {len(setups)} fresh interpreters",
                   "wall_s": f"median of {len(walls)} passes",
                   "peak_rss_mb": "max of process and its pool workers",
                   "certified_ratio": f"{counts['certified']}/{counts['attempted']}"}
        for name, m in metrics.items():
            say(f"{workload:7s} {name:16s} {m['value']:.6g} {m['unit']}  ({samples[name]})")
        say(f"{workload:7s} {'op_p50_s':16s} {stats.median(latencies):.6g} s  "
            f"(n={len(latencies)} operations; not gated)")
        tail = stats.tail(latencies)
        if tail is None:
            say(f"{workload:7s} {'op_tail_s':16s} n/a  (n={len(latencies)} < "
                f"{stats.TAIL_MIN_SAMPLES} operations)")
        else:
            value, pct, beyond = tail
            say(f"{workload:7s} {'op_tail_s':16s} {value:.6g} s  (p{pct:.1f}, "
                f"{beyond} beyond, n={len(latencies)}; not gated)")
        say(f"{workload:7s} {'fail_ratio':16s} {counts['fail_ratio']:.6g} 1  "
            f"({counts['failed'] + counts['refused']}/{counts['attempted']}, "
            "refusals included; not gated)")
    result = {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": metrics}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bose_limits", "__init__.py")):
        print(f"perfbench: no src/bose_limits under {root}; run from a checkout root",
              file=sys.stderr)
        return 2

    def say(line):
        print(line, flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = measure(root, name, args.seed, args.seconds, args.trace,
                                    deadline, say)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    say(f"# total {time.monotonic() - started:.1f} s")
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
