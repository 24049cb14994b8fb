"""One workload in a fresh interpreter: set-up, warm-up, timed passes, checks.

`run.py` starts this script once per measurement, from the root of the
checkout, and reads the JSON object on its last stdout line.  Set-up is
timed from `--spawned-at`, the parent's CLOCK_MONOTONIC reading just
before the interpreter was started, to the moment the first pass's inputs
exist: it covers interpreter start, `import bose_limits` and input
generation.  Modules only the benchmark needs (the tracer, the checks'
mpmath oracle) are imported later, outside that span.  With
`--setup-only` the script stops there.

Otherwise an untimed warm-up runs a small instance of the operation, so
that scipy's and numpy's lazy set-up is not counted, and then the timed
passes run.  Their number is fixed by `--seconds` and the workload's
nominal pass time, never by the clock, so a run does the same work
however fast the machine is (see `pass_count`).  Every output is checked
after the passes.

With `--trace 1` each pass runs twice on the same inputs, first plain and
then traced; the per-layer numbers come from the traced copy and the
difference of the two wall times is the tracing overhead.
"""

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback

import stats

# Plain runs make at least two passes, so that wall_s is a median.
MIN_PASSES = 2


def pass_count(seconds, pass_seconds, minimum):
    """Passes that fill `seconds` at the seed's nominal pass time, at least `minimum`.

    The count depends on the arguments only.  With a count that followed
    the clock, a faster program would run more passes, and what they hold
    across passes (fockdiag's decomposition cache) would show as a change
    in memory.
    """
    return max(minimum, int(seconds // pass_seconds))


def _import_package(root):
    """Import `bose_limits` from the checkout's `src`, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import bose_limits
    if os.path.dirname(os.path.dirname(os.path.abspath(bose_limits.__file__))) != src:
        raise ImportError(f"bose_limits imported from {bose_limits.__file__}, not {src}")


def _run_pass(workload, ops):
    records = []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            output, error = workload.run(op), None
        except Exception as exc:  # recorded and judged by the checks
            # Without its traceback the exception no longer keeps the failed
            # call's frames, and their arrays, alive across passes.
            output, error = None, exc.with_traceback(None)
        records.append((op, output, error, time.perf_counter() - t))
    return time.perf_counter() - start, records


def _passes(workload, seed, count, first_ops, run_one):
    """run_one(ops) on `count` passes; pass k draws its inputs from (seed, k)."""
    ops = [first_ops] + [workload.make_pass(seed, k) for k in range(1, count)]
    return [run_one(pass_ops) for pass_ops in ops]


def _judge(workload, records, workloads):
    """Outcomes (latency, status, detail) of every operation, checked untimed."""
    outcomes = []
    for op, output, error, latency in records:
        n = workload.outcomes(op)
        if error is not None:
            status = workloads.REFUSED if workload.refused(op, error) else workloads.FAILED
            detail = "".join(traceback.format_exception_only(type(error), error)).strip()
            outcomes.extend([(latency / n, status, detail)] * n)
            continue
        try:
            outcomes.extend(workload.check(op, output, latency))
        except Exception as exc:  # a check that cannot run is a failed output
            outcomes.extend([(latency / n, workloads.FAILED, f"check raised {exc!r}")] * n)
    return outcomes


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "loadavg_1m": os.getloadavg()[0],
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _traced(workload, args, first_ops, root):
    import tracer as tracing

    spool = tempfile.mkdtemp(prefix=".perfbench-spans-", dir=root)
    tracer = tracing.Tracer(spool)
    per_pass, records = [], []

    def pair(ops):
        plain_wall, plain = _run_pass(workload, ops)
        tracer.install()
        try:
            traced_wall, traced = _run_pass(workload, ops)
        finally:
            tracer.uninstall()
        spans, tracer.spans = tracer.spans, []
        totals = tracing.layer_totals([spans] + tracer.collect_children())
        run_wall = sum(s[2] - s[1] for s in spans if s[0] == "cli.run")
        rows, busy, workers = workload.pool_usage([r[1] for r in traced])
        per_pass.append(tracing.layer_metrics(
            totals, rows=rows,
            busy_ratio=busy / (workers * run_wall) if workers and run_wall else 0.0,
            overhead_s=traced_wall - plain_wall))
        records.extend(plain + traced)

    try:
        count = pass_count(args.seconds, 2 * workload.pass_seconds, 1)
        _passes(workload, args.seed, count, first_ops, pair)
    finally:
        os.rmdir(spool)
    layers = {name: stats.median([p[name] for p in per_pass]) for name in per_pass[0]}
    return {"layers": layers, "pairs": len(per_pass)}, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()

    _import_package(root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    first_ops = workload.make_pass(args.seed, 0)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.warm_up()
    result = {"setup_s": setup_s, "environment": _environment()}
    if args.trace:
        traced, records = _traced(workload, args, first_ops, root)
        result.update(traced)
    else:
        count = pass_count(args.seconds, workload.pass_seconds, MIN_PASSES)
        passes = _passes(workload, args.seed, count, first_ops,
                         lambda ops: _run_pass(workload, ops))
        result["pass_walls"] = [wall for wall, _ in passes]
        records = [r for _, recs in passes for r in recs]
    result["peak_rss_mb"] = _peak_rss_mb()

    outcomes = _judge(workload, records, workloads)
    result["latencies"] = [lat for lat, _, _ in outcomes]
    result["counts"] = stats.outcome_counts(status for _, status, _ in outcomes)
    result["failures"] = sorted({d for _, s, d in outcomes if s == workloads.FAILED})[:10]
    result["refusals"] = sorted({d for _, s, d in outcomes if s == workloads.REFUSED})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
