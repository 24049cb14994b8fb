"""Parent-versus-change snapshot of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_snapshot.py --parent ../parent --change . \\
        --seeds 21-30 --out BENCH_10.json

For each seed it runs

    python3 perfbench/run.py --workload all --seed S --seconds 20 --trace 0

once in each checkout, one pair per seed, alternating which side runs
first.  Both checkouts must hold committed trees: the file records each
side's commit and the hash of its `src` tree.  The output holds every
pair's end-to-end metrics and, per workload and metric, each side's median
and quartiles, the number of pairs the change won (ties count for
neither), whether the gain rule holds (at least nine wins in ten and a
median difference larger than the parent's interquartile range) and a
verdict under the no-regression rule (see `verdict`).  Metric names,
units, directions and bounds come from the change's BENCHMARK.json.

For information only, outside the gain rule, `end_to_end_info` also holds
each side's wall time of the five README commands (the median of 5 fresh
interpreters each, with their exit codes) and of the Tier-1 test run (the
median of 2).  Every such run is paired with the other side's run of the
same command, alternating which side goes first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SECONDS = 20
SIDES = ("parent", "change")
README_RUNS = 5
TIER1_RUNS = 2
# The five commands of the README's "Command line" section.
README_COMMANDS = {
    "pressure": ["--command", "pressure", "--beta", "1", "--mu=-0.5", "--nu", "0.1",
                 "--dim", "3", "--side", "16"],
    "equivalence": ["--command", "equivalence", "--mu=-0.5", "--nu", "0.1",
                    "--ladder", "8,16,32,64"],
    "laplace": ["--command", "laplace", "--mu=-0.5", "--nu", "0.1", "--dim", "1",
                "--ladder", "100,1000,10000"],
    "fulldiag": ["--command", "fulldiag", "--mu=-0.5", "--nu", "0.1", "--side", "2",
                 "--pmax", "7", "--fock-cutoff", "20,8"],
    "sweep": ["--command", "sweep", "--beta", "0.5,1", "--mu=-1,-0.5", "--nu", "0.1,0.2",
              "--side", "8", "--workers", "2"],
}
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def _git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _checkout(root):
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "src_tree": _git(root, "rev-parse", "HEAD:src"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no"))}


def run_benchmark(root, seed):
    """(environment, metrics {"<workload>.<metric>": value}) of one run in `root`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("# environment:"))
    final = json.loads(lines[-1])
    if not final["correct"]:
        raise RuntimeError(f"benchmark in {root} reports failures at seed {seed}")
    return env, {name: m["value"] for name, m in final["metrics"].items()}


def _timed(root, args):
    """(wall seconds, completed process) of `python args` in `root`, on its `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)
    return time.perf_counter() - start, proc


def end_to_end_info(roots):
    """Wall times of the README commands and of the Tier-1 run in each of `roots`.

    Each run of a command in one checkout is followed by the same run in
    the other, and the side that goes first alternates from one run of the
    command to the next, so drift in the machine's load falls on both alike.
    """
    jobs = [(name, ["-m", "bose_limits.cli", *argv])
            for _ in range(README_RUNS) for name, argv in README_COMMANDS.items()]
    jobs += [("tier1", TIER1)] * TIER1_RUNS
    runs = {side: {} for side in SIDES}
    for name, args in jobs:
        done = runs[SIDES[0]].setdefault(name, [])
        for side in (SIDES if len(done) % 2 == 0 else SIDES[::-1]):
            runs[side].setdefault(name, []).append(_timed(roots[side], args))
    out = {}
    for side, by_name in runs.items():
        tier1 = by_name.pop("tier1")
        out[side] = {name: {"median_s": statistics.median(t for t, _ in timed),
                            "exit_codes": sorted({p.returncode for _, p in timed})}
                     for name, timed in by_name.items()}
        lines = tier1[-1][1].stdout.strip().splitlines()
        out[side]["tier1"] = {"wall_s": statistics.median(t for t, _ in tier1),
                              "summary": lines[-1] if lines else ""}
    return out


def _steady(env):
    # The load average moves between runs; the rest describes the machine.
    return {key: value for key, value in env.items() if not key.startswith("loadavg")}


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def verdict(parent, change, sign, bound, gain):
    """`better`, `no_worse`, `worse` or `unresolved` for one metric.

    `sign` is 1 where lower is better and -1 where higher is.  The change
    is `worse` when its median is beyond the parent's median by more than
    `bound` times it, and `better` when the gain rule holds (`gain`).  The
    runs are too spread to tell (`unresolved`) when the parent's
    interquartile range exceeds that bound, unless every change run beats
    every parent run.
    """
    p, c = _spread(parent), _spread(change)
    allowed = bound * abs(p["median"])
    separated = max(sign * v for v in change) < min(sign * v for v in parent)
    if p["q3"] - p["q1"] > allowed and not separated:
        return "unresolved"
    if sign * (c["median"] - p["median"]) > allowed:
        return "worse"
    return "better" if gain else "no_worse"


def summarize(pairs, metrics):
    """Per-metric medians, quartiles, wins, the gain rule and the verdict over `pairs`."""
    spec = {m["name"]: m for m in metrics}
    out = {}
    for name in pairs[0]["parent"]:
        metric = spec[name.split(".", 1)[1]]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (a - b) > 0.0 for a, b in zip(parent, change))
        p, c = _spread(parent), _spread(change)
        gain = (10 * wins >= 9 * len(pairs)
                and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"])
        out[name] = {
            "better": metric["better"], "parent": p, "change": c,
            "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
            "change_wins": wins, "pairs": len(pairs), "gain_rule_met": gain,
            "verdict": verdict(parent, change, sign, metric["bound"], gain),
        }
    return out


def snapshot(parent_root, change_root, seeds):
    """Run one alternating pair per seed and return the BENCH_<n> object."""
    with open(f"{change_root}/BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    roots = {"parent": parent_root, "change": change_root}
    pairs, environments = [], []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            env, pair[side] = run_benchmark(roots[side], seed)
            environments.append(env)
        pairs.append(pair)
    info = end_to_end_info(roots)
    return {
        "command": (f"python3 perfbench/run.py --workload all --seed S "
                    f"--seconds {SECONDS} --trace 0"),
        "seeds": list(seeds),
        "environment": environments[0],
        "environment_varied": len({json.dumps(_steady(env), sort_keys=True)
                                   for env in environments}) > 1,
        "parent": _checkout(parent_root),
        "change": _checkout(change_root),
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
        "end_to_end_info": info,
    }


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 21-30")
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_10.json")
    args = parser.parse_args(argv)
    result = snapshot(args.parent, args.change, args.seeds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in result["summary"].items():
        print(f"{name:28s} parent {s['parent']['median']:.6g}  change "
              f"{s['change']['median']:.6g}  wins {s['change_wins']}/{s['pairs']}"
              f"  {s['verdict']}{'  gain' if s['gain_rule_met'] else ''}")
    for side, info in result["end_to_end_info"].items():
        print(side, " ".join(f"{name} {v['median_s']:.3f}s" for name, v in info.items()
                             if name != "tier1"),
              f"tier1 {info['tier1']['wall_s']:.1f}s ({info['tier1']['summary']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
