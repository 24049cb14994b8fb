"""Self-tests of the benchmark's own logic.

Run from the repository root with `python -m pytest perfbench/tests`; the
package's test suite (`testpaths = ["tests"]`) does not collect them.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    assert stats.tail(list(range(19))) is None
    value, pct, beyond = stats.tail(list(range(20)))
    assert (value, pct, beyond) == (9.0, 50.0, 10)
    value, pct, beyond = stats.tail([float(i) for i in range(100, 0, -1)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    values = list(range(1000))
    value, _, beyond = stats.tail(values)
    assert sum(v > value for v in values) == beyond == 10


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ["root", 0.0, 10.0, None, {}, False],
        ["a", 1.0, 3.0, 0, {}, False],
        ["b", 2.0, 4.0, 0, {}, False],   # overlaps a: [1, 4] is covered once
        ["c", 8.0, 12.0, 0, {}, False],  # clipped to the parent's end
        ["d", 2.5, 2.75, 2, {}, False],  # grandchild: counts against b only
    ]
    assert _close(tracing.self_times(spans), [5.0, 2.0, 1.75, 4.0, 0.25])


def _close(got, want):
    return all(abs(g - w) < 1e-12 for g, w in zip(got, want)) and len(got) == len(want)


def test_layer_totals_sum_sizes_and_count_failures():
    spans = [
        ["summation.stable_sum", 0.0, 1.0, None, {"terms": 10}, False],
        ["summation.stable_sum", 1.0, 3.0, None, {"terms": 5}, False],
        ["lattice_ideal.polylog", 3.0, 4.0, None, {}, True],
        ["nonlinear_model.zero_mode_series", 4.0, 5.0, None,
         {"terms": 7, "bound_rel": 1e-9}, False],
    ]
    child = [["lattice_ideal.build_lattice", 0.0, 2.0, None, {"modes": 33}, False]]
    totals = tracing.layer_totals([spans, child])
    assert totals["summation.stable_sum"] == {"calls": 2, "self_s": 3.0, "failed": 0,
                                              "terms": 15}
    assert totals["lattice_ideal.polylog"]["failed"] == 1
    metrics = tracing.layer_metrics(totals, rows=0, busy_ratio=0.0, overhead_s=0.1)
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert metrics["lattice_ideal.build_lattice.modes"] == 33
    assert metrics["fockdiag.eigh.calls"] == 0
    assert metrics["certify.bound_rel_max"] == 1e-9


def test_outcome_counts_and_ratios():
    counts = stats.outcome_counts(["certified"] * 7 + ["refused"] * 2 + ["failed"])
    assert (counts["attempted"], counts["certified"], counts["refused"],
            counts["failed"]) == (10, 7, 2, 1)
    assert counts["certified_ratio"] == 0.7
    assert counts["fail_ratio"] == pytest.approx(0.3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_and_sizes_fixed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.make_pass(7, 0) == wl.make_pass(7, 0)
    assert wl.make_pass(7, 0) != wl.make_pass(8, 0)
    assert wl.make_pass(7, 0) != wl.make_pass(7, 1)

    def sizes(ops):
        return [{k: v for k, v in op.items() if k not in ("beta", "mu", "nu", "a",
                                                           "spot_rows")} for op in ops]

    assert sizes(wl.make_pass(1, 0)) == sizes(wl.make_pass(2, 3))


def test_pass_count_is_fixed_by_the_arguments():
    import worker

    assert worker.pass_count(20, 9.0, worker.MIN_PASSES) == 2
    assert worker.pass_count(20, 6.0, worker.MIN_PASSES) == 3
    assert worker.pass_count(1, 9.0, worker.MIN_PASSES) == 2
    assert worker.pass_count(20, 19.0, 1) == 1


def test_series_keeps_the_capped_strata():
    ops = workloads.WORKLOADS["series"].make_pass(1, 0)
    capped = [op for op in ops if workloads.WORKLOADS["series"].refusal_expected(op)]
    assert len(capped) == 3
    for op in ops:
        if op["kind"] == "continuum":
            assert op["beta"] * op["mu"] == pytest.approx(-10.0 ** -op["decade"], rel=1e-12)
            assert op["nu"] == pytest.approx(0.2 * -op["mu"])


def test_tracer_records_nested_calls_and_restores_originals(tmp_path):
    from bose_limits import lattice_ideal, summation

    original = summation.stable_sum
    tracer = tracing.Tracer(spool_dir=str(tmp_path))
    tracer.install()
    try:
        assert lattice_ideal.stable_sum is not original
        lattice_ideal.polylog(1.5, 0.5)
    finally:
        tracer.uninstall()
    assert lattice_ideal.stable_sum is original and summation.stable_sum is original
    layers = [s[0] for s in tracer.spans]
    assert layers == ["lattice_ideal.polylog", "summation.stable_sum"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4]["terms"] > 0


def test_benchmark_json_names_match_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in tracing.LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "wall_s", "peak_rss_mb", "certified_ratio"}


def test_spans_of_forked_pool_workers_are_collected(tmp_path):
    from bose_limits import cli

    tracer = tracing.Tracer(spool_dir=str(tmp_path))
    config = cli.parse_config(["--command", "sweep", "--beta=1,2", "--mu=-0.5",
                               "--nu=0.1", "--side", "4", "--workers", "2"])
    tracer.install()
    try:
        code, rows = cli.run(config)
    finally:
        tracer.uninstall()
    assert code == 0 and len(rows) == 2
    children = tracer.collect_children()
    assert not list(tmp_path.iterdir())
    totals = tracing.layer_totals([tracer.spans] + children)
    assert totals["cli.run"]["calls"] == 1
    assert totals["lattice_ideal.build_lattice"]["calls"] == len(rows)
