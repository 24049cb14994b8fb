"""The benchmark snapshot pairs the two checkouts' timings and judges the metrics."""

import importlib.util
import types
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_end_to_end_info_alternates_sides(monkeypatch):
    snap = _load()
    calls = []

    def fake_timed(root, args):
        calls.append((root, tuple(args)))
        proc = types.SimpleNamespace(returncode=0, stdout=f"{root} {len(calls)} passed\n")
        return float(len(calls)), proc

    monkeypatch.setattr(snap, "_timed", fake_timed)
    info = snap.end_to_end_info({"parent": "P", "change": "C"})

    runs = snap.README_RUNS * len(snap.README_COMMANDS) + snap.TIER1_RUNS
    assert len(calls) == 2 * runs
    firsts = {}
    for (root_a, args_a), (root_b, args_b) in zip(calls[::2], calls[1::2]):
        # Each run is followed by the other side's run of the same command.
        assert args_a == args_b and {root_a, root_b} == {"P", "C"}
        firsts.setdefault(args_a, []).append(root_a)
    assert len(firsts) == len(snap.README_COMMANDS) + 1
    for order in firsts.values():
        # The side that runs first alternates from one run to the next.
        assert order == ["P", "C"] * (len(order) // 2) + ["P"] * (len(order) % 2)

    assert set(info) == {"parent", "change"}
    for side, root in (("parent", "P"), ("change", "C")):
        assert set(info[side]) == set(snap.README_COMMANDS) | {"tier1"}
        assert all(info[side][name]["exit_codes"] == [0] for name in snap.README_COMMANDS)
        assert info[side]["tier1"]["summary"].startswith(f"{root} ")


def _pairs(name, parent, change):
    return [{"parent": {name: a}, "change": {name: b}} for a, b in zip(parent, change)]


def test_summary_verdict_follows_the_no_regression_rule():
    snap = _load()
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "certified_ratio", "better": "higher", "bound": 0.05}]
    tight = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]   # IQR 0.35 > 0.25

    def judged(parent, change, metric="sweep.wall_s"):
        return snap.summarize(_pairs(metric, parent, change), metrics)[metric]["verdict"]

    assert judged(tight, [0.5 * v for v in tight]) == "better"
    assert judged(tight, [1.2 * v for v in tight]) == "no_worse"
    assert judged(tight, [1.3 * v for v in tight]) == "worse"
    # Ten times faster, but in only eight pairs of ten: no gain.
    assert judged(tight, [0.1 * v for v in tight[:8]] + tight[8:]) == "no_worse"
    assert judged(wide, [1.2 * v for v in wide]) == "unresolved"
    assert judged(wide, [0.5 * v for v in wide]) == "unresolved"
    # Every change run below every parent run resolves the spread.
    assert judged(wide, [0.5] * 10) == "better"
    # Higher is better: a ratio that falls by more than 5% is worse.
    assert judged([1.0] * 10, [0.9] * 10, "fock.certified_ratio") == "worse"
    assert judged([1.0] * 10, [0.97] * 10, "fock.certified_ratio") == "no_worse"
    assert judged([1.0] * 10, [1.0] * 10, "fock.certified_ratio") == "no_worse"
