"""The benchmark snapshot pairs the two checkouts' informational timings."""

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
