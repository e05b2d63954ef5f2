"""The summary of tools/benchpairs.py on fixed numbers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from benchpairs import summarize  # noqa: E402


def _run(rate, p50, failed=0):
    return {"failed": failed, "metrics": {"instances_per_s": rate, "solve_p50_s": p50}}


def test_summary_takes_medians_quartiles_and_pair_wins_with_ties_for_neither():
    pairs = [
        {"workload": "w", "seed": 0, "first": "base", "base": _run(10.0, 0.5), "head": _run(12.0, 0.5)},
        {"workload": "w", "seed": 1, "first": "head", "base": _run(11.0, 0.4), "head": _run(11.0, 0.3)},
        {"workload": "w", "seed": 2, "first": "base", "base": _run(14.0, 0.2), "head": _run(13.0, 0.6, 1)},
        {"workload": "w", "seed": 3, "first": "head", "base": _run(9.0, 0.3), "head": _run(15.0, 0.1)},
        {"workload": "v", "seed": 0, "first": "base", "base": _run(1.0, 2.0), "head": _run(2.0, 1.0)},
    ]
    got = summarize(pairs, {"instances_per_s": "higher", "solve_p50_s": "lower"})
    assert list(got) == ["w", "v"]
    w = got["w"]
    assert (w["pairs"], w["failed"]) == (4, {"base": 0, "head": 1})
    # base rates 9, 10, 11, 14; head 11, 12, 13, 15
    assert w["instances_per_s"] == {
        "base": {"median": 10.5, "q1": 9.75, "q3": 11.75},
        "head": {"median": 12.5, "q1": 11.75, "q3": 13.5},
        "head_wins": 2,
        "base_wins": 1,
    }
    # lower is better: head wins pairs 1 and 3, ties pair 0, loses pair 2
    assert (w["solve_p50_s"]["head_wins"], w["solve_p50_s"]["base_wins"]) == (2, 1)
    assert w["solve_p50_s"]["base"] == pytest.approx({"median": 0.35, "q1": 0.275, "q3": 0.425})
    assert got["v"]["solve_p50_s"] == {
        "base": {"median": 2.0, "q1": 2.0, "q3": 2.0},
        "head": {"median": 1.0, "q1": 1.0, "q3": 1.0},
        "head_wins": 1,
        "base_wins": 0,
    }
