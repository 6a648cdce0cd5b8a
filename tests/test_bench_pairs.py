"""The claim rule that tools/bench_pairs.py writes into each metric's summary:
the pairs the change won in the metric's better direction, ties counting for
neither side, and whether its median gain exceeds the parent's interquartile
distance."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def _pairs(parent, change):
    return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]


PARENT = [10, 11, 12, 13, 14]  # median 12, quartiles 11 and 13


def test_the_summary_counts_the_pairs_won_in_the_better_direction():
    summarize = _summarize()
    pairs = _pairs(PARENT, [9, 11, 13, 12, 13])  # lower in 3 pairs, higher in 1, one tie
    assert summarize(pairs, "m", "lower")["change_won"] == 3
    assert summarize(pairs, "m", "higher")["change_won"] == 1
    assert summarize(pairs, "m", "lower")["parent"] == {"median": 12, "q1": 11, "q3": 13}


def test_the_summary_states_whether_the_median_gain_exceeds_the_parent_iqr():
    summarize = _summarize()
    for change, lower, higher in (([7, 8, 9, 9, 9], True, False),  # 3 lower, above the IQR of 2
                                  ([8, 9, 10, 10, 10], False, False),  # 2 lower, equal to it
                                  ([15, 15, 15, 15, 15], False, True)):  # 3 higher
        pairs = _pairs(PARENT, change)
        assert summarize(pairs, "m", "lower")["gain_above_parent_iqr"] is lower
        assert summarize(pairs, "m", "higher")["gain_above_parent_iqr"] is higher
