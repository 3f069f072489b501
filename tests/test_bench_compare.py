import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def test_a_gain_within_the_base_spread_is_unresolved():
    # base 10..14: median 12, quartiles 11 and 13; the change is lower in
    # four pairs, but its median, 11, is within the IQR of 2
    pairs = list(zip([10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 10.0, 11.0, 12.0, 15.0]))
    assert bench_compare.summarize(pairs, "lower") == {
        "better": "lower", "base_median": 12.0, "change_median": 11.0, "base_iqr": 2.0,
        "pairs": 5, "change_better": 4, "unresolved": True,
    }


def test_a_gain_past_the_base_spread_is_resolved():
    # quartiles of 82, 84, 85, 86, 88 by numpy's linear rule: 84 and 86
    base = [85.0, 82.0, 88.0, 84.0, 86.0]
    change = [66.0, 67.0, 90.0, 65.5, 66.5]
    summary = bench_compare.summarize(list(zip(base, change)), "lower")
    assert (summary["base_median"], summary["change_median"]) == (85.0, 66.5)
    assert summary["base_iqr"] == 2.0
    assert (summary["change_better"], summary["unresolved"]) == (4, False)


def test_higher_is_better_counts_the_other_way_and_ties_win_nothing():
    pairs = [(1.0, 2.0), (1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]
    summary = bench_compare.summarize(pairs, "higher")
    assert (summary["change_better"], summary["pairs"]) == (2, 4)
    assert summary["base_median"] == 1.0 and summary["change_median"] == 1.5
    assert summary["base_iqr"] == pytest.approx(0.25)
    assert summary["unresolved"] is False


def test_one_pair_has_no_spread():
    summary = bench_compare.summarize([(3.0, 2.0)], "lower")
    assert summary["base_iqr"] == 0.0 and summary["unresolved"] is False
