"""The summary of tools/ab_pairs.py: medians, quartiles, ratio and wins."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_pairs)


def runs(values, name="m"):
    return [{name: v} for v in values]


@pytest.mark.parametrize("better, wins", [("higher", 2), ("lower", 1)])
def test_wins_count_neither_side_of_a_tie(better, wins):
    # pairs (10, 11), (20, 20), (30, 29), (40, 45): the tie is nobody's
    [row] = ab_pairs.summarize(runs([10, 20, 30, 40]), runs([11, 20, 29, 45]), {"m": better})
    assert (row["wins"], row["pairs"]) == (wins, 4)
    assert row["better"] == better


def test_medians_quartiles_and_ratio():
    [row] = ab_pairs.summarize(runs([40, 10, 30, 20]), runs([20, 29, 11, 45]), {"m": "higher"})
    assert row["parent_median"] == 25 and row["change_median"] == 24.5
    # the quartiles interpolate between the sorted runs, ends included
    assert (row["parent_q1"], row["parent_q3"]) == (17.5, 32.5)
    assert row["ratio"] == pytest.approx(24.5 / 25)


def test_pairs_are_read_in_order_and_metrics_by_name():
    # wins compare the i-th runs, not the sorted ones
    parent = [{"a": 1, "b": 5}, {"a": 3, "b": 5}]
    change = [{"a": 2, "b": 4}, {"a": 2, "b": 6}]
    rows = ab_pairs.summarize(parent, change, {"a": "higher", "b": "lower"})
    assert [(r["metric"], r["wins"]) for r in rows] == [("a", 1), ("b", 1)]


def test_one_pair_has_its_value_for_both_quartiles():
    [row] = ab_pairs.summarize(runs([7]), runs([5]), {"m": "lower"})
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (7, 7, 7)
    assert (row["wins"], row["ratio"]) == (1, 5 / 7)
