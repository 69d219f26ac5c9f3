"""The pair summary of scripts/bench_record.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
summarize = bench_record.summarize


def test_lower_is_better_gain_with_one_tie():
    parent = [30.0, 31.0, 29.0, 32.0, 30.0, 28.0, 33.0, 31.0, 30.0, 29.0]
    change = [20.0, 21.0, 19.0, 22.0, 30.0, 18.0, 23.0, 21.0, 20.0, 19.0]
    s = summarize(parent, change, "lower")
    assert (s["pairs"], s["wins"], s["ties"]) == (10, 9, 1)
    assert s["parent"] == (29.25, 30.0, 31.0)
    assert s["change"] == (19.25, 20.5, 21.75)
    assert s["gain"]


def test_two_ties_fall_short_of_nine_tenths():
    parent = [30.0, 31.0, 29.0, 32.0, 30.0, 28.0, 33.0, 31.0, 30.0, 29.0]
    change = [20.0, 21.0, 29.0, 22.0, 30.0, 18.0, 23.0, 21.0, 20.0, 19.0]
    s = summarize(parent, change, "lower")
    assert (s["wins"], s["ties"]) == (8, 2)
    assert not s["gain"]


def test_all_wins_within_the_parent_spread_is_no_gain():
    # Every pair won, but the medians are closer than the parent's quartiles.
    parent = [10.0, 20.0, 10.0, 20.0]
    change = [10.5, 20.5, 10.5, 20.5]
    s = summarize(parent, change, "higher")
    assert s["wins"] == 4 and s["ties"] == 0
    assert s["parent"] == (10.0, 15.0, 20.0)
    assert not s["gain"]


def test_higher_is_better_counts_losses():
    s = summarize([5.0, 5.0, 5.0], [4.0, 6.0, 5.0], "higher")
    assert (s["wins"], s["ties"]) == (1, 1)
    assert s["change"] == (4.5, 5.0, 5.5)


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([], [], "lower")


def test_regression_beyond_the_relative_bound():
    parent = [100.0, 102.0, 98.0, 100.0]
    # Medians 100 -> 125: 25 % worse, past a 0.24 bound but not a 0.25 one.
    assert summarize(parent, [125.0] * 4, "lower", 0.24)["regression"]
    assert not summarize(parent, [125.0] * 4, "lower", 0.25)["regression"]
    # A higher-is-better metric regresses when it falls: 100 -> 75.
    assert summarize(parent, [75.0] * 4, "higher", 0.24)["regression"]
    assert not summarize(parent, [125.0] * 4, "higher", 0.24)["regression"]
    assert not summarize(parent, [75.0] * 4, "lower", 0.24)["regression"]


def test_no_bound_reads_none():
    assert summarize([1.0, 2.0], [3.0, 4.0], "lower")["regression"] is None
