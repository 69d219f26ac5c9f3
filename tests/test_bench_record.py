"""The pair summary and digest check of scripts/bench_record.py on fixed numbers."""

import argparse
import importlib.util
import json
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


def test_differing_pairs_names_each_pair_that_differs():
    a = {"estimates": "sha256=aa"}
    b = {"estimates": "sha256=bb"}
    blob = {"dataset_blob": "sha256=aa (round 0)"}
    assert bench_record.differing_pairs([a, a, blob], [a, a, blob]) == []
    assert bench_record.differing_pairs([a, a, a], [a, b, a]) == [1]
    # A missing digest or another label differs too.
    assert bench_record.differing_pairs([a, a, a], [{}, a, blob]) == [0, 2]
    with pytest.raises(ValueError):
        bench_record.differing_pairs([a], [])


def test_pairs_exit_1_and_name_the_pair_whose_digests_differ(tmp_path, monkeypatch, capsys):
    metric = {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric], "per_layer": []}))

    def fake_record(checkout, workload, seed, seconds, trace):
        side = "change" if checkout == tmp_path else "parent"
        estimates = "sha256=bad" if side == "change" and seed == 12 else "sha256=good"
        content = {
            "digests": {"estimates": estimates},
            "result": {"metrics": {"latency_ms_p50": {"value": 10.0}}},
        }
        return content, 0

    monkeypatch.setattr(bench_record, "record", fake_record)
    args = argparse.Namespace(
        checkout=tmp_path, parent_checkout=tmp_path / "parent", workload="evaluate",
        seed=10, pairs=3, seconds=1.0, trace=0, label="t", out_dir=tmp_path,
    )
    assert bench_record.run_pairs(args) == 1
    out = capsys.readouterr().out
    assert "pair 2 seed 12: DIGESTS DIFFER" in out
    assert "pair 0 seed 10: DIGESTS" not in out and "pair 1 seed 11: DIGESTS" not in out
    args.seed = 20
    assert bench_record.run_pairs(args) == 0
    assert "digests: parent and change equal in all 3 pairs" in capsys.readouterr().out
