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
    s = summarize([1.0, 2.0], [3.0, 4.0], "lower")
    assert s["regression"] is None and s["unresolved"] is None


def test_unresolved_when_the_parent_spread_passes_the_bound():
    # Parent quartiles 87.5 and 112.5: a spread of 25 % of the median 100.
    parent = [50.0, 100.0, 150.0, 100.0]
    s = summarize(parent, [101.0] * 4, "lower", 0.24)
    assert s["unresolved"] and not s["regression"]
    # Every change run beats every parent run: resolved, in either direction.
    s = summarize(parent, [40.0] * 4, "lower", 0.24)
    assert not s["unresolved"] and not s["regression"]
    assert not summarize(parent, [160.0] * 4, "higher", 0.24)["unresolved"]
    # A spread within the bound resolves the metric.
    assert not summarize(parent, [101.0] * 4, "lower", 0.26)["unresolved"]


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


@pytest.fixture
def pairs_args(tmp_path, monkeypatch):
    """run_pairs' arguments for 3 pairs of fake runs: the parent reads 10 ms and
    the change 8 ms + seed % 10 / 2; the change's estimates differ at seed 12."""
    metric = {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric], "per_layer": []}))

    def fake_record(checkout, workload, seed, seconds, trace):
        side = "change" if checkout == tmp_path else "parent"
        estimates = "sha256=bad" if side == "change" and seed == 12 else "sha256=good"
        latency = 10.0 if side == "parent" else 8.0 + seed % 10 / 2
        content = {
            "digests": {"estimates": estimates},
            "result": {"metrics": {"latency_ms_p50": {"value": latency},
                                   "parse.ms": {"value": 1.0}}},
        }
        return content, 0

    monkeypatch.setattr(bench_record, "record", fake_record)
    return argparse.Namespace(
        checkout=tmp_path, parent_checkout=tmp_path / "parent", workload="evaluate",
        seed=10, pairs=3, seconds=1.0, trace=0, label="t", out_dir=tmp_path,
    )


def test_pairs_exit_1_and_name_the_pair_whose_digests_differ(pairs_args, capsys):
    assert bench_record.run_pairs(pairs_args) == 1
    out = capsys.readouterr().out
    assert "pair 2 seed 12: DIGESTS DIFFER" in out
    assert "pair 0 seed 10: DIGESTS" not in out and "pair 1 seed 11: DIGESTS" not in out
    pairs_args.seed = 20
    assert bench_record.run_pairs(pairs_args) == 0
    assert "digests: parent and change equal in all 3 pairs" in capsys.readouterr().out


def test_the_change_record_holds_every_pair_and_the_summary(pairs_args, tmp_path):
    assert bench_record.run_pairs(pairs_args) == 1
    parent = json.loads((tmp_path / "BENCH_t-parent-evaluate.json").read_text())
    change = json.loads((tmp_path / "BENCH_t-change-evaluate.json").read_text())
    # Both keep the first pair's run as before; only the change's file holds the rest.
    assert parent["result"]["metrics"]["latency_ms_p50"]["value"] == 10.0
    assert change["result"]["metrics"]["latency_ms_p50"]["value"] == 8.0
    assert "pairs" not in parent and "summary" not in parent
    assert change["pairs"] == [
        {
            "seed": seed,
            "parent": {"exit": 0, "metrics": {"latency_ms_p50": 10.0},
                       "digests": {"estimates": "sha256=good"}},
            "change": {"exit": 0, "metrics": {"latency_ms_p50": latency},
                       "digests": {"estimates": estimates}},
        }
        for seed, latency, estimates in [
            (10, 8.0, "sha256=good"), (11, 8.5, "sha256=good"), (12, 9.0, "sha256=bad")
        ]
    ]
    assert change["summary"] == {
        "latency_ms_p50": {
            "unit": "ms", "parent": [10.0, 10.0, 10.0], "change": [8.25, 8.5, 8.75],
            "pairs": 3, "wins": 3, "ties": 0, "gain": True, "regression": False,
            "unresolved": False, "verdict": "no regression",
        }
    }
