"""Smoke test of the benchmark at toy sizes (q1_max 4, a few patches/images).

Runs every workload untraced and traced, checks that each named metric is
emitted with its unit, and feeds each correctness check a tampered output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run as bench

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SUMMARY_NAMES = {
    "build": ["build_patches_per_s", "build_pool_patches_per_s"],
    "evaluate": ["images_per_s", "latency_ms_p50", "latency_ms_p90", "accuracy_reg", "accuracy_raw"],
    "estimate-cold": ["request_s_p50"],
}


def bench_run(tmp_path: Path, workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "toy",
         "--cache-dir", str(tmp_path / "cache")],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_contract_matches_the_harness():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(tmp_path, workload, trace):
    proc = bench_run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in SUMMARY_NAMES[workload] + ["setup_s", "peak_rss_mb", "failed_ops"]:
        assert any(line.startswith(f"metric {name} = ") for line in lines), name
    assert any(line.startswith("provenance: ") for line in lines)
    assert any(line.startswith("digest ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench_run(tmp_path, "evaluate", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each correctness check rejects a tampered output.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy():
    import fqe

    patches = inputs.load_conftest().synth_patches(11, 3)
    ds = fqe.build_reference(patches, q1_max=4, k=15)
    q1 = fqe.QuantTable(np.full(64, 3))
    image = inputs.double_compress(patches[0], q1, fqe.constant_table(2))
    return ds, fqe.serialize(ds), image


def test_blobs_identical_rejects_a_differing_blob():
    assert checks.blobs_identical({"0": ["a", "a"], "1": ["b", "b"]}) is None
    assert checks.blobs_identical({"0": ["a", "a"], "1": ["b", "c"]}) is not None


def test_round_trip_rejects_a_tampered_blob(toy):
    import fqe

    _, blob, _ = toy
    assert checks.round_trip(blob, fqe.deserialize, fqe.serialize) is None
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x01
    assert checks.round_trip(bytes(flipped), fqe.deserialize, fqe.serialize) is not None
    lossy = lambda ds: fqe.serialize(ds) + b"\0"  # noqa: E731
    assert checks.round_trip(blob, fqe.deserialize, lossy) is not None


def test_cold_vs_warm_rejects_a_tampered_cli_answer(toy, tmp_path, capsys):
    import fqe
    from fqe import cli

    ds, blob, image = toy
    (tmp_path / "ds.fqe").write_bytes(blob)
    (tmp_path / "img.jpg").write_bytes(image)
    cli.main(["estimate", "--image", str(tmp_path / "img.jpg"), "--dataset",
              str(tmp_path / "ds.fqe"), "--format", "json"], standalone_mode=False)
    text = capsys.readouterr().out
    warm = {"img": checks.outcome_of_result(fqe.estimate(image, ds))}
    cold = {"img": checks.outcome_of_cli_json(text)}
    assert checks.same_outcomes(warm, cold, "cold") is None
    doc = json.loads(text)
    row = next(r for r in doc["positions"] if r["estimate"] is not None)
    row["estimate"] = row["estimate"] % 4 + 1
    tampered = {"img": checks.outcome_of_cli_json(json.dumps(doc))}
    assert checks.same_outcomes(warm, tampered, "cold") is not None
    assert checks.same_outcomes(warm, {}, "cold") is not None


def test_traced_vs_untraced_rejects_a_tampered_run():
    answer = checks.outcome([3, None], [3, None], ["ok", "degenerate"])
    other = checks.outcome([4, None], [3, None], ["ok", "degenerate"])
    plain = {"answers": {"0": answer}}
    assert bench.compare_runs("evaluate", plain, {"answers": {"0": answer}}) is None
    assert bench.compare_runs("evaluate", plain, {"answers": {"0": other}}) is not None
    built = {"blob_digests": {"0": ["a", "a"]}}
    assert bench.compare_runs("build", built, {"blob_digests": {"0": ["a"]}}) is None
    assert bench.compare_runs("build", built, {"blob_digests": {"0": ["b"]}}) is not None


def test_valid_outcome_rejects_impossible_estimates():
    ok = checks.outcome([3, None], [2, None], ["ok", "degenerate"])
    assert checks.valid_outcome(ok, 4) is None
    out_of_range = checks.outcome([5, None], [2, None], ["ok", "degenerate"])
    assert checks.valid_outcome(out_of_range, 4) is not None
    on_degenerate = checks.outcome([3, 1], [2, None], ["ok", "degenerate"])
    assert checks.valid_outcome(on_degenerate, 4) is not None
