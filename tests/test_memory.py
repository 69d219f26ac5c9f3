"""The summary and the child driver of scripts/memory.py, on fixed runs and one small build."""

import hashlib
import os

from click.testing import CliRunner

import memory
from checkouts import ROOT
from fqe.cli import main
from fqe.corpus import double_compress_file
from fqe.dctsim import constant_table
from conftest import synth_patches, write_pgm


def run(seconds: float, end_kb: int = 160_000, workers: tuple = ()) -> dict:
    return {"seconds": seconds, "start_kb": 100_000, "end_kb": end_kb, "workers": list(workers)}


def worker(pss_kb: int) -> dict:
    return {"pss_kb": pss_kb, "rss_kb": 2 * pss_kb, "private_kb": pss_kb // 2}


def test_medians_over_runs_and_over_every_worker():
    runs = [
        run(4.0, 150_000, [worker(40_960), worker(51_200)]),
        run(3.0, 170_000, [worker(61_440)]),
        run(5.0, 160_000),
    ]
    s = memory.summarize("evaluate, fork", runs)
    assert s["seconds"] == 4.0
    assert s["start_vmhwm_mb"] == 100_000 / 1024 and s["end_vmhwm_mb"] == 160_000 / 1024
    assert s["vmhwm_above_start_mb"] == 60_000 / 1024
    assert s["workers_seen"] == 3
    assert (s["worker_pss_mb"], s["worker_rss_mb"], s["worker_private_mb"]) == (50, 100, 25)


def test_per_patch_figures_for_builds_only():
    runs = [run(4.0), run(3.0, 200_000), run(5.0)]
    s = memory.summarize("build, jobs 2", runs)
    assert s["ms_per_patch"] == 4000.0 / memory.PATCHES
    assert s["vmhwm_mb_per_patch"] == 60_000 / 1024 / memory.PATCHES
    evaluated = memory.summarize("evaluate, spawn", runs)
    assert "ms_per_patch" not in evaluated and "vmhwm_mb_per_patch" not in evaluated


def test_worker_fields_are_none_when_no_worker_was_seen():
    s = memory.summarize("build, jobs 1", [run(1.0), run(2.0)])
    assert s["workers_seen"] == 0
    assert s["worker_pss_mb"] is s["worker_private_mb"] is s["worker_rss_mb"] is None


def test_seconds_ratio_per_command():
    summary = {
        "parent": {"build, jobs 1": {"seconds": 4.0}, "evaluate, fork": {"seconds": 2.5}},
        "change": {"build, jobs 1": {"seconds": 3.0}, "evaluate, fork": {"seconds": 2.5}},
    }
    assert memory.seconds_ratios(summary) == {"build, jobs 1": 0.75, "evaluate, fork": 1.0}


def test_smaps_rollup_of_a_live_and_a_gone_process():
    fields = memory.smaps_rollup(os.getpid())
    assert 0 < fields["Pss"] <= fields["Rss"]
    assert {"Private_Clean", "Private_Dirty"} <= fields.keys()
    assert memory.smaps_rollup(2**22 + 1) is None  # above the largest pid Linux hands out


def test_one_build_in_a_fresh_process(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    for i, patch in enumerate(synth_patches(seed=7, count=2)):
        (raw / f"p{i}.pgm").write_bytes(write_pgm(patch))
    out = tmp_path / "ref.fqe"
    argv = ["build", "--raw-dir", str(raw), "--out", str(out), "--q1-max", "2", "--jobs", "1"]
    done = memory.run_once(ROOT, "fork", argv, out)
    assert done["seconds"] > 0 and 0 < done["start_kb"] <= done["end_kb"]
    assert done["workers"] == []
    assert done["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_one_estimate_in_a_fresh_process_hashes_what_it_prints(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    patches = synth_patches(seed=7, count=3)
    for i, patch in enumerate(patches):
        (raw / f"p{i}.pgm").write_bytes(write_pgm(patch))
    dataset, image = tmp_path / "ref.fqe", tmp_path / "img.jpg"
    main(["build", "--raw-dir", str(raw), "--out", str(dataset), "--q1-max", "4", "--jobs", "1"],
         standalone_mode=False)
    image.write_bytes(double_compress_file(patches[0], constant_table(3), constant_table(2)))
    argv = ["estimate", "--image", str(image), "--dataset", str(dataset), "--format", "json"]
    done = memory.run_once(ROOT, "fork", argv, None)
    printed = CliRunner().invoke(main, argv).output
    assert done["sha256"] == hashlib.sha256(printed.encode()).hexdigest()
    assert 0 < done["start_kb"] <= done["end_kb"] and done["workers"] == []
