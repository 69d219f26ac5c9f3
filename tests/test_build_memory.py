"""The per-patch times and change/parent ratios of scripts/build_memory.py on fixed runs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "build_memory", Path(__file__).resolve().parents[1] / "scripts" / "build_memory.py"
)
build_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(build_memory)


def run(seconds: float, worker_kb: int | None = None) -> dict:
    return {"seconds": seconds, "start_kb": 100_000, "end_kb": 160_000, "worker_vmhwm_kb": worker_kb}


def test_ms_per_patch_is_the_median_seconds_over_the_patches():
    s = build_memory.summarize([run(4.0), run(3.0, 200_000), run(5.0)])
    assert s["seconds"] == 4.0
    assert s["ms_per_patch"] == 4000.0 / build_memory.PATCHES
    assert s["worker_vmhwm_mb"] == 200_000 / 1024


def test_seconds_ratio_per_entry_and_job_count():
    summary = {
        "parent": {"fqe build, jobs 1": {"seconds": 4.0}, "fqe build, jobs 2": {"seconds": 2.5}},
        "change": {"fqe build, jobs 1": {"seconds": 3.0}, "fqe build, jobs 2": {"seconds": 2.5}},
    }
    assert build_memory.seconds_ratios(summary) == {
        "fqe build, jobs 1": 0.75,
        "fqe build, jobs 2": 1.0,
    }
