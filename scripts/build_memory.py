"""Memory and time of a 400-patch reference build, a parent checkout against this one.

    python3 scripts/build_memory.py --parent-checkout ../parent \
        --out BENCH_build-memory.json

For the parent checkout and this one, builds PATCHES synthetic 64x64
patches (tests/conftest.synth_patches, seed SEED) at q1_max Q1_MAX and k K,
once per worker count in JOBS and per entry point, REPEATS times, each run
in a fresh process and the two checkouts alternating:

- `build_reference`: the library call on patches loaded from a .npy file;
- `fqe build`: the command on the same patches written as PGM files, which
  also writes the dataset file.

Each run reports its wall seconds, its VmHWM at the start (after imports
and input) and at the end of the build, the largest VmHWM of its pool
workers (the peak RSS of its reaped children; fork workers count the pages
they share with the parent) and the sha256 of the dataset file. VmHWM per
patch above start is (end - start) / PATCHES, and a worker's is (worker
VmHWM - start) / PATCHES. The median seconds are also given as ms per
patch, and change_parent_seconds_ratio divides the change's by the
parent's for each entry and job count. writer_extra_mb is how much more
`fqe build` held than `build_reference` alone. Every run of one checkout must write
the same bytes, or the script exits 1; the two checkouts may differ, as
they do across a change of the file format, and checkouts_agree says
whether they did. Linux only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

import checkouts

PATCHES = 400
SEED = 1901
Q1_MAX = 22
K = 15
JOBS = (1, 2)
ENTRIES = ("build_reference", "fqe build")
REPEATS = 3

# Run in the checkout under test: one build, then a JSON line of its measurements.
DRIVER = """
import json, resource, sys, time

def vmhwm_kb():
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return int(status["VmHWM"].split()[0])

entry, source, out = sys.argv[1:4]
q1_max, k, jobs = map(int, sys.argv[4:7])
if entry == "build_reference":
    import numpy as np
    from fqe import GrayImage, build_reference, serialize
    patches = [GrayImage(p) for p in np.load(source)]
    start = vmhwm_kb()
    t0 = time.perf_counter()
    ds = build_reference(patches, q1_max=q1_max, k=k, jobs=jobs)
    seconds = time.perf_counter() - t0
    end = vmhwm_kb()
    with open(out, "wb") as fh:
        fh.write(serialize(ds))
else:
    from fqe.cli import main
    start = vmhwm_kb()
    t0 = time.perf_counter()
    main(["build", "--raw-dir", source, "--out", out, "--q1-max", str(q1_max), "--k", str(k),
          "--jobs", str(jobs)], standalone_mode=False)
    seconds = time.perf_counter() - t0
    end = vmhwm_kb()
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"seconds": seconds, "start_kb": start, "end_kb": end,
                  "worker_vmhwm_kb": workers or None}))
"""


def run_once(checkout: Path, entry: str, jobs: int, source: Path, out: Path) -> dict:
    stdout = checkouts.run(
        checkout, ["-c", DRIVER, entry, str(source), str(out), str(Q1_MAX), str(K), str(jobs)],
        f"{entry} jobs={jobs}",
    )
    run = json.loads(stdout.splitlines()[-1])
    run["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
    run["dataset_bytes"] = out.stat().st_size
    out.unlink()
    return run


def summarize(runs: list[dict]) -> dict:
    """Medians over runs; memory in MB, per patch above start in MB per patch."""
    pooled = [run for run in runs if run["worker_vmhwm_kb"]]
    workers = [run["worker_vmhwm_kb"] for run in pooled]
    seconds = statistics.median(run["seconds"] for run in runs)
    return {
        "seconds": seconds,
        "ms_per_patch": 1000 * seconds / PATCHES,
        "start_vmhwm_mb": statistics.median(run["start_kb"] for run in runs) / 1024,
        "end_vmhwm_mb": statistics.median(run["end_kb"] for run in runs) / 1024,
        "vmhwm_mb_per_patch": statistics.median(
            (run["end_kb"] - run["start_kb"]) / 1024 / PATCHES for run in runs
        ),
        "worker_vmhwm_mb": statistics.median(workers) / 1024 if workers else None,
        "worker_vmhwm_mb_per_patch": statistics.median(
            (run["worker_vmhwm_kb"] - run["start_kb"]) / 1024 / PATCHES for run in pooled
        ) if pooled else None,
    }


def seconds_ratios(summary: dict) -> dict:
    """The change's median seconds over the parent's, for each entry and job count."""
    return {
        name: summary["change"][name]["seconds"] / parent["seconds"]
        for name, parent in summary["parent"].items()
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-checkout", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = p.parse_args(argv)

    conftest = checkouts.inputs().load_conftest()
    patches = conftest.synth_patches(SEED, PATCHES)
    sides = checkouts.sides(args.parent_checkout)
    runs = {side: {f"{entry}, jobs {j}": [] for entry in ENTRIES for j in JOBS} for side in sides}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        npy, raw = work / "patches.npy", work / "raw"
        np.save(npy, np.stack([p.pixels for p in patches]))
        raw.mkdir()
        for i, patch in enumerate(patches):
            (raw / f"p{i:03d}.pgm").write_bytes(conftest.write_pgm(patch))
        for i, order in enumerate(checkouts.orders(REPEATS)):
            for side in order:
                for entry in ENTRIES:
                    for jobs in JOBS:
                        source = npy if entry == "build_reference" else raw
                        run = run_once(sides[side], entry, jobs, source, work / "ref.fqe")
                        runs[side][f"{entry}, jobs {jobs}"].append(run)
                        print(f"run {i} {side} {entry} jobs {jobs}: {json.dumps(run)}", flush=True)

    summary = {side: {name: summarize(r) for name, r in by_name.items()} for side, by_name in runs.items()}
    seconds_ratio = seconds_ratios(summary)
    digests = {
        side: sorted({run["sha256"] for r in by_name.values() for run in r})
        for side, by_name in runs.items()
    }
    identical = all(len(d) == 1 for d in digests.values())
    # What `fqe build` holds above build_reference alone. build_reference
    # returns the whole dataset in memory; a `fqe build` that writes its
    # file as the build goes holds less (a negative figure), one that
    # builds the dataset in memory before writing it about as much.
    writer_extra_mb = {
        side: {
            f"jobs {j}": PATCHES * (s[f"fqe build, jobs {j}"]["vmhwm_mb_per_patch"]
                                    - s[f"build_reference, jobs {j}"]["vmhwm_mb_per_patch"])
            for j in JOBS
        }
        for side, s in summary.items()
    }
    dataset_bytes = {
        side: max(run["dataset_bytes"] for r in by_name.values() for run in r)
        for side, by_name in runs.items()
    }
    out = {
        **checkouts.header(__file__, argv, sides),
        "patches": {"count": PATCHES, "seed": SEED, "side": 64, "q1_max": Q1_MAX, "k": K},
        "repeats": REPEATS,
        "dataset_sha256": digests,
        "dataset_mb": {side: size / 2**20 for side, size in dataset_bytes.items()},
        "datasets_identical": identical,
        "checkouts_agree": len({d for side in digests.values() for d in side}) == 1,
        "summary": summary,
        "writer_extra_mb": writer_extra_mb,
        "change_parent_seconds_ratio": seconds_ratio,
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"summary": summary, "writer_extra_mb": writer_extra_mb,
                      "datasets_identical": identical,
                      "checkouts_agree": out["checkouts_agree"]}, indent=2))
    for name, ratio in seconds_ratio.items():
        print(f"{name}: parent {summary['parent'][name]['ms_per_patch']:.2f} ms per patch, "
              f"change {summary['change'][name]['ms_per_patch']:.2f}; change/parent {ratio:.3f}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
