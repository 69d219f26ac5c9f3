"""Memory and time of `fqe build`, `fqe evaluate` and `fqe estimate`, parent against change.

    python3 scripts/memory.py --parent-checkout ../parent --out BENCH_memory.json

For the parent checkout and this one, REPEATS rounds with the checkouts
alternating, each command in a fresh process of the checkout under test:

- `fqe build --jobs 1` and `--jobs 2` (fork workers) on PATCHES synthetic
  64x64 PGM patches (tests/conftest.synth_patches, seed BUILD_SEED) at
  q1_max Q1_MAX and k K;
- `fqe evaluate --jobs 2` under the fork and the spawn start method, on a
  double-compressed corpus (RAW_IMAGES images of side SIDE, seed
  CORPUS_SEED, at each QF1 in QF1, then QF2) against the dataset file that
  the checkout's own build has just written, so that the two checkouts may
  write different file formats;
- `fqe estimate --format json`, one request per process, on each of the
  COLD_IMAGES 1 MP images of seed COLD_IMAGE_SEED in the cached gray-1mp
  input set (checkouts.cached_inputs), against a dataset of COLD_PATCHES
  patches (seed COLD_DATASET_SEED) that the checkout builds itself first,
  as `fqe build --jobs 1` ("cold dataset").

Each run reports the command's wall seconds and its process's VmHWM before
(after imports) and after the command, and the difference. While it runs,
each pool worker's Pss, Rss and private memory (Private_Clean +
Private_Dirty) are read from /proc/<pid>/smaps_rollup every INTERVAL
seconds and their peaks kept. Pss splits a shared page among the
processes that map it, so it shows what a worker costs the host; Rss and
VmHWM count shared pages in full. Builds also give their median seconds as
ms per patch and their VmHWM above start per patch, and
change_parent_seconds_ratio divides the change's median seconds by the
parent's for each command. Every build of one checkout must
write the same bytes, and every report, and every estimate of one image,
must be identical across runs and checkouts, or the script exits 1; the two
checkouts' datasets may differ, and checkouts_agree says whether they did.
Linux only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checkouts

PATCHES = 400  # build patches
BUILD_SEED = 1901
Q1_MAX = 22
K = 15
METHODS = ("fork", "spawn")
JOBS = 2  # evaluate workers
RAW_IMAGES = 24  # corpus images per QF1
SIDE = 64  # corpus image side
CORPUS_SEED = 1301
QF1 = "60,70,80,90"
QF2 = "90"
COLD_PATCHES = 16  # estimate dataset patches
COLD_DATASET_SEED = 9501
COLD_IMAGES = 4  # estimate images
COLD_IMAGE_SEED = 2021
COLD_SIDE = 1024
REPEATS = 3
INTERVAL = 0.02  # seconds between samples

# Run in the checkout under test: set the start method, run one fqe command,
# then print a JSON line of its seconds and this process's VmHWM around it.
DRIVER = """
import json, multiprocessing, sys, time
from fqe.cli import main
""" + checkouts.VMHWM_KB + """
multiprocessing.set_start_method(sys.argv[1])
start = vmhwm_kb()
t0 = time.perf_counter()
main(sys.argv[2:], standalone_mode=False)
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "start_kb": start, "end_kb": vmhwm_kb()}))
"""


def smaps_rollup(pid: int) -> dict[str, int] | None:
    """The kB fields of /proc/<pid>/smaps_rollup, or None once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return None
    fields = {}
    for line in text.splitlines()[1:]:
        name, _, rest = line.partition(":")
        if rest.strip().endswith("kB"):
            fields[name] = int(rest.split()[0])
    return fields


def workers_of(pid: int) -> list[int]:
    """The pool workers among pid's children: not multiprocessing's resource tracker."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in map(int, children):
            try:
                cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
            except OSError:
                continue
            if b"resource_tracker" not in cmdline:
                found.append(child)
    return found


def run_once(checkout: Path, method: str, argv: list[str], output: Path | None) -> dict:
    """`fqe argv` under method in checkout, its workers sampled; the sha256 of
    output, or of what the command printed when output is None."""
    proc = subprocess.Popen(
        [sys.executable, "-c", DRIVER, method, *argv],
        cwd=checkout, env=checkouts.child_env(checkout),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    peaks: dict[int, dict[str, int]] = {}
    while proc.poll() is None:
        for pid in workers_of(proc.pid):
            fields = smaps_rollup(pid)
            if fields is None:
                continue
            sample = {
                "pss_kb": fields["Pss"],
                "rss_kb": fields["Rss"],
                "private_kb": fields["Private_Clean"] + fields["Private_Dirty"],
            }
            peak = peaks.setdefault(pid, sample)
            for key, value in sample.items():
                peak[key] = max(peak[key], value)
        time.sleep(INTERVAL)
    stdout, stderr = proc.communicate()
    checkouts.check(f"fqe {argv[0]} under {method} in {checkout}", proc.returncode, stderr)
    *printed, last = stdout.splitlines(keepends=True)
    content = "".join(printed).encode() if output is None else output.read_bytes()
    return {
        **json.loads(last),
        "workers": [peaks[pid] for pid in sorted(peaks)],
        "sha256": hashlib.sha256(content).hexdigest(),
    }


def commands(work: Path) -> dict[str, tuple]:
    """Each command by name: its start method, fqe argv and output file (None for
    what it prints), each dataset's build before the commands that read it."""
    dataset, report_dir, cold = work / "ref.fqe", work / "report", work / "cold.fqe"
    build = ["build", "--raw-dir", str(work / "raw"), "--out", str(dataset), "--q1-max",
             str(Q1_MAX), "--k", str(K)]
    evaluate = ["evaluate", "--corpus-dir", str(work / "corpus"), "--dataset", str(dataset),
                "--out-dir", str(report_dir), "--jobs", str(JOBS)]
    cold_build = ["build", "--raw-dir", str(work / "cold-raw"), "--out", str(cold), "--q1-max",
                  str(Q1_MAX), "--k", str(K), "--jobs", "1"]
    images = sorted((checkouts.cached_inputs() / "gray-1mp" / str(COLD_IMAGE_SEED)).glob("*.jpg"))
    return {
        **{f"build, jobs {j}": ("fork", [*build, "--jobs", str(j)], dataset) for j in (1, 2)},
        **{f"evaluate, {m}": (m, evaluate, report_dir / "report.json") for m in METHODS},
        f"cold dataset, {COLD_PATCHES} patches": ("fork", cold_build, cold),
        **{f"estimate, {image.name}": ("fork", ["estimate", "--image", str(image), "--dataset",
                                                str(cold), "--format", "json"], None)
           for image in images},
    }


def summarize(name: str, runs: list[dict]) -> dict:
    """Medians over runs (and over the workers of every run), in MB; per patch for builds."""
    def median_mb(values):
        return statistics.median(values) / 1024 if values else None

    workers = [w for run in runs for w in run["workers"]]
    seconds = statistics.median(run["seconds"] for run in runs)
    summary = {
        "seconds": seconds,
        "start_vmhwm_mb": median_mb([run["start_kb"] for run in runs]),
        "end_vmhwm_mb": median_mb([run["end_kb"] for run in runs]),
        "vmhwm_above_start_mb": median_mb([run["end_kb"] - run["start_kb"] for run in runs]),
        "worker_pss_mb": median_mb([w["pss_kb"] for w in workers]),
        "worker_private_mb": median_mb([w["private_kb"] for w in workers]),
        "worker_rss_mb": median_mb([w["rss_kb"] for w in workers]),
        "workers_seen": len(workers),
    }
    if name.startswith("build"):
        summary["ms_per_patch"] = 1000 * seconds / PATCHES
        summary["vmhwm_mb_per_patch"] = median_mb(
            [(run["end_kb"] - run["start_kb"]) / PATCHES for run in runs]
        )
    return summary


def seconds_ratios(summary: dict) -> dict:
    """The change's median seconds over the parent's, for each command."""
    return {
        name: summary["change"][name]["seconds"] / parent["seconds"]
        for name, parent in summary["parent"].items()
    }


def write_inputs(work: Path) -> None:
    """In work: the builds' PGM patches in raw and cold-raw; the corpus, made from
    its own by `fqe make-corpus`."""
    conftest = checkouts.inputs().load_conftest()
    from fqe import cli

    for out, patches in (
        (work / "raw", conftest.synth_patches(BUILD_SEED, PATCHES)),
        (work / "corpus-raw", conftest.synth_patches(CORPUS_SEED, RAW_IMAGES, SIDE)),
        (work / "cold-raw", conftest.synth_patches(COLD_DATASET_SEED, COLD_PATCHES)),
    ):
        out.mkdir()
        for i, patch in enumerate(patches):
            (out / f"p{i:03d}.pgm").write_bytes(conftest.write_pgm(patch))
    cli.main(["make-corpus", "--raw-dir", str(work / "corpus-raw"), "--out-dir",
              str(work / "corpus"), "--qf1", QF1, "--qf2", QF2], standalone_mode=False)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-checkout", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = p.parse_args(argv)

    sides = checkouts.sides(args.parent_checkout)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        write_inputs(work)
        todo = commands(work)
        runs = {side: {name: [] for name in todo} for side in sides}
        for i, order in enumerate(checkouts.orders(REPEATS)):
            for side in order:
                for name, (method, fqe_argv, output) in todo.items():
                    run = run_once(sides[side], method, fqe_argv, output)
                    runs[side][name].append(run)
                    print(f"run {i} {side} {name}: {json.dumps(summarize(name, [run]))}",
                          flush=True)

    summary = {side: {name: summarize(name, r) for name, r in by_name.items()}
               for side, by_name in runs.items()}
    seconds_ratio = seconds_ratios(summary)

    def digests(side: str, kind: str) -> list[str]:
        return sorted({run["sha256"] for name, r in runs[side].items() if name.startswith(kind)
                       for run in r})

    datasets = {side: digests(side, "build") for side in sides}
    cold_datasets = {side: digests(side, "cold dataset") for side in sides}
    reports = {d for side in sides for d in digests(side, "evaluate")}
    estimates = {name: sorted({d for side in sides for d in digests(side, name)})
                 for name in todo if name.startswith("estimate")}
    identical = (
        all(len(d) == 1 for d in [*datasets.values(), *cold_datasets.values()])
        and len(reports) == 1
        and all(len(d) == 1 for d in estimates.values())
    )
    out = {
        **checkouts.header(__file__, argv, sides),
        "build": {"patches": PATCHES, "seed": BUILD_SEED, "side": 64, "q1_max": Q1_MAX, "k": K},
        "corpus": {"images": len(QF1.split(",")) * RAW_IMAGES, "qf1": QF1, "qf2": QF2,
                   "seed": CORPUS_SEED, "side": SIDE},
        "evaluate_jobs": JOBS,
        "estimate": {"dataset_patches": COLD_PATCHES, "dataset_seed": COLD_DATASET_SEED,
                     "images": COLD_IMAGES, "image_seed": COLD_IMAGE_SEED, "side": COLD_SIDE},
        "repeats": REPEATS,
        "dataset_sha256": datasets,
        "cold_dataset_sha256": cold_datasets,
        "report_sha256": sorted(reports),
        "estimate_sha256": estimates,
        "outputs_identical": identical,
        "checkouts_agree": all(len({d for side in kind.values() for d in side}) == 1
                               for kind in (datasets, cold_datasets)),
        "summary": summary,
        "change_parent_seconds_ratio": seconds_ratio,
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"summary": summary, "outputs_identical": identical,
                      "checkouts_agree": out["checkouts_agree"]}, indent=2))
    for name, ratio in seconds_ratio.items():
        print(f"{name}: parent {summary['parent'][name]['seconds']:.3f} s, "
              f"change {summary['change'][name]['seconds']:.3f} s; change/parent {ratio:.3f}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
