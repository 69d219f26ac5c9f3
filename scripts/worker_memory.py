"""Memory of `fqe evaluate --jobs 2` workers, a parent checkout against this one.

    python3 scripts/worker_memory.py --parent-checkout ../parent \
        --out BENCH_pr11-evaluate-workers.json

For the parent checkout and this one, and each process start method (fork,
spawn), runs `fqe evaluate --jobs 2` REPEATS times over a double-compressed
corpus (QF1 60, 70, 80 and 90, then QF2 90) against the 100-patch benchmark
dataset: perfbench's fixed-seed dataset, which each checkout builds and
evaluates for itself, so that the two may write different file formats
(FQE2 and FQE3, say). Both datasets' sizes and hashes are recorded, and the
reports of all runs must still be identical. While a run lasts, each worker's
Pss, Rss and private memory (Private_Clean + Private_Dirty) are read from
/proc/<pid>/smaps_rollup every INTERVAL seconds and their peaks kept;
the evaluating process prints its own VmHWM when it ends. Pss splits a
shared page among the processes that map it, so it shows what a worker
costs the host; VmHWM counts shared file pages in full. Linux only.
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

METHODS = ("fork", "spawn")
JOBS = 2
PATCHES = 100  # dataset patches
Q1_MAX = 22
K = 15
RAW_IMAGES = 24  # corpus images per QF1
SIDE = 64  # corpus image side
SEED = 1301  # seed of the corpus images
QF1 = "60,70,80,90"
QF2 = "90"
REPEATS = 3
INTERVAL = 0.02  # seconds between samples

# Run in the checkout under test: evaluate, then print this process's VmHWM.
DRIVER = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from fqe.cli import main
main(["evaluate", "--corpus-dir", sys.argv[2], "--dataset", sys.argv[3],
      "--out-dir", sys.argv[4], "--jobs", sys.argv[5]], standalone_mode=False)
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print("VmHWM", status["VmHWM"].split()[0])
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


def run_once(checkout: Path, method: str, corpus: Path, dataset: Path) -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", DRIVER, method, str(corpus), str(dataset), out_dir, str(JOBS)],
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
        seconds = time.perf_counter() - t0
        checkouts.check(f"evaluate under {method} in {checkout}", proc.returncode, stderr)
        report = json.loads((Path(out_dir) / "report.json").read_text())
    vmhwm = [line.split()[1] for line in stdout.splitlines() if line.startswith("VmHWM ")]
    return {
        "seconds": seconds,
        "parent_vmhwm_kb": int(vmhwm[-1]),
        "workers": [peaks[pid] for pid in sorted(peaks)],
        "report_sha256": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
    }


def summarize(runs: list[dict]) -> dict:
    """Medians over runs (and over the workers of every run), in MB."""
    def median_mb(values):
        return statistics.median(values) / 1024 if values else None

    workers = [w for run in runs for w in run["workers"]]
    return {
        "parent_vmhwm_mb": median_mb([run["parent_vmhwm_kb"] for run in runs]),
        "worker_pss_mb": median_mb([w["pss_kb"] for w in workers]),
        "worker_private_mb": median_mb([w["private_kb"] for w in workers]),
        "worker_rss_mb": median_mb([w["rss_kb"] for w in workers]),
        "workers_seen": len(workers),
        "seconds": statistics.median(run["seconds"] for run in runs),
    }


def make_corpus(corpus: Path) -> None:
    """RAW_IMAGES synthetic SIDE x SIDE patches, double-compressed by `fqe make-corpus`."""
    conftest = checkouts.inputs().load_conftest()
    from fqe.cli import main

    raw = corpus.parent / "raw"
    raw.mkdir()
    for i, patch in enumerate(conftest.synth_patches(SEED, RAW_IMAGES, SIDE)):
        (raw / f"p{i:03d}.pgm").write_bytes(conftest.write_pgm(patch))
    main(["make-corpus", "--raw-dir", str(raw), "--out-dir", str(corpus), "--qf1", QF1,
          "--qf2", QF2], standalone_mode=False)


def build_dataset(checkout: Path, cache: Path) -> Path:
    """The benchmark dataset, built by checkout's own perfbench and fqe."""
    code = (
        "import sys; from pathlib import Path; from perfbench import inputs; "
        f"print(inputs.dataset(Path(sys.argv[1]), {PATCHES}, q1_max={Q1_MAX}, k={K}))"
    )
    stdout = checkouts.run(checkout, ["-c", code, str(cache)], "the dataset build", perfbench=True)
    return Path(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-checkout", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        corpus = work / "corpus"
        make_corpus(corpus)
        sides = checkouts.sides(args.parent_checkout)
        datasets = {side: build_dataset(path, work / side) for side, path in sides.items()}
        runs: dict[str, dict[str, list[dict]]] = {side: {m: [] for m in METHODS} for side in sides}
        for i, order in enumerate(checkouts.orders(REPEATS)):
            for side in order:
                for method in METHODS:
                    run = run_once(sides[side], method, corpus, datasets[side])
                    runs[side][method].append(run)
                    print(f"run {i} {side} {method}: {json.dumps(summarize([run]))}", flush=True)
        dataset_files = {
            side: {"bytes": path.stat().st_size,
                   "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for side, path in datasets.items()
        }

    summary = {side: {m: summarize(runs[side][m]) for m in METHODS} for side in sides}
    reports = {run["report_sha256"] for s in runs.values() for m in s.values() for run in m}
    out = {
        **checkouts.header(__file__, argv, sides),
        "dataset": {"patches": PATCHES, "seed": checkouts.inputs().DATASET_SEED, "q1_max": Q1_MAX,
                    "k": K, "files": dataset_files},
        "corpus": {"images": len(QF1.split(",")) * RAW_IMAGES, "qf1": QF1, "qf2": QF2,
                   "seed": SEED, "side": SIDE},
        "jobs": JOBS,
        "repeats": REPEATS,
        "reports_identical": len(reports) == 1,
        "summary": summary,
        "worker_private_drop_mb": {
            m: summary["parent"][m]["worker_private_mb"] - summary["change"][m]["worker_private_mb"]
            for m in METHODS
        },
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"summary": summary, "drop": out["worker_private_drop_mb"],
                      "reports_identical": out["reports_identical"]}, indent=2))
    return 0 if out["reports_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
