"""The measured process: set up, run one workload for a while, report.

run.py starts this file with the program's source on PYTHONPATH and one
argument, a JSON spec. An untraced run is split into spec["parts"]
processes run one after another; process spec["part"] sets up, then runs
its share of the time on its own share of the inputs. Set-up ends at the
first timed call; the time of that moment goes back to the harness, which
knows when the process was started. Results, raw latencies and answers
are written to spec["out"]; with tracing on, the spans go to spec["spans"].

    python3 perfbench/workloads.py spec.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import fqe
from fqe import cli

import checks
import spans


class Run:
    """Counters and samples of one measured process."""

    def __init__(self, spec: dict, tracer: spans.Tracer | None) -> None:
        self.spec = spec
        self.size = spec["size"]
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.out: dict = {}

    def share(self, count: int) -> range:
        """This process's share of count inputs."""
        part, parts = self.spec["part"], self.spec["parts"]
        return range(part * count // parts, (part + 1) * count // parts)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, message: str | None) -> None:
        self.attempted += 1
        if message is not None:
            self.fail(message)

    def span(self, name: str, request: str | None = None):
        if self.tracer is None:
            return contextlib.nullcontext()
        if request is not None:
            self.tracer.request = request
        return self.tracer.span(name)

    def start(self) -> float:
        """End of set-up: returns the deadline of the timed loop."""
        self.out["t_ready"] = time.monotonic()
        return time.perf_counter() + self.spec["seconds"]

    def done(self) -> None:
        """End of the timed loop: take peak memory before the checks run."""
        self.out["peak_rss_kb"] = peak_rss_kb()
        if self.tracer is not None:
            self.tracer.request = "checks"


def peak_rss_kb() -> int:
    """High-water resident set of this process since it was exec'd.

    Linux carries the parent's high-water mark over exec into ru_maxrss, so
    ru_maxrss would count the harness's own memory; VmHWM does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _records(ds) -> int:
    return sum(len(sub.dc) + len(sub.ac) for sub in ds.subs.values())


def run_build(run: Run) -> None:
    """Rounds of build_reference + serialize, starting at this process's share."""
    size = run.size
    patches = [fqe.GrayImage(p) for p in np.load(run.spec["patches"])]
    per_round = size["build_round_patches"]
    job_counts = [1] if run.tracer else [1, os.cpu_count() or 1]
    rounds = {j: [] for j in job_counts}
    digests: dict[str, list[str]] = {}
    blob = b""
    r = first_round = run.share(len(patches) // per_round).start
    deadline = run.start()
    while r < first_round + size["build_min_rounds"] or time.perf_counter() < deadline:
        batch = [patches[(r * per_round + i) % len(patches)] for i in range(per_round)]
        for jobs in job_counts:
            run.attempted += 1
            parent0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            try:
                with run.span("round", f"r{r}"):
                    with run.span("build_reference"):
                        ds = fqe.build_reference(
                            batch, q1_max=size["q1_max"], k=size["k"], jobs=jobs
                        )
                    with run.span("serialize"):
                        blob = fqe.serialize(ds)
            except Exception as exc:
                run.fail(f"build round {r} jobs={jobs}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - t0
            rounds[jobs].append(
                {
                    "s": wall,
                    "patches": per_round,
                    "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - parent0,
                    "children_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - children0,
                }
            )
            digests.setdefault(str(r), []).append(hashlib.sha256(blob).hexdigest())
        r += 1
    run.done()
    run.check(checks.blobs_identical(digests))
    run.out.update(rounds={str(j): v for j, v in rounds.items()}, blob_digests=digests)
    if run.spec["part"] == 0:  # the other parts run the same code on other patches
        t0 = time.perf_counter()
        ds = fqe.deserialize(blob)
        load_s = time.perf_counter() - t0
        run.check(checks.round_trip(blob, fqe.deserialize, fqe.serialize))
        run.out.update(dataset_bytes=len(blob), records=_records(ds), load_s=load_s)


def _manifest(spec: dict) -> list[str]:
    folder = Path(spec["images"])
    return [e["file"] for e in json.loads((folder / "manifest.json").read_text())["images"]]


def run_evaluate(run: Run) -> None:
    """Estimates over this process's slice of the corpus, cycling through it."""
    with run.span("load", "setup"):
        ds = fqe.deserialize(Path(run.spec["dataset"]).read_bytes())
    names = _manifest(run.spec)
    mine = [(str(j), (Path(run.spec["images"]) / names[j]).read_bytes())
            for j in run.share(len(names))]
    min_samples = -(-run.size["eval_min_samples"] // run.spec["parts"])
    first: dict[str, dict | None] = {}
    latencies: list[float] = []
    deadline = run.start()
    i = 0
    while i < max(len(mine), min_samples) or time.perf_counter() < deadline:
        key, data = mine[i % len(mine)]
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            with run.span("estimate", f"i{i}"):
                result = fqe.estimate(data, ds)
        except Exception as exc:
            run.fail(f"estimate {names[int(key)]}: {type(exc).__name__}: {exc}")
            answer = None
        else:
            latencies.append(time.perf_counter() - t0)
            answer = checks.outcome_of_result(result)
        if i < len(mine):
            first[key] = answer
        elif answer is not None and answer != first[key]:
            run.fail(f"estimate {names[int(key)]}: pass {i // len(mine)} differs from pass 0")
        i += 1
    run.done()
    for answer in first.values():
        if answer is not None:
            run.check(checks.valid_outcome(answer, ds.q1_max))
    run.out.update(latencies_s=latencies, answers=first, records=_records(ds))


def run_cold(run: Run) -> None:
    """Full CLI requests, cycling through the images from this process's offset."""
    folder = Path(run.spec["images"])
    names = _manifest(run.spec)
    offset = run.share(len(names)).start
    dataset = run.spec["dataset"]
    first: dict[str, dict] = {}
    latencies: list[float] = []
    deadline = run.start()
    i = 0
    while i < run.size["cold_min_samples"] or time.perf_counter() < deadline:
        name = names[(offset + i) % len(names)]
        argv = ["estimate", "--image", str(folder / name), "--dataset", dataset,
                "--format", "json"]
        run.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), run.span("request", f"c{i}"):
                code = cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            run.fail(f"request {name}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        latencies.append(time.perf_counter() - t0)
        i += 1
        if code not in (None, 0):
            run.fail(f"request {name}: exit code {code}")
            continue
        answer = checks.outcome_of_cli_json(buf.getvalue())
        if name not in first:
            first[name] = answer
        elif answer != first[name]:
            run.fail(f"request {name}: answer differs from its first request")
    run.done()
    run.out.update(latencies_s=latencies, answers=first)


WORKLOADS = {"build": run_build, "evaluate": run_evaluate, "estimate-cold": run_cold}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = spans.Tracer() if spec["trace"] else None
    run = Run(spec, tracer)
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        WORKLOADS[spec["workload"]](run)
    if tracer:
        tracer.dump(spec["spans"])
    run.out.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
    Path(spec["out"]).write_text(json.dumps(run.out))


if __name__ == "__main__":
    main(sys.argv[1])
