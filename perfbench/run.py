"""fqe benchmark: build, evaluate and estimate-cold workloads.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 15 --trace 0

The harness makes the inputs from --seed (outside the measured processes),
starts perfbench/workloads.py as the measured processes, checks the
outputs and prints a summary. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
measures once untraced and once traced, so it also reports the tracing
overhead. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("build", "evaluate", "estimate-cold")
CHILD_TIMEOUT_S = 170

# Every workload reports every end-to-end metric. items_per_s counts the
# workload's unit of work: patches of the default jobs=nproc build on build,
# estimates on evaluate, CLI requests on estimate-cold. latency_ms_p50 is
# per patch of a jobs=1 build, per estimate, or per request.
END_TO_END = {
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "build.dctsim_s": "s",
    "build.fit_calls": "count",
    "build.fit_s": "s",
    "build.pack_s": "s",
    "build.refdata_self_s": "s",
    "build.serialize_s": "s",
    "build.dataset_bytes": "bytes",
    "build.records": "count",
    "build_pool.parent_cpu_s": "s",
    "build_pool.children_cpu_s": "s",
    "build_pool.cpu_utilization": "ratio",
    "build_pool.speedup": "ratio",
    "build_pool.patches_per_s": "1/s",
    "build_pool.base_patches_per_s": "1/s",
    "load.deserialize_s": "s",
    "load.records": "count",
    "load.us_per_record": "us",
    "parse.ms": "ms",
    "parse.us_per_block": "us",
    "histfit.ms": "ms",
    "distance.ms": "ms",
    "distance.calls": "count",
    "distance.records_compared": "count",
    "distance.ns_per_record": "ns",
    "regularize.ms": "ms",
    "estimator.self_ms": "ms",
    "cold.format_ms": "ms",
    "trace.latency_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs and provenance
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, size_name: str, cache: Path) -> dict:
    """Generate (or reuse) this seed's inputs; returns the spec fields."""
    size = inputs.SIZES[size_name]
    key = inputs.cache_key(workload, seed, sorted(size.items()))
    folder = cache / f"inputs-{workload}-{size_name}-{seed}-{key}"
    if workload == "build":
        shape = {"patches": size["build_distinct_patches"], "patch_side": 64,
                 "patches_per_round": size["build_round_patches"]}
    elif workload == "evaluate":
        shape = {"images": size["eval_images"], "image_side": 64,
                 "dataset_patches": size["eval_dataset_patches"]}
    else:
        shape = {"images": size["cold_images"], "image_side": size["cold_side"],
                 "dataset_patches": size["cold_dataset_patches"]}
    if not folder.exists():
        tmp = Path(tempfile.mkdtemp(dir=cache, prefix="tmp-inputs-"))
        if workload == "build":
            inputs.write_patches(tmp / "patches.npy", seed, shape["patches"])
        else:
            inputs.write_images(tmp, seed, shape["images"], shape["image_side"], size["k"])
        os.replace(tmp, folder)
    spec = {"workload": workload, "size": size, "shape": shape}
    if workload == "build":
        spec["patches"] = str(folder / "patches.npy")
    else:
        spec["images"] = str(folder)
        path = inputs.dataset(cache, shape["dataset_patches"], size["q1_max"], size["k"])
        spec["dataset"] = str(path)
    spec["input_digest"] = inputs.digest_files(sorted(folder.iterdir()))
    return spec


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    head = inputs.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = inputs.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = inputs.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, spec: dict) -> dict:
    import numpy as np

    size = spec["size"]
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is optional
        pass
    prov = {
        "git_sha": git_sha(),
        "source_sha256": inputs.source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "q1_max": size["q1_max"],
        "k": size["k"],
        "n": size["n"],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "input_sha256": spec["input_digest"],
    }
    prov.update(spec["shape"])
    if args.workload == "build":
        prov["jobs"] = [1, os.cpu_count() or 1]
    else:
        blob = Path(spec["dataset"]).read_bytes()
        prov.update(dataset_bytes=len(blob), dataset_sha256=hashlib.sha256(blob).hexdigest(), jobs=1)
    return prov


# ---------------------------------------------------------------------------
# Measured processes
# ---------------------------------------------------------------------------


def spawn(spec: dict, work: Path, tag: str) -> dict:
    spec = dict(spec, out=str(work / f"{tag}.out.json"), spans=str(work / f"{tag}.spans.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(inputs.SRC), env.get("PYTHONPATH")) if p
    )
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(spec_path)],
            cwd=inputs.ROOT,
            env=env,
            timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measured process {tag} timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(
            f"measured process {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(Path(spec["out"]).read_text())
    out["setup_s"] = out["t_ready"] - t_spawn
    if spec["trace"]:
        out["spans"] = json.loads(Path(spec["spans"]).read_text())
    return out


def measure(spec: dict, work: Path, trace: bool) -> dict:
    """One run's results, merged over its measured processes.

    An untraced run is split into size["processes"] processes, one after
    another, each setting up and then taking its share of the seconds and
    of the inputs. That gives several set-up samples, and spreads the timed
    work over a longer stretch of the machine's varying speed. A traced run
    is one process.
    """
    parts = 1 if trace else spec["size"]["processes"]
    outs = [
        spawn(
            dict(spec, trace=trace, part=part, parts=parts, seconds=spec["seconds"] / parts),
            work,
            f"{'traced' if trace else 'plain'}{part}",
        )
        for part in range(parts)
    ]
    merged = dict(outs[0])
    merged["setup_samples_s"] = [o["setup_s"] for o in outs]
    merged["peak_rss_kb"] = max(o["peak_rss_kb"] for o in outs)
    merged["errors"] = [e for o in outs for e in o["errors"]]
    for key in ("attempted", "failed"):
        merged[key] = sum(o[key] for o in outs)
    cross = []
    if spec["workload"] == "build":
        merged["rounds"] = {j: [r for o in outs for r in o["rounds"][j]] for j in outs[0]["rounds"]}
        digests: dict[str, list[str]] = {}
        for o in outs:
            for label, found in o["blob_digests"].items():
                digests.setdefault(label, []).extend(found)
        merged["blob_digests"] = digests
        if parts > 1:
            cross.append(checks.blobs_identical(digests))
    else:
        merged["latencies_s"] = [x for o in outs for x in o["latencies_s"]]
        answers: dict = {}
        for o in outs:
            if answers.keys() & o["answers"].keys():
                cross.append(checks.same_outcomes(answers, o["answers"], "across processes"))
            answers.update(o["answers"])
        merged["answers"] = answers
    if spec["workload"] == "estimate-cold" and not trace:
        cross += warm_checks(spec, merged)
    merged["attempted"] += len(cross)
    for message in filter(None, cross):
        merged["failed"] += 1
        merged["errors"].append(message)
    return merged


def warm_checks(spec: dict, merged: dict) -> list[str | None]:
    """The cold CLI answers equal warm fqe.estimate answers on the same images.

    Also records the dataset's size for the per-layer load metrics.
    """
    import fqe

    ds = fqe.deserialize(Path(spec["dataset"]).read_bytes())
    merged["records"] = sum(len(sub.dc) + len(sub.ac) for sub in ds.subs.values())
    folder = Path(spec["images"])
    warm = {
        name: checks.outcome_of_result(fqe.estimate((folder / name).read_bytes(), ds))
        for name in merged["answers"]
    }
    found = [checks.same_outcomes(warm, merged["answers"], "cold CLI vs warm estimate")]
    return found + [checks.valid_outcome(a, ds.q1_max) for a in merged["answers"].values()]


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def samples_ms(workload: str, out: dict) -> list[float]:
    """Per-operation latency: ms per patch of a jobs=1 round, or per call."""
    if workload == "build":
        return [1e3 * r["s"] / r["patches"] for r in out["rounds"]["1"]]
    return [1e3 * s for s in out["latencies_s"]]


def throughput(workload: str, out: dict, jobs: str = "1") -> float:
    """Completed items per second spent on them (a build round, or a call)."""
    if workload == "build":
        rounds = out["rounds"][jobs]
        return sum(r["patches"] for r in rounds) / sum(r["s"] for r in rounds)
    return len(out["latencies_s"]) / sum(out["latencies_s"])


def accuracy(answers: list[dict | None], truths: list[list[int]]) -> dict:
    predictable = correct_reg = correct_raw = 0
    for answer, truth in zip(answers, truths):
        if answer is None:
            continue
        for pos, status in enumerate(answer["status"]):
            if status != "ok":
                continue
            predictable += 1
            correct_reg += answer["estimates"][pos] == truth[pos]
            correct_raw += answer["raw"][pos] == truth[pos]
    if not predictable:
        return {"accuracy_reg": None, "accuracy_raw": None, "predictable": 0}
    return {
        "accuracy_reg": correct_reg / predictable,
        "accuracy_raw": correct_raw / predictable,
        "predictable": predictable,
    }


def end_to_end(workload: str, out: dict) -> dict:
    ms = samples_ms(workload, out)
    if not ms:
        raise BenchError("no operation completed")
    jobs = str(os.cpu_count() or 1)
    return {
        "items_per_s": throughput(workload, out, jobs),
        "latency_ms_p50": statistics.median(ms),
        "setup_s": statistics.median(out["setup_samples_s"]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }


def named_metrics(workload: str, out: dict, spec: dict, e2e: dict) -> list[tuple]:
    """The workload's metrics under their user-facing names, for the summary."""
    n = len(samples_ms(workload, out))
    rows = []
    if workload == "build":
        pool = str(os.cpu_count() or 1)
        rows += [
            ("build_patches_per_s", throughput(workload, out), "1/s", f"jobs=1, {n} rounds"),
            ("build_pool_patches_per_s", e2e["items_per_s"], "1/s",
             f"jobs={pool}, {len(out['rounds'][pool])} rounds"),
        ]
    elif workload == "evaluate":
        truths = [e["truth"] for e in _manifest(spec)["images"]]
        acc = accuracy([out["answers"].get(str(i)) for i in range(len(truths))], truths)
        rows += [
            ("images_per_s", e2e["items_per_s"], "1/s", f"{n} estimates"),
            ("latency_ms_p50", e2e["latency_ms_p50"], "ms", f"{n} samples"),
            ("latency_ms_p90", statistics.quantiles(samples_ms(workload, out), n=10)[8], "ms",
             f"{n} samples, {n - int(0.9 * n)} beyond p90"),
            ("accuracy_reg", acc["accuracy_reg"], "ratio",
             f"{acc['predictable']} predictable positions"),
            ("accuracy_raw", acc["accuracy_raw"], "ratio",
             f"{acc['predictable']} predictable positions"),
        ]
    else:
        rows.append(("request_s_p50", e2e["latency_ms_p50"] / 1e3, "s", f"{n} requests"))
    rows += [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(out['setup_samples_s'])}"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "VmHWM of the measured process"),
    ]
    return rows


def _manifest(spec: dict) -> dict:
    return json.loads((Path(spec["images"]) / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def layer_metrics(workload: str, plain: dict, traced: dict) -> tuple[dict, str | None]:
    """Every per-layer metric, and on the estimate paths a line that checks
    the layer self times against the traced root span.

    A layer the workload does not run reads 0.
    """
    m = {name: 0.0 for name in PER_LAYER}
    note = None
    span_list = traced["spans"]
    timed = {
        s["request"] for s in span_list if s["request"] not in (None, "setup", "checks")
    }
    agg = spans.summarize(span_list, timed)

    def total_ns(name: str, field: str = "ns") -> float:
        return float(agg.get(name, {}).get(field, 0))

    def attr(name: str, key: str) -> float:
        return float(agg.get(name, {}).get("attrs", {}).get(key, 0))

    if workload == "build":
        ops = max(1, agg.get("round", {}).get("count", 0))
        m["build.dctsim_s"] = total_ns("leaf:dctsim") / ops / 1e9
        m["build.fit_calls"] = total_ns("leaf:fit", "count") / ops
        m["build.fit_s"] = total_ns("leaf:fit") / ops / 1e9
        m["build.pack_s"] = total_ns("leaf:pack") / ops / 1e9
        m["build.refdata_self_s"] = total_ns("build_reference", "self_ns") / ops / 1e9
        m["build.serialize_s"] = total_ns("serialize") / ops / 1e9
        m["build.dataset_bytes"] = float(plain["dataset_bytes"])
        m["build.records"] = float(plain["records"])
        m["load.deserialize_s"] = plain["load_s"]
        m["load.records"] = float(plain["records"])
        pool = str(os.cpu_count() or 1)
        rounds = plain["rounds"][pool]
        wall = sum(r["s"] for r in rounds)
        parent = sum(r["parent_cpu_s"] for r in rounds)
        children = sum(r["children_cpu_s"] for r in rounds)
        m["build_pool.parent_cpu_s"] = parent / len(rounds)
        m["build_pool.children_cpu_s"] = children / len(rounds)
        m["build_pool.cpu_utilization"] = (parent + children) / (wall * int(pool))
        m["build_pool.patches_per_s"] = throughput(workload, plain, pool)
        m["build_pool.base_patches_per_s"] = throughput(workload, plain, "1")
        m["build_pool.speedup"] = m["build_pool.patches_per_s"] / m["build_pool.base_patches_per_s"]
    else:
        root = "estimate" if workload == "evaluate" else "request"
        ops = max(1, agg.get(root, {}).get("count", 0))
        if workload == "evaluate":
            setup = spans.summarize(span_list, {"setup"})
            m["load.deserialize_s"] = float(setup.get("load", {}).get("ns", 0)) / 1e9
        else:
            m["load.deserialize_s"] = total_ns("load") / ops / 1e9
            m["cold.format_ms"] = total_ns("request", "self_ns") / ops / 1e6
        m["load.records"] = float(plain["records"])
        m["parse.ms"] = total_ns("parse") / ops / 1e6
        blocks = attr("parse", "blocks")
        m["parse.us_per_block"] = total_ns("parse") / 1e3 / blocks if blocks else 0.0
        m["histfit.ms"] = total_ns("leaf:histfit") / ops / 1e6
        m["distance.ms"] = total_ns("leaf:distance") / ops / 1e6
        m["distance.calls"] = total_ns("leaf:distance", "count") / ops
        records = attr("leaf:distance", "records")
        m["distance.records_compared"] = records / ops
        m["distance.ns_per_record"] = total_ns("leaf:distance") / records if records else 0.0
        m["regularize.ms"] = total_ns("regularize") / ops / 1e6
        m["estimator.self_ms"] = (
            total_ns("estimate", "self_ns") + total_ns("distance_matrix", "self_ns")
        ) / ops / 1e6
        parts = ["parse.ms", "histfit.ms", "distance.ms", "regularize.ms", "estimator.self_ms"]
        layer_sum = sum(m[p] for p in parts) + m["cold.format_ms"]
        if workload == "estimate-cold":
            layer_sum += m["load.deserialize_s"] * 1e3
        note = (
            f"layers: self times sum to {layer_sum:.3f} ms per op, traced root span "
            f"{total_ns(root) / ops / 1e6:.3f} ms; distance.ms is "
            f"{100 * m['distance.ms'] / layer_sum:.1f}% of it"
        )
    if m["load.records"]:
        m["load.us_per_record"] = m["load.deserialize_s"] * 1e6 / m["load.records"]
    base = statistics.median(samples_ms(workload, plain))
    with_trace = statistics.median(samples_ms(workload, traced))
    m["trace.latency_ms_p50"] = with_trace
    m["trace.overhead_ms"] = with_trace - base
    m["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    return m, note


# ---------------------------------------------------------------------------
# Checks and the run itself
# ---------------------------------------------------------------------------


def compare_runs(workload: str, plain: dict, traced: dict) -> str | None:
    """The traced run computed what the untraced run computed."""
    if workload == "build":
        common = set(plain["blob_digests"]) & set(traced["blob_digests"])
        if not common:
            return "traced and untraced build share no round"
        return checks.blobs_identical(
            {r: plain["blob_digests"][r] + traced["blob_digests"][r] for r in sorted(common)}
        )
    return checks.same_outcomes(plain["answers"], traced["answers"], "traced vs untraced")


def run(args) -> tuple[bool, int, int, dict]:
    if not (inputs.SRC / "fqe").is_dir() or not inputs.CONFTEST.is_file():
        raise BenchError("the program's source (src/fqe, tests/conftest.py) is missing")
    sys.path.insert(0, str(inputs.SRC))
    cache = Path(args.cache_dir) if args.cache_dir else HERE / ".cache"
    cache.mkdir(parents=True, exist_ok=True)
    spec = prepare(args.workload, args.seed, args.size, cache)
    spec["seconds"] = args.seconds
    prov = provenance(args, spec)
    work = Path(tempfile.mkdtemp(dir=cache, prefix="work-"))
    try:
        plain = measure(spec, work, False)
        traced = measure(spec, work, True) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = plain["attempted"]
    failed = plain["failed"]
    errors = list(plain["errors"])
    if traced is not None:
        attempted += traced["attempted"] + 1
        failed += traced["failed"]
        errors += traced["errors"]
        mismatch = compare_runs(args.workload, plain, traced)
        if mismatch:
            failed += 1
            errors.append(mismatch)

    prov["dataset_records"] = plain["records"]
    if args.workload == "build":
        prov["dataset_bytes"] = plain["dataset_bytes"]
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    if args.workload == "build":
        first = plain["blob_digests"].get("0", ["none: round 0 failed"])[0]
        print(f"digest dataset_blob sha256={first} (round 0)")
    else:
        print(f"digest estimates sha256={checks.digest(plain['answers'])}")
    for error in errors:
        print(f"FAILED: {error}")
    e2e = end_to_end(args.workload, plain)
    for name, value, unit, note in named_metrics(args.workload, plain, spec, e2e):
        print(f"metric {name} = {value} {unit} ({note})")
    print(f"metric failed_ops = {failed} count (of {attempted} attempted)")
    if traced is None:
        return failed == 0, attempted, failed, {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    layers, note = layer_metrics(args.workload, plain, traced)
    if note:
        print(note)
    for name, value in layers.items():
        print(f"layer {name} = {value} {PER_LAYER[name]}")
    return failed == 0, attempted, failed, {k: (v, PER_LAYER[k]) for k, v in layers.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                   help="input sizes; 'toy' is for the smoke test")
    p.add_argument("--cache-dir", default=None,
                   help="datasets, inputs and scratch files (default perfbench/.cache)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        correct, attempted, failed, metrics = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
