"""Record benchmark runs as BENCH_<label>.json, alone or as parent/change pairs.

    python3 scripts/bench_record.py --label change-estimate-cold \
        --workload estimate-cold --seed 5

Runs perfbench/run.py of a checkout (this one unless --checkout names
another, such as a clone of the parent commit) with the given workload,
seed, run length and trace flag, and writes BENCH_<label>.json to --out-dir
(this repository's root by default). The file holds the run's command, its
provenance line (git SHA, seed, dataset size, cpu_count and the rest of
what run.py prints), its output digests (estimates or dataset blob) and its
final metrics object (run.py's last line). The exit code is run.py's.

    python3 scripts/bench_record.py --label batched --workload build --seed 201 \
        --pairs 10 --parent-checkout ../parent

Pairs mode runs --pairs pairs of the parent checkout and --checkout (the
change), seed --seed + i for pair i, alternating which side runs first. It
writes the first pair as BENCH_<label>-parent-<workload>.json and
BENCH_<label>-change-<workload>.json ("-trace" appended for traced runs)
and prints, for each end-to-end metric of BENCHMARK.json (each per-layer
metric for traced runs), both sides' medians and quartiles and the pairs
the change won. A gain is claimed when the change wins at least nine
tenths of the pairs, ties counting for neither, and the medians differ by
more than the parent's interquartile range. Each end-to-end metric also
reads "REGRESSION" or "no regression": whether the change's median is
worse than the parent's by more than the metric's relative bound in
BENCHMARK.json. Both runs of a pair must give the same output digests
(estimates or dataset blob); a pair whose digests differ is printed. The
exit code is 1 when any run exited non-zero or any pair's digests differ.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROVENANCE = "provenance: "
DIGEST = "digest "


def record(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """Run perfbench/run.py in checkout: (the file's contents, run.py's exit code)."""
    command = [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        [sys.executable, *command], cwd=checkout, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    provenance = [json.loads(line[len(PROVENANCE):]) for line in lines if line.startswith(PROVENANCE)]
    if not provenance or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    digests = dict(line[len(DIGEST):].split(" ", 1) for line in lines if line.startswith(DIGEST))
    return {
        "command": ["python3", *command],
        "provenance": provenance[0],
        "digests": digests,
        "result": json.loads(lines[-1]),
    }, proc.returncode


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (linear interpolation)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    parent: list[float], change: list[float], better: str, bound: float | None = None
) -> dict:
    """Compare one metric over pairs: parent[i] and change[i] ran as pair i.

    better is "higher" or "lower". A pair is a win when the change reads
    better than the parent, a tie when both read the same. The gain holds
    when wins reach nine tenths of the pairs and the change's median is
    better than the parent's by more than the parent's interquartile range.
    With a relative bound, the regression holds when the change's median
    is worse than the parent's by more than bound times the parent's
    median (None without a bound).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return {
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "gain": 10 * wins >= 9 * len(parent) and sign * (c_median - p_median) > p_q3 - p_q1,
        "regression": (
            None if bound is None else sign * (p_median - c_median) > bound * abs(p_median)
        ),
    }


def differing_pairs(parent: list[dict], change: list[dict]) -> list[int]:
    """The pairs i whose parent[i] and change[i] output digests are not the same."""
    if len(parent) != len(change):
        raise ValueError("need the same number of parent and change runs")
    return [i for i, (p, c) in enumerate(zip(parent, change)) if p != c]


def run_pairs(args) -> int:
    contract = json.loads((args.checkout / "BENCHMARK.json").read_text())
    suffix = "-trace" if args.trace else ""
    sides = {"parent": args.parent_checkout, "change": args.checkout}
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    digests: dict[str, list[dict]] = {"parent": [], "change": []}
    worst = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            content, code = record(
                sides[side], args.workload, args.seed + i, args.seconds, args.trace
            )
            worst = max(worst, code)
            metrics = content["result"]["metrics"]
            for name, m in metrics.items():
                values[side].setdefault(name, []).append(m["value"])
            if i == 0:
                out = args.out_dir / f"BENCH_{args.label}-{side}-{args.workload}{suffix}.json"
                out.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
                print(out)
            digests[side].append(content["digests"])
            shown = " ".join(f"{k}={v.split()[0]}" for k, v in content["digests"].items())
            print(f"pair {i} seed {args.seed + i} {side}: exit {code} {shown}", flush=True)
    differ = differing_pairs(digests["parent"], digests["change"])
    for i in differ:
        print(f"pair {i} seed {args.seed + i}: DIGESTS DIFFER: parent {digests['parent'][i]} "
              f"change {digests['change'][i]}")
    if not differ:
        print(f"digests: parent and change equal in all {args.pairs} pairs")
    # A traced run reports the per-layer metrics only.
    for metric in contract["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if name not in values["parent"] or name not in values["change"]:
            continue
        s = summarize(
            values["parent"][name], values["change"][name], metric["better"], metric.get("bound")
        )
        p, c = s["parent"], s["change"]
        regression = ""
        if s["regression"] is not None:
            verdict = "REGRESSION" if s["regression"] else "no regression"
            regression = f"; {verdict} beyond the {metric['bound']:.0%} bound"
        print(
            f"{name}: parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> change {c[1]:.4g} "
            f"[{c[0]:.4g}, {c[2]:.4g}] {metric['unit']}; change won {s['wins']}/{s['pairs']} "
            f"({s['ties']} ties); gain {'holds' if s['gain'] else 'not shown'}{regression}"
        )
    return 1 if worst or differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to run")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    p.add_argument("--pairs", type=int, default=0, help="parent/change pairs to run")
    p.add_argument("--parent-checkout", type=Path, help="the parent's checkout, for --pairs")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        p.error("--label may hold only letters, digits, '.', '_' and '-'")
    if args.pairs < 0 or (args.pairs > 0) != (args.parent_checkout is not None):
        p.error("--pairs N (N >= 1) and --parent-checkout go together")
    try:
        if args.pairs:
            return run_pairs(args)
        content, code = record(args.checkout, args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
