"""Record benchmark runs of a parent and a change as pairs, in BENCH_*.json files.

    python3 scripts/bench_record.py --label batched --workload build --seed 201 \
        --parent-checkout ../parent --checkout ../change

Runs perfbench/run.py of the parent checkout and of --checkout (the change;
this one by default) with the given workload, run length and trace flag,
--pairs pairs in all (10 by default), seed --seed + i for pair i,
alternating which side runs first. A run in place can read slower than the
same code run from a clone, so both sides are best run from clones. Once
every pair has run, it writes the first pair as
BENCH_<label>-parent-<workload>.json and BENCH_<label>-change-<workload>.json
("-trace" appended for traced runs) to --out-dir (this repository's root by
default). Each file holds the run's command, its provenance line (git SHA,
seed, dataset size, cpu_count and the rest of what run.py prints), its
output digests (estimates or dataset blob) and its final metrics object
(run.py's last line). The change's file also holds every pair ("pairs":
by seed, each side's exit code, compared metrics and digests) and the
summary printed below ("summary": per metric, summarize's fields, the unit
and the verdict).

It then prints, for each end-to-end metric of BENCHMARK.json (each
per-layer metric for traced runs), both sides' medians and quartiles and
the pairs the change won. A gain is claimed when the change wins at least
nine tenths of the pairs, ties counting for neither, and the medians
differ by more than the parent's interquartile range. Each end-to-end
metric also reads "REGRESSION" when the change's median is worse than the
parent's by more than the metric's relative bound in BENCHMARK.json, else
"unresolved" when the parent's interquartile range is wider than that bound
and not every change run beats every parent run, else "no regression".
Both runs of a pair must give the same output digests (estimates or
dataset blob); a pair whose digests differ is printed. The
exit code is 1 when any run exited non-zero or any pair's digests differ,
2 when a run printed no metrics.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from checkouts import ROOT, orders, quartiles, sides

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
    median, and the metric is unresolved when the parent's interquartile
    range is wider than that bound unless every change run reads better
    than every parent run (both None without a bound).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
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
        "unresolved": (
            None if bound is None else p_q3 - p_q1 > bound * abs(p_median) and not all_better
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
    paths = sides(args.parent_checkout, args.checkout)
    # A traced run reports the per-layer metrics only.
    compared = contract["per_layer" if args.trace else "end_to_end"]
    names = {metric["name"] for metric in compared}
    first: dict[str, dict] = {}
    pairs = []
    worst = 0
    for i, order in enumerate(orders(args.pairs)):
        pair = {"seed": args.seed + i}
        for side in order:
            content, code = record(
                paths[side], args.workload, args.seed + i, args.seconds, args.trace
            )
            worst = max(worst, code)
            metrics = content["result"]["metrics"]
            first.setdefault(side, content)
            pair[side] = {"exit": code, "digests": content["digests"],
                          "metrics": {n: m["value"] for n, m in metrics.items() if n in names}}
            shown = " ".join(f"{k}={v.split()[0]}" for k, v in content["digests"].items())
            print(f"pair {i} seed {args.seed + i} {side}: exit {code} {shown}", flush=True)
        pairs.append(pair)
    digests = {side: [pair[side]["digests"] for pair in pairs] for side in paths}
    differ = differing_pairs(digests["parent"], digests["change"])
    for i in differ:
        print(f"pair {i} seed {args.seed + i}: DIGESTS DIFFER: parent {digests['parent'][i]} "
              f"change {digests['change'][i]}")
    if not differ:
        print(f"digests: parent and change equal in all {args.pairs} pairs")
    summary = {}
    for metric in compared:
        name = metric["name"]
        runs = {side: [pair[side]["metrics"][name] for pair in pairs
                       if name in pair[side]["metrics"]] for side in paths}
        if not runs["parent"] or not runs["change"]:
            continue
        s = summarize(runs["parent"], runs["change"], metric["better"], metric.get("bound"))
        p, c = s["parent"], s["change"]
        verdict = None
        regression = ""
        if s["regression"] is not None:
            verdict = (
                "REGRESSION" if s["regression"]
                else "unresolved" if s["unresolved"]
                else "no regression"
            )
            regression = f"; {verdict} beyond the {metric['bound']:.0%} bound"
        summary[name] = {**s, "unit": metric["unit"], "verdict": verdict}
        print(
            f"{name}: parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> change {c[1]:.4g} "
            f"[{c[0]:.4g}, {c[2]:.4g}] {metric['unit']}; change won {s['wins']}/{s['pairs']} "
            f"({s['ties']} ties); gain {'holds' if s['gain'] else 'not shown'}{regression}"
        )
    first["change"] = {**first["change"], "pairs": pairs, "summary": summary}
    for side, content in first.items():
        out = args.out_dir / f"BENCH_{args.label}-{side}-{args.workload}{suffix}.json"
        out.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
        print(out)
    return 1 if worst or differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the files BENCH_<label>-*.json")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", type=Path, default=ROOT, help="the change's checkout")
    p.add_argument("--parent-checkout", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs to run")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        p.error("--label may hold only letters, digits, '.', '_' and '-'")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    try:
        return run_pairs(args)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
