"""Record one benchmark run as BENCH_<label>.json.

    python3 scripts/bench_record.py --label change-estimate-cold \
        --workload estimate-cold --seed 5

Runs perfbench/run.py of a checkout (this one unless --checkout names
another, such as a clone of the parent commit) with the given workload,
seed, run length and trace flag, and writes BENCH_<label>.json to --out-dir
(this repository's root by default). The file holds the run's command, its
provenance line (git SHA, seed, dataset size, cpu_count and the rest of
what run.py prints), its output digests (estimates or dataset blob) and its
final metrics object (run.py's last line). The exit code is run.py's.
"""

from __future__ import annotations

import argparse
import json
import re
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to run")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        p.error("--label may hold only letters, digits, '.', '_' and '-'")
    try:
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
