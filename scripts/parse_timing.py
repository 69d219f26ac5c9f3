"""Time parse_jpeg in a parent checkout and this one, on gray and colour files.

    python3 scripts/parse_timing.py --parent-checkout ../parent --label parse

Makes the inputs once, with this checkout:

- `gray-64`: the 96 64x64 images of the benchmark's `evaluate` workload
  (seed 2011), which the sequential decoder parses;
- `gray-1mp`: the 1 MP images of its `estimate-cold` workload (seeds
  2021-2023, four each), which the lane decoder parses;
- `color-420`, `color-420-rst64`: a 1 MP YCbCr 4:2:0 file written by
  tests/jpegwriter.py with one interleaved scan, without restarts and with a
  restart every 64 MCUs; its luma codes a quality-90 mosaic and its chroma a
  half-size one;
- `gray-1mp-rst1`: the same luma as one gray scan with a restart after
  every MCU, so that no segment reaches the lane decoder.

Then it runs --rounds rounds. Each round parses every input in a fresh
process of each checkout (PYTHONPATH=<checkout>/src), alternating which
side goes first. A process parses each file once untimed, then times
passes over the input's files for at least --seconds and reports the
median time per file. The first round also reports each input's
tracemalloc peak over one parse of its first file. Every process hashes
each file's component grids (or its error); the two sides must agree on
every file, or the script exits 1.

It writes BENCH_<label>.json to --out-dir (this repository's root by
default): per input and side the per-round times, their median and
quartiles, the rounds the change won and the peaks, with the host's core
count. The files are made in a temporary directory that is removed at the
end. Needs no network and no package beyond numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench_record import quartiles

ROOT = Path(__file__).resolve().parents[1]

INPUTS = {
    "gray-64": "96 64x64 gray images of the evaluate workload, seed 2011",
    "gray-1mp": "12 1 MP gray images of the estimate-cold workload, seeds 2021-2023",
    "color-420": "1 MP YCbCr 4:2:0, one interleaved scan (tests/jpegwriter.py)",
    "color-420-rst64": "the color-420 grids with a restart every 64 MCUs",
    "gray-1mp-rst1": "the color-420 luma as one gray scan, a restart after every MCU",
}


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_inputs(folder: Path) -> None:
    """Write every input set as folder/<name>/*.jpg."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from fqe import dctsim, jpegio

    bench = _module("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    writer = _module("jpegwriter", ROOT / "tests" / "jpegwriter.py")
    for name in INPUTS:
        (folder / name).mkdir()
    bench.write_images(folder / "gray-64", 2011, 96, 64, 15)
    for seed in (2021, 2022, 2023):
        seed_dir = folder / f"seed{seed}"
        seed_dir.mkdir()
        bench.write_images(seed_dir, seed, 4, 1024, 15)
        for jpg in sorted(seed_dir.glob("*.jpg")):
            jpg.rename(folder / "gray-1mp" / f"{seed}-{jpg.name}")

    def grid(side: int, seed: int):
        image = bench.tiled(seed, 1, side)[0]
        data = jpegio.encode_baseline_gray(image, dctsim.standard_table(90))
        return jpegio.parse_jpeg(data).coeffs.values

    luma, cb, cr = grid(1024, 2041), grid(512, 2042), grid(512, 2043)
    components = [(1, 2, 2), (2, 1, 1), (3, 1, 1)]
    grids = {1: luma, 2: cb, 3: cr}
    for name, interval in (("color-420", 0), ("color-420-rst64", 64)):
        data = writer.encode_grids(1024, 1024, components, [[1, 2, 3]], grids, interval)
        (folder / name / "img000.jpg").write_bytes(data)
    # The 4:2:0 luma grid is in MCU raster order; as a gray scan it is a
    # 2048x512 image of the same blocks.
    data = writer.encode_grids(512, 2048, [(1, 1, 1)], [[1]], {1: luma}, 1)
    (folder / "gray-1mp-rst1" / "img000.jpg").write_bytes(data)


def worker(folder: Path, seconds: float, memory: bool) -> None:
    """Print one JSON line: per input, the median ms per parse, the grid
    digests and (with memory) the tracemalloc peak of one parse."""
    from fqe import jpegio

    out = {}
    for name in INPUTS:
        blobs = [p.read_bytes() for p in sorted((folder / name).glob("*.jpg"))]
        digests = []
        for data in blobs:  # untimed: decode tables are built here
            try:
                parsed = jpegio.parse_jpeg(data)
                h = hashlib.sha256()
                for cid, grid in sorted(parsed.component_coeffs.items()):
                    h.update(f"{cid} {grid.shape}".encode())
                    h.update(grid.tobytes())
                digests.append(h.hexdigest())
            except jpegio.JpegError as exc:
                digests.append(f"{type(exc).__name__}: {exc}")
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            for data in blobs:
                t0 = time.perf_counter()
                try:
                    jpegio.parse_jpeg(data)
                except jpegio.JpegError:
                    pass
                times.append(time.perf_counter() - t0)
        entry = {"ms": 1e3 * statistics.median(times), "parses": len(times), "digests": digests}
        if memory:
            tracemalloc.start()
            try:
                jpegio.parse_jpeg(blobs[0])
            except jpegio.JpegError:
                pass
            entry["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        out[name] = entry
    print(json.dumps(out))


def run_side(checkout: Path, folder: Path, seconds: float, memory: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(folder),
               "--seconds", str(seconds)] + (["--memory"] if memory else [])
    proc = subprocess.run(command, env=env, capture_output=True, text=True, cwd=checkout)
    if proc.returncode:
        raise RuntimeError(f"worker in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent-checkout", type=Path)
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--label", default="parse")
    p.add_argument("--rounds", type=int, default=9)
    p.add_argument("--seconds", type=float, default=1.0,
                   help="timed parsing per input and process (default 1)")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.worker:
        worker(args.worker, args.seconds, args.memory)
        return 0
    if args.parent_checkout is None:
        p.error("--parent-checkout is required")
    sides = {"parent": args.parent_checkout.resolve(), "change": args.checkout.resolve()}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory(prefix="parse-timing-") as tmp:
        folder = Path(tmp)
        make_inputs(folder)
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_side(sides[side], folder, args.seconds, memory=r == 0))
                print(f"round {r + 1}/{args.rounds} {side}: "
                      + ", ".join(f"{n} {v['ms']:.2f} ms" for n, v in runs[side][-1].items()),
                      file=sys.stderr)
    equal = True
    results = {}
    for name, description in INPUTS.items():
        entry = {"description": description, "files": len(runs["parent"][0][name]["digests"])}
        entry["grids_equal"] = all(run[name]["digests"] == runs["parent"][0][name]["digests"]
                                   for side in sides for run in runs[side])
        equal &= entry["grids_equal"]
        for side in sides:
            ms = [run[name]["ms"] for run in runs[side]]
            entry[side] = {"ms_per_parse": dict(zip(("q1", "median", "q3"), quartiles(ms))),
                           "runs_ms": ms,
                           "peak_mb": runs[side][0][name]["peak_mb"]}
        entry["change_won"] = sum(
            c[name]["ms"] < p_[name]["ms"] for p_, c in zip(runs["parent"], runs["change"])
        )
        results[name] = entry
        print(f"{name:16s} parent {entry['parent']['ms_per_parse']['median']:8.2f} ms  "
              f"change {entry['change']['ms_per_parse']['median']:8.2f} ms  "
              f"won {entry['change_won']}/{args.rounds}  peak "
              f"{entry['parent']['peak_mb']:.2f} -> {entry['change']['peak_mb']:.2f} MB"
              + ("" if entry["grids_equal"] else "  GRIDS DIFFER"))
    record = {
        "command": ["python3", "scripts/parse_timing.py", "--label", args.label,
                    "--rounds", str(args.rounds), "--seconds", str(args.seconds)],
        "cpu_count": os.cpu_count(),
        "rounds": args.rounds,
        "seconds_per_input": args.seconds,
        "inputs": results,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
