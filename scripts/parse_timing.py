"""Time parse_jpeg in a parent checkout and this one, on gray and colour files.

    python3 scripts/parse_timing.py --parent-checkout ../parent --label parse

Makes the INPUTS below with this checkout, imports both checkouts' fqe into
this one process and times them input by input. Each side parses every file
once untimed, which builds its decode tables, and hashes its component
grids as little-endian int32, whatever their dtype (or its error); the
sides must agree on every file, or the script exits 1. A second, timed pass
sets how many passes over the files a round makes: enough that each side's
share of a round takes at least MIN_ROUND_S. Each of --rounds rounds then
parses every file with both sides, alternating file by file which goes
first, and takes each side's median ms per parse; the round's ratio is the
change's over the parent's. Each side's memory peak is the VmHWM of a fresh
process of its checkout that parses the input's first file once, above its
VmHWM after the imports.

It writes BENCH_<label>.json to --out-dir (this repository's root by
default): per input the sides' per-round times with their quartiles, the
peaks, the ratio's quartiles and the rounds the change won. The files are
made once into scripts/.cache/<key>, keyed by perfbench/inputs.cache_key
over the sources they are made from, and read from there by every later run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checkouts

INPUTS = {
    "gray-64": "96 64x64 gray images of the evaluate workload, seed 2011 (sequential decoder)",
    "gray-1mp": "12 1 MP gray images of the estimate-cold workload, seeds 2021-2023 (lanes)",
    "color-420": "1 MP YCbCr 4:2:0, one interleaved scan (tests/jpegwriter.py): a quality-90 "
                 "mosaic as luma, half-size ones as chroma",
    "color-420-rst64": "the color-420 grids with a restart every 64 MCUs",
    "gray-1mp-rst1": "the color-420 luma as one gray scan, a restart after every MCU (no lanes)",
}
QUARTILES = ("q1", "median", "q3")
CACHE = checkouts.ROOT / "scripts" / ".cache"
MIN_ROUND_S = 0.05

# Run in the checkout under test: parse the JPEG on stdin once, then print
# the VmHWM it raised above the level after the imports, in kB.
PEAK_SCRIPT = """
import sys
from fqe import jpegio
""" + checkouts.VMHWM_KB + """
data = sys.stdin.buffer.read()
start = vmhwm_kb()
try:
    jpegio.parse_jpeg(data)
except jpegio.JpegError:
    pass
print(vmhwm_kb() - start)
"""


def make_inputs(folder: Path) -> None:
    """Write every input set as folder/<name>/**/*.jpg."""
    bench = checkouts.inputs()
    from fqe import dctsim, jpegio

    writer = checkouts.load_module("jpegwriter", checkouts.ROOT / "tests" / "jpegwriter.py")
    for name in INPUTS:
        (folder / name).mkdir()
    bench.write_images(folder / "gray-64", 2011, 96, 64, 15)
    for seed in (2021, 2022, 2023):
        (folder / "gray-1mp" / str(seed)).mkdir()
        bench.write_images(folder / "gray-1mp" / str(seed), seed, 4, 1024, 15)

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


def inputs_key() -> str:
    """perfbench/inputs.cache_key, which covers src/, tests/conftest.py and inputs.py,
    over the digests of the other files the inputs are made from: tests/jpegwriter.py
    and this script."""
    made_by = (checkouts.ROOT / "tests" / "jpegwriter.py", Path(__file__))
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in made_by]
    return checkouts.inputs().cache_key(*digests)


def cached_inputs(cache: Path = CACHE) -> dict[str, list[bytes]]:
    """Each input set's files, made by make_inputs into cache/<inputs_key()> on first use.

    A set is made in a temporary folder and renamed into place, so a run
    cut short leaves no half-made set; the sets of other keys are removed.
    """
    folder = cache / inputs_key()
    if not folder.is_dir():
        cache.mkdir(parents=True, exist_ok=True)
        for stale in cache.iterdir():
            shutil.rmtree(stale)
        tmp = Path(tempfile.mkdtemp(dir=cache, prefix=".making-"))
        make_inputs(tmp)
        tmp.rename(folder)
    return {n: [f.read_bytes() for f in sorted((folder / n).rglob("*.jpg"))] for n in INPUTS}


def parse(jpegio, data: bytes):
    """The parsed file, or the JpegError that parsing raised."""
    try:
        return jpegio.parse_jpeg(data)
    except jpegio.JpegError as exc:
        return exc


def digest(parsed) -> str:
    """sha256 of a parsed file's component grids, or its error."""
    if isinstance(parsed, Exception):
        return f"{type(parsed).__name__}: {parsed}"
    h = hashlib.sha256()
    for cid, grid in sorted(parsed.component_coeffs.items()):
        h.update(f"{cid} {grid.shape}".encode() + grid.astype("<i4").tobytes())
    return h.hexdigest()


def peak_mb(checkout: Path, data: bytes) -> float:
    """The VmHWM that one parse of data raises in a fresh process of checkout, in MB."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT], input=data, capture_output=True,
        env=checkouts.child_env(checkout),
    )
    checkouts.check(f"a parse in {checkout}", done.returncode, done.stderr.decode())
    return int(done.stdout) / 1024


def pass_seconds(jpegio, blobs: list[bytes]) -> float:
    """The seconds of one pass of jpegio over blobs."""
    t0 = time.perf_counter()
    for data in blobs:
        parse(jpegio, data)
    return time.perf_counter() - t0


def time_input(jpegios: dict, blobs: list[bytes], rounds: int) -> dict:
    """Time both sides' jpegio (by side name) on blobs; one input's entry.

    A round makes enough passes over blobs that each side's share takes at
    least MIN_ROUND_S. Pass p over file i of round r takes order r + p + i,
    so each file swaps order every pass and every round.
    """
    digests = {side: [digest(parse(j, data)) for data in blobs] for side, j in jpegios.items()}
    fastest = min(pass_seconds(jpegio, blobs) for jpegio in jpegios.values())
    passes = max(1, math.ceil(MIN_ROUND_S / fastest))
    orders = checkouts.orders(rounds + passes + len(blobs))
    ms: dict[str, list[float]] = {side: [] for side in jpegios}
    for r in range(rounds):
        times: dict[str, list[float]] = {side: [] for side in jpegios}
        for p in range(passes):
            for i, data in enumerate(blobs):
                for side in orders[r + p + i]:
                    t0 = time.perf_counter()
                    parse(jpegios[side], data)
                    times[side].append(time.perf_counter() - t0)
        for side, t in times.items():
            ms[side].append(1e3 * statistics.median(t))
    ratios = [c / p for p, c in zip(ms["parent"], ms["change"])]
    entry = {"files": len(blobs), "passes_per_round": passes,
             "grids_equal": digests["parent"] == digests["change"]}
    for side in jpegios:
        entry[side] = {"ms_per_parse": dict(zip(QUARTILES, checkouts.quartiles(ms[side]))),
                       "runs_ms": ms[side]}
    entry["ratio"] = dict(zip(QUARTILES, checkouts.quartiles(ratios)))
    entry["change_won"] = sum(ratio < 1 for ratio in ratios)
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent-checkout", type=Path, required=True)
    p.add_argument("--checkout", type=Path, default=checkouts.ROOT)
    p.add_argument("--label", default="parse")
    p.add_argument("--rounds", type=int, default=31)
    p.add_argument("--out-dir", type=Path, default=checkouts.ROOT)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    sides = checkouts.sides(args.parent_checkout, args.checkout)
    files = cached_inputs()
    jpegios = {side: checkouts.load_fqe(path, f"fqe_{side}").jpegio for side, path in sides.items()}
    results = {}
    for name, description in INPUTS.items():
        entry = results[name] = {"description": description,
                                 **time_input(jpegios, files[name], args.rounds)}
        for side, path in sides.items():
            entry[side]["parse_vmhwm_mb"] = peak_mb(path, files[name][0])
        parent, change, ratio = entry["parent"], entry["change"], entry["ratio"]
        print(f"{name:16s} parent {parent['ms_per_parse']['median']:8.2f} ms  change "
              f"{change['ms_per_parse']['median']:8.2f} ms  ratio {ratio['median']:.3f} "
              f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}]  won {entry['change_won']}/{args.rounds}  "
              f"VmHWM +{parent['parse_vmhwm_mb']:.2f}/+{change['parse_vmhwm_mb']:.2f} MB"
              + ("" if entry["grids_equal"] else "  GRIDS DIFFER"), flush=True)
    record = {**checkouts.header(__file__, argv, sides), "rounds": args.rounds,
              "inputs": results}
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(entry["grids_equal"] for entry in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
