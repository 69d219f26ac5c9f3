"""Check that a parent checkout and this one give the same answers, and time their parsers.

    python3 scripts/same_answers.py --parent-checkout ../parent [--rounds 31 --label parse]

Imports both checkouts' fqe into this one process (checkouts.load_fqe).
Both sides parse every file of the input sets of checkouts.INPUTS: each
component grid must be equal by value (np.array_equal, so int16 and int32
grids agree), or both sides must raise a JpegError of the same type and
message. With --rounds N (0, no timing, by default) time_input then times
both sides' parse on each input set, and BENCH_<label>.json in --out-dir
gets the times, the change/parent ratios and each side's peak_mb.

Each side then builds its own reference dataset from the same synth_patches
(seed REFERENCE_SEED, --reference patches, q1_max Q1_MAX, k K) through its
own serialize and deserialize, so that a change of the file format does not
stop the check. Both sides estimate the images of acceptance criteria 5 and
6 (--per-cell test patches of seed TEST_SEED, compressed at each QF1 and
with the four custom tables of criterion 6, then at QF2: 1,000 images by
default) and every input file that parses. Their FIELDS must be equal
(np.array_equal). It exits 1 at the first difference of a grid or an
answer, naming the file, the component or field, the position and both
values; otherwise it prints the compared counts and both checkouts' git
heads as JSON and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checkouts

REFERENCE_SEED = 9501
TEST_SEED = 9601
CUSTOM_SEED = 9701
Q1_MAX = 22
K = 15
JOBS = 2
QF1 = (60, 70, 80, 90)
QF2 = 90
QUARTILES = ("q1", "median", "q3")
MIN_ROUND_S = 0.05

FIELDS = ("estimates", "raw_estimates", "distances.status", "distances.q2", "distances.d")

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


def images(per_cell: int) -> dict[str, bytes]:
    """The criterion 5 and 6 images by name: image i of a cell is test patch i,
    compressed first with the cell's table, or with custom table i % 4."""
    import fqe
    from fqe.corpus import double_compress_file

    bench = checkouts.inputs()
    patches = bench.load_conftest().synth_patches(TEST_SEED, per_cell)
    cells = {f"qf{qf}": [fqe.standard_table(qf)] for qf in QF1}
    cells["custom"] = bench.custom_tables(np.random.default_rng(CUSTOM_SEED))
    q2 = fqe.standard_table(QF2)
    return {
        f"{cell}/img{i:03d}.jpg": double_compress_file(patch, tables[i % len(tables)], q2)
        for cell, tables in cells.items()
        for i, patch in enumerate(patches)
    }


def input_files() -> dict[str, dict[str, bytes]]:
    """Each input set's files by name, such as gray-1mp/2021/img000.jpg."""
    folder = checkouts.cached_inputs()
    return {
        name: {f.relative_to(folder).as_posix(): f.read_bytes()
               for f in sorted((folder / name).rglob("*.jpg"))}
        for name in checkouts.INPUTS
    }


def dataset(fqe, patches: list):
    """fqe's reference dataset of patches, as its own file format loads it."""
    built = fqe.refdata.build_reference(patches, q1_max=Q1_MAX, k=K, jobs=JOBS)
    return fqe.refdata.deserialize(fqe.refdata.serialize(built))


def difference(a, b, axes: tuple[str, ...] = ("coefficient", "q1")) -> tuple | None:
    """(position, a's value, b's value) of the first difference of a and b, or
    None when np.array_equal holds. The position names each index by its
    axis, counting from 1: an answer's fields are indexed by coefficient,
    and d then by q1 candidate."""
    a, b = np.asarray(a), np.asarray(b)
    if np.array_equal(a, b):
        return None
    if a.shape != b.shape:
        return "shape", a.shape, b.shape
    index = next(i for i in np.ndindex(a.shape) if not np.array_equal(a[i], b[i]))
    position = ", ".join(f"{name} {i + 1}" for name, i in zip(axes, index))
    return position, np.asarray(a[index]).item(), np.asarray(b[index]).item()


def parse(jpegio, data: bytes):
    """The parsed file, or the JpegError that parsing raised."""
    try:
        return jpegio.parse_jpeg(data)
    except jpegio.JpegError as exc:
        return exc


def compare_grids(jpegios: dict, files: dict[str, bytes]) -> tuple[str | None, list[str]]:
    """The first difference of the sides' parses of files, described (None if
    none), and the names of the files that parse. A grid is indexed by block,
    then by zig-zag coefficient; a file that fails must fail alike on both sides."""
    parsed = []
    for name, data in files.items():
        parent, change = (parse(jpegios[side], data) for side in ("parent", "change"))
        errors = [f"{type(p).__name__}: {p}" if isinstance(p, Exception) else None
                  for p in (parent, change)]
        if errors[0] != errors[1]:
            return f"{name}: parent {errors[0] or 'parses'}, change {errors[1] or 'parses'}", parsed
        if errors[0]:
            continue
        a, b = parent.component_coeffs, change.component_coeffs
        if a.keys() != b.keys():
            return f"{name}: components parent {sorted(a)}, change {sorted(b)}", parsed
        for cid in a:
            found = difference(a[cid], b[cid], ("block", "coefficient"))
            if found is not None:
                position, p, c = found
                return f"{name}: component {cid} at {position}: parent {p!r}, change {c!r}", parsed
        parsed.append(name)
    return None, parsed


def compare(sides: dict, datasets: dict, blobs: dict[str, bytes]) -> str | None:
    """The first difference of the sides' results on blobs, described; None if none."""
    for name, data in blobs.items():
        results = {side: sides[side].estimator.estimate(data, ds) for side, ds in datasets.items()}
        for field in FIELDS:
            get = operator.attrgetter(field)
            found = difference(get(results["parent"]), get(results["change"]))
            if found is not None:
                position, parent, change = found
                return f"{name}: {field} at {position}: parent {parent!r}, change {change!r}"
    return None


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

    Both sides should have parsed blobs once already, which builds their
    decode tables. A round makes enough passes over blobs that each side's
    share takes at least MIN_ROUND_S. Pass p over file i of round r takes
    order r + p + i, so each file swaps order every pass and every round.
    """
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
    entry = {"files": len(blobs), "passes_per_round": passes}
    for side in jpegios:
        entry[side] = {"ms_per_parse": dict(zip(QUARTILES, checkouts.quartiles(ms[side]))),
                       "runs_ms": ms[side]}
    entry["ratio"] = dict(zip(QUARTILES, checkouts.quartiles(ratios)))
    entry["change_won"] = sum(ratio < 1 for ratio in ratios)
    return entry


def time_parses(paths: dict, jpegios: dict, files: dict, grids: dict, rounds: int) -> dict:
    """Each input set's timing entry, printed as it is made."""
    results = {}
    for name, description in checkouts.INPUTS.items():
        blobs = list(files[name].values())
        entry = results[name] = {"description": description,
                                 **time_input(jpegios, blobs, rounds),
                                 "grids_equal": grids[name][0] is None}
        for side, path in paths.items():
            entry[side]["parse_vmhwm_mb"] = peak_mb(path, blobs[0])
        parent, change, ratio = entry["parent"], entry["change"], entry["ratio"]
        print(f"{name:16s} parent {parent['ms_per_parse']['median']:8.2f} ms  change "
              f"{change['ms_per_parse']['median']:8.2f} ms  ratio {ratio['median']:.3f} "
              f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}]  won {entry['change_won']}/{rounds}  "
              f"VmHWM +{parent['parse_vmhwm_mb']:.2f}/+{change['parse_vmhwm_mb']:.2f} MB"
              + ("" if entry["grids_equal"] else "  GRIDS DIFFER"), flush=True)
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-checkout", type=Path, required=True)
    p.add_argument("--checkout", type=Path, default=checkouts.ROOT, help="the change's checkout")
    p.add_argument("--reference", type=int, default=500, help="reference patches (default 500)")
    p.add_argument("--per-cell", type=int, default=200, help="images per cell (default 200)")
    p.add_argument("--rounds", type=int, default=0, help="parse timing rounds (default 0)")
    p.add_argument("--label", default="parse", help="names the timing record BENCH_<label>.json")
    p.add_argument("--out-dir", type=Path, default=checkouts.ROOT, help="the record's folder")
    args = p.parse_args(argv)
    if args.reference < 1 or args.per_cell < 1 or args.rounds < 0:
        p.error("--reference and --per-cell must be at least 1, --rounds at least 0")
    paths = checkouts.sides(args.parent_checkout, args.checkout)
    files = input_files()
    sides = {side: checkouts.load_fqe(path, f"fqe_{side}") for side, path in paths.items()}
    jpegios = {side: fqe.jpegio for side, fqe in sides.items()}
    grids = {name: compare_grids(jpegios, files[name]) for name in checkouts.INPUTS}
    header = checkouts.header(__file__, argv, paths)
    if args.rounds:
        record = {**header, "rounds": args.rounds,
                  "inputs": time_parses(paths, jpegios, files, grids, args.rounds)}
        out = args.out_dir / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")
    found = next((found for found, _ in grids.values() if found is not None), None)
    blobs = images(args.per_cell)
    criterion_images = len(blobs)
    if found is None:
        blobs.update((name, files[s][name]) for s, (_, parsed) in grids.items() for name in parsed)
        patches = checkouts.inputs().load_conftest().synth_patches(REFERENCE_SEED, args.reference)
        datasets = {side: dataset(fqe, patches) for side, fqe in sides.items()}
        found = compare(sides, datasets, blobs)
    if found is not None:
        print(f"answers differ: {found}")
        return 1
    print(json.dumps({**header, "reference_patches": args.reference, "images": criterion_images,
                      "input_files": {name: len(f) for name, f in files.items()},
                      "estimated_input_files": len(blobs) - criterion_images,
                      "same_answers": True}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
