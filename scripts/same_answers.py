"""Check that a parent checkout and this one give the same answers.

    python3 scripts/same_answers.py --parent-checkout ../parent

Imports both checkouts' fqe into this one process (checkouts.load_fqe).
Each side builds its own reference dataset from the same synth_patches
(seed REFERENCE_SEED, --reference patches, q1_max Q1_MAX, k K) and loads
it back through its own serialize and deserialize, so that a change of the
file format does not stop the check. Both sides then estimate the images of
acceptance criteria 5 and 6 (tests/test_acceptance.py): --per-cell test
patches (seed TEST_SEED) double-compressed with this checkout's encoder at
each QF1 in QF1, and with the four custom tables of criterion 6, then at
QF2; 1,000 images at the default sizes.

For every image it compares estimates, raw_estimates, the distance
matrix's status and q2, and the distance matrix d with np.array_equal. It
exits 1 at the first difference, naming the image, the field, the position
and both values; otherwise it prints the compared count and both checkouts'
git heads as JSON and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
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

FIELDS = {
    "estimates": lambda result: result.estimates,
    "raw_estimates": lambda result: result.raw_estimates,
    "status": lambda result: result.distances.status,
    "q2": lambda result: result.distances.q2,
    "d": lambda result: result.distances.d,
}


def custom_tables(fqe) -> list:
    """Criterion 6's tables: QF1 = 70 jittered by -2..2, factors in [1, 22]."""
    rng = np.random.default_rng(CUSTOM_SEED)
    base = fqe.standard_table(70).factors
    return [fqe.QuantTable(np.clip(base + rng.integers(-2, 3, 64), 1, 22)) for _ in range(4)]


def images(conftest, per_cell: int) -> dict[str, bytes]:
    """The criterion 5 and 6 images by name: image i of a cell is test patch i,
    compressed first with the cell's table, or with custom table i % 4."""
    import fqe
    from fqe.corpus import double_compress_file

    patches = conftest.synth_patches(TEST_SEED, per_cell)
    cells = {f"qf{qf}": [fqe.standard_table(qf)] for qf in QF1}
    cells["custom"] = custom_tables(fqe)
    q2 = fqe.standard_table(QF2)
    return {
        f"{cell}/img{i:03d}.jpg": double_compress_file(patch, tables[i % len(tables)], q2)
        for cell, tables in cells.items()
        for i, patch in enumerate(patches)
    }


def dataset(fqe, patches: list):
    """fqe's reference dataset of patches, as its own file format loads it."""
    built = fqe.refdata.build_reference(patches, q1_max=Q1_MAX, k=K, jobs=JOBS)
    return fqe.refdata.deserialize(fqe.refdata.serialize(built))


def difference(a, b) -> tuple | None:
    """(position, a's value, b's value) of the first difference of a and b, or
    None when np.array_equal holds. Every field is indexed by coefficient,
    and d then by q1 candidate; both count from 1."""
    a, b = np.asarray(a), np.asarray(b)
    if np.array_equal(a, b):
        return None
    if a.shape != b.shape:
        return "shape", a.shape, b.shape
    index = next(i for i in np.ndindex(a.shape) if not np.array_equal(a[i], b[i]))
    position = ", ".join(f"{name} {i + 1}" for name, i in zip(("coefficient", "q1"), index))
    return position, np.asarray(a[index]).item(), np.asarray(b[index]).item()


def compare(sides: dict, datasets: dict, blobs: dict[str, bytes]) -> str | None:
    """The first difference of the sides' results on blobs, described; None if none."""
    for name, data in blobs.items():
        results = {side: sides[side].estimator.estimate(data, ds) for side, ds in datasets.items()}
        for field, get in FIELDS.items():
            found = difference(get(results["parent"]), get(results["change"]))
            if found is not None:
                position, parent, change = found
                return f"{name}: {field} at {position}: parent {parent!r}, change {change!r}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-checkout", type=Path, required=True)
    p.add_argument("--reference", type=int, default=500, help="reference patches (default 500)")
    p.add_argument("--per-cell", type=int, default=200, help="images per cell (default 200)")
    args = p.parse_args(argv)
    if args.reference < 1 or args.per_cell < 1:
        p.error("--reference and --per-cell must be at least 1")
    paths = checkouts.sides(args.parent_checkout)
    conftest = checkouts.inputs().load_conftest()
    blobs = images(conftest, args.per_cell)
    patches = conftest.synth_patches(REFERENCE_SEED, args.reference)
    sides = {side: checkouts.load_fqe(path, f"fqe_{side}") for side, path in paths.items()}
    datasets = {side: dataset(fqe, patches) for side, fqe in sides.items()}
    found = compare(sides, datasets, blobs)
    if found is not None:
        print(f"answers differ: {found}")
        return 1
    print(json.dumps({**checkouts.header(__file__, argv, paths), "reference_patches":
                      args.reference, "images": len(blobs), "same_answers": True}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
