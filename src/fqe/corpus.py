"""Double-compressed corpora with a ground-truth manifest, and their accuracy report.

A corpus is a directory of JPEG files and a manifest that gives each file a
label (its first-compression table) and the first 15 zig-zag factors of that
table. `evaluate_corpus` estimates every file and counts, per label and per
position up to the dataset's k or 15, how many estimates were degenerate,
unsupported or correct.
"""

from __future__ import annotations

import csv
import functools
import io
import tempfile
from pathlib import Path, PurePath

import numpy as np

from .dctsim import reconstruct
from .estimator import DEGENERATE, OK, UNSUPPORTED, estimate, printed_params
from .jpegio import encode_baseline_gray, parse_jpeg
from .refdata import DatasetFormatError, ReferenceDataset, load_dataset
from .types import GrayImage, QuantTable

MANIFEST_NAME = "manifest.csv"
MANIFEST_FACTORS = 15


def read_table_file(text: str) -> list[QuantTable]:
    """Parse explicit tables: 8 lines of 8 integers each, blank-line separated."""
    rows: list[list[int]] = []
    tables: list[QuantTable] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 8:
            raise ValueError(f"line {lineno}: expected 8 integers, got {len(parts)}")
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer factor") from None
        if len(rows) == 8:
            tables.append(QuantTable(np.array(rows).reshape(64)))
            rows = []
    if rows:
        raise ValueError("trailing lines do not form a full 8x8 table")
    if not tables:
        raise ValueError("table file contains no tables")
    return tables


def double_compress_file(patch: GrayImage, q1_table: QuantTable, q2_table: QuantTable) -> bytes:
    """File-path double compression: encode, decode to pixels, encode again."""
    first = parse_jpeg(encode_baseline_gray(patch, q1_table))
    pixels = reconstruct(first.coeffs, first.luma_table)
    return encode_baseline_gray(pixels, q2_table)


def write_manifest(
    corpus_dir: Path, rows: list[tuple[str, str, int, int, QuantTable]], comment: str
) -> None:
    """Write the manifest: a comment line, then (filename, label, crop_x, crop_y, table) rows."""
    with (corpus_dir / MANIFEST_NAME).open("w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["filename", "label", "crop_x", "crop_y"]
            + [f"q1_{i}" for i in range(1, MANIFEST_FACTORS + 1)]
        )
        for *head, table in rows:
            writer.writerow([*head, *table.to_zigzag()[:MANIFEST_FACTORS].tolist()])


def read_manifest(path: Path) -> list[tuple[str, str, list[int]]]:
    """The (filename, label, truth) rows of a manifest; truth holds 15 factors."""
    if not path.is_file():
        raise ValueError(f"no {path.name} in {path.parent}")
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"manifest {path}: {exc}") from None
    factors = [f"q1_{i}" for i in range(1, MANIFEST_FACTORS + 1)]
    if reader.fieldnames is None or not {"filename", "label", *factors} <= set(reader.fieldnames):
        raise ValueError(f"manifest {path} is missing required columns")
    entries = []
    for n, row in enumerate(rows, start=1):
        try:
            truth = [int(row[name]) for name in factors]
        except (TypeError, ValueError):
            raise ValueError(
                f"manifest {path} row {n} ({row['filename']}): "
                f"needs {MANIFEST_FACTORS} integer q1 factors"
            ) from None
        for i, t in enumerate(truth, start=1):
            if not 1 <= t <= 255:
                raise ValueError(
                    f"manifest {path} row {n} ({row['filename']}): q1_{i} is {t}, not 1 to 255"
                )
        name = PurePath(row["filename"])
        if name.is_absolute() or ".." in name.parts:
            raise ValueError(f"manifest {path} row {n} ({name}): leaves the corpus directory")
        entries.append((row["filename"], row["label"], truth))
    if not entries:
        raise ValueError(f"manifest {path} lists no images")
    return entries


def _eval_one(
    ds: ReferenceDataset, corpus: Path, item: tuple[str, str, list[int]]
) -> tuple[str, np.ndarray]:
    """Estimate one corpus file: its label and the counts of _row per position."""
    filename, label, truth = item
    result = estimate((corpus / filename).read_bytes(), ds)
    positions = min(ds.k, MANIFEST_FACTORS)
    status = result.distances.status[:positions]
    counts = [
        [1] * positions,
        [s == DEGENERATE for s in status],
        [s == UNSUPPORTED for s in status],
        [s == OK and r == t for s, r, t in zip(status, result.raw_estimates, truth)],
        [s == OK and e == t for s, e, t in zip(status, result.estimates, truth)],
    ]
    return label, np.array(counts, dtype=int)


@functools.lru_cache(maxsize=1)
def _mapped(path: str, crc: int) -> ReferenceDataset:
    """The dataset file at path, mapped once per worker; it must still have CRC trailer crc."""
    ds = load_dataset(path)
    if ds.crc != crc:
        raise DatasetFormatError(
            f"dataset {path} changed since it was loaded: CRC {ds.crc:08x}, expected {crc:08x}"
        )
    return ds


def _eval_mapped(
    path: str, crc: int, corpus: Path, item: tuple[str, str, list[int]]
) -> tuple[str, np.ndarray]:
    # The file is mapped by the worker's first task, so that a load failure
    # reaches the parent as that task's exception.
    return _eval_one(_mapped(path, crc), corpus, item)


def _row(counts: np.ndarray) -> dict:
    """Report row of (total, degenerate, unsupported, correct_raw, correct_reg)."""
    total, deg, uns, raw, reg = (int(x) for x in counts)
    predictable = total - deg - uns
    return {
        "total": total,
        "degenerate": deg,
        "unsupported": uns,
        "predictable": predictable,
        "correct_raw": raw,
        "correct_reg": reg,
        "accuracy_raw": raw / predictable if predictable else None,
        "accuracy_reg": reg / predictable if predictable else None,
        "degenerate_pct": deg / total if total else None,
    }


def _summary(counts: np.ndarray) -> dict:
    positions = [{"position": i + 1, **_row(column)} for i, column in enumerate(counts.T)]
    return {"positions": positions, "overall": _row(counts.sum(axis=1))}


def evaluate_corpus(corpus_dir: Path, ds: ReferenceDataset, jobs: int = 1) -> dict:
    """Run the estimator over a corpus and assemble the accuracy report.

    With jobs > 1, each worker maps the file ds was loaded from, or a
    temporary copy of a dataset held only in memory, and fails with
    DatasetFormatError if that file's CRC trailer is not ds's.
    """
    work = read_manifest(corpus_dir / MANIFEST_NAME)
    for filename, _, _ in work:
        if not (corpus_dir / filename).is_file():
            raise ValueError(f"manifest lists missing file {filename}")

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # The pool starts every worker at once; more than map's tasks of 8 images would idle.
        workers = min(jobs, -(-len(work) // 8))
        with tempfile.TemporaryDirectory() as tmp, ProcessPoolExecutor(workers) as pool:
            path = ds.path
            if path is None:
                path = str(Path(tmp) / "ref.fqe")
                Path(path).write_bytes(ds.data)
            task = functools.partial(_eval_mapped, path, ds.crc, corpus_dir)
            outcomes = list(pool.map(task, work, chunksize=8))
    else:
        outcomes = [_eval_one(ds, corpus_dir, item) for item in work]

    labels = sorted({label for _, label, _ in work})
    tally = {label: np.zeros((5, min(ds.k, MANIFEST_FACTORS)), dtype=int) for label in labels}
    for label, counts in outcomes:
        tally[label] += counts
    return {
        "params": printed_params(ds.k, ds.q1_max),
        "dataset": {
            "q1_max": ds.q1_max,
            "k": ds.k,
            "patch_side": ds.patch_side,
            "source_count": ds.source_count,
        },
        "images": len(work),
        "labels": {label: _summary(counts) for label, counts in tally.items()},
        "overall": _summary(sum(tally.values())),
    }


def report_to_csv(report: dict) -> str:
    """One CSV row per label and position, and an `all` row per label; label ALL pools them."""
    columns = [
        "total", "degenerate", "unsupported", "predictable",
        "correct_raw", "accuracy_raw", "correct_reg", "accuracy_reg", "degenerate_pct",
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "position", *columns])
    for label, section in [*report["labels"].items(), ("ALL", report["overall"])]:
        rows = [(row["position"], row) for row in section["positions"]]
        for position, row in [*rows, ("all", section["overall"])]:
            writer.writerow([label, position, *(_cell(row[c]) for c in columns)])
    return buf.getvalue()


def _cell(x: int | float | None) -> str | int:
    """Counts as they are, ratios with 6 decimals, undefined ratios empty."""
    if x is None:
        return ""
    return f"{x:.6f}" if isinstance(x, float) else x
