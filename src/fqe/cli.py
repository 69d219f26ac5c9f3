"""Command-line surface: build datasets, generate corpora, estimate, evaluate.

Exit codes for `estimate`: 0 success, 2 unreadable or unsupported JPEG,
3 dataset unreadable or corrupt, 4 when nothing could be estimated
because the image's q2 factors exceed the dataset grid.
`evaluate` also exits 3 on a dataset failure, and `info` on an unreadable file.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn

import click
import numpy as np

from . import __version__
from .corpus import (
    MANIFEST_NAME,
    double_compress_file,
    evaluate_corpus,
    read_table_file,
    report_to_csv,
    write_manifest,
)
from .dctsim import standard_table
from .estimator import OK, UNSUPPORTED, EstimationResult, estimate, printed_params
from .jpegio import JpegError, PgmError, read_pgm, crop_center
from .refdata import (
    DatasetFormatError,
    ReferenceDataset,
    check_header,
    column_bytes,
    deserialize,
    map_file,
    write_reference,
)
from .types import GrayImage

EXIT_PARSE_FAILURE = 2
EXIT_DATASET_FAILURE = 3
EXIT_UNSUPPORTED_Q2 = 4


def _load_dataset(path: str) -> ReferenceDataset:
    """refdata.load_dataset, calling deserialize by this module's name; exits 3 on failure.

    perfbench/spans.py rebinds cli.deserialize to time the load.
    """
    try:
        ds = deserialize(map_file(path))
    except DatasetFormatError as exc:
        _dataset_failure(exc)
    ds.path = path
    return ds


def _dataset_failure(exc: Exception) -> NoReturn:
    click.echo(f"dataset error: {exc}", err=True)
    sys.exit(EXIT_DATASET_FAILURE)


@click.group()
@click.version_option(version=__version__, prog_name="fqe")
def main() -> None:
    """First quantization estimation for double-compressed JPEG images."""


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


@main.command()
@click.option("--raw-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--q1-max", default=22, show_default=True)
@click.option("--k", default=15, show_default=True)
@click.option("--patch", default=64, show_default=True, help="Center-crop side.")
@click.option(
    "--jobs", type=click.IntRange(min=1), help="Worker processes, each building whole q1s "
    "(default: the CPU count); patches of 512 8x8 blocks or fewer in all build in-process. "
    "Each worker holds a whole q1's records (about 0.14 MB per 64x64 patch), and q1s "
    "finished before the file reaches them wait in this process."
)
@click.option("--verbose", is_flag=True, help="List the record counts of every sub-dataset.")
def build(
    raw_dir: str, out: str, q1_max: int, k: int, patch: int, jobs: int | None, verbose: bool
) -> None:
    """Build a reference dataset from a directory of PGM images."""
    try:
        check_header(q1_max, k, patch)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    n_jobs = jobs or os.cpu_count() or 1
    paths = sorted(Path(raw_dir).glob("*.pgm"))
    patches: list[GrayImage] = []
    skipped = 0
    for path in paths:
        try:
            img = read_pgm(path.read_bytes())
            patches.append(crop_center(img, patch))
        except (PgmError, ValueError, OSError) as exc:
            skipped += 1
            click.echo(f"skipping {path.name}: {exc}", err=True)
    if not patches:
        raise click.ClickException(f"no usable PGM images in {raw_dir}")
    click.echo(
        f"building from {len(patches)} patches ({skipped} skipped), "
        f"q1_max={q1_max} k={k}: {len(patches) * q1_max * q1_max} double compressions"
    )
    try:
        size, records = _replace_file(
            Path(out), lambda fh: write_reference(fh, patches, q1_max=q1_max, k=k, jobs=n_jobs)
        )
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc}")
    click.echo(f"wrote {out}: {size} bytes")
    _echo_summary(q1_max, k, patch, len(patches), records, verbose)


def _replace_file(
    path: Path, write: Callable[[BinaryIO], tuple[int, np.ndarray]]
) -> tuple[int, np.ndarray]:
    """Write a new file beside path with write(fh), flush it to disk, then rename it over path.

    A reader that maps the old file keeps its bytes, and a write that fails
    or a crash before the rename leaves path as it was. A symlink is followed:
    the link stays and its target is replaced. The new file has the default
    mode, not the old file's. Returns what write returns.
    """
    path = Path(os.path.realpath(path))
    # The name is this process's own: a file left there by a killed build
    # of the same pid is overwritten.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            size = write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return size


def _echo_summary(
    q1_max: int, k: int, patch_side: int, source_count: int, records: np.ndarray, verbose: bool
) -> None:
    """The header fields, record totals and records per sub-dataset, from each section's records."""
    # Records per (q1, q2) in q1-major order, one (dc, ac) row each.
    per_kind = records.reshape(-1, 2)
    if verbose:
        pairs = itertools.product(range(1, q1_max + 1), repeat=2)
        for (q1, q2), (dc, ac) in zip(pairs, per_kind.tolist()):
            click.echo(f"q1={q1:>3} q2={q2:>3}: dc={dc} ac={ac}")
    n_dc, n_ac = per_kind.T
    per_sub = n_dc + n_ac
    click.echo(f"q1_max={q1_max} k={k} patch_side={patch_side} source_count={source_count}")
    click.echo(f"{per_sub.sum()} records: {n_dc.sum()} DC + {n_ac.sum()} AC records")
    click.echo(
        f"records per sub-dataset: min {per_sub.min()}, median {np.median(per_sub):g}, "
        f"max {per_sub.max()}; {np.count_nonzero(per_sub == 0)} of {per_sub.size} empty"
    )


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


@main.command("info")
@click.argument("dataset", type=click.Path())
@click.option("--verbose", is_flag=True, help="List the record counts of every sub-dataset.")
def info_cmd(dataset: str, verbose: bool) -> None:
    """Summarize a reference dataset file, as `build` does, and the bytes of its columns."""
    ds = _load_dataset(dataset)
    click.echo(f"{dataset}: {os.path.getsize(dataset)} bytes")
    records, bins, widths = ds.footer()
    sizes = column_bytes(ds.q1_max, ds.patch_side, records, bins, widths).sum(axis=0)
    keys, wide, lengths, counts, narrow = sizes.tolist()
    i1 = np.count_nonzero((bins > 0) & (widths == 1))
    click.echo(
        f"column bytes: keys {keys}, lengths {lengths}, values {wide + narrow}, "
        f"bins {counts}; i1 values in {i1} of {bins.size} sections"
    )
    _echo_summary(ds.q1_max, ds.k, ds.patch_side, ds.source_count, records, verbose)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _result_rows(result: EstimationResult) -> list[dict]:
    dm = result.distances
    rows = []
    for i, (raw, est) in enumerate(zip(result.raw_estimates, result.estimates)):
        raw_dist, est_dist = (None if q is None else float(dm.d[i][q - 1]) for q in (raw, est))
        rows.append(
            {"position": i + 1, "q2": dm.q2[i], "status": dm.status[i], "raw": raw,
             "estimate": est, "raw_distance": raw_dist, "estimate_distance": est_dist}
        )
    return rows


def _format_estimate(result: EstimationResult, fmt: str) -> str:
    rows = _result_rows(result)
    params = printed_params(result.distances.k, result.distances.q1_max)
    if fmt == "json":
        # JSON has no infinity: a candidate without reference data, which the
        # smoothness term can still pick, gets a null distance.
        for row in rows:
            for key in ("raw_distance", "estimate_distance"):
                if row[key] is not None and not math.isfinite(row[key]):
                    row[key] = None
        return json.dumps(
            {
                "params": params,
                "warnings": result.warnings,
                "positions": rows,
            },
            indent=2,
            allow_nan=False,
        )
    buf = io.StringIO()
    buf.write("# " + " ".join(f"{key}={value}" for key, value in params.items()) + "\n")
    # csv writes None as "" and a float by its repr.
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


@main.command("estimate")
@click.option("--image", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", required=True, type=click.Path())
@click.option(
    "--format", "fmt", default="json", show_default=True, type=click.Choice(["json", "csv"])
)
def estimate_cmd(image: str, dataset: str, fmt: str) -> None:
    """Estimate the first quantization factors of one JPEG image."""
    ds = _load_dataset(dataset)
    try:
        result = estimate(Path(image).read_bytes(), ds)
    except (JpegError, OSError) as exc:
        click.echo(f"cannot parse {image}: {exc}", err=True)
        sys.exit(EXIT_PARSE_FAILURE)
    except DatasetFormatError as exc:  # a section fails when first made
        _dataset_failure(exc)
    click.echo(_format_estimate(result, fmt))
    statuses = result.distances.status
    if OK not in statuses and UNSUPPORTED in statuses:
        sys.exit(EXIT_UNSUPPORTED_Q2)


# ---------------------------------------------------------------------------
# make-corpus
# ---------------------------------------------------------------------------


def _quality_factors(
    ctx: click.Context, param: click.Parameter, value: str | None
) -> list[int] | None:
    # Every entry is checked as --qf2 is; a repeated one would name two files alike.
    if value is None:
        return None
    qfs = [click.IntRange(1, 100).convert(x, param, ctx) for x in value.split(",") if x.strip()]
    if not qfs:
        raise click.BadParameter(f"{value!r} holds no quality factor")
    for i, q in enumerate(qfs):
        if q in qfs[:i]:
            raise click.BadParameter(f"quality factor {q} is repeated")
    return qfs


@main.command("make-corpus")
@click.option("--raw-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option(
    "--qf1", callback=_quality_factors, help="Comma-separated first-compression quality factors."
)
@click.option(
    "--tables",
    default=None,
    type=click.Path(exists=True, dir_okay=False),
    help="File of explicit 8x8 first-compression tables.",
)
@click.option(
    "--qf2", required=True, type=click.IntRange(1, 100), help="Second-compression quality factor."
)
@click.option("--patch", default=64, show_default=True, type=click.IntRange(min=8))
@click.option(
    "--crop", default="center", show_default=True, type=click.Choice(["center", "random"])
)
@click.option("--seed", default=None, type=int, help="Required for random crops.")
def make_corpus(
    raw_dir: str,
    out_dir: str,
    qf1: list[int] | None,
    tables: str | None,
    qf2: int,
    patch: int,
    crop: str,
    seed: int | None,
) -> None:
    """Generate a double-compressed corpus with a ground-truth manifest."""
    if (qf1 is None) == (tables is None):
        raise click.ClickException("exactly one of --qf1 or --tables is required")
    if crop == "random" and seed is None:
        raise click.ClickException("--seed is required for random crops")

    if qf1 is not None:
        sources = [(f"qf{q:02d}", standard_table(q)) for q in qf1]
        spec_desc = f"qf1={','.join(str(q) for q in qf1)}"
    else:
        try:
            parsed_tables = read_table_file(Path(tables).read_text())
        except ValueError as exc:
            raise click.ClickException(f"bad table file {tables}: {exc}")
        sources = [(f"tbl{i:02d}", t) for i, t in enumerate(parsed_tables)]
        spec_desc = f"tables={Path(tables).name}"

    raw_paths = sorted(Path(raw_dir).glob("*.pgm"))
    if not raw_paths:
        raise click.ClickException(f"no PGM images in {raw_dir}")
    rng = np.random.default_rng(seed)

    # Every image is read and cropped before any file is written, so a bad
    # one leaves no partial corpus.
    crops = []
    for path in raw_paths:
        try:
            img = read_pgm(path.read_bytes())
        except PgmError as exc:
            raise click.ClickException(f"{path}: {exc}")
        if patch > min(img.width, img.height):
            raise click.ClickException(
                f"{path}: --patch {patch} exceeds the {img.width}x{img.height} image"
            )
        if crop == "center":
            x, y = (img.width - patch) // 2, (img.height - patch) // 2
        else:
            x = int(rng.integers(0, img.width - patch + 1))
            y = int(rng.integers(0, img.height - patch + 1))
        cropped = GrayImage(img.pixels[y : y + patch, x : x + patch].copy())
        crops.append((path.stem, x, y, cropped))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    q2_table = standard_table(qf2)
    rows = []
    for stem, x, y, cropped in crops:
        for label, q1_table in sources:
            name = f"{stem}__{label}.jpg"
            (out / name).write_bytes(double_compress_file(cropped, q1_table, q2_table))
            rows.append((name, label, x, y, q1_table))
    write_manifest(
        out, rows, f"fqe-corpus {spec_desc} qf2={qf2} patch={patch} crop={crop} seed={seed}"
    )
    click.echo(f"wrote {len(rows)} images and {MANIFEST_NAME} to {out_dir}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@main.command("evaluate")
@click.option("--corpus-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--dataset", required=True, type=click.Path())
@click.option("--jobs", type=click.IntRange(min=1), help="Worker processes (default: the CPU count).")
@click.option("--out-dir", default=".", show_default=True, type=click.Path(file_okay=False))
def evaluate_cmd(corpus_dir: str, dataset: str, jobs: int | None, out_dir: str) -> None:
    """Evaluate estimation accuracy over a corpus with a manifest."""
    n_jobs = jobs or os.cpu_count() or 1
    ds = _load_dataset(dataset)
    try:
        report = evaluate_corpus(Path(corpus_dir), ds, jobs=n_jobs)
    except DatasetFormatError as exc:
        _dataset_failure(exc)
    except (JpegError, ValueError) as exc:
        raise click.ClickException(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    (out / "report.csv").write_text(report_to_csv(report))
    for label, section in [*report["labels"].items(), ("ALL", report["overall"])]:
        o = section["overall"]
        acc_raw = "n/a" if o["accuracy_raw"] is None else f"{o['accuracy_raw']:.3f}"
        acc_reg = "n/a" if o["accuracy_reg"] is None else f"{o['accuracy_reg']:.3f}"
        click.echo(
            f"{label}: raw={acc_raw} reg={acc_reg} predictable={o['predictable']}/{o['total']}"
        )
    click.echo(f"reports written to {out / 'report.csv'} and {out / 'report.json'}")


if __name__ == "__main__":
    main()
