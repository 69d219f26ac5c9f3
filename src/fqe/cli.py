"""Command-line surface: build datasets, generate corpora, estimate, evaluate.

Exit codes for `estimate`: 0 success, 2 unreadable or unsupported JPEG,
3 dataset failure (unreadable file or parameter mismatch), 4 when nothing
could be estimated because the image's q2 factors exceed the dataset grid.
`evaluate` and `info` also exit 3 when the dataset file cannot be loaded.
"""

from __future__ import annotations

import csv
import dataclasses
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
from .estimator import OK, UNSUPPORTED, EstimationParams, EstimationResult, estimate
from .jpegio import JpegError, PgmError, read_pgm, crop_center
from .refdata import (
    DatasetFormatError,
    ReferenceDataset,
    build_reference,
    deserialize,
    map_file,
    write_dataset,
)
from .types import GrayImage

EXIT_PARSE_FAILURE = 2
EXIT_DATASET_FAILURE = 3
EXIT_UNSUPPORTED_Q2 = 4


def _resolve_jobs(flag: int | None) -> int:
    env = os.environ.get("FQE_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise click.ClickException(f"FQE_JOBS={env!r} is not an integer")
    else:
        jobs = flag if flag is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise click.ClickException("job count must be at least 1")
    return jobs


def _load_dataset(path: str) -> ReferenceDataset:
    """refdata.load_dataset, calling deserialize by this module's name.

    perfbench/spans.py rebinds cli.deserialize to time the load.
    """
    ds = deserialize(map_file(path))
    ds.path = path
    return ds


def _dataset_failure(exc: Exception) -> NoReturn:
    click.echo(f"dataset error: {exc}", err=True)
    sys.exit(EXIT_DATASET_FAILURE)


def _params_from_flags(
    ds: ReferenceDataset, k: int, n: int, w: float, reg_variant: str, no_reg: bool
) -> EstimationParams:
    return EstimationParams(
        k=k,
        q1_max=ds.q1_max,
        n_candidates=n,
        w=w,
        reg_variant=reg_variant,
        regularize=not no_reg,
    )


def _estimation_options(command):
    """--k, --n, --w, --reg-variant and --no-reg, the flags of _params_from_flags."""
    options = [
        click.option("--k", default=15, show_default=True, type=click.IntRange(2, 64)),
        click.option(
            "--n", default=1000, show_default=True, type=click.IntRange(min=1),
            help="Candidates per sub-dataset.",
        ),
        click.option(
            "--w", default=0.92, show_default=True, type=click.FloatRange(0, 1),
            callback=_weight, help="Data-term weight.",
        ),
        click.option(
            "--reg-variant", default="reg3", show_default=True,
            type=click.Choice(["reg1", "reg2", "reg3"]),
        ),
        click.option("--no-reg", is_flag=True, help="Report raw argmin estimates only."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@click.group()
@click.version_option(version=__version__, prog_name="fqe")
def main() -> None:
    """First quantization estimation for double-compressed JPEG images."""


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _patch_side(ctx: click.Context, param: click.Parameter, value: int) -> int:
    # u16 bin counts hold at most 65535 blocks per patch: 255 x 255 at side 2040.
    if value % 8 or not 8 <= value <= 2040:
        raise click.BadParameter(f"{value} is not a multiple of 8 from 8 to 2040")
    return value


def _weight(ctx: click.Context, param: click.Parameter, value: float) -> float:
    # NaN passes click.FloatRange: it compares false with both bounds.
    if math.isnan(value):
        raise click.BadParameter(f"{value} is not in the range 0<=x<=1.")
    return value


@main.command()
@click.option("--raw-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--q1-max", default=22, show_default=True, type=click.IntRange(1, 255))
@click.option("--k", default=15, show_default=True, type=click.IntRange(2, 64))
@click.option(
    "--patch", default=64, show_default=True, callback=_patch_side, help="Center-crop side."
)
@click.option(
    "--jobs", type=click.IntRange(min=1), help="Worker processes, each building whole q1s "
    "(FQE_JOBS overrides); patches of 512 8x8 blocks or fewer in all build in-process."
)
@click.option("--verbose", is_flag=True, help="List the record counts of every sub-dataset.")
def build(
    raw_dir: str, out: str, q1_max: int, k: int, patch: int, jobs: int | None, verbose: bool
) -> None:
    """Build a reference dataset from a directory of PGM images."""
    n_jobs = _resolve_jobs(jobs)
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
    ds = build_reference(patches, q1_max=q1_max, k=k, jobs=n_jobs)
    try:
        size = _replace_file(Path(out), lambda fh: write_dataset(ds, fh))
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc}")
    click.echo(f"wrote {out}: {size} bytes")
    _echo_summary(ds, verbose)


def _replace_file(path: Path, write: Callable[[BinaryIO], int]) -> int:
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


def _echo_summary(ds: ReferenceDataset, verbose: bool) -> None:
    """The header fields, record totals and records per sub-dataset, from ds.bounds."""
    # Records per (q1, q2) in q1-major order, one (dc, ac) row each.
    per_kind = np.diff(ds.bounds).reshape(-1, 2)
    if verbose:
        pairs = itertools.product(range(1, ds.q1_max + 1), repeat=2)
        for (q1, q2), (dc, ac) in zip(pairs, per_kind.tolist()):
            click.echo(f"q1={q1:>3} q2={q2:>3}: dc={dc} ac={ac}")
    n_dc, n_ac = per_kind.T
    per_sub = n_dc + n_ac
    click.echo(
        f"q1_max={ds.q1_max} k={ds.k} patch_side={ds.patch_side} "
        f"source_count={ds.source_count}"
    )
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
    """Summarize a reference dataset file, as `build` does."""
    try:
        ds = _load_dataset(dataset)
    except DatasetFormatError as exc:
        _dataset_failure(exc)
    click.echo(f"{dataset}: {os.path.getsize(dataset)} bytes")
    _echo_summary(ds, verbose)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _result_rows(result: EstimationResult) -> list[dict]:
    dm = result.distances
    rows = []
    for i in range(dm.k):
        status = dm.status[i]
        raw = result.raw_estimates[i]
        est = result.estimates[i]
        raw_dist = float(dm.d[i][raw - 1]) if raw is not None else None
        est_dist = float(dm.d[i][est - 1]) if est is not None else None
        rows.append(
            {
                "position": i + 1,
                "q2": dm.q2[i],
                "status": status,
                "raw": raw,
                "estimate": est,
                "raw_distance": raw_dist,
                "estimate_distance": est_dist,
            }
        )
    return rows


def _format_estimate(result: EstimationResult, fmt: str) -> str:
    rows = _result_rows(result)
    if fmt == "json":
        # JSON has no infinity: a candidate without reference data, which the
        # smoothness term can still pick, gets a null distance.
        for row in rows:
            for key in ("raw_distance", "estimate_distance"):
                if row[key] is not None and not math.isfinite(row[key]):
                    row[key] = None
        return json.dumps(
            {
                "params": dataclasses.asdict(result.params),
                "warnings": result.warnings,
                "positions": rows,
            },
            indent=2,
            allow_nan=False,
        )
    p = result.params
    buf = io.StringIO()
    buf.write(
        f"# k={p.k} n={p.n_candidates} w={p.w} reg_variant={p.reg_variant} "
        f"regularize={'on' if p.regularize else 'off'}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["position", "q2", "status", "raw", "estimate", "raw_distance", "estimate_distance"]
    )
    for row in rows:
        writer.writerow(
            [
                row["position"],
                row["q2"],
                row["status"],
                "" if row["raw"] is None else row["raw"],
                "" if row["estimate"] is None else row["estimate"],
                "" if row["raw_distance"] is None else repr(row["raw_distance"]),
                "" if row["estimate_distance"] is None else repr(row["estimate_distance"]),
            ]
        )
    return buf.getvalue().rstrip("\n")


@main.command("estimate")
@click.option("--image", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", required=True, type=click.Path())
@_estimation_options
@click.option(
    "--format", "fmt", default="json", show_default=True, type=click.Choice(["json", "csv"])
)
def estimate_cmd(
    image: str, dataset: str, k: int, n: int, w: float, reg_variant: str, no_reg: bool, fmt: str
) -> None:
    """Estimate the first quantization factors of one JPEG image."""
    try:
        ds = _load_dataset(dataset)
        params = _params_from_flags(ds, k, n, w, reg_variant, no_reg)
    except (DatasetFormatError, ValueError) as exc:
        _dataset_failure(exc)
    try:
        result = estimate(Path(image).read_bytes(), ds, params)
    except (JpegError, OSError) as exc:
        click.echo(f"cannot parse {image}: {exc}", err=True)
        sys.exit(EXIT_PARSE_FAILURE)
    except ValueError as exc:
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
    # Every entry is checked as --qf2 is.
    if value is None:
        return None
    qfs = [click.IntRange(1, 100).convert(x, param, ctx) for x in value.split(",") if x.strip()]
    if not qfs:
        raise click.BadParameter(f"{value!r} holds no quality factor")
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
            x = (img.width - patch) // 2
            y = (img.height - patch) // 2
            cropped = crop_center(img, patch)
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
@_estimation_options
@click.option("--jobs", type=click.IntRange(min=1), help="Worker processes (FQE_JOBS overrides).")
@click.option("--out-dir", default=".", show_default=True, type=click.Path(file_okay=False))
def evaluate_cmd(
    corpus_dir: str,
    dataset: str,
    k: int,
    n: int,
    w: float,
    reg_variant: str,
    no_reg: bool,
    jobs: int | None,
    out_dir: str,
) -> None:
    """Evaluate estimation accuracy over a corpus with a manifest."""
    n_jobs = _resolve_jobs(jobs)
    try:
        ds = _load_dataset(dataset)
        params = _params_from_flags(ds, k, n, w, reg_variant, no_reg)
        report = evaluate_corpus(Path(corpus_dir), ds, params, jobs=n_jobs)
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
