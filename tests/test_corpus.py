"""Corpus evaluation: the accuracy report over a double-compressed corpus."""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from fqe import corpus, estimate
from fqe.cli import evaluate_corpus, main, report_to_csv
from fqe.dctsim import constant_table
from fqe.estimator import OK
from fqe.refdata import DatasetFormatError, build_reference, load_dataset, serialize
from fqe.types import GrayImage

from conftest import synth_patches, write_pgm


@pytest.fixture(scope="module")
def pinned_corpus(tmp_path_factory):
    """Three textured patches and a flat one under QF1 85 and 95, QF2 90."""
    root = tmp_path_factory.mktemp("pinned")
    raw = root / "raw"
    raw.mkdir()
    images = synth_patches(seed=71, count=3) + [GrayImage(np.full((64, 64), 90, np.uint8))]
    for i, img in enumerate(images):
        (raw / f"img{i}.pgm").write_bytes(write_pgm(img))
    result = CliRunner().invoke(
        main,
        ["make-corpus", "--raw-dir", str(raw), "--out-dir", str(root / "corpus"),
         "--qf1", "85,95", "--qf2", "90"],
    )
    assert result.exit_code == 0, result.output
    return root / "corpus"


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_bytes_pinned(pinned_corpus, jobs):
    # q1_max 4 against QF2 90: position 15 (q2 = 5) is unsupported, the flat
    # patch is degenerate at every position and QF1 85 truths exceed the grid.
    ds = build_reference(synth_patches(seed=72, count=6), q1_max=4, k=15)
    report = evaluate_corpus(pinned_corpus, ds, jobs=jobs)
    overall = report["overall"]["overall"]
    assert overall["degenerate"] >= 15 and overall["unsupported"] >= 6
    assert report["overall"]["positions"][14]["accuracy_raw"] is None
    digests = [
        hashlib.sha256(text.encode()).hexdigest()
        for text in (json.dumps(report, indent=2), report_to_csv(report))
    ]
    assert digests == [
        "aff7fb50387863372d40fe5e376c01efe088bd8ec8226aa8a1718f0778f18f8d",
        "d9592f223282b4236a173dcbd4be6a050613572b10b181e14d435eb1c5cfc455",
    ]


def test_default_params_on_a_small_grid_file(pinned_corpus, tmp_path):
    # The printed params against a q1_max 4 dataset file, in a pool of workers.
    path = tmp_path / "ref.fqe"
    path.write_bytes(serialize(build_reference(synth_patches(seed=72, count=6), q1_max=4, k=15)))
    report = evaluate_corpus(pinned_corpus, load_dataset(path), jobs=2)
    assert report["params"]["q1_max"] == report["dataset"]["q1_max"] == 4
    assert report["images"] == 8 and report["overall"]["overall"]["total"] == 8 * 15


@pytest.mark.parametrize(
    "qf1, jobs, workers", [("85", 64, 1), ("50,60,70,80,90", 2, 2), ("50,60,70,80,90", 64, 3)]
)
def test_pool_has_at_most_one_worker_per_8_images(
    pinned_corpus, tmp_path, monkeypatch, qf1, jobs, workers
):
    # A pool starts all its workers at once, and map hands them 8 images a
    # task: 4 or 20 images make 1 or 3 tasks. This pool runs them in-process.
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, task, items, chunksize):
            return map(task, items)

    out = tmp_path / "corpus"
    result = CliRunner().invoke(
        main,
        ["make-corpus", "--raw-dir", str(pinned_corpus.parent / "raw"), "--out-dir", str(out),
         "--qf1", qf1, "--qf2", "90"],
    )
    assert result.exit_code == 0, result.output
    ds = build_reference(synth_patches(seed=72, count=6), q1_max=4, k=15)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    try:
        assert evaluate_corpus(out, ds, jobs=jobs) == evaluate_corpus(out, ds, jobs=1)
    finally:
        corpus._mapped.cache_clear()  # the temporary dataset file is gone
    assert started == [workers]


def test_file_under_two_labels_counts_under_each(tmp_path):
    ds = build_reference(synth_patches(seed=73, count=4), q1_max=6, k=15)
    m3 = constant_table(3)
    (tmp_path / "a.jpg").write_bytes(
        corpus.double_compress_file(synth_patches(seed=74, count=1)[0], m3, constant_table(2))
    )
    corpus.write_manifest(
        tmp_path, [("a.jpg", "A", 0, 0, m3), ("a.jpg", "B", 0, 0, m3)], "one file, two labels"
    )
    report = corpus.evaluate_corpus(tmp_path, ds)
    assert report["images"] == 2
    a, b = (report["labels"][label]["overall"] for label in "AB")
    assert a == b and a["total"] == 15
    assert report["overall"]["overall"]["total"] == 30


def test_k_above_15_scores_the_first_15_positions_of_each_estimate(pinned_corpus, tmp_path):
    # Each file alone in a corpus: its counts are the first 15 rows of the
    # estimate that ran over all 20 coefficients.
    ds = build_reference(synth_patches(seed=72, count=6), q1_max=4, k=20)
    manifest = (pinned_corpus / corpus.MANIFEST_NAME).read_text().splitlines()
    for n, (filename, label, truth) in enumerate(
        corpus.read_manifest(pinned_corpus / corpus.MANIFEST_NAME)
    ):
        solo = tmp_path / str(n)
        solo.mkdir()
        (solo / filename).write_bytes((pinned_corpus / filename).read_bytes())
        (solo / corpus.MANIFEST_NAME).write_text("\n".join([manifest[1], manifest[2 + n]]))
        positions = evaluate_corpus(solo, ds)["labels"][label]["positions"]
        result = estimate((solo / filename).read_bytes(), ds)
        assert len(result.estimates) == 20
        assert [row["position"] for row in positions] == list(range(1, 16))
        ok = [s == OK for s in result.distances.status[:15]]
        assert [row["predictable"] for row in positions] == ok
        assert [row["correct_raw"] for row in positions] == [
            o and r == t for o, r, t in zip(ok, result.raw_estimates, truth)
        ]
        assert [row["correct_reg"] for row in positions] == [
            o and e == t for o, e, t in zip(ok, result.estimates, truth)
        ]


def test_worker_rejects_a_dataset_file_with_another_crc(tmp_path):
    path = tmp_path / "ref.fqe"
    path.write_bytes(serialize(build_reference(synth_patches(seed=75, count=2), q1_max=3, k=4)))
    crc = load_dataset(path).crc
    with pytest.raises(DatasetFormatError) as info:
        corpus._mapped(str(path), crc ^ 1)
    assert str(info.value) == (
        f"dataset {path} changed since it was loaded: CRC {crc:08x}, expected {crc ^ 1:08x}"
    )


def test_a_field_past_the_csv_limit_is_a_value_error_naming_the_manifest(tmp_path):
    # csv.field_size_limit() is 131072 characters unless a program raises it.
    header = "filename,label,crop_x,crop_y," + ",".join(f"q1_{i}" for i in range(1, 16))
    row = "x" * 200_000 + ".jpg,qf80,0,0," + ",".join(["3"] * 15)
    manifest = tmp_path / corpus.MANIFEST_NAME
    manifest.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValueError) as info:
        corpus.read_manifest(manifest)
    assert str(info.value) == f"manifest {manifest}: field larger than field limit (131072)"
