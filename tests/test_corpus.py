"""Corpus evaluation: the accuracy report over a double-compressed corpus."""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from fqe import corpus
from fqe.cli import evaluate_corpus, main, report_to_csv
from fqe.dctsim import constant_table
from fqe.estimator import EstimationParams
from fqe.refdata import build_reference
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
    report = evaluate_corpus(pinned_corpus, ds, EstimationParams(q1_max=4), jobs=jobs)
    overall = report["overall"]["overall"]
    assert overall["degenerate"] >= 15 and overall["unsupported"] >= 6
    assert report["overall"]["positions"][14]["accuracy_raw"] is None
    digests = [
        hashlib.sha256(text.encode()).hexdigest()
        for text in (json.dumps(report, indent=2), report_to_csv(report))
    ]
    assert digests == [
        "543164fd07ca748cab739c196acbfc944b71039bb069c1a88619d982bd176eab",
        "d9592f223282b4236a173dcbd4be6a050613572b10b181e14d435eb1c5cfc455",
    ]


def test_file_under_two_labels_counts_under_each(tmp_path):
    ds = build_reference(synth_patches(seed=73, count=4), q1_max=6, k=15)
    m3 = constant_table(3)
    (tmp_path / "a.jpg").write_bytes(
        corpus.double_compress_file(synth_patches(seed=74, count=1)[0], m3, constant_table(2))
    )
    corpus.write_manifest(
        tmp_path, [("a.jpg", "A", 0, 0, m3), ("a.jpg", "B", 0, 0, m3)], "one file, two labels"
    )
    report = corpus.evaluate_corpus(tmp_path, ds, EstimationParams(q1_max=6))
    assert report["images"] == 2
    a, b = (report["labels"][label]["overall"] for label in "AB")
    assert a == b and a["total"] == 15
    assert report["overall"]["overall"]["total"] == 30
