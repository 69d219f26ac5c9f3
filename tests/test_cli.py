"""CLI surface tests: build, estimate, make-corpus, evaluate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from fqe import cli
from fqe.cli import main
from fqe.corpus import read_table_file
from fqe.estimator import (
    OK,
    DistanceMatrix,
    EstimationParams,
    EstimationResult,
    raw_estimates,
    regularize,
)

from conftest import synth_patches, write_pgm


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def raw_dir(tmp_path):
    out = tmp_path / "raw"
    out.mkdir()
    for i, img in enumerate(synth_patches(seed=41, count=6, side=72)):
        (out / f"img{i:02d}.pgm").write_bytes(write_pgm(img))
    return out


@pytest.fixture
def dataset_file(tmp_path, raw_dir, runner):
    out = tmp_path / "ref.fqe"
    result = runner.invoke(
        main,
        ["build", "--raw-dir", str(raw_dir), "--out", str(out), "--q1-max", "6", "--jobs", "1"],
    )
    assert result.exit_code == 0, result.output
    return out


def make_corpus(runner, raw_dir, out_dir, *extra):
    args = [
        "make-corpus",
        "--raw-dir", str(raw_dir),
        "--out-dir", str(out_dir),
        "--qf2", "90",
        *extra,
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out_dir


class TestBuild:
    def test_counts_and_determinism(self, tmp_path, raw_dir, runner):
        out1 = tmp_path / "a.fqe"
        out2 = tmp_path / "b.fqe"
        for out, jobs in ((out1, "1"), (out2, "2")):
            result = runner.invoke(
                main,
                [
                    "build", "--raw-dir", str(raw_dir), "--out", str(out),
                    "--q1-max", "4", "--k", "15", "--jobs", jobs,
                ],
            )
            assert result.exit_code == 0, result.output
            assert "double compressions" in result.output
        # byte-identical regardless of worker count
        assert out1.read_bytes() == out2.read_bytes()

    def test_cardinality_line(self, tmp_path, raw_dir, runner):
        out = tmp_path / "c.fqe"
        result = runner.invoke(
            main,
            [
                "build", "--raw-dir", str(raw_dir), "--out", str(out), "--q1-max", "4",
                "--jobs", "1", "--verbose",
            ],
        )
        assert f"{6 * 4 * 4} double compressions" in result.output
        # one count line per sub-dataset
        assert sum(1 for line in result.output.splitlines() if line.startswith("q1=")) == 16

    def test_default_summary(self, tmp_path, raw_dir, runner):
        out = tmp_path / "s.fqe"
        flat = tmp_path / "flat"
        flat.mkdir()
        # A flat patch adds no records: with it alone, every sub-dataset is empty.
        (flat / "flat.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes([128]) * 4096)
        for src, q1_max in ((raw_dir, 4), (flat, 3)):
            result = runner.invoke(
                main,
                [
                    "build", "--raw-dir", str(src), "--out", str(out),
                    "--q1-max", str(q1_max), "--jobs", "1",
                ],
            )
            assert result.exit_code == 0, result.output
            assert not any(line.startswith("q1=") for line in result.output.splitlines())
            ds = cli.deserialize(out.read_bytes())
            counts = [len(sub.dc) + len(sub.ac) for sub in ds.subs.values()]
            n_dc = sum(len(sub.dc) for sub in ds.subs.values())
            n_ac = sum(len(sub.ac) for sub in ds.subs.values())
            lines = result.output.splitlines()
            assert lines[-2].endswith(f"{n_dc} DC + {n_ac} AC records")
            assert lines[-1] == (
                f"records per sub-dataset: min {min(counts)}, "
                f"median {np.median(counts):g}, max {max(counts)}; "
                f"{counts.count(0)} of {q1_max * q1_max} empty"
            )
        assert lines[-1] == "records per sub-dataset: min 0, median 0, max 0; 9 of 9 empty"

    def test_all_unreadable_fails(self, tmp_path, runner):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "x.pgm").write_bytes(b"not a pgm")
        result = runner.invoke(
            main, ["build", "--raw-dir", str(bad), "--out", str(tmp_path / "o"), "--jobs", "1"]
        )
        assert result.exit_code != 0
        assert "skipping" in result.output

    @pytest.mark.parametrize(
        "flag, value",
        [("--q1-max", "0"), ("--q1-max", "256"), ("--k", "1"), ("--k", "65"),
         ("--patch", "60"), ("--patch", "0"), ("--patch", "2048"),
         ("--jobs", "0"), ("--jobs", "-3")],
    )
    def test_bad_arguments_are_usage_errors(self, tmp_path, runner, flag, value):
        # The raw directory is empty: exit 2 rather than 1 ("no usable PGM
        # images") shows the argument was rejected before it was read.
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "o.fqe"
        result = runner.invoke(
            main, ["build", "--raw-dir", str(empty), "--out", str(out), flag, value]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{flag}'" in result.output
        assert not out.exists()

    def test_bad_env_jobs_reported_before_reading(self, tmp_path, runner, monkeypatch):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "x.pgm").write_bytes(b"not a pgm")
        monkeypatch.setenv("FQE_JOBS", "0")
        result = runner.invoke(main, ["build", "--raw-dir", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "job count must be at least 1" in result.output
        assert "skipping" not in result.output

    def test_env_overrides_jobs(self, tmp_path, raw_dir, runner, monkeypatch):
        monkeypatch.setenv("FQE_JOBS", "not-a-number")
        result = runner.invoke(
            main, ["build", "--raw-dir", str(raw_dir), "--out", str(tmp_path / "o"), "--jobs", "1"]
        )
        assert result.exit_code != 0
        assert "FQE_JOBS" in result.output


class TestMakeCorpus:
    def test_manifest_truth_qf90(self, tmp_path, raw_dir, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "corpus", "--qf1", "90")
        lines = (corpus / "manifest.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        truth = [int(row[f"q1_{i}"]) for i in range(1, 16)]
        assert truth == [3, 2, 2, 3, 2, 2, 3, 3, 3, 3, 4, 3, 3, 4, 5]

    def test_seed_reproducibility(self, tmp_path, raw_dir, runner):
        a = make_corpus(
            runner, raw_dir, tmp_path / "a", "--qf1", "80", "--crop", "random", "--seed", "7"
        )
        b = make_corpus(
            runner, raw_dir, tmp_path / "b", "--qf1", "80", "--crop", "random", "--seed", "7"
        )
        for path_a in sorted(a.iterdir()):
            assert path_a.read_bytes() == (b / path_a.name).read_bytes()

    def test_random_crop_requires_seed(self, tmp_path, raw_dir, runner):
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw_dir), "--out-dir", str(tmp_path / "x"),
                "--qf1", "80", "--qf2", "90", "--crop", "random",
            ],
        )
        assert result.exit_code != 0
        assert "--seed" in result.output

    def test_explicit_tables(self, tmp_path, raw_dir, runner):
        table_lines = "\n".join(" ".join("7" for _ in range(8)) for _ in range(8))
        table_file = tmp_path / "tables.txt"
        table_file.write_text(table_lines + "\n")
        corpus = make_corpus(runner, raw_dir, tmp_path / "tbl", "--tables", str(table_file))
        lines = (corpus / "manifest.csv").read_text().splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            assert [int(row[f"q1_{i}"]) for i in range(1, 16)] == [7] * 15
            assert row["label"] == "tbl00"

    def test_qf1_and_tables_exclusive(self, tmp_path, raw_dir, runner):
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw_dir), "--out-dir", str(tmp_path / "x"),
                "--qf1", "80", "--tables", "missing.txt", "--qf2", "90",
            ],
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize("qf2", ["0", "101"])
    def test_qf2_out_of_range_is_usage_error(self, tmp_path, raw_dir, runner, qf2):
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw_dir), "--out-dir", str(tmp_path / "x"),
                "--qf1", "80", "--qf2", qf2,
            ],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--qf2'" in result.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "qf1, message",
        [("0", "0 is not in the range"), ("80,101", "101 is not in the range"),
         ("x", "'x' is not a valid integer")],
    )
    def test_bad_qf1_is_usage_error(self, tmp_path, runner, qf1, message):
        # Rejected before the raw directory is read: it holds no PGM.
        raw = tmp_path / "raw"
        raw.mkdir()
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw), "--out-dir", str(tmp_path / "x"),
                "--qf1", qf1, "--qf2", "90",
            ],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--qf1'" in result.output
        assert message in result.output
        assert not (tmp_path / "x").exists()

    def test_patch_zero_is_usage_error(self, tmp_path, raw_dir, runner):
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw_dir), "--out-dir", str(tmp_path / "x"),
                "--qf1", "80", "--qf2", "90", "--patch", "0",
            ],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--patch'" in result.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("crop", ["center", "random"])
    def test_patch_larger_than_image_names_the_file(self, tmp_path, runner, crop):
        raw = tmp_path / "raw"
        raw.mkdir()
        small = raw / "small.pgm"
        small.write_bytes(write_pgm(synth_patches(seed=42, count=1, side=32)[0]))
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw), "--out-dir", str(tmp_path / "x"),
                "--qf1", "80", "--qf2", "90", "--patch", "64", "--crop", crop, "--seed", "1",
            ],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {small}: --patch 64 exceeds the 32x32 image" in result.output

    def test_bad_pgm_names_the_file(self, tmp_path, runner):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "cut.pgm").write_bytes(b"P5\n4 4\n255\nab")
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw), "--out-dir", str(tmp_path / "x"),
                "--qf1", "80", "--qf2", "90",
            ],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {raw / 'cut.pgm'}: truncated PGM pixel data" in result.output

    def test_bad_pgm_sorted_last_leaves_no_corpus(self, tmp_path, runner):
        raw = tmp_path / "raw"
        raw.mkdir()
        for i, img in enumerate(synth_patches(seed=43, count=2, side=72)):
            (raw / f"a{i}.pgm").write_bytes(write_pgm(img))
        (raw / "b_cut.pgm").write_bytes(write_pgm(synth_patches(seed=44, count=1, side=72)[0])[:-9])
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            [
                "make-corpus", "--raw-dir", str(raw), "--out-dir", str(out),
                "--qf1", "80,90", "--qf2", "90",
            ],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {raw / 'b_cut.pgm'}: truncated PGM pixel data" in result.output
        assert not list(out.glob("*.jpg")) and not (out / "manifest.csv").exists()

    def test_table_file_parser(self):
        text = "\n".join(" ".join(str(r * 8 + c + 1) for c in range(8)) for r in range(8))
        tables = read_table_file(text)
        assert len(tables) == 1
        assert tables[0].factors.tolist() == list(range(1, 65))
        with pytest.raises(ValueError):
            read_table_file("1 2 3\n")
        with pytest.raises(ValueError):
            read_table_file("")


class TestEstimate:
    def test_json_defaults_echo(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "corpus", "--qf1", "90")
        image = next(p for p in sorted(corpus.iterdir()) if p.suffix == ".jpg")
        result = runner.invoke(
            main,
            ["estimate", "--image", str(image), "--dataset", str(dataset_file), "--n", "500"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["params"]["k"] == 15
        assert report["params"]["n_candidates"] == 500
        assert report["params"]["w"] == 0.92
        assert report["params"]["reg_variant"] == "reg3"
        assert len(report["positions"]) == 15
        for row in report["positions"]:
            assert set(row) == {
                "position", "q2", "status", "raw", "estimate",
                "raw_distance", "estimate_distance",
            }
            assert row["status"] in ("ok", "degenerate", "unsupported")
            if row["status"] == "ok":
                assert 1 <= row["estimate"] <= 6
                assert row["raw_distance"] >= 0.0

    def test_default_params_header(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "corpus2", "--qf1", "90")
        image = next(p for p in sorted(corpus.iterdir()) if p.suffix == ".jpg")
        result = runner.invoke(
            main,
            [
                "estimate", "--image", str(image), "--dataset", str(dataset_file),
                "--format", "csv",
            ],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "# k=15 n=1000 w=0.92 reg_variant=reg3 regularize=on"

    def test_no_reg_columns_equal(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "corpus3", "--qf1", "85")
        image = next(p for p in sorted(corpus.iterdir()) if p.suffix == ".jpg")
        result = runner.invoke(
            main,
            ["estimate", "--image", str(image), "--dataset", str(dataset_file), "--no-reg"],
        )
        report = json.loads(result.output)
        for row in report["positions"]:
            assert row["raw"] == row["estimate"]

    def test_parse_failure_exit_code(self, tmp_path, dataset_file, runner):
        bogus = tmp_path / "bogus.jpg"
        bogus.write_bytes(b"not a jpeg at all")
        result = runner.invoke(
            main, ["estimate", "--image", str(bogus), "--dataset", str(dataset_file)]
        )
        assert result.exit_code == cli.EXIT_PARSE_FAILURE

    def test_dataset_failure_exit_code(self, tmp_path, raw_dir, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "corpus4", "--qf1", "90")
        image = next(p for p in sorted(corpus.iterdir()) if p.suffix == ".jpg")
        broken = tmp_path / "broken.fqe"
        broken.write_bytes(b"FQE1 garbage garbage")
        result = runner.invoke(
            main, ["estimate", "--image", str(image), "--dataset", str(broken)]
        )
        assert result.exit_code == cli.EXIT_DATASET_FAILURE

    def test_unsupported_q2_exit_code(self, tmp_path, raw_dir, dataset_file, runner):
        # QF2=50 keeps every q2 factor above the tiny dataset's q1_max=6.
        corpus = make_corpus(
            runner, raw_dir, tmp_path / "corpus5", "--qf1", "90", "--qf2", "50"
        )
        image = next(p for p in sorted(corpus.iterdir()) if p.suffix == ".jpg")
        result = runner.invoke(
            main, ["estimate", "--image", str(image), "--dataset", str(dataset_file)]
        )
        assert result.exit_code == cli.EXIT_UNSUPPORTED_Q2

    def test_k_too_large_is_dataset_failure(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "corpus6", "--qf1", "90")
        image = next(p for p in sorted(corpus.iterdir()) if p.suffix == ".jpg")
        result = runner.invoke(
            main,
            ["estimate", "--image", str(image), "--dataset", str(dataset_file), "--k", "30"],
        )
        assert result.exit_code == cli.EXIT_DATASET_FAILURE

    @pytest.mark.parametrize(
        "flag, value",
        [("--k", "1"), ("--k", "80"), ("--n", "0"), ("--w", "1.5"), ("--w", "nan")],
    )
    def test_bad_arguments_are_usage_errors(self, tmp_path, runner, flag, value):
        # The dataset is unreadable: exit 2 rather than 3 shows the argument
        # was rejected before any file was read.
        image = tmp_path / "x.jpg"
        image.write_bytes(b"not a jpeg")
        broken = tmp_path / "broken.fqe"
        broken.write_bytes(b"not a dataset")
        result = runner.invoke(
            main, ["estimate", "--image", str(image), "--dataset", str(broken), flag, value]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{flag}'" in result.output

    def test_json_writes_null_for_a_distance_without_data(self):
        # The middle coefficient has data at q1 = 1 and 2 only; smoothness
        # still moves it to 22 with its neighbours, at an infinite distance.
        d = np.full((3, 22), 0.5)
        d[:, 21] = 0.1
        d[1] = np.inf
        d[1, :2] = 0.3
        dm = DistanceMatrix(d=d, status=[OK] * 3, q2=[1, 1, 1])
        params = EstimationParams(k=3)
        estimates = regularize(dm, params)
        assert estimates == [22, 22, 22]
        result = EstimationResult(estimates, raw_estimates(dm), dm, params)
        text = cli._format_estimate(result, "json")
        assert "Infinity" not in text
        rows = json.loads(text)["positions"]
        assert [(r["raw"], r["raw_distance"]) for r in rows] == [(22, 0.1), (1, 0.3), (22, 0.1)]
        assert [r["estimate_distance"] for r in rows] == [0.1, None, 0.1]


class TestEvaluate:
    def test_self_retrieval_corpus(self, tmp_path, raw_dir, dataset_file, runner):
        # Constant Q1 = M_6 on the dataset's own source patches with QF2=90
        # (all q2 factors below 6): every usable position must be recovered
        # exactly. q1 <= q2 positions would tie with smaller candidates.
        table_file = tmp_path / "m6.txt"
        table_file.write_text("\n".join(" ".join("6" for _ in range(8)) for _ in range(8)))
        corpus = make_corpus(runner, raw_dir, tmp_path / "selfcorpus", "--tables", str(table_file))
        out_dir = tmp_path / "report"
        result = runner.invoke(
            main,
            [
                "evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file),
                "--out-dir", str(out_dir), "--jobs", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        overall = report["labels"]["tbl00"]["overall"]
        assert overall["accuracy_raw"] == 1.0
        assert overall["accuracy_reg"] == 1.0
        assert (out_dir / "report.csv").exists()

    def test_bookkeeping_reconciles(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "bk", "--qf1", "85,90")
        out_dir = tmp_path / "bkrep"
        result = runner.invoke(
            main,
            [
                "evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file),
                "--out-dir", str(out_dir), "--jobs", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["labels"]) == {"qf85", "qf90"}
        for section in report["labels"].values():
            for row in section["positions"]:
                assert row["degenerate"] + row["unsupported"] + row["predictable"] == row["total"]
                assert row["total"] == 6

    def test_single_image_matches_batch(self, tmp_path, raw_dir, dataset_file, runner):
        # A one-image corpus: the estimate command and the evaluate command
        # share one code path, so per-position correctness must agree row
        # for row.
        solo_raw = tmp_path / "solo_raw"
        solo_raw.mkdir()
        src = next(p for p in sorted(raw_dir.iterdir()))
        (solo_raw / src.name).write_bytes(src.read_bytes())
        corpus = make_corpus(runner, solo_raw, tmp_path / "match", "--qf1", "80")
        out_dir = tmp_path / "matchrep"
        result = runner.invoke(
            main,
            [
                "evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file),
                "--out-dir", str(out_dir), "--jobs", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        manifest = (corpus / "manifest.csv").read_text().splitlines()
        header = manifest[1].split(",")
        first = dict(zip(header, manifest[2].split(",")))
        single = runner.invoke(
            main,
            [
                "estimate", "--image", str(corpus / first["filename"]),
                "--dataset", str(dataset_file),
            ],
        )
        single_report = json.loads(single.output)
        truths = [int(first[f"q1_{i}"]) for i in range(1, 16)]
        batch_rows = {
            row["position"]: row for row in report["labels"]["qf80"]["positions"]
        }
        for row, truth in zip(single_report["positions"], truths):
            batch = batch_rows[row["position"]]
            if row["status"] == "ok":
                assert batch["predictable"] == 1
                assert batch["correct_reg"] == int(row["estimate"] == truth)
                assert batch["correct_raw"] == int(row["raw"] == truth)
            else:
                assert batch["predictable"] == 0

    def test_parallel_evaluate_matches_sequential(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "par", "--qf1", "75")
        reports = []
        for name, jobs in (("seq", "1"), ("par", "2")):
            out_dir = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file),
                    "--out-dir", str(out_dir), "--jobs", jobs,
                ],
            )
            assert result.exit_code == 0, result.output
            reports.append((out_dir / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_parallel_evaluate_under_spawn(self, tmp_path, raw_dir, dataset_file, runner):
        # Workers started by spawn import fqe afresh and inherit no state
        # from the parent, so the pool must hand them everything they use.
        corpus = make_corpus(runner, raw_dir, tmp_path / "spawn", "--qf1", "75")
        script = (
            "import json, multiprocessing, sys\n"
            "from pathlib import Path\n"
            "from fqe.corpus import evaluate_corpus\n"
            "from fqe.estimator import EstimationParams\n"
            "from fqe.refdata import deserialize\n"
            "multiprocessing.set_start_method('spawn')\n"
            "ds = deserialize(Path(sys.argv[1]).read_bytes())\n"
            "params = EstimationParams(q1_max=ds.q1_max)\n"
            "reports = [evaluate_corpus(Path(sys.argv[2]), ds, params, jobs=j) for j in (1, 2)]\n"
            "print(json.dumps(reports[0] == reports[1]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(dataset_file), str(corpus)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "true"

    def test_missing_file_in_manifest(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "mm", "--qf1", "80")
        victim = next(p for p in corpus.iterdir() if p.suffix == ".jpg")
        victim.unlink()
        result = runner.invoke(
            main,
            ["evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file), "--jobs", "1"],
        )
        assert result.exit_code != 0
        assert "missing" in result.output

    def test_empty_corpus(self, tmp_path, dataset_file, runner):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.csv").write_text(
            "filename,label,crop_x,crop_y," + ",".join(f"q1_{i}" for i in range(1, 16)) + "\n"
        )
        result = runner.invoke(
            main,
            ["evaluate", "--corpus-dir", str(empty), "--dataset", str(dataset_file), "--jobs", "1"],
        )
        assert result.exit_code != 0
        assert "no images" in result.output

    @pytest.mark.parametrize("factors", ["3,3", ",".join(["3"] * 14 + ["x"])])
    def test_bad_manifest_row_names_the_row(
        self, tmp_path, raw_dir, dataset_file, runner, factors
    ):
        corpus = make_corpus(runner, raw_dir, tmp_path / "short", "--qf1", "80")
        manifest = corpus / "manifest.csv"
        lines = manifest.read_text().splitlines()
        name = lines[3].split(",")[0]
        lines[3] = f"{name},qf80,0,0,{factors}"
        manifest.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file),
             "--out-dir", str(tmp_path / "rep"), "--jobs", "1"],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: manifest {manifest} row 2 ({name}): needs 15 integer q1 factors" in (
            result.output
        )
        assert not (tmp_path / "rep").exists()

    def test_report_deterministic(self, tmp_path, raw_dir, dataset_file, runner):
        corpus = make_corpus(runner, raw_dir, tmp_path / "det", "--qf1", "75")
        outputs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "evaluate", "--corpus-dir", str(corpus), "--dataset", str(dataset_file),
                    "--out-dir", str(out_dir), "--jobs", "1",
                ],
            )
            assert result.exit_code == 0
            outputs.append(
                (out_dir / "report.json").read_bytes() + (out_dir / "report.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag, value",
        [("--k", "1"), ("--k", "80"), ("--n", "0"), ("--w", "1.5"), ("--w", "nan"),
         ("--jobs", "0"), ("--jobs", "-3")],
    )
    def test_bad_arguments_are_usage_errors(self, tmp_path, runner, flag, value):
        broken = tmp_path / "broken.fqe"
        broken.write_bytes(b"not a dataset")
        out_dir = tmp_path / "reports"
        result = runner.invoke(
            main,
            [
                "evaluate", "--corpus-dir", str(tmp_path), "--dataset", str(broken),
                "--out-dir", str(out_dir), flag, value,
            ],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{flag}'" in result.output
        assert not out_dir.exists()

    def test_bad_env_jobs_reported_before_reading(self, tmp_path, runner, monkeypatch):
        broken = tmp_path / "broken.fqe"
        broken.write_bytes(b"not a dataset")
        monkeypatch.setenv("FQE_JOBS", "0")
        result = runner.invoke(
            main, ["evaluate", "--corpus-dir", str(tmp_path), "--dataset", str(broken)]
        )
        assert result.exit_code == 1
        assert "job count must be at least 1" in result.output
        assert "checksum" not in result.output
