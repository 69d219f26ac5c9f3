"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale retrieval
criteria (5 and 6) build a 500-patch reference dataset once per session;
expect a few minutes of wall time for the whole module.
"""

import time
import zlib

import numpy as np
import pytest

from fqe import dctsim, jpegio, refdata, estimator
from fqe.corpus import double_compress_file, evaluate_corpus, write_manifest
from fqe.estimator import OK, EstimationParams, raw_estimates, regularize
from fqe.refdata import build_reference, deserialize, serialize, DatasetFormatError
from fqe.stats import CoeffHistogram, build_histogram, fit_laplacian
from fqe.types import GrayImage, QuantTable

from conftest import synth_patches
from oracles import chi2, double_compress, fdct_block, idct_block, reg_term
from test_estimator import make_matrix


def report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion:>2} PASS: {text}")


# ---------------------------------------------------------------------------
# Criterion 1: cross-path bit-exactness
# ---------------------------------------------------------------------------


def test_criterion_1_cross_path_bit_exactness():
    patches = synth_patches(seed=9101, count=50)
    start = time.perf_counter()
    checked = 0
    for img in patches:
        for q1 in range(1, 9):
            t1 = dctsim.constant_table(q1)
            first = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, t1))
            pixels = dctsim.reconstruct(first.coeffs, first.luma_table)
            for q2 in range(1, 9):
                t2 = dctsim.constant_table(q2)
                parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(pixels, t2))
                simulated = double_compress(img, t1, t2)
                assert parsed.coeffs == simulated
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 50 * 64
    assert elapsed < 60.0, f"cross-path sweep took {elapsed:.1f}s (budget 60s)"
    report(1, f"{checked} (patch, q1, q2) combinations bit-exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: DCT oracle
# ---------------------------------------------------------------------------


def _definition_basis() -> np.ndarray:
    basis = np.zeros((8, 8, 8, 8))
    for u in range(8):
        for v in range(8):
            au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
            av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
            for x in range(8):
                for y in range(8):
                    basis[u, v, x, y] = (
                        au * av
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
    return basis


def test_criterion_2_dct_oracle():
    rng = np.random.default_rng(9202)
    basis = _definition_basis()
    max_fwd = max_inv = max_parseval = 0.0
    for _ in range(1000):
        block = rng.integers(0, 256, (8, 8))
        ours = fdct_block(block)
        shifted = block.astype(float) - 128.0
        oracle = np.einsum("uvxy,xy->uv", basis, shifted)
        max_fwd = max(max_fwd, float(np.abs(ours - oracle).max()))
        back = np.einsum("uvxy,uv->xy", basis, oracle) + 128.0
        ours_back = idct_block(ours)
        max_inv = max(max_inv, float(np.abs(ours_back - np.clip(dctsim.round_half_away(back), 0, 255)).max()))
        max_parseval = max(
            max_parseval, abs(float(np.linalg.norm(ours) - np.linalg.norm(shifted)))
        )
    assert max_fwd < 1e-9
    assert max_inv == 0.0
    assert max_parseval < 1e-6
    report(2, f"1000 blocks: fdct err {max_fwd:.2e}, Parseval err {max_parseval:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: exact-match consistency
# ---------------------------------------------------------------------------


def test_criterion_3_exact_match_consistency():
    # Pairs assign a distinguishable configuration (q2 = 1, q1 cycling):
    # with q2 close to q1 different first factors can yield literally
    # identical distributions, which no retrieval could separate.
    patches = synth_patches(seed=9301, count=100)
    ds = build_reference(patches, q1_max=8, k=15)
    params = EstimationParams(q1_max=8)
    correct = total = 0
    for idx, img in enumerate(patches):
        q1 = idx % 8 + 1
        data = double_compress_file(
            img, dctsim.constant_table(q1), dctsim.constant_table(1)
        )
        result = estimator.estimate(data, ds, params)
        for i in range(params.k):
            if result.distances.status[i] != OK:
                continue
            total += 1
            assert result.distances.d[i][q1 - 1] == 0.0, "self distance must be 0"
            if result.raw_estimates[i] == q1:
                correct += 1
    accuracy = correct / total
    assert accuracy == 1.0, f"accuracy {accuracy:.6f} (must be exactly 1.0)"
    report(3, f"{total} positions, accuracy 1.0 with zero self-distances")


# ---------------------------------------------------------------------------
# Criterion 4: standard-table reproduction
# ---------------------------------------------------------------------------


def test_criterion_4_standard_table():
    zz = dctsim.standard_table(90).to_zigzag()[:15]
    assert zz.tolist() == [3, 2, 2, 3, 2, 2, 3, 3, 3, 3, 4, 3, 3, 4, 5]
    assert zz.max() == 5
    report(4, f"QF=90 first 15 zig-zag factors {zz.tolist()}, max 5")


# ---------------------------------------------------------------------------
# Criteria 5 and 6: desk-scale accuracy trend and custom-table robustness
# ---------------------------------------------------------------------------

N_REFERENCE = 500
N_PER_CELL = 200


@pytest.fixture(scope="module")
def desk_dataset():
    patches = synth_patches(seed=9501, count=N_REFERENCE)
    start = time.perf_counter()
    ds = build_reference(patches, q1_max=22, k=15, jobs=2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800, f"dataset build took {elapsed:.0f}s (budget 30 min)"
    print(f"[acceptance] desk dataset: {N_REFERENCE} patches in {elapsed:.0f}s")
    return ds


@pytest.fixture(scope="module")
def test_patches():
    return synth_patches(seed=9601, count=N_PER_CELL)


def _evaluate_cell(corpus, ds, images, q1_tables, q2_table) -> dict:
    """Pooled accuracy over predictable positions, raw and regularized.

    Image idx is compressed first with q1_tables[idx % len(q1_tables)].
    """
    corpus.mkdir()
    rows = []
    for idx, img in enumerate(images):
        q1_table = q1_tables[idx % len(q1_tables)]
        name = f"img{idx:03d}.jpg"
        (corpus / name).write_bytes(double_compress_file(img, q1_table, q2_table))
        rows.append((name, f"t{idx % len(q1_tables)}", 0, 0, q1_table))
    write_manifest(corpus, rows, "acceptance cell")
    return evaluate_corpus(corpus, ds, EstimationParams())["overall"]["overall"]


def test_criterion_5_desk_scale_accuracy(tmp_path, desk_dataset, test_patches):
    q2_table = dctsim.standard_table(90)
    start = time.perf_counter()
    cells = {}
    for qf1 in (60, 70, 80, 90):
        cells[qf1] = _evaluate_cell(
            tmp_path / f"qf{qf1}", desk_dataset, test_patches, [dctsim.standard_table(qf1)],
            q2_table,
        )
    elapsed = time.perf_counter() - start
    for qf1, cell in cells.items():
        print(
            f"[acceptance] QF1={qf1}/QF2=90: raw={cell['accuracy_raw']:.3f} "
            f"reg={cell['accuracy_reg']:.3f} predictable={cell['predictable']}"
        )
    assert elapsed < 600, f"evaluation took {elapsed:.0f}s (budget 10 min)"
    for qf1 in (60, 70, 80):
        assert cells[qf1]["accuracy_reg"] >= 0.55, (
            f"QF1={qf1} regularized accuracy {cells[qf1]['accuracy_reg']:.3f} < 0.55"
        )
    mean_raw = float(np.mean([c["accuracy_raw"] for c in cells.values()]))
    mean_reg = float(np.mean([c["accuracy_reg"] for c in cells.values()]))
    assert mean_reg >= mean_raw - 0.02, f"reg mean {mean_reg:.3f} < raw mean {mean_raw:.3f} - 0.02"
    worst = min(cells, key=lambda qf: cells[qf]["accuracy_reg"])
    assert worst == 90, f"worst cell is QF1={worst}, expected the q1~q2 cell 90"
    report(
        5,
        f"cells 60/70/80/90: reg "
        + "/".join(f"{cells[q]['accuracy_reg']:.2f}" for q in (60, 70, 80, 90))
        + f", means raw={mean_raw:.3f} reg={mean_reg:.3f}, eval {elapsed:.0f}s",
    )


def _custom_tables(seed: int = 9701) -> list[QuantTable]:
    """Non-standard tables of QF1=70 magnitude with factors capped at 22."""
    rng = np.random.default_rng(seed)
    base = dctsim.standard_table(70).factors
    tables = []
    for _ in range(4):
        jitter = rng.integers(-2, 3, 64)
        tables.append(QuantTable(np.clip(base + jitter, 1, 22)))
    return tables


def test_criterion_6_custom_table_robustness(tmp_path, desk_dataset, test_patches):
    q2_table = dctsim.standard_table(90)
    custom = _evaluate_cell(
        tmp_path / "custom", desk_dataset, test_patches, _custom_tables(), q2_table
    )
    standard = _evaluate_cell(
        tmp_path / "qf70", desk_dataset, test_patches, [dctsim.standard_table(70)], q2_table
    )
    gap = abs(custom["accuracy_reg"] - standard["accuracy_reg"])
    print(
        f"[acceptance] custom tables: reg={custom['accuracy_reg']:.3f} "
        f"vs QF1=70 reg={standard['accuracy_reg']:.3f} (gap {gap:.3f})"
    )
    assert gap <= 0.10, f"custom-vs-standard accuracy gap {gap:.3f} > 0.10"
    report(6, f"custom {custom['accuracy_reg']:.3f} vs standard {standard['accuracy_reg']:.3f}")


# ---------------------------------------------------------------------------
# Criterion 7: regularization unit behavior
# ---------------------------------------------------------------------------


def test_criterion_7_regularization_units():
    rng = np.random.default_rng(9702)
    for _ in range(100):
        k, m = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        rows = rng.uniform(0.2, 1.0, (k, m))
        rows[np.arange(k), rng.integers(0, m, k)] = rng.uniform(0, 0.05, k)
        dm = make_matrix(rows.tolist())
        p = EstimationParams(w=1.0, q1_max=m)
        assert regularize(dm, p) == raw_estimates(dm)

    assert reg_term(4, 4, 4, "reg1") == 0.0
    assert reg_term(4, 4, 4, "reg2") == 0.0
    assert reg_term(4, 4, 4, "reg3") == 0.0
    assert reg_term(2, 4, 6, "reg3") == 0.5

    trials = 0
    for _ in range(100):
        k, m = int(rng.integers(3, 10)), int(rng.integers(2, 9))
        dm = make_matrix(rng.uniform(0.01, 1.0, (k, m)).tolist())
        p = EstimationParams(w=float(rng.uniform(0.5, 1.0)), q1_max=m)
        base = regularize(dm, p)
        scales = rng.uniform(0.01, 1000.0, k)
        scaled = make_matrix((dm.d * scales[:, None]).tolist())
        assert regularize(scaled, p) == base
        trials += 1
    assert trials == 100
    report(7, "w=1 equals raw, reg_term examples exact, 100 scale-invariance trials")


# ---------------------------------------------------------------------------
# Criterion 8: degenerate handling
# ---------------------------------------------------------------------------


def test_criterion_8_degenerate_handling(tmp_path):
    ds = build_reference(synth_patches(seed=9801, count=10), q1_max=6, k=15)
    blob = serialize(ds)
    ds_file = tmp_path / "ref.fqe"
    ds_file.write_bytes(blob)

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    flat = GrayImage(np.full((64, 64), 77, dtype=np.uint8))
    textured = synth_patches(seed=9802, count=1)[0]
    m6, m2 = dctsim.constant_table(6), dctsim.constant_table(2)
    for name, img in [("flat.jpg", flat), ("textured.jpg", textured)]:
        (corpus / name).write_bytes(double_compress_file(img, m6, m2))
    write_manifest(
        corpus,
        [("flat.jpg", "m6", 0, 0, m6), ("textured.jpg", "m6", 0, 0, m6)],
        "flat and textured",
    )

    result = estimator.estimate(
        (corpus / "flat.jpg").read_bytes(), ds, EstimationParams(q1_max=6)
    )
    assert result.distances.status == ["degenerate"] * 15

    report_data = evaluate_corpus(corpus, ds, EstimationParams(q1_max=6), jobs=1)
    section = report_data["labels"]["m6"]
    for row in section["positions"]:
        assert row["degenerate"] >= 1  # the flat image at every position
        assert row["predictable"] + row["degenerate"] + row["unsupported"] == row["total"]
        assert row["degenerate_pct"] == row["degenerate"] / row["total"]
    assert section["overall"]["degenerate"] == 15  # all flat positions excluded

    # A corpus of only degenerate images: accuracy undefined, 100% excluded.
    flat_corpus = tmp_path / "flat_only"
    flat_corpus.mkdir()
    (flat_corpus / "flat.jpg").write_bytes(double_compress_file(flat, m6, m2))
    write_manifest(flat_corpus, [("flat.jpg", "m6", 0, 0, m6)], "flat only")
    flat_report = evaluate_corpus(flat_corpus, ds, EstimationParams(q1_max=6), jobs=1)
    overall = flat_report["labels"]["m6"]["overall"]
    assert overall["accuracy_raw"] is None and overall["accuracy_reg"] is None
    assert overall["degenerate_pct"] == 1.0
    report(8, "flat image 100% degenerate, exclusions reported per position")


# ---------------------------------------------------------------------------
# Criterion 9: chi-square and Laplacian properties
# ---------------------------------------------------------------------------


def _random_hist(rng) -> CoeffHistogram:
    size = int(rng.integers(1, 24))
    support = np.sort(rng.choice(np.arange(-60, 61), size=size, replace=False))
    mass = rng.random(size) + 1e-4
    mass /= mass.sum()
    return CoeffHistogram(support=support, mass=mass, count=64)


def test_criterion_9_chi2_and_laplacian_properties():
    rng = np.random.default_rng(9901)
    for _ in range(1000):
        a, b = _random_hist(rng), _random_hist(rng)
        d = chi2(a, b)
        assert d == chi2(b, a)
        assert d >= 0.0
        assert chi2(a, a) == 0.0
    for _ in range(1000):
        h = _random_hist(rng)
        params = fit_laplacian(h)
        costs = [float(np.sum(h.mass * np.abs(h.support - mu))) for mu in h.support]
        best = float(h.support[int(np.argmin(costs))])
        assert params.mu == best
        assert abs(params.beta - min(costs)) <= 1e-12
    report(9, "1000 chi2 pairs symmetric/nonnegative/identical, 1000 fits match brute force")


# ---------------------------------------------------------------------------
# Criterion 10: dataset format
# ---------------------------------------------------------------------------


def test_criterion_10_dataset_format():
    ds = build_reference(synth_patches(seed=9111, count=8), q1_max=5, k=15)
    blob = serialize(ds)
    assert serialize(deserialize(blob)) == blob
    rng = np.random.default_rng(9112)
    detected = 0
    for _ in range(100):
        mutated = bytearray(blob)
        pos = int(rng.integers(0, len(mutated)))
        mutated[pos] ^= int(rng.integers(1, 256))
        try:
            deserialize(bytes(mutated))
        except DatasetFormatError:
            detected += 1
    assert detected == 100, f"only {detected}/100 corruptions detected"
    report(10, f"byte-exact round trip; {detected}/100 fuzzed mutations detected")
