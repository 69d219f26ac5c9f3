"""Benchmark inputs: synthetic patches, double-compressed images, datasets.

All of this runs in the harness process, before the measured process
starts, so set-up time and peak memory count only the program's own work.
Patches come from `synth_patches` in tests/conftest.py; images are
double-compressed through the file path with the public encoder, parser
and reconstruction. Reference datasets are built from a fixed seed and
cached under the cache directory, keyed by the program's source digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"

# The reference datasets are fixed assets, like a shipped dataset file; the
# per-run inputs (build patches, query images) come from --seed.
DATASET_SEED = 9501
QF2 = 90
STANDARD_QF1 = (60, 70, 80, 90)

SIZES = {
    "full": {
        "q1_max": 22,
        "k": 15,
        "n": 1000,
        "build_round_patches": 4,
        "build_distinct_patches": 64,
        "build_min_rounds": 2,
        "eval_dataset_patches": 100,
        "eval_images": 96,
        "eval_min_samples": 100,
        "cold_dataset_patches": 16,
        "cold_images": 4,
        "cold_side": 1024,
        "cold_min_samples": 2,
        "processes": 3,
    },
    "toy": {
        "q1_max": 4,
        "k": 15,
        "n": 1000,
        "build_round_patches": 2,
        "build_distinct_patches": 4,
        "build_min_rounds": 1,
        "eval_dataset_patches": 4,
        "eval_images": 5,
        "eval_min_samples": 5,
        "cold_dataset_patches": 3,
        "cold_images": 1,
        "cold_side": 128,
        "cold_min_samples": 1,
        "processes": 2,
    },
}


def load_conftest():
    """tests/conftest.py as a module, for its synthetic patch generator."""
    spec = importlib.util.spec_from_file_location("fqe_tests_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def source_digest() -> str:
    """sha256 over the program's sources and the patch generator."""
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    for path in files + [CONFTEST]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cache_key(*parts) -> str:
    """Key of a cached input: the program's sources, this generator, parts."""
    h = hashlib.sha256(source_digest().encode())
    h.update(Path(__file__).read_bytes())
    h.update(repr(parts).encode())
    return h.hexdigest()[:16]


def custom_tables(rng: np.random.Generator, count: int = 4):
    """Criterion-6 style tables: QF1=70 jittered by +-2, factors capped at 22."""
    from fqe import QuantTable, standard_table

    base = standard_table(70).factors
    return [
        QuantTable(np.clip(base + rng.integers(-2, 3, 64), 1, 22)) for _ in range(count)
    ]


def first_tables(seed: int, count: int):
    """(label, table) per image: QF1 in {60, 70, 80, 90} or a custom table."""
    from fqe import standard_table

    custom = custom_tables(np.random.default_rng([seed, 6]))
    out = []
    for i in range(count):
        slot = i % (len(STANDARD_QF1) + 1)
        if slot < len(STANDARD_QF1):
            qf = STANDARD_QF1[slot]
            out.append((f"qf{qf}", standard_table(qf)))
        else:
            j = (i // (len(STANDARD_QF1) + 1)) % len(custom)
            out.append((f"custom{j}", custom[j]))
    return out


def double_compress(patch, q1_table, q2_table) -> bytes:
    """File-path double compression: encode, decode to pixels, encode again."""
    from fqe import encode_baseline_gray, parse_jpeg, reconstruct

    first = parse_jpeg(encode_baseline_gray(patch, q1_table))
    return encode_baseline_gray(reconstruct(first.coeffs, first.luma_table), q2_table)


def tiled(seed: int, count: int, side: int):
    """count images of side x side, each a mosaic of 64x64 synthetic patches.

    A mosaic mixes the content of many patches, so images from different
    seeds cost about the same to parse and estimate, as photos of one size do.
    """
    from fqe import GrayImage

    per_side = side // 64
    patches = load_conftest().synth_patches(seed, count * per_side * per_side)
    images = []
    for i in range(count):
        tiles = [p.pixels for p in patches[i * per_side**2 : (i + 1) * per_side**2]]
        rows = [np.hstack(tiles[r * per_side : (r + 1) * per_side]) for r in range(per_side)]
        images.append(GrayImage(np.vstack(rows)))
    return images


def write_images(out_dir: Path, seed: int, count: int, side: int, k: int) -> None:
    """Double-compressed images and a manifest with their ground truth."""
    from fqe import standard_table

    images = tiled(seed, count, side)
    q2_table = standard_table(QF2)
    entries = []
    for i, (image, (label, q1_table)) in enumerate(zip(images, first_tables(seed, count))):
        name = f"img{i:03d}.jpg"
        (out_dir / name).write_bytes(double_compress(image, q1_table, q2_table))
        truth = [int(v) for v in q1_table.to_zigzag()[:k]]
        entries.append({"file": name, "label": label, "truth": truth})
    manifest = {"seed": seed, "side": side, "images": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def write_patches(path: Path, seed: int, count: int) -> None:
    patches = load_conftest().synth_patches(seed, count)
    np.save(path, np.stack([p.pixels for p in patches]))


def dataset(cache_dir: Path, patches: int, q1_max: int, k: int) -> Path:
    """Path of the fixed-seed reference dataset, built once per source digest."""
    from fqe import build_reference, serialize

    key = cache_key(DATASET_SEED, patches, q1_max, k)
    path = cache_dir / f"dataset-{patches}p-q{q1_max}-k{k}-{key}.fqe"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        raw = load_conftest().synth_patches(DATASET_SEED, patches)
        blob = serialize(build_reference(raw, q1_max=q1_max, k=k, jobs=os.cpu_count()))
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    return path


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
