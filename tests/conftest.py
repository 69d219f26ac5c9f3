"""Shared fixtures: synthetic raw patches, PGM helpers and a dataset mutation.

The synthetic generator mixes smooth gradients, low-frequency cosine blobs,
band-limited noise, and occasional hard edges so that patch statistics are
diverse: reference datasets and test corpora drawn from it behave like
crops of real photographs for retrieval purposes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from fqe.types import GrayImage


def synth_patch(rng: np.random.Generator, side: int = 64) -> GrayImage:
    yy, xx = np.mgrid[0:side, 0:side] / side
    img = np.full((side, side), rng.uniform(40.0, 215.0))
    img += rng.normal(0, 60) * (xx - 0.5) + rng.normal(0, 60) * (yy - 0.5)
    for _ in range(int(rng.integers(1, 4))):
        fx, fy = rng.uniform(0.5, 6.0, 2)
        px, py = rng.uniform(0, 2 * np.pi, 2)
        img += rng.uniform(5, 35) * np.cos(2 * np.pi * fx * xx + px) * np.cos(
            2 * np.pi * fy * yy + py
        )
    noise = rng.normal(0, 1, (side, side))
    for _ in range(int(rng.integers(0, 3))):
        noise = (
            noise
            + np.roll(noise, 1, 0)
            + np.roll(noise, 1, 1)
            + np.roll(noise, -1, 0)
            + np.roll(noise, -1, 1)
        ) / 5.0
    img += noise * rng.uniform(2, 25)
    if rng.random() < 0.3:
        pos = int(rng.integers(side // 4, 3 * side // 4))
        step = rng.uniform(-50, 50)
        if rng.random() < 0.5:
            img[:, pos:] += step
        else:
            img[pos:, :] += step
    return GrayImage(np.clip(img, 0, 255).astype(np.uint8))


def synth_patches(seed: int, count: int, side: int = 64) -> list[GrayImage]:
    rng = np.random.default_rng(seed)
    return [synth_patch(rng, side) for _ in range(count)]


def write_pgm(img: GrayImage) -> bytes:
    header = f"P5\n{img.width} {img.height}\n255\n".encode()
    return header + img.pixels.tobytes()


def first_block(blob: bytes) -> dict[str, int]:
    """Where each column of q1 1's block starts in an FQE5 dataset file, with
    the block's record and bin totals and the byte width of its counts.

    The block holds the keys (f8) of its records, the values of its i2
    sections, the support lengths and bin counts (u1 when the header's patch
    side gives at most 255 blocks, else u2), then the values of its i1
    sections. The footer gives each section's records, bins and value width.
    """
    q1_max, side = blob[6], struct.unpack_from("<H", blob, 8)[0]
    n_sections = 2 * q1_max**2
    footer = len(blob) - 4 - 13 * n_sections
    records = np.frombuffer(blob, "<u4", 2 * q1_max, footer)
    bins = np.frombuffer(blob, "<u8", 2 * q1_max, footer + 4 * n_sections).astype(np.int64)
    widths = np.frombuffer(blob, "u1", 2 * q1_max, footer + 12 * n_sections)
    at = {"width": 1 if (side // 8) ** 2 <= 255 else 2}
    at["records"], at["bins"] = int(records.sum()), int(bins.sum())
    at["keys"] = 32
    at["wide"] = at["keys"] + 8 * at["records"]
    at["lengths"] = at["wide"] + 2 * int(bins[widths == 2].sum())
    at["counts"] = at["lengths"] + at["width"] * at["records"]
    at["narrow"] = at["counts"] + at["width"] * at["bins"]
    return at


def with_first_bin(blob: bytes, count: int) -> bytes:
    """An FQE5 dataset file with its first bin count set to count, under a fresh CRC."""
    at = first_block(blob)
    body = bytearray(blob[:-4])
    body[at["counts"] : at["counts"] + at["width"]] = count.to_bytes(at["width"], "little")
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
