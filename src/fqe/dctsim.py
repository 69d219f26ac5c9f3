"""DCT-domain JPEG compression simulation.

Single and double compression are reproduced exactly in the coefficient
domain: forward DCT, quantization with round-half-away-from-zero, and the
pixel reconstruction (dequantize, inverse DCT, round, clamp) whose rounding
and truncation error is what the second compression actually sees. The same
quantizer drives the file encoder in jpegio, so the simulated and file-based
pipelines agree coefficient for coefficient.
"""

from __future__ import annotations

import numpy as np

from .types import NATURAL_TO_ZIGZAG, ZIGZAG_TO_NATURAL, CoeffGrid, GrayImage, QuantTable

# Annex K.1 luminance table, row-major.
BASE_LUMINANCE_TABLE = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)


def _dct_matrix() -> np.ndarray:
    n = 8
    m = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        alpha = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
        for x in range(n):
            m[u, x] = alpha * np.cos((2 * x + 1) * u * np.pi / (2 * n))
    return m


_DCT = _dct_matrix()
_DCT_T = _DCT.T


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero: np.sign(x) * np.floor(np.abs(x) + 0.5)."""
    out = np.abs(x, dtype=np.float64)
    out += 0.5
    return np.copysign(np.floor(out, out=out), x, out=out, where=x != 0)


def blockify(pixels: np.ndarray) -> np.ndarray:
    """The 8x8 blocks of a pixel array in raster order, as (n, 8, 8) float64."""
    h, w = pixels.shape
    if h % 8 or w % 8:
        raise ValueError(f"image dimensions {w}x{h} are not multiples of 8")
    a = pixels.reshape(h // 8, 8, w // 8, 8)
    return a.transpose(0, 2, 1, 3).reshape(-1, 8, 8).astype(np.float64)


def _unblock(blocks: np.ndarray, width: int, height: int) -> np.ndarray:
    a = blocks.reshape(height // 8, width // 8, 8, 8)
    return a.transpose(0, 2, 1, 3).reshape(height, width)


def fdct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Forward 8x8 DCT of each pixel block, after the -128 level shift."""
    return _DCT @ (blocks - 128.0) @ _DCT_T


def quantize_blocks(coeff_blocks: np.ndarray, table: QuantTable) -> np.ndarray:
    """Divide by the table and round half away from zero; (n, 64) zig-zag int32 output."""
    flat = coeff_blocks.reshape(-1, 64)
    q = round_half_away(flat / table.factors)
    return q[:, ZIGZAG_TO_NATURAL].astype(np.int32)


def dequantize_blocks(zz_values: np.ndarray, table: QuantTable) -> np.ndarray:
    """Multiply zig-zag values by the table; (n, 8, 8) natural-order output."""
    natural = np.asarray(zz_values, dtype=np.float64)[:, NATURAL_TO_ZIGZAG]
    return (natural * table.factors).reshape(-1, 8, 8)


def idct_blocks(coeff_blocks: np.ndarray) -> np.ndarray:
    """Inverse DCT back to pixels: +128, round half away from zero, clamp to [0, 255].

    The rounding and clamp are the truncation error a second compression sees.
    """
    pixels = _DCT_T @ coeff_blocks @ _DCT
    pixels += 128.0
    return np.clip(round_half_away(pixels), 0, 255, out=pixels)


def reconstruct(grid: CoeffGrid, table: QuantTable) -> GrayImage:
    """Pixel image implied by a quantized grid: dequantize + inverse DCT."""
    blocks = idct_blocks(dequantize_blocks(grid.values, table))
    w, h = grid.width_blocks * 8, grid.height_blocks * 8
    return GrayImage(_unblock(blocks, w, h).astype(np.uint8))


def standard_table(qf: int) -> QuantTable:
    """Standard luminance table scaled by quality factor, IJG convention."""
    if not 1 <= qf <= 100:
        raise ValueError(f"quality factor {qf} out of range [1, 100]")
    scale = 5000 // qf if qf < 50 else 200 - 2 * qf
    factors = (BASE_LUMINANCE_TABLE * scale + 50) // 100
    return QuantTable(np.clip(factors, 1, 255))


def constant_table(i: int) -> QuantTable:
    """Constant matrix with all 64 factors equal to i."""
    if not 1 <= i <= 255:
        raise ValueError(f"constant factor {i} out of range [1, 255]")
    return QuantTable(np.full(64, i, dtype=np.int64))
