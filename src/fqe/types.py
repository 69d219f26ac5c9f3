"""Shared domain types: quantization tables, raster images, coefficient grids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Standard JPEG zig-zag scan: ZIGZAG_TO_NATURAL[z] is the row-major index of
# the z-th coefficient (z = 0 is DC).
ZIGZAG_TO_NATURAL = np.array([
    0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

NATURAL_TO_ZIGZAG = np.argsort(ZIGZAG_TO_NATURAL)


class QuantTableError(ValueError):
    """Quantization table with factors outside [1, 255]."""


@dataclass(eq=False)
class QuantTable:
    """An 8x8 grid of integer quantization factors, stored row-major."""

    factors: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.factors, dtype=np.int64).reshape(-1)
        if arr.size != 64:
            raise QuantTableError(f"expected 64 factors, got {arr.size}")
        if arr.min() < 1 or arr.max() > 255:
            raise QuantTableError("quantization factors must be in [1, 255]")
        self.factors = arr

    @classmethod
    def from_zigzag(cls, zz: np.ndarray | list[int]) -> "QuantTable":
        zz = np.asarray(zz, dtype=np.int64).reshape(-1)
        if zz.size != 64:
            raise QuantTableError(f"expected 64 factors, got {zz.size}")
        natural = np.empty(64, dtype=np.int64)
        natural[ZIGZAG_TO_NATURAL] = zz
        return cls(natural)

    def to_zigzag(self) -> np.ndarray:
        return self.factors[ZIGZAG_TO_NATURAL]

    def zigzag_factor(self, i: int) -> int:
        """Factor at 1-based zig-zag position i (i = 1 is DC)."""
        if not 1 <= i <= 64:
            raise IndexError(f"zig-zag position {i} out of range")
        return int(self.factors[ZIGZAG_TO_NATURAL[i - 1]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantTable):
            return NotImplemented
        return bool(np.array_equal(self.factors, other.factors))


@dataclass(eq=False)
class GrayImage:
    """8-bit grayscale raster, pixels shaped (height, width)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if arr.dtype != np.uint8:
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("pixel values must be in [0, 255]")
            arr = arr.astype(np.uint8)
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))


@dataclass(eq=False)
class CoeffGrid:
    """Quantized DCT coefficients of one component.

    values has shape (height_blocks * width_blocks, 64); each row is one
    8x8 block in zig-zag order, blocks in row-major order. DC terms are
    absolute (differential decoding already applied). values is int16: an
    int16 array is kept as it is, without a copy; any other array is cast
    after a check that every value lies in [-32768, 32767], and raises
    ValueError otherwise. Baseline coefficients fit in 16 bits (T.81 Annex F).
    """

    width_blocks: int
    height_blocks: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.width_blocks < 1 or self.height_blocks < 1:
            raise ValueError("block dimensions must be positive")
        arr = np.asarray(self.values)
        expected = self.width_blocks * self.height_blocks
        if arr.shape != (expected, 64):
            raise ValueError(
                f"values shape {arr.shape} does not match "
                f"{expected} blocks of 64 coefficients"
            )
        if arr.dtype != np.int16:
            lo, hi = arr.min(), arr.max()
            # Written so that NaN fails the check too.
            if not (lo >= -32768 and hi <= 32767):
                raise ValueError(f"coefficient values {lo}..{hi} do not fit in int16")
            arr = arr.astype(np.int16)
        self.values = arr

    @property
    def n_blocks(self) -> int:
        return self.width_blocks * self.height_blocks

    def coefficient(self, i: int) -> np.ndarray:
        """All blocks' values of the 1-based zig-zag coefficient i."""
        if not 1 <= i <= 64:
            raise IndexError(f"coefficient index {i} out of range")
        return self.values[:, i - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffGrid):
            return NotImplemented
        return (
            self.width_blocks == other.width_blocks
            and self.height_blocks == other.height_blocks
            and bool(np.array_equal(self.values, other.values))
        )
