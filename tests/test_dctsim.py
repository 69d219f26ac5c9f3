"""DCT simulator tests against definition-based oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqe import dctsim, jpegio
from fqe.corpus import double_compress_file
from fqe.types import GrayImage, QuantTable

from conftest import synth_patches
from oracles import (
    compress_once,
    dequantize,
    double_compress,
    fdct_block,
    idct_block,
    quantize,
    zigzag_position,
)


def naive_fdct(block: np.ndarray) -> np.ndarray:
    """Direct double-sum DCT-II definition, independent of the matrix path."""
    shifted = block.astype(np.float64) - 128.0
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
            av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
            total = 0.0
            for x in range(8):
                for y in range(8):
                    total += (
                        shifted[x, y]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            out[u, v] = au * av * total
    return out


def naive_idct(coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            total = 0.0
            for u in range(8):
                for v in range(8):
                    au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
                    av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
                    total += (
                        au * av * coeffs[u, v]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            out[x, y] = total + 128.0
    return out


class TestFdct:
    def test_all_128_block_is_zero(self):
        assert np.allclose(fdct_block(np.full((8, 8), 128)), 0.0)

    def test_constant_block_dc(self):
        coeffs = fdct_block(np.full((8, 8), 255))
        assert coeffs[0, 0] == pytest.approx(8 * (255 - 128), abs=1e-9)
        assert np.allclose(coeffs.reshape(-1)[1:], 0.0, atol=1e-9)
        oracle = naive_fdct(np.full((8, 8), 255))
        assert np.allclose(coeffs, oracle, atol=1e-9)

    def test_matches_naive_definition(self, rng):
        for _ in range(25):
            block = rng.integers(0, 256, (8, 8))
            assert np.allclose(fdct_block(block), naive_fdct(block), atol=1e-9)

    def test_parseval(self, rng):
        for _ in range(50):
            block = rng.integers(0, 256, (8, 8))
            coeffs = fdct_block(block)
            assert np.linalg.norm(coeffs) == pytest.approx(
                np.linalg.norm(block.astype(float) - 128.0), abs=1e-6
            )


class TestEinsumPath:
    # The batched DCTs are matrix products; they must give what
    # np.einsum(optimize=True) gives, bit for bit.
    @pytest.mark.parametrize("n", [1, 64, 4096, 16384])
    def test_matmul_matches_optimize_true(self, n):
        rng = np.random.default_rng(n)
        pixels = rng.integers(0, 256, (n, 8, 8)).astype(np.float64)
        expected = np.einsum(
            "ux,nxy,vy->nuv", dctsim._DCT, pixels - 128.0, dctsim._DCT, optimize=True
        )
        assert dctsim.fdct_blocks(pixels).tobytes() == expected.tobytes()
        coeffs = rng.normal(0.0, 60.0, (n, 8, 8))
        raw = np.einsum("xu,nuv,yv->nxy", dctsim._DCT_T, coeffs, dctsim._DCT_T, optimize=True)
        expected = np.clip(np.sign(raw + 128.0) * np.floor(np.abs(raw + 128.0) + 0.5), 0, 255)
        assert dctsim.idct_blocks(coeffs).tobytes() == expected.tobytes()


class TestBatchedMatchesBlockOracles:
    def test_each_block_matches(self, rng):
        pixels = rng.integers(0, 256, (300, 8, 8)).astype(np.float64)
        table = QuantTable(rng.integers(1, 30, 64))
        coeffs = dctsim.fdct_blocks(pixels)
        zz = dctsim.quantize_blocks(coeffs, table)
        dequantized = dctsim.dequantize_blocks(zz, table)
        recon = dctsim.idct_blocks(dequantized)
        for n in range(len(pixels)):
            assert np.allclose(coeffs[n], fdct_block(pixels[n]), rtol=0, atol=1e-9)
            assert np.array_equal(zz[n], quantize(coeffs[n], table))
            assert np.array_equal(dequantized[n], dequantize(zz[n], table))
            assert np.array_equal(recon[n], idct_block(dequantized[n]))


class TestRoundHalfAway:
    def test_bits_match_sign_times_floor(self, rng):
        # The in-place rounding keeps every bit of sign(x) * floor(|x| + 0.5),
        # the sign of zero included.
        edges = [0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 2.5, -2.5, np.nextafter(0.5, 0.0),
                 -np.nextafter(0.5, 0.0), 2.0**52 - 0.5, -(2.0**52 + 1.0), 1e300, -1e-300,
                 np.inf, -np.inf]
        x = np.concatenate([edges, rng.normal(0, 100, 5000), rng.integers(-400, 400, 5000) / 2])
        expected = np.sign(x) * np.floor(np.abs(x) + 0.5)
        assert dctsim.round_half_away(x).tobytes() == expected.tobytes()
        assert dctsim.round_half_away(x.reshape(2, -1)).tobytes() == expected.tobytes()


class TestIdct:
    def test_inverts_fdct_exactly(self, rng):
        for _ in range(50):
            block = rng.integers(0, 256, (8, 8))
            assert np.array_equal(idct_block(fdct_block(block)), block)

    def test_zero_coefficients(self):
        assert np.array_equal(idct_block(np.zeros((8, 8))), np.full((8, 8), 128))

    def test_constant_dc(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 1016.0
        assert np.array_equal(idct_block(coeffs), np.full((8, 8), 255))

    def test_matches_naive_definition(self, rng):
        for _ in range(10):
            coeffs = rng.normal(0, 100, (8, 8))
            ours = idct_block(coeffs)
            oracle = np.clip(dctsim.round_half_away(naive_idct(coeffs)), 0, 255)
            assert np.array_equal(ours, oracle)


class TestQuantize:
    def test_half_rounds_away_from_zero(self):
        coeffs = np.zeros(64)
        coeffs[0] = 7.5
        zz = quantize(coeffs, dctsim.constant_table(5))
        assert zz[0] == 2

    def test_negative_half_symmetric(self):
        coeffs = np.zeros(64)
        coeffs[0] = -7.5
        zz = quantize(coeffs, dctsim.constant_table(5))
        assert zz[0] == -2

    def test_identity_table(self, rng):
        coeffs = rng.normal(0, 50, 64)
        zz = quantize(coeffs, dctsim.constant_table(1))
        expected = dctsim.round_half_away(coeffs)[dctsim.ZIGZAG_TO_NATURAL]
        assert np.array_equal(zz, expected)

    @given(st.lists(st.integers(-1000, 1000), min_size=64, max_size=64), st.integers(1, 255))
    @settings(max_examples=50, deadline=None)
    def test_odd(self, values, q):
        coeffs = np.array(values, dtype=float)
        table = dctsim.constant_table(q)
        assert np.array_equal(
            quantize(-coeffs, table), -quantize(coeffs, table)
        )


class TestDequantize:
    def test_multiplication(self):
        zz = np.zeros(64, dtype=np.int32)
        zz[0] = 2
        block = dequantize(zz, dctsim.constant_table(5))
        assert block[0, 0] == 10

    def test_identity_round_trip(self, rng):
        coeffs = rng.normal(0, 50, 64)
        table = dctsim.constant_table(1)
        back = dequantize(quantize(coeffs, table), table)
        assert np.array_equal(back.reshape(-1), dctsim.round_half_away(coeffs))

    def test_quantization_error_bound(self, rng):
        for _ in range(20):
            coeffs = rng.normal(0, 200, 64)
            table = QuantTable(rng.integers(1, 200, 64))
            back = dequantize(quantize(coeffs, table), table)
            err = np.abs(back.reshape(-1) - coeffs)
            assert np.all(err <= table.factors / 2 + 1e-9)


class TestCompression:
    def test_flat_image_zero_grid(self):
        img = GrayImage(np.full((16, 16), 128, dtype=np.uint8))
        grid, recon = compress_once(img, dctsim.constant_table(1))
        assert not grid.values.any()
        assert np.array_equal(recon.pixels, img.pixels)

    def test_idempotence_up_to_rounding(self):
        # Recompression with the same table only moves coefficients by the
        # pixel rounding noise: measured envelope, not an exact identity.
        patches = synth_patches(seed=5, count=10)
        changed = 0
        total = 0
        max_delta = 0
        for img in patches:
            table = dctsim.constant_table(4)
            grid1, recon = compress_once(img, table)
            grid2, _ = compress_once(recon, table)
            delta = np.abs(grid2.values.astype(int) - grid1.values.astype(int))
            changed += int((delta > 0).sum())
            max_delta = max(max_delta, int(delta.max()))
            total += delta.size
        assert max_delta <= 1
        assert changed / total < 0.05

    def test_grid_matches_file_path(self, rng):
        img = synth_patches(seed=6, count=1)[0]
        table = QuantTable(rng.integers(1, 23, 64))
        grid, _ = compress_once(img, table)
        parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, table))
        assert parsed.coeffs == grid

    def test_double_compress_flat_image(self):
        img = GrayImage(np.full((64, 64), 128, dtype=np.uint8))
        grid = double_compress(
            img, dctsim.constant_table(3), dctsim.constant_table(7)
        )
        assert not grid.values.any()

    def test_double_compress_identity_tables(self):
        img = synth_patches(seed=7, count=1)[0]
        ones = dctsim.constant_table(1)
        grid_double = double_compress(img, ones, ones)
        grid_single, _ = compress_once(img, ones)
        delta = np.abs(grid_double.values.astype(int) - grid_single.values.astype(int))
        assert delta.max() <= 1

    def test_double_compress_matches_twice_encoded_file(self):
        # File-path oracle at small scale; the acceptance suite runs the
        # full 50-patch, 8x8-pair sweep.
        patches = synth_patches(seed=8, count=3)
        for img in patches:
            for q1 in (1, 3):
                for q2 in (2, 5):
                    t1 = dctsim.constant_table(q1)
                    t2 = dctsim.constant_table(q2)
                    second = jpegio.parse_jpeg(double_compress_file(img, t1, t2))
                    assert second.coeffs == double_compress(img, t1, t2)

    def test_rejects_unpadded_dimensions(self):
        img = GrayImage(np.full((12, 16), 100, dtype=np.uint8))
        with pytest.raises(ValueError):
            compress_once(img, dctsim.constant_table(1))


class TestTables:
    def test_standard_qf90(self):
        table = dctsim.standard_table(90)
        assert table.to_zigzag()[:15].tolist() == [3, 2, 2, 3, 2, 2, 3, 3, 3, 3, 4, 3, 3, 4, 5]
        assert table.to_zigzag()[:15].max() == 5

    def test_standard_qf50_is_base(self):
        assert np.array_equal(
            dctsim.standard_table(50).factors, dctsim.BASE_LUMINANCE_TABLE
        )

    def test_standard_qf100_all_ones(self):
        assert np.array_equal(dctsim.standard_table(100).factors, np.ones(64))

    def test_standard_matches_scaling_formula(self):
        for qf in range(1, 101):
            scale = 5000 // qf if qf < 50 else 200 - 2 * qf
            expected = np.clip((dctsim.BASE_LUMINANCE_TABLE * scale + 50) // 100, 1, 255)
            assert np.array_equal(dctsim.standard_table(qf).factors, expected)

    @pytest.mark.parametrize("qf", [0, 101, -3])
    def test_standard_range(self, qf):
        with pytest.raises(ValueError):
            dctsim.standard_table(qf)

    @pytest.mark.parametrize("i", [5, 1, 22])
    def test_constant(self, i):
        assert np.array_equal(dctsim.constant_table(i).factors, np.full(64, i))

    @pytest.mark.parametrize("i", [0, 256])
    def test_constant_range(self, i):
        with pytest.raises(ValueError):
            dctsim.constant_table(i)


def zigzag_walk() -> list[tuple[int, int]]:
    """Independent diagonal-walk construction of the zig-zag scan."""
    order = []
    row = col = 0
    for _ in range(64):
        order.append((row, col))
        if (row + col) % 2 == 0:  # moving up-right
            if col == 7:
                row += 1
            elif row == 0:
                col += 1
            else:
                row -= 1
                col += 1
        else:  # moving down-left
            if row == 7:
                col += 1
            elif col == 0:
                row += 1
            else:
                row += 1
                col -= 1
    return order


class TestZigzag:
    def test_known_positions(self):
        assert zigzag_position(1) == (0, 0)
        assert zigzag_position(2) == (0, 1)
        assert zigzag_position(3) == (1, 0)
        assert zigzag_position(15) == (0, 4)

    def test_full_scan_matches_walk(self):
        walk = zigzag_walk()
        for i in range(1, 65):
            assert zigzag_position(i) == walk[i - 1]

    @pytest.mark.parametrize("i", [0, 65])
    def test_range(self, i):
        with pytest.raises(ValueError):
            zigzag_position(i)
