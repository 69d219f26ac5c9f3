"""JPEG parser/encoder and PGM tests.

The encoder round trip pins the file format against our own quantizer; the
Pillow cross-checks validate the parser against an independent libjpeg
encoder, including subsampled color and restart markers.
"""

import io

import numpy as np
import pytest

from fqe import dctsim, jpegio
from fqe.types import GrayImage, QuantTable

from conftest import synth_patch, synth_patches, write_pgm

try:
    from PIL import Image as PIL_Image
except ImportError:
    PIL_Image = None


def encoder_reference_grid(img: GrayImage, table: QuantTable) -> np.ndarray:
    """The quantized coefficients the encoder is defined to emit."""
    pad_h = (-img.height) % 8
    pad_w = (-img.width) % 8
    px = np.pad(img.pixels, ((0, pad_h), (0, pad_w)), mode="edge")
    blocks = (
        px.reshape((img.height + pad_h) // 8, 8, (img.width + pad_w) // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
        .astype(np.float64)
    )
    return dctsim.quantize_blocks(dctsim.fdct_blocks(blocks), table)


class TestRoundTrip:
    def test_synthetic_patches(self, rng):
        for seed in range(5):
            img = synth_patch(np.random.default_rng(seed), side=64)
            table = QuantTable(rng.integers(1, 23, 64))
            parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, table))
            assert parsed.luma_table == table
            assert np.array_equal(parsed.coeffs.values, encoder_reference_grid(img, table))

    def test_odd_dimensions(self, rng):
        for w, h in [(9, 8), (17, 33), (64, 50), (100, 100)]:
            img = GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))
            table = QuantTable(rng.integers(1, 23, 64))
            parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, table))
            assert parsed.frame.width == w
            assert parsed.frame.height == h
            assert parsed.coeffs.width_blocks == -(-w // 8)
            assert parsed.coeffs.height_blocks == -(-h // 8)
            assert np.array_equal(parsed.coeffs.values, encoder_reference_grid(img, table))

    def test_flat_128_block_is_all_zero(self):
        img = GrayImage(np.full((8, 8), 128, dtype=np.uint8))
        parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, dctsim.constant_table(9)))
        assert parsed.coeffs.values.shape == (1, 64)
        assert not parsed.coeffs.values.any()

    def test_flat_image_entropy_all_zero_blocks(self):
        img = GrayImage(np.full((32, 24), 128, dtype=np.uint8))
        parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, dctsim.constant_table(2)))
        assert not parsed.coeffs.values.any()

    def test_dc_differential_resolved(self, rng):
        # Parsed DC terms are absolute values, equal to the quantized DC of
        # each block, not the per-block differences the file stores.
        img = synth_patch(rng, side=32)
        table = dctsim.constant_table(3)
        parsed = jpegio.parse_jpeg(jpegio.encode_baseline_gray(img, table))
        assert np.array_equal(
            parsed.coeffs.values[:, 0], encoder_reference_grid(img, table)[:, 0]
        )

    def test_parsed_dqt_standard_qf90(self, rng):
        img = synth_patch(rng, side=16)
        data = jpegio.encode_baseline_gray(img, dctsim.standard_table(90))
        parsed = jpegio.parse_jpeg(data)
        zz = parsed.luma_table.to_zigzag()
        assert zz[:15].tolist() == [3, 2, 2, 3, 2, 2, 3, 3, 3, 3, 4, 3, 3, 4, 5]
        assert zz[:15].max() == 5

    def test_halving_table_halves_coefficients(self, rng):
        img = synth_patch(rng, side=16)
        ones = jpegio.parse_jpeg(
            jpegio.encode_baseline_gray(img, dctsim.constant_table(1))
        ).coeffs.values
        twos = jpegio.parse_jpeg(
            jpegio.encode_baseline_gray(img, dctsim.constant_table(2))
        ).coeffs.values
        assert np.abs(twos - dctsim.round_half_away(ones / 2.0)).max() <= 1


class TestEncoderErrors:
    def test_too_small(self):
        img = GrayImage(np.full((4, 12), 5, dtype=np.uint8))
        with pytest.raises(ValueError):
            jpegio.encode_baseline_gray(img, dctsim.constant_table(1))

    def test_bad_table(self):
        with pytest.raises(ValueError):
            QuantTable(np.zeros(64, dtype=int))
        with pytest.raises(ValueError):
            QuantTable(np.full(64, 256))


class TestAnnexKCodes:
    def test_encoder_codes_pinned(self):
        # Annex K.3 tables K.3 and K.5, independent of the code walk that
        # both the encoder and the decoder tables come from.
        def bits(symbol, enc):
            code, length = enc[symbol]
            return format(code, f"0{length}b")

        assert bits(0, jpegio._DC_ENC) == "00"
        assert bits(11, jpegio._DC_ENC) == "111111110"
        assert bits(0x00, jpegio._AC_ENC) == "1010"  # EOB
        assert bits(0xF0, jpegio._AC_ENC) == "11111111001"  # ZRL
        assert bits(0x01, jpegio._AC_ENC) == "00"
        assert bits(0xFA, jpegio._AC_ENC) == "1111111111111110"


class TestParserErrors:
    def build_valid(self) -> bytes:
        img = GrayImage(np.full((8, 8), 77, dtype=np.uint8))
        return jpegio.encode_baseline_gray(img, dctsim.constant_table(2))

    def test_not_a_jpeg(self):
        with pytest.raises(jpegio.JpegFormatError):
            jpegio.parse_jpeg(b"P5 2 2 255 junk")

    def test_progressive_rejected(self):
        data = bytearray(self.build_valid())
        sof = data.find(b"\xff\xc0")
        data[sof + 1] = 0xC2
        with pytest.raises(jpegio.UnsupportedJpegError, match="progressive"):
            jpegio.parse_jpeg(bytes(data))

    def test_arithmetic_rejected(self):
        data = bytearray(self.build_valid())
        sof = data.find(b"\xff\xc0")
        data[sof + 1] = 0xC9
        with pytest.raises(jpegio.UnsupportedJpegError, match="arithmetic"):
            jpegio.parse_jpeg(bytes(data))

    def test_truncated_scan(self):
        data = self.build_valid()
        with pytest.raises(jpegio.JpegFormatError):
            jpegio.parse_jpeg(data[:-12])

    def test_missing_huffman_table(self):
        data = self.build_valid()
        dht = data.find(b"\xff\xc4")
        length = (data[dht + 2] << 8) | data[dht + 3]
        stripped = data[:dht] + data[dht + 2 + length :]
        with pytest.raises(jpegio.JpegFormatError, match="Huffman"):
            jpegio.parse_jpeg(stripped)

    def test_missing_quant_table(self):
        data = self.build_valid()
        dqt = data.find(b"\xff\xdb")
        length = (data[dqt + 2] << 8) | data[dqt + 3]
        stripped = data[:dqt] + data[dqt + 2 + length :]
        with pytest.raises(jpegio.JpegFormatError, match="DQT"):
            jpegio.parse_jpeg(stripped)

    def test_garbage_marker_stream(self):
        data = bytearray(self.build_valid())
        data[2] = 0x00  # clobber the first marker's 0xFF
        with pytest.raises(jpegio.JpegFormatError):
            jpegio.parse_jpeg(bytes(data))

    def test_overfull_huffman_code_space_rejected(self):
        # Three 1-bit codes: the third has no code left.
        data = self.build_valid()
        dht = data.find(b"\xff\xc4")
        length = (data[dht + 2] << 8) | data[dht + 3]
        overfull = jpegio._segment(0xC4, bytes([0x00, 3] + [0] * 15 + [0, 1, 2]))
        with pytest.raises(jpegio.JpegFormatError) as excinfo:
            jpegio.parse_jpeg(data[:dht] + overfull + data[dht + 2 + length :])
        assert str(excinfo.value) == "Huffman table overflows its code space"

    @staticmethod
    def hand_built(width: int, height: int, dc_symbol: int, scan_bits: str) -> bytes:
        """A one-component baseline stream whose DC table has the single code
        '0' for dc_symbol and whose AC table has the single code '0' for EOB."""

        def segment(marker: int, payload: bytes) -> bytes:
            return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload

        one_code = bytes([1] + [0] * 15)
        scan_bits += "1" * (-len(scan_bits) % 8)
        scan = bytes(int(scan_bits[i : i + 8], 2) for i in range(0, len(scan_bits), 8))
        return (
            b"\xff\xd8"
            + segment(0xDB, bytes([0]) + bytes([1] * 64))
            + segment(0xC0, bytes([8]) + height.to_bytes(2, "big") + width.to_bytes(2, "big")
                      + bytes([1, 1, 0x11, 0]))
            + segment(0xC4, bytes([0x00]) + one_code + bytes([dc_symbol])
                      + bytes([0x10]) + one_code + bytes([0x00]))
            + segment(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
            + scan.replace(b"\xff", b"\xff\x00")
            + b"\xff\xd9"
        )

    def test_hand_built_stream_parses(self):
        # Two blocks with DC differences +5 and -5 (category 3, '101' / '010').
        data = self.hand_built(16, 8, 3, "0" + "101" + "0" + "0" + "010" + "0")
        assert jpegio.parse_jpeg(data).coeffs.values[:, 0].tolist() == [5, 0]

    @pytest.mark.parametrize("category", [12, 32])
    def test_dc_category_above_11_rejected(self, category):
        # Category 32 used to overflow the int32 grid with OverflowError.
        data = self.hand_built(8, 8, category, "0" + "1" * category + "0")
        with pytest.raises(jpegio.JpegFormatError, match="category"):
            jpegio.parse_jpeg(data)

    def test_dc_drift_beyond_baseline_range_rejected(self):
        # Category 11 differences of +2047 add up past any 8-bit DC value.
        data = self.hand_built(16, 8, 11, ("0" + "1" * 11 + "0") * 2)
        with pytest.raises(jpegio.JpegFormatError, match="DC coefficient"):
            jpegio.parse_jpeg(data)

    def test_block_count_beyond_scan_data_fails_fast(self):
        # 65535 x 65535 is about 67M blocks; four bytes of scan data hold at
        # most 16, so the frame is rejected before anything is allocated.
        data = self.hand_built(65535, 65535, 0, "00" * 16)
        with pytest.raises(jpegio.JpegFormatError, match="cannot hold"):
            jpegio.parse_jpeg(data)


@pytest.mark.skipif(PIL_Image is None, reason="Pillow cross-checks")
class TestAgainstPillow:
    def _roundtrip_pillow(self, pil_img, **save_kwargs):
        buf = io.BytesIO()
        pil_img.save(buf, "JPEG", **save_kwargs)
        return buf.getvalue()

    def _luma_pixels(self, data: bytes) -> np.ndarray:
        im = PIL_Image.open(io.BytesIO(data))
        im.draft("YCbCr", im.size)
        arr = np.asarray(im.convert("YCbCr") if im.mode != "L" else im)
        return arr[:, :, 0] if arr.ndim == 3 else arr

    def _assert_close_to_pillow(self, data: bytes):
        parsed = jpegio.parse_jpeg(data)
        recon = dctsim.reconstruct(parsed.coeffs, parsed.luma_table)
        h, w = parsed.frame.height, parsed.frame.width
        ours = recon.pixels[:h, :w].astype(int)
        ref = self._luma_pixels(data).astype(int)
        diff = np.abs(ours - ref)
        assert diff.max() <= 3
        assert diff.mean() <= 0.6

    def test_grayscale_quant_table(self, rng):
        arr = synth_patch(rng, side=64).pixels
        data = self._roundtrip_pillow(PIL_Image.fromarray(arr, "L"), quality=85)
        parsed = jpegio.parse_jpeg(data)
        im = PIL_Image.open(io.BytesIO(data))
        assert parsed.luma_table.factors.tolist() == list(im.quantization[0])
        self._assert_close_to_pillow(data)

    def test_color_420_odd_dims(self, rng):
        arr = rng.integers(0, 256, (45, 61, 3)).astype(np.uint8)
        data = self._roundtrip_pillow(PIL_Image.fromarray(arr), quality=90, subsampling=2)
        parsed = jpegio.parse_jpeg(data)
        luma = parsed.frame.components[0]
        assert (luma.h, luma.v) == (2, 2)
        # 4:2:0 pads the luminance grid to full MCUs of 16x16 pixels.
        assert parsed.coeffs.width_blocks == -(-61 // 16) * 2
        assert parsed.coeffs.height_blocks == -(-45 // 16) * 2
        im = PIL_Image.open(io.BytesIO(data))
        assert parsed.luma_table.factors.tolist() == list(im.quantization[0])
        self._assert_close_to_pillow(data)

    def test_color_444(self, rng):
        arr = rng.integers(0, 256, (32, 40, 3)).astype(np.uint8)
        data = self._roundtrip_pillow(PIL_Image.fromarray(arr), quality=75, subsampling=0)
        self._assert_close_to_pillow(data)

    def test_restart_markers(self, rng):
        arr = rng.integers(0, 256, (64, 64, 3)).astype(np.uint8)
        data = self._roundtrip_pillow(
            PIL_Image.fromarray(arr), quality=80, subsampling=2, restart_marker_blocks=2
        )
        assert any(
            data[i] == 0xFF and 0xD0 <= data[i + 1] <= 0xD7 for i in range(len(data) - 1)
        )
        self._assert_close_to_pillow(data)

    def test_pillow_decodes_our_files(self, rng):
        img = synth_patch(rng, side=48)
        table = dctsim.standard_table(90)
        data = jpegio.encode_baseline_gray(img, table)
        pil = PIL_Image.open(io.BytesIO(data))
        # independent decoder agrees on the DQT (proves zig-zag emission)
        assert list(pil.quantization[0]) == table.factors.tolist()
        ref = np.asarray(pil).astype(int)
        parsed = jpegio.parse_jpeg(data)
        ours = dctsim.reconstruct(parsed.coeffs, parsed.luma_table).pixels.astype(int)
        assert np.abs(ours - ref).max() <= 3


class TestPgm:
    def test_direct_mapping(self):
        img = jpegio.read_pgm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
        assert img.width == 2 and img.height == 2
        assert img.pixels.reshape(-1).tolist() == [0, 64, 128, 255]

    def test_sixteen_bit_high_byte(self):
        data = b"P5 1 1 65535 " + bytes([0xFF, 0x00])
        assert jpegio.read_pgm(data).pixels[0, 0] == 255

    def test_truncated(self):
        with pytest.raises(jpegio.PgmError):
            jpegio.read_pgm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_bad_magic(self):
        with pytest.raises(jpegio.PgmError):
            jpegio.read_pgm(b"P6 1 1 255 abc")

    def test_comments_in_header(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([9, 10])
        img = jpegio.read_pgm(data)
        assert img.pixels.reshape(-1).tolist() == [9, 10]

    def test_round_trip_with_writer(self, rng):
        img = synth_patch(rng, side=24)
        assert jpegio.read_pgm(write_pgm(img)) == img


class TestCropCenter:
    def test_centered_even(self):
        img = GrayImage(np.arange(100 * 100, dtype=np.int64).reshape(100, 100) % 256)
        crop = jpegio.crop_center(img, 64)
        assert np.array_equal(crop.pixels, img.pixels[18:82, 18:82])

    def test_identity(self, rng):
        img = synth_patch(rng, side=32)
        assert jpegio.crop_center(img, 32) == img

    def test_odd_remainder_goes_right_bottom(self):
        img = GrayImage(np.arange(65 * 65, dtype=np.int64).reshape(65, 65) % 256)
        crop = jpegio.crop_center(img, 64)
        assert np.array_equal(crop.pixels, img.pixels[0:64, 0:64])

    def test_rule_exhaustive_small_sizes(self):
        # Offset rule: floor((dim - side) / 2), extra pixel right/bottom.
        for dim in range(1, 12):
            for side in range(1, dim + 1):
                img = GrayImage(np.arange(dim * dim, dtype=np.int64).reshape(dim, dim) % 256)
                crop = jpegio.crop_center(img, side)
                off = (dim - side) // 2
                assert np.array_equal(crop.pixels, img.pixels[off : off + side, off : off + side])
                assert (dim - side) - off >= off  # extra goes right/bottom

    def test_too_large(self, rng):
        with pytest.raises(ValueError):
            jpegio.crop_center(synth_patch(rng, side=16), 17)
