"""JPEG parser/encoder and PGM tests.

The encoder round trip pins the file format against our own quantizer; the
Pillow cross-checks validate the parser against an independent libjpeg
encoder, including subsampled color and restart markers.
"""

import io

import numpy as np
import pytest

from fqe import dctsim, jpegio
from fqe.stats import CoeffHistogram
from fqe.types import CoeffGrid, GrayImage, QuantTable

from conftest import synth_patch, synth_patches, write_pgm
from jpegwriter import (
    encode_grids,
    random_grid,
    scan_layout,
    with_duplicate_component,
    with_scan_header,
    with_segments_after_soi,
    with_wide_dqt,
)

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
            assert parsed.coeffs.values.dtype == np.int16
            assert parsed.coeffs.values is parsed.component_coeffs[1]
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


class TestCoeffGrid:
    def test_int16_values_are_kept_without_a_copy(self):
        values = np.zeros((2, 64), dtype=np.int16)
        assert CoeffGrid(2, 1, values).values is values

    def test_other_values_are_cast_to_int16_when_they_fit(self):
        values = np.zeros((1, 64), dtype=np.int64)
        values[0, :2] = -32768, 32767
        grid = CoeffGrid(1, 1, values)
        assert grid.values.dtype == np.int16 and np.array_equal(grid.values, values)
        assert CoeffGrid(1, 1, values.tolist()) == grid

    def test_n_blocks(self):
        assert CoeffGrid(3, 2, np.zeros((6, 64), dtype=np.int16)).n_blocks == 6


@pytest.mark.parametrize(
    "value",
    [
        CoeffHistogram(np.array([0]), np.array([1.0]), 1),
        QuantTable(np.ones(64)),
        GrayImage(np.zeros((8, 8), np.uint8)),
        CoeffGrid(1, 1, np.zeros((1, 64), dtype=np.int16)),
    ],
    ids=lambda value: type(value).__name__,
)
def test_equality_with_another_type_is_left_to_it(value):
    assert value.__eq__(object()) is NotImplemented
    assert value != object() and not value == object()


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

    def test_arithmetic_rejected(self):
        data = bytearray(self.build_valid())
        sof = data.find(b"\xff\xc0")
        data[sof + 1] = 0xC9
        with pytest.raises(jpegio.UnsupportedJpegError, match="arithmetic"):
            jpegio.parse_jpeg(bytes(data))

    def test_missing_huffman_table(self):
        data = self.build_valid()
        dht = data.find(b"\xff\xc4")
        length = (data[dht + 2] << 8) | data[dht + 3]
        stripped = data[:dht] + data[dht + 2 + length :]
        with pytest.raises(jpegio.JpegFormatError, match="Huffman"):
            jpegio.parse_jpeg(stripped)

    def test_duplicate_component_ids_rejected(self):
        data = with_duplicate_component(self.build_valid())
        with pytest.raises(jpegio.JpegFormatError, match="duplicate component id 1"):
            jpegio.parse_jpeg(data)

    @pytest.mark.parametrize(
        "payload, message",
        [
            # Ns 0 used to reach the CLI as a ValueError from the segment split.
            (bytes([0, 0, 63, 0]), "scan declares 0 components, not 1 to 4"),
            (bytes([5] + [1, 0] * 5 + [0, 63, 0]), "scan declares 5 components, not 1 to 4"),
            (bytes([2, 1, 0, 1, 0, 0, 63, 0]), "scan lists component 1 twice"),
        ],
    )
    def test_bad_scan_component_list_rejected(self, payload, message):
        img = GrayImage(np.full((64, 64), 77, dtype=np.uint8))
        data = with_scan_header(jpegio.encode_baseline_gray(img, dctsim.constant_table(2)), payload)
        with pytest.raises(jpegio.JpegFormatError) as excinfo:
            jpegio.parse_jpeg(data)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "components, scans",
        [
            ([(1, 1, 1)], [[1], [1]]),
            ([(1, 1, 1), (2, 1, 1), (3, 1, 1)], [[1, 2, 3], [2]]),
        ],
    )
    def test_component_in_two_scans_rejected(self, components, scans):
        grids = {cid: np.zeros((4, 64), dtype=np.int32) for cid, _, _ in components}
        data = encode_grids(16, 16, components, scans, grids)
        with pytest.raises(jpegio.JpegFormatError) as excinfo:
            jpegio.parse_jpeg(data)
        assert str(excinfo.value) == f"component {scans[1][0]} is coded in a second scan"

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
        # Category 32 used to overflow the grid with OverflowError.
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


def edit(data: bytes, marker: int, offset: int, new: bytes) -> bytes:
    """data with new written `offset` bytes past the first 0xFF `marker` pair."""
    pos = data.index(bytes([0xFF, marker])) + offset
    return data[:pos] + new + data[pos + len(new) :]


def segment(data: bytes, marker: int) -> bytes:
    """The first `marker` segment of data, from its 0xFF to its last payload byte."""
    pos = data.index(bytes([0xFF, marker]))
    return data[pos : pos + 2 + int.from_bytes(data[pos + 2 : pos + 4], "big")]


# Two all-zero blocks of one 16x8 component, as one restart segment and as two.
GRAY = encode_grids(16, 8, [(1, 1, 1)], [[1]], {1: np.zeros((2, 64), np.int32)})
RESTARTS = encode_grids(
    16, 8, [(1, 1, 1)], [[1]], {1: np.zeros((2, 64), np.int32)}, restart_interval=1
)
SOF = segment(GRAY, 0xC0)
FORMAT, UNSUPPORTED = jpegio.JpegFormatError, jpegio.UnsupportedJpegError

# (stream, exception type, message) of each error parse_jpeg raises outside
# the entropy decoder. Offsets count from the marker's 0xFF: its length is
# at 2 and its payload starts at 4. The SOF payload is precision, height,
# width, component count, then id, sampling and table of each component.
PARSE_ERRORS = [
    (b"\xff\x00" + GRAY[2:], FORMAT, "missing SOI marker"),
    (edit(GRAY, 0xDB, 0, b"\x00"), FORMAT, "expected marker at offset 2"),
    (GRAY[:2] + b"\xff\xff", FORMAT, "truncated marker"),
    (edit(GRAY, 0xDB, 1, b"\xd8"), FORMAT, "unexpected marker 0xFFD8"),
    (GRAY[:5], FORMAT, "truncated segment header"),
    (edit(GRAY, 0xDB, 2, b"\xff\xff"), FORMAT, "segment length exceeds file size"),
    (edit(GRAY, 0xDB, 4, b"\x20"), FORMAT, "bad DQT precision or table id"),
    (edit(GRAY, 0xDB, 4, b"\x04"), FORMAT, "bad DQT precision or table id"),
    (edit(GRAY, 0xDB, 2, b"\x00\x42"), FORMAT, "truncated DQT segment"),
    (edit(GRAY, 0xDB, 5, b"\x00"), FORMAT, "quantization factor outside [1, 255]"),
    (edit(GRAY, 0xC4, 4, b"\x20"), FORMAT, "bad DHT class or table id"),
    (edit(GRAY, 0xC4, 2, b"\x00\x0c"), FORMAT, "truncated DHT segment"),
    (edit(GRAY, 0xC4, 2, b"\x00\x1c"), FORMAT, "truncated DHT segment"),
    (GRAY.replace(SOF, SOF * 2), FORMAT, "multiple SOF segments"),
    (edit(GRAY, 0xC0, 2, b"\x00\x07"), FORMAT, "truncated SOF segment"),
    (edit(GRAY, 0xC0, 4, b"\x0c"), UNSUPPORTED, "12-bit precision is not supported"),
    (edit(GRAY, 0xC0, 5, b"\x00\x00"), UNSUPPORTED, "deferred height (DNL) is not supported"),
    (edit(GRAY, 0xC0, 7, b"\x00\x00"), FORMAT, "bad frame dimensions"),
    (edit(GRAY, 0xC0, 9, b"\x02"), FORMAT, "bad SOF segment length"),
    (edit(GRAY, 0xC0, 11, b"\x51"), FORMAT, "bad component sampling or table id"),
    (edit(GRAY, 0xC0, 12, b"\x04"), FORMAT, "bad component sampling or table id"),
    (edit(GRAY, 0xC0, 1, b"\xc2"), UNSUPPORTED,
     "progressive JPEG is not supported (baseline only)"),
    (with_segments_after_soi(GRAY, [(0xDD, b"\x00\x01\x00")]), FORMAT, "bad DRI segment"),
    (with_segments_after_soi(GRAY, [(0xCC, b"\x00\x11")]), UNSUPPORTED,
     "arithmetic coding is not supported"),
    (edit(GRAY, 0xC0, 1, b"\xe0"), FORMAT, "SOS before SOF"),
    (with_scan_header(GRAY, b""), FORMAT, "truncated SOS segment"),
    (with_scan_header(GRAY, bytes([1, 1, 0, 0, 63])), FORMAT, "bad SOS segment length"),
    (with_scan_header(GRAY, bytes([1, 9, 0, 0, 63, 0])), FORMAT,
     "scan references unknown component 9"),
    (with_scan_header(GRAY, bytes([1, 1, 0x11, 0, 63, 0])), FORMAT,
     "scan references a missing Huffman table"),
    (with_scan_header(GRAY, bytes([1, 1, 0, 1, 63, 0])), UNSUPPORTED,
     "spectral selection implies a non-baseline scan"),
    (edit(GRAY, 0xC0, 7, b"\x08\x00"), FORMAT, "2 bytes of scan data cannot hold 256 blocks"),
    (edit(RESTARTS, 0xDD, 4, b"\x00\x02"), FORMAT, "expected 1 restart segment(s), found 2"),
    (edit(RESTARTS, 0xD0, 1, b"\xd1"), FORMAT, "restart markers out of sequence"),
    (GRAY[:-2] + b"\xff\xfe\x00\x02", FORMAT, "missing EOI marker"),
    (GRAY[:2] + GRAY[-2:], FORMAT, "file contains no frame"),
    (encode_grids(8, 8, [(1, 1, 1), (2, 1, 1)], [[2]], {2: np.zeros((1, 64), np.int32)}),
     FORMAT, "luminance component was never scanned"),
    (edit(GRAY, 0xDB, 1, b"\xe0"), FORMAT, "component 1 references missing DQT 0"),
]

TINY = GrayImage(np.full((8, 8), 77, dtype=np.uint8))
SHORT = GrayImage(np.full((4, 12), 77, dtype=np.uint8))
# (reader, its arguments, exception type, message)
READER_ERRORS = [(jpegio.parse_jpeg, (data,), *outcome) for data, *outcome in PARSE_ERRORS] + [
    # A scan cut short in its last 12 bytes: the parser reads on into a marker.
    (jpegio.parse_jpeg, (jpegio.encode_baseline_gray(TINY, dctsim.constant_table(2))[:-12],),
     FORMAT, "truncated segment header"),
    (jpegio.read_pgm, (b"P6 1 1 255 x",), jpegio.PgmError, "not a binary PGM (P5) stream"),
    (jpegio.crop_center, (TINY, 0), ValueError, "crop side must be positive"),
    (jpegio.crop_center, (TINY, 9), ValueError, "crop side 9 exceeds image size 8x8"),
    (jpegio.encode_baseline_gray, (SHORT, dctsim.constant_table(1)), ValueError,
     "image must be at least 8x8"),
]


@pytest.mark.parametrize(
    "reader, args, error, message", READER_ERRORS, ids=[case[3] for case in READER_ERRORS]
)
def test_reader_errors(reader, args, error, message):
    with pytest.raises(error) as info:
        reader(*args)
    assert type(info.value) is error
    assert str(info.value) == message


# What a camera writes before its tables: JFIF, Exif and a comment. The Exif
# and comment payloads hold EOI and SOI byte pairs, which the segment length skips.
APP_AND_COM = [
    (0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"),
    (0xE1, b"Exif\x00\x00MM\x00\x2a" + b"\xff\xd9\xff\xd8" * 8),
    (0xFE, b"a comment \xff\xd9"),
]


def gray_stream(table: QuantTable) -> bytes:
    return jpegio.encode_baseline_gray(synth_patches(seed=41, count=1)[0], table)


def color_420_stream() -> bytes:
    components = [(1, 2, 2), (2, 1, 1), (3, 1, 1)]
    rng = np.random.default_rng(42)
    layout = scan_layout(40, 24, components, [1, 2, 3])
    grids = {cid: random_grid(rng, bw, bh) for cid, (bw, bh) in layout.items()}
    return encode_grids(40, 24, components, [[1, 2, 3]], grids)


def assert_same_parse(data: bytes, expected: bytes) -> None:
    got, want = jpegio.parse_jpeg(data), jpegio.parse_jpeg(expected)
    assert got.tables == want.tables
    assert got.frame == want.frame
    assert got.coeffs == want.coeffs
    assert got.component_coeffs.keys() == want.component_coeffs.keys()
    for cid, grid in want.component_coeffs.items():
        assert np.array_equal(got.component_coeffs[cid], grid)


class TestSkippedAndWideSegments:
    @pytest.mark.parametrize("kind", ["gray", "4:2:0"])
    def test_app_and_com_segments_are_skipped(self, kind):
        data = gray_stream(dctsim.standard_table(75)) if kind == "gray" else color_420_stream()
        assert_same_parse(with_segments_after_soi(data, APP_AND_COM), data)

    def test_16_bit_dqt_parses_to_the_same_table(self):
        table = dctsim.standard_table(10)  # factors up to 255
        data = gray_stream(table)
        wide = with_wide_dqt(data)
        assert len(wide) == len(data) + 64
        assert_same_parse(wide, data)
        assert jpegio.parse_jpeg(wide).luma_table == table

    def test_16_bit_dqt_factor_above_255_rejected(self):
        wide = bytearray(with_wide_dqt(gray_stream(dctsim.constant_table(255))))
        first = wide.find(b"\xff\xdb") + 5  # the first factor's two bytes
        wide[first : first + 2] = (256).to_bytes(2, "big")
        with pytest.raises(jpegio.JpegFormatError, match=r"outside \[1, 255\]"):
            jpegio.parse_jpeg(bytes(wide))


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

    @pytest.mark.parametrize(
        "maxval, sample, pixel",
        [
            (65535, 0xFFFF, 255),
            (65535, 0xFF00, 254),  # not its high byte, 255
            (1000, 1000, 255),
            (15, 15, 255),
            (15, 7, 119),
            (255, 64, 64),
        ],
    )
    def test_samples_scale_by_maxval(self, maxval, sample, pixel):
        raster = sample.to_bytes(2 if maxval > 255 else 1, "big")
        data = b"P5 1 1 %d " % maxval + raster
        assert jpegio.read_pgm(data).pixels[0, 0] == pixel

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5 #abc", "unterminated comment in PGM header"),
            (b"P5 2 x 255 ", "bad PGM header token b'x'"),
            (b"P5 2", "bad PGM header token b''"),
            (b"P5 0 2 255 ", "bad PGM dimensions"),
            (b"P5 1 1 0 ", "unsupported PGM maxval 0"),
            (b"P5 1 1 65536 ", "unsupported PGM maxval 65536"),
            (b"P5 1 1 255", "missing whitespace before PGM raster"),
            (b"P5 2 2 255 " + bytes([1, 2, 3]), "truncated PGM pixel data"),
            (b"P5 2 1 65535 " + bytes(3), "truncated PGM pixel data"),
            (b"P5 2 1 15\n" + bytes([3, 200]), "PGM sample 200 exceeds maxval 15"),
            (b"P5 2 1 1000 " + bytes([3, 0xE8, 3, 0xE9]), "PGM sample 1001 exceeds maxval 1000"),
        ],
    )
    def test_header_and_raster_errors(self, data, message):
        with pytest.raises(jpegio.PgmError) as info:
            jpegio.read_pgm(data)
        assert str(info.value) == message

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
