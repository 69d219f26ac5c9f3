"""Entropy decoder tests: restart intervals, several components and scans,
the bounded decode-table cache, and differential fuzzing against the
byte-refill decoder kept in tests/oracles.py.

The oracle replaces jpegio._huffman_table and jpegio._decode_scan only, so
both decoders run behind the same marker parser and scan layout code.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fqe import dctsim, jpegio
from fqe.types import GrayImage

from conftest import synth_patch, synth_patches
from jpegwriter import encode_grids, random_grid, scan_layout


def outcome(data: bytes):
    """Every component grid of a parse, or the JpegError it raised."""
    try:
        parsed = jpegio.parse_jpeg(data)
    except jpegio.JpegError as exc:
        return type(exc), str(exc)
    grids = {cid: (a.shape, a.tobytes()) for cid, a in parsed.component_coeffs.items()}
    return grids, parsed.coeffs.values.tobytes()


def oracle_outcome(data: bytes):
    with mock.patch.multiple(
        jpegio, _huffman_table=oracles.huffman_lut, _decode_scan=oracles.decode_scan
    ):
        return outcome(data)


COLOR_420 = [(1, 2, 2), (2, 1, 1), (3, 1, 1)]


def written(width, height, components, scans, restart_interval, seed):
    """A written stream and the grids it codes."""
    rng = np.random.default_rng(seed)
    grids = {}
    for scan in scans:
        for cid, (bw, bh) in scan_layout(width, height, components, scan).items():
            grids[cid] = random_grid(rng, bw, bh)
    data = encode_grids(width, height, components, scans, grids, restart_interval)
    return data, grids


class TestRestartAndComponents:
    def check(self, data, grids):
        parsed = jpegio.parse_jpeg(data)
        assert parsed.component_coeffs.keys() == grids.keys()
        for cid, grid in grids.items():
            assert np.array_equal(parsed.component_coeffs[cid], grid), cid
        luma = parsed.frame.components[0].comp_id
        assert np.array_equal(parsed.coeffs.values, grids[luma])
        assert outcome(data) == oracle_outcome(data)
        return parsed

    def test_gray_restart_every_mcu(self):
        # 39 segments: RST0-7 cycle almost five times, and every segment
        # starts from DC prediction 0.
        data, grids = written(104, 24, [(1, 1, 1)], [[1]], 1, seed=1)
        assert data.count(b"\xff\xd7") == 4
        parsed = self.check(data, grids)
        assert parsed.frame.restart_interval == 1
        assert (parsed.coeffs.width_blocks, parsed.coeffs.height_blocks) == (13, 3)

    def test_interleaved_420_odd_dimensions_with_restarts(self):
        # 45x61 pixels in 16x16 MCUs: 3x4 MCUs, so the luma grid is padded
        # to 6x8 blocks and the chroma grids to 3x4. Restart every 5 MCUs
        # leaves a short last segment.
        data, grids = written(45, 61, COLOR_420, [[1, 2, 3]], 5, seed=2)
        assert {cid: g.shape[0] for cid, g in grids.items()} == {1: 48, 2: 12, 3: 12}
        parsed = self.check(data, grids)
        assert (parsed.coeffs.width_blocks, parsed.coeffs.height_blocks) == (6, 8)

    def test_interleaved_420_without_restarts(self):
        data, grids = written(45, 61, COLOR_420, [[1, 2, 3]], 0, seed=3)
        self.check(data, grids)

    def test_three_single_component_scans(self):
        # Non-interleaved scans cover only the blocks each component needs:
        # chroma at half resolution is ceil(23 / 8) x ceil(31 / 8) = 3x4.
        data, grids = written(45, 61, COLOR_420, [[1], [2], [3]], 4, seed=4)
        assert {cid: g.shape[0] for cid, g in grids.items()} == {1: 48, 2: 12, 3: 12}
        self.check(data, grids)

    def test_restart_markers_out_of_sequence(self):
        data, _ = written(104, 24, [(1, 1, 1)], [[1]], 1, seed=5)
        swapped = data.replace(b"\xff\xd1", b"\xff\xd2", 1)
        with pytest.raises(jpegio.JpegFormatError, match="sequence"):
            jpegio.parse_jpeg(swapped)


class TestDecodeTableCache:
    def test_cache_is_bounded(self):
        img = synth_patch(np.random.default_rng(0), side=16)
        base = jpegio.encode_baseline_gray(img, dctsim.constant_table(3))
        expected = outcome(base)
        bound = jpegio._LUT_CACHE_SIZE
        for i in range(bound + 4):
            # An unused DC table 1 with one code for symbol i: a distinct
            # table definition per file.
            extra = jpegio._segment(0xC4, bytes([0x01, 1] + [0] * 15 + [i]))
            assert outcome(base[:2] + extra + base[2:]) == expected
            assert len(jpegio._LUT_CACHE) <= bound
        assert len(jpegio._LUT_CACHE) == bound
        # The tables every file uses stay cached.
        std_dc = bytes([0]) + bytes(jpegio._DC_LUM_BITS) + bytes(jpegio._DC_LUM_VALS)
        std_ac = bytes([1]) + bytes(jpegio._AC_LUM_BITS) + bytes(jpegio._AC_LUM_VALS)
        assert std_dc in jpegio._LUT_CACHE and std_ac in jpegio._LUT_CACHE


# ---------------------------------------------------------------------------
# Differential fuzzing against the oracle
# ---------------------------------------------------------------------------

STANDARD_TABLES = [
    (0x00, jpegio._DC_LUM_BITS, jpegio._DC_LUM_VALS),
    (0x10, jpegio._AC_LUM_BITS, jpegio._AC_LUM_VALS),
]


def with_tables(data: bytes, tables) -> bytes:
    """data with its (single) DHT segment replaced by `tables`."""
    start = data.find(b"\xff\xc4")
    length = int.from_bytes(data[start + 2 : start + 4], "big")
    payload = b"".join(bytes([tcth]) + bytes(bits) + bytes(vals) for tcth, bits, vals in tables)
    return data[:start] + jpegio._segment(0xC4, payload) + data[start + 2 + length :]


def complete_code(bits, values, fill_symbol):
    """Fill the code space left after the longest codes with more codes of that
    length, so that the all-ones 16-bit code becomes valid."""
    bits = list(bits)
    longest = max(i for i in range(16) if bits[i])
    free = (1 << 16) - sum(b << (15 - i) for i, b in enumerate(bits))
    extra = free >> (15 - longest)
    bits[longest] += extra
    return bits, list(values) + [fill_symbol] * extra


def regions(data: bytes) -> tuple[int, int]:
    """Start of the first scan's entropy data and of the trailing EOI."""
    sos = data.find(b"\xff\xda")
    start = sos + 2 + int.from_bytes(data[sos + 2 : sos + 4], "big") if sos >= 0 else 0
    start = min(start, len(data))
    end = len(data) - 2 if data.endswith(b"\xff\xd9") else len(data)
    return start, max(start, end)


def _bases():
    gray = jpegio.encode_baseline_gray(
        synth_patch(np.random.default_rng(7), side=24), dctsim.standard_table(90)
    )
    return [
        gray,
        written(24, 16, [(1, 1, 1)], [[1]], 2, seed=8)[0],
        written(20, 18, COLOR_420, [[1, 2, 3]], 1, seed=9)[0],
        written(20, 18, COLOR_420, [[1], [2], [3]], 3, seed=10)[0],
    ]


BASES = _bases()


def with_scan(data: bytes, scan: bytes) -> bytes:
    """data with the entropy-coded bytes of its first scan replaced by scan."""
    start, end = regions(data)
    return data[:start] + scan + data[end:]


GRAY_HEADERS = {
    n: encode_grids(8 * n, 8, [(1, 1, 1)], [[1]], {1: np.zeros((n, 64), dtype=int)})
    for n in (1, 2, 3)
}
AC_SYMBOLS = sorted(jpegio._AC_ENC)
# ZRL, EOB and long runs are where a block's coefficient index overflows.
AC_BOUNDARY_SYMBOLS = [0xF0, 0x00, 0xF1, 0xE1, 0x01, 0xFA]


@st.composite
def symbol_stream(draw):
    """A gray stream whose scan codes drawn symbols with the annex K tables:
    per block a DC category with any magnitude bits, then AC symbols whose
    runs may overrun the block, with or without EOB, possibly cut short."""
    n_blocks = draw(st.integers(1, 3))
    ac_symbol = st.one_of(
        st.just(0xF0), st.sampled_from(AC_BOUNDARY_SYMBOLS), st.sampled_from(AC_SYMBOLS)
    )
    writer = jpegio._BitWriter()
    for _ in range(n_blocks):
        size = draw(st.integers(0, 11))
        writer.write(*jpegio._DC_ENC[size])
        writer.write(draw(st.integers(0, (1 << size) - 1)), size)
        for symbol in draw(st.lists(ac_symbol, max_size=10)):
            writer.write(*jpegio._AC_ENC[symbol])
            size = symbol & 0x0F
            writer.write(draw(st.integers(0, (1 << size) - 1)), size)
    writer.flush()
    scan = bytes(writer.out)
    if draw(st.booleans()):
        scan = scan[: draw(st.integers(0, len(scan)))]
    return with_scan(GRAY_HEADERS[n_blocks], scan)


@st.composite
def mutated_stream(draw):
    data = draw(st.sampled_from(BASES))
    table_change = draw(st.sampled_from(["none", "complete", "count"]))
    if table_change != "none":
        tables = [list(t) for t in STANDARD_TABLES]
        which = draw(st.integers(0, 1))
        tcth, bits, values = tables[which]
        if table_change == "complete":
            bits, values = complete_code(bits, values, draw(st.integers(0, 255)))
        else:
            bits = list(bits)
            bits[draw(st.integers(0, 15))] = draw(st.integers(0, 12))
            extra = st.lists(st.integers(0, 255), min_size=256, max_size=256)
            values = (list(values) + draw(extra))[: sum(bits)]
        tables[which] = [tcth, bits, values]
        data = with_tables(data, tables)
    for _ in range(draw(st.integers(0 if table_change != "none" else 1, 3))):
        data = draw(byte_mutation(data))
    return data


@st.composite
def byte_mutation(draw, data: bytes):
    start, end = regions(data)
    kind = draw(
        st.sampled_from(
            ["flip_header", "flip_scan", "truncate", "cut_scan", "insert_ff00",
             "remove_ff00", "insert_rst", "remove_rst", "insert_fill"]
        )
    )
    if kind == "flip_header" and start > 0:
        i = draw(st.integers(0, start - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    if kind == "truncate":
        lo, hi = draw(st.sampled_from([(0, start), (start, end), (end, len(data))]))
        return data[: draw(st.integers(lo, hi))]
    if start == end:
        return data
    pos = draw(st.integers(start, end))
    if kind == "cut_scan":
        # Drop scan bytes but keep what follows, so the decoder runs out of data.
        return data[:pos] + data[draw(st.integers(pos, end)) :]
    if kind == "flip_scan" and pos < end:
        return data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1 :]
    if kind == "insert_ff00":
        return data[:pos] + b"\xff\x00" + data[pos:]
    if kind == "insert_rst":
        return data[:pos] + bytes([0xFF, 0xD0 + draw(st.integers(0, 7))]) + data[pos:]
    if kind == "insert_fill":
        # Before a marker, 0xFF fill bytes are legal; elsewhere they corrupt.
        markers = [
            i for i in range(start, min(end + 1, len(data) - 1))
            if data[i] == 0xFF and data[i + 1] != 0
        ]
        if markers and draw(st.booleans()):
            pos = draw(st.sampled_from(markers))
        return data[:pos] + b"\xff" * draw(st.integers(1, 4)) + data[pos:]
    if kind in ("remove_ff00", "remove_rst"):
        hits = [
            i for i in range(start, end - 1)
            if data[i] == 0xFF
            and (data[i + 1] == 0 if kind == "remove_ff00" else 0xD0 <= data[i + 1] <= 0xD7)
        ]
        if hits:
            i = draw(st.sampled_from(hits))
            return data[:i] + data[i + 2 :]
    return data


def table_variants():
    """The annex K tables, and each with its code space completed by a DC
    category or an AC symbol, so that 1-bit padding decodes as that symbol."""
    out = [STANDARD_TABLES]
    for which, fills in ((0, (0x00, 0x03, 0x0B, 0x0C)), (1, (0x00, 0xF0, 0x01, 0x3A))):
        for fill in fills:
            tables = [list(t) for t in STANDARD_TABLES]
            tables[which][1:] = complete_code(tables[which][1], tables[which][2], fill)
            out.append(tables)
    return out


class TestAgainstOracle:
    @pytest.mark.parametrize("base", range(len(BASES)))
    def test_scan_cut_short_at_every_byte(self, base):
        # Cuts put the end of the data inside every kind of symbol, so the
        # lookahead limit and magnitude bits taken from padding are reached
        # at every bit alignment. With a complete code the padding itself
        # decodes as symbols until the limit.
        for tables in table_variants():
            data = with_tables(BASES[base], tables)
            start, end = regions(data)
            for cut in range(start, end + 1):
                cut_data = data[:cut] + data[end:]
                assert outcome(cut_data) == oracle_outcome(cut_data), cut

    @pytest.mark.parametrize(
        "ac_symbols",
        [
            [0xF0] * 4,  # ZRL past the block end
            [0xF0] * 3 + [0xF1],  # coefficient index 64
            [0xF0] * 3 + [0xE1],  # coefficient at index 63 ends the block
            [0xF0] * 3 + [0x00],
            [0x01] * 63,
            [0x01] * 63 + [0x00],  # EOB after a full block is the next DC code
        ],
    )
    def test_block_end_boundaries(self, ac_symbols):
        writer = jpegio._BitWriter()
        for _ in range(2):
            writer.write(*jpegio._DC_ENC[0])
            for symbol in ac_symbols:
                writer.write(*jpegio._AC_ENC[symbol])
                writer.write(1, symbol & 0x0F)
        writer.flush()
        data = with_scan(GRAY_HEADERS[2], bytes(writer.out))
        assert outcome(data) == oracle_outcome(data)

    @pytest.mark.parametrize("padding_blocks", [1, 2, 3])
    @pytest.mark.parametrize("coefficients", range(8))
    @pytest.mark.parametrize("dc_fill, ones", [(0x00, 0), (0x0B, 0), (0x0B, 10)])
    def test_blocks_decoded_from_padding(self, padding_blocks, coefficients, dc_fill, ones):
        # With both code spaces completed, 1-bit padding decodes as blocks
        # of the DC fill (category 0, or 11 with its magnitude bits read from
        # padding) and EOB. One coded block of 3-bit coefficients ends at
        # every bit alignment, and `ones` more 1-bits in the data start a
        # fill code before the end, so the lookahead limit and the padding
        # rule for magnitude bits decide whether padding supplies the rest.
        tables = [list(t) for t in STANDARD_TABLES]
        for table, fill in zip(tables, (dc_fill, 0x00)):
            table[1:] = complete_code(table[1], table[2], fill)
        n = 1 + padding_blocks
        header = encode_grids(8 * n, 8, [(1, 1, 1)], [[1]], {1: np.zeros((n, 64), dtype=int)})
        writer = jpegio._BitWriter()
        if dc_fill:  # -2047, so that a padding block's +2047 stays in range
            writer.write(*jpegio._DC_ENC[11])
            writer.write(0, 11)
        else:
            writer.write(*jpegio._DC_ENC[0])
        for _ in range(coefficients):
            writer.write(*jpegio._AC_ENC[0x01])
            writer.write(1, 1)
        writer.write(*jpegio._AC_ENC[0x00])
        writer.write((1 << ones) - 1, ones)
        writer.flush()
        data = with_tables(with_scan(header, bytes(writer.out)), tables)
        assert outcome(data) == oracle_outcome(data)

    @pytest.mark.parametrize(
        "diffs", [(2047, 0), (2047, 1), (-2047, 0), (-2047, -1), (1024, 1023), (1024, 1024)]
    )
    def test_dc_range_boundary(self, diffs):
        # DC values reach +-2047; one more fails the whole scan.
        writer = jpegio._BitWriter()
        for diff in diffs:
            size = abs(diff).bit_length()
            writer.write(*jpegio._DC_ENC[size])
            writer.write(diff if diff >= 0 else diff + (1 << size) - 1, size)
            writer.write(*jpegio._AC_ENC[0x00])
        writer.flush()
        data = with_scan(GRAY_HEADERS[2], bytes(writer.out))
        assert outcome(data) == oracle_outcome(data)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.one_of(mutated_stream(), symbol_stream()))
    def test_mutated_streams_match_the_oracle(self, data):
        # Both decoders return the same grids or raise the same JpegError;
        # any other exception fails the test.
        assert outcome(data) == oracle_outcome(data)


# ---------------------------------------------------------------------------
# The lane decoder: the oracle tests with every single-component scan decoded
# by 1 lane, a few lanes or more lanes than symbols, and large scans at the
# default sizing
# ---------------------------------------------------------------------------

LANE_COUNTS = {"1-lane": 1, "3-lanes": 3, "more-lanes-than-symbols": 1 << 20}


def by_lanes(n_lanes):
    """Every single-component scan decoded by n_lanes lanes, or one per bit
    when it has fewer bits."""
    return mock.patch.multiple(jpegio, _LANE_MIN_BYTES=0, _LANE_BITS=1, _LANES=n_lanes)


def lane_outcome(data: bytes):
    """outcome(data), and per lane-decoded segment whether the lanes' result
    stood (True) or the sequential decoder had to decide (False)."""
    stood = []
    decode_lanes = jpegio._decode_lanes

    def spy(*args):
        path = decode_lanes(*args)
        stood.append(path is not None)
        return path

    with mock.patch.object(jpegio, "_decode_lanes", spy):
        return outcome(data), stood


@pytest.fixture(scope="class", params=LANE_COUNTS.values(), ids=LANE_COUNTS.keys())
def every_scan_by_lanes(request):
    with by_lanes(request.param):
        yield


@pytest.mark.usefixtures("every_scan_by_lanes")
class TestRestartAndComponentsByLanes(TestRestartAndComponents):
    pass


@pytest.mark.usefixtures("every_scan_by_lanes")
class TestAgainstOracleByLanes(TestAgainstOracle):
    # The block-end, padding and DC range boundaries under each lane count;
    # the cuts and the fuzz take the lane counts in turn (TestLanesInTurn),
    # as running each under all three would triple their run time.
    test_scan_cut_short_at_every_byte = None
    test_mutated_streams_match_the_oracle = None


class TestLanesInTurn:
    def test_scan_cut_short_at_every_byte(self):
        # A gray stream of one four-block segment, so that cuts fall in every
        # lane's range; a lane decodes a symbol in about 20 us, so a larger
        # base would take far longer. Restart segments and several scans are
        # covered by the restart tests and the fuzz.
        gray = jpegio.encode_baseline_gray(
            synth_patch(np.random.default_rng(7), side=16), dctsim.standard_table(90)
        )
        # With both code spaces completed, 1-bit padding decodes as whole
        # blocks, so the lookahead limit decides how many blocks a cut keeps.
        both = [list(t) for t in STANDARD_TABLES]
        for table in both:
            table[1:] = complete_code(table[1], table[2], 0x00)
        counts = list(LANE_COUNTS.values())
        turn = 0
        for tables in table_variants() + [both]:
            data = with_tables(gray, tables)
            start, end = regions(data)
            for cut in range(start, end + 1):
                cut_data = data[:cut] + data[end:]
                n_lanes = counts[turn % len(counts)]
                turn += 1
                with by_lanes(n_lanes):
                    got = outcome(cut_data)
                assert got == oracle_outcome(cut_data), (cut, n_lanes)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.one_of(mutated_stream(), symbol_stream()), st.sampled_from(list(LANE_COUNTS.values())))
    def test_mutated_streams_match_the_oracle(self, data, n_lanes):
        with by_lanes(n_lanes):
            got = outcome(data)
        assert got == oracle_outcome(data)


def mosaic(seed: int, side: int) -> GrayImage:
    """side x side pixels of 64 x 64 synthetic patches, as the benchmark's images."""
    n = side // 64
    tiles = [p.pixels for p in synth_patches(seed, n * n)]
    return GrayImage(np.vstack([np.hstack(tiles[r * n : (r + 1) * n]) for r in range(n)]))


@pytest.fixture(scope="module")
def megapixel() -> bytes:
    # Quality 50 keeps the traced sequential parse of the memory test to a
    # few seconds; at quality 90 it takes about 15 s and the ratio is 1.23.
    return jpegio.encode_baseline_gray(mosaic(11, 1024), dctsim.standard_table(50))


class TestLargeScans:
    @pytest.mark.parametrize("restart_interval", [0, 3500])
    def test_mosaic_at_default_sizing(self, restart_interval):
        data = jpegio.encode_baseline_gray(mosaic(12, 512), dctsim.standard_table(90))
        if restart_interval:
            grid = jpegio.parse_jpeg(data).coeffs.values
            data = encode_grids(512, 512, [(1, 1, 1)], [[1]], {1: grid}, restart_interval)
        got, stood = lane_outcome(data)
        assert got == oracle_outcome(data)
        # Lanes decode the scan, or with restarts its first segment; the short
        # second segment is below the size threshold.
        assert stood == [True]

    @pytest.mark.parametrize("offset, fails", [(3, True), (0, False)])
    def test_flipped_byte_in_a_megapixel_scan(self, megapixel, offset, fails):
        # A flipped byte mid-scan either breaks the decode, which the lanes
        # leave to the sequential decoder and its error, or the stream
        # resynchronises into other blocks, which the lanes decode alike.
        start, end = regions(megapixel)
        i = (start + end) // 2 + offset
        data = megapixel[:i] + bytes([megapixel[i] ^ 0x55]) + megapixel[i + 1 :]
        expected = oracle_outcome(data)
        assert (expected[0] is jpegio.JpegFormatError) == fails
        got, stood = lane_outcome(data)
        assert got == expected
        assert stood == [not fails]

    def test_parse_memory_peak(self, megapixel):
        def peak(min_bytes):
            with mock.patch.object(jpegio, "_LANE_MIN_BYTES", min_bytes):
                jpegio.parse_jpeg(megapixel)  # decode tables are built outside the count
                tracemalloc.start()
                try:
                    jpegio.parse_jpeg(megapixel)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert lane_outcome(megapixel)[1] == [True]
        assert peak(jpegio._LANE_MIN_BYTES) <= 1.5 * peak(1 << 62)
