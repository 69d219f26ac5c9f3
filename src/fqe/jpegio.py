"""Baseline JPEG parsing and encoding, plus PGM ingestion.

The parser recovers quantization tables and quantized luminance DCT
coefficients exactly as stored in the entropy-coded stream; no inverse DCT
or pixel reconstruction happens here, so no extra rounding or truncation
error is introduced on the estimation path. The encoder writes minimal
single-component baseline files using the standard annex Huffman tables and
the same quantizer as the DCT simulator, which makes the file-based and
simulated compression paths agree bit-exactly.
"""

from __future__ import annotations

import bisect
import functools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import cycle, islice

import numpy as np

from . import dctsim
from .types import CoeffGrid, GrayImage, QuantTable


class JpegError(Exception):
    """Base class for JPEG parse and encode failures."""


class JpegFormatError(JpegError):
    """Malformed or truncated JPEG stream."""


class UnsupportedJpegError(JpegError):
    """Well-formed JPEG using a coding mode this parser does not handle."""


class PgmError(ValueError):
    """Malformed or truncated PGM stream."""


# Marker code bytes (the byte after 0xFF).
_SOI, _EOI, _SOS, _DQT, _DHT, _DRI, _DAC = (
    0xD8, 0xD9, 0xDA, 0xDB, 0xC4, 0xDD, 0xCC,
)
_SOF_NAMES = {
    0xC1: "extended sequential",
    0xC2: "progressive",
    0xC3: "lossless",
    0xC5: "differential sequential",
    0xC6: "differential progressive",
    0xC7: "differential lossless",
    0xC9: "arithmetic sequential",
    0xCA: "arithmetic progressive",
    0xCB: "arithmetic lossless",
    0xCD: "differential arithmetic sequential",
    0xCE: "differential arithmetic progressive",
    0xCF: "differential arithmetic lossless",
}

# Annex K.3 Huffman table specs: (bits per code length 1..16, values).
_DC_LUM_BITS = (0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
_DC_LUM_VALS = tuple(range(12))
_AC_LUM_BITS = (0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125)
_AC_LUM_VALS = (
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
)


@dataclass
class ComponentInfo:
    comp_id: int
    h: int
    v: int
    tq: int
    blocks_w: int = 0
    blocks_h: int = 0


@dataclass
class FrameInfo:
    width: int
    height: int
    components: list[ComponentInfo]
    restart_interval: int = 0


@dataclass
class ParsedJpeg:
    """Quant tables keyed by component id, luminance grid, frame metadata,
    and the quantized zig-zag blocks of every scanned component by id, as
    int16 grids."""

    tables: dict[int, QuantTable]
    coeffs: CoeffGrid
    frame: FrameInfo
    component_coeffs: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def luma_table(self) -> QuantTable:
        return self.tables[self.frame.components[0].comp_id]


# ---------------------------------------------------------------------------
# Huffman decode tables, one per table definition, kept in a small cache.
# ---------------------------------------------------------------------------


def _codes(bits: tuple[int, ...], values: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """Yield (code, length, symbol) for each code of a table definition, in
    the canonical order of T.81 Annex C."""
    symbols = iter(values)
    code = 0
    for length, count in enumerate(bits, 1):
        for symbol in islice(symbols, count):
            if code >= 1 << length:
                raise JpegFormatError("Huffman table overflows its code space")
            yield code, length, symbol
            code += 1
        code <<= 1


# A decode table maps every 16-bit peek to one int32: the value's 16 bits in
# bits 0-15, the bits used (code plus magnitude) in bits 16-20 and a state
# advance in bits 21-30. Both decoders read it. For an AC coefficient and for
# ZRL, advance & 0x7F is the step of the coefficient index. In the lane
# decoder (see _decode_lanes) a lane's state s is 1 when a DC symbol is next
# and otherwise 1 + the index of the next AC coefficient (2..65; 65 only
# after a ZRL, when EOB alone may follow). A symbol moves state s to
# _NEXT[s + advance], which is 0 for every error the sequential decoder
# raises on that symbol. An invalid prefix maps to _ADV_ERR alone; a DC
# category above 11 to _ADV_ERR with its code length and category. A slow
# entry's code plus magnitude exceed 16 bits: its advance is raised by
# _ADV_SLOW, which _NEXT ignores, and its value field holds the magnitude
# size, for the value is read from the bits of the scan (_slow_entry; the lane
# decoder reads those of its path's slow entries once the path is known).
# _PARKED is the state of a lane that has stopped. A parked lane peeks at a
# bit of 0xFF padding, 0xFFFF, which _PARKED_BASE maps to the zero entry
# after a scan's DC and AC tables, so it stays.
_ADV_DC, _ADV_ZRL, _ADV_COEF, _ADV_EOB, _ADV_ERR, _ADV_SLOW = 1, 16, 128, 256, 384, 512
_PARKED = 100
_PARKED_BASE = (2 << 16) - 0xFFFF
_NEXT = np.zeros(1024, dtype=np.int8)
_NEXT[1 + _ADV_DC] = 2
_NEXT[_ADV_ZRL + 2 : 66] = np.arange(_ADV_ZRL + 2, 66)
_NEXT[_ADV_COEF + 3 : _ADV_COEF + 65] = np.arange(3, 65)
_NEXT[_ADV_COEF + 65] = 1  # a coefficient at index 63 ends the block
_NEXT[_ADV_EOB + 2 : _ADV_EOB + 66] = 1
_NEXT[_ADV_SLOW:] = _NEXT[:-_ADV_SLOW]
_NEXT[_PARKED] = _PARKED
# Offset of the table for the state that _NEXT gives, by _NEXT index.
_BASE = np.where((_NEXT > 1) & (_NEXT <= 65), 1 << 16, 0)
_BASE[_PARKED] = _PARKED_BASE

def _build_table(bits: tuple[int, ...], values: tuple[int, ...], dc: bool) -> np.ndarray:
    """The decode table of a Huffman table definition, code by code."""
    table = np.full(1 << 16, _ADV_ERR << 21, dtype=np.int32)
    for code, length, symbol in _codes(bits, values):
        if dc:
            size, adv = symbol, _ADV_DC if symbol <= 11 else _ADV_ERR
        else:
            run, size = symbol >> 4, symbol & 0x0F
            adv = _ADV_COEF + run + 1 if size else _ADV_ZRL if run == 15 else _ADV_EOB
        start, stop = code << (16 - length), (code + 1) << (16 - length)
        used = length + size
        if adv == _ADV_ERR:
            table[start:stop] = size | (length << 16) | (adv << 21)
        elif used <= 16:
            raw = np.arange(1 << size, dtype=np.int32)
            value = np.where(raw < (1 << size) >> 1, raw - ((1 << size) - 1), raw)
            entries = (value & 0xFFFF) | (used << 16) | (adv << 21)
            table[start:stop] = np.repeat(entries, 1 << (16 - used))
        else:
            table[start:stop] = size | (used << 16) | ((adv + _ADV_SLOW) << 21)
    return table


@functools.lru_cache(maxsize=8)
def _huffman_table(tc: int, bits: tuple[int, ...], values: tuple[int, ...]) -> np.ndarray:
    """Decode table of one DHT entry (class tc), from a bounded LRU cache."""
    return _build_table(bits, values, dc=tc == 0)


def _split_entropy(data: bytes, start: int) -> tuple[list[bytes], list[int], int]:
    """Slice the entropy-coded stream into restart segments.

    Returns the unstuffed segments, the RST indices found between them, and
    the offset of the terminating marker's 0xFF byte. Each 0xFF byte is
    classed by the byte after it: 0x00 (a stuffed 0xFF), 0xFF (a fill byte),
    RST0-7, or the terminating marker.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ff = np.flatnonzero(buf[start:-1] == 0xFF) + start
    code = buf.take(ff + 1)
    marker = np.flatnonzero((code != 0x00) & (code != 0xFF) & ((code & 0xF8) != 0xD0))
    if not marker.size:
        raise JpegFormatError("entropy-coded data is truncated")
    end = int(ff[marker[0]])
    ff, code = ff[: marker[0]] - start, code[: marker[0]]
    rst = (code & 0xF8) == 0xD0
    drop = np.concatenate([ff[code == 0x00] + 1, ff[code == 0xFF], ff[rst], ff[rst] + 1])
    keep = np.ones(end - start, dtype=bool)
    keep[drop] = False
    body = buf[start:end][keep].tobytes()
    # A segment ends where its RST marker was, less the bytes dropped before it.
    cuts = (ff[rst] - np.searchsorted(np.sort(drop), ff[rst])).tolist()
    segments = [body[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(body)])]
    return segments, (code[rst] - 0xD0).tolist(), end


# A segment is decoded as if 1-bits followed its data. A 16-bit peek may reach
# at most _LOOKAHEAD_BYTES of them: a peek further out means the scan data was
# cut short. Magnitude bits come from padding only when an earlier peek already
# reached it. Each segment is followed by _GAP 0xFF bytes in the window stream,
# so no bit of padding a decode can read belongs to the next segment.
_LOOKAHEAD_BYTES = 6
_GAP = 8
_WINDOW_BYTES = 5
_WINDOW_BITS = 8 * _WINDOW_BYTES


def _bit_windows(stream: bytes) -> memoryview:
    """w[i] = the _WINDOW_BYTES bytes from offset i, big-endian, 0xFF past the end."""
    raw = np.frombuffer(stream + b"\xff" * (_WINDOW_BYTES - 1), dtype=np.uint8)
    n = len(stream)
    windows = np.zeros(n, dtype=np.uint64)
    for i in range(_WINDOW_BYTES):
        windows <<= 8
        windows |= raw[i : i + n]
    return memoryview(windows)


def _decode_scan(
    segments: list[bytes],
    segment_dests: list[Sequence[int]],
    pattern: list[int],
    comp_tables: list[tuple[np.ndarray, np.ndarray]],
    outputs: list[np.ndarray],
) -> None:
    """Decode each restart segment's blocks into the zeroed component grids
    `outputs`: block i of a segment into block dests[i] of the grid of
    component pattern[i % len(pattern)], the scan's per-MCU pattern."""
    tables = [
        (memoryview(dc), memoryview(ac), memoryview(out.reshape(-1)))
        for (dc, ac), out in zip(comp_tables, outputs)
    ]
    windows = None  # built once a segment needs the sequential decoder
    lane_table = None
    paths = []
    start = 0
    for segment, dests in zip(segments, segment_dests):
        path = None
        # Below 256 MB, a bit offset on a lane path fits in int32.
        if len(comp_tables) == 1 and _LANE_MIN_BYTES <= len(segment) < 1 << 28:
            if lane_table is None:
                # DC and AC tables, then a zero for parked lanes.
                lane_table = np.zeros((2 << 16) + 1, dtype=np.int32)
                lane_table[: 2 << 16].reshape(2, -1)[:] = comp_tables[0]
            n_lanes = min(_LANES, 8 * len(segment) // _LANE_BITS)
            path = _decode_lanes(segment, len(dests), lane_table, n_lanes)
        if path is None:
            if windows is None:
                windows = _bit_windows(b"".join(s + b"\xff" * _GAP for s in segments))
            _decode_segment(windows, 8 * start, 8 * len(segment), dests, pattern, tables)
        else:
            paths.append((dests[0], path))
        start += len(segment) + _GAP
    del windows, lane_table  # freed before the scatter, which is the decode's memory peak
    for dest, path in paths:
        _scatter_path(outputs[0], dest, *path)


def _slow_entry(e: int, w: int, p: int, end: int) -> int:
    """The entry of a symbol at bit p of window w that the table does not
    resolve: a slow entry with its value read from w, or the decode error."""
    adv, used, size = e >> 21, (e >> 16) & 31, e & 0xFFFF
    if adv == _ADV_ERR:
        if not used:
            raise JpegFormatError("invalid Huffman code in scan data")
        # 8-bit baseline DC differences have categories 0..11 (T.81 F.1.2.1).
        raise JpegFormatError(f"DC magnitude category {size} exceeds 11")
    # (p + 23) & ~7 ends the bytes that the 16-bit peek at p reached.
    if p + used > end and p + used > (p + 23) & ~7:
        raise JpegFormatError("entropy-coded data is truncated")
    v = (w >> (_WINDOW_BITS - (p & 7) - used)) & ((1 << size) - 1)
    if v < (1 << (size - 1)):
        v -= (1 << size) - 1
    return (e - (_ADV_SLOW << 21)) & ~0xFFFF | (v & 0xFFFF)


def _decode_segment(
    windows: memoryview,
    p: int,
    n_bits: int,
    dests: Sequence[int],
    pattern: list[int],
    tables: list[tuple[memoryview, memoryview, memoryview]],
) -> None:
    """Decode the segment of n_bits bits at bit p of `windows` into the
    blocks `dests`, whose components cycle through `pattern`. tables holds
    each component's DC and AC decode tables and its flat grid."""
    end = p + n_bits
    limit = end + 8 * _LOOKAHEAD_BYTES - 16
    shift = _WINDOW_BITS - 16
    dc_pred = [0] * len(tables)
    for ci, dest in zip(cycle(pattern), dests):
        dc_table, ac_table, grid = tables[ci]
        if p > limit:
            raise JpegFormatError("entropy-coded data is truncated")
        w = windows[p >> 3]
        e = dc_table[(w >> (shift - (p & 7))) & 0xFFFF]
        if e >> 21 != _ADV_DC:
            e = _slow_entry(e, w, p, end)
        p += (e >> 16) & 31
        pred = dc_pred[ci]
        diff = ((e & 0xFFFF) ^ 0x8000) - 0x8000
        if diff:
            # DC values lie within +-1024, so a prediction past +-2047 is corrupt.
            pred += diff
            if not -2048 < pred < 2048:
                raise JpegFormatError("DC coefficient outside the 8-bit baseline range")
            dc_pred[ci] = pred
        # k is the flat grid index of the last coefficient decoded.
        k = dest << 6
        stop = k + 63
        grid[k] = pred
        while True:
            if p > limit:
                raise JpegFormatError("entropy-coded data is truncated")
            w = windows[p >> 3]
            e = ac_table[(w >> (shift - (p & 7))) & 0xFFFF]
            adv = e >> 21
            if adv >= _ADV_EOB:
                if adv == _ADV_EOB:  # any size-0 symbol other than ZRL
                    p += (e >> 16) & 31
                    break
                if k + (adv & 0x7F) <= stop:  # else the index check fails first
                    e = _slow_entry(e, w, p, end)
            k += adv & 0x7F
            if k > stop:
                if adv == _ADV_ZRL:
                    raise JpegFormatError("AC run overflows the block")
                raise JpegFormatError("AC coefficient index overflows the block")
            p += (e >> 16) & 31
            if adv != _ADV_ZRL:
                grid[k] = ((e & 0xFFFF) ^ 0x8000) - 0x8000
                if k == stop:
                    break


# Restart segments of single-component scans with at least _LANE_MIN_BYTES of
# data are decoded by lanes, one per _LANE_BITS bits of data and at most
# _LANES. Below that size the sequential decoder is faster, and fewer, longer
# lanes are faster on smaller segments (measured on a 2-core host).
_LANE_MIN_BYTES = 32 * 1024
_LANE_BITS = 768
_LANES = 1024
# A numpy call costs about as much as a few symbols decoded in Python, so
# phase 2 finishes in Python once at most _TAIL_LANES lanes still run.
_TAIL_LANES = 24


def _grown(arrays, t: int, steps: int) -> list[np.ndarray]:
    """Copies of (step, lane) arrays with room for `steps` steps, of which
    the first t are kept."""
    grown = [np.empty((steps, a.shape[1]), dtype=a.dtype) for a in arrays]
    for new, old in zip(grown, arrays):
        new[:t] = old[:t]
    return grown


def _decode_lanes(
    segment: bytes, n_blocks: int, table: np.ndarray, n_lanes: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode the first n_blocks blocks of a restart segment with lanes.

    Huffman-coded JPEG data resynchronises by itself (Klein and Wiseman,
    "Parallel Huffman Decoding with Applications to JPEG Files", 2003): a
    decoder started at a guessed bit offset soon reaches a (bit, state) pair
    of the true decode and follows it from there. Lane l starts at bit
    l * nbits // n_lanes in DC state, and numpy steps all lanes one symbol at
    a time. In phase 1 each lane decodes up to the next lane's start and
    records the state at every bit it decodes from; a guess that hits an
    error starts again one bit past it (lane 0 starts at the segment's first
    bit and does not guess). In phase 2 each lane runs on until it reaches a
    bit where the owner of that range recorded the same state; once few
    lanes run, only the lane the path is in is decoded on, in Python. Lane
    0's decode, continued through these meeting points, is the sequential one.

    table holds the scan's lane tables. Returns the state before every
    symbol up to the end of block n_blocks plus the state after it, and the
    values of those symbols; or None when the path has an error or a DC
    value out of range before then, so that the sequential decoder decides.
    """
    nbits = 8 * len(segment)
    limit = nbits + 8 * _LOOKAHEAD_BYTES - 16
    # win[i] holds the 4 bytes from byte i on, big-endian, 1s past the end
    # as for _decode_segment: enough for a 16-bit peek at any bit of byte i.
    raw = np.frombuffer(segment + b"\xff" * (_GAP + 4), dtype=np.uint8)
    win = np.zeros(raw.size - 4, dtype=np.uint32)
    for i in range(4):
        win <<= 8
        win |= raw[i : i + win.size]
    n_lanes = max(1, min(n_lanes, nbits))
    starts = np.arange(n_lanes + 1) * nbits // n_lanes
    seen = np.zeros(nbits + 64, dtype=np.int8)  # state recorded at each bit, 0: none
    park = nbits + 56  # a byte of 0xFF padding with a window, where no lane decodes or meets

    def step(p, s, base):
        """Decode at bits p in states s: the table entries, _NEXT indices and
        next states, and whether no next state is 0."""
        w = win.take(p >> 3)
        e = table.take(((w >> (16 - (p & 7))) & 0xFFFF) + base)
        x = s + (e >> 21)
        ns = _NEXT.take(x)
        ok = ns.all()
        return e, x, ns, ok

    # Phase 1, without compaction: a lane that is done is parked, and the
    # records form one (step, lane) array per field, of which only the steps
    # taken are written. They grow an eighth at a time, and at step 32 to
    # room for 5/4 of the steps that the median lane's progress projects.
    span = int(starts[1])
    cap = 32
    states = np.empty((cap, n_lanes), dtype=np.int8)
    values = np.empty((cap, n_lanes), dtype=np.int32)
    p = starts[:-1].copy()
    s = np.ones(n_lanes, dtype=np.int8)
    base = np.zeros(n_lanes, dtype=np.int64)
    ends = starts[1:].copy()
    restart = starts[:-1].copy()
    restart_row = np.zeros(n_lanes, dtype=np.int64)  # a lane's first record after it
    rows = np.zeros(n_lanes, dtype=np.int64)
    out_p = np.zeros(n_lanes, dtype=np.int64)
    out_s = np.zeros(n_lanes, dtype=np.int8)
    stop = np.full(n_lanes, -1, dtype=np.int64)  # bit of the error that ended a lane
    active, t, check = n_lanes, 0, 0
    while active:
        if t == cap:
            cap += cap // 8
            if t == 32:
                ran = max(float(np.median(p - starts[:-1])), 1.0)
                cap = max(cap, int(1.25 * t * span / ran) + 16)
            states, values = _grown((states, values), t, cap)
        seen[p] = s
        e, x, ns, ok = step(p, s, base)
        states[t], values[t] = s, e
        t += 1
        base = _BASE.take(x)
        np_ = p + ((e >> 16) & 31)
        if not ok:
            i = np.flatnonzero(ns == 0)
            if i.size and i[0] == 0:  # the decode fails in lane 0's range
                stop[0], rows[0] = p[0], t
                break
            np_[i] = restart[i] = p[i] + 1
            restart_row[i] = t
            ns[i], base[i] = 1, 0
        p, s = np_, ns
        if t >= check:
            # A symbol or a restart moves a lane at most 31 bits: skip checks
            # no lane can pass.
            left = ends - p
            nearest = int(left.min())
            if nearest <= 0:
                done = np.flatnonzero(left <= 0)
                rows[done], out_p[done], out_s[done] = t, p[done], s[done]
                p[done], s[done], base[done], ends[done] = park, _PARKED, _PARKED_BASE, 1 << 62
                left[done] = 1 << 62
                active -= done.size
                nearest = int(left.min())
            check = t + (nearest + 30) // 31
    for lane in np.flatnonzero(restart > starts[:-1]).tolist():
        seen[starts[lane] : restart[lane]] = 0  # recorded by guesses that failed

    # Phase 2, with compaction: few lanes run long. The path is known once
    # the lane it has reached ends in an error; lanes still running then are
    # off the path.
    meet = np.full(n_lanes, -1, dtype=np.int64)
    chain = [0]
    lane_starts = starts.tolist()

    def follow():
        while meet[chain[-1]] >= 0:
            chain.append(bisect.bisect_right(lane_starts, meet[chain[-1]]) - 1)
        return stop[chain[-1]] >= 0

    lanes = np.flatnonzero((restart < starts[1:]) & (stop < 0))
    if stop[0] >= 0:
        lanes = lanes[:0]
    p, s = out_p[lanes], out_s[lanes]
    base = np.where(s > 1, 1 << 16, 0)
    tail: list[list[np.ndarray]] = [[], [], []]  # state, entry, lane
    while lanes.size > _TAIL_LANES:
        met = seen.take(p) == s
        if met.any():
            meet[lanes[met]] = p[met]
            keep = ~met
            lanes, p, s, base = lanes[keep], p[keep], s[keep], base[keep]
        if follow() or lanes.size <= _TAIL_LANES:
            break
        e, x, ns, ok = step(p, s, base)
        for r, a in zip(tail, (s, e, lanes)):
            r.append(a)
        if not ok or p.max() > limit:
            bad = (ns == 0) | (p > limit)
            stop[lanes[bad]] = p[bad]
            keep = ~bad
            lanes, p, e, x, ns = lanes[keep], p[keep], e[keep], x[keep], ns[keep]
        base = _BASE.take(x)
        p = p + ((e >> 16) & 31)
        s = ns

    # The sync tail, in Python: decode only the lane the path is in, symbol by
    # symbol, until it meets an owner's records or stops; lanes off the path
    # are left unfinished.
    seen_at, win_at, table_at = memoryview(seen), memoryview(win), memoryview(table)
    next_state = _NEXT.tobytes()
    live = dict(zip(lanes.tolist(), zip(p.tolist(), s.tolist())))
    finish = {}  # lane: its states and entries from the Python tail
    while not follow():
        lane = chain[-1]
        at, state = live[lane]
        walked_s, walked_e = [], []
        while seen_at[at] != state:
            w = win_at[at >> 3]
            e = table_at[((w >> (16 - (at & 7))) & 0xFFFF) | (state > 1) << 16]
            walked_s.append(state)
            walked_e.append(e)
            state = next_state[state + (e >> 21)]
            if not state or at > limit:
                stop[lane] = at
                break
            at += (e >> 16) & 31
        else:
            meet[lane] = at
        finish[lane] = walked_s, walked_e
    del seen_at, win_at, table_at, win  # so that seen and win are freed before the stitch

    # Stitch: lane 0 up to where it met an owner's records, that owner's
    # records from there on, and so on, up to the error that ended a lane.
    # A lane's records before `first`: those of its failed guesses, then one
    # per bit it recorded from its last start on.
    first = [0, *meet[chain[:-1]].tolist()]
    restart_at, restart_rows = restart.tolist(), restart_row.tolist()
    skip = [
        restart_rows[lane] + np.count_nonzero(seen[restart_at[lane] : bit])
        for lane, bit in zip(chain, first)
    ]
    del seen
    # The tail records go after phase 1's, lane by lane, from element
    # tail_at[lane] of the flattened (step, lane) arrays on: a lane steps in
    # phase 2 from the first step until it meets or stops, so its i-th record
    # there is from step i, and the Python tail goes on after the last step.
    steps = [a.size for a in tail[2]]
    tail_lanes = np.concatenate(tail[2]) if steps else np.zeros(0, dtype=np.int64)
    n2 = np.bincount(tail_lanes, minlength=n_lanes)
    for lane, (walked_s, _) in finish.items():
        n2[lane] += len(walked_s)
    tail_at = np.cumsum(n2) - n2 + t * n_lanes
    room = -(-int(tail_at[-1] + n2[-1]) // n_lanes)
    if room > cap:
        states, values = _grown((states, values), t, room)
    flat_s, flat_e = states.reshape(-1), values.reshape(-1)
    if steps:
        dest = tail_at.take(tail_lanes)
        dest += np.repeat(np.arange(len(steps)), steps)
        flat_s[dest] = np.concatenate(tail[0])
        flat_e[dest] = np.concatenate(tail[1])
    for lane, (walked_s, walked_e) in finish.items():
        lo = int(tail_at[lane]) + len(steps)
        flat_s[lo : lo + len(walked_s)], flat_e[lo : lo + len(walked_s)] = walked_s, walked_e
    del tail, tail_lanes
    # Each lane of the chain adds its phase-1 records from `skip` on, a
    # column of the (step, lane) arrays, then its tail records, a run after
    # them: pieces of the flattened arrays, each with its first element and
    # stride. A piece's elements are gathered by an index that starts with
    # the jump from the piece before and then steps by the stride.
    chain = np.array(chain)
    lens = np.stack([rows[chain] - skip, n2[chain]], axis=1).reshape(-1)
    piece = lens > 0
    firsts = np.stack([np.array(skip) * n_lanes + chain, tail_at[chain]], axis=1).reshape(-1)[piece]
    strides = np.tile([n_lanes, 1], chain.size)[piece]
    lens = lens[piece]
    jumps = firsts - np.concatenate([[0], (firsts + strides * (lens - 1))[:-1]])
    heads = (np.cumsum(lens) - lens).tolist()
    path_s = np.empty(heads[-1] + int(lens[-1]), dtype=np.int8)
    path_e = np.empty(path_s.size, dtype=np.int32)
    # A few lanes at a time, so that the index stays in cache.
    for k in range(0, lens.size, 128):
        idx = np.repeat(strides[k : k + 128], lens[k : k + 128])
        idx[np.subtract(heads[k : k + 128], heads[k])] = jumps[k : k + 128]
        idx[0] = firsts[k]
        np.cumsum(idx, out=idx)
        # The index is in range: "clip" skips numpy's bounds check.
        flat_s.take(idx, out=path_s[heads[k] : heads[k] + idx.size], mode="clip")
        flat_e.take(idx, out=path_e[heads[k] : heads[k] + idx.size], mode="clip")
    del states, values, flat_s, flat_e, idx

    # Block n_blocks ends where block n_blocks + 1 would start; only the
    # path's last symbol can be an error, so that must come after it.
    dc = np.flatnonzero(path_s == 1)
    if dc.size <= n_blocks:
        return None
    cut = int(dc[n_blocks])
    path_e = path_e[:cut]
    slow = np.flatnonzero(path_e >= _ADV_SLOW << 21)
    if slow.size:
        # The bit where each slow symbol starts: the bits used before it.
        at = path_e >> 16
        at &= 31
        np.cumsum(at, dtype=np.int32, out=at)
        es = path_e.take(slow)
        used, size = (es >> 16) & 31, es & 0xFFFF
        ps = at.take(slow).astype(np.int64) - used
        del at
        # Magnitude bits come from padding only up to the byte that the
        # symbol's 16-bit peek reached, as in _decode_segment.
        end = ps + used
        if ((end > nbits) & (end > ((ps + 23) & ~7))).any():
            return None
        w40 = np.zeros(slow.size, dtype=np.int64)
        for i in range(_WINDOW_BYTES):
            w40 <<= 8
            w40 |= raw.take((ps >> 3) + i)
        v = (w40 >> (_WINDOW_BITS - (ps & 7) - used)) & ((1 << size) - 1)
        v = np.where(v < (1 << (size - 1)), v - ((1 << size) - 1), v)
        path_e[slow] = v & 0xFFFF
    path_v = path_e.astype(np.uint16).view(np.int16)
    preds = np.cumsum(path_v[dc[:n_blocks]])
    if preds.size and int(np.abs(preds).max()) >= 2048:
        return None
    return path_s[: cut + 1], path_v[:cut]


def _scatter_path(out: np.ndarray, dest: int, states: np.ndarray, values: np.ndarray) -> None:
    """Write the blocks of a lane-decoded path into out from block dest on.

    Each symbol's value goes where the state after it points (an EOB or ZRL writes 0 where the
    zeroed block holds 0), then the DC predictions over the DC differences; chunked.
    """
    flat = out.reshape(-1)
    dc = states[:-1] == 1
    block = dest - 1
    for lo in range(0, values.size, 1 << 14):
        hi = lo + (1 << 14)
        at = np.cumsum(dc[lo:hi]) + block
        block = int(at[-1])
        # The state after a coefficient is its index + 2, or 1 after index 63.
        flat[at * 64 + ((states[lo + 1 : hi + 1] - 2) & 63)] = values[lo:hi]
    preds = np.cumsum(values[dc])
    flat[dest * 64 : (dest + preds.size) * 64 : 64] = preds


class _Parser:
    def __init__(self, data: bytes):
        self.data = data
        self.quant_tables: dict[int, np.ndarray] = {}
        self.huff_tables: dict[tuple[int, int], np.ndarray] = {}
        self.frame: FrameInfo | None = None
        self.restart_interval = 0
        self.comp_coeffs: dict[int, np.ndarray] = {}

    def parse(self) -> ParsedJpeg:
        data = self.data
        if len(data) < 4 or data[0] != 0xFF or data[1] != _SOI:
            raise JpegFormatError("missing SOI marker")
        pos = 2
        saw_eoi = False
        while pos < len(data):
            if data[pos] != 0xFF:
                raise JpegFormatError(f"expected marker at offset {pos}")
            # Fill bytes: any number of 0xFF may precede the marker code.
            while pos < len(data) and data[pos] == 0xFF:
                pos += 1
            if pos >= len(data):
                raise JpegFormatError("truncated marker")
            marker = data[pos]
            pos += 1
            if marker == _EOI:
                saw_eoi = True
                break
            if marker == _SOI or marker == 0x00 or 0xD0 <= marker <= 0xD7 or marker == 0x01:
                raise JpegFormatError(f"unexpected marker 0xFF{marker:02X}")
            if pos + 2 > len(data):
                raise JpegFormatError("truncated segment header")
            seg_len = (data[pos] << 8) | data[pos + 1]
            if seg_len < 2 or pos + seg_len > len(data):
                raise JpegFormatError("segment length exceeds file size")
            seg = data[pos + 2 : pos + seg_len]
            if marker == _DQT:
                self._read_dqt(seg)
                pos += seg_len
            elif marker == _DHT:
                self._read_dht(seg)
                pos += seg_len
            elif marker == _DRI:
                if len(seg) != 2:
                    raise JpegFormatError("bad DRI segment")
                self.restart_interval = (seg[0] << 8) | seg[1]
                pos += seg_len
            elif marker == 0xC0:
                self._read_sof(seg)
                pos += seg_len
            elif marker in _SOF_NAMES:
                raise UnsupportedJpegError(
                    f"{_SOF_NAMES[marker]} JPEG is not supported (baseline only)"
                )
            elif marker == _DAC:
                raise UnsupportedJpegError("arithmetic coding is not supported")
            elif marker == _SOS:
                pos = self._read_scan(seg, pos + seg_len)
            else:
                pos += seg_len  # APPn, COM, DNL, anything skippable
        if not saw_eoi:
            raise JpegFormatError("missing EOI marker")
        return self._assemble()

    def _read_dqt(self, seg: bytes) -> None:
        pos = 0
        while pos < len(seg):
            pq = seg[pos] >> 4
            tq = seg[pos] & 0x0F
            pos += 1
            if pq not in (0, 1) or tq > 3:
                raise JpegFormatError("bad DQT precision or table id")
            n = 64 * (pq + 1)
            if pos + n > len(seg):
                raise JpegFormatError("truncated DQT segment")
            if pq == 0:
                zz = np.frombuffer(seg, dtype=np.uint8, count=64, offset=pos)
            else:
                zz = np.frombuffer(seg, dtype=">u2", count=64, offset=pos)
            if zz.min() < 1 or zz.max() > 255:
                raise JpegFormatError("quantization factor outside [1, 255]")
            self.quant_tables[tq] = zz.astype(np.int64)
            pos += n

    def _read_dht(self, seg: bytes) -> None:
        pos = 0
        while pos < len(seg):
            tc = seg[pos] >> 4
            th = seg[pos] & 0x0F
            pos += 1
            if tc > 1 or th > 3:
                raise JpegFormatError("bad DHT class or table id")
            if pos + 16 > len(seg):
                raise JpegFormatError("truncated DHT segment")
            bits = tuple(seg[pos : pos + 16])
            pos += 16
            total = sum(bits)
            if pos + total > len(seg):
                raise JpegFormatError("truncated DHT segment")
            values = tuple(seg[pos : pos + total])
            pos += total
            self.huff_tables[(tc, th)] = _huffman_table(tc, bits, values)

    def _read_sof(self, seg: bytes) -> None:
        if self.frame is not None:
            raise JpegFormatError("multiple SOF segments")
        if len(seg) < 6:
            raise JpegFormatError("truncated SOF segment")
        precision = seg[0]
        if precision != 8:
            raise UnsupportedJpegError(f"{precision}-bit precision is not supported")
        height = (seg[1] << 8) | seg[2]
        width = (seg[3] << 8) | seg[4]
        n_comp = seg[5]
        if height == 0:
            raise UnsupportedJpegError("deferred height (DNL) is not supported")
        if width == 0 or n_comp == 0:
            raise JpegFormatError("bad frame dimensions")
        if len(seg) != 6 + 3 * n_comp:
            raise JpegFormatError("bad SOF segment length")
        comps = []
        for c in range(n_comp):
            cid = seg[6 + 3 * c]
            hv = seg[7 + 3 * c]
            tq = seg[8 + 3 * c]
            h, v = hv >> 4, hv & 0x0F
            if not (1 <= h <= 4 and 1 <= v <= 4) or tq > 3:
                raise JpegFormatError("bad component sampling or table id")
            if any(comp.comp_id == cid for comp in comps):
                raise JpegFormatError(f"duplicate component id {cid} in SOF")
            comps.append(ComponentInfo(comp_id=cid, h=h, v=v, tq=tq))
        self.frame = FrameInfo(width=width, height=height, components=comps)

    def _read_scan(self, seg: bytes, entropy_start: int) -> int:
        frame = self.frame
        if frame is None:
            raise JpegFormatError("SOS before SOF")
        if len(seg) < 1:
            raise JpegFormatError("truncated SOS segment")
        ns = seg[0]
        if not 1 <= ns <= 4:  # T.81 B.2.3
            raise JpegFormatError(f"scan declares {ns} components, not 1 to 4")
        if len(seg) != 1 + 2 * ns + 3:
            raise JpegFormatError("bad SOS segment length")
        by_id = {c.comp_id: i for i, c in enumerate(frame.components)}
        scan_comps: list[ComponentInfo] = []
        comp_tables: list[tuple[np.ndarray, np.ndarray]] = []
        for s in range(ns):
            cid = seg[1 + 2 * s]
            tdta = seg[2 + 2 * s]
            if cid not in by_id:
                raise JpegFormatError(f"scan references unknown component {cid}")
            comp = frame.components[by_id[cid]]
            if comp in scan_comps:
                raise JpegFormatError(f"scan lists component {cid} twice")
            if cid in self.comp_coeffs:  # sequential mode codes it in one scan
                raise JpegFormatError(f"component {cid} is coded in a second scan")
            td, ta = tdta >> 4, tdta & 0x0F
            dc_table = self.huff_tables.get((0, td))
            ac_table = self.huff_tables.get((1, ta))
            if dc_table is None or ac_table is None:
                raise JpegFormatError("scan references a missing Huffman table")
            scan_comps.append(comp)
            comp_tables.append((dc_table, ac_table))
        ss, se, ahal = seg[1 + 2 * ns], seg[2 + 2 * ns], seg[3 + 2 * ns]
        if ss != 0 or se != 63 or ahal != 0:
            raise UnsupportedJpegError("spectral selection implies a non-baseline scan")

        hmax = max(c.h for c in frame.components)
        vmax = max(c.v for c in frame.components)
        if ns == 1:
            comp = scan_comps[0]
            cw = -(-frame.width * comp.h // hmax)
            ch = -(-frame.height * comp.v // vmax)
            comp.blocks_w, comp.blocks_h = -(-cw // 8), -(-ch // 8)
            n_mcus = comp.blocks_w * comp.blocks_h
            pattern = [0]
        else:
            mcus_x = -(-frame.width // (8 * hmax))
            mcus_y = -(-frame.height // (8 * vmax))
            n_mcus = mcus_x * mcus_y
            for comp in scan_comps:
                comp.blocks_w = mcus_x * comp.h
                comp.blocks_h = mcus_y * comp.v
            pattern = [ci for ci, c in enumerate(scan_comps) for _ in range(c.h * c.v)]
        per_mcu = len(pattern)

        # Every block codes a DC symbol and an EOB (or 63 AC terms), at least
        # two bits, so the scan data bounds the block count before anything
        # is allocated for the blocks.
        segments, rst_indices, marker_pos = _split_entropy(self.data, entropy_start)
        data_bytes = sum(len(s) for s in segments)
        if n_mcus * per_mcu > 4 * data_bytes:
            raise JpegFormatError(
                f"{data_bytes} bytes of scan data cannot hold {n_mcus * per_mcu} blocks"
            )

        # The destination block of each block of the scan, in coding order:
        # block (by, bx) of a component in MCU (my, mx) is block
        # (my * v + by, mx * h + bx) of its grid.
        if ns == 1:
            dests: Sequence[int] = range(n_mcus)
        else:
            my, mx = np.divmod(np.arange(n_mcus)[:, None], mcus_x)
            blocks = []
            for c in scan_comps:
                by, bx = np.divmod(np.arange(c.v * c.h), c.h)
                blocks.append((my * c.v + by) * c.blocks_w + mx * c.h + bx)
            dests = np.hstack(blocks).ravel().tolist()

        outputs = []
        for comp in scan_comps:
            arr = np.zeros((comp.blocks_w * comp.blocks_h, 64), dtype=np.int16)
            self.comp_coeffs[comp.comp_id] = arr
            outputs.append(arr)

        ri = self.restart_interval
        expected = 1 if ri == 0 else -(-n_mcus // ri)
        if len(segments) != expected:
            raise JpegFormatError(
                f"expected {expected} restart segment(s), found {len(segments)}"
            )
        for i, n in enumerate(rst_indices):
            if n != i % 8:
                raise JpegFormatError("restart markers out of sequence")

        # A restart segment holds ri whole MCUs, the last one the rest.
        step = ri * per_mcu or len(dests)
        segment_dests = [dests[lo : lo + step] for lo in range(0, len(dests), step)]
        _decode_scan(segments, segment_dests, pattern, comp_tables, outputs)
        return marker_pos

    def _assemble(self) -> ParsedJpeg:
        frame = self.frame
        if frame is None:
            raise JpegFormatError("file contains no frame")
        luma = frame.components[0]
        if luma.comp_id not in self.comp_coeffs:
            raise JpegFormatError("luminance component was never scanned")
        tables: dict[int, QuantTable] = {}
        for comp in frame.components:
            zz = self.quant_tables.get(comp.tq)
            if zz is None:
                raise JpegFormatError(
                    f"component {comp.comp_id} references missing DQT {comp.tq}"
                )
            tables[comp.comp_id] = QuantTable.from_zigzag(zz)
        frame.restart_interval = self.restart_interval
        grid = CoeffGrid(
            width_blocks=luma.blocks_w,
            height_blocks=luma.blocks_h,
            values=self.comp_coeffs[luma.comp_id],
        )
        return ParsedJpeg(
            tables=tables, coeffs=grid, frame=frame, component_coeffs=self.comp_coeffs
        )


def parse_jpeg(data: bytes) -> ParsedJpeg:
    """Parse a baseline JPEG into tables, luminance coefficients, metadata."""
    return _Parser(bytes(data)).parse()


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


_DC_ENC = {symbol: (code, length) for code, length, symbol in _codes(_DC_LUM_BITS, _DC_LUM_VALS)}
_AC_ENC = {symbol: (code, length) for code, length, symbol in _codes(_AC_LUM_BITS, _AC_LUM_VALS)}


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.buf = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        buf = (self.buf << length) | code
        nbits = self.nbits + length
        out = self.out
        while nbits >= 8:
            nbits -= 8
            byte = (buf >> nbits) & 0xFF
            out.append(byte)
            if byte == 0xFF:
                out.append(0x00)
        self.buf = buf & ((1 << nbits) - 1)
        self.nbits = nbits

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)


def _write_block(writer: _BitWriter, block: list[int], pred: int) -> None:
    """Huffman-code one zig-zag block, its DC term as the difference from
    pred, with the annex K luminance tables."""
    dc_enc, ac_enc = _DC_ENC, _AC_ENC
    diff = block[0] - pred
    size = abs(diff).bit_length()
    code, length = dc_enc[size]
    writer.write(code, length)
    if size:
        v = diff if diff >= 0 else diff + (1 << size) - 1
        writer.write(v, size)
    run = 0
    for k in range(1, 64):
        val = block[k]
        if val == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_enc[0xF0]
            writer.write(code, length)
            run -= 16
        size = abs(val).bit_length()
        code, length = ac_enc[(run << 4) | size]
        writer.write(code, length)
        v = val if val >= 0 else val + (1 << size) - 1
        writer.write(v, size)
        run = 0
    if run:
        code, length = ac_enc[0x00]
        writer.write(code, length)


def _segment(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload


def encode_baseline_gray(img: GrayImage, table: QuantTable) -> bytes:
    """Encode a grayscale image as a single-component baseline JPEG.

    Dimensions not divisible by 8 are padded by replicating the last row
    and column; the stored frame dimensions stay the original ones.
    """
    if img.width < 8 or img.height < 8:
        raise ValueError("image must be at least 8x8")
    pad_h = (-img.height) % 8
    pad_w = (-img.width) % 8
    pixels = np.pad(img.pixels, ((0, pad_h), (0, pad_w)), mode="edge")
    zz = dctsim.quantize_blocks(dctsim.fdct_blocks(dctsim.blockify(pixels)), table)

    writer = _BitWriter()
    pred = 0
    for block in zz.tolist():
        _write_block(writer, block, pred)
        pred = block[0]
    writer.flush()

    dqt = _segment(_DQT, bytes([0x00]) + bytes(int(x) for x in table.to_zigzag()))
    sof = _segment(
        0xC0,
        bytes([8])
        + img.height.to_bytes(2, "big")
        + img.width.to_bytes(2, "big")
        + bytes([1, 1, 0x11, 0]),
    )
    dht = _segment(
        _DHT,
        bytes([0x00]) + bytes(_DC_LUM_BITS) + bytes(_DC_LUM_VALS)
        + bytes([0x10]) + bytes(_AC_LUM_BITS) + bytes(_AC_LUM_VALS),
    )
    sos = _segment(_SOS, bytes([1, 1, 0x00, 0, 63, 0]))
    return (
        bytes([0xFF, _SOI]) + dqt + sof + dht + sos
        + bytes(writer.out) + bytes([0xFF, _EOI])
    )


# ---------------------------------------------------------------------------
# PGM input and cropping
# ---------------------------------------------------------------------------


def read_pgm(data: bytes) -> GrayImage:
    """Read a binary PGM (P5). Samples are scaled from 0..maxval to 0..255,
    rounding to nearest, so maxval 255 reads each sample as it is."""
    if not data.startswith(b"P5"):
        raise PgmError("not a binary PGM (P5) stream")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos] == 0x23:  # comment line
            nl = data.find(b"\n", pos)
            if nl == -1:
                raise PgmError("unterminated comment in PGM header")
            pos = nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise PgmError(f"bad PGM header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError("bad PGM dimensions")
    if not 1 <= maxval <= 65535:
        raise PgmError(f"unsupported PGM maxval {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PgmError("missing whitespace before PGM raster")
    pos += 1  # exactly one whitespace byte before the raster
    n = width * height
    wide = maxval > 255
    if pos + (2 if wide else 1) * n > len(data):
        raise PgmError("truncated PGM pixel data")
    samples = np.frombuffer(data, dtype=">u2" if wide else np.uint8, count=n, offset=pos)
    if samples.max() > maxval:
        raise PgmError(f"PGM sample {samples.max()} exceeds maxval {maxval}")
    pixels = ((samples.astype(np.uint32) * 255 + maxval // 2) // maxval).astype(np.uint8)
    return GrayImage(pixels.reshape(height, width))


def crop_center(img: GrayImage, side: int) -> GrayImage:
    """Centered side x side crop; odd remainders leave the extra pixel
    at the right/bottom."""
    if side < 1:
        raise ValueError("crop side must be positive")
    if side > min(img.width, img.height):
        raise ValueError(
            f"crop side {side} exceeds image size {img.width}x{img.height}"
        )
    top = (img.height - side) // 2
    left = (img.width - side) // 2
    return GrayImage(img.pixels[top : top + side, left : left + side].copy())
