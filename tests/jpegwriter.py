"""Test-only baseline JPEG writer for given coefficient grids.

It writes what the library encoder does not: several components with any
sampling factors, interleaved or single-component scans, and restart
intervals with RST0-7 markers. Blocks are Huffman-coded with the library's
annex K luminance tables, so only the frame, scan and restart layout is new.
"""

from __future__ import annotations

import numpy as np

from fqe import jpegio


def scan_layout(width, height, components, scan):
    """Block grid (blocks_w, blocks_h) of each component id in `scan`.

    components: [(comp_id, h, v)]; scan: the component ids it codes. An
    interleaved scan pads every component to whole MCUs; a single-component
    scan covers only the blocks the component's samples need.
    """
    sampling = {cid: (h, v) for cid, h, v in components}
    hmax = max(h for _, h, _ in components)
    vmax = max(v for _, _, v in components)
    if len(scan) == 1:
        h, v = sampling[scan[0]]
        cw = -(-width * h // hmax)
        ch = -(-height * v // vmax)
        return {scan[0]: (-(-cw // 8), -(-ch // 8))}
    mcus_x = -(-width // (8 * hmax))
    mcus_y = -(-height // (8 * vmax))
    return {cid: (mcus_x * sampling[cid][0], mcus_y * sampling[cid][1]) for cid in scan}


def _mcus(width, height, components, scan):
    """Per MCU, the (comp_id, block index) pairs in coding order."""
    layout = scan_layout(width, height, components, scan)
    if len(scan) == 1:
        bw, bh = layout[scan[0]]
        return [[(scan[0], b)] for b in range(bw * bh)]
    sampling = {cid: (h, v) for cid, h, v in components}
    mcus_x = layout[scan[0]][0] // sampling[scan[0]][0]
    mcus_y = layout[scan[0]][1] // sampling[scan[0]][1]
    out = []
    for my in range(mcus_y):
        for mx in range(mcus_x):
            mcu = []
            for cid in scan:
                h, v = sampling[cid]
                bw = layout[cid][0]
                for by in range(v):
                    for bx in range(h):
                        mcu.append((cid, (my * v + by) * bw + mx * h + bx))
            out.append(mcu)
    return out


def encode_grids(width, height, components, scans, grids, restart_interval=0) -> bytes:
    """A baseline JPEG whose scans code the given zig-zag grids.

    components: [(comp_id, h, v)], all using quantization table 0 (all ones)
    and Huffman tables 0. scans: lists of component ids. grids: comp_id ->
    (blocks, 64) integer array in the raster order of scan_layout. With a
    restart interval of r MCUs, every r MCUs end a segment with RSTn (n
    cycling 0-7) and reset the DC predictions.
    """
    seg = jpegio._segment
    out = bytearray(b"\xff\xd8")
    out += seg(0xDB, bytes([0]) + bytes([1] * 64))
    sof = bytes([8]) + height.to_bytes(2, "big") + width.to_bytes(2, "big")
    sof += bytes([len(components)])
    for cid, h, v in components:
        sof += bytes([cid, (h << 4) | v, 0])
    out += seg(0xC0, sof)
    out += seg(
        0xC4,
        bytes([0x00]) + bytes(jpegio._DC_LUM_BITS) + bytes(jpegio._DC_LUM_VALS)
        + bytes([0x10]) + bytes(jpegio._AC_LUM_BITS) + bytes(jpegio._AC_LUM_VALS),
    )
    if restart_interval:
        out += seg(0xDD, restart_interval.to_bytes(2, "big"))
    for scan in scans:
        sos = bytes([len(scan)])
        for cid in scan:
            sos += bytes([cid, 0x00])
        out += seg(0xDA, sos + bytes([0, 63, 0]))
        blocks = {cid: np.asarray(grids[cid]).tolist() for cid in scan}
        writer = jpegio._BitWriter()
        preds = dict.fromkeys(scan, 0)
        for m, mcu in enumerate(_mcus(width, height, components, scan)):
            if restart_interval and m and m % restart_interval == 0:
                writer.flush()
                out += writer.out + bytes([0xFF, 0xD0 + (m // restart_interval - 1) % 8])
                writer = jpegio._BitWriter()
                preds = dict.fromkeys(scan, 0)
            for cid, b in mcu:
                block = blocks[cid][b]
                jpegio._write_block(writer, block, preds[cid])
                preds[cid] = block[0]
        writer.flush()
        out += writer.out
    out += b"\xff\xd9"
    return bytes(out)


def random_grid(rng, blocks_w, blocks_h):
    """Sparse zig-zag blocks within the annex K tables' ranges: DC in
    [-1023, 1023], about one AC term in six non-zero with |value| < 1024,
    and some blocks whose last term is non-zero (no EOB)."""
    n = blocks_w * blocks_h
    grid = np.zeros((n, 64), dtype=np.int32)
    grid[:, 0] = rng.integers(-1023, 1024, n)
    mask = rng.random((n, 63)) < 1 / 6
    grid[:, 1:] = np.where(mask, rng.integers(-1023, 1024, (n, 63)), 0)
    grid[rng.random(n) < 0.2, 63] = 7
    return grid
