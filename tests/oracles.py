"""Slow reference implementations that the batched code is tested against."""

from __future__ import annotations

import numpy as np

from fqe import dctsim
from fqe.stats import CoeffHistogram, fit_laplacian
from fqe.types import ZIGZAG_TO_NATURAL, GrayImage


def patch_items(patch: GrayImage, q1_max: int, k: int):
    """Per-(q1, q2) DC and AC record items of one patch, one column at a time.

    Items are (key, support, bin counts, sample count). Each (q1, q2,
    coefficient) column gets its own np.unique and fit_laplacian; columns
    with a single bin give no item.
    """
    f0 = dctsim.fdct_blocks(dctsim.blockify(patch.pixels))
    zz_first_k = ZIGZAG_TO_NATURAL[:k]
    out = {}
    for q1 in range(1, q1_max + 1):
        t1 = dctsim.constant_table(q1)
        zz1 = dctsim.quantize_blocks(f0, t1)
        recon = dctsim.idct_blocks(dctsim.dequantize_blocks(zz1, t1))
        f1 = dctsim.fdct_blocks(recon).reshape(-1, 64)[:, zz_first_k]
        n_blocks = f1.shape[0]
        for q2 in range(1, q1_max + 1):
            quantized = dctsim.round_half_away(f1 / float(q2)).astype(np.int32)
            dc_items = []
            ac_items = []
            for i in range(k):
                support, counts = np.unique(quantized[:, i], return_counts=True)
                if support.size == 1:
                    continue
                params = fit_laplacian(
                    CoeffHistogram(support=support, mass=counts / n_blocks, count=n_blocks)
                )
                key = params.mu if i == 0 else params.beta
                (dc_items if i == 0 else ac_items).append(
                    (key, support.astype(np.int16), counts.astype(np.uint16), n_blocks)
                )
            out[(q1, q2)] = (dc_items, ac_items)
    return out
