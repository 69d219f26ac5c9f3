"""First-quantization estimation: candidate scoring and regularization.

For each of the first k zig-zag coefficients of a double-compressed image,
k being the reference dataset's, the histogram is compared against the
nearest reference records of every section (j, q2_i) of its kind, DC or AC;
the per-candidate minima form a distance matrix whose row argmins are the
raw estimates. Regularization rescores sliding triplets of consecutive
usable coefficients with a smoothness term and aggregates the window votes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .jpegio import parse_jpeg
from .refdata import ReferenceDataset, batch_min_distance, mass_table
from .stats import build_histogram, fit_laplacian, is_degenerate
from .types import CoeffGrid, QuantTable

OK = "ok"
DEGENERATE = "degenerate"
UNSUPPORTED = "unsupported"

# The reference configuration: the nearest records scored per section, and
# the data-term weight of the regularizer, whose smoothness term is reg3.
N_CANDIDATES = 1000
W = 0.92


def printed_params(k: int, q1_max: int) -> dict:
    """The settings as the reports print them, after the k and the q1 grid
    of the dataset they ran on."""
    return {"k": k, "q1_max": q1_max, "n_candidates": N_CANDIDATES, "w": W, "reg_variant": "reg3"}


@dataclass
class DistanceMatrix:
    """d[i - 1][j - 1] is the best chi-square distance of coefficient i
    against ds.section(j, q2_i, "dc" for i = 1, else "ac"); rows of non-ok
    coefficients are inf."""

    d: np.ndarray
    status: list[str]
    q2: list[int]

    @property
    def k(self) -> int:
        return self.d.shape[0]

    @property
    def q1_max(self) -> int:
        return self.d.shape[1]


@dataclass
class EstimationResult:
    estimates: list[int | None]
    raw_estimates: list[int | None]
    distances: DistanceMatrix
    warnings: list[str] = field(default_factory=list)


def distance_matrix(grid: CoeffGrid, q2_table: QuantTable, ds: ReferenceDataset) -> DistanceMatrix:
    """Best distances of ds's first k coefficients against every q1 candidate of ds."""
    d = np.full((ds.k, ds.q1_max), np.inf)
    status: list[str] = []
    q2s: list[int] = []
    for i in range(1, ds.k + 1):
        hist = build_histogram(grid.coefficient(i))
        q2_i = q2_table.zigzag_factor(i)
        q2s.append(q2_i)
        if is_degenerate(hist):
            status.append(DEGENERATE)
            continue
        if q2_i > ds.q1_max:
            status.append(UNSUPPORTED)
            continue
        params = fit_laplacian(hist)
        kind = "dc" if i == 1 else "ac"
        key = params.mu if i == 1 else params.beta
        table, total = mass_table(hist)  # shared by the windows of every q1
        row = d[i - 1]
        for j in range(1, ds.q1_max + 1):
            row[j - 1] = batch_min_distance(
                ds.section(j, q2_i, kind), table, key, N_CANDIDATES, total
            )
        # A candidate with no reference data scores inf; with no usable
        # candidate at all the factor cannot be estimated from this dataset.
        status.append(OK if np.isfinite(row).any() else UNSUPPORTED)
    return DistanceMatrix(d=d, status=status, q2=q2s)


def raw_estimates(d: DistanceMatrix) -> list[int | None]:
    """Per-coefficient argmin of the distances; ties take the smaller q1."""
    out: list[int | None] = []
    for i, s in enumerate(d.status):
        out.append(int(np.argmin(d.d[i])) + 1 if s == OK else None)
    return out


@functools.lru_cache(maxsize=None)
def _reg_grid(q1_max: int) -> np.ndarray:
    """Smoothness penalty (reg3) of every candidate triplet (a, b, c) at
    [a - 1, b - 1, c - 1]: (|b - a| + |b - c|) / (2 b). Read-only, as every
    caller shares it."""
    c = np.arange(1, q1_max + 1, dtype=np.float64)
    delta = np.abs(c[None, :, None] - c[:, None, None]) + np.abs(
        c[None, :, None] - c[None, None, :]
    )
    grid = delta / (2.0 * c[None, :, None])
    grid.flags.writeable = False
    return grid


def _normalize_row(row: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; candidates without data (inf) get 1, the
    worst data term, which the smoothness term can still outweigh."""
    finite = np.isfinite(row)
    out = np.ones_like(row)
    lo = row[finite].min()
    hi = row[finite].max()
    if hi > lo:
        out[finite] = (row[finite] - lo) / (hi - lo)
    else:
        out[finite] = 0.0
    return out


def regularize(d: DistanceMatrix, w: float = W) -> list[int | None]:
    """Triplet-window rescoring of the usable coefficients.

    Windows slide over the subsequence of ok coefficients in zig-zag order.
    Each window picks the triplet minimizing w * C_data + (1 - w) * C_reg,
    where C_data is the mean of the three per-row min-max normalized
    distances. A coefficient gets at most three votes, from the windows it
    starts, centres and ends; it takes the value of the first and last
    windows when they agree, otherwise the middle window's vote, otherwise
    its only vote. This is the mode of its votes, ties broken by the middle
    vote. A candidate without data ranks worst in the data term only, so a
    smooth triplet can still pick it, at an infinite distance. With fewer
    than 3 usable coefficients the raw estimates are returned unchanged.
    Raises ValueError for a w outside [0, 1] or NaN.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w {w} out of range [0, 1]")
    ok_rows = [i for i, s in enumerate(d.status) if s == OK]
    m = len(ok_rows)
    if m < 3:
        return raw_estimates(d)

    normalized = [_normalize_row(d.d[i]) for i in ok_rows]
    reg = _reg_grid(d.q1_max)
    # The votes of ok position t; 0 where no window gives that vote.
    first = np.zeros(m, dtype=np.int64)
    middle = np.zeros(m, dtype=np.int64)
    last = np.zeros(m, dtype=np.int64)
    for t in range(m - 2):
        n1, n2, n3 = normalized[t : t + 3]
        data = (n1[:, None, None] + n2[None, :, None] + n3[None, None, :]) / 3.0
        score = w * data + (1.0 - w) * reg
        flat = int(np.argmin(score))
        a, rest = divmod(flat, d.q1_max * d.q1_max)
        b, c = divmod(rest, d.q1_max)
        first[t] = a + 1
        middle[t + 1] = b + 1
        last[t + 2] = c + 1

    # Only the ends lack a middle vote, and each end has a single vote.
    votes = np.where(
        (first == last) & (first > 0), first, np.where(middle > 0, middle, first + last)
    )
    out: list[int | None] = [None] * len(d.status)
    for row, vote in zip(ok_rows, votes.tolist()):
        out[row] = vote
    return out


def estimate(jpeg_bytes: bytes, ds: ReferenceDataset) -> EstimationResult:
    """End-to-end estimation of the first ds.k quantization factors."""
    parsed = parse_jpeg(jpeg_bytes)
    dm = distance_matrix(parsed.coeffs, parsed.luma_table, ds)
    few = dm.status.count(OK) < 3
    return EstimationResult(
        estimates=regularize(dm),
        raw_estimates=raw_estimates(dm),
        distances=dm,
        warnings=["fewer than 3 usable coefficients: regularization skipped"] if few else [],
    )
