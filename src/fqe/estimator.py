"""First-quantization estimation: candidate scoring and regularization.

For each of the first k zig-zag coefficients of a double-compressed image,
the histogram is compared against the nearest reference records of every
sub-dataset (j, q2_i); the per-candidate minima form a distance matrix whose
row argmins are the raw estimates. Regularization rescores sliding triplets
of consecutive usable coefficients with a smoothness term and aggregates the
per-window votes by mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .jpegio import parse_jpeg
from .refdata import ReferenceDataset, batch_min_distance, mass_table
from .stats import build_histogram, fit_laplacian, is_degenerate
from .types import CoeffGrid, QuantTable

OK = "ok"
DEGENERATE = "degenerate"
UNSUPPORTED = "unsupported"

REG_VARIANTS = ("reg1", "reg2", "reg3")


@dataclass(frozen=True)
class EstimationParams:
    k: int = 15
    q1_max: int = 22
    n_candidates: int = 1000
    w: float = 0.92
    reg_variant: str = "reg3"
    regularize: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.k <= 64:
            raise ValueError(f"k {self.k} out of range [2, 64]")
        if self.q1_max < 1:
            raise ValueError("q1_max must be at least 1")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be at least 1")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w {self.w} out of range [0, 1]")
        if self.reg_variant not in REG_VARIANTS:
            raise ValueError(f"reg_variant must be one of {REG_VARIANTS}")


@dataclass
class DistanceMatrix:
    """d[i - 1][j - 1] is the best chi-square distance of coefficient i
    against sub-dataset (j, q2_i); rows of non-ok coefficients are inf."""

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
    params: EstimationParams
    warnings: list[str] = field(default_factory=list)


def distance_matrix(
    grid: CoeffGrid,
    q2_table: QuantTable,
    ds: ReferenceDataset,
    p: EstimationParams,
) -> DistanceMatrix:
    """Best distances of each coefficient against every q1 candidate."""
    if p.k > ds.k:
        raise ValueError(f"dataset covers k={ds.k} coefficients, requested k={p.k}")
    if p.q1_max != ds.q1_max:
        raise ValueError(
            f"params q1_max={p.q1_max} does not match dataset q1_max={ds.q1_max}"
        )
    d = np.full((p.k, p.q1_max), np.inf)
    status: list[str] = []
    q2s: list[int] = []
    for i in range(1, p.k + 1):
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
        for j in range(1, p.q1_max + 1):
            row[j - 1] = batch_min_distance(
                ds.sub(j, q2_i).kind(kind), table, key, p.n_candidates, total
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


_REG_GRIDS: dict[tuple[int, str], np.ndarray] = {}


def _reg_grid(q1_max: int, variant: str) -> np.ndarray:
    """Smoothness penalty of every candidate triplet (a, b, c) at [a - 1, b - 1, c - 1]:
    (|b - a| + |b - c|) / 2, / (2 sqrt(b)) or / (2 b) for reg1, reg2 and reg3."""
    grid = _REG_GRIDS.get((q1_max, variant))
    if grid is None:
        c = np.arange(1, q1_max + 1, dtype=np.float64)
        delta = np.abs(c[None, :, None] - c[:, None, None]) + np.abs(
            c[None, :, None] - c[None, None, :]
        )
        if variant == "reg1":
            grid = delta / 2.0
        elif variant == "reg2":
            grid = delta / (2.0 * np.sqrt(c)[None, :, None])
        else:
            grid = delta / (2.0 * c[None, :, None])
        _REG_GRIDS[(q1_max, variant)] = grid
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


def regularize(d: DistanceMatrix, p: EstimationParams) -> list[int | None]:
    """Triplet-window rescoring of the usable coefficients.

    Windows slide over the subsequence of ok coefficients in zig-zag order.
    Each window picks the triplet minimizing w * C_data + (1 - w) * C_reg,
    where C_data is the mean of the three per-row min-max normalized
    distances; every coefficient then takes the mode of its window votes,
    ties broken by the vote of the window it sits in the middle of, then by
    the smaller value. A candidate without data ranks worst in the data term
    only, so a smooth triplet can still pick it, at an infinite distance.
    With fewer than 3 usable coefficients the raw estimates are returned
    unchanged.
    """
    raw = raw_estimates(d)
    ok_rows = [i for i, s in enumerate(d.status) if s == OK]
    m = len(ok_rows)
    if m < 3:
        return raw

    normalized = {i: _normalize_row(d.d[i]) for i in ok_rows}
    reg = _reg_grid(d.q1_max, p.reg_variant)
    votes: list[list[int]] = [[] for _ in range(m)]
    middle_votes: dict[int, int] = {}
    for t in range(m - 2):
        n1 = normalized[ok_rows[t]]
        n2 = normalized[ok_rows[t + 1]]
        n3 = normalized[ok_rows[t + 2]]
        data = (n1[:, None, None] + n2[None, :, None] + n3[None, None, :]) / 3.0
        score = p.w * data + (1.0 - p.w) * reg
        flat = int(np.argmin(score))
        a, rest = divmod(flat, d.q1_max * d.q1_max)
        b, c = divmod(rest, d.q1_max)
        votes[t].append(a + 1)
        votes[t + 1].append(b + 1)
        votes[t + 2].append(c + 1)
        middle_votes[t + 1] = b + 1

    out: list[int | None] = [None] * len(d.status)
    for pos, row_idx in enumerate(ok_rows):
        if not votes[pos]:
            out[row_idx] = raw[row_idx]
            continue
        counts = Counter(votes[pos])
        top = max(counts.values())
        tied = sorted(v for v, c in counts.items() if c == top)
        if len(tied) > 1 and middle_votes.get(pos) in tied:
            out[row_idx] = middle_votes[pos]
        else:
            out[row_idx] = tied[0]
    return out


def estimate(
    jpeg_bytes: bytes, ds: ReferenceDataset, p: EstimationParams | None = None
) -> EstimationResult:
    """End-to-end estimation of the first k quantization factors."""
    if p is None:
        p = EstimationParams(q1_max=ds.q1_max)
    parsed = parse_jpeg(jpeg_bytes)
    dm = distance_matrix(parsed.coeffs, parsed.luma_table, ds, p)
    raw = raw_estimates(dm)
    warnings: list[str] = []
    if p.regularize:
        ok_count = sum(1 for s in dm.status if s == OK)
        est = regularize(dm, p)
        if ok_count < 3:
            warnings.append(
                "fewer than 3 usable coefficients: regularization skipped"
            )
    else:
        est = raw
    return EstimationResult(
        estimates=est,
        raw_estimates=raw,
        distances=dm,
        params=p,
        warnings=warnings,
    )
