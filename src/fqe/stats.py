"""Coefficient histograms and Laplacian fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class CoeffHistogram:
    """Sparse normalized distribution of one coefficient's quantized values.

    support is strictly increasing, one bin per distinct integer value;
    mass entries are positive and sum to 1; count is the original sample
    count the masses were normalized from.
    """

    support: np.ndarray
    mass: np.ndarray
    count: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffHistogram):
            return NotImplemented
        return (
            self.count == other.count
            and bool(np.array_equal(self.support, other.support))
            and bool(np.array_equal(self.mass, other.mass))
        )


@dataclass(frozen=True)
class LaplacianParams:
    mu: float
    beta: float


def build_histogram(values: np.ndarray) -> CoeffHistogram:
    """Histogram of integer values with unit-width bins centered on integers."""
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        raise ValueError("cannot build a histogram from no values")
    support, counts = np.unique(arr.astype(np.int64), return_counts=True)
    total = int(arr.size)
    return CoeffHistogram(support=support, mass=counts / total, count=total)


def fit_laplacian(h: CoeffHistogram) -> LaplacianParams:
    """Closed-form Laplacian ML fit.

    mu is the weighted median of the support (lower median on ties), the
    minimizer of sum(mass * |x - mu|); beta is that weighted absolute
    deviation at mu. A single-bin histogram gives beta = 0.
    """
    cum = np.cumsum(h.mass)
    half = 0.5 * cum[-1]
    idx = int(np.searchsorted(cum, half, side="left"))
    mu = float(h.support[idx])
    beta = float(np.sum(h.mass * np.abs(h.support - mu)))
    return LaplacianParams(mu=mu, beta=beta)


def fit_laplacian_batch(
    support: np.ndarray, mass: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """fit_laplacian of many histograms at once: arrays of mu and beta.

    Histogram r is the next lengths[r] entries of support and mass, laid end
    to end. Histograms of one length are fitted together as the rows of a
    matrix. A row's cumsum and its sum(axis=1) run the additions of
    np.cumsum and np.sum on that histogram alone, in the same order (np.sum
    groups its terms pairwise by array length), so every mu and beta equals
    fit_laplacian's bit for bit.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    # Rows of one length are a run of by_length.
    by_length = np.argsort(lengths)
    cuts = np.flatnonzero(np.diff(lengths[by_length], prepend=-1, append=-1)).tolist()
    mu = np.empty(lengths.size)
    beta = np.empty(lengths.size)
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        rows = by_length[r0:r1]
        idx = starts[rows, None] + np.arange(lengths[rows[0]])
        m, s = mass[idx], support[idx]
        cum = np.cumsum(m, axis=1)
        median = np.count_nonzero(cum < 0.5 * cum[:, -1:], axis=1)
        mu_n = s[np.arange(rows.size), median].astype(np.float64)
        mu[rows] = mu_n
        beta[rows] = (m * np.abs(s - mu_n[:, None])).sum(axis=1)
    return mu, beta


def is_degenerate(h: CoeffHistogram) -> bool:
    """True when every sample fell in a single bin: no information about q1."""
    return h.support.size == 1
