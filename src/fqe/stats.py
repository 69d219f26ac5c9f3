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
    """Histogram of integer values with unit-width bins centered on integers.

    Values that span at most 4x as many integers as there are values are
    counted with np.bincount; wider spans are sorted by np.unique, so that
    memory stays bounded by the number of values.
    """
    arr = np.asarray(values).reshape(-1).astype(np.int64)
    if arr.size == 0:
        raise ValueError("cannot build a histogram from no values")
    lo = int(arr.min())
    if int(arr.max()) - lo < 4 * arr.size:
        counts = np.bincount(arr - lo)
        support = np.flatnonzero(counts)
        counts = counts[support]
        support += lo
    else:
        support, counts = np.unique(arr, return_counts=True)
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
    to end. The masses are the rows of a zero-padded matrix: a row's cumsum
    runs np.cumsum's additions on that histogram alone, and the padding adds
    0.0 to its total, so every mu equals fit_laplacian's bit for bit; beta is
    laplacian_beta at that mu.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    cum = np.zeros((lengths.size, lengths.max(initial=0)))
    cum[np.repeat(np.arange(lengths.size), lengths),
        np.arange(mass.size) - np.repeat(starts, lengths)] = mass
    np.cumsum(cum, axis=1, out=cum)
    median = np.count_nonzero(cum < 0.5 * cum[:, -1:], axis=1)
    mu = support[starts + median].astype(np.float64)
    return mu, laplacian_beta(support, mass, lengths, mu)


def laplacian_beta(
    support: np.ndarray, mass: np.ndarray, lengths: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Per histogram (laid out as in fit_laplacian_batch), sum(mass * |support - mu|).

    Each histogram's terms are added after a 0.0 by one np.add.reduceat:
    the 0.0 and then the terms pairwise, the additions np.sum makes from its
    initial 0, so each beta equals fit_laplacian's bit for bit.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    pads = np.cumsum(lengths + 1) - lengths - 1
    padded = np.zeros(mass.size + lengths.size)
    in_hist = np.ones(padded.size, dtype=bool)
    in_hist[pads] = False
    padded[in_hist] = mass * np.abs(support - np.repeat(mu, lengths))
    return np.add.reduceat(padded, pads)


def is_degenerate(h: CoeffHistogram) -> bool:
    """True when every sample fell in a single bin: no information about q1."""
    return h.support.size == 1
