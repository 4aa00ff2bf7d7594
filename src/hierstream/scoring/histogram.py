"""Histogram encoding of scalar progress values.

Progress regression is recast as classification over B uniform bins on
[0, 1]. The soft target for a value p puts Gaussian mass on nearby bins:
target_i = Phi((edge_{i+1} - p) / sigma) - Phi((edge_i - p) / sigma),
renormalized so the truncation to [0, 1] sums to one. Phi is the standard
normal CDF. Decoding takes the expectation over bin centers: one
distribution at a time in the online detector (:func:`histogram_expectation`),
or a whole file's rows at once when a score CSV is read
(:func:`histogram_expectations`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core import PROB_SUM_TOL

_F64 = np.dtype(np.float64)


@dataclass(frozen=True)
class HistogramConfig:
    """Bin count and Gaussian smoothing width; support is fixed to [0, 1]."""

    bins: int = 10
    sigma: float = 0.15

    def __post_init__(self) -> None:
        if self.bins <= 0:
            raise ValueError(f"bins must be positive, got {self.bins}")
        if not 0 < self.sigma < math.inf:  # NaN fails too
            raise ValueError(f"sigma must be positive, got {self.sigma}; it must be finite too")

    # Computed once (decoding reads them every frame), read-only as shared.
    @cached_property
    def edges(self) -> np.ndarray:
        edges = np.arange(self.bins + 1, dtype=np.float64) / self.bins
        edges.flags.writeable = False
        return edges

    @cached_property
    def centers(self) -> np.ndarray:
        edges = self.edges
        centers = (edges[:-1] + edges[1:]) / 2.0
        centers.flags.writeable = False
        return centers


def histogram_targets(p: np.ndarray, cfg: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """Soft histogram targets, one row per progress value in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= 0.0) & (p <= 1.0))  # NaN is bad too
    if bad.any():
        raise ValueError(f"progress must lie in [0, 1], got {p[bad][0]}")
    x = (cfg.edges - p[:, None]) / cfg.sigma / math.sqrt(2.0)
    erf = np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)  # numpy has no erf
    mass = np.diff(0.5 * (1.0 + erf), axis=1)
    total = mass.sum(axis=1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("degenerate histogram target: no mass on [0, 1]")
    return mass / total


def histogram_target(p: float, cfg: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """Soft histogram target for progress p in [0, 1]."""
    return histogram_targets(np.array([p], dtype=np.float64), cfg)[0]


def histogram_expectation(dist: np.ndarray, cfg: HistogramConfig = HistogramConfig()) -> float:
    """Decode a bin distribution back to a scalar in [0, 1] via bin centers.

    Runs for every ongoing level of every frame, so it avoids numpy's
    per-call overheads: no conversion of a float64 array, a plain-float sum
    for the check (numpy's only for the error message), and ``dot`` (the
    same value as ``@``) for the decode. Bins are not checked one by one:
    a decoded value outside [0, 1] (say, from a negative bin) is rejected.
    """
    if type(dist) is not np.ndarray or dist.dtype is not _F64:
        dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (cfg.bins,):
        raise ValueError(f"expected {cfg.bins} bins, got shape {dist.shape}")
    if not abs(sum(dist.tolist()) - 1.0) <= PROB_SUM_TOL:  # NaN fails too
        raise ValueError(f"distribution sums to {float(dist.sum())}, expected 1 within 1e-6")
    value = float(dist.dot(cfg.centers))
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"distribution decodes to {value}, outside [0, 1]")
    return value


def histogram_expectations(dists: np.ndarray, cfg: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """Decode every row of a (frames, bins) block, unchecked.

    Each row gets the bits :func:`histogram_expectation` would return for
    it: the stacked ``matmul`` of (1, bins) rows by the (bins, 1) centers
    runs the same ``ddot`` per row as ``dist.dot``. Sums and the [0, 1]
    range are the caller's to check: ``scoring.streams.read_scores`` checks
    each row's sum before and its decode after.
    """
    if dists.ndim != 2 or dists.shape[1] != cfg.bins:
        raise ValueError(f"expected {cfg.bins} bins per row, got shape {dists.shape}")
    return np.matmul(dists[:, None, :], cfg.centers[:, None])[:, 0, 0]
