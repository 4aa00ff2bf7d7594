"""Histogram encoding of scalar progress values.

Progress regression is recast as classification over B uniform bins on
[0, 1]. The soft target for a value p puts Gaussian mass on nearby bins:
target_i = Phi((edge_{i+1} - p) / sigma) - Phi((edge_i - p) / sigma),
renormalized so the truncation to [0, 1] sums to one. Phi is the standard
normal CDF. Decoding takes the expectation over bin centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HistogramConfig:
    """Bin count and Gaussian smoothing width; support is fixed to [0, 1]."""

    bins: int = 10
    sigma: float = 0.15

    def __post_init__(self) -> None:
        if self.bins <= 0:
            raise ValueError(f"bins must be positive, got {self.bins}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def edges(self) -> np.ndarray:
        return np.arange(self.bins + 1, dtype=np.float64) / self.bins

    @property
    def centers(self) -> np.ndarray:
        edges = self.edges
        return (edges[:-1] + edges[1:]) / 2.0


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def histogram_target(p: float, cfg: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """Soft histogram target for progress p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {p}")
    edges = cfg.edges
    cdf = np.array([_norm_cdf((e - p) / cfg.sigma) for e in edges])
    mass = np.diff(cdf)
    total = mass.sum()
    if total <= 0:
        raise ValueError("degenerate histogram target: no mass on [0, 1]")
    return mass / total


def histogram_expectation(dist: np.ndarray, cfg: HistogramConfig = HistogramConfig()) -> float:
    """Decode a bin distribution back to a scalar in [0, 1] via bin centers."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (cfg.bins,):
        raise ValueError(f"expected {cfg.bins} bins, got shape {dist.shape}")
    total = float(dist.sum())
    if not abs(total - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"distribution sums to {total}, expected 1 within 1e-6")
    return float(dist @ cfg.centers)
