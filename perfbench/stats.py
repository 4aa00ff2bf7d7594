"""Summaries of timing samples."""

from __future__ import annotations

import numpy as np

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples (a layer the
    workload never calls)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    """Arithmetic mean; 0.0 for no samples."""
    return float(np.mean(values)) if len(values) else 0.0


def timing(values) -> dict:
    """Median, the highest ladder percentile with at least ten samples
    beyond it, and the sample count."""
    n = len(values)
    out = {"n": n, "median": percentile(values, 50)}
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            out[f"p{q:g}"] = percentile(values, q)
            break
    return out


def ratio(num: float, den: float) -> dict:
    """A ratio with its base; 0.0 when the base is empty."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}
