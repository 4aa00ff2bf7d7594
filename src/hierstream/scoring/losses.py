"""Log-sum-exp stabilized softmax over the last axis. One row, (K,) or
(1, K), takes fewer numpy calls for the bits of that row in a (T, K) block: a
max is exact in any order, the row's full ``.sum()`` is the per-row reduce's
pairwise sum, and a NaN sum (a NaN or infinite logit) takes the block's way.
"""

from __future__ import annotations

import math

import numpy as np


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1 or logits.ndim == 2 and len(logits) == 1:
        shifted = logits - max(logits.ravel().tolist())  # ValueError on an empty row
        total = np.exp(shifted).sum()
        if not math.isnan(total):
            return shifted - np.log(total)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    out = log_softmax(logits)
    return np.exp(out, out=out)
