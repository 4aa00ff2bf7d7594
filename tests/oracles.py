"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: matching is checked
by exhaustive enumeration, histogram targets by numeric quadrature,
gradients by central finite differences, and the CSV readers by the
row-at-a-time ``csv`` readers they replaced.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from hierstream.core import FrameScores, Interval, check_timestamps
from hierstream.scoring.losses import soft_cross_entropy


def tiou_exact(a: Interval, b: Interval) -> Fraction:
    a_s, a_e = Fraction(a.start), Fraction(a.end)
    b_s, b_e = Fraction(b.start), Fraction(b.end)
    inter = max(Fraction(0), min(a_e, b_e) - max(a_s, b_s))
    union = (a_e - a_s) + (b_e - b_s) - inter
    if union <= 0:
        return Fraction(0)
    return inter / union


def brute_force_match(gt, pred):
    """Best partial matching by exhaustive enumeration: maximize total tIoU
    over positive-overlap pairs, break exact ties toward the
    lexicographically smallest sorted pair list."""
    profits = {}
    for i, g in enumerate(gt):
        for j, p in enumerate(pred):
            t = tiou_exact(g, p)
            if t > 0:
                profits[(i, j)] = t

    best_total = Fraction(-1)
    best_pairs: list[tuple[int, int]] = []

    def recurse(i, used, pairs, total):
        nonlocal best_total, best_pairs
        if i == len(gt):
            if total > best_total or (total == best_total and pairs < best_pairs):
                best_total = total
                best_pairs = list(pairs)
            return
        recurse(i + 1, used, pairs, total)
        for j in range(len(pred)):
            if j not in used and (i, j) in profits:
                used.add(j)
                pairs.append((i, j))
                recurse(i + 1, used, pairs, total + profits[(i, j)])
                pairs.pop()
                used.remove(j)

    recurse(0, set(), [], Fraction(0))
    return best_pairs, profits


def brute_force_f1(gt, pred, threshold: float) -> float:
    if not gt and not pred:
        return 1.0
    if not gt or not pred:
        return 0.0
    pairs, profits = brute_force_match(gt, pred)
    thr = Fraction(threshold)
    tp = sum(1 for pair in pairs if profits[pair] >= thr)
    return 2.0 * tp / (len(gt) + len(pred))


def quadrature_histogram(p: float, bins: int = 10, sigma: float = 0.15,
                         points_per_bin: int = 1_000_000) -> np.ndarray:
    """Per-bin Gaussian mass by midpoint-rule quadrature, then truncation
    renormalization; the reference for the CDF-difference construction."""
    masses = np.empty(bins)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    for i in range(bins):
        lo, hi = i / bins, (i + 1) / bins
        xs = lo + (np.arange(points_per_bin) + 0.5) * (hi - lo) / points_per_bin
        dens = norm * np.exp(-0.5 * ((xs - p) / sigma) ** 2)
        masses[i] = dens.mean() * (hi - lo)
    return masses / masses.sum()


def numeric_gradient(fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array,
    element by element."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        hi = fn()
        array[idx] = orig - h
        lo = fn()
        array[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def time_major_backward(model, cache, d_logits, h0=None) -> dict[str, np.ndarray]:
    """Truncated BPTT frame by frame, newest first, with one outer product
    per frame and layer for each weight gradient; the reference for the
    layer-major ``ScorerModel.backward``."""
    p = model.params
    L, H = model.cfg.recurrent_layers, model.cfg.hidden_dim
    feats = cache["features"]
    hs = cache["hidden"]
    T = feats.shape[0]
    h_in = h0 or model.zero_state()

    grads = {k: np.zeros_like(v) for k, v in p.items()}
    top = hs[-1]
    d_top = np.zeros((T, H))
    for name in ("state", "step", "sub"):
        dl = d_logits[name]
        grads[f"w_{name}"] += dl.T @ top
        grads[f"b_{name}"] += dl.sum(axis=0)
        d_top += dl @ p[f"w_{name}"]

    dh_carry = [np.zeros(H) for _ in range(L)]
    for t in range(T - 1, -1, -1):
        dh = [np.zeros(H) for _ in range(L)]
        dh[L - 1] = d_top[t].copy()
        for layer in range(L - 1, -1, -1):
            total = dh[layer] + dh_carry[layer]
            da = total * (1.0 - hs[layer, t] ** 2)
            h_before = hs[layer, t - 1] if t > 0 else h_in[layer]
            inp = hs[layer - 1, t] if layer > 0 else feats[t]
            grads[f"wx{layer}"] += np.outer(da, inp)
            grads[f"wh{layer}"] += np.outer(da, h_before)
            grads[f"b{layer}"] += da
            dh_carry[layer] = p[f"wh{layer}"].T @ da
            if layer > 0:
                dh[layer - 1] += p[f"wx{layer}"].T @ da
    return grads


def per_frame_window_loss(model, cache, state_target, step_target, step_mask,
                          sub_target, sub_mask) -> tuple[float, dict[str, np.ndarray]]:
    """Window loss and logit gradients with one ``soft_cross_entropy`` call
    per frame and head; the reference for ``ScorerModel.window_loss``."""
    cfg = model.cfg
    T = cache["features"].shape[0]
    loss = 0.0
    d_logits = {}
    for name, target, mask, weight in (
        ("state", np.eye(3)[state_target], np.ones(T, dtype=bool), cfg.state_weight),
        ("step", step_target, step_mask, cfg.step_weight),
        ("sub", sub_target, sub_mask, cfg.substep_weight),
    ):
        logits = cache[f"{name}_logits"]
        n = max(1, int(mask.sum()))
        d = np.zeros_like(logits)
        for t in np.nonzero(mask)[0]:
            l, g = soft_cross_entropy(logits[t], target[t])
            loss += weight * l / n
            d[t] = weight * g / n
        d_logits[name] = d
    return loss, d_logits


def row_read_features(path) -> tuple[np.ndarray, np.ndarray]:
    """``read_features`` as it was: ``float()`` per cell, one row at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "timestamp":
            raise ValueError(f"{path}: not a feature CSV (header {header[:3]}...)")
        rows = [[float(x) for x in row] for row in reader if row]
    data = np.array(rows, dtype=np.float64)
    if data.size == 0:
        return np.zeros(0), np.zeros((0, len(header) - 1))
    check_timestamps(data[:, 0], f"{path}: data row")
    return data[:, 0], data[:, 1:]


def row_read_scores(path) -> list[FrameScores]:
    """``read_scores`` as it was: one ``FrameScores.validate`` per row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["timestamp", "bg", "step", "stepsub"]:
            raise ValueError(f"{path}: not a score CSV (header {header[:4]})")
        bins = sum(1 for name in header if name.startswith("sp"))
        out = []
        for row in reader:
            if not row:
                continue
            vals = [float(x) for x in row]
            fs = FrameScores(
                timestamp=vals[0],
                state_probs=np.array(vals[1:4]),
                step_progress_dist=np.array(vals[4: 4 + bins]),
                substep_progress_dist=np.array(vals[4 + bins: 4 + 2 * bins]),
            )
            problems = fs.validate()
            if problems:
                raise ValueError(f"{path}: invalid frame at t={vals[0]}: {problems}")
            out.append(fs)
    check_timestamps(np.array([fs.timestamp for fs in out]), f"{path}: data row")
    return out
