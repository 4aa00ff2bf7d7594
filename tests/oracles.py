"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: matching is checked
by exhaustive enumeration, histogram targets by numeric quadrature,
gradients by central finite differences, the scorer's forward by its
per-frame form with one ``@`` per matvec, the CSV readers by the
row-at-a-time ``csv`` readers they replaced, and frame targets and the
simulator's streams by the per-timestamp helpers that scanned every
instance for each frame, and the online loop's detector and context memory
by their earlier forms: actionness from numpy scalars, a fresh membership
set per frame, and memory lookups that scan every stored frame and
prediction, and scorer training by its form with a fresh gradient dict per
BPTT window and AdamW updates that build new arrays.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hierstream.core import (
    PROB_SLACK,
    PROB_SUM_TOL,
    STATE_BG,
    STATE_STEP,
    STATE_STEP_AND_SUBSTEP,
    ActionInstance,
    AnnotationSet,
    FrameScores,
    HierarchyLevel,
    Interval,
    check_timestamp,
    check_timestamps,
    frame_timestamps,
)
from hierstream import detector
from hierstream.detector import DetectionEvent, DetectorConfig
from hierstream.memory import (
    MAX_STEP_HISTORY,
    STEP_FRAME_SPACING,
    SUBSTEP_FRAME_SPACING,
    Prediction,
    RetrievalBundle,
)
from hierstream.scoring.histogram import HistogramConfig
from hierstream.scoring.losses import log_softmax
from hierstream.scoring.rnn import ScorerModel
from hierstream.scoring.train import BETA1, BETA2, EPS, AdamW, build_frame_targets


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


def per_frame_forward(model, features, h0=None) -> dict[str, np.ndarray]:
    """``ScorerModel.forward`` as it was: per layer and frame,
    ``tanh(wx @ x + wh @ h + b)``, then each head's ``w @ top + b`` per
    frame, every matvec a separate ``@``. The reference for the batched
    forward and for ``step``."""
    p = model.params
    features = np.asarray(features, dtype=np.float64)
    T, L = features.shape[0], model.cfg.recurrent_layers
    h = [np.array(x, dtype=np.float64) for x in (h0 or model.zero_state())]
    hs = np.zeros((L, T, model.cfg.hidden_dim))
    inp, h_last = features, []
    for layer, prev in enumerate(h):
        wx, wh, b = p[f"wx{layer}"], p[f"wh{layer}"], p[f"b{layer}"]
        for t in range(T):
            prev = hs[layer, t] = np.tanh(wx @ inp[t] + wh @ prev + b)
        h_last.append(prev)
        inp = hs[layer]
    cache = {"features": features, "hidden": hs, "h_last": h_last}
    for name in ("state", "step", "sub"):
        w, b = p[f"w_{name}"], p[f"b_{name}"]
        cache[f"{name}_logits"] = np.array([w @ top + b for top in inp]).reshape(T, len(b))
    return cache


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


def dict_backward(model, cache, d_logits, h0=None) -> dict[str, np.ndarray]:
    """``ScorerModel.backward`` as it was: layer-major, returning a fresh
    gradient dict for the caller to add up."""
    p, hs = model.params, cache["hidden"]
    h_in = h0 or model.zero_state()
    grads, d_h = {}, 0.0
    for name in ("state", "step", "sub"):
        dl = d_logits[name]
        grads[f"w_{name}"] = dl.T @ hs[-1]
        grads[f"b_{name}"] = dl.sum(axis=0)
        d_h = d_h + dl @ p[f"w_{name}"]
    for layer in range(model.cfg.recurrent_layers - 1, -1, -1):
        h, wh = hs[layer], p[f"wh{layer}"]
        dtanh, da, carry = 1.0 - h ** 2, np.empty_like(h), 0.0
        for t in range(len(h) - 1, -1, -1):
            da[t] = (d_h[t] + carry) * dtanh[t]
            carry = da[t] @ wh
        grads[f"wx{layer}"] = da.T @ (hs[layer - 1] if layer > 0 else cache["features"])
        grads[f"wh{layer}"] = da.T @ np.vstack([h_in[layer], h])[:-1]  # h[t - 1], h0 first
        grads[f"b{layer}"] = da.sum(axis=0)
        if layer > 0:
            d_h = da @ p[f"wx{layer}"]
    return grads


class NewArrayAdamW(AdamW):
    """``AdamW`` as it was: each step builds new moment arrays and several
    parameter-sized temporaries per key."""

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for k in sorted(params):
            g = grads[k]
            self.m[k] = BETA1 * self.m[k] + (1 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1 - BETA2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            params[k] -= self.lr * (m_hat / (np.sqrt(v_hat) + EPS) + self.wd * params[k])


def dict_video_grads(model, features, targets, acc) -> tuple[float, int]:
    """``scoring.train._video_grads`` as it was: each window's gradient dict
    from :func:`dict_backward`, then added into ``acc`` key by key."""
    W = model.cfg.bptt_window
    T = features.shape[0]
    loss_sum, n_windows = 0.0, 0
    h = model.zero_state()
    for start in range(0, T, W):
        stop = min(start + W, T)
        cache = model.forward(features[start:stop], h0=h)
        loss, d_logits = model.window_loss(
            cache,
            targets["state"][start:stop],
            targets["step_target"][start:stop],
            targets["step_mask"][start:stop],
            targets["sub_target"][start:stop],
            targets["sub_mask"][start:stop],
        )
        grads = dict_backward(model, cache, d_logits, h0=h)
        for k in acc:
            acc[k] += grads[k]
        loss_sum += loss
        n_windows += 1
        h = cache["h_last"]
    return loss_sum, n_windows


def dict_train_scorer(features, annotations, cfg, seed: int = 0):
    """``scoring.train.train_scorer``'s loop as it was, a batch's videos one
    after another, with a fresh zeroed accumulator per batch,
    :func:`dict_video_grads` and :class:`NewArrayAdamW`; inputs are assumed
    valid. The reference for training, to the tolerance of summing the same
    terms in another order."""
    feats = [np.asarray(f, dtype=np.float64) for f in features]
    targets = [build_frame_targets(a, cfg) for a in annotations]
    model = ScorerModel.init(cfg, seed=seed)
    opt = NewArrayAdamW(model.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)

    trace: list[float] = []
    n = len(feats)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, epoch_windows = 0.0, 0
        for batch_start in range(0, n, cfg.batch_size):
            batch = order[batch_start: batch_start + cfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in model.params.items()}
            batch_windows = 0
            for vid in batch:
                loss_sum, n_windows = dict_video_grads(model, feats[vid], targets[vid], acc)
                epoch_loss += loss_sum
                epoch_windows += n_windows
                batch_windows += n_windows
            for k in acc:
                acc[k] /= max(1, batch_windows)
            opt.step(model.params, acc)
        trace.append(epoch_loss / max(1, epoch_windows))
    return model, trace


def soft_cross_entropy(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy of a probability target against logits.

    Returns (loss, gradient wrt logits). The gradient is the classic
    softmax(logits) - target, which also serves as the finite-difference
    oracle's reference point.
    """
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs target {target.shape}")
    lsm = log_softmax(logits)
    loss = float(-(target * lsm).sum())
    grad = np.exp(lsm) - target
    return loss, grad


def per_frame_window_loss(model, cache, state_target, step_target, step_mask,
                          sub_target, sub_mask) -> tuple[float, dict[str, np.ndarray]]:
    """Window loss and logit gradients with one ``soft_cross_entropy`` call
    per frame and head; the reference for ``ScorerModel.window_loss``."""
    T = cache["features"].shape[0]
    loss = 0.0
    d_logits = {}
    for name, target, mask in (
        ("state", np.eye(3)[state_target], np.ones(T, dtype=bool)),
        ("step", step_target, step_mask),
        ("sub", sub_target, sub_mask),
    ):
        logits = cache[f"{name}_logits"]
        n = max(1, int(mask.sum()))
        d = np.zeros_like(logits)
        for t in np.nonzero(mask)[0]:
            l, g = soft_cross_entropy(logits[t], target[t])
            loss += l / n
            d[t] = g / n
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


# ----------------------------------------------------------------------
# per-timestamp targets: every instance scanned for every frame
# ----------------------------------------------------------------------

def progress_target(t: float, iv: Interval) -> float:
    """Linear progress of timestamp t through interval iv, in [0, 1]."""
    if iv.end <= iv.start:
        raise ValueError(f"zero-length interval [{iv.start}, {iv.end}] has no progress")
    if not iv.start <= t <= iv.end:
        raise ValueError(f"timestamp {t} outside interval [{iv.start}, {iv.end}]")
    return (t - iv.start) / (iv.end - iv.start)


def _inside(t: float, iv: Interval, duration: float) -> bool:
    # Half-open [start, end); the final stream frame exactly at an instance
    # end that coincides with the video end still counts as inside.
    if iv.start <= t < iv.end:
        return True
    return t == iv.end == duration


def state_target(t: float, a: AnnotationSet) -> int:
    """State class for timestamp t: BG, STEP, or STEP_AND_SUBSTEP."""
    if not 0 <= t <= a.duration:
        raise ValueError(f"timestamp {t} outside video [0, {a.duration}]")
    in_substep = any(
        _inside(t, inst.interval, a.duration)
        for inst in a.instances
        if inst.level == HierarchyLevel.SUBSTEP
    )
    if in_substep:
        return STATE_STEP_AND_SUBSTEP
    in_step = any(
        _inside(t, inst.interval, a.duration)
        for inst in a.instances
        if inst.level == HierarchyLevel.STEP
    )
    return STATE_STEP if in_step else STATE_BG


def instance_at(t: float, a: AnnotationSet, level: HierarchyLevel) -> Interval | None:
    """The level's instance interval covering t, or None."""
    for inst in a.instances:
        if inst.level == level and _inside(t, inst.interval, a.duration):
            return inst.interval
    return None


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def scalar_histogram_target(p: float, cfg: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """``histogram_target`` as it was: one ``math.erf`` per edge, one value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {p}")
    cdf = np.array([_norm_cdf((e - p) / cfg.sigma) for e in cfg.edges])
    mass = np.diff(cdf)
    return mass / mass.sum()


def _covering(t: float, a: AnnotationSet, level: HierarchyLevel) -> Interval | None:
    """The covering instance of ``level`` when it has positive length."""
    iv = instance_at(t, a, level)
    return iv if iv is not None and iv.end > iv.start else None


def per_frame_targets(a: AnnotationSet, hist: HistogramConfig) -> dict[str, np.ndarray]:
    """``build_frame_targets`` as it was: a scan of every instance per frame."""
    ts = frame_timestamps(a.duration, a.fps)
    out = {"timestamps": ts, "state": np.zeros(len(ts), dtype=np.int64)}
    for key in ("step", "sub"):
        out[f"{key}_target"] = np.zeros((len(ts), hist.bins))
        out[f"{key}_mask"] = np.zeros(len(ts), dtype=bool)
    for i, t in enumerate(ts.tolist()):
        out["state"][i] = state_target(t, a)
        for key, level in (("step", HierarchyLevel.STEP), ("sub", HierarchyLevel.SUBSTEP)):
            iv = _covering(t, a, level)
            if iv is not None:
                out[f"{key}_mask"][i] = True
                out[f"{key}_target"][i] = scalar_histogram_target(progress_target(t, iv), hist)
    return out


def _noisy_softmax(logits, sigma, rng):
    if sigma > 0:
        logits = logits + rng.normal(0.0, sigma, logits.shape)
    probs = np.exp(logits - logits.max())
    return probs / probs.sum()


def per_frame_scores(a: AnnotationSet, noise_sigma: float, fps: float,
                     hist: HistogramConfig = HistogramConfig(), seed: int = 0) -> list[FrameScores]:
    """``simulator.gen_scores`` as it was: targets and noise frame by frame,
    drawing step, substep and state noise in turn."""
    rng = np.random.default_rng([seed, 1, zlib.crc32(a.video_id.encode())])
    frames = []
    for t in frame_timestamps(a.duration, fps).tolist():
        state_logits = np.zeros(3)
        state_logits[state_target(t, a)] = 10.0
        dists = []
        for level in (HierarchyLevel.STEP, HierarchyLevel.SUBSTEP):
            iv = _covering(t, a, level)
            logits = (np.zeros(hist.bins) if iv is None
                      else np.log(scalar_histogram_target(progress_target(t, iv), hist) + 1e-12))
            dists.append(_noisy_softmax(logits, noise_sigma, rng))
        frames.append(FrameScores(t, _noisy_softmax(state_logits, noise_sigma, rng), *dists))
    return frames


def per_frame_features(a: AnnotationSet, cfg, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``simulator.gen_features`` as it was, one frame at a time."""
    rng = np.random.default_rng([seed, 2, zlib.crc32(a.video_id.encode())])
    ts = frame_timestamps(a.duration, cfg.fps)
    prototypes = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    feats = np.zeros((len(ts), cfg.feature_dim))
    for i, t in enumerate(ts.tolist()):
        feats[i, 0:2] = prototypes[state_target(t, a)]
        for dim, level in ((2, HierarchyLevel.STEP), (3, HierarchyLevel.SUBSTEP)):
            iv = _covering(t, a, level)
            if iv is not None:
                feats[i, dim] = progress_target(t, iv)
    if cfg.noise_sigma > 0:
        feats = feats + rng.normal(0.0, cfg.noise_sigma, feats.shape)
    return ts, feats


# ----------------------------------------------------------------------
# the online loop's detector and context memory as they were
# ----------------------------------------------------------------------

def scan_histogram_expectation(dist: np.ndarray, cfg: HistogramConfig = HistogramConfig()) -> float:
    """``histogram_expectation`` as it was: ``asarray``, ``ndarray.sum`` and ``@``."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (cfg.bins,):
        raise ValueError(f"expected {cfg.bins} bins, got shape {dist.shape}")
    total = float(dist.sum())
    if not abs(total - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"distribution sums to {total}, expected 1 within 1e-6")
    return float(dist @ cfg.centers)


class EventKind:
    """The detector's event kinds as they were, when ``finish`` ended with a
    ``GOAL_DUE`` event after the end-of-stream closes."""

    INSTANCE_STARTED = detector.EventKind.INSTANCE_STARTED
    INSTANCE_ENDED = detector.EventKind.INSTANCE_ENDED
    GOAL_DUE = "goal_due"


@dataclass
class _ScanLevelState:
    ongoing: bool = False
    open_start: float = 0.0
    previous_progress: float = 0.0
    suppressed_this_frame: bool = False


def actionness(fs: FrameScores, level: HierarchyLevel) -> float:
    """Probability that an instance of the level is ongoing, marginalized
    from the 3-state distribution (substeps imply an enclosing step)."""
    if level == HierarchyLevel.STEP:
        return float(fs.state_probs[STATE_STEP] + fs.state_probs[STATE_STEP_AND_SUBSTEP])
    if level == HierarchyLevel.SUBSTEP:
        return float(fs.state_probs[STATE_STEP_AND_SUBSTEP])
    raise ValueError(f"no actionness for level {level}")


def events_never_revised(detector, stream) -> list[DetectionEvent]:
    """Every event ``detector`` returns over ``stream`` and then ``finish()``,
    in order, after checking that each list ``step``/``finish`` returned
    still equals a copy taken when it was returned: the never-revised
    contract, with no stored log to read."""
    returned = []
    for fs in stream:
        events = detector.step(fs)
        returned.append((events, list(events)))
    events = detector.finish()
    returned.append((events, list(events)))
    assert all(events == copy for events, copy in returned), "a returned event list was revised"
    return [e for events, _ in returned for e in events]


class ScanDetector:
    """``StreamDetector`` as it was: actionness from numpy scalars through
    ``actionness``, progress through ``_progress``, and a new set from
    ``ongoing_levels`` on every call."""

    LEVELS = (HierarchyLevel.SUBSTEP, HierarchyLevel.STEP)

    def __init__(self, cfg: DetectorConfig = DetectorConfig(),
                 histogram: HistogramConfig = HistogramConfig()):
        self.cfg = cfg
        self.histogram = histogram
        self._levels = {level: _ScanLevelState() for level in self.LEVELS}
        self._last_ts: float | None = None
        self._finished = False

    def _progress(self, fs: FrameScores, level: HierarchyLevel) -> float:
        dist = (
            fs.substep_progress_dist
            if level == HierarchyLevel.SUBSTEP
            else fs.step_progress_dist
        )
        return scan_histogram_expectation(dist, self.histogram)

    def ongoing_levels(self) -> set[HierarchyLevel]:
        """Levels with an open instance; the membership a frame stored right
        after :meth:`step` should carry."""
        return {level for level, ls in self._levels.items() if ls.ongoing}

    def step(self, fs: FrameScores) -> list[DetectionEvent]:
        if self._finished:
            raise RuntimeError("detector already finished")
        t = fs.timestamp
        check_timestamp(t, self._last_ts)

        # A sum near one also means finite actionness, which the threshold
        # tests below need (NaN fails both). A failing frame is named by its
        # first non-finite actionness, else by its sum (a NaN bg included).
        probs = fs.state_probs.tolist()
        total = sum(probs)
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            for level in self.LEVELS:
                if not math.isfinite(act := actionness(fs, level)):
                    raise ValueError(f"frame at t={t}: {level.name} actionness {act!r} is not finite")
            raise ValueError(f"frame at t={t}: state distribution sums to {total!r}, not 1")
        if min(probs) < -PROB_SLACK or max(probs) > 1 + PROB_SLACK:
            raise ValueError(f"frame at t={t}: state distribution {probs} has entries outside [0, 1]")

        events: list[DetectionEvent] = []
        for level in self.LEVELS:
            ls = self._levels[level]
            ls.suppressed_this_frame = False
            act = actionness(fs, level)

            if ls.ongoing:
                p = self._progress(fs, level)
                dropped = (
                    ls.previous_progress - p >= self.cfg.drop_delta
                    and ls.previous_progress >= self.cfg.min_progress_for_drop
                )
                if dropped:
                    # Progress collapsed: the instance ended at the previous
                    # frame and this frame belongs to no instance at this level.
                    events.append(DetectionEvent(
                        EventKind.INSTANCE_ENDED, level, t,
                        Interval(ls.open_start, self._last_ts),
                    ))
                    ls.ongoing = False
                    ls.suppressed_this_frame = True
                elif act < self.cfg.start_threshold:
                    events.append(DetectionEvent(
                        EventKind.INSTANCE_ENDED, level, t,
                        Interval(ls.open_start, t),
                    ))
                    ls.ongoing = False
                else:
                    ls.previous_progress = p

            if not ls.ongoing and not ls.suppressed_this_frame and act >= self.cfg.start_threshold:
                ls.ongoing = True
                ls.open_start = t
                ls.previous_progress = self._progress(fs, level)
                events.append(DetectionEvent(
                    EventKind.INSTANCE_STARTED, level, t,
                ))

        self._last_ts = t
        return events

    def finish(self) -> list[DetectionEvent]:
        """End-of-stream closes at the last timestamp (0.0 if none), then GOAL_DUE."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        t = self._last_ts if self._last_ts is not None else 0.0

        events: list[DetectionEvent] = []
        if self.cfg.close_incomplete_at_eos:
            for level in self.LEVELS:
                ls = self._levels[level]
                if ls.ongoing:
                    events.append(DetectionEvent(
                        EventKind.INSTANCE_ENDED, level, t, Interval(ls.open_start, t),
                    ))
                    ls.ongoing = False
        events.append(DetectionEvent(EventKind.GOAL_DUE, HierarchyLevel.GOAL, t))
        return events


@dataclass(frozen=True, slots=True)
class FrameRef:
    """A stored frame as the context memory once kept and returned it."""

    timestamp: float
    member_levels: frozenset[HierarchyLevel]
    handle: str


def _spaced(frames: list[FrameRef], spacing: float) -> list[FrameRef]:
    """``memory._spaced`` as it was, over frame references: take the earliest
    frame, then the earliest frame at least `spacing` seconds after the last
    pick."""
    picked: list[FrameRef] = []
    for ref in frames:
        if not picked or ref.timestamp >= picked[-1].timestamp + spacing:
            picked.append(ref)
    return picked


class ScanMemory:
    """``ContextMemory`` as it was: every interval lookup, prune and prior
    selection scans all stored frames or predictions."""

    def __init__(self) -> None:
        self._frames: list[FrameRef] = []
        self._predictions: list[Prediction] = []
        self._last_seen: float | None = None
        # Start of the step instance currently ongoing, derived from the
        # membership of observed frames; None while no step is ongoing.
        self._current_step_start: float | None = None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert_frame(
        self, timestamp: float, member_levels: set[HierarchyLevel], handle: str
    ) -> None:
        check_timestamp(timestamp, self._last_seen)
        self._last_seen = timestamp

        if HierarchyLevel.STEP in member_levels:
            if self._current_step_start is None:
                self._current_step_start = timestamp
        else:
            self._current_step_start = None

        if member_levels:
            self._frames.append(FrameRef(timestamp, frozenset(member_levels), handle))

    def commit_prediction(self, p: Prediction) -> None:
        self._predictions.append(p)
        if p.level == HierarchyLevel.STEP:
            self._prune_to_representative(p.interval)

    def _prune_to_representative(self, interval: Interval) -> None:
        inside = self._frames_within(interval)
        if not inside:
            return
        mid = (interval.start + interval.end) / 2.0
        rep = min(inside, key=lambda f: (abs(f.timestamp - mid), f.timestamp))
        self._frames = [
            f for f in self._frames
            if f is rep or not (interval.start <= f.timestamp <= interval.end)
        ]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def _frames_within(self, interval: Interval) -> list[FrameRef]:
        return [f for f in self._frames if interval.start <= f.timestamp <= interval.end]

    def query(self, instance: ActionInstance) -> RetrievalBundle:
        iv = instance.interval
        if instance.level != HierarchyLevel.GOAL:
            if self._last_seen is None or iv.end > self._last_seen:
                raise ValueError(
                    f"memory covers up to {self._last_seen}, queried interval ends at {iv.end}"
                )

        if instance.level == HierarchyLevel.SUBSTEP:
            frames = _spaced(self._frames_within(iv), SUBSTEP_FRAME_SPACING)
            prior: list[str] = []
            if self._current_step_start is not None:
                step_iv = Interval(self._current_step_start, self._last_seen)
                prior = [
                    p.long_form
                    for p in self._predictions
                    if p.level == HierarchyLevel.SUBSTEP
                    and step_iv.start <= p.interval.start
                    and p.interval.end <= step_iv.end
                ]
            return RetrievalBundle(tuple(frames), tuple(prior), instance.level, iv)

        if instance.level == HierarchyLevel.STEP:
            candidates = [
                f for f in self._frames_within(iv) if HierarchyLevel.SUBSTEP in f.member_levels
            ]
            frames = _spaced(candidates, STEP_FRAME_SPACING)
            step_preds = [p for p in self._predictions if p.level == HierarchyLevel.STEP]
            prior = [p.long_form for p in step_preds[-MAX_STEP_HISTORY:]]
            return RetrievalBundle(tuple(frames), tuple(prior), instance.level, iv)

        # Goal: one representative frame per described step, oldest first.
        frames = []
        prior = []
        for p in self._predictions:
            if p.level != HierarchyLevel.STEP:
                continue
            prior.append(p.short_form)
            inside = self._frames_within(p.interval)
            if inside:
                frames.append(inside[0])
        end = self._last_seen if self._last_seen is not None else iv.end
        return RetrievalBundle(
            tuple(sorted(frames, key=lambda f: f.timestamp)),
            tuple(prior),
            HierarchyLevel.GOAL,
            Interval(0.0, max(end, 0.0)),
        )
