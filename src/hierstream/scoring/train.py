"""AdamW training loop for the recurrent scorer.

Targets come straight from annotations: per-frame state classes plus
histogram-encoded progress for frames inside step/substep instances.
Training is fully determined by the seed. Within a batch, models from
``OVERLAP_MIN_HIDDEN`` up run each BPTT window's forward and loss on a
worker thread, one window ahead of the calling thread's backward (GPipe's
forward/backward pipelining, Huang et al., arXiv:1811.06965). BLAS releases
the interpreter lock, so the two overlap on a second CPU; the parameters are
fixed within a batch and only the calling thread writes the accumulator, so
every operation and its order are those of the sequential loop, and the
weights and loss trace are bit-identical either way.

Memory stays bounded by four parameter-sized dicts: the parameters, AdamW's
two moments and one batch accumulator, allocated once. Each BPTT window's
gradients are added straight into the accumulator by
``ScorerModel.backward``, one parameter-sized temporary at a time, and
``AdamW.step`` updates moments and parameters in place through two scratch
buffers the size of the largest parameter. Besides these, at most two
window caches are alive, the one last drawn and the one being built, plus,
when overlapped, the hidden states of the window before them, which the
start state of the window in backward views. One epoch of eight 30 s videos
(L=3, window 64, BLAS on one thread, numpy 2.4, 2 CPUs) peaks at 50.1 MiB
resident at h=256 and at 142.2 MiB at h=768.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import closing

import numpy as np

from ..core import AnnotationSet, frame_count, frame_timestamps
from .rnn import ScorerConfig, ScorerModel
from .targets import frame_targets


_TARGET_KEYS = ("state", "step_target", "step_mask", "sub_target", "sub_mask")


def build_frame_targets(a: AnnotationSet, cfg: ScorerConfig) -> dict[str, np.ndarray]:
    """Per-frame training targets for one video at its fps grid."""
    ts = frame_timestamps(a.duration, a.fps)
    targets = frame_targets(a, ts, cfg.histogram)
    return {"timestamps": ts, **{k: targets[k] for k in _TARGET_KEYS}}


# AdamW's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Decoupled weight decay Adam, bias-corrected."""

    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float):
        self.lr = lr
        self.wd = weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update of every parameter, moments and parameters in place.

        Per key this is ``m = BETA1 * m + (1 - BETA1) * g``, ``v = BETA2 * v
        + (1 - BETA2) * g * g`` and ``p -= lr * (m / bc1 / (sqrt(v / bc2) +
        EPS) + wd * p)``, each operation in that order (IEEE products and sums
        commute, so the results are bit-identical), through two scratch
        buffers the size of the largest parameter.
        """
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        size = max(v.size for v in params.values())
        buf1, buf2 = np.empty(size), np.empty(size)
        for k in sorted(params):
            g, m, v, p = grads[k], self.m[k], self.v[k], params[k]
            s1, s2 = buf1[:p.size].reshape(p.shape), buf2[:p.size].reshape(p.shape)
            m *= BETA1
            m += np.multiply(g, 1 - BETA1, out=s1)
            v *= BETA2
            v += np.multiply(np.multiply(g, 1 - BETA2, out=s1), g, out=s1)
            np.divide(m, bc1, out=s1)  # m_hat
            np.sqrt(np.divide(v, bc2, out=s2), out=s2)
            s2 += EPS
            s1 /= s2
            s1 += np.multiply(p, self.wd, out=s2)
            s1 *= self.lr
            p -= s1


# Hidden sizes from which a batch's next window runs forward on a worker
# thread while this one runs backward. Below it the two threads spend more
# time taking turns at the interpreter lock than the overlap saves: one
# epoch of the benchmark's eight 30 s videos (L=3, window 64, 2 CPUs, BLAS
# on one thread) took longer overlapped up to h=192 and less from h=224.
OVERLAP_MIN_HIDDEN = 224


def _overlapped(cfg: ScorerConfig) -> bool:
    """Whether training overlaps windows: only with a second CPU for the
    worker thread and a model large enough to pay for it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2 and cfg.hidden_dim >= OVERLAP_MIN_HIDDEN


def _windows(model: ScorerModel, feats: list[np.ndarray], targets: list[dict[str, np.ndarray]], batch):
    """Forward and loss of every BPTT window of the batch's videos, in
    (video, window) order, as ``(video, h0, cache, loss, d_logits)``; hidden
    state carries across a video's windows, gradients do not (truncated
    BPTT). Reads the parameters and writes nothing it has yielded."""
    W = model.cfg.bptt_window
    for vid in batch:
        f, tg = feats[vid], targets[vid]
        h = model.zero_state()
        for start in range(0, len(f), W):
            cache = model.forward(f[start:start + W], h0=h)
            loss, d_logits = model.window_loss(cache, *(tg[k][start:start + W] for k in _TARGET_KEYS))
            yield vid, h, cache, loss, d_logits
            h = cache["h_last"]


def _prefetched(items: Iterator):
    """``items``, each drawn on a worker thread while the caller works on
    the one before, so at most two are alive at once. An exception raised
    drawing one is raised here as it is; closing the generator waits for
    the draw in progress, then ends the thread."""
    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: keeps it out of start-up

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(next, items, None)
        while (item := ahead.result()) is not None:
            ahead = pool.submit(next, items, None)
            yield item


def _batch_grads(
    model: ScorerModel, feats: list[np.ndarray], targets: list[dict[str, np.ndarray]], batch,
    acc: dict[str, np.ndarray], overlap: bool,
) -> tuple[list[float], int]:
    """Gradients of one batch added into ``acc`` by ``backward``, window by
    window in (video, window) order, the next window's forward overlapping
    this one's backward when ``overlap`` is set. Returns the per-video loss
    sums and the window count."""
    windows = _windows(model, feats, targets, batch)
    video_loss: dict[int, float] = {}
    n_windows = 0
    with closing(_prefetched(windows) if overlap else windows) as items:
        for vid, h0, cache, loss, d_logits in items:
            model.backward(cache, d_logits, h0, acc)
            video_loss[vid] = video_loss.get(vid, 0.0) + loss
            n_windows += 1
    return list(video_loss.values()), n_windows


def train_scorer(
    features: list[np.ndarray],
    annotations: list[AnnotationSet],
    cfg: ScorerConfig,
    seed: int = 0,
) -> tuple[ScorerModel, list[float]]:
    """Train the scorer; returns the model and the per-epoch mean loss trace."""
    if not features or not annotations:
        raise ValueError("empty training set")
    if len(features) != len(annotations):
        raise ValueError(f"{len(features)} feature sequences vs {len(annotations)} annotation sets")

    feats = [np.asarray(f, dtype=np.float64) for f in features]
    for f, a in zip(feats, annotations):
        if f.ndim != 2 or f.shape[1] != cfg.feature_dim:
            raise ValueError(f"features for {a.video_id}: expected dim {cfg.feature_dim}, got {f.shape}")
        expected = frame_count(a.duration, a.fps)
        if f.shape[0] != expected:
            raise ValueError(
                f"features for {a.video_id}: {f.shape[0]} frames, annotations imply {expected}"
            )
        if not np.isfinite(f).all():
            row, col = np.argwhere(~np.isfinite(f))[0]
            raise ValueError(f"features for {a.video_id}: row {row}, column {col} is {f[row, col]}, not finite")

    targets = [build_frame_targets(a, cfg) for a in annotations]
    model = ScorerModel.init(cfg, seed=seed)
    opt = AdamW(model.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)

    trace: list[float] = []
    n = len(feats)
    acc = {k: np.zeros_like(v) for k, v in model.params.items()}
    overlap = _overlapped(cfg)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, epoch_windows = 0.0, 0
        for batch_start in range(0, n, cfg.batch_size):
            batch = order[batch_start: batch_start + cfg.batch_size]
            for g in acc.values():
                g.fill(0.0)
            video_losses, batch_windows = _batch_grads(model, feats, targets, batch, acc, overlap)
            for loss_sum in video_losses:
                epoch_loss += loss_sum
            epoch_windows += batch_windows
            for k in acc:
                acc[k] /= max(1, batch_windows)
            opt.step(model.params, acc)
        trace.append(epoch_loss / max(1, epoch_windows))
    return model, trace
