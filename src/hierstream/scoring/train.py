"""AdamW training loop for the recurrent scorer.

Targets come straight from annotations: per-frame state classes plus
histogram-encoded progress for frames inside step/substep instances.
Training is fully determined by the seed. A batch's videos step through
each BPTT window as the columns of one time-major (T, B) block, so each
frame's recurrence reads a recurrent matrix once for the whole batch, not
once per video (Diamos et al., Persistent RNNs, ICML 2016), on one thread.

Memory holds the parameters, AdamW's two moments and one batch accumulator,
allocated once, one block's activations and a few parameter-sized
temporaries (``backward`` adds each gradient into the accumulator as it is
computed; ``AdamW.step`` works in place through two scratch buffers). One
epoch (L=3, window 64, one BLAS thread) peaks at 56.6 MiB resident for eight
30 s videos at h=256 (B=8), 193.5 MiB for sixteen at h=768 (B=16).
"""

from __future__ import annotations

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


def _block(arrays: list[np.ndarray], start: int, T: int) -> np.ndarray:
    """Rows ``start:start + T`` of each array side by side, as the columns of
    a time-major (T, B, ...) block; zero (False) past an array's end."""
    block = np.zeros((T, len(arrays)) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for col, a in enumerate(arrays):
        rows = a[start:start + T]
        block[:len(rows), col] = rows
    return block


def _batch_grads(model: ScorerModel, feats: list[np.ndarray], targets: list[dict[str, np.ndarray]], batch,
                 acc: dict[str, np.ndarray]) -> tuple[list[float], int]:
    """Gradients of one batch added into ``acc``. At window w, the videos
    that still have frames form one time-major block, a column that ends
    early padded with rows in no loss mask. Hidden state carries across a
    video's windows, gradients do not (truncated BPTT). Returns the
    per-video loss sums, in batch order, and the window count."""
    W, L, H = model.cfg.bptt_window, model.cfg.recurrent_layers, model.cfg.hidden_dim
    lengths = np.array([len(feats[vid]) for vid in batch])
    losses = np.zeros(len(batch))
    h = np.zeros((L, len(batch), H))
    for start in range(0, lengths.max(), W):
        cols = np.flatnonzero(lengths > start)
        vids = [batch[col] for col in cols]
        T = min(W, lengths.max() - start)
        h0 = list(h[:, cols])
        cache = model.forward_block(_block([feats[vid] for vid in vids], start, T), h0)
        loss, d_logits = model.window_loss(
            cache, *(_block([targets[vid][k] for vid in vids], start, T) for k in _TARGET_KEYS),
            frames=np.arange(T)[:, None] < lengths[cols] - start)
        model.backward(cache, d_logits, h0, acc)
        losses[cols] += loss
        h[:, cols] = cache["h_last"]
        del cache, d_logits  # one block's activations alive at a time
    return losses.tolist(), int(np.ceil(lengths / W).sum())


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
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, epoch_windows = 0.0, 0
        for batch_start in range(0, n, cfg.batch_size):
            batch = order[batch_start: batch_start + cfg.batch_size]
            for g in acc.values():
                g.fill(0.0)
            video_losses, batch_windows = _batch_grads(model, feats, targets, batch, acc)
            epoch_loss += sum(video_losses)
            epoch_windows += batch_windows
            for k in acc:
                acc[k] /= max(1, batch_windows)
            opt.step(model.params, acc)
        trace.append(epoch_loss / max(1, epoch_windows))
    return model, trace
