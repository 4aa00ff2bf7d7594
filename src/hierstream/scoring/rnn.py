"""A small recurrent scorer: a stack of tanh (Elman) layers shared by three
linear heads (state class, step progress, substep progress).

All math is plain numpy with hand-written backpropagation; no autodiff.
The forward pass is strictly causal, so scores for frame t depend only on
frames 0..t and inference over a prefix equals the prefix of full-sequence
inference exactly. Inference runs layer by layer: each layer's input
projection and the heads are per-row gemvs batched in C, and only the
recurrence loops in Python; a streamed frame's one row makes the same
gemvs and sums in place. Inference has no GEMM, since GEMM rows can round
differently from per-row matvecs and break that bit identity.
Training's forward and the backward pass are GEMMs over a time-major block
of a batch's windows (Appleyard et al., arXiv:1604.01946).
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..core import FrameScores, check_timestamps
from .histogram import HistogramConfig
from .losses import log_softmax, softmax


@dataclass(frozen=True)
class ScorerConfig:
    feature_dim: int
    recurrent_layers: int = 3
    hidden_dim: int = 768
    learning_rate: float = 3e-4
    weight_decay: float = 0.01
    batch_size: int = 16
    epochs: int = 30
    bptt_window: int = 64
    histogram: HistogramConfig = field(default_factory=HistogramConfig)

    def __post_init__(self) -> None:  # each check written so that NaN fails it
        for name in ("feature_dim", "recurrent_layers", "hidden_dim",
                     "batch_size", "epochs", "bptt_window"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")


_HEADS = (("state_logits", "w_state", "b_state"), ("step_logits", "w_step", "b_step"),
          ("sub_logits", "w_sub", "b_sub"))


def _param_shapes(cfg: ScorerConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialisation order."""
    h, bins = cfg.hidden_dim, cfg.histogram.bins
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(cfg.recurrent_layers):
        shapes[f"wx{layer}"] = (h, cfg.feature_dim if layer == 0 else h)
        shapes[f"wh{layer}"] = (h, h)
        shapes[f"b{layer}"] = (h,)
    for name, out_dim in (("state", 3), ("step", bins), ("sub", bins)):
        shapes[f"w_{name}"] = (out_dim, h)
        shapes[f"b_{name}"] = (out_dim,)
    return shapes


class ScorerModel:
    """Parameter container plus forward/backward passes.

    Parameters live in a name -> ndarray dict. Layer l uses ``wx{l}`` (input
    projection), ``wh{l}`` (recurrence), ``b{l}``; the heads use
    ``w_state/b_state``, ``w_step/b_step``, ``w_sub/b_sub``.
    """

    def __init__(self, cfg: ScorerConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        # Parameter names per layer, formatted once: forward() runs per frame.
        self._layer_keys = [(f"wx{i}", f"wh{i}", f"b{i}") for i in range(cfg.recurrent_layers)]

    # ------------------------------------------------------------------
    # construction / io
    # ------------------------------------------------------------------

    @classmethod
    def init(cls, cfg: ScorerConfig, seed: int = 0) -> "ScorerModel":
        """Weights drawn from N(0, 1/fan_in), biases zero."""
        rng = np.random.default_rng(seed)
        params = {k: rng.normal(0, 1.0 / np.sqrt(shape[1]), shape) if len(shape) == 2 else np.zeros(shape)
                  for k, shape in _param_shapes(cfg).items()}
        return cls(cfg, params)

    def save(self, path) -> None:
        meta = dict(
            feature_dim=int(self.cfg.feature_dim),
            recurrent_layers=int(self.cfg.recurrent_layers),
            hidden_dim=int(self.cfg.hidden_dim),
            bins=int(self.cfg.histogram.bins),
            sigma=float(self.cfg.histogram.sigma),
        )
        # (key, repr(value)) strings: loadable without pickle.
        np.savez(path, __meta__=np.array([(k, repr(v)) for k, v in meta.items()]), **self.params)

    @classmethod
    def load(cls, path) -> "ScorerModel":
        """Read a file that :meth:`save` wrote; refuse any other, a pickled
        meta included, with a ValueError that starts with the path."""
        # Raised by damage, a plain .npy (TypeError) or a pickled meta (ValueError);
        # an unsupported zip feature's NotImplementedError is a RuntimeError.
        try:
            with np.load(path, allow_pickle=False) as data:
                params = {k: data[k] for k in data.files}
        except (OSError, EOFError, RuntimeError, TypeError, ValueError, zipfile.BadZipFile, zlib.error) as e:
            raise ValueError(f"{path}: not a model archive that save writes ({e}); save the model again") from e
        if "__meta__" not in params:
            raise ValueError(f"{path}: no __meta__ entry")
        meta = params.pop("__meta__")
        try:
            meta = {str(k): str(v) for k, v in meta.tolist()}
            cfg = ScorerConfig(
                feature_dim=int(meta["feature_dim"]),
                recurrent_layers=int(meta["recurrent_layers"]),
                hidden_dim=int(meta["hidden_dim"]),
                histogram=HistogramConfig(bins=int(meta["bins"]), sigma=float(meta["sigma"])),
            )
        except KeyError as e:
            raise ValueError(f"{path}: meta has no {e.args[0]}") from e
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: bad meta: {e}") from e
        shapes = _param_shapes(cfg)
        extra = sorted(params.keys() - shapes.keys())
        if extra:
            raise ValueError(f"{path}: parameter {extra[0]} is not one of this model's")
        for k, shape in shapes.items():
            if k not in params:
                raise ValueError(f"{path}: parameter {k} is missing")
            v = params[k]
            if v.dtype != np.float64 or v.shape != shape:
                raise ValueError(f"{path}: parameter {k} is {v.dtype} {v.shape}, the meta implies float64 {shape}")
            if not np.isfinite(v).all():
                raise ValueError(f"{path}: parameter {k} holds a non-finite value")
        return cls(cfg, params)

    def zero_state(self) -> list[np.ndarray]:
        return [np.zeros(self.cfg.hidden_dim) for _ in range(self.cfg.recurrent_layers)]

    def _state(self, h0):  # one state per layer, in any sequence; zeros for None
        h = self.zero_state() if h0 is None else h0
        if len(h) != self.cfg.recurrent_layers:
            raise ValueError(f"expected {self.cfg.recurrent_layers} hidden states, got {len(h)}")
        return h

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def step(
        self, x: np.ndarray, h: list[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """One frame: features and per-layer hidden states in; new hidden
        states and the state, step and substep logits out. It is
        :meth:`forward` over one row, so streamed and batch scores agree
        bit for bit."""
        cache = self.forward(np.asarray(x, dtype=np.float64)[None], h)
        return (cache["h_last"], cache["state_logits"][0],
                cache["step_logits"][0], cache["sub_logits"][0])

    def forward(self, features: np.ndarray, h0: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Run the scorer over a (T, D) feature window, layer by layer.

        Per layer, frame t's hidden state is ``tanh(wx @ x[t] + wh @ h[t-1]
        + b)``, added in that order; the heads are ``w @ top[t] + b``.
        Returns a cache holding hidden states and head logits; the cache
        feeds both inference and the backward pass.
        One row, the streaming case, makes the same gemvs and sums in place
        in the cache: the bits of that row inside a window, in fewer calls.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.cfg.feature_dim:
            raise ValueError(f"expected (T, {self.cfg.feature_dim}) features, got {features.shape}")
        T, h, p = features.shape[0], self._state(h0), self.params
        hs = np.empty((len(h), T, self.cfg.hidden_dim))
        cache = {"features": features, "hidden": hs}
        if T == 1:
            top, h_last = features[0], []
            for prev, (wx, wh, b), out in zip(h, self._layer_keys, hs[:, 0]):
                np.dot(p[wx], top, out=out)
                out += np.dot(p[wh], prev)
                out += p[b]
                top = np.tanh(out, out=out)
                h_last.append(top)  # a view of this cache, never the caller's h0
            cache["h_last"] = h_last
            for key, w, b in _HEADS:
                logits = np.dot(p[w], top)
                logits += p[b]
                cache[key] = logits[None]
            return cache
        # Stacked matmul over (T, D, 1) rows: one BLAS gemv per row looped in C,
        # so bit-identical to per-row np.dot, unlike the GEMM rows @ w.T.
        inp, h_last = features[:, :, None], []
        for prev, (wx, wh, b), out in zip(h, self._layer_keys, hs):
            np.matmul(p[wx], inp, out=out[:, :, None])  # out[t] holds wx @ x[t] until frame t overwrites it
            wh, b = p[wh], p[b]
            for t in range(T):
                # np.dot: the same gemv as wh @ prev, dispatched for less
                prev = out[t] = np.tanh(out[t] + np.dot(wh, prev) + b)
            h_last.append(prev if T else np.array(prev, dtype=np.float64))  # never the caller's h0
            inp = out[:, :, None]
        cache["h_last"] = h_last
        for key, w, b in _HEADS:
            cache[key] = np.matmul(p[w], inp)[:, :, 0] + p[b]
        return cache

    def forward_block(self, features: np.ndarray, h0: list[np.ndarray]) -> dict[str, np.ndarray]:
        """Training's :meth:`forward` over a time-major (T, B, D) block, column
        b started from row b of each layer's (B, H) state in ``h0``: input
        projections and heads are one GEMM over the T·B rows, each frame's
        recurrence one ``(B, H) @ wh.T``; the cache gains a batch axis."""
        (T, B, _), H = features.shape, self.cfg.hidden_dim
        p, inp, hs, h_last = self.params, features, np.empty((len(h0), T, B, H)), []
        for prev, (wx, wh, b), out in zip(h0, self._layer_keys, hs):
            np.matmul(inp.reshape(T * B, -1), p[wx].T, out=out.reshape(T * B, H))
            wh_t, b = np.ascontiguousarray(p[wh].T), p[b]  # BLAS is faster on it than on the view
            for row in out:
                row += prev @ wh_t
                row += b
                prev = np.tanh(row, out=row)
            h_last.append(prev)
            inp = out
        cache = {"features": features, "hidden": hs, "h_last": h_last}
        for key, w, b in _HEADS:
            cache[key] = (_rows(inp) @ p[w].T + p[b]).reshape(T, B, -1)
        return cache

    # ------------------------------------------------------------------
    # loss and gradients
    # ------------------------------------------------------------------

    def window_loss(
        self,
        cache: dict[str, np.ndarray],
        state_target: np.ndarray,
        step_target: np.ndarray,
        step_mask: np.ndarray,
        sub_target: np.ndarray,
        sub_mask: np.ndarray,
        frames: np.ndarray | None = None,
    ):
        """Loss over one window plus per-frame logit gradients.

        The state head is averaged over every frame; each progress head is
        averaged over the frames inside that level's instances only. On a
        (T, B) block, each column is averaged on its own and gets its own
        loss, and ``frames`` marks the rows that are not padding.
        """
        lead = cache["state_logits"].shape[:-1]
        loss, d_logits = 0.0, {}
        for name, target, mask in (
            ("state", np.eye(3)[state_target], np.ones(lead, dtype=bool) if frames is None else frames),
            ("step", step_target, step_mask),
            ("sub", sub_target, sub_mask),
        ):
            logits, mask = cache[f"{name}_logits"], np.asarray(mask, dtype=bool)
            if target.shape != logits.shape or mask.shape != lead:
                raise ValueError(f"{name} head: target {target.shape}, mask {mask.shape}, logits {logits.shape}")
            weight = (mask / np.maximum(1, mask.sum(axis=0)))[..., None]  # 0 off the mask: exact zeros
            lsm = log_softmax(logits)
            loss = loss - (weight * target * lsm).sum(axis=(0, -1))
            d_logits[name] = (np.exp(lsm) - target) * weight
        return (float(loss) if len(lead) == 1 else loss), d_logits

    def backward(
        self,
        cache: dict[str, np.ndarray],
        d_logits: dict[str, np.ndarray],
        h0: list[np.ndarray] | None = None,
        into: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Backpropagate logit gradients through heads and time, layer-major.

        The cache is a (T, ·) window or a (T, B, ·) block, with one (H,)
        or (B, H) state per layer in h0. From the top layer down, only the
        recurrence runs per frame: a gemv, or a ``(B, H) @ wh``. Each
        layer's weight gradients and the gradient into the layer below are
        one GEMM over all rows (Appleyard et al., arXiv:1604.01946).
        Gradients stop at the window boundary (truncated BPTT): the incoming
        hidden state h0 is treated as a constant. Two activation-sized
        buffers serve every layer, swapping roles at each.

        Each weight gradient is added into ``into`` (parameter name -> array)
        as soon as it is computed, and ``into`` is returned; without it the
        sums start from zeros. So summing windows into training's batch
        accumulator holds one parameter-sized temporary at a time.
        """
        p, hs, h_in = self.params, cache["hidden"], self._state(h0)
        grads = {k: np.zeros_like(v) for k, v in p.items()} if into is None else into
        d_h = np.zeros(hs.shape[1:])
        top, d_rows = _rows(hs[-1]), _rows(d_h)
        for name in ("state", "step", "sub"):
            dl = _rows(d_logits[name])
            grads[f"w_{name}"] += dl.T @ top
            grads[f"b_{name}"] += dl.sum(axis=0)
            d_rows += dl @ p[f"w_{name}"]
        spare = np.empty_like(d_h)
        for layer in range(self.cfg.recurrent_layers - 1, -1, -1):
            h, wh = hs[layer], p[f"wh{layer}"]
            dtanh, carry = np.subtract(1.0, np.multiply(h, h, out=spare), out=spare), 0.0
            for da, dt in zip(d_h[::-1], dtanh[::-1]):  # newest first, d_h turning into da in place
                da += carry
                da *= dt
                carry = np.dot(da, wh)  # the same gemv as da @ wh, dispatched for less
            spare[:1], spare[1:] = h_in[layer], h[:-1]  # h[t - 1], h0 first
            da = _rows(d_h)
            grads[f"wx{layer}"] += da.T @ _rows(hs[layer - 1] if layer > 0 else cache["features"])
            grads[f"wh{layer}"] += da.T @ _rows(spare)
            grads[f"b{layer}"] += da.sum(axis=0)
            if layer > 0:  # the gradient into the layer below, in the spare buffer
                np.matmul(da, p[f"wx{layer}"], out=_rows(spare))
                d_h, spare = spare, d_h
        return grads


def _rows(a: np.ndarray) -> np.ndarray:
    """A (T, B, n) block as a view of its T·B rows; a (T, n) window as is."""
    return a.reshape(-1, a.shape[-1])


def infer_scores(model: ScorerModel, features: np.ndarray, timestamps: np.ndarray) -> list[FrameScores]:
    """Forward a full feature sequence into per-frame score distributions.

    Timestamps must be one per feature row and pass
    ``core.check_timestamps``. Causality is structural: the recurrence
    never looks ahead.
    """
    cache = model.forward(features)
    timestamps = _frame_times(timestamps, len(cache["features"]))
    probs = [softmax(cache[f"{name}_logits"]) for name in ("state", "step", "sub")]
    for arr in probs:  # once here, so FrameScores leaves each row view as it is
        arr.setflags(write=False)
    return [FrameScores(*row) for row in zip(timestamps.tolist(), *probs)]


def stream_scores(model: ScorerModel, timestamps: np.ndarray, features: np.ndarray):
    """:func:`infer_scores`, checks and bits alike, but row t is scored only when frame t is asked for."""
    timestamps = _frame_times(timestamps, len(features))
    h = model.zero_state()
    for t, x in zip(timestamps.tolist(), features):
        h, *logits = model.step(x, h)
        yield FrameScores(t, *(softmax(z) for z in logits))


def _frame_times(timestamps: np.ndarray, rows: int) -> np.ndarray:
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.shape != (rows,):
        raise ValueError(f"{len(timestamps)} timestamps for {rows} feature rows")
    check_timestamps(timestamps, "frame")
    return timestamps
