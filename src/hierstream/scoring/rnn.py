"""A small recurrent scorer: a stack of tanh (Elman) layers shared by three
linear heads (state class, step progress, substep progress).

All math is plain numpy with hand-written backpropagation; no autodiff.
The forward pass is strictly causal, so scores for frame t depend only on
frames 0..t and inference over a prefix equals the prefix of full-sequence
inference exactly. Forward runs layer by layer: each layer's input
projection and the heads are per-row gemvs batched in C, and only the
recurrence loops in Python. There is no GEMM, since GEMM rows can round
differently from per-row matvecs and break that bit identity; backward is
layer-major, with one GEMM per weight gradient (Appleyard et al.,
arXiv:1604.01946).
"""

from __future__ import annotations

import math
import pickle
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


# The only globals a pickled plain ndarray needs (numpy 1.x and 2.x names).
_ARRAY_GLOBALS = {
    ("numpy.core.multiarray", "_reconstruct"), ("numpy._core.multiarray", "_reconstruct"),
    ("numpy", "ndarray"), ("numpy", "dtype"),
}


class _ArrayUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in _ARRAY_GLOBALS:
            raise ValueError(f"refusing to unpickle {module}.{name}")
        return super().find_class(module, name)


def _unpickle_array(archive, member: str) -> np.ndarray:
    """Read a pickled object array from an .npz member, admitting nothing but
    numpy's array reconstruction, so a crafted file cannot run code."""
    with archive.open(member) as fh:
        fmt = np.lib.format
        if fmt.read_magic(fh) == (1, 0):
            fmt.read_array_header_1_0(fh)
        else:
            fmt.read_array_header_2_0(fh)
        arr = _ArrayUnpickler(fh).load()
    if not isinstance(arr, np.ndarray):
        raise ValueError(f"{member} does not hold an array")
    return arr


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


def _matvecs(w: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``w @ row`` for each row of a (T, D) array into the rows of
    ``out`` and return it: one BLAS gemv per row, looped in C (one row, the
    streaming case, skips matmul's slower stacked dispatch), so bit-identical
    to per-row ``@``, unlike the GEMM ``rows @ w.T``."""
    if len(rows) == 1:
        np.dot(w, rows[0], out=out[0])
    else:
        np.matmul(w, rows[:, :, None], out=out[:, :, None])
    return out


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
        with np.load(path, allow_pickle=False) as data:
            try:
                meta = data["__meta__"]
            except ValueError:  # an object array: files saved before the meta was strings
                meta = _unpickle_array(data.zip, "__meta__.npy")
            meta = {str(k): str(v) for k, v in meta.tolist()}
            params = {k: data[k] for k in data.files if k != "__meta__"}
        cfg = ScorerConfig(
            feature_dim=int(meta["feature_dim"]),
            recurrent_layers=int(meta["recurrent_layers"]),
            hidden_dim=int(meta["hidden_dim"]),
            histogram=HistogramConfig(bins=int(meta["bins"]), sigma=float(meta["sigma"])),
        )
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

    def forward(
        self, features: np.ndarray, h0: list[np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Run the scorer over a (T, D) feature window, layer by layer.

        Per layer, frame t's hidden state is ``tanh(wx @ x[t] + wh @ h[t-1]
        + b)``, added in that order; the heads are ``w @ top[t] + b``.
        Returns a cache holding hidden states and head logits; the cache
        feeds both inference and the backward pass.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.cfg.feature_dim:
            raise ValueError(
                f"expected (T, {self.cfg.feature_dim}) features, got {features.shape}"
            )
        T = features.shape[0]
        L, H = self.cfg.recurrent_layers, self.cfg.hidden_dim
        h = h0 or self.zero_state()
        if len(h) != L:
            raise ValueError(f"expected {L} hidden states, got {len(h)}")
        p, inp, hs, h_last = self.params, features, np.empty((L, T, H)), []
        for prev, (wx, wh, b), out in zip(h, self._layer_keys, hs):
            _matvecs(p[wx], inp, out)  # out[t] holds wx @ x[t] until frame t overwrites it
            wh, b = p[wh], p[b]
            for t in range(T):
                # np.dot: the same gemv as wh @ prev, dispatched for less
                prev = out[t] = np.tanh(out[t] + np.dot(wh, prev) + b)
            h_last.append(prev if T else np.array(prev, dtype=np.float64))  # never the caller's h0
            inp = out
        cache = {"features": features, "hidden": hs, "h_last": h_last}
        for key, w, b in _HEADS:
            cache[key] = _matvecs(p[w], inp, np.empty((T, len(p[b])))) + p[b]
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
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss over one window plus per-frame logit gradients.

        The state head is averaged over every frame; each progress head is
        averaged over the frames inside that level's instances only.
        """
        T = cache["features"].shape[0]
        loss, d_logits = 0.0, {}
        for name, target, mask in (
            ("state", np.eye(3)[state_target], np.ones(T, dtype=bool)),
            ("step", step_target, step_mask),
            ("sub", sub_target, sub_mask),
        ):
            logits, mask = cache[f"{name}_logits"], np.asarray(mask, dtype=bool)
            if target.shape != logits.shape or mask.shape != (T,):
                raise ValueError(f"{name} head: target {target.shape}, mask {mask.shape}, logits {logits.shape}")
            n = max(1, int(mask.sum()))
            lsm = log_softmax(logits[mask])
            loss += float((-(target[mask] * lsm).sum(axis=1) / n).sum())
            d_logits[name] = np.zeros_like(logits)
            d_logits[name][mask] = (np.exp(lsm) - target[mask]) / n
        return loss, d_logits

    def backward(
        self,
        cache: dict[str, np.ndarray],
        d_logits: dict[str, np.ndarray],
        h0: list[np.ndarray] | None = None,
        into: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Backpropagate logit gradients through heads and time, layer-major.

        From the top layer down, only the recurrence runs per frame; each
        layer's weight gradients and the gradient into the layer below are
        one GEMM over the window (Appleyard et al., arXiv:1604.01946).
        Gradients stop at the window boundary (truncated BPTT): the incoming
        hidden state h0 is treated as a constant.

        Each weight gradient is added into ``into`` (parameter name -> array
        of the parameter's shape) as soon as it is computed, and ``into`` is
        returned; without it the sums start from zeros. Training passes its
        batch accumulator, so summing windows never holds more than one
        parameter-sized temporary, and the sums are the same ``+=`` a caller
        adding a returned dict would do.
        """
        p, hs = self.params, cache["hidden"]
        h_in = h0 or self.zero_state()
        grads = {k: np.zeros_like(v) for k, v in p.items()} if into is None else into
        d_h = 0.0
        for name in ("state", "step", "sub"):
            dl = d_logits[name]
            grads[f"w_{name}"] += dl.T @ hs[-1]
            grads[f"b_{name}"] += dl.sum(axis=0)
            d_h = d_h + dl @ p[f"w_{name}"]
        for layer in range(self.cfg.recurrent_layers - 1, -1, -1):
            h, wh = hs[layer], p[f"wh{layer}"]
            dtanh, da, carry = 1.0 - h ** 2, np.empty_like(h), 0.0
            for t in range(len(h) - 1, -1, -1):
                da[t] = (d_h[t] + carry) * dtanh[t]
                carry = np.dot(da[t], wh)  # the same gemv as da[t] @ wh, dispatched for less
            grads[f"wx{layer}"] += da.T @ (hs[layer - 1] if layer > 0 else cache["features"])
            grads[f"wh{layer}"] += da.T @ np.vstack([h_in[layer], h])[:-1]  # h[t - 1], h0 first
            grads[f"b{layer}"] += da.sum(axis=0)
            if layer > 0:
                d_h = da @ p[f"wx{layer}"]
        return grads


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
