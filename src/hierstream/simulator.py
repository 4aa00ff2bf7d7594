"""Synthetic corpus generation: hierarchical annotations, oracle or noisy
score streams, and feature sequences the scorer can learn from.

The generator reproduces the regime that makes boundary detection hard:
with probability ``zero_gap_prob`` consecutive same-level instances touch
exactly, leaving no background frame between them. Progress resets to zero
instantly at such boundaries, which is precisely the signal the drop
detector consumes. All timestamps snap to the frame grid.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_FRAMES,
    ActionInstance,
    AnnotationSet,
    FrameScores,
    HierarchyLevel,
    Interval,
    frame_count,
    frame_timestamps,
)
from .scoring.histogram import HistogramConfig
from .scoring.targets import frame_targets

_VERBS = ("chop", "rinse", "stir", "grill", "peel", "whisk", "knead", "slice",
          "measure", "drain", "toast", "simmer")
_NOUNS = ("onions", "carrots", "dough", "batter", "beans", "herbs", "noodles",
          "peppers", "rice", "garlic", "stock", "greens")
_GOALS = ("prepare a stew", "bake flatbread", "assemble a salad", "cook a curry",
          "make soup", "fry rice")

# Shortest instance the generator will produce; keeps boundary erosion
# (one frame per side at zero-gap boundaries) small relative to length.
MIN_INSTANCE_SECONDS = 2.0

# Largest logit noise. A standard normal draw stays far below 1e7 in size,
# so a noised logit, and the difference of two, stays finite at this sigma,
# and every softmax row sums to one.
MAX_NOISE_SIGMA = 1e300


def check_noise_sigma(sigma: float) -> None:
    """The rule for logit and feature noise; NaN fails it."""
    if not 0 <= sigma < math.inf:
        raise ValueError(f"noise_sigma must be >= 0 and finite, got {sigma}")
    if sigma > MAX_NOISE_SIGMA:
        raise ValueError(f"noise_sigma must be at most {MAX_NOISE_SIGMA:g} (a logit may overflow), got {sigma}")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    videos: int = 10
    duration_range: tuple[float, float] = (30.0, 60.0)
    steps_per_video: tuple[int, int] = (2, 4)
    substeps_per_step: tuple[int, int] = (2, 4)
    zero_gap_prob: float = 0.5
    gap_range: tuple[float, float] = (1.0, 3.0)
    noise_sigma: float = 0.0
    fps: float = 4.0
    feature_dim: int = 8
    histogram: HistogramConfig = field(default_factory=HistogramConfig)

    def __post_init__(self) -> None:  # each check written so that NaN fails it
        if not self.videos >= 1:  # an empty corpus would score a perfect F1
            raise ValueError(f"videos must be >= 1, got {self.videos}")
        lo, hi = self.duration_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"duration_range must be finite with 0 < min <= max, got {self.duration_range}")
        lo, hi = self.gap_range
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"gap_range must be finite with 0 <= min <= max, got {self.gap_range}")
        for name in ("steps_per_video", "substeps_per_step"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must have 1 <= min <= max, got {(lo, hi)}")
        if not 0 <= self.zero_gap_prob <= 1:
            raise ValueError(f"zero_gap_prob must be in [0,1], got {self.zero_gap_prob}")
        check_noise_sigma(self.noise_sigma)
        if self.feature_dim < 4:
            raise ValueError(f"feature_dim must be >= 4, got {self.feature_dim}")
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        frames = frame_count(self.duration_range[1], self.fps)  # the longest grid, checked before any is built
        if not self.gap_range[1] * self.fps < MAX_FRAMES:  # a gap snaps to the frame grid too
            raise ValueError(
                f"gap_range max {self.gap_range[1]} has no frame grid at fps {self.fps} "
                f"(at most {MAX_FRAMES} frames)"
            )
        most = self.steps_per_video[1] * self.substeps_per_step[1]
        if most > frames:  # a draw that large could never fit, however often it was redrawn
            raise ValueError(
                f"steps_per_video max {self.steps_per_video[1]} x substeps_per_step max "
                f"{self.substeps_per_step[1]} = {most} substeps cannot fit in the {frames} "
                f"frames of the longest video"
            )


def _snap(t: float, fps: float) -> float:
    return round(t * fps) / fps


def _draw_gap(rng: np.random.Generator, cfg: SimConfig) -> float:
    if rng.random() < cfg.zero_gap_prob:
        return 0.0
    return _snap(rng.uniform(*cfg.gap_range), cfg.fps)


def gen_annotations(cfg: SimConfig) -> list[AnnotationSet]:
    """Deterministic synthetic annotation sets; always valid by construction."""
    lo, hi = cfg.duration_range
    min_len = max(MIN_INSTANCE_SECONDS, 2.0 / cfg.fps)
    min_subs = cfg.steps_per_video[0] * cfg.substeps_per_step[0]
    if min_subs * min_len > hi:
        raise ValueError(
            f"infeasible ranges: at least {min_subs} instances of {min_len}s "
            f"cannot fit in {hi}s"
        )

    out = []
    for vid in range(cfg.videos):
        rng = np.random.default_rng([cfg.seed, 0, vid])
        # Redraw unlucky gap/count combinations; only ranges that can never
        # fit are an error (checked above).
        for _attempt in range(100):
            target = rng.uniform(lo, hi)
            n_steps = int(rng.integers(cfg.steps_per_video[0], cfg.steps_per_video[1] + 1))
            subs_per_step = [
                int(rng.integers(cfg.substeps_per_step[0], cfg.substeps_per_step[1] + 1))
                for _ in range(n_steps)
            ]
            n_subs = sum(subs_per_step)
            lead = _draw_gap(rng, cfg)
            trail = _draw_gap(rng, cfg)
            # Gaps between consecutive substeps; the gap after the last
            # substep of a step doubles as the gap to the next step.
            gaps = [_draw_gap(rng, cfg) for _ in range(n_subs - 1)]
            needed = lead + trail + sum(gaps) + n_subs * min_len
            if needed <= hi:
                break
        else:
            raise ValueError(f"video {vid}: no feasible draw in 100 attempts")
        # Stretch a too-small draw instead of failing: the range stays the
        # upper bound, the instance budget stays feasible.
        target = max(target, min(hi, 1.25 * needed))
        budget = target - lead - trail - sum(gaps)
        weights = rng.uniform(1.0, 2.0, n_subs)
        lengths = min_len + (budget - n_subs * min_len) * weights / weights.sum()

        instances = []
        t = lead
        sub_idx = 0
        for step_i, n in enumerate(subs_per_step):
            step_start = _snap(t, cfg.fps)
            for j in range(n):
                start = _snap(t, cfg.fps)
                end = _snap(t + lengths[sub_idx], cfg.fps)
                if end <= start:
                    end = start + 1.0 / cfg.fps
                verb = _VERBS[int(rng.integers(len(_VERBS)))]
                noun = _NOUNS[int(rng.integers(len(_NOUNS)))]
                instances.append(ActionInstance(
                    Interval(start, end), f"{verb} the {noun}", HierarchyLevel.SUBSTEP,
                ))
                t = end
                if sub_idx < n_subs - 1 and j < n - 1:
                    t += gaps[sub_idx]
                sub_idx += 1
            step_end = instances[-1].interval.end
            instances.append(ActionInstance(
                Interval(step_start, step_end),
                f"step {step_i + 1}: {instances[-1].description}",
                HierarchyLevel.STEP,
            ))
            if step_i < n_steps - 1:
                t = step_end + gaps[sub_idx - 1]

        duration = _snap(instances[-1].interval.end + trail, cfg.fps)
        ordered = sorted(instances, key=lambda i: (i.interval.start, int(i.level)))
        goal = _GOALS[int(rng.integers(len(_GOALS)))]
        out.append(AnnotationSet(
            video_id=f"sim-{cfg.seed}-{vid:04d}",
            duration=duration,
            fps=cfg.fps,
            instances=tuple(ordered),
            goal=f"{goal} ({vid})",
        ))
    return out


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs.flags.writeable = False  # frames hand out row views
    return probs


def gen_scores(
    a: AnnotationSet,
    noise_sigma: float,
    fps: float,
    histogram: HistogramConfig = HistogramConfig(),
    seed: int = 0,
) -> list:
    """Oracle (noise 0) or logit-noised score stream for one video.

    State logits put +10 on the true class; progress logits are the log of
    the histogram target. Frames outside a level's instances get a uniform
    progress base. Noise perturbs logits, so distributions stay valid at any
    sigma that ``SimConfig`` accepts (others raise ``ValueError``); each
    frame draws its step, substep and state noise in turn. Frames carry no
    decoded progress: the detector decodes them.
    """
    check_noise_sigma(noise_sigma)
    rng = np.random.default_rng([seed, 1, zlib.crc32(a.video_id.encode())])
    ts = frame_timestamps(a.duration, fps)
    targets = frame_targets(a, ts, histogram)
    T, bins = len(ts), histogram.bins
    step, sub = (np.zeros((T, bins)) for _ in range(2))
    for key, logits in (("step", step), ("sub", sub)):
        mask = targets[f"{key}_mask"]
        logits[mask] = np.log(targets[f"{key}_target"][mask] + 1e-12)
    state = np.zeros((T, 3))
    state[np.arange(T), targets["state"]] = 10.0
    if noise_sigma > 0:
        noise = rng.normal(0.0, noise_sigma, (T, 2 * bins + 3))
        step, sub, state = step + noise[:, :bins], sub + noise[:, bins:-3], state + noise[:, -3:]
    step, sub, state = _softmax_rows(step), _softmax_rows(sub), _softmax_rows(state)
    return [FrameScores(t, state[i], step[i], sub[i]) for i, t in enumerate(ts.tolist())]


# Prototype coordinates per state class in the first two feature dims.
_STATE_PROTOTYPES = np.array([
    [0.0, 0.0],  # background
    [1.0, 0.0],  # step only
    [1.0, 1.0],  # step and substep
])


def gen_features(a: AnnotationSet, cfg: SimConfig, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame feature vectors the scorer can invert: a state prototype in
    dims 0-1, step progress in dim 2, substep progress in dim 3, noise
    elsewhere. Returns (timestamps, features)."""
    rng = np.random.default_rng([seed, 2, zlib.crc32(a.video_id.encode())])
    ts = frame_timestamps(a.duration, cfg.fps)
    targets = frame_targets(a, ts)
    feats = np.zeros((len(ts), cfg.feature_dim))
    feats[:, 0:2] = _STATE_PROTOTYPES[targets["state"]]
    feats[:, 2] = targets["step_progress"]
    feats[:, 3] = targets["sub_progress"]
    if cfg.noise_sigma > 0:
        feats = feats + rng.normal(0.0, cfg.noise_sigma, feats.shape)
    return ts, feats
