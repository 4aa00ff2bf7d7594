"""Online hybrid action-boundary detection.

Starts are detected from the per-frame state distribution (actionness
crossing a threshold); ends are detected from sudden drops in the decoded
progress signal, which is what separates back-to-back events that share no
background frame in between. Emissions are final the moment they happen:
nothing is ever rewritten by later frames.

Per frame and per level the order is end-check first, then start-check.
A drop-triggered end closes the instance at the previous frame and marks
the current frame as background for that level, so the follow-up instance
can open no earlier than the next frame.

Every frame's histograms must have the detector's bin count. Decoded
progress comes from the frame when it carries it (``scoring.streams.read_scores``
decodes a whole score CSV at once); otherwise the detector decodes the
histogram itself with ``histogram_expectation``, checks included.

The detector only produces events. Turning them into :class:`Emission`
records is the online loop's job (``runner.run_described_stream``);
:func:`run_stream` is that loop with no describer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import (
    PROB_SLACK,
    PROB_SUM_TOL,
    STATE_STEP,
    STATE_STEP_AND_SUBSTEP,
    Emission,
    FrameScores,
    HierarchyLevel,
    Interval,
    check_timestamp,
    instance_from_dict,
    read_jsonl,
    write_jsonl,
)
from .scoring.histogram import HistogramConfig, histogram_expectation


class EventKind(Enum):
    INSTANCE_STARTED = "instance_started"
    INSTANCE_ENDED = "instance_ended"


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds of the boundary state machine.

    start_threshold: minimum actionness to open an instance.
    drop_delta: minimum one-frame decrease of decoded progress that closes
        an instance. Values above 1.0 can never trigger (progress lives in
        [0, 1]), which disables drop-based ends entirely.
    min_progress_for_drop: progress must have reached this value before a
        drop is honored, so early jitter cannot end an instance.
    """

    start_threshold: float = 0.5
    drop_delta: float = 0.4
    min_progress_for_drop: float = 0.5
    close_incomplete_at_eos: bool = True

    def __post_init__(self) -> None:  # each check written so that NaN fails it
        if not 0 < self.start_threshold < 1:
            raise ValueError(f"start_threshold must be in (0,1), got {self.start_threshold}")
        if not self.drop_delta > 0:
            raise ValueError(f"drop_delta must be positive, got {self.drop_delta}")
        if not 0 <= self.min_progress_for_drop <= 1:
            raise ValueError(
                f"min_progress_for_drop must be in [0,1], got {self.min_progress_for_drop}"
            )


@dataclass(frozen=True)
class DetectionEvent:
    kind: EventKind
    level: HierarchyLevel
    timestamp: float
    interval: Interval | None = None


@dataclass(slots=True)
class _LevelState:
    ongoing: bool = False
    open_start: float = 0.0
    previous_progress: float = 0.0


# Enum member lookups cost about 0.2 us each, so the per-frame path uses these.
_SUBSTEP, _STEP = HierarchyLevel.SUBSTEP, HierarchyLevel.STEP

# ongoing_levels() results, keyed by (substep ongoing, step ongoing).
_MEMBERSHIP = {
    (sub, step): frozenset(
        level for level, on in ((_SUBSTEP, sub), (_STEP, step)) if on
    )
    for sub in (False, True)
    for step in (False, True)
}


class StreamDetector:
    """One per stream. Feed frames through :meth:`step`, then call
    :meth:`finish` exactly once after the last frame."""

    LEVELS = (HierarchyLevel.SUBSTEP, HierarchyLevel.STEP)

    def __init__(self, cfg: DetectorConfig = DetectorConfig(),
                 histogram: HistogramConfig = HistogramConfig()):
        self.cfg = cfg
        self.histogram = histogram
        self._shape = (histogram.bins,)  # of each progress histogram
        self._levels = {level: _LevelState() for level in self.LEVELS}
        self._last_ts: float | None = None
        self._finished = False

    def ongoing_levels(self) -> frozenset[HierarchyLevel]:
        """Levels with an open instance; the membership a frame stored right
        after :meth:`step` should carry."""
        levels = self._levels
        return _MEMBERSHIP[levels[_SUBSTEP].ongoing, levels[_STEP].ongoing]

    def step(self, fs: FrameScores) -> list[DetectionEvent]:
        if self._finished:
            raise RuntimeError("detector already finished")
        t = fs.timestamp
        check_timestamp(t, self._last_ts)

        if fs.state_probs.shape != (3,):
            raise ValueError(
                f"frame at t={t}: state distribution has shape {fs.state_probs.shape}, not 3 entries"
            )
        probs = fs.state_probs.tolist()
        # Each level's actionness in LEVELS order, marginalized from the
        # 3-state distribution (substeps imply an enclosing step).
        acts = (probs[STATE_STEP_AND_SUBSTEP], probs[STATE_STEP] + probs[STATE_STEP_AND_SUBSTEP])
        # A sum near one also means finite actionness, which the threshold
        # tests below need (NaN fails both). A failing frame is named by its
        # first non-finite actionness, else by its sum (a NaN bg included).
        total = sum(probs)
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            for level, act in zip(self.LEVELS, acts):
                if not math.isfinite(act):
                    raise ValueError(f"frame at t={t}: {level.name} actionness {act!r} is not finite")
            raise ValueError(f"frame at t={t}: state distribution sums to {total!r}, not 1")
        if min(probs) < -PROB_SLACK or max(probs) > 1 + PROB_SLACK:
            raise ValueError(f"frame at t={t}: state distribution {probs} has entries outside [0, 1]")

        cfg, shape = self.cfg, self._shape
        sub_dist, step_dist = fs.substep_progress_dist, fs.step_progress_dist
        if sub_dist.shape != shape or step_dist.shape != shape:
            level, dist = (_SUBSTEP, sub_dist) if sub_dist.shape != shape else (_STEP, step_dist)
            raise ValueError(f"frame at t={t}: {level.name} progress: expected {shape[0]} bins, got shape {dist.shape}")
        events: list[DetectionEvent] = []
        for level, act, dist, p in zip(
            self.LEVELS, acts, (sub_dist, step_dist), (fs.substep_progress, fs.step_progress),
        ):
            ls = self._levels[level]
            suppressed = False
            # Progress is read only where an instance is open or may open.
            if (ls.ongoing or act >= cfg.start_threshold) and p is None:
                p = histogram_expectation(dist, self.histogram)

            if ls.ongoing:
                dropped = (
                    ls.previous_progress - p >= cfg.drop_delta
                    and ls.previous_progress >= cfg.min_progress_for_drop
                )
                if dropped:
                    # Progress collapsed: the instance ended at the previous
                    # frame and this frame belongs to no instance at this level.
                    events.append(DetectionEvent(
                        EventKind.INSTANCE_ENDED, level, t,
                        Interval(ls.open_start, self._last_ts),
                    ))
                    ls.ongoing = False
                    suppressed = True
                elif act < cfg.start_threshold:
                    events.append(DetectionEvent(
                        EventKind.INSTANCE_ENDED, level, t,
                        Interval(ls.open_start, t),
                    ))
                    ls.ongoing = False
                else:
                    ls.previous_progress = p

            if not ls.ongoing and not suppressed and act >= cfg.start_threshold:
                ls.ongoing = True
                ls.open_start = t
                ls.previous_progress = p
                events.append(DetectionEvent(EventKind.INSTANCE_STARTED, level, t))

        self._last_ts = t
        return events

    def finish(self) -> list[DetectionEvent]:
        """End-of-stream closes at the last timestamp (0.0 if none)."""
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
        return events


def run_stream(
    scores: Iterable[FrameScores],
    cfg: DetectorConfig = DetectorConfig(),
    histogram: HistogramConfig = HistogramConfig(),
) -> list[Emission]:
    """The online loop with no describer: every completed instance in
    emission order, descriptions left empty."""
    from .runner import run_described_stream  # the runner imports this module

    return run_described_stream(scores, None, cfg, histogram).emissions


# ----------------------------------------------------------------------
# emissions JSONL
# ----------------------------------------------------------------------

def emission_to_dict(e: Emission) -> dict:
    d = {
        "start": e.instance.interval.start,
        "end": e.instance.interval.end,
        "level": int(e.instance.level),
        "emit_time": e.emit_time,
    }
    if e.instance.description:
        d["description"] = e.instance.description
    return d


def emission_from_dict(d: dict) -> Emission:
    return Emission(instance_from_dict(d), float(d["emit_time"]))


def write_emissions(emissions: list[Emission], path) -> None:
    write_jsonl(map(emission_to_dict, emissions), path)


def read_emissions(path) -> list[Emission]:
    return read_jsonl(path, emission_from_dict)
