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

Every frame's histograms must have the detector's bin count. After the
frame's checks, a closed level below the start threshold costs one
comparison; only a level that is open or may open reads its progress, from
the frame when it carries it (``scoring.streams.read_scores`` decodes a whole
score CSV at once), else decoded here with ``histogram_expectation``.

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
    level: HierarchyLevel
    ongoing: bool = False
    open_start: float = 0.0
    previous_progress: float = 0.0


_LOW, _HIGH, _INF = -PROB_SLACK, 1 + PROB_SLACK, math.inf  # a state probability's bounds; a timestamp's upper one


class StreamDetector:
    """One per stream. Feed frames through :meth:`step`, then call
    :meth:`finish` exactly once after the last frame."""

    LEVELS = (HierarchyLevel.SUBSTEP, HierarchyLevel.STEP)

    def __init__(self, cfg: DetectorConfig = DetectorConfig(),
                 histogram: HistogramConfig = HistogramConfig()):
        self.cfg = cfg
        self.histogram = histogram
        self._shape = (histogram.bins,)  # of each progress histogram
        self._levels = tuple(_LevelState(level) for level in self.LEVELS)
        self._last_ts = -math.inf  # no frame yet
        self._finished = False

    def ongoing_levels(self) -> frozenset[HierarchyLevel]:
        """Levels with an open instance; the membership a frame stored right
        after :meth:`step` should carry."""
        sub, step = self._levels
        return _MEMBERSHIP[sub.ongoing, step.ongoing]

    def step(self, fs: FrameScores) -> list[DetectionEvent]:
        if self._finished:
            raise RuntimeError("detector already finished")
        t, state, step_dist, sub_dist, sub_p, step_p = fs  # FrameScores' field order
        last = self._last_ts
        if not last < t < _INF:  # inline, as a call costs more than the rule's two comparisons
            check_timestamp(t, last)  # for its message

        if state.shape != (3,):
            raise ValueError(f"frame at t={t}: state distribution has shape {state.shape}, not 3 entries")
        probs = state.tolist()
        bg, step_only, both = probs  # core's STATE_BG, STATE_STEP, STATE_STEP_AND_SUBSTEP
        # Each level's actionness, marginalized from the 3-state distribution
        # (substeps imply an enclosing step).
        sub_act, step_act = both, step_only + both
        # A sum near one also means finite actionness, which the threshold
        # tests below need (NaN fails both). A failing frame is named by its
        # first non-finite actionness, else by its sum (a NaN bg included).
        total = sum(probs)
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            for level, act in zip(self.LEVELS, (sub_act, step_act)):
                if not math.isfinite(act):
                    raise ValueError(f"frame at t={t}: {level.name} actionness {act!r} is not finite")
            raise ValueError(f"frame at t={t}: state distribution sums to {total!r}, not 1")
        if not (_LOW <= bg <= _HIGH and _LOW <= step_only <= _HIGH and _LOW <= both <= _HIGH):  # cheaper than min, max
            raise ValueError(f"frame at t={t}: state distribution {probs} has entries outside [0, 1]")

        shape = self._shape
        if sub_dist.shape != shape or step_dist.shape != shape:
            level, dist = ((HierarchyLevel.SUBSTEP, sub_dist) if sub_dist.shape != shape
                           else (HierarchyLevel.STEP, step_dist))
            raise ValueError(f"frame at t={t}: {level.name} progress: expected {shape[0]} bins, got shape {dist.shape}")

        events: list[DetectionEvent] = []
        threshold = self.cfg.start_threshold
        sub, step = self._levels
        if sub.ongoing or sub_act >= threshold:
            self._advance(sub, sub_act, sub_dist, sub_p, t, events)
        if step.ongoing or step_act >= threshold:
            self._advance(step, step_act, step_dist, step_p, t, events)
        self._last_ts = t
        return events

    def _advance(self, ls: _LevelState, act: float, dist, p: float | None, t: float,
                 events: list[DetectionEvent]) -> None:
        """One frame at a level that is open or may open: decode its progress
        unless the frame carries it, then the end check, then the start check."""
        if p is None:
            p = histogram_expectation(dist, self.histogram)
        cfg = self.cfg
        if ls.ongoing:
            if ls.previous_progress - p >= cfg.drop_delta and ls.previous_progress >= cfg.min_progress_for_drop:
                # Progress collapsed: the instance ended at the previous
                # frame and this frame belongs to no instance at this level.
                end = self._last_ts
            elif act < cfg.start_threshold:
                end = t
            else:
                ls.previous_progress = p
                return
            events.append(DetectionEvent(EventKind.INSTANCE_ENDED, ls.level, t, Interval(ls.open_start, end)))
            ls.ongoing = False
        else:  # closed, and the actionness reached the start threshold
            ls.ongoing = True
            ls.open_start = t
            ls.previous_progress = p
            events.append(DetectionEvent(EventKind.INSTANCE_STARTED, ls.level, t))

    def finish(self) -> list[DetectionEvent]:
        """End-of-stream closes at the last timestamp."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        t = self._last_ts

        events: list[DetectionEvent] = []
        if self.cfg.close_incomplete_at_eos:
            for ls in self._levels:
                if ls.ongoing:
                    events.append(DetectionEvent(EventKind.INSTANCE_ENDED, ls.level, t, Interval(ls.open_start, t)))
                    ls.ongoing = False
        return events


# ongoing_levels() results, keyed by (substep ongoing, step ongoing).
_MEMBERSHIP = {
    key: frozenset(level for level, on in zip(StreamDetector.LEVELS, key) if on)
    for key in ((False, False), (False, True), (True, False), (True, True))
}


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
