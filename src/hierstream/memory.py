"""Time-indexed store of frame references and past predictions.

The streaming loop inserts one entry per frame (stored only while some
instance is ongoing) and commits a prediction after every describer call.
Retrieval queries assemble the frames and prior text that one describer
call needs:

 - substep queries sample stored frames at 1.0 s spacing and carry the
   long-form predictions of earlier substeps inside the current step;
 - step queries sample frames belonging to detected substeps at 3.3 s
   spacing and carry up to the 10 most recent step predictions;
 - goal queries return one representative frame per described step plus
   every step's short-form prediction.

After a step is described, its stored frames collapse to the single frame
closest to the step midpoint; that representative is what goal queries see.

Stored frames are kept in time order next to a list of their timestamps, so
every interval lookup bisects: a query costs O(log n + k) for n stored
frames and k frames in its interval, and nothing per frame grows with the
stream.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import AbstractSet

from .core import ActionInstance, HierarchyLevel, Interval, check_timestamp

SUBSTEP_FRAME_SPACING = 1.0
STEP_FRAME_SPACING = 3.3
MAX_STEP_HISTORY = 10

# Enum member lookups cost about 0.2 us each; these run per frame or per stored frame.
_SUBSTEP, _STEP = HierarchyLevel.SUBSTEP, HierarchyLevel.STEP


@dataclass(frozen=True, slots=True)
class FrameRef:
    timestamp: float
    member_levels: frozenset[HierarchyLevel]
    handle: str


@dataclass(frozen=True)
class Prediction:
    level: HierarchyLevel
    interval: Interval
    short_form: str
    long_form: str
    created_at: float

    def __post_init__(self) -> None:
        if self.level != HierarchyLevel.GOAL and self.created_at < self.interval.end:
            raise ValueError(
                f"prediction created at {self.created_at} before its interval end "
                f"{self.interval.end}"
            )


@dataclass(frozen=True)
class RetrievalBundle:
    frames: tuple[FrameRef, ...]
    prior_predictions: tuple[str, ...]  # oldest first
    level: HierarchyLevel
    interval: Interval


def _spaced(frames: list[FrameRef], spacing: float) -> list[FrameRef]:
    """Greedy selection from the start: take the earliest frame, then the
    earliest frame at least `spacing` seconds after the last pick."""
    picked: list[FrameRef] = []
    for ref in frames:
        if not picked or ref.timestamp >= picked[-1].timestamp + spacing:
            picked.append(ref)
    return picked


class ContextMemory:
    """Single-writer store; queries are pure reads."""

    def __init__(self) -> None:
        self._frames: list[FrameRef] = []
        self._times: list[float] = []  # self._frames' timestamps, for bisection
        self._predictions: list[Prediction] = []
        self._step_predictions: list[Prediction] = []
        self._last_seen: float | None = None
        # Start of the step instance currently ongoing, derived from the
        # membership of observed frames; None while no step is ongoing.
        self._current_step_start: float | None = None
        # Index into _predictions of the first one committed since that step
        # started; no earlier one can lie inside the step.
        self._step_predictions_from = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert_frame(
        self, timestamp: float, member_levels: AbstractSet[HierarchyLevel], handle: str
    ) -> None:
        check_timestamp(timestamp, self._last_seen)
        self._last_seen = timestamp

        if _STEP in member_levels:
            if self._current_step_start is None:
                self._current_step_start = timestamp
                self._step_predictions_from = len(self._predictions)
        else:
            self._current_step_start = None

        if member_levels:
            self._frames.append(FrameRef(timestamp, frozenset(member_levels), handle))
            self._times.append(timestamp)

    def commit_prediction(self, p: Prediction) -> None:
        # A prediction lies in the frames seen so far, so none committed
        # before a step started can lie inside that step.
        if p.level != HierarchyLevel.GOAL and (
            self._last_seen is None or p.interval.end > self._last_seen
        ):
            raise ValueError(
                f"memory covers up to {self._last_seen}, "
                f"prediction interval ends at {p.interval.end}"
            )
        self._predictions.append(p)
        if p.level == _STEP:
            self._step_predictions.append(p)
            self._prune_to_representative(p.interval)

    def _prune_to_representative(self, interval: Interval) -> None:
        lo, hi = self._span(interval)
        if lo == hi:
            return
        times = self._times
        mid = (interval.start + interval.end) / 2.0
        # The frame closest to mid; a tie goes to the earlier frame.
        rep = min(range(lo, hi), key=lambda i: (abs(times[i] - mid), times[i]))
        self._frames[lo:hi] = [self._frames[rep]]
        self._times[lo:hi] = [times[rep]]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def _span(self, interval: Interval) -> tuple[int, int]:
        """Index range of the stored frames with start <= timestamp <= end."""
        return (
            bisect_left(self._times, interval.start),
            bisect_right(self._times, interval.end),
        )

    def _frames_within(self, interval: Interval) -> list[FrameRef]:
        lo, hi = self._span(interval)
        return self._frames[lo:hi]

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
                    for p in self._predictions[self._step_predictions_from:]
                    if p.level == _SUBSTEP
                    and step_iv.start <= p.interval.start
                    and p.interval.end <= step_iv.end
                ]
            return RetrievalBundle(tuple(frames), tuple(prior), instance.level, iv)

        if instance.level == HierarchyLevel.STEP:
            candidates = [
                f for f in self._frames_within(iv) if _SUBSTEP in f.member_levels
            ]
            frames = _spaced(candidates, STEP_FRAME_SPACING)
            prior = [p.long_form for p in self._step_predictions[-MAX_STEP_HISTORY:]]
            return RetrievalBundle(tuple(frames), tuple(prior), instance.level, iv)

        # Goal: one representative frame per described step, oldest first.
        frames = []
        prior = []
        for p in self._step_predictions:
            prior.append(p.short_form)
            lo, hi = self._span(p.interval)
            if lo < hi:
                frames.append(self._frames[lo])
        end = self._last_seen if self._last_seen is not None else iv.end
        return RetrievalBundle(
            tuple(sorted(frames, key=lambda f: f.timestamp)),
            tuple(prior),
            HierarchyLevel.GOAL,
            Interval(0.0, max(end, 0.0)),
        )
