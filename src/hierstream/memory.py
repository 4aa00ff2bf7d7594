"""Time-indexed store of frames and past predictions.

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

A stored frame is its timestamp and its membership, kept in time order, so
every interval lookup bisects: a query costs O(log n + k) for n stored
frames and k in its interval. A bundle names its frames by timestamp; the
describer request turns them into handles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .core import ActionInstance, HierarchyLevel, Interval, check_timestamp

SUBSTEP_FRAME_SPACING = 1.0
STEP_FRAME_SPACING = 3.3
MAX_STEP_HISTORY = 10

# Enum member lookups cost about 0.2 us each; these run per frame or per stored frame.
_SUBSTEP, _STEP = HierarchyLevel.SUBSTEP, HierarchyLevel.STEP


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
    frames: tuple[float, ...]  # picked frames' timestamps, ascending
    prior_predictions: tuple[str, ...]  # oldest first
    level: HierarchyLevel
    interval: Interval


def _spaced(times: list[float], indices: Iterable[int], spacing: float) -> list[int]:
    """Greedy selection over ascending `indices`: pick the earliest, then the
    earliest at least `spacing` seconds (by `times`) after the last pick."""
    picked: list[int] = []
    for i in indices:
        if not picked or times[i] >= times[picked[-1]] + spacing:
            picked.append(i)
    return picked


class ContextMemory:
    """Single-writer store; queries are pure reads."""

    def __init__(self) -> None:
        self._times: list[float] = []  # stored frames' timestamps, ascending, for bisection
        self._frames: list[frozenset[HierarchyLevel]] = []  # their memberships
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

    def insert_frame(self, timestamp: float, member_levels: AbstractSet[HierarchyLevel]) -> None:
        check_timestamp(timestamp, self._last_seen)
        self._last_seen = timestamp

        if _STEP in member_levels:
            if self._current_step_start is None:
                self._current_step_start = timestamp
                self._step_predictions_from = len(self._predictions)
        else:
            self._current_step_start = None

        if member_levels:
            self._times.append(timestamp)
            self._frames.append(frozenset(member_levels))

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

    def _times_at(self, indices: Iterable[int]) -> tuple[float, ...]:
        times = self._times
        return tuple(times[i] for i in indices)

    def query(self, instance: ActionInstance) -> RetrievalBundle:
        iv = instance.interval
        if instance.level != HierarchyLevel.GOAL:
            if self._last_seen is None or iv.end > self._last_seen:
                raise ValueError(
                    f"memory covers up to {self._last_seen}, queried interval ends at {iv.end}"
                )

        if instance.level == HierarchyLevel.SUBSTEP:
            picks = _spaced(self._times, range(*self._span(iv)), SUBSTEP_FRAME_SPACING)
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
            return RetrievalBundle(self._times_at(picks), tuple(prior), instance.level, iv)

        if instance.level == HierarchyLevel.STEP:
            candidates = [i for i in range(*self._span(iv)) if _SUBSTEP in self._frames[i]]
            picks = _spaced(self._times, candidates, STEP_FRAME_SPACING)
            prior = [p.long_form for p in self._step_predictions[-MAX_STEP_HISTORY:]]
            return RetrievalBundle(self._times_at(picks), tuple(prior), instance.level, iv)

        # Goal: one representative frame per described step, oldest (lowest index) first.
        spans = [self._span(p.interval) for p in self._step_predictions]
        end = self._last_seen if self._last_seen is not None else iv.end
        return RetrievalBundle(
            self._times_at(sorted(lo for lo, hi in spans if lo < hi)),
            tuple(p.short_form for p in self._step_predictions),
            HierarchyLevel.GOAL,
            Interval(0.0, max(end, 0.0)),
        )
