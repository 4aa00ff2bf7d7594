"""Shared domain types: hierarchy levels, intervals, annotations, frame scores.

Everything here is an immutable value type (the frame record a named tuple),
safe to share between threads. Annotations round-trip through a JSON Lines
file format (one video per line), read by :func:`read_jsonl` like every JSONL format.
"""

from __future__ import annotations

import io
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")

# FrameScores distributions: entries within [-PROB_SLACK, 1 + PROB_SLACK],
# sums within PROB_SUM_TOL of one.
PROB_SLACK = 1e-12
PROB_SUM_TOL = 1e-6


class HierarchyLevel(IntEnum):
    """The three event granularities, ordered fine to coarse."""

    SUBSTEP = 1
    STEP = 2
    GOAL = 3


# State classes emitted per frame. Substeps only occur inside steps, so a
# substep-without-step state is deliberately absent.
STATE_BG = 0
STATE_STEP = 1
STATE_STEP_AND_SUBSTEP = 2


@dataclass(frozen=True)
class Interval:
    """Half-open-by-convention time span in seconds; finite, 0 <= start <= end."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end < math.inf:  # NaN fails too
            raise ValueError(f"interval [{self.start}, {self.end}] is not finite with 0 <= start <= end")

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ActionInstance:
    """One detected or annotated event. Description may be empty until a
    describer call fills it in."""

    interval: Interval
    description: str
    level: HierarchyLevel


@dataclass(frozen=True)
class AnnotationSet:
    """All annotations for one video: substep/step instances plus the goal text."""

    video_id: str
    duration: float
    fps: float
    instances: tuple[ActionInstance, ...]
    goal: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))

    def at_level(self, level: HierarchyLevel) -> tuple[ActionInstance, ...]:
        return tuple(i for i in self.instances if i.level == level)


@dataclass(frozen=True)
class Emission:
    """A completed instance plus the stream time at which it was emitted."""

    instance: ActionInstance
    emit_time: float


_FRAME_ARRAYS = ("state_probs", "step_progress_dist", "substep_progress_dist")
_F64 = np.dtype(np.float64)


def _frozen(arr) -> np.ndarray:
    # Readers hand in read-only float64 row views: leave those untouched.
    if type(arr) is not np.ndarray or arr.dtype is not _F64:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr


class FrameScores(namedtuple("FrameScores", ("timestamp", *_FRAME_ARRAYS, "substep_progress", "step_progress"))):
    """Per-frame model outputs: a 3-way state distribution plus one progress
    histogram per instance-bearing level.

    All three arrays are probability distributions (non-negative, summing to
    one within 1e-6), kept as read-only float64 arrays. The histogram bin
    count must be constant across the frames of one stream.

    ``substep_progress`` and ``step_progress`` are each level's decoded
    progress when the frame's source already knows it, else None. A value
    given must be what ``scoring.histogram.histogram_expectation`` returns
    for that histogram; one outside [0, 1] is refused. The detector uses it as
    given and decodes where it is None; ``scoring.streams.read_scores`` gives every frame both.

    A named tuple, as a stream builds one per frame; ``_make``, ``_replace``,
    ``copy`` and ``pickle`` convert and check too. Equality and hash are by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, timestamp: float, state_probs, step_progress_dist, substep_progress_dist,
                substep_progress: float | None = None, step_progress: float | None = None):
        if not (substep_progress is None or 0.0 <= substep_progress <= 1.0):  # NaN fails too
            raise ValueError(f"frame at t={timestamp}: SUBSTEP progress {substep_progress!r} is not in [0, 1]")
        if not (step_progress is None or 0.0 <= step_progress <= 1.0):
            raise ValueError(f"frame at t={timestamp}: STEP progress {step_progress!r} is not in [0, 1]")
        return tuple.__new__(cls, (timestamp, _frozen(state_probs), _frozen(step_progress_dist),
                                   _frozen(substep_progress_dist), substep_progress, step_progress))

    @classmethod
    def _make(cls, iterable) -> FrameScores:  # _replace builds through this
        return cls(*iterable)

    def validate(self) -> list[str]:
        problems = []
        if self.state_probs.shape != (3,):
            problems.append(f"state_probs must have 3 entries, got {self.state_probs.shape}")
        for name in _FRAME_ARRAYS:
            arr = getattr(self, name)
            if np.any(arr < -PROB_SLACK) or np.any(arr > 1 + PROB_SLACK):
                problems.append(f"{name} has entries outside [0, 1]")
            if not abs(float(arr.sum()) - 1.0) <= PROB_SUM_TOL:  # NaN fails too
                problems.append(f"{name} sums to {float(arr.sum())}, expected 1")
        return problems


def check_timestamp(t: float, last: float | None) -> None:
    """The rule for every frame source: a timestamp is finite and strictly
    after the frame before (``last``; None for a stream's first frame)."""
    if not math.isfinite(t):
        raise ValueError(f"timestamp {float(t)!r} is not finite")
    if last is not None and not t > last:
        raise ValueError(f"timestamp {float(t)!r} does not follow {float(last)!r}")


def check_timestamps(ts: np.ndarray, row: str) -> None:
    """:func:`check_timestamp` over a whole array at once; an error names the
    first bad entry as ``row`` plus its 1-based index."""
    bad = ~np.isfinite(ts)
    bad[1:] |= ~(ts[1:] > ts[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        try:
            check_timestamp(ts[i], ts[i - 1] if i else None)
        except ValueError as e:
            raise ValueError(f"{row} {i + 1}: {e}") from None


def validate_annotations(a: AnnotationSet, strict_nesting: bool = False) -> list[str]:
    """Check AnnotationSet invariants; returns one message per violation.

    An empty list means the set is valid. Violations are data, not failures.
    With ``strict_nesting`` every substep must lie inside some step; by
    default levels are only checked independently.
    """
    violations: list[str] = []
    if not math.isfinite(a.duration):
        violations.append(f"non-finite duration {a.duration}")
    elif a.duration < 0:
        violations.append(f"negative duration {a.duration}")
    if not math.isfinite(a.fps):
        violations.append(f"non-finite fps {a.fps}")
    elif a.fps <= 0:
        violations.append(f"non-positive fps {a.fps}")

    for idx, inst in enumerate(a.instances):
        if inst.level == HierarchyLevel.GOAL:
            violations.append(f"instance {idx}: goal-level instances do not carry intervals")
        if inst.interval.start < 0 or inst.interval.end > a.duration + 1e-9:
            violations.append(
                f"instance {idx}: interval [{inst.interval.start}, {inst.interval.end}] "
                f"exceeds duration {a.duration}"
            )

    for level in (HierarchyLevel.SUBSTEP, HierarchyLevel.STEP):
        indexed = [(i, inst) for i, inst in enumerate(a.instances) if inst.level == level]
        for (i1, prev), (i2, cur) in zip(indexed, indexed[1:]):
            if cur.interval.start < prev.interval.start:
                violations.append(
                    f"instance {i2}: not sorted by start at level {level.name}"
                )
            # Touching endpoints are allowed; real overlap is not.
            if cur.interval.start < prev.interval.end - 1e-9:
                violations.append(
                    f"instances {i1},{i2}: overlap at level {level.name}"
                )

    if strict_nesting:
        steps = [i.interval for i in a.instances if i.level == HierarchyLevel.STEP]
        for idx, inst in enumerate(a.instances):
            if inst.level != HierarchyLevel.SUBSTEP:
                continue
            nested = any(
                s.start - 1e-9 <= inst.interval.start and inst.interval.end <= s.end + 1e-9
                for s in steps
            )
            if not nested:
                violations.append(f"instance {idx}: substep outside every step")

    return violations


def annotation_to_dict(a: AnnotationSet) -> dict:
    return {
        "video_id": a.video_id,
        "duration": a.duration,
        "fps": a.fps,
        "goal": a.goal,
        "instances": [
            {
                "start": inst.interval.start,
                "end": inst.interval.end,
                "level": int(inst.level),
                "description": inst.description,
            }
            for inst in a.instances
        ],
    }


def instance_from_dict(d: dict) -> ActionInstance:
    return ActionInstance(
        interval=Interval(float(d["start"]), float(d["end"])),
        description=str(d.get("description", "")),
        level=HierarchyLevel(int(d["level"])),
    )


def annotation_from_dict(d: dict) -> AnnotationSet:
    return AnnotationSet(
        video_id=str(d["video_id"]),
        duration=float(d["duration"]),
        fps=float(d["fps"]),
        instances=tuple(instance_from_dict(i) for i in d["instances"]),
        goal=str(d.get("goal", "")),
    )


def write_jsonl(records: Iterable[dict], path) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def write_annotations(sets: Iterable[AnnotationSet], path) -> None:
    write_jsonl(map(annotation_to_dict, sets), path)


def read_text(path) -> str:
    """A text file's contents; undecodable bytes raise ``ValueError`` naming the file."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_jsonl(path, from_dict: Callable[[dict], T]) -> list[T]:
    """``from_dict`` of each record of a JSON Lines file; blank lines are
    skipped. A line that is not a JSON object, or whose object ``from_dict``
    rejects, raises ``ValueError`` naming the file and the 1-based line."""
    out = []
    for n, line in enumerate(io.StringIO(read_text(path)), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"a JSON {type(record).__name__}, not an object")
            out.append(from_dict(record))
        except (ValueError, LookupError, TypeError) as exc:
            why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}, line {n}: {why}") from None
    return out


def read_annotations(path) -> list[AnnotationSet]:
    return read_jsonl(path, annotation_from_dict)


# The longest frame grid a run may ask for: 10**8 frames is about 290 days at
# 4 fps and 0.8 GB of timestamps, so a longer grid is an input error.
MAX_FRAMES = 10**8


def frame_count(duration: float, fps: float) -> int:
    """Length of :func:`frame_timestamps`' grid, found without building it."""
    if not (math.isfinite(duration * fps) and fps > 0 and duration * fps < MAX_FRAMES):  # NaN, inf fail
        raise ValueError(f"no frame grid for duration {duration} at fps {fps} (at most {MAX_FRAMES} frames)")
    n = int(round(duration * fps))
    return n if n / fps > duration else n + 1  # an off-grid duration: stop before it


def frame_timestamps(duration: float, fps: float) -> np.ndarray:
    """Frame grid for a video: one frame per 1/fps step, up to and including
    the last one not after the duration (the stream end, when on the grid)."""
    return np.arange(frame_count(duration, fps), dtype=np.float64) / fps
