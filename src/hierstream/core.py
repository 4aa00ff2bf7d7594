"""Shared domain types: hierarchy levels, intervals, annotations, frame scores.

Everything here is a plain immutable value type, safe to share between
threads.  Annotations round-trip through a JSON Lines file format (one
video per line).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np


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
STATE_NAMES = ("bg", "step", "stepsub")


@dataclass(frozen=True)
class Interval:
    """Half-open-by-convention time span in seconds; start <= end enforced."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"interval start must be >= 0, got {self.start}")
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} > end {self.end}")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


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


@dataclass(frozen=True, eq=False)
class FrameScores:
    """Per-frame model outputs: a 3-way state distribution plus one progress
    histogram per instance-bearing level.

    All three arrays are probability distributions (non-negative, summing to
    one within 1e-6). The histogram bin count must be constant across the
    frames of one stream.
    """

    timestamp: float
    state_probs: np.ndarray
    step_progress_dist: np.ndarray
    substep_progress_dist: np.ndarray

    def __post_init__(self) -> None:
        for name in ("state_probs", "step_progress_dist", "substep_progress_dist"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def validate(self) -> list[str]:
        problems = []
        if self.state_probs.shape != (3,):
            problems.append(f"state_probs must have 3 entries, got {self.state_probs.shape}")
        for name in ("state_probs", "step_progress_dist", "substep_progress_dist"):
            arr = getattr(self, name)
            if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
                problems.append(f"{name} has entries outside [0, 1]")
            if not abs(float(arr.sum()) - 1.0) <= 1e-6:  # NaN fails too
                problems.append(f"{name} sums to {float(arr.sum())}, expected 1")
        return problems


def validate_annotations(a: AnnotationSet, strict_nesting: bool = False) -> list[str]:
    """Check AnnotationSet invariants; returns one message per violation.

    An empty list means the set is valid. Violations are data, not failures.
    With ``strict_nesting`` every substep must lie inside some step; by
    default levels are only checked independently.
    """
    violations: list[str] = []
    if a.duration < 0:
        violations.append(f"negative duration {a.duration}")
    if a.fps <= 0:
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


def annotation_from_dict(d: dict) -> AnnotationSet:
    instances = tuple(
        ActionInstance(
            interval=Interval(float(i["start"]), float(i["end"])),
            description=str(i.get("description", "")),
            level=HierarchyLevel(int(i["level"])),
        )
        for i in d["instances"]
    )
    return AnnotationSet(
        video_id=str(d["video_id"]),
        duration=float(d["duration"]),
        fps=float(d["fps"]),
        instances=instances,
        goal=str(d.get("goal", "")),
    )


def write_annotations(sets: Iterable[AnnotationSet], path) -> None:
    with open(path, "w") as fh:
        for a in sets:
            fh.write(json.dumps(annotation_to_dict(a)) + "\n")


def read_annotations(path) -> list[AnnotationSet]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(annotation_from_dict(json.loads(line)))
    return out


def frame_timestamps(duration: float, fps: float) -> np.ndarray:
    """Frame grid for a video: one frame per 1/fps step, final frame at the
    stream end included."""
    n = int(round(duration * fps))
    return np.arange(n + 1, dtype=np.float64) / fps
