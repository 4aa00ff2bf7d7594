"""Per-frame targets from temporal annotations, for training and the simulator.

Progress inside an instance is linear in time: an event spanning [2, 4]
has progress 0.5 at t = 3. The per-frame state class records which levels
are simultaneously active. An instance covers the frames in its half-open
[start, end), plus the final frame when its end is the video end; where
instances of one level overlap, the first in annotation order wins.
"""

from __future__ import annotations

import numpy as np

from ..core import STATE_STEP, STATE_STEP_AND_SUBSTEP, AnnotationSet, HierarchyLevel
from .histogram import HistogramConfig, histogram_targets

# Target key prefix per instance-bearing level.
LEVEL_KEYS = (("step", HierarchyLevel.STEP), ("sub", HierarchyLevel.SUBSTEP))


def frame_targets(
    a: AnnotationSet, ts: np.ndarray, histogram: HistogramConfig | None = None
) -> dict[str, np.ndarray]:
    """Targets on the sorted frame grid ``ts``: ``state`` per frame and, per
    level key (``step``, ``sub``), ``{key}_mask`` (inside an instance of
    positive length) and ``{key}_progress`` (0 outside the mask); with a
    histogram also ``{key}_target``, one histogram row per frame (zeros
    outside the mask). One slice per instance, not a scan per frame."""
    ts = np.asarray(ts, dtype=np.float64)
    if len(ts) and not 0 <= ts[0] <= ts[-1] <= a.duration:
        raise ValueError(f"timestamps [{ts[0]}, {ts[-1]}] outside video [0, {a.duration}]")
    # Owner -1 (no instance) reads the zero-length sentinel at the end.
    starts = np.array([inst.interval.start for inst in a.instances] + [0.0])
    ends = np.array([inst.interval.end for inst in a.instances] + [0.0])
    levels = np.array([int(inst.level) for inst in a.instances] + [0])
    out = {"state": np.zeros(len(ts), dtype=np.int64)}
    for key, level in LEVEL_KEYS:
        # Reverse order, so the first covering instance is written last.
        idx = np.flatnonzero(levels == level)[::-1]
        lo, hi = np.searchsorted(ts, starts[idx], "left"), np.searchsorted(ts, ends[idx], "left")
        closed = ends[idx] == a.duration  # the final frame counts as inside
        hi[closed] = np.searchsorted(ts, ends[idx][closed], "right")
        owner = np.full(len(ts), -1, dtype=np.intp)
        for i, first, stop in zip(idx.tolist(), lo.tolist(), hi.tolist()):
            owner[first:stop] = i
        covered = owner >= 0
        out["state"][covered] = STATE_STEP if level == HierarchyLevel.STEP else STATE_STEP_AND_SUBSTEP
        # A zero-length instance covers frames but has no progress.
        mask = ends[owner] > starts[owner]
        start, end = starts[owner[mask]], ends[owner[mask]]
        progress = np.zeros(len(ts))
        progress[mask] = (ts[mask] - start) / (end - start)
        out[f"{key}_mask"], out[f"{key}_progress"] = mask, progress
        if histogram is not None:
            target = np.zeros((len(ts), histogram.bins))
            target[mask] = histogram_targets(progress[mask], histogram)
            out[f"{key}_target"] = target
    return out
