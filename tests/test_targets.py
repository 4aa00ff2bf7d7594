"""The per-timestamp target rules (the oracles), and the interval-slice
builder checked against them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierstream.core import (
    STATE_BG,
    STATE_STEP,
    STATE_STEP_AND_SUBSTEP,
    ActionInstance,
    AnnotationSet,
    HierarchyLevel,
    Interval,
)
from hierstream.scoring.histogram import HistogramConfig
from hierstream.scoring.rnn import ScorerConfig
from hierstream.scoring.targets import frame_targets
from hierstream.scoring.train import build_frame_targets
from oracles import instance_at, per_frame_targets, progress_target, state_target


class TestProgressTarget:
    def test_midpoint(self):
        assert progress_target(3.0, Interval(2.0, 4.0)) == 0.5

    def test_endpoints(self):
        assert progress_target(2.0, Interval(2.0, 4.0)) == 0.0
        assert progress_target(4.0, Interval(2.0, 4.0)) == 1.0

    def test_affine_in_time(self):
        iv = Interval(1.0, 9.0)
        ts = [1.0, 3.0, 5.0, 7.0, 9.0]
        values = [progress_target(t, iv) for t in ts]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d == pytest.approx(diffs[0]) for d in diffs)
        assert progress_target((iv.start + iv.end) / 2, iv) == 0.5

    def test_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            progress_target(1.0, Interval(2.0, 4.0))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            progress_target(2.0, Interval(2.0, 2.0))


def annotated():
    return AnnotationSet(
        video_id="v", duration=20.0, fps=2.0, goal="g",
        instances=(
            ActionInstance(Interval(2.0, 10.0), "s1", HierarchyLevel.STEP),
            ActionInstance(Interval(3.0, 5.0), "a", HierarchyLevel.SUBSTEP),
            ActionInstance(Interval(5.0, 8.0), "b", HierarchyLevel.SUBSTEP),
            ActionInstance(Interval(12.0, 20.0), "s2", HierarchyLevel.STEP),
        ),
    )


class TestStateTarget:
    def test_substep_inside_step(self):
        assert state_target(4.0, annotated()) == STATE_STEP_AND_SUBSTEP

    def test_step_without_substep(self):
        assert state_target(2.5, annotated()) == STATE_STEP
        assert state_target(9.0, annotated()) == STATE_STEP

    def test_background(self):
        assert state_target(0.0, annotated()) == STATE_BG
        assert state_target(11.0, annotated()) == STATE_BG

    def test_half_open_boundaries(self):
        a = annotated()
        # A substep start belongs to the new substep, its end to what follows.
        assert state_target(3.0, a) == STATE_STEP_AND_SUBSTEP
        assert state_target(8.0, a) == STATE_STEP
        assert state_target(10.0, a) == STATE_BG

    def test_closed_at_stream_end(self):
        # The final frame at an instance end that coincides with the video
        # end still counts as inside.
        assert state_target(20.0, annotated()) == STATE_STEP

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            state_target(25.0, annotated())


def test_instance_at_levels():
    a = annotated()
    assert instance_at(4.0, a, HierarchyLevel.SUBSTEP) == Interval(3.0, 5.0)
    assert instance_at(4.0, a, HierarchyLevel.STEP) == Interval(2.0, 10.0)
    assert instance_at(0.5, a, HierarchyLevel.STEP) is None


# ----------------------------------------------------------------------
# the interval-slice builder against the per-frame oracle
# ----------------------------------------------------------------------

HIST = HistogramConfig()


@st.composite
def annotation_sets(draw):
    """Videos on or off the frame grid whose instances, in any order, may
    overlap at one level, have zero length, touch (zero gaps) or end at
    the video end."""
    fps = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 10.0]))
    frames = draw(st.integers(0, 60))
    duration = frames / fps + draw(st.sampled_from([0.0, 0.0, 0.3 / fps]))
    on_grid = st.integers(0, frames).map(lambda i: i / fps)
    point = st.one_of(on_grid, on_grid, st.floats(0.0, duration), st.just(duration))
    instances = []
    for _ in range(draw(st.integers(0, 8))):
        start, end = sorted((draw(point), draw(point)))
        if draw(st.booleans()) and instances:  # touch the previous instance
            start = max(start, instances[-1].interval.end)
            end = max(end, start)
        level = draw(st.sampled_from([HierarchyLevel.STEP, HierarchyLevel.SUBSTEP]))
        instances.append(ActionInstance(Interval(start, end), "x", level))
    return AnnotationSet(video_id="v", duration=duration, fps=fps,
                         instances=tuple(instances), goal="g")


@settings(max_examples=300, deadline=None)
@given(a=annotation_sets())
def test_builder_equals_per_frame_oracle(a):
    cfg = ScorerConfig(feature_dim=4, histogram=HIST)
    got, want = build_frame_targets(a, cfg), per_frame_targets(a, HIST)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    progress = frame_targets(a, got["timestamps"])
    for key, level in (("step", HierarchyLevel.STEP), ("sub", HierarchyLevel.SUBSTEP)):
        want_p = [progress_target(t, instance_at(t, a, level)) if m else 0.0
                  for t, m in zip(got["timestamps"].tolist(), want[f"{key}_mask"])]
        np.testing.assert_array_equal(progress[f"{key}_progress"], want_p)


def test_first_instance_wins_overlaps_and_zero_length_covers_without_progress():
    a = AnnotationSet(
        video_id="v", duration=4.0, fps=1.0, goal="g",
        instances=(
            ActionInstance(Interval(1.0, 3.0), "first", HierarchyLevel.STEP),
            ActionInstance(Interval(0.0, 4.0), "second", HierarchyLevel.STEP),
            ActionInstance(Interval(4.0, 4.0), "at end", HierarchyLevel.SUBSTEP),
        ),
    )
    t = frame_targets(a, np.arange(5.0))
    np.testing.assert_array_equal(t["step_progress"], [0.0, 0.0, 0.5, 0.75, 1.0])
    # The zero-length substep at the video end sets the state, not the mask.
    np.testing.assert_array_equal(t["state"], [STATE_STEP] * 4 + [STATE_STEP_AND_SUBSTEP])
    assert not t["sub_mask"].any()


def test_timestamps_outside_the_video_rejected():
    with pytest.raises(ValueError, match="outside video"):
        frame_targets(annotated(), np.array([0.0, 20.5]))
