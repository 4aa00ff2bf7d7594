import json

import numpy as np
import pytest

from hierstream.core import (
    ActionInstance,
    AnnotationSet,
    FrameScores,
    HierarchyLevel,
    Interval,
    annotation_from_dict,
    annotation_to_dict,
    frame_timestamps,
    read_annotations,
    validate_annotations,
    write_annotations,
)
from hierstream.scoring.streams import read_scores, write_scores


def make_set(instances, duration=10.0, fps=2.0):
    return AnnotationSet(
        video_id="v0", duration=duration, fps=fps,
        instances=tuple(instances), goal="test goal",
    )


def sub(start, end, desc="d"):
    return ActionInstance(Interval(start, end), desc, HierarchyLevel.SUBSTEP)


def step(start, end, desc="s"):
    return ActionInstance(Interval(start, end), desc, HierarchyLevel.STEP)


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(5.0, 3.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Interval(-1.0, 3.0)

    def test_contains(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0) and iv.contains(3.0) and not iv.contains(3.1)


class TestValidateAnnotations:
    def test_touching_substeps_ok(self):
        a = make_set([sub(0, 5), sub(5, 10)])
        assert validate_annotations(a) == []

    def test_overlap_flagged(self):
        a = make_set([sub(0, 6), sub(5, 10)])
        violations = validate_annotations(a)
        assert any("overlap at level SUBSTEP" in v for v in violations)

    def test_exceeds_duration_flagged(self):
        a = make_set([sub(0, 12)])
        violations = validate_annotations(a)
        assert any("exceeds duration" in v for v in violations)

    def test_levels_checked_independently(self):
        # A step overlapping a substep is fine; same-level overlap is not.
        a = make_set([sub(0, 5), step(0, 8)])
        assert validate_annotations(a) == []

    def test_goal_level_instances_rejected(self):
        a = make_set([ActionInstance(Interval(0, 10), "g", HierarchyLevel.GOAL)])
        assert any("goal-level" in v for v in validate_annotations(a))

    def test_strict_nesting_off_by_default(self):
        a = make_set([sub(0, 5)])  # no steps at all
        assert validate_annotations(a) == []
        assert any("outside every step" in v
                   for v in validate_annotations(a, strict_nesting=True))

    def test_strict_nesting_accepts_nested(self):
        a = make_set([sub(1, 4), step(0, 5)])
        assert validate_annotations(a, strict_nesting=True) == []


class TestSerialization:
    def test_round_trip_equality(self):
        a = make_set([sub(0, 4.25, "chop"), sub(4.25, 7.5, "stir"), step(0, 7.5, "cook")])
        assert annotation_from_dict(annotation_to_dict(a)) == a

    def test_round_trip_through_file(self, tmp_path):
        sets = [
            make_set([sub(0, 3.5)]),
            make_set([sub(1, 2), step(1, 2)], duration=20.0),
        ]
        path = tmp_path / "ann.jsonl"
        write_annotations(sets, path)
        assert read_annotations(path) == sets

    def test_file_is_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_annotations([make_set([sub(0, 5)])], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"video_id", "duration", "fps", "goal", "instances"}
        assert record["instances"][0]["level"] == 1


class TestFrameScores:
    def test_valid_distributions_pass(self):
        fs = FrameScores(0.0, np.array([0.2, 0.3, 0.5]), np.full(10, 0.1), np.full(10, 0.1))
        assert fs.validate() == []

    def test_bad_sum_flagged(self):
        fs = FrameScores(0.0, np.array([0.2, 0.3, 0.4]), np.full(10, 0.1), np.full(10, 0.1))
        assert any("sums to" in p for p in fs.validate())

    def test_nan_flagged(self):
        fs = FrameScores(0.0, np.full(3, np.nan), np.full(10, 0.1), np.full(10, 0.1))
        assert any("sums to" in p for p in fs.validate())

    def test_csv_reader_rejects_nan_cell(self, tmp_path):
        frames = [FrameScores(t, np.array([0.2, 0.3, 0.5]), np.full(10, 0.1), np.full(10, 0.1))
                  for t in (0.0, 0.25)]
        path = tmp_path / "scores.csv"
        write_scores(path, frames)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = "nan"
        path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match="invalid frame at t=0.25"):
            read_scores(path)

    def test_arrays_frozen(self):
        fs = FrameScores(0.0, np.array([0.2, 0.3, 0.5]), np.full(10, 0.1), np.full(10, 0.1))
        with pytest.raises(ValueError):
            fs.state_probs[0] = 1.0


def test_frame_timestamps_includes_final_frame():
    ts = frame_timestamps(10.0, 2.0)
    assert ts[0] == 0.0 and ts[-1] == 10.0 and len(ts) == 21
