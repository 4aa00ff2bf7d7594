import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from hierstream.core import (
    MAX_FRAMES,
    ActionInstance,
    AnnotationSet,
    FrameScores,
    HierarchyLevel,
    Interval,
    annotation_from_dict,
    annotation_to_dict,
    frame_count,
    frame_timestamps,
    read_annotations,
    validate_annotations,
    write_annotations,
)
from hierstream.detector import read_emissions
from hierstream.scoring.streams import read_features, read_scores, write_features, write_scores


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

    @pytest.mark.parametrize("duration,fps,why", [
        (float("nan"), 2.0, "non-finite duration nan"),
        (float("inf"), 2.0, "non-finite duration inf"),
        (10.0, float("inf"), "non-finite fps inf"),
        (10.0, float("nan"), "non-finite fps nan"),
        (-1.0, 0.0, "negative duration -1.0"),
        (10.0, 0.0, "non-positive fps 0.0"),
    ])
    def test_bad_duration_and_fps_flagged(self, duration, fps, why):
        assert why in validate_annotations(make_set([], duration=duration, fps=fps))


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



ANNOTATION = {"video_id": "v", "duration": 10.0, "fps": 4.0, "goal": "g",
              "instances": [{"start": 0.0, "end": 2.0, "level": 1, "description": "x"}]}
EMISSION = {"start": 0.0, "end": 2.0, "level": 1, "emit_time": 2.0}

# format -> (reader, a good record, the record with a backwards interval,
# a key the reader needs)
JSONL_FORMATS = {
    "annotations": (read_annotations, ANNOTATION,
                    {**ANNOTATION, "instances": [{"start": 3.0, "end": 2.0, "level": 1}]}, "fps"),
    "emissions": (read_emissions, EMISSION, {**EMISSION, "start": 3.0}, "end"),
}


@pytest.mark.parametrize("fmt", sorted(JSONL_FORMATS))
class TestReadJsonl:
    """Both JSONL formats go through ``core.read_jsonl``: a bad record is a
    ValueError naming the file and its 1-based line (blank lines count)."""

    def read_with_third_line(self, tmp_path, fmt, line):
        reader, good, _, _ = JSONL_FORMATS[fmt]
        path = tmp_path / f"{fmt}.jsonl"
        path.write_text(f"{json.dumps(good)}\n\n{line}\n")
        return path, lambda: reader(path)

    def test_bad_json(self, tmp_path, fmt):
        path, read = self.read_with_third_line(tmp_path, fmt, '{"start": 0.0,')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: "):
            read()

    def test_missing_key(self, tmp_path, fmt):
        _, good, _, key = JSONL_FORMATS[fmt]
        record = {k: v for k, v in good.items() if k != key}
        path, read = self.read_with_third_line(tmp_path, fmt, json.dumps(record))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: missing key '{key}'$"):
            read()

    def test_bad_interval(self, tmp_path, fmt):
        path, read = self.read_with_third_line(tmp_path, fmt, json.dumps(JSONL_FORMATS[fmt][2]))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: interval [3.0, 2.0] is not finite")):
            read()

    def test_not_an_object(self, tmp_path, fmt):
        path, read = self.read_with_third_line(tmp_path, fmt, "[1, 2]")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: a JSON list, not an object")):
            read()

    def test_good_records_read(self, tmp_path, fmt):
        path, read = self.read_with_third_line(tmp_path, fmt, json.dumps(JSONL_FORMATS[fmt][1]))
        assert len(read()) == 2


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

    def test_read_only_float64_rows_kept_as_given(self):
        block = np.full((2, 10), 0.1)
        block.flags.writeable = False
        state = np.array([0.2, 0.3, 0.5])
        state.flags.writeable = False
        rows = block[0], block[1]  # read-only views, as the CSV reader hands out
        fs = FrameScores(0.0, state, *rows)
        assert fs.state_probs is state
        assert fs.step_progress_dist is rows[0] and fs.substep_progress_dist is rows[1]

    def test_writeable_or_other_dtype_inputs_frozen_as_float64(self):
        writeable = np.array([0.2, 0.3, 0.5])
        fs = FrameScores(0.0, writeable, [0.5, 0.5], np.array([1, 0]))
        assert fs.state_probs is writeable and not writeable.flags.writeable
        for arr in (fs.step_progress_dist, fs.substep_progress_dist):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        np.testing.assert_array_equal(fs.substep_progress_dist, [1.0, 0.0])


def _frame(**decodes):
    return FrameScores(0.5, [0.2, 0.3, 0.5], np.full(10, 0.1), np.full(10, 0.1), **decodes)


COPIES = {
    "_replace": lambda fs: fs._replace(),
    "_make": lambda fs: FrameScores._make(fs),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda fs: pickle.loads(pickle.dumps(fs)),
}


class TestFrameScoresRecord:
    @pytest.mark.parametrize("name", ["timestamp", "state_probs", "substep_progress", "new_field"])
    def test_attributes_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(_frame(), name, 1.0)

    def test_equal_contents_not_equal_and_hashable(self):
        a, b = _frame(), _frame()
        assert a != b and not a == b and a == a
        assert len({a, b}) == 2 and hash(a) == hash(a)

    def test_keyword_positional_and_defaults(self):
        dists = [0.2, 0.3, 0.5], [0.5, 0.5], [1.0, 0.0]
        by_keyword = FrameScores(timestamp=1.0, state_probs=dists[0], step_progress_dist=dists[1],
                                 substep_progress_dist=dists[2], step_progress=0.25)
        positional = FrameScores(1.0, *dists, None, 0.25)
        for fs in by_keyword, positional:
            assert fs.timestamp == 1.0 and fs.substep_progress is None and fs.step_progress == 0.25
            np.testing.assert_array_equal(fs.step_progress_dist, [0.5, 0.5])
        plain = FrameScores(1.0, *dists)
        assert plain.substep_progress is None and plain.step_progress is None

    @pytest.mark.parametrize("level", ["substep", "step"])
    @pytest.mark.parametrize("bad", [math.nan, -3.0, 7.0])
    def test_decode_outside_the_unit_interval_refused(self, level, bad):
        with pytest.raises(ValueError, match=rf"frame at t=0.5: {level.upper()} progress {bad!r} is not in \[0, 1\]"):
            _frame(**{f"{level}_progress": bad})

    @pytest.mark.parametrize("good", [0.0, 1.0, None])
    def test_decode_on_the_unit_interval_kept(self, good):
        fs = _frame(substep_progress=good, step_progress=good)
        assert fs.substep_progress is good and fs.step_progress is good

    @pytest.mark.parametrize("how", COPIES)
    def test_copies_are_read_only_float64(self, how):
        fs = COPIES[how](_frame(substep_progress=0.25))
        assert type(fs) is FrameScores and fs.substep_progress == 0.25
        for arr in (fs.state_probs, fs.step_progress_dist, fs.substep_progress_dist):
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and not arr.flags.writeable

    def test_replace_and_make_convert_and_check(self):
        fs = _frame()
        replaced = fs._replace(state_probs=[1, 0, 0])
        assert replaced.state_probs.dtype == np.float64 and not replaced.state_probs.flags.writeable
        made = FrameScores._make([0.5, np.array([1.0, 0.0, 0.0]), [1.0], [1.0], None, None])
        assert not made.state_probs.flags.writeable and made.step_progress_dist.dtype == np.float64
        with pytest.raises(ValueError, match="STEP progress nan is not in"):
            fs._replace(step_progress=math.nan)
        with pytest.raises(ValueError, match="SUBSTEP progress 7.0 is not in"):
            FrameScores._make([*fs[:4], 7.0, None])


def _write_feature_csv(path, timestamps):
    write_features(path, np.array(timestamps), np.zeros((len(timestamps), 2)))


def _write_score_csv(path, timestamps):
    write_scores(path, [FrameScores(t, np.array([0.2, 0.3, 0.5]), np.full(10, 0.1), np.full(10, 0.1))
                        for t in timestamps])


class TestCsvTimestamps:
    READERS = [(read_features, _write_feature_csv), (read_scores, _write_score_csv)]

    @pytest.mark.parametrize("reader,write", READERS)
    @pytest.mark.parametrize("timestamps,row,why", [
        ((0.0, float("nan"), 0.1), 2, "timestamp nan is not finite"),
        ((0.0, 0.5, float("inf")), 3, "timestamp inf is not finite"),
        ((0.0, 0.5, 0.5), 3, "timestamp 0.5 does not follow 0.5"),
        ((0.0, 0.5, 0.25), 3, "timestamp 0.25 does not follow 0.5"),
    ])
    def test_bad_timestamp_rejected(self, tmp_path, reader, write, timestamps, row, why):
        path = tmp_path / "stream.csv"
        write(path, timestamps)
        with pytest.raises(ValueError, match=f"stream.csv: data row {row}: {why}"):
            reader(path)


# reader -> (the reader, a writer of a good file)
UNDECODABLE = {
    "scores": (read_scores, lambda path: _write_score_csv(path, (0.0, 0.25))),
    "features": (read_features, lambda path: _write_feature_csv(path, (0.0, 0.25))),
    "annotations": (read_annotations, lambda path: path.write_text(json.dumps(ANNOTATION) + "\n")),
    "emissions": (read_emissions, lambda path: path.write_text(json.dumps(EMISSION) + "\n")),
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_undecodable_byte_refused_with_the_file_name(tmp_path, kind):
    reader, write = UNDECODABLE[kind]
    path = tmp_path / f"{kind}.input"
    write(path)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*can't decode byte 0xff"):
        reader(path)


@pytest.mark.parametrize("start,end", [(-1.0, 2.0), (3.0, 2.0), (1.0, float("nan")),
                                       (float("nan"), 1.0), (0.0, float("inf"))])
def test_interval_rejects_bad_endpoints(start, end):
    with pytest.raises(ValueError, match="not finite with 0 <= start <= end"):
        Interval(start, end)


def test_frame_timestamps_includes_final_frame():
    ts = frame_timestamps(10.0, 2.0)
    assert ts[0] == 0.0 and ts[-1] == 10.0 and len(ts) == 21


@pytest.mark.parametrize("duration,fps,last", [
    (10.2, 4.0, 10.0),  # off the grid: the grid stops before the duration
    (10.25, 4.0, 10.25),
    (0.3, 10.0, 0.3),  # 0.3 * 10 rounds below 3 in binary; still on the grid
    (0.7, 10.0, 0.7),  # and 0.7 * 10 above 7
    (10.99, 2.0, 10.5),
    (0.0, 4.0, 0.0),
])
def test_frame_timestamps_stop_at_duration(duration, fps, last):
    ts = frame_timestamps(duration, fps)
    assert ts[-1] == last and ts[-1] <= duration
    assert len(ts) == round(last * fps) + 1 == frame_count(duration, fps)


@pytest.mark.parametrize("duration,fps", [(float("nan"), 4.0), (float("inf"), 4.0),
                                          (10.0, float("inf")), (10.0, float("nan")), (10.0, 0.0),
                                          (10.0, 1e308), (1e308, 10.0),
                                          (1e12, 4.0)])  # 4e12 frames: refused, never allocated
def test_frame_timestamps_rejects_bad_duration_or_fps(duration, fps):
    with pytest.raises(ValueError, match="no frame grid for duration"):
        frame_timestamps(duration, fps)


def test_frame_count_allows_the_longest_grid_and_no_longer():
    # Counted, never built: the grids here would take 0.8 GB.
    assert frame_count((MAX_FRAMES - 1) / 4.0, 4.0) == MAX_FRAMES
    with pytest.raises(ValueError, match=f"at most {MAX_FRAMES} frames"):
        frame_count(MAX_FRAMES / 4.0, 4.0)
