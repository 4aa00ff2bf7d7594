import pytest

from hierstream.core import ActionInstance, HierarchyLevel, Interval
from hierstream.memory import (
    ContextMemory,
    Prediction,
    SUBSTEP_FRAME_SPACING,
)

SUB = HierarchyLevel.SUBSTEP
STEP = HierarchyLevel.STEP
GOAL = HierarchyLevel.GOAL


def fill(mem, t0, t1, levels, dt=0.25):
    t = t0
    while t <= t1 + 1e-9:
        mem.insert_frame(round(t, 6), levels)
        t += dt


def prediction(level, start, end, tag, created=None):
    return Prediction(
        level=level, interval=Interval(start, end),
        short_form=f"short {tag}", long_form=f"long {tag}",
        created_at=end if created is None else created,
    )


class TestInsert:
    def test_background_frames_not_stored(self):
        mem = ContextMemory()
        mem.insert_frame(0.0, set())
        mem.insert_frame(1.0, set())
        assert mem.frame_count == 0

    def test_member_frames_stored_with_levels(self):
        mem = ContextMemory()
        mem.insert_frame(0.0, {SUB, STEP})
        assert mem.frame_count == 1

    def test_out_of_order_insert_rejected(self):
        mem = ContextMemory()
        mem.insert_frame(1.0, {STEP})
        with pytest.raises(ValueError):
            mem.insert_frame(1.0, {STEP})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_insert_rejected(self, bad):
        mem = ContextMemory()
        mem.insert_frame(1.0, {STEP})
        with pytest.raises(ValueError, match="is not finite"):
            mem.insert_frame(bad, {STEP})
        with pytest.raises(ValueError, match="is not finite"):
            ContextMemory().insert_frame(bad, {STEP})

    def test_background_only_stream_yields_empty_queries(self):
        mem = ContextMemory()
        for t in range(100):
            mem.insert_frame(float(t), set())
        bundle = mem.query(ActionInstance(Interval(10.0, 20.0), "", SUB))
        assert bundle.frames == ()


class TestSubstepQuery:
    def test_one_second_spacing(self):
        # 4.5 s instance with a frame every 0.25 s: picks at 0,1,2,3,4.
        mem = ContextMemory()
        fill(mem, 10.0, 14.5, {SUB, STEP})
        bundle = mem.query(ActionInstance(Interval(10.0, 14.5), "", SUB))
        assert bundle.frames == (10.0, 11.0, 12.0, 13.0, 14.0)

    def test_spacing_lower_bound(self):
        mem = ContextMemory()
        fill(mem, 0.0, 20.0, {SUB, STEP}, dt=0.3)
        bundle = mem.query(ActionInstance(Interval(0.0, 19.8), "", SUB))
        times = bundle.frames
        assert all(b - a >= SUBSTEP_FRAME_SPACING - 1e-9 for a, b in zip(times, times[1:]))

    def test_prior_predictions_scoped_to_current_step(self):
        mem = ContextMemory()
        fill(mem, 0.0, 5.0, {SUB, STEP})
        mem.commit_prediction(prediction(SUB, 0.0, 5.0, "a"))
        # Step boundary: background frame resets the step membership run.
        mem.insert_frame(5.25, set())
        fill(mem, 5.5, 9.0, {SUB, STEP})
        mem.commit_prediction(prediction(SUB, 5.5, 9.0, "b"))
        fill(mem, 9.25, 12.0, {SUB, STEP})

        bundle = mem.query(ActionInstance(Interval(9.25, 12.0), "", SUB))
        # Prediction "a" belongs to the previous step run and is excluded.
        assert bundle.prior_predictions == ("long b",)

    def test_prior_predictions_empty_without_ongoing_step(self):
        mem = ContextMemory()
        fill(mem, 0.0, 4.0, {SUB, STEP})
        mem.commit_prediction(prediction(SUB, 0.0, 4.0, "a"))
        mem.insert_frame(4.25, set())
        bundle = mem.query(ActionInstance(Interval(0.0, 4.0), "", SUB))
        assert bundle.prior_predictions == ()


class TestStepQuery:
    def test_only_substep_member_frames_sampled(self):
        mem = ContextMemory()
        fill(mem, 0.0, 4.75, {STEP})          # step-only frames
        fill(mem, 5.0, 12.0, {SUB, STEP})     # substep frames
        bundle = mem.query(ActionInstance(Interval(0.0, 12.0), "", STEP))
        assert all(t >= 5.0 for t in bundle.frames)  # the substep frames
        assert bundle.frames[0] == 5.0

    def test_spacing(self):
        mem = ContextMemory()
        fill(mem, 0.0, 30.0, {SUB, STEP})
        bundle = mem.query(ActionInstance(Interval(0.0, 30.0), "", STEP))
        times = bundle.frames
        assert all(b - a >= 3.3 - 1e-9 for a, b in zip(times, times[1:]))

    def test_history_capped_at_ten(self):
        mem = ContextMemory()
        fill(mem, 0.0, 5.0, {SUB, STEP})
        for i in range(12):
            mem.commit_prediction(prediction(STEP, 0.0, 0.1 + i * 0.01, f"s{i}", created=5.0))
        bundle = mem.query(ActionInstance(Interval(0.0, 5.0), "", STEP))
        assert len(bundle.prior_predictions) == 10
        assert bundle.prior_predictions[0] == "long s2"
        assert bundle.prior_predictions[-1] == "long s11"

    def test_uncovered_interval_rejected(self):
        mem = ContextMemory()
        fill(mem, 0.0, 5.0, {SUB, STEP})
        with pytest.raises(ValueError):
            mem.query(ActionInstance(Interval(0.0, 9.0), "", STEP))


class TestCommitAndPrune:
    def test_step_commit_prunes_to_midpoint_representative(self):
        mem = ContextMemory()
        fill(mem, 10.0, 40.0, {SUB, STEP}, dt=0.5)
        count_before = mem.frame_count
        mem.commit_prediction(prediction(STEP, 10.0, 40.0, "s"))
        inside = [t for t in mem._times if 10.0 <= t <= 40.0]
        assert len(inside) == 1
        assert inside[0] == 25.0
        assert mem.frame_count < count_before

    @pytest.mark.parametrize("times,end,rep", [
        ([0.0, 1.0, 2.0, 3.0], 3.0, 1.0),  # 1.0 and 2.0 lie 0.5 from mid 1.5
        # 1e16 - 0.1, 1e16 - 0.2 and 2e16 - 1e16 all round to 1e16
        ([0.1, 0.2, 2e16], 2e16, 0.1),
    ], ids=["exact-tie", "rounded-tie"])
    def test_equidistant_frames_keep_the_earliest(self, times, end, rep):
        mem = ContextMemory()
        for t in times:
            mem.insert_frame(t, {SUB, STEP})
        mem.commit_prediction(prediction(STEP, times[0], end, "s"))
        assert mem._times == [rep]

    def test_substep_commit_never_prunes(self):
        mem = ContextMemory()
        fill(mem, 0.0, 5.0, {SUB, STEP})
        before = mem.frame_count
        mem.commit_prediction(prediction(SUB, 0.0, 5.0, "a"))
        assert mem.frame_count == before

    def test_frame_count_non_increasing_over_step_commits(self):
        mem = ContextMemory()
        counts = []
        t = 0.0
        for k in range(3):
            fill(mem, t, t + 6.0, {SUB, STEP})
            mem.commit_prediction(prediction(STEP, t, t + 6.0, f"s{k}"))
            counts.append(mem.frame_count)
            t += 6.25
        assert all(c == 1 or b <= a + 25 for a, b, c in zip(counts, counts[1:], counts[1:]))
        # After each commit exactly one frame per described step remains.
        assert counts[0] == 1 and counts[1] == 2 and counts[2] == 3


class TestGoalQuery:
    def test_one_frame_per_described_step(self):
        mem = ContextMemory()
        t = 0.0
        for k in range(3):
            fill(mem, t, t + 6.0, {SUB, STEP})
            mem.commit_prediction(prediction(STEP, t, t + 6.0, f"s{k}"))
            t += 6.25
        bundle = mem.query(ActionInstance(Interval(0.0, t), "", GOAL))
        assert len(bundle.frames) == 3
        assert bundle.prior_predictions == ("short s0", "short s1", "short s2")

    def test_goal_before_any_step_prediction_is_empty(self):
        mem = ContextMemory()
        fill(mem, 0.0, 5.0, {SUB, STEP})
        bundle = mem.query(ActionInstance(Interval(0.0, 5.0), "", GOAL))
        assert bundle.frames == () and bundle.prior_predictions == ()


def test_prediction_past_the_last_frame_rejected():
    mem = ContextMemory()
    with pytest.raises(ValueError, match="memory covers up to None"):
        mem.commit_prediction(prediction(SUB, 0.0, 1.0, "a"))
    fill(mem, 0.0, 5.0, {SUB, STEP})
    with pytest.raises(ValueError, match="covers up to 5.0, prediction interval ends at 6.0"):
        mem.commit_prediction(prediction(STEP, 0.0, 6.0, "s"))
    mem.commit_prediction(prediction(GOAL, 0.0, 6.0, "g"))  # the goal spans the whole stream


def test_prediction_created_before_end_rejected():
    with pytest.raises(ValueError):
        Prediction(SUB, Interval(0.0, 5.0), "s", "l", created_at=4.0)
