import numpy as np
import pytest

from hierstream.core import FrameScores, HierarchyLevel, Interval
from hierstream.detector import (
    DetectionEvent,
    DetectorConfig,
    EventKind,
    StreamDetector,
    emission_from_dict,
    emission_to_dict,
    run_stream,
)
from hierstream.scoring.histogram import HistogramConfig, histogram_target
from hierstream.scoring.streams import read_scores, write_scores
from hierstream.simulator import SimConfig, gen_annotations, gen_scores
from oracles import events_never_revised

HIST = HistogramConfig()

BG = np.array([1.0, 0.0, 0.0])
STEP_ONLY = np.array([0.0, 1.0, 0.0])
BOTH = np.array([0.0, 0.0, 1.0])
UNIFORM = np.full(10, 0.1)


def frame(t, state, step_p=None, sub_p=None):
    return FrameScores(
        timestamp=float(t),
        state_probs=state,
        step_progress_dist=UNIFORM if step_p is None else histogram_target(step_p, HIST),
        substep_progress_dist=UNIFORM if sub_p is None else histogram_target(sub_p, HIST),
    )


def sub_events(events):
    return [e for e in events if e.level == HierarchyLevel.SUBSTEP]


def ended(events):
    return [e for e in events if e.kind == EventKind.INSTANCE_ENDED]


class TestHandTraces:
    def test_two_zero_gap_substeps(self):
        # Two back-to-back instances, no background in between: the only end
        # signal is the progress reset. The drop closes the first instance at
        # the previous frame, the boundary frame joins nothing, and the
        # second instance opens one frame later.
        stream = [
            frame(t, BOTH, step_p=t / 10.0, sub_p=(t % 5) / 5.0) for t in range(10)
        ]
        det = StreamDetector()
        events = []
        for fs in stream:
            events.extend(det.step(fs))
        events.extend(det.finish())

        sub_ends = ended(sub_events(events))
        assert [e.interval for e in sub_ends] == [Interval(0.0, 4.0), Interval(6.0, 9.0)]
        # First end fires at the reset frame, second at stream end.
        assert [e.timestamp for e in sub_ends] == [5.0, 9.0]

    def test_all_background_stream(self):
        emissions = run_stream([frame(t, BG) for t in range(8)])
        assert emissions == []

    def test_isolated_instance_ends_via_background_transition(self):
        # Instance [2, 5] with background on both sides, 1 fps.
        stream = []
        for t in range(9):
            if 2 <= t < 5:
                stream.append(frame(t, BOTH, sub_p=(t - 2) / 3.0))
            else:
                stream.append(frame(t, BG))
        det = StreamDetector()
        events = []
        for fs in stream:
            events.extend(det.step(fs))
        events.extend(det.finish())
        subs = sub_events(events)
        assert [e.kind for e in subs] == [EventKind.INSTANCE_STARTED, EventKind.INSTANCE_ENDED]
        assert subs[1].interval == Interval(2.0, 5.0)

    def test_drops_disabled_merges_zero_gap_instances(self):
        stream = [
            frame(t, BOTH, step_p=t / 10.0, sub_p=(t % 5) / 5.0) for t in range(10)
        ]
        emissions = run_stream(stream, DetectorConfig(drop_delta=1.5))
        subs = [e for e in emissions if e.instance.level == HierarchyLevel.SUBSTEP]
        assert len(subs) == 1
        assert subs[0].instance.interval == Interval(0.0, 9.0)


class TestFinish:
    def test_nothing_ongoing_nothing_returned(self):
        det = StreamDetector()
        det.step(frame(0, BG))
        assert det.finish() == []

    def test_ongoing_closed_at_eos(self):
        det = StreamDetector()
        det.step(frame(0, BOTH, sub_p=0.0))
        det.step(frame(1, BOTH, sub_p=0.2))
        events = det.finish()
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.INSTANCE_ENDED] * 2  # substep and step
        assert [e.level for e in events] == [HierarchyLevel.SUBSTEP, HierarchyLevel.STEP]
        for e in ended(events):
            assert e.interval == Interval(0.0, 1.0)

    def test_ongoing_dropped_without_eos_close(self):
        det = StreamDetector(DetectorConfig(close_incomplete_at_eos=False))
        det.step(frame(0, BOTH, sub_p=0.0))
        assert det.finish() == []

    def test_finish_twice_rejected(self):
        det = StreamDetector()
        det.finish()
        with pytest.raises(RuntimeError):
            det.finish()

    def test_step_after_finish_rejected(self):
        det = StreamDetector()
        det.finish()
        with pytest.raises(RuntimeError):
            det.step(frame(0, BG))


class TestStepContracts:
    def test_non_monotonic_timestamp_rejected(self):
        det = StreamDetector()
        det.step(frame(1.0, BG))
        with pytest.raises(ValueError):
            det.step(frame(1.0, BG))
        with pytest.raises(ValueError):
            det.step(frame(0.5, BG))

    def test_config_validation(self):
        DetectorConfig(drop_delta=1.5)  # above 1 disables drops, still legal
        with pytest.raises(ValueError):
            DetectorConfig(drop_delta=0.0)
        for name in ("start_threshold", "drop_delta", "min_progress_for_drop"):
            with pytest.raises(ValueError, match=f"{name} must be .*got nan"):
                DetectorConfig(**{name: float("nan")})
        with pytest.raises(ValueError):
            DetectorConfig(start_threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(min_progress_for_drop=1.5)

    @pytest.mark.parametrize("bins", [9, 12])
    def test_decoded_frame_with_other_bin_count_rejected(self, tmp_path, bins):
        path = tmp_path / "scores.csv"
        write_scores(path, gen_scores(gen_annotations(SimConfig(videos=1))[0], 0.0, 4.0, HistogramConfig(bins)))
        frames = read_scores(path)
        assert frames[0].step_progress is not None
        with pytest.raises(ValueError, match=rf"expected 10 bins, got shape \({bins},\)"):
            run_stream(frames, histogram=HIST)

    @pytest.mark.parametrize("level", ["substep", "step"])
    def test_other_bin_count_rejected_at_an_idle_level(self, level):
        # Background: neither level is ongoing or may open, so no decode runs.
        seven = np.full(7, 1 / 7)
        dists = {"step_progress_dist": UNIFORM, "substep_progress_dist": UNIFORM, f"{level}_progress_dist": seven}
        det = StreamDetector()
        det.step(frame(0, BG))
        with pytest.raises(ValueError, match=rf"t=1.0: {level.upper()} progress: expected 10 bins, got shape \(7,\)"):
            det.step(FrameScores(1.0, BG, **dists, substep_progress=0.5, step_progress=0.5))
        with pytest.raises(ValueError, match=r"expected 10 bins, got shape \(7,\)"):
            StreamDetector().step(FrameScores(0.0, BG, **dists))


def noisy_streams(n, seed_base=0):
    for k in range(n):
        cfg = SimConfig(seed=seed_base + k, videos=1, zero_gap_prob=0.7,
                        noise_sigma=1.5, duration_range=(20.0, 35.0))
        a = gen_annotations(cfg)[0]
        yield gen_scores(a, cfg.noise_sigma, cfg.fps, seed=k)


class TestOnlineCausality:
    def test_prefix_consistency(self):
        rng = np.random.default_rng(0)
        for stream in noisy_streams(15):
            cut = int(rng.integers(1, len(stream)))
            det_full = StreamDetector()
            full_events = []
            for fs in stream:
                full_events.extend(det_full.step(fs))
            det_prefix = StreamDetector()
            prefix_events = []
            for fs in stream[:cut]:
                prefix_events.extend(det_prefix.step(fs))
            # The prefix run must be exactly the head of the full run.
            boundary = stream[cut - 1].timestamp
            head = [e for e in full_events if e.timestamp <= boundary]
            assert prefix_events == head

    def test_emission_log_append_only(self):
        # The emission log is the sequence of lists step/finish return.
        for stream in noisy_streams(3, seed_base=50):
            events = events_never_revised(StreamDetector(), stream)
            assert events and all(e.level in StreamDetector.LEVELS for e in events)

    def test_emitted_intervals_well_formed(self):
        for stream in noisy_streams(10, seed_base=100):
            emissions = run_stream(stream)
            by_level = {HierarchyLevel.SUBSTEP: [], HierarchyLevel.STEP: []}
            for e in emissions:
                iv = e.instance.interval
                assert iv.start <= iv.end
                assert iv.end <= e.emit_time
                by_level[e.instance.level].append(iv)
            for ivs in by_level.values():
                for prev, cur in zip(ivs, ivs[1:]):
                    assert cur.start >= prev.end  # touching allowed


def test_emission_dict_round_trip():
    stream = [frame(t, BOTH, sub_p=t / 5.0, step_p=t / 5.0) for t in range(5)]
    for e in run_stream(stream):
        assert emission_from_dict(emission_to_dict(e)) == e
