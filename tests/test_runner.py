import pytest

from hierstream.core import HierarchyLevel
from hierstream.detector import DetectorConfig
from hierstream.memory import ContextMemory
from hierstream.runner import mock_describer, run_described_stream
from hierstream.simulator import SimConfig, gen_annotations, gen_scores

SUB = HierarchyLevel.SUBSTEP
STEP = HierarchyLevel.STEP


def stream_for(seed=0, videos=1, **overrides):
    cfg = SimConfig(seed=seed, videos=videos, **overrides)
    anns = gen_annotations(cfg)
    return cfg, anns, [gen_scores(a, cfg.noise_sigma, cfg.fps, seed=seed) for a in anns]


class TestDescribeCallPolicy:
    def test_one_call_per_instance_plus_goal(self):
        calls = {"n": 0}
        base = mock_describer()

        def counting(bundle, request):
            calls["n"] += 1
            return base(bundle, request)

        _, _, streams = stream_for(seed=1)
        result = run_described_stream(streams[0], counting)
        assert calls["n"] == len(result.emissions) + 1
        assert result.describe_calls == calls["n"]

    def test_goal_text_produced(self):
        _, _, streams = stream_for(seed=2)
        result = run_described_stream(streams[0], mock_describer())
        assert result.goal_text.startswith("goal[")


class TestDescriptions:
    def test_emissions_carry_short_forms(self):
        _, _, streams = stream_for(seed=3)
        result = run_described_stream(streams[0], mock_describer())
        assert result.emissions
        for e in result.emissions:
            assert e.instance.description
            assert e.instance.level.name.lower() in e.instance.description

    def test_deterministic(self):
        _, _, streams = stream_for(seed=4)
        a = run_described_stream(streams[0], mock_describer())
        b = run_described_stream(streams[0], mock_describer())
        assert a.emissions == b.emissions
        assert a.goal_text == b.goal_text


class TestMemoryInteraction:
    def test_goal_query_saw_one_frame_per_step(self):
        seen = {}
        base = mock_describer()

        def spying(bundle, request):
            if bundle.level == HierarchyLevel.GOAL:
                seen["frames"] = len(bundle.frames)
                seen["history"] = len(bundle.prior_predictions)
            return base(bundle, request)

        _, _, streams = stream_for(seed=5)
        result = run_described_stream(streams[0], spying)
        steps = [e for e in result.emissions if e.instance.level == STEP]
        assert seen["frames"] == len(steps)
        assert seen["history"] == len(steps)

    def test_substep_history_grows_within_step(self):
        histories = []
        base = mock_describer()

        def spying(bundle, request):
            if bundle.level == SUB:
                histories.append(len(bundle.prior_predictions))
            return base(bundle, request)

        # One step with several zero-gap substeps keeps one step run alive.
        _, _, streams = stream_for(
            seed=6, zero_gap_prob=1.0, steps_per_video=(1, 1), substeps_per_step=(4, 4),
        )
        run_described_stream(streams[0], spying)
        assert histories[0] == 0
        assert any(h > 0 for h in histories[1:])


class TestFrameHandles:
    """A frame is named only when a describer request includes it."""

    def test_called_once_per_returned_frame(self, monkeypatch):
        member_frames = 0
        insert = ContextMemory.insert_frame

        def counting_insert(self, timestamp, levels):
            nonlocal member_frames
            member_frames += bool(levels)
            insert(self, timestamp, levels)

        monkeypatch.setattr(ContextMemory, "insert_frame", counting_insert)
        named, returned = [], []
        base = mock_describer()

        def describe(bundle, request):
            returned.extend(bundle.frames)
            assert request.frame_handles == tuple(f"t{t!r}" for t in bundle.frames)
            return base(bundle, request)

        def frame_handle(t):
            named.append(t)
            return f"t{t!r}"

        _, _, streams = stream_for(seed=1, videos=3, noise_sigma=1.0)
        for stream in streams:
            run_described_stream(stream, describe, frame_handle=frame_handle)
        assert named == returned
        assert 0 < len(named) < member_frames

    def test_detection_alone_names_no_frame(self):
        named = []
        _, _, streams = stream_for(seed=1)
        result = run_described_stream(streams[0], None, frame_handle=named.append)
        assert result.emissions and named == []


class TestCompletion:
    def test_partial_completion_truncates_query_window(self):
        windows = []
        base = mock_describer()

        def spying(bundle, request):
            windows.append((bundle.level, bundle.interval))
            return base(bundle, request)

        _, _, streams = stream_for(seed=7)
        full = run_described_stream(streams[0], spying)
        full_windows = [w for w in windows if w[0] != HierarchyLevel.GOAL]
        windows.clear()
        partial = run_described_stream(streams[0], spying, completion=0.5)
        partial_windows = [w for w in windows if w[0] != HierarchyLevel.GOAL]

        assert [e.instance.interval for e in full.emissions] == [
            e.instance.interval for e in partial.emissions
        ]
        for (_, fw), (_, pw) in zip(full_windows, partial_windows):
            assert pw.start == fw.start
            assert pw.length == pytest.approx(0.5 * fw.length)

    def test_completion_domain(self):
        _, _, streams = stream_for(seed=8)
        with pytest.raises(ValueError):
            run_described_stream(streams[0], mock_describer(), completion=0.0)


def test_detector_config_respected():
    _, anns, streams = stream_for(seed=9, zero_gap_prob=1.0)
    merged = run_described_stream(
        streams[0], mock_describer(), detector_cfg=DetectorConfig(drop_delta=1.5),
    )
    hybrid = run_described_stream(streams[0], mock_describer())
    n_sub = len(anns[0].at_level(SUB))
    merged_subs = [e for e in merged.emissions if e.instance.level == SUB]
    hybrid_subs = [e for e in hybrid.emissions if e.instance.level == SUB]
    assert len(merged_subs) < n_sub
    assert len(hybrid_subs) == n_sub
