"""The one online loop (``runner.run_described_stream``): detection alone
without a describer, the timestamp rule at its input, the progress decoded
once per score CSV, and the online invariants on random valid score
streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierstream import detector
from hierstream.core import FrameScores, HierarchyLevel
from hierstream.detector import DetectorConfig, run_stream
from hierstream.memory import ContextMemory
from hierstream.runner import mock_describer, run_described_stream
from hierstream.scoring.histogram import HistogramConfig, histogram_target
from hierstream.scoring.streams import read_scores, write_scores
from hierstream.simulator import SimConfig, gen_annotations, gen_scores

HIST = HistogramConfig()
NO_EOS = DetectorConfig(close_incomplete_at_eos=False)


def sim_stream(seed, noise=1.0):
    cfg = SimConfig(seed=seed, videos=1, noise_sigma=noise)
    (video,) = gen_annotations(cfg)
    return gen_scores(video, cfg.noise_sigma, cfg.fps, seed=seed)


def counting(calls: list):
    base = mock_describer()

    def describe(bundle, request):
        calls.append((bundle.level, bundle.interval))
        return base(bundle, request)

    return describe


def key(emissions):
    return [(e.instance.level, e.instance.interval, e.emit_time) for e in emissions]


class TestNoDescriber:
    def test_detection_only(self, monkeypatch):
        stream = sim_stream(seed=1)
        described = run_described_stream(stream, mock_describer())
        for name in ("insert_frame", "query", "commit_prediction"):
            monkeypatch.setattr(ContextMemory, name, lambda *a, **k: pytest.fail("memory used"))
        result = run_described_stream(iter(stream), None)
        assert result.emissions
        assert result.describe_calls == 0
        assert result.goal_text == ""
        assert all(e.instance.description == "" for e in result.emissions)
        assert key(result.emissions) == key(described.emissions)

    def test_run_stream_is_the_loop_without_describer(self):
        stream = sim_stream(seed=2)
        assert run_stream(stream) == run_described_stream(stream, None).emissions

    def test_frames_pulled_one_at_a_time(self):
        stream = sim_stream(seed=3)
        pulled, calls = [], []

        def frames():
            for fs in stream:
                # Every earlier frame's emissions were described before this pull.
                pulled.append(len(calls))
                yield fs

        result = run_described_stream(frames(), counting(calls))
        assert len(pulled) == len(stream)
        assert pulled[-1] == len([e for e in result.emissions if e.emit_time < stream[-1].timestamp])


@pytest.mark.parametrize("completion", [1.0, 0.6])
def test_read_back_stream_same_with_or_without_its_decodes(tmp_path, monkeypatch, completion):
    path = tmp_path / "scores.csv"
    write_scores(path, sim_stream(seed=4, noise=2.0))
    decoded = read_scores(path)
    assert all(fs.substep_progress is not None and fs.step_progress is not None for fs in decoded)
    stripped = [fs._replace(substep_progress=None, step_progress=None) for fs in decoded]
    decodes = []
    original = detector.histogram_expectation
    monkeypatch.setattr(detector, "histogram_expectation", lambda *a: decodes.append(1) or original(*a))

    def run(frames):
        prompts, base = [], mock_describer()

        def describe(bundle, request):
            prompts.append(request.prompt)
            return base(bundle, request)

        result = run_described_stream(frames, describe, completion=completion)
        return result.emissions, result.goal_text, prompts

    with_decodes = run(decoded)
    assert decodes == []  # the detector used the frames' own values
    without = run(stripped)
    assert decodes  # and decoded the stripped frames itself
    assert with_decodes[0] and with_decodes == without


def frames_at(timestamps):
    step = histogram_target(0.5, HIST)
    return [FrameScores(t, np.array([0.0, 0.0, 1.0]), step, step) for t in timestamps]


BAD_TIMESTAMPS = [
    ((0.0, math.nan, 1.0, 2.0), "timestamp nan is not finite"),
    ((0.0, 1.0, 2.0, math.inf), "timestamp inf is not finite"),
    ((0.0, 1.0, 1.0, 2.0), "timestamp 1.0 does not follow 1.0"),
]


@pytest.mark.parametrize("timestamps,why", BAD_TIMESTAMPS)
def test_run_stream_rejects_bad_timestamp(timestamps, why):
    with pytest.raises(ValueError, match=why):
        run_stream(frames_at(timestamps))


@pytest.mark.parametrize("timestamps,why", BAD_TIMESTAMPS)
def test_runner_rejects_bad_timestamp(timestamps, why):
    calls = []
    with pytest.raises(ValueError, match=why):
        run_described_stream(frames_at(timestamps), counting(calls))
    assert all(level != HierarchyLevel.GOAL for level, _ in calls)


def frames_with_state(state):
    """Four valid frames, the third carrying ``state`` as its state distribution."""
    frames = frames_at((0.0, 1.0, 2.0, 3.0))
    ok = frames[2]
    frames[2] = FrameScores(2.0, np.array(state), ok.step_progress_dist, ok.substep_progress_dist)
    return frames


NAN_STATES = [
    ((math.nan,) * 3, "frame at t=2.0: SUBSTEP actionness nan is not finite"),
    ((0.5, math.nan, 0.5), "frame at t=2.0: STEP actionness nan is not finite"),
]


@pytest.mark.parametrize("state,why", NAN_STATES, ids=["all-nan", "step-nan"])
def test_run_stream_rejects_nan_actionness(state, why):
    with pytest.raises(ValueError, match=why):
        run_stream(frames_with_state(state))


@pytest.mark.parametrize("state,why", NAN_STATES, ids=["all-nan", "step-nan"])
def test_runner_rejects_nan_actionness(state, why):
    calls = []
    with pytest.raises(ValueError, match=why):
        run_described_stream(frames_with_state(state), counting(calls))
    assert all(level != HierarchyLevel.GOAL for level, _ in calls)


# Finite actionness, but not a distribution (the detector never reads bg),
# or not the three states the detector reads.
BAD_STATES = [
    ((math.nan, 0.0, 1.0), "state distribution sums to nan, not 1"),
    ((math.inf, 0.0, 1.0), "state distribution sums to inf, not 1"),
    ((0.5, 0.0, 1.0), "state distribution sums to 1.5, not 1"),
    ((0.0, 0.0, 0.5), "state distribution sums to 0.5, not 1"),
    ((0.2, 0.1, 0.6, 0.1), r"state distribution has shape \(4,\), not 3 entries"),
    ((0.5, 0.5), r"state distribution has shape \(2,\), not 3 entries"),
    (((0.2,), (0.2,), (0.6,)), r"state distribution has shape \(3, 1\), not 3 entries"),
]
BAD_STATE_IDS = ["nan-bg", "inf-bg", "over", "under", "four", "two", "column"]


@pytest.mark.parametrize("state,why", BAD_STATES, ids=BAD_STATE_IDS)
def test_run_stream_rejects_bad_state_sum(state, why):
    with pytest.raises(ValueError, match=f"frame at t=2.0: {why}"):
        run_stream(frames_with_state(state))


@pytest.mark.parametrize("state,why", BAD_STATES, ids=BAD_STATE_IDS)
def test_runner_rejects_bad_state_sum(state, why):
    calls = []
    with pytest.raises(ValueError, match=f"frame at t=2.0: {why}"):
        run_described_stream(frames_with_state(state), counting(calls))
    assert all(level != HierarchyLevel.GOAL for level, _ in calls)


def test_run_stream_rejects_progress_decoded_outside_unit_interval():
    # Without the check, 1.4 at t=3 then 0.5 at t=4 reads as a progress drop
    # and closes SUBSTEP [0, 3] at t=4.
    frames = frames_at((0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    bad = np.zeros(HIST.bins)
    bad[0], bad[-1] = -0.5, 1.5
    ok = frames[3]
    frames[3] = FrameScores(3.0, ok.state_probs, ok.step_progress_dist, bad)
    with pytest.raises(ValueError, match=r"decodes to 1\.4\d*, outside \[0, 1\]"):
        run_stream(frames)


def test_state_sum_within_tolerance_accepted():
    frames = frames_with_state((1e-7, 0.0, 1.0))
    assert key(run_stream(frames)) == key(run_stream(frames_at((0.0, 1.0, 2.0, 3.0))))


# ----------------------------------------------------------------------
# properties on random valid score streams
# ----------------------------------------------------------------------

def _dist(weights):
    w = np.asarray(weights, dtype=np.float64) + 1e-3
    return w / w.sum()


@st.composite
def score_streams(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    unit = st.floats(0.0, 1.0)
    stream, t = [], 0.0
    for i in range(n):
        state = _dist(draw(st.lists(unit, min_size=3, max_size=3)))
        step_p, sub_p = draw(unit), draw(unit)
        stream.append(FrameScores(t, state, histogram_target(step_p, HIST), histogram_target(sub_p, HIST)))
        t += gaps[i]
    return stream


PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(stream=score_streams(), data=st.data())
def test_emissions_never_revised(stream, data):
    cut = data.draw(st.integers(1, len(stream)))
    full = run_described_stream(stream, mock_describer())
    head = run_described_stream(stream[:cut], mock_describer(), NO_EOS)
    assert head.emissions == full.emissions[:len(head.emissions)]
    # With end-of-stream closes on, the prefix run adds only those, at its end.
    closed = run_stream(stream[:cut])
    last = stream[cut - 1].timestamp
    assert key(closed[:len(head.emissions)]) == key(head.emissions)
    assert all(e.emit_time == e.instance.interval.end == last for e in closed[len(head.emissions):])


@PROPERTY
@given(stream=score_streams(), completion=st.sampled_from([1.0, 0.5]))
def test_one_describer_call_per_instance_plus_goal(stream, completion):
    calls = []
    result = run_described_stream(stream, counting(calls), completion=completion)
    assert result.describe_calls == len(calls) == len(result.emissions) + 1
    assert [level for level, _ in calls] == [e.instance.level for e in result.emissions] + [HierarchyLevel.GOAL]
    if completion == 1.0:
        assert [iv for _, iv in calls[:-1]] == [e.instance.interval for e in result.emissions]


@PROPERTY
@given(stream=score_streams())
def test_detection_same_with_or_without_describer(stream):
    alone = key(run_stream(stream))
    assert key(run_described_stream(stream, None).emissions) == alone
    assert key(run_described_stream(stream, mock_describer()).emissions) == alone


# Sums to one, but not a distribution: an entry below 0 or above 1.
OUT_OF_RANGE_STATES = [(-0.5, 0.5, 1.0), (0.0, 1.5, -0.5)]


@pytest.mark.parametrize("state", OUT_OF_RANGE_STATES, ids=["negative-bg", "step-above-one"])
def test_run_stream_rejects_state_entries_outside_unit_range(state):
    with pytest.raises(ValueError, match=r"frame at t=2\.0: state distribution \[.*\] has entries outside \[0, 1\]"):
        run_stream(frames_with_state(state))


@pytest.mark.parametrize("state", OUT_OF_RANGE_STATES, ids=["negative-bg", "step-above-one"])
def test_runner_rejects_state_entries_outside_unit_range(state):
    calls = []
    with pytest.raises(ValueError, match=r"frame at t=2\.0: .* has entries outside \[0, 1\]"):
        run_described_stream(frames_with_state(state), counting(calls))
    assert all(level != HierarchyLevel.GOAL for level, _ in calls)


def test_state_entries_within_slack_accepted():
    run_stream(frames_with_state((-5e-13, 0.5, 0.5 + 5e-13)))
