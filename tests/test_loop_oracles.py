"""The online loop's detector, decode and context memory against their
earlier forms in ``oracles``: every event after every frame, every decoded
value, and every retrieval bundle must be the same."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hierstream import detector, runner
from hierstream.core import ActionInstance, HierarchyLevel, Interval
from hierstream.describer.responses import default_frame_handle
from hierstream.detector import DetectorConfig, StreamDetector
from hierstream.memory import ContextMemory, Prediction
from hierstream.runner import mock_describer, run_described_stream
from hierstream.scoring.histogram import HistogramConfig, histogram_expectation
from hierstream.simulator import SimConfig, gen_annotations, gen_scores

from oracles import EventKind, ScanDetector, ScanMemory, actionness, scan_histogram_expectation

SUB = HierarchyLevel.SUBSTEP
STEP = HierarchyLevel.STEP
GOAL = HierarchyLevel.GOAL
PROPERTY = settings(max_examples=60, deadline=None)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
       power=st.floats(0.1, 8.0), spoil=st.sampled_from([None, 0, 9]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1e-7]))
def test_decode_matches_scan(weights, power, spoil, bad):
    w = np.asarray(weights) ** power + 1e-9
    dist = w / w.sum()
    if spoil is not None:
        dist[spoil] += bad
    assert outcome(histogram_expectation, dist) == outcome(scan_histogram_expectation, dist)


def test_decode_matches_scan_on_non_arrays():
    cfg = HistogramConfig(bins=4)
    for dist in ([0.25] * 4, (0.1, 0.2, 0.3, 0.4), np.array([1, 0, 0, 0]), np.float32([0.5, 0.5, 0, 0]),
                 [0.5] * 3, [[0.25] * 4]):
        assert outcome(histogram_expectation, dist, cfg) == outcome(scan_histogram_expectation, dist, cfg)


@st.composite
def sim_streams(draw):
    cfg = SimConfig(
        seed=draw(st.integers(0, 10_000)), videos=1,
        zero_gap_prob=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),  # 1.0: every instance abuts the next
        noise_sigma=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
        duration_range=(20.0, 50.0),
    )
    (video,) = gen_annotations(cfg)
    return gen_scores(video, cfg.noise_sigma, cfg.fps, seed=cfg.seed)


detector_configs = st.builds(
    DetectorConfig,
    start_threshold=st.floats(0.2, 0.8),
    drop_delta=st.floats(0.1, 0.7),
    min_progress_for_drop=st.floats(0.0, 1.0),
    close_incomplete_at_eos=st.booleans(),
)


@PROPERTY
@given(stream=sim_streams(), cfg=detector_configs)
def test_detector_matches_scan_after_every_frame(stream, cfg):
    det, scan = StreamDetector(cfg), ScanDetector(cfg)
    for fs in stream:
        assert det.step(fs) == scan.step(fs)
        assert det.ongoing_levels() == scan.ongoing_levels()
    *scan_closes, goal_due = scan.finish()
    assert goal_due.kind == EventKind.GOAL_DUE
    assert det.finish() == scan_closes


@PROPERTY
@given(stream=sim_streams(), cfg=detector_configs)
def test_decodes_only_where_a_level_is_open_or_may_open(stream, cfg):
    """``gen_scores`` frames carry no decodes, so the detector decodes one
    histogram for each (frame, level) pair whose level was open before the
    frame or whose actionness reached the start threshold, and no other."""
    scan, due = ScanDetector(cfg), 0
    for fs in stream:
        open_before = scan.ongoing_levels()
        due += sum(level in open_before or actionness(fs, level) >= cfg.start_threshold
                   for level in scan.LEVELS)
        scan.step(fs)
    calls = []
    with mock.patch.object(detector, "histogram_expectation",
                           lambda *a: calls.append(1) or histogram_expectation(*a)):
        det = StreamDetector(cfg)
        for fs in stream:
            det.step(fs)
    assert len(calls) == due


def handle(t):
    """A frame handle that differs for every timestamp."""
    return f"h{t!r}"


def same_frames(memory, scan):
    """Whether both memories store the same frames: timestamps and memberships."""
    return list(zip(memory._times, memory._frames)) == [
        (f.timestamp, f.member_levels) for f in scan._frames
    ]


class EagerMemory(ScanMemory):
    """A ScanMemory that names every stored frame on insert with
    ``frame_handle``, as the loop once did. Its bundles hold the frames'
    timestamps, as ContextMemory's do; ``handles`` keeps each query's
    names."""

    def __init__(self, frame_handle=default_frame_handle):
        super().__init__()
        self.frame_handle = frame_handle
        self.handles = []

    def insert_frame(self, timestamp, levels):
        super().insert_frame(timestamp, levels, self.frame_handle(timestamp))

    def query(self, instance):
        bundle = super().query(instance)
        self.handles.append(tuple(f.handle for f in bundle.frames))
        return replace(bundle, frames=tuple(f.timestamp for f in bundle.frames))


def same_bundles(memory, scan, instance):
    """Query both memories; the bundles must be equal, and ``scan``'s frame
    names must be what its ``frame_handle`` makes of the returned times."""
    bundle = memory.query(instance)
    assert bundle == scan.query(instance)
    assert tuple(map(scan.frame_handle, bundle.frames)) == scan.handles[-1]
    return bundle


class TandemMemory:
    """Every write goes to a ContextMemory and an EagerMemory; every query
    must return the same bundle from both. ``bundles`` keeps them in order."""

    def __init__(self):
        self.memory, self.scan = ContextMemory(), EagerMemory()
        self.bundles = []

    def insert_frame(self, *args):
        self.memory.insert_frame(*args)
        self.scan.insert_frame(*args)

    def commit_prediction(self, p):
        self.memory.commit_prediction(p)
        self.scan.commit_prediction(p)
        assert same_frames(self.memory, self.scan)

    def query(self, instance):
        self.bundles.append(same_bundles(self.memory, self.scan, instance))
        return self.bundles[-1]


@PROPERTY
@given(stream=sim_streams(), completion=st.sampled_from([1.0, 0.5]))
def test_memory_matches_scan_in_the_loop(stream, completion):
    memories = []

    def tandem():
        memories.append(TandemMemory())
        return memories[-1]

    with mock.patch.object(runner, "ContextMemory", tandem):
        result = run_described_stream(stream, mock_describer(), completion=completion)
    (memory,) = memories
    assert len(memory.bundles) == result.describe_calls == len(result.emissions) + 1


def test_describe_requests_match_the_eager_memory():
    cfg = SimConfig(seed=3, videos=10, noise_sigma=1.0)
    for video in gen_annotations(cfg):
        stream = gen_scores(video, cfg.noise_sigma, cfg.fps, seed=cfg.seed)
        runs, eager = [], []

        def eager_memory():
            eager.append(EagerMemory())
            return eager[-1]

        for memory in (ContextMemory, eager_memory):
            requests = []
            base = mock_describer()

            def describe(bundle, request):
                requests.append(request)
                return base(bundle, request)

            with mock.patch.object(runner, "ContextMemory", memory):
                result = run_described_stream(stream, describe)
            runs.append((requests, result.emissions, result.goal_text))
        assert any(r.frame_handles for r in runs[0][0])
        assert runs[0] == runs[1]
        assert [r.frame_handles for r in runs[0][0]] == eager[0].handles


def test_bundle_frames_ascend_and_equal_the_scan_at_every_level():
    """Every bundle's frames are timestamps in strictly ascending order, and
    the scan memory's (checked by TandemMemory), for all three levels."""
    memories = []

    def tandem():
        memories.append(TandemMemory())
        return memories[-1]

    cfg = SimConfig(seed=5, videos=10, zero_gap_prob=0.5, noise_sigma=1.0)
    for video in gen_annotations(cfg):
        stream = gen_scores(video, cfg.noise_sigma, cfg.fps, seed=cfg.seed)
        with mock.patch.object(runner, "ContextMemory", tandem):
            run_described_stream(stream, mock_describer())
    bundles = [bundle for memory in memories for bundle in memory.bundles]
    assert len(memories) == cfg.videos
    for bundle in bundles:
        assert all(type(t) is float for t in bundle.frames)
        assert all(a < b for a, b in zip(bundle.frames, bundle.frames[1:]))
    assert {b.level for b in bundles if len(b.frames) > 1} == {SUB, STEP, GOAL}


MEMBERSHIPS = [set(), {STEP}, {SUB}, {SUB, STEP}]
# 1e-17 steps by one ulp near 1 and more: distances to a midpoint then round
# to ties between frames several apart.
GAPS = st.sampled_from([0.25, 0.5, 1.0, 3.3, 1e-17])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_memory_matches_scan_on_random_operations(data):
    """Random inserts, commits and queries, each applied to a ContextMemory
    and a ScanMemory and compared. Interval ends never pass the last frame."""
    memory, scan = ContextMemory(), EagerMemory(handle)
    t = data.draw(st.sampled_from([0.0, 1.0, 1e6]))
    seen: list[float] = []
    for n in range(data.draw(st.integers(1, 80))):
        op = data.draw(st.sampled_from(["insert", "insert", "insert", "commit", "query"]))
        if op == "insert" or not seen:
            levels = data.draw(st.sampled_from(MEMBERSHIPS))
            memory.insert_frame(t, levels)
            scan.insert_frame(t, levels)
            seen.append(t)
            t = max(t + data.draw(GAPS), math.nextafter(t, math.inf))
            continue
        point = st.one_of(st.sampled_from(seen), st.floats(0.0, seen[-1]))
        start, end = sorted((data.draw(point), data.draw(point)))
        iv = Interval(start, end)
        level = data.draw(st.sampled_from([SUB, STEP, STEP, GOAL]))
        if op == "commit":
            p = Prediction(level, iv, f"short {n}", f"long {n}", created_at=seen[-1])
            memory.commit_prediction(p)
            scan.commit_prediction(p)
            assert same_frames(memory, scan)
        else:
            same_bundles(memory, scan, ActionInstance(iv, "", level))
    same_bundles(memory, scan, ActionInstance(Interval(0.0, seen[-1]), "", GOAL))


def prune_both(times, interval):
    memory, scan = ContextMemory(), EagerMemory(handle)
    for t in times:
        memory.insert_frame(t, {SUB, STEP})
        scan.insert_frame(t, {SUB, STEP})
    p = Prediction(STEP, interval, "s", "l", created_at=times[-1])
    memory.commit_prediction(p)
    scan.commit_prediction(p)
    assert same_frames(memory, scan)
    return memory._times


def test_prune_midpoint_between_two_frames_keeps_the_earlier():
    # Midpoint 0.375 is 0.125 from both 0.25 and 0.5.
    assert prune_both([0.0, 0.25, 0.5, 0.75, 1.0], Interval(0.0, 0.75)) == [0.25, 1.0]


def test_prune_rounding_tie_keeps_the_earliest():
    # Midpoint 1.0: 1.0 - 1e-17 rounds to 1.0, so 0.0, 1e-17 and 2.0 all tie.
    assert prune_both([0.0, 1e-17, 2.0], Interval(0.0, 2.0)) == [0.0]
    assert prune_both([0.0, 1e-17, 1.5, 2.0], Interval(0.0, 2.0)) == [1.5]
