"""The online loop: detector events drive emissions, memory writes and
describer calls.

:func:`run_described_stream` is the only code that turns an ended instance
into an :class:`Emission`. With a describer, every frame is also offered
to the context memory with its current hierarchy membership, and the
describer runs exactly once per completed instance plus once for the goal
at stream end. With ``describe=None`` (``detector.run_stream``) the loop
is detection alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import ActionInstance, Emission, FrameScores, HierarchyLevel, Interval
from .describer.mock import mock_describe
from .describer.responses import DescribeRequest, DescriberResponse, build_request, default_frame_handle
from .detector import DetectorConfig, EventKind, StreamDetector
from .memory import ContextMemory, Prediction, RetrievalBundle
from .scoring.histogram import HistogramConfig

DescribeFn = Callable[[RetrievalBundle, DescribeRequest], DescriberResponse]


def mock_describer() -> DescribeFn:
    return lambda bundle, _request: mock_describe(bundle)


@dataclass
class StreamResult:
    emissions: list[Emission]  # in emission order; described if a describer ran
    goal_text: str
    describe_calls: int


def check_completion(completion: float) -> None:
    """The rule for the describer's visible fraction of an instance."""
    if not 0 < completion <= 1.0:  # NaN fails too
        raise ValueError(f"completion must be in (0, 1], got {completion}")


def run_described_stream(
    scores: Iterable[FrameScores],
    describe: DescribeFn | None,
    detector_cfg: DetectorConfig = DetectorConfig(),
    histogram: HistogramConfig = HistogramConfig(),
    frame_handle: Callable[[float], str] = default_frame_handle,
    completion: float = 1.0,
) -> StreamResult:
    """Stream scores through detection, retrieval, and description.

    ``scores`` may be lazy: each frame is pulled only after the previous
    one's events are handled. With ``describe=None`` this is detection
    alone: memory stays empty and emissions carry no description.
    ``completion`` below 1.0 truncates each instance's retrieval window to
    its leading fraction before the describer sees it, for describing
    still-incomplete instances; emitted intervals are unaffected.
    ``frame_handle`` names each frame of each describer request, possibly
    more than once per frame, so it must be a pure function of the timestamp.
    """
    check_completion(completion)
    detector = StreamDetector(detector_cfg, histogram)
    memory = ContextMemory()
    emissions: list[Emission] = []
    calls = 0

    def describe_instance(instance: ActionInstance, emit_time: float) -> str:
        nonlocal calls
        query_iv = instance.interval
        if completion < 1.0 and instance.level != HierarchyLevel.GOAL:
            query_iv = Interval(
                query_iv.start,
                query_iv.start + completion * query_iv.length,
            )
        bundle = memory.query(ActionInstance(query_iv, "", instance.level))
        request = build_request(bundle, frame_handle)
        calls += 1
        response = describe(bundle, request)
        memory.commit_prediction(Prediction(
            level=instance.level,
            interval=instance.interval,
            short_form=response.short_form,
            long_form=response.long_form_after or response.short_form,
            created_at=emit_time,
        ))
        return response.short_form

    def handle_events(events) -> None:
        for ev in events:
            if ev.kind != EventKind.INSTANCE_ENDED:
                continue
            instance = ActionInstance(ev.interval, "", ev.level)
            if describe is not None:
                text = describe_instance(instance, ev.timestamp)
                instance = ActionInstance(ev.interval, text, ev.level)
            emissions.append(Emission(instance, ev.timestamp))

    last_ts = 0.0
    for fs in scores:
        events = detector.step(fs)
        last_ts = fs.timestamp
        if describe is not None:
            memory.insert_frame(last_ts, detector.ongoing_levels())
        if events:
            handle_events(events)

    handle_events(detector.finish())

    goal_text = ""
    if describe is not None:
        goal_instance = ActionInstance(Interval(0.0, last_ts), "", HierarchyLevel.GOAL)
        goal_text = describe_instance(goal_instance, last_ts)

    return StreamResult(
        emissions=emissions,
        goal_text=goal_text,
        describe_calls=calls,
    )
