"""Span tracing from outside the program.

A :class:`Tracer` replaces module or class attributes at the points where
hierstream's callers look them up, records one span per call (name, start,
end, parent span, trace id) and restores every attribute on
:meth:`Tracer.uninstall`. Nothing in ``src/`` is edited. Spans stay in
memory; self time is derived from them after the traced operation ends.

The trace id of a span is ``(video, frame)`` as set by the benchmark loop
through :attr:`Tracer.ctx`; the workload name is added when spans are
written out.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter_ns


def _frames_of_first_array(_tr, args, _result) -> dict:
    # ScorerModel.forward(self, features, h0)
    return {"frames": args[1].shape[0]}


def _frames_of_cache(_tr, args, _result) -> dict:
    # ScorerModel.backward(self, cache, d_logits, h0)
    return {"frames": args[1]["features"].shape[0]}


def _frames_read(_tr, _args, result) -> dict:
    # read_scores -> list of frames; read_features -> (timestamps, features)
    return {"frames": len(result[0]) if isinstance(result, tuple) else len(result)}


def _step_events(tr, _args, result) -> None:
    for ev in result:
        if ev.kind is tr.event_kinds.INSTANCE_STARTED:
            tr.counts["detector.starts"] += 1
        elif ev.kind is tr.event_kinds.INSTANCE_ENDED:
            # A drop end closes at the previous frame, a threshold end at
            # the current one.
            cause = "drop" if ev.interval.end < ev.timestamp else "threshold"
            tr.counts[f"detector.ends_{cause}"] += 1


def _finish_events(tr, _args, result) -> None:
    for ev in result:
        if ev.kind is tr.event_kinds.INSTANCE_ENDED:
            tr.counts["detector.ends_eos"] += 1


def _memory_size(tr, args, _result) -> None:
    tr.counts["memory.frames_peak"] = max(tr.counts["memory.frames_peak"], len(args[0]._frames))


def _query(tr, args, result) -> None:
    # Queries are pure reads, so the store size after the call is the size
    # the query scanned.
    tr.counts["memory.prior_held"] += len(args[0]._predictions)
    tr.counts["memory.prior_returned"] += len(result.prior_predictions)
    tr.counts["memory.bundle_frames"] += len(result.frames)


def _prompt(tr, _args, result) -> None:
    tr.counts["describer.prompt_bytes"] += len(result.prompt.encode("utf-8"))


def _emissions(tr, _args, result) -> None:
    tr.counts["runner.emissions"] += len(result.emissions)


def _match(tr, args, _result) -> None:
    gt, pred = args[0], args[1]
    tr.counts["metrics.match_cells"] += len(gt) * len(pred)
    tr.match_inputs.add((tuple(gt), tuple(pred)))


def trace_points(hs) -> list[tuple]:
    """(owner, attribute, span name, note) for every wrapped call site.

    ``hs`` is the namespace of hierstream modules. Each owner is the module
    or class the caller resolves the name through at call time.
    """
    return [
        (hs.streams, "read_scores", "streams.read", _frames_read),
        (hs.streams, "read_features", "streams.read", _frames_read),
        (hs.core, "read_annotations", "core.read_annotations", None),
        (hs.rnn.ScorerModel, "forward", "rnn.forward", _frames_of_first_array),
        (hs.rnn.ScorerModel, "backward", "rnn.backward", _frames_of_cache),
        (hs.rnn.ScorerModel, "window_loss", "rnn.window_loss", None),
        (hs.rnn, "infer_scores", "rnn.infer_scores", None),
        (hs.train, "train_scorer", "train.train_scorer", None),
        (hs.train, "build_frame_targets", "train.targets", None),
        (hs.train.AdamW, "step", "train.adamw_step", None),
        (hs.detector, "histogram_expectation", "histogram.decode", None),
        (hs.detector.StreamDetector, "step", "detector.step", _step_events),
        (hs.detector.StreamDetector, "finish", "detector.finish", _finish_events),
        (hs.memory.ContextMemory, "insert_frame", "memory.insert", _memory_size),
        (hs.memory.ContextMemory, "query", "memory.query", _query),
        (hs.memory.ContextMemory, "commit_prediction", "memory.commit", _memory_size),
        (hs.runner, "build_request", "describer.build_request", _prompt),
        (hs.runner, "mock_describe", "describer.describe", None),
        (hs.runner, "run_described_stream", "runner.run", _emissions),
        (hs.report, "evaluate_corpus", "report.evaluate_corpus", None),
        (hs.report, "hungarian_f1_corpus", "metrics.f1", None),
        (hs.report, "topk_f1_corpus", "metrics.topk", None),
        (hs.report, "aedt_corpus", "metrics.aedt", None),
        (hs.report, "goal_accuracy", "metrics.goal", None),
        (hs.matching, "hungarian_match", "metrics.match", _match),
        (hs.semantic, "hungarian_match", "metrics.match", _match),
        (hs.matching, "solve_max_profit", "metrics.solve", None),
        (hs.semantic, "description_rank", "metrics.rank", None),
        (hs.embedding.HashedBagOfWordsEmbedder, "embed", "metrics.embed", None),
    ]


class Tracer:
    """Spans of one traced operation. Install, run, uninstall, summarize."""

    def __init__(self, hs) -> None:
        self.hs = hs
        self.event_kinds = hs.detector.EventKind
        # Each span: [name, parent index, start ns, end ns, trace id, note].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ctx: tuple = (-1, -1)
        self.counts: Counter = Counter()
        self.match_inputs: set = set()
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, _clock(), 0, self.ctx, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        self.stack.pop()

    def _wrap(self, fn, name: str, note):
        spans, stack, tracer = self.spans, self.stack, self

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, tracer.ctx, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if note is not None:
                span[5] = note(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in trace_points(self.hs):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived figures -------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self.counts, len(self.match_inputs))

    def dump_rows(self, workload: str) -> list[dict]:
        return [
            {
                "name": name, "parent": parent, "start_ns": t0, "end_ns": t1,
                "trace": f"{workload}/{ctx[0]}/{ctx[1]}",
            }
            for name, parent, t0, t1, ctx, _note in self.spans
        ]


class SpanSummary:
    """Per-name call counts, inclusive and self time, durations and notes."""

    def __init__(self, spans: list[list], counts: Counter, unique_matches: int) -> None:
        self.counts = Counter(counts)
        self.unique_matches = unique_matches
        n = len(spans)
        parent = np.fromiter((s[1] for s in spans), dtype=np.int64, count=n)
        dur = np.fromiter((s[3] - s[2] for s in spans), dtype=np.float64, count=n) / 1e9
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.frames: Counter = Counter()
        for i, span in enumerate(spans):
            name = span[0]
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_time[name] += own[i]
            self.durations[name].append(dur[i])
            if span[5]:
                self.frames[name] += span[5]["frames"]
