"""The benchmark's tracer (perfbench/spans.py) wraps hierstream names by
looking them up in a module's or class's own ``__dict__``. A refactor that
moves or drops one of those names makes ``perfbench/run.py --trace 1`` fail
with a KeyError, so each one must keep resolving. A refactor that stops
calling a wrapped name (say, by inlining it) makes its traced metrics read 0
without any error, so the online loop's points must also be reached."""

import importlib.util
from collections import Counter
from pathlib import Path

from hierstream.simulator import SimConfig, gen_annotations, gen_scores

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    hs = load("workloads").HS
    points = load("spans").trace_points(hs)
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _note in points
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_online_loop_reaches_its_trace_points(monkeypatch):
    hs = load("workloads").HS
    wanted = [
        (hs.detector, "histogram_expectation"),
        (hs.memory.ContextMemory, "insert_frame"),
        (hs.memory.ContextMemory, "query"),
        (hs.memory.ContextMemory, "commit_prediction"),
    ]
    traced = {(owner, attr) for owner, attr, _name, _note in load("spans").trace_points(hs)}
    assert set(wanted) <= traced
    calls = Counter()
    for owner, attr in wanted:
        original = owner.__dict__[attr]

        def counted(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    cfg = SimConfig(seed=3, videos=1, duration_range=(20.0, 30.0))
    (video,) = gen_annotations(cfg)
    result = hs.runner.run_described_stream(gen_scores(video, 0.0, cfg.fps), hs.runner.mock_describer())
    assert result.emissions
    assert set(calls) == {attr for _owner, attr in wanted}
