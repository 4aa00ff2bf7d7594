"""The benchmark's tracer (perfbench/spans.py) wraps hierstream names by
looking them up in a module's or class's own ``__dict__``. A refactor that
moves or drops one of those names makes ``perfbench/run.py --trace 1`` fail
with a KeyError, so each one must keep resolving."""

import importlib.util
from pathlib import Path

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
