"""Property tests over the CLI's config flag tables (``cli._FLAGS``), in the
style of QuickCheck (Claessen and Hughes, ICFP 2000).

For every config-backed flag, a hostile value either builds its config
class through the builder the CLI uses, landing in the flag's field, or is
refused with a ValueError; nothing else escapes. Detector and HTTP-limit
values are also run through ``detect`` and ``describe`` in-process on a
one-video corpus with the mock describer.

``--videos``, ``--epochs``, ``--layers``, ``--hidden-dim``, ``--feature-dim``
and ``--max-inflight`` are checked against their class only and never run at
the drawn values: a run would make that many videos or epochs, arrays that
large, or that many threads.
"""

import argparse
import contextlib
import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierstream import cli

ROWS = [(cls, row) for cls, rows in cli._FLAGS.items() for row in rows]
GIVEN = {cli.ScorerConfig: {"feature_dim": 8}}  # a field the data gives, not a flag
RUN = {cli.DetectorConfig: "detect", cli.HttpLimits: "describe"}
NOT_RUN = {"--videos", "--epochs", "--layers", "--hidden-dim", "--feature-dim", "--max-inflight"}

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, -1.0, 0.5, 1.0, 2.0]),
    st.floats(),
)
INTS = st.one_of(st.sampled_from([0, -1, 1, 2, 2**31, 2**63, 2**70, -2**70]), st.integers(-2**70, 2**70))


def defaults(cls) -> argparse.Namespace:
    """What the CLI parses for ``cls``'s flags when none is given."""
    parser = argparse.ArgumentParser()
    cli._add_flags(parser, cls)
    return parser.parse_args([])


def dest(row) -> str:
    return row.flag[2:].replace("-", "_")


def hostile(row, args):
    """Values of the type the flag is read as."""
    default = getattr(args, dest(row))
    return st.booleans() if isinstance(default, bool) else INTS if isinstance(default, int) else FLOATS


def same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN is itself here


@pytest.mark.parametrize("cls", cli._FLAGS, ids=lambda cls: cls.__name__)
def test_default_flags_build_the_class_defaults(cls):
    desk = {row.field: row.desk for row in cli._FLAGS[cls] if row.desk is not None}
    assert cli._config(cls, defaults(cls), **GIVEN.get(cls, {})) == replace(cls(**GIVEN.get(cls, {})), **desk)


@pytest.mark.parametrize("cls,row", ROWS, ids=[row.flag for _, row in ROWS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hostile_value_builds_its_field_or_is_refused(cls, row, data):
    args = defaults(cls)
    value = data.draw(hostile(row, args))
    setattr(args, dest(row), value)
    try:
        built = cli._config(cls, args, **GIVEN.get(cls, {}))
    except ValueError:
        return
    field = getattr(built, row.field)
    assert same(field if row.index is None else field[row.index], not value if row.invert else value)


@pytest.mark.parametrize("cls", cli._FLAGS, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_values_in_every_flag_at_once_build_or_are_refused(cls, data):
    args = defaults(cls)
    for row in cli._FLAGS[cls]:
        setattr(args, dest(row), data.draw(hostile(row, args)))
    try:
        cli._config(cls, args, **GIVEN.get(cls, {}))
    except ValueError:
        pass


@pytest.fixture(scope="module")
def one_video(tmp_path_factory):
    root = tmp_path_factory.mktemp("one_video")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--videos", "1", "--out", str(root / "corpus")]) == 0
    return root


RUN_ROWS = [(cls, row) for cls, row in ROWS if cls in RUN and row.flag not in NOT_RUN]


def test_run_rows_cover_the_detector_and_http_limits():
    assert {row.flag for _, row in RUN_ROWS} == {
        "--start-threshold", "--drop-delta", "--min-progress-for-drop", "--no-eos-close", "--timeout",
        "--max-retries"}


@pytest.mark.parametrize("cls,row", RUN_ROWS, ids=[row.flag for _, row in RUN_ROWS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hostile_value_run_exits_cleanly(one_video, cls, row, data):
    value = data.draw(hostile(row, defaults(cls)))
    flags = ([row.flag] if value else []) if isinstance(value, bool) else [f"{row.flag}={value}"]
    argv = [RUN[cls], "--scores", str(one_video / "corpus" / "scores"), *flags, "--out", str(one_video / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
