"""The score and feature CSV readers: one parse per file, whole-array checks,
errors that name the file and the data row, and parity with the
row-at-a-time readers they replaced (``oracles.row_read_*``)."""

import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hierstream.core import FrameScores
from hierstream.detector import run_stream
from hierstream.scoring import streams
from hierstream.scoring.histogram import HistogramConfig, histogram_expectation
from hierstream.scoring.streams import read_features, read_scores, write_features, write_scores
from oracles import row_read_features, row_read_scores

DISTS = ("state_probs", "step_progress_dist", "substep_progress_dist")


def _dist(rng, k):
    p = rng.random(k) * (rng.random(k) < 0.8)
    p[rng.integers(k)] += 0.5
    return p / p.sum()


def random_scores(rng, n, bins):
    ts = np.cumsum(rng.uniform(1e-3, 1.0, n)) - rng.uniform(0, 2)
    return [FrameScores(float(t), _dist(rng, 3), _dist(rng, bins), _dist(rng, bins)) for t in ts]


def write_random_scores(path, rng, n=4, bins=10):
    write_scores(path, random_scores(rng, n, bins))


def write_random_features(path, rng, n=4, dim=3):
    write_features(path, np.cumsum(rng.uniform(1e-3, 1.0, n)), rng.normal(0, 10, (n, dim)))


def relayout(path, rng, layout):
    """Rewrite a CSV with LF or CRLF line ends, or with blank lines scattered in."""
    lines = path.read_text().splitlines()
    if layout == "lf":
        path.write_text("\n".join(lines) + "\n", newline="")
    elif layout == "crlf":
        path.write_text("\r\n".join(lines) + "\r\n", newline="")
    else:
        out = [lines[0]]
        for line in lines[1:]:
            out += [""] * int(rng.integers(0, 3)) + [line]
        path.write_text("\n".join(out + [""] * int(rng.integers(0, 3))) + "\n", newline="")


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.timestamp) is float and g.timestamp == w.timestamp
        for name in DISTS:
            assert np.array_equal(getattr(g, name), getattr(w, name))


class TestParityWithRowReader:
    @pytest.mark.parametrize("layout", ["lf", "crlf", "blank"])
    @pytest.mark.parametrize("seed", range(8))
    def test_scores(self, tmp_path, seed, layout):
        rng = np.random.default_rng(seed)
        path = tmp_path / "scores.csv"
        n = 1 if seed < 2 else int(rng.integers(2, 300))
        write_random_scores(path, rng, n=n, bins=int(rng.integers(1, 21)))
        relayout(path, rng, layout)
        assert_same_frames(read_scores(path), row_read_scores(path))

    @pytest.mark.parametrize("layout", ["lf", "crlf", "blank"])
    @pytest.mark.parametrize("seed", range(8))
    def test_features(self, tmp_path, seed, layout):
        rng = np.random.default_rng(seed)
        path = tmp_path / "features.csv"
        n = 1 if seed < 2 else int(rng.integers(2, 300))
        write_random_features(path, rng, n=n, dim=int(rng.integers(1, 40)))
        relayout(path, rng, layout)
        (ts, feats), (want_ts, want_feats) = read_features(path), row_read_features(path)
        assert ts.dtype == feats.dtype == np.float64
        assert np.array_equal(ts, want_ts) and np.array_equal(feats, want_feats)

    def test_frames_are_read_only_views_of_one_array(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_random_scores(path, np.random.default_rng(0))
        frames = read_scores(path)
        base = frames[0].state_probs.base
        assert base is not None and base.shape == (4, 24)
        assert all(getattr(fs, name).base is base for fs in frames for name in DISTS)
        for name in DISTS:
            with pytest.raises(ValueError):
                getattr(frames[1], name)[0] = 0.5


class TestDecodedProgress:
    @pytest.mark.parametrize("bins", [1, 7, 10, 32])
    def test_each_frame_carries_its_decodes(self, tmp_path, bins):
        path = tmp_path / "scores.csv"
        write_random_scores(path, np.random.default_rng(bins), n=60, bins=bins)
        cfg = HistogramConfig(bins=bins)
        for fs in read_scores(path):
            assert fs.substep_progress == histogram_expectation(fs.substep_progress_dist, cfg)
            assert fs.step_progress == histogram_expectation(fs.step_progress_dist, cfg)

    def test_sum_at_the_tolerance_edge_carries_its_decodes(self, tmp_path):
        # The step histogram misses one by 1e-6 less 3e-16: within tolerance
        # by numpy's sum, so the frame carries its decode like any other.
        path = tmp_path / "scores.csv"
        path.write_text("timestamp,bg,step,stepsub,sp0,sp1,ssp0,ssp1\n"
                        "0.0,0.0,0.0,1.0,0.5,0.5000009999999996,0.5,0.5\n")
        (fs,) = read_scores(path)
        assert fs.step_progress == float(fs.step_progress_dist @ HistogramConfig(bins=2).centers)
        assert fs.substep_progress == 0.5
        assert len(run_stream([fs], histogram=HistogramConfig(bins=2))) == 2

    @pytest.mark.parametrize("shift", [-1.5, 1.5])
    def test_decode_outside_the_unit_interval_refused(self, tmp_path, monkeypatch, shift):
        # Only above about 5e5 bins can a row that passes the per-bin checks
        # decode outside [0, 1]; shifting one row's decode stands in for
        # writing a file that wide.
        path = tmp_path / "scores.csv"
        write_random_scores(path, np.random.default_rng(5))
        decode = streams.histogram_expectations

        def shifted(dists, cfg):
            values = decode(dists, cfg)
            values[2] += shift
            return values

        monkeypatch.setattr(streams, "histogram_expectations", shifted)
        with pytest.raises(ValueError, match=r"scores.csv: data row 3: substep progress decodes to .*, outside \[0, 1\]"):
            read_scores(path)


def _edit_row(path, row, edit):
    """Apply ``edit`` to the cells of data row ``row`` (1-based) and put blank
    lines before it and after the header, which must not count as rows."""
    lines = path.read_text().splitlines()
    lines[row] = ",".join(edit(lines[row].split(",")))
    lines[row:row] = ["", ""]
    lines.insert(1, "")
    path.write_text("\n".join(lines) + "\n")


MALFORMED = {
    "short": lambda cells: cells[:-1],
    "wide": lambda cells: cells + ["0.0"],
    "text": lambda cells: cells[:2] + ["abc"] + cells[3:],
    "hash": lambda cells: cells[:2] + ["#"] + cells[3:],
    "leading hash": lambda cells: ["#" + cells[0]] + cells[1:],
    "empty cell": lambda cells: cells[:2] + [""] + cells[3:],
}
READERS = {
    "scores": (read_scores, row_read_scores, write_random_scores),
    "features": (read_features, row_read_features, write_random_features),
}


class TestMalformedRows:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_names_path_and_data_row(self, tmp_path, kind, case):
        reader, oracle, write = READERS[kind]
        path = tmp_path / f"{kind}.csv"
        write(path, np.random.default_rng(1))
        _edit_row(path, 3, MALFORMED[case])
        with pytest.raises(ValueError, match=f"{kind}.csv: data row 3: "):
            reader(path)
        if (kind, case) != ("scores", "wide"):  # the row reader ignored extra score cells
            with pytest.raises(ValueError):
                oracle(path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_row_wider_than_header(self, tmp_path, kind):
        reader, _, write = READERS[kind]
        path = tmp_path / f"{kind}.csv"
        write(path, np.random.default_rng(2))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [line + ",0.0" for line in lines[1:]]) + "\n")
        with pytest.raises(ValueError, match=f"{kind}.csv: data row 1: .* header has"):
            reader(path)

    @pytest.mark.parametrize("state", [[0.2, 0.3, 0.4], [1.2, -0.2, 0.0]])
    def test_bad_distribution_keeps_its_text(self, tmp_path, state):
        path = tmp_path / "scores.csv"
        frames = random_scores(np.random.default_rng(3), 4, 10)
        bad = frames[2]
        frames[2] = FrameScores(bad.timestamp, np.array(state),
                                bad.step_progress_dist, bad.substep_progress_dist)
        write_scores(path, frames)
        want = f"scores.csv: data row 3: invalid frame at t={bad.timestamp}: {frames[2].validate()}"
        with pytest.raises(ValueError, match=re.escape(want)):
            read_scores(path)
        with pytest.raises(ValueError, match=re.escape(want.split("data row 3: ")[1])):
            row_read_scores(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        write_random_features(path, np.random.default_rng(4))
        _edit_row(path, 3, lambda cells: cells[:2] + [cell] + cells[3:])
        with pytest.raises(ValueError, match=f"features.csv: data row 3: feature f1 is {cell}, not finite"):
            read_features(path)

    def test_distribution_checked_before_timestamps(self, tmp_path):
        path = tmp_path / "scores.csv"
        ok = (np.array([0.2, 0.3, 0.5]), np.full(10, 0.1), np.full(10, 0.1))
        frames = [FrameScores(t, *ok) for t in (0.0, 0.0, 1.0)]
        frames.append(FrameScores(2.0, np.array([0.5, 0.5, 0.5]), *ok[1:]))
        write_scores(path, frames)
        with pytest.raises(ValueError, match="data row 4: invalid frame at t=2.0"):
            read_scores(path)


class TestHeader:
    @pytest.mark.parametrize("blank_tail", ["", "\n\n"])
    def test_header_only(self, tmp_path, blank_tail):
        scores, features = tmp_path / "scores.csv", tmp_path / "features.csv"
        scores.write_text("timestamp,bg,step,stepsub,sp0,sp1,ssp0,ssp1\n" + blank_tail)
        features.write_text("timestamp,f0,f1,f2\r\n" + blank_tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_scores(scores) == []
            ts, feats = read_features(features)
        assert ts.shape == (0,) and feats.shape == (0, 3)

    @pytest.mark.parametrize("header", [
        "timestamp,bg,step,stepsub," + ",".join([f"sp{i}" for i in range(10)] + [f"ssp{i}" for i in range(9)]),
        "timestamp,bg,step,stepsub," + ",".join([f"ssp{i}" for i in range(2)] + [f"sp{i}" for i in range(2)]),
        "timestamp,bg,step,stepsub,sp0,sp2,ssp0,ssp1",
        "timestamp,bg,step,stepsub",
        "timestamp,step,bg,stepsub,sp0,ssp0",
    ])
    def test_score_header_must_match_format(self, tmp_path, header):
        path = tmp_path / "scores.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["0.1"] * width) + "\n")
        with pytest.raises(ValueError, match="scores.csv: not a score CSV"):
            read_scores(path)


finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _timestamps(n):
    return st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bins=st.integers(1, 16), n=st.integers(1, 12))
def test_score_round_trip_is_bit_identical(data, bins, n):
    def dist(k):
        w = np.array(data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)))
        assume(w.sum() > 0)
        return w / w.sum()

    frames = [FrameScores(t, dist(3), dist(bins), dist(bins)) for t in data.draw(_timestamps(n))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        write_scores(path, frames)
        got = read_scores(path)
    assert len(got) == n and all(type(g.timestamp) is float for g in got)
    assert np.array_equal(_bits([g.timestamp for g in got]), _bits([f.timestamp for f in frames]))
    for name in DISTS:
        assert np.array_equal(_bits([getattr(g, name) for g in got]),
                              _bits([getattr(f, name) for f in frames]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 16), n=st.integers(1, 12))
def test_feature_round_trip_is_bit_identical(data, dim, n):
    ts = np.array(data.draw(_timestamps(n)))
    feats = np.array(data.draw(st.lists(finite, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        write_features(path, ts, feats)
        got_ts, got_feats = read_features(path)
    assert np.array_equal(_bits(got_ts), _bits(ts))
    assert np.array_equal(_bits(got_feats), _bits(feats))
