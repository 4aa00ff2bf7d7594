"""CSV formats for feature sequences and score streams.

Features: one row per frame, ``timestamp,f0,...,f{D-1}``.
Scores:   one row per frame,
``timestamp,bg,step,stepsub,sp0..sp{B-1},ssp0..ssp{B-1}``
so a detector run never needs the model that produced the stream.
"""

from __future__ import annotations

import csv

import numpy as np

from ..core import FrameScores


def _check_timestamps(path, ts: np.ndarray) -> None:
    """Reject a non-finite timestamp or one not strictly after the row before."""
    bad = ~np.isfinite(ts)
    bad[1:] |= ~(ts[1:] > ts[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        why = "is not finite" if not np.isfinite(ts[i]) else f"does not follow {float(ts[i - 1])!r}"
        raise ValueError(f"{path}: data row {i + 1}: timestamp {float(ts[i])!r} {why}")


def write_features(path, timestamps: np.ndarray, features: np.ndarray) -> None:
    features = np.asarray(features)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + [f"f{i}" for i in range(features.shape[1])])
        for t, row in zip(timestamps, features):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in row])


def read_features(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "timestamp":
            raise ValueError(f"{path}: not a feature CSV (header {header[:3]}...)")
        rows = [[float(x) for x in row] for row in reader if row]
    data = np.array(rows, dtype=np.float64)
    if data.size == 0:
        return np.zeros(0), np.zeros((0, len(header) - 1))
    _check_timestamps(path, data[:, 0])
    return data[:, 0], data[:, 1:]


def write_scores(path, scores: list[FrameScores]) -> None:
    if not scores:
        raise ValueError("empty score stream")
    bins = len(scores[0].step_progress_dist)
    header = (
        ["timestamp", "bg", "step", "stepsub"]
        + [f"sp{i}" for i in range(bins)]
        + [f"ssp{i}" for i in range(bins)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for fs in scores:
            row = (
                [fs.timestamp]
                + list(fs.state_probs)
                + list(fs.step_progress_dist)
                + list(fs.substep_progress_dist)
            )
            writer.writerow([repr(float(x)) for x in row])


def read_scores(path) -> list[FrameScores]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["timestamp", "bg", "step", "stepsub"]:
            raise ValueError(f"{path}: not a score CSV (header {header[:4]})")
        bins = sum(1 for name in header if name.startswith("sp"))
        out = []
        for row in reader:
            if not row:
                continue
            vals = [float(x) for x in row]
            fs = FrameScores(
                timestamp=vals[0],
                state_probs=np.array(vals[1:4]),
                step_progress_dist=np.array(vals[4: 4 + bins]),
                substep_progress_dist=np.array(vals[4 + bins: 4 + 2 * bins]),
            )
            problems = fs.validate()
            if problems:
                raise ValueError(f"{path}: invalid frame at t={vals[0]}: {problems}")
            out.append(fs)
    _check_timestamps(path, np.array([fs.timestamp for fs in out]))
    return out
