"""CSV formats for feature sequences and score streams.

Features: one row per frame, ``timestamp,f0,...,f{D-1}``.
Scores:   one row per frame,
``timestamp,bg,step,stepsub,sp0..sp{B-1},ssp0..ssp{B-1}``
so a detector run never needs the model that produced the stream.

Each reader parses a file once into one float64 array, checks the whole
array, then slices it. Blank lines are skipped; an error names the file and
the data row (1-based, blank lines not counted). :func:`read_scores` also
decodes every progress histogram of the file at once, refuses a row whose
decode leaves [0, 1], and hands every frame its two decoded values, so the
detector decodes none of them.
"""

from __future__ import annotations

import csv

import numpy as np

from ..core import PROB_SLACK, PROB_SUM_TOL, FrameScores, check_timestamps, read_text
from .histogram import HistogramConfig, histogram_expectations


def _score_header(bins: int) -> list[str]:
    return (
        ["timestamp", "bg", "step", "stepsub"]
        + [f"sp{i}" for i in range(bins)]
        + [f"ssp{i}" for i in range(bins)]
    )


def _read_text(path) -> tuple[list[str], str]:
    """The header cells and the text of the data rows."""
    header, _, text = read_text(path).partition("\n")
    return header.split(","), text


def _parse(path, text: str, width: int) -> np.ndarray:
    """The data rows as one (rows, width) float64 array."""
    if not text.strip("\n"):  # header only; loadtxt would warn
        return np.zeros((0, width))
    try:
        data = np.loadtxt(text.split("\n"), delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == width:
            return data
        failure = None
    except ValueError as e:
        failure = e
    # numpy's row numbers skip blank lines inconsistently: find the row again.
    for n, line in enumerate((line for line in text.split("\n") if line), 1):
        try:
            got = np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape[1]
        except ValueError as e:
            raise ValueError(f"{path}: data row {n}: {str(e).split(' at row ')[0]}") from None
        if got != width:
            raise ValueError(f"{path}: data row {n}: {got} values, but the header has {width} columns")
    raise ValueError(f"{path}: {failure}")


def write_features(path, timestamps: np.ndarray, features: np.ndarray) -> None:
    features = np.asarray(features)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + [f"f{i}" for i in range(features.shape[1])])
        for t, row in zip(timestamps, features):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in row])


def read_features(path) -> tuple[np.ndarray, np.ndarray]:
    header, text = _read_text(path)
    if header[0] != "timestamp":
        raise ValueError(f"{path}: not a feature CSV (header {header[:3]}...)")
    data = _parse(path, text, len(header))
    finite = np.isfinite(data[:, 1:])
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: data row {i + 1}: feature f{j} is {float(data[i, j + 1])!r}, not finite")
    check_timestamps(data[:, 0], f"{path}: data row")
    return data[:, 0], data[:, 1:]


def write_scores(path, scores: list[FrameScores]) -> None:
    if not scores:
        raise ValueError("empty score stream")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_score_header(len(scores[0].step_progress_dist)))
        for fs in scores:
            row = (
                [fs.timestamp]
                + list(fs.state_probs)
                + list(fs.step_progress_dist)
                + list(fs.substep_progress_dist)
            )
            writer.writerow([repr(float(x)) for x in row])


def read_scores(path) -> list[FrameScores]:
    header, text = _read_text(path)
    bins = (len(header) - 4) // 2
    if bins < 1 or header != _score_header(bins):
        raise ValueError(
            f"{path}: not a score CSV (header {header[:4]}... with {len(header)} columns; "
            "expected timestamp,bg,step,stepsub,sp0..sp{B-1},ssp0..ssp{B-1} with B >= 1)"
        )
    data = _parse(path, text, len(header))
    data.setflags(write=False)
    dists = (data[:, 1:4], data[:, 4: 4 + bins], data[:, 4 + bins:])
    # FrameScores.validate's rules on every frame at once (the header fixes the state's shape).
    bad = np.zeros(len(data), dtype=bool)
    for block in dists:
        bad |= ((block < -PROB_SLACK) | (block > 1 + PROB_SLACK)).any(axis=1)
        bad |= ~(np.abs(block.sum(axis=1) - 1.0) <= PROB_SUM_TOL)  # NaN fails too
    if bad.any():
        i = int(np.argmax(bad))
        fs = FrameScores(data[i, 0].item(), *(block[i] for block in dists))
        raise ValueError(f"{path}: data row {i + 1}: invalid frame at t={fs.timestamp}: {fs.validate()}")
    check_timestamps(data[:, 0], f"{path}: data row")
    hist, progress = HistogramConfig(bins), []
    for i, name in ((2, "substep"), (1, "step")):  # FrameScores' order
        decoded = histogram_expectations(dists[i], hist)
        bad = ~((decoded >= 0.0) & (decoded <= 1.0))
        if bad.any():
            n = int(np.argmax(bad))
            raise ValueError(f"{path}: data row {n + 1}: {name} progress decodes to {decoded[n]}, outside [0, 1]")
        progress.append(decoded.tolist())
    return [FrameScores(*row) for row in zip(data[:, 0].tolist(), *dists, *progress)]
