"""Interval matching metrics: tIoU, optimal-matching F1, greedy matching,
and emission-delay statistics.

F1 follows the optimal one-to-one matching convention: build the full
gt x pred tIoU profit matrix, take the assignment maximizing total tIoU,
then count matched pairs at or above the threshold as true positives and
report 2*tp / (|gt| + |pred|). Matching is threshold-independent, so it
runs once per video: ``matched_rows`` keeps the matched pairs as rows, and
every threshold-dependent metric (F1, top-k F1, emission delay) reads them
through ``rows_at``, which holds the one threshold check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core import Interval
from ..detector import Emission
from .assignment import solve_max_profit

# F1 when both sides are empty; Algorithm-style 2*tp/(a+p) would divide by
# zero, and two empty sets agree perfectly.
EMPTY_VS_EMPTY_F1 = 1.0


# A matched pair: (tIoU, video index, gt index, pred index).
Row = tuple[Fraction, int, int, int]


def _threshold(threshold: float) -> Fraction:
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return Fraction(threshold)


def tiou(a: Interval, b: Interval) -> float:
    """Temporal intersection over union; 0 when the union has zero length."""
    inter = max(0.0, min(a.end, b.end) - max(a.start, b.start))
    union = a.length + b.length - inter
    if union <= 0:
        return 0.0
    return inter / union


def _tiou_fraction(a: Interval, b: Interval) -> Fraction:
    a_s, a_e = Fraction(a.start), Fraction(a.end)
    b_s, b_e = Fraction(b.start), Fraction(b.end)
    inter = max(Fraction(0), min(a_e, b_e) - max(a_s, b_s))
    union = (a_e - a_s) + (b_e - b_s) - inter
    if union <= 0:
        return Fraction(0)
    return inter / union


@dataclass(frozen=True)
class MatchResult:
    """Matched (gt, pred, tIoU) pairs plus threshold-dependent counts.

    In optimal-matching mode the pairs form a partial bijection; in greedy
    mode several predictions may share one ground-truth index.
    """

    pairs: tuple[tuple[int, int, float], ...]
    tp: int
    fn: int
    fp: int


def hungarian_match(gt: Sequence[Interval], pred: Sequence[Interval]) -> list[tuple[int, int, Fraction]]:
    """Optimal one-to-one matching by total tIoU, exact and deterministic.
    Only pairs with positive overlap are returned."""
    if not gt or not pred:
        return []
    profit = [[_tiou_fraction(g, p) for p in pred] for g in gt]
    pairs = solve_max_profit(profit)
    return [(i, j, profit[i][j]) for i, j in pairs]


def matched_rows(videos: Sequence[tuple[Sequence[Interval], Sequence[Interval]]]) -> list[Row]:
    """One optimal matching per video, as rows in video order. Instances
    never match across videos."""
    return [
        (t, v, i, j)
        for v, (gt, pred) in enumerate(videos)
        for i, j, t in hungarian_match(gt, pred)
    ]


def rows_at(rows: Sequence[Row], threshold: float) -> list[Row]:
    """The rows whose tIoU clears the threshold; the one tIoU threshold
    check that every row consumer goes through."""
    thr = _threshold(threshold)
    return [row for row in rows if row[0] >= thr]


def f1_at(rows: Sequence[Row], videos: Sequence[tuple[Sequence, Sequence]], threshold: float) -> float:
    """Micro-averaged F1 with the rows at or above the threshold as true
    positives; ``videos`` holds the (gt, pred) lists the rows index."""
    tp = len(rows_at(rows, threshold))
    total = sum(len(gt) + len(pred) for gt, pred in videos)
    return 2.0 * tp / total if total else EMPTY_VS_EMPTY_F1


def hungarian_f1(
    gt: Sequence[Interval], pred: Sequence[Interval], threshold: float
) -> tuple[float, MatchResult]:
    videos = [(gt, pred)]
    rows = matched_rows(videos)
    tp = len(rows_at(rows, threshold))
    result = MatchResult(
        pairs=tuple((i, j, float(t)) for t, _, i, j in rows),
        tp=tp,
        fn=len(gt) - tp,
        fp=len(pred) - tp,
    )
    return f1_at(rows, videos, threshold), result


def hungarian_f1_corpus(
    videos: Sequence[tuple[Sequence[Interval], Sequence[Interval]]], threshold: float
) -> float:
    """Micro-averaged F1 over per-video matchings."""
    return f1_at(matched_rows(videos), videos, threshold)


def greedy_match(
    gt: Sequence[Interval], pred: Sequence[Interval], threshold: float
) -> MatchResult:
    """Each prediction takes the ground truth with the highest tIoU (ties go
    to the earliest), kept when it clears the threshold. Several predictions
    may claim the same ground truth."""
    _threshold(threshold)
    pairs = []
    matched_gt = set()
    for j, p in enumerate(pred):
        if not gt:
            continue
        best_i = max(range(len(gt)), key=lambda i: (tiou(gt[i], p), -i))
        best = tiou(gt[best_i], p)
        if best >= threshold:
            pairs.append((best_i, j, best))
            matched_gt.add(best_i)
    return MatchResult(
        pairs=tuple(pairs),
        tp=len(pairs),
        fn=len(gt) - len(matched_gt),
        fp=len(pred) - len(pairs),
    )


@dataclass(frozen=True)
class DelayStats:
    """Emission-delay summary over true positives: mean absolute gap between
    emission time and the matched ground-truth end, plus the signed mean."""

    mean_abs: float
    mean_signed: float
    count: int


def delay_at(
    rows: Sequence[Row],
    videos: Sequence[tuple[Sequence[Interval], Sequence[Emission]]],
    threshold: float,
) -> DelayStats | None:
    """Pooled gaps between emission time and matched ground-truth end over
    the rows at or above the threshold; None when there are none."""
    gaps = [
        videos[v][1][j].emit_time - videos[v][0][i].end
        for _, v, i, j in rows_at(rows, threshold)
    ]
    if not gaps:
        return None
    return DelayStats(
        mean_abs=sum(abs(g) for g in gaps) / len(gaps),
        mean_signed=sum(gaps) / len(gaps),
        count=len(gaps),
    )


def aedt_corpus(
    videos: Sequence[tuple[Sequence[Interval], Sequence[Emission]]], threshold: float
) -> DelayStats | None:
    """Pooled emission-delay stats across videos."""
    rows = matched_rows([(gt, [e.instance.interval for e in pred]) for gt, pred in videos])
    return delay_at(rows, videos, threshold)


def aedt(
    gt: Sequence[Interval], pred: Sequence[Emission], threshold: float
) -> DelayStats | None:
    """Average emission delay over optimal-matching TPs at the threshold.
    Returns None when there are no true positives."""
    return aedt_corpus([(gt, pred)], threshold)
