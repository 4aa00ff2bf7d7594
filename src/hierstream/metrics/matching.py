"""Interval matching metrics: exact tIoU, optimal-matching F1 and
emission-delay statistics.

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

from ..core import Emission, Interval
from .assignment import solve_max_profit

# F1 when both sides are empty; Algorithm-style 2*tp/(a+p) would divide by
# zero, and two empty sets agree perfectly.
EMPTY_VS_EMPTY_F1 = 1.0


# A matched pair: (tIoU, video index, gt index, pred index).
Row = tuple[Fraction, int, int, int]


def check_threshold(threshold: float) -> Fraction:
    """A tIoU threshold, checked to lie in (0, 1], as an exact fraction."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return Fraction(threshold)


def tiou(a: Interval, b: Interval) -> Fraction:
    """Temporal intersection over union, exact; 0 when the union has zero
    length."""
    a_s, a_e = Fraction(a.start), Fraction(a.end)
    b_s, b_e = Fraction(b.start), Fraction(b.end)
    inter = max(Fraction(0), min(a_e, b_e) - max(a_s, b_s))
    union = (a_e - a_s) + (b_e - b_s) - inter
    if union <= 0:
        return Fraction(0)
    return inter / union


def hungarian_match(gt: Sequence[Interval], pred: Sequence[Interval]) -> list[tuple[int, int, Fraction]]:
    """Optimal one-to-one matching by total tIoU, exact and deterministic.
    Only pairs with positive overlap are returned."""
    if not gt or not pred:
        return []
    profit = [[tiou(g, p) for p in pred] for g in gt]
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
    thr = check_threshold(threshold)
    return [row for row in rows if row[0] >= thr]


def f1_at(rows: Sequence[Row], videos: Sequence[tuple[Sequence, Sequence]], threshold: float) -> float:
    """Micro-averaged F1 with the rows at or above the threshold as true
    positives; ``videos`` holds the (gt, pred) lists the rows index."""
    tp = len(rows_at(rows, threshold))
    total = sum(len(gt) + len(pred) for gt, pred in videos)
    return 2.0 * tp / total if total else EMPTY_VS_EMPTY_F1


def hungarian_f1_corpus(
    videos: Sequence[tuple[Sequence[Interval], Sequence[Interval]]], threshold: float
) -> float:
    """Micro-averaged F1 over per-video matchings."""
    return f1_at(matched_rows(videos), videos, threshold)


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

