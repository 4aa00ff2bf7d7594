"""Description-aware metrics: top-k F1 and goal accuracy.

Top-k F1 keeps the optimal interval matching and adds a semantic gate: a
threshold-passing pair stays a true positive only if the matched ground
truth description ranks within the top k of the whole evaluation corpus
when sorted by cosine similarity to the prediction's embedding. It reads
the rows of ``matching.matched_rows``; the rank does not depend on the
threshold, so each row is ranked once. Goal accuracy is top-1 retrieval of
the video's own goal among all goal texts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import ActionInstance
from .embedding import Embedder
from .matching import Row, f1_at, matched_rows, rows_at
from .matching import hungarian_match  # noqa: F401  (perfbench/spans.py wraps semantic.hungarian_match)


def description_rank(
    pred_vector: np.ndarray,
    corpus_vectors: np.ndarray,
    corpus: Sequence[str],
    target_text: str,
) -> int:
    """1-based rank of target_text in the corpus ordered by similarity to
    the prediction; similarity ties break by corpus order."""
    sims = corpus_vectors @ pred_vector
    order = sorted(range(len(corpus)), key=lambda i: (-sims[i], i))
    for rank, idx in enumerate(order, start=1):
        if corpus[idx] == target_text:
            return rank
    raise ValueError(f"description not present in corpus: {target_text!r}")


def topk_rows(
    rows: Sequence[Row],
    videos: Sequence[tuple[Sequence[ActionInstance], Sequence[ActionInstance]]],
    k: int,
    embedder: Embedder,
    corpus: Sequence[str],
) -> list[Row]:
    """The matched rows whose ground-truth description ranks within the
    top k for the matched prediction's description. Each row is ranked
    once; predictions are embedded one video at a time."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not corpus:
        raise ValueError("empty description corpus")
    corpus_vectors = embedder.embed(list(corpus))
    by_video: dict[int, list[Row]] = {}
    for row in rows:
        by_video.setdefault(row[1], []).append(row)
    hits = []
    for v, video_rows in by_video.items():
        gt, pred = videos[v]
        pred_vectors = embedder.embed([pred[j].description for _, _, _, j in video_rows])
        hits.extend(
            row for vec, row in zip(pred_vectors, video_rows)
            if description_rank(vec, corpus_vectors, corpus, gt[row[2]].description) <= k
        )
    return hits


def topk_f1_corpus(
    videos: Sequence[tuple[Sequence[ActionInstance], Sequence[ActionInstance]]],
    threshold: float,
    k: int,
    embedder: Embedder,
    corpus: Sequence[str],
) -> float:
    """Micro-averaged top-k F1 over per-video matchings."""
    rows = matched_rows(
        [([g.interval for g in gt], [p.interval for p in pred]) for gt, pred in videos]
    )
    hits = topk_rows(rows_at(rows, threshold), videos, k, embedder, corpus)
    return f1_at(hits, videos, threshold)


def goal_accuracy(
    pred_goals: Sequence[str], gt_goals: Sequence[str], embedder: Embedder
) -> float:
    """Fraction of videos whose own goal text is the nearest goal in the
    split to the predicted goal. Similarity ties that include the own goal
    count as correct."""
    if not gt_goals:
        raise ValueError("empty goal corpus")
    if len(pred_goals) != len(gt_goals):
        raise ValueError(
            f"{len(pred_goals)} predictions vs {len(gt_goals)} ground truths"
        )
    gt_vectors = embedder.embed(list(gt_goals))
    pred_vectors = embedder.embed(list(pred_goals))
    sims = pred_vectors @ gt_vectors.T
    correct = sum(
        1 for i in range(len(pred_goals)) if sims[i, i] >= sims[i].max() - 1e-12
    )
    return correct / len(pred_goals)
