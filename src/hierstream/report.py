"""Corpus-level evaluation: localization F1, description-aware F1, emission
delay, and goal accuracy assembled into one JSON-friendly report.

Each level is matched once per video (``matching.matched_rows``); F1 at
every threshold, top-k F1 and emission delay are all read from those rows.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import AnnotationSet, HierarchyLevel
from .detector import Emission
from .metrics.embedding import Embedder
from .metrics.matching import delay_at, f1_at, matched_rows, rows_at
from .metrics.semantic import goal_accuracy, topk_rows
# Unused here; perfbench/spans.py wraps these names on this module.
from .metrics.matching import aedt_corpus, hungarian_f1_corpus  # noqa: F401
from .metrics.semantic import topk_f1_corpus  # noqa: F401

LEVEL_KEYS = {HierarchyLevel.SUBSTEP: "substep", HierarchyLevel.STEP: "step"}


def evaluate_corpus(
    annotations: Sequence[AnnotationSet],
    emissions_by_video: Mapping[str, Sequence[Emission]],
    goals_by_video: Mapping[str, str] | None = None,
    thresholds: Sequence[float] = (0.3, 0.5, 0.7),
    k: int = 5,
    embedder: Embedder | None = None,
    aedt_threshold: float = 0.5,
) -> dict:
    """Evaluate predicted emissions against annotations, per level.

    At least one tIoU threshold is required. Description-aware F1 is
    reported only when predictions carry descriptions and an embedder is
    supplied; goal accuracy only when a goal text exists for every
    annotated video.
    """
    if not thresholds:
        raise ValueError("at least one tIoU threshold is required")
    report: dict = {"thresholds": list(thresholds), "levels": {}}

    for level, key in LEVEL_KEYS.items():
        per_video = []
        instance_pairs = []
        for a in annotations:
            gt_instances = list(a.at_level(level))
            preds = [
                e for e in emissions_by_video.get(a.video_id, [])
                if e.instance.level == level
            ]
            per_video.append(([i.interval for i in gt_instances], preds))
            instance_pairs.append((gt_instances, [e.instance for e in preds]))
        rows = matched_rows([(g, [e.instance.interval for e in p]) for g, p in per_video])

        entry: dict = {
            "gt_instances": sum(len(g) for g, _ in instance_pairs),
            "pred_instances": sum(len(p) for _, p in instance_pairs),
            "f1_loc": {str(t): f1_at(rows, per_video, t) for t in thresholds},
        }

        corpus = [i.description for g, _ in instance_pairs for i in g]
        any_description = any(i.description for _, p in instance_pairs for i in p)
        if any_description and embedder is not None and corpus:
            hits = topk_rows(rows_at(rows, min(thresholds)), instance_pairs, k, embedder, corpus)
            entry["f1_loc_desc"] = {str(t): f1_at(hits, per_video, t) for t in thresholds}
            entry["topk"] = k
        else:
            entry["f1_loc_desc"] = None

        delay = delay_at(rows, per_video, aedt_threshold)
        entry["aedt"] = (
            None if delay is None else {
                "threshold": aedt_threshold,
                "mean_abs": delay.mean_abs,
                "mean_signed": delay.mean_signed,
                "count": delay.count,
            }
        )
        report["levels"][key] = entry

    if goals_by_video and embedder is not None:
        with_goals = [a for a in annotations if a.video_id in goals_by_video]
        if with_goals and len(with_goals) == len(annotations):
            report["goal_accuracy"] = goal_accuracy(
                [goals_by_video[a.video_id] for a in annotations],
                [a.goal for a in annotations],
                embedder,
            )
        else:
            report["goal_accuracy"] = None
    else:
        report["goal_accuracy"] = None

    return report
