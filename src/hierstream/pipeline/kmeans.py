"""Step-description canonicalization: Lloyd's k-means over unit-norm text
embeddings with k-means++ seeding, plus one representative caption per
cluster.

Points live on the unit sphere, so the squared-Euclidean objective is the
cosine-induced one. Without a chat client the representative caption is
the member description closest to the cluster centroid, which keeps the
whole pass deterministic and offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..metrics.embedding import Embedder
from .clients import ChatClient

MAX_ITERATIONS = 100
REL_TOLERANCE = 1e-6

CAPTION_PROMPT = """The following step descriptions were clustered together because they describe similar activities.
Write one short caption that best represents all of them.

Descriptions:
{descriptions}

Reply with the caption only."""


def _caption(reply: str) -> str:
    if not reply.strip():
        raise ValueError("empty caption")  # re-asked over HTTP
    return reply.strip()


@dataclass(frozen=True)
class KMeansResult:
    assignments: tuple[int, ...]
    representatives: tuple[str, ...]
    objective_trace: tuple[float, ...]  # objective after each Lloyd iteration


def _kmeanspp_centers(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass sits on already-chosen points; take point 0,
            # so the choice stays deterministic.
            chosen = 0
        else:
            chosen = int(rng.choice(n, p=d2 / total))
        centers[c] = points[chosen]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans_canonicalize(
    step_descriptions: Sequence[str],
    k: int,
    embedder: Embedder,
    llm_client: ChatClient | None = None,
    seed: int = 0,
) -> KMeansResult:
    """Cluster descriptions into k groups and caption each group.

    The objective trace is non-increasing by Lloyd's construction; the run
    stops after MAX_ITERATIONS or when the relative improvement drops
    below REL_TOLERANCE.
    """
    n = len(step_descriptions)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} descriptions")
    n_distinct = len(set(step_descriptions))
    if k > n_distinct:
        raise ValueError(f"k={k} exceeds the {n_distinct} distinct descriptions")

    points = embedder.embed(list(step_descriptions))
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_centers(points, k, rng)

    assignments = np.zeros(n, dtype=np.int64)
    trace: list[float] = []
    prev_objective = None
    for _it in range(MAX_ITERATIONS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignments = d2.argmin(axis=1)
        for c in range(k):
            members = points[assignments == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster with the point farthest from its
                # current center.
                per_point = d2[np.arange(n), assignments]
                far = int(per_point.argmax())
                centers[c] = points[far]
                assignments[far] = c
        objective = float(
            ((points - centers[assignments]) ** 2).sum()
        )
        trace.append(objective)
        if prev_objective is not None:
            if prev_objective == 0 or (prev_objective - objective) / max(prev_objective, 1e-12) < REL_TOLERANCE:
                break
        prev_objective = objective

    representatives = []
    for c in range(k):
        member_idx = np.nonzero(assignments == c)[0]
        if len(member_idx) == 0:
            representatives.append("")
            continue
        if llm_client is None:
            d = ((points[member_idx] - centers[c]) ** 2).sum(axis=1)
            representatives.append(step_descriptions[int(member_idx[int(d.argmin())])])
        else:
            listing = "\n".join(f"- {step_descriptions[i]}" for i in member_idx)
            representatives.append(
                llm_client.complete(CAPTION_PROMPT.format(descriptions=listing), _caption)
            )

    return KMeansResult(
        assignments=tuple(int(a) for a in assignments),
        representatives=tuple(representatives),
        objective_trace=tuple(trace),
    )
