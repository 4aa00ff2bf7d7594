"""LLM-assisted grouping of atomic actions into steps, plus the repair and
consistency stages that run on every proposal.

The chat client receives the substeps as JSON and must answer with
``{"steps": [{"substep_indices": [...], "description": str}, ...],
"goal": str}``. Post-processing absorbs uncovered substeps into the
temporally nearest adjacent group and splits overlapping groups at the
midpoint substep; it is idempotent and always yields full coverage.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from ..core import ActionInstance, AnnotationSet, HierarchyLevel, Interval
from .clients import ChatClient

GROUPING_PROMPT = """You are annotating one video. Below is the chronological list of atomic action annotations (substeps), each with an index, start and end time in seconds, and a description.

Group consecutive substeps into coherent higher-level steps, give each step a one-sentence description, and state the overall goal of the video.

Substeps:
{substeps_json}

Reply with JSON only, exactly in this shape:
{{"steps": [{{"substep_indices": [0, 1], "description": "..."}}, ...], "goal": "..."}}"""


@dataclass(frozen=True)
class GroupingProposal:
    """Ordered substep index ranges (inclusive) with one description per
    group and a goal description. Fresh client output may still be
    overlapping or incomplete; postprocess repairs it."""

    groups: tuple[tuple[int, int], ...]
    step_descriptions: tuple[str, ...]
    goal_description: str


@dataclass(frozen=True)
class ConsistencyReport:
    missing: tuple[int, ...]
    abnormal: tuple[tuple[int, float, str], ...]  # (group index, duration, bound)


_JSON_OBJECT_RE = re.compile(r"\{.*\}", re.S)


def _parse_reply(text: str, n_substeps: int) -> GroupingProposal:
    m = _JSON_OBJECT_RE.search(text)
    if not m:
        raise ValueError(f"no JSON object in reply: {text[:200]!r}")
    try:
        data = json.loads(m.group(0))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}: {text[:200]!r}") from exc
    steps = data.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ValueError(f"reply has no steps: {text[:200]!r}")
    groups, descriptions = [], []
    for entry in steps:
        indices = entry.get("substep_indices", []) if isinstance(entry, dict) else None
        if not isinstance(indices, list):
            raise ValueError(f"step is not an object with a list of indices: {entry!r}: {text[:200]!r}")
        if not indices:
            continue
        if any(not isinstance(i, int) or not 0 <= i < n_substeps for i in indices):
            raise ValueError(f"substep indices out of range: {indices}: {text[:200]!r}")
        groups.append((min(indices), max(indices)))
        descriptions.append(str(entry.get("description", "")))
    if not groups:
        raise ValueError(f"every step group was empty: {text[:200]!r}")
    order = sorted(range(len(groups)), key=lambda g: groups[g])
    return GroupingProposal(
        groups=tuple(groups[i] for i in order),
        step_descriptions=tuple(descriptions[i] for i in order),
        goal_description=str(data.get("goal", "")),
    )


def propose_grouping(
    substeps: Sequence[ActionInstance], llm_client: ChatClient
) -> GroupingProposal:
    """Ask the client to group chronologically sorted substeps into steps. A
    reply that does not parse raises ValueError, quoting the reply, once the
    client's retries are spent."""
    if not substeps:
        raise ValueError("no substeps to group")
    starts = [s.interval.start for s in substeps]
    if starts != sorted(starts):
        raise ValueError("substeps must be chronologically sorted")
    payload = json.dumps([
        {
            "index": i,
            "start": s.interval.start,
            "end": s.interval.end,
            "description": s.description,
        }
        for i, s in enumerate(substeps)
    ])
    prompt = GROUPING_PROMPT.format(substeps_json=payload)
    return llm_client.complete(prompt, lambda reply: _parse_reply(reply, len(substeps)))


def group_interval(
    group: tuple[int, int], substeps: Sequence[ActionInstance]
) -> Interval:
    """A group spans from its first member's start to its last member's end."""
    lo, hi = group
    return Interval(substeps[lo].interval.start, substeps[hi].interval.end)


def postprocess(
    proposal: GroupingProposal, substeps: Sequence[ActionInstance]
) -> GroupingProposal:
    """Repair a proposal: split overlaps at the midpoint substep, then absorb
    uncovered substeps into the temporally nearest adjacent group (earlier
    group wins ties). Idempotent."""
    n = len(substeps)
    if not proposal.groups:
        return GroupingProposal(((0, n - 1),), ("",), proposal.goal_description)

    groups = [list(g) for g in proposal.groups]
    descriptions = list(proposal.step_descriptions)

    # Split overlapping neighbours at the midpoint of the shared index run.
    merged: list[list[int]] = []
    kept_desc: list[str] = []
    for g, desc in zip(groups, descriptions):
        if merged and g[0] <= merged[-1][1]:
            prev = merged[-1]
            mid = (g[0] + prev[1] + 1) // 2
            hi = max(prev[1], g[1])
            prev[1] = mid - 1
            g = [mid, hi]
            if prev[1] < prev[0]:
                merged.pop()
                kept_desc.pop()
        merged.append(list(g))
        kept_desc.append(desc)
    groups, descriptions = merged, kept_desc

    # Absorb orphan runs: leading into the first group, trailing into the
    # last, interior runs split by temporal distance to the two neighbours.
    groups[0][0] = 0
    groups[-1][1] = n - 1
    for gi in range(len(groups) - 1):
        left, right = groups[gi], groups[gi + 1]
        if right[0] == left[1] + 1:
            continue
        left_iv = group_interval(tuple(left), substeps)
        right_iv = group_interval(tuple(right), substeps)
        split = right[0]
        for idx in range(left[1] + 1, right[0]):
            iv = substeps[idx].interval
            dist_left = iv.start - left_iv.end
            dist_right = right_iv.start - iv.end
            if dist_right < dist_left:
                split = idx
                break
        left[1] = split - 1
        right[0] = split

    return GroupingProposal(
        groups=tuple((g[0], g[1]) for g in groups),
        step_descriptions=tuple(descriptions),
        goal_description=proposal.goal_description,
    )


def check_consistency(
    proposal: GroupingProposal,
    substeps: Sequence[ActionInstance],
    bounds: tuple[float, float],
) -> ConsistencyReport:
    """Report uncovered substeps and groups whose spans violate the duration
    bounds (min seconds, max seconds)."""
    lo, hi = bounds
    covered = set()
    abnormal = []
    for gi, group in enumerate(proposal.groups):
        covered.update(range(group[0], group[1] + 1))
        duration = group_interval(group, substeps).length
        if duration < lo:
            abnormal.append((gi, duration, "min"))
        elif duration > hi:
            abnormal.append((gi, duration, "max"))
    missing = tuple(i for i in range(len(substeps)) if i not in covered)
    return ConsistencyReport(missing=missing, abnormal=tuple(abnormal))


def default_bounds(video_duration: float) -> tuple[float, float]:
    """Flag steps shorter than 1% or longer than 50% of the video."""
    return 0.01 * video_duration, 0.5 * video_duration


def proposal_to_annotations(
    video_id: str,
    duration: float,
    fps: float,
    substeps: Sequence[ActionInstance],
    proposal: GroupingProposal,
) -> AnnotationSet:
    """Assemble a hierarchical annotation set from substeps plus a repaired
    proposal."""
    instances = list(substeps)
    for group, desc in zip(proposal.groups, proposal.step_descriptions):
        instances.append(ActionInstance(
            group_interval(group, substeps), desc, HierarchyLevel.STEP,
        ))
    instances.sort(key=lambda i: (i.interval.start, int(i.level)))
    return AnnotationSet(
        video_id=video_id,
        duration=duration,
        fps=fps,
        instances=tuple(instances),
        goal=proposal.goal_description,
    )
