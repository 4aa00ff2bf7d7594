"""Request assembly and response parsing for describer calls."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

from ..memory import RetrievalBundle
from .prompts import PLACEHOLDERS, TEMPLATES


@dataclass(frozen=True)
class DescribeRequest:
    prompt: str
    frame_handles: tuple[str, ...]


@dataclass(frozen=True)
class DescriberResponse:
    short_form: str
    long_form_before: str = ""
    long_form_after: str = ""


def default_frame_handle(timestamp: float) -> str:
    return f"frame@{timestamp:.3f}"


def build_request(bundle: RetrievalBundle, frame_handle: Callable[[float], str] = default_frame_handle) -> DescribeRequest:
    """Fill the level's template with the bundle's prediction history and
    name each of its frames, in bundle order, with ``frame_handle``."""
    template = TEMPLATES[bundle.level]
    placeholder = PLACEHOLDERS[bundle.level]
    serialized = json.dumps(list(bundle.prior_predictions))
    prompt = template.replace(placeholder, serialized)
    return DescribeRequest(prompt=prompt, frame_handles=tuple(map(frame_handle, bundle.frames)))


_SHORT_RE = re.compile(r"short form response\s*:\s*(.*)", re.IGNORECASE)
_LONG_BEFORE_RE = re.compile(
    r"long form response \(before revision\)\s*:\s*(.*)", re.IGNORECASE
)
_LONG_AFTER_RE = re.compile(
    r"long form response \(after revision\)\s*:\s*(.*)", re.IGNORECASE
)
_ANSWER_RE = re.compile(r"answer\s*:\s*(.*)", re.IGNORECASE)


def parse_response(text: str) -> DescriberResponse:
    """Extract the labeled fields from a reply.

    Three-field replies (substep/step) populate every field; a bare
    ``Answer: ...`` line (goal) populates short_form only. Any other reply
    raises ValueError quoting its first 200 characters.
    """
    short = _SHORT_RE.search(text)
    before = _LONG_BEFORE_RE.search(text)
    after = _LONG_AFTER_RE.search(text)
    if short and before and after:
        fields = (short.group(1).strip(), before.group(1).strip(), after.group(1).strip())
        if all(fields):
            return DescriberResponse(*fields)
        raise ValueError(f"labeled response has empty fields: {text[:200]!r}")
    if short or before or after:
        raise ValueError(f"incomplete labeled response: {text[:200]!r}")
    answer = _ANSWER_RE.search(text)
    if answer and answer.group(1).strip():
        return DescriberResponse(short_form=answer.group(1).strip())
    raise ValueError(f"no recognizable answer labels: {text[:200]!r}")

