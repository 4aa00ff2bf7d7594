"""Describer backed by an OpenAI-compatible vision chat endpoint.

One chat-completions request per describe call, through the shared
``JsonHttpClient`` (a malformed completion is retried like a 5xx). Frame
handles become image content parts: base64 data URLs when the handle is a
readable file (the default), or passed through as URLs in ``url`` mode.
"""

from __future__ import annotations

import base64
import mimetypes
import os
from dataclasses import dataclass

from .._http import HttpLimits, JsonHttpClient
from .responses import DescribeRequest, DescriberResponse, parse_response


@dataclass(frozen=True)
class DescriberEndpoint:
    base_url: str
    model: str
    image_mode: str = "base64"  # or "url"


def _image_part(handle: str, mode: str) -> dict:
    if mode == "url" or handle.startswith(("http://", "https://", "data:")):
        return {"type": "image_url", "image_url": {"url": handle}}
    if mode == "base64":
        if not os.path.isfile(handle):
            raise FileNotFoundError(f"frame handle is not a readable file: {handle}")
        mime = mimetypes.guess_type(handle)[0] or "image/jpeg"
        with open(handle, "rb") as fh:
            data = base64.b64encode(fh.read()).decode("ascii")
        return {"type": "image_url", "image_url": {"url": f"data:{mime};base64,{data}"}}
    raise ValueError(f"unknown image mode {mode!r}")


def build_chat_payload(request: DescribeRequest, endpoint: DescriberEndpoint) -> dict:
    content: list[dict] = [{"type": "text", "text": request.prompt}]
    for handle in request.frame_handles:
        content.append(_image_part(handle, endpoint.image_mode))
    return {
        "model": endpoint.model,
        "temperature": 0.0,
        "messages": [{"role": "user", "content": content}],
    }


class HttpDescriber:
    """Callable describer bound to one endpoint; usable wherever the mock is."""

    def __init__(self, endpoint: DescriberEndpoint, limits: HttpLimits = HttpLimits()):
        self.endpoint = endpoint
        self._client = JsonHttpClient(endpoint.base_url, limits)
        self.stats = self._client.stats

    def __call__(self, _bundle, request: DescribeRequest) -> DescriberResponse:
        """The online loop's describe function; the request carries the bundle."""
        return self.describe(request)

    def describe(self, request: DescribeRequest) -> DescriberResponse:
        return self._client.post_json(
            "/chat/completions",
            build_chat_payload(request, self.endpoint),
            parse=lambda reply: parse_response(reply["choices"][0]["message"]["content"]),
        )
