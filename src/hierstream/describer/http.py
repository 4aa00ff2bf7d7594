"""Describer backed by an OpenAI-compatible vision chat endpoint.

One chat-completions request per describe call. Frame handles become image
content parts: base64 data URLs when the handle is a readable file (the
default), or passed through as URLs in ``url`` mode. Transport failures,
5xx replies, and malformed completions are retried with exponential
backoff until the retry budget runs out.
"""

from __future__ import annotations

import base64
import mimetypes
import os
import time
from dataclasses import dataclass

from .._http import CallStats, ClientError, HttpLimits, JsonHttpClient, TransportError
from .responses import DescribeParseError, DescribeRequest, DescriberResponse, parse_response

API_KEY_ENV = "HIERSTREAM_API_KEY"


@dataclass(frozen=True)
class DescriberEndpoint:
    base_url: str
    model: str
    image_mode: str = "base64"  # or "url"
    api_key_env: str = API_KEY_ENV
    temperature: float = 0.0


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
        "temperature": endpoint.temperature,
        "messages": [{"role": "user", "content": content}],
    }


class HttpDescriber:
    """Callable describer bound to one endpoint; usable wherever the mock is."""

    def __init__(self, endpoint: DescriberEndpoint, limits: HttpLimits = HttpLimits()):
        self.endpoint = endpoint
        self.limits = limits
        api_key = os.environ.get(endpoint.api_key_env)
        # The inner client performs no retries itself; this class owns the
        # retry loop so parse failures share the same budget.
        self._client = JsonHttpClient(
            endpoint.base_url,
            api_key=api_key,
            limits=HttpLimits(
                timeout=limits.timeout, max_retries=0,
                backoff_base=limits.backoff_base, max_inflight=limits.max_inflight,
            ),
        )

    @property
    def stats(self) -> CallStats:
        return self._client.stats

    def describe(self, request: DescribeRequest) -> DescriberResponse:
        payload = build_chat_payload(request, self.endpoint)
        last_error: Exception | None = None
        for attempt in range(self.limits.max_retries + 1):
            if attempt > 0:
                time.sleep(self.limits.backoff_base * (2 ** (attempt - 1)))
                self._client.stats.retries += 1
            try:
                reply = self._client.post_json("/chat/completions", payload)
                text = reply["choices"][0]["message"]["content"]
                return parse_response(text)
            except ClientError:
                raise
            except (TransportError, DescribeParseError, KeyError, IndexError) as exc:
                last_error = exc
        if isinstance(last_error, DescribeParseError):
            raise last_error
        raise TransportError(f"describe failed after retries: {last_error}")

