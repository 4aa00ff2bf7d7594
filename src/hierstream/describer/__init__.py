from .http import API_KEY_ENV, DescriberEndpoint, HttpDescriber
from .mock import mock_describe
from .prompts import GOAL_PROMPT, STEP_PROMPT, SUBSTEP_PROMPT, TEMPLATES
from .responses import (
    DescribeParseError,
    DescribeRequest,
    DescriberResponse,
    build_request,
    format_response,
    parse_response,
)

__all__ = [
    "GOAL_PROMPT",
    "STEP_PROMPT",
    "SUBSTEP_PROMPT",
    "TEMPLATES",
    "DescribeRequest",
    "DescriberResponse",
    "DescribeParseError",
    "build_request",
    "parse_response",
    "format_response",
    "mock_describe",
    "DescriberEndpoint",
    "HttpDescriber",
    "API_KEY_ENV",
]
