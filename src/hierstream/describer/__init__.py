from .._http import API_KEY_ENV
from .http import HttpDescriber
from .mock import mock_describe
from .prompts import GOAL_PROMPT, STEP_PROMPT, SUBSTEP_PROMPT, TEMPLATES
from .responses import (
    DescribeRequest,
    DescriberResponse,
    build_request,
    parse_response,
)

__all__ = [
    "GOAL_PROMPT",
    "STEP_PROMPT",
    "SUBSTEP_PROMPT",
    "TEMPLATES",
    "DescribeRequest",
    "DescriberResponse",
    "build_request",
    "parse_response",
    "mock_describe",
    "HttpDescriber",
    "API_KEY_ENV",
]
