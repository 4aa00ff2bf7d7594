from .._http import HttpChatClient
from .clients import ChatClient, MockGroupingClient
from .grouping import (
    ConsistencyReport,
    GroupingProposal,
    check_consistency,
    default_bounds,
    group_interval,
    postprocess,
    proposal_to_annotations,
    propose_grouping,
)
from .kmeans import KMeansResult, kmeans_canonicalize

__all__ = [
    "ChatClient",
    "MockGroupingClient",
    "HttpChatClient",
    "GroupingProposal",
    "ConsistencyReport",
    "propose_grouping",
    "postprocess",
    "check_consistency",
    "default_bounds",
    "group_interval",
    "proposal_to_annotations",
    "KMeansResult",
    "kmeans_canonicalize",
]
