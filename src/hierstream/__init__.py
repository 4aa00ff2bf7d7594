"""Streaming hierarchical event detection.

A lightweight per-frame scorer feeds a hybrid boundary state machine that
emits substep/step instances the moment they complete; a context memory
and pluggable describer turn emissions into text; an evaluation suite
scores localization and descriptions. A built-in simulator makes the whole
loop runnable without any real video data.
"""

from .core import (
    ActionInstance,
    AnnotationSet,
    Emission,
    FrameScores,
    HierarchyLevel,
    Interval,
    read_annotations,
    validate_annotations,
    write_annotations,
)
from .detector import DetectorConfig, StreamDetector, run_stream
from .memory import ContextMemory, Prediction, RetrievalBundle
from .runner import run_described_stream
from .simulator import SimConfig, gen_annotations, gen_features, gen_scores

__version__ = "0.1.0"

__all__ = [
    "HierarchyLevel",
    "Interval",
    "ActionInstance",
    "AnnotationSet",
    "FrameScores",
    "validate_annotations",
    "read_annotations",
    "write_annotations",
    "DetectorConfig",
    "StreamDetector",
    "Emission",
    "run_stream",
    "ContextMemory",
    "Prediction",
    "RetrievalBundle",
    "run_described_stream",
    "SimConfig",
    "gen_annotations",
    "gen_scores",
    "gen_features",
    "__version__",
]
