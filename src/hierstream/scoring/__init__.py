from .histogram import HistogramConfig, histogram_expectation, histogram_target, histogram_targets
from .losses import log_softmax, soft_cross_entropy, softmax
from .rnn import ScorerConfig, ScorerModel, infer_scores, stream_scores
from .targets import frame_targets
from .train import build_frame_targets, train_scorer

__all__ = [
    "HistogramConfig",
    "histogram_target",
    "histogram_targets",
    "histogram_expectation",
    "frame_targets",
    "softmax",
    "log_softmax",
    "soft_cross_entropy",
    "ScorerConfig",
    "ScorerModel",
    "infer_scores",
    "stream_scores",
    "train_scorer",
    "build_frame_targets",
]
