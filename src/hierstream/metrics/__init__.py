from .embedding import Embedder, HashedBagOfWordsEmbedder, HttpEmbedder
from .matching import DelayStats, aedt_corpus, hungarian_f1_corpus, hungarian_match, tiou
from .semantic import description_rank, goal_accuracy, topk_f1_corpus

__all__ = [
    "tiou",
    "hungarian_match",
    "hungarian_f1_corpus",
    "DelayStats",
    "aedt_corpus",
    "Embedder",
    "HashedBagOfWordsEmbedder",
    "HttpEmbedder",
    "topk_f1_corpus",
    "goal_accuracy",
    "description_rank",
]
