import pytest

from hierstream import report
from hierstream.detector import DetectorConfig
from hierstream.metrics import matching
from hierstream.metrics.embedding import HashedBagOfWordsEmbedder
from hierstream.metrics.matching import aedt_corpus, hungarian_f1_corpus
from hierstream.metrics.semantic import topk_f1_corpus
from hierstream.runner import mock_describer, run_described_stream
from hierstream.scoring.histogram import HistogramConfig
from hierstream.simulator import SimConfig, gen_annotations, gen_scores

THRESHOLDS = (0.3, 0.5, 0.7)
AEDT_THRESHOLD = 0.4  # deliberately not one of THRESHOLDS


def noisy_corpus(videos=6, sigma=2.0, seed=11):
    cfg = SimConfig(seed=seed, videos=videos, noise_sigma=sigma)
    annotations = gen_annotations(cfg)
    describe = mock_describer()
    emissions, goals = {}, {}
    for a in annotations:
        stream = gen_scores(a, cfg.noise_sigma, cfg.fps, cfg.histogram, seed=seed)
        result = run_described_stream(stream, describe, DetectorConfig(), HistogramConfig())
        emissions[a.video_id] = result.emissions
        goals[a.video_id] = result.goal_text
    return annotations, emissions, goals


@pytest.fixture(scope="module")
def corpus():
    return noisy_corpus()


def evaluate(corpus, **kwargs):
    annotations, emissions, goals = corpus
    params = dict(thresholds=THRESHOLDS, k=5, embedder=HashedBagOfWordsEmbedder(),
                  aedt_threshold=AEDT_THRESHOLD)
    params.update(kwargs)
    return report.evaluate_corpus(annotations, emissions, goals, **params)


def test_one_matching_per_video_and_level(corpus, monkeypatch):
    calls = []
    original = matching.hungarian_match

    def counted(gt, pred):
        calls.append((len(gt), len(pred)))
        return original(gt, pred)

    monkeypatch.setattr(matching, "hungarian_match", counted)
    rep = evaluate(corpus)
    assert rep["levels"]["substep"]["f1_loc_desc"] is not None
    assert len(calls) == len(corpus[0]) * len(report.LEVEL_KEYS)


@pytest.mark.parametrize("sigma", [2.0, 4.0])
def test_agrees_with_public_wrappers(sigma):
    annotations, emissions, goals = noisy_corpus(sigma=sigma)
    rep = evaluate((annotations, emissions, goals))
    embedder = HashedBagOfWordsEmbedder()
    for level, key in report.LEVEL_KEYS.items():
        entry = rep["levels"][key]
        gts = [a.at_level(level) for a in annotations]
        preds = [[e for e in emissions[a.video_id] if e.instance.level == level]
                 for a in annotations]
        intervals = [([g.interval for g in gt], [e.instance.interval for e in p])
                     for gt, p in zip(gts, preds)]
        instances = [(gt, [e.instance for e in p]) for gt, p in zip(gts, preds)]
        corpus_texts = [g.description for gt in gts for g in gt]
        for t in THRESHOLDS:
            assert entry["f1_loc"][str(t)] == hungarian_f1_corpus(intervals, t)
            assert entry["f1_loc_desc"][str(t)] == topk_f1_corpus(
                instances, t, 5, embedder, corpus_texts)
        delay = aedt_corpus([([g.interval for g in gt], p) for gt, p in zip(gts, preds)],
                            AEDT_THRESHOLD)
        assert entry["aedt"] == {
            "threshold": AEDT_THRESHOLD, "mean_abs": delay.mean_abs,
            "mean_signed": delay.mean_signed, "count": delay.count,
        }
    # The noise must separate the thresholds, or the comparison shows little.
    assert any(e["f1_loc"]["0.3"] > e["f1_loc"]["0.7"] for e in rep["levels"].values())


def test_empty_thresholds_rejected(corpus):
    with pytest.raises(ValueError, match="at least one tIoU threshold"):
        evaluate(corpus, thresholds=())


@pytest.mark.parametrize("kwargs", [{"aedt_threshold": 0.0}, {"aedt_threshold": 1.5},
                                    {"thresholds": (0.0, 0.5)}, {"k": 0}])
def test_invalid_parameters_rejected(corpus, kwargs):
    with pytest.raises(ValueError):
        evaluate(corpus, **kwargs)


def test_empty_annotation_list_rejected():
    # f1_at scores empty-vs-empty as 1.0; a corpus with no videos must not report it.
    with pytest.raises(ValueError, match="annotations is empty"):
        report.evaluate_corpus([], {})
