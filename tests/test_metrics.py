import numpy as np
import pytest

from hierstream.core import ActionInstance, HierarchyLevel, Interval
from hierstream.detector import Emission
from hierstream.metrics.embedding import HashedBagOfWordsEmbedder
from hierstream.metrics.matching import aedt_corpus, hungarian_f1_corpus, hungarian_match, tiou
from hierstream.metrics.semantic import goal_accuracy, topk_f1_corpus
from oracles import brute_force_f1, brute_force_match


def iv(a, b):
    return Interval(float(a), float(b))


def random_intervals(rng, n, span=30.0):
    out = []
    for _ in range(n):
        a, b = sorted(rng.uniform(0, span, 2))
        out.append(Interval(float(a), float(b)))
    return out


class TestTiou:
    def test_identical(self):
        assert tiou(iv(0, 10), iv(0, 10)) == 1.0

    def test_disjoint(self):
        assert tiou(iv(0, 5), iv(6, 10)) == 0.0

    def test_partial(self):
        assert tiou(iv(0, 10), iv(5, 15)) == pytest.approx(1 / 3)

    def test_zero_length_union(self):
        assert tiou(iv(3, 3), iv(3, 3)) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_intervals(rng, 2)
            assert tiou(a, b) == tiou(b, a)


class TestHungarianF1:
    def test_perfect_match(self):
        f1 = hungarian_f1_corpus([([iv(0, 10)], [iv(0, 10)])], 0.5)
        assert f1 == 1.0

    def test_partial_match(self):
        f1 = hungarian_f1_corpus([([iv(0, 10), iv(10, 20)], [iv(0, 9)])], 0.5)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_both_sides(self):
        f1 = hungarian_f1_corpus([([], [])], 0.5)
        assert f1 == 1.0

    def test_one_side_empty(self):
        assert hungarian_f1_corpus([([iv(0, 1)], [])], 0.5) == 0.0
        assert hungarian_f1_corpus([([], [iv(0, 1)])], 0.5) == 0.0

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            gt = random_intervals(rng, int(rng.integers(0, 7)))
            pred = random_intervals(rng, int(rng.integers(0, 7)))
            for thr in (0.3, 0.5, 0.7):
                assert hungarian_f1_corpus([(gt, pred)], thr) == brute_force_f1(gt, pred, thr)

    def test_matches_brute_force_on_exact_ties(self):
        cases = [
            ([iv(0, 10), iv(0, 10)], [iv(0, 10)]),
            ([iv(0, 2)], [iv(0, 1), iv(1, 2)]),
            ([iv(0, 4), iv(0, 4)], [iv(0, 4), iv(0, 4)]),
            ([iv(0, 2), iv(2, 4)], [iv(0, 4)]),
            ([iv(0, 1), iv(2, 3)], [iv(0, 3)]),
        ]
        for gt, pred in cases:
            for thr in (0.3, 0.5, 0.7):
                assert hungarian_f1_corpus([(gt, pred)], thr) == brute_force_f1(gt, pred, thr)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            gt = random_intervals(rng, int(rng.integers(1, 7)))
            pred = random_intervals(rng, int(rng.integers(1, 7)))
            f1s = [hungarian_f1_corpus([(gt, pred)], t) for t in (0.3, 0.5, 0.7)]
            assert f1s[0] >= f1s[1] >= f1s[2]

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            gt = random_intervals(rng, int(rng.integers(0, 6)))
            pred = random_intervals(rng, int(rng.integers(0, 6)))
            for t in (0.3, 0.5, 0.7):
                assert hungarian_f1_corpus([(gt, pred)], t) == hungarian_f1_corpus([(pred, gt)], t)

    def test_scale_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            gt = random_intervals(rng, int(rng.integers(1, 6)))
            pred = random_intervals(rng, int(rng.integers(1, 6)))
            c = float(rng.uniform(0.1, 50.0))
            gt_s = [Interval(g.start * c, g.end * c) for g in gt]
            pred_s = [Interval(p.start * c, p.end * c) for p in pred]
            for t in (0.3, 0.5, 0.7):
                assert hungarian_f1_corpus([(gt, pred)], t) == hungarian_f1_corpus([(gt_s, pred_s)], t)

    def test_pairs_form_partial_bijection(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            gt = random_intervals(rng, 5)
            pred = random_intervals(rng, 5)
            pairs = hungarian_match(gt, pred)
            gts = [i for i, _, _ in pairs]
            preds = [j for _, j, _ in pairs]
            assert len(set(gts)) == len(gts) and len(set(preds)) == len(preds)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            hungarian_f1_corpus([([], [])], 0.0)


class TestTopkF1:
    def embedder(self):
        return HashedBagOfWordsEmbedder()

    def inst(self, a, b, text):
        return ActionInstance(iv(a, b), text, HierarchyLevel.SUBSTEP)

    def test_identical_text_is_rank_one(self):
        gt = [self.inst(0, 10, "wash vegetables")]
        pred = [self.inst(0, 10, "wash vegetables")]
        corpus = ["wash vegetables", "grip knife", "turn on faucet"]
        assert topk_f1_corpus([(gt, pred)], 0.5, 1, self.embedder(), corpus) == 1.0

    def test_k_equal_corpus_size_matches_plain_f1(self):
        rng = np.random.default_rng(31)
        texts = [f"action {i} word{i}" for i in range(8)]
        for _ in range(20):
            gt = [self.inst(*sorted(rng.uniform(0, 20, 2)), texts[i]) for i in range(4)]
            pred = [self.inst(*sorted(rng.uniform(0, 20, 2)), texts[int(rng.integers(8))])
                    for _ in range(4)]
            corpus = [g.description for g in gt]
            plain = hungarian_f1_corpus([([g.interval for g in gt], [p.interval for p in pred])], 0.5)
            assert topk_f1_corpus([(gt, pred)], 0.5, len(corpus), self.embedder(), corpus) == plain

    def test_never_exceeds_plain_f1(self):
        rng = np.random.default_rng(37)
        texts = [f"verb{i} noun{i}" for i in range(10)]
        for _ in range(30):
            gt = [self.inst(*sorted(rng.uniform(0, 20, 2)), texts[int(rng.integers(10))])
                  for _ in range(int(rng.integers(1, 5)))]
            pred = [self.inst(*sorted(rng.uniform(0, 20, 2)), texts[int(rng.integers(10))])
                    for _ in range(int(rng.integers(1, 5)))]
            corpus = list(dict.fromkeys([g.description for g in gt])) + ["extra distractor"]
            plain = hungarian_f1_corpus([([g.interval for g in gt], [p.interval for p in pred])], 0.5)
            for k in (1, 3, len(corpus)):
                assert topk_f1_corpus([(gt, pred)], 0.5, k, self.embedder(), corpus) <= plain + 1e-12

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            topk_f1_corpus([([], [self.inst(0, 1, "x")])], 0.5, 5, self.embedder(), [])


    def test_k_below_one_rejected(self):
        gt = [self.inst(0, 10, "wash vegetables")]
        corpus = ["wash vegetables"]
        with pytest.raises(ValueError, match="k must be"):
            topk_f1_corpus([(gt, gt)], 0.5, 0, self.embedder(), corpus)


class TestThresholdDomain:
    """Every matched-pair metric takes its threshold from (0, 1]."""

    GT = [iv(0, 10)]
    SLIVER = iv(9.9, 25)  # tIoU about 0.006

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_rejected_by_every_metric(self, threshold):
        inst = ActionInstance(self.SLIVER, "x", HierarchyLevel.SUBSTEP)
        gt_inst = ActionInstance(self.GT[0], "x", HierarchyLevel.SUBSTEP)
        emission = Emission(inst, 25.0)
        embedder = HashedBagOfWordsEmbedder()
        calls = [
            lambda: hungarian_f1_corpus([(self.GT, [self.SLIVER])], threshold),
            lambda: aedt_corpus([(self.GT, [emission])], threshold),
            lambda: topk_f1_corpus([([gt_inst], [inst])], threshold, 1, embedder, ["x"]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="threshold must be"):
                call()


class TestGoalAccuracy:
    def test_identical_predictions_score_one(self):
        goals = [f"make dish number {i}" for i in range(6)]
        assert goal_accuracy(goals, goals, HashedBagOfWordsEmbedder()) == 1.0

    def test_random_goals_near_chance(self):
        rng = np.random.default_rng(41)
        emb = HashedBagOfWordsEmbedder()
        n = 8
        gt = [f"goal{i} token{i} extra{i}" for i in range(n)]
        hits = []
        for trial in range(400):
            perm = rng.permutation(n)
            preds = [gt[perm[i]] for i in range(n)]
            hits.append(goal_accuracy(preds, gt, emb))
        assert np.mean(hits) == pytest.approx(1 / n, abs=0.05)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            goal_accuracy(["a"], ["a", "b"], HashedBagOfWordsEmbedder())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            goal_accuracy([], [], HashedBagOfWordsEmbedder())


class TestAedt:
    def emission(self, a, b, emit):
        return Emission(ActionInstance(iv(a, b), "", HierarchyLevel.SUBSTEP), emit)

    def test_exact_emission_gives_zero(self):
        gt = [iv(0, 5), iv(5, 10)]
        pred = [self.emission(0, 5, 5.0), self.emission(5, 10, 10.0)]
        stats = aedt_corpus([(gt, pred)], 0.5)
        assert stats.mean_abs == 0.0 and stats.count == 2

    def test_late_emission_measured(self):
        stats = aedt_corpus([([iv(0, 5)], [self.emission(0, 5, 7.0)])], 0.5)
        assert stats.mean_abs == 2.0 and stats.mean_signed == 2.0

    def test_no_tp_reports_absent(self):
        assert aedt_corpus([([iv(0, 5)], [self.emission(20, 25, 25.0)])], 0.5) is None


class TestEmbedder:
    def test_unit_norm_and_self_similarity(self):
        emb = HashedBagOfWordsEmbedder()
        vecs = emb.embed(["chop the onions", "chop the onions", ""])
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0)
        assert vecs[0] @ vecs[1] == pytest.approx(1.0)

    def test_deterministic_across_instances(self):
        a = HashedBagOfWordsEmbedder().embed(["stir the soup"])
        b = HashedBagOfWordsEmbedder().embed(["stir the soup"])
        np.testing.assert_array_equal(a, b)


def test_hungarian_match_reports_positive_pairs_only():
    matched = hungarian_match([iv(0, 1), iv(5, 6)], [iv(0, 1), iv(10, 11)])
    assert [(i, j) for i, j, _ in matched] == [(0, 0)]


def grid_intervals(rng, n, step):
    """n intervals whose endpoints lie on a grid of ``step`` seconds in
    [0, 8]; a coarse grid repeats endpoints, so tIoU ties are common."""
    out = []
    for _ in range(n):
        a, b = sorted(rng.choice(np.arange(0.0, 8.0 + step, step), 2, replace=False))
        out.append(Interval(float(a), float(b)))
    return out


def test_hungarian_match_pairs_equal_the_brute_force_pairs():
    """The pairs themselves, not only F1, are the oracle's: the
    maximum-profit matching with the lexicographically smallest pair list."""
    rng = np.random.default_rng(41)
    tall = 0
    for case in range(1200):
        n_gt, n_pred = (int(x) for x in rng.integers(0, 7, 2))
        if case % 3 == 0 and n_gt < n_pred:  # make every third uneven case tall: more gt than predictions
            n_gt, n_pred = n_pred, n_gt
        step = (1.0, 2.0, 0.5, None)[case % 4]
        if step is None:
            gt, pred = random_intervals(rng, n_gt, span=8.0), random_intervals(rng, n_pred, span=8.0)
        else:
            gt, pred = grid_intervals(rng, n_gt, step), grid_intervals(rng, n_pred, step)
        tall += n_gt > n_pred
        assert [(i, j) for i, j, _ in hungarian_match(gt, pred)] == brute_force_match(gt, pred)[0], (gt, pred)
    assert tall > 400
