import tracemalloc

import numpy as np
import pytest

from hierstream.core import ActionInstance, AnnotationSet, HierarchyLevel, Interval, validate_annotations
from hierstream.detector import run_stream
from hierstream.metrics.matching import hungarian_f1_corpus
from hierstream.scoring.histogram import HistogramConfig
from hierstream.scoring.rnn import ScorerConfig, ScorerModel, infer_scores
from hierstream.scoring.train import AdamW, _batch_grads, build_frame_targets, train_scorer
from hierstream.simulator import SimConfig, gen_annotations, gen_features
from oracles import dict_train_scorer, dict_video_grads


def desk_cfg(**overrides):
    base = dict(feature_dim=8, recurrent_layers=2, hidden_dim=16,
                learning_rate=3e-3, batch_size=4, epochs=6, bptt_window=32,
                histogram=HistogramConfig())
    base.update(overrides)
    return ScorerConfig(**base)


def corpus(seed=3, videos=6, noise=0.1):
    cfg = SimConfig(seed=seed, videos=videos, noise_sigma=noise,
                    duration_range=(25.0, 45.0), zero_gap_prob=0.5)
    anns = gen_annotations(cfg)
    feats = [gen_features(a, cfg, seed=seed)[1] for a in anns]
    return cfg, anns, feats


def test_off_grid_duration_trains():
    # A valid 10.2 s video at 4 fps: its frame grid ends at 10.0, not 10.25.
    a = AnnotationSet(video_id="v", duration=10.2, fps=4.0, goal="g", instances=(
        ActionInstance(Interval(1.0, 10.2), "s", HierarchyLevel.STEP),
        ActionInstance(Interval(2.0, 5.0), "a", HierarchyLevel.SUBSTEP),
    ))
    assert validate_annotations(a) == []
    cfg = desk_cfg(epochs=1)
    targets = build_frame_targets(a, cfg)
    assert targets["timestamps"][-1] == 10.0 and len(targets["state"]) == 41
    feats = np.random.default_rng(0).normal(0, 1, (41, cfg.feature_dim))
    _, trace = train_scorer([feats], [a], cfg, seed=0)
    assert np.isfinite(trace).all()


class TestBuildTargets:
    def test_masks_cover_only_instance_frames(self):
        _, anns, _ = corpus(videos=1)
        a = anns[0]
        targets = build_frame_targets(a, desk_cfg())
        ts = targets["timestamps"]
        for idx, t in enumerate(ts):
            inside_step = any(
                i.interval.start <= t < i.interval.end or t == i.interval.end == a.duration
                for i in a.at_level(HierarchyLevel.STEP)
            )
            assert bool(targets["step_mask"][idx]) == inside_step

    def test_masked_targets_are_distributions(self):
        _, anns, _ = corpus(videos=1)
        targets = build_frame_targets(anns[0], desk_cfg())
        masked = targets["sub_target"][targets["sub_mask"]]
        np.testing.assert_allclose(masked.sum(axis=1), 1.0, atol=1e-9)


class TestTrainScorer:
    def test_loss_decreases_on_separable_features(self):
        _, anns, feats = corpus()
        _, trace = train_scorer(feats, anns, desk_cfg(), seed=0)
        assert trace[-1] < trace[0]

    def test_same_seed_bitwise_identical(self):
        _, anns, feats = corpus(videos=3)
        cfg = desk_cfg(epochs=3)
        model_a, trace_a = train_scorer(feats, anns, cfg, seed=5)
        model_b, trace_b = train_scorer(feats, anns, cfg, seed=5)
        assert trace_a == trace_b
        for name in model_a.params:
            assert model_a.params[name].tobytes() == model_b.params[name].tobytes(), name

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_scorer([], [], desk_cfg())

    def test_dim_mismatch_rejected(self):
        _, anns, feats = corpus(videos=2)
        bad = [f[:, :5] for f in feats]
        with pytest.raises(ValueError):
            train_scorer(bad, anns, desk_cfg(), seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_before_training(self, value, monkeypatch):
        _, anns, feats = corpus(videos=2)
        feats[1][7, 3] = value
        monkeypatch.setattr(ScorerModel, "forward", lambda *a, **k: pytest.fail("a window ran"))
        with pytest.raises(ValueError, match=f"features for {anns[1].video_id}: row 7, column 3 is {value}"):
            train_scorer(feats, anns, desk_cfg(), seed=0)

    def test_frame_count_mismatch_rejected(self):
        _, anns, feats = corpus(videos=2)
        bad = [feats[0][:-3], feats[1]]
        with pytest.raises(ValueError):
            train_scorer(bad, anns, desk_cfg(), seed=0)

    def test_trained_beats_untrained_on_held_out(self):
        sim_cfg, anns, feats = corpus(seed=3, videos=10, noise=0.1)
        cfg = desk_cfg(epochs=12)
        model, _ = train_scorer(feats[:7], anns[:7], cfg, seed=0)
        untrained = ScorerModel.init(cfg, seed=99)

        def held_out_f1(m):
            videos = []
            for a, f in zip(anns[7:], feats[7:]):
                scores = infer_scores(m, f, np.arange(len(f)) / sim_cfg.fps)
                emissions = run_stream(scores)
                for level in (HierarchyLevel.SUBSTEP, HierarchyLevel.STEP):
                    gt = [i.interval for i in a.at_level(level)]
                    pred = [
                        e.instance.interval for e in emissions
                        if e.instance.level == level
                    ]
                    videos.append((gt, pred))
            return hungarian_f1_corpus(videos, 0.5)

        assert held_out_f1(model) > held_out_f1(untrained)


def close(got, want):
    """The tolerance of ``tests/test_scorer.py::TestAgainstPerFrameOracles``:
    summing in another order moves only the last bits."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestAgainstPerVideoOracle:
    """A batch stepped through each BPTT window as one time-major block
    against the sum of per-video windows (``forward``, ``window_loss`` and
    ``backward`` on each, through ``oracles.dict_video_grads``). The block
    adds the same terms in another order, so results agree to the oracle
    tolerance, not bit for bit."""

    @pytest.mark.parametrize("trial", range(8))
    def test_batch_grads_match_per_video_windows(self, trial):
        rng = np.random.default_rng(60 + trial)
        W, videos, bins = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 7))
        cfg = ScorerConfig(feature_dim=int(rng.integers(1, 5)), recurrent_layers=1 + trial % 3,
                           hidden_dim=int(rng.integers(1, 10)), bptt_window=W,
                           histogram=HistogramConfig(bins=bins))
        # Unequal lengths: one an exact multiple of the window, one shorter than a window.
        lengths = [W * int(rng.integers(1, 4)), int(rng.integers(1, W))]
        lengths += [int(n) for n in rng.integers(1, 4 * W, videos - 2)]
        feats = [rng.normal(0, 1, (n, cfg.feature_dim)) for n in lengths]
        targets = [dict(state=rng.integers(0, 3, n), step_target=rng.dirichlet(np.ones(bins), n),
                        step_mask=rng.random(n) < 0.6, sub_target=rng.dirichlet(np.ones(bins), n),
                        sub_mask=rng.random(n) < 0.6) for n in lengths]
        model = ScorerModel.init(cfg, seed=trial)
        for batch in ([int(rng.integers(videos))], rng.permutation(videos)):
            acc = {k: np.zeros_like(v) for k, v in model.params.items()}
            losses, n_windows = _batch_grads(model, feats, targets, batch, acc)
            ref = {k: np.zeros_like(v) for k, v in model.params.items()}
            ref_losses, ref_windows = zip(*(dict_video_grads(model, feats[vid], targets[vid], ref)
                                            for vid in batch))
            assert n_windows == sum(ref_windows) == sum(-(-lengths[vid] // W) for vid in batch)
            close(losses, ref_losses)
            for name in ref:
                close(acc[name], ref[name])

    @pytest.mark.parametrize("trial", range(6))
    def test_one_adamw_step_matches_oracle(self, trial):
        rng = np.random.default_rng(40 + trial)
        videos = int(rng.integers(3, 6))
        sim = SimConfig(seed=trial, videos=videos, noise_sigma=0.3, duration_range=(8.0, 16.0))
        anns = gen_annotations(sim)
        feats = [gen_features(a, sim, seed=trial)[1] for a in anns]
        window = next(int(w) for w in rng.integers(3, 20, 100) if any(len(f) % w for f in feats))
        cfg = ScorerConfig(
            feature_dim=sim.feature_dim, recurrent_layers=1 + trial % 3,
            hidden_dim=int(rng.integers(2, 12)), learning_rate=float(rng.uniform(1e-3, 1e-2)),
            weight_decay=float(rng.choice([0.0, 0.01, 0.1])), batch_size=videos + int(rng.integers(0, 3)),
            epochs=1, bptt_window=window, histogram=HistogramConfig(bins=int(rng.integers(2, 8))),
        )
        model, trace = train_scorer(feats, anns, cfg, seed=trial)
        ref, ref_trace = dict_train_scorer(feats, anns, cfg, seed=trial)
        assert trace == pytest.approx(ref_trace, rel=1e-12)
        assert model.params.keys() == ref.params.keys()
        for name in ref.params:
            close(model.params[name], ref.params[name])


def traced_peak(fn) -> int:
    """Bytes allocated by ``fn()`` at its peak, above the level before it;
    numpy reports its array buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    CFG = dict(feature_dim=8, recurrent_layers=2, hidden_dim=128, bptt_window=16)

    def test_adamw_step_needs_two_scratch_buffers(self):
        model = ScorerModel.init(ScorerConfig(**self.CFG), seed=0)
        rng = np.random.default_rng(0)
        grads = {k: rng.normal(0, 1, v.shape) for k, v in model.params.items()}
        opt = AdamW(model.params, lr=1e-3, weight_decay=0.01)
        largest = max(v.nbytes for v in model.params.values())
        assert traced_peak(lambda: opt.step(model.params, grads)) <= 3 * largest

    def test_video_grads_holds_no_second_gradient_dict(self):
        cfg = ScorerConfig(**self.CFG)
        model = ScorerModel.init(cfg, seed=0)
        _, anns, feats = corpus(videos=1)
        targets = build_frame_targets(anns[0], cfg)
        assert len(feats[0]) > 2 * cfg.bptt_window
        acc = {k: np.zeros_like(v) for k, v in model.params.items()}
        one_dict = sum(v.nbytes for v in acc.values())
        assert traced_peak(lambda: _batch_grads(model, feats, [targets], [0], acc)) < one_dict

    def test_batch_grads_holds_one_block(self):
        # One (T, B) block alive at a time: its hidden states, backward's two
        # buffers, its features, logits, logit gradients and targets; plus
        # two parameter-sized temporaries (a weight gradient before it is
        # added, and slack for the allocator).
        cfg = ScorerConfig(**self.CFG)
        L, H, D, bins = cfg.recurrent_layers, cfg.hidden_dim, cfg.feature_dim, cfg.histogram.bins
        model = ScorerModel.init(cfg, seed=0)
        _, anns, feats = corpus(videos=6)
        targets = [build_frame_targets(a, cfg) for a in anns]
        acc = {k: np.zeros_like(v) for k, v in model.params.items()}
        largest = max(v.nbytes for v in acc.values())
        block = 8 * cfg.bptt_window * len(feats) * (L * H + 2 * H + D + 3 * (3 + 2 * bins))
        assert traced_peak(lambda: _batch_grads(model, feats, targets, range(len(feats)), acc)) <= block + 2 * largest
