import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hierstream.core import ActionInstance, AnnotationSet, HierarchyLevel, Interval, validate_annotations
from hierstream.detector import run_stream
from hierstream.metrics.matching import hungarian_f1_corpus
from hierstream.scoring.histogram import HistogramConfig
from hierstream.scoring.rnn import ScorerConfig, ScorerModel, infer_scores
from hierstream.scoring import train
from hierstream.scoring.train import AdamW, _batch_grads, build_frame_targets, train_scorer
from hierstream.simulator import SimConfig, gen_annotations, gen_features
from oracles import dict_train_scorer


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
        _, trace_a = train_scorer(feats, anns, cfg, seed=5)
        _, trace_b = train_scorer(feats, anns, cfg, seed=5)
        assert trace_a == trace_b

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


class TestAgainstDictOracle:
    """Training that adds gradients into one accumulator and updates AdamW
    in place against the form with a gradient dict per window and new
    arrays per step: the same weights and loss trace, bit for bit."""

    @pytest.mark.parametrize("trial", range(6))
    def test_train_scorer_matches_oracle_bit_for_bit(self, trial):
        rng = np.random.default_rng(40 + trial)
        videos = int(rng.integers(3, 6))
        sim = SimConfig(seed=trial, videos=videos, noise_sigma=0.3, duration_range=(8.0, 16.0))
        anns = gen_annotations(sim)
        feats = [gen_features(a, sim, seed=trial)[1] for a in anns]
        window = next(int(w) for w in rng.integers(3, 20, 100) if any(len(f) % w for f in feats))
        cfg = ScorerConfig(
            feature_dim=sim.feature_dim, recurrent_layers=1 + trial % 3,
            hidden_dim=int(rng.integers(2, 12)), learning_rate=float(rng.uniform(1e-3, 1e-2)),
            weight_decay=float(rng.choice([0.0, 0.01, 0.1])), batch_size=int(rng.integers(1, videos)),
            epochs=2, bptt_window=window, histogram=HistogramConfig(bins=int(rng.integers(2, 8))),
        )
        model, trace = train_scorer(feats, anns, cfg, seed=trial)
        ref, ref_trace = dict_train_scorer(feats, anns, cfg, seed=trial)
        assert trace == ref_trace
        assert model.params.keys() == ref.params.keys()
        for name in ref.params:
            assert np.array_equal(model.params[name], ref.params[name]), name


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
        # Overlapped, the window running forward on the worker thread and
        # its cache count too.
        cfg = ScorerConfig(**self.CFG)
        model = ScorerModel.init(cfg, seed=0)
        _, anns, feats = corpus(videos=1)
        targets = build_frame_targets(anns[0], cfg)
        assert len(feats[0]) > 2 * cfg.bptt_window
        acc = {k: np.zeros_like(v) for k, v in model.params.items()}
        one_dict = sum(v.nbytes for v in acc.values())
        for overlap in (False, True):
            assert traced_peak(lambda: _batch_grads(model, feats, [targets], [0], acc, overlap)) < one_dict


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
two_cpus = pytest.mark.skipif(CPUS < 2, reason="overlap needs a second CPU")


@pytest.fixture
def prefetches(monkeypatch):
    """Counts the batches whose windows ran forward on a worker thread."""
    calls = []
    prefetched = train._prefetched

    def counted(items):
        calls.append(1)
        return prefetched(items)

    monkeypatch.setattr(train, "_prefetched", counted)
    return calls


@pytest.fixture
def fast_switching():
    """The interpreter switches threads every microsecond instead of every
    5 ms, so the two threads interleave at many more points."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@two_cpus
class TestOverlapped:
    """The next window's forward on a worker thread while this one runs
    backward: the same operations in the same order, so bit for bit the
    sequential form's and the oracle's weights and loss trace."""

    def test_only_models_from_the_crossover_up_overlap(self):
        assert not train._overlapped(desk_cfg(hidden_dim=train.OVERLAP_MIN_HIDDEN - 1))
        assert train._overlapped(desk_cfg(hidden_dim=train.OVERLAP_MIN_HIDDEN))

    @pytest.mark.parametrize("trial", range(6))
    def test_oracle_trials_overlapped(self, trial, prefetches, monkeypatch, fast_switching):
        monkeypatch.setattr(train, "OVERLAP_MIN_HIDDEN", 1)
        TestAgainstDictOracle().test_train_scorer_matches_oracle_bit_for_bit(trial)
        assert prefetches

    @pytest.mark.parametrize("overrides", [dict(batch_size=1), dict(hidden_dim=train.OVERLAP_MIN_HIDDEN)],
                             ids=["batch-size-1", "hidden-at-crossover"])
    def test_matches_sequential_and_oracle(self, overrides, prefetches, monkeypatch, fast_switching):
        sim = SimConfig(seed=5, videos=3, noise_sigma=0.3, duration_range=(8.0, 16.0))
        anns = gen_annotations(sim)
        feats = [gen_features(a, sim, seed=5)[1] for a in anns]
        cfg = desk_cfg(epochs=2, bptt_window=7, **overrides)
        if "hidden_dim" not in overrides:
            monkeypatch.setattr(train, "OVERLAP_MIN_HIDDEN", 1)
        model, trace = train_scorer(feats, anns, cfg, seed=2)
        assert len(prefetches) == 2 * -(-3 // cfg.batch_size)
        monkeypatch.setattr(train, "OVERLAP_MIN_HIDDEN", 10**9)
        seq, seq_trace = train_scorer(feats, anns, cfg, seed=2)
        ref, ref_trace = dict_train_scorer(feats, anns, cfg, seed=2)
        assert len(prefetches) == 2 * -(-3 // cfg.batch_size)
        assert trace == seq_trace == ref_trace
        for name in ref.params:
            assert np.array_equal(model.params[name], seq.params[name]), name
            assert np.array_equal(model.params[name], ref.params[name]), name

    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_exception_leaves_unchanged_and_no_thread_outlives(self, method, prefetches, monkeypatch):
        _, anns, feats = corpus(videos=2)
        monkeypatch.setattr(train, "OVERLAP_MIN_HIDDEN", 1)
        boom, calls, threads = RuntimeError("boom"), [], []
        original = getattr(ScorerModel, method)

        def failing(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                threads.append(threading.current_thread())
                raise boom
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ScorerModel, method, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            train_scorer(feats, anns, desk_cfg(), seed=0)
        assert caught.value is boom and prefetches
        assert (threads[0] is threading.main_thread()) == (method == "backward")
        assert threading.active_count() == before
