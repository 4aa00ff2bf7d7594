"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from hierstream.cli import main as cli_main
from hierstream.core import HierarchyLevel, Interval
from hierstream.detector import DetectorConfig, StreamDetector, run_stream
from hierstream.memory import ContextMemory, _spaced
from hierstream.metrics.embedding import HashedBagOfWordsEmbedder
from hierstream.metrics.matching import hungarian_f1_corpus
from hierstream.metrics.semantic import topk_f1_corpus
from hierstream.pipeline import GroupingProposal, check_consistency, kmeans_canonicalize, postprocess
from hierstream.runner import mock_describer, run_described_stream
from hierstream.scoring.histogram import HistogramConfig, histogram_expectation, histogram_target
from hierstream.scoring.rnn import ScorerConfig, ScorerModel
from hierstream.simulator import SimConfig, gen_annotations, gen_scores
from oracles import (
    brute_force_f1,
    events_never_revised,
    numeric_gradient,
    quadrature_histogram,
    relative_error,
    soft_cross_entropy,
)

SUB = HierarchyLevel.SUBSTEP
STEP = HierarchyLevel.STEP
LEVELS = (SUB, STEP)


def report(n, ok, description, detail=""):
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_intervals(rng, n, span=30.0):
    out = []
    for _ in range(n):
        a, b = sorted(rng.uniform(0, span, 2))
        out.append(Interval(float(a), float(b)))
    return out


def per_level_f1(annotations, emission_lists, threshold):
    scores = {}
    for level in LEVELS:
        videos = []
        for a, emissions in zip(annotations, emission_lists):
            gt = [i.interval for i in a.at_level(level)]
            pred = [e.instance.interval for e in emissions if e.instance.level == level]
            videos.append((gt, pred))
        scores[level] = hungarian_f1_corpus(videos, threshold)
    return scores


def test_criterion_01_hungarian_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _case in range(1000):
        gt = random_intervals(rng, int(rng.integers(0, 7)))
        pred = random_intervals(rng, int(rng.integers(0, 7)))
        for threshold in (0.3, 0.5, 0.7):
            ours = hungarian_f1_corpus([(gt, pred)], threshold)
            oracle = brute_force_f1(gt, pred, threshold)
            assert ours == oracle, (gt, pred, threshold, ours, oracle)
    elapsed = time.time() - start
    report(1, elapsed < 10.0,
           "optimal-matching F1 equals exhaustive brute force on 1000 cases",
           f"{elapsed:.1f}s")


def test_criterion_02_noise_free_round_trip():
    start = time.time()
    annotations, emission_lists = [], []
    for seed, zgp in ((11, 1.0), (12, 0.6)):
        cfg = SimConfig(seed=seed, videos=50, zero_gap_prob=zgp, noise_sigma=0.0)
        for a in gen_annotations(cfg):
            annotations.append(a)
            emission_lists.append(run_stream(gen_scores(a, 0.0, cfg.fps, seed=seed)))
    scores = per_level_f1(annotations, emission_lists, 0.7)
    elapsed = time.time() - start
    ok = all(v >= 0.99 for v in scores.values()) and elapsed < 30.0
    report(2, ok, "noise-free round trip reaches F1@0.7 >= 0.99 on 100 videos",
           f"substep {scores[SUB]:.3f}, step {scores[STEP]:.3f}, {elapsed:.1f}s")


def test_criterion_03_hybrid_superiority():
    hybrid_cfg = DetectorConfig()
    disabled_cfg = DetectorConfig(drop_delta=1.5)  # progress cannot drop by 1.5
    sums = {"hybrid": {lv: 0.0 for lv in LEVELS}, "disabled": {lv: 0.0 for lv in LEVELS}}
    n_seeds = 50
    for seed in range(n_seeds):
        cfg = SimConfig(seed=seed, videos=2, zero_gap_prob=0.8, noise_sigma=0.5)
        annotations = gen_annotations(cfg)
        streams = [gen_scores(a, cfg.noise_sigma, cfg.fps, seed=seed) for a in annotations]
        for name, det in (("hybrid", hybrid_cfg), ("disabled", disabled_cfg)):
            emissions = [run_stream(s, det) for s in streams]
            scores = per_level_f1(annotations, emissions, 0.5)
            for lv in LEVELS:
                sums[name][lv] += scores[lv] / n_seeds
    ok = all(sums["hybrid"][lv] >= 1.5 * sums["disabled"][lv] for lv in LEVELS)
    report(3, ok, "hybrid detection beats drops-disabled by >= 1.5x at F1@0.5",
           ", ".join(
               f"{lv.name.lower()} {sums['hybrid'][lv]:.3f} vs {sums['disabled'][lv]:.3f}"
               for lv in LEVELS
           ))


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(77)
    worst_ce, worst_model = 0.0, 0.0
    for _ in range(100):
        k = int(rng.integers(2, 12))
        logits = rng.normal(0, 2, k)
        target = rng.dirichlet(np.ones(k))
        _, grad = soft_cross_entropy(logits, target)
        numeric = numeric_gradient(lambda: soft_cross_entropy(logits, target)[0], logits)
        worst_ce = max(worst_ce, relative_error(grad, numeric))

    for trial in range(100):
        cfg = ScorerConfig(
            feature_dim=int(rng.integers(2, 5)),
            recurrent_layers=int(rng.integers(1, 4)),
            hidden_dim=int(rng.integers(3, 9)),
            histogram=HistogramConfig(bins=4),
            bptt_window=16,
        )
        T = int(rng.integers(2, 13))
        model = ScorerModel.init(cfg, seed=trial)
        feats = rng.normal(0, 1, (T, cfg.feature_dim))
        targets = (
            rng.integers(0, 3, T),
            rng.dirichlet(np.ones(4), T),
            rng.random(T) < 0.6,
            rng.dirichlet(np.ones(4), T),
            rng.random(T) < 0.6,
        )
        cache = model.forward(feats)
        _, d_logits = model.window_loss(cache, *targets)
        grads = model.backward(cache, d_logits)

        def loss_fn():
            return model.window_loss(model.forward(feats), *targets)[0]

        for name, param in model.params.items():
            numeric = numeric_gradient(loss_fn, param)
            worst_model = max(worst_model, relative_error(grads[name], numeric))

    ok = worst_ce < 1e-3 and worst_model < 1e-3
    report(4, ok, "analytic gradients match finite differences on 100 configurations",
           f"worst loss-grad {worst_ce:.2e}, worst model-grad {worst_model:.2e}")


def test_criterion_05_histogram_target_fidelity():
    cfg = HistogramConfig(bins=10, sigma=0.15)
    sums_ok = True
    oracle_ok = True
    deviations = {}
    for p in [round(0.1 * i, 1) for i in range(1, 10)]:
        target = histogram_target(p, cfg)
        sums_ok = sums_ok and abs(target.sum() - 1.0) <= 1e-9
        oracle = quadrature_histogram(p, bins=10, sigma=0.15, points_per_bin=200_000)
        oracle_ok = oracle_ok and np.allclose(target, oracle, atol=1e-8)
        deviations[p] = histogram_expectation(target, cfg) - p
    assert sums_ok, "targets must sum to 1 within 1e-9"
    assert oracle_ok, "targets must match the quadrature oracle"
    # The +-0.02 decode bound cannot hold near the support edges: the
    # renormalized truncated Gaussian shifts the mean inward by
    # sigma*phi(alpha)/Z, about 0.066 at p=0.1 with sigma=0.15. The check
    # runs as stated and fails honestly there.
    within = {p: abs(d) <= 0.02 for p, d in deviations.items()}
    detail = ", ".join(f"p={p}: {d:+.3f}" for p, d in deviations.items() if not within[p])
    report(5, all(within.values()),
           "histogram round trip decodes within 0.02 for p in {0.1..0.9}",
           detail or "all points within tolerance")


def test_criterion_06_online_causality():
    rng = np.random.default_rng(55)
    for k in range(200):
        cfg = SimConfig(seed=1000 + k, videos=1, zero_gap_prob=0.7, noise_sigma=1.0,
                        duration_range=(20.0, 40.0), substeps_per_step=(2, 3))
        a = gen_annotations(cfg)[0]
        stream = gen_scores(a, cfg.noise_sigma, cfg.fps, seed=k)
        cut = int(rng.integers(1, len(stream)))

        full_events = events_never_revised(StreamDetector(), stream)

        det_prefix = StreamDetector()
        prefix_events = []
        for fs in stream[:cut]:
            prefix_events.extend(det_prefix.step(fs))
        boundary = stream[cut - 1].timestamp
        head = [e for e in full_events if e.timestamp <= boundary]
        assert prefix_events == head, f"prefix divergence at stream {k}, cut {cut}"
    report(6, True, "prefix consistency exact on 200 noisy streams, returned events never revised")


def test_criterion_07_metric_algebra():
    rng = np.random.default_rng(99)
    embedder = HashedBagOfWordsEmbedder()
    texts = [f"verb{i} object{i} detail{i}" for i in range(12)]

    for _ in range(500):
        gt = random_intervals(rng, int(rng.integers(1, 7)))
        pred = random_intervals(rng, int(rng.integers(1, 7)))
        f1_03 = hungarian_f1_corpus([(gt, pred)], 0.3)
        f1_05 = hungarian_f1_corpus([(gt, pred)], 0.5)
        f1_07 = hungarian_f1_corpus([(gt, pred)], 0.7)
        assert f1_07 <= f1_05 <= f1_03, "threshold monotonicity"
        assert f1_05 == hungarian_f1_corpus([(pred, gt)], 0.5), "symmetry"
        c = float(rng.uniform(0.05, 40.0))
        gt_scaled = [Interval(g.start * c, g.end * c) for g in gt]
        pred_scaled = [Interval(p.start * c, p.end * c) for p in pred]
        assert f1_05 == hungarian_f1_corpus([(gt_scaled, pred_scaled)], 0.5), "scale invariance"

    from hierstream.core import ActionInstance
    for _ in range(500):
        n_gt, n_pred = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gt = [ActionInstance(iv, texts[int(rng.integers(12))], SUB)
              for iv in random_intervals(rng, n_gt)]
        pred = [ActionInstance(iv, texts[int(rng.integers(12))], SUB)
                for iv in random_intervals(rng, n_pred)]
        corpus = list(dict.fromkeys(g.description for g in gt))
        plain = hungarian_f1_corpus([([g.interval for g in gt], [p.interval for p in pred])], 0.5)
        limited = topk_f1_corpus([(gt, pred)], 0.5, 1, embedder, corpus)
        full = topk_f1_corpus([(gt, pred)], 0.5, len(corpus), embedder, corpus)
        assert limited <= plain + 1e-12, "top-k never exceeds plain F1"
        assert full == plain, "top-k equals plain F1 at k = corpus size"
    report(7, True, "monotonicity, symmetry, scale invariance, top-k bounds on 500 cases each")


def test_criterion_08_context_memory_policy():
    spacing_ok = True
    history_ok = True
    goal_ok = True
    subset_ok = True
    frame_period = 1.0 / 4.0

    original_query = ContextMemory.query
    observations = []

    def spying_query(self, instance):
        bundle = original_query(self, instance)
        if instance.level == STEP:
            all_inside = [
                i for i, t in enumerate(self._times)
                if instance.interval.start <= t <= instance.interval.end
            ]
            uniform = _spaced(self._times, all_inside, 3.3)
            observations.append(("step", bundle, len(uniform)))
        elif instance.level == HierarchyLevel.GOAL:
            n_steps = sum(1 for p in self._predictions if p.level == STEP)
            observations.append(("goal", bundle, n_steps))
        return bundle

    ContextMemory.query = spying_query
    try:
        for seed in range(100):
            cfg = SimConfig(seed=seed, videos=1, zero_gap_prob=0.6, noise_sigma=0.0)
            a = gen_annotations(cfg)[0]
            stream = gen_scores(a, 0.0, cfg.fps, seed=seed)
            run_described_stream(stream, mock_describer())
    finally:
        ContextMemory.query = original_query

    for kind, bundle, extra in observations:
        if kind == "step":
            times = list(bundle.frames)
            spacing_ok = spacing_ok and all(
                b - a >= 3.3 - frame_period - 1e-9 for a, b in zip(times, times[1:])
            )
            history_ok = history_ok and len(bundle.prior_predictions) <= 10
            subset_ok = subset_ok and len(bundle.frames) <= extra
        else:
            goal_ok = goal_ok and len(bundle.frames) == extra

    ok = spacing_ok and history_ok and goal_ok and subset_ok
    report(8, ok, "retrieval policy holds on 100 videos",
           f"spacing {spacing_ok}, history {history_ok}, goal {goal_ok}, subset {subset_ok}")


def test_criterion_09_end_to_end_determinism(tmp_path):
    fps = 4.0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main([
            "e2e", "--seed", "21", "--videos", "4", "--fps", str(fps), "--out", str(out),
        ])
        assert code == 0
    bytes_a = (out_a / "report.json").read_bytes()
    bytes_b = (out_b / "report.json").read_bytes()
    identical = bytes_a == bytes_b

    import json
    rep = json.loads(bytes_a)
    aedt_ok = True
    for level in ("substep", "step"):
        delay = rep["levels"][level]["aedt"]
        aedt_ok = aedt_ok and delay is not None and delay["mean_abs"] <= 1.5 / fps
    report(9, identical and aedt_ok,
           "seeded e2e reports byte-identical; noise-free AEDT <= 1.5 frame periods",
           f"identical {identical}, aedt ok {aedt_ok}")


def test_criterion_10_pipeline_soundness():
    rng = np.random.default_rng(123)
    from hierstream.core import ActionInstance
    idempotent = True
    coverage = True
    for _ in range(500):
        n = int(rng.integers(1, 10))
        spans = []
        t = 0.0
        for _ in range(n):
            length = float(rng.uniform(0.5, 3.0))
            spans.append((t, t + length))
            t += length + float(rng.uniform(0.0, 2.0))
        atoms = [ActionInstance(Interval(a, b), f"atom", SUB) for a, b in spans]
        groups = []
        i = 0
        while i < n:
            hi = min(n - 1, i + int(rng.integers(1, 4)) - 1)
            if rng.random() < 0.6:
                groups.append((i, hi))
            i = hi + 1 + int(rng.integers(0, 3))
        proposal = GroupingProposal(
            tuple(groups), tuple("s" for _ in groups), "g",
        )
        once = postprocess(proposal, atoms)
        idempotent = idempotent and postprocess(once, atoms) == once
        coverage = coverage and check_consistency(once, atoms, (0.0, 1e9)).missing == ()

    blob_a = [f"whisk egg batter bowl{i}" for i in range(12)]
    blob_b = [f"tighten wheel bolt spanner{i}" for i in range(12)]
    result = kmeans_canonicalize(blob_a + blob_b, 2, HashedBagOfWordsEmbedder(), seed=3)
    blobs_ok = len(set(result.assignments[:12])) == 1 \
        and len(set(result.assignments[12:])) == 1 \
        and result.assignments[0] != result.assignments[12]
    trace = result.objective_trace
    monotone = all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    ok = idempotent and coverage and blobs_ok and monotone
    report(10, ok, "postprocess idempotent with full coverage; k-means monotone, recovers blobs",
           f"idempotent {idempotent}, coverage {coverage}, blobs {blobs_ok}, monotone {monotone}")
