import re

import numpy as np
import pytest

from hierstream.core import HierarchyLevel, validate_annotations
from hierstream.detector import run_stream
from hierstream.metrics.matching import hungarian_f1_corpus
from hierstream.scoring.histogram import histogram_expectation
from hierstream.scoring.streams import read_scores, write_scores
from hierstream.simulator import MAX_NOISE_SIGMA, SimConfig, gen_annotations, gen_features, gen_scores
from oracles import instance_at, per_frame_features, per_frame_scores, progress_target, state_target


class TestGenAnnotations:
    def test_deterministic(self):
        cfg = SimConfig(seed=11, videos=4)
        assert gen_annotations(cfg) == gen_annotations(cfg)

    def test_always_valid(self):
        for seed in range(40):
            cfg = SimConfig(seed=seed, videos=2,
                            zero_gap_prob=float(seed % 5) / 4.0)
            for a in gen_annotations(cfg):
                assert validate_annotations(a) == []

    def test_zero_gap_prob_one_means_touching(self):
        cfg = SimConfig(seed=2, videos=3, zero_gap_prob=1.0)
        for a in gen_annotations(cfg):
            for level in (HierarchyLevel.SUBSTEP, HierarchyLevel.STEP):
                instances = a.at_level(level)
                for prev, cur in zip(instances, instances[1:]):
                    assert cur.interval.start == prev.interval.end

    def test_zero_gap_prob_zero_respects_gap_range(self):
        cfg = SimConfig(seed=3, videos=3, zero_gap_prob=0.0, gap_range=(1.0, 2.0))
        for a in gen_annotations(cfg):
            subs = a.at_level(HierarchyLevel.SUBSTEP)
            for prev, cur in zip(subs, subs[1:]):
                gap = cur.interval.start - prev.interval.end
                # Gaps snap to the frame grid, so allow half a frame slack.
                assert gap == 0 or 1.0 - 0.5 / cfg.fps <= gap <= 2.0 + 0.5 / cfg.fps

    def test_substeps_nest_in_steps(self):
        cfg = SimConfig(seed=5, videos=3)
        for a in gen_annotations(cfg):
            assert validate_annotations(a, strict_nesting=True) == []

    def test_endpoints_on_frame_grid(self):
        cfg = SimConfig(seed=7, videos=2, fps=4.0)
        for a in gen_annotations(cfg):
            for inst in a.instances:
                for x in (inst.interval.start, inst.interval.end):
                    assert x == pytest.approx(round(x * a.fps) / a.fps, abs=1e-9)

    def test_infeasible_ranges_rejected(self):
        with pytest.raises(ValueError):
            gen_annotations(SimConfig(
                seed=0, videos=1, duration_range=(5.0, 8.0),
                steps_per_video=(4, 4), substeps_per_step=(4, 4),
            ))


class TestGenScores:
    def test_noise_free_state_argmax_matches_target(self):
        cfg = SimConfig(seed=1, videos=1)
        a = gen_annotations(cfg)[0]
        for fs in gen_scores(a, 0.0, cfg.fps, seed=0):
            assert int(np.argmax(fs.state_probs)) == state_target(fs.timestamp, a)

    def test_noise_free_progress_decodes_within_tolerance(self):
        cfg = SimConfig(seed=1, videos=1)
        a = gen_annotations(cfg)[0]
        for fs in gen_scores(a, 0.0, cfg.fps, seed=0):
            iv = instance_at(fs.timestamp, a, HierarchyLevel.SUBSTEP)
            if iv is None:
                continue
            p = progress_target(fs.timestamp, iv)
            if not 0.25 <= p <= 0.75:
                continue  # decode bias near the support edges is intrinsic
            decoded = histogram_expectation(fs.substep_progress_dist)
            assert decoded == pytest.approx(p, abs=0.02)

    def test_distributions_valid_even_under_heavy_noise(self):
        cfg = SimConfig(seed=2, videos=1, noise_sigma=5.0)
        a = gen_annotations(cfg)[0]
        for fs in gen_scores(a, cfg.noise_sigma, cfg.fps, seed=3):
            assert fs.validate() == []

    def test_largest_accepted_sigma_reads_back(self, tmp_path):
        cfg = SimConfig(seed=2, videos=3, noise_sigma=MAX_NOISE_SIGMA)
        for a in gen_annotations(cfg):
            path = tmp_path / f"{a.video_id}.csv"
            frames = gen_scores(a, cfg.noise_sigma, cfg.fps, seed=3)
            write_scores(path, frames)
            got = read_scores(path)
            assert len(got) == len(frames)
            run_stream(got)

    @pytest.mark.parametrize("sigma", [float("nan"), -1.0, float("inf"), 1e308])
    def test_gen_scores_checks_its_noise_as_sim_config_does(self, sigma):
        (a,) = gen_annotations(SimConfig(seed=2, videos=1))
        with pytest.raises(ValueError, match="noise_sigma must be") as direct:
            gen_scores(a, sigma, 4.0)
        with pytest.raises(ValueError) as configured:
            SimConfig(noise_sigma=sigma)
        assert str(direct.value) == str(configured.value)

    def test_largest_accepted_sigma_gives_finite_rows(self):
        (a,) = gen_annotations(SimConfig(seed=2, videos=1))
        frames = gen_scores(a, MAX_NOISE_SIGMA, 4.0, seed=3)
        assert frames
        for fs in frames:
            for dist in (fs.state_probs, fs.step_progress_dist, fs.substep_progress_dist):
                assert np.isfinite(dist).all()

    def test_deterministic_under_seed(self):
        cfg = SimConfig(seed=4, videos=1)
        a = gen_annotations(cfg)[0]
        s1 = gen_scores(a, 0.3, cfg.fps, seed=9)
        s2 = gen_scores(a, 0.3, cfg.fps, seed=9)
        for x, y in zip(s1, s2):
            np.testing.assert_array_equal(x.state_probs, y.state_probs)
            np.testing.assert_array_equal(x.substep_progress_dist, y.substep_progress_dist)

    def test_round_trip_f1(self):
        cfg = SimConfig(seed=6, videos=5, zero_gap_prob=1.0)
        videos = {HierarchyLevel.SUBSTEP: [], HierarchyLevel.STEP: []}
        for a in gen_annotations(cfg):
            emissions = run_stream(gen_scores(a, 0.0, cfg.fps, seed=0))
            for level, acc in videos.items():
                gt = [i.interval for i in a.at_level(level)]
                pred = [e.instance.interval for e in emissions if e.instance.level == level]
                acc.append((gt, pred))
        for level, acc in videos.items():
            assert hungarian_f1_corpus(acc, 0.7) >= 0.99


class TestGenFeatures:
    def test_progress_coordinates_exact_without_noise(self):
        cfg = SimConfig(seed=8, videos=1, noise_sigma=0.0)
        a = gen_annotations(cfg)[0]
        ts, feats = gen_features(a, cfg, seed=0)
        for idx, t in enumerate(ts):
            sub_iv = instance_at(float(t), a, HierarchyLevel.SUBSTEP)
            expected = progress_target(float(t), sub_iv) if sub_iv else 0.0
            assert feats[idx, 3] == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        cfg = SimConfig(seed=8, videos=1, noise_sigma=0.2)
        a = gen_annotations(cfg)[0]
        _, f1 = gen_features(a, cfg, seed=5)
        _, f2 = gen_features(a, cfg, seed=5)
        np.testing.assert_array_equal(f1, f2)

    def test_feature_dim_floor(self):
        with pytest.raises(ValueError):
            SimConfig(feature_dim=3)

    @pytest.mark.parametrize("field,value", [
        ("videos", -1),
        ("duration_range", (float("nan"), 60.0)), ("duration_range", (0.0, 60.0)),
        ("duration_range", (30.0, float("inf"))), ("duration_range", (60.0, 30.0)),
        ("gap_range", (float("nan"), 3.0)), ("gap_range", (1.0, float("nan"))),
        ("gap_range", (-1.0, 3.0)), ("gap_range", (3.0, 1.0)),
        ("steps_per_video", (0, 2)), ("substeps_per_step", (4, 2)),
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
        ("fps", float("nan")), ("fps", float("inf")),
    ])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("sigma", [MAX_NOISE_SIGMA * (1 + 1e-15), 1e308])
    def test_noise_that_can_overflow_a_logit_rejected(self, sigma):
        with pytest.raises(ValueError, match=r"noise_sigma must be at most 1e\+300"):
            SimConfig(noise_sigma=sigma)

    @pytest.mark.parametrize("gap_max", [1e308, 1e12])
    def test_gap_without_a_frame_grid_rejected(self, gap_max):
        with pytest.raises(ValueError, match=re.escape(f"gap_range max {gap_max} has no frame grid at fps 4.0")):
            SimConfig(gap_range=(1.0, gap_max))

    def test_more_substeps_than_frames_rejected(self):
        # 60 s at 4 fps is 241 frames: 60 steps of 4 substeps may fit, 61 never can.
        assert SimConfig(steps_per_video=(2, 60)).steps_per_video == (2, 60)
        with pytest.raises(ValueError, match="= 244 substeps cannot fit in the 241 frames"):
            SimConfig(steps_per_video=(2, 61))
        with pytest.raises(ValueError, match="cannot fit in the 9 frames"):
            SimConfig(duration_range=(1.0, 2.0), substeps_per_step=(1, 5))


@pytest.mark.parametrize("seed", [0, 1, 5, 12])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_streams_equal_per_frame_oracles_bit_for_bit(seed, sigma):
    cfg = SimConfig(seed=seed, videos=3, noise_sigma=sigma, zero_gap_prob=(seed % 5) / 4)
    for a in gen_annotations(cfg):
        got, want = gen_scores(a, sigma, cfg.fps, seed=seed), per_frame_scores(a, sigma, cfg.fps, seed=seed)
        assert [f.timestamp for f in got] == [f.timestamp for f in want]
        for x, y in zip(got, want):
            for name in ("state_probs", "step_progress_dist", "substep_progress_dist"):
                np.testing.assert_array_equal(getattr(x, name), getattr(y, name))
        for x, y in zip(gen_features(a, cfg, seed=seed), per_frame_features(a, cfg, seed=seed)):
            np.testing.assert_array_equal(x, y)
