import json
from pathlib import Path

import numpy as np
import pytest

from hierstream import cli
from hierstream._http import TransportError
from hierstream.cli import EXIT_PARTIAL, main
from hierstream.core import HierarchyLevel, read_annotations, validate_annotations
from hierstream.detector import Emission, read_emissions, write_emissions
from hierstream.runner import mock_describer
from hierstream.scoring.rnn import ScorerConfig, ScorerModel, infer_scores
from hierstream.scoring.streams import read_features, read_scores

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def identity_predictions(tmp_path):
    """A simulated corpus plus predictions that copy its annotations,
    descriptions included, emitted at each instance's end."""
    corpus = tmp_path / "corpus"
    assert run("simulate", "--seed", 6, "--videos", 2, "--out", corpus) == 0
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for a in read_annotations(corpus / "annotations.jsonl"):
        ems = [
            Emission(inst, inst.interval.end)
            for inst in a.instances
            if inst.level != HierarchyLevel.GOAL
        ]
        write_emissions(ems, pred_dir / f"{a.video_id}.jsonl")
    return corpus, pred_dir


class TestSimulate:
    def test_writes_corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert run("simulate", "--seed", 3, "--videos", 4, "--out", out) == 0
        annotations = read_annotations(out / "annotations.jsonl")
        assert len(annotations) == 4
        for a in annotations:
            assert validate_annotations(a) == []
            assert (out / "scores" / f"{a.video_id}.csv").exists()
        assert (out / "run_config.json").exists()

    def test_features_flag(self, tmp_path):
        out = tmp_path / "corpus"
        assert run("simulate", "--videos", 2, "--features", "--out", out) == 0
        for a in read_annotations(out / "annotations.jsonl"):
            assert (out / "features" / f"{a.video_id}.csv").exists()


class TestDetectAndEvaluate:
    def test_detect_round_trip(self, tmp_path):
        corpus = tmp_path / "corpus"
        emissions = tmp_path / "emissions"
        report_path = tmp_path / "report.json"
        assert run("simulate", "--seed", 5, "--videos", 3, "--out", corpus) == 0
        assert run("detect", "--scores", corpus / "scores", "--out", emissions) == 0
        assert run(
            "evaluate", "--annotations", corpus / "annotations.jsonl",
            "--pred", emissions, "--out", report_path,
        ) == 0
        report = json.loads(report_path.read_text())
        for level in ("substep", "step"):
            assert report["levels"][level]["f1_loc"]["0.7"] >= 0.99

    def test_evaluate_identity_predictions(self, tmp_path):
        corpus, pred_dir = identity_predictions(tmp_path)
        report_path = tmp_path / "report.json"
        assert run(
            "evaluate", "--annotations", corpus / "annotations.jsonl",
            "--pred", pred_dir, "--out", report_path,
        ) == 0
        report = json.loads(report_path.read_text())
        for level in ("substep", "step"):
            for t in ("0.3", "0.5", "0.7"):
                assert report["levels"][level]["f1_loc"][t] == 1.0
            assert report["levels"][level]["aedt"]["mean_abs"] == 0.0


class TestDescribe:
    def test_describe_writes_descriptions_and_goals(self, tmp_path):
        corpus = tmp_path / "corpus"
        out = tmp_path / "described"
        assert run("simulate", "--seed", 7, "--videos", 2, "--out", corpus) == 0
        assert run("describe", "--scores", corpus / "scores", "--out", out) == 0
        goals = json.loads((out / "goals.json").read_text())
        assert len(goals) == 2 and all(goals.values())
        for jsonl in out.glob("*.jsonl"):
            for e in read_emissions(jsonl):
                assert e.instance.description


class TestE2E:
    def test_seeded_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("e2e", "--seed", 7, "--videos", 3, "--out", out) == 0
        report_a = (out_a / "report.json").read_bytes()
        report_b = (out_b / "report.json").read_bytes()
        assert report_a == report_b
        report = json.loads(report_a)
        assert report["goal_accuracy"] is not None
        assert report["levels"]["substep"]["f1_loc_desc"] is not None

    def test_report_matches_committed_one(self, tmp_path):
        # Pins the seeded report across commits, not only across two runs.
        assert run("e2e", "--seed", 7, "--videos", 5, "--out", tmp_path) == 0
        expected = (DATA / "e2e_seed7_videos5_report.json").read_bytes()
        assert (tmp_path / "report.json").read_bytes() == expected

    def test_training_arm_scores_frames_through_step(self, tmp_path):
        # e2e --train feeds the loop frames scored one at a time; they must
        # equal batch inference bit for bit.
        assert run("simulate", "--seed", 2, "--videos", 1, "--features", "--out", tmp_path) == 0
        (path,) = (tmp_path / "features").glob("*.csv")
        ts, feats = read_features(path)
        model = ScorerModel.init(ScorerConfig(feature_dim=feats.shape[1], recurrent_layers=2,
                                              hidden_dim=8), seed=3)
        streamed = list(cli._scored_frames(model, path))
        batch = infer_scores(model, feats, timestamps=ts)
        assert len(streamed) == len(batch)
        for a, b in zip(streamed, batch):
            assert a.timestamp == b.timestamp
            for name in ("state_probs", "step_progress_dist", "substep_progress_dist"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_e2e_with_training_arm(self, tmp_path):
        out = tmp_path / "trained"
        code = run(
            "e2e", "--seed", 1, "--videos", 4, "--noise-sigma", "0.1",
            "--train", "--epochs", 4, "--hidden-dim", 12, "--layers", 1,
            "--out", out,
        )
        assert code == 0
        assert (out / "model.npz").exists()
        assert (out / "report.json").exists()


class TestPipelineCommand:
    def test_groups_substep_only_input(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 9, "--videos", 2, "--out", corpus) == 0
        # Strip to substeps only.
        atoms_path = tmp_path / "atoms.jsonl"
        stripped = []
        for a in read_annotations(corpus / "annotations.jsonl"):
            stripped.append(json.dumps({
                "video_id": a.video_id, "duration": a.duration, "fps": a.fps,
                "goal": "",
                "instances": [
                    {"start": i.interval.start, "end": i.interval.end,
                     "level": 1, "description": i.description}
                    for i in a.at_level(HierarchyLevel.SUBSTEP)
                ],
            }))
        atoms_path.write_text("\n".join(stripped) + "\n")

        out = tmp_path / "grouped"
        assert run("pipeline", "--input", atoms_path, "--k", 3, "--out", out) == 0
        grouped = read_annotations(out / "annotations.jsonl")
        assert len(grouped) == 2
        for a in grouped:
            assert validate_annotations(a) == []
            assert a.at_level(HierarchyLevel.STEP)
            assert a.goal
        consistency = json.loads((out / "consistency.json").read_text())
        assert all(entry["missing"] == [] for entry in consistency.values())


class TestErrors:
    def test_usage_error_exit_code(self):
        assert run("frobnicate") == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert run("evaluate", "--annotations", missing, "--pred", missing) == 2

    def test_missing_scores_path_is_a_data_error(self, tmp_path):
        for command in ("detect", "describe"):
            out = tmp_path / command
            assert run(command, "--scores", tmp_path / "nope", "--out", out) == 2
            assert not (out / "failures.json").exists()

    def test_out_of_range_evaluation_parameters(self, tmp_path):
        corpus, pred_dir = identity_predictions(tmp_path)
        base = ["evaluate", "--annotations", corpus / "annotations.jsonl", "--pred", pred_dir,
                "--out", tmp_path / "report.json"]
        assert run(*base) == 0
        assert run(*base, "--aedt-tiou", "0") == 2
        assert run(*base, "--tiou", "0,0.5") == 2
        assert run(*base, "--topk", "0") == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"videos": 5, "seed": 11}))
        out = tmp_path / "corpus"
        assert run(
            "simulate", "--config", cfg_path, "--videos", 2, "--out", out,
        ) == 0
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert run_cfg["videos"] == 2      # explicit flag wins
        assert run_cfg["seed"] == 11       # file fills the rest
        assert len(read_annotations(out / "annotations.jsonl")) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        assert run("simulate", "--config", cfg_path, "--out", tmp_path / "x") == 2


def failing_on(last_ts):
    """The mock describer, except that the goal call of the video whose
    stream ends at ``last_ts`` raises a transport error."""
    base = mock_describer()

    def describe(bundle, request):
        if bundle.level == HierarchyLevel.GOAL and bundle.interval.end == last_ts:
            raise TransportError("endpoint down")
        return base(bundle, request)

    return describe


def corpus_with_failing_video(tmp_path, monkeypatch, seed):
    """A 3-video corpus and a describer that fails on its second video."""
    corpus = tmp_path / "corpus"
    assert run("simulate", "--seed", seed, "--videos", 3, "--out", corpus) == 0
    ids = [a.video_id for a in read_annotations(corpus / "annotations.jsonl")]
    last = {vid: read_scores(corpus / "scores" / f"{vid}.csv")[-1].timestamp for vid in ids}
    assert len(set(last.values())) == len(ids)
    monkeypatch.setattr(cli, "_make_describe_fn", lambda args: failing_on(last[ids[1]]))
    return corpus, ids


@pytest.mark.parametrize("jobs", [1, 2])
class TestPartialFailure:
    def test_describe_finishes_other_videos(self, tmp_path, monkeypatch, jobs):
        corpus, ids = corpus_with_failing_video(tmp_path, monkeypatch, seed=4)
        out = tmp_path / "described"
        code = run("describe", "--scores", corpus / "scores", "--jobs", jobs, "--out", out)
        assert code == EXIT_PARTIAL
        failures = json.loads((out / "failures.json").read_text())
        assert list(failures) == [ids[1]]
        assert "TransportError: endpoint down" in failures[ids[1]]
        ok = [ids[0], ids[2]]
        assert sorted(p.stem for p in out.glob("*.jsonl")) == ok
        assert sorted(json.loads((out / "goals.json").read_text())) == ok

    def test_e2e_writes_no_report(self, tmp_path, monkeypatch, jobs):
        out = tmp_path / "e2e"
        assert run("e2e", "--seed", 7, "--videos", 3, "--out", out) == 0
        assert (out / "report.json").exists() and not (out / "failures.json").exists()
        _, ids = corpus_with_failing_video(tmp_path, monkeypatch, seed=7)
        for p in (out / "emissions").glob("*.jsonl"):
            p.unlink()
        assert run("e2e", "--seed", 7, "--videos", 3, "--jobs", jobs, "--out", out) == EXIT_PARTIAL
        assert not (out / "report.json").exists()  # the earlier run's is gone too
        assert list(json.loads((out / "failures.json").read_text())) == [ids[1]]
        assert sorted(p.stem for p in (out / "emissions").glob("*.jsonl")) == [ids[0], ids[2]]
        monkeypatch.undo()
        assert run("e2e", "--seed", 7, "--videos", 3, "--out", out) == 0
        assert (out / "report.json").exists() and not (out / "failures.json").exists()

    def test_detect_finishes_past_unreadable_stream(self, tmp_path, jobs):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 5, "--videos", 3, "--out", corpus) == 0
        paths = sorted((corpus / "scores").glob("*.csv"))
        with open(paths[0], "a") as fh:
            fh.write("not,a,row\n")
        out = tmp_path / "emissions"
        assert run("detect", "--scores", corpus / "scores", "--jobs", jobs, "--out", out) == EXIT_PARTIAL
        failures = json.loads((out / "failures.json").read_text())
        assert list(failures) == [paths[0].stem]
        assert "ValueError" in failures[paths[0].stem]
        assert sorted(p.stem for p in out.glob("*.jsonl")) == [p.stem for p in paths[1:]]
