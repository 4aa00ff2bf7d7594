import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from hierstream import cli
from hierstream._http import TransportError
from hierstream.cli import EXIT_PARTIAL, main
from hierstream.core import HierarchyLevel, read_annotations, validate_annotations
from hierstream.detector import Emission, read_emissions, write_emissions
from hierstream.runner import mock_describer
from hierstream.scoring.rnn import ScorerConfig, ScorerModel, infer_scores, stream_scores
from hierstream.scoring.streams import read_features, read_scores
from test_describer import _StubHandler, chat_reply, stub_server  # noqa: F401 (a fixture)
from test_scorer import with_random_biases

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


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


def echo_answer(body):
    """A stub reply that depends on everything the request carries, so a
    reply given to the wrong video or instance changes the outputs."""
    parts = body["messages"][0]["content"]
    urls = [part["image_url"]["url"] for part in parts[1:]]
    text = f"{len(urls)} frames from {urls[0] if urls else '-'}, prompt {zlib.crc32(parts[0]['text'].encode()):08x}"
    return 200, chat_reply(
        f"Answer:\nshort form response: {text}\n"
        f"long form response (before revision): {text}\n"
        f"long form response (after revision): {text}, revised"
    )


def http_args(url, inflight):
    return ["--describer", "http", "--endpoint", url, "--max-inflight", inflight]


class TestHttpDescribe:
    def test_same_outputs_at_any_inflight(self, tmp_path, stub_server):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 8, "--videos", 4, "--out", corpus) == 0
        _StubHandler.answer = echo_answer
        outputs = []
        for inflight in (1, 4):
            out = tmp_path / f"inflight{inflight}"
            assert run("describe", "--scores", corpus / "scores", *http_args(stub_server, inflight),
                       "--out", out) == 0
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.json*") if p.name != "run_config.json"})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 4 + 2  # emissions per video, goals.json and http_stats.json
        goals = json.loads(outputs[0]["goals.json"])
        assert all("frames from" in g for g in goals.values())
        calls = len(_StubHandler.requests_seen) // 2
        assert json.loads(outputs[0]["http_stats.json"]) == {"describer": {"requests": calls, "retries": 0}}

    def test_default_image_mode_sends_frame_labels_as_urls(self, tmp_path, stub_server):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 8, "--videos", 1, "--out", corpus) == 0
        _StubHandler.answer = echo_answer
        assert run("describe", "--scores", corpus / "scores", "--describer", "http",
                   "--endpoint", stub_server, "--out", tmp_path / "out") == 0
        urls = [part["image_url"]["url"] for body in _StubHandler.requests_seen
                for part in body["messages"][0]["content"][1:]]
        assert urls and all(u.startswith("frame@") for u in urls)


def http_answer(body):
    """Chat completions echo the request; embeddings are two numbers a text."""
    if "input" in body:
        return 200, {"data": [{"index": i, "embedding": [1.0 + len(t), float(zlib.crc32(t.encode()) % 7)]}
                              for i, t in enumerate(body["input"])]}
    return echo_answer(body)


class TestHttpStats:
    def test_e2e_writes_request_and_retry_counts(self, tmp_path, stub_server):
        _StubHandler.script = [(500, {})]  # the first request is retried once
        _StubHandler.answer = http_answer
        out = tmp_path / "out"
        assert run("e2e", "--seed", 7, "--videos", 2, *http_args(stub_server, 1),
                   "--embedder", "http", "--out", out) == 0
        chat = sum("messages" in body for body in _StubHandler.requests_seen)
        embed = len(_StubHandler.requests_seen) - chat
        assert chat > 2 and embed > 0
        assert json.loads((out / "http_stats.json").read_text()) == {
            "describer": {"requests": chat, "retries": 1},
            "embedder": {"requests": embed, "retries": 0},
        }
        assert "requests" not in (out / "report.json").read_text()

    def test_mock_runs_write_no_stats(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "http_stats.json").write_text("{}")  # from an earlier HTTP run
        assert run("e2e", "--seed", 7, "--videos", 2, "--out", out) == 0
        assert not (out / "http_stats.json").exists()

    def test_evaluate_writes_counts_next_to_its_report(self, tmp_path, stub_server):
        corpus, pred = identity_predictions(tmp_path)
        _StubHandler.answer = http_answer
        report = tmp_path / "eval" / "report.json"
        assert run("evaluate", "--annotations", corpus / "annotations.jsonl", "--pred", pred,
                   "--embedder", "http", "--endpoint", stub_server, "--out", report) == 0
        stats = json.loads((tmp_path / "eval" / "report.http_stats.json").read_text())
        assert stats == {"embedder": {"requests": len(_StubHandler.requests_seen), "retries": 0}}


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

    TRAINED_E2E = ("e2e", "--seed", 7, "--videos", 4, "--noise-sigma", 0.1, "--train", "--layers", 2,
                   "--learning-rate", 0.01, "--epochs", 8)

    def test_trained_report_matches_committed_one(self, tmp_path):
        # Pins the scorer's bits across commits: the seed-7 report above
        # never runs it, while here training and per-frame scoring do.
        assert run(*self.TRAINED_E2E, "--out", tmp_path) == 0
        expected = (DATA / "e2e_seed7_videos4_train_report.json").read_bytes()
        assert (tmp_path / "report.json").read_bytes() == expected

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_trained_weights_digest_on_prescott_kernels(self, tmp_path):
        # The report is coarse, so the trained weights are pinned by digest
        # too: a rounding change anywhere in forward or backward moves them.
        # OpenBLAS kernels sum a gemv in different orders, so the run is
        # pinned to the Prescott ones (SSE3, in numpy's x86-64 baseline),
        # in a child process: this process has loaded its kernel already.
        proc = subprocess.run(
            [sys.executable, "-m", "hierstream.cli", *map(str, self.TRAINED_E2E), "--out", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_CORETYPE": "Prescott"},
        )
        assert proc.returncode == 0, proc.stderr
        expected = (DATA / "e2e_seed7_videos4_train_report.json").read_bytes()
        assert (tmp_path / "report.json").read_bytes() == expected
        params, digest = ScorerModel.load(tmp_path / "model.npz").params, hashlib.sha256()
        for name in sorted(params):
            digest.update(name.encode())
            digest.update(params[name].tobytes())
        assert digest.hexdigest() == "331bb95d86fbfa40f436de152bf75206c12e103e8b93add12faf2aad4cf3e6f2"

    def test_training_arm_scores_frames_through_step(self, tmp_path):
        # e2e --train feeds the loop frames scored one at a time by
        # stream_scores; they must equal batch inference bit for bit.
        assert run("simulate", "--seed", 2, "--videos", 1, "--features", "--out", tmp_path) == 0
        (path,) = (tmp_path / "features").glob("*.csv")
        ts, feats = read_features(path)
        model = with_random_biases(ScorerModel.init(
            ScorerConfig(feature_dim=feats.shape[1], recurrent_layers=2, hidden_dim=8), seed=3), 3)
        streamed = list(stream_scores(model, ts, feats))
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


def substep_only_input(tmp_path):
    """A simulated 2-video corpus stripped to its substeps, as pipeline input."""
    corpus = tmp_path / "corpus"
    assert run("simulate", "--seed", 9, "--videos", 2, "--out", corpus) == 0
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
    return atoms_path


class TestPipelineCommand:
    def test_groups_substep_only_input(self, tmp_path):
        atoms_path = substep_only_input(tmp_path)
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
        assert not (out / "http_stats.json").exists()

    def test_http_embedder_counts_written(self, tmp_path, stub_server):
        _StubHandler.answer = http_answer
        out = tmp_path / "grouped"
        assert run("pipeline", "--input", substep_only_input(tmp_path), "--k", 3,
                   "--embedder", "http", "--endpoint", stub_server, "--out", out) == 0
        stats = json.loads((out / "http_stats.json").read_text())
        assert stats == {"embedder": {"requests": len(_StubHandler.requests_seen), "retries": 0}}


# A run-wide value that no video can make right: one error before any output
# is written, naming the value, with the usage exit code for pipeline bounds.
BAD_RUN_VALUES = [
    ("detect", ["--drop-delta", "nan"], 2, "drop_delta must be positive, got nan"),
    ("e2e", ["--drop-delta", "nan"], 2, "drop_delta must be positive, got nan"),
    ("describe", ["--start-threshold", "2"], 2, "start_threshold must be in (0,1), got 2.0"),
    ("e2e", ["--min-progress-for-drop", "1.5"], 2, "min_progress_for_drop must be in [0,1], got 1.5"),
    ("train", ["--learning-rate", "nan"], 2, "learning_rate must be positive and finite, got nan"),
    ("train", ["--weight-decay", "nan"], 2, "weight_decay must be >= 0 and finite, got nan"),
    ("e2e", ["--train", "--learning-rate", "nan"], 2, "learning_rate must be positive and finite, got nan"),
    ("describe", ["--describer", "http", "--timeout", "0"], 2, "timeout must be positive and finite, got 0.0"),
    ("describe", ["--timeout", "0"], 2, "timeout must be positive and finite, got 0.0"),
    ("e2e", ["--max-inflight", "0"], 2, "max_inflight must be >= 1, got 0"),
    ("simulate", ["--duration-min", "nan"], 2, "duration_range must be finite"),
    ("simulate", ["--gap-min", "nan"], 2, "gap_range must be finite"),
    ("simulate", ["--gap-max", "nan"], 2, "gap_range must be finite"),
    ("simulate", ["--noise-sigma", "nan"], 2, "noise_sigma must be >= 0 and finite, got nan"),
    ("simulate", ["--noise-sigma", "1e308"], 2, "noise_sigma must be at most 1e+300"),
    ("e2e", ["--noise-sigma", "1e308"], 2, "noise_sigma must be at most 1e+300"),
    ("simulate", ["--gap-max", "1e308"], 2, "gap_range max 1e+308 has no frame grid at fps 4.0"),
    ("e2e", ["--gap-max", "1e308"], 2, "gap_range max 1e+308 has no frame grid at fps 4.0"),
    ("simulate", ["--videos", "-1"], 2, "videos must be >= 1, got -1"),
    ("simulate", ["--videos", "0"], 2, "videos must be >= 1, got 0"),
    ("e2e", ["--videos", "0"], 2, "videos must be >= 1, got 0"),
    ("simulate", ["--steps-max", "100000000"], 2, "= 400000000 substeps cannot fit in the 241 frames"),
    ("e2e", ["--steps-max", "100000000"], 2, "= 400000000 substeps cannot fit in the 241 frames"),
    ("simulate", ["--fps", "nan"], 2, "fps must be positive and finite, got nan"),
    ("simulate", ["--fps", "1e308"], 2, "no frame grid for duration"),
    ("simulate", ["--duration-min", "1e12", "--duration-max", "1e12"], 2, "(at most 100000000 frames)"),
    ("e2e", ["--duration-min", "1e12", "--duration-max", "1e12"], 2, "(at most 100000000 frames)"),
    ("describe", ["--completion", "1.5"], 2, "completion must be in (0, 1], got 1.5"),
    ("describe", ["--completion", "nan"], 2, "completion must be in (0, 1], got nan"),
    ("e2e", ["--completion", "1.5"], 2, "completion must be in (0, 1], got 1.5"),
    ("e2e", ["--completion", "nan"], 2, "completion must be in (0, 1], got nan"),
    ("e2e", ["--tiou", "0,0.5"], 2, "threshold must be in (0, 1], got 0.0"),
    ("e2e", ["--tiou", "0.5,nan"], 2, "threshold must be in (0, 1], got nan"),
    ("e2e", ["--aedt-tiou", "1.5"], 2, "threshold must be in (0, 1], got 1.5"),
    ("e2e", ["--topk", "0"], 2, "k must be >= 1, got 0"),
    ("pipeline", ["--bounds-min", "nan"], 1, "--bounds-min nan and --bounds-max 5.0 must be finite"),
    ("pipeline", ["--bounds-min", "6"], 1, "--bounds-min 6.0 and --bounds-max 5.0 must be finite with min <= max"),
]


class TestErrors:
    def test_usage_error_exit_code(self):
        assert run("frobnicate") == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert run("evaluate", "--annotations", missing, "--pred", missing) == 2

    def test_directory_as_input_file_is_a_data_error(self, tmp_path, capsys):
        assert run("evaluate", "--annotations", tmp_path, "--pred", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: ")  # a message, not a traceback

    def test_missing_scores_path_is_a_data_error(self, tmp_path):
        for command in ("detect", "describe"):
            out = tmp_path / command
            assert run(command, "--scores", tmp_path / "nope", "--out", out) == 2
            assert not (out / "failures.json").exists()

    @pytest.mark.parametrize("command", ["detect", "describe"])
    def test_empty_scores_directory_is_a_data_error(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(command, "--scores", empty, "--out", tmp_path / "out") == 2
        assert f"{empty}: no *.csv" in capsys.readouterr().err

    def test_jobs_is_not_an_option(self, tmp_path):
        out = tmp_path / "out"
        for command in ("detect", "describe"):
            assert run(command, "--scores", tmp_path, "--jobs", 2, "--out", out) == 1
        assert run("e2e", "--jobs", 2, "--out", out) == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"jobs": 2}))
        assert run("e2e", "--config", cfg_path, "--out", out) == 2

    def test_out_of_range_evaluation_parameters(self, tmp_path):
        corpus, pred_dir = identity_predictions(tmp_path)
        base = ["evaluate", "--annotations", corpus / "annotations.jsonl", "--pred", pred_dir,
                "--out", tmp_path / "report.json"]
        assert run(*base) == 0
        assert run(*base, "--aedt-tiou", "0") == 2
        assert run(*base, "--tiou", "0,0.5") == 2
        assert run(*base, "--topk", "0") == 2

    @pytest.mark.parametrize("flag", ["--bounds-min", "--bounds-max"])
    def test_one_bound_alone_is_a_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "grouped"
        assert run("pipeline", "--input", substep_only_input(tmp_path), flag, 1, "--out", out) == 1
        assert "--bounds-min and --bounds-max" in capsys.readouterr().err
        assert not out.exists()
        assert run("pipeline", "--input", tmp_path / "atoms.jsonl", "--bounds-min", 1,
                   "--bounds-max", 2, "--out", out) == 0

    @pytest.mark.parametrize("command,args,code,why", BAD_RUN_VALUES,
                             ids=[" ".join([c, *a]) for c, a, _, _ in BAD_RUN_VALUES])
    def test_run_wide_value_rejected_once(self, tmp_path, capsys, command, args, code, why):
        corpus = tmp_path / "scored"
        assert run("simulate", "--videos", 2, "--features", "--out", corpus) == 0
        inputs = {
            "simulate": ["--videos", 1], "e2e": ["--videos", 1],
            "train": ["--annotations", corpus / "annotations.jsonl", "--features", corpus / "features",
                      "--epochs", 1],
            "detect": ["--scores", corpus / "scores"], "describe": ["--scores", corpus / "scores"],
        }
        if command == "pipeline":
            inputs["pipeline"] = ["--input", substep_only_input(tmp_path), "--bounds-max", 5]
        capsys.readouterr()
        assert run(command, *inputs[command], *args, "--out", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert why in err and err.count("error") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # refused before any output

    @pytest.mark.parametrize("goals,why", [
        ('{"video": 5}', "not a JSON object of goal strings"),
        ('["a goal"]', "not a JSON object of goal strings"),
        ('{"video": ', "Expecting value"),
    ], ids=["not-a-string", "a-list", "not-json"])
    def test_goals_file_must_be_an_object_of_strings(self, tmp_path, capsys, goals, why):
        corpus, pred_dir = identity_predictions(tmp_path)
        (pred_dir / "goals.json").write_text(goals)
        assert run("evaluate", "--annotations", corpus / "annotations.jsonl", "--pred", pred_dir) == 2
        assert f"error: {pred_dir / 'goals.json'}: {why}" in capsys.readouterr().err

    def test_bad_emissions_record_named_by_file_and_line(self, tmp_path, capsys):
        corpus, pred_dir = identity_predictions(tmp_path)
        path = sorted(pred_dir.glob("*.jsonl"))[0]
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["end"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--annotations", corpus / "annotations.jsonl", "--pred", pred_dir) == 2
        assert f"error: {path}, line 2: missing key 'end'" in capsys.readouterr().err

    def test_undecodable_annotations_named_by_file(self, tmp_path, capsys):
        corpus, pred_dir = identity_predictions(tmp_path)
        path = corpus / "annotations.jsonl"
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        assert run("evaluate", "--annotations", path, "--pred", pred_dir) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    def test_impossible_frame_grid_prints_no_traceback(self, tmp_path):
        # 1e12 s at 4 fps is 4e12 frames: SimConfig refuses it before any
        # array or file is made, and the process prints one line, no traceback.
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "hierstream.cli", "simulate", "--videos", "1", "--duration-min", "1e12",
             "--duration-max", "1e12", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stderr == ("error: no frame grid for duration 1000000000000.0 at fps 4.0 "
                               "(at most 100000000 frames)\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("fps", math.inf), ("duration", math.nan)])
    def test_non_finite_duration_or_fps_is_a_data_error(self, tmp_path, capsys, field, value):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 2, "--videos", 1, "--features", "--out", corpus) == 0
        entry = json.loads((corpus / "annotations.jsonl").read_text())
        entry[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(entry) + "\n")
        out = tmp_path / "model"
        assert run("train", "--annotations", bad, "--features", corpus / "features",
                   "--epochs", 1, "--hidden-dim", 4, "--out", out) == 2
        assert "error: no frame grid for duration" in capsys.readouterr().err
        assert not out.exists()

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


def write_config(tmp_path, entries):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    return path


class TestConfigFile:
    """A --config file is read as flags put before the command line."""

    @pytest.mark.parametrize("flag", [["--vid", "2"], ["--videos=2"], ["--vi=2"]])
    def test_command_line_wins_in_any_spelling(self, tmp_path, flag):
        cfg = write_config(tmp_path, {"videos": 5, "seed": 11})
        out = tmp_path / "corpus"
        assert run("simulate", "--config", cfg, *flag, "--out", out) == 0
        assert len(read_annotations(out / "annotations.jsonl")) == 2
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert (run_cfg["videos"], run_cfg["seed"]) == (2, 11)

    def test_file_values_are_typed_and_keys_may_use_hyphens(self, tmp_path):
        cfg = write_config(tmp_path, {"noise-sigma": 0.1, "noise_sigma": 0.25, "features": True,
                                      "duration_min": 10, "duration_max": 12.5})
        out = tmp_path / "corpus"
        assert run("simulate", "--config", cfg, "--videos", 1, "--out", out) == 0
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert run_cfg["noise_sigma"] == 0.25 and run_cfg["features"] is True
        assert run_cfg["duration_min"] == 10.0 and isinstance(run_cfg["duration_min"], float)
        assert (out / "features").is_dir()

    def test_value_starting_with_a_dash_arrives(self, tmp_path, capsys):
        # "--tiou -0.5,0.5" would read "-0.5,0.5" as a flag; "--tiou=-0.5,0.5" does not.
        corpus, pred_dir = identity_predictions(tmp_path)
        base = ["evaluate", "--annotations", corpus / "annotations.jsonl", "--pred", pred_dir]
        assert run(*base, "--tiou=-0.5,0.5") == 2  # rejected by the evaluator, not by argparse
        as_flag = capsys.readouterr().err
        assert run(*base, "--config", write_config(tmp_path, {"tiou": "-0.5,0.5"})) == 2
        assert capsys.readouterr().err == as_flag

    @pytest.mark.parametrize("command,key,value", [
        ("evaluate", "report", "xml"),
        ("evaluate", "embedder", "remote"),
        ("simulate", "videos", "many"),
    ])
    def test_bad_values_rejected_as_flags_are(self, tmp_path, capsys, command, key, value):
        required = {"evaluate": ["--annotations", "a.jsonl", "--pred", "p"],
                    "simulate": ["--out", tmp_path / "x"]}[command]
        assert run(command, f"--{key}", value, *required) == 1
        as_flag = capsys.readouterr().err.splitlines()[-1]
        assert run(command, "--config", write_config(tmp_path, {key: value}), *required) == 1
        assert capsys.readouterr().err.splitlines()[-1] == as_flag
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("entries", [{"func": 1}, {"command": "train"}, {"scores": "s"},
                                         {"config": "other.json"}, {"help": True}])
    def test_keys_other_than_this_subcommands_flags_rejected(self, tmp_path, capsys, entries):
        out = tmp_path / "x"
        cfg = write_config(tmp_path, entries)
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert f"error: {cfg}: unknown config key {next(iter(entries))!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entries", [{"features": "yes"}, {"features": 1}, {"videos": True},
                                         {"videos": None}, {"videos": [2]}])
    def test_values_no_flag_can_carry_rejected(self, tmp_path, entries):
        assert run("simulate", "--config", write_config(tmp_path, entries), "--out", tmp_path / "x") == 2

    def test_file_that_is_not_json_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"videos": ')
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.strip() == f"error: {cfg}: Expecting value: line 1 column 12 (char 11)"
        assert not (tmp_path / "x").exists()

    def test_file_must_hold_an_object(self, tmp_path):
        assert run("simulate", "--config", write_config(tmp_path, [1, 2]), "--out", tmp_path / "x") == 2
        assert run("simulate", "--config", tmp_path / "none.json", "--out", tmp_path / "x") == 2

    def test_file_may_give_required_flags(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--videos", 2, "--out", corpus) == 0
        out = tmp_path / "detected"
        assert run("detect", "--config", write_config(tmp_path, {"scores": str(corpus / "scores"),
                                                                 "out": str(out)})) == 0
        videos = sorted(p.stem for p in (corpus / "scores").glob("*.csv"))
        assert len(videos) == 2 and sorted(p.stem for p in out.glob("*.jsonl")) == videos

    def test_config_without_a_value_is_a_usage_error(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x", "--config") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,flags", [
        ("simulate", ["--videos", 2, "--features", "--noise-sigma", 0.15]),
        ("detect", ["--drop-delta", 0.3, "--no-eos-close"]),
        ("describe", ["--completion", 0.6, "--start-threshold", 0.45]),
        ("e2e", ["--videos", 2, "--seed", 4, "--tiou", "0.5,0.7", "--topk", 3]),
    ])
    def test_run_config_replays_the_run(self, tmp_path, command, flags):
        if command in ("detect", "describe"):
            assert run("simulate", "--videos", 2, "--out", tmp_path / "corpus") == 0
            flags = ["--scores", tmp_path / "corpus" / "scores", *flags]
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run(command, *flags, "--out", first) == 0
        run_cfg = json.loads((first / "run_config.json").read_text())
        assert not {"func", "command", "config"} & set(run_cfg) and None not in run_cfg.values()
        assert run(command, "--config", first / "run_config.json", "--out", replay) == 0

        def outputs(root):
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                    if p.is_file() and p.name != "run_config.json"}

        assert outputs(replay) == outputs(first) != {}
        assert json.loads((replay / "run_config.json").read_text()) == {**run_cfg, "out": str(replay)}


SWITCH = False  # a flag without a value
REQUIRED = "required"
BACKEND = ("mock", "http")
SIM = {"--seed": 0, "--videos": 10, "--duration-min": 30.0, "--duration-max": 60.0,
       "--steps-min": 2, "--steps-max": 4, "--substeps-min": 2, "--substeps-max": 4,
       "--zero-gap-prob": 0.5, "--gap-min": 1.0, "--gap-max": 3.0, "--noise-sigma": 0.0,
       "--fps": 4.0, "--feature-dim": 8}
DETECTOR = {"--start-threshold": 0.5, "--drop-delta": 0.4, "--min-progress-for-drop": 0.5,
            "--no-eos-close": SWITCH}
TRAIN = {"--layers": 2, "--hidden-dim": 32, "--learning-rate": 3e-4, "--weight-decay": 0.01,
         "--batch-size": 16, "--epochs": 30, "--bptt-window": 64}
ENDPOINT = {"--endpoint": "http://localhost:8000/v1", "--model-name": "default"}
DESCRIBER = {"--describer": ("mock", BACKEND), **ENDPOINT, "--timeout": 30.0, "--max-retries": 3,
             "--max-inflight": 4, "--completion": 1.0}
EVAL = {"--tiou": "0.3,0.5,0.7", "--topk": 5, "--aedt-tiou": 0.5, "--embedder": ("mock", BACKEND)}
COMMON = {"--config": None, "--out": REQUIRED}
FLAGS = {
    "simulate": {**SIM, "--features": SWITCH, **COMMON},
    "train": {"--annotations": REQUIRED, "--features": REQUIRED, **TRAIN, "--seed": 0, **COMMON},
    "detect": {"--scores": REQUIRED, **DETECTOR, **COMMON},
    "describe": {"--scores": REQUIRED, **DETECTOR, **DESCRIBER, **COMMON},
    "evaluate": {"--annotations": REQUIRED, "--pred": REQUIRED, **EVAL, **ENDPOINT,
                 "--report": ("json", ("json", "table")), **COMMON, "--out": None},
    "pipeline": {"--input": REQUIRED, "--client": ("mock", BACKEND), **ENDPOINT,
                 "--embedder": ("mock", BACKEND), "--k": 0, "--bounds-min": None, "--bounds-max": None,
                 "--seed": 0, **COMMON},
    "e2e": {**SIM, **DETECTOR, **DESCRIBER, **EVAL, **TRAIN, "--train": SWITCH, **COMMON},
}


def flag_table():
    """Each subcommand's flags as ``build_parser()`` reports them: the
    default, with the choices where there are some; REQUIRED for a required flag."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for command, parser in sub.choices.items():
        table[command] = {}
        for a in parser._actions:
            if a.option_strings and a.dest != "help":
                value = REQUIRED if a.required else a.default
                table[command][a.option_strings[0]] = (value, tuple(a.choices)) if a.choices else value
    return table


def test_flag_table_pinned():
    table = flag_table()
    assert table == FLAGS
    for command in table:  # the types too: 0, 0.0 and False compare equal
        assert {f: type(v) for f, v in table[command].items()} == {f: type(v) for f, v in FLAGS[command].items()}
    assert sum(map(len, table.values())) == 111


def failing_on(last_ts):
    """The mock describer, except that the goal call of the video whose
    stream ends at ``last_ts`` raises a transport error."""
    base = mock_describer()

    def describe(bundle, request):
        if bundle.level == HierarchyLevel.GOAL and bundle.interval.end == last_ts:
            raise TransportError("endpoint down")
        return base(bundle, request)

    return describe


def frame_times(body):
    """Stream times of the frames a describer request carries (``frame@<t>``)."""
    parts = body["messages"][0]["content"][1:]
    return [float(part["image_url"]["url"].split("@")[1]) for part in parts]


def corpus_with_failing_video(tmp_path, monkeypatch, seed, path, url):
    """A 3-video corpus, the id of one video whose describer calls fail, and
    the extra arguments that select the describer.

    ``mock``: the mock describer, one video at a time, raising on the second
    video's goal call. ``http``: the stub endpoint, two videos at a time,
    answering 400 to any request with a frame later than the other videos'
    last frames, so only the longest video fails.
    """
    corpus = tmp_path / "corpus"
    assert run("simulate", "--seed", seed, "--videos", 3, "--out", corpus) == 0
    ids = [a.video_id for a in read_annotations(corpus / "annotations.jsonl")]
    last = {vid: read_scores(corpus / "scores" / f"{vid}.csv")[-1].timestamp for vid in ids}
    assert len(set(last.values())) == len(ids)
    if path == "mock":
        monkeypatch.setattr(cli, "_make_describe_fn", lambda args: failing_on(last[ids[1]]))
        return corpus, ids, ids[1], []
    failing = max(ids, key=last.get)
    cutoff = max(t for vid, t in last.items() if vid != failing)
    (longest,) = [a for a in read_annotations(corpus / "annotations.jsonl") if a.video_id == failing]
    assert any(i.interval.start > cutoff for i in longest.instances)  # so a request has such a frame
    _StubHandler.answer = lambda body: (
        (400, {"error": "endpoint down"}) if max(frame_times(body), default=0.0) > cutoff
        else (200, chat_reply("Answer: done"))
    )
    return corpus, ids, failing, http_args(url, 2)


FAILURE_TYPE = {"mock": "TransportError", "http": "ClientError"}
E2E_SEED = {"mock": 7, "http": 8}  # seed 7's longest video starts no instance after the others end


class TestPartialFailure:
    @pytest.mark.parametrize("path", ["mock", "http"])
    def test_describe_finishes_other_videos(self, tmp_path, monkeypatch, stub_server, path):
        corpus, ids, failing, args = corpus_with_failing_video(tmp_path, monkeypatch, 4, path, stub_server)
        out = tmp_path / "described"
        code = run("describe", "--scores", corpus / "scores", *args, "--out", out)
        assert code == EXIT_PARTIAL
        failures = json.loads((out / "failures.json").read_text())
        assert list(failures) == [failing]
        assert failures[failing].startswith(f"{FAILURE_TYPE[path]}: ")
        assert "endpoint down" in failures[failing]
        ok = [vid for vid in ids if vid != failing]
        assert sorted(p.stem for p in out.glob("*.jsonl")) == ok
        assert sorted(json.loads((out / "goals.json").read_text())) == ok

    @pytest.mark.parametrize("path", ["mock", "http"])
    def test_e2e_writes_no_report(self, tmp_path, monkeypatch, stub_server, path):
        out = tmp_path / "e2e"
        seed = E2E_SEED[path]
        assert run("e2e", "--seed", seed, "--videos", 3, "--out", out) == 0
        assert (out / "report.json").exists() and not (out / "failures.json").exists()
        _, ids, failing, args = corpus_with_failing_video(tmp_path, monkeypatch, seed, path, stub_server)
        assert run("e2e", "--seed", seed, "--videos", 3, *args, "--out", out) == EXIT_PARTIAL
        assert not (out / "report.json").exists()  # the earlier run's is gone too
        assert list(json.loads((out / "failures.json").read_text())) == [failing]
        assert sorted(p.stem for p in (out / "emissions").glob("*.jsonl")) == sorted(
            vid for vid in ids if vid != failing)
        monkeypatch.undo()
        assert run("e2e", "--seed", seed, "--videos", 3, "--out", out) == 0
        assert (out / "report.json").exists() and not (out / "failures.json").exists()

    def test_unparseable_reply_quoted_in_failures(self, tmp_path, stub_server):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 4, "--videos", 1, "--out", corpus) == 0
        _StubHandler.answer = lambda body: (200, chat_reply("garbage"))
        out = tmp_path / "described"
        assert run("describe", "--scores", corpus / "scores", *http_args(stub_server, 1), "--max-retries", 0,
                   "--out", out) == EXIT_PARTIAL
        (failure,) = json.loads((out / "failures.json").read_text()).values()
        assert failure == "ValueError: no recognizable answer labels: 'garbage'"

    def test_failed_video_leaves_no_earlier_output(self, tmp_path):
        """A rerun into the same directory removes a failed video's emissions
        from the earlier run, so ``evaluate`` cannot read them as this run's."""
        corpus, det = tmp_path / "corpus", tmp_path / "det"
        assert run("simulate", "--seed", 7, "--videos", 3, "--out", corpus) == 0

        def step_f1():
            report_path = tmp_path / "report.json"
            assert run("evaluate", "--annotations", corpus / "annotations.jsonl",
                       "--pred", det, "--out", report_path) == 0
            return json.loads(report_path.read_text())["levels"]["step"]["f1_loc"]["0.5"]

        assert run("detect", "--scores", corpus / "scores", "--out", det) == 0
        assert step_f1() == 1.0
        broken = sorted((corpus / "scores").glob("*.csv"))[0]
        with open(broken, "a") as fh:
            fh.write("not,a,row\n")
        assert run("detect", "--scores", corpus / "scores", "--out", det) == EXIT_PARTIAL
        assert list(json.loads((det / "failures.json").read_text())) == [broken.stem]
        assert not (det / f"{broken.stem}.jsonl").exists()
        assert step_f1() < 1.0

    @pytest.mark.parametrize("bad", [1, 2])  # 1-based position of the unreadable stream
    def test_detect_finishes_past_unreadable_stream(self, tmp_path, bad):
        corpus = tmp_path / "corpus"
        assert run("simulate", "--seed", 5, "--videos", 3, "--out", corpus) == 0
        paths = sorted((corpus / "scores").glob("*.csv"))
        broken = paths[bad - 1]
        with open(broken, "a") as fh:
            fh.write("not,a,row\n")
        out = tmp_path / "emissions"
        assert run("detect", "--scores", corpus / "scores", "--out", out) == EXIT_PARTIAL
        failures = json.loads((out / "failures.json").read_text())
        assert list(failures) == [broken.stem]
        assert "ValueError" in failures[broken.stem]
        assert sorted(p.stem for p in out.glob("*.jsonl")) == [p.stem for p in paths if p != broken]
