"""Command-line entry point.

Subcommands:
  simulate  write a synthetic corpus (annotations, score CSVs, feature CSVs)
  train     fit the recurrent scorer on features + annotations
  detect    run the boundary detector over score streams
  describe  run detection plus retrieval-backed description generation
  evaluate  score emissions against annotations
  pipeline  group atomic substeps into hierarchical annotations
  e2e       simulate -> detect -> describe -> evaluate in one pass

Every run writes its effective configuration next to its outputs, and all
mock-client paths are deterministic under --seed. Exit codes: 0 ok,
1 usage, 2 data/validation error, 3 transport error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ._http import HttpLimits, TransportError
from .core import read_annotations, validate_annotations, write_annotations
from .describer.http import DescriberEndpoint
from .detector import DetectorConfig, read_emissions, run_stream, write_emissions
from .metrics.embedding import HashedBagOfWordsEmbedder, HttpEmbedder
from .pipeline import (
    HttpChatClient,
    MockGroupingClient,
    check_consistency,
    default_bounds,
    kmeans_canonicalize,
    postprocess,
    proposal_to_annotations,
    propose_grouping,
)
from .report import evaluate_corpus
from .runner import http_describer, mock_describer, run_described_stream
from .scoring.histogram import HistogramConfig
from .scoring.rnn import ScorerConfig, ScorerModel, infer_scores
from .scoring.streams import read_features, read_scores, write_features, write_scores
from .scoring.train import train_scorer
from .simulator import SimConfig, gen_annotations, gen_features, gen_scores

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3


class DataError(Exception):
    pass


def _dump_json(data, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(args: argparse.Namespace, outdir: Path) -> None:
    effective = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    effective = {k: (str(v) if isinstance(v, Path) else v) for k, v in effective.items()}
    _dump_json(effective, outdir / "run_config.json")


def _load_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill arguments from a JSON config file; flags given on the command
    line win over file values."""
    if not getattr(args, "config", None):
        return
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token[2:].split("=", 1)[0].replace("-", "_"))
    with open(args.config) as fh:
        file_cfg = json.load(fh)
    for key, value in file_cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise DataError(f"unknown config key {key!r}")
        if attr not in explicit:
            setattr(args, attr, value)


def _sim_config(args) -> SimConfig:
    return SimConfig(
        seed=args.seed,
        videos=args.videos,
        duration_range=(args.duration_min, args.duration_max),
        steps_per_video=(args.steps_min, args.steps_max),
        substeps_per_step=(args.substeps_min, args.substeps_max),
        zero_gap_prob=args.zero_gap_prob,
        gap_range=(args.gap_min, args.gap_max),
        noise_sigma=args.noise_sigma,
        fps=args.fps,
        feature_dim=args.feature_dim,
    )


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(
        start_threshold=args.start_threshold,
        drop_delta=args.drop_delta,
        min_progress_for_drop=args.min_progress_for_drop,
        close_incomplete_at_eos=not args.no_eos_close,
    )


def _scorer_config(args, feature_dim: int) -> ScorerConfig:
    return ScorerConfig(
        feature_dim=feature_dim,
        recurrent_layers=args.layers,
        hidden_dim=args.hidden_dim,
        learning_rate=args.learning_rate,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        epochs=args.epochs,
        bptt_window=args.bptt_window,
    )


def _write_corpus(cfg: SimConfig, outdir: Path, with_features: bool) -> list:
    annotations = gen_annotations(cfg)
    for a in annotations:
        problems = validate_annotations(a)
        if problems:
            raise DataError(f"{a.video_id}: generator produced invalid annotations: {problems}")
    outdir.mkdir(parents=True, exist_ok=True)
    write_annotations(annotations, outdir / "annotations.jsonl")
    scores_dir = outdir / "scores"
    scores_dir.mkdir(exist_ok=True)
    for a in annotations:
        stream = gen_scores(a, cfg.noise_sigma, cfg.fps, cfg.histogram, seed=cfg.seed)
        write_scores(scores_dir / f"{a.video_id}.csv", stream)
    if with_features:
        features_dir = outdir / "features"
        features_dir.mkdir(exist_ok=True)
        for a in annotations:
            ts, feats = gen_features(a, cfg, seed=cfg.seed)
            write_features(features_dir / f"{a.video_id}.csv", ts, feats)
    return annotations


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _sim_config(args)
    outdir = Path(args.out)
    _write_corpus(cfg, outdir, with_features=args.features)
    _echo_config(args, outdir)
    print(f"wrote {cfg.videos} videos to {outdir}")
    return EXIT_OK


def cmd_train(args) -> int:
    annotations = read_annotations(args.annotations)
    if not annotations:
        raise DataError("no annotations found")
    features, kept = [], []
    for a in annotations:
        path = Path(args.features) / f"{a.video_id}.csv"
        if not path.exists():
            raise DataError(f"missing feature file {path}")
        _, feats = read_features(path)
        features.append(feats)
        kept.append(a)
    cfg = _scorer_config(args, features[0].shape[1])
    model, trace = train_scorer(features, kept, cfg, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model.save(outdir / "model.npz")
    _dump_json({"epoch_loss": trace}, outdir / "loss_trace.json")
    _echo_config(args, outdir)
    print(f"trained {cfg.epochs} epochs; final loss {trace[-1]:.4f}")
    return EXIT_OK


def _iter_score_streams(args):
    scores_path = Path(args.scores)
    if scores_path.is_dir():
        for csv_path in sorted(scores_path.glob("*.csv")):
            yield csv_path.stem, read_scores(csv_path)
    else:
        yield scores_path.stem, read_scores(scores_path)


def _map_videos(fn, items, jobs: int):
    """Apply fn over (video_id, payload) pairs, optionally on a thread pool.
    Results come back in input order, so output files and reports stay
    deterministic regardless of --jobs."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda item: fn(*item), items))


def cmd_detect(args) -> int:
    cfg = _detector_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def one(video_id, stream):
        hist = HistogramConfig(bins=len(stream[0].step_progress_dist)) if stream else HistogramConfig()
        emissions = run_stream(stream, cfg, hist)
        write_emissions(emissions, outdir / f"{video_id}.jsonl")

    done = _map_videos(one, _iter_score_streams(args), args.jobs)
    _echo_config(args, outdir)
    print(f"detected over {len(done)} streams into {outdir}")
    return EXIT_OK


def _make_describe_fn(args):
    if args.describer == "mock":
        return mock_describer()
    endpoint = DescriberEndpoint(
        base_url=args.endpoint, model=args.model_name, image_mode=args.image_mode,
    )
    limits = HttpLimits(timeout=args.timeout, max_retries=args.max_retries,
                        max_inflight=args.max_inflight)
    return http_describer(endpoint, limits)


def cmd_describe(args) -> int:
    cfg = _detector_config(args)
    describe = _make_describe_fn(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def one(video_id, stream):
        hist = HistogramConfig(bins=len(stream[0].step_progress_dist)) if stream else HistogramConfig()
        result = run_described_stream(
            stream, describe, cfg, hist, completion=args.completion,
        )
        write_emissions(result.emissions, outdir / f"{video_id}.jsonl")
        return video_id, result.goal_text

    goals = dict(_map_videos(one, _iter_score_streams(args), args.jobs))
    _dump_json(goals, outdir / "goals.json")
    _echo_config(args, outdir)
    print(f"described {len(goals)} streams into {outdir}")
    return EXIT_OK


def _make_embedder(args):
    if args.embedder == "mock":
        return HashedBagOfWordsEmbedder()
    return HttpEmbedder(args.endpoint, args.model_name)


def cmd_evaluate(args) -> int:
    annotations = read_annotations(args.annotations)
    if not annotations:
        raise DataError("no annotations found")
    pred_path = Path(args.pred)
    emissions_by_video = {}
    if pred_path.is_dir():
        for jsonl in sorted(pred_path.glob("*.jsonl")):
            emissions_by_video[jsonl.stem] = read_emissions(jsonl)
        goals_file = pred_path / "goals.json"
        goals = json.loads(goals_file.read_text()) if goals_file.exists() else None
    else:
        only = read_emissions(pred_path)
        if len(annotations) != 1:
            raise DataError("single emissions file needs a single-video annotation set")
        emissions_by_video[annotations[0].video_id] = only
        goals = None
    thresholds = [float(t) for t in args.tiou.split(",")]
    report = evaluate_corpus(
        annotations,
        emissions_by_video,
        goals_by_video=goals,
        thresholds=thresholds,
        k=args.topk,
        embedder=_make_embedder(args),
        aedt_threshold=args.aedt_tiou,
    )
    if args.report == "json" or args.out:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(payload + "\n")
        else:
            print(payload)
    if args.report == "table":
        _print_table(report)
    return EXIT_OK


def _print_table(report: dict) -> None:
    thresholds = report["thresholds"]
    header = f"{'level':8s} {'metric':12s} " + " ".join(f"@{t:<6}" for t in thresholds)
    print(header)
    for key, entry in report["levels"].items():
        row = " ".join(f"{entry['f1_loc'][str(t)]:<7.4f}" for t in thresholds)
        print(f"{key:8s} {'f1_loc':12s} {row}")
        if entry.get("f1_loc_desc"):
            row = " ".join(f"{entry['f1_loc_desc'][str(t)]:<7.4f}" for t in thresholds)
            print(f"{key:8s} {'f1_loc_desc':12s} {row}")
    if report.get("goal_accuracy") is not None:
        print(f"goal accuracy: {report['goal_accuracy']:.4f}")


def cmd_pipeline(args) -> int:
    annotations = read_annotations(args.input)
    if not annotations:
        raise DataError("no input annotations")
    if args.client == "mock":
        client = MockGroupingClient(window=args.mock_window)
        caption_client = None
    else:
        client = HttpChatClient(args.endpoint, args.model_name)
        caption_client = client

    hierarchical = []
    all_steps: list[str] = []
    reports = {}
    from .core import HierarchyLevel

    for a in annotations:
        substeps = list(a.at_level(HierarchyLevel.SUBSTEP))
        if not substeps:
            raise DataError(f"{a.video_id}: no substeps to group")
        proposal = postprocess(propose_grouping(substeps, client), substeps)
        bounds = (args.bounds_min, args.bounds_max) if args.bounds_min is not None \
            else default_bounds(a.duration)
        reports[a.video_id] = check_consistency(proposal, substeps, bounds)
        hierarchical.append(proposal_to_annotations(
            a.video_id, a.duration, a.fps, substeps, proposal,
        ))
        all_steps.extend(proposal.step_descriptions)

    if args.k:
        embedder = _make_embedder(args)
        k = min(args.k, len(set(all_steps)))
        result = kmeans_canonicalize(all_steps, k, embedder, caption_client, seed=args.seed)
        replacement = {desc: result.representatives[c]
                       for desc, c in zip(all_steps, result.assignments)}
        from .core import ActionInstance
        canonical = []
        for a in hierarchical:
            instances = tuple(
                ActionInstance(i.interval, replacement.get(i.description, i.description), i.level)
                if i.level == HierarchyLevel.STEP else i
                for i in a.instances
            )
            canonical.append(type(a)(
                video_id=a.video_id, duration=a.duration, fps=a.fps,
                instances=instances, goal=a.goal,
            ))
        hierarchical = canonical

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_annotations(hierarchical, outdir / "annotations.jsonl")
    _dump_json(
        {
            vid: {"missing": list(r.missing),
                  "abnormal": [list(x) for x in r.abnormal]}
            for vid, r in sorted(reports.items())
        },
        outdir / "consistency.json",
    )
    _echo_config(args, outdir)
    print(f"grouped {len(hierarchical)} videos into {outdir}")
    return EXIT_OK


def cmd_e2e(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = _sim_config(args)
    annotations = _write_corpus(cfg, outdir / "sim", with_features=args.train)

    det_cfg = _detector_config(args)
    describe = _make_describe_fn(args)

    model = None
    if args.train:
        features = []
        for a in annotations:
            _, feats = read_features(outdir / "sim" / "features" / f"{a.video_id}.csv")
            features.append(feats)
        model, _trace = train_scorer(
            features, annotations, _scorer_config(args, cfg.feature_dim), seed=args.seed
        )
        model.save(outdir / "model.npz")

    emissions_dir = outdir / "emissions"
    emissions_dir.mkdir(exist_ok=True)

    def one(video_id, _none):
        if model is not None:
            ts, feats = read_features(outdir / "sim" / "features" / f"{video_id}.csv")
            stream = infer_scores(model, feats, timestamps=ts)
        else:
            stream = read_scores(outdir / "sim" / "scores" / f"{video_id}.csv")
        result = run_described_stream(stream, describe, det_cfg, cfg.histogram)
        write_emissions(result.emissions, emissions_dir / f"{video_id}.jsonl")
        return video_id, result

    results = dict(_map_videos(one, [(a.video_id, None) for a in annotations], args.jobs))
    emissions_by_video = {vid: r.emissions for vid, r in results.items()}
    goals = {vid: r.goal_text for vid, r in results.items()}
    _dump_json(goals, emissions_dir / "goals.json")

    thresholds = [float(t) for t in args.tiou.split(",")]
    report = evaluate_corpus(
        annotations,
        emissions_by_video,
        goals_by_video=goals,
        thresholds=thresholds,
        k=args.topk,
        embedder=_make_embedder(args),
        aedt_threshold=args.aedt_tiou,
    )
    _dump_json(report, outdir / "report.json")
    _echo_config(args, outdir)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--videos", type=int, default=10)
    p.add_argument("--duration-min", type=float, default=30.0)
    p.add_argument("--duration-max", type=float, default=60.0)
    p.add_argument("--steps-min", type=int, default=2)
    p.add_argument("--steps-max", type=int, default=4)
    p.add_argument("--substeps-min", type=int, default=2)
    p.add_argument("--substeps-max", type=int, default=4)
    p.add_argument("--zero-gap-prob", type=float, default=0.5)
    p.add_argument("--gap-min", type=float, default=1.0)
    p.add_argument("--gap-max", type=float, default=3.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--fps", type=float, default=4.0)
    p.add_argument("--feature-dim", type=int, default=8)


def _add_detector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start-threshold", type=float, default=0.5)
    p.add_argument("--drop-delta", type=float, default=0.4)
    p.add_argument("--min-progress-for-drop", type=float, default=0.5)
    p.add_argument("--no-eos-close", action="store_true")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden-dim", type=int, default=32,
                   help="desk-scale default; the full-scale setting is 768")
    p.add_argument("--learning-rate", type=float, default=3e-4)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--bptt-window", type=int, default=64)


def _add_describer_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--describer", choices=("mock", "http"), default="mock")
    p.add_argument("--endpoint", default="http://localhost:8000/v1")
    p.add_argument("--model-name", default="default")
    p.add_argument("--image-mode", choices=("base64", "url"), default="base64")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--max-inflight", type=int, default=4)
    p.add_argument("--completion", type=float, default=1.0,
                   help="fraction of each instance visible to the describer")


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tiou", default="0.3,0.5,0.7")
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--aedt-tiou", type=float, default=0.5)
    p.add_argument("--embedder", choices=("mock", "http"), default="mock")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierstream",
        description="streaming hierarchical event detection and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    _add_sim_args(p)
    p.add_argument("--features", action="store_true", help="also write feature CSVs")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the scorer")
    p.add_argument("--annotations", required=True)
    p.add_argument("--features", required=True, help="directory of feature CSVs")
    _add_train_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="detect boundaries over score streams")
    p.add_argument("--scores", required=True, help="score CSV file or directory")
    p.add_argument("--jobs", type=int, default=1, help="videos processed in parallel")
    _add_detector_args(p)
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("describe", help="detect and generate descriptions")
    p.add_argument("--scores", required=True, help="score CSV file or directory")
    p.add_argument("--jobs", type=int, default=1, help="videos processed in parallel")
    _add_detector_args(p)
    _add_describer_args(p)
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("evaluate", help="score emissions against annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--pred", required=True, help="emissions JSONL file or directory")
    _add_eval_args(p)
    p.add_argument("--endpoint", default="http://localhost:8000/v1")
    p.add_argument("--model-name", default="default")
    p.add_argument("--report", choices=("json", "table"), default="json")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="group atomic actions hierarchically")
    p.add_argument("--input", required=True, help="JSONL with substep-only annotations")
    p.add_argument("--client", choices=("mock", "http"), default="mock")
    p.add_argument("--mock-window", type=int, default=2)
    p.add_argument("--endpoint", default="http://localhost:8000/v1")
    p.add_argument("--model-name", default="default")
    p.add_argument("--embedder", choices=("mock", "http"), default="mock")
    p.add_argument("--k", type=int, default=0, help="canonicalize step captions into k clusters")
    p.add_argument("--bounds-min", type=float)
    p.add_argument("--bounds-max", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("e2e", help="simulate, detect, describe, evaluate")
    _add_sim_args(p)
    _add_detector_args(p)
    _add_describer_args(p)
    _add_eval_args(p)
    _add_train_args(p)
    p.add_argument("--train", action="store_true", help="train a scorer instead of oracle streams")
    p.add_argument("--jobs", type=int, default=1, help="videos processed in parallel")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_e2e)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _load_config_file(args, argv)
        return args.func(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (DataError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
