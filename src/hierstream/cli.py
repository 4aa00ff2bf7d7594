"""Command-line entry point.

Subcommands:
  simulate  write a synthetic corpus (annotations, score CSVs, feature CSVs)
  train     fit the recurrent scorer on features + annotations
  detect    run the boundary detector over score streams
  describe  run detection plus retrieval-backed description generation
  evaluate  score emissions against annotations
  pipeline  group atomic substeps into hierarchical annotations
  e2e       simulate -> detect -> describe -> evaluate in one pass

Every subcommand takes ``--config``, a JSON file read as flags (see
``_Subcommand``). Every run writes its effective configuration next to its
outputs, and all mock-client paths are deterministic under --seed. Exit
codes: 0 ok, 1 usage, 2 data/validation error, 3 transport error, 4 some
videos failed (listed in failures.json under --out; the others are written
as usual).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from ._http import CallStats, HttpLimits, TransportError
from .core import (
    HierarchyLevel,
    read_annotations,
    validate_annotations,
    write_annotations,
)
from .describer.http import HttpDescriber
from .detector import DetectorConfig, read_emissions, write_emissions
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
from .report import check_settings, evaluate_corpus
from .runner import check_completion, mock_describer, run_described_stream
from .scoring.histogram import HistogramConfig
from .scoring.rnn import ScorerConfig, ScorerModel, stream_scores
from .scoring.streams import read_features, read_scores, write_features, write_scores
from .scoring.train import train_scorer
from .simulator import SimConfig, gen_annotations, gen_features, gen_scores

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3
EXIT_PARTIAL = 4  # some videos failed; see failures.json

# What one video's data or describer can raise; it fails that video only.
VIDEO_ERRORS = (TransportError, ValueError, OSError)


def _dump_json(data, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_http_stats(path: Path, **clients) -> None:
    """Request and retry counts of the ``clients`` that call over HTTP, apart
    from the report; with none, an earlier run's file is removed."""
    stats = {k: vars(c.stats) for k, c in clients.items() if isinstance(getattr(c, "stats", None), CallStats)}
    if stats:
        _dump_json(stats, path)
    else:
        path.unlink(missing_ok=True)


def _echo_config(args: argparse.Namespace, outdir: Path) -> None:
    """The flag values that are set, as a file ``--config`` reads back."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config") and v is not None}
    _dump_json(flags, outdir / "run_config.json")


def _read_annotations(path) -> list:
    annotations = read_annotations(path)
    if not annotations:
        raise ValueError(f"{path}: no annotations found")
    return annotations


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
            raise ValueError(f"{a.video_id}: generator produced invalid annotations: {problems}")
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


def _train(args, annotations: list, features_dir: Path) -> tuple[ScorerModel, list[float]]:
    """The scorer fitted on each video's ``<video_id>.csv`` in ``features_dir``,
    and its per-epoch loss."""
    features = []
    for a in annotations:
        path = features_dir / f"{a.video_id}.csv"
        if not path.exists():
            raise ValueError(f"missing feature file {path}")
        features.append(read_features(path)[1])
    return train_scorer(features, annotations, _scorer_config(args, features[0].shape[1]), seed=args.seed)


def cmd_train(args) -> int:
    model, trace = _train(args, _read_annotations(args.annotations), Path(args.features))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model.save(outdir / "model.npz")
    _dump_json({"epoch_loss": trace}, outdir / "loss_trace.json")
    _echo_config(args, outdir)
    print(f"trained {args.epochs} epochs; final loss {trace[-1]:.4f}")
    return EXIT_OK


def _score_frames(path: Path):
    """A video's score stream, read when the loop asks for its first frame."""
    yield from read_scores(path)


def _scored_frames(model: ScorerModel, path: Path):
    """A video's features, read and scored as the loop asks for each frame."""
    yield from stream_scores(model, *read_features(path))


def _run_videos(args, cfg: DetectorConfig, videos: list, out: Path, describe=None) -> tuple[dict, dict]:
    """The online loop over each (video_id, frames) pair, one at a time or,
    with the HTTP describer, whose calls wait on the network, ``--max-inflight``
    at once on threads, writing ``out/<video_id>.jsonl``. Returns (results,
    failures) by video id in input order, so outputs do not depend on the
    thread count. A failed video does not stop the others: its error goes
    to stderr and to ``failures.json`` under ``--out``."""
    completion = args.completion if describe is not None else 1.0

    def one(item):  # the per-video function
        video_id, frames = item
        try:
            frames = iter(frames)
            first = next(frames, None)  # its bin count sets the histogram
            hist = HistogramConfig(bins=len(first.step_progress_dist)) if first else HistogramConfig()
            frames = itertools.chain([first] if first else [], frames)
            result = run_described_stream(frames, describe, cfg, hist, completion=completion)
            write_emissions(result.emissions, out / f"{video_id}.jsonl")
            return video_id, result, None
        except VIDEO_ERRORS as exc:
            print(f"error: {video_id}: {exc}", file=sys.stderr)
            return video_id, None, f"{type(exc).__name__}: {exc}"

    workers = args.max_inflight if describe is not None and args.describer == "http" else 1
    if workers <= 1 or len(videos) <= 1:
        done = [one(item) for item in videos]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(one, videos))
    failures = {vid: err for vid, _, err in done if err is not None}
    failures_path = Path(args.out) / "failures.json"
    if failures:
        _dump_json(failures, failures_path)
    else:
        failures_path.unlink(missing_ok=True)  # from an earlier run
    return {vid: r for vid, r, err in done if err is None}, failures


def _score_streams(args) -> list:
    scores_path = Path(args.scores)
    if not scores_path.exists():  # a usage mistake, not one failed video
        raise ValueError(f"{scores_path}: no such file or directory")
    paths = sorted(scores_path.glob("*.csv")) if scores_path.is_dir() else [scores_path]
    if not paths:
        raise ValueError(f"{scores_path}: no *.csv score files in this directory")
    return [(p.stem, _score_frames(p)) for p in paths]


def _make_describe_fn(args):
    check_completion(args.completion)  # once for the run, not once per video
    limits = HttpLimits(timeout=args.timeout, max_retries=args.max_retries,
                        max_inflight=args.max_inflight)  # checked with either describer
    if args.describer == "mock":
        return mock_describer()
    return HttpDescriber(HttpChatClient(args.endpoint, args.model_name, limits))


def cmd_detect(args, describe=None) -> int:
    """The online loop over score streams; with ``describe``, also each
    video's goal text and the describer's HTTP counts."""
    cfg, videos = _detector_config(args), _score_streams(args)  # checked before any output
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    results, failures = _run_videos(args, cfg, videos, outdir, describe)
    if describe is not None:
        _dump_json({vid: r.goal_text for vid, r in results.items()}, outdir / "goals.json")
        _write_http_stats(outdir / "http_stats.json", describer=describe)
    _echo_config(args, outdir)
    print(f"{'detected over' if describe is None else 'described'} {len(results)} streams into {outdir}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_describe(args) -> int:
    return cmd_detect(args, _make_describe_fn(args))


def _make_embedder(args):
    if args.embedder == "mock":
        return HashedBagOfWordsEmbedder()
    return HttpEmbedder(args.endpoint, args.model_name)


def _eval_settings(args) -> dict:
    """``--tiou``, ``--topk`` and ``--aedt-tiou`` as checked ``evaluate_corpus`` keywords."""
    settings = dict(thresholds=[float(t) for t in args.tiou.split(",")], k=args.topk,
                    aedt_threshold=args.aedt_tiou)
    check_settings(**settings)
    return settings


def _evaluate(args, annotations: list, emissions_by_video: dict, goals: dict | None):
    """The report on ``emissions_by_video`` and the embedder it used."""
    embedder = _make_embedder(args)
    report = evaluate_corpus(annotations, emissions_by_video, goals_by_video=goals,
                             embedder=embedder, **_eval_settings(args))
    return report, embedder


def cmd_evaluate(args) -> int:
    annotations = _read_annotations(args.annotations)
    pred_path = Path(args.pred)
    if pred_path.is_dir():
        emissions_by_video = {p.stem: read_emissions(p) for p in sorted(pred_path.glob("*.jsonl"))}
        goals_file = pred_path / "goals.json"
        try:
            goals = json.loads(goals_file.read_text()) if goals_file.exists() else None
        except ValueError as exc:
            raise ValueError(f"{goals_file}: {exc}") from None
        if goals is not None and not (isinstance(goals, dict) and all(isinstance(g, str) for g in goals.values())):
            raise ValueError(f"{goals_file}: not a JSON object of goal strings")
    else:
        if len(annotations) != 1:
            raise ValueError("single emissions file needs a single-video annotation set")
        emissions_by_video, goals = {annotations[0].video_id: read_emissions(pred_path)}, None
    report, embedder = _evaluate(args, annotations, emissions_by_video, goals)
    if args.out:
        _dump_json(report, Path(args.out))
        _write_http_stats(Path(args.out).with_suffix(".http_stats.json"), embedder=embedder)
    elif args.report == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
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
    if (args.bounds_min is None) != (args.bounds_max is None):
        print("error: --bounds-min and --bounds-max go together", file=sys.stderr)
        return EXIT_USAGE
    if args.bounds_min is not None and not -math.inf < args.bounds_min <= args.bounds_max < math.inf:
        print(f"error: --bounds-min {args.bounds_min} and --bounds-max {args.bounds_max} "
              "must be finite with min <= max", file=sys.stderr)
        return EXIT_USAGE
    annotations = _read_annotations(args.input)
    if args.client == "mock":
        client = MockGroupingClient()
        caption_client = None
    else:
        client = HttpChatClient(args.endpoint, args.model_name)
        caption_client = client

    hierarchical = []
    all_steps: list[str] = []
    reports = {}
    for a in annotations:
        substeps = list(a.at_level(HierarchyLevel.SUBSTEP))
        if not substeps:
            raise ValueError(f"{a.video_id}: no substeps to group")
        proposal = postprocess(propose_grouping(substeps, client), substeps)
        bounds = (args.bounds_min, args.bounds_max) if args.bounds_min is not None \
            else default_bounds(a.duration)
        reports[a.video_id] = check_consistency(proposal, substeps, bounds)
        hierarchical.append(proposal_to_annotations(a.video_id, a.duration, a.fps, substeps, proposal))
        all_steps.extend(proposal.step_descriptions)

    embedder = _make_embedder(args) if args.k else None
    if args.k:
        k = min(args.k, len(set(all_steps)))
        result = kmeans_canonicalize(all_steps, k, embedder, caption_client, seed=args.seed)
        replacement = {desc: result.representatives[c]
                       for desc, c in zip(all_steps, result.assignments)}
        hierarchical = [replace(a, instances=tuple(
            replace(i, description=replacement.get(i.description, i.description))
            if i.level == HierarchyLevel.STEP else i
            for i in a.instances
        )) for a in hierarchical]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_annotations(hierarchical, outdir / "annotations.jsonl")
    _dump_json({vid: {"missing": list(r.missing), "abnormal": [list(x) for x in r.abnormal]}
                for vid, r in reports.items()}, outdir / "consistency.json")
    _write_http_stats(outdir / "http_stats.json", chat=client, embedder=embedder)
    _echo_config(args, outdir)
    print(f"grouped {len(hierarchical)} videos into {outdir}")
    return EXIT_OK


def cmd_e2e(args) -> int:
    describe = _make_describe_fn(args)
    _eval_settings(args)  # checked before the first video, not after the last
    detector = _detector_config(args)  # checked before any output, as the corpus config is
    if args.train:
        _scorer_config(args, args.feature_dim)  # likewise
    cfg = _sim_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sim = outdir / "sim"
    annotations = _write_corpus(cfg, sim, with_features=args.train)

    if args.train:
        model, _ = _train(args, annotations, sim / "features")
        model.save(outdir / "model.npz")
        videos = [(a.video_id, _scored_frames(model, sim / "features" / f"{a.video_id}.csv"))
                  for a in annotations]
    else:
        videos = [(a.video_id, _score_frames(sim / "scores" / f"{a.video_id}.csv"))
                  for a in annotations]

    emissions_dir = outdir / "emissions"
    emissions_dir.mkdir(exist_ok=True)
    results, failures = _run_videos(args, detector, videos, emissions_dir, describe)
    goals = {vid: r.goal_text for vid, r in results.items()}
    _dump_json(goals, emissions_dir / "goals.json")
    _echo_config(args, outdir)
    if failures:
        _write_http_stats(outdir / "http_stats.json", describer=describe)
        (outdir / "report.json").unlink(missing_ok=True)  # from an earlier run
        print(f"{len(failures)} of {len(videos)} videos failed; no report written", file=sys.stderr)
        return EXIT_PARTIAL

    report, embedder = _evaluate(args, annotations, {vid: r.emissions for vid, r in results.items()}, goals)
    _write_http_stats(outdir / "http_stats.json", describer=describe, embedder=embedder)
    _dump_json(report, outdir / "report.json")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, with ``--config``: a JSON object whose entries
    are read as this subcommand's flags, put before the command-line tokens.
    ``--config`` is read first on its own, so the file may give required
    flags too; the whole list is then parsed once, so the command line wins
    (argparse keeps a flag's last value) and file values meet the flags' own checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_argument("--config", help="JSON file of flag values; the command line wins")

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        first = argparse.ArgumentParser(prog=self.prog, add_help=False)
        first.add_argument("--config")
        config = first.parse_known_args(args)[0].config
        if config is not None:
            args = [*self._config_flags(config), *args]
        return super().parse_known_args(args, namespace)

    def _config_flags(self, path: str) -> list[str]:
        with open(path) as fh:
            try:
                entries = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(entries, dict):
            raise ValueError(f"{path}: not a JSON object")
        flags = {a.dest: a for a in self._actions if a.option_strings and a.dest not in ("help", "config")}
        tokens = []
        for key, value in entries.items():
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"{path}: unknown config key {key!r}")
            switch = action.nargs == 0  # such as --features: true or false
            if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
                raise ValueError(f"{path}: config key {key!r} cannot be {value!r}")
            if value is not False:
                flag = action.option_strings[0]
                tokens.append(flag if switch else f"{flag}={value}")  # "=": "-0.5,0.5" is a value, not a flag
        return tokens


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--videos", type=int, default=SimConfig.videos)
    p.add_argument("--duration-min", type=float, default=SimConfig.duration_range[0])
    p.add_argument("--duration-max", type=float, default=SimConfig.duration_range[1])
    p.add_argument("--steps-min", type=int, default=SimConfig.steps_per_video[0])
    p.add_argument("--steps-max", type=int, default=SimConfig.steps_per_video[1])
    p.add_argument("--substeps-min", type=int, default=SimConfig.substeps_per_step[0])
    p.add_argument("--substeps-max", type=int, default=SimConfig.substeps_per_step[1])
    p.add_argument("--zero-gap-prob", type=float, default=SimConfig.zero_gap_prob)
    p.add_argument("--gap-min", type=float, default=SimConfig.gap_range[0])
    p.add_argument("--gap-max", type=float, default=SimConfig.gap_range[1])
    p.add_argument("--noise-sigma", type=float, default=SimConfig.noise_sigma)
    p.add_argument("--fps", type=float, default=SimConfig.fps)
    p.add_argument("--feature-dim", type=int, default=SimConfig.feature_dim)


def _add_detector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start-threshold", type=float, default=DetectorConfig.start_threshold)
    p.add_argument("--drop-delta", type=float, default=DetectorConfig.drop_delta)
    p.add_argument("--min-progress-for-drop", type=float, default=DetectorConfig.min_progress_for_drop)
    p.add_argument("--no-eos-close", action="store_true")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden-dim", type=int, default=32,
                   help="desk-scale default; the full-scale setting is 768")
    p.add_argument("--learning-rate", type=float, default=ScorerConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=ScorerConfig.weight_decay)
    p.add_argument("--batch-size", type=int, default=ScorerConfig.batch_size)
    p.add_argument("--epochs", type=int, default=ScorerConfig.epochs)
    p.add_argument("--bptt-window", type=int, default=ScorerConfig.bptt_window)


def _add_endpoint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", default="http://localhost:8000/v1")
    p.add_argument("--model-name", default="default")


def _add_describer_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--describer", choices=("mock", "http"), default="mock")
    _add_endpoint_args(p)
    p.add_argument("--timeout", type=float, default=HttpLimits.timeout)
    p.add_argument("--max-retries", type=int, default=HttpLimits.max_retries)
    p.add_argument("--max-inflight", type=int, default=HttpLimits.max_inflight,
                   help="HTTP requests in flight, and videos run at once with --describer http")
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
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    _add_sim_args(p)
    p.add_argument("--features", action="store_true", help="also write feature CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the scorer")
    p.add_argument("--annotations", required=True)
    p.add_argument("--features", required=True, help="directory of feature CSVs")
    _add_train_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="detect boundaries over score streams")
    p.add_argument("--scores", required=True, help="score CSV file or directory")
    _add_detector_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("describe", help="detect and generate descriptions")
    p.add_argument("--scores", required=True, help="score CSV file or directory")
    _add_detector_args(p)
    _add_describer_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("evaluate", help="score emissions against annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--pred", required=True, help="emissions JSONL file or directory")
    _add_eval_args(p)
    _add_endpoint_args(p)
    p.add_argument("--report", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="group atomic actions hierarchically")
    p.add_argument("--input", required=True, help="JSONL with substep-only annotations")
    p.add_argument("--client", choices=("mock", "http"), default="mock")
    _add_endpoint_args(p)
    p.add_argument("--embedder", choices=("mock", "http"), default="mock")
    p.add_argument("--k", type=int, default=0, help="canonicalize step captions into k clusters")
    p.add_argument("--bounds-min", type=float)
    p.add_argument("--bounds-max", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("e2e", help="simulate, detect, describe, evaluate")
    _add_sim_args(p)
    _add_detector_args(p)
    _add_describer_args(p)
    _add_eval_args(p)
    _add_train_args(p)
    p.add_argument("--train", action="store_true", help="train a scorer instead of oracle streams")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_e2e)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: a usage error, or --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
