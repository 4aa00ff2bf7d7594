"""Per-layer metrics derived from the spans of the traced operations.

Times are per operation pass (the median over traced passes); counts are per
pass and must repeat exactly from pass to pass. Each metric is listed with
its unit; ``README.md`` names the end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics

from stats import mean, percentile, ratio, timing

# name -> unit, in the order they are reported.
UNITS = {
    "cli.import_s": "s",
    "scoring.streams.read_s": "s",
    "scoring.streams.read_frames_per_s": "1/s",
    "core.read_annotations_s": "s",
    "scoring.rnn.forward_calls": "count",
    "scoring.rnn.forward_us_per_frame": "us",
    "scoring.rnn.backward_s": "s",
    "scoring.rnn.backward_us_per_frame": "us",
    "scoring.rnn.window_loss_s": "s",
    "scoring.rnn.infer_scores_s": "s",
    "scoring.train.adamw_steps": "count",
    "scoring.train.adamw_step_s": "s",
    "scoring.train.targets_s": "s",
    "scoring.train.self_s": "s",
    "scoring.histogram.decode_calls": "count",
    "scoring.histogram.decode_s": "s",
    "detector.step_calls": "count",
    "detector.step_self_s": "s",
    "detector.step_us_p50": "us",
    "detector.step_us_p99": "us",
    "detector.starts": "count",
    "detector.ends_drop": "count",
    "detector.ends_threshold": "count",
    "detector.ends_eos": "count",
    "memory.insert_calls": "count",
    "memory.insert_s": "s",
    "memory.query_calls": "count",
    "memory.query_s": "s",
    "memory.query_us_p95": "us",
    "memory.commit_calls": "count",
    "memory.commit_s": "s",
    "memory.prior_scan_ratio": "ratio",
    "memory.frames_peak": "count",
    "memory.bundle_frames_mean": "count",
    "describer.calls": "count",
    "describer.build_request_s": "s",
    "describer.describe_s": "s",
    "describer.prompt_bytes_mean": "bytes",
    "runner.emissions": "count",
    "runner.self_s": "s",
    "runner.emit_p50_us": "us",
    "runner.emit_p95_us": "us",
    "runner.frame_p99_us": "us",
    "metrics.match_calls": "count",
    "metrics.match_s": "s",
    "metrics.match_cells": "count",
    "metrics.match_unique_ratio": "ratio",
    "metrics.solve_s": "s",
    "metrics.f1_s": "s",
    "metrics.topk_s": "s",
    "metrics.rank_calls": "count",
    "metrics.rank_s": "s",
    "metrics.aedt_s": "s",
    "metrics.embed_calls": "count",
    "metrics.embed_s": "s",
    "metrics.goal_s": "s",
    "report.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counted per pass: must be identical in every traced pass.
_COUNTS = {
    "scoring.rnn.forward_calls": ("calls", "rnn.forward"),
    "scoring.train.adamw_steps": ("calls", "train.adamw_step"),
    "scoring.histogram.decode_calls": ("calls", "histogram.decode"),
    "detector.step_calls": ("calls", "detector.step"),
    "memory.insert_calls": ("calls", "memory.insert"),
    "memory.query_calls": ("calls", "memory.query"),
    "memory.commit_calls": ("calls", "memory.commit"),
    "describer.calls": ("calls", "describer.describe"),
    "metrics.match_calls": ("calls", "metrics.match"),
    "metrics.rank_calls": ("calls", "metrics.rank"),
    "metrics.embed_calls": ("calls", "metrics.embed"),
    "detector.starts": ("counts", "detector.starts"),
    "detector.ends_drop": ("counts", "detector.ends_drop"),
    "detector.ends_threshold": ("counts", "detector.ends_threshold"),
    "detector.ends_eos": ("counts", "detector.ends_eos"),
    "memory.frames_peak": ("counts", "memory.frames_peak"),
    "runner.emissions": ("counts", "runner.emissions"),
    "metrics.match_cells": ("counts", "metrics.match_cells"),
}

# Seconds per pass: inclusive ("total") or excluding wrapped children ("self_time").
_TIMES = {
    "scoring.rnn.backward_s": ("total", "rnn.backward"),
    "scoring.rnn.window_loss_s": ("total", "rnn.window_loss"),
    "scoring.rnn.infer_scores_s": ("total", "rnn.infer_scores"),
    "scoring.train.adamw_step_s": ("total", "train.adamw_step"),
    "scoring.train.targets_s": ("total", "train.targets"),
    "scoring.train.self_s": ("self_time", "train.train_scorer"),
    "scoring.histogram.decode_s": ("total", "histogram.decode"),
    "detector.step_self_s": ("self_time", "detector.step"),
    "memory.insert_s": ("total", "memory.insert"),
    "memory.query_s": ("total", "memory.query"),
    "memory.commit_s": ("total", "memory.commit"),
    "describer.build_request_s": ("total", "describer.build_request"),
    "describer.describe_s": ("total", "describer.describe"),
    "runner.self_s": ("self_time", "runner.run"),
    "metrics.match_s": ("total", "metrics.match"),
    "metrics.solve_s": ("total", "metrics.solve"),
    "metrics.f1_s": ("total", "metrics.f1"),
    "metrics.topk_s": ("total", "metrics.topk"),
    "metrics.rank_s": ("total", "metrics.rank"),
    "metrics.aedt_s": ("total", "metrics.aedt"),
    "metrics.embed_s": ("total", "metrics.embed"),
    "metrics.goal_s": ("total", "metrics.goal"),
    "report.self_s": ("self_time", "report.evaluate_corpus"),
}


def _per_pass(s) -> dict:
    """Ratios of one pass, each with its base."""
    counts = s.counts
    return {
        "scoring.rnn.forward_us_per_frame": ratio(s.total["rnn.forward"] * 1e6, s.frames["rnn.forward"]),
        "scoring.rnn.backward_us_per_frame": ratio(s.total["rnn.backward"] * 1e6, s.frames["rnn.backward"]),
        "memory.prior_scan_ratio": ratio(counts["memory.prior_returned"], counts["memory.prior_held"]),
        "memory.bundle_frames_mean": ratio(counts["memory.bundle_frames"], s.calls["memory.query"]),
        "describer.prompt_bytes_mean": ratio(counts["describer.prompt_bytes"], s.calls["describer.build_request"]),
        "metrics.match_unique_ratio": ratio(s.unique_matches, s.calls["metrics.match"]),
    }


def layer_metrics(traced: dict, load, import_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer values by name, and their details (samples, bases)."""
    passes = traced["summaries"]
    values: dict = {"cli.import_s": statistics.median(import_walls)}
    detail: dict = {"cli.import_s": timing(import_walls), "passes": len(passes)}

    values["scoring.streams.read_s"] = load.total["streams.read"]
    read_rate = ratio(load.frames["streams.read"], load.total["streams.read"])
    values["scoring.streams.read_frames_per_s"] = read_rate["value"]
    detail["scoring.streams.read_frames_per_s"] = read_rate
    values["core.read_annotations_s"] = load.total["core.read_annotations"]

    repeat = True
    for name, (table, key) in _COUNTS.items():
        per_pass = [getattr(s, table)[key] for s in passes]
        values[name] = per_pass[0]
        repeat = repeat and len(set(per_pass)) == 1
    detail["counts_repeat"] = repeat

    for name, (table, key) in _TIMES.items():
        per_pass = [getattr(s, table)[key] for s in passes]
        values[name] = statistics.median(per_pass)
        detail[name] = timing(per_pass)

    per_pass_ratios = [_per_pass(s) for s in passes]
    for name, first_ratio in per_pass_ratios[0].items():
        values[name] = statistics.median(r[name]["value"] for r in per_pass_ratios)
        detail[name] = first_ratio

    step_us = [d * 1e6 for s in passes for d in s.durations["detector.step"]]
    query_us = [d * 1e6 for s in passes for d in s.durations["memory.query"]]
    values["detector.step_us_p50"] = percentile(step_us, 50)
    values["detector.step_us_p99"] = percentile(step_us, 99)
    values["memory.query_us_p95"] = percentile(query_us, 95)
    values["runner.emit_p50_us"] = percentile(traced["emit_lat_us"], 50)
    values["runner.emit_p95_us"] = percentile(traced["emit_lat_us"], 95)
    detail["detector.step_us"] = timing(step_us)
    detail["memory.query_us"] = timing(query_us)
    detail["runner.emit_us"] = timing(traced["emit_lat_us"])
    values["runner.frame_p99_us"] = mean(traced["chunk_p99_us"])
    detail["runner.frame_p99_us"] = timing(traced["chunk_p99_us"])

    untraced = statistics.median(traced["untraced_s"])
    traced_wall = statistics.median(traced["traced_s"])
    values["trace.overhead_frac"] = traced_wall / untraced - 1.0
    detail["trace.overhead_frac"] = {
        "traced_s": timing(traced["traced_s"]), "untraced_s": timing(traced["untraced_s"]),
    }
    return {name: values[name] for name in UNITS}, detail
