"""The three benchmark workloads: inputs, one timed operation, output checks.

Every workload follows the same protocol:

* ``generate(seed, out)`` writes the inputs for one seed. It runs in its
  own process, before and outside any timing (the simulator is the load
  generator and is never timed).
* ``load(inputs)`` reads them back with hierstream's own readers. This is
  what ``setup_s`` times in a fresh process.
* ``Workload(loaded, seed)`` prepares check references, outside timing.
* ``run(tracer)`` is one operation pass. It returns the frames and
  nanoseconds of its loop and batch phases, every frame's latency, and the
  outputs; ``check(out)`` then verifies the outputs, outside timing and with
  any tracer already uninstalled, and returns ``(attempted, failed)``.

All hierstream calls go through module or class attributes, so a tracer can
wrap them (see ``spans.py``). See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hierstream import core, detector, memory, report, runner
from hierstream.metrics import embedding, matching, semantic
from hierstream.scoring import rnn, streams, train
from hierstream.scoring.histogram import HistogramConfig
from hierstream.scoring.losses import softmax
from hierstream.simulator import SimConfig, gen_annotations, gen_features, gen_scores

# Modules the tracer wraps; every call below resolves through them.
HS = SimpleNamespace(
    core=core, detector=detector, memory=memory, report=report, runner=runner,
    embedding=embedding, matching=matching, semantic=semantic,
    rnn=rnn, streams=streams, train=train,
)

_clock = time.perf_counter_ns
HIST = HistogramConfig()
DETECTOR = detector.DetectorConfig()


# ----------------------------------------------------------------------
# input files, in the formats the program reads. The writers are the
# benchmark's own, so both commits of a comparison read the same bytes
# even if the program's writers change.
# ----------------------------------------------------------------------

def _write_annotations(sets, path: Path) -> None:
    with open(path, "w") as fh:
        for a in sets:
            fh.write(json.dumps({
                "video_id": a.video_id,
                "duration": a.duration,
                "fps": a.fps,
                "goal": a.goal,
                "instances": [
                    {"start": i.interval.start, "end": i.interval.end,
                     "level": int(i.level), "description": i.description}
                    for i in a.instances
                ],
            }) + "\n")


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _write_scores(path: Path, frames) -> None:
    bins = len(frames[0].step_progress_dist)
    header = (["timestamp", "bg", "step", "stepsub"]
              + [f"sp{i}" for i in range(bins)] + [f"ssp{i}" for i in range(bins)])
    _write_rows(path, header, (
        [fs.timestamp, *fs.state_probs, *fs.step_progress_dist, *fs.substep_progress_dist]
        for fs in frames
    ))


def _write_features(path: Path, ts: np.ndarray, feats: np.ndarray) -> None:
    header = ["timestamp"] + [f"f{i}" for i in range(feats.shape[1])]
    _write_rows(path, header, ([t, *row] for t, row in zip(ts, feats)))


def _read_feature_set(inputs: Path):
    anns = core.read_annotations(inputs / "annotations.jsonl")
    feats = [streams.read_features(inputs / f"{a.video_id}.csv") for a in anns]
    return anns, feats


# ----------------------------------------------------------------------
# shared loop pieces
# ----------------------------------------------------------------------

def _replayed(frames, lat: list) -> "iter":
    """Hand pre-scored frames to the loop one at a time; a frame's latency
    runs from handing it over until the loop asks for the next one."""
    for fs in frames:
        t0 = _clock()
        yield fs
        lat.append(_clock() - t0)


def _scored(model, feats, ts, lat: list, out: list, tracer, video: int):
    """Closed loop with one client: score frame t with the scorer (one
    frame, carried hidden state) only when the loop asks for it. A frame's
    latency runs from that request until the loop asks for the next one."""
    h = model.zero_state()
    t0 = _clock()
    for t in range(len(ts)):
        if tracer is not None:
            tracer.ctx = (video, t)
            span = tracer.open("bench.feed")
        cache = model.forward(feats[t:t + 1], h)
        h = cache["h_last"]
        fs = core.FrameScores(
            timestamp=float(ts[t]),
            state_probs=softmax(cache["state_logits"])[0],
            step_progress_dist=softmax(cache["step_logits"])[0],
            substep_progress_dist=softmax(cache["sub_logits"])[0],
        )
        if tracer is not None:
            tracer.close(span)
        out.append(fs)
        yield fs
        t1 = _clock()
        lat.append(t1 - t0)
        t0 = t1


def _emission_key(emissions) -> list[tuple]:
    return [(int(e.instance.level), e.instance.interval.start, e.instance.interval.end, e.emit_time)
            for e in emissions]


def _emit_latencies(result, timestamps, lat: list) -> list:
    """Latencies of the frames whose step emitted at least one instance.
    The last frame is left out: end-of-stream emissions share its
    timestamp but come from ``finish()``."""
    index = {t: i for i, t in enumerate(timestamps[:-1])}
    hit = {index[e.emit_time] for e in result.emissions if e.emit_time in index}
    return [lat[i] for i in sorted(hit)]


def _same_scores(a, b) -> bool:
    return len(a) == len(b) and all(
        x.timestamp == y.timestamp
        and np.array_equal(x.state_probs, y.state_probs)
        and np.array_equal(x.step_progress_dist, y.step_progress_dist)
        and np.array_equal(x.substep_progress_dist, y.substep_progress_dist)
        for x, y in zip(a, b)
    )


def _stream_ok(result, streamed, batch) -> bool:
    """Streamed scores equal batch inference bit for bit, emissions equal
    ``run_stream`` over them, one describer call per emission plus the
    goal."""
    return (
        _same_scores(streamed, batch)
        and _emission_key(result.emissions) == _emission_key(detector.run_stream(batch, DETECTOR, HIST))
        and result.describe_calls == len(result.emissions) + 1
    )


# ----------------------------------------------------------------------
# corpus: 100 simulator videos, detect + describe, then evaluate
# ----------------------------------------------------------------------

class Corpus:
    """Score CSVs -> run_described_stream per video -> evaluate_corpus."""

    NOISE = 2.0
    THRESHOLDS = (0.3, 0.5, 0.7)
    # F1@0.5 floors, well below the 0.985 (substep) and 0.970 (step)
    # measured at noise 2.0.
    F1_FLOOR = {"substep": 0.90, "step": 0.85}

    @staticmethod
    def generate(seed: int, out: Path) -> None:
        cfg = SimConfig(seed=seed, videos=100, noise_sigma=Corpus.NOISE)
        anns = gen_annotations(cfg)
        _write_annotations(anns, out / "annotations.jsonl")
        for a in anns:
            _write_scores(out / f"{a.video_id}.csv",
                          gen_scores(a, cfg.noise_sigma, cfg.fps, cfg.histogram, seed=seed))

    @staticmethod
    def load(inputs: Path):
        anns = core.read_annotations(inputs / "annotations.jsonl")
        return anns, [streams.read_scores(inputs / f"{a.video_id}.csv") for a in anns]

    def __init__(self, loaded, seed: int) -> None:
        self.anns, self.streams = loaded
        self.ops = len(self.anns)
        self.frames = sum(len(s) for s in self.streams)
        self.timestamps = [[fs.timestamp for fs in s] for s in self.streams]
        self.reference = [_emission_key(detector.run_stream(s, DETECTOR, HIST)) for s in self.streams]

    def run(self, tracer) -> dict:
        describe = runner.mock_describer()
        results, lat, emit_lat = [], [], []
        loop_ns = 0
        for vi, stream in enumerate(self.streams):
            if tracer is not None:
                tracer.ctx = (vi, -1)
            video_lat: list = []
            t0 = _clock()
            results.append(runner.run_described_stream(_replayed(stream, video_lat), describe, DETECTOR, HIST))
            loop_ns += _clock() - t0
            lat.extend(video_lat)
            emit_lat.extend(_emit_latencies(results[-1], self.timestamps[vi], video_lat))
        emissions = {a.video_id: r.emissions for a, r in zip(self.anns, results)}
        goals = {a.video_id: r.goal_text for a, r in zip(self.anns, results)}
        embedder = embedding.HashedBagOfWordsEmbedder()
        t0 = _clock()
        rep = report.evaluate_corpus(self.anns, emissions, goals, self.THRESHOLDS, k=5, embedder=embedder)
        eval_ns = _clock() - t0
        return {
            "loop_frames": self.frames, "loop_ns": loop_ns,
            "batch_frames": self.frames, "batch_ns": eval_ns,
            "frame_lat_ns": lat, "emit_lat_ns": emit_lat,
            "results": results, "report": rep,
        }

    def _report_ok(self, rep: dict, results) -> bool:
        for level, key in report.LEVEL_KEYS.items():
            entry = rep["levels"][key]
            f1 = [entry["f1_loc"][str(t)] for t in self.THRESHOLDS]
            desc = [entry["f1_loc_desc"][str(t)] for t in self.THRESHOLDS]
            if not all(0.0 <= x <= 1.0 for x in f1 + desc):
                return False
            if any(a < b for a, b in zip(f1, f1[1:])):
                return False
            if any(d > f for d, f in zip(desc, f1)):
                return False
            if entry["gt_instances"] != sum(len(a.at_level(level)) for a in self.anns):
                return False
            predicted = sum(1 for r in results for e in r.emissions if e.instance.level == level)
            if entry["pred_instances"] != predicted:
                return False
            if entry["f1_loc"]["0.5"] < self.F1_FLOOR[key]:
                return False
        return True

    def check(self, out: dict) -> tuple[int, int]:
        results = out["results"]
        videos_ok = [
            r.describe_calls == len(r.emissions) + 1 and _emission_key(r.emissions) == ref
            for r, ref in zip(results, self.reference)
        ]
        if not self._report_ok(out["report"], results):
            # A corpus-level check implicates every video of the pass.
            return len(results), len(results)
        return len(results), videos_ok.count(False)


# ----------------------------------------------------------------------
# stream: one long video, desk-scale scorer frame by frame, closed loop
# ----------------------------------------------------------------------

class Stream:
    """Features -> ScorerModel.forward one frame at a time -> run_described_stream."""

    NOISE = 0.5
    STEPS = 200
    DURATION = 3000.0  # seconds at 4 fps: about 12k frames
    TRAIN_VIDEOS = 8
    DESK = dict(recurrent_layers=2, hidden_dim=32, epochs=15, batch_size=1, learning_rate=0.01)

    @staticmethod
    def generate(seed: int, out: Path) -> None:
        cfg = SimConfig(seed=seed, videos=1, noise_sigma=Stream.NOISE,
                        steps_per_video=(Stream.STEPS, Stream.STEPS),
                        duration_range=(Stream.DURATION, Stream.DURATION))
        (video,) = gen_annotations(cfg)
        _write_annotations([video], out / "annotations.jsonl")
        _write_features(out / f"{video.video_id}.csv", *gen_features(video, cfg, seed=seed))
        # The desk-scale scorer is part of the input: trained once per seed
        # on separate short videos, then only loaded.
        tcfg = SimConfig(seed=seed + 1, videos=Stream.TRAIN_VIDEOS, noise_sigma=Stream.NOISE)
        tanns = gen_annotations(tcfg)
        tfeats = [gen_features(a, tcfg, seed=seed + 1)[1] for a in tanns]
        scfg = rnn.ScorerConfig(feature_dim=cfg.feature_dim, **Stream.DESK)
        model, _ = train.train_scorer(tfeats, tanns, scfg, seed=seed)
        model.save(out / "model.npz")

    @staticmethod
    def load(inputs: Path):
        (video,), ((ts, feats),) = _read_feature_set(inputs)
        return video, ts, feats, rnn.ScorerModel.load(inputs / "model.npz")

    def __init__(self, loaded, seed: int) -> None:
        self.video, self.ts, self.feats, self.model = loaded
        self.ops = 1
        self.frames = len(self.ts)

    def run(self, tracer) -> dict:
        describe = runner.mock_describer()
        t0 = _clock()
        batch = rnn.infer_scores(self.model, self.feats, timestamps=self.ts)
        batch_ns = _clock() - t0
        lat, streamed = [], []
        t0 = _clock()
        result = runner.run_described_stream(
            _scored(self.model, self.feats, self.ts, lat, streamed, tracer, 0), describe, DETECTOR, HIST)
        loop_ns = _clock() - t0
        return {
            "loop_frames": self.frames, "loop_ns": loop_ns,
            "batch_frames": self.frames, "batch_ns": batch_ns,
            "frame_lat_ns": lat,
            "emit_lat_ns": _emit_latencies(result, list(self.ts), lat),
            "emissions": len(result.emissions),
            "result": result, "streamed": streamed, "batch": batch,
        }

    def check(self, out: dict) -> tuple[int, int]:
        return 1, 0 if _stream_ok(out["result"], out["streamed"], out["batch"]) else 1


# ----------------------------------------------------------------------
# train: paper-scale scorer, one epoch, then inference at paper scale
# ----------------------------------------------------------------------

class Train:
    """train_scorer (h=256, L=3, window 64) for one epoch, infer_scores, and
    the trained scorer streamed frame by frame through the online loop.

    The hidden size is below the paper's 768: at h=768 the 28 MB of
    recurrent weights stream from the shared L3 or DRAM on every frame, and
    inference speed swung by up to 2x between runs on a shared 2-vCPU host
    (spread 0.39 over ten seeds). At h=256 the weights of a layer fit in L2.
    """

    NOISE = 0.5
    VIDEOS = 8
    DURATION = 30.0
    HIDDEN = 256
    # Inference is short next to an epoch: repeat it for enough batch
    # samples and enough streamed frames for a p99.
    INFER_REPEATS = 2
    PROBE_EPS = 1e-5
    PROBE_RTOL = 1e-3

    @staticmethod
    def generate(seed: int, out: Path) -> None:
        cfg = SimConfig(seed=seed, videos=Train.VIDEOS, noise_sigma=Train.NOISE,
                        duration_range=(Train.DURATION, Train.DURATION))
        anns = gen_annotations(cfg)
        _write_annotations(anns, out / "annotations.jsonl")
        for a in anns:
            _write_features(out / f"{a.video_id}.csv", *gen_features(a, cfg, seed=seed))

    @staticmethod
    def load(inputs: Path):
        return _read_feature_set(inputs)

    def __init__(self, loaded, seed: int) -> None:
        self.anns, ts_feats = loaded
        self.ts = [ts for ts, _ in ts_feats]
        self.feats = [f for _, f in ts_feats]
        self.frames = sum(len(t) for t in self.ts)
        self.seed = seed
        self.ops = 1
        self.cfg = rnn.ScorerConfig(feature_dim=self.feats[0].shape[1], hidden_dim=self.HIDDEN, epochs=1)
        self.model = None

    def run(self, tracer) -> dict:
        describe = runner.mock_describer()
        t0 = _clock()
        model, losses = train.train_scorer(self.feats, self.anns, self.cfg, seed=self.seed)
        train_ns = _clock() - t0
        lat, emit_lat, passes = [], [], []
        batch_ns = 0
        for _ in range(self.INFER_REPEATS):
            t0 = _clock()
            batch = [rnn.infer_scores(model, f, timestamps=ts) for f, ts in zip(self.feats, self.ts)]
            batch_ns += _clock() - t0
            for vi, (f, ts) in enumerate(zip(self.feats, self.ts)):
                video_lat, streamed = [], []
                result = runner.run_described_stream(
                    _scored(model, f, ts, video_lat, streamed, tracer, vi), describe, DETECTOR, HIST)
                lat.extend(video_lat)
                emit_lat.extend(_emit_latencies(result, list(ts), video_lat))
                passes.append((result, streamed, batch[vi]))
        self.model = model
        return {
            "loop_frames": self.frames, "loop_ns": train_ns,
            "batch_frames": self.frames * self.INFER_REPEATS, "batch_ns": batch_ns,
            "frame_lat_ns": lat, "emit_lat_ns": emit_lat,
            "losses": losses, "passes": passes,
        }

    def check(self, out: dict) -> tuple[int, int]:
        ok = all(math.isfinite(x) for x in out["losses"]) and all(
            _stream_ok(*p) for p in out["passes"])
        return 1, 0 if ok else 1

    def probe(self) -> tuple[int, int]:
        """One gradient probe: ``backward`` against central finite
        differences on the largest-gradient coordinate of four parameters,
        over the first BPTT window of the first video."""
        model = self.model
        window = slice(0, model.cfg.bptt_window)
        targets = train.build_frame_targets(self.anns[0], model.cfg)
        feats = self.feats[0][window]
        args = (targets["state"][window], targets["step_target"][window], targets["step_mask"][window],
                targets["sub_target"][window], targets["sub_mask"][window])

        def loss() -> float:
            return model.window_loss(model.forward(feats), *args)[0]

        cache = model.forward(feats)
        grads = model.backward(cache, model.window_loss(cache, *args)[1])
        last = model.cfg.recurrent_layers - 1
        ok = True
        for name in ("wx0", f"wh{last}", f"b{last}", "w_state"):
            param = model.params[name]
            idx = np.unravel_index(int(np.argmax(np.abs(grads[name]))), param.shape)
            saved = param[idx]
            param[idx] = saved + self.PROBE_EPS
            up = loss()
            param[idx] = saved - self.PROBE_EPS
            down = loss()
            param[idx] = saved
            numeric = (up - down) / (2 * self.PROBE_EPS)
            analytic = grads[name][idx]
            ok = ok and abs(numeric - analytic) <= self.PROBE_RTOL * max(abs(numeric), abs(analytic), 1e-6)
        return 1, 0 if ok else 1


WORKLOADS = {"corpus": Corpus, "stream": Stream, "train": Train}
