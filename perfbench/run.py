#!/usr/bin/env python3
"""hierstream benchmark: one command, three workloads, every metric by name.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it carries the
details (samples, percentiles, the base of every ratio, the environment),
which are also written under ``perfbench/results/``. The exit code is 1 when
an output check fails and 2 when hierstream's sources are missing. See
``README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the baseline is single-threaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
RESULTS = BENCH / "results"
# Bump when the generated inputs change, so stale caches are not reused.
INPUT_VERSION = 2
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio", "loop_fps": "1/s",
    "batch_fps": "1/s", "frame_p50_us": "us",
}

if not (SRC / "hierstream" / "__init__.py").is_file():
    print(f"perfbench: no hierstream sources under {SRC}; run from a full checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from layers import UNITS as PER_LAYER_UNITS  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import mean, percentile, ratio, timing  # noqa: E402
from workloads import HS, WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top: Path, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(top)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, inputs: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC, "*.py"),
        "inputs_sha256": (inputs / "DIGEST").read_text().strip(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process, single-threaded",
    }


# ----------------------------------------------------------------------
# child processes: input generation, set-up and import timing
# ----------------------------------------------------------------------

def _run_self(*extra: str) -> None:
    subprocess.run([sys.executable, str(Path(__file__).resolve()), *extra],
                   check=True, timeout=CHILD_TIMEOUT_S)


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate the seed's inputs once, in a child process so that the
    generator's memory and time never count, and reuse them afterwards."""
    target = CACHE / f"{workload}-seed{seed}-v{INPUT_VERSION}"
    if not (target / "DIGEST").is_file():
        _run_self("--generate", "--workload", workload, "--seed", str(seed), "--inputs", str(target))
    return target


def generate(workload: str, seed: int, target: Path) -> None:
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    WORKLOADS[workload].generate(seed, tmp)
    (tmp / "DIGEST").write_text(_tree_digest(tmp, "*") + "\n")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)


def measure_setup(workload: str, seed: int, inputs: Path) -> list[float]:
    """Wall time of fresh processes that import hierstream and load the
    inputs, from interpreter start to exit."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run_self("--setup-child", "--workload", workload, "--seed", str(seed), "--inputs", str(inputs))
        walls.append(time.perf_counter() - t0)
    return walls


def measure_cli_import() -> list[float]:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hierstream.cli; print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


# ----------------------------------------------------------------------
# the measured run
# ----------------------------------------------------------------------

class Tally:
    """Operations attempted and failed (raised or failed their check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def _us(ns_values) -> list[float]:
    return [v / 1e3 for v in ns_values]


def attempt(wl, tracer, tally: Tally) -> tuple[dict | None, float]:
    """One operation pass and its checks. A pass that raises counts every
    operation in it as failed; the run goes on and ends with exit code 1."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.run(tracer)
    except Exception:  # noqa: BLE001 - recorded as a failed operation
        traceback.print_exc()
        tally.add((wl.ops, wl.ops))
        return None, 0.0
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    tally.add(wl.check(out))
    return out, wall


def probe(wl, tally: Tally) -> None:
    """The workload's one-off check operation, if it has one."""
    if not hasattr(wl, "probe"):
        return
    try:
        tally.add(wl.probe())
    except Exception:  # noqa: BLE001 - recorded as a failed operation
        traceback.print_exc()
        tally.add((1, 1))


# Frames per latency chunk: a chunk's p99 has ten samples beyond it.
CHUNK_FRAMES = 1000


def chunk_percentiles(frame_us: list[float]) -> tuple[list[float], list[float]]:
    """p50 and p99 of consecutive chunks of at least CHUNK_FRAMES frames."""
    n_chunks = len(frame_us) // CHUNK_FRAMES
    if n_chunks == 0:
        return [], []
    chunks = np.array_split(np.asarray(frame_us), n_chunks)
    return [percentile(c, 50) for c in chunks], [percentile(c, 99) for c in chunks]


def run_untraced(wl, seconds: float, tally: Tally) -> dict:
    """Start operations until ``seconds`` have passed; collect their samples."""
    samples: dict[str, list] = {
        key: [] for key in ("loop_frames", "loop_ns", "batch_frames", "batch_ns",
                            "chunk_p50_us", "chunk_p99_us", "frame_us", "emit_us")
    }
    start, passes = time.perf_counter(), 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        out, _ = attempt(wl, None, tally)
        if out is None:
            continue
        for key in ("loop_frames", "loop_ns", "batch_frames", "batch_ns"):
            samples[key].append(out[key])
        frame_us = _us(out["frame_lat_ns"])
        p50, p99 = chunk_percentiles(frame_us)
        samples["chunk_p50_us"].extend(p50)
        samples["chunk_p99_us"].extend(p99)
        samples["frame_us"].extend(frame_us)
        samples["emit_us"].extend(_us(out["emit_lat_ns"]))
        del out
        gc.collect()
    return samples


def end_to_end(samples: dict, setup_walls: list[float], tally: Tally) -> tuple[dict, dict]:
    """Throughputs are whole-run totals and latencies are chunk means: both
    move smoothly with the share of time the host spends in slow spells,
    where a median would jump between the fast and the slow speed."""
    ok = ratio(tally.attempted - tally.failed, tally.attempted)
    loop = ratio(sum(samples["loop_frames"]), sum(samples["loop_ns"]) / 1e9)
    batch = ratio(sum(samples["batch_frames"]), sum(samples["batch_ns"]) / 1e9)
    values = {
        "setup_s": percentile(setup_walls, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok["value"],
        "loop_fps": loop["value"],
        "batch_fps": batch["value"],
        "frame_p50_us": mean(samples["chunk_p50_us"]),
    }
    detail = {
        "setup_s": timing(setup_walls),
        "ok_frac": ok,
        "loop_fps": loop,
        "batch_fps": batch,
        "loop_s_per_op": timing([ns / 1e9 for ns in samples["loop_ns"]]),
        "batch_s_per_op": timing([ns / 1e9 for ns in samples["batch_ns"]]),
        "chunk_p50_us": timing(samples["chunk_p50_us"]),
        "chunk_p99_us": timing(samples["chunk_p99_us"]),
        "frame_us": timing(samples["frame_us"]),
        "emit_us": timing(samples["emit_us"]),
    }
    return values, detail


def run_traced(wl, hs, seconds: float, tally: Tally, workload: str) -> tuple[dict, list]:
    """Alternate untraced and traced operations. The per-layer figures come
    from the traced ones, the tracing overhead from comparing the two."""
    traced: dict[str, list] = {
        "untraced_s": [], "traced_s": [], "summaries": [], "emit_lat_us": [], "chunk_p99_us": [],
    }
    first_spans = None
    start, passes = time.perf_counter(), 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        out, wall = attempt(wl, None, tally)
        if out is not None:
            traced["untraced_s"].append(wall)
            traced["emit_lat_us"].extend(_us(out["emit_lat_ns"]))
            traced["chunk_p99_us"].extend(chunk_percentiles(_us(out["frame_lat_ns"]))[1])
        del out
        gc.collect()

        tracer = Tracer(hs)
        out, wall = attempt(wl, tracer, tally)
        if out is not None:
            traced["traced_s"].append(wall)
            traced["summaries"].append(tracer.summary())
            if first_spans is None:
                first_spans = tracer.dump_rows(workload)
        del out, tracer
        gc.collect()
    return traced, first_spans


def traced_load(wl_class, inputs: Path, hs):
    tracer = Tracer(hs)
    tracer.install()
    try:
        wl_class.load(inputs)
    finally:
        tracer.uninstall()
    return tracer.summary()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.generate:
        generate(args.workload, args.seed, args.inputs)
        return 0
    if args.setup_child:
        WORKLOADS[args.workload].load(args.inputs)
        return 0

    inputs = ensure_inputs(args.workload, args.seed)
    setup_walls = measure_setup(args.workload, args.seed, inputs) if args.trace == 0 else []
    import_walls = measure_cli_import() if args.trace == 1 else []

    wl_class = WORKLOADS[args.workload]
    wl = wl_class(wl_class.load(inputs), args.seed)
    # Inputs and check references live for the whole run; keep them out of
    # the collector's scans so operations pay only for their own garbage.
    gc.collect()
    gc.freeze()
    tally = Tally()
    spans_out = None
    if args.trace == 0:
        samples = run_untraced(wl, args.seconds, tally)
        probe(wl, tally)
        metrics, detail = end_to_end(samples, setup_walls, tally)
        units = END_TO_END_UNITS
    else:
        load = traced_load(wl_class, inputs, HS)
        traced, spans_out = run_traced(wl, HS, args.seconds / 2.0, tally, args.workload)
        probe(wl, tally)
        metrics, detail = layer_metrics(traced, load, import_walls)
        units = PER_LAYER_UNITS

    record = {"environment": environment(args, inputs), "attempted": tally.attempted,
              "failed": tally.failed, "detail": detail}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"metrics": metrics, **record}, indent=1) + "\n")
    if spans_out is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for row in spans_out:
                fh.write(json.dumps(row) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
