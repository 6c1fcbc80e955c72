"""fusionring benchmark: one seeded workload, timed end to end or per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload ring_ladder --seed 1 --seconds 15 --trace 0

Workloads: ring_ladder, qform_sweep, catalog_sweep (see workloads.py and
BENCHMARK.json). The program is imported from ./src; nothing is installed.
The load is a closed loop: one process runs one item at a time.

--trace 0 measures set-up in fresh interpreters, runs one untimed warm-up
pass, then timed passes for about --seconds, and reports the end-to-end
metrics, scaled to a reference host speed (see REFERENCE_CAL_S). --trace 1
alternates untraced and traced passes and reports the per-layer metrics
from the spans (tracing.py); the spans of the last traced pass are written
to .bench_out/. Every item's answer is checked. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import glob
import gzip
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 5
SETUP_CODE = "import fusionring; fusionring.list_catalog()"
# Timed passes per run, at least. A ring_ladder pass takes 8-13 s and a
# qform_sweep pass 7-12 s on 2 cores, so at --seconds 15 both run their
# minimum and a run stays under a minute. ring_ladder gets a third pass so
# that its median is not the mean of two passes; its spread is the widest.
MIN_PASSES = {"ring_ladder": 3, "qform_sweep": 2, "catalog_sweep": 1}

# The speed of a shared 2-core host drifts by up to 1.6x within minutes,
# which swamps any regression bound. So a fixed pure-Python loop that does
# not touch fusionring is timed between items, about every CAL_EVERY_S,
# and end-to-end times are scaled to the host speed at which that loop
# takes REFERENCE_CAL_S: t * REFERENCE_CAL_S / (median loop time around
# the measurement). Raw wall times are printed next to them.
REFERENCE_CAL_S = 0.001
CAL_EVERY_S = 0.5


def calibration_loop() -> float:
    """Seconds for a fixed piece of pure-Python work: dict and tuple
    operations like the program's inner loops."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = (i % 61, i % 53)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Factor that scales a raw time to the reference host speed."""
    return REFERENCE_CAL_S / median(samples)


def measure_setup() -> tuple:
    """Raw and speed-scaled wall times of a fresh interpreter importing
    fusionring and loading the catalog for the first time, which every CLI
    call pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        factor = speed([calibration_loop() for _ in range(5)])
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * factor)
    return raw, scaled


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or rev
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "revision": rev,
    }


def run_pass(chains, recorder=None):
    """One pass over every item. Returns the records [(item id, seconds,
    error or None, probe)] and the pass's speed factor. Only step.run is
    timed; the check and the calibration loop run between items."""
    gc.collect()
    records = []
    cal = [calibration_loop()]
    last_cal = time.perf_counter()
    for chain in chains:
        state = {}
        for step in chain:
            if recorder is not None:
                recorder.item = step.id
            out, error = None, None
            t0 = time.perf_counter()
            try:
                out = step.run(state)
            except Exception as exc:  # an item that raises is a failed item
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    step.check(out, state)
                except Exception as exc:  # a wrong answer, or one of the wrong shape
                    error = f"wrong answer: {exc}"
            records.append((step.id, dt, error, step.probe))
            if time.perf_counter() - last_cal > CAL_EVERY_S:
                cal.append(calibration_loop())
                last_cal = time.perf_counter()
    return records, speed(cal)


def pass_wall(records) -> float:
    return sum(r[1] for r in records)


def end_to_end(passes, setup, p_tail: int, scaled: bool) -> dict:
    """Timing metrics from the timed passes [(records, speed factor)],
    scaled to the reference host speed or raw."""
    def times(records, factor):
        return [r[1] * (factor if scaled else 1.0) for r in records]
    pooled = [t * 1000 for records, factor in passes for t in times(records, factor)]
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median([sum(times(records, factor)) for records, factor in passes]), "s"),
        "item_ms.p50": (median(pooled), "ms"),
        "item_ms.tail": (percentile(pooled, p_tail), "ms"),
    }


def tail_percentile(items_per_pass: int, workload: str) -> int:
    """Highest whole percentile with at least 10 pooled items beyond it in a
    run of the minimum number of passes; fixed per workload so it does not
    move with the pass count."""
    n = items_per_pass * MIN_PASSES[workload]
    return max(50, math.floor(100 * (1 - 10 / n)))


def percentile(values, p: float) -> float:
    values = sorted(values)
    pos = (len(values) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def write_spans(spans, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    t0 = spans[0][2] if spans else 0.0
    keys = ("name", "layer", "start", "end", "parent", "item", "raised")
    with gzip.open(path, "wt") as fh:
        for s in spans:
            row = dict(zip(keys, s))
            row["start"] -= t0
            row["end"] -= t0
            fh.write(json.dumps(row) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fusionring" / "__init__.py").is_file():
        print(f"error: no fusionring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import fusionring
    if Path(fusionring.__file__).resolve().parent != (SRC / "fusionring").resolve():
        print(f"error: imported fusionring from {fusionring.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup = measure_setup() if args.trace == 0 else None
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))
    chains = workloads.build(args.workload, np.random.default_rng(args.seed))
    items_per_pass = sum(len(c) for c in chains)

    run_pass(chains)  # warm-up: lazy set-up and the first threaded BLAS call
    passes, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(chains))
        if args.trace:
            recorder = tracing.SpanRecorder()
            recorder.install()
            try:
                traced.append(run_pass(chains, recorder))
            finally:
                recorder.uninstall()
            layer_runs.append(tracing.layer_metrics(recorder.spans, traced[-1][0]))
        elapsed = time.perf_counter() - start
        rounds = len(passes)
        if (args.trace or rounds >= MIN_PASSES[args.workload]) and \
                elapsed + elapsed / rounds > args.seconds:
            break

    all_records = [r for records, _ in passes + traced for r in records]
    known = set(json.loads(workloads.REFERENCE_FILE.read_text())["known_failing_probes"])
    failures = [r for r in all_records if r[2] is not None]
    unexpected = [r for r in failures if not (r[3] and r[0] in known)]
    for item, _, error, _ in unexpected[:10]:
        print(f"FAILED {item}: {error}", file=sys.stderr)

    if args.trace:
        metrics = {name: (median([run[name][0] for run in layer_runs]), unit)
                   for name, (_, unit) in layer_runs[0].items()}
        untraced_wall = median([pass_wall(records) for records, _ in passes])
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"][0] / untraced_wall - 1.0,
                                          "ratio")
    else:
        p_tail = tail_percentile(items_per_pass, args.workload)
        raw = end_to_end(passes, setup[0], p_tail, scaled=False)
        metrics = end_to_end(passes, setup[1], p_tail, scaled=True)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"item_ms.tail is p{p_tail} of {len(passes) * items_per_pass} pooled items "
              f"({len(passes)} passes x {items_per_pass} items)")
        print(f"median speed factor {median([f for _, f in passes]):.4g}; raw wall times: "
              + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in raw.items()))
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {len(failures) / len(all_records):.4g} "
          f"({len(failures)}/{len(all_records)} items; {len(failures) - len(unexpected)} "
          f"are malformed-input CLI items known to fail at the seed commit)")
    if args.trace:
        print(f"spans of the last traced pass: {write_spans(recorder.spans, args.workload, args.seed)}")
    print(json.dumps({"correct": not unexpected, "attempted": len(all_records),
                      "failed": len(unexpected), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
