#!/usr/bin/env python3
"""qchanrate sweep benchmark.

Usage, from the root of a source checkout (no install step is needed):

    python3 perfbench/run.py --workload burst_aux --seed 3 --seconds 15 --trace 0

One run loads a workload's sweep config, sets its sequence length to the
workload's ``n`` and its seed list to ``[seed mod 16]``, then repeats the
sweep that ``qchanrate estimate`` runs (``run_experiment`` with one
worker, no ``--timings``, CSV and SVG written) for ``--seconds`` seconds
in this one process.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (result rows) and the
metrics.

``--trace 0`` reports the end-to-end metrics from untraced sweeps:
``uses_per_s`` (channel uses per second of sweep, median over sweeps),
``setup_s`` (median over fresh processes that import the package and
load the config), ``peak_rss_mb`` of this process and ``rows_ok_frac``.
``--trace 1`` spends half its time on untraced sweeps and half on sweeps
traced by ``tracer.py``, and reports the per-layer metrics.  The tracer
is imported only then.

Every sweep's CSV is checked against ``reference.json``, recorded by
``record_reference.py``: the same row set, ``ir``/``hx``/``hy``/``hxy``
within 1e-9 absolute, and rows identical across the sweeps of the run.
The traced run also checks the SHA-256 of every sampled trajectory.

Only the serial path is measured: the ``--threads`` process pool is
left to a later benchmark.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

# The reference holds seeds 0..REFERENCE_SEEDS-1; --seed is reduced modulo
# this so that every seed the benchmark is given has a recorded answer.
REFERENCE_SEEDS = 16
TOLERANCE = 1e-9  # the recursion contract, absolute, in bits
VALUE_COLUMNS = ("ir_bits", "hx_bits", "hy_bits", "hxy_bits")
SETUP_PROBES = 15  # measured fresh processes, after one warm-up
CONFIG_LOADS = 20  # in-process load_config calls timed by the traced run
MIN_SWEEPS = 3  # per timed phase, so that a median exists
WARMUP_N = 100  # length of the untimed warm-up sweep that runs every code path once

# The machines this runs on are shared: their speed drifts by up to 2x
# within minutes, and by about 10 % between sweeps a few seconds apart.
# While a unit of work is timed, a fixed calibration kernel therefore runs
# every CALIBRATION_PERIOD_S seconds from a SIGALRM handler, on the same CPU
# between the bytecodes of that work.  The unit's time less the kernel's is
# rescaled to the machine speed at which one kernel run takes
# CALIBRATION_NOMINAL_S.  The kernel mimics the pipeline's per-step work (a
# small complex vector-matrix product, a sum, a log) and never calls
# qchanrate; NOTES.md says what the rescaling assumes.
CALIBRATION_STEPS = 1000
CALIBRATION_NOMINAL_S = 0.006
CALIBRATION_PERIOD_S = 0.1
_CALIBRATION_MATRIX = np.full((4, 4), 0.25 + 0.0j)

# name -> (config path relative to the checkout root, sequence length n)
WORKLOADS = {
    "burst_aux": ("configs/burst_noise_sweep.json", 2000),
    "evolution_ir": ("configs/evolution_strength_sweep.json", 5000),
    "twoqubit_ir": ("configs/two_qubit_memory_sweep.json", 5000),
    "classical_ir": ("perfbench/configs/classical_ge_sweep.json", 5000),
}

END_TO_END_UNITS = {
    "uses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "channels.compile_ms": "ms",
    "channels.share": "frac",
    "sampling.us_per_use": "us",
    "sampling.share": "frac",
    "sampling.traj_sha_mismatch": "count",
    "rates.fwd_y_us_per_use": "us",
    "rates.fwd_xy_us_per_use": "us",
    "rates.share": "frac",
    "rates.steps": "count",
    "rates.mflops": "MFLOP/s",
    "bounds.us_per_use": "us",
    "bounds.share": "frac",
    "linalg.herm_calls_per_use": "count/use",
    "runner.csv_ms": "ms",
    "runner.csv_share": "frac",
    "svgplot.svg_ms": "ms",
    "svgplot.share": "frac",
    "runner.self_share": "frac",
    "trace.overhead_frac": "frac",
    "sweep.uses_per_s": "1/s",
    "sweep.uses_per_wall_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--n", type=int, help="sequence length (default: the workload's)")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.n is not None and args.n < 1:
        parser.error("--n must be positive")
    return args


def import_pipeline():
    """Import qchanrate from this checkout's sources, never from elsewhere."""
    if not (SRC / "qchanrate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qchanrate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qchanrate
    from qchanrate import config, rates, runner, sampling

    if Path(qchanrate.__file__).resolve().parent != SRC / "qchanrate":
        sys.exit(f"perfbench: qchanrate was imported from {qchanrate.__file__}")
    return config, rates, runner, sampling


def workload_config(config, name: str, seed: int, n: int | None):
    path, default_n = WORKLOADS[name]
    cfg = config.load_config(ROOT / path)
    return dataclasses.replace(cfg, n=n or default_n, seeds=(seed % REFERENCE_SEEDS,))


def uses_per_sweep(cfg) -> int:
    return len(cfg.sweep.active_values()) * len(cfg.seeds) * cfg.n


def read_rows(csv_bytes: bytes) -> list[tuple[tuple, dict]]:
    """CSV data rows, each with its key (sweep_param, sweep_value,
    estimator_id, seed, n); no rows if the CSV cannot be read."""
    try:
        return [
            (
                (row["sweep_param"], float(row["sweep_value"]), row["estimator_id"],
                 int(row["seed"]), int(row["n"])),
                row,
            )
            for row in csv.DictReader(io.StringIO(csv_bytes.decode("utf-8")))
        ]
    except (KeyError, TypeError, ValueError, UnicodeDecodeError):
        return []


def _matches(row: dict, want) -> bool:
    try:
        return all(abs(float(row[c]) - w) <= TOLERANCE for c, w in zip(VALUE_COLUMNS, want))
    except (KeyError, TypeError, ValueError):
        return False


def failed_rows(rows: list, expected: dict, first: dict) -> int:
    """Expected rows missing, off the reference or unlike the first sweep's,
    plus unexpected and duplicated rows; at most the number expected."""
    by_key = dict(rows)
    failed = len(rows) - len(by_key) + len(by_key.keys() - expected.keys())
    for key, want in expected.items():
        row = by_key.get(key)
        if row is None or row != first.get(key) or not _matches(row, want):
            failed += 1
    return min(failed, len(expected))


def load_reference(path: Path, workload: str, cfg) -> dict:
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"][workload]
    if entry["n"] != cfg.n:
        sys.exit(f"perfbench: reference for {workload} is at n={entry['n']}, not {cfg.n}")
    seed = cfg.seeds[0]
    if str(seed) not in entry["seeds"]:
        sys.exit(f"perfbench: reference for {workload} has no seed {seed}")
    return entry["seeds"][str(seed)]


def expected_rows(ref_seed: dict, cfg) -> dict:
    seed = cfg.seeds[0]
    expected = {
        (cfg.sweep.parameter, float(value), est, seed, cfg.n): tuple(vals)
        for value, est, *vals in ref_seed["rows"]
    }
    if len(expected) != len(ref_seed["rows"]):
        sys.exit("perfbench: the reference repeats a row")
    return expected


def calibration_seconds() -> float:
    vec = np.ones(4, dtype=complex)
    acc = 0.0
    started = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        nxt = vec @ _CALIBRATION_MATRIX
        total = nxt.sum().real
        vec = nxt / total
        acc += math.log(total)
    return time.perf_counter() - started


class MachineClock:
    """Times the work in a ``with`` block, calibrating while it runs.

    After the block: ``gross`` is its wall seconds, ``wall`` the same less
    the calibration kernel's own time, and ``scaled`` is ``wall`` rescaled
    to nominal machine speed by the mean kernel time.
    """

    def __enter__(self):
        self.samples = []
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.gross = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._handler)
        self.wall = self.gross - sum(self.samples)
        if not self.samples:  # shorter than one period
            self.samples.append(calibration_seconds())
        self.scaled = self.wall * CALIBRATION_NOMINAL_S / statistics.fmean(self.samples)
        return False

    def _sample(self, signum, frame):
        self.samples.append(calibration_seconds())


def sweep_once(runner, cfg, out_dir: Path, tracer=None) -> tuple[MachineClock, bytes]:
    """One serial sweep; returns its clock and its CSV bytes."""
    with MachineClock() as clock, tracer.span("runner.sweep") if tracer else nullcontext():
        out = runner.run_experiment(cfg, out_dir, workers=1)
    return clock, out.csv_path.read_bytes()


def warm_up(runner, cfg, out_dir: Path) -> None:
    """One short sweep, neither timed nor checked, so that first-call costs
    (lazy imports, numpy dispatch caches) stay out of the timed sweeps."""
    runner.run_experiment(dataclasses.replace(cfg, n=WARMUP_N), out_dir, workers=1)


def timed_sweeps(run_one, seconds: float) -> tuple[list[MachineClock], list[bytes]]:
    """Repeat sweeps until the next one would overrun ``seconds``, and at
    least MIN_SWEEPS times; returns each sweep's clock and CSV."""
    clocks, csvs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        clock, csv_bytes = run_one()
        clocks.append(clock)
        csvs.append(csv_bytes)
        if len(clocks) >= MIN_SWEEPS and time.perf_counter() + clock.gross > deadline:
            return clocks, csvs


def setup_seconds(config_path: Path) -> float:
    """Median set-up time over fresh processes, after one warm-up.

    Each probe rescales its own time (see setup_probe.py).
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            k: deps[k].get("openblas configuration") or f"{deps[k]['name']} {deps[k]['version']}"
            for k in ("blas", "lapack") if k in deps
        }
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "git_commit": commit,
        "unmeasured": "the --threads process-pool path (workers > 1)",
    }


def median_of(clocks: list[MachineClock], attr: str) -> float:
    return statistics.median(getattr(c, attr) for c in clocks)


def measure_untraced(runner, cfg, config_path: Path, out_dir: Path, seconds: float):
    setup_s = setup_seconds(config_path)
    warm_up(runner, cfg, out_dir)
    clocks, csvs = timed_sweeps(lambda: sweep_once(runner, cfg, out_dir), seconds)
    metrics = {
        "uses_per_s": uses_per_sweep(cfg) / median_of(clocks, "scaled"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, clocks, csvs


def measure_traced(pipeline, cfg, config_path: Path, out_dir: Path, seconds: float, tracer):
    """Untraced sweeps for half of ``seconds``, then traced ones."""
    config, rates, runner, sampling = pipeline
    with MachineClock() as loads:
        for _ in range(CONFIG_LOADS):
            config.load_config(config_path)
    warm_up(runner, cfg, out_dir)
    clocks, csvs = timed_sweeps(lambda: sweep_once(runner, cfg, out_dir), seconds / 2)

    def traced_sweep():
        result = sweep_once(runner, cfg, out_dir, tracer)
        tracer.capture_trajectories = False
        return result

    tracer.install(runner, rates, sampling)
    tracer.capture_trajectories = True
    try:
        traced, traced_csvs = timed_sweeps(traced_sweep, seconds / 2)
    finally:
        tracer.uninstall()
    # Spans keep the kernel's interruptions; this factor takes the sweep
    # span to its rescaled net time and every span inside it in proportion.
    metrics = tracer.layer_metrics(uses_per_sweep(cfg), [c.scaled / c.gross for c in traced])
    metrics["config.load_s"] = loads.scaled / CONFIG_LOADS
    metrics["trace.overhead_frac"] = median_of(traced, "scaled") / median_of(clocks, "scaled") - 1.0
    # The untraced half's throughput, rescaled and raw, side by side: a
    # change whose rescaled and raw gains disagree shows here (NOTES.md).
    metrics["sweep.uses_per_s"] = uses_per_sweep(cfg) / median_of(clocks, "scaled")
    metrics["sweep.uses_per_wall_s"] = uses_per_sweep(cfg) / median_of(clocks, "wall")
    return metrics, clocks, csvs + traced_csvs


def main(argv=None) -> int:
    args = parse_args(argv)
    pipeline = import_pipeline()
    env = environment()
    cfg = workload_config(pipeline[0], args.workload, args.seed, args.n)
    config_path = ROOT / WORKLOADS[args.workload][0]
    uses = uses_per_sweep(cfg)
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.trace:
            from tracer import Tracer, trajectory_sha256

            tracer = Tracer()
            metrics, clocks, csvs = measure_traced(
                pipeline, cfg, config_path, out_dir, args.seconds, tracer
            )
            tracer.dump(WORK / f"spans-{args.workload}.json")
            units = PER_LAYER_UNITS
        else:
            metrics, clocks, csvs = measure_untraced(
                pipeline[2], cfg, config_path, out_dir, args.seconds
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # The reference is loaded only now, so it does not count in peak_rss_mb.
    ref_seed = load_reference(args.reference, args.workload, cfg)
    expected = expected_rows(ref_seed, cfg)
    digests = [hashlib.sha256(c).hexdigest() for c in csvs]
    parsed = {d: read_rows(c) for d, c in zip(digests, csvs)}
    first = dict(parsed[digests[0]])
    failed = sum(failed_rows(parsed[d], expected, first) for d in digests)
    attempted = len(expected) * len(csvs)
    correct = failed == 0
    if args.trace:
        got = [trajectory_sha256(t) for t in tracer.trajectories]
        want = ref_seed["traj_sha256"]
        mismatch = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        metrics["sampling.traj_sha_mismatch"] = mismatch
        correct = correct and mismatch == 0
    else:
        metrics["rows_ok_frac"] = 1.0 - failed / attempted

    env["loadavg_end"] = os.getloadavg()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": cfg.seeds[0],
        "n": cfg.n,
        "uses_per_sweep": uses,
        "sweeps": len(clocks),
        "sweep_wall_s": [c.wall for c in clocks],
        "kernel_ms": [1e3 * statistics.fmean(c.samples) for c in clocks],
        "uses_per_wall_s": uses / median_of(clocks, "wall"),
        "failed_frac": failed / attempted,
        "csv_sha256": sorted(parsed),
    }
    print(json.dumps({"env": env, "summary": summary}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
