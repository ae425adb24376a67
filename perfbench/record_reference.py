#!/usr/bin/env python3
"""Record the benchmark's correctness reference.

Usage, from the root of a source checkout:

    python3 perfbench/record_reference.py [--n N] [--seeds K] [--out PATH]

For every workload and every seed 0..K-1 (K defaults to the 16 seeds the
benchmark maps ``--seed`` onto) this runs one sweep exactly as
``run.py`` does, and stores its CSV rows (``ir``/``hx``/``hy``/``hxy``)
and the SHA-256 of every sampled trajectory, in sweep order.  Record
only at a commit whose outputs are trusted: ``run.py`` holds every
later commit to them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer, trajectory_sha256


def record_workload(pipeline, name: str, n: int | None, seeds: int, out_dir: Path) -> dict:
    config, rates, runner, sampling = pipeline
    entry = {}
    for seed in range(seeds):
        cfg = run.workload_config(config, name, seed, n)
        tracer = Tracer()
        tracer.install(runner, rates, sampling)
        tracer.capture_trajectories = True
        try:
            _, csv_bytes = run.sweep_once(runner, cfg, out_dir)
        finally:
            tracer.uninstall()
        rows = [
            [key[1], key[2], *(float(row[c]) for c in run.VALUE_COLUMNS)]
            for key, row in run.read_rows(csv_bytes)
        ]
        entry[str(seed)] = {
            "rows": rows,
            "traj_sha256": [trajectory_sha256(t) for t in tracer.trajectories],
        }
    return {"n": cfg.n, "seeds": entry}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, help="sequence length (default: each workload's)")
    parser.add_argument("--seeds", type=int, default=run.REFERENCE_SEEDS)
    parser.add_argument("--out", type=Path, default=run.REFERENCE)
    args = parser.parse_args(argv)
    pipeline = run.import_pipeline()
    env = run.environment()
    run.WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        workloads = {
            name: record_workload(pipeline, name, args.n, args.seeds, out_dir)
            for name in run.WORKLOADS
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # One line per seed keeps the file reviewable as a diff.
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(f'"git_commit": {json.dumps(env["git_commit"])},\n')
        fh.write(f'"python": {json.dumps(env["python"])},\n')
        fh.write(f'"numpy": {json.dumps(env["numpy"])},\n')
        fh.write('"workloads": {\n')
        for i, (name, entry) in enumerate(workloads.items()):
            fh.write(f'{json.dumps(name)}: {{"n": {entry["n"]}, "seeds": {{\n')
            seeds = list(entry["seeds"].items())
            for j, (seed, data) in enumerate(seeds):
                sep = "," if j + 1 < len(seeds) else ""
                fh.write(f"{json.dumps(seed)}: {json.dumps(data)}{sep}\n")
            fh.write("}}" + ("," if i + 1 < len(workloads) else "") + "\n")
        fh.write("}\n}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
