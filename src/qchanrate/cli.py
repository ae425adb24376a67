"""Command-line entry points.

Verbs:
  validate  parse a config and print the validation reports of its models
  estimate  run the configured sweep and write CSV (and SVG) results, by
            default in one worker process per CPU this process may use
            (--threads); --n is rejected on a sweep over n
  bound     like estimate but restricted to auxiliary lower bounds;
            accepts an external trajectory instead of channel sampling,
            evaluated by the sweep's stacked row evaluator (sweep
            parameter 'external', value 0, the trajectory's seed and n;
            --n, --seeds and --threads are rejected with it)
  sample    draw one trajectory from the configured channel to a file
  oracle    small-length exact check of the recursions against brute force

Results are a pure function of the config and the --seeds and --n
given: the same run writes the same CSV and SVG bytes under any
--threads, and the CSV's wallclock_seconds column is always 0.0.

Exit codes: 0 success, 2 configuration/validation failure or a
malformed trajectory file, 3 runtime failure, running out of memory
included.  Failures print one line
``error[<category>]: <message>``.  Every verb checks its output paths
before it samples or computes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import channels, rates
from .config import errors_file, load_config, parse_length, parse_seeds
from .errors import ConfigError, QchanrateError, TrajectoryFormatError
from .oracle import MAX_ORACLE_N, brute_force_oracle
from .runner import check_writable, evaluate_samples, run_experiment, write_results
from .sampling import MAX_SEED, load_trajectory, sample_trajectory, save_trajectory

ORACLE_CHECK_TOL = 1e-9


def _add_run_flags(sub):
    sub.add_argument("--seeds", help="comma-separated seed list overriding the config")
    sub.add_argument("--n", type=int, help="sequence length overriding the config")
    sub.add_argument("--out-dir", default=".", help="output directory (default: cwd)")
    sub.add_argument("--no-svg", action="store_true", help="skip the SVG plot")
    sub.add_argument(
        "--threads", type=int,
        help="worker processes (default: the CPUs this process may use)",
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _apply_overrides(cfg, args):
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
    updates = {}
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError("--seeds", f"expected comma-separated integers, got {args.seeds!r}")
        updates["seeds"] = parse_seeds(seeds, "--seeds")
    if args.n is not None:
        if cfg.sweep.parameter == "n":
            raise ConfigError("--n", "does not apply to a sweep over n, whose values "
                              "set each point's length")
        updates["n"] = parse_length(args.n, "--n")
    return dataclasses.replace(cfg, **updates) if updates else cfg


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(channels.validate(cfg.model).summary())
    for aux in cfg.auxiliaries:
        note = " (kernel floored)" if aux.smoothed else ""
        print(f"auxiliary {aux.label!r}{note}:")
        print(channels.validate(aux.model).summary())
    print(f"{args.config}: configuration is valid")
    return 0


def _out_dir(args) -> Path:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out-dir", f"cannot create {out_dir}: {exc.strerror}") from None
    return out_dir


def _run(cfg, args) -> int:
    out = run_experiment(
        cfg,
        _out_dir(args),
        workers=_usable_cpus() if args.threads is None else args.threads,
        write_svg=not args.no_svg,
    )
    print(f"wrote {out.csv_path} ({len(out.rows)} rows)")
    if out.svg_path:
        print(f"wrote {out.svg_path}")
    if out.errors:
        print(f"warning: {len(out.errors)} estimator runs failed, see {out.errors_path}")
    if not out.rows:
        raise QchanrateError("every estimator run failed")
    return 0


def cmd_estimate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    return _run(cfg, args)


def cmd_bound(args) -> int:
    if args.trajectory is not None:
        for flag, given in (("--n", args.n is not None), ("--seeds", args.seeds is not None),
                            ("--threads", args.threads not in (None, 1))):
            if given:
                raise ConfigError(flag, "does not apply with --trajectory, whose file "
                                  "gives n and the seed and runs in this process")
    cfg = _apply_overrides(load_config(args.config), args)
    if not cfg.auxiliaries:
        raise ConfigError("auxiliaries", "bound requires at least one auxiliary model")
    cfg = dataclasses.replace(cfg, estimators=("aux_lower",))
    if args.trajectory is not None:
        try:
            traj = load_trajectory(args.trajectory)
        except OSError as exc:
            raise ConfigError(
                "--trajectory", f"cannot read {args.trajectory}: {exc.strerror}"
            ) from None
        csv_path = _out_dir(args) / cfg.csv_name
        errors_path = errors_file(csv_path)
        check_writable(csv_path, errors_path)
        # estimators are auxiliaries only, so no channel model is needed
        rows, errors = evaluate_samples(cfg, [(0.0, traj.seed, None, traj)])
        write_results(csv_path, errors_path, "external", rows, errors)
        print(f"wrote {csv_path} ({len(rows)} rows)")
        for e in errors:
            print(f"warning: {e.estimator_id} failed [{e.category}]: {e.message}")
        if not rows:
            raise QchanrateError("every auxiliary evaluation failed")
        return 0
    return _run(cfg, args)


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    n = cfg.n if args.n is None else parse_length(args.n, "--n")
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError("--seed", f"seed must lie in [0, 2^64 - 1], got {seed}")
    check_writable(args.output, option="--output")
    traj = sample_trajectory(cfg.model, cfg.input_law, n, seed)
    try:
        save_trajectory(traj, args.output)
    except OSError as exc:
        raise ConfigError("--output", f"cannot write {args.output}: {exc.strerror}") from None
    print(f"wrote {args.output} (n={traj.n}, seed={traj.seed})")
    return 0


def cmd_oracle(args) -> int:
    n = args.oracle_n
    if not 1 <= n <= MAX_ORACLE_N:
        raise ConfigError("--oracle-n", f"must lie in [1, {MAX_ORACLE_N}], got {n}")
    cfg = load_config(args.config)
    model, q = cfg.model, cfg.input_law
    tables = brute_force_oracle(model, q, n)
    total_dev = abs(float(tables.joint.sum()) - 1.0)
    min_entry = float(tables.joint.min())
    print(f"joint table at n={n}: sum deviation {total_dev:.3e}, min entry {min_entry:.3e}")

    # One engine stack per output sequence, for it and its (input, output)
    # pairs of positive probability: a single stack for --oracle-n 10 would
    # hold a million recursions of about 2 KB each.  The model's step
    # matrices are built once, for every sequence.
    build = rates.RecursionBuilder()
    worst = {"y": 0.0, "xy": 0.0}
    x_seqs = [np.array(seq) for seq in np.ndindex(*(tables.x_size,) * n)]
    for ys in map(np.array, np.ndindex(*(tables.y_size,) * n)):
        checks = [(None, tables.output_prob(ys))]
        checks += [(xs, tables.joint_prob(xs, ys)) for xs in x_seqs]
        checks = [(xs, p) for xs, p in checks if p > 0]
        if not checks:
            continue
        recs = [build(model, q, ys, xs) for xs, _ in checks]
        for (xs, p), logs in zip(checks, rates.stacked_forward_logs(recs)):
            if isinstance(logs, QchanrateError):
                raise logs
            kind = "y" if xs is None else "xy"
            worst[kind] = max(worst[kind], abs(-logs.sum() - np.log(p)))
    print(f"recursion vs oracle: max |dlog p(y)| = {worst['y']:.3e}, "
          f"max |dlog p(x,y)| = {worst['xy']:.3e}")
    if total_dev > 1e-10 or min_entry < -1e-12 or max(worst.values()) > ORACLE_CHECK_TOL:
        raise QchanrateError("oracle cross-check failed (see figures above)")
    print("oracle cross-check passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchanrate",
        description="Information-rate estimation for channels with a quantum memory state",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("estimate", help="run the configured estimation sweep")
    p.add_argument("config")
    _add_run_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bound", help="run auxiliary-model lower bounds")
    p.add_argument("config")
    p.add_argument("--trajectory", help="evaluate bounds on an imported trajectory file")
    _add_run_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sample", help="sample a trajectory to a text file")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle", help="exact small-length recursion cross-check")
    p.add_argument("config")
    p.add_argument("--oracle-n", type=int, default=3)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TrajectoryFormatError) as exc:  # bad input, found before any work
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except QchanrateError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's subclass names the allocation
        detail = f": {exc}" if str(exc) else ""
        print(f"error[MemoryError]: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
