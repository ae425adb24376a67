"""Experiment execution: sweep points x seeds to CSV (and an SVG plot).

Each (sweep value, seed) task builds its channel and samples one
trajectory from it, and every configured estimator runs on that
trajectory, so estimators at the same point share common random
numbers; the auxiliary models are the ones ``load_config`` built.  The
tasks run in chunks of at most ``STACK_BUDGET`` recursion steps: a chunk
samples its points one by one, then runs the output-only and joint
recursions of all its rows as engine stacks, one per group of equal
closure, state size and length, so that the engine's per-iteration cost
is shared across points.  An ``ir`` row on a quantum channel runs
only its output-only recursion: its trajectory's sampler carried the
joint recursion's state, so the row's joint sum is the input's log
losses plus the sampler's (``rates.sampled_joint_logs``).  A chunk's
budget counts the recursions each row really runs: one for such a row,
two for any other, the channel's kind telling which.  A
recursion's result does not depend on the stack it runs in, so the
output does not depend on the chunking or on the number of workers.
The row evaluator (``evaluate_samples``) takes the sampled trajectories,
so ``bound --trajectory`` runs its auxiliaries on an imported one through
the same stacks.
Rows are gathered and sorted deterministically before writing; per-row
estimation failures are recorded in a companion errors file and the run
continues.

``wallclock_seconds`` is written as 0 unless timing capture is switched
on: measured times would break the byte-for-byte reproducibility of the
output, which is the stronger contract.  With it, a row's time is its
own set-up (building its step matrices) plus an equal share, per
recursion, of each engine call that ran it; a quantum ``ir`` row is
charged for no joint recursion.

Output paths that cannot be written are reported before the first
chunk.  A pool has at most one worker per chunk.  A chunk that fails
with an exception that is not a ``QchanrateError``, in this process or
in a worker, ends the run with a ``QchanrateError`` naming the chunk and
its sweep values.
"""

from __future__ import annotations

import errno
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import rates
from .bounds import AuxiliaryModel, auxiliary_error

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .bounds import lower_bound  # noqa: F401
from .config import QUANTUM_KINDS, ExperimentConfig, instantiate_channel
from .errors import ConfigError, QchanrateError
from .rates import (
    Recursion,
    combine_sums,
    input_log_loss,
    pair_recursions,
    sampled_joint_logs,
    stack_key,
)

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .rates import entropy_rate_estimates  # noqa: F401
from .sampling import sample_trajectory
from .svgplot import Series, write_line_plot

CSV_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "estimator_id",
    "seed",
    "n",
    "ir_bits",
    "hx_bits",
    "hy_bits",
    "hxy_bits",
    "wallclock_seconds",
)

# Most recursion steps (recursions times their length) that one chunk of
# sweep tasks evaluates together.  A chunk's recursions of equal closure,
# state size and length run as one engine stack, so a larger chunk spreads
# the engine's per-iteration cost over more recursions but holds more
# trajectories, step indices and normalizers in memory at once.
STACK_BUDGET = 2**15

ERROR_COLUMNS = ("sweep_param", "sweep_value", "estimator_id", "seed", "category", "message")


@dataclass(frozen=True)
class ResultRow:
    sweep_value: float
    estimator_id: str
    seed: int
    n: int
    ir_bits: float
    hx_bits: float
    hy_bits: float
    hxy_bits: float
    wallclock_seconds: float = 0.0


@dataclass(frozen=True)
class RowError:
    sweep_value: float
    estimator_id: str
    seed: int
    category: str
    message: str


@dataclass(frozen=True)
class ExperimentOutput:
    csv_path: Path
    svg_path: Path | None
    errors_path: Path | None
    rows: tuple[ResultRow, ...]
    errors: tuple[RowError, ...]


def _estimators(cfg: ExperimentConfig) -> list[tuple[str, AuxiliaryModel | None]]:
    """Each row's estimator id at a point, with its auxiliary (None for ir)."""
    out: list[tuple[str, AuxiliaryModel | None]] = []
    for est in cfg.estimators:
        if est == "ir":
            out.append(("ir", None))
        else:
            out.extend((f"aux_lower:{aux.label}", aux) for aux in cfg.auxiliaries)
    return out


def _task_n(cfg: ExperimentConfig, value) -> int:
    return int(value) if cfg.sweep.parameter == "n" else cfg.n


def _chunks(cfg: ExperimentConfig, tasks: list) -> list[list]:
    """Consecutive runs of tasks whose recursions hold at most
    STACK_BUDGET steps together, and one task at least.  A row runs two
    recursions, except an ``ir`` row on a quantum channel, which runs
    only its output-only one."""
    ir_recursions = 1 if cfg.channel.kind in QUANTUM_KINDS else 2
    per_task = sum(ir_recursions if aux is None else 2 for _, aux in _estimators(cfg))
    chunks: list[list] = []
    steps = 0
    for value, seed in tasks:
        cost = per_task * _task_n(cfg, value)
        if not chunks or steps + cost > STACK_BUDGET:
            chunks.append([])
            steps = 0
        chunks[-1].append((value, seed))
        steps += cost
    return chunks


@dataclass
class _PendingRow:
    """A result row whose recursions are still to run.

    ``outcomes`` holds the row's output-only and joint recursions (or,
    last, the error that stopped building them); running them replaces
    each recursion by the sum of its logs from ``burn_in`` on, or by its
    error.  A quantum ``ir`` row holds the sampler's joint sum (or its
    error) in place of the joint recursion.
    """

    value: float
    estimator_id: str
    seed: int
    n: int
    burn_in: int
    sum_x: float
    outcomes: list
    auxiliary: str | None  # label of the auxiliary model, None for ir
    seconds: float


def _run_stack(members: list[tuple[_PendingRow, int]], since) -> None:
    """Run the recursions ``row.outcomes[slot]`` as one engine stack; each
    row is charged an equal share of the call per recursion."""
    started = perf_counter()
    outcomes = rates.stacked_forward_logs([row.outcomes[slot] for row, slot in members])
    share = since(started) / len(members)
    for (row, slot), logs in zip(members, outcomes):
        row.seconds += share
        if not isinstance(logs, QchanrateError):
            logs = float(logs[row.burn_in:].sum())
        row.outcomes[slot] = logs


def evaluate_chunk(
    cfg: ExperimentConfig, tasks, timings: bool = False
) -> tuple[list[ResultRow], list[RowError]]:
    """Run every configured estimator at each (sweep value, seed) task.

    Each task builds its channel and samples its own trajectory, and
    ``evaluate_samples`` evaluates the rows of all of them together.  A
    task whose channel or trajectory fails records that error for each of
    its rows.
    """
    samples = []
    errors: list[RowError] = []
    for value, seed in tasks:
        override = None if cfg.sweep.parameter == "n" else {cfg.sweep.parameter: value}
        try:
            model = instantiate_channel(cfg.channel, override)
            traj = sample_trajectory(model, cfg.input_law, _task_n(cfg, value), seed)
        except QchanrateError as exc:
            errors.extend(_row_error(value, est_id, seed, exc) for est_id, _ in _estimators(cfg))
            continue
        samples.append((value, model, traj))
    rows, row_errors = evaluate_samples(cfg, samples, timings)
    return rows, errors + row_errors


def _row_error(value, est_id: str, seed: int, exc: QchanrateError) -> RowError:
    return RowError(float(value), est_id, seed, type(exc).__name__, str(exc))


def evaluate_samples(
    cfg: ExperimentConfig, samples, timings: bool = False
) -> tuple[list[ResultRow], list[RowError]]:
    """Run every configured estimator on each (sweep value, model,
    trajectory) sample; a row takes its seed and n from the trajectory.

    ``model`` is the channel that sampled the trajectory, the ``ir``
    rows' target; it may be None when the estimators are auxiliaries
    only; an auxiliary row's target is its auxiliary's model.  The
    output-only and joint recursions of every row run in one engine call
    per group of equal closure, state size and length, and each
    recursion's logs are reduced to their sum at once.  A quantum ``ir``
    row's joint sum comes from its sampler's logs instead, and the row
    runs no joint recursion.

    With ``timings`` each row's ``wallclock_seconds`` is its own set-up
    (building its step matrices) plus, for each of its recursions, an
    equal share of the engine call that ran it; the channel and the
    trajectory are not counted.
    """
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    q = cfg.input_law
    estimators = _estimators(cfg)

    def since(started: float) -> float:
        return perf_counter() - started if timings else 0.0

    pending: list[_PendingRow] = []
    for value, model, traj in samples:
        try:
            log_px = input_log_loss(q, traj.x)
        except QchanrateError as exc:
            errors.extend(_row_error(value, est_id, traj.seed, exc) for est_id, _ in estimators)
            continue
        for est_id, aux in estimators:
            burn_in = cfg.burn_in if aux is None else 0
            # the sampler's logs belong to the sampled model, the ir row's target
            sampled = aux is None and traj.conditional_log_loss is not None
            started = perf_counter()
            recs = pair_recursions(model if aux is None else aux.model, q, traj, joint=not sampled)
            seconds = since(started)
            if sampled:
                try:
                    recs.append(float(sampled_joint_logs(log_px, traj)[burn_in:].sum()))
                except QchanrateError as exc:
                    recs.append(exc)
            pending.append(_PendingRow(
                float(value), est_id, traj.seed, traj.n, burn_in, float(log_px[burn_in:].sum()),
                recs, None if aux is None else aux.label, seconds,
            ))

    stacks: dict[tuple, list[tuple[_PendingRow, int]]] = {}
    for row in pending:
        for slot, rec in enumerate(row.outcomes):
            if isinstance(rec, Recursion):
                stacks.setdefault(stack_key(rec), []).append((row, slot))
    for members in stacks.values():
        _run_stack(members, since)

    for row in pending:
        exc = next((o for o in row.outcomes if isinstance(o, QchanrateError)), None)
        if exc is not None:
            if row.auxiliary is not None:
                exc = auxiliary_error(row.auxiliary, exc)
            errors.append(_row_error(row.value, row.estimator_id, row.seed, exc))
            continue
        r = combine_sums(row.n, row.burn_in, row.sum_x, *row.outcomes)
        rows.append(ResultRow(
            row.value, row.estimator_id, row.seed, row.n, r.ir, r.hx, r.hy, r.hxy, row.seconds
        ))
    return rows, errors


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))  # shortest exact round-trip, deterministic


def write_rows_csv(path, sweep_param: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fields = (
                sweep_param, _fmt(r.sweep_value), r.estimator_id, _fmt(r.seed), _fmt(r.n),
                _fmt(r.ir_bits), _fmt(r.hx_bits), _fmt(r.hy_bits), _fmt(r.hxy_bits),
                _fmt(r.wallclock_seconds),
            )
            fh.write(",".join(fields) + "\n")


def _unwritable(path, reason: str) -> ConfigError:
    return ConfigError(str(path), f"cannot write file: {reason}")


def write_output(path, write, *args, **kwargs) -> None:
    """``write(path, *args, **kwargs)``; a file that cannot be written (a
    directory of that name, say) is a ``ConfigError`` naming it."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise _unwritable(path, exc.strerror) from None


def check_writable(*paths) -> None:
    """Raise the ``ConfigError`` that ``write_output`` would raise on the
    first of ``paths`` that cannot be written, without creating any file,
    so that a run fails before it computes anything."""
    for path in map(Path, paths):
        if path.is_dir():
            code = errno.EISDIR
        elif path.exists():
            code = None if os.access(path, os.W_OK) else errno.EACCES
        elif not path.parent.is_dir():
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        else:
            code = None if os.access(path.parent, os.W_OK | os.X_OK) else errno.EACCES
        if code is not None:
            raise _unwritable(path, os.strerror(code))


def write_errors_csv(path, sweep_param: str, errors) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(ERROR_COLUMNS) + "\n")
        for e in errors:
            message = e.message.replace("\n", " ").replace(",", ";")
            fh.write(
                ",".join(
                    (sweep_param, _fmt(e.sweep_value), e.estimator_id, _fmt(e.seed),
                     e.category, message)
                )
                + "\n"
            )


def _svg_series(rows) -> list[Series]:
    by_est: dict[str, dict[float, list[float]]] = {}
    for r in rows:
        by_est.setdefault(r.estimator_id, {}).setdefault(r.sweep_value, []).append(r.ir_bits)
    series = []
    for est in sorted(by_est):
        values = sorted(by_est[est])
        mean = [float(np.mean(by_est[est][v])) for v in values]
        lo = [float(np.min(by_est[est][v])) for v in values]
        hi = [float(np.max(by_est[est][v])) for v in values]
        series.append(Series(est, values, mean, lo, hi))
    return series


def _chunk_results(cfg: ExperimentConfig, chunks: list[list], workers: int, timings: bool) -> list:
    """``evaluate_chunk`` of every chunk, in order, in a pool of up to
    ``workers`` processes, at most one per chunk, or else in this one.

    A worker that dies, or an exception that is not a
    ``QchanrateError``, raises a ``QchanrateError`` naming the chunk and
    its sweep values, on either path.
    """
    workers = min(workers, len(chunks))
    results = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        if pool is not None:
            futures = [pool.submit(evaluate_chunk, cfg, chunk, timings) for chunk in chunks]
        for k, chunk in enumerate(chunks, start=1):
            where = (
                f"chunk {k} of {len(chunks)} "
                f"({cfg.sweep.parameter} {chunk[0][0]!r} to {chunk[-1][0]!r})"
            )
            try:
                if pool is None:
                    results.append(evaluate_chunk(cfg, chunk, timings))
                else:
                    results.append(futures[k - 1].result())
            except BrokenProcessPool as exc:
                raise QchanrateError(
                    f"a worker process died before returning {where}; no results were written"
                ) from exc
            except QchanrateError:
                raise
            except Exception as exc:
                raise QchanrateError(
                    f"{where} failed with {type(exc).__name__}: {exc}; no results were written"
                ) from exc
    return results


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    workers: int = 1,
    write_svg: bool = True,
    timings: bool = False,
) -> ExperimentOutput:
    """Execute the configured sweep and write CSV/SVG outputs.

    ``workers > 1`` dispatches the chunks of (value, seed) tasks to a
    process pool of at most one worker per chunk; results are identical
    to the serial run because every chunk is self-contained and rows are
    sorted before writing.  A worker
    that dies, or a chunk that fails with an exception that is not a
    ``QchanrateError``, raises ``QchanrateError`` naming the first chunk
    left without a result.  Output paths that cannot be written are
    reported before the first chunk runs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / cfg.csv_name
    errors_path = csv_path.with_suffix(".errors.csv")
    svg_path = out_dir / cfg.svg_name
    check_writable(csv_path, errors_path, *([svg_path] if write_svg else []))
    tasks = [(value, seed) for value in cfg.sweep.active_values() for seed in cfg.seeds]
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    for got_rows, got_errors in _chunk_results(cfg, _chunks(cfg, tasks), workers, timings):
        rows.extend(got_rows)
        errors.extend(got_errors)

    rows.sort(key=lambda r: (r.sweep_value, r.estimator_id, r.seed))
    errors.sort(key=lambda e: (e.sweep_value, e.estimator_id, e.seed))

    write_output(csv_path, write_rows_csv, cfg.sweep.parameter, rows)
    if errors:
        write_output(errors_path, write_errors_csv, cfg.sweep.parameter, errors)
    write_svg = write_svg and bool(rows)
    if write_svg:
        write_output(
            svg_path,
            write_line_plot,
            _svg_series(rows),
            title="information rate estimates",
            x_label=cfg.sweep.parameter,
            y_label="bits per channel use",
        )
    return ExperimentOutput(
        csv_path,
        svg_path if write_svg else None,
        errors_path if errors else None,
        tuple(rows),
        tuple(errors),
    )
