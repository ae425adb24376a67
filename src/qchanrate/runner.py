"""Experiment execution: sweep points x seeds to CSV (and an SVG plot).

Each (sweep value, seed) task builds its channel and samples one
trajectory from it, and every configured estimator runs on that
trajectory, so estimators at the same point share common random
numbers.  The tasks run in chunks of at most ``STACK_BUDGET`` recursion
steps: a chunk samples its points one by one, then runs the output-only
and joint recursions of all its rows as engine stacks, one per group of
equal closure, state size and length, so that the engine's per-iteration
cost is shared across points.  A recursion's result does not depend on
the stack it runs in, so the output does not depend on the chunking or
on the number of workers.  Rows are gathered and sorted
deterministically before writing; per-row estimation failures are
recorded in a companion errors file and the run continues.

``wallclock_seconds`` is written as 0 unless timing capture is switched
on: measured times would break the byte-for-byte reproducibility of the
output, which is the stronger contract.  With it, a row's time is its
own set-up plus an equal share, per recursion, of each engine call that
ran it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import rates
from .bounds import auxiliary_error, lower_bound
from .config import AuxiliarySpec, ExperimentConfig, build_auxiliary, instantiate_channel
from .errors import ConfigError, QchanrateError
from .rates import Recursion, combine_sums, input_log_loss, pair_recursions, stack_key

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .rates import entropy_rate_estimates  # noqa: F401
from .sampling import Trajectory, sample_trajectory
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


def _estimators(cfg: ExperimentConfig) -> list[tuple[str, AuxiliarySpec | None]]:
    """Each row's estimator id at a point, with its auxiliary (None for ir)."""
    out: list[tuple[str, AuxiliarySpec | None]] = []
    for est in cfg.estimators:
        if est == "ir":
            out.append(("ir", None))
        else:
            out.extend((f"aux_lower:{aux.label}", aux) for aux in cfg.auxiliaries)
    return out


def _task_n(cfg: ExperimentConfig, value) -> int:
    return int(value) if cfg.sweep.parameter == "n" else cfg.n


def _chunks(cfg: ExperimentConfig, tasks: list) -> list[list]:
    """Consecutive runs of tasks whose recursions (two per row) hold at
    most STACK_BUDGET steps together, and one task at least."""
    per_task = 2 * len(_estimators(cfg))
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
    error.
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

    Each task builds its channel and samples its own trajectory; then
    the output-only and joint recursions of every row of the chunk run
    in one engine call per group of equal closure, state size and
    length, and each recursion's logs are reduced to their sum at once.

    With ``timings`` each row's ``wallclock_seconds`` is its own set-up
    (building the auxiliary model and the step matrices) plus, for each
    of its recursions, an equal share of the engine call that ran it;
    the channel and the trajectory are not counted.
    """
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    q = cfg.input_law
    estimators = _estimators(cfg)

    def since(started: float) -> float:
        return perf_counter() - started if timings else 0.0

    def fail(value, est_id, seed, exc) -> None:
        errors.append(RowError(float(value), est_id, seed, type(exc).__name__, str(exc)))

    pending: list[_PendingRow] = []
    for value, seed in tasks:
        n = _task_n(cfg, value)
        override = None if cfg.sweep.parameter == "n" else {cfg.sweep.parameter: value}
        try:
            model = instantiate_channel(cfg.channel, override)
            traj = sample_trajectory(model, q, n, seed)
        except QchanrateError as exc:
            for est_id, _ in estimators:
                fail(value, est_id, seed, exc)
            continue
        for est_id, aux_spec in estimators:
            started = perf_counter()
            burn_in = cfg.burn_in if aux_spec is None else 0
            try:
                target = model if aux_spec is None else build_auxiliary(aux_spec).model
                sum_x = float(input_log_loss(q, traj.x)[burn_in:].sum())
            except QchanrateError as exc:
                fail(value, est_id, seed, exc)
                continue
            recs = pair_recursions(target, q, traj)
            pending.append(_PendingRow(
                float(value), est_id, seed, n, burn_in, sum_x, recs,
                None if aux_spec is None else aux_spec.label, since(started),
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
            fail(row.value, row.estimator_id, row.seed, exc)
            continue
        r = combine_sums(row.n, row.burn_in, row.sum_x, *row.outcomes)
        rows.append(ResultRow(
            row.value, row.estimator_id, row.seed, row.n, r.ir, r.hx, r.hy, r.hxy, row.seconds
        ))
    return rows, errors


def bound_rows_for_trajectory(
    cfg: ExperimentConfig, traj: Trajectory
) -> tuple[list[ResultRow], list[RowError]]:
    """Auxiliary bounds on an externally supplied trajectory.

    No channel is simulated; rows carry the trajectory's own seed and a
    sentinel sweep value of 0 under the parameter name 'external'.
    """
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    for aux_spec in cfg.auxiliaries:
        est_id = f"aux_lower:{aux_spec.label}"
        try:
            aux = build_auxiliary(aux_spec)
            b = lower_bound(traj, aux, cfg.input_law)
            rows.append(
                ResultRow(0.0, est_id, traj.seed, traj.n,
                          b.ir_lower, b.hx, b.aux_hy, b.aux_hxy, 0.0)
            )
        except QchanrateError as exc:
            errors.append(RowError(0.0, est_id, traj.seed, type(exc).__name__, str(exc)))
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


def write_output(path, write, *args, **kwargs) -> None:
    """``write(path, *args, **kwargs)``; a file that cannot be written (a
    directory of that name, say) is a ``ConfigError`` naming it."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot write file: {exc.strerror}") from None


def _write_errors_csv(path, sweep_param: str, errors) -> None:
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


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    workers: int = 1,
    write_svg: bool = True,
    timings: bool = False,
) -> ExperimentOutput:
    """Execute the configured sweep and write CSV/SVG outputs.

    ``workers > 1`` dispatches the chunks of (value, seed) tasks to a
    process pool; results are identical to the serial run because every
    chunk is self-contained and rows are sorted before writing.  A worker
    that dies raises ``QchanrateError`` naming the first chunk left
    without a result.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(value, seed) for value in cfg.sweep.active_values() for seed in cfg.seeds]
    chunks = _chunks(cfg, tasks)
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(evaluate_chunk, cfg, chunk, timings) for chunk in chunks]
            results = []
            for k, (chunk, future) in enumerate(zip(chunks, futures), start=1):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    raise QchanrateError(
                        f"a worker process died before returning chunk {k} of {len(chunks)} "
                        f"({cfg.sweep.parameter} {chunk[0][0]!r} to {chunk[-1][0]!r}); "
                        "no results were written"
                    ) from exc
    else:
        results = (evaluate_chunk(cfg, chunk, timings) for chunk in chunks)
    for got_rows, got_errors in results:
        rows.extend(got_rows)
        errors.extend(got_errors)

    rows.sort(key=lambda r: (r.sweep_value, r.estimator_id, r.seed))
    errors.sort(key=lambda e: (e.sweep_value, e.estimator_id, e.seed))

    csv_path = out_dir / cfg.csv_name
    write_output(csv_path, write_rows_csv, cfg.sweep.parameter, rows)
    errors_path = None
    if errors:
        errors_path = csv_path.with_suffix(".errors.csv")
        write_output(errors_path, _write_errors_csv, cfg.sweep.parameter, errors)
    svg_path = None
    if write_svg and rows:
        svg_path = out_dir / cfg.svg_name
        write_output(
            svg_path,
            write_line_plot,
            _svg_series(rows),
            title="information rate estimates",
            x_label=cfg.sweep.parameter,
            y_label="bits per channel use",
        )
    return ExperimentOutput(csv_path, svg_path, errors_path, tuple(rows), tuple(errors))
