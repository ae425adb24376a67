"""Experiment execution: sweep points x seeds to CSV (and an SVG plot).

Each (sweep value, seed) task samples one trajectory from its channel,
and every configured estimator runs on that trajectory, so estimators at
the same point share common random numbers; the auxiliary models are the
ones ``load_config`` built.  The tasks run in chunks of at most
``STACK_BUDGET`` (2**16) recursion steps, which a chunk of the
benchmark's sweeps holds at 18-67 bytes per step at its traced peak.  A
chunk builds the channel of each of its sweep values on its own, then
compiles all its quantum channels together (a sweep over n runs the
config's ``model``).  It samples its points one by one, reducing each
one's per-step log losses to their sums at once, then evaluates all its
rows in one ``rates.estimate_rows`` call, which builds each model's
step matrices once and runs the rows' recursions as engine stacks, so
that the engine's per-iteration cost is shared across points.
An ``ir`` row on a quantum channel runs only its output-only recursion
and takes its joint sum from its sampler, so a chunk's budget counts
one recursion for such a row and two for any other, the type of the
config's base channel telling which.  A recursion's result does not depend on the stack it
runs in, so the output does not depend on the chunking or on the number
of workers.  The row evaluator (``evaluate_samples``) takes the sampled
trajectories, so ``bound --trajectory`` runs its auxiliaries on an
imported one through the same call.
Rows are gathered and sorted deterministically before writing; per-row
estimation failures are recorded in a companion errors file and the run
continues.

The CSV is a pure function of the config and the seeds: its
``wallclock_seconds`` column is always ``0.0``, since a measured time
would break byte-for-byte reproducibility.

Output paths that cannot be written are reported before the first
chunk.  A pool has at most one worker per chunk.  A chunk that fails
with an exception that is not a ``QchanrateError``, in this process or
in a worker, ends the run with a ``QchanrateError`` naming the chunk and
its sweep values.
"""

from __future__ import annotations

import errno
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import AuxiliaryModel, auxiliary_error

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .bounds import lower_bound  # noqa: F401
from .channels import TransferOperatorSet
from .config import ExperimentConfig, instantiate_channels

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .config import instantiate_channel  # noqa: F401
from .errors import ConfigError, QchanrateError
from .rates import RateRow, estimate_rows, log_loss_sums

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
# trajectories, step indices and normalizers in memory at once.  At its
# traced peak a chunk of the benchmark's sweeps holds 18 (burst noise with
# auxiliaries, n = 2000) to 67 (two-qubit, n = 5000) bytes per step of
# this budget.
STACK_BUDGET = 2**16

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
    ir_recursions = 1 if isinstance(cfg.model, TransferOperatorSet) else 2
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


def evaluate_chunk(cfg: ExperimentConfig, tasks) -> tuple[list[ResultRow], list[RowError]]:
    """Run every configured estimator at each (sweep value, seed) task.

    The chunk's channels come from one ``instantiate_channels`` call (a
    sweep over n runs the config's ``model``).  Each task samples its own
    trajectory as ``evaluate_samples`` takes it, and that call evaluates
    the rows of all of them together.  A task whose channel or trajectory
    fails records that error for each of its rows.
    """
    if cfg.sweep.parameter == "n":
        models = dict.fromkeys((value for value, _ in tasks), cfg.model)
    else:
        values = list(dict.fromkeys(value for value, _ in tasks))
        overrides = [{cfg.sweep.parameter: value} for value in values]
        models = dict(zip(values, instantiate_channels(cfg.channel, overrides)))
    errors: list[RowError] = []
    estimators = _estimators(cfg)

    def samples():
        for value, seed in tasks:
            model = models[value]
            try:
                if isinstance(model, QchanrateError):
                    raise model
                traj = sample_trajectory(model, cfg.input_law, _task_n(cfg, value), seed)
            except QchanrateError as exc:
                errors.extend(_row_error(value, est_id, seed, exc) for est_id, _ in estimators)
                continue
            yield value, model, traj

    rows, row_errors = evaluate_samples(cfg, samples())
    return rows, errors + row_errors


def _row_error(value, est_id: str, seed: int, exc: QchanrateError) -> RowError:
    return RowError(float(value), est_id, seed, type(exc).__name__, str(exc))


def evaluate_samples(cfg: ExperimentConfig, samples) -> tuple[list[ResultRow], list[RowError]]:
    """Run every configured estimator on each (sweep value, model,
    trajectory) sample; a row takes its seed and n from the trajectory.

    ``model`` is the channel that sampled the trajectory, the ``ir``
    rows' target; it may be None when the estimators are auxiliaries
    only; an auxiliary row's target is its auxiliary's model.  The
    samples are taken one at a time, and each one's per-step log losses
    are reduced to the sums its rows use (``rates.log_loss_sums``) before
    the next, so that no row holds them.  Every row runs in one
    ``rates.estimate_rows`` call; a quantum ``ir`` row takes its joint
    sum from its sampler's logs.
    """
    errors: list[RowError] = []
    q = cfg.input_law
    estimators = _estimators(cfg)
    keys, batch = [], []
    for value, model, traj in samples:
        try:
            hx_sum, joint_sum = log_loss_sums(q, traj)
        except QchanrateError as exc:
            errors.extend(_row_error(value, est_id, traj.seed, exc) for est_id, _ in estimators)
            continue
        traj = replace(traj, conditional_log_loss=None)  # its sum is all a row needs
        for est_id, aux in estimators:
            keys.append((float(value), est_id, traj.seed, aux))
            if aux is None:
                # the sampler's logs belong to the sampled model, the ir row's target
                batch.append(RateRow(model, q, traj, hx_sum, joint_sum))
            else:
                batch.append(RateRow(aux.model, q, traj, hx_sum))

    rows: list[ResultRow] = []
    for (value, est_id, seed, aux), r in zip(keys, estimate_rows(batch)):
        if isinstance(r, QchanrateError):
            exc = r if aux is None else auxiliary_error(aux.label, r)
            errors.append(_row_error(value, est_id, seed, exc))
        else:
            rows.append(ResultRow(value, est_id, seed, r.n, r.ir, r.hx, r.hy, r.hxy))
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
                _fmt(r.ir_bits), _fmt(r.hx_bits), _fmt(r.hy_bits), _fmt(r.hxy_bits), "0.0",
            )
            fh.write(",".join(fields) + "\n")


def _unwritable(path, reason: str, option: str | None = None) -> ConfigError:
    if option is None:
        return ConfigError(str(path), f"cannot write file: {reason}")
    return ConfigError(option, f"cannot write {path}: {reason}")


def _write_output(path, write, *args, **kwargs) -> None:
    """``write(path, *args, **kwargs)``; a file that cannot be written (a
    directory of that name, say) is a ``ConfigError`` naming it."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise _unwritable(path, exc.strerror) from None


def check_writable(*paths, option: str | None = None) -> None:
    """Raise the ``ConfigError`` that ``_write_output`` would raise on the
    first of ``paths`` that cannot be written, without creating any file,
    so that a run fails before it computes anything.  Given the command
    line ``option`` that named the path, the error names the option."""
    for path in map(Path, paths):
        try:
            if path.is_dir():
                code = errno.EISDIR
            elif path.exists():
                code = None if os.access(path, os.W_OK) else errno.EACCES
            elif not path.parent.is_dir():
                code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
            else:
                code = None if os.access(path.parent, os.W_OK | os.X_OK) else errno.EACCES
        except OSError as exc:  # a name too long to probe, say
            raise _unwritable(path, exc.strerror, option) from None
        if code is not None:
            raise _unwritable(path, os.strerror(code), option)


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


def write_results(csv_path, errors_path, sweep_param: str, rows: list, errors: list) -> None:
    """Sort ``rows`` and ``errors`` in place by (sweep value, estimator,
    seed), write the rows' CSV, and the errors' CSV if there are any."""
    rows.sort(key=lambda r: (r.sweep_value, r.estimator_id, r.seed))
    errors.sort(key=lambda e: (e.sweep_value, e.estimator_id, e.seed))
    _write_output(csv_path, write_rows_csv, sweep_param, rows)
    if errors:
        _write_output(errors_path, _write_errors_csv, sweep_param, errors)


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


def _chunk_results(cfg: ExperimentConfig, chunks: list[list], workers: int) -> list:
    """``evaluate_chunk`` of every chunk, in order, in a pool of up to
    ``workers`` processes, at most one per chunk, or else in this one.

    A worker that dies, or an exception that is not a
    ``QchanrateError``, raises a ``QchanrateError`` naming the chunk and
    its sweep values, on either path.
    """
    workers = min(workers, len(chunks))
    # A serial run imports no process pool, so it never loads multiprocessing.
    died: tuple = ()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        died = (BrokenProcessPool,)
    results = []
    with ProcessPoolExecutor(max_workers=workers) if died else nullcontext() as pool:
        if pool is not None:
            futures = [pool.submit(evaluate_chunk, cfg, chunk) for chunk in chunks]
        for k, chunk in enumerate(chunks, start=1):
            where = (
                f"chunk {k} of {len(chunks)} "
                f"({cfg.sweep.parameter} {chunk[0][0]!r} to {chunk[-1][0]!r})"
            )
            try:
                if pool is None:
                    results.append(evaluate_chunk(cfg, chunk))
                else:
                    results.append(futures[k - 1].result())
            except died as exc:
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
    for got_rows, got_errors in _chunk_results(cfg, _chunks(cfg, tasks), workers):
        rows.extend(got_rows)
        errors.extend(got_errors)
    write_results(csv_path, errors_path, cfg.sweep.parameter, rows, errors)
    write_svg = write_svg and bool(rows)
    if write_svg:
        _write_output(
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
