"""Experiment execution: sweep points x seeds to CSV (and an SVG plot).

Each (sweep value, seed) task samples one trajectory from the true
channel and evaluates every configured estimator on it, so estimators at
the same point share common random numbers.  Rows are gathered and
sorted deterministically before writing; per-row estimation failures are
recorded in a companion errors file and the run continues.

``wallclock_seconds`` is written as 0 unless timing capture is switched
on: measured times would break the byte-for-byte reproducibility of the
output, which is the stronger contract.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .bounds import lower_bound
from .config import ExperimentConfig, build_auxiliary, instantiate_channel
from .errors import QchanrateError
from .rates import entropy_rate_estimates
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


def _estimator_ids(cfg: ExperimentConfig) -> list[str]:
    ids = []
    for est in cfg.estimators:
        if est == "ir":
            ids.append("ir")
        else:
            ids.extend(f"aux_lower:{aux.label}" for aux in cfg.auxiliaries)
    return ids


def evaluate_point(
    cfg: ExperimentConfig, value, seed: int, timings: bool = False
) -> tuple[list[ResultRow], list[RowError]]:
    """Run every configured estimator at one (sweep value, seed) point.

    With ``timings`` each row's ``wallclock_seconds`` is the time of its
    own estimator alone (for an auxiliary bound, building the auxiliary
    model and the bound); the channel, the trajectory and the other
    estimators at the point are not counted.
    """
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    n = int(value) if cfg.sweep.parameter == "n" else cfg.n
    override = None if cfg.sweep.parameter == "n" else {cfg.sweep.parameter: value}
    try:
        model = instantiate_channel(cfg.channel, override)
        traj = sample_trajectory(model, cfg.input_law, n, seed)
    except QchanrateError as exc:
        for est in _estimator_ids(cfg):
            errors.append(RowError(float(value), est, seed, type(exc).__name__, str(exc)))
        return rows, errors

    def since(started: float) -> float:
        return perf_counter() - started if timings else 0.0

    for est in cfg.estimators:
        if est == "ir":
            try:
                started = perf_counter()
                r = entropy_rate_estimates(model, cfg.input_law, traj, burn_in=cfg.burn_in)
                rows.append(
                    ResultRow(
                        float(value), "ir", seed, n, r.ir, r.hx, r.hy, r.hxy, since(started)
                    )
                )
            except QchanrateError as exc:
                errors.append(RowError(float(value), "ir", seed, type(exc).__name__, str(exc)))
        elif est == "aux_lower":
            for aux_spec in cfg.auxiliaries:
                est_id = f"aux_lower:{aux_spec.label}"
                try:
                    started = perf_counter()
                    aux = build_auxiliary(aux_spec)
                    b = lower_bound(traj, aux, cfg.input_law)
                    rows.append(
                        ResultRow(
                            float(value), est_id, seed, n,
                            b.ir_lower, b.hx, b.aux_hy, b.aux_hxy, since(started),
                        )
                    )
                except QchanrateError as exc:
                    errors.append(
                        RowError(float(value), est_id, seed, type(exc).__name__, str(exc))
                    )
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

    ``workers > 1`` dispatches (value, seed) tasks to a process pool;
    results are identical to the serial run because every task is
    self-contained and rows are sorted before writing.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(value, seed) for value in cfg.sweep.active_values() for seed in cfg.seeds]
    rows: list[ResultRow] = []
    errors: list[RowError] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(evaluate_point, cfg, v, s, timings) for v, s in tasks]
            for future in futures:
                got_rows, got_errors = future.result()
                rows.extend(got_rows)
                errors.extend(got_errors)
    else:
        for value, seed in tasks:
            got_rows, got_errors = evaluate_point(cfg, value, seed, timings)
            rows.extend(got_rows)
            errors.extend(got_errors)

    rows.sort(key=lambda r: (r.sweep_value, r.estimator_id, r.seed))
    errors.sort(key=lambda e: (e.sweep_value, e.estimator_id, e.seed))

    csv_path = out_dir / cfg.csv_name
    write_rows_csv(csv_path, cfg.sweep.parameter, rows)
    errors_path = None
    if errors:
        errors_path = csv_path.with_suffix(".errors.csv")
        _write_errors_csv(errors_path, cfg.sweep.parameter, errors)
    svg_path = None
    if write_svg and rows:
        svg_path = out_dir / cfg.svg_name
        write_line_plot(
            svg_path,
            _svg_series(rows),
            title="information rate estimates",
            x_label=cfg.sweep.parameter,
            y_label="bits per channel use",
        )
    return ExperimentOutput(csv_path, svg_path, errors_path, tuple(rows), tuple(errors))
