"""In-memory span tracer for the qchanrate sweep benchmark.

The tracer swaps module attributes that the sweep pipeline looks up at
call time for timing wrappers, so every span is recorded from outside
the package, around a call into one module's public function.  Spans
stay in memory until ``dump`` writes them out after the run.

Layers and the attributes that stand for them:

    channels   runner.instantiate_channel            (build + compile)
    sampling   runner.sample_trajectory
    rates      runner.entropy_rate_estimates
                 rates.scaled_forward_{quantum,classical}  (fwd_y / fwd_xy)
    bounds     runner.lower_bound
    runner     runner.write_rows_csv, and the sweep's self time
    svgplot    runner.write_line_plot
    linalg     {sampling,rates}.hermiticity_residue  (counted, not timed)

``bounds`` imports the forward recursions by name, so its own calls to
them are not rates spans: auxiliary work stays in the bounds layer.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# Layer spans that are direct children of a sweep; the rest of the sweep
# span is the runner's self time (dispatch, row building, sorting).
LAYER_SPANS = (
    "channels.compile",
    "sampling.sample",
    "rates.estimate",
    "bounds.lower_bound",
    "runner.csv",
    "svgplot.svg",
)
SWEEP_SPAN = "runner.sweep"
HERM_COUNTER = "linalg.hermiticity_residue"


class Span(NamedTuple):
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float
    uses: int = 0  # channel uses the call processed
    flops: int = 0  # computed floating-point work of the call


def trajectory_sha256(traj) -> str:
    """SHA-256 of a trajectory's inputs then outputs as little-endian int64."""
    digest = hashlib.sha256()
    digest.update(traj.x.astype("<i8").tobytes())
    digest.update(traj.y.astype("<i8").tobytes())
    return digest.hexdigest()


def _step_flops(model) -> int:
    """Computed work of one forward step: a vector-matrix product.

    Quantum: S^2-vector times S^2 x S^2 complex matrix, S^4 complex
    multiply-adds at 8 flops each.  Classical: S-vector times S x S real
    matrix, S^2 real multiply-adds at 2 flops each.
    """
    if hasattr(model, "state_dim"):
        return 8 * model.state_dim ** 4
    return 2 * model.state_count ** 2


class Tracer:
    """Records spans and counts for sweeps run while it is installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.capture_trajectories = False
        self.trajectories: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, parent, start, end)

    def _timed(self, module, attr: str, name, work=None):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name) as index:
                result = fn(*args, **kwargs)
            if work is not None:
                uses, flops = work(args, kwargs, result)
                self.spans[index] = self.spans[index]._replace(uses=uses, flops=flops)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _counted(self, module, attr: str, name: str):
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _sampled(self, args, kwargs, traj):
        if self.capture_trajectories:
            self.trajectories.append(traj)
        return traj.n, 0

    @staticmethod
    def _forward_name(args, kwargs) -> str:
        xs = args[3] if len(args) > 3 else kwargs.get("xs")
        return "rates.fwd_y" if xs is None else "rates.fwd_xy"

    @staticmethod
    def _forward_work(args, kwargs, logs):
        return logs.size, logs.size * _step_flops(args[0])

    def install(self, runner, rates, sampling) -> None:
        """Wrap the pipeline's lookups; ``uninstall`` restores them."""
        self._timed(runner, "instantiate_channel", "channels.compile")
        self._timed(runner, "sample_trajectory", "sampling.sample", self._sampled)
        self._timed(runner, "entropy_rate_estimates", "rates.estimate")
        for attr in ("scaled_forward_quantum", "scaled_forward_classical"):
            self._timed(rates, attr, self._forward_name, self._forward_work)
        self._timed(
            runner, "lower_bound", "bounds.lower_bound", lambda a, k, r: (r.n, 0)
        )
        self._timed(runner, "write_rows_csv", "runner.csv")
        self._timed(runner, "write_line_plot", "svgplot.svg")
        self._counted(sampling, "hermiticity_residue", HERM_COUNTER)
        self._counted(rates, "hermiticity_residue", HERM_COUNTER)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [s._asdict() for s in self.spans], "counts": dict(self.counts)},
                fh,
            )

    def layer_metrics(self, uses_per_sweep: int, scales: list[float]) -> dict[str, float]:
        """Per-layer figures over every traced sweep, as ratios of totals.

        ``scales[k]`` rescales the durations of the k-th sweep and of every
        span inside it to nominal machine speed.
        """
        spans = self.spans
        sweeps = {i for i, s in enumerate(spans) if s.name == SWEEP_SPAN}
        busy = defaultdict(float)
        calls = Counter()
        uses = Counter()
        flops = Counter()
        children = 0.0
        factors = iter(scales)
        for i, s in enumerate(spans):
            if i in sweeps:
                factor = next(factors)
            seconds = (s.end - s.start) * factor
            busy[s.name] += seconds
            calls[s.name] += 1
            uses[s.name] += s.uses
            flops[s.name] += s.flops
            if s.parent in sweeps and s.name in LAYER_SPANS:
                children += seconds
        wall = busy[SWEEP_SPAN]

        def per(name: str, base: Counter, scale: float) -> float:
            return busy[name] / base[name] * scale if base[name] else 0.0

        fwd = ("rates.fwd_y", "rates.fwd_xy")
        fwd_time = sum(busy[n] for n in fwd)
        return {
            "channels.compile_ms": per("channels.compile", calls, 1e3),
            "channels.share": busy["channels.compile"] / wall,
            "sampling.us_per_use": per("sampling.sample", uses, 1e6),
            "sampling.share": busy["sampling.sample"] / wall,
            "rates.fwd_y_us_per_use": per("rates.fwd_y", uses, 1e6),
            "rates.fwd_xy_us_per_use": per("rates.fwd_xy", uses, 1e6),
            "rates.share": busy["rates.estimate"] / wall,
            "rates.steps": sum(uses[n] for n in fwd) // len(sweeps),
            "rates.mflops": sum(flops[n] for n in fwd) / fwd_time / 1e6 if fwd_time else 0.0,
            "bounds.us_per_use": per("bounds.lower_bound", uses, 1e6),
            "bounds.share": busy["bounds.lower_bound"] / wall,
            "linalg.herm_calls_per_use": self.counts[HERM_COUNTER]
            / (uses_per_sweep * len(sweeps)),
            "runner.csv_ms": per("runner.csv", calls, 1e3),
            "runner.csv_share": busy["runner.csv"] / wall,
            "svgplot.svg_ms": per("svgplot.svg", calls, 1e3),
            "svgplot.share": busy["svgplot.svg"] / wall,
            "runner.self_share": (wall - children) / wall,
        }
