"""Sequential sampling of input/output sequences with reproducible seeding.

The generator is counter-based (Philox 4x64, as shipped by numpy) so a
64-bit seed pins the whole stream bit-for-bit; ``GENERATOR_ID`` is
recorded on every trajectory.  Stream layout per trajectory: the first
``n`` uniforms drive the input draws, then (classical models) one uniform
for the initial latent state followed by ``n`` uniforms for the joint
(next state, output) draws, or (quantum models) ``n`` uniforms for the
output draws.  Categorical draws go through an inverse-CDF walk over
Kahan-compensated cumulative weights.

Classical models (a ``Dmc`` runs as a one-state ``ClassicalFsmc``) build
the guarded pmf of each (state, input) pair, its Kahan cumulative table
and its last index of positive mass once, on the first visit of that
pair in a trajectory, so every step is a table lookup and a bisection.

During quantum sampling the memory is tracked as the normalized
conditional state given everything sent and observed so far; each step
emits the output distribution obtained by contracting the transfer
operator against that state, then conditions the state on the drawn
outcome.  The step keeps numpy for the contraction, the diagonal
closure, the division by the drawn weight and the Hermiticity guard and
repair; the pmf guards, the renormalization and the draw run on Python
floats, summed in numpy's ``add.reduce`` order.

The stream of a seed is fixed: both samplers do the arithmetic of the
single-step functions below (``_finalize_pmf`` and ``draw_index``;
``conditional_output_distribution`` and ``posterior_update``) in the
same order, and check every guard on the step that first reaches it.
The tests pin digests of these streams and compare them with the
single-step functions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .channels import (
    ClassicalFsmc,
    Dmc,
    InputLaw,
    QuantumMemoryChannel,
    TransferOperatorSet,
    compile_transfer_operators,
    fsmc_from_dmc,
)
from .errors import (
    ImpossibleObservationError,
    NumericalCorruptionError,
    TrajectoryFormatError,
)
from .linalg import hermiticity_residue

GENERATOR_ID = "philox4x64.v1"
MAX_SEED = 2**64 - 1

# Residue guards distinguishing roundoff from model bugs.
PMF_IMAG_GUARD = 1e-10
PMF_NEGATIVE_GUARD = -1e-9
PMF_SUM_GUARD = 1e-9
STATE_HERMITICITY_GUARD = 1e-9


def make_rng(seed: int) -> np.random.Generator:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class Trajectory:
    """A sampled input/output pair with its generation provenance."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    generator_id: str = GENERATOR_ID

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 1 or y.shape != x.shape or x.size < 1:
            raise ValueError("x and y must be equal-length nonempty 1-D sequences")
        if x.min() < 0 or y.min() < 0:
            raise ValueError("symbols must be nonnegative integers")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


def kahan_cumulative(weights: np.ndarray) -> np.ndarray:
    """Compensated running sums of a small weight vector."""
    return np.array(_cdf_table([float(w) for w in weights])[0], dtype=float)


def _add_reduce(values: list[float]) -> float:
    """Sum in the order of numpy's ``add.reduce`` over a contiguous float64
    vector: sequential below eight terms, eight interleaved partial sums
    up to 128, halved in multiples of eight beyond."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _add_reduce(values[:half]) + _add_reduce(values[half:])
    acc = values[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        for j in range(8):
            acc[j] += values[i + j]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[stop:]:
        total += v
    return total


def _cdf_table(weights: list[float], total: float = 1.0) -> tuple[list[float], int]:
    """Kahan cumulative sums of ``weights / total`` and the last index of
    positive mass.

    ``min(bisect_right(cum, u), last)`` is the draw of ``draw_index``:
    ``bisect_right`` runs the same binary search as numpy's
    ``searchsorted(side="right")`` on one key.
    """
    cum = []
    running = 0.0
    carry = 0.0
    last = 0
    for i, w in enumerate(weights):
        w /= total
        if w > 0.0:
            last = i
        term = w - carry
        new_running = running + term
        carry = (new_running - running) - term
        running = new_running
        cum.append(running)
    return cum, last


def draw_indices(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: smallest index i with u < cumsum(pmf)[i].

    Uniforms at or beyond the accumulated total (possible through
    roundoff) fall back to the last index of positive mass, so
    zero-probability outcomes are never produced.
    """
    cum = kahan_cumulative(pmf)
    idx = np.searchsorted(cum, u, side="right")
    last = int(np.flatnonzero(pmf > 0)[-1])
    return np.minimum(idx, last)


def draw_index(pmf: np.ndarray, u: float) -> int:
    return int(draw_indices(pmf, np.asarray([u]))[0])


def sample_input(q: InputLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. symbols from the input law."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return draw_indices(q.p, rng.random(n))


def _at(step: int | None) -> str:
    return "" if step is None else f" at step {step}"


def _check_pmf(lo: float, total: float, step: int | None) -> None:
    """Abort on an entry below ``PMF_NEGATIVE_GUARD`` or a total off by more
    than ``PMF_SUM_GUARD``: corruption, not roundoff.  A NaN or infinite
    weight trips one of the two."""
    if not lo >= PMF_NEGATIVE_GUARD:
        raise NumericalCorruptionError(
            f"output distribution has entry {lo:.3e} below the roundoff guard{_at(step)}"
        )
    dev = abs(total - 1.0)
    if not dev <= PMF_SUM_GUARD:
        raise NumericalCorruptionError(
            f"output distribution total off by {dev:.3e} before clipping{_at(step)}"
        )


def _finalize_pmf(raw: np.ndarray, step: int | None = None) -> np.ndarray:
    """Guard and clean a computed output distribution.

    Tiny negatives left by roundoff are clipped and the pmf renormalized.
    """
    _check_pmf(float(raw.min()), float(raw.sum()), step)
    pmf = np.clip(raw, 0.0, None)
    return pmf / pmf.sum()


def _output_weights(t: TransferOperatorSet, state: np.ndarray, x: int) -> np.ndarray:
    """Unnormalized real output weights for one use given the current state."""
    s = t.state_dim
    vec = state.reshape(s * s)
    nxt = vec @ t.chain_operators[x]  # (Y, S*S)
    raw = nxt[:, :: s + 1].sum(axis=1)  # closes next-state indices against each other
    imag = float(np.abs(raw.imag).max())
    if imag > PMF_IMAG_GUARD:
        raise NumericalCorruptionError(
            f"output weights carry imaginary residue {imag:.3e}"
        )
    return raw.real


def conditional_output_distribution(
    t: TransferOperatorSet, state: np.ndarray, x: int
) -> np.ndarray:
    """Distribution of the next output given the conditional memory state."""
    return _finalize_pmf(_output_weights(t, state, x))


def _repair_state(sig: np.ndarray, step: int | None = None) -> np.ndarray:
    res = hermiticity_residue(sig)
    if not res <= STATE_HERMITICITY_GUARD:
        raise NumericalCorruptionError(
            f"conditional state Hermiticity residue {res:.3e} beyond guard{_at(step)}"
        )
    repaired = sig + sig.conj().T
    repaired *= 0.5
    return repaired


def posterior_update(
    t: TransferOperatorSet, state: np.ndarray, x: int, y: int
) -> np.ndarray:
    """Condition the memory state on one (sent, observed) pair.

    Contracts the transfer operator for (x, y) against the current state
    over the previous-state indices and renormalizes to unit trace.
    Conditioning on an outcome of zero probability raises
    ``ImpossibleObservationError``.
    """
    s = t.state_dim
    vec = state.reshape(s * s)
    nxt = (vec @ t.chain_operators[x, y]).reshape(s, s)
    tr = nxt.trace()
    if abs(tr.imag) > PMF_IMAG_GUARD:
        raise NumericalCorruptionError(
            f"conditional state trace carries imaginary residue {abs(tr.imag):.3e}"
        )
    if tr.real <= 0.0:
        raise ImpossibleObservationError(
            f"output {y} has zero probability given input {x} and the current state"
        )
    return _repair_state(nxt / tr.real)


def _sample_outputs_classical(
    f: ClassicalFsmc, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    s_count, x_size, y_size = f.state_count, f.x_size, f.y_size
    state = draw_index(f.initial, rng.random())
    us = rng.random(len(x)).tolist()
    tables = [None] * (s_count * x_size)  # _cdf_table of pair (state, x) at state * X + x
    picks = []
    for step, (x_step, u) in enumerate(zip(x.tolist(), us)):
        key = state * x_size + x_step
        table = tables[key]
        if table is None:
            joint = f.kernel[state, x_step].reshape(s_count * y_size)
            table = tables[key] = _cdf_table(_finalize_pmf(joint, step).tolist())
        cum, last = table
        pick = bisect_right(cum, u)
        if pick > last:
            pick = last
        picks.append(pick)
        state = pick // y_size
    return np.array(picks, dtype=np.int64) % y_size


def _sample_outputs_quantum(
    t: TransferOperatorSet, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    s = t.state_dim
    us = rng.random(len(x)).tolist()
    ys = []
    vec = t.initial_state.reshape(s * s)
    chain = list(t.chain_operators)  # (Y, S*S, S*S) stack per input
    diag = slice(None, None, s + 1)
    for step, (x_step, u) in enumerate(zip(x.tolist(), us)):
        nxt = vec @ chain[x_step]  # (Y, S*S)
        raw = nxt[:, diag].sum(axis=1)
        imag = max(map(abs, raw.imag.tolist()))
        if not imag <= PMF_IMAG_GUARD:
            raise NumericalCorruptionError(
                f"output weights carry imaginary residue {imag:.3e} at step {step}"
            )
        weights = raw.real.tolist()
        lo = min(weights)
        total = _add_reduce(weights)
        _check_pmf(lo, total, step)
        pmf = weights
        if lo < 0.0:
            pmf = [w if w > 0.0 else 0.0 for w in weights]
            total = _add_reduce(pmf)
        cum, last = _cdf_table(pmf, total)
        pick = bisect_right(cum, u)
        if pick > last:
            pick = last
        ys.append(pick)
        sig = (nxt[pick] / weights[pick]).reshape(s, s)
        vec = _repair_state(sig, step).reshape(s * s)
    return np.array(ys, dtype=np.int64)


def sample_trajectory(model, q: InputLaw, n: int, seed: int) -> Trajectory:
    """Sample (inputs, outputs) of length n; deterministic given the seed.

    Accepts a classical finite-state channel or a compiled transfer
    operator set; memoryless laws and uncompiled quantum channels are
    converted first.
    """
    if isinstance(model, Dmc):
        model = fsmc_from_dmc(model)
    elif isinstance(model, QuantumMemoryChannel):
        model = compile_transfer_operators(model)
    rng = make_rng(seed)
    x = sample_input(q, n, rng)
    if isinstance(model, ClassicalFsmc):
        y = _sample_outputs_classical(model, x, rng)
    elif isinstance(model, TransferOperatorSet):
        y = _sample_outputs_quantum(model, x, rng)
    else:
        raise TypeError(f"cannot sample from {type(model).__name__}")
    return Trajectory(x=x, y=y, seed=seed)


# ---------------------------------------------------------------------------
# Text round-trip (one header line, then one "x y" pair per line)
# ---------------------------------------------------------------------------

def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={traj.n} seed={traj.seed} gen={traj.generator_id}\n")
        for xv, yv in zip(traj.x, traj.y):
            fh.write(f"{xv} {yv}\n")


def load_trajectory(path) -> Trajectory:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise TrajectoryFormatError(1, "empty file")
        fields = {}
        for token in header.split():
            key, sep, value = token.partition("=")
            if not sep or key not in ("n", "seed", "gen"):
                raise TrajectoryFormatError(1, f"unexpected header token {token!r}")
            fields[key] = value
        if set(fields) != {"n", "seed", "gen"}:
            raise TrajectoryFormatError(1, "header must carry n=, seed= and gen=")
        try:
            n = int(fields["n"])
            seed = int(fields["seed"])
        except ValueError as exc:
            raise TrajectoryFormatError(1, f"bad header integer: {exc}") from None
        if seed < 0:
            raise TrajectoryFormatError(1, f"seed must be nonnegative, got {seed}")
        xs, ys = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TrajectoryFormatError(lineno, f"expected 'x y', got {line.strip()!r}")
            try:
                xs.append(int(parts[0]))
                ys.append(int(parts[1]))
            except ValueError:
                raise TrajectoryFormatError(lineno, f"non-integer symbol in {line.strip()!r}") from None
        if len(xs) != n:
            raise TrajectoryFormatError(
                1, f"header says n={n} but body has {len(xs)} pairs"
            )
    return Trajectory(x=np.array(xs), y=np.array(ys), seed=seed, generator_id=fields["gen"])
