"""Sequential sampling of input/output sequences with reproducible seeding.

The generator is counter-based (Philox 4x64, as shipped by numpy) so a
64-bit seed pins the whole stream bit-for-bit; ``GENERATOR_ID`` is
recorded on every trajectory.  Stream layout per trajectory: the first
``n`` uniforms drive the input draws, then (classical models) one uniform
for the initial latent state followed by ``n`` uniforms for the joint
(next state, output) draws, or (quantum models) ``n`` uniforms for the
output draws.  Categorical draws go through an inverse-CDF walk over
Kahan-compensated cumulative weights.  A quantum step with two outputs
draws by one comparison instead, output 0 when ``u < w0 / total``: the
first Kahan carry is exactly 0, so the table of two weights is
``[w0 / total, w0 / total + w1 / total]``, in order, and the walk over
it picks the same output.  Larger output alphabets walk the table.

Classical models (a ``Dmc`` runs as a one-state ``ClassicalFsmc``) build
the guarded pmf of each (state, input) pair, its Kahan cumulative table
and its last index of positive mass once, on the first visit of that
pair in a trajectory, so every step is a table lookup and a bisection.

During quantum sampling the memory is tracked as the conditional state
given everything sent and observed so far, in the real packed form of
``linalg.real_transfer_form``.  Each input's real step matrices for every
output sit side by side, followed by one column per output that closes
them with the trace, so a step is one real vector-matrix product, then
the pmf guards and the draw on Python floats (summed in numpy's
``add.reduce`` order).  The state is carried unnormalized: a step
multiplies the drawn output's slice of the previous product, whose
weight, the state's trace, is kept as a Python float.  The guards compare
against the trace and report normalized values; the draw divides by the
total weight.  Below ``RESCALE_FLOOR`` the state and its trace are scaled
by an exact power of two.  Products alternate between two buffers
allocated once per trajectory.  The packed state is Hermitian by
construction; the imaginary-residue and Hermiticity guards are measured
once per input on its step matrices and trip at the first step that uses
a failing input.

The carried state is the joint recursion's: conditioned on the inputs
and outputs so far.  So the picked weight over the trace is
p(y_t | x^t, y^{t-1}), a ratio that the power-of-two rescale leaves
unchanged.  Each step stores it, one ``np.log`` after the loop turns
the ratios into per-step log losses, and the trajectory carries them
as ``conditional_log_loss``.  A sweep's quantum ``ir`` rows take their
joint entropy from these instead of running the joint recursion.  A
zero weight drawn on the last step, which no later guard sees, leaves a
log that is not finite.

The stream of a seed is fixed.  The classical sampler draws with the
arithmetic of ``_finalize_pmf`` and ``draw_index``.  The quantum sampler
draws the outputs of the sequential reference in ``tests/reference.py``,
which weighs every output with the complex transfer operators, then
calls ``_finalize_pmf`` and ``draw_index`` and conditions the state: its
pmfs equal the reference's up to rounding, and every guard is checked
on the step that first reaches it.  The tests pin digests of the
streams, which are unchanged since they were recorded, and compare them
with that reference.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import cycle
from math import frexp, ldexp, nan

import numpy as np

from .channels import ClassicalFsmc, InputLaw, TransferOperatorSet, as_recursion_model
from .errors import NumericalCorruptionError, TrajectoryFormatError
from .linalg import pack_hermitian, real_transfer_form

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .linalg import hermiticity_residue  # noqa: F401

GENERATOR_ID = "philox4x64.v1"
MAX_SEED = 2**64 - 1

# Residue guards distinguishing roundoff from model bugs.
PMF_IMAG_GUARD = 1e-10
PMF_NEGATIVE_GUARD = -1e-9
PMF_SUM_GUARD = 1e-9
STATE_HERMITICITY_GUARD = 1e-9

# The quantum sampler carries its state unnormalized and scales it by an
# exact power of two once its trace falls below this floor, which keeps
# the state's entries far above the subnormal range (below 2**-1022).
RESCALE_FLOOR = 2.0**-500


def make_rng(seed: int) -> np.random.Generator:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class Trajectory:
    """A sampled input/output pair with its generation provenance.

    ``conditional_log_loss`` holds, for a trajectory sampled from a
    quantum model, each step's -ln p(y_t | x^t, y^{t-1}) under that
    model; it is None for classical models and loaded trajectories, and
    takes no part in comparisons or the file format.
    """

    x: np.ndarray
    y: np.ndarray
    seed: int
    generator_id: str = GENERATOR_ID
    conditional_log_loss: np.ndarray | None = field(default=None, compare=False, repr=False)

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
    up to 128, halved in multiples of eight beyond.  (Builtin ``sum``
    compensates its rounding from Python 3.12 on, so it would not.)"""
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


def _quantum_step_matrices(
    t: TransferOperatorSet,
) -> tuple[list[np.ndarray], list[float], list[float]]:
    """Per input: the real (S*S, Y*S*S + Y) step matrix, its outputs' real
    step matrices side by side followed by their trace columns, and the
    largest imaginary-trace and Hermiticity residues over its outputs."""
    form = real_transfer_form(t.chain_operators)  # (X, Y, S*S, S*S)
    d = form.mats.shape[-1]
    weights = form.mats @ np.eye(t.state_dim).reshape(d)  # (X, Y, S*S)
    steps = [
        np.concatenate([m.transpose(1, 0, 2).reshape(d, -1), w.T], axis=1)
        for m, w in zip(form.mats, weights)
    ]
    return steps, form.imag_residue.max(axis=1).tolist(), form.herm_residue.max(axis=1).tolist()


def _input_guards(imag: float, herm: float, weights: list[float], trace: float, step: int) -> None:
    """Raise the guard that a failing input's step trips, in the order of
    a single step: imaginary weights, then the pmf, then the state."""
    if not imag <= PMF_IMAG_GUARD:
        raise NumericalCorruptionError(
            f"output weights carry imaginary residue {imag:.3e} at step {step}"
        )
    _check_pmf(min(weights) / trace, _add_reduce(weights) / trace, step)
    raise NumericalCorruptionError(
        f"conditional state Hermiticity residue {herm:.3e} beyond guard at step {step}"
    )


def _sample_outputs_quantum(
    t: TransferOperatorSet, x: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The outputs drawn on the inputs ``x`` and each step's
    -ln p(y_t | x^t, y^{t-1}): the picked weight over the carried trace."""
    s = t.state_dim
    d = s * s
    us = rng.random(len(x)).tolist()
    steps, imag, herm = _quantum_step_matrices(t)
    failing = [
        not (i <= PMF_IMAG_GUARD and h <= STATE_HERMITICITY_GUARD) for i, h in zip(imag, herm)
    ]
    closures = t.y_size * d  # the weight columns start here
    binary = t.y_size == 2
    negative_guard, sum_guard = PMF_NEGATIVE_GUARD, PMF_SUM_GUARD
    # Each step multiplies the picked output's slice of one buffer into
    # the other, so a product never reads its own output.  A leg holds one
    # buffer's bound slice products, the other buffer and its weights.
    first, second = np.empty(closures + t.y_size), np.empty(closures + t.y_size)
    legs = [
        ([src[y * d:(y + 1) * d].dot for y in range(t.y_size)], dst, dst[closures:])
        for src, dst in ((first, second), (second, first))
    ]
    first[:d] = pack_hermitian(t.initial_state).reshape(d)  # as output 0's slice
    pick = 0
    trace = 1.0  # of the state in the picked slice
    ys = []
    ratios = []  # the picked weight over the trace; the rescale leaves it unchanged
    for step, (x_step, u, (dots, out, weight_view)) in enumerate(
        zip(x.tolist(), us, cycle(legs))
    ):
        dots[pick](steps[x_step], out=out)
        weights = weight_view.tolist()
        if failing[x_step]:
            _input_guards(imag[x_step], herm[x_step], weights, trace, step)
        if binary:
            w0, w1 = weights
            lo = w1 if w1 < w0 else w0  # builtin min, NaN included
            total = w0 + w1  # _add_reduce on two terms
        else:
            lo = min(weights)
            total = _add_reduce(weights)
        if not (lo >= negative_guard * trace and abs(total - trace) <= sum_guard * trace):
            _check_pmf(lo / trace, total / trace, step)
        if binary:
            # The two-entry table walk (see the module docstring), without
            # the clip or the clamp to the last positive index: neither can
            # change the pick while u < 1, since a w0 <= 0 loses to every u
            # and a w1 <= 0 makes w0 / total >= 1 > u.
            pick = 0 if u < w0 / total else 1
        else:
            pmf = weights
            if lo < 0.0:
                pmf = [w if w > 0.0 else 0.0 for w in weights]
                total = _add_reduce(pmf)
            cum, last = _cdf_table(pmf, total)
            pick = bisect_right(cum, u)
            if pick > last:
                pick = last
        ys.append(pick)
        ratios.append(weights[pick] / trace)
        trace = weights[pick]
        if trace < RESCALE_FLOOR:
            if trace > 0.0:
                trace, exponent = frexp(trace)
                out *= ldexp(1.0, -exponent)
            else:
                # a zero or clipped weight drawn through roundoff: the next
                # step's pmf guard trips on the NaN, and on the last step the
                # log is not finite
                trace = nan
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.array(ratios))
    return np.array(ys, dtype=np.int64), np.negative(logs, out=logs)


def sample_trajectory(model, q: InputLaw, n: int, seed: int) -> Trajectory:
    """Sample (inputs, outputs) of length n; deterministic given the seed.

    Accepts a classical finite-state channel or a compiled transfer
    operator set; memoryless laws and uncompiled quantum channels are
    converted first.
    """
    model = as_recursion_model(model)
    rng = make_rng(seed)
    x = sample_input(q, n, rng)
    if isinstance(model, ClassicalFsmc):
        return Trajectory(x=x, y=_sample_outputs_classical(model, x, rng), seed=seed)
    y, logs = _sample_outputs_quantum(model, x, rng)
    return Trajectory(x=x, y=y, seed=seed, conditional_log_loss=logs)


# ---------------------------------------------------------------------------
# Text round-trip (one header line, then one "x y" pair per line)
# ---------------------------------------------------------------------------

def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={traj.n} seed={traj.seed} gen={traj.generator_id}\n")
        for xv, yv in zip(traj.x, traj.y):
            fh.write(f"{xv} {yv}\n")


def load_trajectory(path) -> Trajectory:
    # non-ASCII bytes decode to lone surrogates, reported at their line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline()
        if not header:
            raise TrajectoryFormatError(1, "empty file")
        if not header.isascii():
            raise TrajectoryFormatError(1, "non-ASCII byte")
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
        if not 0 <= seed <= MAX_SEED:
            raise TrajectoryFormatError(1, f"seed must lie in [0, 2^64 - 1], got {seed}")
        if n < 1:
            raise TrajectoryFormatError(1, f"n must be positive, got {n}")
        xs, ys = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.isascii():
                raise TrajectoryFormatError(lineno, "non-ASCII byte")
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
            if xs[-1] < 0 or ys[-1] < 0:
                raise TrajectoryFormatError(lineno, f"negative symbol in {line.strip()!r}")
            if max(xs[-1], ys[-1]) >= 2**63:  # symbols are held as int64
                raise TrajectoryFormatError(lineno, f"symbol beyond 2^63 - 1 in {line.strip()!r}")
        if len(xs) != n:
            raise TrajectoryFormatError(
                1, f"header says n={n} but body has {len(xs)} pairs"
            )
    return Trajectory(x=np.array(xs), y=np.array(ys), seed=seed, generator_id=fields["gen"])
