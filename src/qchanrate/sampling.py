"""Sequential sampling of input/output sequences with reproducible seeding.

The generator is counter-based (Philox 4x64, as shipped by numpy) so a
64-bit seed pins the whole stream bit-for-bit; ``GENERATOR_ID`` is
recorded on every trajectory.  Stream layout per trajectory: the first
``n`` uniforms drive the input draws, then (classical models) one uniform
for the initial latent state followed by ``n`` uniforms for the joint
(next state, output) draws, or (quantum models) ``n`` uniforms for the
output draws.  Categorical draws go through an inverse-CDF walk over
Kahan-compensated cumulative weights.  A pair word (two steps of a
quantum model with two outputs, below) draws each step by one
comparison instead, output 0 when ``u < w0 / total``: the first Kahan
carry is exactly 0, so the table of two weights is
``[w0 / total, w0 / total + w1 / total]``, in order, and the walk over
it picks the same output.  The odd last step and one-step words walk
the table.

Classical models (a memoryless law is a one-state ``ClassicalFsmc``)
build the guarded pmf of each (state, input) pair, its Kahan cumulative
table and its last index of positive mass once, on the first visit of
that pair in a trajectory, so every step is a table lookup and a
bisection.

During quantum sampling the memory is tracked as the conditional state
given everything sent and observed so far, in the real packed form of
``linalg.real_transfer_form``.  Each input's real step matrices for every
output sit side by side, followed by one column per output that closes
them with the trace.  A model with two outputs walks the trajectory in
words of two steps, one real vector-matrix product each.  Once per
trajectory it builds, for every input pair (x, x'), a table of S*S rows:
the four states after each output pair (y, y') side by side (the
products of the two steps' matrices), then the first step's weights
w0, w1, then the second step's a0, a1 after y = 0 and b0, b1 after
y = 1.  One product and one ``tolist`` of these six weights give both
steps; the first draw picks y from w0, w1, and the second draw reads
branch y's pair.  A final odd step is a one-step word, one product of
the input's step matrix.  A model with any other number of outputs, or
whose pair tables would hold more than ``PAIR_BUDGET`` entries, walks
one-step words only.  The pmf guards and the draws run on Python floats
(summed in numpy's ``add.reduce`` order).

The state is carried unnormalized: a word multiplies the picked state's
slice of the previous product, whose weight, the state's trace, is kept
as a Python float.  The guards compare against the trace and report
normalized values; the draw divides by the total weight.  After each
word whose trace fell below ``RESCALE_FLOOR``, the product and its trace
are scaled by an exact power of two.  A pair word starts from a trace of
at least 2**-500 and multiplies two steps' probabilities into it without
a rescale between them, so its states reach the subnormal range (below
2**-1022) only if the two probabilities multiply below 2**-522.
Products alternate between two buffers allocated once per trajectory.
The packed state is Hermitian by construction; the imaginary-residue and
Hermiticity guards are measured once per input on its step matrices and
trip at the first step that uses a failing input, in either position of
a pair.  A zero or clipped weight drawn through roundoff by a one-step
word leaves a NaN trace, so the next word's first pmf guard trips; a
pair word's comparison never picks a weight <= 0.

The carried state is the joint recursion's: conditioned on the inputs
and outputs so far.  So the picked weight over the trace is
p(y_t | x^t, y^{t-1}), a ratio that the power-of-two rescale leaves
unchanged.  Each step stores it (the second step of a pair divides by
the first step's picked weight), one ``np.log`` after the loop turns
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
# exact power of two after a word whose trace fell below this floor, which
# keeps the state's entries far above the subnormal range (below 2**-1022).
RESCALE_FLOOR = 2.0**-500

# Most entries that a two-output quantum model's two-step tables (one per
# input pair) may hold; a larger model walks its trajectory one step a
# product.
PAIR_BUDGET = 2**16


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


def _add_reduce(values: list[float]) -> float:
    """Sum in the order of numpy's ``add.reduce`` over a float64 vector:
    sequential below eight terms, numpy's own pairwise sum from eight on.
    (Builtin ``sum`` compensates its rounding from Python 3.12 on, so it
    would not.)"""
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = -0.0
    for v in values:
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
    cum, last = _cdf_table(pmf.tolist())
    return np.minimum(np.searchsorted(cum, u, side="right"), last)


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


def _pair_tables(steps: list[np.ndarray], y_size: int) -> list[np.ndarray] | None:
    """Per input pair (x, x'), at ``x * X + x'``: the real
    (S*S, 4*S*S + 6) table of two steps of a two-output model, built from
    the step matrices of ``_quantum_step_matrices``.  Its columns are the
    four states after each output pair (y, y'), at ``2 * y + y'``, side by
    side, then the first step's weights w0, w1, then the second step's
    a0, a1 after y = 0 and b0, b1 after y = 1.  None for any other output
    alphabet, whose words of two steps were measured no faster than
    one-step words, and when the tables would hold more than
    ``PAIR_BUDGET`` entries."""
    x_size = len(steps)
    d = steps[0].shape[0]
    span = y_size * d  # state columns of one step
    cols = y_size * span + y_size + y_size * y_size
    if y_size != 2 or x_size * x_size * d * cols > PAIR_BUDGET:
        return None
    stacked = np.stack(steps)  # (X, S*S, Y*S*S + Y)
    mats = stacked[:, :, :span].reshape(x_size, d, y_size, d).transpose(0, 2, 1, 3)
    # each first-step output's matrix times the whole second step matrix
    prod = (mats[:, None] @ stacked[None, :, None]).transpose(0, 1, 3, 2, 4)  # (X, X, S*S, Y, cols)
    tables = np.concatenate(
        [
            prod[..., :span].reshape(x_size, x_size, d, y_size * span),
            np.broadcast_to(stacked[:, None, :, span:], (x_size, x_size, d, y_size)),
            prod[..., span:].reshape(x_size, x_size, d, y_size * y_size),
        ],
        axis=-1,
    )
    return list(tables.reshape(x_size * x_size, d, cols))


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


def _draw(weights: list[float], trace: float, u: float, step: int) -> int:
    """The pmf guards and the draw of one quantum step, from its output
    weights and the carried trace."""
    lo = min(weights)
    total = _add_reduce(weights)
    if not (lo >= PMF_NEGATIVE_GUARD * trace and abs(total - trace) <= PMF_SUM_GUARD * trace):
        _check_pmf(lo / trace, total / trace, step)
    if lo < 0.0:
        weights = [w if w > 0.0 else 0.0 for w in weights]
        total = _add_reduce(weights)
    cum, last = _cdf_table(weights, total)
    pick = bisect_right(cum, u)
    return last if pick > last else pick


def _rescaled(trace: float, out: np.ndarray) -> float:
    """The carried trace after scaling the product ``out`` by an exact
    power of two, or NaN for a zero or clipped weight drawn through
    roundoff: the next step's pmf guard trips on it, and on the last step
    the log is not finite."""
    if trace > 0.0:
        trace, exponent = frexp(trace)
        out *= ldexp(1.0, -exponent)
        return trace
    return nan


def _sample_outputs_quantum(
    t: TransferOperatorSet, x: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The outputs drawn on the inputs ``x`` and each step's
    -ln p(y_t | x^t, y^{t-1}): the picked weight over the carried trace."""
    d = t.state_dim ** 2
    y_size, x_size = t.y_size, t.x_size
    xs = x.tolist()
    n = len(xs)
    us = rng.random(n).tolist()
    steps, imag, herm = _quantum_step_matrices(t)
    pairs = _pair_tables(steps, y_size)
    failing = [
        not (i <= PMF_IMAG_GUARD and h <= STATE_HERMITICITY_GUARD) for i, h in zip(imag, herm)
    ]
    paired = 0 if pairs is None else n - n % 2  # the steps walked as pair words
    slices = y_size if pairs is None else y_size * y_size  # states in a product
    step_cols = y_size * d + y_size
    pair_cols = 0 if pairs is None else pairs[0].shape[1]
    # Each word multiplies the carried state's slice of one buffer into the
    # other, so a product never reads its own output.  A leg holds one
    # buffer's bound slice products, then the other buffer's product and
    # weight views for a pair word and for a one-step word.
    size = max(step_cols, pair_cols)
    first, second = np.empty(size), np.empty(size)
    legs = cycle([
        (
            [src[k * d:(k + 1) * d].dot for k in range(slices)],
            dst[:pair_cols], dst[slices * d:pair_cols],
            dst[:step_cols], dst[y_size * d:step_cols],
        )
        for src, dst in ((first, second), (second, first))
    ])
    first[:d] = pack_hermitian(t.initial_state).reshape(d)  # as slice 0
    pick = 0  # the carried state's slice
    trace = 1.0  # of the carried state
    picks = []  # of a word: the output pair at y * Y + y', or the output
    ratios = []  # the picked weight over the trace; the rescale leaves it unchanged
    negative_guard, sum_guard = PMF_NEGATIVE_GUARD, PMF_SUM_GUARD
    # zip stops at the exhausted range before it takes a leg, so the
    # one-step words go on from the buffer that the pair words wrote last
    for step, x0, x1, u0, u1, (dots, out, weight_view, _, _) in zip(
        range(0, paired, 2), xs[0:paired:2], xs[1:paired:2], us[0:paired:2], us[1:paired:2], legs
    ):
        dots[pick](pairs[x0 * x_size + x1], out=out)
        w0, w1, a0, a1, b0, b1 = weight_view.tolist()
        if failing[x0]:
            _input_guards(imag[x0], herm[x0], [w0, w1], trace, step)
        lo = w1 if w1 < w0 else w0  # builtin min, NaN included
        total = w0 + w1  # _add_reduce on two terms
        if not (lo >= negative_guard * trace and abs(total - trace) <= sum_guard * trace):
            _check_pmf(lo / trace, total / trace, step)
        # _draw's table walk without the clip or the clamp to the last
        # positive index: neither changes the pick while u < 1, since a
        # w0 <= 0 loses to every u and a w1 <= 0 makes w0 / total >= 1 > u.
        # So the picked weight w is positive.
        if u0 < w0 / total:
            pick, w = 0, w0
        else:
            pick, w, a0, a1 = 2, w1, b0, b1
        ratios.append(w / trace)
        if failing[x1]:
            _input_guards(imag[x1], herm[x1], [a0, a1], w, step + 1)
        lo = a1 if a1 < a0 else a0
        total = a0 + a1
        if not (lo >= negative_guard * w and abs(total - w) <= sum_guard * w):
            _check_pmf(lo / w, total / w, step + 1)
        if u1 < a0 / total:
            trace = a0
        else:
            pick += 1
            trace = a1
        ratios.append(trace / w)
        picks.append(pick)
        if trace < RESCALE_FLOOR:
            trace = _rescaled(trace, out)
    for step, x0, u0, (dots, _, _, out, weight_view) in zip(
        range(paired, n), xs[paired:], us[paired:], legs
    ):
        dots[pick](steps[x0], out=out)
        weights = weight_view.tolist()
        if failing[x0]:
            _input_guards(imag[x0], herm[x0], weights, trace, step)
        pick = _draw(weights, trace, u0, step)
        picks.append(pick)
        ratios.append(weights[pick] / trace)
        trace = weights[pick]
        if trace < RESCALE_FLOOR:
            trace = _rescaled(trace, out)
    picks = np.array(picks, dtype=np.int64)
    words = paired // 2
    ys = np.concatenate([np.column_stack(np.divmod(picks[:words], y_size)).reshape(-1), picks[words:]])
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.array(ratios))
    return ys, np.negative(logs, out=logs)


def sample_trajectory(model, q: InputLaw, n: int, seed: int) -> Trajectory:
    """Sample (inputs, outputs) of length n; deterministic given the seed.

    Accepts a classical finite-state channel or a compiled transfer
    operator set; uncompiled quantum channels are compiled first.
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
        fh.write("".join(f"{xv} {yv}\n" for xv, yv in zip(traj.x.tolist(), traj.y.tolist())))


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
