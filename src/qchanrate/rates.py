"""Information-rate estimation from sampled trajectories.

The estimators follow the classic scaled-forward scheme: advance an
unnormalized conditional description of the channel memory one
observation at a time, renormalize after every step, and accumulate the
logs of the normalizers.  The sum of those logs is exactly minus the log
probability of the conditioned observations, so

    (1/n) * sum(log lambda)  ==  -(1/n) * log p(observations).

Two recursion flavours share this structure, and one engine runs both:
each step is ``v <- v @ M`` followed by division by a linear closure of
``v``, in real arithmetic.

* classical state metric: a probability vector over latent states,
  normalized to unit sum;
* quantum state operator: a density-like matrix over the doubled memory
  index in the real packed form of ``linalg.real_transfer_form`` (the
  diagonal, real parts above it, imaginary parts below it), normalized
  to unit trace, the sum of its diagonal.  Hermiticity holds by
  construction, so no step repairs it.

The engine evaluates a stack of R recursions of one state size, one
length and one word length (``stack_key``) together (a single recursion
is a stack of one): their step matrices share one table, each
recursion's indices shifted to its own entries, and each matrix is first
scaled by an exact power of two to a largest entry in [0.5, 1), whose
log is added back to the steps that use it.

Each recursion runs in words of m steps.  m comes from the recursion
alone, never from its stack (``_word_length``): it grows with n, so that
the words' table costs little next to the steps it saves, and it stays
within the recursion's rescale cap L (``_rescale_cap``), the most steps
over which a row of a product of its matrices keeps its sum within
2**-PATH_RANGE of where it started.  The stack's table holds one entry
per word that occurs: the word's D x D product, then its m prefix
products times the closure.  It is built one step at a time over the
distinct prefixes that occur, so that words share their prefixes'
products, and its memory grows with the words present, not with the
alphabet.  A vector-matrix product with an entry thus gives the state
after the word and the word's m prefix totals, whose consecutive ratios
are its steps' normalizers.

The words form blocks of about sqrt(n / m) words, so that each of the
three phases is a Python loop of about sqrt(n / m) iterations over numpy
calls batched across the blocks of every recursion:

1. all block transfer products are formed together, one word per
   iteration, each word's product gathered from a C-contiguous copy of
   the table's products, made once per pass (``ndarray.take`` copies a
   strided array whole before it gathers, so a gather from the entries
   would copy the whole table for every word); every row of a product
   is divided by the power of two of its sum of magnitudes, an exact
   rescale, after each run of words of at most L steps, L the smallest
   cap in the stack, and after the last word, its powers kept apart.
   The stack runs on its key's m and on this one interval, set where the
   stack is formed.  The powers are folded back, relative to the
   largest, where every nonzero row is within 2**-PATH_RANGE of it;
2. a sequential pass over the blocks carries each recursion's normalized
   state from each block's start to the next.  Where the state's total
   through the folded product comes out below ``FOLD_FLOOR``, or the
   product was not folded, the state is scaled by its block's row powers
   instead, so that the product's largest term is near 1;
3. all blocks rerun their own words together from those start states,
   yielding the exact per-step normalizers: each iteration is a gather
   of the word entries, one batched vector-matrix product and a division
   of the state by its word's last total, with no masking of bad totals.

So a state component down to about 2**-900 of the largest one stays in
the normal range of floats, where an exact power-of-two rescale moves no
bit; how often a product is rescaled then does not change its rounding,
and a recursion's logs do not depend on its stack.

The three phases run over slices of ``PRODUCT_BUDGET // (R * D * (D + m))``
blocks, at least one, as a block of R recursions of state size D in
words of m steps holds R * D * (D + m) matrix entries.

A pass only computes: it yields each recursion's per-step normalizers
and checks no guard.  A block may lose accuracy: its phase-3 end state
may disagree with the state phase 2 carries past it, a row of its
product may fall below ``PEAK_FLOOR`` between rescales (a step zeroed
the columns that held the row), or a word's prefix totals may fall below
it.  The pass then settles the recursion up to that block's start (up to
its end when it ran one step per word and only its product is in
doubt), and its remaining steps are evaluated again from there, one step
per word and with every product rescaled on every step, in a stack with
the other unsettled recursions of the same remaining length, unless one
of its settled steps has already tripped a guard.  The passes write
their normalizers into one array per stack.

One last step, ``_settle``, turns the normalizers of every recursion,
whatever route gave them, into logs, adding back each matrix's power of
two, and reports every guard per recursion, on the step it concerns.  A
normalizer that is not finite, or one that is not positive (a
zero-probability observation), trips on its step, and the
imaginary-trace and Hermiticity residues of a quantum step matrix,
measured once per matrix when it is converted to the real form, trip on
every step that uses that matrix.  A trip reports the earliest step,
with the same error type as a step-by-step evaluation, and leaves the
other recursions of the stack unchanged.  The division by a bad total
fills the rest of its block with NaN or infinite values, whose steps all
come after it, so the earliest bad step is still the first one reported.

A stack of one-state recursions (a memoryless model, closure of size 1)
runs no pass: its normalized state is 1 after every step, so each step's
normalizer is its prescaled matrix's single entry (times the start on
the first step), in closed form, equal to the pass's bit for bit, and
the same step settles them.

Running the output-only recursion gives the output entropy rate; running
it with the inputs pinned (input-law factors included) gives the joint
entropy rate; the input entropy rate of an i.i.d. process is evaluated
in closed form.

So is the output entropy rate of a uniform output process.  If the
input-marginalized step matrices map the closure to ``closure / Y`` for
every output y, then p(y_t | y^{t-1}) = 1/Y for every past, and the
output-only logs sum to n ln Y.  ``_uniform_output`` checks this once
per model and input law, where the output-only step matrices are built:
every matrix is finite, every imaginary-trace and Hermiticity residue
within its guard, max |mats[y] @ closure - closure / Y| <= UNIFORM_TOL
and |start @ closure - 1| <= UNIFORM_TOL.  A step from a state v with
``v @ closure`` = 1 then has |p_t - 1/Y| <= ||v||_1 * UNIFORM_TOL (the
first step up to UNIFORM_TOL / Y more), where ||v||_1 <= 1 for a
classical state metric and <= sqrt(2) * S for the packed form of a
unit-trace state operator of dimension S, since
|rho_ij| <= sqrt(rho_ii * rho_jj).  Each step's log is thus within about
Y * ||v||_1 * UNIFORM_TOL of ln Y, and p_t is positive and finite, so no
normalizer guard could trip; the residue guards are part of the check.
Only ``estimate_rows`` takes this closed form: ``stacked_forward_logs``
and ``scaled_forward_*`` always run the engine, so the oracle still
checks it on every model.

Logs are natural internally and converted to bits at the boundary.  One
row evaluator, ``estimate_rows``, turns rows of a model, an input law
and observed sequences into rate estimates, building the recursions of
all its rows and running them as engine stacks; the sweep, the
single-row ``entropy_rate_estimates`` and the mismatched-decoding bound
all call it, an auxiliary model simply taking the true model's place.
Within a call, each distinct (model, input law, joint) has its step
matrices, real form and rescale cap built once (``RecursionBuilder``),
and an engine stack's table holds each model's matrices once.  A row may
take its joint rate from the sampler instead (``log_loss_sums``), as a
sweep's quantum ``ir`` rows do, holding no inputs: the state the sampler
carries is the joint recursion's, so its per-step log losses plus the
input's are the joint recursion's logs.  The engine stays the reference
for them, and the only route for auxiliary models, classical models and
trajectories from elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ClassicalFsmc, InputLaw
from .errors import (
    ImpossibleObservationError,
    NumericalCorruptionError,
    QchanrateError,
    SequenceError,
)
from .linalg import RealForm, pack_hermitian, real_transfer_form

# Not called here, but the traced benchmark (perfbench/tracer.py) wraps it
# by this module attribute.
from .linalg import hermiticity_residue  # noqa: F401
from .sampling import (
    PMF_IMAG_GUARD,
    STATE_HERMITICITY_GUARD,
    Trajectory,
    _ranks,
)

LN2 = math.log(2.0)

# Largest entrywise gap, between normalized states, that a block may show
# between its recomputed end state and the next block's start before the
# recursion is evaluated again from that end state.
RESYNC_TOL = 1e-12

# Binary orders of magnitude that a row of a block product may fall
# between two rescales, on a recursion's rescale cap (``_rescale_cap``):
# a state component down to about 2**-900 of the largest one then stays
# in the normal range of floats, where an exact power-of-two rescale
# moves no bit.
PATH_RANGE = 100

# A row of a block product whose sum fell below PEAK_FLOOR between two
# rescales, or a word whose prefix totals fell below it, had a step zero
# the components that held its mass, and the components left may have
# lost precision: the recursion's steps from that block on are evaluated
# again, one step per word.
PEAK_FLOOR = 2.0**-PATH_RANGE

# The power of two of a row that is all zero, below every other.
NO_ROW = np.iinfo(np.int64).min // 2

# A block start whose total, through the folded block product, falls
# below this is computed again from the product's rows and their powers.
# That route alone would be exact for every block, but its five more
# numpy calls per block and recursion cost 6-10 % of the engine's time
# on the classical and burst-noise benchmark sweeps.
FOLD_FLOOR = 2.0**-50

# Longest word of steps the engine forms, the steps of a recursion per
# word-table product it spends, and the most numbers a word table holds
# (see ``_word_length``).
WORD_MAX = 8
WORD_STEPS = 40
WORD_BUDGET = 2**17

# Most matrix entries (matrices times their size) that a pass holds at
# once in its block products and gathered word entries: a pass whose
# blocks hold more runs over slices of them (see ``_blocked_pass``).
PRODUCT_BUDGET = 2**14

# Largest entrywise gap between ``mats[y] @ closure`` and ``closure / Y``,
# and between ``start @ closure`` and 1, at which an output-only
# recursion counts as uniform (``_uniform_output``) and its logs are
# taken to sum to n ln Y.  A power of two, so that a residual at or just
# above it can be planted exactly.
UNIFORM_TOL = 2.0**-40

# Three-phase passes run so far (each over a stack of recursions): a
# recursion that loses accuracy in its block products or words takes more
# than one, and a one-state stack takes none.
passes = 0


@dataclass(frozen=True)
class RateEstimate:
    """Entropy-rate estimates (bits per use) and their combination."""

    n: int
    hx: float
    hy: float
    hxy: float
    ir: float


def _check_symbols(seq: np.ndarray, size: int, name: str) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise SequenceError(f"{name} must be a nonempty 1-D sequence")
    if arr.min() < 0 or arr.max() >= size:
        raise SequenceError(f"{name} contains symbols outside [0, {size})")
    return arr


class Recursion(NamedTuple):
    """One scaled forward recursion: ``v <- v @ form.mats[i_t]`` from
    ``start``, normalized by ``v @ closure`` after every step, with the
    rescale cap of its matrices (``_rescale_cap``).

    Step t takes matrix ``i_t = index[t]`` or, given ``inputs`` (a joint
    recursion, whose matrices are numbered ``x * y_size + y``),
    ``inputs[t] * y_size + index[t]``; its stack writes those numbers
    straight into its own index (``_stack_table``), so the recursion
    holds no copy of them.

    ``uniform`` marks an output-only recursion whose every step has
    probability 1/Y within UNIFORM_TOL (``_uniform_output``), whose logs
    ``estimate_rows`` takes to sum to n ln Y; the engine does not read it.
    """

    start: np.ndarray
    form: RealForm
    index: np.ndarray
    closure: np.ndarray
    cap: int
    inputs: np.ndarray | None = None
    y_size: int = 1
    uniform: bool = False


def _model_steps(model, q: InputLaw, joint: bool) -> Recursion:
    """The recursion of a classical or compiled quantum ``model`` without
    its step indices: its distinct step matrices, with the input
    marginalized under ``q`` or, with ``joint``, one matrix per (x, y)
    pair at ``x * Y + y`` with its law factor folded in.

    A classical model runs on its latent-state vector, a quantum one on
    the real packed form of its state operator.  An output-only
    recursion is checked for a uniform output process
    (``_uniform_output``).
    """
    classical = isinstance(model, ClassicalFsmc)
    xy_mats = model.kernel.transpose(1, 3, 0, 2) if classical else model.chain_operators
    if joint:
        with np.errstate(invalid="ignore"):  # a complex infinite entry times a real factor
            mats = q.p[:, None, None, None] * xy_mats
        mats = mats.reshape(-1, *mats.shape[2:])
    else:
        mats = np.einsum("x,xyab->yab", q.p, xy_mats)
    if classical:
        no_residue = np.zeros(len(mats))
        form = RealForm(mats, no_residue, no_residue)
        start, closure = model.initial.astype(float), np.ones(model.state_count)
    else:
        d = model.state_dim ** 2
        form = real_transfer_form(mats)
        start = pack_hermitian(model.initial_state).reshape(d)
        closure = np.eye(model.state_dim).reshape(d)
    rec = Recursion(start, form, None, closure, _rescale_cap(form.mats))
    return rec if joint else rec._replace(uniform=_uniform_output(rec))


def _uniform_output(rec: Recursion) -> bool:
    """Whether every step of the output-only recursion ``rec`` has
    probability 1/Y, Y its number of step matrices, within the bound of
    the module docstring: every matrix is finite, every residue within
    its guard, ``mats[y] @ closure`` within UNIFORM_TOL of ``closure / Y``
    entrywise and ``start @ closure`` within it of 1."""
    form, closure = rec.form, rec.closure
    if not (
        np.isfinite(form.mats).all()
        and (form.imag_residue <= PMF_IMAG_GUARD).all()
        and (form.herm_residue <= STATE_HERMITICITY_GUARD).all()
    ):
        return False
    gap = np.abs(form.mats @ closure - closure / len(form.mats)).max()
    return bool(gap <= UNIFORM_TOL and abs(rec.start @ closure - 1.0) <= UNIFORM_TOL)


class RecursionBuilder:
    """Builds forward recursions of compiled channel models on observed
    sequences (``recursion``), each distinct (model, input law, joint)
    built once: its step matrices, real form, closure, start and rescale
    cap are shared by every recursion built from it, so that an engine
    stack holds them once (``_stack_table``).  Models and laws are told
    apart by identity and kept until the builder goes, which is meant to
    be at the end of the call that made it."""

    def __init__(self):
        self._steps: dict[tuple, tuple] = {}

    def __call__(
        self, model, q: InputLaw, ys: np.ndarray, xs: np.ndarray | None = None
    ) -> Recursion:
        q.check_fits(model)
        index = _check_symbols(ys, model.y_size, "output sequence")
        if xs is not None:
            xs = _check_symbols(xs, model.x_size, "input sequence")
            if xs.size != index.size:
                raise SequenceError("input and output sequences differ in length")
        key = (id(model), id(q), xs is not None)
        got = self._steps.get(key)
        if got is None:
            got = self._steps[key] = (model, q, _model_steps(model, q, xs is not None))
        return got[2]._replace(index=index, inputs=xs, y_size=model.y_size)


def recursion(model, q: InputLaw, ys: np.ndarray, xs: np.ndarray | None = None) -> Recursion:
    """The forward recursion of a compiled channel model on the observed
    ``ys`` (``xs`` marginalized) or on ``(xs, ys)`` (input-law factors
    included), built on its own (see ``_model_steps``)."""
    return RecursionBuilder()(model, q, ys, xs)


def _impossible(step: int) -> ImpossibleObservationError:
    return ImpossibleObservationError(
        f"observation at step {step} has zero probability under the model"
    )


def _guard_error(total: float, table: RealForm, matrix: int, step: int) -> QchanrateError:
    """The error of a step that tripped a guard, checked in order."""
    imag = table.imag_residue[matrix]
    if not np.isfinite(total):
        return NumericalCorruptionError(f"forward normalizer is {total} at step {step}")
    if not imag <= PMF_IMAG_GUARD:
        return NumericalCorruptionError(
            f"forward trace carries imaginary residue {imag:.3e} at step {step}"
        )
    if not total > 0.0:
        return _impossible(step)
    return NumericalCorruptionError(
        f"forward operator Hermiticity residue {table.herm_residue[matrix]:.3e} at step {step}"
    )


def _rescale_cap(mats: np.ndarray) -> int:
    """L, the most steps that a block product of these step matrices may
    take between two rescales of its rows.

    Prescaled to a peak in [0.5, 1), a matrix whose nonzero rows have
    sums of magnitudes of at least r times its peak shrinks the sum of a
    row of a product of nonnegative matrices by at most r / 2 per step
    (unless it zeroes the columns that hold the row), and grows it by at
    most g, its largest row sum over its peak.  With r and g taken over
    all the matrices, L steps keep a row sum above 2**-PATH_RANGE of its
    start and below 2**1000 times it.  r is taken as at most 1, so that
    PATH_RANGE bounds L even where no row can shrink (r >= 2, as in a
    matrix whose entries are all equal).  A non-finite r or g gives 1.
    """
    size = np.abs(mats)
    peak = size.max(axis=(1, 2), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.where(peak > 0.0, size / peak, 0.0).sum(axis=2)
    r = rows[rows > 0.0].min(initial=1.0)
    g = rows.max(initial=1.0)
    if not (r > 0.0 and g < math.inf):
        return 1
    steps = min(PATH_RANGE // (1.0 - math.log2(r)), 1000 // max(math.log2(g), 1.0))
    return max(1, int(steps))


def _word_length(alphabet: int, d: int, n: int, cap: int) -> int:
    """m, the steps per word of a recursion of ``alphabet`` step
    matrices of size ``d`` over ``n`` steps with rescale cap ``cap``.

    The passes multiply about 2n/m matrices, and the word table m per
    word that occurs.  m is the longest word, up to WORD_MAX, whose table
    for two step matrices (2**m words) costs at most n / WORD_STEPS
    products; counting two matrices whatever the alphabet keeps a
    model's output-only and joint recursions at one m, hence in one
    stack.  It takes at most half the cap, so that a word's rows fall by
    at most 2**-(PATH_RANGE / 2), and it is shortened while the table,
    of at most min(alphabet**m, n/m) entries of d * (d + m) numbers,
    exceeds WORD_BUDGET numbers.  A one-state recursion (d = 1) gets
    m = 1.
    """
    m = 1
    longest = min(cap // 2, WORD_MAX)
    while m < longest and (m + 1) * 2 ** (m + 1) * WORD_STEPS <= n:
        m += 1
    while m > 1 and min(alphabet**m, -(-n // m)) * d * (d + m) > WORD_BUDGET:
        m -= 1
    return 1 if d == 1 else m


def _recursion_word_length(rec: Recursion) -> int:
    """The word length of a recursion, from its own matrices and length."""
    return _word_length(len(rec.form.mats), rec.closure.size, rec.index.size, rec.cap)


def _word_table(mats: np.ndarray, closure: np.ndarray, words: np.ndarray):
    """The table of the words that occur in ``words``, whose rows list
    the matrices (of ``mats``) of a word's steps, and each word's entry
    in it.

    The table is built one step at a time over the distinct prefixes
    that occur: a prefix of i + 1 steps is numbered by its i-step
    prefix's number (its parent) and its last matrix, and its product is
    that prefix's product times the matrix, so each entry depends on its
    word alone.  An entry holds the word's product, then each of its m
    prefix products times the closure, found through the parents.
    Returns the products, the entries and the entry of each word.  The
    products are a C-contiguous array of their own, not a view of the
    entries: phase 1 gathers from them once per word, and
    ``ndarray.take`` copies a strided array whole first.
    """
    m = words.shape[1]
    d = closure.size
    size = len(mats)
    # Each step matrix with its closure column: one product per step of a
    # prefix gives the next prefix's product and that prefix's closure.
    steps = np.concatenate([mats, mats @ closure[:, None]], axis=2)
    prefixes, code = _ranks(words[:, 0], size)
    prod = steps[prefixes]
    totals, parents = [prod[:, :, d].copy()], []
    for i in range(1, m):
        prefixes, code = _ranks(code * size + words[:, i], len(prod) * size)
        parents.append(prefixes // size)
        prod = prod[parents[-1], :, :d] @ steps[prefixes % size]
        totals.append(prod[:, :, d].copy())
    prods = np.ascontiguousarray(prod[:, :, :d])
    entries = np.empty((len(prod), d, d + m))
    entries[:, :, :d] = prods
    at = np.arange(len(prod))  # each entry's prefix of i + 1 steps
    for i in range(m - 1, -1, -1):
        entries[:, :, d + i] = totals[i][at]
        if i:
            at = parents[i - 1][at]
    return prods, entries, code


def _rescale(prod: np.ndarray, scale: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Divide each row of each block product by the power of two of its
    sum of magnitudes, in place, and add that power to ``scale``; flag a
    product with a nonzero row whose sum was below PEAK_FLOOR.  Returns
    the row sums before the division."""
    sums = np.abs(prod) @ np.ones((prod.shape[-1], 1))
    exps = np.frexp(sums)[1]
    flags |= (exps <= -PATH_RANGE).any(axis=(2, 3))  # sums below PEAK_FLOOR; 0 gives 0
    np.ldexp(prod, -exps, out=prod)
    scale += exps
    return sums


def _padded_steps(recs: int, n: int, m: int, identity: int) -> np.ndarray:
    """The (R, blocks, w * m) table entries of a pass of R recursions of
    ``n`` steps in words of ``m`` steps, blocks of w words, w about
    sqrt(n / m): all ``identity``, the identity matrix's entry, for the
    caller to write each recursion's n steps over its first n."""
    words = -(-n // m)
    w = math.isqrt(words - 1) + 1  # words per block, ceil(sqrt(words))
    return np.full((recs, -(-words // w), w * m), identity)


def _step_rows(steps: np.ndarray, n: int) -> np.ndarray:
    """The (R, n) view of the first ``n`` steps of each recursion of a
    pass's ``steps`` (``_padded_steps``)."""
    return steps.reshape(len(steps), -1)[:, :n]


# A non-finite matrix entry spreads NaN through the products and states
# (inf * 0), and a zero total divides by zero, all silently: ``_settle``
# reports the failing step.
@np.errstate(divide="ignore", invalid="ignore")
def _blocked_pass(
    mats: np.ndarray,
    closure: np.ndarray,
    starts: np.ndarray,
    steps: np.ndarray,
    m: int,
    every: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One three-phase pass over R recursions of equal length, in words
    of ``m`` steps, every block product rescaled after each ``every``
    words.

    Recursion r runs the steps ``mats[steps[r]]`` from the state
    ``starts[r]``, laid out in blocks by ``_padded_steps``.  ``mats``
    carries the identity as its last entry, which pads the final word and
    block.  ``every`` words take at most the stack's smallest rescale cap
    in steps; with ``every`` = 1 the pass is as fine as a rerun would be,
    so no block is evaluated again for a flagged product or lost totals.

    Returns the per-step normalizers, unchecked, of all the padded steps
    (R, blocks * w * m), those of the padding 1; the number of leading
    steps of each recursion that the pass settled (all, padding included,
    unless a block lost accuracy); and each recursion's state after
    those steps.
    """
    global passes
    passes += 1
    recs, blocks, k = steps.shape
    d = closure.size
    w = k // m
    n = blocks * k
    prods, entries, entry = _word_table(mats, closure, steps.reshape(-1, m))
    cols = entry.reshape(recs, blocks, w).T  # cols[j, b, r]: the entry of word j of block b

    column = closure.reshape(d, 1)
    vec = starts.reshape(recs, 1, d).copy()
    live = np.ones((recs, 1, 1), dtype=bool)
    begin = np.empty((blocks + 1, recs, 1, d))
    ends = np.empty((blocks, recs, 1, d))
    totals = np.empty((recs, blocks, w, m))
    flagged = np.zeros((blocks, recs), dtype=bool)
    # The phases run over slices of up to ``span`` blocks of every
    # recursion, at most PRODUCT_BUDGET entries, recs * d * (d + m) a
    # block.
    span = max(1, PRODUCT_BUDGET // (recs * d * (d + m)))
    for first in range(0, blocks, span):
        part = cols[:, first:first + span]
        flags = flagged[first:first + span]

        # Phase 1: all block transfer products of the slice at once, one
        # word per iteration, each row rescaled exactly after every
        # ``every`` words and after the last, the powers of two kept apart
        # in ``scale`` (NO_ROW for a row that is all zero).  They are then
        # folded back, relative to the largest, into ``folded`` where
        # every nonzero row is within 2**-PATH_RANGE of it, so that the
        # entries that matter stay normal; elsewhere ``folded`` is zero.
        prod = prods.take(part[0], axis=0)
        scale = np.zeros((*prod.shape[:3], 1), dtype=np.int64)
        for j in range(1, w):
            if j % every == 0:  # the product holds j words
                _rescale(prod, scale, flags)
            prod = prod @ prods.take(part[j], axis=0)
        scale[_rescale(prod, scale, flags) == 0.0] = NO_ROW
        shift = scale - scale.max(axis=2, keepdims=True)
        folded = np.ldexp(prod, shift)
        folded *= ~((shift < -PATH_RANGE) & (scale != NO_ROW)).any(axis=2, keepdims=True)
        scale = scale.transpose(0, 1, 3, 2)

        # Phase 2: block start states, one vector-matrix product per block
        # and recursion.  Where the total comes out below FOLD_FLOOR (or
        # the product was not folded), the product is taken again with
        # the state scaled by the powers of two of the block's rows
        # instead, so that its largest term is near 1.  A closure that is
        # not positive and finite leaves the recursion's later starts at
        # its last good state; phase 3 then finds the failing step or the
        # mismatch.
        for i, block in enumerate(folded):
            begin[first + i] = vec
            nxt = vec @ block
            total = nxt @ column
            low = total[:, 0, 0] < FOLD_FLOOR
            if low.any():
                rows, state = scale[i, low], vec[low]
                top = np.where(state != 0.0, rows + np.frexp(state)[1], NO_ROW)
                nxt[low] = np.ldexp(state, rows - top.max(axis=2, keepdims=True)) @ prod[i, low]
                total[low] = nxt[low] @ column
            live &= (total > 0.0) & (total < math.inf)
            np.divide(nxt, total, out=vec, where=live)

        # Phase 3: all blocks of the slice advance together from their
        # start states, one word per iteration: a vector-matrix product
        # with the word's entry gives the state after the word and its m
        # prefix totals, written in step order per recursion.
        vecs = begin[first:first + len(prod)]
        outs = totals[:, first:first + span].transpose(2, 1, 0, 3)
        for row, out in zip(part, outs):
            raw = vecs @ entries.take(row, axis=0)
            out[...] = raw[:, :, 0, d:]
            vecs = raw[..., :d] / raw[..., -1:]
        ends[first:first + len(prod)] = vecs

    # A word's steps' normalizers are the ratios of consecutive prefix
    # totals, the first over its normalized start's 1.  A total below
    # PEAK_FLOOR or not finite (a bad step, or a step whose mass its state
    # held in tiny components) may leave the word's state or its ratios
    # short of precision, so its block is evaluated again.
    lost = (m > 1) & ~(
        (totals.min(axis=(2, 3)) >= PEAK_FLOOR) & (totals.max(axis=(2, 3)) < np.inf)
    )
    for i in range(m - 1, 0, -1):
        totals[..., i] /= totals[..., i - 1]

    # A block whose phase-3 end state disagrees with its phase-2 end
    # state lost accuracy in its product or, unless it ran one step per
    # word, in its words.  So may a block with a flagged product or with
    # lost totals, where an interval above one word left room for a
    # smaller one.  The recursion is settled up to the start of the first
    # such block (up to its end where only its product is in doubt), and
    # the rest is evaluated again from there.
    begin[blocks] = vec
    drift = (np.abs(ends - begin[1:]).max(axis=(2, 3)) > RESYNC_TOL).T
    redo = (flagged.T | lost) & (every > 1)
    if m > 1:
        redo |= drift
    else:
        redo[:, 1:] |= drift[:, :-1]
    settled = np.where(redo.any(axis=1), redo.argmax(axis=1) * k, n)
    # The state after the settled steps: the end of the block they end
    # in, or the start where none settled.
    after = np.where(settled[:, None] > 0, ends[(settled - 1) // k, np.arange(recs), 0], starts)
    return totals.reshape(recs, n), settled, after


def _first_trips(norms: np.ndarray, matrices: np.ndarray, table: RealForm) -> np.ndarray:
    """The earliest step of each row of normalizers ``norms`` that trips
    a guard, or the row's length: a normalizer that is not positive and
    finite, or a step matrix (``table`` entry ``matrices``) whose
    residues exceed ``PMF_IMAG_GUARD`` or ``STATE_HERMITICITY_GUARD``."""
    ok = norms > 0.0
    ok &= norms < np.inf
    safe = (table.imag_residue <= PMF_IMAG_GUARD) & (table.herm_residue <= STATE_HERMITICITY_GUARD)
    if not safe.all():
        ok &= safe[matrices]
    return np.where(ok.all(axis=1), norms.shape[1], ok.argmin(axis=1))


# A row that tripped may hold zero, negative or NaN normalizers, whose
# logs it never returns.
@np.errstate(divide="ignore", invalid="ignore")
def _settle(norms: np.ndarray, matrices: np.ndarray, table: RealForm, exps: np.ndarray) -> list:
    """Per row of a stack's normalizers ``norms``, whose steps use the
    ``table`` entries ``matrices`` of power-of-two exponents ``exps``:
    the error of its earliest guard trip, or its logs, written over the
    row."""
    n = norms.shape[1]
    errors = [
        None if t == n else _guard_error(norms[r, t], table, matrices[r, t], t)
        for r, t in enumerate(_first_trips(norms, matrices, table).tolist())
    ]
    np.negative(np.log(norms, out=norms), out=norms)
    scaled = LN2 * exps
    for logs, row in zip(norms, matrices):  # an (R, n) temporary would take fresh pages
        logs -= scaled[row]
    return [logs if exc is None else exc for logs, exc in zip(norms, errors)]


def stack_key(rec: Recursion) -> tuple[int, bytes, int]:
    """Recursions with equal keys (length, closure, hence state size, and
    word length) can run as one stack."""
    return rec.index.size, rec.closure.tobytes(), _recursion_word_length(rec)


def _stack_table(recs: Sequence[Recursion], m: int) -> tuple:
    """One matrix table for a stack, the identity last, with each
    matrix's power-of-two exponent and the table entries of the
    recursions' steps, laid out for a pass in words of ``m`` steps
    (``_padded_steps``).  Recursions built from one model (the same
    ``form``) share its entries, so the table holds each model once.

    Every matrix is scaled by an exact power of two to a largest entry in
    [0.5, 1), so that block products of steps of tiny probability do not
    underflow; a state normalized after such a step is unchanged, and the
    step's log gets the power's log back.
    """
    offsets: dict[int, int] = {}
    forms: list[RealForm] = []
    size = 0
    for rec in recs:
        if id(rec.form) not in offsets:
            offsets[id(rec.form)] = size
            forms.append(rec.form)
            size += len(rec.form.mats)
    mats = np.concatenate([f.mats for f in forms] + [np.eye(recs[0].closure.size)[None]])
    exps = np.frexp(np.abs(mats).max(axis=(1, 2)))[1]
    table = RealForm(
        np.ldexp(mats, -exps[:, None, None]),
        np.concatenate([f.imag_residue for f in forms] + [[0.0]]),
        np.concatenate([f.herm_residue for f in forms] + [[0.0]]),
    )
    n = recs[0].index.size
    steps = _padded_steps(len(recs), n, m, len(mats) - 1)
    for row, rec in zip(_step_rows(steps, n), recs):
        row[...] = rec.index if rec.inputs is None else rec.inputs * rec.y_size + rec.index
        row += offsets[id(rec.form)]
    return table, exps, steps


def stacked_forward_logs(recs: Sequence[Recursion]) -> list:
    """Per-step natural scale logs of recursions, evaluated together in
    one stack per ``stack_key``.

    Returns, per recursion, its logs or the ``QchanrateError`` of its
    earliest guard trip; one recursion's trip leaves the others' logs
    unchanged.  A step that uses a matrix whose ``form`` residues exceed
    ``PMF_IMAG_GUARD`` or ``STATE_HERMITICITY_GUARD`` trips that guard.
    """
    stacks: dict[tuple, list[int]] = {}
    for r, rec in enumerate(recs):
        stacks.setdefault(stack_key(rec), []).append(r)
    results: list = [None] * len(recs)
    for (_, _, m), members in stacks.items():
        logs = _stack_logs([recs[r] for r in members], m)
        for r, got in zip(members, logs):
            results[r] = got
    return results


def _stack_logs(recs: Sequence[Recursion], m: int) -> list:
    """``stacked_forward_logs`` of one stack, whose word length is ``m``.

    Its passes rescale the block products after each run of words that
    takes at most the stack's smallest rescale cap in steps, and write
    their normalizers into one (R, n) array for ``_settle``.  A one-state
    stack's normalizers come in closed form, without a pass.
    """
    closure = recs[0].closure
    n = recs[0].index.size
    table, exps, steps = _stack_table(recs, m)
    index = _step_rows(steps, n)
    if closure.size == 1:
        norms = table.mats[index, 0, 0]
        norms[:, 0] *= [rec.start[0] for rec in recs]
        return _settle(norms, index, table, exps)

    identity = len(table.mats) - 1
    every = max(min(rec.cap for rec in recs) // m, 1)
    norms, pending = None, {0: [(r, rec.start) for r, rec in enumerate(recs)]}
    while pending:
        # The first pass runs the whole stack, and its normalizers become
        # the stack's one array.  A recursion whose blocks lost accuracy
        # then reruns its unsettled tail, one step per word and with its
        # products rescaled on every step, unless one of its settled steps
        # tripped a guard; tails of equal length run as one stack, and
        # write over the steps that their pass did not settle.
        runs, pending = pending, {}
        for pos, items in runs.items():
            rows = [r for r, _ in items]
            if norms is None:
                tail = index
            else:
                steps = _padded_steps(len(rows), n - pos, m, identity)
                tail = _step_rows(steps, n - pos)
                tail[...] = index[rows, pos:]
            got, settled, after = _blocked_pass(
                table.mats, closure, np.stack([vec for _, vec in items]), steps, m, every
            )
            got = got[:, :n - pos]
            if norms is None:
                norms = got
            else:
                norms[rows, pos:] = got
            short = np.flatnonzero(settled < n - pos)
            if short.size:
                for i, fail in zip(short, _first_trips(got[short], tail[short], table)):
                    if fail >= settled[i]:
                        pending.setdefault(pos + int(settled[i]), []).append((rows[i], after[i]))
        m = every = 1
    return _settle(norms, index, table, exps)


# Not called here, but the traced benchmark (perfbench/tracer.py) wraps
# both names by this module attribute.
def scaled_forward_classical(
    model, q: InputLaw, ys: np.ndarray, xs: np.ndarray | None = None
) -> np.ndarray:
    """Per-step natural scale logs of the forward recursion of any channel
    model, classical or quantum (see ``recursion``).

    The sum of the returned array is -log p(ys) (xs marginalized) or
    -log p(xs, ys) (xs pinned, input-law factors included).
    """
    (logs,) = stacked_forward_logs([recursion(model, q, ys, xs)])
    if isinstance(logs, QchanrateError):
        raise logs
    return logs


scaled_forward_quantum = scaled_forward_classical


def input_log_loss(q: InputLaw, xs: np.ndarray) -> np.ndarray:
    """Per-step -log p_X(x) of an i.i.d. input sequence (natural logs)."""
    xs = _check_symbols(xs, q.x_size, "input sequence")
    probs = q.p[xs]
    if probs.min() <= 0.0:
        raise ImpossibleObservationError(
            "input sequence contains a symbol of zero input probability"
        )
    return -np.log(probs)


def log_loss_sums(q: InputLaw, traj: Trajectory) -> tuple[float, float | QchanrateError | None]:
    """The sums that the rows on ``traj`` take from its per-step arrays:
    its input log losses' (``input_log_loss``, whose error it raises),
    and for a trajectory with sampler logs, the joint recursion's or the
    error that stops it, else None.

    The state the sampler carries is the joint recursion's, so the joint
    recursion's log at step t is -ln q(x_t) plus the sampler's
    -ln p(y_t | x^t, y^{t-1}).  A sampler log that is not finite (a zero
    weight drawn on the last step) is the joint recursion's
    ``ImpossibleObservationError`` at its step.
    """
    log_px = input_log_loss(q, traj.x)
    logs = traj.conditional_log_loss
    joint = None
    if logs is not None:
        bad = ~np.isfinite(logs)
        joint = _impossible(int(np.argmax(bad))) if bad.any() else float((log_px + logs).sum())
    return float(log_px.sum()), joint


class RateRow(NamedTuple):
    """One row of ``estimate_rows``: ``model`` evaluated on the outputs
    ``y`` under the input law ``q``, averaged over all of them.

    ``hx_sum`` is the sum of the inputs' per-step log losses
    (``input_log_loss``).  ``joint`` is the inputs of the row's joint
    recursion, or else, in place of running it, its sum taken from the
    sampler, which must have run ``model`` itself, or the error that
    stopped it (``log_loss_sums``).
    """

    model: object
    q: InputLaw
    y: np.ndarray
    hx_sum: float
    joint: np.ndarray | float | QchanrateError


def estimate_rows(rows: Sequence[RateRow]) -> list:
    """The ``RateEstimate`` of each row, or the error that stopped it.

    Each row's output-only recursion is built, then its joint one if the
    row holds its inputs; building stops at the first recursion that
    cannot be built (a law that does not fit its model, or a symbol
    outside its alphabet), whose error takes its place.  A model that is
    not compiled raises ``TypeError`` out of the call.  Rows of one model
    and input law share its step matrices, built once for the call
    (``RecursionBuilder``).  The recursions of every row run in one
    ``stacked_forward_logs`` call, and each recursion's logs are reduced
    to their sum at once.  An output-only recursion of a uniform output
    process (``Recursion.uniform``) runs no step: its sum is n ln Y.  A
    row's error is its first: the output-only recursion's, then the
    joint one's.
    """
    build = RecursionBuilder()
    sums: list[list] = []
    for row in rows:
        parts: list = []
        inputs = isinstance(row.joint, np.ndarray)
        for xs in (None, row.joint) if inputs else (None,):
            try:
                rec = build(row.model, row.q, row.y, xs)
            except QchanrateError as exc:
                parts.append(exc)
                break
            parts.append(rec.index.size * math.log(rec.y_size) if rec.uniform else rec)
        if not inputs:
            parts.append(row.joint)
        sums.append(parts)

    members = [(r, slot) for r, parts in enumerate(sums)
               for slot, rec in enumerate(parts) if isinstance(rec, Recursion)]
    outcomes = stacked_forward_logs([sums[r][slot] for r, slot in members])
    for (r, slot), logs in zip(members, outcomes):
        if not isinstance(logs, QchanrateError):
            logs = float(logs.sum())
        sums[r][slot] = logs

    out: list = []
    for row, parts in zip(rows, sums):
        exc = next((p for p in parts if isinstance(p, QchanrateError)), None)
        if exc is not None:
            out.append(exc)
            continue
        n = len(row.y)
        hx, hy, hxy = (s / (n * LN2) for s in (row.hx_sum, *parts))
        out.append(RateEstimate(n=n, hx=hx, hy=hy, hxy=hxy, ir=hx + hy - hxy))
    return out


def entropy_rate_estimates(model, q: InputLaw, traj: Trajectory) -> RateEstimate:
    """Estimate the entropy rates and information rate from one trajectory,
    averaged over all its steps.

    Both entropy rates of the model come from its recursions
    (``estimate_rows``), the sampler's logs unused; the law is checked
    first (``InputLaw.check_fits``).
    """
    q.check_fits(model)
    hx_sum = float(input_log_loss(q, traj.x).sum())
    (r,) = estimate_rows([RateRow(model, q, traj.y, hx_sum, traj.x)])
    if isinstance(r, QchanrateError):
        raise r
    return r
