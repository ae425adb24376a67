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

The engine evaluates a stack of R recursions of one state size and one
length together (a single recursion is a stack of one): their step
matrices share one table, each recursion's indices shifted to its own
entries, and each matrix is first scaled by an exact power of two to a
largest entry in [0.5, 1), whose log is added back to the steps that use
it.  Each recursion runs in blocks of k = ceil(sqrt(n)) steps, so that
each of the three phases is a Python loop of about sqrt(n) iterations
over numpy calls batched across the blocks of every recursion, instead
of one interpreted iteration per step:

1. all block transfer products are formed together, every block
   advancing one step per iteration; each product is rescaled by its
   largest entry every ``RESCALE_EVERY`` steps and on its last step, so
   that it neither underflows nor overflows between rescalings;
2. a sequential pass over the n/k blocks carries each recursion's
   normalized state from each block's start to the next;
3. all blocks rerun their own steps together from those start states,
   yielding the exact per-step normalizers: each iteration is a gather
   of the step matrices, one batched vector-matrix product, the closure
   and a division by the raw total, with no masking of bad totals.

Phases 1 and 3 loop k times and phase 2 loops n/k times, so k = sqrt(n)
keeps every loop near sqrt(n) iterations (the interpreter's cost is per
iteration, shared by the whole stack), while the block products take
only n/k matrices of the step size per recursion.  At a large state
size the three phases run over slices of the blocks, so that the
matrices held at once stay within ``PRODUCT_BUDGET`` entries.

Every guard is reported per recursion, on the step it concerns: a
normalizer that is not finite, or one that is not positive (a
zero-probability observation), is checked on every step in phase 3, and
the imaginary-trace and Hermiticity residues of a quantum step matrix,
measured once per matrix when it is converted to the real form, trip on
every step that uses that matrix.  A trip reports the earliest global
step, with the same error type as a step-by-step evaluation, and leaves
the other recursions of the stack unchanged.  The division by a bad
total fills the rest of its block with NaN or infinite values, whose
steps all come after it, so the earliest bad step is still the first one
reported.  Phase 3 also checks each block's end state against the next
block's start from phase 2; a product that lost accuracy (an entry
underflowed to zero within its rescaling interval, say) shows as a gap
there, and that recursion's steps after the block are then evaluated
again from the block's end state, in a stack with the other unsettled
recursions of the same remaining length.

A stack of one-state recursions (a memoryless model, closure of size 1)
runs no pass: its normalized state is 1 after every step, so each step's
normalizer is its prescaled matrix's single entry (times the start on
the first step), and the logs and the guards, in the same order and at
the same step, follow in closed form, equal to the pass's bit for bit.

Running the output-only recursion gives the output entropy rate; running
it with the inputs pinned (input-law factors included) gives the joint
entropy rate; the input entropy rate of an i.i.d. process is evaluated
in closed form.  Logs are natural internally and converted to bits at
the boundary.  One row evaluator, ``estimate_rows``, turns rows of a
model, an input law and a trajectory into rate estimates, running the
recursions of all its rows as engine stacks; the sweep, the single-row
``entropy_rate_estimates`` and the mismatched-decoding bound all call
it, an auxiliary model simply taking the true model's place.  A row may
take its joint rate from the sampler instead (``sampled_joint_logs``),
as a sweep's quantum ``ir`` rows do: the state the sampler carries is
the joint recursion's, so its per-step log losses plus the input's are
the joint recursion's logs.  The engine stays the reference for them,
and the only route for auxiliary models, classical models and
trajectories from elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ClassicalFsmc, Dmc, InputLaw, as_recursion_model
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
)

LN2 = math.log(2.0)

# Largest entrywise gap, between normalized states, that a block may show
# between its recomputed end state and the next block's start before the
# recursion is evaluated again from that end state.
RESYNC_TOL = 1e-12

# Steps between rescalings of a block product.  Over so few steps a
# product of step matrices scaled to a largest entry in [0.5, 1) neither
# overflows nor, unless its entries decay below about 1e-38 of its peak
# (good and bad steps alternating along every path, say), underflows; one
# that does is caught by the RESYNC_TOL check.
RESCALE_EVERY = 8

# Most matrix entries (matrices times their size) that a pass holds at
# once in its block products and gathered step matrices: at a large state
# size, the pass runs over slices of the blocks to stay within it.
PRODUCT_BUDGET = 2**14

# Three-phase passes run so far (each over a stack of recursions): a
# recursion that loses accuracy in its block products takes more than one,
# and a one-state stack takes none.
passes = 0


def dmc_information_rate(q: InputLaw, w: Dmc) -> float:
    """Exact information rate of a memoryless law, in bits per use.

    Terms with zero joint probability contribute nothing; a positive
    transition into an output of zero marginal probability is impossible
    for consistent inputs and would indicate a broken law.
    """
    if q.x_size != w.x_size:
        raise ValueError(
            f"input law has {q.x_size} symbols but the law expects {w.x_size}"
        )
    qy = q.p @ w.w
    joint = q.p[:, None] * w.w
    mask = joint > 0
    if np.any(mask & (qy[None, :] <= 0)):
        raise NumericalCorruptionError(
            "positive joint probability with zero output marginal"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, w.w / qy[None, :], 1.0)
    return float((joint[mask] * np.log2(ratio[mask])).sum())


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


def _step_matrices(
    q: InputLaw, xy_mats: np.ndarray, ys: np.ndarray, xs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct step matrices and the per-step index into them.

    ``xy_mats[x, y]`` advances the forward vector on input ``x`` and
    output ``y`` (input-law factor excluded).  Without ``xs`` the input is
    marginalized under the law; with ``xs`` the law factor of each
    observed input is folded into its (x, y) matrix.
    """
    x_size, y_size = xy_mats.shape[:2]
    ys = _check_symbols(ys, y_size, "output sequence")
    if xs is None:
        return np.einsum("x,xyab->yab", q.p, xy_mats), ys
    xs = _check_symbols(xs, x_size, "input sequence")
    if xs.size != ys.size:
        raise SequenceError("input and output sequences differ in length")
    with np.errstate(invalid="ignore"):  # a complex infinite entry times a real factor
        mats = q.p[:, None, None, None] * xy_mats
    return mats.reshape(-1, *mats.shape[2:]), xs * y_size + ys


class Recursion(NamedTuple):
    """One scaled forward recursion: ``v <- v @ form.mats[index[t]]``
    from ``start``, normalized by ``v @ closure`` after every step."""

    start: np.ndarray
    form: RealForm
    index: np.ndarray
    closure: np.ndarray


def recursion(model, q: InputLaw, ys: np.ndarray, xs: np.ndarray | None = None) -> Recursion:
    """The forward recursion of any channel model on the observed ``ys``
    (``xs`` marginalized) or on ``(xs, ys)`` (input-law factors included).

    A classical model runs on its latent-state vector, a quantum one on
    the real packed form of its state operator.
    """
    model = as_recursion_model(model)
    if isinstance(model, ClassicalFsmc):
        mats, index = _step_matrices(q, model.kernel.transpose(1, 3, 0, 2), ys, xs)
        no_residue = np.zeros(len(mats))
        return Recursion(
            model.initial.astype(float),
            RealForm(mats, no_residue, no_residue),
            index,
            np.ones(model.state_count),
        )
    mats, index = _step_matrices(q, model.chain_operators, ys, xs)
    s = model.state_dim
    return Recursion(
        pack_hermitian(model.initial_state).reshape(s * s),
        real_transfer_form(mats),
        index,
        np.eye(s).reshape(s * s),
    )


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


# A non-finite matrix entry spreads NaN through the products and states
# (inf * 0), and a zero total divides by zero, all silently: the guards
# after the three phases report the failing step.
@np.errstate(divide="ignore", invalid="ignore")
def _blocked_pass(
    table: RealForm,
    guarded: np.ndarray,
    closure: np.ndarray,
    starts: np.ndarray,
    indices: list[np.ndarray],
    shifts: list[int],
    offset: int,
) -> list:
    """One three-phase pass over R recursions of equal length.

    Recursion r runs the steps ``table.mats[indices[r] + shifts[r]]``
    from the state ``starts[r]``; their first step is global step
    ``offset``.  ``table.mats`` carries the identity as its last entry,
    used to pad the final blocks, and ``guarded[m]`` flags a matrix whose
    residues trip a guard on every step that uses it.

    Returns, per recursion, either the error of its earliest guard trip
    or the per-step logs of the leading steps it settled (all of them
    unless a block end state disagreed with the next block's start) and
    the state after them.
    """
    global passes
    passes += 1
    mats = table.mats
    recs, n = len(indices), indices[0].size
    k = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    blocks = -(-n // k)
    full, rest = divmod(n, k)
    d = mats.shape[-1]
    # idx[j, b, r]: the matrix of step b * k + j of recursion r.
    idx = np.full((k, blocks, recs), mats.shape[0] - 1)
    for r, (index, shift) in enumerate(zip(indices, shifts)):
        steps = idx[:, :, r].T
        np.add(index[: full * k].reshape(full, k), shift, out=steps[:full])
        if rest:
            np.add(index[full * k:], shift, out=steps[full, :rest])

    column = closure.reshape(d, 1)
    vec = starts.reshape(recs, 1, d).copy()
    live = np.ones((recs, 1, 1), dtype=bool)
    begin = np.empty((blocks, recs, 1, d))
    ends = np.empty((blocks, recs, 1, d))
    totals = np.empty((recs, blocks, k))
    # The three phases run over slices of up to ``span`` blocks of every
    # recursion, so that the matrices they hold at once stay within
    # PRODUCT_BUDGET entries; below a large state size a slice is the
    # whole pass.
    span = max(1, PRODUCT_BUDGET // (recs * d * d))
    for first in range(0, blocks, span):
        cols = idx[:, first:first + span]

        # Phase 1: all block transfer products of the slice at once, each
        # rescaled by its largest entry every RESCALE_EVERY steps and on
        # its last step.  A product that is all zero stays zero.
        prod = mats.take(cols[0], axis=0)
        for j in range(1, k):
            prod = prod @ mats.take(cols[j], axis=0)
            if j % RESCALE_EVERY == 0 or j == k - 1:
                peak = np.abs(prod).max(axis=(2, 3), keepdims=True)
                prod /= np.where(peak > 0.0, peak, 1.0)

        # Phase 2: block start states, one vector-matrix product per block
        # and recursion.  A closure that is not positive and finite leaves
        # the recursion's later starts at its last good state; phase 3
        # then finds the failing step or the mismatch.
        for b, block in enumerate(prod, start=first):
            begin[b] = vec
            if b + 1 == blocks:
                break
            nxt = vec @ block
            total = nxt @ column
            live &= (total > 0.0) & (total < math.inf)
            np.divide(nxt, total, out=vec, where=live)

        # Phase 3: exact per-step normalizers, all blocks of the slice
        # advancing together from their start states, written in step
        # order per recursion.  A total that is not positive and finite
        # is the earliest bad step of its block; the NaN or infinite
        # entries its division spreads stay within that block and come
        # after it.
        vecs = begin[first:first + span]
        outs = totals[:, first:first + span].transpose(2, 1, 0)[..., None, None]
        for row, tot in zip(cols, outs):
            vecs = vecs @ mats.take(row, axis=0)
            np.matmul(vecs, column, out=tot)
            vecs /= tot
        ends[first:first + span] = vecs

    totals = totals.reshape(recs, blocks * k)[:, :n]
    trips = guarded[idx].transpose(2, 1, 0).reshape(recs, blocks * k)[:, :n]
    bad = ~((totals > 0.0) & (totals < np.inf)) | trips

    # A block whose phase-3 end state disagrees with the next block's
    # phase-2 start lost accuracy in its product: steps up to its end
    # are settled, and the rest is evaluated again from that end state.
    drift = (np.abs(ends[:-1] - begin[1:]).max(axis=(2, 3)) > RESYNC_TOL).T
    out = []
    for r in range(recs):
        fail = int(np.argmax(bad[r])) if bad[r].any() else n
        settled = (int(np.argmax(drift[r])) + 1) * k if drift[r].any() else n
        if fail < settled:
            matrix = indices[r][fail] + shifts[r]
            out.append(_guard_error(totals[r, fail], table, matrix, offset + fail))
            continue
        logs = totals[r, :settled]  # overwritten in place: no copy per recursion
        np.negative(np.log(logs, out=logs), out=logs)
        out.append((logs, ends[settled // k - 1 if settled < n else -1, r, 0]))
    return out


def _one_state_logs(
    table: RealForm, guarded: np.ndarray, exps: np.ndarray, rec: Recursion, shift: int
):
    """The logs of a one-state recursion, or the error of its earliest
    guard trip, in closed form: its normalized state is 1 after every
    step, so each normalizer is its step's prescaled entry (times the
    start on the first step), as the blocked pass computes it."""
    matrix = rec.index + shift
    totals = table.mats[matrix, 0, 0]
    totals[0] *= rec.start[0]
    bad = ~((totals > 0.0) & (totals < np.inf)) | guarded[matrix]
    if bad.any():
        fail = int(np.argmax(bad))
        return _guard_error(totals[fail], table, matrix[fail], fail)
    logs = np.log(totals, out=totals)
    np.negative(logs, out=logs)
    logs -= LN2 * exps[matrix]
    return logs


def stack_key(rec: Recursion) -> tuple[int, bytes]:
    """Recursions with equal keys (length and closure, hence state size)
    can run as one stack."""
    return rec.index.size, rec.closure.tobytes()


def _stack_table(recs: Sequence[Recursion]) -> tuple:
    """One matrix table for a stack, the identity last, with the flags of
    its guarded matrices, each matrix's power-of-two exponent and each
    recursion's shift to its own matrices.

    Every matrix is scaled by an exact power of two to a largest entry in
    [0.5, 1), so that block products of steps of tiny probability do not
    underflow; a state normalized after such a step is unchanged, and the
    step's log gets the power's log back.
    """
    mats = np.concatenate([r.form.mats for r in recs] + [np.eye(recs[0].closure.size)[None]])
    exps = np.frexp(np.abs(mats).max(axis=(1, 2)))[1]
    table = RealForm(
        np.ldexp(mats, -exps[:, None, None]),
        np.concatenate([r.form.imag_residue for r in recs] + [[0.0]]),
        np.concatenate([r.form.herm_residue for r in recs] + [[0.0]]),
    )
    guarded = ~(table.imag_residue <= PMF_IMAG_GUARD) | ~(
        table.herm_residue <= STATE_HERMITICITY_GUARD
    )
    shifts = np.cumsum([0] + [len(r.form.mats) for r in recs[:-1]])
    return table, guarded, exps, shifts


def stacked_forward_logs(recs: Sequence[Recursion]) -> list:
    """Per-step natural scale logs of a stack of recursions that share one
    state size, one length and one closure, evaluated together.

    Returns, per recursion, its logs or the ``QchanrateError`` of its
    earliest guard trip; one recursion's trip leaves the others' logs
    unchanged.  A step that uses a matrix whose ``form`` residues exceed
    ``PMF_IMAG_GUARD`` or ``STATE_HERMITICITY_GUARD`` trips that guard.
    """
    closure = recs[0].closure
    n = recs[0].index.size
    if any(stack_key(r) != stack_key(recs[0]) for r in recs):
        raise ValueError("stacked recursions must share their length and closure")
    table, guarded, exps, shifts = _stack_table(recs)
    if closure.size == 1:
        return [_one_state_logs(table, guarded, exps, rec, shift)
                for rec, shift in zip(recs, shifts)]

    results: list = [None] * len(recs)
    parts: list[list[np.ndarray]] = [[] for _ in recs]
    pending = [(r, 0, rec.start) for r, rec in enumerate(recs)]
    while pending:
        # A recursion that resyncs reruns its unsettled tail; tails of
        # equal length run as one stack.
        by_length: dict[int, list] = {}
        for item in pending:
            by_length.setdefault(item[1], []).append(item)
        pending = []
        for pos, items in by_length.items():
            outcomes = _blocked_pass(
                table, guarded, closure,
                np.stack([vec for _, _, vec in items]),
                [recs[r].index[pos:] for r, _, _ in items],
                [shifts[r] for r, _, _ in items],
                pos,
            )
            for (r, _, _), outcome in zip(items, outcomes):
                if isinstance(outcome, QchanrateError):
                    results[r] = outcome
                    continue
                logs, end = outcome
                parts[r].append(logs)
                if pos + logs.size < n:
                    pending.append((r, pos + logs.size, end))
                else:
                    logs = parts[r][0] if len(parts[r]) == 1 else np.concatenate(parts[r])
                    logs -= LN2 * exps[recs[r].index + shifts[r]]
                    results[r] = logs
    return results


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


def pair_recursions(model, q: InputLaw, traj: Trajectory, joint: bool = True) -> list:
    """The output-only then (with ``joint``) the joint recursion of
    ``model`` on ``traj``.

    Building stops at the first recursion that cannot be built (a symbol
    outside the model's alphabet, say), whose error takes its place.
    """
    model = as_recursion_model(model)
    out: list = []
    for xs in (None, traj.x) if joint else (None,):
        try:
            out.append(recursion(model, q, traj.y, xs))
        except QchanrateError as exc:
            out.append(exc)
            break
    return out


def sampled_joint_logs(log_px: np.ndarray, traj: Trajectory) -> np.ndarray:
    """Per-step logs of the joint recursion of the quantum model that
    sampled ``traj``, from its sampler: -ln q(x_t) (``log_px``, from
    ``input_log_loss``) plus -ln p(y_t | x^t, y^{t-1}).

    A log that is not finite (a zero weight drawn on the last step)
    raises the joint recursion's ``ImpossibleObservationError`` at its
    step.
    """
    logs = traj.conditional_log_loss
    bad = ~np.isfinite(logs)
    if bad.any():
        raise _impossible(int(np.argmax(bad)))
    return log_px + logs


class RateRow(NamedTuple):
    """One row of ``estimate_rows``: ``model`` evaluated on ``traj`` under
    the input law ``q``, averaged over the whole trajectory.

    ``log_px`` is the input's per-step log losses (``input_log_loss``).
    With ``sampled_joint`` the joint sum comes from the sampler
    (``sampled_joint_logs``), which must have run ``model`` itself, and
    the row runs its output-only recursion only.
    """

    model: object
    q: InputLaw
    traj: Trajectory
    log_px: np.ndarray
    sampled_joint: bool = False


def estimate_rows(rows: Sequence[RateRow]) -> list:
    """The ``RateEstimate`` of each row, or the error that stopped it.

    The output-only and joint recursions of every row run in one engine
    stack per ``stack_key`` group, and each recursion's logs are reduced
    to their sum at once.  A row's error is its first: the output-only
    recursion's, then the joint one's.
    """
    sums: list[list] = []
    for row in rows:
        parts = pair_recursions(row.model, row.q, row.traj, joint=not row.sampled_joint)
        if row.sampled_joint:
            try:
                parts.append(float(sampled_joint_logs(row.log_px, row.traj).sum()))
            except QchanrateError as exc:
                parts.append(exc)
        sums.append(parts)

    stacks: dict[tuple, list[tuple[int, int]]] = {}
    for r, parts in enumerate(sums):
        for slot, rec in enumerate(parts):
            if isinstance(rec, Recursion):
                stacks.setdefault(stack_key(rec), []).append((r, slot))
    for members in stacks.values():
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
        scale = row.traj.n * LN2
        hx, hy, hxy = (s / scale for s in (float(row.log_px.sum()), *parts))
        out.append(RateEstimate(n=row.traj.n, hx=hx, hy=hy, hxy=hxy, ir=hx + hy - hxy))
    return out


def entropy_rate_estimates(model, q: InputLaw, traj: Trajectory) -> RateEstimate:
    """Estimate the entropy rates and information rate from one trajectory,
    averaged over all its steps.

    Both entropy rates of the model come from its recursions
    (``pair_recursions``), the sampler's logs unused.
    """
    (r,) = estimate_rows([RateRow(model, q, traj, input_log_loss(q, traj.x))])
    if isinstance(r, QchanrateError):
        raise r
    return r
