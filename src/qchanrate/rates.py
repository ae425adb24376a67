"""Information-rate estimation from sampled trajectories.

The estimators follow the classic scaled-forward scheme: advance an
unnormalized conditional description of the channel memory one
observation at a time, renormalize after every step, and accumulate the
logs of the normalizers.  The sum of those logs is exactly minus the log
probability of the conditioned observations, so

    (1/n) * sum(log lambda)  ==  -(1/n) * log p(observations).

Two recursion flavours share this structure, and one engine runs both:
each step is ``v <- v @ M`` followed by division by a linear closure of
``v``.

* classical state metric: a probability vector over latent states,
  normalized to unit sum;
* quantum state operator: a density-like matrix over the doubled memory
  index, flattened row-major and normalized to unit trace (its
  Hermiticity is repaired each step against bounded roundoff drift, with
  a residue guard that turns drift beyond roundoff into a hard error).

The engine evaluates the recursion in blocks of k = ceil(sqrt(n)) steps,
so that each of its three phases is a Python loop of about sqrt(n)
iterations over numpy calls batched across blocks, instead of one
interpreted iteration per step:

1. all block transfer products are formed together, every block
   advancing one step per iteration, each product rescaled by its
   largest entry so that it neither underflows nor overflows;
2. a sequential pass over the n/k blocks carries the normalized (and,
   for quantum states, Hermitian-repaired) state from each block's start
   to the next;
3. all blocks rerun their own steps together from those start states,
   yielding the exact per-step normalizers.

Phases 1 and 3 loop k times and phase 2 loops n/k times, so k = sqrt(n)
keeps every loop near sqrt(n) iterations (the interpreter's cost is per
iteration), while the block products take only n/k matrices of the step
size.

Every guard runs on every step in phase 3: the zero-probability check,
the imaginary-residue guard on the trace and the Hermiticity guard with
its repair.  A trip reports the earliest global step, with the same
error type as a step-by-step evaluation.  Phase 3 also checks each
block's end state against the next block's start from phase 2; a
product that lost accuracy (an entry underflowed to zero, say) shows as
a gap there, and the steps after that block are then evaluated again
from the block's end state.

Running the output-only recursion gives the output entropy rate; running
it with the inputs pinned (input-law factors included) gives the joint
entropy rate; the input entropy rate of an i.i.d. process is evaluated
in closed form.  Logs are natural internally and converted to bits at
the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
from .errors import ImpossibleObservationError, NumericalCorruptionError, SequenceError
from .linalg import hermiticity_residue
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


@dataclass
class StateMetric:
    """Normalized forward vector over latent states plus accumulated scale logs."""

    mu: np.ndarray
    log_scale_accum: float = 0.0


@dataclass
class StateOperator:
    """Normalized forward operator over the memory plus accumulated scale logs."""

    sigma: np.ndarray
    log_scale_accum: float = 0.0


class PerStepScales(NamedTuple):
    """Natural logs of the per-step normalizers of the two recursions."""

    output: np.ndarray
    joint: np.ndarray


@dataclass(frozen=True)
class RateEstimate:
    """Entropy-rate estimates (bits per use) and their combination."""

    n: int
    hx: float
    hy: float
    hxy: float
    ir: float
    per_step_log_scales: Optional[PerStepScales] = field(default=None, repr=False)


def initial_state_metric(f: ClassicalFsmc) -> StateMetric:
    return StateMetric(f.initial.astype(float).copy(), 0.0)


def initial_state_operator(t: TransferOperatorSet) -> StateOperator:
    return StateOperator(t.initial_state.astype(complex).copy(), 0.0)


def forward_step_classical(
    f: ClassicalFsmc,
    q: InputLaw,
    m: StateMetric,
    y_obs: int,
    x_obs: int | None = None,
) -> StateMetric:
    """Advance the classical forward vector by one observed output.

    Without ``x_obs`` the input is marginalized under the input law;
    with ``x_obs`` the input-law factor of the observed symbol is
    included, so the accumulated scale logs track the joint rather than
    the output-only sequence probability.
    """
    ker_y = f.kernel[:, :, :, y_obs]  # (S, X, S)
    if x_obs is None:
        raw = np.einsum("s,x,sxt->t", m.mu, q.p, ker_y)
    else:
        raw = q.p[x_obs] * (m.mu @ ker_y[:, x_obs, :])
    total = float(raw.sum())
    if total <= 0.0:
        raise ImpossibleObservationError(
            f"output {y_obs} has zero probability under the model"
        )
    return StateMetric(raw / total, m.log_scale_accum - math.log(total))


def forward_step_quantum(
    t: TransferOperatorSet,
    q: InputLaw,
    s: StateOperator,
    y_obs: int,
    x_obs: int | None = None,
) -> StateOperator:
    """Advance the quantum forward operator by one observed output."""
    w_y = t.tensors[:, y_obs]  # (X, S, S, S, S)
    if x_obs is None:
        raw = np.einsum("ij,x,xiujv->uv", s.sigma, q.p, w_y)
    else:
        raw = q.p[x_obs] * np.einsum("ij,iujv->uv", s.sigma, w_y[x_obs])
    trace = raw.trace()
    if abs(trace.imag) > PMF_IMAG_GUARD:
        raise NumericalCorruptionError(
            f"forward operator trace carries imaginary residue {abs(trace.imag):.3e}"
        )
    if trace.real <= 0.0:
        raise ImpossibleObservationError(
            f"output {y_obs} has zero probability under the model"
        )
    sigma = raw / trace.real
    res = hermiticity_residue(sigma)
    if res > STATE_HERMITICITY_GUARD:
        raise NumericalCorruptionError(
            f"forward operator Hermiticity residue {res:.3e} beyond guard"
        )
    sigma = 0.5 * (sigma + sigma.conj().T)
    return StateOperator(sigma, s.log_scale_accum - math.log(trace.real))


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
    mats = q.p[:, None, None, None] * xy_mats
    return mats.reshape(-1, *mats.shape[2:]), xs * y_size + ys


def _blocked_pass(
    start: np.ndarray,
    mats: np.ndarray,
    index: np.ndarray,
    closure: np.ndarray,
    state_dim: int | None,
    offset: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One three-phase pass over ``index``.

    Returns the per-step logs of the leading steps it settled (all of
    them unless a block end state disagreed with the next block's start)
    and the state after them.  ``mats`` carries the identity as its last
    entry, used to pad the final block.  A guard trip raises with the
    global step index ``offset + step``.
    """
    n = index.size
    k = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    blocks = -(-n // k)
    d = mats.shape[-1]
    idx = np.full(blocks * k, mats.shape[0] - 1)
    idx[:n] = index
    idx = idx.reshape(blocks, k)

    # Phase 1: all block transfer products at once, each rescaled by its
    # largest entry after every step.  A product that is all zero stays zero.
    prod = mats[idx[:, 0]]
    for j in range(1, k):
        prod = prod @ mats[idx[:, j]]
        peak = np.abs(prod).max(axis=(1, 2), keepdims=True)
        prod /= np.where(peak > 0.0, peak, 1.0)

    # Phase 2: block start states, one vector-matrix product per block.
    # A closure that is not positive leaves the later starts at the last
    # good state; phase 3 then finds the failing step or the mismatch.
    starts = np.empty((blocks, d), dtype=mats.dtype)
    vec = start
    for b in range(blocks):
        starts[b] = vec
        if b + 1 == blocks:
            break
        nxt = vec @ prod[b]
        total = (nxt @ closure).real
        if not total > 0.0:
            starts[b + 1:] = vec
            break
        vec = nxt / total
        if state_dim is not None:
            sig = vec.reshape(state_dim, state_dim)
            vec = (0.5 * (sig + sig.conj().T)).reshape(d)

    # Phase 3: exact per-step normalizers and guard inputs, all blocks
    # advancing together from their start states.
    vecs = starts
    totals = np.empty((blocks, k), dtype=mats.dtype)
    residues = np.zeros((blocks, k))
    for j in range(k):
        # reshape, not [:, 0, :]: on that strided view the complex
        # closure product below ran two orders of magnitude slower.
        nxt = (vecs[:, None, :] @ mats[idx[:, j]]).reshape(blocks, d)
        tot = nxt @ closure
        ok = tot.real > 0.0
        nxt /= np.where(ok, tot.real, 1.0)[:, None]
        if state_dim is not None:
            sig = nxt.reshape(blocks, state_dim, state_dim)
            residues[:, j] = hermiticity_residue(sig)
            nxt = (0.5 * (sig + sig.conj().swapaxes(1, 2))).reshape(blocks, d)
        vecs = np.where(ok[:, None], nxt, vecs)
        totals[:, j] = tot
    totals = totals.reshape(-1)[:n]
    residues = residues.reshape(-1)[:n]

    imag = np.abs(totals.imag)
    bad = (imag > PMF_IMAG_GUARD) | ~(totals.real > 0.0) | (residues > STATE_HERMITICITY_GUARD)
    # A block whose phase-3 end state disagrees with the next block's
    # phase-2 start lost accuracy in its product: steps up to its end
    # are settled, and the rest is evaluated again from that end state.
    drift = np.abs(vecs[:-1] - starts[1:]).max(axis=1) > RESYNC_TOL
    fail = int(np.argmax(bad)) if bad.any() else n
    settled = n
    if drift.any():
        settled = (int(np.argmax(drift)) + 1) * k
    if fail < settled:
        step = offset + fail
        if imag[fail] > PMF_IMAG_GUARD:
            raise NumericalCorruptionError(
                f"forward trace carries imaginary residue {imag[fail]:.3e} at step {step}"
            )
        if not totals.real[fail] > 0.0:
            raise ImpossibleObservationError(
                f"observation at step {step} has zero probability under the model"
            )
        raise NumericalCorruptionError(
            f"forward operator Hermiticity residue {residues[fail]:.3e} at step {step}"
        )
    end = vecs[settled // k - 1] if settled < n else vecs[-1]
    return -np.log(totals.real[:settled]), end


def _forward_logs(
    start: np.ndarray,
    mats: np.ndarray,
    index: np.ndarray,
    closure: np.ndarray,
    state_dim: int | None = None,
) -> np.ndarray:
    """Per-step natural scale logs of ``v <- v @ mats[index[t]]`` normalized by ``v @ closure``.

    With ``state_dim`` the vectors are row-major ``state_dim x
    state_dim`` operators: each normalized state is checked against the
    Hermiticity guard and then repaired, and the closure (the trace) is
    checked against the imaginary-residue guard.
    """
    d = mats.shape[-1]
    mats = np.concatenate([mats, np.eye(d, dtype=mats.dtype)[None]])
    parts = []
    pos = 0
    vec = start
    while pos < index.size:
        logs, vec = _blocked_pass(vec, mats, index[pos:], closure, state_dim, pos)
        parts.append(logs)
        pos += logs.size
    return np.concatenate(parts)


def scaled_forward_classical(
    f: ClassicalFsmc,
    q: InputLaw,
    ys: np.ndarray,
    xs: np.ndarray | None = None,
) -> np.ndarray:
    """Per-step natural scale logs of the classical forward recursion.

    The sum of the returned array is -log p(ys) (xs marginalized) or
    -log p(xs, ys) (xs pinned, input-law factors included).
    """
    mats, index = _step_matrices(q, f.kernel.transpose(1, 3, 0, 2), ys, xs)
    return _forward_logs(
        f.initial.astype(float), mats, index, np.ones(f.state_count)
    )


def scaled_forward_quantum(
    t: TransferOperatorSet,
    q: InputLaw,
    ys: np.ndarray,
    xs: np.ndarray | None = None,
) -> np.ndarray:
    """Per-step natural scale logs of the quantum forward recursion."""
    mats, index = _step_matrices(q, t.chain_operators, ys, xs)
    s = t.state_dim
    return _forward_logs(
        t.initial_state.reshape(s * s).astype(complex),
        mats,
        index,
        np.eye(s, dtype=complex).reshape(s * s),
        state_dim=s,
    )


def input_log_loss(q: InputLaw, xs: np.ndarray) -> np.ndarray:
    """Per-step -log p_X(x) of an i.i.d. input sequence (natural logs)."""
    xs = _check_symbols(xs, q.x_size, "input sequence")
    probs = q.p[xs]
    if probs.min() <= 0.0:
        raise ImpossibleObservationError(
            "input sequence contains a symbol of zero input probability"
        )
    return -np.log(probs)


def as_recursion_model(model):
    """Coerce any channel model to one the forward recursions accept."""
    if isinstance(model, Dmc):
        return fsmc_from_dmc(model)
    if isinstance(model, QuantumMemoryChannel):
        return compile_transfer_operators(model)
    if isinstance(model, (ClassicalFsmc, TransferOperatorSet)):
        return model
    raise TypeError(f"unsupported model type {type(model).__name__}")


def entropy_rate_estimates(
    model,
    q: InputLaw,
    traj: Trajectory,
    burn_in: int = 0,
    keep_scales: bool = False,
) -> RateEstimate:
    """Estimate the entropy rates and information rate from one trajectory.

    ``burn_in`` discards the first steps from all three per-step series
    before averaging (none by default).  With ``keep_scales`` the raw
    per-step scale logs of both recursions ride along on the result.
    """
    model = as_recursion_model(model)
    if burn_in < 0 or burn_in >= traj.n:
        raise ValueError(f"burn_in must lie in [0, n), got {burn_in}")
    log_px = input_log_loss(q, traj.x)
    if isinstance(model, ClassicalFsmc):
        ly = scaled_forward_classical(model, q, traj.y)
        lxy = scaled_forward_classical(model, q, traj.y, traj.x)
    else:
        ly = scaled_forward_quantum(model, q, traj.y)
        lxy = scaled_forward_quantum(model, q, traj.y, traj.x)
    steps = traj.n - burn_in
    hx = float(log_px[burn_in:].sum()) / (steps * LN2)
    hy = float(ly[burn_in:].sum()) / (steps * LN2)
    hxy = float(lxy[burn_in:].sum()) / (steps * LN2)
    return RateEstimate(
        n=traj.n,
        hx=hx,
        hy=hy,
        hxy=hxy,
        ir=hx + hy - hxy,
        per_step_log_scales=PerStepScales(ly, lxy) if keep_scales else None,
    )
