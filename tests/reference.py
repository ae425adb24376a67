"""Sequential reference for the forward engine and the quantum sampler.

One step of the forward recursion in complex arithmetic, read off the
model's own definition as ``oracle._model_pieces`` reads it: the
classical kernel, or the quantum ``chain_operators`` closed by the
trace.  There is no real packed form and no blocking, so the reference
shares nothing with the engine but the model.  A step raises the
engine's error types: a normalizer that is not finite or not positive,
an imaginary trace residue above ``PMF_IMAG_GUARD``, or a normalized
state operator whose Hermiticity residue exceeds
``STATE_HERMITICITY_GUARD``.

The same step without the input-law factor conditions the quantum
sampler's state.  The sampler's single-step route weighs every output
from the state, then calls ``sampling._finalize_pmf`` and
``sampling.draw_index``, then conditions the state on the drawn output.
For a classical model the route walks the latent state instead, one
guarded joint pmf of (next state, output) per step.

``oracle_joint_prob`` and ``oracle_output_prob`` sum over latent paths
literally, and ``dmc_information_rate`` is a memoryless law's exact rate.

``partial_trace_oracle`` traces out one factor of a bipartite operator by
a direct double sum, for tests that follow the channel's physics from
its pieces.

``transfer_operators`` compiles a quantum-memory channel one (x, y) pair
at a time, each pair's operator its own contraction, for a bit-for-bit
check of ``channels.compile_transfer_operators``' single contraction.
"""

import math
from typing import NamedTuple

import numpy as np

from qchanrate import channels, oracle, sampling
from qchanrate.channels import InputLaw
from qchanrate.errors import (
    ImpossibleObservationError,
    NumericalCorruptionError,
    QchanrateError,
)
from qchanrate.linalg import hermiticity_residue
from qchanrate.sampling import PMF_IMAG_GUARD, STATE_HERMITICITY_GUARD


class Pieces(NamedTuple):
    """A model's start state (a probability vector or a state operator),
    its step matrices ``mats[x, y]``, acting by
    ``state.reshape(-1) @ mats[x, y]``, and the closure vector that gives
    a state's total."""

    start: np.ndarray
    mats: np.ndarray
    closure: np.ndarray


def pieces(model) -> Pieces:
    """The ``Pieces`` of a classical, compiled or raw quantum model; a raw
    one is compiled here."""
    if isinstance(model, channels.QuantumMemoryChannel):
        model = channels.compile_transfer_operators(model)
    if isinstance(model, channels.ClassicalFsmc):
        mats = model.kernel.transpose(1, 3, 0, 2)  # (X, Y, S, S)
        return Pieces(
            model.initial.astype(complex), mats.astype(complex), np.ones(model.state_count)
        )
    s = model.state_dim
    return Pieces(
        model.initial_state.astype(complex), model.chain_operators, np.eye(s).reshape(s * s)
    )


def step(state: np.ndarray, mat: np.ndarray, closure: np.ndarray):
    """The state after ``mat``, normalized, and the step's natural log
    (minus the log of the normalizer)."""
    raw = state.reshape(-1) @ mat
    total = raw @ closure
    if not np.isfinite(total):
        raise NumericalCorruptionError(f"normalizer is {total}")
    if abs(total.imag) > PMF_IMAG_GUARD:
        raise NumericalCorruptionError(f"trace carries imaginary residue {abs(total.imag):.3e}")
    if not total.real > 0.0:
        raise ImpossibleObservationError("observation has zero probability under the model")
    nxt = (raw / total.real).reshape(state.shape)
    if nxt.ndim == 2:
        res = hermiticity_residue(nxt)
        if not res <= STATE_HERMITICITY_GUARD:
            raise NumericalCorruptionError(f"state Hermiticity residue {res:.3e} beyond guard")
        nxt = 0.5 * (nxt + nxt.conj().T)
    return nxt, -math.log(total.real)


def forward_steps(model, q, ys, xs=None):
    """Yield each step's log and state in turn, on ``ys`` (inputs
    marginalized under ``q``) or on ``(xs, ys)`` (input-law factors
    included); a guard raises at its step."""
    p = pieces(model)
    marginal = np.einsum("x,xyab->yab", q.p, p.mats)
    state = p.start
    for i, y in enumerate(ys):
        mat = marginal[y] if xs is None else q.p[xs[i]] * p.mats[xs[i], y]
        state, log = step(state, mat, p.closure)
        yield log, state


def iterate_steps(model, q, ys, xs=None):
    """The per-step logs, the last state, and ``(step, exception)`` of
    the first step that raised, or None."""
    logs, state = [], None
    try:
        for log, state in forward_steps(model, q, ys, xs):
            logs.append(log)
    except QchanrateError as exc:
        return np.array(logs), state, (len(logs), exc)
    return np.array(logs), state, None


def output_pmf(p: Pieces, state: np.ndarray, x: int) -> np.ndarray:
    """The guarded distribution of the next output on input ``x``."""
    weights = (state.reshape(-1) @ p.mats[x]) @ p.closure
    imag = float(np.abs(weights.imag).max())
    if imag > PMF_IMAG_GUARD:
        raise NumericalCorruptionError(f"output weights carry imaginary residue {imag:.3e}")
    return sampling._finalize_pmf(weights.real)


def condition(p: Pieces, state: np.ndarray, x: int, y: int) -> np.ndarray:
    """The state given one more (input, output) pair."""
    return step(state, p.mats[x, y], p.closure)[0]


def sample_outputs(model, xs, us):
    """The outputs the single-step route draws on inputs ``xs`` with
    uniforms ``us``, and ``(step, exception)`` of the first step that
    raised, or None.

    A quantum model draws each output from its state given the past.  A
    classical model walks its latent state: ``us[0]`` draws the start
    state from ``initial``, and ``us[t + 1]`` draws step t's (next state,
    output) pair from the guarded joint pmf of the current state and the
    input."""
    if isinstance(model, channels.ClassicalFsmc):
        return _sample_classical_outputs(model, xs, us)
    p = pieces(model)
    state = p.start
    ys = []
    try:
        for x, u in zip(xs, us):
            y = sampling.draw_index(output_pmf(p, state, x), u)
            state = condition(p, state, x, y)
            ys.append(y)
    except QchanrateError as exc:
        return np.array(ys, dtype=np.int64), (len(ys), exc)
    return np.array(ys, dtype=np.int64), None


def _sample_classical_outputs(f: channels.ClassicalFsmc, xs, us):
    state = sampling.draw_index(f.initial, us[0])
    ys = []
    try:
        for x, u in zip(xs, us[1:]):
            joint = f.kernel[state, x].reshape(-1)
            state, y = divmod(sampling.draw_index(sampling._finalize_pmf(joint), u), f.y_size)
            ys.append(y)
    except QchanrateError as exc:
        return np.array(ys, dtype=np.int64), (len(ys), exc)
    return np.array(ys, dtype=np.int64), None


def _path_product_sum(init: np.ndarray, step_mats, close: np.ndarray | None):
    """Literal sum over latent paths of init * per-step factors (* closure)."""
    size = init.shape[0]
    steps = len(step_mats)
    oracle._check_terms(size ** (steps + 1), "path enumeration")
    paths = oracle._index_sequences(size, steps + 1)
    amp = init[paths[:, 0]].copy()
    for step, mat in enumerate(step_mats):
        amp *= mat[paths[:, step], paths[:, step + 1]]
    if close is not None:
        amp *= close[paths[:, -1]]
    return amp.sum()


def _as_real_g(g, what: str) -> float:
    if isinstance(g, complex):
        if abs(g.imag) > oracle.G_IMAG_GUARD:
            raise NumericalCorruptionError(
                f"{what} has imaginary residue {abs(g.imag):.3e}"
            )
        return g.real
    return float(g)


def oracle_joint_prob(model, q: InputLaw, xs, ys) -> float:
    """Exact p(xs, ys) as an explicit sum over latent paths."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    oracle._prep(model, q, len(ys))
    if xs.shape != ys.shape:
        raise ValueError("input and output sequences differ in length")
    init, mats, close = oracle._model_pieces(model)
    g = _path_product_sum(init, [mats[x, y] for x, y in zip(xs, ys)], close)
    g = _as_real_g(g, "enumerated joint function")
    return float(np.prod(q.p[xs]) * g)


def oracle_output_prob(model, q: InputLaw, ys) -> float:
    """Exact p(ys): the joint summed over every input sequence.

    The input-sequence sum is distributed into the per-step factors
    (exact for an i.i.d. input); the latent paths are still enumerated
    literally.
    """
    ys = np.asarray(ys, dtype=np.int64)
    oracle._prep(model, q, len(ys))
    init, mats, close = oracle._model_pieces(model)
    weighted = np.einsum("x,xyab->yab", q.p, np.asarray(mats))
    g = _path_product_sum(init, [weighted[y] for y in ys], close)
    return _as_real_g(g, "enumerated output function")


def dmc_information_rate(q: InputLaw, w: np.ndarray) -> float:
    """Exact information rate of a memoryless law ``w[x, y]`` = W(y|x),
    in bits per use.

    Terms with zero joint probability contribute nothing; a positive
    transition into an output of zero marginal probability is impossible
    for consistent inputs and would indicate a broken law.
    """
    w = np.asarray(w, dtype=float)
    if q.x_size != w.shape[0]:
        raise ValueError(
            f"input law has {q.x_size} symbols but the law expects {w.shape[0]}"
        )
    qy = q.p @ w
    joint = q.p[:, None] * w
    mask = joint > 0
    if np.any(mask & (qy[None, :] <= 0)):
        raise NumericalCorruptionError(
            "positive joint probability with zero output marginal"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, w / qy[None, :], 1.0)
    return float((joint[mask] * np.log2(ratio[mask])).sum())


def partial_trace_oracle(a, d1, d2, keep):
    """Direct double-sum over the traced index of an operator on a
    ``d1 * d2`` space, first factor slow; ``keep`` names the factor that
    survives ("first" or "second")."""
    if keep == "first":
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for k in range(d1):
                out[i, k] = sum(a[i * d2 + j, k * d2 + j] for j in range(d2))
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for j in range(d2):
            for l in range(d2):
                out[j, l] = sum(a[i * d2 + j, i * d2 + l] for i in range(d1))
    return out


def transfer_operators(ch: channels.QuantumMemoryChannel) -> np.ndarray:
    """The (X, Y, S*S, S*S) transfer operators of ``ch``, one einsum per
    (x, y) pair over the measured interaction operators of output y,
    encoding x and their conjugates."""
    d, s = ch.transmit_dim, ch.state_dim
    fold = np.kron(ch.inter_use_unitary, np.eye(d, dtype=complex))
    tilde = np.einsum("ab,kbc->kac", fold, ch.kraus)
    ops = np.empty((ch.x_size, ch.y_size, s * s, s * s), dtype=complex)
    eye_s = np.eye(s, dtype=complex)
    for y in range(ch.y_size):
        measured = np.einsum("ab,kbc->kac", np.kron(eye_s, ch.measurements[y]), tilde)
        f4 = measured.reshape(-1, s, d, s, d)
        for x in range(ch.x_size):
            w4 = np.einsum("kucia,ab,kvcjb->iujv", f4, ch.encodings[x], f4.conj())
            ops[x, y] = w4.reshape(s * s, s * s)
    return ops
