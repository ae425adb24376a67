"""Exact sequence probabilities by literal path enumeration.

This is the independent cross-check for the scaled forward recursions:
probabilities are computed as explicit sums over every latent path (all
state sequences for classical kernels, all doubled-state sequences for
transfer-operator sets), multiplying per-step factors path by path.
There is no per-step normalization and no reuse of partial sums across
paths, so the only structure shared with the recursion engines is the
model definition itself.

For output-sequence probabilities the sum over input sequences is
distributed into the per-step factors (each input symbol appears in
exactly one factor of the i.i.d. product, so the exchange is exact);
``brute_force_oracle`` builds the full joint table by enumerating input
sequences outright, which lets tests confirm that distributed sum
against the literal one.

Everything here is exponential in the sequence length and guarded by a
term budget: the documented precondition ``X**n * Y**n * S**4 <=
ORACLE_TERM_BUDGET`` for full tables, plus a hard cap on the number of
enumerated terms for any single call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ClassicalFsmc, InputLaw, TransferOperatorSet, as_recursion_model
from .errors import NumericalCorruptionError, OracleBudgetError

ORACLE_TERM_BUDGET = 10**8
MAX_ORACLE_N = 10
G_IMAG_GUARD = 1e-9


def _index_sequences(base: int, length: int) -> np.ndarray:
    """All length-``length`` sequences over {0..base-1}, first symbol slow."""
    grids = np.indices((base,) * length).reshape(length, -1).T
    return np.ascontiguousarray(grids)


def _seq_code(seq: np.ndarray, base: int) -> int:
    code = 0
    for symbol in seq:
        code = code * base + int(symbol)
    return code


def _check_terms(count: int, what: str) -> None:
    if count > ORACLE_TERM_BUDGET:
        raise OracleBudgetError(
            f"{what} needs {count:.3e} enumerated terms, budget is {ORACLE_TERM_BUDGET:.1e}"
        )


def _path_product_sum(init: np.ndarray, step_mats, close: np.ndarray | None):
    """Literal sum over latent paths of init * per-step factors (* closure)."""
    size = init.shape[0]
    steps = len(step_mats)
    _check_terms(size ** (steps + 1), "path enumeration")
    paths = _index_sequences(size, steps + 1)
    amp = init[paths[:, 0]].copy()
    for step, mat in enumerate(step_mats):
        amp *= mat[paths[:, step], paths[:, step + 1]]
    if close is not None:
        amp *= close[paths[:, -1]]
    return amp.sum()


def _model_pieces(model):
    """(initial vector, per-(x, y) step factor matrices, closure vector)."""
    if isinstance(model, ClassicalFsmc):
        mats = model.kernel.transpose(1, 3, 0, 2)  # (X, Y, S, S)
        return model.initial, mats, None
    s = model.state_dim
    idx = np.arange(s * s)
    close = (idx // s == idx % s).astype(complex)
    return model.initial_state.reshape(s * s), model.chain_operators, close


def _as_real_g(g, what: str) -> float:
    if isinstance(g, complex):
        if abs(g.imag) > G_IMAG_GUARD:
            raise NumericalCorruptionError(
                f"{what} has imaginary residue {abs(g.imag):.3e}"
            )
        return g.real
    return float(g)


def _prep(model, q: InputLaw, n: int):
    model = as_recursion_model(model)
    if n < 1 or n > MAX_ORACLE_N:
        raise OracleBudgetError(f"oracle length must lie in [1, {MAX_ORACLE_N}], got {n}")
    if q.x_size != model.x_size:
        raise ValueError("input law size does not match the model input alphabet")
    return model


def oracle_joint_prob(model, q: InputLaw, xs, ys) -> float:
    """Exact p(xs, ys) as an explicit sum over latent paths."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    model = _prep(model, q, len(ys))
    if xs.shape != ys.shape:
        raise ValueError("input and output sequences differ in length")
    init, mats, close = _model_pieces(model)
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
    model = _prep(model, q, len(ys))
    init, mats, close = _model_pieces(model)
    weighted = np.einsum("x,xyab->yab", q.p, np.asarray(mats))
    g = _path_product_sum(init, [weighted[y] for y in ys], close)
    return _as_real_g(g, "enumerated output function")


def _joint_g_per_x(model, xseqs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Path sums for every input sequence at once (input-law factors excluded)."""
    init, mats, close = _model_pieces(model)
    size = init.shape[0]
    paths = _index_sequences(size, len(ys) + 1)
    amp = np.broadcast_to(init[paths[:, 0]], (len(xseqs), len(paths))).copy()
    for step in range(len(ys)):
        factors = mats[:, ys[step]][:, paths[:, step], paths[:, step + 1]]  # (X, paths)
        amp *= factors[xseqs[:, step]]
    if close is None:
        g = amp.sum(axis=1)
    else:
        g = amp @ close[paths[:, -1]]
        worst = float(np.abs(g.imag).max())
        if worst > G_IMAG_GUARD:
            raise NumericalCorruptionError(
                f"enumerated joint function has imaginary residue {worst:.3e}"
            )
        g = g.real
    return np.asarray(g, dtype=float)


@dataclass(frozen=True)
class OracleTables:
    """Exact joint and output-sequence probability tables.

    ``joint[i, j]`` is p(x-sequence i, y-sequence j) with sequences coded
    big-endian (first symbol most significant); ``output`` is the joint
    summed over input sequences.
    """

    joint: np.ndarray
    output: np.ndarray
    x_size: int
    y_size: int
    n: int

    def joint_prob(self, xs, ys) -> float:
        return float(
            self.joint[_seq_code(np.asarray(xs), self.x_size),
                       _seq_code(np.asarray(ys), self.y_size)]
        )

    def output_prob(self, ys) -> float:
        return float(self.output[_seq_code(np.asarray(ys), self.y_size)])


def brute_force_oracle(model, q: InputLaw, n: int) -> OracleTables:
    """Enumerate the full joint table p(x-sequence, y-sequence) at length n.

    Inputs are enumerated literally here (no distributed sum), so the
    table doubles as a check on ``oracle_output_prob``.
    """
    model = _prep(model, q, n)
    n_x, n_y = model.x_size, model.y_size
    states = model.state_count if isinstance(model, ClassicalFsmc) else model.state_dim
    _check_terms(n_x**n * n_y**n * states**4, "joint table")
    xseqs = _index_sequences(n_x, n)
    yseqs = _index_sequences(n_y, n)
    latent = states ** 2 if isinstance(model, TransferOperatorSet) else states
    _check_terms(len(xseqs) * len(yseqs) * latent ** (n + 1), "joint table enumeration")
    weights = np.prod(q.p[xseqs], axis=1)
    joint = np.empty((len(xseqs), len(yseqs)))
    for j, ys in enumerate(yseqs):
        joint[:, j] = weights * _joint_g_per_x(model, xseqs, ys)
    return OracleTables(joint, joint.sum(axis=0), n_x, n_y, n)
