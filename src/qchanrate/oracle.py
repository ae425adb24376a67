"""Exact sequence probabilities by literal path enumeration.

This is the independent cross-check for the scaled forward recursions:
probabilities are computed as explicit sums over every latent path (all
state sequences for classical kernels, all doubled-state sequences for
transfer-operator sets), multiplying per-step factors path by path.
There is no per-step normalization and no reuse of partial sums across
paths, so the only structure shared with the recursion engines is the
model definition itself.

``brute_force_oracle`` builds the full joint table by enumerating input
sequences outright.  The tests' per-sequence reference distributes the
input sum into the per-step factors instead (exact for an i.i.d. input)
and checks that distributed sum against this table.

Everything here is exponential in the sequence length and guarded by a
term budget: the documented precondition ``X**n * Y**n * S**4 <=
ORACLE_TERM_BUDGET`` for full tables, plus a hard cap on the number of
enumerated terms for any single call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ClassicalFsmc, InputLaw, TransferOperatorSet, as_recursion_model
from .errors import NumericalCorruptionError, OracleBudgetError, SequenceError

ORACLE_TERM_BUDGET = 10**8
MAX_ORACLE_N = 10
G_IMAG_GUARD = 1e-9


def _index_sequences(base: int, length: int) -> np.ndarray:
    """All length-``length`` sequences over {0..base-1}, first symbol slow."""
    grids = np.indices((base,) * length).reshape(length, -1).T
    return np.ascontiguousarray(grids)


def _seq_code(seq, base: int, n: int, name: str) -> int:
    """Big-endian code of a length-``n`` sequence over {0..base-1}."""
    arr = np.asarray(seq)
    if arr.shape != (n,) or arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= base:
        raise SequenceError(f"{name} must hold {n} integer symbols in [0, {base})")
    code = 0
    for symbol in arr.tolist():
        code = code * base + symbol
    return code


def _check_terms(count: int, what: str) -> None:
    if count > ORACLE_TERM_BUDGET:
        raise OracleBudgetError(
            f"{what} needs {count:.3e} enumerated terms, budget is {ORACLE_TERM_BUDGET:.1e}"
        )


def _model_pieces(model):
    """(initial vector, per-(x, y) step factor matrices, closure vector)."""
    if isinstance(model, ClassicalFsmc):
        mats = model.kernel.transpose(1, 3, 0, 2)  # (X, Y, S, S)
        return model.initial, mats, None
    s = model.state_dim
    idx = np.arange(s * s)
    close = (idx // s == idx % s).astype(complex)
    return model.initial_state.reshape(s * s), model.chain_operators, close


def _prep(model, q: InputLaw, n: int):
    model = as_recursion_model(model)
    if n < 1 or n > MAX_ORACLE_N:
        raise OracleBudgetError(f"oracle length must lie in [1, {MAX_ORACLE_N}], got {n}")
    if q.x_size != model.x_size:
        raise ValueError("input law size does not match the model input alphabet")
    return model


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
        """p(xs, ys); ``SequenceError`` unless both hold n symbols of
        their alphabets."""
        return float(
            self.joint[_seq_code(xs, self.x_size, self.n, "input sequence"),
                       _seq_code(ys, self.y_size, self.n, "output sequence")]
        )

    def output_prob(self, ys) -> float:
        """p(ys); ``SequenceError`` unless it holds n output symbols."""
        return float(self.output[_seq_code(ys, self.y_size, self.n, "output sequence")])


def brute_force_oracle(model, q: InputLaw, n: int) -> OracleTables:
    """Enumerate the full joint table p(x-sequence, y-sequence) at length n.

    Inputs are enumerated literally here (no distributed sum), so the
    table doubles as a check on a distributed one.
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
