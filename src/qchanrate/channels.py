"""Channel models: finite-state channels and quantum-state channels.

Two model families live here.

* ``ClassicalFsmc``: a finite-state channel with kernel
  ``W(s_next, y | s_prev, x)``, stored as ``kernel[s_prev, x, s_next, y]``.
  A memoryless law W(y|x) is its one-state case.
* ``QuantumMemoryChannel``: per-use interaction of a transmit system with
  a persistent quantum memory, given by Kraus operators on the joint
  (state slow, transmit fast) space, input encodings, measurement
  operators on the transmit system, an optional inter-use unitary on the
  memory, and an initial memory state.

A ``QuantumMemoryChannel`` is compiled once into a ``TransferOperatorSet``:
for every input/output pair (x, y) a positive semidefinite matrix over
doubled memory indices that advances the doubled-state recursion by one
channel use.  Rows and columns of each transfer operator are indexed by
pairs (previous state, next state) with the previous index slow.  The set
must satisfy two conditions:

* each transfer operator is p.s.d. (as a matrix over the doubled index);
* summing over outputs and closing the next-state indices against each
  other returns the identity on the previous-state indices
  (trace consistency; this is what makes output probabilities normalize).

A classical kernel is the diagonal special case of a transfer-operator
set, which the tests use as a cross-validation bridge between the
classical and quantum recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ModelValidationError, OperatorError, QchanrateError, SequenceError
from .linalg import (
    EPS_TRACE,
    EPS_UNITARY,
    CheckResult,
    as_operator,
    expm_skew_hermitian,
    is_psd,
    unitarity_residue,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Default evolution generators for the quantum Gilbert-Elliott builders.
# These are repo-chosen reference values (any fixed Hermitian matrix
# defines a valid channel); the two-qubit one has four distinct
# eigenvalues so the inter-use evolution mixes all memory levels.
DEFAULT_SINGLE_QUBIT_H = PAULI_X
DEFAULT_TWO_QUBIT_H = np.array(
    [
        [0.9, 0.4 - 0.2j, 0.1 + 0.3j, 0.0],
        [0.4 + 0.2j, -0.6, 0.2j, 0.1],
        [0.1 - 0.3j, -0.2j, 0.3, 0.5 - 0.1j],
        [0.0, 0.1, 0.5 + 0.1j, -0.8],
    ],
    dtype=complex,
)


def _check_probability(p: float, name: str) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0) or not np.isfinite(p):
        raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class InputLaw:
    """Per-symbol input distribution of an i.i.d. input process."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("input law must be a 1-D probability vector")
        lo, total = p.min(), p.sum()
        if not (lo >= 0 and abs(total - 1.0) <= EPS_TRACE):
            raise ValueError(f"input law must be a pmf (min {lo:.3e}, sum {total!r})")
        object.__setattr__(self, "p", p)

    @property
    def x_size(self) -> int:
        return self.p.size

    def check_fits(self, model) -> None:
        """Raise ``TypeError`` unless ``model`` is compiled (a ``ClassicalFsmc``
        or a ``TransferOperatorSet``), then ``SequenceError`` unless the law
        has one entry per input symbol of it."""
        if not isinstance(model, (ClassicalFsmc, TransferOperatorSet)):
            raise TypeError(f"expected a ClassicalFsmc or a TransferOperatorSet, got "
                            f"{type(model).__name__}; compile it with compile_transfer_operators")
        if self.x_size != model.x_size:
            raise SequenceError("input law size does not match the model input alphabet")


def uniform_input(x_size: int = 2) -> InputLaw:
    return InputLaw(np.full(x_size, 1.0 / x_size))


@dataclass(frozen=True)
class ClassicalFsmc:
    """Finite-state channel, kernel indexed ``[s_prev, x, s_next, y]``."""

    kernel: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        p0 = np.asarray(self.initial, dtype=float)
        if k.ndim != 4 or k.shape[0] != k.shape[2] or 0 in k.shape:
            raise ValueError(
                f"kernel must have shape (S, X, S, Y), got {k.shape}"
            )
        if p0.shape != (k.shape[0],):
            raise ValueError(
                f"initial state pmf has length {p0.shape}, expected ({k.shape[0]},)"
            )
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "initial", p0)

    @property
    def state_count(self) -> int:
        return self.kernel.shape[0]

    @property
    def x_size(self) -> int:
        return self.kernel.shape[1]

    @property
    def y_size(self) -> int:
        return self.kernel.shape[3]


@dataclass(frozen=True)
class QuantumMemoryChannel:
    """Quantum-memory channel specification before compilation.

    ``kraus`` operators act on the joint (state slow, transmit fast)
    space and must be square: the transmit system is measured in a space
    of the same dimension it is sent in.  ``encodings[x]`` is the density
    matrix Alice prepares for input symbol x, ``measurements[y]`` the
    measurement operator for outcome y, ``inter_use_unitary`` the memory
    evolution applied between uses, ``initial_state`` the memory state
    before the first use.
    """

    state_dim: int
    encodings: np.ndarray
    kraus: np.ndarray
    measurements: np.ndarray
    inter_use_unitary: np.ndarray
    initial_state: np.ndarray

    def __post_init__(self):
        enc = np.asarray(self.encodings, dtype=complex)
        kr = np.asarray(self.kraus, dtype=complex)
        meas = np.asarray(self.measurements, dtype=complex)
        u = np.asarray(self.inter_use_unitary, dtype=complex)
        rho0 = np.asarray(self.initial_state, dtype=complex)
        s = int(self.state_dim)
        if s < 1:
            raise ValueError("state_dim must be >= 1")
        if enc.ndim != 3 or enc.shape[1] != enc.shape[2] or 0 in enc.shape:
            raise ValueError(f"encodings must have shape (X, d, d), got {enc.shape}")
        d = enc.shape[1]
        if kr.ndim != 3 or kr.shape[1] != kr.shape[2]:
            raise ValueError(
                "kraus operators must be square (equal input and output "
                f"transmit dimensions are assumed), got shape {kr.shape}"
            )
        if kr.shape[1] != d * s:
            raise ValueError(
                f"kraus operators act on dimension {kr.shape[1]}, expected "
                f"transmit_dim * state_dim = {d * s}"
            )
        if meas.ndim != 3 or meas.shape[1:] != (d, d) or meas.shape[0] == 0:
            raise ValueError(f"measurements must have shape (Y, {d}, {d}), got {meas.shape}")
        if u.shape != (s, s):
            raise ValueError(f"inter-use unitary must be {s}x{s}, got {u.shape}")
        if rho0.shape != (s, s):
            raise ValueError(f"initial state must be {s}x{s}, got {rho0.shape}")
        object.__setattr__(self, "encodings", enc)
        object.__setattr__(self, "kraus", kr)
        object.__setattr__(self, "measurements", meas)
        object.__setattr__(self, "inter_use_unitary", u)
        object.__setattr__(self, "initial_state", rho0)

    @property
    def transmit_dim(self) -> int:
        return self.encodings.shape[1]

    @property
    def x_size(self) -> int:
        return self.encodings.shape[0]

    @property
    def y_size(self) -> int:
        return self.measurements.shape[0]


@dataclass(frozen=True)
class TransferOperatorSet:
    """Compiled per-use transfer operators of a quantum-memory channel.

    ``operators[x, y]`` is the p.s.d. matrix over doubled memory indices,
    rows labelled (s_prev, s_next) with s_prev slow, columns the primed
    copy.  ``initial_state`` is the memory density matrix the recursion
    starts from.
    """

    operators: np.ndarray
    initial_state: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        rho0 = np.asarray(self.initial_state, dtype=complex)
        if ops.ndim != 4 or ops.shape[2] != ops.shape[3] or 0 in ops.shape:
            raise ValueError(f"operators must have shape (X, Y, S^2, S^2), got {ops.shape}")
        s = int(round(np.sqrt(ops.shape[2])))
        if s * s != ops.shape[2]:
            raise ValueError(f"operator dimension {ops.shape[2]} is not a perfect square")
        if rho0.shape != (s, s):
            raise ValueError(f"initial state must be {s}x{s}, got {rho0.shape}")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "initial_state", rho0)

    @property
    def state_dim(self) -> int:
        return self.initial_state.shape[0]

    @property
    def x_size(self) -> int:
        return self.operators.shape[0]

    @property
    def y_size(self) -> int:
        return self.operators.shape[1]

    @cached_property
    def tensors(self) -> np.ndarray:
        """Six-axis view ``[x, y, s_prev, s_next, s'_prev, s'_next]``."""
        s = self.state_dim
        return self.operators.reshape(self.x_size, self.y_size, s, s, s, s)

    @cached_property
    def chain_operators(self) -> np.ndarray:
        """Chain layout ``[x, y, (s_prev, s'_prev), (s_next, s'_next)]``.

        Advances the doubled-state recursion by plain vector-matrix
        products: ``next_vec = vec @ chain_operators[x, y]`` where ``vec``
        is the row-major flattening of the doubled-state operator.
        """
        s = self.state_dim
        z = self.tensors.transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(z.reshape(self.x_size, self.y_size, s * s, s * s))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_bsc(p: float) -> ClassicalFsmc:
    """Binary symmetric channel with crossover probability p, as a
    one-state channel: ``kernel[0, x, 0, y] = W(y | x)``."""
    p = _check_probability(p, "crossover probability")
    w = np.array([[1.0 - p, p], [p, 1.0 - p]])
    return ClassicalFsmc(w[None, :, None, :], np.array([1.0]))


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary pmf of a row-stochastic matrix; uniform when not unique.

    An eigenvalue within 1e-12 of 1, a few thousand ulps, counts as a
    unit eigenvalue, so a chain whose spectral gap is below that also
    gets the uniform pmf.
    """
    t = np.asarray(transition, dtype=float)
    n = t.shape[0]
    w, v = np.linalg.eig(t.T)
    near_one = np.abs(w - 1.0) < 1e-12
    if near_one.sum() != 1:
        return np.full(n, 1.0 / n)
    vec = np.real(v[:, near_one.argmax()])
    vec = np.clip(-vec if vec.sum() < 0 else vec, 0.0, None)  # eig's sign is arbitrary
    if vec.sum() <= 0:
        return np.full(n, 1.0 / n)
    return vec / vec.sum()


def build_gilbert_elliott(
    p_g: float,
    p_b: float,
    transition: np.ndarray,
    initial: np.ndarray | None = None,
) -> ClassicalFsmc:
    """Two-state burst-noise channel: BSC(p_g) in the "good" state (index
    0), BSC(p_b) in the "bad" state (index 1).

    The state chain evolves independently of the input; the emitted bit
    is flipped with the probability of the *previous* state, i.e.
    ``kernel[s, x, t, y] = transition[s, t] * BSC(p_s)(y | x)``.
    ``initial`` defaults to the stationary distribution of ``transition``.
    The model is validated (``require_valid``), a given ``initial`` too.
    """
    p_g = _check_probability(p_g, "p_g")
    p_b = _check_probability(p_b, "p_b")
    t = np.asarray(transition, dtype=float)
    if t.shape != (2, 2):
        raise ValueError(f"transition must be 2x2, got {t.shape}")
    if not (t.min() >= 0 and np.abs(t.sum(axis=1) - 1.0).max() <= EPS_TRACE):
        raise ValueError("transition rows must be pmfs")
    flip = np.array(
        [
            [[1.0 - p_g, p_g], [p_g, 1.0 - p_g]],
            [[1.0 - p_b, p_b], [p_b, 1.0 - p_b]],
        ]
    )  # (s, x, y)
    kernel = t[:, None, :, None] * flip[:, :, None, :]
    p0 = stationary_distribution(t) if initial is None else np.asarray(initial, dtype=float)
    model = ClassicalFsmc(kernel, p0)
    require_valid(model)
    return model


def _quantum_ge_kraus(p_g: float, p_b: float) -> np.ndarray:
    """The two 4x4 interaction operators of the quantum Gilbert-Elliott
    channel on the joint (memory qubit slow, transmit qubit fast) space:
    identity-or-flip on the transmit qubit with amplitude selected by the
    memory level."""
    rg, rb = np.sqrt(1.0 - p_g), np.sqrt(1.0 - p_b)
    fg, fb = np.sqrt(p_g), np.sqrt(p_b)
    e0 = np.diag([rg, rg, rb, rb]).astype(complex)
    e1 = np.zeros((4, 4), dtype=complex)
    e1[0, 1] = e1[1, 0] = fg
    e1[2, 3] = e1[3, 2] = fb
    return np.stack([e0, e1])


def build_quantum_gilbert_elliott(
    p_g: float,
    p_b: float,
    h: np.ndarray | None = None,
    alpha: float = 0.0,
    initial_state: np.ndarray | None = None,
) -> QuantumMemoryChannel:
    """Quantum Gilbert-Elliott channel.

    Classical bits are encoded in the computational basis of a transmit
    qubit and measured in the same basis; the transmit qubit is flipped
    with amplitude sqrt(p_g) or sqrt(p_b) depending on the memory level;
    the memory evolves by exp(-i * alpha * h) between uses.

    ``h`` of dimension 2 gives the single-qubit-memory channel (default
    generator: Pauli-X).  ``h`` of dimension 4 gives the two-qubit-memory
    variant in which only the second (fast-index) memory qubit interacts
    with the transmit system while the evolution acts on both.
    ``initial_state`` defaults to the maximally mixed memory state.
    """
    p_g = _check_probability(p_g, "p_g")
    p_b = _check_probability(p_b, "p_b")
    gen = DEFAULT_SINGLE_QUBIT_H if h is None else as_operator(h, "evolution generator")
    if gen.shape[0] not in (2, 4):
        raise ValueError(
            f"evolution generator must be 2x2 or 4x4, got {gen.shape[0]}x{gen.shape[0]}"
        )
    kraus = _quantum_ge_kraus(p_g, p_b)
    state_dim = gen.shape[0]
    if state_dim == 4:
        kraus = np.stack([np.kron(np.eye(2), e) for e in kraus])
    unitary = expm_skew_hermitian(gen, alpha)
    if initial_state is None:
        rho0 = np.eye(state_dim, dtype=complex) / state_dim
    else:
        rho0 = as_operator(initial_state, "initial state")
    basis = np.stack(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )
    return QuantumMemoryChannel(
        state_dim=state_dim,
        encodings=basis,
        kraus=kraus,
        measurements=basis,
        inter_use_unitary=unitary,
        initial_state=rho0,
    )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_transfer_operators(ch: QuantumMemoryChannel) -> TransferOperatorSet:
    """Close the per-use interaction into transfer operators: the
    one-channel case of ``compile_channels``, whose error it raises."""
    (out,) = compile_channels([ch])
    if isinstance(out, QchanrateError):
        raise out
    return out


def compile_channels(chs: Sequence[QuantumMemoryChannel]) -> list:
    """Each channel's ``TransferOperatorSet``, or the ``QchanrateError``
    that stopped it; channels of equal shapes are compiled as one stack.

    A stack's channels are checked first (``validate``).  In the valid
    ones the inter-use unitary is folded into the interaction operators
    (which preserves their completeness relation), every output's
    measurement is applied to them, and one contraction over the
    transmit indices of the measured operators, every encoding and their
    conjugates gives all X * Y operators of every channel.  The compiled
    sets are checked in turn.  A violation gives the channel the
    ``ModelValidationError`` that ``require_valid`` raises.  A stack
    that holds a matrix no check can take (a non-finite entry, say) is
    compiled again one channel at a time, so that its ``OperatorError``
    stays with its channel.
    """
    out: list = [None] * len(chs)
    stacks: dict[tuple, list[int]] = {}
    for i, ch in enumerate(chs):
        shapes = ch.kraus.shape, ch.encodings.shape, ch.measurements.shape
        stacks.setdefault(shapes, []).append(i)
    for members in stacks.values():
        try:
            got = _compile_stack([chs[i] for i in members])
        except OperatorError as exc:
            got = [exc] if len(members) == 1 else [compile_channels([chs[i]])[0] for i in members]
        for i, result in zip(members, got):
            out[i] = result
    return out


def _compile_stack(chs: Sequence[QuantumMemoryChannel]) -> list:
    """``compile_channels`` of channels of equal shapes, one contraction
    and one check of each kind for all of them."""
    out = [_failure(report) for report in _channel_reports(chs)]
    valid = [i for i, exc in enumerate(out) if exc is None]
    if not valid:
        return out
    first = chs[valid[0]]
    p, d, s, y_size = len(valid), first.transmit_dim, first.state_dim, first.y_size
    units = np.stack([chs[i].inter_use_unitary for i in valid])
    kraus = np.stack([chs[i].kraus for i in valid])
    meas = np.stack([chs[i].measurements for i in valid])
    encodings = np.stack([chs[i].encodings for i in valid])
    # np.kron's products, with a leading axis of channels (and of outputs)
    fold = units[:, :, None, :, None] * np.eye(d, dtype=complex)[:, None, :]
    meters = np.eye(s, dtype=complex)[:, None, :, None] * meas[:, :, None, :, None, :]
    tilde = np.einsum("pab,pkbc->pkac", fold.reshape(p, s * d, s * d), kraus)
    measured = np.einsum("pyab,pkbc->pykac", meters.reshape(p, y_size, s * d, s * d), tilde)
    measured = measured.reshape(p, y_size, -1, s, d, s, d)
    ops = np.einsum("pykucia,pxab,pykvcjb->pxyiujv", measured, encodings, measured.conj())
    ops = ops.reshape(p, first.x_size, y_size, s * s, s * s)
    sets = [TransferOperatorSet(o, chs[i].initial_state.copy()) for i, o in zip(valid, ops)]
    for i, t, report in zip(valid, sets, _operator_reports(sets)):
        out[i] = _failure(report) or t
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    model_kind: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = [f"{self.model_kind}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}: witness {c.witness:.3e}{detail}")
        return "\n".join(lines)


def _pmf_checks(p: np.ndarray, name: str) -> list[CheckResult]:
    lo = float(p.min())
    dev = float(abs(p.sum() - 1.0))
    return [
        CheckResult(f"{name} nonnegative", lo >= 0.0, lo),
        CheckResult(f"{name} sums to one", dev <= EPS_TRACE, dev),
    ]


def _density_checks(rhos: np.ndarray, names: Sequence[str]) -> list[list[CheckResult]]:
    """The p.s.d. and unit-trace checks of each density matrix of a stack,
    under its name."""
    traces = np.trace(rhos, axis1=1, axis2=2)
    # |trace - 1| as the scalar abs gives it: np.abs of a complex array may
    # differ from that in the last bit
    devs = np.hypot(traces.real - 1.0, traces.imag).tolist()
    return [
        [
            CheckResult(f"{name} positive semidefinite", check.passed, check.witness, check.detail),
            CheckResult(f"{name} unit trace", dev <= EPS_TRACE, dev),
        ]
        for name, check, dev in zip(names, is_psd(rhos), devs)
    ]


def _completeness(ops: np.ndarray, name: str) -> list[CheckResult]:
    """The check that sum E^H E = I, of each operator set of a stack
    (P, K, D, D)."""
    gram = np.einsum("pkba,pkbc->pac", ops.conj(), ops)
    devs = np.abs(gram - np.eye(gram.shape[-1])).max(axis=(1, 2)).tolist()
    return [CheckResult(name, dev <= EPS_TRACE, dev) for dev in devs]


def _channel_reports(chs: Sequence[QuantumMemoryChannel]) -> list[ValidationReport]:
    """``validate`` of quantum memory channels of equal shapes, each kind
    of check made once over all of them, in ``validate``'s order."""
    x_size, d = chs[0].x_size, chs[0].transmit_dim
    encodings = _density_checks(
        np.stack([ch.encodings for ch in chs]).reshape(-1, d, d),
        [f"encoding {x}" for _ in chs for x in range(x_size)],
    )
    kraus = _completeness(np.stack([ch.kraus for ch in chs]), "kraus completeness (sum E^H E = I)")
    meters = _completeness(
        np.stack([ch.measurements for ch in chs]), "measurement completeness (sum M^H M = I)"
    )
    units = unitarity_residue(np.stack([ch.inter_use_unitary for ch in chs])).tolist()
    initial = _density_checks(
        np.stack([ch.initial_state for ch in chs]), ["initial memory state"] * len(chs)
    )
    reports = []
    for p, resid in enumerate(units):
        checks = [c for pair in encodings[p * x_size:(p + 1) * x_size] for c in pair]
        unitary = CheckResult("inter-use unitary", resid <= EPS_UNITARY, resid)
        checks += [kraus[p], meters[p], unitary, *initial[p]]
        reports.append(ValidationReport("quantum memory channel", tuple(checks)))
    return reports


def _operator_reports(sets: Sequence[TransferOperatorSet]) -> list[ValidationReport]:
    """``validate`` of transfer operator sets of equal shapes, each kind of
    check made once over all of them.

    A set's p.s.d. check reports its first operator that is not p.s.d.,
    in (input, output) order, or else the one of least eigenvalue.
    """
    first = sets[0]
    pairs = first.x_size * first.y_size
    dim = first.operators.shape[-1]
    psd = is_psd(np.stack([t.operators for t in sets]).reshape(-1, dim, dim))
    tensors = np.stack([t.tensors for t in sets])
    resids = np.abs(np.einsum("pxyiuju->pxij", tensors) - np.eye(first.state_dim)).max(axis=(2, 3))
    initial = _density_checks(
        np.stack([t.initial_state for t in sets]), ["initial memory state"] * len(sets)
    )
    reports = []
    for p, row in enumerate(resids.tolist()):
        checks = psd[p * pairs:(p + 1) * pairs]
        pick = next((i for i, c in enumerate(checks) if not c.passed), None)
        if pick is None:
            pick = min(range(pairs), key=lambda i: checks[i].witness)
        x, y = divmod(pick, first.y_size)
        worst = row.index(max(row))
        operators = CheckResult(
            "transfer operators positive semidefinite",
            checks[pick].passed,
            checks[pick].witness,
            f"input {x}, output {y}: {checks[pick].detail}",
        )
        consistency = CheckResult(
            "transfer trace consistency",
            row[worst] <= EPS_TRACE,
            row[worst],
            f"worst at input {worst}",
        )
        checks = (operators, consistency, *initial[p])
        reports.append(ValidationReport("transfer operator set", checks))
    return reports


def validate(model) -> ValidationReport:
    """Check every defining condition of a classical finite-state,
    quantum memory or transfer-operator channel model; never raises on
    one.

    Returns a report with one pass/fail entry and numeric witness per
    condition.  A quantum model is the one-model case of the stacked
    checks that ``compile_channels`` makes.
    """
    if isinstance(model, ClassicalFsmc):
        checks = []
        lo = float(model.kernel.min())
        checks.append(CheckResult("kernel entries nonnegative", lo >= 0.0, lo))
        sums = model.kernel.sum(axis=(2, 3))
        dev = float(np.abs(sums - 1.0).max())
        worst = np.unravel_index(np.abs(sums - 1.0).argmax(), sums.shape)
        checks.append(
            CheckResult(
                "kernel rows sum to one",
                dev <= EPS_TRACE,
                dev,
                f"worst at (state {worst[0]}, input {worst[1]})",
            )
        )
        checks.extend(_pmf_checks(model.initial, "initial state pmf"))
        return ValidationReport("classical finite-state channel", tuple(checks))
    if isinstance(model, QuantumMemoryChannel):
        return _channel_reports([model])[0]
    if isinstance(model, TransferOperatorSet):
        return _operator_reports([model])[0]
    raise TypeError(f"no validator for {type(model).__name__}")


def _failure(report: ValidationReport) -> ModelValidationError | None:
    """The error of the report's first failed condition, with that
    condition's detail; None if every condition holds."""
    bad = report.failures()
    if not bad:
        return None
    first = bad[0]
    names = ", ".join(c.name for c in bad)
    detail = f"{first.detail}; " if first.detail else ""
    return ModelValidationError(first.name, first.witness, f"{detail}failed checks: {names}")


def require_valid(model) -> None:
    """Raise ``ModelValidationError`` on the first failed condition, with
    that condition's detail."""
    exc = _failure(validate(model))
    if exc is not None:
        raise exc
