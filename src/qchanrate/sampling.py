"""Sequential sampling of input/output sequences with reproducible seeding.

The generator is counter-based (Philox 4x64, as shipped by numpy) so a
64-bit seed pins the whole stream bit-for-bit; ``GENERATOR_ID`` is
recorded on every trajectory.  Stream layout per trajectory: the first
``n`` uniforms drive the input draws, then (classical models) one uniform
for the initial latent state followed by ``n`` uniforms for the joint
(next state, output) draws, or (quantum models) ``n`` uniforms for the
output draws.  Categorical draws go through an inverse-CDF walk over
Kahan-compensated cumulative weights.

During quantum sampling the memory is tracked as the normalized
conditional state given everything sent and observed so far; each step
emits the output distribution obtained by contracting the transfer
operator against that state, then conditions the state on the drawn
outcome.
"""

from __future__ import annotations

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

# Residue guards distinguishing roundoff from model bugs.
PMF_IMAG_GUARD = 1e-10
PMF_NEGATIVE_GUARD = -1e-9
PMF_SUM_GUARD = 1e-9
STATE_HERMITICITY_GUARD = 1e-9


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0 or seed > np.iinfo(np.uint64).max:
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
    out = np.empty(len(weights))
    total = 0.0
    carry = 0.0
    for i, w in enumerate(weights):
        term = float(w) - carry
        new_total = total + term
        carry = (new_total - total) - term
        total = new_total
        out[i] = total
    return out


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


def _finalize_pmf(raw: np.ndarray) -> np.ndarray:
    """Guard and clean a computed output distribution.

    Entries below ``PMF_NEGATIVE_GUARD`` or a total off by more than
    ``PMF_SUM_GUARD`` indicate corruption, not roundoff, and abort; tiny
    negatives are clipped and the pmf renormalized.
    """
    lo = float(raw.min())
    if lo < PMF_NEGATIVE_GUARD:
        raise NumericalCorruptionError(
            f"output distribution has entry {lo:.3e} below the roundoff guard"
        )
    dev = abs(float(raw.sum()) - 1.0)
    if dev > PMF_SUM_GUARD:
        raise NumericalCorruptionError(
            f"output distribution total off by {dev:.3e} before clipping"
        )
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


def _repair_state(sig: np.ndarray) -> np.ndarray:
    res = hermiticity_residue(sig)
    if res > STATE_HERMITICITY_GUARD:
        raise NumericalCorruptionError(
            f"conditional state Hermiticity residue {res:.3e} beyond guard"
        )
    return 0.5 * (sig + sig.conj().T)


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
    s_count, y_size = f.state_count, f.y_size
    state = draw_index(f.initial, rng.random())
    us = rng.random(len(x))
    y = np.empty(len(x), dtype=np.int64)
    for step, x_step in enumerate(x):
        joint = f.kernel[state, x_step].reshape(s_count * y_size)
        pick = draw_index(_finalize_pmf(joint), us[step])
        state, y[step] = divmod(pick, y_size)
    return y


def _sample_outputs_quantum(
    t: TransferOperatorSet, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    s = t.state_dim
    us = rng.random(len(x))
    y = np.empty(len(x), dtype=np.int64)
    state = t.initial_state.copy()
    chain = t.chain_operators
    diag = slice(None, None, s + 1)
    for step, x_step in enumerate(x):
        vec = state.reshape(s * s)
        nxt = vec @ chain[x_step]  # (Y, S*S)
        raw = nxt[:, diag].sum(axis=1)
        imag = float(np.abs(raw.imag).max())
        if imag > PMF_IMAG_GUARD:
            raise NumericalCorruptionError(
                f"output weights carry imaginary residue {imag:.3e} at step {step}"
            )
        pmf = _finalize_pmf(raw.real)
        pick = draw_index(pmf, us[step])
        y[step] = pick
        state = _repair_state(nxt[pick].reshape(s, s) / raw.real[pick])
    return y


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
