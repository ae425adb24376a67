"""Models for the tests: random valid models, and the test side of the
classical/quantum bridge (a classical kernel as a diagonal
transfer-operator set)."""

import numpy as np

from qchanrate import channels


def random_classical_fsmc(
    rng: np.random.Generator, state_count: int = 2, x_size: int = 2, y_size: int = 2
) -> channels.ClassicalFsmc:
    """Random kernel with rows normalized to pmfs."""
    kernel = rng.random((state_count, x_size, state_count, y_size))
    kernel /= kernel.sum(axis=(2, 3), keepdims=True)
    initial = rng.random(state_count)
    initial /= initial.sum()
    return channels.ClassicalFsmc(kernel, initial)


def _random_isometry_blocks(rng: np.random.Generator, blocks: int, dim: int) -> np.ndarray:
    """QR-based completion: stacked blocks whose gram sum is the identity."""
    g = rng.standard_normal((blocks * dim, dim)) + 1j * rng.standard_normal((blocks * dim, dim))
    q, _ = np.linalg.qr(g)
    return q.reshape(blocks, dim, dim)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_quantum_memory_channel(
    rng: np.random.Generator,
    state_dim: int = 2,
    transmit_dim: int = 2,
    n_kraus: int = 2,
    x_size: int = 2,
    y_size: int = 2,
) -> channels.QuantumMemoryChannel:
    """Random channel that satisfies every model condition by construction."""
    joint = transmit_dim * state_dim
    kraus = _random_isometry_blocks(rng, n_kraus, joint)
    measurements = _random_isometry_blocks(rng, y_size, transmit_dim)
    encodings = np.stack([_random_density(rng, transmit_dim) for _ in range(x_size)])
    return channels.QuantumMemoryChannel(
        state_dim=state_dim,
        encodings=encodings,
        kraus=kraus,
        measurements=measurements,
        inter_use_unitary=_random_unitary(rng, state_dim),
        initial_state=_random_density(rng, state_dim),
    )


def embed_classical_as_quantum(f: channels.ClassicalFsmc) -> channels.TransferOperatorSet:
    """Diagonal transfer-operator set reproducing a classical kernel.

    The doubled-state recursion on the embedded set mirrors the classical
    forward recursion exactly (state operators stay diagonal and their
    diagonals are the classical state metrics).
    """
    channels.require_valid(f)
    s, n_x, n_y = f.state_count, f.x_size, f.y_size
    ops = np.zeros((n_x, n_y, s * s, s * s), dtype=complex)
    for x in range(n_x):
        for y in range(n_y):
            ops[x, y] = np.diag(f.kernel[:, x, :, y].reshape(s * s))
    return channels.TransferOperatorSet(ops, np.diag(f.initial).astype(complex))
