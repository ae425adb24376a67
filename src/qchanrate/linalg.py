"""Dense complex linear algebra for small operators (dimension <= 64).

Operators are plain square ``numpy`` arrays of complex128.  Two layout
conventions are fixed here once and used by the whole package:

* ``kron(a, b)`` uses standard Kronecker ordering: the row index of the
  result is the pair ``(i_a, i_b)`` with ``i_a`` the slow (most
  significant) index.

* Joint (memory state, transmit) spaces are flattened with the *state*
  index slow and the transmit index fast, i.e. the matrix of a joint
  operator ``state_part (x) transmit_part`` is ``kron(state_part,
  transmit_part)``.  Under this reading the 4x4 interaction operators of
  the built-in quantum Gilbert-Elliott channel act block-diagonally: the
  top-left 2x2 block is the transmit-system action while the memory
  qubit sits in its first ("good") basis state.

Hermitian eigenproblems and the matrix exponential go through LAPACK via
``numpy.linalg.eigh``; dimensions here are tiny, so accuracy rather than
speed is the concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OperatorError

MAX_DIM = 64


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances for operator predicates.

    ``eps_hermitian`` and ``eps_psd`` are relative to the largest entry
    magnitude of the operator under test; ``eps_trace`` and
    ``eps_unitary`` are absolute (the quantities they guard are O(1)).
    """

    eps_hermitian: float = 1e-10
    eps_psd: float = 1e-9
    eps_trace: float = 1e-10
    eps_unitary: float = 1e-9

    def __post_init__(self):
        for name in ("eps_hermitian", "eps_psd", "eps_trace", "eps_unitary"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


DEFAULT_TOL = Tolerance()


def as_operator(a, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex128 matrix; reject non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise OperatorError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[0] > MAX_DIM:
        raise OperatorError(f"{name} dimension {arr.shape[0]} outside [1, {MAX_DIM}]")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise OperatorError(f"{name} contains non-finite entries")
    return arr


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor's index slow."""
    return np.kron(as_operator(a, "kron factor"), as_operator(b, "kron factor"))


def partial_trace(a, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``dims = (d1, d2)`` gives the factor dimensions, first factor slow.
    ``keep`` selects which factor survives.  The full trace is preserved:
    ``trace(result) == trace(a)``.
    """
    arr = as_operator(a, "partial_trace input")
    d1, d2 = dims
    if d1 < 1 or d2 < 1 or d1 * d2 != arr.shape[0]:
        raise OperatorError(
            f"partial_trace dims {dims} incompatible with operator dimension {arr.shape[0]}"
        )
    t = arr.reshape(d1, d2, d1, d2)
    if keep == "first":
        return np.einsum("ijkj->ik", t)
    if keep == "second":
        return np.einsum("ijil->jl", t)
    raise OperatorError(f"keep must be 'first' or 'second', got {keep!r}")


def hermiticity_residue(a: np.ndarray) -> float | np.ndarray:
    """Largest entrywise deviation |a - a^H|; one value per matrix of a stack."""
    if a.ndim == 2:
        return float(np.abs(a - a.conj().T).max())
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _scale(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def is_hermitian(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    arr = as_operator(a)
    return hermiticity_residue(arr) <= tol.eps_hermitian * _scale(arr)


def hermitian_eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, ascending.

    Raises ``OperatorError`` when the input is not Hermitian within
    ``tol.eps_hermitian`` (relative to the largest entry).
    """
    arr = as_operator(a)
    res = hermiticity_residue(arr)
    if res > tol.eps_hermitian * _scale(arr):
        raise OperatorError(f"not Hermitian: residue {res:.3e}")
    return np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of a positive-semidefiniteness test with a numeric witness.

    On failure ``witness`` is either the Hermiticity residue or the most
    negative eigenvalue, as indicated by ``reason``.
    """

    ok: bool
    witness: float
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> PsdCheck:
    """Test Hermiticity plus nonnegative spectrum (within tolerances)."""
    arr = as_operator(a)
    scale = _scale(arr)
    res = hermiticity_residue(arr)
    if res > tol.eps_hermitian * scale:
        return PsdCheck(False, res, "not Hermitian")
    evals = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))
    lo = float(evals[0])
    if lo < -tol.eps_psd * scale:
        return PsdCheck(False, lo, "negative eigenvalue")
    return PsdCheck(True, lo, "ok")


def expm_skew_hermitian(h, alpha: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary exp(-i * alpha * h) of a Hermitian generator h.

    Computed through the spectral decomposition h = V diag(w) V^H, so the
    result is unitary up to the accuracy of the eigendecomposition.
    """
    arr = as_operator(h, "generator")
    res = hermiticity_residue(arr)
    if res > tol.eps_hermitian * max(_scale(arr), 1.0):
        raise OperatorError(f"generator not Hermitian: residue {res:.3e}")
    w, v = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    phases = np.exp(-1j * alpha * w)
    return (v * phases) @ v.conj().T


def unitarity_residue(u: np.ndarray) -> float:
    """Largest entrywise deviation |u^H u - I|."""
    arr = as_operator(u, "unitary")
    return float(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max())
