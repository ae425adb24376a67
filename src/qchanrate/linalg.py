"""Dense complex linear algebra for small operators (dimension <= 64).

Operators are plain square ``numpy`` arrays of complex128.  Two layout
conventions are fixed here once and used by the whole package:

* Kronecker products are ``np.kron(a, b)``, in standard ordering: the
  row index of the result is the pair ``(i_a, i_b)`` with ``i_a`` the
  slow (most significant) index.

* Joint (memory state, transmit) spaces are flattened with the *state*
  index slow and the transmit index fast, i.e. the matrix of a joint
  operator ``state_part (x) transmit_part`` is ``np.kron(state_part,
  transmit_part)``.  Under this reading the 4x4 interaction operators of
  the built-in quantum Gilbert-Elliott channel act block-diagonally: the
  top-left 2x2 block is the transmit-system action while the memory
  qubit sits in its first ("good") basis state.

Hermitian eigenproblems and the matrix exponential go through LAPACK via
``numpy.linalg.eigh``; dimensions here are tiny, so accuracy rather than
speed is the concern.

Hermitian operators also have a real packed form, used by the sampling
and recursion hot loops: an S x S Hermitian matrix packs into a real
S x S array holding the diagonal, ``Re a_ij`` above it and ``Im a_ij``
below it.  The trace stays the diagonal sum, and a complex map ``M`` on
row-major flattened operators (``next = vec @ M``) becomes the real
matrix ``T @ M @ P``, with ``T`` unpacking and ``P`` packing
(``real_transfer_form``).  Hermiticity then holds by construction; what
a map does to it is measured once per map, on the images of the packed
basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OperatorError

MAX_DIM = 64


# Tolerances of the operator and model predicates.  EPS_HERMITIAN and
# EPS_PSD are relative to the largest entry magnitude of the operator
# under test; EPS_TRACE and EPS_UNITARY are absolute (the quantities they
# guard are O(1)).
EPS_HERMITIAN = 1e-10
EPS_PSD = 1e-9
EPS_TRACE = 1e-10
EPS_UNITARY = 1e-9


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


def hermiticity_residue(a: np.ndarray) -> float | np.ndarray:
    """Largest entrywise deviation |a - a^H|; one value per matrix of a stack."""
    if a.ndim == 2:
        return float(np.abs(a - a.conj().T).max())
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def pack_hermitian(a) -> np.ndarray:
    """Real packed coordinates of Hermitian matrices (a stack is packed
    matrix by matrix): the diagonal, ``Re a_ij`` above it, ``Im a_ij``
    below it.  Only the Hermitian part of ``a`` survives the packing."""
    a = np.asarray(a)
    lower = np.tri(a.shape[-1], k=-1, dtype=bool)
    return np.where(lower, a.imag, a.real)


def unpack_hermitian(p) -> np.ndarray:
    """Inverse of ``pack_hermitian``: the complex Hermitian matrices."""
    p = np.asarray(p, dtype=float)
    upper = np.triu(p, 1)
    lower = np.tril(p, -1)
    real = np.triu(p) + upper.swapaxes(-1, -2)
    return real + 1j * (lower - lower.swapaxes(-1, -2))


class RealForm(NamedTuple):
    """Real packed step matrices and, per matrix, the guard residues of
    its complex original on the packed basis images."""

    mats: np.ndarray
    imag_residue: np.ndarray
    herm_residue: np.ndarray


def real_transfer_form(mats: np.ndarray) -> RealForm:
    """Convert a stack of complex step matrices (..., S*S, S*S), acting
    by ``next = vec @ mats[...]`` on row-major flattened operators, to
    the real packed form.

    Each real matrix maps packed coordinates to packed coordinates.  The
    unpacked packed basis (diagonal units, symmetric real pairs and
    antisymmetric imaginary pairs) is carried through the complex matrix;
    ``imag_residue`` is the largest imaginary part of an image's trace
    and ``herm_residue`` the largest Hermiticity residue of an image.  A
    non-finite matrix entry makes its Hermiticity residue non-finite.
    """
    mats = np.asarray(mats, dtype=complex)
    d = mats.shape[-1]
    s = math.isqrt(d)
    basis = unpack_hermitian(np.eye(d).reshape(d, s, s)).reshape(d, d)
    with np.errstate(invalid="ignore"):  # inf * 0 spreads NaN, which the residues show
        images = (basis @ mats).reshape(*mats.shape[:-1], s, s)
        traces = np.trace(images, axis1=-2, axis2=-1)
        return RealForm(
            pack_hermitian(images).reshape(mats.shape),
            np.abs(traces.imag).max(axis=-1),
            hermiticity_residue(images).max(axis=-1),
        )


def _scale(a: np.ndarray) -> float:
    return float(np.abs(a).max())


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


def is_psd(a) -> PsdCheck:
    """Test Hermiticity plus nonnegative spectrum (within tolerances)."""
    arr = as_operator(a)
    scale = _scale(arr)
    res = hermiticity_residue(arr)
    if res > EPS_HERMITIAN * scale:
        return PsdCheck(False, res, "not Hermitian")
    evals = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))
    lo = float(evals[0])
    if lo < -EPS_PSD * scale:
        return PsdCheck(False, lo, "negative eigenvalue")
    return PsdCheck(True, lo, "ok")


def expm_skew_hermitian(h, alpha: float) -> np.ndarray:
    """Unitary exp(-i * alpha * h) of a Hermitian generator h.

    Computed through the spectral decomposition h = V diag(w) V^H, so the
    result is unitary up to the accuracy of the eigendecomposition.
    """
    arr = as_operator(h, "generator")
    res = hermiticity_residue(arr)
    if res > EPS_HERMITIAN * max(_scale(arr), 1.0):
        raise OperatorError(f"generator not Hermitian: residue {res:.3e}")
    w, v = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    phases = np.exp(-1j * alpha * w)
    return (v * phases) @ v.conj().T


def unitarity_residue(u: np.ndarray) -> float:
    """Largest entrywise deviation |u^H u - I|."""
    arr = as_operator(u, "unitary")
    return float(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max())
