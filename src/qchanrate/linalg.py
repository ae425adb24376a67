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

import functools
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
    if arr.ndim != 2:
        raise OperatorError(f"{name} must be a square matrix, got shape {arr.shape}")
    return _operators(arr, name)


def _operators(a, name: str) -> np.ndarray:
    """``as_operator`` of a matrix or of a stack of them (..., D, D)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise OperatorError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[-1] < 1 or arr.shape[-1] > MAX_DIM:
        raise OperatorError(f"{name} dimension {arr.shape[-1]} outside [1, {MAX_DIM}]")
    if not np.isfinite(arr).all():
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


@functools.cache
def _packed_basis(d: int) -> np.ndarray:
    """The packed basis of S x S Hermitian matrices (d = S * S), unpacked
    and flattened, one row per basis element: the identity of size d,
    read as packed matrices.  Built once per size and read-only, since
    every caller shares it."""
    s = math.isqrt(d)
    basis = unpack_hermitian(np.eye(d).reshape(d, s, s)).reshape(d, d)
    basis.flags.writeable = False
    return basis


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
    with np.errstate(invalid="ignore"):  # inf * 0 spreads NaN, which the residues show
        images = (_packed_basis(d) @ mats).reshape(*mats.shape[:-1], s, s)
        traces = np.trace(images, axis1=-2, axis2=-1)
        return RealForm(
            pack_hermitian(images).reshape(mats.shape),
            np.abs(traces.imag).max(axis=-1),
            hermiticity_residue(images).max(axis=-1),
        )


def _scale(a: np.ndarray) -> float:
    return float(np.abs(a).max())


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checked condition with a numeric witness; true
    exactly when the condition passed."""

    name: str
    passed: bool
    witness: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _psd_check(scale: float, res: float, lo: float) -> CheckResult:
    """On failure the witness is either the Hermiticity residue or the
    most negative eigenvalue, as the detail says."""
    if res > EPS_HERMITIAN * scale:
        return CheckResult("positive semidefinite", False, res, "not Hermitian")
    if lo < -EPS_PSD * scale:
        return CheckResult("positive semidefinite", False, lo, "negative eigenvalue")
    return CheckResult("positive semidefinite", True, lo, "ok")


def is_psd(a) -> CheckResult | list[CheckResult]:
    """Test Hermiticity plus nonnegative spectrum (within tolerances).

    Given a stack of matrices (..., D, D), returns each matrix's own
    check, in row-major order, their spectra taken in one eigenvalue call.
    A non-finite entry in any of them raises ``OperatorError``.
    """
    arr = _operators(a, "operator")
    mats = arr.reshape(-1, *arr.shape[-2:])
    scales = np.abs(mats).max(axis=(1, 2))
    evals = np.linalg.eigvalsh(0.5 * (mats + mats.conj().swapaxes(1, 2)))
    checks = list(
        map(_psd_check, scales.tolist(), hermiticity_residue(mats).tolist(), evals[:, 0].tolist())
    )
    return checks[0] if arr.ndim == 2 else checks


def expm_skew_hermitian(h, alpha: float) -> np.ndarray:
    """Unitary exp(-i * alpha * h) of a Hermitian generator h.

    Computed through the spectral decomposition h = V diag(w) V^H, so the
    result is unitary up to the accuracy of the eigendecomposition.  A
    phase beyond the float range leaves the result non-finite, silently,
    for the caller's unitarity check to report.
    """
    arr = as_operator(h, "generator")
    res = hermiticity_residue(arr)
    if res > EPS_HERMITIAN * max(_scale(arr), 1.0):
        raise OperatorError(f"generator not Hermitian: residue {res:.3e}")
    w, v = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * alpha * w)
    return (v * phases) @ v.conj().T


def unitarity_residue(u: np.ndarray) -> float | np.ndarray:
    """Largest entrywise deviation |u^H u - I|; one value per matrix of a
    stack.  A non-finite entry in any matrix raises ``OperatorError``."""
    arr = _operators(u, "unitary")
    dev = np.abs(arr.conj().swapaxes(-1, -2) @ arr - np.eye(arr.shape[-1])).max(axis=(-2, -1))
    return float(dev) if arr.ndim == 2 else dev
