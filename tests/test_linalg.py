import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qchanrate import linalg as la
from qchanrate.errors import OperatorError


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return 0.5 * (a + a.conj().T)


def expm_taylor(h, alpha, terms=25):
    """Scaling-and-squaring Taylor series, scaled well past convergence."""
    a = -1j * alpha * np.asarray(h, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.0625))))
    m = a / (2**squarings)
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestExpm:
    def test_alpha_zero(self):
        h = random_hermitian(np.random.default_rng(6), 3)
        assert_allclose(la.expm_skew_hermitian(h, 0.0), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        h = np.diag([0.4, -1.3])
        got = la.expm_skew_hermitian(h, 2.0)
        assert_allclose(got, np.diag(np.exp(-2j * np.array([0.4, -1.3]))), atol=1e-14)

    def test_unitarity_and_taylor(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = random_hermitian(rng, 4)
            alpha = float(rng.uniform(-10, 10)) / max(1.0, np.abs(h).max())
            u = la.expm_skew_hermitian(h, alpha)
            assert la.unitarity_residue(u) <= 1e-10
            assert np.abs(u - expm_taylor(h, alpha)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(OperatorError):
            la.expm_skew_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestIsPsd:
    def test_projector(self):
        check = la.is_psd(np.diag([1.0, 0.0]))
        assert check and check.reason == "ok"

    def test_indefinite(self):
        check = la.is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not check
        assert check.reason == "negative eigenvalue"
        assert abs(check.witness + 1.0) < 1e-12

    def test_gram_matrices(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_complex(rng, 4)
            evals = np.linalg.eigvalsh(g.conj().T @ g)
            assert evals[0] >= -1e-10
            assert la.is_psd(g.conj().T @ g)

    def test_non_hermitian_witness(self):
        check = la.is_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert not check and check.reason == "not Hermitian"
        assert abs(check.witness - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stack_gives_each_matrix_its_own_check(self, n):
        """Checked as one stack, every matrix gets the (ok, witness,
        reason) it gets alone, bit for bit: p.s.d. ones, ones with a
        negative eigenvalue and ones that are not Hermitian."""
        rng = np.random.default_rng(40 + n)
        mats = []
        for _ in range(4):
            g = random_complex(rng, n)
            mats += [g.conj().T @ g, random_hermitian(rng, n), random_complex(rng, n)]
        stack = np.stack(mats)
        got = la.is_psd(stack)
        assert got == [la.is_psd(a) for a in stack]
        assert {c.reason for c in got} >= ({"ok", "not Hermitian"} if n == 1 else
                                           {"ok", "negative eigenvalue", "not Hermitian"})
        assert la.is_psd(stack.reshape(2, -1, n, n)) == got

    def test_stack_with_a_non_finite_entry_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, np.inf]), np.eye(2)])
        with pytest.raises(OperatorError) as alone:
            la.is_psd(stack[1])
        with pytest.raises(OperatorError) as stacked:
            la.is_psd(stack)
        assert str(stacked.value) == str(alone.value) == "operator contains non-finite entries"

    def test_unitarity_residue_of_a_stack(self):
        rng = np.random.default_rng(44)
        stack = np.stack([la.expm_skew_hermitian(random_hermitian(rng, 3), 0.7) for _ in range(3)])
        stack[1, 0, 2] += 1e-3
        assert la.unitarity_residue(stack).tolist() == [la.unitarity_residue(u) for u in stack]
        stack[2, 1, 1] = np.nan
        with pytest.raises(OperatorError, match="unitary contains non-finite entries"):
            la.unitarity_residue(stack)


class TestGuards:
    def test_as_operator_rejects_bad_input(self):
        with pytest.raises(OperatorError):
            la.as_operator(np.zeros((2, 3)))
        with pytest.raises(OperatorError):
            la.as_operator(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(OperatorError):
            la.as_operator(np.eye(65))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)], ids=["scalar", "vector", "stack"])
    def test_as_operator_rejects_a_non_matrix(self, shape):
        message = f"initial state must be a square matrix, got shape {shape}"
        with pytest.raises(OperatorError, match=f"^{re.escape(message)}$"):
            la.as_operator(np.zeros(shape), "initial state")


class TestHermitianPacking:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            a = random_hermitian(rng, n)
            packed = la.pack_hermitian(a)
            assert packed.dtype == np.float64 and packed.shape == (n, n)
            assert np.array_equal(la.unpack_hermitian(packed), a)
            assert np.array_equal(np.diagonal(packed), np.diagonal(a).real)

    def test_stack_packs_matrix_by_matrix(self):
        rng = np.random.default_rng(34)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(5)])
        packed = la.pack_hermitian(stack)
        for a, p in zip(stack, packed):
            assert np.array_equal(la.pack_hermitian(a), p)
        assert np.array_equal(la.unpack_hermitian(packed), stack)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_packed_basis_is_the_unpacked_identity_read_only(self, s):
        """``real_transfer_form`` carries this basis through every map; it
        is built once per size and shared, so no caller may write to it."""
        d = s * s
        basis = la._packed_basis(d)
        assert np.array_equal(basis, la.unpack_hermitian(np.eye(d).reshape(d, s, s)).reshape(d, d))
        assert not basis.flags.writeable
        assert la._packed_basis(d) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

    def test_residues_of_maps_that_leave_the_hermitian_states(self):
        """A real map has no residue; a phase on it gives the trace an
        imaginary part; an entry without its mirror breaks Hermiticity."""
        rng = np.random.default_rng(35)
        sym = random_hermitian(rng, 2).real
        mats = np.stack([np.kron(sym, sym), np.exp(0.2j) * np.eye(4), np.eye(4)])
        mats[2, 0, 1] = 1e-3
        form = la.real_transfer_form(mats)
        assert form.mats.dtype == np.float64 and form.mats.shape == mats.shape
        assert form.imag_residue[0] == 0.0 and form.herm_residue[0] <= 1e-14
        assert abs(form.imag_residue[1] - np.sin(0.2)) <= 1e-15
        assert form.imag_residue[2] == 0.0 and form.herm_residue[2] == 1e-3
