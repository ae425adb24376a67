import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qchanrate as qc
from qchanrate import channels
from qchanrate.errors import ModelValidationError, OperatorError, QchanrateError
from qchanrate.oracle import brute_force_oracle

import models
import reference
from conftest import GE_TRANSITION, P_BAD, P_GOOD


class TestBsc:
    def test_noiseless(self):
        assert_allclose(qc.build_bsc(0.0).kernel[0, :, 0, :], np.eye(2))

    def test_crossover_rows(self):
        assert_allclose(qc.build_bsc(0.05).kernel[0, :, 0, :], [[0.95, 0.05], [0.05, 0.95]])

    def test_uniform(self):
        assert_allclose(qc.build_bsc(0.5).kernel[0, :, 0, :], np.full((2, 2), 0.5))

    @pytest.mark.parametrize("p", [-0.1, 1.1, np.nan])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            qc.build_bsc(p)


class TestGilbertElliott:
    def test_equal_flip_probabilities_reduce_to_bsc(self):
        f = qc.build_gilbert_elliott(0.3, 0.3, GE_TRANSITION)
        bsc = qc.build_bsc(0.3).kernel[0, :, 0, :]
        for s, x in itertools.product(range(2), range(2)):
            assert_allclose(f.kernel[s, x].sum(axis=0), bsc[x])

    def test_frozen_good_state_is_bsc(self):
        f = qc.build_gilbert_elliott(P_GOOD, P_BAD, np.eye(2), initial=[1.0, 0.0])
        assert_allclose(f.initial, [1.0, 0.0])
        assert_allclose(f.kernel[0, :, 0, :], qc.build_bsc(P_GOOD).kernel[0, :, 0, :])
        assert_allclose(f.kernel[0, :, 1, :], 0.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = rng.random((2, 2))
            t /= t.sum(axis=1, keepdims=True)
            f = qc.build_gilbert_elliott(rng.random(), rng.random(), t)
            sums = f.kernel.sum(axis=(2, 3))
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_state_chain_independent_of_input(self):
        f = qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION)
        marg = f.kernel.sum(axis=3)  # (s_prev, x, s_next)
        assert_allclose(marg[:, 0, :], marg[:, 1, :])
        assert_allclose(marg[:, 0, :], GE_TRANSITION)

    def test_default_initial_is_stationary(self):
        f = qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION)
        assert_allclose(f.initial @ GE_TRANSITION, f.initial, atol=1e-12)

    def test_rejects_bad_transition(self):
        with pytest.raises(ValueError):
            qc.build_gilbert_elliott(0.1, 0.9, np.array([[0.8, 0.1], [0.2, 0.8]]))

    def test_rejects_nan_transition(self):
        with pytest.raises(ValueError, match="transition rows must be pmfs"):
            qc.build_gilbert_elliott(0.1, 0.9, np.array([[np.nan, 1.0], [0.2, 0.8]]))


class TestQuantumGilbertElliott:
    def test_interaction_operator_entries(self):
        ch = qc.build_quantum_gilbert_elliott(0.05, 0.95)
        assert_allclose(
            np.diagonal(ch.kraus[0]),
            [np.sqrt(0.95), np.sqrt(0.95), np.sqrt(0.05), np.sqrt(0.05)],
        )
        expected_flip = np.zeros((4, 4))
        expected_flip[0, 1] = expected_flip[1, 0] = np.sqrt(0.05)
        expected_flip[2, 3] = expected_flip[3, 2] = np.sqrt(0.95)
        assert_allclose(ch.kraus[1], expected_flip)

    def test_completeness_for_any_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ch = qc.build_quantum_gilbert_elliott(rng.random(), rng.random(), alpha=rng.normal())
            gram = sum(e.conj().T @ e for e in ch.kraus)
            assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_zero_alpha_gives_identity_evolution(self):
        ch = qc.build_quantum_gilbert_elliott(0.1, 0.9, alpha=0.0)
        assert_allclose(ch.inter_use_unitary, np.eye(2), atol=1e-14)

    def test_default_initial_state_maximally_mixed(self):
        ch = qc.build_quantum_gilbert_elliott(0.1, 0.9)
        assert_allclose(ch.initial_state, np.eye(2) / 2)

    def test_two_qubit_variant(self):
        ch = qc.build_quantum_gilbert_elliott(
            0.1, 0.9, h=channels.DEFAULT_TWO_QUBIT_H, alpha=0.7
        )
        assert ch.state_dim == 4 and ch.kraus.shape == (2, 8, 8)
        base = qc.build_quantum_gilbert_elliott(0.1, 0.9).kraus
        # only the fast-index memory qubit interacts with the transmit system
        for ext, b in zip(ch.kraus, base):
            assert_allclose(ext, np.kron(np.eye(2), b))
        assert qc.validate(ch).ok

    def test_two_qubit_default_generator_has_distinct_levels(self):
        evals = np.linalg.eigvalsh(channels.DEFAULT_TWO_QUBIT_H)
        assert np.diff(evals).min() > 1e-3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qc.build_quantum_gilbert_elliott(1.2, 0.5)
        with pytest.raises(Exception):
            qc.build_quantum_gilbert_elliott(0.1, 0.5, h=np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            qc.build_quantum_gilbert_elliott(0.1, 0.5, h=np.eye(3))


class TestCompile:
    def test_noiseless_channel(self):
        t = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(0.0, 0.0))
        assert np.abs(t.operators[0, 1]).max() == 0.0
        assert np.abs(t.operators[1, 0]).max() == 0.0
        # transmission is perfect from any memory state
        rng = np.random.default_rng(12)
        state = models._random_density(rng, 2)
        p = reference.pieces(t)
        for x in range(2):
            assert_allclose(reference.output_pmf(p, state, x), np.eye(2)[x], atol=1e-12)

    def test_reference_setup_psd(self, quantum_ge):
        for x in range(2):
            for y in range(2):
                assert qc.is_psd(quantum_ge.operators[x, y])

    def test_random_channels_satisfy_conditions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ch = models.random_quantum_memory_channel(
                rng,
                state_dim=int(rng.integers(1, 4)),
                transmit_dim=2,
                n_kraus=int(rng.integers(1, 4)),
            )
            t = qc.compile_transfer_operators(ch)
            eye = np.eye(t.state_dim)
            for x in range(t.x_size):
                closure = np.einsum("yiuju->ij", t.tensors[x])
                assert np.abs(closure - eye).max() <= 1e-12
                for y in range(t.y_size):
                    assert qc.is_psd(t.operators[x, y])

    @pytest.mark.parametrize(
        "state_dim, transmit_dim, n_kraus, x_size, y_size",
        [(1, 2, 1, 2, 2), (2, 2, 2, 2, 2), (2, 3, 3, 3, 2), (3, 2, 2, 2, 3), (4, 2, 4, 2, 2),
         (2, 4, 2, 1, 4), (3, 3, 1, 4, 3)],
    )
    def test_one_contraction_equals_per_pair_contractions(
        self, state_dim, transmit_dim, n_kraus, x_size, y_size
    ):
        """All X * Y operators from one einsum are bit for bit those of
        one einsum per (x, y) pair, on random channels of the
        ``custom_kraus`` kind and on the quantum Gilbert-Elliott one."""
        rng = np.random.default_rng([state_dim, transmit_dim, n_kraus, x_size, y_size])
        chans = [
            models.random_quantum_memory_channel(
                rng, state_dim, transmit_dim, n_kraus, x_size, y_size
            )
            for _ in range(3)
        ]
        if (state_dim, transmit_dim) == (2, 2):
            chans.append(qc.build_quantum_gilbert_elliott(0.2, 0.8))
        for ch in chans:
            got = qc.compile_transfer_operators(ch).operators
            assert got.tobytes() == reference.transfer_operators(ch).tobytes()

    def test_stacked_compile_equals_one_at_a_time(self):
        """``compile_channels`` compiles and checks channels of equal
        shapes together.  Among broken channels (Kraus operators scaled by
        1.001, an encoding that is not p.s.d., an inter-use map that is
        not unitary, a non-finite initial state, which no check can take)
        and channels of other shapes, each entry is what compiling its
        channel alone gives: the operators bit for bit, or the same error
        type and message."""
        rng = np.random.default_rng(46)
        base = qc.build_quantum_gilbert_elliott(0.1, 0.6, alpha=1.0)
        chans = [
            models.random_quantum_memory_channel(rng),
            dataclasses.replace(base, kraus=base.kraus * 1.001),
            qc.build_quantum_gilbert_elliott(0.05, 0.3, alpha=0.4),
            dataclasses.replace(
                base, encodings=np.stack([np.diag([1.0, 0.0]), np.diag([1.5, -0.5])])
            ),
            qc.build_quantum_gilbert_elliott(0.05, 0.3, h=channels.DEFAULT_TWO_QUBIT_H, alpha=1.0),
            dataclasses.replace(base, inter_use_unitary=np.array([[1.0, 0.1], [0.0, 1.0]])),
            dataclasses.replace(base, initial_state=np.array([[1.0, np.nan], [0.0, 0.0]])),
            models.random_quantum_memory_channel(rng, state_dim=3, n_kraus=3, y_size=3),
            base,
        ]

        def outcome(result):
            if isinstance(result, channels.TransferOperatorSet):
                return result.operators.tobytes(), result.initial_state.tobytes()
            return type(result), str(result)

        def alone(ch):
            try:
                return qc.compile_transfer_operators(ch)
            except QchanrateError as exc:
                return exc

        got = [outcome(r) for r in channels.compile_channels(chans)]
        assert got == [outcome(alone(ch)) for ch in chans]
        failed = [(k, text.split(" violated")[0]) for k, text in got if isinstance(k, type)]
        assert failed == [
            (ModelValidationError, "kraus completeness (sum E^H E = I)"),
            (ModelValidationError, "encoding 1 positive semidefinite"),
            (ModelValidationError, "inter-use unitary"),
            (OperatorError, "operator contains non-finite entries"),
        ]

    def test_rejects_incomplete_kraus(self):
        ch = qc.build_quantum_gilbert_elliott(0.2, 0.8)
        broken = channels.QuantumMemoryChannel(
            state_dim=2,
            encodings=ch.encodings,
            kraus=ch.kraus * 0.9,
            measurements=ch.measurements,
            inter_use_unitary=ch.inter_use_unitary,
            initial_state=ch.initial_state,
        )
        with pytest.raises(ModelValidationError, match="kraus completeness"):
            qc.compile_transfer_operators(broken)

    def test_rejects_rectangular_kraus(self):
        with pytest.raises(ValueError, match="square"):
            channels.QuantumMemoryChannel(
                state_dim=2,
                encodings=np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex),
                kraus=np.zeros((1, 4, 6), dtype=complex),
                measurements=np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex),
                inter_use_unitary=np.eye(2, dtype=complex),
                initial_state=np.eye(2, dtype=complex) / 2,
            )


class TestEmbedding:
    def test_single_state_scalars(self):
        t = models.embed_classical_as_quantum(qc.build_bsc(0.3))
        assert t.state_dim == 1
        for x in range(2):
            for y in range(2):
                assert_allclose(t.operators[x, y], [[qc.build_bsc(0.3).kernel[0, :, 0, :][x, y]]])

    def test_embedded_set_satisfies_conditions(self, classical_ge):
        t = models.embed_classical_as_quantum(classical_ge)
        report = qc.validate(t)
        assert report.ok, report.summary()

    def test_diagonal_structure(self, classical_ge):
        t = models.embed_classical_as_quantum(classical_ge)
        for x in range(2):
            for y in range(2):
                m = t.operators[x, y]
                assert np.abs(m - np.diag(np.diagonal(m))).max() == 0.0


class TestValidate:
    def test_reference_setup_all_pass(self):
        ch = qc.build_quantum_gilbert_elliott(P_GOOD, P_BAD, alpha=1.0)
        report = qc.validate(ch)
        assert report.ok, report.summary()
        assert not report.failures()

    def test_kernel_row_deficit_witness(self, classical_ge):
        kernel = classical_ge.kernel.copy()
        kernel[0, 0] *= 0.9
        broken = channels.ClassicalFsmc(kernel, classical_ge.initial)
        report = qc.validate(broken)
        assert not report.ok
        (failure,) = report.failures()
        assert failure.name == "kernel rows sum to one"
        assert abs(failure.witness - 0.1) < 1e-12

    def test_missing_kraus_normalization_named(self):
        ch = qc.build_quantum_gilbert_elliott(0.2, 0.8)
        broken = channels.QuantumMemoryChannel(
            state_dim=2,
            encodings=ch.encodings,
            kraus=ch.kraus[:1],
            measurements=ch.measurements,
            inter_use_unitary=ch.inter_use_unitary,
            initial_state=ch.initial_state,
        )
        report = qc.validate(broken)
        names = [c.name for c in report.failures()]
        assert "kraus completeness (sum E^H E = I)" in names

    def test_transfer_set_psd_failure(self, quantum_ge):
        ops = quantum_ge.operators.copy()
        ops[0, 0] = -np.eye(4)
        report = qc.validate(channels.TransferOperatorSet(ops, quantum_ge.initial_state))
        assert any(
            not c.passed and c.name == "transfer operators positive semidefinite"
            for c in report.checks
        )

    def test_first_failure_detail_in_raised_error(self, quantum_ge):
        """``require_valid``, which also checks every compiled set, names
        the input and output of the first operator that is not p.s.d.,
        and the input whose outputs close furthest from the identity."""
        ops = quantum_ge.operators.copy()
        ops[1, 0] = -np.eye(4)
        broken = channels.TransferOperatorSet(ops, quantum_ge.initial_state)
        with pytest.raises(ModelValidationError, match="input 1, output 0: negative eigenvalue"):
            channels.require_valid(broken)
        ops = quantum_ge.operators.copy()
        ops[1] *= 1.001
        broken = channels.TransferOperatorSet(ops, quantum_ge.initial_state)
        with pytest.raises(ModelValidationError, match="trace consistency .*: worst at input 1;"):
            channels.require_valid(broken)

    def test_summary_mentions_every_check(self, classical_ge):
        text = qc.validate(classical_ge).summary()
        assert "kernel rows sum to one" in text and "PASS" in text


class TestRandomModelGenerators:
    def test_classical_models_valid(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            assert qc.validate(models.random_classical_fsmc(rng)).ok

    def test_quantum_models_valid(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            ch = models.random_quantum_memory_channel(rng)
            assert qc.validate(ch).ok


class TestGlobalFunctionProperties:
    """Small-length enumerations of the joint sequence function."""

    def test_classical_global_function_is_pmf(self, uniform):
        rng = np.random.default_rng(16)
        for _ in range(5):
            f = models.random_classical_fsmc(rng)
            n = 3
            total = 0.0
            for xs in itertools.product(range(2), repeat=n):
                for ys in itertools.product(range(2), repeat=n):
                    for path in itertools.product(range(2), repeat=n + 1):
                        g = f.initial[path[0]]
                        for step in range(n):
                            g *= uniform.p[xs[step]] * f.kernel[
                                path[step], xs[step], path[step + 1], ys[step]
                            ]
                        assert g >= 0.0
                        total += g
            assert abs(total - 1.0) <= 1e-10

    def test_quantum_global_function_marginal_is_pmf(self, uniform):
        rng = np.random.default_rng(17)
        for _ in range(5):
            t = qc.compile_transfer_operators(models.random_quantum_memory_channel(rng))
            tables = brute_force_oracle(t, uniform, 3)
            assert tables.joint.min() >= -1e-12
            assert abs(tables.joint.sum() - 1.0) <= 1e-10

    def test_doubled_index_conjugate_symmetry(self, quantum_ge, uniform):
        # per-factor symmetry: each transfer operator is Hermitian
        for x in range(2):
            for y in range(2):
                m = quantum_ge.operators[x, y]
                assert np.abs(m - m.conj().T).max() <= 1e-14
        # and it propagates to the enumerated sequence function at n=2
        t, q = quantum_ge, uniform
        w = t.tensors
        rho0 = t.initial_state
        n = 2
        for xs in itertools.product(range(2), repeat=n):
            for ys in itertools.product(range(2), repeat=n):
                for s_path in itertools.product(range(2), repeat=n + 1):
                    for sp_path in itertools.product(range(2), repeat=n + 1):
                        def term(a, b):
                            g = rho0[a[0], b[0]]
                            for step in range(n):
                                g *= w[xs[step], ys[step], a[step], a[step + 1],
                                       b[step], b[step + 1]]
                            return g
                        assert abs(term(s_path, sp_path) - np.conj(term(sp_path, s_path))) <= 1e-14
