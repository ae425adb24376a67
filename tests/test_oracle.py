import itertools
import math

import numpy as np
import pytest

import qchanrate as qc
from qchanrate import rates
from qchanrate.errors import OracleBudgetError, SequenceError
from qchanrate.oracle import brute_force_oracle

import models
from reference import oracle_joint_prob, oracle_output_prob


class TestTables:
    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_classical_tables_are_pmfs(self, seed, uniform):
        f = models.random_classical_fsmc(np.random.default_rng(seed))
        tables = brute_force_oracle(f, uniform, 3)
        assert abs(tables.joint.sum() - 1.0) <= 1e-10
        assert tables.joint.min() >= 0.0
        assert np.abs(tables.output - tables.joint.sum(axis=0)).max() == 0.0

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_quantum_tables_are_pmfs(self, seed, uniform):
        t = qc.compile_transfer_operators(
            models.random_quantum_memory_channel(np.random.default_rng(seed))
        )
        tables = brute_force_oracle(t, uniform, 3)
        assert abs(tables.joint.sum() - 1.0) <= 1e-10
        assert tables.joint.min() >= -1e-12

    def test_lookup_matches_sequence_functions(self, quantum_ge, uniform):
        tables = brute_force_oracle(quantum_ge, uniform, 3)
        for xs in itertools.product(range(2), repeat=3):
            for ys in itertools.product(range(2), repeat=3):
                assert abs(
                    tables.joint_prob(xs, ys) - oracle_joint_prob(quantum_ge, uniform, xs, ys)
                ) <= 1e-14
        for ys in itertools.product(range(2), repeat=3):
            assert abs(
                tables.output_prob(ys) - oracle_output_prob(quantum_ge, uniform, ys)
            ) <= 1e-14

    @pytest.mark.parametrize(
        "seq",
        [[1], [0, 0, 1, 0], [0, 0, 2], [0, -1, 0], [0.0, 0.0, 1.0]],
        ids=["short", "long", "beyond-alphabet", "negative", "not-integer"],
    )
    def test_lookup_rejects_sequences_without_an_entry(self, quantum_ge, uniform, seq):
        """Such a sequence has no entry, so it must not read another's."""
        tables = brute_force_oracle(quantum_ge, uniform, 3)
        with pytest.raises(SequenceError, match="output sequence must hold 3"):
            tables.output_prob(seq)
        with pytest.raises(SequenceError, match="output sequence must hold 3"):
            tables.joint_prob([0, 0, 0], seq)
        with pytest.raises(SequenceError, match="input sequence must hold 3"):
            tables.joint_prob(seq, [0, 0, 0])


class TestSequenceProbabilities:
    def test_distributed_input_sum_matches_literal_enumeration(self, quantum_ge, uniform):
        """oracle_output_prob folds the input-law sum into the per-step
        factors; summing oracle_joint_prob over all input sequences must
        give the same number."""
        rng = np.random.default_rng(46)
        for _ in range(5):
            ys = rng.integers(0, 2, size=4)
            literal = sum(
                oracle_joint_prob(quantum_ge, uniform, xs, ys)
                for xs in itertools.product(range(2), repeat=4)
            )
            assert abs(literal - oracle_output_prob(quantum_ge, uniform, ys)) <= 1e-13

    def test_classical_equals_embedded_quantum(self, classical_ge, uniform):
        t = models.embed_classical_as_quantum(classical_ge)
        rng = np.random.default_rng(47)
        for _ in range(5):
            ys = rng.integers(0, 2, size=5)
            xs = rng.integers(0, 2, size=5)
            assert abs(
                oracle_output_prob(classical_ge, uniform, ys)
                - oracle_output_prob(t, uniform, ys)
            ) <= 1e-13
            assert abs(
                oracle_joint_prob(classical_ge, uniform, xs, ys)
                - oracle_joint_prob(t, uniform, xs, ys)
            ) <= 1e-13

    def test_cross_check_against_recursion(self, quantum_ge, classical_ge, uniform):
        rng = np.random.default_rng(48)
        for model, forward in (
            (quantum_ge, rates.scaled_forward_quantum),
            (classical_ge, rates.scaled_forward_classical),
        ):
            for _ in range(20):
                ys = rng.integers(0, 2, size=5)
                log_rec = -forward(model, uniform, ys).sum()
                assert abs(log_rec - math.log(oracle_output_prob(model, uniform, ys))) <= 1e-10


class TestBudget:
    def test_rejects_long_sequences(self, quantum_ge, uniform):
        with pytest.raises(OracleBudgetError):
            oracle_output_prob(quantum_ge, uniform, np.zeros(11, dtype=int))

    def test_rejects_oversized_tables(self, uniform):
        rng = np.random.default_rng(49)
        t = qc.compile_transfer_operators(
            models.random_quantum_memory_channel(rng, state_dim=3)
        )
        with pytest.raises(OracleBudgetError):
            brute_force_oracle(t, uniform, 10)

    def test_length_mismatch(self, quantum_ge, uniform):
        with pytest.raises(ValueError):
            oracle_joint_prob(quantum_ge, uniform, [0, 1], [0, 1, 1])
