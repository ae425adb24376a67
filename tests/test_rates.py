import dataclasses
import inspect
import math
import re
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qchanrate as qc
from qchanrate import channels, rates
from qchanrate.cli import main
from qchanrate.errors import (
    ImpossibleObservationError,
    NumericalCorruptionError,
    SequenceError,
)

import models
from conftest import GE_TRANSITION, P_BAD, P_GOOD, binary_entropy
from reference import (
    dmc_information_rate,
    forward_steps,
    iterate_steps,
    oracle_joint_prob,
    oracle_output_prob,
)

# Lengths around the block boundaries of the blocked recursion
# (block length ceil(sqrt(n)): 1, 2, 4, 4, 5 and 32 steps).
AGREEMENT_LENGTHS = [1, 2, 15, 16, 17, 1000]


@pytest.fixture(scope="module")
def random_s3():
    """A random three-level memory channel."""
    return qc.compile_transfer_operators(
        models.random_quantum_memory_channel(np.random.default_rng(41), state_dim=3)
    )


class TestDmcInformationRate:
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.11, 0.3, 0.5, 0.95, 1.0])
    def test_bsc_closed_form(self, p, uniform):
        got = dmc_information_rate(uniform, qc.build_bsc(p).kernel[0, :, 0, :])
        assert abs(got - (1.0 - binary_entropy(p))) <= 1e-12

    def test_uniform_bsc_is_zero(self, uniform):
        assert dmc_information_rate(uniform, qc.build_bsc(0.5).kernel[0, :, 0, :]) == 0.0

    def test_reference_value(self, uniform):
        w = qc.build_bsc(0.05).kernel[0, :, 0, :]
        assert abs(dmc_information_rate(uniform, w) - 0.713603) <= 1e-6

    def test_skewed_input(self):
        q = qc.InputLaw([0.6, 0.4])
        w = np.array([[0.8, 0.2], [0.3, 0.7]])
        qy = q.p @ w
        expected = sum(
            q.p[x] * w[x, y] * math.log2(w[x, y] / qy[y])
            for x in range(2)
            for y in range(2)
        )
        assert abs(dmc_information_rate(q, w) - expected) <= 1e-14

    def test_alphabet_mismatch(self, uniform):
        with pytest.raises(ValueError):
            dmc_information_rate(qc.InputLaw([1.0]), qc.build_bsc(0.1).kernel[0, :, 0, :])

    def test_annotations_resolve(self):
        """``typing.get_type_hints`` can evaluate the annotations: each
        names a type the module imports."""
        hints = {
            name: typing.get_type_hints(fn)
            for module in (rates, channels)
            for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_"
        }
        assert hints["build_bsc"]["return"] is channels.ClassicalFsmc


class TestClassicalForward:
    def test_single_state_matches_memoryless_form(self):
        q = qc.InputLaw([0.6, 0.4])
        w = np.array([[0.8, 0.2], [0.3, 0.7]])
        f = qc.ClassicalFsmc(w[None, :, None, :], np.array([1.0]))
        qy = q.p @ w
        ys = np.array([0, 1, 1, 0, 1, 0, 0])
        logs = rates.scaled_forward_classical(f, q, ys)
        assert_allclose(logs, -np.log(qy[ys]), atol=1e-14)

    def test_uniform_output_scale_factor_is_alphabet_size(self, uniform):
        f = qc.build_bsc(0.5)
        logs = rates.scaled_forward_classical(f, uniform, np.array([0, 1, 1, 0]))
        assert_allclose(np.exp(logs), 2.0)

    def test_recursion_matches_path_enumeration(self, classical_ge, uniform):
        rng = np.random.default_rng(30)
        for _ in range(10):
            ys = rng.integers(0, 2, size=8)
            xs = rng.integers(0, 2, size=8)
            log_py = -rates.scaled_forward_classical(classical_ge, uniform, ys).sum()
            assert abs(log_py - math.log(oracle_output_prob(classical_ge, uniform, ys))) <= 1e-12
            log_pxy = -rates.scaled_forward_classical(classical_ge, uniform, ys, xs).sum()
            assert abs(log_pxy - math.log(oracle_joint_prob(classical_ge, uniform, xs, ys))) <= 1e-12

    @pytest.mark.parametrize("n", AGREEMENT_LENGTHS)
    @pytest.mark.parametrize("joint", [False, True], ids=["y", "xy"])
    def test_step_function_agrees_with_driver(self, classical_ge, uniform, joint, n):
        traj = qc.sample_trajectory(classical_ge, uniform, n, seed=39)
        xs = traj.x if joint else None
        ref, _, failure = iterate_steps(classical_ge, uniform, traj.y, xs)
        assert failure is None
        engine_logs = rates.scaled_forward_classical(classical_ge, uniform, traj.y, xs)
        assert np.abs(engine_logs - ref).max() <= 1e-12

    def test_impossible_observation(self, uniform):
        f = qc.build_bsc(0.0)
        with pytest.raises(ImpossibleObservationError):
            rates.scaled_forward_classical(f, uniform, np.array([1]), np.array([0]))


class TestQuantumForward:
    def test_embedded_model_reproduces_classical_recursion(self, classical_ge, uniform):
        t = models.embed_classical_as_quantum(classical_ge)
        traj = qc.sample_trajectory(classical_ge, uniform, 500, seed=31)
        for xs in (None, traj.x):
            lc = rates.scaled_forward_classical(classical_ge, uniform, traj.y, xs)
            lq = rates.scaled_forward_quantum(t, uniform, traj.y, xs)
            assert np.abs(lc - lq).max() <= 1e-12
        # state operators stay diagonal with the classical metric on the diagonal
        steps = zip(
            forward_steps(classical_ge, uniform, traj.y[:50]),
            forward_steps(t, uniform, traj.y[:50]),
        )
        for (_, m), (_, s) in steps:
            assert np.abs(np.diagonal(s) - m).max() <= 1e-12
            assert np.abs(s - np.diag(np.diagonal(s))).max() <= 1e-14

    def test_recursion_matches_path_enumeration(self, quantum_ge, uniform):
        rng = np.random.default_rng(32)
        for _ in range(10):
            ys = rng.integers(0, 2, size=8)
            xs = rng.integers(0, 2, size=8)
            log_py = -rates.scaled_forward_quantum(quantum_ge, uniform, ys).sum()
            assert abs(log_py - math.log(oracle_output_prob(quantum_ge, uniform, ys))) <= 1e-10
            log_pxy = -rates.scaled_forward_quantum(quantum_ge, uniform, ys, xs).sum()
            assert abs(log_pxy - math.log(oracle_joint_prob(quantum_ge, uniform, xs, ys))) <= 1e-10

    @pytest.mark.parametrize("n", AGREEMENT_LENGTHS)
    @pytest.mark.parametrize("joint", [False, True], ids=["y", "xy"])
    @pytest.mark.parametrize("name", ["quantum_ge", "random_s3"])
    def test_step_function_agrees_with_driver(self, request, uniform, name, joint, n):
        model = request.getfixturevalue(name)
        traj = qc.sample_trajectory(model, uniform, n, seed=42)
        xs = traj.x if joint else None
        ref, last, failure = iterate_steps(model, uniform, traj.y, xs)
        assert failure is None
        assert abs(np.trace(last).real - 1.0) <= 1e-12
        engine_logs = rates.scaled_forward_quantum(model, uniform, traj.y, xs)
        assert np.abs(engine_logs - ref).max() <= 1e-12

    def test_initial_scale_invariance(self, quantum_ge, uniform):
        """A positive rescaling of the starting state is absorbed by the
        first normalization; later scale factors and states match."""
        scaled = channels.TransferOperatorSet(
            quantum_ge.operators, 2.5 * quantum_ge.initial_state
        )
        ys = np.array([0, 1, 1, 0, 1, 0, 1, 1])
        base = rates.scaled_forward_quantum(quantum_ge, uniform, ys)
        resc = rates.scaled_forward_quantum(scaled, uniform, ys)
        assert np.abs(base[1:] - resc[1:]).max() <= 1e-12
        assert abs((base[0] - resc[0]) - math.log(2.5)) <= 1e-12
        steps = zip(forward_steps(quantum_ge, uniform, ys), forward_steps(scaled, uniform, ys))
        for (_, s_base), (_, s_resc) in steps:
            assert np.abs(s_base - s_resc).max() <= 1e-12


# A quantum recursion of n = 1000 steps runs in words of 3 steps and
# blocks of 19 words: 17 full blocks and a final block of 31 steps.  The
# planted steps sit in the first words, open word 16 of block 16, fall
# inside block 17, end the sequence and (the last one) end block 16; they
# take each of the three positions in a word.  A one-state recursion
# settles in closed form.
GUARD_N = 1000
GUARD_STEPS = [1, 5, 960, 991, 999, 968]


def from_chain(chain: np.ndarray, initial_state: np.ndarray) -> channels.TransferOperatorSet:
    """The transfer-operator set of step matrices in chain layout."""
    x_size, y_size, d = chain.shape[:3]
    s = math.isqrt(d)
    ops = chain.reshape(x_size, y_size, s, s, s, s).transpose(0, 1, 2, 4, 3, 5)
    return channels.TransferOperatorSet(ops.reshape(x_size, y_size, d, d), initial_state)


def with_extra_output(t: channels.TransferOperatorSet, chain_extra: np.ndarray):
    """``t`` with one more output symbol, given in chain layout per input."""
    chain = np.concatenate([t.chain_operators, chain_extra[:, None]], axis=1)
    return from_chain(chain, t.initial_state)


def assert_trips_like_reference(forward, model, q, ys, xs, error):
    """The driver raises ``error`` at the step where the sequential
    reference first raises it, and emits no warning on the way; returns
    that step."""
    _, _, failure = iterate_steps(model, q, ys, xs)
    assert failure is not None and isinstance(failure[1], error)
    at = failure[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=rf"at step {at}\b"):
            forward(model, q, ys, xs)
    return at


class TestRecursionGuards:
    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_zero_probability_classical(self, uniform, planted):
        """A noiseless channel makes every block product that contains a
        flipped output all zero."""
        f = qc.build_bsc(0.0)
        xs = np.random.default_rng(43).integers(0, 2, GUARD_N)
        ys = xs.copy()
        ys[[planted, GUARD_N - 1]] ^= 1
        at = assert_trips_like_reference(
            rates.scaled_forward_classical, f, uniform, ys, xs, ImpossibleObservationError
        )
        assert at == planted

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_zero_probability_quantum(self, uniform, planted):
        t = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(0.0, 0.0, alpha=1.0))
        xs = np.random.default_rng(44).integers(0, 2, GUARD_N)
        ys = xs.copy()
        ys[[planted, GUARD_N - 1]] ^= 1
        at = assert_trips_like_reference(
            rates.scaled_forward_quantum, t, uniform, ys, xs, ImpossibleObservationError
        )
        assert at == planted

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_imaginary_trace_residue(self, quantum_ge, uniform, planted):
        t = with_extra_output(quantum_ge, np.exp(0.3j) * quantum_ge.chain_operators[:, 0])
        ys = qc.sample_trajectory(quantum_ge, uniform, GUARD_N, seed=45).y
        ys[[planted, GUARD_N - 1]] = 2
        at = assert_trips_like_reference(
            rates.scaled_forward_quantum, t, uniform, ys, None, NumericalCorruptionError
        )
        assert at == planted

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_hermiticity_residue(self, quantum_ge, uniform, planted):
        """The extra output adds a tenth of the trace to one off-diagonal
        entry of the state and not to its mirror."""
        skew = np.eye(4)
        skew[[0, 3], 1] += 0.1
        t = with_extra_output(quantum_ge, quantum_ge.chain_operators[:, 0] @ skew)
        ys = qc.sample_trajectory(quantum_ge, uniform, GUARD_N, seed=46).y
        ys[[planted, GUARD_N - 1]] = 2
        at = assert_trips_like_reference(
            rates.scaled_forward_quantum, t, uniform, ys, None, NumericalCorruptionError
        )
        assert at == planted

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_normalizer_classical(self, classical_ge, uniform, value):
        """A corrupt kernel entry is numerical corruption at the first step
        whose normalizer it reaches, not a zero-probability observation."""
        kernel = classical_ge.kernel.copy()
        kernel[:, 1, 0, 0] = value
        f = qc.ClassicalFsmc(kernel, classical_ge.initial)
        traj = qc.sample_trajectory(classical_ge, uniform, GUARD_N, seed=47)
        first = int(np.flatnonzero((traj.x == 1) & (traj.y == 0))[0])
        pattern = rf"normalizer is {value} at step {first}$"
        with pytest.raises(NumericalCorruptionError, match=pattern):
            rates.scaled_forward_classical(f, uniform, traj.y, traj.x)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in the reference's steps
            _, _, (at, exc) = iterate_steps(f, uniform, traj.y, traj.x)
        assert at == first and isinstance(exc, NumericalCorruptionError)

    def test_non_finite_normalizer_quantum(self, quantum_ge, uniform):
        """A NaN or infinite transfer-operator entry reaches the normalizer
        as NaN (the infinite one times a zero), with no ``RuntimeWarning``."""
        traj = qc.sample_trajectory(quantum_ge, uniform, GUARD_N, seed=48)
        first = int(np.flatnonzero((traj.x == 1) & (traj.y == 0))[0])
        for value in (np.nan, np.inf):
            ops = quantum_ge.operators.copy()
            ops[1, 0, 0, 0] = value
            t = channels.TransferOperatorSet(ops, quantum_ge.initial_state)
            pattern = rf"normalizer is nan at step {first}$"
            with pytest.raises(NumericalCorruptionError, match=pattern):
                rates.scaled_forward_quantum(t, uniform, traj.y, traj.x)
            with np.errstate(invalid="ignore"):  # inf * 0 in the reference's steps
                _, _, (at, exc) = iterate_steps(t, uniform, traj.y, traj.x)
            assert at == first and isinstance(exc, NumericalCorruptionError)

    @pytest.mark.parametrize("joint", [False, True], ids=["y", "xy"])
    def test_unused_faulty_output_never_trips(self, quantum_ge, uniform, joint):
        """The Hermiticity and imaginary-residue guards are measured once
        per step matrix and trip only on a step that uses it: an extra
        output with a map that leaves the Hermitian states changes
        nothing while it is never observed, and trips where it is."""
        skew = np.eye(4)
        skew[[0, 3], 1] += 0.1
        t = with_extra_output(quantum_ge, np.exp(0.3j) * quantum_ge.chain_operators[:, 0] @ skew)
        traj = qc.sample_trajectory(quantum_ge, uniform, GUARD_N, seed=49)
        xs = traj.x if joint else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs = rates.scaled_forward_quantum(t, uniform, traj.y, xs)
        assert np.array_equal(logs, rates.scaled_forward_quantum(quantum_ge, uniform, traj.y, xs))
        ys = traj.y.copy()
        ys[GUARD_STEPS[0]] = 2
        with pytest.raises(NumericalCorruptionError, match=rf"at step {GUARD_STEPS[0]}$"):
            rates.scaled_forward_quantum(t, uniform, ys, xs)

    def test_underflowing_block_product_is_recovered(self, uniform):
        """From state 0 an output 0 is a million times less likely than
        from state 1, so the state-0 row of a block product of 63 such
        steps falls by about 2**-1260 against the state-1 row; output 1
        then moves state 0 to state 1.  Each row keeps its own power of
        two, so one pass settles it, and the per-step logs match the
        sequential reference."""
        kernel = np.zeros((2, 1, 2, 2))
        kernel[0, 0, 0, 0] = 1e-6
        kernel[0, 0, 1, 1] = 1.0 - 1e-6
        kernel[1, 0, 1, :] = 0.5
        f = qc.ClassicalFsmc(kernel, np.array([1.0, 0.0]))
        q = qc.InputLaw([1.0])
        ys = np.zeros(4000, dtype=np.int64)
        ys[63] = 1
        ref, _, failure = iterate_steps(f, q, ys)
        assert failure is None
        before = rates.passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_logs = rates.scaled_forward_classical(f, q, ys)
        assert rates.passes - before == 1
        assert np.abs(engine_logs - ref).max() <= 1e-12

    def test_zeroed_peak_row_is_recovered(self, monkeypatch):
        """State 0 emits only output 0 and leaks into state 1 with
        probability 1e-35 per step; state 1 emits either output.  After
        63 outputs 0 an output 1 zeroes the state-0 column, which held
        every block row's peak, and leaves rows 1e-35 of it: the block is
        evaluated again, one step per word, and the logs match the
        sequential reference."""
        kernel = np.zeros((2, 1, 2, 2))
        kernel[0, 0, 0, 0] = 1.0 - 1e-35
        kernel[0, 0, 1, 0] = 1e-35
        kernel[1, 0, 1, :] = 0.5
        f = qc.ClassicalFsmc(kernel, np.array([1.0, 0.0]))
        q = qc.InputLaw([1.0])
        ys = np.zeros(4000, dtype=np.int64)
        ys[63] = 1
        ref, _, failure = iterate_steps(f, q, ys)
        assert failure is None
        before = rates.passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_logs = rates.scaled_forward_classical(f, q, ys)
        assert rates.passes - before == 2  # one more from the block's start
        assert np.abs(engine_logs - ref).max() <= 1e-12

        # Stacked with a recursion that settles in one pass, each keeps
        # its own logs, and the rerun covers only the unsettled tail.
        calm = np.zeros(4000, dtype=np.int64)
        calm_logs = rates.scaled_forward_classical(f, q, calm)
        one_pass = rates._blocked_pass
        stack_sizes = []

        def recorded(mats, closure, starts, index, *rest):
            stack_sizes.append(len(index))
            return one_pass(mats, closure, starts, index, *rest)

        monkeypatch.setattr(rates, "_blocked_pass", recorded)
        stacked = rates.stacked_forward_logs(
            [rates.recursion(f, q, ys), rates.recursion(f, q, calm)]
        )
        assert stack_sizes == [2, 1]
        assert np.array_equal(stacked[0], engine_logs)
        assert np.array_equal(stacked[1], calm_logs)

    def test_underflowing_rescale_interval_is_recovered(self):
        """A three-state rotation whose observed output has probability
        1e-50, 2e-50 or 4e-50 depending on the state: every product of
        RESCALE_EVERY steps underflows to zero, so no block start after
        the first can come from the products.  At n = 5041 the blocks
        have 71 steps, not a multiple of 3, so a stale start is a wrong
        state and shifts the logs by log 2.  The per-step logs must
        still match the sequential reference."""
        kernel = np.zeros((3, 1, 3, 2))
        for s, scale in enumerate([1.0, 2.0, 4.0]):
            kernel[s, 0, (s + 1) % 3] = [scale * 1e-50, 1.0 - scale * 1e-50]
        f = qc.ClassicalFsmc(kernel, np.array([1.0, 0.0, 0.0]))
        q = qc.InputLaw([1.0])
        ys = np.zeros(5041, dtype=np.int64)
        ref, _, failure = iterate_steps(f, q, ys)
        assert failure is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_logs = rates.scaled_forward_classical(f, q, ys)
        assert np.abs(engine_logs - ref).max() <= 1e-12

    @pytest.mark.parametrize("states", [11, 97])
    def test_tiny_probability_rotation_settles_in_one_pass(self, states):
        """A rotation through ``states`` states whose observed output has
        probability (1 + s) * 1e-50 in state s.  Unscaled, every product of
        RESCALE_EVERY steps underflowed and the engine settled one block
        per pass at n = 5041 (11 passes for 11 states, 128 for 97); each
        step matrix scaled by an exact power of two, one pass settles all
        of it, and the logs match the sequential reference."""
        kernel = np.zeros((states, 1, states, 2))
        for s in range(states):
            kernel[s, 0, (s + 1) % states] = [(1 + s) * 1e-50, 1.0 - (1 + s) * 1e-50]
        f = qc.ClassicalFsmc(kernel, np.eye(states)[0])
        q = qc.InputLaw([1.0])
        ys = np.zeros(5041, dtype=np.int64)
        before = rates.passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_logs = rates.scaled_forward_classical(f, q, ys)
        assert rates.passes - before == 1
        ref, _, failure = iterate_steps(f, q, ys)
        assert failure is None
        assert np.abs(engine_logs - ref).max() <= 1e-12


def two_path_model() -> qc.ClassicalFsmc:
    """Two states that never move: state 0 emits output 1 with
    probability 1e-80, state 1 emits output 0 with probability 1e-79."""
    k = np.zeros((2, 1, 2, 2))
    k[0, 0, 0] = [1 - 1e-80, 1e-80]
    k[1, 0, 1] = [1e-79, 1 - 1e-79]
    return qc.ClassicalFsmc(k, np.array([0.5, 0.5]))


class TestReducibleUnderflow:
    """Alternating outputs on ``two_path_model``: every path through a
    block picks up about 1e-80 on every other step.  A block product
    rescaled too rarely reaches the subnormal range, where its two
    diagonal entries round differently, and the rate comes out wrong
    (132.887 bits for 131.226 at n = 100) with no error."""

    @pytest.mark.parametrize("n", [100, 5041])
    @pytest.mark.parametrize("embedded", [False, True], ids=["classical", "embedded"])
    def test_rate_matches_closed_form(self, n, embedded):
        f = two_path_model()
        model = models.embed_classical_as_quantum(f) if embedded else f
        q = qc.InputLaw([1.0])
        traj = qc.Trajectory(x=np.zeros(n, dtype=np.int64), y=np.arange(n) % 2, seed=0)
        before = rates.passes
        hy = qc.entropy_rate_estimates(model, q, traj).hy
        assert rates.passes - before == 1  # the output-only and joint recursions, stacked
        zeros, ones = (n + 1) // 2, n // 2
        paths = [
            math.log(0.5) + zeros * math.log1p(-1e-80) + ones * math.log(1e-80),
            math.log(0.5) + zeros * math.log(1e-79) + ones * math.log1p(-1e-79),
        ]
        assert abs(hy + np.logaddexp(*paths) / (n * math.log(2.0))) <= 1e-9
        ref, _, failure = iterate_steps(model, q, traj.y)
        assert failure is None
        (logs,) = rates.stacked_forward_logs([rates.recursion(model, q, traj.y)])
        assert np.abs(logs - ref).max() <= 1e-12


class TestStackIndependence:
    """A recursion's logs do not depend on the stack it runs in: each
    word's table entry depends on that word alone, each recursion keeps
    its own word length and rescale schedule, and recursions of another
    word length run in a pass of their own."""

    N = 5000

    def recursions(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, self.N, seed=60)
        three = qc.compile_transfer_operators(
            models.random_quantum_memory_channel(np.random.default_rng(61), y_size=3)
        )
        # An embedded chain whose state 1 emits output 0 with probability
        # 1e-20: that row of the output-0 matrix is 1e-20 of its peak, and
        # the rescale cap allows words of one step only.
        k = np.full((2, 2, 2, 2), 0.25)
        k[1, :, :, 0] = 0.5e-20
        k[1, :, :, 1] = 0.5 - 0.5e-20
        steep = models.embed_classical_as_quantum(qc.ClassicalFsmc(k, np.array([0.5, 0.5])))
        ys = np.random.default_rng(62).integers(0, 3, self.N)
        return [
            rates.recursion(quantum_ge, uniform, traj.y),
            rates.recursion(quantum_ge, uniform, traj.y, traj.x),
            rates.recursion(three, uniform, ys),
            rates.recursion(steep, uniform, traj.y),
        ]

    def test_logs_equal_alone_and_stacked(self, quantum_ge, uniform, monkeypatch):
        recs = self.recursions(quantum_ge, uniform)
        lengths = [rates._recursion_word_length(r) for r in recs]
        assert lengths[0] > 1 and len(set(lengths)) == 2
        # The members that share the longer words have distinct caps, so
        # the stack's one rescale interval differs from some member's own.
        caps = [r.cap for r, m in zip(recs, lengths) if m == lengths[0]]
        assert len(caps) == len(set(caps)) == 3
        alone = [rates.stacked_forward_logs([r])[0] for r in recs]
        one_pass = rates._blocked_pass
        passes = []

        def recorded(mats, closure, starts, index, m, every):
            passes.append({m})
            return one_pass(mats, closure, starts, index, m, every)

        monkeypatch.setattr(rates, "_blocked_pass", recorded)
        stacked = rates.stacked_forward_logs(recs)
        assert sorted(map(sorted, passes)) == [[1], [lengths[0]]]
        for got, ref in zip(stacked, alone):
            assert np.array_equal(got, ref)

    def test_rows_that_share_a_model_equal_each_row_alone(
        self, classical_ge, quantum_ge, uniform
    ):
        """One builder makes each (model, law, joint) once, so recursions
        of one model share its step matrices and a stack's table holds
        them once; each recursion's logs still equal, bit for bit, those
        it gets built and run alone, and ``estimate_rows``, which builds
        its rows that way, gives each row its estimate alone."""
        trajs = [qc.sample_trajectory(quantum_ge, uniform, 2000, seed) for seed in (63, 64, 65)]
        build = rates.RecursionBuilder()
        shared, alone = [], []
        for model in (classical_ge, quantum_ge):
            for traj in trajs:
                shared += [build(model, uniform, traj.y, xs) for xs in (None, traj.x)]
                alone += [
                    rates.stacked_forward_logs([rates.recursion(model, uniform, traj.y, xs)])[0]
                    for xs in (None, traj.x)
                ]
        assert len({id(rec.form) for rec in shared}) == 4
        table, _, steps = rates._stack_table(shared[:6], 1)
        assert len(table.mats) == 2 + 4 + 1 and rates._step_rows(steps, 2000).max() == 5
        for got, ref in zip(rates.stacked_forward_logs(shared), alone):
            assert np.array_equal(got, ref)
        rows = [
            rates.RateRow(
                model, uniform, traj.y, float(rates.input_log_loss(uniform, traj.x).sum()), traj.x
            )
            for model in (classical_ge, quantum_ge)
            for traj in trajs
        ]
        assert rates.estimate_rows(rows) == [rates.estimate_rows([row])[0] for row in rows]

    def test_one_state_recursions_take_one_step_words(self):
        model = one_state_models()[1]
        rec = rates.recursion(model, qc.uniform_input(), np.zeros(self.N, dtype=np.int64))
        assert rates._recursion_word_length(rec) == 1


class TestWordTables:
    """Models unlike the benchmark's: step matrices whose rows never
    shrink a product's rows, and large alphabets, whose word tables must
    hold only the words that occur."""

    def check(self, model, q, traj):
        """Words of more than one step, and per-step logs of both
        recursions within 1e-12 of the sequential reference."""
        recs = [rates.recursion(model, q, traj.y, xs) for xs in (None, traj.x)]
        assert all(rates._recursion_word_length(rec) > 1 for rec in recs)
        for logs, xs in zip(rates.stacked_forward_logs(recs), (None, traj.x)):
            ref, _, failure = iterate_steps(model, q, traj.y, xs)
            assert failure is None
            assert np.abs(logs - ref).max() <= 1e-12

    def test_uniform_gilbert_elliott(self):
        """Every step matrix is uniform, so each row sums to exactly twice
        its matrix's peak and no row of a product shrinks: PATH_RANGE
        still sets the rescale cap."""
        f = qc.build_gilbert_elliott(0.2, 0.2, [[0.5, 0.5], [0.5, 0.5]])
        q = qc.uniform_input()
        traj = qc.sample_trajectory(f, q, 5000, seed=70)
        recs = [rates.recursion(f, q, traj.y, xs) for xs in (None, traj.x)]
        assert [rec.cap for rec in recs] == [rates.PATH_RANGE] * 2
        self.check(f, q, traj)

    def test_dense_three_state_kernel(self):
        """Entries within 10 % of each other: each row sums to more than
        twice its matrix's peak."""
        rng = np.random.default_rng(71)
        kernel = rng.uniform(0.9, 1.0, (3, 2, 3, 2))
        kernel /= kernel.sum(axis=(2, 3), keepdims=True)
        f = qc.ClassicalFsmc(kernel, np.full(3, 1 / 3))
        q = qc.uniform_input()
        self.check(f, q, qc.sample_trajectory(f, q, 5000, seed=72))

    def test_large_alphabet_tables_hold_the_words_that_occur(self):
        """Eight inputs and eight outputs: the joint recursion's 64 step
        matrices give 65**7 codes for words of 7 steps, of which at most
        n / 7 occur."""
        f = models.random_classical_fsmc(np.random.default_rng(73), 2, 8, 8)
        q = qc.uniform_input(8)
        traj = qc.sample_trajectory(f, q, 40000, seed=74)
        recs = [rates.recursion(f, q, traj.y, xs) for xs in (None, traj.x)]
        assert [rates._recursion_word_length(rec) for rec in recs] == [7, 7]
        tracemalloc.start()
        try:
            logs = rates.stacked_forward_logs(recs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        for got, xs in zip(logs, (None, traj.x)):
            ref, _, failure = iterate_steps(f, q, traj.y, xs)
            assert failure is None
            assert np.abs(got - ref).max() <= 1e-12

    @pytest.mark.parametrize("m", [1, 3])
    def test_products_are_c_contiguous(self, m):
        """Phase 1 gathers a product per word and block, and
        ``ndarray.take`` copies a strided array whole before it gathers:
        the products are an array of their own, equal to the entries'
        first D columns."""
        rng = np.random.default_rng(76)
        mats = rng.random((5, 4, 4))
        closure = np.ones(4)
        prods, entries, entry = rates._word_table(mats, closure, rng.integers(0, 5, (40, m)))
        assert prods.flags.c_contiguous
        assert np.array_equal(prods, entries[:, :, :4])
        assert entries.shape == (len(prods), 4, 4 + m) and entry.shape == (40,)

    def test_ranks_looked_up_or_sorted_agree(self):
        code = np.random.default_rng(75).integers(0, 50, 40)
        for space in (50, 8 * code.size + 1):  # looked up, then sorted
            distinct, rank = rates._ranks(code, space)
            assert np.array_equal(distinct, np.unique(code))
            assert np.array_equal(distinct[rank], code)


def memoryless_quantum_bsc(p: float) -> channels.QuantumMemoryChannel:
    """A trivial-memory channel (one-dimensional state) acting as BSC(p)."""
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    kraus = np.stack(
        [np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * channels.PAULI_X]
    )
    return channels.QuantumMemoryChannel(
        state_dim=1,
        encodings=basis,
        kraus=kraus,
        measurements=basis,
        inter_use_unitary=np.eye(1, dtype=complex),
        initial_state=np.eye(1, dtype=complex),
    )


def one_state_models():
    """A classical and a quantum one-state model, three outputs, whose
    recursions share a closure of size 1 and so stack together."""
    w = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    basis = np.stack([np.diag(np.eye(3)[y]) for y in range(3)]).astype(complex)
    encodings = np.stack([np.diag(row) for row in w]).astype(complex)
    quantum = channels.QuantumMemoryChannel(
        state_dim=1,
        encodings=encodings,
        kraus=np.eye(3, dtype=complex)[None],
        measurements=basis,
        inter_use_unitary=np.eye(1, dtype=complex),
        initial_state=np.eye(1, dtype=complex),
    )
    return [qc.ClassicalFsmc(w[None, :, None, :], np.array([1.0])),
            qc.compile_transfer_operators(quantum)]


def blocked_logs(recs):
    """Each recursion's logs from one three-phase pass of the stack, the
    way the engine ran a one-state stack before its closed form."""
    table, exps, steps = rates._stack_table(recs, 1)
    norms, _, _ = rates._blocked_pass(
        table.mats, recs[0].closure, np.stack([r.start for r in recs]),
        steps, 1, min(r.cap for r in recs),
    )
    n = recs[0].index.size
    return list(-np.log(norms[:, :n]) - rates.LN2 * exps[rates._step_rows(steps, n)])


class TestOneStateStacks:
    """A stack of one-state recursions is settled in closed form, without
    a three-phase pass, with the pass's logs and guards."""

    Q = qc.InputLaw([0.6, 0.4])

    def sample(self, n, seed):
        return qc.sample_trajectory(one_state_models()[0], self.Q, n, seed=seed)

    @pytest.mark.parametrize("n", AGREEMENT_LENGTHS)
    def test_closed_form_equals_blocked_pass(self, n):
        """Also from an unnormalized start, which only the first step's
        normalizer sees."""
        traj = self.sample(n, 50)
        classical, quantum = one_state_models()
        scaled = channels.TransferOperatorSet(quantum.operators, 2.5 * quantum.initial_state)
        recs = [rates.recursion(m, self.Q, traj.y, xs)
                for m in (classical, quantum, scaled) for xs in (None, traj.x)]
        assert len({rates.stack_key(r) for r in recs}) == 1
        closed = rates.stacked_forward_logs(recs)
        for got, ref in zip(closed, blocked_logs(recs)):
            assert got.size == n and np.array_equal(got, ref)

    @pytest.mark.parametrize("n", AGREEMENT_LENGTHS)
    @pytest.mark.parametrize("joint", [False, True], ids=["y", "xy"])
    def test_closed_form_agrees_with_reference(self, n, joint):
        traj = self.sample(n, 51)
        xs = traj.x if joint else None
        for model in one_state_models():
            ref, _, failure = iterate_steps(model, self.Q, traj.y, xs)
            assert failure is None
            (logs,) = rates.stacked_forward_logs([rates.recursion(model, self.Q, traj.y, xs)])
            assert np.abs(logs - ref).max() <= 1e-12

    def test_runs_no_pass(self):
        traj = self.sample(1000, 52)
        before = rates.passes
        rates.stacked_forward_logs(
            [rates.recursion(m, self.Q, traj.y, traj.x) for m in one_state_models()]
        )
        assert rates.passes == before

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_zero_probability_step(self, uniform, planted):
        """A noiseless one-state quantum channel: the flipped output has
        zero probability at its step, and a clean recursion stacked with
        it keeps its logs."""
        t = qc.compile_transfer_operators(memoryless_quantum_bsc(0.0))
        xs = np.random.default_rng(53).integers(0, 2, GUARD_N)
        ys = xs.copy()
        ys[[planted, GUARD_N - 1]] ^= 1
        at = assert_trips_like_reference(
            rates.scaled_forward_quantum, t, uniform, ys, xs, ImpossibleObservationError
        )
        assert at == planted
        clean = rates.recursion(t, uniform, xs, xs)
        bad, good = rates.stacked_forward_logs([rates.recursion(t, uniform, ys, xs), clean])
        assert isinstance(bad, ImpossibleObservationError)
        assert np.array_equal(good, rates.stacked_forward_logs([clean])[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry(self, value):
        f = one_state_models()[0]
        kernel = f.kernel.copy()
        kernel[0, 1, 0, 0] = value
        corrupt = qc.ClassicalFsmc(kernel, f.initial)
        traj = self.sample(GUARD_N, 54)
        first = int(np.flatnonzero((traj.x == 1) & (traj.y == 0))[0])
        with pytest.raises(NumericalCorruptionError, match=rf"normalizer is {value} at step {first}$"):
            rates.scaled_forward_classical(corrupt, self.Q, traj.y, traj.x)
        with np.errstate(invalid="ignore"):  # inf * 0j in the reference's complex step
            _, _, (at, exc) = iterate_steps(corrupt, self.Q, traj.y, traj.x)
        assert at == first and isinstance(exc, NumericalCorruptionError)

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_guarded_matrix_trips_at_first_use(self, uniform, planted):
        """A one-state quantum channel (a ``custom_kraus`` of
        ``state_dim`` 1) with an extra output whose trace is complex."""
        t = qc.compile_transfer_operators(memoryless_quantum_bsc(0.1))
        guarded = with_extra_output(t, np.exp(0.3j) * t.chain_operators[:, 0])
        ys = qc.sample_trajectory(t, uniform, GUARD_N, seed=55).y
        ys[[planted, GUARD_N - 1]] = 2
        at = assert_trips_like_reference(
            rates.scaled_forward_quantum, guarded, uniform, ys, None, NumericalCorruptionError
        )
        assert at == planted
        with pytest.raises(NumericalCorruptionError, match="imaginary residue"):
            rates.scaled_forward_quantum(guarded, uniform, ys)


class TestEntropyRateEstimates:
    def test_memoryless_classical_embedding(self, uniform):
        p = 0.11
        f = qc.build_bsc(p)
        traj = qc.sample_trajectory(f, uniform, 100000, seed=33)
        r = qc.entropy_rate_estimates(f, uniform, traj)
        assert abs(r.ir - (1.0 - binary_entropy(p))) <= 0.01
        assert r.ir == r.hx + r.hy - r.hxy

    def test_trivial_memory_quantum_channel_matches_memoryless_rate(self, uniform):
        p = 0.11
        t = qc.compile_transfer_operators(memoryless_quantum_bsc(p))
        assert t.state_dim == 1
        traj = qc.sample_trajectory(t, uniform, 100000, seed=34)
        r = qc.entropy_rate_estimates(t, uniform, traj)
        expected = dmc_information_rate(uniform, qc.build_bsc(p).kernel[0, :, 0, :])
        assert abs(r.ir - expected) <= 0.01

    def test_deterministic_input_gives_zero_rate(self, quantum_ge):
        q = qc.InputLaw([1.0, 0.0])
        traj = qc.sample_trajectory(quantum_ge, q, 2000, seed=35)
        r = qc.entropy_rate_estimates(quantum_ge, q, traj)
        assert r.hx == 0.0
        assert abs(r.ir) <= 1e-12

    def test_keep_scales_and_combination_identity(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, 400, seed=36)
        r = qc.entropy_rate_estimates(quantum_ge, uniform, traj)
        ly, lxy = rates.stacked_forward_logs(
            [rates.recursion(quantum_ge, uniform, traj.y, xs) for xs in (None, traj.x)]
        )
        n = traj.n
        assert abs(r.hy - ly.sum() / (n * rates.LN2)) <= 1e-12
        assert abs(r.hxy - lxy.sum() / (n * rates.LN2)) <= 1e-12
        assert r.ir == r.hx + r.hy - r.hxy

    def test_reference_channel_rate_sandwich(self, quantum_ge, uniform):
        """The noisy-bad-state channel carries less than its good state
        alone (a BSC(0.05)) but still a positive rate."""
        traj = qc.sample_trajectory(quantum_ge, uniform, 100000, seed=38)
        r = qc.entropy_rate_estimates(quantum_ge, uniform, traj)
        assert 0.0 < r.ir < 1.0 - binary_entropy(0.05)

    def test_estimates_bounded_and_nonnegative_in_expectation(self, quantum_ge, uniform):
        irs = []
        for seed in range(20):
            traj = qc.sample_trajectory(quantum_ge, uniform, 10000, seed=seed)
            r = qc.entropy_rate_estimates(quantum_ge, uniform, traj)
            assert r.ir <= 1.0 + 0.005
            irs.append(r.ir)
        assert np.mean(irs) >= -0.005

    def test_spread_shrinks_with_length(self, classical_ge, uniform):
        """Estimator spread across seeds must tighten as n grows
        (prefixes of one long trajectory per seed give the per-n samples)."""
        spreads = {}
        lengths = (1000, 10000, 100000)
        estimates = {n: [] for n in lengths}
        for seed in range(20):
            traj = qc.sample_trajectory(classical_ge, uniform, lengths[-1], seed=100 + seed)
            for n in lengths:
                prefix = qc.Trajectory(traj.x[:n], traj.y[:n], traj.seed)
                estimates[n].append(qc.entropy_rate_estimates(classical_ge, uniform, prefix).ir)
        for n in lengths:
            spreads[n] = np.std(estimates[n], ddof=1)
        assert spreads[100000] <= spreads[1000] / 2.0


def tilted_channel(tilt: float) -> qc.ClassicalFsmc:
    """A two-state channel whose output process under the uniform law is
    uniform but for ``tilt`` added to p(y = 0) in state 0.  Every number
    is a short binary fraction, so the output-only recursion's residual,
    the largest entry of |mats[y] @ closure - closure / Y|, is ``tilt``
    exactly."""
    trans = np.array([[0.5, 0.5], [0.25, 0.75]])
    p0 = np.array([[0.75, 0.25], [0.875, 0.125]])  # p(y = 0 | s, x)
    p0[0] += tilt
    pmf = np.stack([p0, 1.0 - p0], axis=-1)  # [s, x, y]
    return qc.ClassicalFsmc(trans[:, None, :, None] * pmf[:, :, None, :], np.array([0.5, 0.5]))


def output_residual(rec: rates.Recursion) -> float:
    return float(np.abs(rec.form.mats @ rec.closure - rec.closure / len(rec.form.mats)).max())


def reference_ge() -> channels.TransferOperatorSet:
    return qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(P_GOOD, P_BAD, alpha=1.0))


def off_uniform_models() -> dict:
    """Models whose output-only recursion fails the uniform-output check
    under the uniform law, by the condition they fail."""
    ge = reference_ge()
    return {
        "tilt-above-tolerance": tilted_channel(rates.UNIFORM_TOL + 2.0**-52),
        "unnormalized-start": channels.TransferOperatorSet(ge.operators, 2.5 * ge.initial_state),
        "random-model": qc.compile_transfer_operators(
            models.random_quantum_memory_channel(np.random.default_rng(41), state_dim=3)
        ),
    }


def planted_guard(kind: str) -> channels.TransferOperatorSet:
    """The reference quantum channel with output 0's maps corrupted so
    that a guard trips wherever it is observed.  The imaginary and
    Hermiticity plants leave every image's real trace alone, so its
    output process stays uniform; the non-finite ones do not."""
    ge = reference_ge()
    if kind in ("nan", "inf"):
        ops = ge.operators.copy()
        ops[1, 0, 0, 0] = float(kind)
        return channels.TransferOperatorSet(ops, ge.initial_state)
    chain = ge.chain_operators.copy()
    if kind == "imaginary":
        chain[:, 0, [0, 3], 0] += 1e-6j  # an imaginary part on the (0, 0) entry, the trace's 1e-6
    else:
        skew = np.eye(4)
        skew[[0, 3], 1] += 0.1  # a tenth of the trace, 1/2, on the (0, 1) entry, not its mirror
        chain[:, 0] = chain[:, 0] @ skew
    return from_chain(chain, ge.initial_state)


class TestUniformOutput:
    """An output-only recursion whose every step has probability 1/Y,
    within ``rates.UNIFORM_TOL``, runs no step in ``estimate_rows``: its
    sum is n ln Y.  Every other recursion runs the engine as before."""

    N = 2000

    @staticmethod
    def spied(model, q, traj):
        """``entropy_rate_estimates`` and the recursions the engine ran."""
        ran = []
        stack_logs = rates._stack_logs

        def spy(recs, m):
            ran.extend(recs)
            return stack_logs(recs, m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rates, "_stack_logs", spy)
            est = qc.entropy_rate_estimates(model, q, traj)
        return est, ran

    def test_residual_at_tolerance_gives_ln_y(self, uniform):
        """Only the joint recursion runs, ``hy`` is ln 2 / ln 2 = 1 bit
        exactly, and the engine's own ``hy`` lies within the bound of the
        ``rates`` docstring, Y * UNIFORM_TOL / ln 2 here (a probability
        vector has unit 1-norm), of it."""
        model = tilted_channel(rates.UNIFORM_TOL)
        traj = qc.sample_trajectory(model, uniform, self.N, seed=60)
        rec = rates.recursion(model, uniform, traj.y)
        assert output_residual(rec) == rates.UNIFORM_TOL and rec.uniform
        est, ran = self.spied(model, uniform, traj)
        assert len(ran) == 1 and ran[0].inputs is not None
        assert est.hy == math.log(2) / math.log(2) == 1.0
        engine_hy = rates.scaled_forward_classical(model, uniform, traj.y).sum() / (self.N * rates.LN2)
        assert 0.0 < abs(engine_hy - 1.0) <= 2 * rates.UNIFORM_TOL / rates.LN2

    @pytest.mark.parametrize("name", list(off_uniform_models()))
    def test_failing_check_runs_the_engine(self, uniform, name):
        """A residual just above the tolerance, a start of trace 2.5 and
        a random model (residual about 0.15) each run their output-only
        recursion, and the row is the engine's, bit for bit."""
        model = off_uniform_models()[name]
        traj = qc.sample_trajectory(reference_ge(), uniform, self.N, seed=61)
        rec = rates.recursion(model, uniform, traj.y)
        assert not rec.uniform
        if name == "tilt-above-tolerance":
            assert output_residual(rec) == rates.UNIFORM_TOL + 2.0**-52
        if name == "random-model":
            assert 0.1 < output_residual(rec) < 0.2
        est, ran = self.spied(model, uniform, traj)
        assert sorted(r.inputs is None for r in ran) == [False, True]
        scale = self.N * rates.LN2
        assert est.hy == rates.scaled_forward_quantum(model, uniform, traj.y).sum() / scale
        assert est.hxy == rates.scaled_forward_quantum(model, uniform, traj.y, traj.x).sum() / scale

    @pytest.mark.parametrize("kind", ["imaginary", "hermiticity", "nan", "inf"])
    def test_planted_guard_still_trips(self, uniform, kind):
        """The engine's error on the output-only recursion, the one the
        row reported before the check, stays the row's: same type,
        message and step.  A residue trips on the first step that
        observes output 0."""
        t = planted_guard(kind)
        traj = qc.sample_trajectory(reference_ge(), uniform, GUARD_N, seed=62)
        rec = rates.recursion(t, uniform, traj.y)
        assert not rec.uniform
        if kind in ("imaginary", "hermiticity"):
            assert output_residual(rec) <= rates.UNIFORM_TOL
        with pytest.raises(NumericalCorruptionError) as engine:
            rates.scaled_forward_quantum(t, uniform, traj.y)
        message = str(engine.value)
        first = int(np.flatnonzero(traj.y == 0)[0])
        assert {
            "imaginary": f"imaginary residue 1.000e-06 at step {first}",
            "hermiticity": f"Hermiticity residue 5.000e-02 at step {first}",
            "nan": "normalizer is nan", "inf": "normalizer is nan",
        }[kind] in message
        with pytest.raises(NumericalCorruptionError, match=f"^{re.escape(message)}$"):
            qc.entropy_rate_estimates(t, uniform, traj)

    def test_out_of_range_output_still_raises(self, uniform):
        model = reference_ge()
        traj = qc.sample_trajectory(model, uniform, self.N, seed=63)
        assert rates.recursion(model, uniform, traj.y).uniform
        ys = traj.y.copy()
        ys[7] = 2
        with pytest.raises(SequenceError, match=r"^output sequence contains symbols outside"):
            qc.entropy_rate_estimates(model, uniform, dataclasses.replace(traj, y=ys))

    @pytest.mark.parametrize("law, skips", [([0.5, 0.5], True), ([0.3, 0.7], False)])
    def test_classical_quantum_bridge(self, classical_ge, law, skips):
        """The classical Gilbert-Elliott channel and its quantum
        embedding take the same route, and agree within 1e-9 bits."""
        q = qc.InputLaw(np.array(law))
        embedded = models.embed_classical_as_quantum(classical_ge)
        traj = qc.sample_trajectory(classical_ge, q, self.N, seed=64)
        assert [rates.recursion(m, q, traj.y).uniform for m in (classical_ge, embedded)] == [skips] * 2
        c, e = (dataclasses.astuple(qc.entropy_rate_estimates(m, q, traj))
                for m in (classical_ge, embedded))
        assert np.abs(np.subtract(c, e)).max() <= 1e-9

    def test_oracle_still_runs_the_output_only_recursion(self, monkeypatch, capsys):
        """``qchanrate oracle`` checks the engine, uniform output or not:
        on a shipped config at n = 2 it runs the output-only recursion of
        each of the four output sequences."""
        ran = []
        engine = rates.stacked_forward_logs
        monkeypatch.setattr(rates, "stacked_forward_logs", lambda recs: ran.extend(recs) or engine(recs))
        config = Path(__file__).resolve().parents[1] / "configs" / "burst_noise_sweep.json"
        assert main(["oracle", str(config), "--oracle-n", "2"]) == 0
        assert "oracle cross-check passed" in capsys.readouterr().out
        outputs = [rec for rec in ran if rec.inputs is None]
        assert len(outputs) == 4 and all(rec.uniform for rec in outputs)


class TestRowErrors:
    """``estimate_rows`` reports a row's first error: its output-only
    recursion's, whether building or running it failed, then its joint
    one's, here the ``joint_sum`` error taken from a sampler."""

    N = 400
    JOINT = ImpossibleObservationError("observation at step 3 has zero probability under the model")

    def row(self, model, q, traj):
        hx_sum = float(rates.input_log_loss(q, traj.x).sum())
        return rates.RateRow(model, q, traj.y, hx_sum, self.JOINT)

    def test_output_build_error_comes_first(self, uniform):
        model = reference_ge()
        traj = qc.sample_trajectory(model, uniform, self.N, seed=65)
        ys = traj.y.copy()
        ys[7] = 2
        (got,) = rates.estimate_rows([self.row(model, uniform, dataclasses.replace(traj, y=ys))])
        assert isinstance(got, SequenceError)
        assert str(got).startswith("output sequence contains symbols outside")

    def test_output_engine_trip_comes_first(self):
        """Under the law [0.3, 0.7] the planted model's output process is
        not uniform, so its output-only recursion runs, and trips."""
        q = qc.InputLaw(np.array([0.3, 0.7]))
        t = planted_guard("imaginary")
        traj = qc.sample_trajectory(reference_ge(), q, GUARD_N, seed=66)
        assert not rates.recursion(t, q, traj.y).uniform
        with pytest.raises(NumericalCorruptionError) as engine:
            rates.scaled_forward_quantum(t, q, traj.y)
        (got,) = rates.estimate_rows([self.row(t, q, traj)])
        assert type(got) is NumericalCorruptionError and str(got) == str(engine.value)

    @pytest.mark.parametrize("law, skips", [([0.5, 0.5], True), ([0.3, 0.7], False)])
    def test_joint_sum_error_after_a_sound_output(self, law, skips):
        """Whether the output-only recursion is uniform or runs the
        engine without a trip, the row reports its ``joint_sum`` error."""
        q = qc.InputLaw(np.array(law))
        model = reference_ge()
        traj = qc.sample_trajectory(model, q, self.N, seed=67)
        assert rates.recursion(model, q, traj.y).uniform == skips
        (got,) = rates.estimate_rows([self.row(model, q, traj)])
        assert got is self.JOINT


LAW_MESSAGE = "input law size does not match the model input alphabet"


class TestSequenceChecks:
    """A recursion is built only on sequences, and under an input law,
    that fit its model; each check raises ``SequenceError``, which
    ``estimate_rows`` reports as the row's error."""

    YS, XS = np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1])

    @pytest.fixture(scope="class")
    def model(self):
        return qc.build_gilbert_elliott(0.05, 0.3, GE_TRANSITION)

    @pytest.mark.parametrize(
        "ys", [np.zeros(0, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)], ids=["empty", "2-D"]
    )
    def test_output_sequence_must_be_nonempty_and_1d(self, model, uniform, ys):
        with pytest.raises(SequenceError, match=r"^output sequence must be a nonempty 1-D sequence$"):
            rates.recursion(model, uniform, ys)

    def test_input_and_output_lengths_must_agree(self, model, uniform):
        with pytest.raises(SequenceError, match=r"^input and output sequences differ in length$"):
            rates.recursion(model, uniform, self.YS, self.XS[:3])

    @pytest.mark.parametrize("law", [[1.0], [0.5, 0.25, 0.25]], ids=["one-entry", "three-entry"])
    @pytest.mark.parametrize("joint", [False, True], ids=["output", "joint"])
    def test_recursion_checks_the_law_size(self, model, law, joint):
        """The law's size must equal the model's input alphabet: numpy
        would broadcast a one-entry law over both inputs, and reject a
        three-entry one with its own error."""
        with pytest.raises(SequenceError, match=f"^{LAW_MESSAGE}$"):
            rates.scaled_forward_classical(
                model, qc.InputLaw(law), self.YS, self.XS if joint else None
            )

    def test_rows_report_the_law_size(self, model):
        """``entropy_rate_estimates`` and ``lower_bound`` raise the row's
        error, which ``estimate_rows`` returns."""
        q = qc.InputLaw([0.5, 0.25, 0.25])
        traj = qc.Trajectory(self.XS, self.YS, seed=0)
        with pytest.raises(SequenceError, match=f"^{LAW_MESSAGE}$"):
            qc.entropy_rate_estimates(model, q, traj)
        with pytest.raises(SequenceError, match=f"^{LAW_MESSAGE}$"):
            qc.lower_bound(traj, qc.make_auxiliary(model, "ge"), q)
        (got,) = rates.estimate_rows([rates.RateRow(model, q, self.YS, 0.0, self.XS)])
        assert type(got) is SequenceError and str(got) == LAW_MESSAGE

    @pytest.mark.parametrize("call", ["entropy_rate_estimates", "lower_bound"])
    def test_rows_check_the_law_before_the_inputs(self, model, call):
        """A one-entry law meets input symbol 1, outside its range: the
        law's size is reported, not the symbol."""
        q = qc.InputLaw([1.0])
        traj = qc.Trajectory(self.XS, self.YS, seed=0)
        with pytest.raises(SequenceError, match=f"^{LAW_MESSAGE}$"):
            if call == "lower_bound":
                qc.lower_bound(traj, qc.make_auxiliary(model, "ge"), q)
            else:
                qc.entropy_rate_estimates(model, q, traj)


class TestUncompiledModels:
    """Every entry point takes compiled models only: a raw quantum-memory
    channel raises ``TypeError`` naming the compile step."""

    RAW = qc.build_quantum_gilbert_elliott(P_GOOD, P_BAD, alpha=1.0)
    TRAJ = qc.Trajectory(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]), seed=0)
    CALLS = {
        "sample_trajectory": lambda raw, q, traj: qc.sample_trajectory(raw, q, 4, seed=0),
        "recursion": lambda raw, q, traj: rates.recursion(raw, q, traj.y, traj.x),
        "estimate_rows": lambda raw, q, traj: rates.estimate_rows(
            [rates.RateRow(raw, q, traj.y, 0.0, traj.x)]
        ),
        "entropy_rate_estimates": lambda raw, q, traj: qc.entropy_rate_estimates(raw, q, traj),
        "lower_bound": lambda raw, q, traj: qc.lower_bound(traj, qc.AuxiliaryModel(raw, "raw"), q),
        "brute_force_oracle": lambda raw, q, traj: qc.brute_force_oracle(raw, q, 2),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_raw_channel_raises_type_error(self, call, uniform):
        message = r"got QuantumMemoryChannel; compile it with compile_transfer_operators$"
        with pytest.raises(TypeError, match=message):
            call(self.RAW, uniform, self.TRAJ)
