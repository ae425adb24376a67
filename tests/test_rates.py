import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qchanrate as qc
from qchanrate import channels, rates
from qchanrate.errors import (
    ImpossibleObservationError,
    NumericalCorruptionError,
    QchanrateError,
)
from qchanrate.oracle import oracle_joint_prob, oracle_output_prob

from conftest import binary_entropy

# Lengths around the block boundaries of the blocked recursion
# (block length ceil(sqrt(n)): 1, 2, 4, 4, 5 and 32 steps).
AGREEMENT_LENGTHS = [1, 2, 15, 16, 17, 1000]


def iterate_steps(step, state, model, q, ys, xs=None):
    """Sequential reference: the single-step function applied in turn.

    Returns the per-step logs (each read off an accumulator zeroed
    before its step), the last state, and ``(index, exception)`` of the
    first step that raised, or None.
    """
    logs = np.empty(len(ys))
    for i, y in enumerate(ys):
        zeroed = dataclasses.replace(state, log_scale_accum=0.0)
        try:
            state = step(model, q, zeroed, y, None if xs is None else xs[i])
        except QchanrateError as exc:
            return logs[:i], state, (i, exc)
        logs[i] = state.log_scale_accum
    return logs, state, None


@pytest.fixture(scope="module")
def random_s3():
    """A random three-level memory channel."""
    return qc.compile_transfer_operators(
        channels.random_quantum_memory_channel(np.random.default_rng(41), state_dim=3)
    )


class TestDmcInformationRate:
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.11, 0.3, 0.5, 0.95, 1.0])
    def test_bsc_closed_form(self, p, uniform):
        got = qc.dmc_information_rate(uniform, qc.build_bsc(p))
        assert abs(got - (1.0 - binary_entropy(p))) <= 1e-12

    def test_uniform_bsc_is_zero(self, uniform):
        assert qc.dmc_information_rate(uniform, qc.build_bsc(0.5)) == 0.0

    def test_reference_value(self, uniform):
        assert abs(qc.dmc_information_rate(uniform, qc.build_bsc(0.05)) - 0.713603) <= 1e-6

    def test_skewed_input(self):
        q = qc.InputLaw([0.6, 0.4])
        w = qc.Dmc(np.array([[0.8, 0.2], [0.3, 0.7]]))
        qy = q.p @ w.w
        expected = sum(
            q.p[x] * w.w[x, y] * math.log2(w.w[x, y] / qy[y])
            for x in range(2)
            for y in range(2)
        )
        assert abs(qc.dmc_information_rate(q, w) - expected) <= 1e-14

    def test_alphabet_mismatch(self, uniform):
        with pytest.raises(ValueError):
            qc.dmc_information_rate(qc.InputLaw([1.0]), qc.build_bsc(0.1))


class TestClassicalForward:
    def test_single_state_matches_memoryless_form(self):
        q = qc.InputLaw([0.6, 0.4])
        w = qc.Dmc(np.array([[0.8, 0.2], [0.3, 0.7]]))
        f = qc.fsmc_from_dmc(w)
        qy = q.p @ w.w
        ys = np.array([0, 1, 1, 0, 1, 0, 0])
        logs = qc.scaled_forward_classical(f, q, ys)
        assert_allclose(logs, -np.log(qy[ys]), atol=1e-14)

    def test_uniform_output_scale_factor_is_alphabet_size(self, uniform):
        f = qc.fsmc_from_dmc(qc.build_bsc(0.5))
        logs = qc.scaled_forward_classical(f, uniform, np.array([0, 1, 1, 0]))
        assert_allclose(np.exp(logs), 2.0)

    def test_recursion_matches_path_enumeration(self, classical_ge, uniform):
        rng = np.random.default_rng(30)
        for _ in range(10):
            ys = rng.integers(0, 2, size=8)
            xs = rng.integers(0, 2, size=8)
            log_py = -qc.scaled_forward_classical(classical_ge, uniform, ys).sum()
            assert abs(log_py - math.log(oracle_output_prob(classical_ge, uniform, ys))) <= 1e-12
            log_pxy = -qc.scaled_forward_classical(classical_ge, uniform, ys, xs).sum()
            assert abs(log_pxy - math.log(oracle_joint_prob(classical_ge, uniform, xs, ys))) <= 1e-12

    @pytest.mark.parametrize("n", AGREEMENT_LENGTHS)
    @pytest.mark.parametrize("joint", [False, True], ids=["y", "xy"])
    def test_step_function_agrees_with_driver(self, classical_ge, uniform, joint, n):
        traj = qc.sample_trajectory(classical_ge, uniform, n, seed=39)
        xs = traj.x if joint else None
        ref, _, failure = iterate_steps(
            qc.forward_step_classical, qc.initial_state_metric(classical_ge),
            classical_ge, uniform, traj.y, xs,
        )
        assert failure is None
        driver = qc.scaled_forward_classical(classical_ge, uniform, traj.y, xs)
        assert np.abs(driver - ref).max() <= 1e-12

    def test_metric_stays_normalized(self, classical_ge, uniform):
        m = qc.initial_state_metric(classical_ge)
        for y in (0, 1, 1, 0, 0, 1):
            m = qc.forward_step_classical(classical_ge, uniform, m, y)
            assert abs(m.mu.sum() - 1.0) <= 1e-12
            assert m.mu.min() >= 0.0

    def test_impossible_observation(self, uniform):
        f = qc.fsmc_from_dmc(qc.build_bsc(0.0))
        with pytest.raises(ImpossibleObservationError):
            qc.scaled_forward_classical(f, uniform, np.array([1]), np.array([0]))


class TestQuantumForward:
    def test_empty_recursion_base_case(self, quantum_ge):
        s = qc.initial_state_operator(quantum_ge)
        assert_allclose(s.sigma, quantum_ge.initial_state)
        assert s.log_scale_accum == 0.0

    def test_embedded_model_reproduces_classical_recursion(self, classical_ge, uniform):
        t = qc.embed_classical_as_quantum(classical_ge)
        traj = qc.sample_trajectory(classical_ge, uniform, 500, seed=31)
        for xs in (None, traj.x):
            lc = qc.scaled_forward_classical(classical_ge, uniform, traj.y, xs)
            lq = qc.scaled_forward_quantum(t, uniform, traj.y, xs)
            assert np.abs(lc - lq).max() <= 1e-12
        # state operators stay diagonal with the classical metric on the diagonal
        m = qc.initial_state_metric(classical_ge)
        s = qc.initial_state_operator(t)
        for y in traj.y[:50]:
            m = qc.forward_step_classical(classical_ge, uniform, m, y)
            s = qc.forward_step_quantum(t, uniform, s, y)
            assert np.abs(np.diagonal(s.sigma).real - m.mu).max() <= 1e-12
            assert np.abs(s.sigma - np.diag(np.diagonal(s.sigma))).max() <= 1e-14

    def test_recursion_matches_path_enumeration(self, quantum_ge, uniform):
        rng = np.random.default_rng(32)
        for _ in range(10):
            ys = rng.integers(0, 2, size=8)
            xs = rng.integers(0, 2, size=8)
            log_py = -qc.scaled_forward_quantum(quantum_ge, uniform, ys).sum()
            assert abs(log_py - math.log(oracle_output_prob(quantum_ge, uniform, ys))) <= 1e-10
            log_pxy = -qc.scaled_forward_quantum(quantum_ge, uniform, ys, xs).sum()
            assert abs(log_pxy - math.log(oracle_joint_prob(quantum_ge, uniform, xs, ys))) <= 1e-10

    @pytest.mark.parametrize("n", AGREEMENT_LENGTHS)
    @pytest.mark.parametrize("joint", [False, True], ids=["y", "xy"])
    @pytest.mark.parametrize("name", ["quantum_ge", "random_s3"])
    def test_step_function_agrees_with_driver(self, request, uniform, name, joint, n):
        model = request.getfixturevalue(name)
        traj = qc.sample_trajectory(model, uniform, n, seed=42)
        xs = traj.x if joint else None
        ref, last, failure = iterate_steps(
            qc.forward_step_quantum, qc.initial_state_operator(model),
            model, uniform, traj.y, xs,
        )
        assert failure is None
        assert abs(np.trace(last.sigma).real - 1.0) <= 1e-12
        driver = qc.scaled_forward_quantum(model, uniform, traj.y, xs)
        assert np.abs(driver - ref).max() <= 1e-12

    def test_initial_scale_invariance(self, quantum_ge, uniform):
        """A positive rescaling of the starting state is absorbed by the
        first normalization; later scale factors and states match."""
        scaled = channels.TransferOperatorSet(
            quantum_ge.operators, 2.5 * quantum_ge.initial_state
        )
        ys = np.array([0, 1, 1, 0, 1, 0, 1, 1])
        base = qc.scaled_forward_quantum(quantum_ge, uniform, ys)
        resc = qc.scaled_forward_quantum(scaled, uniform, ys)
        assert np.abs(base[1:] - resc[1:]).max() <= 1e-12
        assert abs((base[0] - resc[0]) - math.log(2.5)) <= 1e-12
        s_base = qc.initial_state_operator(quantum_ge)
        s_resc = qc.initial_state_operator(scaled)
        for y in ys:
            s_base = qc.forward_step_quantum(quantum_ge, uniform, s_base, y)
            s_resc = qc.forward_step_quantum(scaled, uniform, s_resc, y)
            assert np.abs(s_base.sigma - s_resc.sigma).max() <= 1e-12


# n = 1000 runs in blocks of 32 steps: 31 full blocks and a final block of 8.
# The planted steps open and close block 30 and end the sequence.
GUARD_N = 1000
GUARD_STEPS = [960, 991, 999]


def with_extra_output(t: channels.TransferOperatorSet, chain_extra: np.ndarray):
    """``t`` with one more output symbol, given in chain layout per input."""
    s = t.state_dim
    chain = np.concatenate([t.chain_operators, chain_extra[:, None]], axis=1)
    x_size, y_size = chain.shape[:2]
    ops = chain.reshape(x_size, y_size, s, s, s, s).transpose(0, 1, 2, 4, 3, 5)
    return channels.TransferOperatorSet(
        ops.reshape(x_size, y_size, s * s, s * s), t.initial_state
    )


def assert_trips_like_reference(forward, step, state, model, q, ys, xs, error):
    """The driver raises ``error`` at the step where iterating ``step`` first
    raises it, and emits no warning on the way; returns that step."""
    _, _, failure = iterate_steps(step, state, model, q, ys, xs)
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
        f = qc.fsmc_from_dmc(qc.build_bsc(0.0))
        xs = np.random.default_rng(43).integers(0, 2, GUARD_N)
        ys = xs.copy()
        ys[[planted, GUARD_N - 1]] ^= 1
        at = assert_trips_like_reference(
            qc.scaled_forward_classical, qc.forward_step_classical,
            qc.initial_state_metric(f), f, uniform, ys, xs, ImpossibleObservationError,
        )
        assert at == planted

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_zero_probability_quantum(self, uniform, planted):
        t = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(0.0, 0.0, alpha=1.0))
        xs = np.random.default_rng(44).integers(0, 2, GUARD_N)
        ys = xs.copy()
        ys[[planted, GUARD_N - 1]] ^= 1
        at = assert_trips_like_reference(
            qc.scaled_forward_quantum, qc.forward_step_quantum,
            qc.initial_state_operator(t), t, uniform, ys, xs, ImpossibleObservationError,
        )
        assert at == planted

    @pytest.mark.parametrize("planted", GUARD_STEPS)
    def test_imaginary_trace_residue(self, quantum_ge, uniform, planted):
        t = with_extra_output(quantum_ge, np.exp(0.3j) * quantum_ge.chain_operators[:, 0])
        ys = qc.sample_trajectory(quantum_ge, uniform, GUARD_N, seed=45).y
        ys[[planted, GUARD_N - 1]] = 2
        at = assert_trips_like_reference(
            qc.scaled_forward_quantum, qc.forward_step_quantum,
            qc.initial_state_operator(t), t, uniform, ys, None, NumericalCorruptionError,
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
            qc.scaled_forward_quantum, qc.forward_step_quantum,
            qc.initial_state_operator(t), t, uniform, ys, None, NumericalCorruptionError,
        )
        assert at == planted

    def test_underflowing_block_product_is_recovered(self, uniform):
        """From state 0 an output 0 is a million times less likely than
        from state 1, so a block product of 63 such steps underflows in
        its state-0 row; output 1 then moves state 0 to state 1.  The
        start of the next block cannot come from that product, and the
        per-step logs must still match the sequential reference."""
        kernel = np.zeros((2, 1, 2, 2))
        kernel[0, 0, 0, 0] = 1e-6
        kernel[0, 0, 1, 1] = 1.0 - 1e-6
        kernel[1, 0, 1, :] = 0.5
        f = qc.ClassicalFsmc(kernel, np.array([1.0, 0.0]))
        q = qc.InputLaw([1.0])
        ys = np.zeros(4000, dtype=np.int64)  # blocks of 64 steps
        ys[63] = 1
        ref, _, failure = iterate_steps(
            qc.forward_step_classical, qc.initial_state_metric(f), f, q, ys
        )
        assert failure is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            driver = qc.scaled_forward_classical(f, q, ys)
        assert np.abs(driver - ref).max() <= 1e-12


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


class TestEntropyRateEstimates:
    def test_memoryless_classical_embedding(self, uniform):
        p = 0.11
        f = qc.fsmc_from_dmc(qc.build_bsc(p))
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
        expected = qc.dmc_information_rate(uniform, qc.build_bsc(p))
        assert abs(r.ir - expected) <= 0.01

    def test_deterministic_input_gives_zero_rate(self, quantum_ge):
        q = qc.InputLaw([1.0, 0.0])
        traj = qc.sample_trajectory(quantum_ge, q, 2000, seed=35)
        r = qc.entropy_rate_estimates(quantum_ge, q, traj)
        assert r.hx == 0.0
        assert abs(r.ir) <= 1e-12

    def test_keep_scales_and_combination_identity(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, 400, seed=36)
        r = qc.entropy_rate_estimates(quantum_ge, uniform, traj, keep_scales=True)
        n = traj.n
        assert abs(r.hy - r.per_step_log_scales.output.sum() / (n * rates.LN2)) <= 1e-12
        assert abs(r.hxy - r.per_step_log_scales.joint.sum() / (n * rates.LN2)) <= 1e-12
        assert r.ir == r.hx + r.hy - r.hxy

    def test_burn_in_drops_prefix(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, 400, seed=37)
        full = qc.entropy_rate_estimates(quantum_ge, uniform, traj, keep_scales=True)
        burned = qc.entropy_rate_estimates(quantum_ge, uniform, traj, burn_in=100)
        k = traj.n - 100
        expect_hy = full.per_step_log_scales.output[100:].sum() / (k * rates.LN2)
        assert abs(burned.hy - expect_hy) <= 1e-12
        with pytest.raises(ValueError):
            qc.entropy_rate_estimates(quantum_ge, uniform, traj, burn_in=traj.n)

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
