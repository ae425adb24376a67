import math
import typing
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qchanrate as qc
from qchanrate import channels, rates
from qchanrate.errors import ImpossibleObservationError, NumericalCorruptionError
from qchanrate.oracle import oracle_joint_prob, oracle_output_prob

from conftest import binary_entropy
from reference import forward_steps, iterate_steps

# Lengths around the block boundaries of the blocked recursion
# (block length ceil(sqrt(n)): 1, 2, 4, 4, 5 and 32 steps).
AGREEMENT_LENGTHS = [1, 2, 15, 16, 17, 1000]


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

    def test_annotations_resolve(self):
        """``typing.get_type_hints`` can evaluate the annotations: each
        names a type the module imports."""
        assert typing.get_type_hints(rates.dmc_information_rate)["w"] is channels.Dmc


class TestClassicalForward:
    def test_single_state_matches_memoryless_form(self):
        q = qc.InputLaw([0.6, 0.4])
        w = qc.Dmc(np.array([[0.8, 0.2], [0.3, 0.7]]))
        f = qc.fsmc_from_dmc(w)
        qy = q.p @ w.w
        ys = np.array([0, 1, 1, 0, 1, 0, 0])
        logs = rates.scaled_forward_classical(f, q, ys)
        assert_allclose(logs, -np.log(qy[ys]), atol=1e-14)

    def test_uniform_output_scale_factor_is_alphabet_size(self, uniform):
        f = qc.fsmc_from_dmc(qc.build_bsc(0.5))
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
        f = qc.fsmc_from_dmc(qc.build_bsc(0.0))
        with pytest.raises(ImpossibleObservationError):
            rates.scaled_forward_classical(f, uniform, np.array([1]), np.array([0]))


class TestQuantumForward:
    def test_embedded_model_reproduces_classical_recursion(self, classical_ge, uniform):
        t = qc.embed_classical_as_quantum(classical_ge)
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


# n = 1000 runs in blocks of 32 steps: 31 full blocks and a final block of 8.
# The planted steps open and close block 30, end the sequence, and (the
# last one) sit on the first rescaling step inside block 30.
GUARD_N = 1000
GUARD_STEPS = [960, 991, 999, 960 + rates.RESCALE_EVERY]


def with_extra_output(t: channels.TransferOperatorSet, chain_extra: np.ndarray):
    """``t`` with one more output symbol, given in chain layout per input."""
    s = t.state_dim
    chain = np.concatenate([t.chain_operators, chain_extra[:, None]], axis=1)
    x_size, y_size = chain.shape[:2]
    ops = chain.reshape(x_size, y_size, s, s, s, s).transpose(0, 1, 2, 4, 3, 5)
    return channels.TransferOperatorSet(
        ops.reshape(x_size, y_size, s * s, s * s), t.initial_state
    )


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
        f = qc.fsmc_from_dmc(qc.build_bsc(0.0))
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

    def test_underflowing_block_product_is_recovered(self, uniform, monkeypatch):
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
        ref, _, failure = iterate_steps(f, q, ys)
        assert failure is None
        before = rates.passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_logs = rates.scaled_forward_classical(f, q, ys)
        assert rates.passes - before == 2  # one resync from the block's end
        assert np.abs(engine_logs - ref).max() <= 1e-12

        # Stacked with a recursion that settles in one pass, each keeps
        # its own logs, and the rerun covers only the unsettled tail.
        calm = np.ones(4000, dtype=np.int64)
        calm_logs = rates.scaled_forward_classical(f, q, calm)
        one_pass = rates._blocked_pass
        stack_sizes = []

        def recorded(table, guarded, closure, starts, indices, *rest):
            stack_sizes.append(len(indices))
            return one_pass(table, guarded, closure, starts, indices, *rest)

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
    w = qc.Dmc(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
    basis = np.stack([np.diag(np.eye(3)[y]) for y in range(3)]).astype(complex)
    encodings = np.stack([np.diag(row) for row in w.w]).astype(complex)
    quantum = channels.QuantumMemoryChannel(
        state_dim=1,
        encodings=encodings,
        kraus=np.eye(3, dtype=complex)[None],
        measurements=basis,
        inter_use_unitary=np.eye(1, dtype=complex),
        initial_state=np.eye(1, dtype=complex),
    )
    return [qc.fsmc_from_dmc(w), qc.compile_transfer_operators(quantum)]


def blocked_logs(recs):
    """Each recursion's logs from one three-phase pass of the stack, the
    way the engine ran a one-state stack before its closed form."""
    table, guarded, exps, shifts = rates._stack_table(recs)
    outs = rates._blocked_pass(
        table, guarded, recs[0].closure, np.stack([r.start for r in recs]),
        [r.index for r in recs], list(shifts), 0,
    )
    return [logs - rates.LN2 * exps[rec.index + shift]
            for rec, shift, (logs, _) in zip(recs, shifts, outs)]


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
        r = qc.entropy_rate_estimates(quantum_ge, uniform, traj)
        ly, lxy = rates.stacked_forward_logs(rates.pair_recursions(quantum_ge, uniform, traj))
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
