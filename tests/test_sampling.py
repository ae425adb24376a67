import hashlib
import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qchanrate as qc
from qchanrate import channels, linalg, rates, sampling
from qchanrate.errors import (
    ImpossibleObservationError,
    NumericalCorruptionError,
    SequenceError,
    TrajectoryFormatError,
)

import reference
import test_sampler_fuzz
from conftest import GE_TRANSITION, P_BAD, P_GOOD
from models import (
    _random_density,
    embed_classical_as_quantum,
    random_classical_fsmc,
    random_quantum_memory_channel,
)
from reference import oracle_joint_prob


class TestDraws:
    def test_kahan_cumulative_matches_cumsum(self):
        rng = np.random.default_rng(20)
        w = rng.random(8)
        w[6:] = 0.0
        cum, last = sampling._cdf_table(w.tolist())
        assert_allclose(cum, np.cumsum(w), rtol=1e-14)
        assert last == 5

    def test_inverse_cdf_boundaries(self):
        pmf = np.array([0.25, 0.75])
        assert sampling.draw_index(pmf, 0.0) == 0
        assert sampling.draw_index(pmf, 0.2499) == 0
        assert sampling.draw_index(pmf, 0.25) == 1
        assert sampling.draw_index(pmf, 0.999999) == 1

    def test_zero_probability_never_drawn(self):
        us = np.linspace(0.0, 1.0 - 1e-12, 101)
        assert not np.any(sampling.draw_indices(np.array([0.0, 1.0]), us) == 0)
        assert np.all(sampling.draw_indices(np.array([1.0, 0.0]), us) == 0)

    def test_add_reduce_matches_numpy_sum(self):
        """The Python-float pmf total sums in numpy's order: lengths cover the
        sequential loop below eight terms and numpy's pairwise sum from eight
        on, and the wide spread of magnitudes makes every other order round
        differently."""
        rng = np.random.default_rng(25)
        for n in list(range(1, 40)) + [127, 128, 129, 200, 300]:
            for _ in range(20):
                v = rng.random(n) * 10.0 ** rng.integers(-15, 15, n) * rng.choice([-1, 1], n)
                assert sampling._add_reduce(v.tolist()) == float(v.sum())


class TestSampleInput:
    def test_deterministic_law(self):
        xs = qc.sample_input(qc.InputLaw([1.0, 0.0]), 50, qc.make_rng(0))
        assert np.all(xs == 0)

    def test_uniform_frequency(self, uniform):
        xs = qc.sample_input(uniform, 100000, qc.make_rng(123))
        # binomial 3-sigma band around 1/2 at n = 1e5 is about +-0.0047
        assert 0.495 <= np.mean(xs == 0) <= 0.505

    def test_same_seed_same_sequence(self, uniform):
        a = qc.sample_input(uniform, 1000, qc.make_rng(7))
        b = qc.sample_input(uniform, 1000, qc.make_rng(7))
        assert np.array_equal(a, b)


class TestInputGuards:
    """The sampler's inputs are checked before anything is drawn."""

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "too-large"])
    def test_make_rng_seed_range(self, seed):
        message = f"seed must fit in an unsigned 64-bit integer, got {seed}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qc.make_rng(seed)

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([[0, 1]], [[0, 1]], "x and y must be equal-length nonempty 1-D sequences"),
            ([0, 1], [0], "x and y must be equal-length nonempty 1-D sequences"),
            ([], [], "x and y must be equal-length nonempty 1-D sequences"),
            ([0, -1], [0, 1], "symbols must be nonnegative integers"),
            ([0, 1], [-2, 1], "symbols must be nonnegative integers"),
        ],
        ids=["2-D", "lengths-differ", "empty", "negative-input", "negative-output"],
    )
    def test_trajectory(self, x, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            qc.Trajectory(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), seed=0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_input_length(self, n, uniform):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            qc.sample_input(uniform, n, qc.make_rng(0))


def measurement_route_pmf(ch: channels.QuantumMemoryChannel, state, x):
    """Output distribution straight from the channel pieces: evolve the
    joint encoding-memory state through the interaction, trace out the
    memory, apply the measurement operators."""
    joint = np.kron(state, ch.encodings[x])
    fold = np.kron(ch.inter_use_unitary, np.eye(ch.transmit_dim))
    moved = sum((fold @ e) @ joint @ (fold @ e).conj().T for e in ch.kraus)
    rho_b = reference.partial_trace_oracle(moved, ch.state_dim, ch.transmit_dim, "second")
    return np.array(
        [np.trace(m @ rho_b @ m.conj().T).real for m in ch.measurements]
    )


def posterior_route(ch: channels.QuantumMemoryChannel, state, x, y):
    """Conditioned memory state straight from the channel pieces."""
    joint = np.kron(state, ch.encodings[x])
    fold = np.kron(ch.inter_use_unitary, np.eye(ch.transmit_dim))
    moved = sum((fold @ e) @ joint @ (fold @ e).conj().T for e in ch.kraus)
    m_joint = np.kron(np.eye(ch.state_dim), ch.measurements[y])
    selected = m_joint @ moved @ m_joint.conj().T
    reduced = reference.partial_trace_oracle(selected, ch.state_dim, ch.transmit_dim, "first")
    return reduced / np.trace(reduced).real


class TestConditionalOutputDistribution:
    """The sequential reference's output distribution, the pmf that the
    quantum sampler draws from."""

    def test_good_state_hand_values(self):
        p = reference.pieces(qc.build_quantum_gilbert_elliott(P_GOOD, P_BAD, alpha=0.0))
        good = np.diag([1.0, 0.0]).astype(complex)
        assert_allclose(reference.output_pmf(p, good, 0), [1 - P_GOOD, P_GOOD])
        assert_allclose(reference.output_pmf(p, good, 1), [P_GOOD, 1 - P_GOOD])

    def test_noiseless_is_deterministic(self):
        p = reference.pieces(qc.build_quantum_gilbert_elliott(0.0, 0.0, alpha=0.3))
        rng = np.random.default_rng(21)
        state = _random_density(rng, 2)
        for x in range(2):
            assert_allclose(reference.output_pmf(p, state, x), np.eye(2)[x], atol=1e-12)

    def test_matches_measurement_route(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            ch = random_quantum_memory_channel(rng, state_dim=int(rng.integers(1, 4)))
            p = reference.pieces(ch)
            state = _random_density(rng, ch.state_dim)
            for x in range(ch.x_size):
                direct = measurement_route_pmf(ch, state, x)
                contracted = reference.output_pmf(p, state, x)
                assert np.abs(direct - contracted).max() <= 1e-12


class TestPosteriorUpdate:
    """The sequential reference's conditioned state, which the quantum
    sampler carries."""

    def test_matches_classical_forward_posterior(self, classical_ge, uniform):
        p = reference.pieces(embed_classical_as_quantum(classical_ge))
        rng = np.random.default_rng(23)
        mu = classical_ge.initial.copy()
        state = p.start
        for _ in range(40):
            x = int(rng.integers(2))
            y = int(rng.integers(2))
            raw = mu @ classical_ge.kernel[:, x, :, y]
            mu = raw / raw.sum()
            state = reference.condition(p, state, x, y)
            assert np.abs(np.diagonal(state).real - mu).max() <= 1e-12
            assert np.abs(state - np.diag(np.diagonal(state))).max() <= 1e-14

    def test_diagonal_states_stay_diagonal_without_evolution(self):
        p = reference.pieces(
            qc.build_quantum_gilbert_elliott(0.2, 0.7, alpha=0.0, initial_state=np.diag([0.6, 0.4]))
        )
        state = p.start
        for x, y in [(0, 0), (1, 1), (0, 1), (1, 0)]:
            state = reference.condition(p, state, x, y)
            assert np.abs(state - np.diag(np.diagonal(state))).max() <= 1e-14

    def test_matches_direct_conditioning_route(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            ch = random_quantum_memory_channel(rng, state_dim=3)
            p = reference.pieces(ch)
            state = _random_density(rng, 3)
            for x in range(2):
                y = int(reference.output_pmf(p, state, x).argmax())
                assert np.abs(
                    reference.condition(p, state, x, y) - posterior_route(ch, state, x, y)
                ).max() <= 1e-11

    def test_frozen_noiseless_channel_keeps_state(self):
        rho0 = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        p = reference.pieces(
            qc.build_quantum_gilbert_elliott(0.0, 0.0, alpha=0.0, initial_state=rho0)
        )
        state = p.start
        for x in (0, 1, 1, 0):
            state = reference.condition(p, state, x, x)
            assert np.abs(state - rho0).max() <= 1e-12

    def test_impossible_observation_raises(self):
        p = reference.pieces(qc.build_quantum_gilbert_elliott(0.0, 0.0))
        with pytest.raises(ImpossibleObservationError):
            reference.condition(p, p.start, 0, 1)


class TestSampleTrajectory:
    def test_noiseless_reproduces_input(self, uniform):
        t = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(0.0, 0.0, alpha=0.4))
        traj = qc.sample_trajectory(t, uniform, 500, seed=5)
        assert np.array_equal(traj.x, traj.y)

    def test_bsc_flip_rate(self, uniform):
        traj = qc.sample_trajectory(qc.build_bsc(0.5), uniform, 100000, seed=6)
        assert 0.495 <= np.mean(traj.x != traj.y) <= 0.505

    def test_quantum_ge_equal_flips_is_memoryless_bsc(self, uniform):
        p = 0.3
        t = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(p, p, alpha=1.0))
        traj = qc.sample_trajectory(t, uniform, 100000, seed=7)
        rate = np.mean(traj.x != traj.y)
        sigma = np.sqrt(p * (1 - p) / traj.n)
        assert abs(rate - p) <= 3 * sigma

    def test_deterministic_given_seed(self, classical_ge, uniform, quantum_ge):
        for model in (classical_ge, quantum_ge):
            a = qc.sample_trajectory(model, uniform, 300, seed=8)
            b = qc.sample_trajectory(model, uniform, 300, seed=8)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            assert a.generator_id == sampling.GENERATOR_ID

    def test_trace_stays_normalized_over_long_runs(self, quantum_ge, uniform):
        """Every step compares the pmf total with the carried trace within
        PMF_SUM_GUARD, and the residues with their guards: over 10**5 uses
        of the quantum Gilbert-Elliott and the two-qubit model, no guard
        trips."""
        assert sampling.PMF_SUM_GUARD == 1e-9
        for model in (quantum_ge, pinned_model("two_qubit")):
            assert qc.sample_trajectory(model, uniform, 100_000, seed=10).n == 100_000

    def test_classical_and_quantum_paths_agree_exactly(self, classical_ge, uniform):
        """Chained sampler conditionals on the embedded set reproduce the
        classical joint law sequence by sequence (length 6, all pairs)."""
        p = reference.pieces(embed_classical_as_quantum(classical_ge))
        n = 6
        for xs in itertools.product(range(2), repeat=n):
            for ys in itertools.product(range(2), repeat=n):
                prob = 1.0
                state = p.start
                for step in range(n):
                    pmf = reference.output_pmf(p, state, xs[step])
                    prob *= uniform.p[xs[step]] * pmf[ys[step]]
                    if prob == 0.0:
                        break
                    state = reference.condition(p, state, xs[step], ys[step])
                expected = oracle_joint_prob(classical_ge, uniform, xs, ys)
                assert abs(prob - expected) <= 1e-10 * max(expected, 1e-30)


class TestTrajectoryIO:
    def test_round_trip(self, classical_ge, uniform, tmp_path):
        traj = qc.sample_trajectory(classical_ge, uniform, 64, seed=9)
        path = tmp_path / "traj.txt"
        qc.save_trajectory(traj, path)
        back = qc.load_trajectory(path)
        assert np.array_equal(back.x, traj.x) and np.array_equal(back.y, traj.y)
        assert back.seed == traj.seed and back.generator_id == traj.generator_id

    @pytest.mark.parametrize("symbols", ["sampled", "wide"])
    def test_file_bytes_match_per_line_format(self, uniform, tmp_path, symbols):
        """The saved file equals one f-string per numpy symbol pair, the
        format written before the body was joined at once: on a sampled
        quantum trajectory of odd n, and on symbols up to 2^63 - 1."""
        if symbols == "sampled":
            traj = qc.sample_trajectory(pinned_model("quantum_ge"), uniform, 1001, seed=7)
        else:
            traj = qc.Trajectory(np.array([0, 9, 2**63 - 1]), np.array([10**12, 0, 1]), seed=5)
        expected = f"n={traj.n} seed={traj.seed} gen={traj.generator_id}\n" + "".join(
            f"{xv} {yv}\n" for xv, yv in zip(traj.x, traj.y)
        )
        path = tmp_path / "traj.txt"
        qc.save_trajectory(traj, path)
        assert path.read_bytes() == expected.encode("ascii")

    def test_header_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=3 seed=1 gen=test\n0 1\n1 0\n")
        with pytest.raises(TrajectoryFormatError, match="n=3"):
            qc.load_trajectory(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=2 seed=1 gen=test\n0 1\n0 x\n")
        with pytest.raises(TrajectoryFormatError, match="line 3"):
            qc.load_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(TrajectoryFormatError, match="line 1"):
            qc.load_trajectory(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("n=2 seed=1 gen=test\n0 1\n1_0 1\n", "line 3: non-integer symbol"),
            ("n=2 seed=1 gen=test\n0 0_1\n1 0\n", "line 2: non-integer symbol"),
            ("n=2 seed=1 gen=test\n0 1\n+1 0\n", "line 3: non-integer symbol"),
            ("n=1_0 seed=1 gen=test\n0 1\n", "line 1: bad header integer"),
            ("n=1 seed=+4 gen=test\n0 1\n", "line 1: bad header integer"),
        ],
        ids=["x-1_0", "y-0_1", "x-plus", "n-1_0", "seed-plus"],
    )
    def test_fields_are_decimal_integers(self, tmp_path, text, where):
        """``int`` would read ``1_0`` as 10 and ``+1`` as 1."""
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(TrajectoryFormatError, match=where):
            qc.load_trajectory(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=1 seed=-4 gen=test\n0 1\n")
        with pytest.raises(TrajectoryFormatError, match="line 1: seed"):
            qc.load_trajectory(path)


# SHA-256 of x then y (little-endian int64) at n=2000, recorded with the
# per-step samplers that the table-driven ones replaced.
PINNED_STREAMS = {
    ("bsc", 1): "3acf2cfe8a57ccab2fad34d91a954300514769317e9abdd69939e758e4b5614e",
    ("bsc", 2**64 - 1): "8c60b769379afd26a966c9f1701be91802ec6cca7053e141f81fd303a3e220a2",
    ("classical_ge", 1): "84e230370464fcdc58a4173b43a2b3b3601260747bf91144bfa9e2a25ef6d3c0",
    ("classical_ge", 2**64 - 1): "1ec1c38743cef39bd43ba1c088056674011f267b2acac07ff235ca667ffce73f",
    ("quantum_ge", 1): "2815641fba8c0f00608b8be57b621c6919569c855c012530f4d39850a849da2e",
    ("quantum_ge", 2**64 - 1): "3f157bebc94013dd00f5718b89056352b8bacab3cfdc207ddd15ed627b339981",
    ("two_qubit", 1): "270d948d4674bbe1a0ed433221ebd739aacc908deda31b40da493d01f2a2ddb7",
    ("two_qubit", 2**64 - 1): "8124923a7b4a9eef7ca355a293c274cb059f23f86d3835472e8d1f44ee60588e",
}


def pinned_model(name):
    if name == "bsc":
        return qc.build_bsc(0.1)
    if name == "classical_ge":
        return qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION)
    h = channels.DEFAULT_TWO_QUBIT_H if name == "two_qubit" else None
    alpha = 1.2 if name == "two_qubit" else 1.0
    return qc.compile_transfer_operators(
        qc.build_quantum_gilbert_elliott(P_GOOD, P_BAD, h=h, alpha=alpha)
    )


def real_form_models():
    """Random quantum models with one- to four-level memories, the
    embedded classical Gilbert-Elliott channel and the quantum one."""
    rng = np.random.default_rng(28)
    models = [
        qc.compile_transfer_operators(
            random_quantum_memory_channel(
                rng, state_dim=1 + i % 4, x_size=int(rng.integers(2, 4)),
                y_size=int(rng.integers(2, 4)),
            )
        )
        for i in range(18)
    ]
    classical = qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION)
    models.append(embed_classical_as_quantum(classical))
    models.append(pinned_model("quantum_ge"))
    return models


class TestRealStepMatrices:
    @pytest.mark.parametrize("model", real_form_models(), ids=lambda t: f"S{t.state_dim}")
    def test_real_step_matches_complex_step(self, model):
        """Per input, the packed state times the real step matrix gives
        every output's next state (unpacked: the complex contraction) and,
        in the appended columns, its weight (the complex diagonal closure,
        and the diagonal sum of the packed next state)."""
        rng = np.random.default_rng(29)
        s, y_size = model.state_dim, model.y_size
        d = s * s
        steps, imag, herm = sampling._quantum_step_matrices(model)
        assert max(imag) <= 1e-14 and max(herm) <= 1e-14
        for _ in range(3):
            sigma = _random_density(rng, s)
            packed = linalg.pack_hermitian(sigma).reshape(d)
            for x in range(model.x_size):
                assert steps[x].shape == (d, y_size * d + y_size)
                out = packed @ steps[x]
                nxt = sigma.reshape(d) @ model.chain_operators[x]  # (Y, S*S)
                for y in range(y_size):
                    state = out[y * d:(y + 1) * d].reshape(s, s)
                    unpacked = linalg.unpack_hermitian(state)
                    assert np.abs(unpacked - nxt[y].reshape(s, s)).max() <= 1e-14
                    weight = out[y_size * d + y]
                    assert abs(weight - nxt[y, :: s + 1].sum().real) <= 1e-14
                    assert abs(weight - np.trace(state)) <= 1e-14


def assert_quantum_matches_single_step_reference(y_size):
    """A random S=3, X=3 model sampled at n=2000 draws the outputs of the
    sequential reference's single-step route."""
    rng = np.random.default_rng(26)
    t = qc.compile_transfer_operators(
        random_quantum_memory_channel(rng, state_dim=3, x_size=3, y_size=y_size)
    )
    q = qc.uniform_input(3)
    n, seed = 2000, 31
    ref_rng = qc.make_rng(seed)
    x = qc.sample_input(q, n, ref_rng)
    y, failure = reference.sample_outputs(t, x, ref_rng.random(n))
    assert failure is None
    traj = qc.sample_trajectory(t, q, n, seed)
    assert np.array_equal(traj.x, x)
    assert np.array_equal(traj.y, y)


class TestPinnedStreams:
    @pytest.mark.parametrize("name, seed", sorted(PINNED_STREAMS))
    def test_stream_digest(self, name, seed, uniform):
        traj = qc.sample_trajectory(pinned_model(name), uniform, 2000, seed)
        digest = hashlib.sha256()
        digest.update(traj.x.astype("<i8").tobytes())
        digest.update(traj.y.astype("<i8").tobytes())
        assert digest.hexdigest() == PINNED_STREAMS[name, seed]

    def test_quantum_matches_single_step_reference(self):
        """Three outputs exercise the pmf total in numpy's summation order."""
        assert_quantum_matches_single_step_reference(y_size=3)

    def test_binary_quantum_matches_single_step_reference(self):
        """Two outputs take the one-comparison draw."""
        assert_quantum_matches_single_step_reference(y_size=2)

    def test_classical_matches_single_step_reference(self):
        rng = np.random.default_rng(27)
        f = random_classical_fsmc(rng, state_count=3, x_size=2, y_size=3)
        n, seed = 2000, 32
        ref_rng = qc.make_rng(seed)
        x = qc.sample_input(qc.uniform_input(), n, ref_rng)
        y, failure = reference.sample_outputs(f, x, ref_rng.random(n + 1))
        assert failure is None
        traj = qc.sample_trajectory(f, qc.uniform_input(), n, seed)
        assert np.array_equal(traj.x, x)
        assert np.array_equal(traj.y, y)


    @pytest.mark.parametrize("chunk", [1, 7])
    def test_walk_carries_its_state_across_chunks(self, monkeypatch, chunk):
        """A four-state model walks 1 140 of its 3 000 steps one at a time;
        in chunks of ``chunk`` steps, its outputs are unchanged."""
        f = random_classical_fsmc(np.random.default_rng(4), 4, 2, 2)
        n, seed = 3000, 11
        default = qc.sample_trajectory(f, qc.uniform_input(), n, seed)
        ref_rng = qc.make_rng(seed)
        x = qc.sample_input(qc.uniform_input(), n, ref_rng)
        y, failure = reference.sample_outputs(f, x, ref_rng.random(n + 1))
        assert failure is None
        walk = sampling._walk
        walked = []

        def recorded(nexts, rows, after, last_set, steps):
            walked.append(steps.size)
            walk(nexts, rows, after, last_set, steps)

        monkeypatch.setattr(sampling, "_walk", recorded)
        monkeypatch.setattr(sampling, "WALK_CHUNK", chunk)
        traj = qc.sample_trajectory(f, qc.uniform_input(), n, seed)
        assert walked == [1140]
        assert np.array_equal(traj.y, default.y) and np.array_equal(traj.y, y)

class TestConditionalLogLoss:
    """The quantum sampler carries the joint recursion's state, so each
    step's log loss plus the input's equals the joint recursion's log."""

    @pytest.mark.parametrize("name", ["quantum_ge", "two_qubit", "random"])
    def test_matches_joint_recursion_per_step(self, name):
        """At n=2000 the pinned streams' traces fall below RESCALE_FLOOR,
        so the rescale is crossed; the random S=3, X=3, Y=3 model takes
        the table draw."""
        if name == "random":
            t = qc.compile_transfer_operators(
                random_quantum_memory_channel(
                    np.random.default_rng(30), state_dim=3, x_size=3, y_size=3
                )
            )
        else:
            t = pinned_model(name)
        q = qc.uniform_input(t.x_size)
        traj = qc.sample_trajectory(t, q, 2000, 1)
        logs = traj.conditional_log_loss
        assert logs.shape == (2000,)
        assert logs.sum() > -np.log(sampling.RESCALE_FLOOR)
        joint = rates.scaled_forward_quantum(t, q, traj.y, traj.x)
        assert_allclose(logs + rates.input_log_loss(q, traj.x), joint, rtol=0.0, atol=1e-12)

    def test_absent_for_classical_and_loaded_trajectories(self, classical_ge, uniform, tmp_path):
        assert qc.sample_trajectory(classical_ge, uniform, 50, 1).conditional_log_loss is None
        traj = qc.sample_trajectory(pinned_model("quantum_ge"), uniform, 50, 1)
        qc.save_trajectory(traj, tmp_path / "t.txt")
        loaded = qc.load_trajectory(tmp_path / "t.txt")
        assert loaded.conditional_log_loss is None
        assert np.array_equal(loaded.y, traj.y)


def assert_matches_single_step_route(t, n, seed):
    """The sampler draws the outputs of the single-step route on the
    stream of ``seed``, and its logs plus the inputs' match the joint
    recursion's per step."""
    q = qc.uniform_input(t.x_size)
    ref_rng = qc.make_rng(seed)
    x = qc.sample_input(q, n, ref_rng)
    y, failure = reference.sample_outputs(t, x, ref_rng.random(n))
    assert failure is None
    traj = qc.sample_trajectory(t, q, n, seed)
    assert np.array_equal(traj.x, x)
    assert np.array_equal(traj.y, y)
    joint = rates.scaled_forward_quantum(t, q, traj.y, traj.x)
    logs = traj.conditional_log_loss + rates.input_log_loss(q, traj.x)
    assert_allclose(logs, joint, rtol=0.0, atol=1e-12)
    return traj


def random_model(seed, state_dim, x_size, y_size):
    return qc.compile_transfer_operators(
        random_quantum_memory_channel(
            np.random.default_rng(seed), state_dim=state_dim, x_size=x_size, y_size=y_size
        )
    )


def pair_tables(t):
    steps, _, _ = sampling._quantum_step_matrices(t)
    return sampling._pair_tables(steps, t.y_size)


class TestPairWords:
    """A two-output model walks its steps in words of two, one product of
    a pair table each; a last odd step, every step of a model above
    ``PAIR_BUDGET`` and every step of a model with any other number of
    outputs is a one-step word."""

    @pytest.mark.parametrize("model", real_form_models(), ids=lambda t: f"S{t.state_dim}")
    def test_pair_table_matches_two_steps(self, model):
        """For a two-output model, the packed state times a pair table
        gives the state after each output pair (y, y'), the first step's
        weights and the second step's weights on each branch, as two
        one-step products do.  Other alphabets get no tables."""
        rng = np.random.default_rng(34)
        x_size, y_size, d = model.x_size, model.y_size, model.state_dim ** 2
        steps, _, _ = sampling._quantum_step_matrices(model)
        tables = sampling._pair_tables(steps, y_size)
        if y_size != 2:
            assert tables is None
            return
        sigma = _random_density(rng, model.state_dim)
        packed = linalg.pack_hermitian(sigma).reshape(d)
        for x0, x1 in itertools.product(range(x_size), repeat=2):
            table = tables[x0 * x_size + x1]
            assert table.shape == (d, y_size * y_size * (d + 1) + y_size)
            out = packed @ table
            once = packed @ steps[x0]
            assert np.abs(out[y_size * y_size * d:][:y_size] - once[y_size * d:]).max() <= 1e-14
            for y0, y1 in itertools.product(range(y_size), repeat=2):
                twice = once[y0 * d:(y0 + 1) * d] @ steps[x1]
                k = y0 * y_size + y1
                assert np.abs(out[k * d:(k + 1) * d] - twice[y1 * d:(y1 + 1) * d]).max() <= 1e-14
                weight = out[y_size * y_size * d + y_size + k]
                assert abs(weight - twice[y_size * d + y1]) <= 1e-14

    @pytest.mark.parametrize("model", real_form_models(), ids=lambda t: f"S{t.state_dim}")
    def test_tables_are_c_contiguous(self, model):
        """Each step matrix and each pair table is a C-contiguous array,
        so that a product with it reads only its own rows."""
        steps, _, _ = sampling._quantum_step_matrices(model)
        tables = sampling._pair_tables(steps, model.y_size) or []
        assert all(table.flags.c_contiguous for table in steps + tables)

    @pytest.mark.parametrize("n", [1, 2, 1001])
    @pytest.mark.parametrize("name", ["quantum_ge", "random"])
    def test_matches_single_step_route(self, name, n):
        """One odd step, one pair, and pairs then an odd step, on the
        pinned model and a random S=3, X=3, Y=2 one."""
        t = random_model(30, 3, 3, 2) if name == "random" else pinned_model(name)
        assert pair_tables(t) is not None
        assert_matches_single_step_route(t, n, 7)

    @pytest.mark.parametrize("n", [301, 302])
    @pytest.mark.parametrize("y_size", [3, 4])
    def test_wider_alphabet_walks_one_step_words(self, y_size, n):
        """A model with three or four outputs gets no pair tables, however
        small, and draws the single-step route's outputs."""
        t = random_model(35, 2, 2, y_size)
        assert pair_tables(t) is None
        assert_matches_single_step_route(t, n, 7)

    @pytest.mark.parametrize("name, seed", [("quantum_ge", 2**64 - 1), ("two_qubit", 1)])
    def test_rescale_waits_for_the_pair_boundary(self, name, seed):
        """The trace first falls below RESCALE_FLOOR on the first step of
        a pair: the second step runs on it unscaled, and the rescale
        follows the pair."""
        traj = assert_matches_single_step_route(pinned_model(name), 2000, seed)
        below = np.cumsum(traj.conditional_log_loss) > -np.log(sampling.RESCALE_FLOOR)
        assert below[-1] and np.argmax(below) % 2 == 0

    def test_model_above_pair_budget_walks_one_step_words(self):
        t = random_model(33, 4, 8, 2)
        assert 8 * 8 * 16 * (4 * 16 + 2 + 4) > sampling.PAIR_BUDGET
        assert pair_tables(t) is None
        assert_matches_single_step_route(t, 301, 7)


class FixedUniforms:
    """Stands in for the generator: each call of ``random`` returns the
    next of the chosen uniforms, one, or n of them."""

    def __init__(self, us):
        self.us = np.asarray(us, dtype=float)

    def random(self, n=None):
        if n is None:
            u, self.us = self.us[0], self.us[1:]
            return float(u)
        assert n == self.us.size
        return self.us


class TestBinaryDraw:
    """A two-output quantum step picks output 0 when u < w0 / total, as
    the inverse-CDF table of its clipped weights would."""

    def test_boundary_uniform_picks_second_output(self, quantum_ge):
        d = quantum_ge.state_dim ** 2
        steps, _, _ = sampling._quantum_step_matrices(quantum_ge)
        vec = linalg.pack_hermitian(quantum_ge.initial_state).reshape(d)
        for x in range(quantum_ge.x_size):
            w0, w1 = vec.dot(steps[x])[2 * d:].tolist()
            edge = w0 / (w0 + w1)
            assert 0.0 < edge < 1.0
            xs = np.array([x])
            for u, expected in ((edge, 1), (np.nextafter(edge, 0.0), 0)):
                assert sampling.draw_index(np.array([w0, w1]) / (w0 + w1), u) == expected
                picks, _ = sampling._sample_outputs_quantum(quantum_ge, xs, FixedUniforms([u]))
                assert picks.tolist() == [expected]

    @pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 1.0 - 2.0**-20])
    def test_zero_weight_output_never_drawn(self, u):
        """State 0 never emits output 1, and state 1 emits it and moves to
        state 0: from state 0, every u near 1 must still draw output 0, so
        the outputs alternate."""
        kernel = np.zeros((2, 2, 2, 2))  # (S, X, S, Y)
        kernel[0, :, :, 0] = 0.5
        kernel[1, :, 0, :] = 0.5
        f = channels.ClassicalFsmc(kernel, np.array([1.0, 0.0]))
        t = embed_classical_as_quantum(f)
        n = 40
        xs = qc.sample_input(qc.uniform_input(), n, qc.make_rng(4))
        picks, _ = sampling._sample_outputs_quantum(t, xs, FixedUniforms(np.full(n, u)))
        assert picks.tolist() == [0, 1] * (n // 2)

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("negative", [0, 1])
    def test_weight_inside_negative_guard_never_drawn(self, negative, u):
        """A weight just below zero passes the pmf guard and, unclipped, is
        still never drawn, at either end of the uniforms."""
        w = np.array([1.0 + 1e-12, -1e-12])  # output weights of a one-state memory
        if negative == 0:
            w = w[::-1].copy()
        t = channels.TransferOperatorSet(w.reshape(1, 2, 1, 1), np.eye(1))
        picks, _ = sampling._sample_outputs_quantum(t, np.zeros(3, dtype=np.int64), FixedUniforms([u] * 3))
        assert picks.tolist() == [1 - negative] * 3

    @pytest.mark.parametrize(
        "w0, w1", [(0.3, 0.7), (0.0, 1.0), (1.0, 0.0), (-1e-12, 1.0), (1.0, -1e-12)]
    )
    @pytest.mark.parametrize("trace", [1.0, 2.0**-300])
    def test_table_walk_draws_the_pair_loops_binary_rule(self, w0, w1, trace):
        """The one-step words walk the two-entry table (``_draw``), the pair
        words compare inline: both pick output 0 exactly when
        ``u < w0 / total`` on the unclipped total, at the boundary, at a
        zero weight and at a tiny negative one clipped by the walk."""
        w0, w1 = w0 * trace, w1 * trace
        edge = w0 / (w0 + w1)
        us = [u for u in [*np.arange(100) / 100, edge, np.nextafter(edge, 0.0),
                          np.nextafter(edge, 1.0), 1.0 - 2.0**-53] if 0.0 <= u < 1.0]
        for u in us:
            assert sampling._draw([w0, w1], trace, float(u), 0) == (0 if u < edge else 1)


class TestClassicalDraw:
    """A classical step picks what ``bisect_right`` picks on its pair's
    Kahan table, clamped to the last index of positive mass."""

    # Two pmfs whose Kahan tables decrease by one ulp somewhere.  Either
    # alternative to the bisection, counting the entries at or below u or
    # numpy's searchsorted over the sorted uniforms (which narrows each
    # search from the previous key's result), agrees with it only on a
    # nondecreasing table, and picks otherwise on one of these.
    DECREASING = {
        "count": [0.1450713153606405, 0.5146334600312147, 0.0, 0.05639882025359982, 0.28389640435454494],
        "searchsorted": [0.0, 0.33284604904303255, 0.0, 0.6252538633191315, 0.0, 0.04190008763783592],
    }

    @pytest.mark.parametrize("other", sorted(DECREASING))
    def test_decreasing_table_draws_as_bisection(self, other):
        """At every table value and both its neighbours."""
        pmf = np.array(self.DECREASING[other])
        cum, last = sampling._cdf_table(sampling._finalize_pmf(pmf).tolist())
        assert any(b < a for a, b in zip(cum, cum[1:]))
        us = sorted({float(v) for c in cum for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))})
        us = [u for u in us if u < 1.0]
        if other == "count":
            alternative = [min(sum(c <= u for c in cum), last) for u in us]
        else:
            alternative = np.minimum(np.searchsorted(cum, us, side="right"), last).tolist()
        f = channels.ClassicalFsmc(pmf.reshape(1, 1, 1, -1), np.ones(1))
        xs = np.zeros(len(us), dtype=np.int64)
        y, failure = reference.sample_outputs(f, xs, [0.5, *us])
        assert failure is None and y.tolist() != alternative
        picks = sampling._sample_outputs_classical(f, xs, FixedUniforms([0.5, *us]))
        assert np.array_equal(picks, y)

    def test_fuzz_ranks_through_both_branches(self, monkeypatch):
        """``_ranks`` sorts the (input, piece) codes of a trajectory whose
        code space holds more than eight slots per step, and looks them up
        otherwise.  The sampler fuzz's dense 16-state model, whose outputs
        the fuzz compares with the single-step route, sorts at its short
        lengths and looks up at n = 2000."""
        ((model, q),) = test_sampler_fuzz.family("dense")
        ranks = sampling._ranks
        sorting = []
        monkeypatch.setattr(
            sampling, "_ranks",
            lambda code, space: sorting.append(space > 8 * code.size) or ranks(code, space),
        )
        for n in test_sampler_fuzz.LENGTHS:
            qc.sample_trajectory(model, q, n, seed=n)
        assert sorting == [n < 2000 for n in test_sampler_fuzz.LENGTHS]


# A rare input symbol carries each planted fault, so the guard first
# fires at the first use of that symbol: step 20 for this law and seed,
# the first step of a pair word, and step 25, the second step of one,
# for the odd seed.
RARE_LAW = qc.InputLaw([0.97, 0.03])
FAULT_SEED = 1
ODD_FAULT_SEED = 5


def first_rare_step(seed=FAULT_SEED):
    x = qc.sample_input(RARE_LAW, 400, qc.make_rng(seed))
    return int(np.flatnonzero(x == 1)[0])


def planted_quantum(fault):
    t = qc.compile_transfer_operators(
        qc.build_quantum_gilbert_elliott(P_GOOD, P_BAD, alpha=1.0)
    )
    ops = t.operators.copy()
    if fault == "imaginary":
        ops[1] *= 1 + 1e-6j
    elif fault == "negative":
        ops[1, 0] *= -1.0
    elif fault == "total":
        ops[1] *= 1.001
    elif fault == "inf":
        ops[1, 0, 0, 0] = np.inf
    else:
        # feeds the (0, 1) entry of the next state without its conjugate
        # partner: the output weights stay exact, the state turns non-Hermitian
        tensors = ops.reshape(2, 2, 2, 2, 2, 2)
        tensors[1, :, 0, 0, 0, 1] += 1e-3
    return channels.TransferOperatorSet(ops, t.initial_state)


def planted_classical(fault):
    kernel = qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION).kernel.copy()
    if fault == "negative":
        kernel[:, 1, 0, 0] = -1e-3
    elif fault == "total":
        kernel[:, 1] *= 1.001
    else:
        kernel[:, 1, 0, 0] = np.nan
    return channels.ClassicalFsmc(kernel, np.array([0.5, 0.5]))


# Output 1 has zero weight on both inputs; three outputs walk one-step
# words, each bisecting the cumulative table, whose bisection
# zero_weight_draw overrides.  (A two-output pair word never picks a zero
# weight: see TestBinaryDraw.)
ZERO_WEIGHT_MODEL = embed_classical_as_quantum(
    channels.ClassicalFsmc(
        np.array([[[[0.5, 0.0, 0.5]], [[0.25, 0.0, 0.75]]]]), np.array([1.0])  # (S, X, S, Y)
    )
)


def zero_weight_draw(monkeypatch, draw):
    """Make the quantum sampler's draw number ``draw`` (its step) pick
    output 1, as Kahan roundoff could."""
    draws = itertools.count()
    bisect_right = sampling.bisect_right
    monkeypatch.setattr(
        sampling, "bisect_right",
        lambda cum, u: 1 if next(draws) == draw else bisect_right(cum, u),
    )


GUARD_MESSAGES = {
    "imaginary": "output weights carry imaginary residue",
    "negative": "below the roundoff guard",
    "total": "total off by",
    "hermiticity": "Hermiticity residue",
    "nan": "below the roundoff guard",
    # inf * 0 in the real form: NaN residues, with no RuntimeWarning
    "inf": "imaginary residue nan",
}


def single_step_guard_message(t, law, n, seed):
    """The message of the first guard that the single-step route trips on
    the stream of ``seed``, with its step."""
    ref_rng = qc.make_rng(seed)
    x = qc.sample_input(law, n, ref_rng)
    _, failure = reference.sample_outputs(t, x, ref_rng.random(n))
    if failure is None:
        return None
    step, exc = failure
    assert isinstance(exc, NumericalCorruptionError)
    return f"{exc} at step {step}"


class TestSamplerGuards:
    def test_faults_first_reached_at_step_20(self):
        assert first_rare_step() == 20

    @pytest.mark.parametrize("fault", ["imaginary", "negative", "total", "hermiticity", "inf"])
    def test_quantum_guard_names_step(self, fault):
        pattern = rf"{GUARD_MESSAGES[fault]}.* at step 20$"
        with pytest.raises(NumericalCorruptionError, match=pattern):
            qc.sample_trajectory(planted_quantum(fault), RARE_LAW, 400, FAULT_SEED)

    @pytest.mark.parametrize("fault", ["negative", "total"])
    def test_quantum_guard_reports_normalized_values(self, fault):
        """The sampler carries its state unnormalized, with a trace far
        from 1 by step 20; its message still gives the normalized pmf's
        entry or total, as the single-step route does."""
        t = planted_quantum(fault)
        expected = single_step_guard_message(t, RARE_LAW, 400, FAULT_SEED)
        assert expected is not None and expected.endswith(" at step 20")
        with pytest.raises(NumericalCorruptionError) as info:
            qc.sample_trajectory(t, RARE_LAW, 400, FAULT_SEED)
        assert str(info.value) == expected

    def test_faults_first_reached_at_step_25_with_odd_seed(self):
        assert first_rare_step(ODD_FAULT_SEED) == 25

    @pytest.mark.parametrize("fault", ["imaginary", "negative", "total", "hermiticity"])
    def test_quantum_guard_on_second_step_of_pair(self, fault):
        """Each fault trips on the second step of a pair word, at the step
        of the single-step route.  The pmf guards give its message; the
        imaginary and Hermiticity residues are measured per input, on its
        step matrices, so they give its guard but their own value."""
        t = planted_quantum(fault)
        expected = single_step_guard_message(t, RARE_LAW, 400, ODD_FAULT_SEED)
        assert expected is not None and expected.endswith(" at step 25")
        pattern = rf"{GUARD_MESSAGES[fault]}.* at step 25$"
        assert re.search(pattern, expected)
        with pytest.raises(NumericalCorruptionError, match=pattern) as info:
            qc.sample_trajectory(t, RARE_LAW, 400, ODD_FAULT_SEED)
        if fault in ("negative", "total"):
            assert str(info.value) == expected

    def test_zero_weight_pick_trips_next_step(self, monkeypatch):
        """Kahan roundoff can draw an output of zero weight, leaving a
        carried state of zero trace: the next step's pmf guard trips, here
        after an odd step."""
        zero_weight_draw(monkeypatch, 5)
        with pytest.raises(NumericalCorruptionError, match=r"below the roundoff guard at step 6$"):
            qc.sample_trajectory(ZERO_WEIGHT_MODEL, qc.uniform_input(), 50, 3)

    def test_zero_weight_pick_on_first_step_of_pair_trips_second(self, monkeypatch):
        """The same after an even step, which would open a pair word if
        the model had two outputs."""
        zero_weight_draw(monkeypatch, 4)
        with pytest.raises(NumericalCorruptionError, match=r"below the roundoff guard at step 5$"):
            qc.sample_trajectory(ZERO_WEIGHT_MODEL, qc.uniform_input(), 50, 3)

    @pytest.mark.parametrize("n", [7, 8])
    def test_zero_weight_pick_on_last_step_leaves_non_finite_log(self, monkeypatch, n):
        """No later guard sees a zero weight drawn on the last step, at an
        odd or an even n: its log is not finite, and the joint logs
        report it."""
        zero_weight_draw(monkeypatch, n - 1)
        q = qc.uniform_input()
        traj = qc.sample_trajectory(ZERO_WEIGHT_MODEL, q, n, 3)
        assert traj.y[-1] == 1
        logs = traj.conditional_log_loss
        assert np.isfinite(logs[:-1]).all() and not np.isfinite(logs[-1])
        _, joint = rates.log_loss_sums(q, traj)
        assert isinstance(joint, ImpossibleObservationError)
        assert re.match(rf"observation at step {n - 1} has zero probability", str(joint))

    @pytest.mark.parametrize("fault", ["negative", "total", "nan"])
    def test_classical_guard_names_step(self, fault):
        pattern = rf"{GUARD_MESSAGES[fault]}.* at step 20$"
        with pytest.raises(NumericalCorruptionError, match=pattern):
            qc.sample_trajectory(planted_classical(fault), RARE_LAW, 400, FAULT_SEED)


class TestOneStepInputGuards:
    """A failing input's imaginary-residue or Hermiticity guard trips on a
    one-step word, at the step where the single-step route trips: on any
    step of a three-output model, and on a two-output model's odd last
    step.  The residues are measured per input, so only the guard and the
    step are compared."""

    @pytest.mark.parametrize("fault", ["imaginary", "hermiticity"])
    def test_odd_last_step_of_two_output_model(self, fault):
        t = planted_quantum(fault)
        n = first_rare_step() + 1  # the rare input comes first on the last step
        expected = single_step_guard_message(t, RARE_LAW, n, FAULT_SEED)
        assert expected is not None and expected.endswith(f" at step {n - 1}")
        assert re.search(GUARD_MESSAGES[fault], expected)
        with pytest.raises(
            NumericalCorruptionError, match=rf"{GUARD_MESSAGES[fault]}.* at step {n - 1}$"
        ):
            qc.sample_trajectory(t, RARE_LAW, n, FAULT_SEED)

    def test_three_output_model(self):
        t = random_model(62, state_dim=2, x_size=2, y_size=3)
        ops = t.operators.copy()
        ops[1] *= 1 + 1e-6j
        t = channels.TransferOperatorSet(ops, t.initial_state)
        assert sampling._pair_tables(sampling._quantum_step_matrices(t)[0], 3) is None
        expected = single_step_guard_message(t, RARE_LAW, 400, FAULT_SEED)
        assert expected is not None and expected.endswith(" at step 20")
        assert re.search(GUARD_MESSAGES["imaginary"], expected)
        with pytest.raises(
            NumericalCorruptionError, match=rf"{GUARD_MESSAGES['imaginary']}.* at step 20$"
        ):
            qc.sample_trajectory(t, RARE_LAW, 400, FAULT_SEED)


class TestInputLawSize:
    @pytest.mark.parametrize("law", [[1.0], [0.5, 0.25, 0.25]], ids=["one-entry", "three-entry"])
    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_sampler_checks_the_law_size(self, kind, law):
        """A one-entry law drew every input as 0, and a three-entry one
        drew inputs that the model's tables do not hold."""
        model = qc.build_gilbert_elliott(0.05, 0.3, GE_TRANSITION)
        if kind == "quantum":
            model = embed_classical_as_quantum(model)
        with pytest.raises(
            SequenceError, match=r"^input law size does not match the model input alphabet$"
        ):
            qc.sample_trajectory(model, qc.InputLaw(law), 50, 3)


class TestPerInputGuards:
    """The imaginary-residue and Hermiticity guards are measured once per
    input on its step matrices, and trip only on a step that uses it
    (``TestSamplerGuards`` trips them at the first use)."""

    @pytest.mark.parametrize("fault", ["imaginary", "hermiticity"])
    def test_unused_input_never_trips(self, fault):
        t = planted_quantum(fault)
        never_one = qc.InputLaw([1.0, 0.0])
        traj = qc.sample_trajectory(t, never_one, 400, FAULT_SEED)
        assert not traj.x.any()
        clean = qc.sample_trajectory(pinned_model("quantum_ge"), never_one, 400, FAULT_SEED)
        assert np.array_equal(traj.y, clean.y)


def planted_pair(fault, pair=(1, 1), kernel=None):
    """A classical kernel, by default Gilbert-Elliott's, with a fault on
    the one (state, input) pair ``pair``."""
    if kernel is None:
        kernel = qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION).kernel
    kernel = kernel.copy()
    if fault == "negative":
        kernel[pair][0, 0] = -1e-3
    elif fault == "total":
        kernel[pair] *= 1.001
    else:
        kernel[pair][0, 0] = np.nan
    return kernel


# On this seed's stream Gilbert-Elliott first visits (state 1, input 1)
# at step 14, and uses input 1 from step 0 on.
PAIR_FAULT_SEED = 5


class TestClassicalPairGuards:
    """The pmf guards of a classical (state, input) pair trip at the first
    step that visits the pair, not at the input's first use, and never
    when the trajectory does not visit it (as ``TestPerInputGuards``)."""

    @pytest.mark.parametrize("fault", ["negative", "total", "nan"])
    def test_fault_trips_at_first_visit_of_its_pair(self, fault):
        f = channels.ClassicalFsmc(planted_pair(fault), np.array([0.5, 0.5]))
        q = qc.uniform_input()
        ref_rng = qc.make_rng(PAIR_FAULT_SEED)
        x = qc.sample_input(q, 400, ref_rng)
        _, failure = reference.sample_outputs(f, x, ref_rng.random(401))
        step, exc = failure
        assert isinstance(exc, NumericalCorruptionError)
        assert re.search(GUARD_MESSAGES[fault], str(exc))
        assert (x[0], step) == (1, 14)
        with pytest.raises(NumericalCorruptionError) as info:
            qc.sample_trajectory(f, q, 400, PAIR_FAULT_SEED)
        assert str(info.value) == f"{exc} at step {step}"

    @pytest.mark.parametrize("fault", ["negative", "total", "nan"])
    def test_unvisited_pair_never_trips(self, fault):
        """Gilbert-Elliott on states 0 and 1 and a closed state 2 that the
        start never enters; the fault sits on (2, 1)."""
        kernel = np.zeros((3, 2, 3, 2))
        kernel[:2, :, :2] = qc.build_gilbert_elliott(P_GOOD, P_BAD, GE_TRANSITION).kernel
        kernel[2, :, 2] = 0.5
        start = np.array([0.5, 0.5, 0.0])
        q = qc.uniform_input()
        clean = qc.sample_trajectory(channels.ClassicalFsmc(kernel, start), q, 400, FAULT_SEED)
        f = channels.ClassicalFsmc(planted_pair(fault, (2, 1), kernel), start)
        traj = qc.sample_trajectory(f, q, 400, FAULT_SEED)
        assert np.array_equal(traj.y, clean.y)
